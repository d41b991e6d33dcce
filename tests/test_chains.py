"""Tests for exact chain laws, pathwise compensators, and Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compensator_bounds import chains
from compensator_bounds.bellman import (
    GridConfig,
    extremal_policy,
    grid_error_budget,
    value_iteration,
)
from compensator_bounds.chains import (
    ChainLaw,
    LawAtom,
    doob_decompose,
    exact_expectation,
    extremal_chain_law,
    intro_chain_law,
    intro_kernel,
    schedule_law,
    simulate_extremal,
    simulate_intro,
)
from compensator_bounds.functions import Family, FunctionSpec
from compensator_bounds.recursion import SolverConfig

EXP_ONE = FunctionSpec(Family.EXPONENTIAL, 1.0)
EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)

# E e^{Y_60} for the doubling chain, frozen from the geometric series
# sum_{k=1}^{n} r^k + r^n with r = e^{1/2} / 2.
E60_DOUBLING = 4.693450263670712


def geometric_oracle(lam: float, n: int) -> float:
    """Independent closed form for E e^{lam Y_n} of the doubling chain."""
    r = math.exp(0.5 * lam) / 2.0
    return math.fsum(r ** k for k in range(1, n + 1)) + r ** n


@pytest.fixture(scope="module")
def exp_table_30():
    return value_iteration(EXP_HALF, 30, GridConfig(30.0, 1.0 / 512),
                           solver=SolverConfig(opt_grid_points=256,
                                               refine_iters=40))


class TestChainLaw:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one atom"):
            ChainLaw(())
        with pytest.raises(ValueError, match="sum to"):
            ChainLaw((LawAtom(0.0, 0.0, 0.7),))
        with pytest.raises(ValueError, match="outside"):
            ChainLaw((LawAtom(1.5, 0.0, 1.0),))
        with pytest.raises(ValueError, match="negative"):
            ChainLaw((LawAtom(0.0, -1.0, 1.0),))
        with pytest.raises(ValueError, match="probability"):
            ChainLaw((LawAtom(0.0, 0.0, 0.0), LawAtom(0.0, 1.0, 1.0)))

    def test_array_views(self):
        law = intro_chain_law(4)
        np.testing.assert_array_equal(law.y_values,
                                      [0.5, 1.0, 1.5, 2.0, 2.0])
        assert law.probabilities.sum() == 1.0

    def test_tiny_increment_keeps_its_atom(self):
        # Every step with a positive increment absorbs into its own atom,
        # even 1e-13 above the previous one.
        a = np.array([0.5, 1e-13, 0.5])
        y = np.concatenate(([0.0], np.cumsum(a)))
        law = schedule_law(a, y)
        assert [atom.x for atom in law.atoms] == [1.0, 1.0, 1.0, 0.0]
        np.testing.assert_array_equal(law.y_values, y[[1, 2, 3, 3]])
        assert law.probabilities[1] == 0.5 * 1e-13
        assert law.probabilities.sum() == pytest.approx(1.0, abs=1e-15)


class TestIntroLaw:
    def test_degenerate_start(self):
        law = intro_chain_law(0)
        assert law.atoms == (LawAtom(0.0, 0.0, 1.0),)

    def test_small_law_exact(self):
        law = intro_chain_law(3)
        assert law.atoms == (
            LawAtom(1.0, 0.5, 0.5),
            LawAtom(1.0, 1.0, 0.25),
            LawAtom(1.0, 1.5, 0.125),
            LawAtom(0.0, 1.5, 0.125),
        )

    @pytest.mark.parametrize("n", [1, 7, 30, 80])
    def test_mass_is_exactly_one(self, n):
        # Dyadic probabilities add without rounding.
        assert intro_chain_law(n).probabilities.sum() == 1.0

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_matches_geometric_oracle(self, n):
        got = exact_expectation(EXP_ONE, intro_chain_law(n))
        assert got == pytest.approx(geometric_oracle(1.0, n), rel=1e-14)

    def test_frozen_value_at_sixty(self):
        got = exact_expectation(EXP_ONE, intro_chain_law(60))
        assert got == pytest.approx(E60_DOUBLING, abs=1e-13)

    def test_near_limit_at_sixty(self):
        r = math.exp(0.5) / 2.0
        limit = r / (1.0 - r)
        got = exact_expectation(EXP_ONE, intro_chain_law(60))
        assert abs(got - limit) < 1e-4

    def test_supercritical_keeps_growing(self):
        # For lam = 1.4 the expectation has no finite limit: each extra
        # step multiplies it by at least r = e^{0.7}/2 ~ 1.007.
        spec = FunctionSpec(Family.EXPONENTIAL, 1.4)
        values = [exact_expectation(spec, intro_chain_law(n))
                  for n in range(20, 41)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert min(ratios) >= 1.02

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            intro_chain_law(-1)


class TestDoobDecompose:
    def test_intro_path_by_hand(self):
        y = doob_decompose([0.0, 0.0, 1.0, 1.0], intro_kernel)
        np.testing.assert_array_equal(y, [0.0, 0.5, 1.0, 1.0])

    def test_absorbed_path_freezes(self):
        y = doob_decompose([0.0, 1.0, 1.0, 1.0, 1.0], intro_kernel)
        np.testing.assert_array_equal(y, [0.0, 0.5, 0.5, 0.5, 0.5])

    def test_start_offset(self):
        y = doob_decompose([0.0, 1.0], intro_kernel, y0=2.0)
        np.testing.assert_array_equal(y, [2.0, 2.5])

    def test_rejects_supermartingale_kernel(self):
        def drifting_down(step, x, y):
            return ((0.0, 1.0),)

        with pytest.raises(ValueError, match="submartingale"):
            doob_decompose([1.0, 0.0], drifting_down)

    def test_rejects_bad_kernel_mass(self):
        def leaky(step, x, y):
            return ((1.0, 0.4),)

        with pytest.raises(ValueError, match="sum to"):
            doob_decompose([0.0, 1.0], leaky)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="nonempty"):
            doob_decompose([], intro_kernel)

    @settings(derandomize=True, max_examples=25)
    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=12))
    def test_compensator_never_decreases(self, path):
        y = doob_decompose(path, intro_kernel)
        assert y[0] == 0.0
        assert np.all(np.diff(y) >= 0.0)


class TestSimulateIntro:
    def test_mean_within_four_standard_errors(self):
        sim = simulate_intro(EXP_ONE, 60, 100_000, seed=20260823)
        exact = exact_expectation(EXP_ONE, intro_chain_law(60))
        assert abs(sim.mean_f - exact) <= 4.0 * sim.std_error
        assert sim.std_error > 0.0

    def test_doob_residual_is_exact_zero(self):
        # Half-integer increments are exact in binary, so the rebuilt
        # compensator matches the sampler's closed form bit for bit.
        sim = simulate_intro(EXP_ONE, 40, 3000, seed=5, audit_paths=300)
        assert sim.max_doob_residual == 0.0

    def test_sample_support(self):
        sim = simulate_intro(EXP_HALF, 12, 4000, seed=9)
        # Absorbed at step 1 .. 12, or never (13).
        assert sim.t_hit.dtype.kind == "i"
        assert sim.t_hit.min() >= 1
        assert sim.t_hit.max() <= 13
        _, y_sched = chains.intro_schedule(12)
        y_final = y_sched[np.minimum(sim.t_hit, 12)]
        doubled = 2.0 * y_final
        np.testing.assert_array_equal(doubled, np.round(doubled))
        assert y_final.min() >= 0.5
        assert y_final.max() <= 6.0
        assert sim.mean_f == pytest.approx(EXP_HALF.value(y_final).mean(),
                                           rel=1e-14)

    def test_seed_determinism(self):
        a = simulate_intro(EXP_ONE, 30, 2000, seed=42, audit_paths=0)
        b = simulate_intro(EXP_ONE, 30, 2000, seed=42, audit_paths=0)
        assert a.mean_f == b.mean_f
        c = simulate_intro(EXP_ONE, 30, 2000, seed=43, audit_paths=0)
        assert a.mean_f != c.mean_f

    def test_error_shrinks_at_root_n_rate(self):
        # RMSE over ten seeds should drop by about 4x when the path
        # count grows 16x (the lam = 1/2 statistic has light tails).
        exact = exact_expectation(EXP_HALF, intro_chain_law(60))
        rmse = {}
        for n_paths in (1000, 16000):
            sq = [(simulate_intro(EXP_HALF, 60, n_paths, seed=7000 + s,
                                  audit_paths=0).mean_f - exact) ** 2
                  for s in range(10)]
            rmse[n_paths] = math.sqrt(sum(sq) / len(sq))
        factor = rmse[1000] / rmse[16000]
        assert 2.5 <= factor <= 6.5

    def test_overflowing_f_rejected(self):
        # E e^{3 Y_600} is about 1e210, but e^{3 * 300} on the
        # never-absorbed path is not a float64.
        spec = FunctionSpec(Family.EXPONENTIAL, 3.0)
        with pytest.raises(ValueError, match="overflows float64"):
            simulate_intro(spec, 600, 10, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            simulate_intro(EXP_ONE, 0, 100, seed=1)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_intro(EXP_ONE, 10, 1, seed=1)


class TestExtremalChain:
    def test_law_matches_table_value(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy)
        expect = exact_expectation(EXP_HALF, law)
        target = exp_table_30.value_at_zero(30)
        assert abs(expect - target) <= grid_error_budget(1.0 / 512)

    def test_law_structure(self, exp_table_30):
        law = extremal_chain_law(extremal_policy(exp_table_30))
        assert abs(law.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(law.y_values) > 0.0)
        # The last step jumps with probability one, so no unabsorbed
        # remainder survives.
        assert all(atom.x == 1.0 for atom in law.atoms)

    def test_shorter_horizon_override(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy, horizon=10)
        expect = exact_expectation(EXP_HALF, law)
        target = exp_table_30.value_at_zero(10)
        assert abs(expect - target) <= grid_error_budget(1.0 / 512)

    def test_simulation_agrees_with_law(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy)
        exact = exact_expectation(EXP_HALF, law)
        sim = simulate_extremal(policy, EXP_HALF, 20_000, seed=11)
        assert abs(sim.mean_f - exact) <= 4.0 * sim.std_error
        assert sim.max_doob_residual == 0.0

    def test_validation(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        with pytest.raises(ValueError, match="horizon"):
            extremal_chain_law(policy, horizon=0)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_extremal(policy, EXP_HALF, 1, seed=3)


def same_result(a, b) -> None:
    for name in ("n_steps", "n_paths", "seed", "mean_f", "std_error",
                 "max_doob_residual"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.t_hit.dtype == b.t_hit.dtype
    np.testing.assert_array_equal(a.t_hit, b.t_hit)


class TestStreamedDraw:
    """The draw is streamed in row chunks of the one Philox stream."""

    @pytest.mark.parametrize("rows", [1, 7])
    def test_intro_chunks_match_one_draw(self, rows, monkeypatch):
        n_steps, n_paths = 12, 4001
        monkeypatch.setattr(chains, "_CHUNK_FLOATS", n_steps * n_paths)
        whole = simulate_intro(EXP_ONE, n_steps, n_paths, seed=9)
        monkeypatch.setattr(chains, "_CHUNK_FLOATS", n_steps * rows)
        chunked = simulate_intro(EXP_ONE, n_steps, n_paths, seed=9)
        same_result(chunked, whole)

    def test_extremal_chunks_match_one_draw(self, exp_table_30, monkeypatch):
        policy = extremal_policy(exp_table_30)
        n_paths = 3001
        monkeypatch.setattr(chains, "_CHUNK_FLOATS", 30 * n_paths)
        whole = simulate_extremal(policy, EXP_HALF, n_paths, seed=11)
        monkeypatch.setattr(chains, "_CHUNK_FLOATS", 30 * 7)
        chunked = simulate_extremal(policy, EXP_HALF, n_paths, seed=11)
        same_result(chunked, whole)

    def test_draw_does_not_hold_the_whole_block(self):
        n_steps, n_paths = 60, 50_000
        tracemalloc.start()
        try:
            simulate_intro(EXP_ONE, n_steps, n_paths, seed=1, audit_paths=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (paths, steps) float64 block would be 24 MB on its own.
        assert peak < n_paths * n_steps * 8 / 4

    def test_doubling_chain_is_the_half_schedule(self):
        a_sched, y_sched = chains.intro_schedule(5)
        np.testing.assert_array_equal(a_sched, [0.5] * 5)
        np.testing.assert_array_equal(y_sched, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        with pytest.raises(ValueError, match="at least one step"):
            chains.simulate_schedule(EXP_ONE, *chains.intro_schedule(0),
                                     100, seed=1)
