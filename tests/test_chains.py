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
    doob_decompose,
    exact_expectation,
    extremal_chain_law,
    intro_schedule,
    policy_schedule,
    schedule_law,
    simulate_intro,
    simulate_schedule,
)
from compensator_bounds.functions import (
    Family,
    FunctionSpec,
    parse_function_spec,
)

EXP_ONE = FunctionSpec(Family.EXPONENTIAL, 1.0)
EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)

# E e^{Y_60} for the doubling chain, frozen from the geometric series
# sum_{k=1}^{n} r^k + r^n with r = e^{1/2} / 2.
E60_DOUBLING = 4.693450263670712


def doubling_law(n: int) -> ChainLaw:
    """Exact terminal law of the doubling chain after ``n`` steps."""
    return schedule_law(intro_schedule(n))


def loop_law(a_sched) -> tuple[np.ndarray, np.ndarray]:
    """The per-step loop that once built ``schedule_law``, kept as its
    oracle: ``(y, prob)`` of each step with a positive absorption
    probability, then of the unabsorbed remainder when it has one, with
    the compensator ``y`` summed step by step."""
    y_values, probs = [], []
    p_live, y = 1.0, 0.0
    for a in a_sched:
        p_absorb = p_live * a
        y += a
        if p_absorb > 0.0:
            y_values.append(float(y))
            probs.append(float(p_absorb))
        p_live *= 1.0 - a
    if p_live > 0.0:
        y_values.append(float(y))
        probs.append(float(p_live))
    return np.array(y_values), np.array(probs)


def step_sums(policy, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The loop that once built ``policy_schedule``: its increments and
    the compensator path it summed step by step."""
    a_sched = np.empty(horizon)
    y_sched = np.zeros(horizon + 1)
    for t in range(horizon):
        a_sched[t] = policy.action(horizon - t, y_sched[t])
        y_sched[t + 1] = y_sched[t] + a_sched[t]
    return a_sched, y_sched


def random_schedule(seed: int) -> np.ndarray:
    """A seeded schedule with zero increments, increments scaled by
    1e-3, one 1e-13 step and, for odd seeds, a final ``a = 1``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    a = rng.random(n) * rng.choice([1.0, 1e-3], n)
    a[rng.random(n) < 0.2] = 0.0
    a[rng.integers(n)] = 1e-13
    if seed % 2:
        a[-1] = 1.0
    return a


def two_point(a: float, x: float):
    """Transition law from value ``x`` when the ceiling is reached with
    probability ``a``; the ceiling absorbs."""
    if x >= 1.0:
        return ((1.0, 1.0),)
    return ((1.0, a), (0.0, 1.0 - a))


def doubling_kernel(step: int, x: float):
    """One-step transition law of the doubling chain from value ``x``."""
    return two_point(0.5, x)


def geometric_oracle(lam: float, n: int) -> float:
    """Independent closed form for E e^{lam Y_n} of the doubling chain."""
    r = math.exp(0.5 * lam) / 2.0
    return math.fsum(r ** k for k in range(1, n + 1)) + r ** n


@pytest.fixture(scope="module")
def exp_table_30():
    return value_iteration(EXP_HALF, 30, GridConfig(30.0, 1.0 / 512))


class TestChainLaw:
    def test_validation(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                schedule_law([0.5, bad])
        # A negative compensator is outside every f's domain.
        with pytest.raises(ValueError, match=">= 0"):
            exact_expectation(EXP_ONE, ChainLaw(np.array([-1.0, -0.5]),
                                                np.array([0.5, 0.5])))

    def test_array_views(self):
        law = doubling_law(4)
        assert law._fields == ("y_values", "probabilities")
        assert law.y_values.dtype == law.probabilities.dtype == np.float64
        np.testing.assert_array_equal(law.y_values,
                                      [0.5, 1.0, 1.5, 2.0, 2.0])
        assert law.probabilities.sum() == 1.0

    def test_tiny_increment_keeps_its_atom(self):
        # Every step with a positive increment absorbs into its own atom,
        # even 1e-13 above the previous one, and the unabsorbed
        # remainder is the last.
        a = np.array([0.5, 1e-13, 0.5])
        y = np.concatenate(([0.0], np.cumsum(a)))
        law = schedule_law(a)
        assert np.prod(1.0 - a) > 0.0
        np.testing.assert_array_equal(law.y_values, y[[1, 2, 3, 3]])
        assert law.probabilities[1] == 0.5 * 1e-13
        assert law.probabilities.sum() == pytest.approx(1.0, abs=1e-15)


class TestLawOracle:
    """``schedule_law`` gives the step loop's atoms bit for bit."""

    @staticmethod
    def assert_same_law(a_sched) -> None:
        law = schedule_law(a_sched)
        y_values, probs = loop_law(a_sched)
        np.testing.assert_array_equal(law.y_values, y_values)
        np.testing.assert_array_equal(law.probabilities, probs)
        assert (exact_expectation(EXP_ONE, law)
                == float(np.dot(probs, EXP_ONE.value(y_values))))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_schedules(self, seed):
        self.assert_same_law(random_schedule(seed))

    @pytest.mark.parametrize("n", [0, 1, 60])
    def test_doubling_schedule(self, n):
        self.assert_same_law(intro_schedule(n))

    def test_policy_schedule(self, exp_table_30):
        self.assert_same_law(
            policy_schedule(extremal_policy(exp_table_30), 30))


class TestIntroLaw:
    def test_degenerate_start(self):
        law = doubling_law(0)
        np.testing.assert_array_equal(law.y_values, [0.0])
        np.testing.assert_array_equal(law.probabilities, [1.0])

    def test_small_law_exact(self):
        law = doubling_law(3)
        np.testing.assert_array_equal(law.y_values, [0.5, 1.0, 1.5, 1.5])
        np.testing.assert_array_equal(law.probabilities,
                                      [0.5, 0.25, 0.125, 0.125])

    @pytest.mark.parametrize("n", [1, 7, 30, 80])
    def test_mass_is_exactly_one(self, n):
        # Dyadic probabilities add without rounding.
        assert doubling_law(n).probabilities.sum() == 1.0

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_matches_geometric_oracle(self, n):
        got = exact_expectation(EXP_ONE, doubling_law(n))
        assert got == pytest.approx(geometric_oracle(1.0, n), rel=1e-14)

    def test_frozen_value_at_sixty(self):
        got = exact_expectation(EXP_ONE, doubling_law(60))
        assert got == pytest.approx(E60_DOUBLING, abs=1e-13)

    def test_near_limit_at_sixty(self):
        r = math.exp(0.5) / 2.0
        limit = r / (1.0 - r)
        got = exact_expectation(EXP_ONE, doubling_law(60))
        assert abs(got - limit) < 1e-4

    def test_supercritical_keeps_growing(self):
        # For lam = 1.4 the expectation has no finite limit: each extra
        # step multiplies it by at least r = e^{0.7}/2 ~ 1.007.
        spec = FunctionSpec(Family.EXPONENTIAL, 1.4)
        values = [exact_expectation(spec, doubling_law(n))
                  for n in range(20, 41)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert min(ratios) >= 1.02


class TestDoobDecompose:
    def test_intro_path_by_hand(self):
        y = doob_decompose([0.0, 0.0, 1.0, 1.0], doubling_kernel)
        np.testing.assert_array_equal(y, [0.0, 0.5, 1.0, 1.0])

    def test_absorbed_path_freezes(self):
        y = doob_decompose([0.0, 1.0, 1.0, 1.0, 1.0], doubling_kernel)
        np.testing.assert_array_equal(y, [0.0, 0.5, 0.5, 0.5, 0.5])

    def test_rejects_supermartingale_kernel(self):
        def drifting_down(step, x):
            return ((0.0, 1.0),)

        with pytest.raises(ValueError, match="submartingale"):
            doob_decompose([1.0, 0.0], drifting_down)

    def test_rejects_bad_kernel_mass(self):
        def leaky(step, x):
            return ((1.0, 0.4),)

        with pytest.raises(ValueError, match="sum to"):
            doob_decompose([0.0, 1.0], leaky)

    def test_rejects_empty_path(self):
        with pytest.raises(ValueError, match="nonempty"):
            doob_decompose([], doubling_kernel)

    @settings(derandomize=True, max_examples=25)
    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=12))
    def test_compensator_never_decreases(self, path):
        y = doob_decompose(path, doubling_kernel)
        assert y[0] == 0.0
        assert np.all(np.diff(y) >= 0.0)


class TestSimulateIntro:
    def test_mean_within_four_standard_errors(self):
        sim = simulate_intro(EXP_ONE, 60, 100_000, seed=20260823)
        exact = exact_expectation(EXP_ONE, doubling_law(60))
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
        np.testing.assert_array_equal(sim.y_path, 0.5 * np.arange(13))
        y_final = sim.y_path[np.minimum(sim.t_hit, 12)]
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
        exact = exact_expectation(EXP_HALF, doubling_law(60))
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
        with pytest.raises(ValueError, match="at least one step"):
            simulate_intro(EXP_ONE, 0, 100, seed=1)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_intro(EXP_ONE, 10, 1, seed=1)
        with pytest.raises(ValueError, match="audit_paths"):
            simulate_intro(EXP_ONE, 5, 10, seed=1, audit_paths=-1)
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                simulate_schedule(EXP_ONE, [0.5, bad], 10, seed=1)


class TestExtremalChain:
    def test_law_matches_table_value(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy, 30)
        expect = exact_expectation(EXP_HALF, law)
        target = exp_table_30.value_at_zero(30)
        assert abs(expect - target) <= grid_error_budget(1.0 / 512)

    def test_law_structure(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy, 30)
        assert abs(law.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(law.y_values) > 0.0)
        # The last step jumps with probability one, so no unabsorbed
        # remainder survives: one atom per step, each an absorption.
        a_sched = policy_schedule(policy, 30)
        assert a_sched[-1] == 1.0 and np.prod(1.0 - a_sched) == 0.0
        assert len(law.y_values) == 30

    def test_shorter_horizon_override(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy, horizon=10)
        expect = exact_expectation(EXP_HALF, law)
        target = exp_table_30.value_at_zero(10)
        assert abs(expect - target) <= grid_error_budget(1.0 / 512)

    def test_simulation_agrees_with_law(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        law = extremal_chain_law(policy, 30)
        exact = exact_expectation(EXP_HALF, law)
        sim = simulate_schedule(EXP_HALF, policy_schedule(policy, 30),
                                20_000, seed=11)
        assert abs(sim.mean_f - exact) <= 4.0 * sim.std_error
        assert sim.max_doob_residual == 0.0

    def test_validation(self, exp_table_30):
        policy = extremal_policy(exp_table_30)
        with pytest.raises(ValueError, match="horizon"):
            extremal_chain_law(policy, horizon=0)
        with pytest.raises(ValueError, match="n_paths"):
            simulate_schedule(EXP_HALF, policy_schedule(policy, 30), 1,
                              seed=3)


class TestStreamedDraw:
    """The draw keeps only per-path arrays, whatever the horizon."""

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

    def test_peak_does_not_grow_with_the_horizon(self):
        n_paths = 50_000
        simulate_intro(EXP_ONE, 60, n_paths, seed=1, audit_paths=0)
        peak = {}
        for n_steps in (60, 600):
            tracemalloc.start()
            try:
                simulate_intro(EXP_ONE, n_steps, n_paths, seed=1,
                               audit_paths=0)
                _, peak[n_steps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # Only the schedule's own arrays grow with the steps, a few words
        # per step; one more draw row per path would add 8 bytes a path.
        assert peak[600] - peak[60] < 100 * (600 - 60)

    def test_call_holds_under_fourteen_bytes_a_path(self):
        n_paths = 10 ** 5
        simulate_intro(EXP_ONE, 60, n_paths, seed=1)
        tracemalloc.start()
        try:
            simulate_intro(EXP_ONE, 60, n_paths, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The statistics hold the 2-byte absorption steps and the 8-byte
        # f values; the draw before them a 4-byte live index and about
        # 150 kB of chunk arrays.  An 8-byte t_hit or a path-length index
        # array would put the peak past 14 bytes a path.
        assert peak < 14 * n_paths

    def test_doubling_chain_is_the_half_schedule(self):
        np.testing.assert_array_equal(chains.intro_schedule(5), [0.5] * 5)
        sim = chains.simulate_schedule(EXP_ONE, chains.intro_schedule(5),
                                       100, seed=1)
        np.testing.assert_array_equal(sim.y_path,
                                      [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        assert sim.n_paths == 100
        with pytest.raises(ValueError, match="at least one step"):
            chains.simulate_schedule(EXP_ONE, chains.intro_schedule(0),
                                     100, seed=1)


def loop_hits(seed, a_sched, n_paths) -> np.ndarray:
    """Absorption steps from a plain loop over steps and live paths: one
    ``rng.random()`` call per live path, in index order, on one
    ``Generator(Philox(seed))`` stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    t_hit = np.full(n_paths, len(a_sched) + 1)
    live = list(range(n_paths))
    for t, a in enumerate(a_sched):
        stay = []
        for i in live:
            if rng.random() < a:
                t_hit[i] = t + 1
            else:
                stay.append(i)
        live = stay
    return t_hit


def live_schedule(name: str, n_steps: int) -> np.ndarray:
    """The live-set draw's test schedules."""
    return {
        "half": lambda: np.full(n_steps, 0.5),
        # Exact 0 and 1 entries: never and always a jump.
        "edges": lambda: np.resize([0.0, 0.3, 1.0, 0.0, 0.7], n_steps),
        # Paths live about 20 steps.
        "small": lambda: np.full(n_steps, 0.05),
    }[name]()


class TestLiveSetDraw:
    @pytest.mark.parametrize("n_steps", [1, 7, 60, 61])
    @pytest.mark.parametrize("schedule", ["half", "edges", "small"])
    def test_hits_match_the_loop(self, n_steps, schedule):
        a_sched = live_schedule(schedule, n_steps)
        # Not a multiple of four: a step's draw starts mid-block.
        n_paths = 1003
        np.testing.assert_array_equal(chains._first_hits(8, a_sched, n_paths),
                                      loop_hits(8, a_sched, n_paths))

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    @pytest.mark.parametrize("schedule", ["half", "edges", "small"])
    def test_chunk_size_does_not_change_the_hits(self, chunk, schedule,
                                                 monkeypatch):
        # 1003 paths are 334 chunks of 3 and one more, or a chunk of 1000
        # and one of 3: a chunk boundary falls inside the first step, and
        # inside later ones while more than a chunk of paths is live.
        monkeypatch.setattr(chains, "_DRAW_CHUNK", chunk)
        a_sched = live_schedule(schedule, 61)
        np.testing.assert_array_equal(chains._first_hits(8, a_sched, 1003),
                                      loop_hits(8, a_sched, 1003))

    @pytest.mark.parametrize("n_steps, dtype", [
        (60, np.int16), (600, np.int16), (2 ** 15 - 2, np.int16),
        (2 ** 15 - 1, np.int32)])
    def test_absorption_step_type_holds_the_horizon(self, n_steps, dtype):
        # The narrowest of int16 and int32 that holds n_steps + 1.
        t_hit = chains._first_hits(1, np.zeros(n_steps), 5)
        assert t_hit.dtype == dtype
        np.testing.assert_array_equal(t_hit, n_steps + 1)

    def test_threshold_is_the_uniform_itself(self):
        # u < a is false at a == u and true one ulp above it.
        u = np.random.Generator(np.random.Philox(4)).random(3)
        for a, t_hit in ((u[0], 2), (np.nextafter(u[0], 1.0), 1)):
            hits = chains._first_hits(4, np.array([a]), 3)
            assert hits[0] == t_hit
            np.testing.assert_array_equal(hits,
                                          loop_hits(4, np.array([a]), 3))

    @pytest.mark.parametrize("seed", [0, 1, 8, 2 ** 40, 2 ** 63,
                                      2 ** 64 + 1, 2 ** 128 - 2])
    def test_seed_reaches_the_stream_whole(self, seed):
        a_sched = np.array([0.05, 0.3, 0.0, 0.7, 0.05, 0.5, 0.2])
        hits = chains._first_hits(seed, a_sched, 203)
        np.testing.assert_array_equal(hits, loop_hits(seed, a_sched, 203))
        # Bits above the 64th still pick the stream.
        assert not np.array_equal(
            hits, chains._first_hits(seed + 2 ** 64, a_sched, 203))

    @pytest.mark.parametrize("cut", [1, 2, 7, 30, 59])
    def test_prefix_fixes_the_hits(self, cut):
        # Step t reads only a_sched[:t + 1]: cutting the schedule keeps
        # every hit up to the cut and leaves the rest unabsorbed.
        a_sched = np.resize([0.05, 0.1, 0.0, 0.02], 60)
        full = chains._first_hits(5, a_sched, 2001)
        np.testing.assert_array_equal(
            chains._first_hits(5, a_sched[:cut], 2001),
            np.where(full <= cut, full, cut + 1))

    @pytest.mark.parametrize("schedule",
                             ["half", "edges", "small", "random", "policy"])
    def test_hit_law_matches_the_schedule(self, schedule, exp_table_30):
        a_sched = {
            "half": lambda: np.full(12, 0.5),
            "edges": lambda: np.resize([0.0, 0.3, 0.0, 0.7, 1.0, 0.4], 12),
            "small": lambda: np.full(60, 0.05),
            "random": lambda: random_schedule(3),
            "policy": lambda: policy_schedule(
                extremal_policy(exp_table_30), 30),
        }[schedule]()
        n_steps, n_paths = len(a_sched), 200_000
        live = np.cumprod(np.concatenate(([1.0], 1.0 - a_sched)))
        prob = np.append(live[:-1] * a_sched, live[-1])
        counts = np.bincount(chains._first_hits(6, a_sched, n_paths),
                             minlength=n_steps + 2)
        assert counts[0] == 0
        freq = counts[1:] / n_paths
        # A step the chain cannot be absorbed at is never drawn; every
        # other frequency is within five binomial standard errors.
        np.testing.assert_array_equal(freq[prob == 0.0], 0.0)
        se = np.sqrt(prob * (1.0 - prob) / n_paths)
        assert np.all(np.abs(freq - prob) <= 5.0 * se + 1e-12)


class TestMoments:
    """``mean_f`` and ``std_error`` are numpy's mean and ``ddof=1``
    standard deviation of the sampled ``f(Y_n)``, bit for bit."""

    @pytest.mark.parametrize("n_paths", [2, 3, 1003, 10 ** 5])
    @pytest.mark.parametrize("schedule", ["intro", "edges", "extremal"])
    def test_moments_are_numpys(self, schedule, n_paths, exp_table_30):
        spec, a_sched = {
            "intro": lambda: (EXP_ONE, intro_schedule(60)),
            "edges": lambda: (parse_function_spec("pow:m=2"),
                              live_schedule("edges", 61)),
            "extremal": lambda: (EXP_HALF, policy_schedule(
                extremal_policy(exp_table_30), 30)),
        }[schedule]()
        sim = simulate_schedule(spec, a_sched, n_paths, seed=n_paths,
                                audit_paths=0)
        values = spec.forms.f(sim.y_path)[np.minimum(sim.t_hit,
                                                     len(a_sched))]
        assert sim.mean_f.hex() == float(values.mean()).hex()
        assert sim.std_error.hex() == float(
            values.std(ddof=1) / math.sqrt(n_paths)).hex()

    def test_long_horizon_does_not_wrap(self):
        # Past 2^15 - 2 steps the absorption step no longer fits int16;
        # no path jumps, so every one ends at n_steps + 1.
        a_sched = np.zeros(2 ** 15 + 3)
        sim = simulate_schedule(EXP_ONE, a_sched, 50, seed=1)
        np.testing.assert_array_equal(sim.t_hit, len(a_sched) + 1)
        exact = exact_expectation(EXP_ONE, schedule_law(a_sched))
        assert sim.mean_f == exact == 1.0
        assert sim.std_error == 0.0
        assert sim.max_doob_residual == 0.0


class TestAudit:
    """Each distinct absorption step among the audited paths is rebuilt
    once; the residual equals the audit of every path."""

    @staticmethod
    def per_path_residual(sim, a_sched, y_sched, audit_paths) -> float:
        def kernel(step, x):
            return two_point(a_sched[step], x)

        steps = np.arange(len(a_sched) + 1)
        residual = 0.0
        for i in range(min(audit_paths, sim.n_paths)):
            y_path = doob_decompose((steps >= sim.t_hit[i]).astype(float),
                                    kernel)
            closed = y_sched[np.minimum(steps, sim.t_hit[i])]
            residual = max(residual, float(np.max(np.abs(y_path - closed))))
        return residual

    @pytest.mark.parametrize("audit_paths", [0, 1, 200, 700])
    def test_matches_the_per_path_audit(self, audit_paths, monkeypatch):
        n_steps, n_paths = 12, 500
        a_sched = np.full(n_steps, 0.1)
        # The summed path is the audit's own running sum, bit for bit, so
        # the sampler is handed 0.1 * k instead: 0.1 is not a binary
        # fraction, and the running sum drifts from 0.1 * k by a few ulps.
        y_sched = 0.1 * np.arange(n_steps + 1)
        monkeypatch.setattr(chains, "_compensator",
                            lambda a: (np.asarray(a, dtype=float), y_sched))
        sim = simulate_schedule(EXP_ONE, a_sched, n_paths, seed=2,
                                audit_paths=audit_paths)
        want = self.per_path_residual(sim, a_sched, y_sched, audit_paths)
        assert sim.max_doob_residual == want
        assert (want > 0.0) == (audit_paths > 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_summed_path_leaves_no_residual(self, seed):
        a_sched = random_schedule(seed)
        sim = simulate_schedule(EXP_ONE, a_sched, 500, seed=seed,
                                audit_paths=500)
        assert sim.max_doob_residual == 0.0
        assert sim.max_doob_residual == self.per_path_residual(
            sim, a_sched, sim.y_path, 500)


class TestCompensatorPath:
    """The one summed path, ``[0, cumsum(a)]``, is the path the old code
    built by other means, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 60, 20000])
    def test_doubling_path_is_half_the_step_count(self, n):
        _, y_sched = chains._compensator(intro_schedule(n))
        assert y_sched.tobytes() == (0.5 * np.arange(n + 1)).tobytes()

    @pytest.mark.parametrize("trusted_only", [False, True],
                             ids=["full", "trusted"])
    @pytest.mark.parametrize("text, horizon, step", [
        ("pow:m=2", 30, 1.0 / 512), ("exp:lambda=0.5", 30, 1.0 / 512),
        ("remark2", 6, 1.0 / 75), ("quad", 9, 0.3), ("pow:m=2", 12, 1.0 / 7),
    ])
    def test_policy_path_is_the_step_sums(self, text, horizon, step,
                                          trusted_only):
        table = value_iteration(parse_function_spec(text), horizon,
                                GridConfig(float(horizon), step),
                                trusted_only=trusted_only)
        policy = extremal_policy(table)
        for h in range(1, horizon + 1):
            a_old, y_old = step_sums(policy, h)
            a_sched, y_sched = chains._compensator(policy_schedule(policy, h))
            assert a_sched.tobytes() == a_old.tobytes()
            assert y_sched.tobytes() == y_old.tobytes()
