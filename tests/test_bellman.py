"""Tests for the finite-horizon value iteration and its agreement with
the scalar recursion."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from compensator_bounds import bellman
from compensator_bounds.bellman import (
    BoundComparison,
    GridConfig,
    Lemma1Report,
    compare_bounds,
    extremal_policy,
    full_value,
    grid_error_budget,
    value_iteration,
    verify_lemma1,
)
from compensator_bounds.chains import (
    exact_expectation,
    extremal_chain_law,
)
from compensator_bounds.functions import (
    Family,
    FunctionSpec,
    parse_function_spec,
)
from compensator_bounds.recursion import SolverConfig, recursion_sequence

EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)
POW_TWO = FunctionSpec(Family.POWER, 2.0)
QUAD = FunctionSpec(Family.QUAD)
REMARK2 = FunctionSpec(Family.REMARK2)
LIGHT = SolverConfig(refine_iters=40)


@pytest.fixture(scope="module")
def exp_table_30():
    return value_iteration(EXP_HALF, 30, GridConfig(30.0, 1.0 / 512))


@pytest.fixture(scope="module")
def exp_table_40():
    return value_iteration(EXP_HALF, 40, GridConfig(40.0, 1.0 / 512))


@pytest.fixture(scope="module")
def lemma_tables():
    grid = GridConfig(23.0, 1.0 / 128)
    return {
        "exp": value_iteration(EXP_HALF, 20, grid),
        "pow": value_iteration(POW_TWO, 20, grid),
    }


class TestGridConfig:
    def test_point_count_and_endpoints(self):
        grid = GridConfig(30.0, 1.0 / 512)
        assert grid.n_points == 30 * 512 + 1
        y = grid.points()
        assert y[0] == 0.0
        assert y[-1] == 30.0
        np.testing.assert_allclose(np.diff(y), 1.0 / 512, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="y_max"):
            GridConfig(0.0, 1.0 / 64)
        with pytest.raises(ValueError, match="step"):
            GridConfig(1.0, step=2.0)
        with pytest.raises(ValueError, match="step"):
            GridConfig(1.0, step=0.0)

    @pytest.mark.parametrize("y_max, step", [(math.inf, 1.0 / 64),
                                             (math.nan, 1.0 / 64),
                                             (4.0, math.nan)])
    def test_non_finite_grid_rejected(self, y_max, step):
        # y_max = inf used to raise OverflowError from n_points.
        with pytest.raises(ValueError, match="finite"):
            GridConfig(y_max, step)

    @pytest.mark.parametrize("y_max, step", [(10.0, 0.3), (2.0, 0.3),
                                             (5.0, 0.4)])
    def test_step_must_divide_y_max(self, y_max, step):
        # GridConfig(10, 0.3) used to space its nodes 0.30303 apart while
        # interpolating with 0.3.
        with pytest.raises(ValueError, match="does not divide"):
            GridConfig(y_max, step)

    def test_decimal_steps_that_divide_are_accepted(self):
        for y_max, step in ((10.0, 0.1), (0.9, 0.3), (5.0, 1.0 / 3)):
            grid = GridConfig(y_max, step)
            np.testing.assert_allclose(np.diff(grid.points()), step,
                                       rtol=1e-12)

    def test_budget_scales_with_step(self):
        assert grid_error_budget(1.0 / 512) == pytest.approx(2.0 / 512)
        assert grid_error_budget(1.0 / 128) == 4 * grid_error_budget(1.0 / 512)


class TestValueIteration:
    def test_layer_zero_is_f(self):
        tab = value_iteration(QUAD, 0, GridConfig(2.0, 1.0 / 64))
        np.testing.assert_allclose(tab.V[0], QUAD.value(tab.grid.points()),
                                   rtol=0, atol=0)
        assert tab.horizon == 0

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO, QUAD])
    def test_first_layer_is_shifted_f(self, spec):
        # One step to go: jumping straight to the ceiling (a = 1) is
        # optimal for convex f, so V_1(y) = f(y + 1) at every node.
        tab = value_iteration(spec, 1, GridConfig(4.0, 1.0 / 128))
        np.testing.assert_allclose(tab.V[1],
                                   spec.value(tab.grid.points() + 1.0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(extremal_policy(tab).A[1], 1.0, rtol=0,
                                   atol=1e-9)

    def test_growth_values_start_at_f_of_one(self, exp_table_30):
        vals = [exp_table_30.value_at_zero(n) for n in (0, 1)]
        assert vals[0] == EXP_HALF.value(0.0)
        assert vals[1] == pytest.approx(EXP_HALF.value(1.0), abs=1e-13)

    def test_layers_nondecreasing_in_n(self, exp_table_30):
        # Waiting (a = 0) reproduces the previous layer, so each layer
        # dominates the one before it.
        V = exp_table_30.V
        assert np.all(V[1:] >= V[:-1] - 1e-12)

    def test_values_nondecreasing_in_y(self, exp_table_30):
        assert np.all(np.diff(exp_table_30.V, axis=1) >= -1e-12)

    def test_deterministic_rebuild(self):
        grid = GridConfig(4.0, 1.0 / 64)
        a = value_iteration(EXP_HALF, 4, grid)
        b = value_iteration(EXP_HALF, 4, grid)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(extremal_policy(a).A,
                                      extremal_policy(b).A)

    def test_horizon_forty_window(self, exp_table_40):
        # The exact 40-step growth sits a little below its limit of 2.
        c40 = exp_table_40.value_at_zero(40)
        assert 1.90 <= c40 <= 2.0 + grid_error_budget(1.0 / 512)

    def test_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            value_iteration(EXP_HALF, -1, GridConfig(1.0, 1.0 / 64))
        with pytest.raises(ValueError, match="cover"):
            value_iteration(EXP_HALF, 10, GridConfig(5.0, 1.0 / 64))

    def test_overflowing_f_rejected(self):
        # Backups read f up to y_max + 1 = 21, and exp(40 * 21) is inf,
        # which the blends would turn into NaN as well.
        with pytest.raises(ValueError, match="overflows"):
            value_iteration(FunctionSpec(Family.EXPONENTIAL, 40.0), 20,
                            GridConfig(20.0, 1.0 / 64))

    def test_finite_f_at_the_top_builds(self):
        # exp(33.5 * 21) is still finite, so the table is too.
        tab = value_iteration(FunctionSpec(Family.EXPONENTIAL, 33.5), 20,
                              GridConfig(20.0, 1.0 / 64))
        assert np.all(np.isfinite(tab.V))
        assert np.all(np.isfinite(extremal_policy(tab).A))


def _seeded_states(count=60, horizon=6, y_top=4.0):
    """``(n, x, y)`` states: every sixth at x = 0, at x = 1 and at a
    multiple of 1/8, the rest at uniform x."""
    rng = np.random.default_rng(2024)
    states = []
    for i in range(count):
        n = int(rng.integers(0, horizon + 1))
        if i % 6 < 2:
            x = float(i % 6)
        elif i % 6 == 2:
            x = int(rng.integers(0, 9)) / 8
        else:
            x = float(rng.uniform(0.0, 1.0))
        states.append((n, x, float(rng.uniform(0.0, y_top))))
    return states


class TestFullValue:
    def test_matches_stored_layers_at_x_zero(self, exp_table_30):
        tab = exp_table_30
        for n in (1, 3, 7, 15):
            for j in (0, 37, 512, 4096):
                got = full_value(tab, n, 0.0, float(tab.grid.points()[j]))
                assert got == pytest.approx(tab.V[n, j], abs=1e-12)

    @pytest.mark.parametrize("text", ["exp:lambda=0.5", "pow:m=2", "quad",
                                      "remark2"])
    def test_equals_stored_layers_on_a_dyadic_grid(self, text):
        # Same increments as the whole-grid layers, and every y + a is
        # a grid node, so the two backups do the same arithmetic.
        tab = value_iteration(parse_function_spec(text), 6,
                              GridConfig(8.0, 1.0 / 64))
        for n in range(7):
            for j in [*range(0, tab.grid.n_points, 16), 510, 511, 512]:
                y = float(tab.grid.points()[j])
                assert full_value(tab, n, 0.0, y) == tab.V[n, j]

    @pytest.mark.parametrize("text, digest", [
        ("exp:lambda=0.5",
         "46a55d3e65829dd40c08833cbf271fe5c443ed90ef07544f9c24a3b11f20b65d"),
        ("pow:m=2",
         "628d2c3ca0de96d47c1ab9dd385ee9d9931727df16cb41d02ee4ef46c431feab"),
        ("quad",
         "852b4a1f21f553bc2896e0919c6ce8ba587af83522aaeac93edf309566a162dc"),
        ("remark2",
         "9602b1c6e68635fbb4f785d056eb5fd1a83595ed5e6e99a3efd10f260203d9f9"),
    ])
    def test_values_are_pinned(self, text, digest):
        # sha256 of the float64 values: a restructured backup must not
        # move a bit of them.
        tab = value_iteration(parse_function_spec(text), 6,
                              GridConfig(8.0, 1.0 / 64))
        vals = np.array([full_value(tab, n, x, y)
                         for n, x, y in _seeded_states()])
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

    def test_ceiling_and_horizon_edges(self, exp_table_30):
        tab = exp_table_30
        # At x = 1 every capped increment is 0: each row of the backup
        # is 1 * f(y) + 0 * V(y), which is f(y) bit for bit.
        for n, y in ((1, 0.0), (5, 2.0), (30, 0.0), (30, 0.3)):
            assert full_value(tab, n, 1.0, y) == EXP_HALF.value(y)
        assert full_value(tab, 0, 0.3, 1.5) == EXP_HALF.value(1.5)

    def test_decreasing_in_x(self, exp_table_30):
        tab = exp_table_30
        vals = [full_value(tab, 6, x, 0.5) for x in np.linspace(0.0, 1.0, 7)]
        assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_between_f_and_free_value(self, exp_table_30):
        tab = exp_table_30
        v = full_value(tab, 6, 0.4, 0.5)
        assert EXP_HALF.value(0.5) - 1e-12 <= v
        assert v <= full_value(tab, 6, 0.0, 0.5) + 1e-12

    def test_backup_objective_dominated_by_value(self, exp_table_30):
        # The value is the objective's maximum over the lattice capped
        # at 1 - x, and a fine increment grid gains next to nothing.
        tab = exp_table_30
        n, x, y = 4, 0.25, 0.75
        v = full_value(tab, n, x, y)
        lattice = np.minimum(np.arange(512 + 1) / 512, 1.0 - x)
        assert brute_force_layer(tab, n, lattice, x, [y])[0] == pytest.approx(
            v, rel=1e-14, abs=0)
        fine = np.linspace(0.0, 1.0 - x, 301)
        assert brute_force_layer(tab, n, fine, x, [y])[0] >= v - 1e-4

    def test_validation(self, exp_table_30):
        tab = exp_table_30
        with pytest.raises(ValueError, match="horizon"):
            full_value(tab, 31, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"x = "):
            full_value(tab, 3, 1.2, 0.0)
        with pytest.raises(ValueError, match=r"y = "):
            full_value(tab, 3, 0.0, 31.0)


class TestExtremalPolicy:
    def test_matches_recursion_argmax_at_origin(self, exp_table_40):
        # With the compensator at zero the table's maximizing increment
        # should track the scalar recursion's maximizer.
        _, a_seq = recursion_sequence(EXP_HALF, 40)
        pol = extremal_policy(exp_table_40)
        assert pol.action(40, 0.0) == pytest.approx(a_seq[-1], abs=0.02)

    def test_actions_within_unit_interval(self, exp_table_30):
        pol = extremal_policy(exp_table_30)
        for n in (1, 10, 30):
            for y in (0.0, 0.7, 3.3):
                a = pol.action(n, y)
                assert 0.0 <= a <= 1.0

    def test_validation(self, exp_table_30):
        pol = extremal_policy(exp_table_30)
        with pytest.raises(ValueError, match="n = "):
            pol.action(0, 0.0)
        with pytest.raises(ValueError, match="n = "):
            pol.action(31, 0.0)
        with pytest.raises(ValueError, match="y = "):
            pol.action(3, -0.5)


class TestVerifyLemma1:
    @pytest.mark.parametrize("key", ["exp", "pow"])
    def test_no_structure_violations(self, lemma_tables, key):
        report = verify_lemma1(lemma_tables[key])
        assert report.total_violations == 0
        assert report.y_monotone_checks > 1000
        assert report.x_monotone_checks > 100
        assert report.x_convex_checks > 100

    def test_bench_table_report_is_pinned(self, lemma_tables):
        # The benchmark's Lemma 1 table (exp:lambda=0.5, H = 20,
        # GridConfig(23, 1/128), SolverConfig(256, 40)), field by field.
        assert verify_lemma1(lemma_tables["exp"]) == Lemma1Report(
            y_monotone_checks=61824, y_monotone_violations=0,
            x_monotone_checks=792, x_monotone_violations=0,
            x_convex_checks=693, x_convex_violations=0,
            worst_y_monotone=0.0, worst_x_monotone=0.0,
            worst_x_convex=-1.7763568394002505e-15)

    def test_y_dips_are_counted_across_layers(self):
        # One dip past the tolerance in layer 1 and one inside it in
        # layer 2: one violation, and the worst difference over all.
        tab = value_iteration(POW_TWO, 2, GridConfig(4.0, 0.5))
        tab.V[1, 3] = tab.V[1, 2] - 0.25
        tab.V[2, 5] = tab.V[2, 4] - 1e-12
        report = verify_lemma1(tab)
        # The per-layer loop the whole-table difference replaced.
        diffs = [np.diff(row) for row in tab.V]
        assert report.y_monotone_checks == sum(map(len, diffs)) == 3 * 8
        assert report.y_monotone_violations == sum(
            int(np.sum(d < -1e-9)) for d in diffs) == 1
        assert report.worst_y_monotone == min(
            0.0, *(float(d.min()) for d in diffs)) == -0.25

    def test_layers_that_resolve_no_sample_are_skipped(self):
        # Layer n resolves y <= y_max - n - 1: at y_max = 4 layers 1-3
        # keep 4, 3 and 1 of the sampled y, and layer 4 keeps none.
        report = verify_lemma1(value_iteration(EXP_HALF, 4,
                                               GridConfig(4.0, 1.0 / 16)))
        assert report.x_monotone_checks == (4 + 3 + 1) * 8
        assert report.x_convex_checks == (4 + 3 + 1) * 7
        assert report.total_violations == 0

    def test_worst_slacks_are_tiny(self, lemma_tables):
        report = verify_lemma1(lemma_tables["exp"])
        assert report.worst_y_monotone >= -1e-9
        assert report.worst_x_monotone >= -1e-9
        assert report.worst_x_convex >= -1e-6


class TestCompareBounds:
    def test_verdict_follows_the_rows(self):
        rows = ((0, 1.0, 1.0, 0.0), (1, 1.5, 1.25, 0.25),
                (2, 1.75, 1.875, -0.125))
        cmp = BoundComparison(rows, 0.25, True)
        assert cmp.max_gap == 0.25 and cmp.max_abs_gap == 0.25
        assert cmp.within_budget
        assert not BoundComparison(rows, 0.125, True).within_budget

    def test_exponential_routes_agree(self, exp_table_30):
        cmp = compare_bounds(exp_table_30)
        assert isinstance(cmp, BoundComparison)
        assert cmp.enforced
        assert cmp.within_budget
        assert len(cmp.rows) == 31
        assert [r[0] for r in cmp.rows] == list(range(31))
        # The shift bound is an identity for exponentials, so the two
        # routes differ only by grid error.
        assert cmp.max_abs_gap <= 1e-4

    def test_power_bound_dominates_exact_value(self):
        cmp = compare_bounds(value_iteration(
            POW_TWO, 30, GridConfig(30.0, 1.0 / 512)))
        assert cmp.enforced and cmp.within_budget
        assert cmp.max_gap <= cmp.budget
        # Strict slack far from the start: the recursion is conservative
        # for powers.
        assert min(g for _, _, _, g in cmp.rows) < -0.5

    def test_budget_follows_step(self, exp_table_30):
        cmp = compare_bounds(exp_table_30)
        assert cmp.budget == grid_error_budget(1.0 / 512)

    def test_rows_come_from_the_table_and_its_solver(self):
        # The table and the recursion ignore the solver they are given,
        # so the rows are the table's c_n against the plain recursion.
        solver = SolverConfig(refine_iters=0)
        tab = value_iteration(QUAD, 6, GridConfig(6.0, 1.0 / 64), solver)
        rows = compare_bounds(tab).rows
        b_seq, _ = recursion_sequence(QUAD, 6)
        assert [r[0] for r in rows] == list(range(7))
        assert [r[1] for r in rows] == [tab.value_at_zero(n)
                                        for n in range(7)]
        assert [r[2] for r in rows] == list(b_seq)
        assert list(recursion_sequence(QUAD, 6, solver)[0]) == list(b_seq)

    def test_remark2_not_enforced(self):
        cmp = compare_bounds(value_iteration(
            REMARK2, 5, GridConfig(6.0, 1.0 / 128)))
        assert not cmp.enforced


class TestFineGridPins:
    """sha256 of the values and of the derived actions of the README-scale
    tables (H = 30, step 1/512) and the Lemma 1 tables (H = 20,
    GridConfig(23, 1/128)), full and trusted, taken from the plain
    lattice scan: at these steps every blend rounds, so a restructured
    backup that changes one rounding or one first-hit tie shows here."""

    CASES = [
        ("exp:lambda=0.5", 30, 30.0, 1.0 / 512, False,
         "64d938d5b62c320d3fd9543b5d92d8f491f43a5c8cbe664cae6c54a4ec024134",
         "2ebd361833cb79910a64332d840b20c30b754710c8dde9d68041d852d5cd0429"),
        ("exp:lambda=0.5", 30, 30.0, 1.0 / 512, True,
         "84c61aaec72673e5c6d120a058b63482c1637024a21df44ab947e6ed0bdd66c5",
         "868bd5d6fd7fc5cd2a3f9c1d5c6c2606b152bf384bc42096a86c600bc1c6a3c9"),
        ("pow:m=2", 30, 30.0, 1.0 / 512, False,
         "eee0fe3952a62c0995705ea5b7263c916f237c2a6947341ca290b05637b2b746",
         "3771c7990c10983a49285f8b19605aec12e47da5e856c49411d63f105ffaa7c6"),
        ("pow:m=2", 30, 30.0, 1.0 / 512, True,
         "5747e64f60d99b7a006da8c2024bdb08f3e8cd30ff84542c017fe217bb5cf2b6",
         "af8c7139c19384c7154d62d08a2df1f57658cdcee74f027969ccf0ee89942c1c"),
        ("exp:lambda=0.5", 20, 23.0, 1.0 / 128, False,
         "c50dc012adb4d9bd93824cbe4231ca2b69b4ff6440189f724a9baac3649efae2",
         "d95c11873b418c87e40eb02be898c9586ab6e4e5fef937398739d23698a23dea"),
        ("exp:lambda=0.5", 20, 23.0, 1.0 / 128, True,
         "225605087e7f3d0500da00ffce7755a40b9d33a0cc2470c0b89e30a45528e12d",
         "926e243d525543b76d12fc38344f9114cbaed8558d4102dd564a247fd8949ccb"),
        ("pow:m=2", 20, 23.0, 1.0 / 128, False,
         "c6f278043d9f5787dd6716941af9e1e279cfce14f35da0655503f0adfe5d2690",
         "8f1cc4fe4bb4a9de4e7cbdab420418f57678593d8f2461faaae84a258aa5265c"),
        ("pow:m=2", 20, 23.0, 1.0 / 128, True,
         "0fda4ca620807deb4d30d99d544ff7c7ca704dcdf305f8272c18d9022cd5138e",
         "4899c4b850b564eef10f6a511b3bb6fc44d2a56a4586e40333ed85dd972a1ffe"),
    ]

    @pytest.mark.parametrize(
        "text, horizon, y_max, step, trusted_only, v_digest, a_digest", CASES,
        ids=[f"{c[0]}-H{c[1]}-{'trusted' if c[4] else 'full'}"
             for c in CASES])
    def test_values_and_actions_are_pinned(self, text, horizon, y_max, step,
                                           trusted_only, v_digest, a_digest):
        tab = value_iteration(parse_function_spec(text), horizon,
                              GridConfig(y_max, step),
                              trusted_only=trusted_only)
        assert hashlib.sha256(tab.V.tobytes()).hexdigest() == v_digest
        actions = extremal_policy(tab).A
        assert hashlib.sha256(actions.tobytes()).hexdigest() == a_digest


def plain_scan(lattice, V_prev, count):
    """``(values, actions)`` of an ``x = 0`` layer's first ``count`` nodes
    by the plain lattice scan: the objective of every increment at every
    node, with the table's float operations, and the first maximizer in
    ascending order."""
    offsets, a_cand, f_ext, f_one = lattice
    V_pad = np.concatenate((V_prev, np.full(offsets[-1], V_prev[-1])))
    objs = [f_ext[c:c + count] * a + V_pad[c:c + count] * (1.0 - a)
            for c, a in zip(offsets.tolist(), a_cand.tolist())]
    if f_one is not None:
        objs.append(f_one[:count])
    objs = np.array(objs)
    best = objs.max(axis=0)
    return best, a_cand[np.argmax(objs == best, axis=0)]


def plain_table(spec, horizon, grid):
    """``(V, A)``: every layer of the whole grid by :func:`plain_scan`."""
    lattice = bellman._lattice(spec, grid)
    V = np.empty((horizon + 1, grid.n_points))
    A = np.zeros_like(V)
    V[0] = lattice[2][:grid.n_points]
    for n in range(1, horizon + 1):
        V[n], A[n] = plain_scan(lattice, V[n - 1], grid.n_points)
    return V, A


class TestPrunedScan:
    """The block-pruned backup skips only objectives strictly below a
    value already computed, so tables and first-hit actions equal the
    plain lattice scan's bit for bit."""

    FAMILIES = ["pow:m=1", "pow:m=1.5", "pow:m=2", "pow:m=3",
                "exp:lambda=0.2", "exp:lambda=0.5", "exp:lambda=2", "quad",
                "remark2"]
    STEPS = [("1/256", 1.0 / 256), ("1/128", 1.0 / 128), ("1/75", 1.0 / 75),
             ("0.4", 0.4), ("0.3", 0.3), ("1/7", 1.0 / 7)]
    CASES = [pytest.param(text, step, trusted, id=f"{text}-{sid}-{kind}")
             for text, (sid, step), (kind, trusted)
             in product(FAMILIES, STEPS, [("full", False), ("trusted", True)])]

    @pytest.mark.parametrize("text, step, trusted_only", CASES)
    def test_equals_the_plain_scan(self, text, step, trusted_only):
        # pow:m=1 ties every increment from layer 2 on, so nothing can
        # be skipped there; the full tables read past the top edge.
        spec = parse_function_spec(text)
        grid = GridConfig(6.0, step)
        V, A = plain_table(spec, 6, grid)
        tab = value_iteration(spec, 6, grid, trusted_only=trusted_only)
        done = ~np.isnan(tab.V)
        assert done.all() != trusted_only
        assert tab.V[done].tobytes() == V[done].tobytes()
        assert extremal_policy(tab).A[done].tobytes() == A[done].tobytes()

    def test_values_near_the_float_range(self):
        # f(21) = e^709.7 = 1.65e308: the bound's own sums and
        # differences overflow, which must widen it, never warn or skip.
        spec = FunctionSpec(Family.EXPONENTIAL, 709.7 / 21)
        grid = GridConfig(20.0, 1.0 / 64)
        V, A = plain_table(spec, 20, grid)
        tab = value_iteration(spec, 20, grid)
        assert tab.V.tobytes() == V.tobytes()
        assert extremal_policy(tab).A.tobytes() == A.tobytes()

    def test_a_non_convex_layer_keeps_the_bound_sound(self):
        # A dent and a bump in the layer read: its second differences
        # drop to -6 there, so only the curvature term of the bound
        # keeps the increments that read the bump, the maximizers of the
        # nodes below it, from being skipped.
        grid = GridConfig(4.0, 1.0 / 128)
        lattice = bellman._lattice(POW_TWO, grid)
        V_prev = POW_TWO.value(grid.points() + 0.5)
        V_prev[200] -= 3.0
        V_prev[300] += 3.0
        want, first = plain_scan(lattice, V_prev, grid.n_points)
        assert np.all(first[180:280] == (300 - np.arange(180, 280)) / 128)

        top = np.full(grid.n_points, -np.inf)
        for _ in bellman._objectives(lattice, V_prev, top):
            pass
        assert top.tobytes() == want.tobytes()
        # The ascending scan against the known maximum finds the same
        # first maximizers.
        act = np.full(grid.n_points, np.nan)
        for a, lo, obj in bellman._objectives(lattice, V_prev, want, True):
            nodes = slice(lo, lo + obj.shape[1])
            for a_i, row in zip(a.tolist(), obj):
                new = (row == want[nodes]) & np.isnan(act[nodes])
                act[nodes][new] = a_i
        assert act.tobytes() == first.tobytes()

    def test_readme_table_skips_most_of_the_lattice(self, monkeypatch):
        # Counted from what the scan yields, so a scan that quietly
        # evaluates every increment fails here.
        evaluated = []
        scan = bellman._objectives

        def counted(*args):
            for a, lo, obj in scan(*args):
                evaluated.append(obj.size)
                yield a, lo, obj

        monkeypatch.setattr(bellman, "_objectives", counted)
        tab = value_iteration(POW_TWO, 30, GridConfig(30.0, 1.0 / 512))
        assert sum(evaluated) <= 0.20 * 30 * 15361 * 513
        assert hashlib.sha256(tab.V.tobytes()).hexdigest() == (
            "eee0fe3952a62c0995705ea5b7263c916f237c2a6947341ca290b05637b2b746")


class TestGridRefinement:
    def test_step_halving_converges(self):
        vals = {}
        for step in (1.0 / 256, 1.0 / 512, 1.0 / 1024):
            tab = value_iteration(EXP_HALF, 10, GridConfig(10.0, step))
            vals[step] = tab.value_at_zero(10)
        d_coarse = abs(vals[1.0 / 256] - vals[1.0 / 512])
        d_fine = abs(vals[1.0 / 512] - vals[1.0 / 1024])
        assert d_fine <= d_coarse
        # Observed differences sit orders of magnitude below the budget.
        assert d_coarse <= grid_error_budget(1.0 / 256) / 100


class TestLatticeCertificate:
    """Every x = 0 node is the exact value of the control problem with
    increments on the grid lattice, so each ``c_n`` is ``E f(Y_n)`` of
    an explicit admissible chain: a lower bound on the supremum."""

    @pytest.mark.parametrize("text", ["exp:lambda=0.5", "pow:m=1",
                                      "pow:m=1.5", "pow:m=2", "pow:m=3",
                                      "quad", "remark2"])
    def test_value_is_the_policy_chain_expectation(self, text):
        spec = parse_function_spec(text)
        tab = value_iteration(spec, 8, GridConfig(8.0, 1.0 / 64))
        policy = extremal_policy(tab)
        for n in range(1, 9):
            exact = exact_expectation(spec, extremal_chain_law(policy, n))
            assert exact == pytest.approx(tab.value_at_zero(n), rel=1e-14,
                                          abs=0)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO, QUAD, REMARK2])
    def test_step_halving_never_lowers_a_shared_node(self, spec):
        # The finer lattice contains the coarser one, so its optimum on
        # a shared trusted node can only be higher.
        coarse = value_iteration(spec, 6, GridConfig(6.0, 1.0 / 32))
        fine = value_iteration(spec, 6, GridConfig(6.0, 1.0 / 64))
        for n in range(7):
            trusted = coarse.grid.points() <= coarse.grid.y_max - n
            assert np.all(fine.V[n, ::2][trusted] >= coarse.V[n][trusted])

    def test_exponential_lies_below_the_recursion(self, exp_table_30):
        # For exp the shift inequality is an identity and b_n is the
        # supremum, so the achieved c_n needs no grid budget.
        b_seq, _ = recursion_sequence(EXP_HALF, 30)
        for n in range(31):
            assert exp_table_30.value_at_zero(n) <= b_seq[n]

    def test_remark2_exceeds_the_recursion_limit(self):
        # A derived fact, not one of the paper's: remark2 lies outside
        # the shift class, and an explicit chain beats the recursion's
        # limit 41/32, so the recursion bound fails there.
        tab = value_iteration(REMARK2, 20, GridConfig(20.0, 1.0 / 64))
        assert tab.value_at_zero(20) > 41.0 / 32.0

    CONVEX_CASES = [(text, horizon, step)
                    for text in ("exp:lambda=0.5", "pow:m=1", "pow:m=1.5",
                                 "pow:m=2", "pow:m=3", "quad", "remark2")
                    for horizon, step in ((8, 1.0 / 64), (12, 1.0 / 128),
                                          (6, 0.3), (6, 1.0 / 75))]

    @pytest.mark.parametrize("text, horizon, step", CONVEX_CASES)
    def test_layers_are_convex_in_y_on_trusted_nodes(self, text, horizon,
                                                     step):
        # The premise of an upper cell bound: each lattice candidate is
        # a shift of convex node sequences, and so is their maximum.  On
        # a dyadic grid no second difference is negative; at 0.3 and
        # 1/75 the blends round, and pow:m=1 dips to -8.9e-16 and
        # remark2 to -1.1e-16.
        tab = value_iteration(parse_function_spec(text), horizon,
                              GridConfig(float(horizon), step),
                              trusted_only=True)
        dyadic = math.frexp(step)[0] == 0.5
        for n in range(horizon + 1):
            layer = tab.V[n, tab.grid.points() <= tab.grid.y_max - n + 1e-9]
            floor = 0.0 if dyadic else -1e-14 * max(1.0, np.abs(layer).max())
            assert np.diff(layer, 2).min(initial=0.0) >= floor, n


# f in exact rationals, for the families that are rational at rational
# points; exp is irrational there, so it has no exact table.
EXACT_F = {
    "pow:m=1": lambda y: y,
    "pow:m=2": lambda y: y ** 2,
    "pow:m=3": lambda y: y ** 3,
    "quad": lambda y: y + y * y / 2,
    "remark2": lambda y: y if y <= 1 else (1 + y * y) / 2,
}


def exact_lattice_table(f, horizon, y_max, step):
    """``(V, A)``: the x = 0 lattice backups in ``Fraction`` arithmetic,
    for a unit-fraction ``step``.  Layer ``n`` at node ``j`` is the best
    ``a f(y_j + a) + (1 - a) V_{n-1}(y_j + a)`` over ``a = k * step``,
    ``k = 0 .. 1 / step``, with reads of ``V_{n-1}`` past the top
    clamped to its last node; ``A`` holds the first maximizer."""
    nodes = int(y_max / step) + 1
    f_at = [f(i * step) for i in range(nodes + step.denominator)]
    incs = [(k, k * step, 1 - k * step) for k in range(step.denominator + 1)]
    V = [f_at[:nodes]]
    A = [[Fraction(0)] * nodes]
    for _ in range(horizon):
        prev, layer, acts = V[-1], [], []
        for j in range(nodes):
            best = act = None
            for k, a, rest in incs:
                obj = a * f_at[j + k] + rest * prev[min(j + k, nodes - 1)]
                if best is None or obj > best:  # ties keep the smaller a
                    best, act = obj, a
            layer.append(best)
            acts.append(act)
        V.append(layer)
        A.append(acts)
    return V, A


class TestExactLattice:
    """On a dyadic grid pow with integer m, quad and remark2 are rational
    at every node, so the lattice problem has an exact solution that
    shares no float code with the table."""

    @pytest.mark.parametrize("text", list(EXACT_F))
    def test_table_is_the_rounded_exact_solution(self, text):
        tab = value_iteration(parse_function_spec(text), 4,
                              GridConfig(4.0, 1.0 / 16))
        V, A = exact_lattice_table(EXACT_F[text], 4, 4, Fraction(1, 16))
        to_float = np.vectorize(float, otypes=[float])
        np.testing.assert_array_equal(tab.V, to_float(np.array(V)))
        np.testing.assert_array_equal(extremal_policy(tab).A,
                                      to_float(np.array(A)))

    def test_rounded_values_at_a_finer_grid(self):
        # At step 1/64 the values no longer fit in a float, so every node
        # must be the correctly rounded exact value: a blend that rounds
        # differently, such as a * (f - V) + V, fails here.
        tab = value_iteration(POW_TWO, 8, GridConfig(8.0, 1.0 / 64))
        V, A = exact_lattice_table(EXACT_F["pow:m=2"], 8, 8, Fraction(1, 64))
        to_float = np.vectorize(float, otypes=[float])
        np.testing.assert_array_equal(tab.V, to_float(np.array(V)))
        np.testing.assert_array_equal(extremal_policy(tab).A,
                                      to_float(np.array(A)))


def backup_objectives(table, n, a_grid, x=0.0, y=None):
    """The backup objective from ``(x, y)``, one row per increment of
    ``a_grid`` and one column per ``y`` (the grid nodes by default):
    reach the ceiling with probability ``x + a`` and collect
    ``f(y + a)``, else continue from ``(0, y + a)``, read by
    ``np.interp``, which clamps past the top like the tables do."""
    nodes = table.grid.points()
    y = nodes if y is None else np.asarray(y, dtype=float)
    a = np.asarray(a_grid, dtype=float)[:, None]
    q, reach = y[None, :] + a, x + a
    cont = np.interp(q, nodes, table.V[n - 1])
    return reach * table.spec.value(q) + (1.0 - reach) * cont


def brute_force_layer(table, n, a_grid, x=0.0, y=None):
    """``max_a`` of :func:`backup_objectives` over ``a_grid``."""
    return np.max(backup_objectives(table, n, a_grid, x, y), axis=0)


class TestLatticeBackup:
    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_layers_equal_a_lattice_brute_force(self, spec):
        tab = value_iteration(spec, 4, GridConfig(4.0, 1.0 / 64))
        lattice = np.arange(64 + 1) / 64
        for n in range(1, 5):
            np.testing.assert_allclose(
                tab.V[n], brute_force_layer(tab, n, lattice), rtol=1e-14,
                atol=0)

    @pytest.mark.parametrize("solver", [None, LIGHT], ids=["default", "light"])
    def test_exponential_scaling_invariant(self, solver):
        # f(y + a) = e^{lambda y} f(a) makes every layer a multiple of
        # f, wherever the top-edge clamp has not reached, whatever
        # solver settings the caller passes.
        grid = GridConfig(12.0, 1.0 / 128)
        kwargs = {} if solver is None else {"solver": solver}
        tab = value_iteration(EXP_HALF, 10, grid, **kwargs)
        for n in range(11):
            ok = tab.grid.points() <= grid.y_max - n
            expect = EXP_HALF.value(tab.grid.points()[ok]) * tab.V[n, 0]
            np.testing.assert_allclose(tab.V[n, ok], expect, rtol=1e-12,
                                       atol=0)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO, QUAD])
    def test_unit_increment_off_the_lattice(self, spec):
        # 1 is no multiple of 0.4, so a = 1 must be a candidate of its
        # own: one step to go, jumping to the ceiling is optimal.
        tab = value_iteration(spec, 1, GridConfig(2.0, 0.4))
        best = brute_force_layer(tab, 1, np.linspace(0.0, 1.0, 2001))
        np.testing.assert_allclose(tab.V[1], best, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(tab.V[1],
                                   spec.value(tab.grid.points() + 1.0),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(extremal_policy(tab).A[1], 1.0)

    @pytest.mark.parametrize("trusted_only", [False, True],
                             ids=["full", "trusted"])
    def test_flat_objective_ties_to_the_smallest_increment(self,
                                                           trusted_only):
        # The README example: on pow:m=1 (f(x) = x) every increment of
        # layer 2 gives y + 1 exactly, so each node keeps a = 0, while
        # layer 1's objective f(y + a) rises strictly to a = 1.
        grid = GridConfig(6.0, 1.0 / 64)
        tab = value_iteration(parse_function_spec("pow:m=1"), 6, grid,
                              trusted_only=trusted_only)
        trusted = tab.grid.points() <= grid.y_max - 2
        assert trusted.sum() == 257
        A = extremal_policy(tab).A
        np.testing.assert_array_equal(A[2, trusted], 0.0)
        done = ~np.isnan(A[1])
        np.testing.assert_array_equal(A[1, done], 1.0)
        assert tab.V[6, 0] == 1.0

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_table_ignores_opt_grid_points(self, spec):
        # The grid alone picks the coarse increments.
        grid = GridConfig(6.0, 1.0 / 512)
        tables = [value_iteration(spec, 6, grid, SolverConfig(k, 60))
                  for k in (2, 16, 2048)]
        for tab in tables[1:]:
            np.testing.assert_array_equal(tab.V, tables[0].V)
            np.testing.assert_array_equal(extremal_policy(tab).A,
                                          extremal_policy(tables[0]).A)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_batched_report_equals_per_state_calls(self, spec):
        tab = value_iteration(spec, 4, GridConfig(8.0, 1.0 / 64))
        y_samples = (0.0, 0.35, 0.8, 1.6, 2.5)
        x_samples = np.linspace(0.0, 1.0, 9)
        report = verify_lemma1(tab)

        diffs = [d for n in range(5) for d in np.diff(tab.V[n])]
        drops, slacks = [], []
        for n in range(1, 5):
            for y in (v for v in y_samples if v <= tab.grid.y_max - n - 1):
                vals = [full_value(tab, n, float(x), y) for x in x_samples]
                drops += [v1 - v2 for v1, v2 in zip(vals, vals[1:])]
                slacks += [vals[i] + vals[i + 2] - 2.0 * vals[i + 1]
                           for i in range(len(vals) - 2)]
        assert report == Lemma1Report(
            y_monotone_checks=len(diffs),
            y_monotone_violations=sum(d < -1e-9 for d in diffs),
            worst_y_monotone=min(0.0, min(diffs)),
            x_monotone_checks=len(drops),
            x_monotone_violations=sum(d < -1e-9 for d in drops),
            worst_x_monotone=min(0.0, min(drops)),
            x_convex_checks=len(slacks),
            x_convex_violations=sum(s < -1e-6 for s in slacks),
            worst_x_convex=min(0.0, min(slacks)))


class TestTrustedOnly:
    """``trusted_only`` backs up layer ``n`` on ``y <= y_max - n`` and one
    node more; every node it computes equals the full table's."""

    SPECS = ["exp:lambda=0.5", "pow:m=1.5", "pow:m=2", "pow:m=3", "quad",
             "remark2"]
    STEPS = [("1/64", 1.0 / 64), ("0.3", 0.3), ("1/75", 1.0 / 75)]
    # Every spec and step twice: the values, and the derived actions.
    CASES = [pytest.param(text, step, field, id=f"{text}-{sid}{suffix}")
             for text, (sid, step), (field, suffix)
             in product(SPECS, STEPS, [("A", ""), ("V", "-values")])]

    @pytest.mark.parametrize("text, step, field", CASES)
    def test_computed_nodes_equal_the_full_table(self, text, step, field):
        spec = parse_function_spec(text)
        grid = GridConfig(6.0, step)
        full = value_iteration(spec, 6, grid)
        part = value_iteration(spec, 6, grid, trusted_only=True)
        assert np.isnan(part.V).any()
        if field == "V":
            whole, trusted = full.V, part.V
        else:
            whole, trusted = extremal_policy(full).A, extremal_policy(part).A
        assert not np.isnan(whole).any()
        for n in range(7):
            # Layer 0 is whole; above it a leading run of nodes, the
            # triangle and one node more, and NaN on every other node.
            count = (grid.n_points if n == 0 else int(np.sum(
                grid.points() <= grid.y_max - n + 1e-9)) + 1)
            done = ~np.isnan(trusted[n])
            assert np.flatnonzero(done).tolist() == list(range(count))
            assert trusted[n, done].tobytes() == whole[n, done].tobytes()
        assert compare_bounds(part) == compare_bounds(full)

    def test_grid_above_the_horizon(self):
        grid = GridConfig(9.0, 1.0 / 64)
        full = value_iteration(POW_TWO, 6, grid)
        part = value_iteration(POW_TWO, 6, grid, trusted_only=True)
        full_A, part_A = extremal_policy(full).A, extremal_policy(part).A
        for n in range(7):
            done = ~np.isnan(part.V[n])
            assert done.sum() == (len(part.grid.points()) if n == 0
                                  else (9 - n) * 64 + 2)
            np.testing.assert_array_equal(part.V[n, done], full.V[n, done])
            np.testing.assert_array_equal(part_A[n, done], full_A[n, done])

    def test_rounded_division_keeps_the_reads_computed(self):
        # (4 - 1) / (1/75) rounds to 224.99999999999997, so layer 1's own
        # triangle stops a node short of what layer 2's backups read.
        grid = GridConfig(4.0, 1.0 / 75)
        assert math.floor((grid.y_max - 1) / grid.step) == 224
        full = value_iteration(POW_TWO, 4, grid)
        part = value_iteration(POW_TWO, 4, grid, trusted_only=True)
        assert np.sum(~np.isnan(part.V[2])) == 150 + 2
        assert np.sum(~np.isnan(part.V[1])) == 152 + 75
        full_A, part_A = extremal_policy(full).A, extremal_policy(part).A
        for n in range(5):
            done = ~np.isnan(part.V[n])
            np.testing.assert_array_equal(part.V[n, done], full.V[n, done])
            np.testing.assert_array_equal(part_A[n, done], full_A[n, done])

    @pytest.mark.parametrize("text", SPECS)
    def test_off_grid_read_uses_the_extra_node(self, text):
        # Step 0.3: after a = 1 the chain sits at y = 1.0 with H - 1
        # steps left, between the trusted node 0.9 and the next one, 1.2,
        # which is the last node that layer computed.
        spec = parse_function_spec(text)
        grid = GridConfig(6.0, 0.3)
        full = value_iteration(spec, 6, grid)
        part = value_iteration(spec, 6, grid, trusted_only=True)
        policy = extremal_policy(part)
        assert np.flatnonzero(~np.isnan(policy.A[5]))[-1] == 4
        # The read at y = 1.0 puts weight 1/3 on node 4.
        assert 1.0 / grid.step % 1.0 == pytest.approx(1.0 / 3.0)
        assert policy.action(5, 1.0) == extremal_policy(full).action(5, 1.0)
        for n in range(1, 7):
            got = extremal_chain_law(policy, n)
            want = extremal_chain_law(extremal_policy(full), n)
            np.testing.assert_array_equal(got.y_values, want.y_values)
            np.testing.assert_array_equal(got.probabilities,
                                          want.probabilities)
        # Without that node the read would be NaN, which is refused.
        policy.A[5, 4] = np.nan
        with pytest.raises(ValueError, match="no action"):
            policy.action(5, 1.0)

    def test_uncomputed_nodes_are_refused(self):
        grid = GridConfig(6.0, 1.0 / 64)
        part = value_iteration(EXP_HALF, 6, grid, trusted_only=True)
        assert np.isnan(part.V[6, 2:]).all()
        assert np.isnan(extremal_policy(part).A[6, 2:]).all()
        assert not np.isnan(part.V[6, :2]).any()
        with pytest.raises(ValueError, match="trusted triangle"):
            full_value(part, 1, 0.5, 0.0)
        with pytest.raises(ValueError, match="trusted triangle"):
            verify_lemma1(part)
        with pytest.raises(ValueError, match="no action"):
            extremal_policy(part).action(6, 3.0)

    @pytest.mark.parametrize("y_max", [1.0, 2.0])
    @pytest.mark.parametrize("text", SPECS)
    def test_a_table_without_uncomputed_nodes_is_whole(self, text, y_max):
        # At H = 1 with step 1 the trusted triangle and its extra node
        # cover the grid, so the trusted table computes every node.
        # The refusal judges the values, so it takes this table, and
        # it answers as the full table does.
        spec = parse_function_spec(text)
        grid = GridConfig(y_max, 1.0)
        full = value_iteration(spec, 1, grid)
        part = value_iteration(spec, 1, grid, trusted_only=True)
        assert not np.isnan(part.V).any()
        assert part.V.tobytes() == full.V.tobytes()
        for x, y in product((0.0, 0.5, 1.0), (0.0, 0.25, y_max)):
            assert (full_value(part, 1, x, y).hex()
                    == full_value(full, 1, x, y).hex())
        assert verify_lemma1(part) == verify_lemma1(full)


class TestGoldenRefinement:
    """The backup is the lattice scan and nothing else: no refinement
    step runs after it, whatever ``refine_iters`` says."""

    @pytest.mark.parametrize("iters", [0, 1, 2, 60])
    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_matches_scalar_golden_max(self, spec, iters):
        # Oracle: the first strict maximum of the scalar objective over
        # the capped lattice.  The value is checked at general states;
        # the argmax at x = 0 grid nodes, where the table stores it.
        tab = value_iteration(spec, 4, GridConfig(8.0, 1.0 / 64),
                              SolverConfig(refine_iters=iters))
        step = tab.grid.step
        A = extremal_policy(tab).A

        def oracle(n, x, y):
            cand = np.minimum(np.arange(64 + 1) * step, 1.0 - x)
            vals = backup_objectives(tab, n, cand, x, [y])[:, 0]
            i = int(np.argmax(vals))  # the first maximum
            return vals[i], cand[i]

        rng = np.random.default_rng(7)
        nodes = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            x, y = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 4.0))
            expect, _ = oracle(n, x, y)
            assert full_value(tab, n, x, y) == pytest.approx(
                expect, rel=1e-14, abs=0)
            j = int(nodes.integers(0, 4 * 64 + 1))
            expect, expect_a = oracle(n, 0.0, j * step)
            assert tab.V[n][j] == pytest.approx(expect, rel=1e-14, abs=0)
            assert A[n][j] == expect_a

    @pytest.mark.parametrize("iters", [0, 1, 2, 60])
    def test_one_evaluation_per_contraction(self, iters):
        # No contractions, so no evaluations: a layer reads f only from
        # the slices its setup built.
        calls = []
        spec = FunctionSpec(Family.EXPONENTIAL, 0.5)
        f = spec.forms.f

        def counted(q):
            calls.append(1)
            return f(q)

        # A fresh spec, so swapping its frozen field touches no other.
        object.__setattr__(spec, "forms", spec.forms._replace(f=counted))
        grid = GridConfig(4.0, 1.0 / 64)
        solver = SolverConfig(refine_iters=iters)
        value_iteration(spec, 0, grid, solver)
        setup = len(calls)
        calls.clear()
        value_iteration(spec, 4, grid, solver)
        assert setup > 0
        assert len(calls) == setup
