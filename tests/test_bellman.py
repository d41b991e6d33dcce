"""Tests for the finite-horizon value iteration and its agreement with
the scalar recursion."""

import hashlib
import math

import numpy as np
import pytest

from compensator_bounds import bellman
from compensator_bounds.bellman import (
    BoundComparison,
    GridConfig,
    Lemma1Report,
    backup_objective,
    compare_bounds,
    extremal_policy,
    full_value,
    grid_error_budget,
    value_iteration,
    verify_lemma1,
)
from compensator_bounds.functions import (
    Family,
    FunctionSpec,
    parse_function_spec,
)
from compensator_bounds.optimize import golden_max
from compensator_bounds.recursion import (
    SolverConfig,
    optimal_step,
    recursion_sequence,
)

EXP_HALF = FunctionSpec(Family.EXPONENTIAL, 0.5)
POW_TWO = FunctionSpec(Family.POWER, 2.0)
QUAD = FunctionSpec(Family.QUAD)

# Bellman tables take their increments from the grid, so for them LIGHT
# only shortens the golden refinement: the y = 0 column agrees with the
# default solver to ~2e-15.  The recursion's coarse a-grid can be light
# because the one-step objective is unimodal in the increment.
LIGHT = SolverConfig(opt_grid_points=256, refine_iters=40)


@pytest.fixture(scope="module")
def exp_table_30():
    return value_iteration(EXP_HALF, 30, GridConfig(30.0, 1.0 / 512),
                           solver=LIGHT)


@pytest.fixture(scope="module")
def exp_table_40():
    return value_iteration(EXP_HALF, 40, GridConfig(40.0, 1.0 / 512),
                           solver=LIGHT)


@pytest.fixture(scope="module")
def lemma_tables():
    grid = GridConfig(23.0, 1.0 / 128)
    return {
        "exp": value_iteration(EXP_HALF, 20, grid, solver=LIGHT),
        "pow": value_iteration(POW_TWO, 20, grid, solver=LIGHT),
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
        np.testing.assert_allclose(tab.V[0], QUAD.value(tab.y), rtol=0,
                                   atol=0)
        assert tab.horizon == 0

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO, QUAD])
    def test_first_layer_is_shifted_f(self, spec):
        # One step to go: jumping straight to the ceiling (a = 1) is
        # optimal for convex f, so V_1(y) = f(y + 1) at every node.
        tab = value_iteration(spec, 1, GridConfig(4.0, 1.0 / 128),
                              solver=LIGHT)
        np.testing.assert_allclose(tab.V[1], spec.value(tab.y + 1.0),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(tab.A[1], 1.0, rtol=0, atol=1e-9)

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
        a = value_iteration(EXP_HALF, 4, grid, solver=LIGHT)
        b = value_iteration(EXP_HALF, 4, grid, solver=LIGHT)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.A, b.A)

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
        assert np.all(np.isfinite(tab.A))


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
                got = full_value(tab, n, 0.0, float(tab.y[j]))
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
                assert full_value(tab, n, 0.0, float(tab.y[j])) == tab.V[n, j]

    @pytest.mark.parametrize("text, digest", [
        ("exp:lambda=0.5",
         "f5b15028467139ecb9e6f646b0babb4123545c18a5730d68f692ea0be004b5d8"),
        ("pow:m=2",
         "62c1de1bddf27e27ae7e6772fe02e50609de1f5f7888bae651b0b9078fb4a11a"),
        ("quad",
         "9af9d4055cfc81b6e2a4315b27a53793422fdc30e543b78bed1df2bb431090ec"),
        ("remark2",
         "c6c6dd3ff95a32a0dd7f92a23bbcceffaa00070ffb3fbe2c0f7f0499e3b1d8a4"),
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
        assert full_value(tab, 5, 1.0, 2.0) == EXP_HALF.value(2.0)
        assert full_value(tab, 0, 0.3, 1.5) == EXP_HALF.value(1.5)

    def test_ceiling_skips_the_backup(self, exp_table_30, monkeypatch):
        def no_backup(*args):
            raise AssertionError("backup at the ceiling")

        monkeypatch.setattr(bellman, "_backup", no_backup)
        for n, y in ((1, 0.0), (5, 2.0), (30, 0.0)):
            assert full_value(exp_table_30, n, 1.0, y) == EXP_HALF.value(y)

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
        tab = exp_table_30
        n, x, y = 4, 0.25, 0.75
        v = full_value(tab, n, x, y)
        best = max(backup_objective(tab, n, x, y, a)
                   for a in np.linspace(0.0, 1.0 - x, 301))
        assert best <= v + 1e-12
        assert best >= v - 1e-4

    def test_validation(self, exp_table_30):
        tab = exp_table_30
        with pytest.raises(ValueError, match="horizon"):
            full_value(tab, 31, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"x = "):
            full_value(tab, 3, 1.2, 0.0)
        with pytest.raises(ValueError, match=r"y = "):
            full_value(tab, 3, 0.0, 31.0)
        with pytest.raises(ValueError, match="backup"):
            backup_objective(tab, 0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="increment"):
            backup_objective(tab, 3, 0.5, 0.0, 0.75)


class TestExtremalPolicy:
    def test_matches_recursion_argmax_at_origin(self, exp_table_40):
        # With the compensator at zero the table's maximizing increment
        # should track the scalar recursion's maximizer.
        b_seq, _ = recursion_sequence(EXP_HALF, 40, LIGHT)
        _, a_star = optimal_step(EXP_HALF, b_seq[39], LIGHT)
        pol = extremal_policy(exp_table_40)
        assert pol.action(40, 0.0) == pytest.approx(a_star, abs=0.02)

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
        assert report.ok
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

    def test_worst_slacks_are_tiny(self, lemma_tables):
        report = verify_lemma1(lemma_tables["exp"])
        assert report.worst_y_monotone >= -1e-9
        assert report.worst_x_monotone >= -1e-9
        assert report.worst_x_convex >= -1e-6


class TestCompareBounds:
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
            POW_TWO, 30, GridConfig(30.0, 1.0 / 512), solver=LIGHT))
        assert cmp.enforced and cmp.within_budget
        assert cmp.max_gap <= cmp.budget
        # Strict slack far from the start: the recursion is conservative
        # for powers.
        assert min(g for _, _, _, g in cmp.rows) < -0.5

    def test_budget_follows_step(self, exp_table_30):
        cmp = compare_bounds(exp_table_30)
        assert cmp.budget == grid_error_budget(1.0 / 512)

    def test_rows_come_from_the_table_and_its_solver(self):
        solver = SolverConfig(refine_iters=0)
        tab = value_iteration(QUAD, 6, GridConfig(6.0, 1.0 / 64), solver)
        rows = compare_bounds(tab).rows
        b_seq, _ = recursion_sequence(QUAD, 6, solver)
        assert [r[0] for r in rows] == list(range(7))
        assert [r[1] for r in rows] == [tab.value_at_zero(n)
                                        for n in range(7)]
        assert [r[2] for r in rows] == list(b_seq)
        # The default solver refines the recursion's maximizer, so the
        # rows above really follow the table's solver.
        assert list(recursion_sequence(QUAD, 6)[0]) != list(b_seq)

    def test_remark2_not_enforced(self):
        cmp = compare_bounds(value_iteration(
            FunctionSpec(Family.REMARK2), 5, GridConfig(6.0, 1.0 / 128),
            solver=LIGHT))
        assert not cmp.enforced


class TestGridRefinement:
    def test_step_halving_converges(self):
        vals = {}
        for step in (1.0 / 256, 1.0 / 512, 1.0 / 1024):
            tab = value_iteration(EXP_HALF, 10, GridConfig(10.0, step),
                                  solver=LIGHT)
            vals[step] = tab.value_at_zero(10)
        d_coarse = abs(vals[1.0 / 256] - vals[1.0 / 512])
        d_fine = abs(vals[1.0 / 512] - vals[1.0 / 1024])
        assert d_fine <= d_coarse
        # Observed differences sit orders of magnitude below the budget.
        assert d_coarse <= grid_error_budget(1.0 / 256) / 100


def brute_force_layer(table, n, a_grid):
    """``max_a`` of the x = 0 backup objective at every node, from
    ``np.interp`` (which clamps past the top like the tables do) over
    the increments ``a_grid``."""
    f, y = table.spec.value, table.y
    a = np.asarray(a_grid)[:, None]
    q = y[None, :] + a
    cont = np.interp(q, y, table.V[n - 1])
    return np.max(a * f(q) + (1.0 - a) * cont, axis=0)


class TestLatticeBackup:
    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_layers_dominate_a_fine_increment_grid(self, spec):
        tab = value_iteration(spec, 4, GridConfig(4.0, 1.0 / 64))
        a_grid = np.linspace(0.0, 1.0, 2001)
        for n in range(1, 5):
            best = brute_force_layer(tab, n, a_grid)
            assert np.all(tab.V[n] >= best - 1e-12)
        # The oracle reads the table as backup_objective does.
        for j, a in ((0, 0.3), (100, 0.77), (256, 1.0)):
            y = float(tab.y[j])
            assert brute_force_layer(tab, 3, [a])[j] == pytest.approx(
                backup_objective(tab, 3, 0.0, y, a), rel=1e-14)

    @pytest.mark.parametrize("solver", [None, LIGHT], ids=["default", "light"])
    def test_exponential_scaling_invariant(self, solver):
        # f(y + a) = e^{lambda y} f(a) makes every layer a multiple of
        # f, wherever the top-edge clamp has not reached.
        grid = GridConfig(12.0, 1.0 / 128)
        kwargs = {} if solver is None else {"solver": solver}
        tab = value_iteration(EXP_HALF, 10, grid, **kwargs)
        for n in range(11):
            ok = tab.y <= grid.y_max - n
            expect = EXP_HALF.value(tab.y[ok]) * tab.V[n, 0]
            np.testing.assert_allclose(tab.V[n, ok], expect, rtol=1e-12,
                                       atol=0)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO, QUAD])
    def test_unit_increment_off_the_lattice(self, spec):
        # 1 is no multiple of 0.4, so a = 1 must be a candidate of its
        # own: one step to go, jumping to the ceiling is optimal.
        tab = value_iteration(spec, 1, GridConfig(2.0, 0.4))
        best = brute_force_layer(tab, 1, np.linspace(0.0, 1.0, 2001))
        np.testing.assert_allclose(tab.V[1], best, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(tab.V[1], spec.value(tab.y + 1.0),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(tab.A[1], 1.0)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_table_ignores_opt_grid_points(self, spec):
        # The grid alone picks the coarse increments.
        grid = GridConfig(6.0, 1.0 / 512)
        tables = [value_iteration(spec, 6, grid, SolverConfig(k, 60))
                  for k in (2, 16, 2048)]
        for tab in tables[1:]:
            np.testing.assert_array_equal(tab.V, tables[0].V)
            np.testing.assert_array_equal(tab.A, tables[0].A)

    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_batched_report_equals_per_state_calls(self, spec):
        tab = value_iteration(spec, 4, GridConfig(8.0, 1.0 / 64),
                              solver=SolverConfig(64, 20))
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
            len(diffs), sum(d < -1e-9 for d in diffs),
            len(drops), sum(d < -1e-9 for d in drops),
            len(slacks), sum(s < -1e-6 for s in slacks),
            min(0.0, min(diffs)), min(0.0, min(drops)),
            min(0.0, min(slacks)))


class TestGoldenRefinement:
    @pytest.mark.parametrize("iters", [0, 1, 2, 60])
    @pytest.mark.parametrize("spec", [EXP_HALF, POW_TWO])
    def test_matches_scalar_golden_max(self, spec, iters):
        # Oracle: the first strict maximum of the scalar objective over
        # the capped lattice, then optimize.golden_max on the bracket of
        # its neighbours.  Both probe c and d and then one point per
        # contraction, so golden_max with iters - 1 contractions makes
        # the backup's iters + 1 evaluations.  The value is checked at
        # general states; the argmax at x = 0 grid nodes, where the
        # table stores it.
        tab = value_iteration(spec, 4, GridConfig(8.0, 1.0 / 64),
                              SolverConfig(refine_iters=iters))
        step = tab.grid.step

        def oracle(n, x, y):
            cand = [min(k * step, 1.0 - x) for k in range(64 + 1)]
            vals = [backup_objective(tab, n, x, y, a) for a in cand]
            i = vals.index(max(vals))
            value, arg = vals[i], cand[i]
            if iters:
                lo, hi = cand[max(i - 1, 0)], cand[min(i + 1, 64)]
                v, a = golden_max(lambda a: backup_objective(tab, n, x, y, a),
                                  lo, hi, iters - 1)
                if v > value:
                    value, arg = v, a
            return vals[i], value, arg

        rng = np.random.default_rng(7)
        nodes = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            x, y = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 4.0))
            coarse, expect, _ = oracle(n, x, y)
            got = full_value(tab, n, x, y)
            assert got >= coarse
            assert got == pytest.approx(expect, rel=1e-12, abs=0)
            j = int(nodes.integers(0, 4 * 64 + 1))
            _, expect, expect_a = oracle(n, 0.0, j * step)
            assert tab.V[n][j] == pytest.approx(expect, rel=1e-12, abs=0)
            assert tab.A[n][j] == expect_a

    @pytest.mark.parametrize("iters", [0, 1, 2, 60])
    def test_one_evaluation_per_contraction(self, monkeypatch, iters):
        calls = []
        real = bellman.vector_callable

        def counting(spec):
            f = real(spec)

            def counted(q):
                calls.append(1)
                return f(q)
            return counted

        monkeypatch.setattr(bellman, "vector_callable", counting)
        grid = GridConfig(4.0, 1.0 / 64)
        solver = SolverConfig(refine_iters=iters)
        value_iteration(EXP_HALF, 0, grid, solver)
        setup = len(calls)
        calls.clear()
        value_iteration(EXP_HALF, 4, grid, solver)
        # The coarse scan reads f from the setup's slices.
        assert len(calls) - setup == 4 * (iters + 1 if iters else 0)
