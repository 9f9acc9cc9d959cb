import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import qbsde as q
from qbsde.analytics import _folded_log_mgf
from qbsde.drivers import ParamSet
from qbsde.errors import GridMismatchError, MomentFailureError
from qbsde.scenarios import mean_se
from tests.test_solver import linear_driver, solved_with_variance, y_surface


def solved(bundle, name, options, xi, cfg=None):
    drv = q.make_builtin(name, options)
    return drv, q.solve_backward(bundle, drv, xi, cfg)


def lockstep(bundle, xi, *problems):
    """The sweeps of (driver, terminal) ``problems`` on the bundle, side by
    side, sharing each step's regression with ``xi`` as its feature."""
    return q.lockstep_sweeps(bundle, xi, [(bundle, drv, x) for drv, x in problems])


def integrand_field(zeta, dim_m):
    """A field with the integrand ``zeta`` and Y = 0."""
    n, K = zeta.shape[:2]
    return q.SolutionField(np.zeros(n), np.zeros(n), np.zeros((K + 1, min(q.solver.EXPORT_PATHS, n))), zeta, dim_m)


def checked(bundle, drv, xi, cfg=None, **keys):
    """The a priori check streamed through ``solve_backward``: the field, the
    check's report and the variance surface of the rows the sweep handed it."""
    check = q.check_apriori(bundle, xi, drv.params, cfg or q.SolverConfig(), **keys)
    field, y_var = solved_with_variance(bundle, drv, xi, cfg, [check])
    return field, check.report(), y_var


def rows(row, nodes):
    """The bound's ``nodes`` node rows from its row function, t_0 first."""
    return [row(i) for i in range(nodes)]


def surface(row, nodes):
    """The bound's node rows stacked into the (n_paths, K+1) surface of X."""
    return np.stack(rows(row, nodes), axis=1)


def overflow_field(n_steps, n_paths, paths):
    """A bundle and a field with zeta_i = dW_i / dt_i on ``paths``, zero elsewhere:
    log E(zeta.W)_T = 1/2 sum dW_i^2 / dt_i, about K/2, on those paths, 0 on the others."""
    bundle = q.simulate_scenario(q.build_grid(1.0, n_steps), 1, 0, n_paths, source=q.RandomSource(4))
    zeta = np.zeros((n_paths, n_steps, 1))
    zeta[paths] = (np.diff(bundle.states, axis=0) / bundle.dt[:, None, None]).transpose(1, 0, 2)[paths]
    return bundle, integrand_field(zeta, 1)


def x0(row):
    """The bound's X_0: the path mean of its first row."""
    return float(np.mean(row(0)))


class TestFoldedMgf:
    @pytest.mark.parametrize("c,mean,var", [(1.0, 0.0, 1.0), (2.0, -0.7, 0.3), (0.5, 1.2, 2.0)])
    def test_against_quadrature(self, c, mean, var):
        # independent oracle: direct numerical integration of e^{c|x|} phi(x)
        sd = math.sqrt(var)
        oracle, _ = quad(lambda x: math.exp(c * abs(x)) * norm.pdf(x, mean, sd), -40, 40)
        ours = _folded_log_mgf(c, np.array([mean]), var)[0]
        assert ours == pytest.approx(math.log(oracle), rel=1e-9)

    def test_degenerate_variance(self):
        assert _folded_log_mgf(2.0, np.array([-1.5]), 0.0)[0] == pytest.approx(3.0)


class TestAprioriBound:
    def test_zero_data_gives_zero_bound(self, bundle_1d):
        bound = q.apriori_bound(bundle_1d, q.terminal_constant(0.0, 1), ParamSet(gamma=1.0))
        assert np.allclose(surface(bound, bundle_1d.grid.n_steps + 1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("xi", [q.terminal_constant(0.4, 1), q.terminal_affine(0.1, [1.0]), q.terminal_abs(0.1, [1.0])],
                             ids=["constant", "affine", "abs"])
    def test_affine_terminals_take_the_closed_form(self, bundle_1d, xi):
        # independent oracle: X_0 = log E[exp|xi(W_1)|], by quadrature against the N(0, 1) density
        oracle, _ = quad(lambda w: math.exp(abs(float(xi.fn(np.array([[w]]))[0]))) * norm.pdf(w), -40, 40)
        bound = q.apriori_bound(bundle_1d, xi, ParamSet(gamma=1.0))
        np.testing.assert_allclose(bound(0), math.log(oracle), rtol=1e-9)

    def test_terminal_without_an_affine_form_is_rejected(self, bundle_1d):
        xi = dataclasses.replace(q.terminal_affine(0.0, [1.0]), affine=None)
        with pytest.raises(ValueError, match="affine form"):
            q.apriori_bound(bundle_1d, xi, ParamSet(gamma=1.0))

    def test_step_family_bound_is_the_solution(self):
        grid = q.build_grid(2.0, 64, [0.5])
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(1))
        drv = q.make_builtin("step_family", {"n": 2})
        bound = q.apriori_bound(b, q.terminal_constant(0.0, 1), drv.params)
        expected = np.maximum(1.0 - 2.0 * grid.nodes, 0.0)
        assert np.abs(surface(bound, grid.n_steps + 1) - expected[None, :]).max() < 1e-10
        _, report, _ = checked(b, drv, q.terminal_constant(0.0, 1))
        assert report.passed and report.margin <= 1e-10
        assert abs(report.extra["raw_margin"]) < 1e-10

    def test_gaussian_x0_closed_form(self, bundle_1d):
        xi = q.terminal_affine(0.0, [1.0])
        bound = q.apriori_bound(bundle_1d, xi, ParamSet(gamma=1.0))
        assert x0(bound) == pytest.approx(math.log(2 * norm.cdf(1.0) * math.exp(0.5)), abs=1e-12)

    def test_dominates_quadratic_solution_with_slack(self, bundle_1d):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        bound = q.apriori_bound(bundle_1d, q.terminal_affine(0.0, [1.0]), drv.params)
        field, report, _ = checked(bundle_1d, drv, q.terminal_affine(0.0, [1.0]))
        assert report.passed
        # strict slack at time zero: X_0 - Y_0 ~ 1.0204 - 0.5
        assert x0(bound) - field.y0 == pytest.approx(0.5204, abs=0.03)

    def test_beta_star_weighting_deterministic(self):
        # linear driver: Y_t = (b/a)(e^{a(T-t)} - 1), X_t = (a0/a)(e^{a(T-t)} - 1)
        a, b0, alpha0 = 0.8, 0.5, 0.7
        grid = q.build_grid(1.0, 200)
        bundle = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(3))
        drv = linear_driver(a, b0, alpha0=alpha0)
        bound = q.apriori_bound(bundle, q.terminal_constant(0.0, 1), drv.params)
        assert drv.params.beta_star == pytest.approx(a)
        x_expected = (alpha0 / a) * (np.exp(a * (1.0 - grid.nodes)) - 1.0)
        # grid quadrature of the weighted integral converges O(dt)
        assert np.abs(surface(bound, grid.n_steps + 1)[0] - x_expected).max() < 5e-3
        assert checked(bundle, drv, q.terminal_constant(0.0, 1))[1].passed

    def test_monotone_in_gamma(self, bundle_1d):
        xi = q.terminal_affine(0.0, [1.0])
        nodes = bundle_1d.grid.n_steps + 1
        closed = [surface(q.apriori_bound(bundle_1d, xi, ParamSet(gamma=g)), nodes) for g in (1, 2, 4)]
        assert np.all(closed[0] <= closed[1] + 1e-12)
        assert np.all(closed[1] <= closed[2] + 1e-12)

    def test_steep_terminal_has_a_finite_bound(self):
        # xi = 40 W_1, gamma = 1: X_0 = log E[e^{40|W_1|}] = 800 + log 2 + log Phi(40), and
        # |log Phi(40)| < 1e-300; the MGF itself, e^{800} at t_0, overflows where c^2 var / 2 > 709
        b = q.simulate_scenario(q.build_grid(1.0, 20), 1, 0, 64, source=q.RandomSource(2))
        bound = q.apriori_bound(b, q.terminal_affine(0.0, [40.0]), ParamSet(gamma=1.0))
        assert all(np.all(np.isfinite(x_i)) for x_i in rows(bound, b.grid.n_steps + 1))
        np.testing.assert_allclose(bound(0), 800.0 + math.log(2.0), rtol=0, atol=1e-12)

    def test_moment_failure(self, bundle_1d):
        with pytest.raises(MomentFailureError):
            q.apriori_bound(bundle_1d, q.terminal_affine(0.0, [300.0]), ParamSet(gamma=2.0))

    def test_gamma_below_one_rejected(self, bundle_1d):
        with pytest.raises(ValueError):
            q.apriori_bound(bundle_1d, q.terminal_constant(0.0, 1), ParamSet(gamma=0.5))

    def test_bound_node_major(self, bundle_1d):
        # one contiguous (n,) row per node from t_0 to t_K, computed again on every call, in any order
        xi = q.terminal_affine(0.0, [1.0])
        bound = q.apriori_bound(bundle_1d, xi, ParamSet(gamma=1.0))
        n, K = bundle_1d.n_paths, bundle_1d.grid.n_steps
        forward = rows(bound, K + 1)
        assert q.check_apriori(bundle_1d, xi, ParamSet(gamma=1.0), q.SolverConfig()).shape == (n, K + 1)
        assert all(x_i.shape == (n,) and x_i.flags.c_contiguous for x_i in forward)
        assert np.array_equal(forward[-1], np.abs(xi.evaluate(bundle_1d.terminal_state)))
        backward = [bound(i) for i in range(K, -1, -1)][::-1]
        assert all(np.array_equal(x_i, again) for x_i, again in zip(forward, backward))

    @staticmethod
    def backward_report(y):
        """The check of |y| <= 1 on the (K+1, n) rows ``y``, handed them as a
        sweep does: terminal row first, exact rows (variance 0)."""
        check = q.analytics.AprioriCheck(lambda i: np.ones(y.shape[1]), y.shape[::-1], 1.0, None, None)
        for i in range(y.shape[0] - 1, -1, -1):
            check(i, y[i], 0.0)
        return check.report()

    def test_argmax_is_first_in_path_major_order(self):
        # tied worst points at (path 1, node 4) and (path 3, node 1): a flat
        # argmax over (path, node) picks the first, node-major order the second
        y = np.zeros((6, 5))
        y[4, 1] = y[1, 3] = 2.0
        report = self.backward_report(y)
        assert (report.extra["argmax_path"], report.extra["argmax_node"]) == (1, 4)
        assert report.margin == 1.0

    def test_argmax_tie_on_one_path_is_its_first_node(self):
        # tied worst points at (path 2, node 4) and (path 2, node 1) reach the
        # check node 4 first; path-major order takes node 1
        y = np.zeros((6, 5))
        y[4, 2] = y[1, 2] = 2.0
        report = self.backward_report(y)
        assert (report.extra["argmax_path"], report.extra["argmax_node"]) == (2, 1)
        assert report.margin == 1.0

    @pytest.mark.parametrize("node", [5, 3, 0], ids=["first-fed", "middle", "last-fed"])
    def test_nan_row_fails(self, node):
        # a NaN compares False with every margin, so it must not be passed over as smaller
        y = np.zeros((6, 5))
        y[node, 2] = np.nan
        report = self.backward_report(y)
        assert not report.passed

    def test_grid_mismatch(self, bundle_1d):
        drv, xi = q.make_builtin("zero"), q.terminal_constant(0.0, 1)
        other = q.simulate_scenario(q.build_grid(1.0, 5), 1, 0, 8, source=q.RandomSource(9))
        with pytest.raises(GridMismatchError):
            q.solve_backward(bundle_1d, drv, xi, checks=[q.check_apriori(other, xi, drv.params, q.SolverConfig())])
        # a check handed only some of the bound's node rows has no report
        check = q.check_apriori(bundle_1d, xi, drv.params, q.SolverConfig())
        check(0, np.zeros(bundle_1d.n_paths), 0.0)
        with pytest.raises(GridMismatchError):
            check.report()

    def test_streamed_check_equals_the_surface_formula(self, bundle_orth):
        xi = q.terminal_abs(0.0, [1.0, 0.5])
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        bound = q.apriori_bound(bundle_orth, xi, drv.params)
        field, report, y_var = checked(bundle_orth, drv, xi, q.SolverConfig(degree=2))
        # the whole-surface formula the check streams
        y = y_surface(bundle_orth, drv, xi, q.SolverConfig(degree=2))
        gap = np.abs(y) - surface(bound, bundle_orth.grid.n_steps + 1)
        se = np.sqrt(y_var)
        band = report.extra["band_factor"]
        adjusted = gap - 3.0 * band * se
        path, node = np.unravel_index(int(np.argmax(adjusted)), adjusted.shape)
        assert (report.extra["argmax_path"], report.extra["argmax_node"]) == (path, node)
        assert report.margin == adjusted[path, node]
        assert report.se == band * se[path, node]
        assert report.extra["raw_margin"] == np.max(gap)


class TestNormBounds:
    def test_zero_problem_trivial(self, bundle_1d):
        drv, field = solved(bundle_1d, "zero", {}, q.terminal_constant(0.0, 1))
        c1, c2 = q.norm_bound_checks(bundle_1d, field, q.terminal_constant(0.0, 1), drv.params, [2.0])
        assert c1.passed and c2.passed
        assert c1.extra["lhs"] == pytest.approx(1.0)
        assert c2.extra["lhs"] == pytest.approx(0.0, abs=1e-20)

    def test_step_family_closed_form(self):
        grid = q.build_grid(2.0, 64, [0.5])
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(2))
        drv, field = solved(b, "step_family", {"n": 2}, q.terminal_constant(0.0, 1))
        c1, _ = q.norm_bound_checks(b, field, q.terminal_constant(0.0, 1), drv.params, [2.0])
        assert c1.extra["lhs"] == pytest.approx(math.exp(2.0), rel=1e-10)
        assert c1.extra["rhs"] == pytest.approx(4.0 * math.exp(2.0), rel=1e-10)
        assert c1.passed

    def test_implied_constant_stable_across_seeds(self):
        # entropic setup with bounded data: the martingale-moment ratio stays put
        implied = []
        for seed in (11, 12, 13):
            b = q.simulate_scenario(q.build_grid(1.0, 16), 2, 0, 20_000, source=q.RandomSource(seed))
            drv, field = solved(b, "entropic", {"lam_s": 0.5}, q.terminal_affine(0.0, [0.3, 0.4]))
            _, c2 = q.norm_bound_checks(b, field, q.terminal_affine(0.0, [0.3, 0.4]), drv.params, [2.0])
            assert c2.passed
            implied.append(c2.extra["implied_constant"])
        assert max(implied) <= 10.0 * min(implied)

    def test_lhs_is_the_mean_over_the_surface_maximum(self, bundle_orth):
        """Y* and the quadratic variation, taken in one pass, against the stored surfaces."""
        xi = q.terminal_affine(-0.3, [1.0, 0.5])
        drv, field = solved(bundle_orth, "pure_quadratic", {"gamma": 1.0}, xi)
        c1, c2 = q.norm_bound_checks(bundle_orth, field, xi, drv.params, [2.0])
        sup_y = np.max(np.abs(y_surface(bundle_orth, drv, xi)), axis=1)
        assert (c1.extra["lhs"], c1.extra["lhs_se"]) == mean_se(np.exp(2.0 * drv.params.gamma * sup_y))
        qv = np.einsum("nkw,nkw,k->n", field.integrand, field.integrand, bundle_orth.dt)
        assert c2.extra["lhs"] == pytest.approx(np.mean(qv), rel=1e-12)

    def test_requires_p_above_one(self, bundle_1d):
        drv, field = solved(bundle_1d, "zero", {}, q.terminal_constant(0.0, 1))
        with pytest.raises(ValueError):
            q.norm_bound_checks(bundle_1d, field, q.terminal_constant(0.0, 1), drv.params, [2.0, 1.0])


class TestComparison:
    def test_ordered_terminals(self, bundle_1d):
        zero = q.make_builtin("zero")
        lo, hi = (zero, q.terminal_constant(0.0, 1)), (zero, q.terminal_constant(1.0, 1))
        ev = q.sample_ordering(bundle_1d, zero, zero, q.terminal_constant(0.0, 1), q.terminal_constant(1.0, 1))
        rep = q.comparison_check(lockstep(bundle_1d, lo[1], lo, hi), ev)
        assert rep.passed
        assert rep.margin == pytest.approx(-1.0, abs=1e-12)

    def test_constant_driver_gap(self, bundle_1d):
        a = 0.7
        zero = q.make_builtin("zero")
        const = q.make_builtin("constant", {"value": a})
        xi = q.terminal_constant(0.0, 1)
        lo = q.solve_backward(bundle_1d, zero, xi)
        hi = q.solve_backward(bundle_1d, const, xi)
        gap = y_surface(bundle_1d, const, xi) - y_surface(bundle_1d, zero, xi)
        expected = a * (1.0 - bundle_1d.grid.nodes)
        assert np.abs(gap - expected[None, :]).max() < 1e-12
        ev = q.sample_ordering(bundle_1d, zero, const, xi, xi)
        rep = q.comparison_check(lockstep(bundle_1d, xi, (zero, xi), (const, xi)), ev)
        assert rep.passed
        assert hi.y0 - lo.y0 == pytest.approx(a, abs=1e-10)
        assert (rep.extra["y0"], rep.extra["y0_prime"]) == (lo.y0, hi.y0)

    def test_streamed_margin_is_the_surface_maximum(self, bundle_orth):
        xi = q.terminal_abs(0.0, [1.0, 0.5])
        zero, quad = q.make_builtin("zero"), q.make_builtin("pure_quadratic", {"gamma": 1.0})
        rep = q.comparison_check(lockstep(bundle_orth, xi, (quad, xi), (zero, xi)), (0.0, 0.0))
        assert rep.margin == np.max(y_surface(bundle_orth, quad, xi) - y_surface(bundle_orth, zero, xi)) > 0

    def test_antisymmetry_of_margin(self, bundle_1d):
        zero = q.make_builtin("zero")
        lo, hi = (zero, q.terminal_constant(0.0, 1)), (zero, q.terminal_constant(1.0, 1))
        ev = q.sample_ordering(bundle_1d, zero, zero, q.terminal_constant(0.0, 1), q.terminal_constant(1.0, 1))
        fwd = q.comparison_check(lockstep(bundle_1d, lo[1], lo, hi), ev)
        rev = q.comparison_check(lockstep(bundle_1d, lo[1], hi, lo), ev)
        assert rev.margin == pytest.approx(-fwd.margin, abs=1e-12)
        assert rev.margin > 0

    def test_antisymmetry_of_margin_one_blas_thread(self):
        # the benchmark pins BLAS to one thread, which changes the summation
        # order of every projection; the margins must still mirror to 1e-12
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_analytics.py::TestComparison::test_antisymmetry_of_margin"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-2000:]

    def test_vacuous_label(self, bundle_1d):
        zero = q.make_builtin("zero")
        hi, lo = (zero, q.terminal_constant(1.0, 1)), (zero, q.terminal_constant(0.0, 1))
        ev = q.sample_ordering(bundle_1d, zero, zero, q.terminal_constant(1.0, 1), q.terminal_constant(0.0, 1))
        assert ev == (0.0, 1.0)
        rep = q.comparison_check(lockstep(bundle_1d, hi[1], hi, lo), ev)
        assert rep.extra["vacuous"]
        assert not rep.passed


class TestStability:
    def test_identical_problems(self, bundle_1d):
        drv, xi = q.make_builtin("constant", {"value": 1.0}), q.terminal_constant(0.0, 1)
        [m] = q.stability_metrics(bundle_1d, lockstep(bundle_1d, xi, (drv, xi), (drv, xi)), drv, drv,
                                  q.terminal_constant(0.0, 1), q.terminal_constant(0.0, 1), [2.0])
        assert m["p"] == 2.0
        assert m["hypothesis_mean"] == 0.0
        assert m["exp_sup_p_mean"] == 1.0
        assert m["martingale_gap_p_mean"] == 0.0

    @pytest.mark.parametrize("n", [4, 8])
    def test_scaled_family_exact(self, bundle_1d, n):
        xi = q.terminal_constant(0.0, 1)
        base = q.make_builtin("constant", {"value": 1.0})
        member = q.make_builtin("constant", {"value": 1.0 + 1.0 / n})
        steps = lockstep(bundle_1d, xi, (member, xi), (base, xi))
        for p, m in zip((1.0, 2.0), q.stability_metrics(bundle_1d, steps, member, base, xi, xi, [1.0, 2.0])):
            assert m["p"] == p
            assert m["hypothesis_mean"] == pytest.approx(1.0 / n, abs=1e-9)
            assert m["sup_gap_max"] == pytest.approx(1.0 / n, abs=1e-9)
            assert m["exp_sup_p_mean"] == pytest.approx(math.exp(p / n), abs=1e-9)
            assert m["exp_sup_p_mean"] - 1.0 <= p * (2.0 / n)

    def test_member_without_expected_sup_converges(self, bundle_1d):
        xi = q.terminal_constant(0.0, 1)
        base, member = q.make_builtin("constant", {"value": 1.0}), q.make_builtin("constant", {"value": 1.25})
        metrics = q.stability_metrics(bundle_1d, lockstep(bundle_1d, xi, (member, xi), (base, xi)), member, base,
                                      xi, xi, [1.0, 2.0])
        rep = q.stability_check(metrics, "n4")
        assert rep.passed
        assert set(rep.extra) >= {"exp_sup_excess_p1", "exp_sup_excess_p2"}
        # exp(p / 4) - 1 lies within 2 p / 4: the converging rule's allowance
        assert rep.extra["exp_sup_excess_p2"] == pytest.approx(math.exp(0.5) - 2.0, abs=1e-9)

    def test_overflowing_exp_sup_fails_without_nan(self):
        # a sup gap of 800 on every path: exp(800) overflows, and the check must
        # fail on it rather than pass on an infinite SE or report a NaN SE
        b = q.simulate_scenario(q.build_grid(1.0, 8), 1, 0, 64, source=q.RandomSource(3))
        xi = q.terminal_constant(0.0, 1)
        base, member = q.make_builtin("constant", {"value": 0.0}), q.make_builtin("constant", {"value": 800.0})
        [m] = q.stability_metrics(b, lockstep(b, xi, (member, xi), (base, xi)), member, base, xi, xi, [1.0])
        assert (m["exp_sup_p_mean"], m["exp_sup_p_se"]) == (math.inf, math.inf)
        rep = q.stability_check([m], "big", expected_hypothesis=800.0)
        assert not rep.passed
        assert rep.extra["hypothesis_gap"] <= 1e-6
        numbers = [v for d in (rep.to_dict(), rep.extra, m) for v in d.values() if isinstance(v, float)]
        assert not any(math.isnan(v) for v in numbers)

    def test_streamed_sup_gap_is_the_surface_formula(self, bundle_orth):
        xi = q.terminal_abs(0.0, [1.0, 0.5])
        zero, f0 = solved(bundle_orth, "zero", {}, xi)
        quad, fn = solved(bundle_orth, "pure_quadratic", {"gamma": 1.0}, xi)
        [m] = q.stability_metrics(bundle_orth, lockstep(bundle_orth, xi, (quad, xi), (zero, xi)), quad, zero, xi, xi,
                                  [2.0])
        sup_gap = np.max(np.abs(y_surface(bundle_orth, quad, xi) - y_surface(bundle_orth, zero, xi)), axis=1)
        assert (m["sup_gap_max"], m["sup_gap_mean"]) == (np.max(sup_gap), float(np.mean(sup_gap)))
        assert (m["exp_sup_p_mean"], m["exp_sup_p_se"]) == mean_se(np.exp(2.0 * sup_gap))
        # the quadratic variation of the integrand difference, taken step by step
        diff = fn.integrand - f0.integrand
        qv = np.einsum("nkw,nkw,k->n", diff, diff, bundle_orth.dt)
        assert m["martingale_gap_p_mean"] == pytest.approx(np.mean(qv), rel=1e-12)

    def test_step_family_violates_conclusion(self):
        grid = q.build_grid(2.0, 64, [0.5])
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(7))
        xi = q.terminal_constant(0.0, 1)
        zero, stepd = q.make_builtin("zero"), q.make_builtin("step_family", {"n": 2})
        steps = lockstep(b, xi, (stepd, xi), (zero, xi))
        for p, m in zip((1.0, 2.0), q.stability_metrics(b, steps, stepd, zero, xi, xi, [1.0, 2.0])):
            assert m["hypothesis_mean"] == pytest.approx(1.0, abs=1e-6)
            assert m["sup_gap_max"] == pytest.approx(1.0, abs=1e-12)
            assert m["exp_sup_p_mean"] == pytest.approx(math.exp(p), abs=1e-6)


class TestMeasureChange:
    def test_zero_integrand_exact(self, bundle_1d):
        drv, field = solved(bundle_1d, "zero", {}, q.terminal_constant(0.0, 1))
        est = q.stochastic_exponential_mean(bundle_1d, field, q=2.0)
        assert est.mean == 1.0
        assert est.se == 0.0
        assert est.n_overflow == 0
        assert all(rep.passed for rep in q.exp_martingale_check(bundle_1d, field, [2.0, -1.0]))

    @pytest.mark.parametrize("qq", [-3.0, -1.5, 1.5, 3.0])
    def test_constant_integrand_unit_mean(self, bundle_1d, qq):
        # E(q c W) has unit mean for any constant integrand
        K, d = bundle_1d.grid.n_steps, bundle_1d.dim_m
        field = integrand_field(np.full((bundle_1d.n_paths, K, d), 0.8), d)
        est = q.stochastic_exponential_mean(bundle_1d, field, q=qq)
        assert abs(est.mean - 1.0) <= 3.0 * est.se

    def test_quadratic_solution_measure_change(self, bundle_1d):
        drv, field = solved(bundle_1d, "pure_quadratic", {"gamma": 1.0}, q.terminal_affine(0.0, [1.0]))
        reports = q.exp_martingale_check(bundle_1d, field, [-2.0, 2.0])
        assert [rep.name for rep in reports] == ["exp_martingale_q-2", "exp_martingale_q2"]
        for qq, rep in zip((-2.0, 2.0), reports):
            assert rep.passed, (qq, rep)
            # one integral serves every q: each report is the single-q estimate
            est = q.stochastic_exponential_mean(bundle_1d, field, qq)
            assert (rep.extra["mean"], rep.se, rep.extra["n_overflow"]) == (est.mean, est.se, est.n_overflow)

    def test_overflow_flagged(self):
        # log E(zeta.W)_T is about K/2 = 1000 > log(max float) on every path
        bundle, field = overflow_field(2000, 16, slice(None))
        est = q.stochastic_exponential_mean(bundle, field, q=1.0)
        assert est.n_overflow > 0
        assert (est.mean, est.se) == (math.inf, math.inf)
        [rep] = q.exp_martingale_check(bundle, field, [1.0])
        assert not rep.passed

    def test_partial_overflow_is_an_infinite_mean(self):
        # paths 8-15 carry E = 1 exactly; the mean of the surviving paths is not the mean
        bundle, field = overflow_field(2000, 16, slice(0, 8))
        est = q.stochastic_exponential_mean(bundle, field, q=1.0)
        assert 0 < est.n_overflow <= 8
        assert (est.mean, est.se) == (math.inf, math.inf)

    def test_overflowing_se_fails(self):
        # path 0 alone carries E(zeta.W)_T near exp(450): the mean is finite, its SE is not
        bundle, field = overflow_field(900, 16, [0])
        [rep] = q.exp_martingale_check(bundle, field, [1.0])
        assert (rep.extra["mean"], rep.se, rep.extra["n_overflow"]) == (math.inf, math.inf, 0)
        assert not rep.passed
        kaz = q.kazamaki_statistic(bundle, field, eta=2.0, q_tilde=1.0, expected_sup=1.0)
        assert (kaz.extra["sup"], kaz.se) == (math.inf, math.inf)
        assert not kaz.passed


def test_one_level_ladder_report_is_strict_json(bundle_1d):
    # one level compares no pair, so there is no worst gap to report
    ladder = q.solve_ladder(bundle_1d, q.make_builtin("zero"), q.terminal_constant(0.0, 1), [1.0])
    report = q.ladder_check(ladder, 0.0, 0.0, bundle_1d.n_paths).to_dict()
    assert report["extra"]["worst_gap"] is None
    json.dumps(report, allow_nan=False)


class TestKazamaki:
    def unit_field(self, bundle):
        K, d = bundle.grid.n_steps, bundle.dim_m
        return integrand_field(np.ones((bundle.n_paths, K, d)), d)

    def test_zero_martingale(self, bundle_1d):
        drv, field = solved(bundle_1d, "zero", {}, q.terminal_constant(0.0, 1))
        rep = q.kazamaki_statistic(bundle_1d, field, eta=2.0, q_tilde=1.0)
        assert rep.extra["sup"] == pytest.approx(1.0)
        assert rep.passed

    @pytest.mark.parametrize("eta,expected", [(2.0, math.exp(0.5)), (0.5, math.exp(0.125))])
    def test_brownian_statistic(self, bundle_1d, eta, expected):
        # per-node mean is exp(t (eta - 1)^2 / 2), sup at the horizon
        field = self.unit_field(bundle_1d)
        rep = q.kazamaki_statistic(bundle_1d, field, eta=eta, q_tilde=1.0)
        assert rep.extra["sup_node"] == bundle_1d.grid.n_steps
        assert abs(rep.extra["sup"] - expected) <= 3.0 * rep.se

    def test_streamed_means_equal_the_surface_formula(self, bundle_orth):
        drv, field = solved(bundle_orth, "pure_quadratic", {"gamma": 1.0}, q.terminal_abs(0.0, [1.0, 0.5]))
        eta, q_tilde = 2.0, 0.7
        rep = q.kazamaki_statistic(bundle_orth, field, eta=eta, q_tilde=q_tilde)
        # the running (n, K+1) surfaces the statistic streams
        z = q_tilde * field.integrand
        dstates = np.diff(bundle_orth.states, axis=0)
        mt = np.zeros((bundle_orth.n_paths, bundle_orth.grid.n_steps + 1))
        for i in range(bundle_orth.grid.n_steps):
            mt[:, i + 1] = mt[:, i] + np.einsum("nw,nw->n", z[:, i], dstates[i])
        qv = np.zeros_like(mt)
        np.cumsum(np.einsum("nkw,nkw->nk", z, z) * bundle_orth.dt, axis=1, out=qv[:, 1:])
        stats = [mean_se(np.exp(eta * mt[:, i] + (0.5 - eta) * qv[:, i])) for i in range(mt.shape[1])]
        node = int(np.argmax([m for m, _ in stats]))
        assert (rep.extra["sup"], rep.extra["sup_node"], rep.se) == (stats[node][0], node, stats[node][1])

    def test_field_off_the_bundle_rejected(self, bundle_1d, bundle_orth):
        with pytest.raises(GridMismatchError):
            q.kazamaki_statistic(bundle_orth, self.unit_field(bundle_1d), eta=2.0, q_tilde=1.0)

    def test_eta_one_rejected(self, bundle_1d):
        field = self.unit_field(bundle_1d)
        with pytest.raises(ValueError):
            q.kazamaki_statistic(bundle_1d, field, eta=1.0, q_tilde=1.0)


def test_ordering_probe_has_enough_coverage(bundle_1d):
    zero = q.make_builtin("zero")
    step = q.make_builtin("step_family", {"n": 2})
    max_f_gap, max_xi_gap = q.sample_ordering(bundle_1d, zero, step, q.terminal_constant(0.0, 1),
                                              q.terminal_constant(0.0, 1))
    assert max_f_gap <= 0.0 and max_xi_gap <= 0.0


class TestGridGuard:
    """Every check that reads a field, or two sweeps, beside a bundle refuses
    one made on other paths or another grid.  With 300 of its 500 paths the
    norm bounds passed, and the measure change raised numpy's broadcast error."""

    CHECKS = {
        "norm_bound_checks": lambda b, field, steps, drv, xi: q.norm_bound_checks(b, field, xi, drv.params, [2.0]),
        "stochastic_exponential_mean": lambda b, field, steps, drv, xi: q.stochastic_exponential_mean(b, field, 1.0),
        "exp_martingale_check": lambda b, field, steps, drv, xi: q.exp_martingale_check(b, field, [1.0]),
        "kazamaki_statistic": lambda b, field, steps, drv, xi: q.kazamaki_statistic(b, field, eta=2.0, q_tilde=1.0),
        "stability_metrics": lambda b, field, steps, drv, xi: q.stability_metrics(b, steps, drv, drv, xi, xi, [2.0]),
    }

    @pytest.mark.parametrize("other", [(8, 300), (6, 500)], ids=["paths", "steps"])
    @pytest.mark.parametrize("check", list(CHECKS))
    def test_field_off_the_bundle_is_refused(self, check, other):
        drv, xi = q.make_builtin("pure_quadratic", {"gamma": 1.0}), q.terminal_affine(0.0, [1.0])
        bundle = q.simulate_scenario(q.build_grid(1.0, 8), 1, 0, 500, source=q.RandomSource(41))
        field = q.solve_backward(bundle, drv, xi)
        steps = lockstep(bundle, xi, (drv, xi), (drv, xi))
        steps_k, paths = other
        off = q.simulate_scenario(q.build_grid(1.0, steps_k), 1, 0, paths, source=q.RandomSource(42))
        with pytest.raises(GridMismatchError):
            self.CHECKS[check](off, field, steps, drv, xi)
