import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import qbsde as q
from qbsde import solver
from qbsde.drivers import ParamSet
from qbsde.errors import DegenerateBasisError, SolverDivergenceError


def linear_driver(a, b0, alpha0=None):
    """F(t, y, z) = b0 + a y; exact discrete solution via the implicit recursion."""
    return q.DriverSpec(
        name="linear-in-y",
        f=lambda t, y, z, b: b0 + a * np.asarray(y),
        params=ParamSet(gamma=1.0, beta=a / (alpha0 or max(b0, 1.0)), beta_bar=a, c_A=1.0,
                        alpha_fn=lambda t: alpha0 or max(b0, 1.0)),
    )


def implicit_ode_oracle(grid, a, b0):
    y = 0.0
    for dt in reversed(np.diff(grid.nodes)):
        y = (y + b0 * dt) / (1.0 - a * dt)
    return y


def y_surface(bundle, driver, xi, config=None):
    """Y of ``solve_backward``'s sweep at every (path, node): the rows of
    ``_backward_steps`` stacked into an (n_paths, K+1) surface whose node axis
    is outermost in memory.  No solution field keeps this surface."""
    rows = {i: y for i, y, _, _ in solver._backward_steps(bundle, driver, xi, config or q.SolverConfig())}
    return np.stack([rows[i] for i in range(len(rows))]).T


class TestExactProblems:
    def test_constant_terminal_zero_driver(self, bundle_orth):
        zero, xi = q.make_builtin("zero"), q.terminal_constant(3.0, 2)
        field = q.solve_backward(bundle_orth, zero, xi)
        assert np.allclose(y_surface(bundle_orth, zero, xi), 3.0, atol=1e-11)
        assert np.abs(field.z).max() < 1e-11
        assert np.abs(field.z_orth).max() < 1e-11

    def test_terminal_pin_exact(self, bundle_1d):
        xi = q.terminal_affine(0.2, [1.3])
        y = y_surface(bundle_1d, q.make_builtin("pure_quadratic", {"gamma": 1.0}), xi)
        assert np.array_equal(y[:, -1], xi.evaluate(bundle_1d.terminal_state))

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_family_solution(self, n):
        grid = q.build_grid(2.0, 64, [1.0 / n])
        b = q.simulate_scenario(grid, 1, 0, 128, source=q.RandomSource(42))
        field = q.solve_backward(b, q.make_builtin("step_family", {"n": n}), q.terminal_constant(0.0, 1))
        expected = np.maximum(1.0 - n * grid.nodes, 0.0)
        y = y_surface(b, q.make_builtin("step_family", {"n": n}), q.terminal_constant(0.0, 1))
        assert np.abs(y - expected[None, :]).max() < 1e-12
        assert np.abs(field.z).max() < 1e-10

    def test_deterministic_driver_on_scaled_clock(self):
        # Y_0 = int F dA = value * A(T)
        grid = q.build_grid(1.0, 10)
        b = dataclasses.replace(q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(5)), clock_values=2.0 * grid.nodes)
        field = q.solve_backward(b, q.make_builtin("constant", {"value": 0.7}), q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(1.4, abs=1e-12)

    def test_flat_clock_steps_contribute_nothing(self):
        grid = q.build_grid(1.0, 10)
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(6))
        b = dataclasses.replace(b, clock_values=np.minimum(grid.nodes, 0.5))
        field = q.solve_backward(b, q.make_builtin("constant", {"value": 1.0}), q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(0.5, abs=1e-12)
        # Y is flat over the second half where dA = 0
        y = y_surface(b, q.make_builtin("constant", {"value": 1.0}), q.terminal_constant(0.0, 1))
        assert np.allclose(y[:, grid.index_of(0.5):], 0.0, atol=1e-12)


class TestPicard:
    def test_implicit_matches_discrete_recursion(self):
        grid = q.build_grid(1.0, 40)
        b = q.simulate_scenario(grid, 1, 0, 256, source=q.RandomSource(9))
        drv = linear_driver(a=0.8, b0=0.5)
        field = q.solve_backward(b, drv, q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(implicit_ode_oracle(grid, 0.8, 0.5), abs=1e-9)

    def test_implicit_converges_to_continuous_solution(self):
        a, b0, T = 0.8, 0.5, 1.0
        cont = (b0 / a) * (math.exp(a * T) - 1.0)
        errs = []
        for steps in (20, 40, 80):
            grid = q.build_grid(T, steps)
            b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(10))
            field = q.solve_backward(b, linear_driver(a, b0), q.terminal_constant(0.0, 1))
            errs.append(abs(field.y0 - cont))
        assert errs[2] < errs[1] < errs[0]

    def test_contraction_constraint_enforced(self):
        grid = q.build_grid(1.0, 2)  # max dA = 0.5
        b = q.simulate_scenario(grid, 1, 0, 16, source=q.RandomSource(1))
        drv = linear_driver(a=1.2, b0=0.1)
        with pytest.raises(ValueError, match="contraction"):
            q.solve_backward(b, drv, q.terminal_constant(0.0, 1))

    def test_divergence_error_carries_step(self):
        # driver lies about its Lipschitz constant, so the contraction check
        # passes but the fixed point iteration blows up
        grid = q.build_grid(1.0, 5)
        b = q.simulate_scenario(grid, 1, 0, 16, source=q.RandomSource(2))
        drv = dataclasses.replace(linear_driver(a=9.0, b0=0.0), params=ParamSet(gamma=1.0, beta_bar=0.1))
        with pytest.raises(SolverDivergenceError) as err:
            q.solve_backward(b, drv, q.terminal_constant(1.0, 1))
        assert err.value.step == 4

    def test_oracle_refuses_what_solve_backward_refuses(self):
        grid = q.build_grid(1.0, 2)  # beta_bar * dA = 0.6
        b = q.simulate_scenario(grid, 1, 0, 4, source=q.RandomSource(1))
        drv, xi = linear_driver(a=1.2, b0=0.1), q.terminal_constant(0.0, 1)
        with pytest.raises(ValueError, match="contraction constraint violated at step 1") as oracle:
            q.nested_mc_oracle(b, drv, xi, branching=1000)
        with pytest.raises(ValueError) as direct:
            q.solve_backward(b, drv, xi)
        assert str(oracle.value) == str(direct.value)

    def test_beta_bar_alone_makes_the_step_implicit(self):
        # F reads y, and its declared Lipschitz constant is the only sign of it
        drv = q.DriverSpec(name="reads-y", f=lambda t, y, z, b: 0.5 + 0.8 * np.asarray(y),
                           params=ParamSet(gamma=1.0, beta_bar=0.8))
        grid = q.build_grid(1.0, 10)
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(9))
        field = q.solve_backward(b, drv, q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(implicit_ode_oracle(grid, 0.8, 0.5), abs=1e-9)

    def test_oracle_picard_matches_discrete_recursion(self):
        # two steps keep the resimulation tree at 10^6 leaves
        grid = q.build_grid(1.0, 2)
        b = q.simulate_scenario(grid, 1, 0, 4, source=q.RandomSource(3))
        field = q.nested_mc_oracle(b, linear_driver(a=0.8, b0=0.5), q.terminal_constant(0.0, 1), branching=1000)
        assert field.y0 == pytest.approx(implicit_ode_oracle(grid, 0.8, 0.5), abs=1e-9)

    def test_non_finite_row_raises_at_its_step(self):
        # |W_T| under gamma = 2 on the default cubic basis: a batch's Y row
        # overflows, which must not reach y0_with_se as inf +- nan
        b = q.simulate_scenario(q.build_grid(1.0, 100), 1, 0, 20_000, source=q.RandomSource(1))
        drv = q.make_builtin("pure_quadratic", {"gamma": 2.0})
        with pytest.raises(DegenerateBasisError, match=r"non-finite Y at step \d+"):
            q.y0_with_se(b, drv, q.terminal_abs(0.0, [1.0]))


class TestQuadraticAnchor:
    def test_y0_and_z_against_transform(self, bundle_1d):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        xi = q.terminal_affine(0.0, [1.0])
        field = q.solve_backward(bundle_1d, drv, xi)
        assert field.y0 == pytest.approx(0.5, abs=0.02)
        assert np.mean(field.z) == pytest.approx(1.0, abs=0.03)

    def test_martingale_residual_centered(self, bundle_1d):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        xi = q.terminal_affine(0.0, [1.0])
        field = q.solve_backward(bundle_1d, drv, xi)
        y = y_surface(bundle_1d, drv, xi)
        n = bundle_1d.n_paths
        for i in range(bundle_1d.grid.n_steps):
            hedge = np.einsum("nw,nw->n", field.integrand[:, i, :], bundle_1d.states[i + 1] - bundle_1d.states[i])
            resid = (
                y[:, i + 1]
                - y[:, i]
                + drv.evaluate(bundle_1d, i, y[:, i], field.z[:, i, :]) * bundle_1d.dA[i]
                - hedge
            )
            # the regression part is centered in-sample, so the statistic's
            # replication noise is carried by the hedge term
            se = hedge.std(ddof=1) / math.sqrt(n)
            assert abs(resid.mean()) <= 4.0 * se + 1e-12

    def test_orth_component_enters_update(self, bundle_orth):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        xi = q.terminal_affine(0.0, [1.0, 1.0])
        field = q.solve_backward(bundle_orth, drv, xi)
        # Y_0 = gamma ||a||^2 T / 2 = 1; Z = Z_orth = 1
        assert field.y0 == pytest.approx(1.0, abs=0.05)
        assert np.mean(field.z_orth) == pytest.approx(1.0, abs=0.05)
        # <N>_T = sum |Z_orth|^2 dt: the integrand with its Z column zeroed
        steps = (field.integrand[:, i] * [0.0, 1.0] for i in range(bundle_orth.grid.n_steps))
        *_, (_, qv_n) = q.integral_by_node(bundle_orth, steps)
        assert qv_n.mean() == pytest.approx(1.0, abs=0.1)

    def test_grid_refinement_error_profile(self):
        # coupled bundles: finer grids should not degrade the anchor error
        fine = q.simulate_scenario(q.build_grid(1.0, 64), 1, 0, 2**15, source=q.RandomSource(77))
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        xi = q.terminal_affine(0.0, [1.0])
        errs = []
        for steps in (16, 32, 64):
            sub = q.coarsen_bundle(fine, q.build_grid(1.0, steps)) if steps < 64 else fine
            errs.append(abs(q.solve_backward(sub, drv, xi).y0 - 0.5))
        assert max(errs) < 0.02
        assert errs[2] <= errs[0] + 0.005


def solved_with_variance(bundle, driver, xi, config=None, checks=()):
    """``solve_backward`` with a recorder beside ``checks``: the field and the
    (n_paths, K+1) surface of the variance rows that the sweep hands its checks."""
    y_var = np.empty((bundle.grid.n_steps + 1, bundle.n_paths))

    def record(i, y_i, y_var_i):
        y_var[i] = y_var_i

    field = q.solve_backward(bundle, driver, xi, config, checks=[record, *checks])
    return field, y_var.T


def truncated_surfaces(bundle, driver, xi, levels, config=None):
    """The ladder's truncated problems, each swept alone with the untruncated xi
    as the basis feature, as every ladder level has it: (Y surface, variance
    surface) per level, each (n_paths, K+1)."""
    regression_at = solver._regression_at
    with mock.patch.object(solver, "_regression_at", lambda b, c, _: regression_at(b, c, xi)):
        problems = [(solver._stopped_clock(bundle, driver, float(level)),
                     solver._truncated_terminal(xi, float(level))) for level in levels]
        return [(y_surface(b, driver, x, config), solved_with_variance(b, driver, x, config)[1]) for b, x in problems]


def surface_monotonicity(surfaces, tol):
    """The ladder's monotonicity report computed from whole Y and variance surfaces."""
    ses = [np.sqrt(y_var) for _, y_var in surfaces]
    worst, violations, total = -np.inf, 0, 0
    for a in range(len(surfaces)):
        for c in range(a + 1, len(surfaces)):
            gap = surfaces[a][0] - surfaces[c][0]
            worst = max(worst, float(np.max(gap)))
            violations += int(np.count_nonzero(gap > tol + 3.0 * np.hypot(ses[a], ses[c])))
            total += gap.size
    return {"violation_fraction": violations / max(total, 1), "worst_gap": worst, "tol": tol, "pairs": total}


def assert_ladder_is(ladder, surfaces, tol=0.0):
    """The lockstep ladder reports exactly what the levels' surfaces give."""
    assert ladder.y0 == tuple(float(np.mean(y[:, 0])) for y, _ in surfaces)
    assert ladder.monotonicity == surface_monotonicity(surfaces, tol)


class TestLadder:
    def test_inactive_truncation_identical_fields(self, bundle_1d):
        xi = q.terminal_abs(0.0, [0.4])  # bounded well below the levels
        zero = q.make_builtin("zero")
        ladder = q.solve_ladder(bundle_1d, zero, xi, [4, 8])
        surfaces = truncated_surfaces(bundle_1d, zero, xi, [4, 8])
        assert np.array_equal(surfaces[0][0], surfaces[1][0])
        assert_ladder_is(ladder, surfaces)
        assert ladder.monotonicity["violation_fraction"] == 0.0

    def test_sigma_gate_from_running_integral(self):
        # alpha = 1 on [0, 1]; level 0.5 stops the clock, and with it F, halfway
        grid = q.build_grid(2.0, 64, [0.5, 1.0])
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(21))
        drv = q.make_builtin("step_family", {"n": 1})
        ladder = q.solve_ladder(b, drv, q.terminal_constant(0.0, 1), [0.5])
        assert ladder.y0[0] == pytest.approx(0.5, abs=1e-12)
        assert ladder.alpha_l1[0] == pytest.approx(0.5, abs=1e-12)

    def test_stopped_clock_switches_y_dependent_driver_off(self):
        # alpha = 1 on a 40-step grid: level 0.5 stops the clock after step 20,
        # and from there on the field is the zero driver's, error bars included
        b = q.simulate_scenario(q.build_grid(1.0, 40), 1, 0, 2000, source=q.RandomSource(23))
        xi = q.terminal_abs(0.0, [1.0])
        drivers = [linear_driver(a=0.8, b0=0.5), q.make_builtin("zero")]
        (linear,), (zero,) = (truncated_surfaces(b, drv, xi, [0.5]) for drv in drivers)
        for drv, f in zip(drivers, (linear, zero)):
            assert_ladder_is(q.solve_ladder(b, drv, xi, [0.5]), [f])
        (linear, linear_var), (zero, zero_var) = linear, zero
        assert np.array_equal(linear[:, 20:], zero[:, 20:])
        assert np.array_equal(linear_var[:, 20:], zero_var[:, 20:])
        assert not np.array_equal(linear[:, 19], zero[:, 19])

    def test_lambda_declared_driver_stops_at_level(self):
        # power utility declares lambda: alpha = ||B lam||^2 = 0.16, so level 0.08 stops the clock at t = 0.5
        b = q.simulate_scenario(q.build_grid(1.0, 20), 1, 0, 500, source=q.RandomSource(24))
        drv = q.make_builtin("power_utility", {"p": 0.5, "lam": 0.4,
                                               "constraint": {"kind": "box", "lower": [-1.0], "upper": [1.0]}})
        xi = q.terminal_constant(0.0, 1)
        ladder = q.solve_ladder(b, drv, xi, [0.08])
        [level] = truncated_surfaces(b, drv, xi, [0.08])
        [(zero, _)] = truncated_surfaces(b, q.make_builtin("zero"), xi, [0.08])
        assert_ladder_is(ladder, [level])
        assert ladder.alpha_l1[0] == pytest.approx(0.08, abs=1e-12)
        assert np.array_equal(level[0][:, 10:], zero[:, 10:])
        # F = q |lam / (1 - p)|^2 = 0.08 at Z = 0 acts on [0, 0.5] only
        assert ladder.y0[0] == pytest.approx(0.04, abs=1e-9)

    def test_terminal_truncation_monotone(self):
        b = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 2**14, source=q.RandomSource(22))
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        cfg = q.SolverConfig(basis_kind="binned", bins=12, terminal_feature=False)
        ladder = q.solve_ladder(b, drv, q.terminal_abs(0.0, [1.0]), [1, 2, 4], cfg)
        assert ladder.y0[0] <= ladder.y0[1] <= ladder.y0[2]
        assert ladder.monotonicity["violation_fraction"] < 1e-3

    @pytest.mark.parametrize("tol", [0.0, -0.02])
    def test_streamed_report_equals_the_surface_formula(self, tol):
        b = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 4000, source=q.RandomSource(25))
        cfg = q.SolverConfig(basis_kind="binned", bins=12, terminal_feature=False)
        drv, xi = q.make_builtin("pure_quadratic", {"gamma": 1.0}), q.terminal_abs(0.0, [1.0])
        ladder = q.solve_ladder(b, drv, xi, [0.5, 1, 2], cfg, tol)
        assert_ladder_is(ladder, truncated_surfaces(b, drv, xi, [0.5, 1, 2], cfg), tol)
        assert tol < 0 or ladder.monotonicity["violation_fraction"] < 1e-3
        assert tol == 0 or ladder.monotonicity["violation_fraction"] > 0

    def test_signed_terminal_double_truncation(self, bundle_1d):
        zero, xi = q.make_builtin("zero"), q.terminal_affine(0.0, [2.0])
        [level] = truncated_surfaces(bundle_1d, zero, xi, [1.0])
        assert_ladder_is(q.solve_ladder(bundle_1d, zero, xi, [1.0]), [level])
        capped = level[0][:, -1]
        assert capped.max() <= 1.0 + 1e-12
        assert capped.min() >= -1.0 - 1e-12

    def test_level_must_be_positive(self, bundle_1d):
        with pytest.raises(ValueError):
            q.solve_ladder(bundle_1d, q.make_builtin("zero"), q.terminal_constant(0.0, 1), [0.0])

    @pytest.mark.parametrize("levels", [[8, 4, 2, 1], [1, 2, 4, 8, 1], [1, 1]])
    def test_levels_must_increase(self, bundle_1d, levels):
        # the monotonicity report and the top level are read in list order
        with pytest.raises(ValueError, match="strictly increasing"):
            q.solve_ladder(bundle_1d, q.make_builtin("zero"), q.terminal_constant(0.0, 1), levels)


def assert_node_major(field):
    """The node axis is outermost in memory: every node's rows are contiguous."""
    assert field.y_export.flags.c_contiguous
    assert field.integrand.transpose(1, 0, 2).flags.c_contiguous


class TestLayout:
    @pytest.mark.parametrize("basis_kind", ["poly", "binned"])
    def test_solve_backward_node_major(self, bundle_1d, basis_kind):
        config = q.SolverConfig(basis_kind=basis_kind, terminal_feature=basis_kind == "poly")
        field = q.solve_backward(bundle_1d, q.make_builtin("pure_quadratic", {"gamma": 1.0}),
                                 q.terminal_abs(0.0, [1.0]), config)
        assert_node_major(field)

    def test_solve_backward_node_major_with_orth(self, bundle_orth):
        assert_node_major(q.solve_backward(bundle_orth, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0, 0.5])))


@pytest.mark.parametrize("field", [{"degree": -1}, {"basis_kind": "spline"}, {"bins": 0}],
                         ids=["degree", "basis_kind", "bins"])
def test_solver_config_rejects_bad_basis_when_built(field):
    with pytest.raises(ValueError):
        q.SolverConfig(**field)


def test_binned_basis_has_one_backend(bundle_1d):
    # terminal_feature, True by default, is a polynomial column: a binned
    # solve builds only BinnedRegression and ignores the flag bit for bit
    drv, xi = q.make_builtin("pure_quadratic", {"gamma": 1.0}), q.terminal_abs(0.0, [1.0])
    built, make = [], solver.make_regression

    def recording(*args):
        built.append(make(*args))
        return built[-1]

    with mock.patch.object(solver, "make_regression", recording):
        default = q.solve_backward(bundle_1d, drv, xi, q.SolverConfig(basis_kind="binned"))
    assert len(built) == bundle_1d.grid.n_steps
    assert all(type(reg) is q.regression.BinnedRegression for reg in built)
    plain = q.solve_backward(bundle_1d, drv, xi, q.SolverConfig(basis_kind="binned", terminal_feature=False))
    assert np.array_equal(y_surface(bundle_1d, drv, xi, q.SolverConfig(basis_kind="binned")),
                          y_surface(bundle_1d, drv, xi, q.SolverConfig(basis_kind="binned", terminal_feature=False)))
    assert np.array_equal(default.integrand, plain.integrand)


class TestOutputs:
    def test_csv_and_field_shapes(self, tmp_path, bundle_orth):
        field = q.solve_backward(bundle_orth, q.make_builtin("zero"), q.terminal_constant(1.0, 2))
        out = tmp_path / "field.csv"
        field.to_csv(out, grid_nodes=bundle_orth.grid.nodes)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,t,path,y,z0,zorth0"
        n = min(solver.EXPORT_PATHS, bundle_orth.n_paths)
        assert len(lines) == 1 + n * (bundle_orth.grid.n_steps + 1)

    @pytest.mark.parametrize("n_paths", [37, 150])
    @pytest.mark.parametrize("dim_orth", [0, 1])
    def test_field_keeps_the_parts_of_y_that_are_read(self, n_paths, dim_orth):
        # Y_0, Y* = max_i |Y_i| and the first EXPORT_PATHS paths of the sweep's
        # rows, bit for bit, and no (n, K+1) attribute
        b = q.simulate_scenario(q.build_grid(1.0, 6), 1, dim_orth, n_paths, source=q.RandomSource(31))
        drv, xi = q.make_builtin("pure_quadratic", {"gamma": 1.0}), q.terminal_abs(0.2, [1.0] * (1 + dim_orth))
        field = q.solve_backward(b, drv, xi, q.SolverConfig(degree=2))
        y = y_surface(b, drv, xi, q.SolverConfig(degree=2))
        m = min(solver.EXPORT_PATHS, n_paths)
        assert np.array_equal(field.y_start, y[:, 0])
        assert np.array_equal(field.y_sup, np.max(np.abs(y), axis=1))
        assert np.array_equal(field.y_export, y[:m].T)
        assert field.y0 == float(np.mean(y[:, 0]))
        assert (field.n_paths, field.n_steps) == (n_paths, 6)
        assert (n_paths, 7) not in [np.shape(v) for v in vars(field).values()]

    @pytest.mark.parametrize("n_paths", [37, 150])
    @pytest.mark.parametrize("dim_orth", [0, 1])
    def test_csv_is_the_first_paths_of_the_sweep(self, tmp_path, n_paths, dim_orth):
        b = q.simulate_scenario(q.build_grid(1.0, 5), 1, dim_orth, n_paths, source=q.RandomSource(32))
        drv, xi = q.make_builtin("pure_quadratic", {"gamma": 1.0}), q.terminal_abs(-0.1, [1.0, 0.5][: 1 + dim_orth])
        rows = {i: (y, zeta) for i, y, zeta, _ in solver._backward_steps(b, drv, xi, q.SolverConfig())}
        K, m = b.grid.n_steps, min(solver.EXPORT_PATHS, n_paths)
        lines = [",".join(["node", "t", "path", "y", "z0"] + ["zorth0"] * dim_orth)]
        for i in range(K + 1):
            zeta = rows[min(i, K - 1)][1]  # node K repeats the last step's integrand
            for p in range(m):
                values = [rows[i][0][p], *zeta[p]]
                lines.append(",".join([str(i), f"{b.grid.nodes[i]:.12g}", str(p)] + [f"{v:.12g}" for v in values]))
        out = tmp_path / "field.csv"
        q.solve_backward(b, drv, xi).to_csv(out, grid_nodes=b.grid.nodes)
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_y0_with_se_deterministic_problem(self, bundle_1d):
        y0, se, vals = q.y0_with_se(bundle_1d, q.make_builtin("constant", {"value": 1.0}),
                                    q.terminal_constant(0.0, 1))
        assert y0 == pytest.approx(1.0, abs=1e-12)
        assert se < 1e-12
        assert len(vals) == 8


class TestSharedSweep:
    """``y0_with_se`` runs the sweep of ``solve_backward`` on every batch, keeping only its current row."""

    CASES = {
        "binned_1d": ("bundle_1d", lambda: q.make_builtin("pure_quadratic", {"gamma": 1.0}),
                      q.terminal_abs(0.0, [1.0]), q.SolverConfig(basis_kind="binned", bins=12, terminal_feature=False)),
        "poly_orth": ("bundle_orth", lambda: q.make_builtin("pure_quadratic", {"gamma": 1.0}),
                      q.terminal_abs(0.0, [1.0, 0.5]), q.SolverConfig(degree=3)),
        "picard": ("bundle_1d", lambda: linear_driver(a=0.8, b0=0.5), q.terminal_abs(0.0, [1.0]),
                   q.SolverConfig(degree=2)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_batch_values_are_solve_backward_on_the_slices(self, request, case):
        name, make_driver, xi, config = self.CASES[case]
        bundle, driver = request.getfixturevalue(name), make_driver()
        _, _, vals = q.y0_with_se(bundle, driver, xi, config)
        edges = np.linspace(0, bundle.n_paths, q.solver.Y0_SE_BATCHES + 1, dtype=int)
        expected = [q.solve_backward(bundle.slice_paths(int(lo), int(hi)), driver, xi, config).y0
                    for lo, hi in zip(edges[:-1], edges[1:])]
        assert vals == expected

    @pytest.mark.parametrize("driver,match,oracle_too", [
        (dataclasses.replace(q.make_builtin("zero"), dim_m=2), "needs dim_m=2", True),
        (linear_driver(a=30.0, b0=0.5), "contraction constraint violated", False),
    ], ids=["dim_m", "contraction"])
    def test_same_errors_as_solve_backward(self, bundle_1d, driver, match, oracle_too):
        xi = q.terminal_constant(0.0, 1)
        with pytest.raises(ValueError, match=match) as direct:
            q.solve_backward(bundle_1d, driver, xi)
        with pytest.raises(ValueError, match=match) as batched:
            q.y0_with_se(bundle_1d, driver, xi)
        assert str(batched.value) == str(direct.value)
        if oracle_too:
            # the oracle takes at most 4 nodes; the step a contraction fails at depends on the grid
            tiny = q.simulate_scenario(q.build_grid(1.0, 3), 1, 0, 4, source=q.RandomSource(1))
            with pytest.raises(ValueError, match=match) as oracle:
                q.nested_mc_oracle(tiny, driver, xi, branching=1000)
            assert str(oracle.value) == str(direct.value)

    @pytest.mark.parametrize("case", list(CASES))
    def test_unchecked_solve_does_no_variance_work(self, request, case):
        # no residual or fit variance in a sweep asked for none, and the field of a checked solve bit for bit
        name, make_driver, xi, config = self.CASES[case]
        bundle, driver = request.getfixturevalue(name), make_driver()
        targets = [(q.regression._Projection, "residual_variance"), (q.regression.NodeRegression, "fit_variance"),
                   (q.regression.BinnedRegression, "fit_variance")]
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(owner, attr, autospec=True, side_effect=getattr(owner, attr)))
                     for owner, attr in targets]
            sweep = stack.enter_context(mock.patch.object(solver, "_backward_steps", wraps=solver._backward_steps))
            plain = q.solve_backward(bundle, driver, xi, config)
            assert sweep.call_args.kwargs["variance"] is False and all(spy.call_count == 0 for spy in spies)
            checked, _ = solved_with_variance(bundle, driver, xi, config)
            assert sweep.call_args.kwargs["variance"] is True and spies[0].call_count == bundle.grid.n_steps
            assert sweep.call_count == 2
        for part in ("y_start", "y_sup", "y_export", "integrand"):
            assert np.array_equal(getattr(plain, part), getattr(checked, part))


class TestSweepContract:
    """``_backward_steps`` yields each node's ``(i, y_i, zeta_i, y_var_i)`` once, from t_K down to t_0."""

    @pytest.mark.parametrize("variance", [False, True], ids=["plain", "variance"])
    @pytest.mark.parametrize("case", list(TestSharedSweep.CASES))
    def test_nodes_from_t_K_down(self, request, case, variance):
        name, make_driver, xi, config = TestSharedSweep.CASES[case]
        bundle = request.getfixturevalue(name)
        K, n, w = bundle.grid.n_steps, bundle.n_paths, bundle.states.shape[2]
        steps = solver._backward_steps(bundle, make_driver(), xi, config, variance=variance)
        i, y_K, zeta_K, y_var_K = next(steps)
        assert i == K and zeta_K is None
        assert np.array_equal(y_K, xi.evaluate(bundle.terminal_state))
        if variance:
            assert y_var_K.shape == (n,) and not np.any(y_var_K)
        else:
            assert y_var_K is None
        nodes = [i]
        for i, y_i, zeta_i, y_var_i in steps:
            nodes.append(i)
            assert y_i.shape == (n,) and zeta_i.shape == (n, w)
            assert (y_var_i is not None) == variance
        assert nodes == list(range(K, -1, -1))
