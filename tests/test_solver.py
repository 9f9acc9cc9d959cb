import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbsde as q
from qbsde.drivers import ParamSet
from qbsde.errors import MomentFailureError, SolverDivergenceError
from qbsde.solver import _config_hash


def linear_driver(a, b0, alpha0=None):
    """F(t, y, z) = b0 + a y; exact discrete solution via the implicit recursion."""
    return q.DriverSpec(
        name="linear-in-y",
        f=lambda t, y, z, b: b0 + a * np.asarray(y),
        params=ParamSet(gamma=1.0, beta=a / (alpha0 or max(b0, 1.0)), beta_bar=a, c_A=1.0,
                        alpha_fn=lambda t: alpha0 or max(b0, 1.0)),
        depends_on_y=True,
        depends_on_z=False,
    )


def implicit_ode_oracle(grid, a, b0):
    y = 0.0
    for dt in reversed(np.diff(grid.nodes)):
        y = (y + b0 * dt) / (1.0 - a * dt)
    return y


def explicit_ode_oracle(grid, a, b0):
    y = 0.0
    for dt in reversed(np.diff(grid.nodes)):
        y = y + (b0 + a * y) * dt
    return y


class TestExactProblems:
    def test_constant_terminal_zero_driver(self, bundle_orth):
        field = q.solve_backward(bundle_orth, q.make_builtin("zero"), q.terminal_constant(3.0, 2))
        assert np.allclose(field.y, 3.0, atol=1e-11)
        assert np.abs(field.z).max() < 1e-11
        assert np.abs(field.z_orth).max() < 1e-11

    def test_terminal_pin_exact(self, bundle_1d):
        xi = q.terminal_affine(0.2, [1.3])
        field = q.solve_backward(bundle_1d, q.make_builtin("pure_quadratic", {"gamma": 1.0}), xi)
        assert np.array_equal(field.y[:, -1], xi.evaluate(bundle_1d.terminal_state))

    @pytest.mark.parametrize("n", [1, 2])
    def test_step_family_solution(self, n):
        grid = q.build_grid(2.0, 64, [1.0 / n])
        b = q.simulate_scenario(grid, 1, 0, 128, source=q.RandomSource(42))
        field = q.solve_backward(b, q.make_builtin("step_family", {"n": n}), q.terminal_constant(0.0, 1))
        expected = np.maximum(1.0 - n * grid.nodes, 0.0)
        assert np.abs(field.y - expected[None, :]).max() < 1e-12
        assert np.abs(field.z).max() < 1e-10

    def test_deterministic_driver_on_scaled_clock(self):
        # Y_0 = int F dA = value * A(T)
        grid = q.build_grid(1.0, 10)
        b = q.simulate_scenario(grid, 1, 0, 64, clock=q.ClockSpec("scaled", rate=2.0),
                                source=q.RandomSource(5))
        field = q.solve_backward(b, q.make_builtin("constant", {"value": 0.7}), q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(1.4, abs=1e-12)

    def test_flat_clock_steps_contribute_nothing(self):
        grid = q.build_grid(1.0, 10)
        clock = q.ClockSpec("piecewise", times=(0.0, 0.5, 1.0), values=(0.0, 0.5, 0.5))
        b = q.simulate_scenario(grid, 1, 0, 64, clock=clock, source=q.RandomSource(6))
        field = q.solve_backward(b, q.make_builtin("constant", {"value": 1.0}), q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(0.5, abs=1e-12)
        # Y is flat over the second half where dA = 0
        assert np.allclose(field.y[:, grid.index_of(0.5):], 0.0, atol=1e-12)


class TestPicard:
    def test_implicit_matches_discrete_recursion(self):
        grid = q.build_grid(1.0, 40)
        b = q.simulate_scenario(grid, 1, 0, 256, source=q.RandomSource(9))
        drv = linear_driver(a=0.8, b0=0.5)
        field = q.solve_backward(b, drv, q.terminal_constant(0.0, 1))
        assert field.y0 == pytest.approx(implicit_ode_oracle(grid, 0.8, 0.5), abs=1e-9)

    def test_explicit_mode(self):
        grid = q.build_grid(1.0, 40)
        b = q.simulate_scenario(grid, 1, 0, 256, source=q.RandomSource(9))
        drv = linear_driver(a=0.8, b0=0.5)
        field = q.solve_backward(b, drv, q.terminal_constant(0.0, 1), q.SolverConfig(implicit=False))
        assert field.y0 == pytest.approx(explicit_ode_oracle(grid, 0.8, 0.5), abs=1e-12)

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
        drv = dataclasses.replace(linear_driver(a=9.0, b0=0.0), params=ParamSet(gamma=1.0))
        with pytest.raises(SolverDivergenceError) as err:
            q.solve_backward(b, drv, q.terminal_constant(1.0, 1))
        assert err.value.step == 4


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
        n = bundle_1d.n_paths
        for i in range(bundle_1d.grid.n_steps):
            hedge = np.einsum("nw,nw->n", field.integrand[:, i, :], bundle_1d.increments[i])
            resid = (
                field.y[:, i + 1]
                - field.y[:, i]
                + drv.evaluate(bundle_1d, i, field.y[:, i], field.z[:, i, :]) * bundle_1d.dA[i]
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
        qv_n = q.stochastic_integral(bundle_orth, field.integrand * [0.0, 1.0])[1]
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


class TestTransformReference:
    def test_constant(self, bundle_1d):
        ref = q.exponential_transform_reference(bundle_1d, 2.0, q.terminal_constant(1.5, 1))
        assert np.allclose(ref.y, 1.5)

    @pytest.mark.parametrize("gamma,expected", [(1.0, 0.5), (2.0, 1.0)])
    def test_affine_closed_form(self, bundle_1d, gamma, expected):
        ref = q.exponential_transform_reference(bundle_1d, gamma, q.terminal_affine(0.0, [1.0]))
        assert ref.y[:, 0].mean() == pytest.approx(expected, abs=1e-12)
        assert np.allclose(ref.z, 1.0)

    def test_regression_mode_for_folded_terminal(self, bundle_1d):
        ref = q.exponential_transform_reference(bundle_1d, 1.0, q.terminal_abs(0.0, [1.0]))
        target = math.log(2 * 0.8413447460685429 * math.exp(0.5))
        assert ref.y0 == pytest.approx(target, abs=0.02)

    def test_moment_failure(self, bundle_1d):
        # folded terminal forces the regression branch, where exp must overflow
        with pytest.raises(MomentFailureError):
            q.exponential_transform_reference(bundle_1d, 1.0, q.terminal_abs(0.0, [400.0]))


class TestLadder:
    def test_inactive_truncation_identical_fields(self, bundle_1d):
        xi = q.terminal_abs(0.0, [0.4])  # bounded well below the levels
        ladder = q.solve_ladder(bundle_1d, q.make_builtin("zero"), xi, [4, 8])
        assert np.array_equal(ladder.fields[0].y, ladder.fields[1].y)
        report = ladder.monotonicity_report()
        assert report["violation_fraction"] == 0.0

    def test_sigma_gate_from_running_integral(self):
        # alpha = 1 on [0, 1]; level 0.5 stops the clock, and with it F, halfway
        grid = q.build_grid(2.0, 64, [0.5, 1.0])
        b = q.simulate_scenario(grid, 1, 0, 64, source=q.RandomSource(21))
        drv = q.make_builtin("step_family", {"n": 1})
        ladder = q.solve_ladder(b, drv, q.terminal_constant(0.0, 1), [0.5])
        assert ladder.fields[0].y0 == pytest.approx(0.5, abs=1e-12)
        assert ladder.alpha_l1[0] == pytest.approx(0.5, abs=1e-12)

    def test_stopped_clock_switches_y_dependent_driver_off(self):
        # alpha = 1 on a 40-step grid: level 0.5 stops the clock after step 20,
        # and from there on the field is the zero driver's, error bars included
        b = q.simulate_scenario(q.build_grid(1.0, 40), 1, 0, 2000, source=q.RandomSource(23))
        xi = q.terminal_abs(0.0, [1.0])
        linear = q.solve_ladder(b, linear_driver(a=0.8, b0=0.5), xi, [0.5]).fields[0]
        zero = q.solve_ladder(b, q.make_builtin("zero"), xi, [0.5]).fields[0]
        assert np.array_equal(linear.y[:, 20:], zero.y[:, 20:])
        assert np.array_equal(linear.diagnostics.y_var[:, 20:], zero.diagnostics.y_var[:, 20:])
        assert not np.array_equal(linear.y[:, 19], zero.y[:, 19])

    def test_lambda_declared_driver_stops_at_level(self):
        # power utility declares lambda: alpha = ||B lam||^2 = 0.16, so level 0.08 stops the clock at t = 0.5
        b = q.simulate_scenario(q.build_grid(1.0, 20), 1, 0, 500, source=q.RandomSource(24))
        drv = q.make_builtin("power_utility", {"p": 0.5, "lam": 0.4,
                                               "constraint": {"kind": "box", "lower": [-1.0], "upper": [1.0]}})
        xi = q.terminal_constant(0.0, 1)
        ladder = q.solve_ladder(b, drv, xi, [0.08])
        zero = q.solve_ladder(b, q.make_builtin("zero"), xi, [0.08])
        assert ladder.alpha_l1[0] == pytest.approx(0.08, abs=1e-12)
        assert np.array_equal(ladder.fields[0].y[:, 10:], zero.fields[0].y[:, 10:])
        # F = q |lam / (1 - p)|^2 = 0.08 at Z = 0 acts on [0, 0.5] only
        assert ladder.fields[0].y0 == pytest.approx(0.04, abs=1e-9)

    def test_terminal_truncation_monotone(self):
        b = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 2**14, source=q.RandomSource(22))
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        cfg = q.SolverConfig(basis_kind="binned", bins=12, terminal_feature=False)
        ladder = q.solve_ladder(b, drv, q.terminal_abs(0.0, [1.0]), [1, 2, 4], cfg)
        y0s = [f.y0 for f in ladder.fields]
        assert y0s[0] <= y0s[1] <= y0s[2]
        assert ladder.monotonicity_report()["violation_fraction"] < 1e-3

    def test_signed_terminal_double_truncation(self, bundle_1d):
        ladder = q.solve_ladder(bundle_1d, q.make_builtin("zero"), q.terminal_affine(0.0, [2.0]), [1.0])
        capped = ladder.fields[0].y[:, -1]
        assert capped.max() <= 1.0 + 1e-12
        assert capped.min() >= -1.0 - 1e-12

    def test_level_must_be_positive(self, bundle_1d):
        with pytest.raises(ValueError):
            q.solve_ladder(bundle_1d, q.make_builtin("zero"), q.terminal_constant(0.0, 1), [0.0])


class TestOutputs:
    def test_csv_and_field_shapes(self, tmp_path, bundle_orth):
        field = q.solve_backward(bundle_orth, q.make_builtin("zero"), q.terminal_constant(1.0, 2))
        out = tmp_path / "field.csv"
        field.to_csv(out, grid_nodes=bundle_orth.grid.nodes, max_paths=3)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,t,path,y,z0,zorth0"
        assert len(lines) == 1 + 3 * (bundle_orth.grid.n_steps + 1)

    def test_config_hash_stable(self, bundle_1d):
        drv = q.make_builtin("zero")
        xi = q.terminal_constant(0.0, 1)
        f1 = q.solve_backward(bundle_1d, drv, xi)
        f2 = q.solve_backward(bundle_1d, drv, xi)
        assert f1.meta["config_hash"] == f2.meta["config_hash"]

    def test_config_hash_covers_driver_options_and_basis(self):
        bundle = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 2000, source=q.RandomSource(3))
        xi = q.terminal_constant(0.0, 1)
        by_n = {q.solve_backward(bundle, q.make_builtin("step_family", {"n": n}), xi).meta["config_hash"]
                for n in (1, 2)}
        by_basis = {q.solve_backward(bundle, q.make_builtin("zero"), xi,
                                     q.SolverConfig(basis_kind=kind, terminal_feature=False)).meta["config_hash"]
                    for kind in ("poly", "binned")}
        assert len(by_n) == 2 and len(by_basis) == 2

    def test_y0_with_se_deterministic_problem(self, bundle_1d):
        y0, se, vals = q.y0_with_se(bundle_1d, q.make_builtin("constant", {"value": 1.0}),
                                    q.terminal_constant(0.0, 1))
        assert y0 == pytest.approx(1.0, abs=1e-12)
        assert se < 1e-12
        assert len(vals) == 8


# ---------------------------------------------------------------------------
# content-addressed solution identities
# ---------------------------------------------------------------------------

_HASH_BUNDLE = q.simulate_scenario(q.build_grid(1.0, 2), 1, 0, 4, source=q.RandomSource(11))
_HASH_XI = q.terminal_affine(0.0, [1.0])

_SOLVER_FIELDS = {
    "degree": st.integers(1, 6),
    "basis_kind": st.sampled_from(["poly", "binned"]),
    "bins": st.integers(2, 64),
    "picard_tol": st.floats(1e-14, 1e-2),
    "picard_max": st.integers(1, 100),
    "implicit": st.booleans(),
    "terminal_feature": st.booleans(),
}

_DRIVER_OPTIONS = {
    "constant": ("value", st.floats(-10.0, 10.0)),
    "step_family": ("n", st.floats(0.1, 10.0)),
    "pure_quadratic": ("gamma", st.floats(0.1, 10.0)),
}


def _solver_hash(config, driver=None):
    return _config_hash(_HASH_BUNDLE, driver or q.make_builtin("zero"), _HASH_XI, config, "regression")


@settings(max_examples=60, deadline=None)
@given(base=st.builds(q.SolverConfig, **_SOLVER_FIELDS), name=st.sampled_from(sorted(_SOLVER_FIELDS)), data=st.data())
def test_config_hash_separates_solver_configs(base, name, data):
    other = dataclasses.replace(base, **{name: data.draw(_SOLVER_FIELDS[name])})
    assert (_solver_hash(other) == _solver_hash(base)) == (other == base)


@pytest.mark.parametrize("name", sorted(_DRIVER_OPTIONS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_hash_separates_driver_options(name, data):
    key, values = _DRIVER_OPTIONS[name]
    u = data.draw(values)
    v = data.draw(values.filter(lambda x: x != u))
    config = q.SolverConfig()
    assert (_solver_hash(config, q.make_builtin(name, {key: u}))
            != _solver_hash(config, q.make_builtin(name, {key: v})))
