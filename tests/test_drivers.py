import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import qbsde as q
from qbsde.drivers import ParamSet
from qbsde.errors import UnknownDriverError


class TestParamSet:
    def test_beta_star_exact(self):
        p = ParamSet(gamma=2.0, beta=0.5, beta_bar=1.25, c_A=0.4)
        assert p.beta_star == 0.4 * 1.25

    @settings(max_examples=40, deadline=None)
    @given(c_A=st.floats(0.0, 5.0), bb=st.floats(0.0, 5.0))
    def test_beta_star_identity(self, c_A, bb):
        assert ParamSet(gamma=1.0, beta_bar=bb, c_A=c_A).beta_star == c_A * bb

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ParamSet(gamma=0.0)
        with pytest.raises(ValueError):
            ParamSet(gamma=1.0, beta_f=0.0)
        with pytest.raises(ValueError):
            ParamSet(gamma=1.0, beta=-1.0)

    def test_alpha_l1_matches_lambda_quadratic_variation(self):
        # |alpha|_1 of a lambda-declared set must equal sum ||B lam||^2 dA on a clock with B != I
        grid = q.build_grid(1.0, 8)
        b = q.simulate_scenario(grid, 2, 0, 4, clock_values=2.0 * grid.nodes, source=q.RandomSource(3))
        assert not np.allclose(b.factor_b, 1.0)
        lam = lambda t: np.array([0.3 + t, -0.2 * t])
        p = ParamSet(gamma=1.0, lam_fn=lam)
        from_lam = sum(float(np.sum((b.factor_b[i] * lam(t)) ** 2)) * b.dA[i] for i, t in enumerate(grid.nodes[:-1]))
        assert from_lam == pytest.approx(p.alpha_l1(b), rel=1e-12)

    def test_lambda_mode(self, bundle_2d):
        p = ParamSet(gamma=1.0, lam_fn=lambda t: np.array([0.3, 0.4]))
        alpha = p.alpha_on(bundle_2d)
        assert np.allclose(alpha, 0.25)
        assert p.alpha_l1(bundle_2d) == pytest.approx(0.25)


class TestBuiltins:
    def test_registry(self):
        assert q.list_builtins() == ["constant", "entropic", "power_utility", "pure_quadratic", "step_family", "zero"]
        with pytest.raises(UnknownDriverError):
            q.make_builtin("kpz")

    def test_zero_params(self, bundle_1d):
        drv = q.make_builtin("zero")
        p = drv.params
        assert (p.gamma, p.beta, p.beta_bar, p.c_A) == (1.0, 0.0, 0.0, 0.0)
        assert np.all(p.alpha_on(bundle_1d) == 0.0)
        assert np.all(drv.evaluate(bundle_1d, 0, np.ones(4), np.ones((4, 1))) == 0.0)

    def test_missing_option_message(self):
        with pytest.raises(ValueError, match="requires option 'n'"):
            q.make_builtin("step_family")

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_step_family_unit_mass(self, n):
        grid = q.build_grid(2.0, 64, [1.0 / n])
        b = q.simulate_scenario(grid, 1, 0, 16, source=q.RandomSource(0))
        drv = q.make_builtin("step_family", {"n": n})
        assert drv.params.alpha_l1(b) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 12))
    def test_step_family_pointwise_vanishing(self, n):
        # F^n -> 0 pointwise on (0, T] while the dA mass stays 1
        drv = q.make_builtin("step_family", {"n": n})
        grid = q.build_grid(2.0, 48, [1.0 / n])
        b = q.simulate_scenario(grid, 1, 0, 4, source=q.RandomSource(1))
        y = np.zeros(4)
        z = np.zeros((4, 1))
        for i, t in enumerate(grid.nodes):
            val = drv.evaluate(b, i, y, z)[0]
            assert val == (n if t < 1.0 / n else 0.0)
        assert drv.params.alpha_l1(b) == pytest.approx(1.0, abs=1e-9)

    def test_pure_quadratic_value(self, bundle_1d):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        out = drv.evaluate(bundle_1d, 0, np.zeros(1), np.array([[2.0]]))
        assert out[0] == pytest.approx(2.0)

    def test_power_utility_projection(self, bundle_1d):
        drv = q.make_builtin(
            "power_utility",
            {"p": 0.5, "lam": 0.4, "constraint": {"kind": "box", "lower": [-0.5], "upper": [0.5]}},
        )
        # z = 0: x = -0.8, projection -0.5, gain = 0.64 - 0.09
        out = drv.evaluate(bundle_1d, 0, np.zeros(1), np.zeros((1, 1)))
        assert out[0] == pytest.approx(0.125 * 0.55)
        assert drv.params.gamma == pytest.approx(3.0)

    def test_power_utility_halfspace(self):
        # box is the only constraint kind; any other is named in the error
        with pytest.raises(ValueError, match="'halfspace'"):
            q.make_builtin("power_utility", {"p": 0.5, "lam": 0.0,
                                             "constraint": {"kind": "halfspace", "normal": [1.0], "offset": 0.25}})

    def test_power_utility_unread_constraint_keys(self):
        # the box reads kind, lower and upper; every other key is named in the error
        with pytest.raises(ValueError, match="'offset', 'uper'"):
            q.make_builtin("power_utility", {"p": 0.5, "lam": 0.0, "constraint": {
                "kind": "box", "lower": [-0.5], "upper": [0.5], "uper": [9.0], "offset": 0.25}})

    def test_power_utility_invalid(self):
        box = {"kind": "box", "lower": [0.2], "upper": [-0.2]}
        with pytest.raises(ValueError, match="empty constraint"):
            q.make_builtin("power_utility", {"p": 0.5, "lam": 0.0, "constraint": box})
        with pytest.raises(ValueError, match="p < 1"):
            q.make_builtin("power_utility", {"p": 1.5, "lam": 0.0,
                                             "constraint": {"kind": "box", "lower": [-1], "upper": [1]}})

    def test_entropic_value(self, bundle_2d):
        drv = q.make_builtin("entropic", {"lam_s": 0.5})
        z = np.array([[0.3, 0.4]])
        out = drv.evaluate(bundle_2d, 0, np.zeros(1), z)
        assert out[0] == pytest.approx(0.5 * (0.25 - 2 * 0.5 * 0.3 - 0.16))
        assert not drv.convex_in_z
        assert drv.dim_m == 2


class TestValidation:
    def test_zero_driver_all_margins_zero(self, bundle_1d):
        report = q.validate_assumptions(q.make_builtin("zero"), bundle_1d)
        assert report.passed
        for clause in report.extra.values():
            if clause["checked"]:
                assert clause["max_margin"] <= 0.0 + 1e-12

    @pytest.mark.parametrize("name,options", [
        ("zero", {}),
        ("constant", {"value": 0.7}),
        ("step_family", {"n": 2}),
        ("pure_quadratic", {"gamma": 1.0}),
        ("power_utility", {"p": 0.5, "lam": 0.4,
                           "constraint": {"kind": "box", "lower": [-0.5], "upper": [0.5]}}),
    ])
    def test_builtins_pass_with_declared_params(self, bundle_1d, name, options):
        drv = q.make_builtin(name, options)
        report = q.validate_assumptions(drv, bundle_1d)
        assert report.passed, report.extra

    def test_entropic_passes_and_skips_convexity(self, bundle_2d):
        drv = q.make_builtin("entropic", {"lam_s": 0.5})
        report = q.validate_assumptions(drv, bundle_2d)
        assert report.passed, report.extra
        assert not report.extra["convexity_z"]["checked"]

    def test_pure_quadratic_growth_is_tight(self, bundle_1d):
        drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        report = q.validate_assumptions(drv, bundle_1d)
        growth = report.extra["growth"]
        assert growth["violations"] == 0
        assert growth["max_margin"] == pytest.approx(0.0, abs=1e-9)

    def test_misdeclared_gamma_flagged(self, bundle_1d):
        honest = q.make_builtin("pure_quadratic", {"gamma": 1.0})
        lying = dataclasses.replace(honest, params=dataclasses.replace(honest.params, gamma=0.5))
        report = q.validate_assumptions(lying, bundle_1d)
        assert not report.passed
        assert report.extra["growth"]["violations"] > 0
        assert report.extra["growth"]["max_margin"] > 0
        assert report.extra["parameter_domain"]["violations"] > 0

    def test_lipschitz_violation_detected(self, bundle_1d):
        # driver steeper in y than its declared Lipschitz constant
        base = q.make_builtin("zero")
        lying = dataclasses.replace(
            base,
            name="steep",
            f=lambda t, y, z, b: 3.0 * np.asarray(y),
            params=dataclasses.replace(base.params, beta_bar=1.0, beta=1.0, c_A=1.0,
                                       alpha_fn=lambda t: 10.0),
        )
        report = q.validate_assumptions(lying, bundle_1d)
        assert report.extra["lipschitz_y"]["violations"] > 0
        assert report.extra["y_zero"]["violations"] > 0

    def test_beta_positive_checks_clock_slope(self, bundle_1d):
        drv = dataclasses.replace(
            q.make_builtin("zero"),
            params=ParamSet(gamma=1.0, beta=0.1, beta_bar=0.1, c_A=1.0, alpha_fn=lambda t: 1.0),
        )
        report = q.validate_assumptions(drv, bundle_1d)
        assert report.extra["clock_slope"]["checked"]
        assert report.extra["clock_slope"]["violations"] == 0


class TestMoments:
    def test_trivial(self, bundle_1d):
        xi = q.terminal_constant(0.0, 1)
        assert q.exponential_moment_estimate(xi, ParamSet(gamma=1.0), bundle_1d, 2.0) == (1.0, 0.0)

    def test_step_family_deterministic_mass(self):
        grid = q.build_grid(2.0, 64, [0.5])
        b = q.simulate_scenario(grid, 1, 0, 128, source=q.RandomSource(4))
        drv = q.make_builtin("step_family", {"n": 2})
        estimate, _ = q.exponential_moment_estimate(q.terminal_constant(0.0, 1), drv.params, b, 2.0)
        assert estimate == pytest.approx(math.exp(2.0), abs=1e-10)

    def test_folded_normal_closed_form(self, bundle_1d):
        # E[exp(|W_1|)] = 2 Phi(1) e^{1/2}
        xi = q.terminal_affine(0.0, [1.0])
        estimate, se = q.exponential_moment_estimate(xi, ParamSet(gamma=1.0), bundle_1d, 1.0)
        target = 2.0 * norm.cdf(1.0) * math.exp(0.5)
        assert abs(estimate - target) < 4.0 * se

    def test_overflow_flagged(self, bundle_1d):
        xi = q.terminal_affine(0.0, [400.0])
        assert q.exponential_moment_estimate(xi, ParamSet(gamma=1.0), bundle_1d, 2.0) == (math.inf, math.inf)
        # one path near exp(460): every value and the mean are finite, the SE is not
        spike = q.TerminalCondition(fn=lambda s: np.where(np.arange(len(s)) == 0, 230.0, 0.0), tag="spike")
        assert q.exponential_moment_estimate(spike, ParamSet(gamma=1.0), bundle_1d, 2.0) == (math.inf, math.inf)
        assert not q.moment_checks(spike, ParamSet(gamma=1.0), bundle_1d, [2.0])[0].passed

    def test_estimate_at_least_one(self, bundle_1d):
        xi = q.terminal_affine(0.1, [0.5])
        estimate, _ = q.exponential_moment_estimate(xi, ParamSet(gamma=1.0), bundle_1d, 1.5)
        assert estimate >= 1.0


class TestAffineTerminals:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), a0=st.floats(-2.0, 2.0), dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    def test_matches_dot_product_in_caller_width(self, d, a0, dtype, data):
        slope = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
        s = np.random.default_rng(d).standard_normal((50, d)).astype(dtype)
        v = q.terminal_affine(a0, slope).fn(s)
        assert v.dtype == dtype
        assert np.allclose(v, a0 + s.astype(float) @ np.asarray(slope), rtol=1e-5, atol=1e-5)
        assert np.array_equal(q.terminal_abs(a0, slope).fn(s), np.abs(v))

    def test_slope_must_match_state(self):
        with pytest.raises(ValueError, match="slope has 1 entries, state has 2"):
            q.terminal_affine(0.0, [1.0]).fn(np.zeros((3, 2)))
