"""Acceptance suite: every quantitative exit criterion, one test each.

Each criterion prints a single pass/fail line (run pytest with -s to see the
table).  Statistical checks run at their stated tolerances against the pinned
bundled experiments; deterministic ones at machine-level tolerances.
"""

import dataclasses
import math
import multiprocessing
import time

import numpy as np
import pytest
from scipy.stats import norm

import qbsde as q
from tests.test_solver import y_surface

E2 = math.exp(2.0)


def _verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def catalogue():
    """Run every bundled experiment once; criteria 2, 4-9 read from here."""
    out = {}
    for cfg in q.bundled_configs():
        report = q.run_experiment(cfg)
        out[cfg.name] = report
    return out


def _checks(report, prefix):
    return [c for c in report.checks if c.name.startswith(prefix)]


# --------------------------------------------------------------------------
# criterion 1: the deterministic counterexample family, exact
# --------------------------------------------------------------------------


def test_criterion_1_counterexample_exact():
    t_start = time.perf_counter()
    worst_y0 = worst_field = worst_z = worst_sup = 0.0
    for n in (1, 2, 4):
        grid = q.build_grid(2.0, 64, [1.0 / n])
        bundle = q.simulate_scenario(grid, 1, 0, 256, source=q.RandomSource(7100 + n))
        xi = q.terminal_constant(0.0, 1)
        drv = q.make_builtin("step_family", {"n": n})
        field = q.solve_backward(bundle, drv, xi)
        y, y_base = y_surface(bundle, drv, xi), y_surface(bundle, q.make_builtin("zero"), xi)
        expected = np.maximum(1.0 - n * grid.nodes, 0.0) * (grid.nodes <= 1.0 / n)
        worst_y0 = max(worst_y0, abs(field.y0 - 1.0))
        worst_field = max(worst_field, float(np.abs(y - expected[None, :]).max()))
        worst_z = max(worst_z, float(np.abs(field.z).max()))
        sup_gap = float(np.max(np.abs(y - y_base), axis=1).max())
        worst_sup = max(worst_sup, abs(sup_gap - 1.0))
    elapsed = time.perf_counter() - t_start
    ok = worst_y0 <= 1e-10 and worst_field <= 1e-10 and worst_z <= 1e-10 and worst_sup <= 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"Y0 err {worst_y0:.1e}, field err {worst_field:.1e}, "
                    f"|Z| {worst_z:.1e}, sup-gap err {worst_sup:.1e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: closed-form quadratic anchors
# --------------------------------------------------------------------------


def test_criterion_2_quadratic_anchor(catalogue):
    details = []
    ok = True
    elapsed = 0.0
    for name, target in (("quadratic-gaussian", 0.5), ("quadratic-gaussian-g2", 1.0)):
        report = catalogue[name]
        anchor = _checks(report, "anchor")[0]
        gap = abs(report.y0 - target)
        good = anchor.passed and gap <= 0.01 and gap <= 3.0 * report.y0_se + 1e-12
        good = good and anchor.extra["z_gap"] <= 0.05
        ok = ok and good
        elapsed += report.timing["wall_clock_s"]
        details.append(f"{name}: |Y0-{target}|={gap:.4f} (3SE={3 * report.y0_se:.4f}), z gap {anchor.extra['z_gap']:.3f}")
    ok = ok and elapsed < 60.0
    _verdict(2, ok, "; ".join(details) + f"; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 3: nested-MC oracle vs regression solver, all bundled drivers
# --------------------------------------------------------------------------

_ORACLE_CASES = {
    "zero": dict(driver=("zero", {}), nodes=[0.0, 1 / 3, 2 / 3, 1.0], dim=1, terminal=("affine", 0.0, [1.0])),
    "step_family": dict(driver=("step_family", {"n": 2}), nodes=[0.0, 0.5, 1.25, 2.0], dim=1,
                        terminal=("constant", 0.0, None)),
    "pure_quadratic": dict(driver=("pure_quadratic", {"gamma": 1.0}), nodes=[0.0, 1 / 3, 2 / 3, 1.0], dim=1,
                           terminal=("affine", 0.0, [1.0])),
    "power_utility": dict(
        driver=("power_utility", {"p": 0.5, "lam": 0.4,
                                  "constraint": {"kind": "box", "lower": [-0.5], "upper": [0.5]}}),
        nodes=[0.0, 1 / 3, 2 / 3, 1.0], dim=1, terminal=("affine", 0.0, [1.0])),
    "entropic": dict(driver=("entropic", {"lam_s": 0.5}), nodes=[0.0, 1 / 3, 2 / 3, 1.0], dim=2,
                     terminal=("affine", 0.0, [0.3, 0.4])),
}


def _terminal_from_spec(spec, dim):
    kind, intercept, slope = spec
    if kind == "constant":
        return q.terminal_constant(intercept, dim)
    return q.terminal_affine(intercept, slope)


def _run_oracle_case(name):
    case = _ORACLE_CASES[name]
    grid = q.TimeGrid(np.asarray(case["nodes"]))
    dim = case["dim"]
    driver = q.make_builtin(*case["driver"])
    xi = _terminal_from_spec(case["terminal"], dim)
    oracle_bundle = q.simulate_scenario(grid, dim, 0, 32, source=q.RandomSource(9000))
    oracle = q.nested_mc_oracle(oracle_bundle, driver, xi, branching=1000)
    reg_bundle = q.simulate_scenario(grid, dim, 0, 2**14, source=q.RandomSource(9100))
    y0, se, _ = q.y0_with_se(reg_bundle, driver, xi)
    return name, oracle.y0, oracle.meta["y0_se"], y0, se


def test_criterion_3_oracle_equivalence():
    t_start = time.perf_counter()
    with multiprocessing.get_context("fork").Pool(2) as pool:
        results = pool.map(_run_oracle_case, list(_ORACLE_CASES))
    elapsed = time.perf_counter() - t_start
    ok = elapsed < 120.0
    details = []
    for name, y0_o, se_o, y0_r, se_r in results:
        allowance = 3.0 * math.hypot(se_o, se_r) + 1e-6
        good = abs(y0_o - y0_r) <= allowance
        ok = ok and good
        details.append(f"{name}: |{y0_o:.4f}-{y0_r:.4f}|<= {allowance:.4f} {'ok' if good else 'BAD'}")
    _verdict(3, ok, "; ".join(details) + f"; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 4: a priori bound on all bundled experiments
# --------------------------------------------------------------------------


def test_criterion_4_apriori(catalogue):
    ok = True
    tight_worst = 0.0
    for name, report in catalogue.items():
        checks = _checks(report, "apriori")
        ok = ok and len(checks) >= 1 and all(c.passed for c in checks)
        if name.startswith("counterexample"):
            tight_worst = max(tight_worst, abs(checks[0].extra["raw_margin"]))
    ok = ok and tight_worst <= 1e-10
    gauss = _checks(catalogue["quadratic-gaussian"], "apriori")[0]
    x0_target = math.log(2 * norm.cdf(1.0) * math.exp(0.5))
    x0_gap = abs(gauss.extra["x0"] - x0_target)
    ok = ok and x0_gap <= 3.0 * gauss.extra["x0_se"] + 1e-12
    _verdict(4, ok, f"all bundled pass; counterexample tightness {tight_worst:.1e}; "
                    f"X0 gap {x0_gap:.1e}")


# --------------------------------------------------------------------------
# criterion 5: norm bound with explicit Doob constant
# --------------------------------------------------------------------------


def test_criterion_5_norm_bounds(catalogue):
    ok = True
    for name, report in catalogue.items():
        for p in (2, 4):
            checks = [c for c in report.checks if c.name == f"norm_bound_y_p{p}"]
            ok = ok and len(checks) >= 1 and all(c.passed for c in checks)
    ce = [c for c in catalogue["counterexample-n2"].checks if c.name == "norm_bound_y_p2"][0]
    closed = abs(ce.extra["lhs"] - E2) <= 1e-9 and abs(ce.extra["rhs"] - 4 * E2) <= 1e-9
    ok = ok and closed
    _verdict(5, ok, f"all bundled pass for p in (2, 4); counterexample closed form "
                    f"lhs={ce.extra['lhs']:.6f} (e^2), rhs={ce.extra['rhs']:.6f} (4e^2)")


# --------------------------------------------------------------------------
# criterion 6: comparison theorem on the three ordered pairs
# --------------------------------------------------------------------------


def test_criterion_6_comparison(catalogue):
    bundle = q.simulate_scenario(q.build_grid(1.0, 32), 1, 0, 512, source=q.RandomSource(606))
    xi0 = q.terminal_constant(0.0, 1)
    xi1 = q.terminal_constant(1.0, 1)
    zero = q.make_builtin("zero")
    const = q.make_builtin("constant", {"value": 0.7})

    # each pair's upper problem is the pass, its lower one the comparison's reader
    pair1 = q.ComparisonCheck(bundle, zero, xi0, q.sample_ordering(bundle, zero, zero, xi0, xi1))
    q.solve_backward(bundle, zero, xi1, readers=[pair1])
    pair1 = pair1.report()

    pair2 = q.ComparisonCheck(bundle, zero, xi0, q.sample_ordering(bundle, zero, const, xi0, xi0))
    q.solve_backward(bundle, const, xi0, readers=[pair2])
    pair2 = pair2.report()
    # each Y0 of a pair is its own solve_backward's
    gap_err = abs((pair2.extra["y0_prime"] - pair2.extra["y0"]) - 0.7)

    pair3 = [c for c in catalogue["counterexample-n2"].checks if c.name == "comparison"][0]

    ok = (pair1.passed and pair1.margin == pytest.approx(-1.0, abs=1e-12)
          and pair2.passed and gap_err <= 1e-10
          and pair3.passed and not pair3.extra["vacuous"])
    _verdict(6, ok, f"terminal pair margin {pair1.margin:+.3f}; constant pair Y0 gap err {gap_err:.1e}; "
                    f"step-vs-zero margin {pair3.margin:+.1e}")


# --------------------------------------------------------------------------
# criterion 7: truncation ladder monotone and convergent
# --------------------------------------------------------------------------


def test_criterion_7_truncation_ladder(catalogue):
    report = catalogue["truncation-ladder"]
    check = [c for c in report.checks if c.name == "truncation_ladder"][0]
    y0s = check.extra["y0_by_level"]
    nondecreasing = all(y0s[i] <= y0s[i + 1] + 3.0 * report.y0_se for i in range(len(y0s) - 1))
    top_gap = check.extra["top_gap"]
    ok = (check.passed and nondecreasing
          and check.margin < 1e-3
          and top_gap <= 3.0 * math.sqrt(2.0) * max(report.y0_se, 1e-15))
    _verdict(7, ok, f"Y0 by level {['%.4f' % v for v in y0s]}, violation fraction "
                    f"{check.margin:.2e}, top gap {top_gap:.2e}")


# --------------------------------------------------------------------------
# criterion 8: stability, both directions
# --------------------------------------------------------------------------


def test_criterion_8_stability(catalogue):
    ok = True
    pos = _checks(catalogue["stability-ladder"], "stability")
    for check, n in zip(pos, (4, 8, 16, 32)):
        h = check.extra["hypothesis"]
        ok = ok and check.passed and abs(h - 1.0 / n) <= 1e-6
        for p in (1, 2):
            exp_sup = check.extra["metrics"][f"p{p}"]["exp_sup_p_mean"]
            ok = ok and (exp_sup - 1.0) <= p * (2.0 / n)
    neg = _checks(catalogue["stability-counterexample"], "stability")
    for check in neg:
        ok = ok and check.passed and abs(check.extra["hypothesis"] - 1.0) <= 1e-6
        for p in (1, 2):
            exp_sup = check.extra["metrics"][f"p{p}"]["exp_sup_p_mean"]
            ok = ok and abs(exp_sup - math.exp(p)) <= 1e-6
    _verdict(8, ok, f"scaled family: hypothesis = 1/n and exp-sup bound hold (n=4..32); "
                    f"step family: hypothesis = 1 and exp-sup = e^p to 1e-6 ({len(neg)} members)")


# --------------------------------------------------------------------------
# criterion 9: measure change and the Kazamaki statistic
# --------------------------------------------------------------------------


def test_criterion_9_measure_change(catalogue):
    report = catalogue["measure-change"]
    marts = _checks(report, "exp_martingale")
    kaz = [c for c in report.checks if c.name == "kazamaki"][0]
    ok = len(marts) == 4 and all(c.passed for c in marts) and all(c.n_paths == 100_000 for c in marts)
    ok = ok and kaz.passed and abs(kaz.extra["sup"] - math.exp(0.5)) <= 3.0 * kaz.se + 1e-12
    worst = max(abs(c.extra["mean"] - 1.0) for c in marts)
    _verdict(9, ok, f"worst |E[SE]-1| = {worst:.4f} over q in (-2,-1,1,2); "
                    f"Kazamaki sup {kaz.extra['sup']:.4f} vs e^0.5 = {math.exp(0.5):.4f}")


# --------------------------------------------------------------------------
# criterion 10: assumption validators
# --------------------------------------------------------------------------


def test_criterion_10_validators():
    b1 = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 1024, source=q.RandomSource(1010))
    b2 = q.simulate_scenario(q.build_grid(1.0, 16), 2, 0, 1024, source=q.RandomSource(1011))
    cases = [
        ("zero", {}, b1),
        ("constant", {"value": 0.7}, b1),
        ("step_family", {"n": 2}, b1),
        ("pure_quadratic", {"gamma": 1.0}, b1),
        ("power_utility", {"p": 0.5, "lam": 0.4,
                           "constraint": {"kind": "box", "lower": [-0.5], "upper": [0.5]}}, b1),
        ("entropic", {"lam_s": 0.5}, b2),
    ]
    ok = True
    for name, options, bundle in cases:
        report = q.validate_assumptions(q.make_builtin(name, options), bundle)
        violations = sum(c["violations"] for c in report.extra.values() if c["checked"])
        ok = ok and report.passed and violations == 0
    honest = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    lying = dataclasses.replace(honest, params=dataclasses.replace(honest.params, gamma=0.5))
    flagged = q.validate_assumptions(lying, b1)
    ok = ok and (not flagged.passed) and flagged.extra["growth"]["violations"] > 0
    _verdict(10, ok, f"6 builtin drivers clean at {q.analytics.ASSUMPTION_PROBES} probes; "
                     f"misdeclared gamma flagged with growth margin "
                     f"{flagged.extra['growth']['max_margin']:+.3f}")
