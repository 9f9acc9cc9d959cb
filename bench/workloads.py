"""The three workloads: one round each, with its correctness checks.

A round is a fixed list of operations.  Each operation either returns
``(ok, value)``, where ``ok`` is the verdict of its check against a closed
form or a method property, or raises; both a raise and a failed check count
as a failed operation.  Every input is pinned (see README.md): the checks
are 3-standard-error statements, so drawing fresh scenarios per run would
make some runs fail by chance.
"""

from __future__ import annotations

import dataclasses
import math
import os
import reprlib
import tempfile
import traceback

import numpy as np
from qbsde import analytics, experiments, scenarios, solver
from qbsde.drivers import make_builtin, terminal_affine

from layers import terminal_rows

# criterion-3 pure-quadratic case: xi = W_T on a 4-node grid, Y0 = 1/2
ORACLE_NODES = (0.0, 1 / 3, 2 / 3, 1.0)
ORACLE_PATHS, ORACLE_BRANCHING, ORACLE_SEED = 32, 1000, 9000
COMPARATOR_PATHS, COMPARATOR_SEED = 2**14, 9100

# xi = W_T + Wperp_T on 50 steps, Y0 = gamma |a|^2 T / 2 = 1, Z = Zperp = 1
SCALE_STEPS, SCALE_PATHS, SCALE_SEED = 50, 2**16, 9200


@dataclasses.dataclass
class Round:
    outcomes: list[tuple[str, str]] = dataclasses.field(default_factory=list)  # (op, ok|wrong|raised|skipped)
    errors: list[str] = dataclasses.field(default_factory=list)
    y0_se: float = float("nan")

    def attempt(self, op: str, tracer, fn):
        """Run one operation; return its value, or None if it raised."""
        try:
            ok, value = fn() if tracer is None else tracer.call(f"op.{op}", fn)
        except Exception:
            self.errors.append(f"{op} raised:\n{traceback.format_exc()}")
            self.outcomes.append((op, "raised"))
            return None
        if not ok:
            self.errors.append(f"{op} failed its check: {reprlib.repr(value)}")
        self.outcomes.append((op, "ok" if ok else "wrong"))
        return value

    def skip(self, op: str) -> None:
        self.outcomes.append((op, "skipped"))


def _within(value: float, target: float, se: float) -> bool:
    return bool(np.isfinite(value) and np.isfinite(se) and abs(value - target) <= 3.0 * se)


class Catalogue:
    """run_experiment on every bundled config, outputs to a temporary directory."""

    def __init__(self, configs, out_root: str):
        self.configs = sorted(configs, key=lambda c: c.name)
        self.out_root = out_root

    def round(self, tracer) -> Round:
        rnd = Round()
        ses = []
        with tempfile.TemporaryDirectory(dir=self.out_root, prefix="catalogue-") as out:
            for config in self.configs:

                def run(config=config):
                    report = experiments.run_experiment(config, out_dir=out)
                    files = [os.path.join(out, f"{config.name}.{kind}")
                             for kind in ("report.json", "checks.json", "solution.csv")]
                    sizes = [os.path.getsize(f) if os.path.exists(f) else 0 for f in files]
                    if tracer is not None:
                        tracer.count("experiments.bytes_written", sum(sizes))
                    # the anchors are closed-form Y0s held in the configs
                    anchored = not any(c["type"] == "anchor" for c in config.checks) or any(
                        c.name == "anchor" and c.passed for c in report.checks)
                    ok = (report.all_passed and anchored and len(report.checks) >= len(config.checks)
                          and min(sizes) > 0)
                    return ok, report.y0_se

                se = rnd.attempt(config.name, tracer, run)
                if se is not None:
                    ses.append(se)
        # pooled standard error of the reported Y0s
        rnd.y0_se = math.sqrt(sum(s * s for s in ses) / len(ses)) if ses else float("nan")
        return rnd


class Oracle:
    """nested_mc_oracle on the criterion-3 pure-quadratic case plus its regression comparator."""

    def __init__(self):
        self.driver = make_builtin("pure_quadratic", {"gamma": 1.0})
        self.xi = terminal_affine(0.0, [1.0])
        self.grid = scenarios.TimeGrid(np.asarray(ORACLE_NODES))

    def round(self, tracer) -> Round:
        rnd = Round()
        xi = self.xi
        if tracer is not None:
            xi = dataclasses.replace(xi, fn=tracer.wrap("solver.terminal", xi.fn, terminal_rows))

        def oracle():
            bundle = scenarios.simulate_scenario(self.grid, 1, 0, ORACLE_PATHS,
                                                 source=scenarios.RandomSource(ORACLE_SEED))
            field = solver.nested_mc_oracle(bundle, self.driver, xi, branching=ORACLE_BRANCHING)
            y0, se = field.y0, field.meta["y0_se"]
            return se > 0 and _within(y0, 0.5, se), (y0, se)

        def comparator(y0_o, se_o):
            bundle = scenarios.simulate_scenario(self.grid, 1, 0, COMPARATOR_PATHS,
                                                 source=scenarios.RandomSource(COMPARATOR_SEED))
            y0_r, se_r, _ = solver.y0_with_se(bundle, self.driver, self.xi)
            return _within(y0_r, y0_o, math.hypot(se_o, se_r)), (y0_r, se_r)

        result = rnd.attempt("oracle", tracer, oracle)
        if result is None:
            rnd.skip("comparator")
            return rnd
        rnd.y0_se = result[1]
        rnd.attempt("comparator", tracer, lambda: comparator(*result))
        return rnd


class SolverScale:
    """One large pure-quadratic solve with an orthogonal dimension, degree-3 poly + terminal feature."""

    def __init__(self):
        self.driver = make_builtin("pure_quadratic", {"gamma": 1.0})
        self.xi = terminal_affine(0.0, [1.0, 1.0])
        self.grid = scenarios.build_grid(1.0, SCALE_STEPS)
        self.config = solver.SolverConfig(degree=3, basis_kind="poly", terminal_feature=True)

    def round(self, tracer) -> Round:
        rnd = Round()

        def solve():
            bundle = scenarios.simulate_scenario(self.grid, 1, 1, SCALE_PATHS,
                                                 source=scenarios.RandomSource(SCALE_SEED))
            field = solver.solve_backward(bundle, self.driver, self.xi, self.config)
            z_bar, zo_bar = float(np.mean(field.z)), float(np.mean(field.z_orth))
            ok = abs(z_bar - 1.0) <= 0.05 and abs(zo_bar - 1.0) <= 0.05
            return ok, (bundle, field)

        def batched_y0():
            y0, se, _ = solver.y0_with_se(bundle, self.driver, self.xi, self.config)
            return _within(y0, 1.0, se), se

        def measure_change():
            est = analytics.stochastic_exponential_mean(bundle, field, 1.0)
            return est.n_overflow == 0 and _within(est.mean, 1.0, est.se), est.mean

        solved = rnd.attempt("solve", tracer, solve)
        if solved is None:
            rnd.skip("y0_with_se")
            rnd.skip("measure_change")
            return rnd
        bundle, field = solved
        se = rnd.attempt("y0_with_se", tracer, batched_y0)
        rnd.y0_se = float("nan") if se is None else se
        rnd.attempt("measure_change", tracer, measure_change)
        return rnd


def make(name: str, configs, out_root: str):
    if name == "catalogue":
        return Catalogue(configs, out_root)
    if name == "oracle":
        return Oracle()
    if name == "solver-scale":
        return SolverScale()
    raise ValueError(f"unknown workload {name!r}")
