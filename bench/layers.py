"""Where the spans go: the public qbsde callables each layer metric times.

Every patch replaces the name the program calls: functions are replaced in
the module that imported them (``experiments.solve_backward`` and
``solver.solve_backward`` are separate bindings of one function), methods on
their class.  ``per_layer_metrics`` turns a finished ``Tracer`` into the
figures named in BENCHMARK.json's ``per_layer`` list.
"""

from __future__ import annotations

import numpy as np
from qbsde import analytics, drivers, experiments, regression, scenarios, solver

# dense designs are float64
_FLOAT_BYTES = 8


def _path_bytes(t, args, bundle):
    t.peak("scenarios.path_bytes", bundle.m_paths.nbytes + bundle.orth_paths.nbytes)


def _built(t, args, reg):
    t.count("regression.rank_deficient", int(reg.rank < reg.n_features))
    if isinstance(reg, regression.NodeRegression):
        t.peak("regression.design_bytes", reg.n_samples * reg.n_features * _FLOAT_BYTES)


def _fit_columns(t, args, fitted):
    t.count("regression.fit_columns", 1 if np.ndim(fitted) == 1 else np.shape(fitted)[1])


def _evaluate_rows(t, args, values):
    t.count("drivers.evaluate_rows", np.size(values))


def _path_steps(t, args, field):
    t.count("solver.path_steps", field.n_paths * field.n_steps)


def terminal_rows(t, args, values):
    """Measure for a wrapped terminal ``fn``: rows of states evaluated."""
    t.count("solver.oracle_leaves", np.shape(args[0])[0])


def install(t) -> None:
    """Patch every traced callable; ``t.uninstall()`` restores them."""
    t.patch(scenarios, "simulate_scenario", "scenarios.simulate", _path_bytes)
    t.patch(experiments, "simulate_scenario", "scenarios.simulate", _path_bytes)

    t.patch(solver, "make_regression", "regression.build", _built)
    t.patch(solver, "NodeRegression", "regression.build", _built)
    t.patch(analytics, "NodeRegression", "regression.build", _built)
    t.patch(regression.NodeRegression, "fit", "regression.fit", _fit_columns)
    t.patch(regression.BinnedRegression, "fit", "regression.fit", _fit_columns)

    t.patch(drivers.DriverSpec, "evaluate", "drivers.evaluate", _evaluate_rows)
    t.patch(experiments, "validate_assumptions", "drivers.assumptions")

    t.patch(solver, "solve_backward", "solver.backward", _path_steps)
    t.patch(experiments, "solve_backward", "solver.backward", _path_steps)
    t.patch(solver, "y0_with_se", "solver.y0_se")
    t.patch(experiments, "y0_with_se", "solver.y0_se")
    t.patch(experiments, "solve_ladder", "solver.ladder")
    t.patch(solver, "nested_mc_oracle", "solver.oracle")

    t.patch(analytics, "apriori_bound", "analytics.apriori")
    t.patch(analytics, "check_apriori", "analytics.apriori")
    t.patch(analytics, "norm_bound_checks", "analytics.norm_bounds")
    t.patch(analytics, "stability_metrics", "analytics.stability")
    t.patch(analytics, "sample_ordering", "analytics.comparison")
    t.patch(analytics, "comparison_check", "analytics.comparison")
    t.patch(analytics, "exp_martingale_check", "analytics.exp_martingale")
    t.patch(analytics, "stochastic_exponential_mean", "analytics.exp_martingale")
    t.patch(analytics, "kazamaki_statistic", "analytics.kazamaki")

    t.patch(experiments, "validate_config", "experiments.validate")
    # config hashing serializes through canonical_json too; only report
    # serialization and the CSV export count as writing
    t.patch(experiments.ExperimentConfig, "config_hash", "experiments.hash")
    t.patch(experiments, "canonical_json", "experiments.write", skip_under="experiments.hash")
    t.patch(solver.SolutionField, "to_csv", "experiments.write")


def per_layer_metrics(t, cpu_s: float, overhead_s: float) -> dict[str, float]:
    inc, self_time, calls = t.layer_times()
    c, peak = t.counts, t.maxima

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    return {
        "scenarios.simulate_s": inc["scenarios.simulate"],
        "scenarios.path_bytes": peak["scenarios.path_bytes"],
        "regression.build_s": inc["regression.build"],
        "regression.fit_s": inc["regression.fit"],
        "regression.builds": calls["regression.build"],
        "regression.fit_columns": c["regression.fit_columns"],
        "regression.rank_deficient": c["regression.rank_deficient"],
        "regression.design_bytes": peak["regression.design_bytes"],
        "drivers.evaluate_s": inc["drivers.evaluate"],
        "drivers.evaluate_rows": c["drivers.evaluate_rows"],
        "drivers.assumptions_s": inc["drivers.assumptions"],
        "solver.backward_s": self_time["solver.backward"],
        "solver.backward_calls": calls["solver.backward"],
        "solver.path_steps_per_s": rate(c["solver.path_steps"], inc["solver.backward"]),
        "solver.y0_se_s": inc["solver.y0_se"],
        "solver.ladder_s": inc["solver.ladder"],
        "solver.oracle_s": inc["solver.oracle"],
        "solver.oracle_leaves": c["solver.oracle_leaves"],
        "solver.oracle_leaves_per_s": rate(c["solver.oracle_leaves"], inc["solver.oracle"]),
        "solver.terminal_s": inc["solver.terminal"],
        "analytics.apriori_s": inc["analytics.apriori"],
        "analytics.norm_bounds_s": inc["analytics.norm_bounds"],
        "analytics.stability_s": inc["analytics.stability"],
        "analytics.comparison_s": inc["analytics.comparison"],
        "analytics.exp_martingale_s": inc["analytics.exp_martingale"],
        "analytics.kazamaki_s": inc["analytics.kazamaki"],
        "experiments.validate_s": inc["experiments.validate"],
        "experiments.write_s": inc["experiments.write"],
        "experiments.bytes_written": c["experiments.bytes_written"],
        "process.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(t.spans),
    }
