"""Config-driven experiments: parse, validate, run, report.

An experiment is one YAML file: a scenario block (grid, paths, seed, clock),
a driver block, a terminal block, a solver block and a list of checks.  Seeds
are mandatory; rerunning a config reproduces the report byte for byte apart
from the timing block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import numpy as np
import yaml

from . import analytics
from .drivers import (
    DriverSpec,
    SamplingPlan,
    TerminalCondition,
    exponential_moment_estimate,
    make_builtin,
    terminal_abs,
    terminal_affine,
    terminal_constant,
    validate_assumptions,
)
from .errors import ConfigValidationError
from .scenarios import ClockSpec, RandomSource, ScenarioBundle, build_grid, simulate_scenario
from .solver import SolutionField, SolverConfig, solve_backward, solve_ladder, y0_with_se

REPORT_SCHEMA_VERSION = 1

_CHECK_TYPES = (
    "anchor",
    "apriori",
    "norm_bounds",
    "comparison",
    "stability",
    "ladder",
    "exp_martingale",
    "kazamaki",
    "assumptions",
    "moments",
)

_DRIVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"type": "string"},
        "options": {"type": "object"},
        "declared": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma": {"type": "number"},
                "beta": {"type": "number"},
                "beta_bar": {"type": "number"},
                "beta_f": {"type": "number"},
                "c_A": {"type": "number"},
            },
        },
    },
}

_TERMINAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["constant", "affine", "abs"]},
        "options": {"type": "object"},
    },
}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "scenario", "driver", "terminal"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "required": ["T", "steps", "n_paths", "seed"],
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "steps": {"type": "integer", "minimum": 1},
                "dim_m": {"type": "integer", "minimum": 1},
                "dim_orth": {"type": "integer", "minimum": 0},
                "n_paths": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "stream": {"type": "integer", "minimum": 0},
                "mandatory_nodes": {"type": "array", "items": {"type": "number"}},
                "clock": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["identity", "scaled", "piecewise"]},
                        "rate": {"type": "number"},
                        "times": {"type": "array", "items": {"type": "number"}},
                        "values": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "driver": _DRIVER_SCHEMA,
        "terminal": _TERMINAL_SCHEMA,
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "basis_kind": {"enum": ["poly", "binned"]},
                "bins": {"type": "integer", "minimum": 1},
                "picard_tol": {"type": "number", "exclusiveMinimum": 0},
                "picard_max": {"type": "integer", "minimum": 1},
                "implicit": {"type": "boolean"},
                "terminal_feature": {"type": "boolean"},
                "se_batches": {"type": "integer", "minimum": 1},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type"],
                "properties": {"type": {"enum": list(_CHECK_TYPES)}},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"export_paths": {"type": "integer", "minimum": 0}},
        },
    },
}

_SCENARIO_DEFAULTS = {"dim_m": 1, "dim_orth": 0, "stream": 0, "mandatory_nodes": [], "clock": {"kind": "identity"}}
_SOLVER_DEFAULTS = {**dataclasses.asdict(SolverConfig()), "se_batches": 8}
_OUTPUT_DEFAULTS = {"export_paths": 100}


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized experiment description (defaults applied)."""

    name: str
    description: str
    scenario: dict
    driver: dict
    terminal: dict
    solver: dict
    checks: list
    output: dict

    def canonical(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.canonical()).encode()).hexdigest()[:16]


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, floats at 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def build_driver(block: dict) -> DriverSpec:
    driver = make_builtin(block["name"], block.get("options", {}))
    declared = block.get("declared") or {}
    if declared:
        driver = driver.with_declared(**declared)
    return driver


def build_terminal(block: dict, dim_state: int) -> TerminalCondition:
    kind = block["kind"]
    options = block.get("options", {})
    if kind == "constant":
        return terminal_constant(float(options.get("value", 0.0)), dim_state)
    slope = np.asarray(options.get("slope", [0.0] * dim_state), dtype=float)
    if slope.size != dim_state:
        raise ValueError(f"terminal slope has {slope.size} entries, state has {dim_state}")
    intercept = float(options.get("intercept", 0.0))
    return terminal_affine(intercept, slope) if kind == "affine" else terminal_abs(intercept, slope)


def build_grid_for(config: ExperimentConfig):
    sc = config.scenario
    mandatory = list(sc["mandatory_nodes"])
    if config.driver["name"] == "step_family":
        n = config.driver.get("options", {}).get("n")
        if n:
            mandatory.append(1.0 / float(n))
    return build_grid(sc["T"], sc["steps"], mandatory)


def build_clock(scenario: dict) -> ClockSpec:
    c = scenario["clock"]
    return ClockSpec(
        kind=c.get("kind", "identity"),
        rate=c.get("rate", 1.0),
        times=tuple(c.get("times", ())),
        values=tuple(c.get("values", ())),
    )


def build_bundle(config: ExperimentConfig) -> ScenarioBundle:
    sc = config.scenario
    return simulate_scenario(
        grid=build_grid_for(config),
        dim_m=sc["dim_m"],
        dim_orth=sc["dim_orth"],
        n_paths=sc["n_paths"],
        clock=build_clock(sc),
        source=RandomSource(seed=sc["seed"], stream=sc["stream"]),
    )


def solver_config(config: ExperimentConfig) -> SolverConfig:
    return SolverConfig(**{k: v for k, v in config.solver.items() if k != "se_batches"})


def validate_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config.

    Collects every violation with the path to the offending key; parse errors
    carry the YAML line reference.
    """
    errors: list[tuple[str, str]] = []
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "?"
        raise ConfigValidationError([(where, str(exc.problem or exc))]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError([("<root>", "config must be a mapping")])

    validator = jsonschema.Draft202012Validator(_SCHEMA)
    for err in sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append((path, err.message))
    if errors:
        raise ConfigValidationError(errors)

    scenario = {**_SCENARIO_DEFAULTS, **raw["scenario"]}
    scenario["clock"] = {**_SCENARIO_DEFAULTS["clock"], **raw["scenario"].get("clock", {})}
    config = ExperimentConfig(
        name=raw["name"],
        description=raw.get("description", ""),
        scenario=scenario,
        driver=dict(raw["driver"]),
        terminal=dict(raw["terminal"]),
        solver={**_SOLVER_DEFAULTS, **raw.get("solver", {})},
        checks=[dict(c) for c in raw.get("checks", [])],
        output={**_OUTPUT_DEFAULTS, **raw.get("output", {})},
    )

    # semantic constraints beyond the schema
    try:
        driver = build_driver(config.driver)
    except Exception as exc:
        raise ConfigValidationError([("driver", str(exc))]) from exc
    if driver.dim_m is not None and driver.dim_m != scenario["dim_m"]:
        errors.append(("scenario.dim_m", f"driver {driver.name!r} needs dim_m={driver.dim_m}"))
    try:
        build_terminal(config.terminal, scenario["dim_m"] + scenario["dim_orth"])
    except Exception as exc:
        errors.append(("terminal", str(exc)))
    try:
        grid, clock = build_grid_for(config), build_clock(scenario)
    except Exception as exc:
        errors.append(("scenario", str(exc)))
        grid = None
    if grid is not None:
        d_a = np.diff(clock.at(grid.nodes))
        bb = driver.params.beta_bar * float(np.max(d_a))
        if bb >= 0.5:
            errors.append(
                ("driver.declared.beta_bar",
                 f"contraction constraint violated: beta_bar * max dA = {bb:.3g} >= 0.5")
            )
    for k, check in enumerate(config.checks):
        errors.extend((f"checks.{k}.{path}", msg) for path, msg in _check_block_errors(check))
    if errors:
        raise ConfigValidationError(errors)
    return config


def _check_block_errors(check: dict) -> list[tuple[str, str]]:
    errs = []
    t = check.get("type")
    needs = {
        "anchor": ["y0"],
        "comparison": ["other"],
        "stability": ["members", "p"],
        "ladder": ["levels"],
        "exp_martingale": ["q"],
        "kazamaki": ["eta", "q_tilde"],
        "norm_bounds": ["p"],
        "moments": ["p"],
    }
    for key in needs.get(t, []):
        if key not in check:
            errs.append((key, f"check {t!r} requires key {key!r}"))
    if t == "stability":
        for j, member in enumerate(check.get("members", [])):
            if "driver" not in member:
                errs.append((f"members.{j}.driver", "stability member needs a driver block"))
            if not member.get("converges", False) and "expected_sup" not in member:
                errs.append((f"members.{j}.expected_sup", "non-converging member needs expected_sup"))
    return errs


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config from a file path or the bundled catalogue by name."""
    if os.path.exists(path_or_name):
        with open(path_or_name) as fh:
            return validate_config(fh.read())
    bundled = {c.name: c for c in bundled_configs()}
    if path_or_name in bundled:
        return bundled[path_or_name]
    raise FileNotFoundError(f"no config file or bundled experiment named {path_or_name!r}")


def bundled_configs() -> list[ExperimentConfig]:
    configs = []
    root = resources.files("qbsde").joinpath("configs")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            configs.append(validate_config(entry.read_text()))
    return configs


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    config_hash: str
    y0: float
    y0_se: float
    checks: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "report_schema": REPORT_SCHEMA_VERSION,
            "name": self.name,
            "config_hash": self.config_hash,
            "y0": self.y0,
            "y0_se": self.y0_se,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
            "versions": self.versions,
        }
        if include_timing:
            out["timing"] = self.timing
        return out


@dataclass
class _RunContext:
    config: ExperimentConfig
    bundle: ScenarioBundle
    driver: DriverSpec
    xi: TerminalCondition
    solver_cfg: SolverConfig
    field: SolutionField
    y0: float
    y0_se: float


def _member_problem(ctx: _RunContext, block: dict):
    driver = build_driver(block["driver"]) if "driver" in block else ctx.driver
    if "terminal" in block:
        xi = build_terminal(block["terminal"], ctx.bundle.dim_m + ctx.bundle.dim_orth)
    else:
        xi = ctx.xi
    return driver, xi


def _run_anchor(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    expected = float(check["y0"])
    tol = float(check.get("tol", 0.01))
    gap = abs(ctx.y0 - expected)
    # the 3-SE clause with a floating-point floor, so deterministic problems
    # (batch spread at machine precision) are judged on tol alone
    ok = gap <= tol and gap <= 3.0 * ctx.y0_se + 1e-12
    extra = {"expected_y0": expected, "y0": ctx.y0, "y0_se": ctx.y0_se}
    z_blocks = (("z_mean", ctx.field.z, "z_gap"), ("z_orth_mean", ctx.field.z_orth, "z_orth_gap"))
    for key, integrand, gap_key in z_blocks:
        if key in check:
            z_tol = float(check.get("z_tol", 0.05))
            target = np.asarray(check[key], dtype=float)
            z_gap = float(np.max(np.abs(np.mean(integrand, axis=0) - target[None, :])))
            ok = ok and z_gap <= z_tol
            extra[gap_key] = z_gap
            extra["z_tol"] = z_tol
    return [
        analytics.CheckReport(
            name="anchor", passed=ok, margin=gap, tol=tol, n_paths=ctx.bundle.n_paths, se=ctx.y0_se, extra=extra
        )
    ]


def _run_apriori(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    mode = check.get("mode", "regression")
    bound = analytics.apriori_bound(ctx.bundle, ctx.xi, ctx.driver.params, basis=ctx.solver_cfg.basis, mode=mode)
    tol = float(check.get("tol", 1e-6))
    report = analytics.check_apriori(ctx.field, bound, tol)
    passed = report.passed
    extra = dict(report.extra)
    if "tight" in check:
        tight = float(check["tight"])
        extra["tight"] = tight
        passed = passed and abs(report.extra["raw_margin"]) <= tight
    if "x0" in check:
        x0_gap = abs(bound.x0 - float(check["x0"]))
        extra["expected_x0"] = float(check["x0"])
        extra["x0_gap"] = x0_gap
        passed = passed and x0_gap <= 3.0 * bound.x0_se + max(float(check.get("x0_tol", 0.0)), 1e-12)
    return [dataclasses.replace(report, passed=passed, extra=extra)]


def _run_norm_bounds(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    out = []
    for p in check["p"]:
        c1, c2 = analytics.norm_bound_checks(ctx.bundle, ctx.field, ctx.xi, ctx.driver.params, float(p))
        out.extend([c1, c2])
    return out


def _run_comparison(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    other_driver, other_xi = _member_problem(ctx, check["other"])
    other_field = solve_backward(ctx.bundle, other_driver, other_xi, ctx.solver_cfg)
    below = check.get("direction", "other_below") == "other_below"
    if below:
        lo_field, hi_field = other_field, ctx.field
        lo_driver, hi_driver, lo_xi, hi_xi = other_driver, ctx.driver, other_xi, ctx.xi
    else:
        lo_field, hi_field = ctx.field, other_field
        lo_driver, hi_driver, lo_xi, hi_xi = ctx.driver, other_driver, ctx.xi, other_xi
    evidence = analytics.sample_ordering(ctx.bundle, lo_driver, hi_driver, lo_xi, hi_xi)
    report = analytics.comparison_check(lo_field, hi_field, evidence, tol=float(check.get("tol", 1e-9)))
    passed = report.passed
    extra = dict(report.extra)
    if "expected_y0_gap" in check:
        gap = hi_field.y0 - lo_field.y0
        gerr = abs(gap - float(check["expected_y0_gap"]))
        extra["y0_gap"] = gap
        extra["y0_gap_error"] = gerr
        passed = passed and gerr <= float(check.get("gap_tol", 1e-10))
    return [dataclasses.replace(report, passed=passed, extra=extra)]


def _run_stability(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    orders = [float(p) for p in check["p"]]
    out = []
    for j, member in enumerate(check["members"]):
        m_driver, m_xi = _member_problem(ctx, member)
        m_field = solve_backward(ctx.bundle, m_driver, m_xi, ctx.solver_cfg)
        metrics = {p: analytics.stability_metrics(ctx.bundle, m_field, ctx.field, m_driver, ctx.driver, m_xi, ctx.xi, p) for p in orders}
        first = metrics[orders[0]]
        passed = True
        margin = 0.0
        extra = {"member": member.get("label", f"member{j}"), "hypothesis": first.hypothesis_mean,
                 "hypothesis_se": first.hypothesis_se, "sup_gap_max": first.sup_gap_max,
                 "metrics": {f"p{p:g}": metrics[p].to_dict() for p in orders}}
        if "expected_hypothesis" in member:
            h_tol = float(member.get("hyp_tol", 1e-6))
            h_gap = abs(first.hypothesis_mean - float(member["expected_hypothesis"]))
            passed = passed and h_gap <= h_tol + 3.0 * first.hypothesis_se
            margin = max(margin, h_gap - h_tol)
            extra["hypothesis_gap"] = h_gap
        if member.get("converges", False):
            for p in orders:
                m = metrics[p]
                excess = m.exp_sup_p_mean - 1.0 - 2.0 * p * max(first.hypothesis_mean, 0.0)
                passed = passed and excess <= 3.0 * m.exp_sup_p_se
                margin = max(margin, excess)
                extra[f"exp_sup_excess_p{p:g}"] = excess
        else:
            sup_tol = float(member.get("sup_tol", 1e-6))
            expected_sup = float(member["expected_sup"])
            for p in orders:
                m = metrics[p]
                gap = abs(m.exp_sup_p_mean - math.exp(p * expected_sup))
                passed = passed and gap <= sup_tol + 3.0 * m.exp_sup_p_se
                margin = max(margin, gap - sup_tol)
                extra[f"exp_sup_gap_p{p:g}"] = gap
        out.append(
            analytics.CheckReport(
                name=f"stability_{extra['member']}", passed=passed, margin=margin,
                tol=float(member.get("hyp_tol", 1e-6)), n_paths=ctx.bundle.n_paths,
                se=first.hypothesis_se, extra=extra,
            )
        )
    return out


def _run_ladder(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    levels = [float(v) for v in check["levels"]]
    ladder = solve_ladder(ctx.bundle, ctx.driver, ctx.xi, levels, ctx.solver_cfg)
    mono = ladder.monotonicity_report(tol=3.0 * ctx.y0_se)
    frac_tol = float(check.get("fraction_tol", 1e-3))
    top_gap = abs(ladder.fields[-1].y0 - ctx.y0)
    top_ok = top_gap <= 3.0 * max(ctx.y0_se, 1e-15) * math.sqrt(2.0)
    passed = mono["violation_fraction"] < frac_tol and top_ok
    return [
        analytics.CheckReport(
            name="truncation_ladder",
            passed=passed,
            margin=mono["violation_fraction"],
            tol=frac_tol,
            n_paths=ctx.bundle.n_paths,
            se=ctx.y0_se,
            extra={
                "levels": levels,
                "y0_by_level": [f.y0 for f in ladder.fields],
                "alpha_l1_by_level": list(ladder.alpha_l1),
                "worst_gap": mono["worst_gap"],
                "untruncated_y0": ctx.y0,
                "top_gap": top_gap,
            },
        )
    ]


def _run_exp_martingale(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [analytics.exp_martingale_check(ctx.bundle, ctx.field, float(q)) for q in check["q"]]


def _run_kazamaki(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    report = analytics.kazamaki_statistic(ctx.bundle, ctx.field, float(check["eta"]), float(check["q_tilde"]))
    passed = report.finite
    margin = 0.0
    extra = {"sup": report.sup, "sup_node": report.sup_node, "eta": report.eta, "q_tilde": report.q_tilde}
    if "expected_sup" in check:
        margin = abs(report.sup - float(check["expected_sup"]))
        passed = passed and margin <= 3.0 * report.sup_se
        extra["expected_sup"] = float(check["expected_sup"])
    return [
        analytics.CheckReport(
            name="kazamaki", passed=passed, margin=margin, tol=0.0,
            n_paths=ctx.bundle.n_paths, se=report.sup_se, extra=extra,
        )
    ]


def _run_assumptions(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    plan = SamplingPlan(n_probes=int(check.get("probes", 10_000)), seed=int(check.get("seed", 0)))
    report = validate_assumptions(ctx.driver, ctx.bundle, plan)
    checked = [c for c in report.clauses if c.checked]
    worst = max((c.max_margin for c in checked), default=float("-inf"))
    return [
        analytics.CheckReport(
            name="assumptions",
            passed=report.passed,
            margin=worst,
            tol=plan.tol,
            n_paths=plan.n_probes,
            se=0.0,
            extra={c.name: {"checked": c.checked, "max_margin": c.max_margin, "violations": c.violations} for c in report.clauses},
        )
    ]


def _run_moments(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    out = []
    expected = check.get("expected")
    for k, p in enumerate(check["p"]):
        rep = exponential_moment_estimate(ctx.xi, ctx.driver.params, ctx.bundle, float(p))
        passed = rep.finite
        margin = 0.0
        extra = {"estimate": rep.estimate, "p": float(p), "finite": rep.finite}
        if expected is not None:
            margin = abs(rep.estimate - float(expected[k]))
            passed = passed and margin <= 1e-9 + 3.0 * rep.se
            extra["expected"] = float(expected[k])
        out.append(
            analytics.CheckReport(
                name=f"moments_p{p:g}", passed=passed, margin=margin, tol=0.0,
                n_paths=rep.n_paths, se=rep.se, extra=extra,
            )
        )
    return out


_CHECK_RUNNERS = {
    "anchor": _run_anchor,
    "apriori": _run_apriori,
    "norm_bounds": _run_norm_bounds,
    "comparison": _run_comparison,
    "stability": _run_stability,
    "ladder": _run_ladder,
    "exp_martingale": _run_exp_martingale,
    "kazamaki": _run_kazamaki,
    "assumptions": _run_assumptions,
    "moments": _run_moments,
}


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    n_paths: int | None = None,
    seed: int | None = None,
) -> ExperimentReport:
    """Run one experiment: simulate, solve, execute every requested check.

    ``n_paths``/``seed`` override the scenario block (for CLI sweeps)."""
    t_start = time.perf_counter()
    if n_paths is not None or seed is not None:
        scenario = dict(config.scenario)
        if n_paths is not None:
            scenario["n_paths"] = int(n_paths)
        if seed is not None:
            scenario["seed"] = int(seed)
        config = dataclasses.replace(config, scenario=scenario)

    bundle = build_bundle(config)
    driver = build_driver(config.driver)
    xi = build_terminal(config.terminal, bundle.dim_m + bundle.dim_orth)
    cfg = solver_config(config)
    field_ = solve_backward(bundle, driver, xi, cfg)
    y0, y0_se, _ = y0_with_se(bundle, driver, xi, cfg, n_batches=config.solver["se_batches"])
    ctx = _RunContext(config=config, bundle=bundle, driver=driver, xi=xi, solver_cfg=cfg,
                      field=field_, y0=y0, y0_se=y0_se)

    checks: list[analytics.CheckReport] = []
    for check in config.checks:
        checks.extend(_CHECK_RUNNERS[check["type"]](ctx, check))

    report = ExperimentReport(
        name=config.name,
        config_hash=config.config_hash(),
        y0=y0,
        y0_se=y0_se,
        checks=checks,
        timing={"wall_clock_s": time.perf_counter() - t_start},
        versions={
            "qbsde": _package_version(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{config.name}.report.json"), "w") as fh:
            fh.write(canonical_json(report.to_dict()))
        with open(os.path.join(out_dir, f"{config.name}.checks.json"), "w") as fh:
            fh.write(canonical_json([c.to_dict() for c in checks]))
        field_.to_csv(
            os.path.join(out_dir, f"{config.name}.solution.csv"),
            grid_nodes=bundle.grid.nodes,
            max_paths=config.output["export_paths"],
        )
    return report


def _package_version() -> str:
    from . import __version__

    return __version__
