"""Config-driven experiments: parse, validate, run, report.

An experiment is one YAML file with these blocks, and the schema accepts no
key that no bundled experiment sets:

* ``name`` and an optional ``description``;
* ``scenario``: ``T``, ``steps``, ``n_paths``, ``seed`` and the optional
  ``dim_m`` and ``dim_orth``.  The clock is A(t) = t;
* ``driver``: a builtin ``name`` and the ``options`` its builder reads;
* ``terminal``: ``kind`` (constant, affine or abs) and the ``options`` it reads;
* ``solver``: ``basis_kind`` and the ``degree`` or ``bins`` it reads;
* ``checks``: a list of check blocks, each a ``type`` and the keys its
  runner reads (the ``_CHECKS`` table).  A runner only maps the block's keys
  to the arguments of an ``analytics`` check, which returns the report.  An
  ``apriori``, ``comparison``, ``stability`` or ``ladder`` block's readers
  (``_READERS``) are built before the solve, the one backward pass, which
  feeds them, and its runner reads their reports.  The slack of each
  verdict is fixed there, not a key: 1e-6 for the a priori bound and
  stability, 1e-9 for comparison, a 1e-3 violation fraction for the ladder,
  0.05 for the anchor's mean Z, and 10,000 assumption probes.

Seeds are mandatory; rerunning a config reproduces the report byte for byte
apart from the timing block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import numpy as np
import yaml

from . import __version__, analytics
from .analytics import validate_assumptions
from .drivers import DriverSpec, TerminalCondition, make_builtin, terminal_abs, terminal_affine, terminal_constant
from .errors import ConfigValidationError
from .scenarios import RandomSource, ScenarioBundle, build_grid, simulate_scenario
from .solver import SolutionField, SolverConfig, TruncationLadder, solve_backward, y0_with_se
# unused here but stays bound: the benchmark's tracing patches experiments.solve_ladder
from .solver import solve_ladder  # noqa: F401

REPORT_SCHEMA_VERSION = 1


# builtin driver name / terminal kind -> the option keys its builder reads
_DRIVER_OPTIONS = {"zero": [], "constant": ["value"], "step_family": ["n"], "pure_quadratic": ["gamma"],
                   "power_utility": ["p", "lam", "constraint"], "entropic": ["lam_s"]}
_TERMINAL_OPTIONS = {"constant": ["value"], "affine": ["intercept", "slope"], "abs": ["intercept", "slope"]}


def _when(key: str, table: dict) -> list[dict]:
    """``allOf`` items: a block whose ``key`` is k has the schema ``table[k]``.
    "required" in each "if": a block without ``key`` would match every "then"."""
    return [{"if": {"required": [key], "properties": {key: {"const": k}}}, "then": then} for k, then in table.items()]


def _options(keys: list[str]) -> dict:
    """A block whose ``options`` hold only ``keys``."""
    return {"properties": {"options": {"additionalProperties": False, "properties": dict.fromkeys(keys, True)}}}


_DRIVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"type": "string"},
        "options": {"type": "object"},
    },
    "allOf": _when("name", {name: _options(keys) for name, keys in _DRIVER_OPTIONS.items()}),
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
            },
        },
        "driver": _DRIVER_SCHEMA,
        "terminal": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": list(_TERMINAL_OPTIONS)},
                "options": {"type": "object"},
            },
            "allOf": _when("kind", {kind: _options(keys) for kind, keys in _TERMINAL_OPTIONS.items()}),
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 0},
                "basis_kind": {"enum": ["poly", "binned"]},
                "bins": {"type": "integer", "minimum": 1},
            },
        },
        # items: one schema per check type, built from the _CHECKS table below
        "checks": {"type": "array"},
    },
}

_SCENARIO_DEFAULTS = {"dim_m": 1, "dim_orth": 0}
_SOLVER_DEFAULTS = {key: getattr(SolverConfig(), key) for key in _SCHEMA["properties"]["solver"]["properties"]}


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

    def canonical(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """Hash of every field at full precision: ``canonical_json`` rounds floats."""
        return hashlib.sha256(json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()[:16]


def _round_floats(obj):
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity: a value that is not finite is null
        return float(f"{float(obj):.12g}") if np.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Strict, stable JSON: sorted keys, floats at 12 significant digits, a
    NaN or infinity as null."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def build_driver(block: dict) -> DriverSpec:
    return make_builtin(block["name"], block.get("options", {}))


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


def _driver_blocks(config: ExperimentConfig) -> list[tuple[str, dict]]:
    """(path, block) of every driver the config names: the top-level one
    first, then the comparison's ``other`` and each stability member."""
    blocks = [("driver", config.driver)]
    for k, check in enumerate(config.checks):
        if "other" in check:
            blocks.append((f"checks.{k}.other.driver", check["other"]["driver"]))
        blocks += [(f"checks.{k}.members.{j}.driver", m["driver"]) for j, m in enumerate(check.get("members", []))]
    return blocks


def build_grid_for(config: ExperimentConfig):
    """The scenario grid, with the kink 1/n of every ``step_family`` driver
    the config names as a node, so the left-endpoint rule integrates each
    exactly.  A kink at or past T is no kink on [0, T]."""
    sc = config.scenario
    kinks = []
    for _, block in _driver_blocks(config):
        n = block.get("options", {}).get("n") if block["name"] == "step_family" else None
        if n and 1.0 / float(n) < sc["T"]:
            kinks.append(1.0 / float(n))
    return build_grid(sc["T"], sc["steps"], kinks)


def build_bundle(config: ExperimentConfig) -> ScenarioBundle:
    sc = config.scenario
    return simulate_scenario(
        grid=build_grid_for(config),
        dim_m=sc["dim_m"],
        dim_orth=sc["dim_orth"],
        n_paths=sc["n_paths"],
        source=RandomSource(seed=sc["seed"]),
    )


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader with YAML 1.2's float rule for exponents: 1e-2,
    -2E+1 and 1.e2 are numbers, as in JSON, where YAML 1.1 reads them as
    strings.  The rule runs after the int rule, so 7 stays an int."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                              re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                              list("-+.0123456789"))


def validate_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a YAML experiment config.

    One schema checks every block, nested ones included (a stability
    ``members[j]`` and the comparison's ``other``, each with its own driver
    block): key names, types (an integer is never 1.0) and the domain of
    each value.  A key that no runner reads (``scenario`` reads ``T``,
    ``steps``, ``n_paths``, ``seed``, ``dim_m`` and ``dim_orth``; ``solver``
    reads ``basis_kind``, ``degree`` and ``bins``) is an error at its path;
    no key sets a check's fixed slack: 1e-6 (a priori bound, stability), 1e-9
    (comparison), 1e-3 (ladder violation fraction), 0.05 (anchor mean Z) and
    10,000 probes.  Then what the schema cannot see: the terminal and every
    driver must build on the scenario's dimensions, vectors must match the
    state or the orders they go with, ladder levels must be strictly
    increasing (the ladder compares them in list order), a binned basis needs
    a one-dimensional state, and an ``apriori`` check needs gamma >= 1.
    Every violation is collected with the path to the offending key; parse
    errors carry the YAML line reference.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "?"
        raise ConfigValidationError([(where, str(exc.problem or exc))]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError([("<root>", "config must be a mapping")])
    errors = _schema_errors(raw)
    if errors:
        raise ConfigValidationError(errors)

    scenario = {**_SCENARIO_DEFAULTS, **raw["scenario"]}
    config = ExperimentConfig(
        name=raw["name"],
        description=raw.get("description", ""),
        scenario=scenario,
        driver=dict(raw["driver"]),
        terminal=dict(raw["terminal"]),
        solver={**_SOLVER_DEFAULTS, **raw.get("solver", {})},
        checks=[dict(c) for c in raw.get("checks", [])],
    )

    # semantic constraints beyond the schema
    dim_state = scenario["dim_m"] + scenario["dim_orth"]
    try:
        build_terminal(config.terminal, dim_state)
    except Exception as exc:
        errors.append(("terminal", str(exc)))
    driver = _checked_driver("driver", config.driver, scenario["dim_m"], errors)
    for where, block in _driver_blocks(config)[1:]:
        _checked_driver(where, block, scenario["dim_m"], errors)
    for k, check in enumerate(config.checks):
        if check["type"] == "apriori" and driver is not None and driver.params.gamma < 1:
            errors.append((f"checks.{k}", f"the a priori bound needs gamma >= 1, "
                                          f"driver {driver.name!r} has gamma = {driver.params.gamma:g}"))
        # vectors read against the state or against another key
        for key, size in (("z_mean", scenario["dim_m"]), ("z_orth_mean", scenario["dim_orth"]),
                          ("expected", len(check.get("p", ())))):
            if key in check and len(check[key]) != size:
                errors.append((f"checks.{k}.{key}", f"has {len(check[key])} entries, needs {size}"))
        levels = check.get("levels", [])
        if any(b <= a for a, b in zip(levels, levels[1:])):
            errors.append((f"checks.{k}.levels", f"must be strictly increasing, got {levels}"))
    if config.solver["basis_kind"] == "binned" and dim_state > 1:
        errors.append(("solver.basis_kind", f"a binned basis needs a one-dimensional state, not {dim_state}"))
    if errors:
        raise ConfigValidationError(sorted(errors))
    return config


def _schema_errors(raw: dict) -> list[tuple[str, str]]:
    """Schema violations, each missing or unread key at its own path."""
    errors = set()
    for err in _VALIDATOR.iter_errors(raw):
        path = [str(p) for p in err.absolute_path]
        if err.validator == "required":
            missing = [k for k in err.validator_value if k not in err.instance]
            errors.update((".".join([*path, k]), f"missing required key {k!r}") for k in missing)
        elif err.validator == "additionalProperties":
            unread = [k for k in err.instance if k not in err.schema.get("properties", {})]
            errors.update((".".join([*path, k]), f"key {k!r} is not read here") for k in unread)
        else:
            errors.add((".".join(path) or "<root>", err.message))
    return sorted(errors)


def _checked_driver(where: str, block: dict, dim_m: int, errors: list) -> DriverSpec | None:
    """The driver a block names, or None if it does not build.  What fails
    is appended to ``errors`` at ``where``, the block's path; the top-level
    driver's dimension mismatch is reported at ``scenario.dim_m``."""
    try:
        driver = build_driver(block)
    except Exception as exc:
        errors.append((where, str(exc)))
        return None
    if driver.dim_m is not None and driver.dim_m != dim_m:
        errors.append((where if where != "driver" else "scenario.dim_m",
                       f"driver {driver.name!r} needs dim_m={driver.dim_m}, scenario has {dim_m}"))
    return driver


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config from a file path or the bundled catalogue by name."""
    if os.path.exists(path_or_name):
        with open(path_or_name, encoding="utf-8") as fh:
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


def _keys(block: dict, *skip: str) -> dict:
    """A block's keys but ``type`` and ``skip``, as the keyword arguments of
    the check function they are named after."""
    return {k: v for k, v in block.items() if k != "type" and k not in skip}


@dataclass
class _RunContext:
    bundle: ScenarioBundle
    driver: DriverSpec
    xi: TerminalCondition
    solver_cfg: SolverConfig
    y0: float
    y0_se: float
    # set by the solve: its field, and the readers of each block read off it, in block order
    field: SolutionField | None = None
    readers: Iterator[list] | None = None


def _run_anchor(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [analytics.anchor_check(ctx.field, ctx.y0, ctx.y0_se, **_keys(check))]


def _run_reports(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [reader.report() for reader in next(ctx.readers)]


def _run_norm_bounds(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return analytics.norm_bound_checks(ctx.bundle, ctx.field, ctx.xi, ctx.driver.params, check["p"])


def _run_stability(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [analytics.stability_check(metrics.report(), member.get("label", f"member{j}"),
                                      **_keys(member, "driver", "label"))
            for j, (member, metrics) in enumerate(zip(check["members"], next(ctx.readers)))]


def _run_ladder(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    [ladder] = next(ctx.readers)
    return [analytics.ladder_check(ladder.report(), ctx.y0, ctx.y0_se, ctx.bundle.n_paths)]


def _read_comparison(ctx: _RunContext, check: dict) -> list:
    # the other problem, the same terminal under the other driver, is the lower one
    lo_driver = build_driver(check["other"]["driver"])
    gaps = analytics.sample_ordering(ctx.bundle, lo_driver, ctx.driver, ctx.xi, ctx.xi)
    return [analytics.ComparisonCheck(ctx.bundle, lo_driver, ctx.xi, gaps)]


# check type -> the readers of its block, handed to the solve with the problems they name
_READERS = {
    "apriori": lambda ctx, check: [analytics.check_apriori(ctx.bundle, ctx.xi, ctx.driver.params, ctx.solver_cfg,
                                                           **_keys(check))],
    "comparison": _read_comparison,
    "stability": lambda ctx, check: [analytics.StabilityMetrics(ctx.bundle, build_driver(m["driver"]), ctx.driver,
                                                                ctx.xi, ctx.xi, check["p"]) for m in check["members"]],
    # the ladder's tolerance is 3 SE of Y0
    "ladder": lambda ctx, check: [TruncationLadder(ctx.bundle, ctx.driver, ctx.xi, check["levels"], 3.0 * ctx.y0_se)],
}


def _run_exp_martingale(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return analytics.exp_martingale_check(ctx.bundle, ctx.field, check["q"])


def _run_kazamaki(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [analytics.kazamaki_statistic(ctx.bundle, ctx.field, **_keys(check))]


def _run_assumptions(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return [validate_assumptions(ctx.driver, ctx.bundle)]


def _run_moments(ctx: _RunContext, check: dict) -> list[analytics.CheckReport]:
    return analytics.moment_checks(ctx.xi, ctx.driver.params, ctx.bundle, check["p"], check.get("expected"))


_NUMBER = {"type": "number"}
_TOL = {"type": "number", "minimum": 0}
_VECTOR = {"type": "array", "items": _NUMBER}
_NONEMPTY = {**_VECTOR, "minItems": 1}


def _orders(above: float) -> dict:
    """A nonempty list of numbers greater than ``above``."""
    return {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": above}}


# a problem nested in a check: another driver, with the top-level terminal
_STABILITY_MEMBER = {
    "type": "object",
    "additionalProperties": False,
    "required": ["driver"],
    # a member that states the sup gap it keeps does not converge; any other does
    "properties": {"driver": _DRIVER_SCHEMA, "label": {"type": "string"}, "expected_hypothesis": _NUMBER,
                   "expected_sup": _NUMBER},
}

# check type -> (runner, required keys, schema of every key the runner reads);
# the schema of a check block is built from this table, so a block carries
# "type" and these keys only, each value in its domain
_CHECKS = {
    "anchor": (_run_anchor, ["y0"], {"y0": _NUMBER, "tol": _TOL, "z_mean": _NONEMPTY, "z_orth_mean": _NONEMPTY}),
    "apriori": (_run_reports, [], {"tight": _TOL, "x0": _NUMBER}),
    "norm_bounds": (_run_norm_bounds, ["p"], {"p": _orders(1)}),
    "comparison": (_run_reports, ["other"], {
        "other": {"type": "object", "additionalProperties": False, "required": ["driver"],
                  "properties": {"driver": _DRIVER_SCHEMA}},
    }),
    "stability": (_run_stability, ["members", "p"],
                  {"members": {"type": "array", "minItems": 1, "items": _STABILITY_MEMBER}, "p": _orders(0)}),
    "ladder": (_run_ladder, ["levels"], {"levels": _orders(0)}),
    "exp_martingale": (_run_exp_martingale, ["q"], {"q": _NONEMPTY}),
    "kazamaki": (_run_kazamaki, ["eta", "q_tilde"],
                 {"eta": {"type": "number", "not": {"const": 1}}, "q_tilde": _NUMBER, "expected_sup": _NUMBER}),
    "assumptions": (_run_assumptions, [], {}),
    "moments": (_run_moments, ["p"], {"p": _orders(0), "expected": _VECTOR}),
}

_SCHEMA["properties"]["checks"]["items"] = {
    "type": "object",
    "required": ["type"],
    "properties": {"type": {"enum": list(_CHECKS)}},
    "allOf": _when("type", {t: {"additionalProperties": False, "required": req, "properties": {"type": True, **props}}
                            for t, (_, req, props) in _CHECKS.items()}),
}
# built once: validation runs for every config loaded.  An integer is an int
# and not a bool; JSON Schema's integer also admits 1.0, which no count can be
_INTEGER = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
_VALIDATOR = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=_INTEGER)(_SCHEMA)


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    n_paths: int | None = None,
    seed: int | None = None,
) -> ExperimentReport:
    """Run one experiment: simulate, solve, execute every requested check.

    ``n_paths``/``seed`` override the scenario block (for CLI sweeps).  ``out_dir``
    is made before the solve, so a path that cannot be a directory fails first."""
    t_start = time.perf_counter()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    overrides = {key: int(v) for key, v in (("n_paths", n_paths), ("seed", seed)) if v is not None}
    if overrides:
        config = dataclasses.replace(config, scenario={**config.scenario, **overrides})

    bundle = build_bundle(config)
    driver = build_driver(config.driver)
    xi = build_terminal(config.terminal, bundle.dim_m + bundle.dim_orth)
    cfg = SolverConfig(**config.solver)
    # Y0's SE comes first: the ladder reader's tolerance is 3 SE, and every
    # reader is built before the one backward pass that feeds them all
    y0, y0_se, _ = y0_with_se(bundle, driver, xi, cfg)
    ctx = _RunContext(bundle=bundle, driver=driver, xi=xi, solver_cfg=cfg, y0=y0, y0_se=y0_se)
    readers = [_READERS[block["type"]](ctx, block) for block in config.checks if block["type"] in _READERS]
    ctx.field = field_ = solve_backward(bundle, driver, xi, cfg, [r for block in readers for r in block])
    ctx.readers = iter(readers)

    checks: list[analytics.CheckReport] = []
    for check in config.checks:
        run, _, _ = _CHECKS[check["type"]]
        checks.extend(run(ctx, check))

    report = ExperimentReport(
        name=config.name,
        config_hash=config.config_hash(),
        y0=y0,
        y0_se=y0_se,
        checks=checks,
        timing={"wall_clock_s": time.perf_counter() - t_start},
        versions={"qbsde": __version__, "numpy": np.__version__, "python": sys.version.split()[0]},
    )

    if out_dir is not None:
        with open(os.path.join(out_dir, f"{config.name}.report.json"), "w") as fh:
            fh.write(canonical_json(report.to_dict()))
        with open(os.path.join(out_dir, f"{config.name}.checks.json"), "w") as fh:
            fh.write(canonical_json([c.to_dict() for c in checks]))
        field_.to_csv(os.path.join(out_dir, f"{config.name}.solution.csv"), grid_nodes=bundle.grid.nodes)
    return report
