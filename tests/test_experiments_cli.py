import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from importlib import resources
from unittest import mock

import pytest
import yaml

import qbsde as q
from qbsde.errors import ConfigValidationError
from qbsde import solver
from qbsde.experiments import (_CHECKS, _SCHEMA, _STABILITY_MEMBER, _driver_blocks, build_bundle, build_driver,
                               build_terminal, canonical_json)
from qbsde.solver import EXPORT_PATHS

MINIMAL = """
name: tiny
scenario: {T: 1.0, steps: 4, n_paths: 64, seed: 1}
driver: {name: zero}
terminal: {kind: constant, options: {value: 0.0}}
"""

WITH_CHECKS = """
name: tiny-checked
scenario: {T: 1.0, steps: 4, n_paths: 64, seed: 1}
driver: {name: constant, options: {value: 0.5}}
terminal: {kind: constant, options: {value: 0.0}}
checks:
  - {type: anchor, y0: 0.5, tol: 1.0e-10}
  - {type: apriori}
"""


def merged(fragment: str) -> str:
    """MINIMAL with the blocks of a YAML fragment merged in, one level deep."""
    cfg = yaml.safe_load(MINIMAL)
    for key, value in yaml.safe_load(fragment).items():
        cfg[key] = {**cfg[key], **value} if key in cfg and isinstance(value, dict) else value
    return yaml.safe_dump(cfg)


class TestValidateConfig:
    def test_minimal_fills_defaults(self):
        cfg = q.validate_config(MINIMAL)
        assert cfg.scenario == {"T": 1.0, "steps": 4, "n_paths": 64, "seed": 1,
                                "dim_m": 1, "dim_orth": 0}
        defaults = dataclasses.asdict(q.SolverConfig())
        del defaults["terminal_feature"]
        assert cfg.solver == defaults
        assert set(cfg.canonical()) == {"name", "description", "scenario", "driver", "terminal", "solver", "checks"}

    def test_missing_driver_option(self):
        text = MINIMAL.replace("{name: zero}", "{name: step_family}")
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        path, msg = err.value.errors[0]
        assert path == "driver"
        assert "requires option 'n'" in msg

    def test_unread_constraint_key_named(self):
        text = MINIMAL.replace("{name: zero}", "{name: power_utility, options: {p: 0.5, lam: 0.0, constraint: "
                                               "{kind: box, lower: [-0.5], upper: [0.5], uper: [9.0]}}}")
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        [(path, msg)] = err.value.errors
        assert path == "driver"
        assert "'uper'" in msg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(MINIMAL + "\nfrobnicate: 1\n")
        assert any("frobnicate" in msg for _, msg in err.value.errors)

    def test_missing_block(self):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config("name: x\nscenario: {T: 1.0, steps: 1, n_paths: 1, seed: 0}\n")
        assert err.value.errors

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config("name: [unclosed\nscenario:")
        assert "line" in err.value.errors[0][0]

    def test_unknown_driver(self):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(MINIMAL.replace("zero", "frob"))
        assert err.value.errors[0][0] == "driver"

    def test_terminal_dimension_mismatch(self):
        text = MINIMAL.replace("{kind: constant, options: {value: 0.0}}",
                               "{kind: affine, options: {slope: [1.0, 2.0]}}")
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        assert any("slope" in msg for _, msg in err.value.errors)

    def test_driver_dim_mismatch(self):
        text = """
name: entropic-wrong-dim
scenario: {T: 1.0, steps: 4, n_paths: 16, seed: 1}
driver: {name: entropic, options: {lam_s: 0.5}}
terminal: {kind: constant}
"""
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        assert any("dim_m" in path for path, _ in err.value.errors)

    @pytest.mark.parametrize("fragment, where, key", [
        ("{solver: {implicit: false}}", "solver.implicit", "implicit"),
        ("{solver: {se_batches: 4}}", "solver.se_batches", "se_batches"),
        ("{checks: [{type: apriori, mode: closed_form}]}", "checks.0.mode", "mode"),
        ("{checks: [{type: kazamaki, eta: 2.0, q_tilde: 1.0, tool: 1}]}", "checks.0.tool", "tool"),
        ("{checks: [{type: frob}]}", "checks.0.type", "frob"),
        ("{scenario: {stream: 0}}", "scenario.stream", "stream"),
        ("{scenario: {clock: {kind: identity}}}", "scenario.clock", "clock"),
        ("{driver: {declared: {beta_bar: 0.0}}}", "driver.declared", "declared"),
        ("{solver: {picard_tol: 1.0e-10}}", "solver.picard_tol", "picard_tol"),
        ("{output: {export_paths: 5}}", "output", "output"),
        ("{checks: [{type: apriori, x0: 1.0, x0_tol: 0.1}]}", "checks.0.x0_tol", "x0_tol"),
        ("{checks: [{type: comparison, other: {driver: {name: zero}}, expected_y0_gap: 0.0}]}",
         "checks.0.expected_y0_gap", "expected_y0_gap"),
        ("{checks: [{type: assumptions, seed: 3}]}", "checks.0.seed", "seed"),
        ("{checks: [{type: comparison, other: {driver: {name: zero}, terminal: {kind: constant}}}]}",
         "checks.0.other.terminal", "terminal"),
        ("{terminal: {kind: affine, options: {slop: [1.0]}}}", "terminal.options.slop", "slop"),
        ("{driver: {name: pure_quadratic, options: {gamma: 1.0, gama: 3.0}}}", "driver.options.gama", "gama"),
        ("{driver: {options: {value: 3.0}}}", "driver.options.value", "value"),
        ("{checks: [{type: stability, p: [1], members: [{driver: {name: constant, options: {value: 1, n: 2}}}]}]}",
         "checks.0.members.0.driver.options.n", "'n'"),
        # the fixed tolerances of the checks
        ("{checks: [{type: apriori, tol: 1.0e-6}]}", "checks.0.tol", "tol"),
        ("{checks: [{type: assumptions, probes: 10000}]}", "checks.0.probes", "probes"),
        ("{checks: [{type: anchor, y0: 0.0, z_mean: [0.0], z_tol: 0.05}]}", "checks.0.z_tol", "z_tol"),
        ("{checks: [{type: comparison, other: {driver: {name: zero}}, tol: 1.0e-9}]}", "checks.0.tol", "tol"),
        ("{checks: [{type: ladder, levels: [1, 2], fraction_tol: 1.0e-3}]}", "checks.0.fraction_tol", "fraction_tol"),
        ("{checks: [{type: stability, p: [1], members: [{driver: {name: zero}, hyp_tol: 1.0e-6}]}]}",
         "checks.0.members.0.hyp_tol", "hyp_tol"),
        ("{checks: [{type: stability, p: [1], members: [{driver: {name: zero}, expected_sup: 0.0, "
         "sup_tol: 1.0e-6}]}]}", "checks.0.members.0.sup_tol", "sup_tol"),
    ], ids=["implicit", "se_batches", "apriori-mode", "misspelt-check-key", "unknown-check-type", "stream", "clock",
            "declared", "picard_tol", "output", "x0_tol", "expected_y0_gap", "assumptions-seed", "other-terminal",
            "terminal-option", "driver-option", "zero-driver-option", "member-driver-option", "apriori-tol",
            "probes", "z_tol", "comparison-tol", "fraction_tol", "hyp_tol", "sup_tol"])
    def test_unread_key_named(self, fragment, where, key):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(merged(fragment))
        assert any(path == where and key in msg for path, msg in err.value.errors), err.value.errors

    def test_solver_block_keys_are_solver_config_fields(self):
        keys = set(_SCHEMA["properties"]["solver"]["properties"])
        # terminal_feature is a field for callers that pass it by keyword; the
        # basis kind fixes it for a config (poly has the feature, binned reads none)
        assert keys == {f.name for f in dataclasses.fields(q.SolverConfig)} - {"terminal_feature"}

    @pytest.mark.parametrize("check, where", [
        ("{type: norm_bounds, p: 2}", "checks.0.p"),
        ("{type: anchor, y0: abc}", "checks.0.y0"),
        ("{type: ladder, levels: [0, 1]}", "checks.0.levels.0"),
        ("{type: ladder, levels: [8, 4, 2, 1]}", "checks.0.levels"),
        ("{type: ladder, levels: [1, 2, 4, 8, 1]}", "checks.0.levels"),
        ("{type: norm_bounds, p: [1]}", "checks.0.p.0"),
        ("{type: kazamaki, eta: 1, q_tilde: 1}", "checks.0.eta"),
        ("{type: moments, p: [1, 2], expected: [2.7]}", "checks.0.expected"),
        ("{type: comparison, other: {driver: {name: frob}}}", "checks.0.other.driver"),
        ("{type: stability, p: [1], members: [{driver: {name: step_family}}]}",
         "checks.0.members.0.driver"),
        ("{type: stability, p: [1], members: [{driver: {name: entropic, options: {lam_s: 0.5}}}]}",
         "checks.0.members.0.driver"),
        ("{type: stability, p: [1], members: [{driver: {name: zero}, hyp_tl: 5}]}",
         "checks.0.members.0.hyp_tl"),
        ("{type: comparison, other: {driver: {name: zero}, termnal: {kind: constant}}}", "checks.0.other.termnal"),
        ("{type: comparison, other: {driver: {name: zero}}, direction: sideways}", "checks.0.direction"),
        ("{type: anchor, y0: 0.0, z_mean: [0, 1]}", "checks.0.z_mean"),
        ("{type: comparison, other: {terminal: {kind: affine, options: {slope: [1, 2]}}}}", "checks.0.other.terminal"),
        ("{type: comparison, other: {driver: {name: zero, declared: {beta_bar: 2.0}}}}",
         "checks.0.other.driver.declared"),
        ("{y0: 1.0}", "checks.0.type"),
    ], ids=["p-scalar", "y0-string", "level-zero", "levels-decreasing", "levels-repeated", "norm-p-one", "eta-one",
            "expected-length", "other-unknown-driver", "member-missing-option", "member-driver-dim",
            "member-misspelt-key", "other-misspelt-key", "direction", "z-mean-length", "other-slope-size",
            "other-declared", "no-type"])
    def test_nested_and_domain_errors_named(self, check, where):
        """Each config validated before and then failed in run_experiment, or ran with the bad value ignored."""
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(MINIMAL + f"checks:\n  - {check}\n")
        assert where in [path for path, _ in err.value.errors], err.value.errors

    @pytest.mark.parametrize("bare,dotted", [
        ("{type: anchor, y0: 0.5, tol: 1e-2}", "{type: anchor, y0: 0.5, tol: 1.0e-2}"),
        ("{type: norm_bounds, p: [1e3]}", "{type: norm_bounds, p: [1000.0]}"),
        ("{type: anchor, y0: -2E+1}", "{type: anchor, y0: -20.0}"),
    ], ids=["tol", "p", "signed-upper"])
    def test_exponent_without_a_dot_is_a_number(self, bare, dotted):
        # YAML 1.1 reads 1e-2 as a string; a config follows YAML 1.2 and JSON
        got, want = (q.validate_config(MINIMAL + f"checks:\n  - {c}\n") for c in (bare, dotted))
        assert got == want

    def test_quoted_exponent_is_still_a_string(self):
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(MINIMAL + "checks:\n  - {type: anchor, y0: 0.5, tol: '1e-2'}\n")
        assert "checks.0.tol" in [path for path, _ in err.value.errors], err.value.errors

    def test_plain_integer_is_still_an_int(self):
        # the schema refuses 7.0 for a count, so the float rule must not take 7
        cfg = q.validate_config(MINIMAL.replace("seed: 1", "seed: 7"))
        assert type(cfg.scenario["seed"]) is int and cfg.scenario["seed"] == 7

    def test_stability_member_converging_flag_rejected(self):
        # a member converges iff it names no expected_sup; no flag says so
        text = MINIMAL + """
checks:
  - {type: stability, p: [1], members: [{driver: {name: zero}, converges: true}]}
"""
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        assert "checks.0.members.0.converges" in [path for path, _ in err.value.errors], err.value.errors


class TestRunExperiment:
    def test_report_and_files(self, tmp_path):
        cfg = q.validate_config(WITH_CHECKS)
        report = q.run_experiment(cfg, out_dir=tmp_path)
        assert report.all_passed
        assert report.y0 == pytest.approx(0.5, abs=1e-12)
        for suffix in ("report.json", "checks.json", "solution.csv"):
            assert (tmp_path / f"tiny-checked.{suffix}").exists()
        data = json.loads((tmp_path / "tiny-checked.report.json").read_text())
        assert data["report_schema"] == 1
        assert data["all_passed"] is True
        assert "wall_clock_s" in data["timing"]
        n_lines = (tmp_path / "tiny-checked.solution.csv").read_text().count("\n")
        assert n_lines == 1 + min(EXPORT_PATHS, 64) * 5  # header + exported paths * nodes

    def test_rerun_byte_identical_modulo_timing(self):
        cfg = q.validate_config(WITH_CHECKS)
        a = q.run_experiment(cfg)
        b = q.run_experiment(cfg)
        assert canonical_json(a.to_dict(include_timing=False)) == canonical_json(b.to_dict(include_timing=False))

    def test_infinite_moment_is_null_in_strict_json(self, tmp_path):
        # E[exp(300 |W_1|)] overflows on the sample: the check fails, and the files hold null, not Infinity
        cfg = q.validate_config(merged("terminal: {kind: affine, options: {slope: [1.0]}}\n"
                                       "checks: [{type: moments, p: [300]}]"))
        report = q.run_experiment(cfg, out_dir=tmp_path)
        assert not report.all_passed and math.isinf(report.checks[0].extra["estimate"])

        def refuse(constant):
            raise ValueError(f"sentinel {constant}")

        stored = json.loads((tmp_path / "tiny.report.json").read_text(), parse_constant=refuse)
        checks = json.loads((tmp_path / "tiny.checks.json").read_text(), parse_constant=refuse)
        assert stored["checks"] == checks
        assert (checks[0]["extra"]["estimate"], checks[0]["se"]) == (None, None)

    def test_overrides(self):
        cfg = q.validate_config(MINIMAL)
        rep = q.run_experiment(cfg, n_paths=32, seed=99)
        assert rep.config_hash != cfg.config_hash()

    def test_config_hash_reads_every_digit(self):
        # canonical_json writes floats at 12 significant digits, where both values read 0.5
        a, b = (q.validate_config(merged(f"{{driver: {{name: constant, options: {{value: {v}}}}}}}"))
                for v in ("0.5", "0.5000000000001"))
        assert canonical_json(a.canonical()) == canonical_json(b.canonical())
        assert a.config_hash() != b.config_hash()

    def test_kink_of_a_stability_member_is_a_grid_node(self):
        # 10 steps on [0, 1] miss the member's kink 1/3: the left-endpoint
        # rule would then integrate its driver to 1.2, not 1
        cfg = q.validate_config(merged(
            "scenario: {steps: 10}\n"
            "checks: [{type: stability, p: [1], members: [{driver: {name: step_family, options: {n: 3}}, "
            "expected_hypothesis: 1.0, expected_sup: 1.0}]}]"))
        report = q.run_experiment(cfg)
        (check,) = report.checks
        assert check.extra["hypothesis"] == pytest.approx(1.0, abs=1e-12)
        assert report.all_passed

    def test_step_family_kink_past_the_horizon(self):
        # the kink 1/n = 2 lies past T = 1, so F = n on all of [0, T) and Y0 = 0.5
        cfg = q.validate_config(merged("driver: {name: step_family, options: {n: 0.5}}\n"
                                       "checks: [{type: anchor, y0: 0.5, tol: 1.0e-10}]"))
        assert q.run_experiment(cfg).all_passed

    def test_every_requested_check_appears_once(self):
        cfg = q.validate_config(WITH_CHECKS)
        rep = q.run_experiment(cfg)
        names = [c.name for c in rep.checks]
        assert names == ["anchor", "apriori_bound"]

    def test_each_apriori_block_reports_its_own_streamed_check(self):
        # one solve feeds both checks; each report keeps its block's keys and place
        cfg = q.validate_config(merged("checks: [{type: apriori}, {type: anchor, y0: 0.0}, {type: apriori, tight: 0.5}]"))
        first, anchor, second = q.run_experiment(cfg).checks
        assert (first.name, anchor.name, second.name) == ("apriori_bound", "anchor", "apriori_bound")
        assert "tight" not in first.extra and second.extra["tight"] == 0.5
        assert first.margin == second.margin


class TestCatalogue:
    @pytest.mark.parametrize("cfg", q.bundled_configs(), ids=lambda c: c.name)
    def test_apriori_band_is_sized_by_the_sweeps_widest_design(self, cfg):
        from scipy.stats import chi2
        cfg = dataclasses.replace(cfg, scenario={**cfg.scenario, "n_paths": min(cfg.scenario["n_paths"], 1024)})
        bundle, solver_cfg = build_bundle(cfg), q.SolverConfig(**cfg.solver)
        xi = build_terminal(cfg.terminal, bundle.dim_m + bundle.dim_orth)
        widths, regression_at = [], solver._regression_at

        def recording_regression_at(*args):
            regression = regression_at(*args)

            def step(i):
                reg = regression(i)
                widths.append(reg.n_features)
                return reg
            return step

        with mock.patch.object(solver, "_regression_at", recording_regression_at):
            q.solve_backward(bundle, build_driver(cfg.driver), xi, solver_cfg)
        assert len(widths) == bundle.grid.n_steps
        widest = max(widths)
        assert q.regression.n_columns(solver_cfg, bundle.states.shape[2]) == widest
        bands = [c.extra["band_factor"] for c in q.run_experiment(cfg).checks if c.name == "apriori_bound"]
        assert bands == pytest.approx([math.sqrt(chi2.ppf(0.997, widest)) / 3.0] * len(bands), rel=1e-9)

    def test_all_bundled_configs_validate(self):
        names = [c.name for c in q.bundled_configs()]
        assert len(names) == 12
        assert "counterexample-n2" in names
        assert "quadratic-gaussian" in names

    def test_catalogue_covers_every_analytics_operation(self):
        types = set()
        for cfg in q.bundled_configs():
            types.update(c["type"] for c in cfg.checks)
        assert {"apriori", "norm_bounds", "comparison", "stability",
                "ladder", "exp_martingale", "kazamaki", "assumptions", "moments"} <= types

    def test_every_schema_key_is_set_by_a_bundled_config(self):
        """The schema accepts no key that no bundled experiment sets.  Every
        driver block, top-level or nested, has the one driver schema, so its
        keys are judged once, as ``driver.<key>``."""
        def path(prefix, key):
            return ("driver",) if key == "driver" else (*prefix, key)

        def leaves(props, prefix):
            for key, sub in props.items():
                sub = sub.get("items", sub) if sub.get("type") == "array" else sub
                if "properties" in sub:
                    yield from leaves(sub["properties"], path(prefix, key))
                else:
                    yield path(prefix, key)

        def keys_set(node, prefix):
            if isinstance(node, list):
                for item in node:
                    yield from keys_set(item, prefix)
            elif isinstance(node, dict):
                for key, value in node.items():
                    yield path(prefix, key)
                    yield from keys_set(value, path(prefix, key))

        settable = set(leaves({k: v for k, v in _SCHEMA["properties"].items() if k != "checks"}, ()))
        for kind, (_, _, props) in _CHECKS.items():
            settable.update(leaves(props, ("checks", kind)))
        set_somewhere = set()
        root = resources.files("qbsde").joinpath("configs")
        for entry in root.iterdir():
            if entry.name.endswith(".yaml"):
                raw = yaml.safe_load(entry.read_text())
                set_somewhere.update(keys_set({k: v for k, v in raw.items() if k != "checks"}, ()))
                for check in raw.get("checks", []):
                    set_somewhere.update(keys_set(check, ("checks", check["type"])))
        assert sorted(".".join(p) for p in settable - set_somewhere) == []

    def test_every_defaulted_check_argument_takes_another_value(self):
        """Each defaulted argument of a check function is a key of its block that
        some bundled config sets to another value: one value in use is a constant."""
        functions = {"anchor": q.anchor_check, "apriori": q.check_apriori, "norm_bounds": q.norm_bound_checks,
                     "comparison": q.comparison_check, "stability": q.stability_check, "ladder": q.ladder_check,
                     "exp_martingale": q.exp_martingale_check, "kazamaki": q.kazamaki_statistic,
                     "assumptions": q.validate_assumptions, "moments": q.moment_checks}
        assert set(functions) == set(_CHECKS)
        values = {}
        for cfg in q.bundled_configs():
            for check in cfg.checks:
                # a stability block's keys live in its members
                for block in check.get("members", [check]):
                    for key, value in block.items():
                        values.setdefault((check["type"], key), []).append(value)
        only_default = []
        for kind, fn in functions.items():
            keys = _STABILITY_MEMBER["properties"] if kind == "stability" else _CHECKS[kind][2]
            for name, param in inspect.signature(fn).parameters.items():
                if param.default is not inspect.Parameter.empty and (
                        name not in keys or all(v == param.default for v in values.get((kind, name), []))):
                    only_default.append(f"{kind}.{name}")
        assert only_default == []

    def test_every_builtin_and_terminal_kind_is_used_by_a_bundled_config(self):
        """No driver, terminal kind or constraint kind exists that no bundled experiment uses."""
        drivers, terminals, constraints = set(), set(), set()
        for cfg in q.bundled_configs():
            terminals.add(cfg.terminal["kind"])
            for _, block in _driver_blocks(cfg):
                drivers.add(block["name"])
                if "constraint" in block.get("options", {}):
                    constraints.add(block["options"]["constraint"]["kind"])
        assert drivers == set(q.list_builtins())
        assert terminals == set(_SCHEMA["properties"]["terminal"]["properties"]["kind"]["enum"])
        assert constraints == {"box"}

    def test_load_config_by_name_and_missing(self):
        cfg = q.load_config("counterexample-n1")
        assert cfg.driver["options"]["n"] == 1
        with pytest.raises(FileNotFoundError):
            q.load_config("no-such-experiment")


def run_python(*args):
    # the child imports qbsde from this checkout, also when pytest alone put src/ on sys.path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(*args):
    return run_python("-m", "qbsde", *args)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the package needs none of it
    proc = run_python("-c", "import sys, qbsde; qbsde.bundled_configs(); print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_scipy_unloaded():
    # scipy.special alone takes about 0.3 s to import and 20 MB; the package needs none of it
    proc = run_python("-c", "import sys, qbsde; qbsde.bundled_configs(); print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_leaves_scipy_unloaded():
    # the a priori check's normal CDF and chi-square quantile are the package's own
    proc = run_python("-c", "import sys, qbsde; qbsde.run_experiment(qbsde.load_config('quadratic-gaussian'), "
                            "n_paths=2000); print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestCli:
    def test_list(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert "counterexample-n2" in proc.stdout

    def test_validate_ok_and_show(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(MINIMAL)
        proc = run_cli("validate", str(path), "--show")
        assert proc.returncode == 0
        assert "tiny" in proc.stdout

    @pytest.mark.parametrize("old, new, where", [
        ("zero", "frob", "driver"),
        ("seed: 1}", "seed: 1, mandatory_nodes: [2.0]}", "scenario.mandatory_nodes: "),
        ("seed: 1}", "seed: -1}", "scenario.seed: "),
        ("seed: 1}", "seed: 1, stream: -1}", "scenario.stream: "),
        ("{name: zero}", "{name: power_utility, options: {p: 0.5, lam: 0.0, "
                         "constraint: {kind: halfspace, normal: [1.0], offset: 0.25}}}", "driver: "),
        ("{name: zero}", "{name: power_utility, options: {p: 0.5, lam: 0.0, "
                         "constraint: {kind: box, lower: [-0.5], upper: [0.5], uper: [9.0]}}}", "driver: "),
        ("{kind: constant, options: {value: 0.0}}", "{kind: affine, options: {slop: [1.0]}}",
         "terminal.options.slop: "),
        ("seed: 1}", "seed: 1}\nchecks: [{type: assumptions, probes: 10000}]", "checks.0.probes: "),
        ("seed: 1}", "seed: 1}\nchecks: [{type: stability, p: [1], members: [{driver: {name: zero}, "
                     "hyp_tol: 1.0e-6}]}]", "checks.0.members.0.hyp_tol: "),
        ("seed: 1}", "seed: 1, dim_orth: 1}\nsolver: {basis_kind: binned}",
         "solver.basis_kind: "),
        # integer keys refuse a float, which the run could not use
        ("seed: 1}", "seed: 1.0}", "scenario.seed: "),
        ("n_paths: 64", "n_paths: 64.0", "scenario.n_paths: "),
        ("steps: 4", "steps: 4.0", "scenario.steps: "),
        ("seed: 1}", "seed: 1, dim_m: 1.0}", "scenario.dim_m: "),
        ("seed: 1}", "seed: 1}\nsolver: {degree: 2.0}", "solver.degree: "),
        ("seed: 1}", "seed: 1}\nsolver: {basis_kind: binned, bins: 8.0}", "solver.bins: "),
        ("seed: 1}", "seed: 1}\nchecks: [{type: anchor, y0: 0.0, z_orth_mean: []}]", "checks.0.z_orth_mean: "),
    ], ids=["unknown-driver", "node-outside-horizon", "negative-seed", "negative-stream", "halfspace-constraint",
            "unread-constraint-key", "terminal-option", "probes", "hyp_tol", "binned-2d", "float-seed",
            "float-n_paths", "float-steps", "float-dim_m", "float-degree", "float-bins", "empty-anchor-vector"])
    def test_validate_bad_exit_2(self, tmp_path, old, new, where):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(old, new))
        proc = run_cli("validate", str(path))
        assert proc.returncode == 2
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_pass_exit_0(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(WITH_CHECKS)
        out = tmp_path / "out"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "tiny-checked.report.json").exists()
        assert "all checks passed" in proc.stdout

    def test_run_failing_check_exit_1(self, tmp_path):
        path = tmp_path / "fail.yaml"
        path.write_text(WITH_CHECKS.replace("y0: 0.5", "y0: 5.0"))
        proc = run_cli("run", str(path))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize("old, new, args, where", [
        ("seed: 1}", "seed: 1, stream: -1}", (), "scenario.stream: "),
        ("", "", ("--paths", "0"), "--paths"),
        ("", "", ("--seed", "-1"), "--seed"),
        ("{name: zero}", "{name: pure_quadratic, options: {gamma: 0.5}}\nchecks: [{type: apriori}]", (),
         "checks.0: the a priori bound needs gamma >= 1"),
        ("{kind: constant, options: {value: 0.0}}", "{kind: affine, options: {slope: [1.0e308]}}", (),
         "experiment failed: terminal condition"),
        # the default cubic basis overflows on this kinked terminal; no Infinity reaches the report
        ("steps: 4, n_paths: 64, seed: 1}\ndriver: {name: zero}\nterminal: {kind: constant, options: {value: 0.0}}",
         "steps: 100, n_paths: 20000, seed: 1}\ndriver: {name: pure_quadratic, options: {gamma: 2.0}}\n"
         "terminal: {kind: abs, options: {slope: [1.0]}}", (), "experiment failed: non-finite Y at step"),
        # a fit on one path interpolates: no residual is left for the a priori check's variance
        ("seed: 1}", "seed: 1}\nchecks: [{type: apriori}]", ("--paths", "1"),
         "experiment failed: a fit of rank 1 on 1 samples has no residual degrees of freedom"),
    ], ids=["negative-stream", "zero-paths", "negative-seed", "apriori-gamma-below-one", "terminal-overflow",
            "non-finite-y", "one-path-apriori"])
    def test_run_bad_input_exit_2(self, tmp_path, old, new, args, where):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(old, new) if old else MINIMAL)
        proc = run_cli("run", str(path), *args)
        assert proc.returncode == 2
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
    def test_unreadable_config_exit_2(self, tmp_path, command, unreadable):
        path = tmp_path / "bad.yaml"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(MINIMAL.replace("tiny", "t\xe9").encode("latin-1"))
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert proc.stderr.strip().startswith("cannot read config") and len(proc.stderr.strip().splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_run_out_on_a_file_exit_2(self, tmp_path):
        # the output directory is made before the solve, so nothing runs and no traceback is printed
        path, out = tmp_path / "ok.yaml", tmp_path / "taken"
        path.write_text(WITH_CHECKS)
        out.write_text("a file, not a directory")
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("cannot write to --out") and len(proc.stderr.strip().splitlines()) == 1

    def test_run_invalid_check_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL + "checks:\n  - {type: norm_bounds, p: 2}\n")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "checks.0.p: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_with_overrides(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(MINIMAL)
        proc = run_cli("run", str(path), "--paths", "32", "--seed", "5")
        assert proc.returncode == 0
