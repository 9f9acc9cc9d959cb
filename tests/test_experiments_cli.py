import json
import os
import subprocess
import sys

import pytest

import qbsde as q
from qbsde.errors import ConfigValidationError
from qbsde.experiments import canonical_json

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
  - {type: apriori, tol: 1.0e-6}
output: {export_paths: 5}
"""


class TestValidateConfig:
    def test_minimal_fills_defaults(self):
        cfg = q.validate_config(MINIMAL)
        assert cfg.scenario["dim_m"] == 1
        assert cfg.scenario["clock"]["kind"] == "identity"
        assert cfg.solver["picard_tol"] == 1e-10
        assert cfg.solver["picard_max"] == 50
        assert cfg.output["export_paths"] == 100

    def test_contraction_constraint_rejected(self):
        text = """
name: bad-contraction
scenario: {T: 1.0, steps: 2, n_paths: 16, seed: 1}
driver: {name: zero, declared: {beta_bar: 1.2}}
terminal: {kind: constant}
"""
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        assert any("contraction" in msg for _, msg in err.value.errors)

    def test_missing_driver_option(self):
        text = MINIMAL.replace("{name: zero}", "{name: step_family}")
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        path, msg = err.value.errors[0]
        assert path == "driver"
        assert "requires option 'n'" in msg

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

    def test_stability_member_needs_expected_sup(self):
        text = MINIMAL + """
checks:
  - {type: stability, p: [1], members: [{driver: {name: zero}, converges: false}]}
"""
        with pytest.raises(ConfigValidationError) as err:
            q.validate_config(text)
        assert any("expected_sup" in path for path, _ in err.value.errors)


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
        assert n_lines == 1 + 5 * 5  # header + export_paths * nodes

    def test_rerun_byte_identical_modulo_timing(self):
        cfg = q.validate_config(WITH_CHECKS)
        a = q.run_experiment(cfg)
        b = q.run_experiment(cfg)
        assert canonical_json(a.to_dict(include_timing=False)) == canonical_json(b.to_dict(include_timing=False))

    def test_overrides(self):
        cfg = q.validate_config(MINIMAL)
        rep = q.run_experiment(cfg, n_paths=32, seed=99)
        assert rep.config_hash != cfg.config_hash()

    def test_every_requested_check_appears_once(self):
        cfg = q.validate_config(WITH_CHECKS)
        rep = q.run_experiment(cfg)
        names = [c.name for c in rep.checks]
        assert names == ["anchor", "apriori_bound"]


class TestCatalogue:
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

    def test_load_config_by_name_and_missing(self):
        cfg = q.load_config("counterexample-n1")
        assert cfg.driver["options"]["n"] == 1
        with pytest.raises(FileNotFoundError):
            q.load_config("no-such-experiment")


def run_cli(*args):
    # the child imports qbsde from this checkout, also when pytest alone put src/ on sys.path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "qbsde", *args], capture_output=True, text=True, env=env)


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
        ("seed: 1}", "seed: 1, clock: {kind: piecewise, times: [0.0], values: [0.0]}}", "scenario: "),
        ("seed: 1}", "seed: -1}", "scenario.seed: "),
        ("seed: 1}", "seed: 1, stream: -1}", "scenario.stream: "),
    ], ids=["unknown-driver", "one-point-clock", "negative-seed", "negative-stream"])
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
    ], ids=["negative-stream", "zero-paths", "negative-seed"])
    def test_run_bad_input_exit_2(self, tmp_path, old, new, args, where):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(old, new) if old else MINIMAL)
        proc = run_cli("run", str(path), *args)
        assert proc.returncode == 2
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_with_overrides(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(MINIMAL)
        proc = run_cli("run", str(path), "--paths", "32", "--seed", "5")
        assert proc.returncode == 0
