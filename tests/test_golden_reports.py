"""Every bundled report against its stored copy in ``tests/data``.

Each bundled config runs at ``min(n_paths, GOLDEN_PATHS)`` paths, and every
leaf of its report is compared with the stored one: floats to a relative
``REL_TOL``, everything else exactly.  ``config_hash`` and ``versions`` are
left out, since they name the config and the environment, not the result.

After a change that is meant to move a report, rewrite the stored copies with
``PYTHONPATH=src python tests/test_golden_reports.py`` and review the diff.

The same runs count the backward sweeps and the regressions they build: one
pass sweeps the config's own problem and every problem its checks name, each
once and all on one regression per step, beside the Y0 batches.
"""

import json
import math
import pathlib
from unittest import mock

import pytest

import qbsde as q
from qbsde import solver
from qbsde.experiments import build_grid_for, canonical_json

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_PATHS = 2048
REL_TOL = 1e-9


def _report(config) -> dict:
    report = q.run_experiment(config, n_paths=min(config.scenario["n_paths"], GOLDEN_PATHS))
    out = report.to_dict(include_timing=False)
    del out["config_hash"], out["versions"]
    return out


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(got, want, rel_tol=REL_TOL)
        return [] if same else [f"{path}: {got!r} != {want!r}"]
    return [] if (type(got) is type(want) and got == want) else [f"{path}: {got!r} != {want!r}"]


def _extra_problems(config) -> int:
    """Problems the checks sweep beside the config's own: each comparison's
    other driver, each stability member and each ladder level."""
    return sum(("other" in c) + len(c.get("members", ())) + len(c.get("levels", ())) for c in config.checks)


@pytest.mark.parametrize("config", q.bundled_configs(), ids=lambda c: c.name)
def test_report_matches_golden(config):
    want = json.loads((DATA / f"{config.name}.json").read_text())
    with mock.patch.object(solver, "_backward_steps", wraps=solver._backward_steps) as sweeps, \
            mock.patch.object(solver, "make_regression", wraps=solver.make_regression) as builds:
        report = _report(config)
    # the stored copy went through canonical_json, so compare like with like
    got = json.loads(canonical_json(report))
    assert _mismatches(got, want) == []
    # K builds for the pass and K for each Y0 batch; a problem swept apart
    # from the pass, or a repeated sweep, would add K or a sweep
    K = build_grid_for(config).n_steps
    assert builds.call_count == (1 + solver.Y0_SE_BATCHES) * K
    assert sweeps.call_count == 1 + solver.Y0_SE_BATCHES + _extra_problems(config)


def test_stored_copies_hold_no_nan_or_infinity():
    # an undefined value is null in a report, so every copy is strict JSON
    def refuse(constant):
        raise ValueError(f"sentinel {constant}")

    for path in sorted(DATA.glob("*.json")):
        json.loads(path.read_text(), parse_constant=refuse)


def test_mismatches_reads_every_leaf():
    want = {"a": 1.0, "b": [True, "x", float("nan")], "c": {"d": 2}}
    assert _mismatches(json.loads(json.dumps(want)), want) == []
    assert _mismatches({**want, "a": 1.0 + 1e-6}, want) == [".a: 1.000001 != 1.0"]
    assert _mismatches({**want, "b": [1, "x", float("nan")]}, want) == [".b[0]: 1 != True"]
    assert _mismatches({**want, "c": {"d": 2.0}}, want) == [".c.d: 2.0 != 2"]
    assert _mismatches({**want, "c": {}}, want) == [".c: keys [] != ['d']"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for config in q.bundled_configs():
        (DATA / f"{config.name}.json").write_text(canonical_json(_report(config)) + "\n")
