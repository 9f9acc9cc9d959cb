"""Nested Monte Carlo oracle on tiny grids (the 3-step cross-checks against
the regression solver run in the acceptance suite)."""

import logging
import os

import numpy as np
import pytest

import qbsde as q
from qbsde import solver
from qbsde.errors import CapacityError


def small_bundle(steps, seed, dim_m=1, nodes=None):
    grid = q.TimeGrid(np.asarray(nodes)) if nodes is not None else q.build_grid(1.0, steps)
    return q.simulate_scenario(grid, dim_m, 0, 32, source=q.RandomSource(seed))


def test_constant_terminal_exact():
    b = small_bundle(1, 1)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_constant(2.5, 1), branching=1000)
    assert np.allclose(field.y, 2.5, atol=1e-6)


def test_two_step_quadratic_within_three_se():
    b = small_bundle(2, 2)
    drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    field = q.nested_mc_oracle(b, drv, q.terminal_affine(0.0, [1.0]), branching=1000)
    se = field.meta["y0_se"]
    assert se > 0
    assert abs(field.y0 - 0.5) <= 3.0 * se


def test_step_driver_deterministic():
    b = small_bundle(2, 3, nodes=[0.0, 0.5, 2.0])
    drv = q.make_builtin("step_family", {"n": 2})
    field = q.nested_mc_oracle(b, drv, q.terminal_constant(0.0, 1), branching=1000)
    assert field.y0 == pytest.approx(1.0, abs=1e-5)
    assert field.meta["y0_se"] == pytest.approx(0.0, abs=1e-6)


def test_preconditions():
    drv = q.make_builtin("zero")
    xi = q.terminal_constant(0.0, 1)
    with pytest.raises(ValueError, match="4 nodes"):
        q.nested_mc_oracle(small_bundle(4, 4), drv, xi, branching=1000)
    with pytest.raises(ValueError, match="at least 1000"):
        q.nested_mc_oracle(small_bundle(2, 4), drv, xi, branching=500)
    with pytest.raises(CapacityError):
        q.nested_mc_oracle(small_bundle(2, 4), drv, xi, branching=1000, capacity=10**5)


def test_reproducible_given_source(monkeypatch):
    """Draws are keyed by tree position, so repeating, re-chunking or threading
    the work reproduces the field bit for bit (a call-order seed moved Y0 by
    0.002 on the first case)."""
    drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    for slope in ([1.0], [1.0, 0.5]):
        b = q.simulate_scenario(q.build_grid(1.0, 2), 1, len(slope) - 1, 32, source=q.RandomSource(5))
        xi = q.terminal_affine(0.0, slope)
        fields = []
        # 2^16 leaves: 16 first-level chunks spread over the pool; 2^20: one chunk
        for budget in (1 << 16, 1 << 20):
            for workers in (1, 2):
                monkeypatch.setattr(solver, "ORACLE_CHUNK_BUDGET", budget)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, w=workers: set(range(w)))
                fields.append(q.nested_mc_oracle(b, drv, xi, branching=1000))
        ref = fields[0]
        for field in fields[1:]:
            assert np.array_equal(field.y, ref.y)
            assert np.array_equal(field.z, ref.z)
            assert np.array_equal(field.z_orth, ref.z_orth)
            assert field.meta["y0_se"] == ref.meta["y0_se"]


def test_root_nodes_draw_distinct_branches():
    """The estimates at nodes 0 and 1 both resimulate node 1 to node 2; the
    draws are keyed by the root node, so they never share branches."""
    b = small_bundle(2, 5)
    runs = [solver._OracleRun(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), 1000, q.SolverConfig(), root=i)
            for i in (0, 1)]
    assert not np.array_equal(runs[0]._normals(1, 0, 1), runs[1]._normals(1, 0, 1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float32_overflow_of_terminal_raises():
    """1e39 is finite in float64 but not in the oracle's float32 leaves."""
    b = q.simulate_scenario(q.build_grid(1.0, 1), 1, 0, 4, source=q.RandomSource(7))
    with pytest.raises(ValueError, match="not finite"):
        q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_constant(1e39, 1), branching=1000)


def test_progress_logged_per_root_node(caplog):
    b = small_bundle(2, 5)
    with caplog.at_level(logging.DEBUG, logger="qbsde.solver"):
        q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), branching=1000)
    lines = [r.getMessage() for r in caplog.records if r.name == "qbsde.solver"]
    assert len(lines) == 2
    assert lines[0].startswith("oracle node 0: 1 states, 1000000 leaves")
    assert lines[1].startswith("oracle node 1: 32 states, 32000 leaves")


def test_agreement_with_regression_on_two_steps():
    b = small_bundle(2, 6)
    drv = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    xi = q.terminal_affine(0.0, [1.0])
    oracle = q.nested_mc_oracle(b, drv, xi, branching=2000)
    reg_bundle = q.simulate_scenario(b.grid, 1, 0, 2**14, source=q.RandomSource(60))
    y0, se, _ = q.y0_with_se(reg_bundle, drv, xi)
    combined = np.hypot(se, oracle.meta["y0_se"])
    assert abs(oracle.y0 - y0) <= 3.0 * combined
