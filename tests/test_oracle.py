"""Nested Monte Carlo oracle on tiny grids (the 3-step cross-checks against
the regression solver run in the acceptance suite)."""

import dataclasses
import logging
import os
import threading

import numpy as np
import pytest

import qbsde as q
from qbsde import solver
from qbsde.errors import CapacityError, MomentFailureError


def small_bundle(steps, seed, dim_m=1, nodes=None):
    grid = q.TimeGrid(np.asarray(nodes)) if nodes is not None else q.build_grid(1.0, steps)
    return q.simulate_scenario(grid, dim_m, 0, 32, source=q.RandomSource(seed))


def test_constant_terminal_exact():
    b = small_bundle(1, 1)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_constant(2.5, 1), branching=1000)
    # 32 paths: the export rows are all of Y
    assert np.allclose(field.y_export, 2.5, atol=1e-6)


def test_antithetic_leaves_exact_for_affine_terminal():
    """Each leaf pair s + sigma*eps, s - sigma*eps averages to s, so a martingale
    terminal is reproduced to float32 rounding (independent leaves missed by 0.06)."""
    b = small_bundle(1, 1)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), branching=1000)
    assert abs(field.y0) <= 1e-6


def test_leaf_root_se_from_pair_means():
    """On a 1-step grid the root is the leaf level; |W_1| takes the same value
    on both leaves of a pair, so an SE that treated the b leaves as independent
    would be sqrt(2) too small.  The z-scores of E|W_1| = sqrt(2/pi) have unit spread."""
    grid = q.build_grid(1.0, 1)
    xi = q.terminal_abs(0.0, [1.0])
    z = []
    for seed in range(300):
        b = q.simulate_scenario(grid, 1, 0, 4, source=q.RandomSource(seed))
        field = q.nested_mc_oracle(b, q.make_builtin("zero"), xi, branching=1000)
        z.append((field.y0 - np.sqrt(2.0 / np.pi)) / field.meta["y0_se"])
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


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


def test_preconditions(monkeypatch):
    drv = q.make_builtin("zero")
    xi = q.terminal_constant(0.0, 1)
    with pytest.raises(ValueError, match="4 nodes"):
        q.nested_mc_oracle(small_bundle(4, 4), drv, xi, branching=1000)
    with pytest.raises(ValueError, match="at least 1000"):
        q.nested_mc_oracle(small_bundle(2, 4), drv, xi, branching=500)
    with pytest.raises(ValueError, match="even"):
        q.nested_mc_oracle(small_bundle(2, 4), drv, xi, branching=1001)
    monkeypatch.setattr(q.solver, "ORACLE_CAPACITY", 10**5)
    with pytest.raises(CapacityError):
        q.nested_mc_oracle(small_bundle(2, 4), drv, xi, branching=1000)


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
            assert np.array_equal(field.y_export, ref.y_export)
            assert np.array_equal(field.z, ref.z)
            assert np.array_equal(field.z_orth, ref.z_orth)
            assert field.meta["y0_se"] == ref.meta["y0_se"]


def test_terminal_without_affine_form_runs_on_one_thread(monkeypatch):
    """A terminal without an affine form may call BLAS, which would start BLAS
    threads inside every worker; the oracle calls it on the calling thread alone."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    affine = q.terminal_affine(0.0, [1.0])
    threads = set()

    def fn(s):
        threads.add(threading.get_ident())
        return affine.fn(s)

    b = small_bundle(2, 5)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), dataclasses.replace(affine, fn=fn, affine=None), branching=1000)
    assert threads == {threading.get_ident()}
    # the draws do not depend on the thread count
    again = q.nested_mc_oracle(b, q.make_builtin("zero"), affine, branching=1000)
    assert np.array_equal(field.y_export, again.y_export)


def test_field_parts_come_from_the_oracle_y():
    """Y_0, Y* and the export rows are the oracle's own Y, which on 32 paths the export rows hold whole."""
    b = small_bundle(2, 8)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), branching=1000)
    assert field.y_export.shape == (3, 32)
    assert np.array_equal(field.y_start, field.y_export[0])
    assert np.array_equal(field.y_sup, np.abs(field.y_export).max(axis=0))
    assert np.array_equal(field.y_export[-1], b.terminal_state[:, 0])


def test_field_node_major():
    """Like the regression fields, the oracle's node axis is outermost in memory."""
    b = small_bundle(2, 8)
    field = q.nested_mc_oracle(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), branching=1000)
    assert field.y_export.flags.c_contiguous
    assert field.integrand.transpose(1, 0, 2).flags.c_contiguous


def test_root_nodes_draw_distinct_branches():
    """The estimates at nodes 0 and 1 both resimulate node 1 to node 2; the
    draws are keyed by the root node, so they never share branches."""
    b = small_bundle(2, 5)
    runs = [solver._OracleRun(b, q.make_builtin("zero"), q.terminal_affine(0.0, [1.0]), 1000, root=i)
            for i in (0, 1)]
    assert not np.array_equal(runs[0]._normals(1, 0, 1), runs[1]._normals(1, 0, 1))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float32_overflow_of_terminal_raises():
    """1e39 is finite in float64 but not in the oracle's float32 leaves."""
    b = q.simulate_scenario(q.build_grid(1.0, 1), 1, 0, 4, source=q.RandomSource(7))
    with pytest.raises(MomentFailureError, match="not finite"):
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
