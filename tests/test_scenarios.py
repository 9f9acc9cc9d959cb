import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbsde as q
from qbsde.errors import CapacityError
from qbsde.solver import _stopped_clock


def test_uniform_grid_exact_nodes():
    grid = q.build_grid(1.0, 4)
    assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_mandatory_node_merge_and_sort():
    grid = q.build_grid(2.0, 2, [1 / 3])
    assert np.allclose(grid.nodes, [0.0, 1 / 3, 1.0, 2.0])
    assert 1 / 3 in grid.nodes


def test_counterexample_kinks_are_grid_nodes():
    grid = q.build_grid(2.0, 200, [1.0, 0.5, 1 / 3, 0.25])
    for node in (0.25, 1 / 3, 0.5, 1.0):
        assert node in grid.nodes


@pytest.mark.parametrize("bad", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 4, [2.0]), (1.0, 4, [-0.5])])
def test_grid_rejects_bad_arguments(bad):
    # a mandatory node must lie in [0, T]
    with pytest.raises(ValueError):
        q.build_grid(*bad)


@settings(max_examples=60, deadline=None)
@given(
    T=st.floats(0.1, 10.0),
    n=st.integers(1, 40),
    extra=st.lists(st.floats(0.0, 1.0), max_size=4),
)
@example(T=1.0, n=1, extra=[0.5, 0.9999999999999999])
def test_grid_properties(T, n, extra):
    mandatory = [e * T for e in extra]
    grid = q.build_grid(T, n, mandatory)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == T
    assert np.all(np.diff(grid.nodes) > 0)
    for m in mandatory:
        assert np.min(np.abs(grid.nodes - m)) <= 1e-9 * max(1.0, T)


def test_clock_kinds():
    # the clock-side Lipschitz constant c_A of A(t) <= c_A t is 0.8, checked by validate_assumptions
    b = q.simulate_scenario(q.build_grid(1.0, 4), 1, 0, 4, source=q.RandomSource(0))
    b = dataclasses.replace(b, clock_values=[0.0, 0.2, 0.4, 0.4, 0.4])

    def slope_clause(c_A):
        zero = q.make_builtin("zero")
        drv = dataclasses.replace(zero, params=dataclasses.replace(zero.params, beta=0.1, beta_bar=0.1, c_A=c_A))
        return q.validate_assumptions(drv, b).extra["clock_slope"]

    exact = slope_clause(0.8)
    assert exact["checked"] and exact["violations"] == 0
    tight = slope_clause(0.79)
    assert tight["violations"] == 2 and tight["max_margin"] == pytest.approx(0.005, abs=1e-12)
    with pytest.raises(ValueError):
        dataclasses.replace(q.simulate_scenario(q.build_grid(1.0, 1), 1, 0, 4), clock_values=[0.0, -1.0])


@pytest.mark.parametrize("values, match", [
    ([0.0, 0.5], "clock has 2 values, the grid 3 nodes"),
    ([0.1, 0.2, 0.3], "start at 0"),
    ([0.0, 0.4, 0.3], "never decrease"),
    ([0.0, np.nan, 0.5], "never decrease"),
], ids=["wrong-length", "nonzero-start", "decreasing", "nan"])
def test_bundle_rejects_bad_clock(values, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(q.simulate_scenario(q.build_grid(1.0, 2), 1, 0, 4), clock_values=values)


def test_factorization_consistency_under_scaled_clock():
    # B^T B dA must reproduce d<M> = I dt for any clock choice
    grid = q.build_grid(1.0, 8)
    b = dataclasses.replace(q.simulate_scenario(grid, 1, 0, 10, source=q.RandomSource(1)), clock_values=2 * grid.nodes)
    assert b.factor_b.shape == (grid.n_steps + 1,)
    assert np.allclose(b.factor_b[:-1] ** 2 * b.dA, grid.dt)


def test_coarsening_keeps_a_stopped_clock():
    fine = q.simulate_scenario(q.build_grid(1.0, 8), 1, 0, 16, source=q.RandomSource(4))
    # A stops at 0.5, a node of both grids, once the integral of alpha = 1 reaches the level
    stopped = _stopped_clock(fine, q.make_builtin("constant", {"value": 1.0}), 0.5)
    assert np.array_equal(stopped.clock_values, np.minimum(fine.grid.nodes, 0.5))
    coarse = q.coarsen_bundle(stopped, q.build_grid(1.0, 4))
    kept = [0, 2, 4, 6, 8]
    assert np.array_equal(coarse.clock_values, stopped.clock_values[kept])
    assert np.array_equal(coarse.factor_b, stopped.factor_b[kept])
    assert np.array_equal(coarse.factor_b, [1.0, 1.0, 0.0, 0.0, 0.0])


def test_terminal_moments_within_four_standard_errors():
    n = 100_000
    b = q.simulate_scenario(q.build_grid(1.0, 10), 1, 0, n, source=q.RandomSource(99))
    m_T = b.m_paths[:, -1, 0]
    assert abs(m_T.mean()) < 4.0 / np.sqrt(n)
    assert abs(m_T.var() - 1.0) < 4.0 * np.sqrt(2.0) / np.sqrt(n)


def test_orthogonal_noise_uncorrelated(bundle_orth):
    n = bundle_orth.n_paths
    dw = np.diff(bundle_orth.states, axis=0)
    for i in range(bundle_orth.grid.n_steps):
        corr = np.corrcoef(dw[i, :, 0], dw[i, :, 1])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)


def test_empirical_martingale_property(bundle_1d):
    n = bundle_1d.n_paths
    T = bundle_1d.grid.horizon
    m = bundle_1d.m_paths[:, :, 0]
    for i, t in enumerate(bundle_1d.grid.nodes[:-1]):
        gap = (m[:, -1] - m[:, i]).mean()
        assert abs(gap) < 4.0 * np.sqrt(T - t) / np.sqrt(n)


def test_reproducibility_bit_identical():
    grid = q.build_grid(1.0, 6)
    a = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(5))
    b = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(5))
    assert hashlib.sha256(a.m_paths.tobytes()).digest() == hashlib.sha256(b.m_paths.tobytes()).digest()
    assert np.array_equal(a.orth_paths, b.orth_paths)
    c = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(6))
    assert not np.array_equal(a.m_paths, c.m_paths)
    # the seed sequence (seed, 0) keeps the draws of the versions that had a stream id
    ref = np.random.default_rng(np.random.SeedSequence((5, 0))).standard_normal(8)
    assert np.array_equal(q.RandomSource(5).generator().standard_normal(8), ref)


def test_states_are_the_cumsum_of_the_draws():
    # blockwise, node-by-node sums do the additions of one cumsum over all
    # paths' draws, in its order; the last block is partial
    grid = q.build_grid(1.0, 7)
    n_paths = q.scenarios.SIMULATE_BLOCK + 905
    bundle = q.simulate_scenario(grid, 1, 1, n_paths, source=q.RandomSource(3))
    draws = q.RandomSource(3).generator().standard_normal((n_paths, 7, 2)) * np.sqrt(grid.dt)[None, :, None]
    want = np.concatenate([np.zeros((n_paths, 1, 2)), np.cumsum(draws, axis=1)], axis=1)
    assert bundle.states.transpose(1, 0, 2).tobytes() == want.tobytes()


def test_refinement_consistency_by_coarsening():
    fine = q.simulate_scenario(q.build_grid(1.0, 16), 1, 1, 300, source=q.RandomSource(11))
    coarse = q.coarsen_bundle(fine, q.build_grid(1.0, 4))
    # path values at shared nodes are bit-identical by construction ...
    assert np.array_equal(coarse.m_paths, fine.m_paths[:, ::4, :])
    assert np.array_equal(coarse.orth_paths, fine.orth_paths[:, ::4, :])
    # ... so coarse increments are the summed fine increments (up to fp reassociation)
    sums = np.diff(fine.states, axis=0).reshape(4, 4, 300, 2).sum(axis=1)
    assert np.allclose(np.diff(coarse.states, axis=0), sums, atol=1e-12)


def test_coarsened_bundle_differs_from_fresh_simulation():
    fine = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 64, source=q.RandomSource(3))
    coarse = q.coarsen_bundle(fine, q.build_grid(1.0, 4))
    fresh = q.simulate_scenario(q.build_grid(1.0, 4), 1, 0, 64, source=q.RandomSource(3))
    assert not np.array_equal(coarse.states, fresh.states)
    # coarsening twice keeps the fine paths' values at the kept nodes
    two = q.build_grid(1.0, 2)
    assert np.array_equal(q.coarsen_bundle(coarse, two).states, q.coarsen_bundle(fine, two).states)


def test_capacity_error(monkeypatch):
    grid = q.build_grid(1.0, 10)
    monkeypatch.setattr(q.scenarios, "DEFAULT_CAPACITY", 11 * 100 - 1)
    with pytest.raises(CapacityError):
        q.simulate_scenario(grid, 1, 0, 100)
    monkeypatch.setattr(q.scenarios, "DEFAULT_CAPACITY", 11 * 100)
    assert q.simulate_scenario(grid, 1, 0, 100).n_paths == 100


def test_bundle_immutable(bundle_1d):
    with pytest.raises(ValueError):
        bundle_1d.m_paths[0, 0, 0] = 1.0


class TestQuadraticVariation:
    """``integral_by_node``: the integral against (M, W_orth) and its quadratic variation."""

    def test_zero_integrand(self, bundle_1d):
        integral, qv = by_node(bundle_1d, np.zeros(1))
        assert np.array_equal(qv, np.zeros((bundle_1d.n_paths, bundle_1d.grid.n_steps + 1)))
        assert np.array_equal(integral, np.zeros((bundle_1d.n_paths, bundle_1d.grid.n_steps + 1)))

    def test_unit_integrand_equals_horizon(self, bundle_1d):
        integral, qv = by_node(bundle_1d, np.ones(1))
        assert np.allclose(qv[:, -1], 1.0)
        assert np.allclose(integral[:, -1], bundle_1d.terminal_state[:, 0], atol=1e-12)

    def test_two_components(self):
        b = q.simulate_scenario(q.build_grid(2.0, 8), 2, 0, 10, source=q.RandomSource(3))
        qv = by_node(b, np.array([1.0, 1.0]))[1]
        assert np.allclose(qv[:, -1], 4.0)

    def test_dimension_mismatch(self, bundle_1d):
        with pytest.raises(ValueError):
            list(q.integral_by_node(bundle_1d, [np.ones((3, 2))] * bundle_1d.grid.n_steps))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-3.0, 3.0))
    def test_quadratic_scaling(self, bundle_orth, c):
        base = by_node(bundle_orth, np.ones(2))[1]
        scaled = by_node(bundle_orth, np.full(2, c))[1]
        assert np.allclose(scaled, c * c * base)

    def test_running_values_end_at_totals(self, bundle_orth):
        zeta = np.linspace(-1.0, 1.0, bundle_orth.grid.n_steps * 2).reshape(-1, 2)
        dstates = np.diff(bundle_orth.states, axis=0)
        running, running_qv = by_node(bundle_orth, zeta)
        assert running.shape == running_qv.shape == (bundle_orth.n_paths, bundle_orth.grid.n_steps + 1)
        assert np.array_equal(running[:, 0], np.zeros(bundle_orth.n_paths))
        assert np.allclose(running[:, -1], np.einsum("kw,knw->n", zeta, dstates), atol=1e-12)
        assert np.allclose(running_qv[:, -1], (zeta**2).sum(axis=1) @ bundle_orth.dt, atol=1e-12)

    def test_integral_matches_one_contraction_over_increments(self, bundle_orth):
        zeta = np.random.default_rng(5).normal(size=(bundle_orth.n_paths, bundle_orth.grid.n_steps, 2))
        steps = np.einsum("nkw,knw->nk", zeta, np.diff(bundle_orth.states, axis=0))
        running = by_node(bundle_orth, zeta)[0]
        assert np.array_equal(running[:, 1:], np.cumsum(steps, axis=1))

    def test_quadratic_variation_alone(self, bundle_orth):
        """The second output is the quadratic variation sum_i |zeta_i|^2 dt_i, node by node."""
        zeta = np.random.default_rng(4).normal(size=(bundle_orth.n_paths, bundle_orth.grid.n_steps, 2))
        steps = (zeta**2).sum(axis=2) * bundle_orth.dt
        running = by_node(bundle_orth, zeta)[1]
        assert np.allclose(running[:, -1], steps.sum(axis=1), rtol=1e-12)
        assert np.array_equal(running[:, 0], np.zeros(bundle_orth.n_paths))
        assert np.allclose(running[:, 1:], np.cumsum(steps, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("layout", ["node_major", "path_major"])
    def test_by_node_equals_the_running_surfaces(self, bundle_orth, layout):
        """The streamed rows are bit for bit the (n, K+1) running surfaces they replace."""
        shape = (bundle_orth.grid.n_steps, bundle_orth.n_paths, 2)
        zeta = np.random.default_rng(6).normal(size=shape).transpose(1, 0, 2)
        if layout == "path_major":
            zeta = np.ascontiguousarray(zeta)
        dstates = np.diff(bundle_orth.states, axis=0)
        integral = np.zeros((bundle_orth.n_paths, bundle_orth.grid.n_steps + 1))
        for i in range(bundle_orth.grid.n_steps):
            integral[:, i + 1] = integral[:, i] + np.einsum("nw,nw->n", zeta[:, i], dstates[i])
        qv = np.zeros_like(integral)
        np.cumsum(np.einsum("nkw,nkw->nk", zeta, zeta) * bundle_orth.dt, axis=1, out=qv[:, 1:])
        running, running_qv = by_node(bundle_orth, zeta)
        assert np.array_equal(running, integral)
        assert np.array_equal(running_qv, qv)

    def test_by_node_rejects_a_step_of_the_wrong_width(self, bundle_orth):
        """A step of the wrong width, or fewer or more steps than the bundle's K."""
        K = bundle_orth.grid.n_steps
        with pytest.raises(ValueError):
            list(q.integral_by_node(bundle_orth, [np.ones(3)] * K))
        with pytest.raises(ValueError, match=f"integrand has 2 steps, the bundle {K}"):
            list(q.integral_by_node(bundle_orth, [np.ones(2)] * 2))
        with pytest.raises(ValueError, match=f"more than {K} steps, the bundle {K}"):
            list(q.integral_by_node(bundle_orth, [np.ones(2)] * (K + 1)))


def by_node(bundle, zeta):
    """``integral_by_node`` stacked into (n_paths, K+1) surfaces."""
    z = np.broadcast_to(np.asarray(zeta, dtype=float), (bundle.n_paths, bundle.grid.n_steps, bundle.states.shape[2]))
    rows = list(q.integral_by_node(bundle, (z[:, i] for i in range(bundle.grid.n_steps))))
    return np.stack([r[0] for r in rows], axis=1), np.stack([r[1] for r in rows], axis=1)


def test_bundles_and_grids_compare_by_identity_and_hash():
    """``==`` and ``hash`` go by object identity, without comparing arrays."""
    bundle = q.simulate_scenario(q.build_grid(1.0, 2), 1, 0, 4, source=q.RandomSource(3))
    same = bundle.slice_paths(0, bundle.n_paths)
    assert bundle == bundle and bundle != same
    grid = q.build_grid(1.0, 2)
    assert grid == grid and grid != q.build_grid(1.0, 2)
    assert len({bundle, same, bundle}) == 2 and len({grid, grid}) == 1


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    steps=st.integers(1, 6),
    dims=st.tuples(st.integers(1, 2), st.integers(0, 2)),
    n_paths=st.integers(1, 16),
    # the identity clock, a scaled clock rate * t, or a clock with these step increments dA (0 included)
    clock=st.one_of(st.none(), st.floats(0.1, 4.0), st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6)),
)
@example(seed=0, steps=1, dims=(2, 0), n_paths=1, clock=[2.2250738585e-313] * 6)
def test_derived_copies_keep_paths_and_clock(seed, steps, dims, n_paths, clock):
    grid = q.build_grid(1.0, steps)
    if isinstance(clock, float):
        clock = clock * grid.nodes
    elif clock is not None:
        clock = np.concatenate([[0.0], np.cumsum(clock[:steps])])
    b = q.simulate_scenario(grid, *dims, n_paths, source=q.RandomSource(seed))
    if clock is not None:
        b = dataclasses.replace(b, clock_values=clock)
    sub = b.slice_paths(n_paths // 2, n_paths)
    # every derived copy rebuilds the same clock, factor, paths and states
    for copy in (b.slice_paths(0, n_paths), q.coarsen_bundle(b, b.grid)):
        for name in ("clock_values", "factor_b", "m_paths", "orth_paths"):
            assert np.array_equal(getattr(copy, name), getattr(b, name)), name
        for i in range(steps + 1):
            assert np.array_equal(copy.state(i), b.state(i))
    # a slice holds the same paths, also when cut from a derived copy
    assert np.array_equal(q.coarsen_bundle(b, b.grid).slice_paths(n_paths // 2, n_paths).states, sub.states)
    assert np.array_equal(sub.states, b.states[:, n_paths // 2 :])


def test_factor_finite_for_tiny_clock_step():
    # dt / dA overflows here although sqrt(dt) / sqrt(dA) is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = q.simulate_scenario(q.build_grid(1.0, 1), 1, 0, 2, source=q.RandomSource(0))
        b = dataclasses.replace(b, clock_values=[0.0, 2.2250738585e-313])
    assert np.all(np.isfinite(b.factor_b))
    assert b.factor_b[0] == pytest.approx(1.0 / math.sqrt(2.2250738585e-313), rel=1e-12)


def test_slice_paths_view(bundle_1d):
    sub = bundle_1d.slice_paths(10, 20)
    assert sub.n_paths == 10
    assert np.array_equal(sub.m_paths, bundle_1d.m_paths[10:20])
    # a slice from path 0 holds the draws of a fresh simulation
    head = bundle_1d.slice_paths(0, 10)
    fresh = q.simulate_scenario(bundle_1d.grid, 1, 0, 10, source=bundle_1d.source)
    assert np.array_equal(bundle_1d.slice_paths(5, 25).slice_paths(5, 15).states, sub.states)
    assert np.array_equal(head.states, fresh.states)
    assert np.shares_memory(sub.states, bundle_1d.states)
