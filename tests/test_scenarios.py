import hashlib
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbsde as q
from qbsde.drivers import SamplingPlan
from qbsde.errors import CapacityError


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


@pytest.mark.parametrize("bad", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_grid_rejects_bad_arguments(bad):
    T, n = bad
    with pytest.raises(ValueError):
        q.build_grid(T, n)


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
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(q.ClockSpec("identity").at(t), t)
    assert np.allclose(q.ClockSpec("scaled", rate=2.0).at(t), 2 * t)
    pw = q.ClockSpec("piecewise", times=(0.0, 0.5, 1.0), values=(0.0, 0.4, 0.4))
    assert np.allclose(pw.at(t), [0.0, 0.4, 0.4])
    # the clock-side Lipschitz constant c_A of A(t) <= c_A t is 0.8, checked by validate_assumptions
    b = q.simulate_scenario(q.build_grid(1.0, 4), 1, 0, 4, clock=pw, source=q.RandomSource(0))

    def slope_clause(c_A):
        drv = q.make_builtin("zero").with_declared(beta=0.1, beta_bar=0.1, c_A=c_A)
        return q.validate_assumptions(drv, b, SamplingPlan(n_probes=100)).clause("clock_slope")

    exact = slope_clause(0.8)
    assert exact.checked and exact.violations == 0
    tight = slope_clause(0.79)
    assert tight.violations == 2 and tight.max_margin == pytest.approx(0.005, abs=1e-12)
    with pytest.raises(ValueError):
        q.ClockSpec("piecewise", times=(0.0, 1.0), values=(0.0, -1.0))
    with pytest.raises(ValueError):
        q.ClockSpec("warped")


def test_factorization_consistency_under_scaled_clock():
    # B^T B dA must reproduce d<M> = I dt for any clock choice
    grid = q.build_grid(1.0, 8)
    b = q.simulate_scenario(grid, 1, 0, 10, clock=q.ClockSpec("scaled", rate=2.0),
                            source=q.RandomSource(1))
    bb_da = np.array([b.factor_b[i, 0, 0] ** 2 * (b.clock_values[i + 1] - b.clock_values[i])
                      for i in range(grid.n_steps)])
    assert np.allclose(bb_da, grid.dt)


def test_terminal_moments_within_four_standard_errors():
    n = 100_000
    b = q.simulate_scenario(q.build_grid(1.0, 10), 1, 0, n, source=q.RandomSource(99))
    m_T = b.m_paths[:, -1, 0]
    assert abs(m_T.mean()) < 4.0 / np.sqrt(n)
    assert abs(m_T.var() - 1.0) < 4.0 * np.sqrt(2.0) / np.sqrt(n)


def test_orthogonal_noise_uncorrelated(bundle_orth):
    n = bundle_orth.n_paths
    dw = bundle_orth.increments
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
    a = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(5, stream=3))
    b = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(5, stream=3))
    assert hashlib.sha256(a.m_paths.tobytes()).digest() == hashlib.sha256(b.m_paths.tobytes()).digest()
    assert np.array_equal(a.orth_paths, b.orth_paths)
    c = q.simulate_scenario(grid, 2, 1, 500, source=q.RandomSource(5, stream=4))
    assert not np.array_equal(a.m_paths, c.m_paths)


def test_refinement_consistency_by_coarsening():
    fine = q.simulate_scenario(q.build_grid(1.0, 16), 1, 1, 300, source=q.RandomSource(11))
    coarse = q.coarsen_bundle(fine, q.build_grid(1.0, 4))
    # path values at shared nodes are bit-identical by construction ...
    assert np.array_equal(coarse.m_paths, fine.m_paths[:, ::4, :])
    assert np.array_equal(coarse.orth_paths, fine.orth_paths[:, ::4, :])
    # ... so coarse increments are the summed fine increments (up to fp reassociation)
    sums = fine.increments.reshape(4, 4, 300, 2).sum(axis=1)
    assert np.allclose(coarse.increments, sums, atol=1e-12)


def test_coarsened_bundle_key_differs_from_fresh_simulation(tmp_path):
    fine = q.simulate_scenario(q.build_grid(1.0, 16), 1, 0, 64, source=q.RandomSource(3))
    coarse = q.coarsen_bundle(fine, q.build_grid(1.0, 4))
    fresh = q.simulate_scenario(q.build_grid(1.0, 4), 1, 0, 64, source=q.RandomSource(3))
    assert not np.array_equal(coarse.states, fresh.states)
    assert coarse.cache_key() != fresh.cache_key()
    # the simulation grid is kept through slicing, further coarsening and save/load
    assert coarse.slice_paths(0, 64).cache_key() == coarse.cache_key()
    assert q.coarsen_bundle(coarse, coarse.grid).cache_key() == coarse.cache_key()
    two = q.build_grid(1.0, 2)
    assert q.coarsen_bundle(coarse, two).cache_key() == q.coarsen_bundle(fine, two).cache_key()
    path = tmp_path / "coarse.npz"
    q.save_scenario(coarse, path)
    loaded = q.load_scenario(path)
    assert loaded.simulated_on == fine.grid.key()
    assert loaded.cache_key() == coarse.cache_key()


def test_capacity_error():
    with pytest.raises(CapacityError):
        q.simulate_scenario(q.build_grid(1.0, 10), 1, 0, 10**6, capacity=10**4)


def test_bundle_immutable(bundle_1d):
    with pytest.raises(ValueError):
        bundle_1d.m_paths[0, 0, 0] = 1.0


class TestQuadraticVariation:
    """``stochastic_integral``: the integral against (M, W_orth) and its quadratic variation."""

    def test_zero_integrand(self, bundle_1d):
        integral, qv = q.stochastic_integral(bundle_1d, np.zeros(1))
        assert np.array_equal(qv, np.zeros(bundle_1d.n_paths))
        assert np.array_equal(integral, np.zeros(bundle_1d.n_paths))

    def test_unit_integrand_equals_horizon(self, bundle_1d):
        integral, qv = q.stochastic_integral(bundle_1d, np.ones(1))
        assert np.allclose(qv, 1.0)
        assert np.allclose(integral, bundle_1d.terminal_state[:, 0], atol=1e-12)

    def test_two_components(self):
        b = q.simulate_scenario(q.build_grid(2.0, 8), 2, 0, 10, source=q.RandomSource(3))
        qv = q.stochastic_integral(b, np.array([1.0, 1.0]))[1]
        assert np.allclose(qv, 4.0)

    def test_dimension_mismatch(self, bundle_1d):
        with pytest.raises(ValueError):
            q.stochastic_integral(bundle_1d, np.ones((3, 2)))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-3.0, 3.0))
    def test_quadratic_scaling(self, bundle_orth, c):
        base = q.stochastic_integral(bundle_orth, np.ones(2))[1]
        scaled = q.stochastic_integral(bundle_orth, np.full(2, c))[1]
        assert np.allclose(scaled, c * c * base)

    def test_running_values_end_at_totals(self, bundle_orth):
        zeta = np.linspace(-1.0, 1.0, bundle_orth.grid.n_steps * 2).reshape(-1, 2)
        integral, qv = q.stochastic_integral(bundle_orth, zeta)
        running, running_qv = q.stochastic_integral(bundle_orth, zeta, running=True)
        assert running.shape == running_qv.shape == (bundle_orth.n_paths, bundle_orth.grid.n_steps + 1)
        assert np.array_equal(running[:, 0], np.zeros(bundle_orth.n_paths))
        assert np.allclose(running[:, -1], integral, atol=1e-12)
        assert np.allclose(running_qv[:, -1], qv, atol=1e-12)


def test_scenario_cache_roundtrip(tmp_path):
    b = q.simulate_scenario(q.build_grid(1.0, 5), 1, 1, 64,
                            clock=q.ClockSpec("scaled", rate=0.5), source=q.RandomSource(8))
    path = tmp_path / "bundle.npz"
    q.save_scenario(b, path)
    loaded = q.load_scenario(path)
    assert np.array_equal(loaded.m_paths, b.m_paths)
    assert np.array_equal(loaded.orth_paths, b.orth_paths)
    assert np.array_equal(loaded.grid.nodes, b.grid.nodes)
    assert loaded.clock == b.clock
    assert loaded.cache_key() == b.cache_key()


def _piecewise_clocks():
    steps = st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 2.0)), min_size=1, max_size=4)
    return steps.map(lambda incs: q.ClockSpec(
        "piecewise",
        times=tuple(np.concatenate([[0.0], np.cumsum([dt for dt, _ in incs])]).tolist()),
        values=tuple(np.concatenate([[0.0], np.cumsum([da for _, da in incs])]).tolist()),
    ))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    stream=st.integers(0, 1000),
    steps=st.integers(1, 6),
    dims=st.tuples(st.integers(1, 2), st.integers(0, 2)),
    n_paths=st.integers(1, 16),
    clock=st.one_of(st.just(q.ClockSpec()), st.floats(0.1, 4.0).map(lambda r: q.ClockSpec("scaled", rate=r)),
                    _piecewise_clocks()),
)
@example(seed=0, stream=0, steps=1, dims=(2, 0), n_paths=1,
         clock=q.ClockSpec("piecewise", times=(0.0, 1.0), values=(0.0, 2.2250738585e-313)))
def test_cache_roundtrip_keeps_key(seed, stream, steps, dims, n_paths, clock):
    b = q.simulate_scenario(q.build_grid(1.0, steps), *dims, n_paths, clock=clock, source=q.RandomSource(seed, stream))
    sub = b.slice_paths(n_paths // 2, n_paths)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.npz")
        q.save_scenario(b, path)
        loaded = q.load_scenario(path)
        q.save_scenario(sub, path)
        loaded_sub = q.load_scenario(path)
    # every derived copy rebuilds the same clock, factor, paths and states
    for copy in (loaded, b.slice_paths(0, n_paths), q.coarsen_bundle(b, b.grid)):
        assert copy.cache_key() == b.cache_key()
        for name in ("clock_values", "factor_b", "m_paths", "orth_paths"):
            assert np.array_equal(getattr(copy, name), getattr(b, name)), name
        for i in range(steps + 1):
            assert np.array_equal(copy.state(i), b.state(i))
    # a saved slice keeps its place in the stream
    assert loaded_sub.first_path == n_paths // 2
    assert loaded_sub.cache_key() == sub.cache_key()
    assert np.array_equal(loaded_sub.states, b.states[:, n_paths // 2 :])


def test_factor_finite_for_tiny_clock_step():
    # dt / dA overflows here although sqrt(dt) / sqrt(dA) is finite
    clock = q.ClockSpec("piecewise", times=(0.0, 1.0), values=(0.0, 2.2250738585e-313))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = q.simulate_scenario(q.build_grid(1.0, 1), 1, 0, 2, clock=clock, source=q.RandomSource(0))
    assert np.all(np.isfinite(b.factor_b))
    assert b.factor_b[0, 0, 0] == pytest.approx(1.0 / math.sqrt(2.2250738585e-313), rel=1e-12)


@pytest.mark.parametrize("key, value, match", [("format_version", 99, "version"), ("cache_key", "0" * 16, "cache key")],
                         ids=["format_version", "cache_key"])
def test_cache_rejects_unknown_version(tmp_path, key, value, match):
    import json

    b = q.simulate_scenario(q.build_grid(1.0, 3), 1, 0, 8, source=q.RandomSource(2))
    path = tmp_path / "bundle.npz"
    q.save_scenario(b, path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        header[key] = value
        arrays = {k: data[k] for k in data.files}
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=match):
        q.load_scenario(path)


def test_slice_paths_view(bundle_1d):
    sub = bundle_1d.slice_paths(10, 20)
    assert sub.n_paths == 10
    assert np.array_equal(sub.m_paths, bundle_1d.m_paths[10:20])
    # slices with different paths have different identities; a slice from
    # path 0 holds the draws of a fresh simulation and shares its key
    head = bundle_1d.slice_paths(0, 10)
    fresh = q.simulate_scenario(bundle_1d.grid, 1, 0, 10, source=bundle_1d.source)
    assert sub.cache_key() != head.cache_key()
    assert head.cache_key() == fresh.cache_key()
    assert bundle_1d.slice_paths(5, 25).slice_paths(5, 15).cache_key() == sub.cache_key()
    assert np.array_equal(head.states, fresh.states)
    assert np.shares_memory(sub.states, bundle_1d.states)
