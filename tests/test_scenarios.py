import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbsde as q
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
    assert pw.slope_bound() == pytest.approx(0.8)
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
    dm = bundle_orth.dm[:, :, 0]
    do = bundle_orth.dorth[:, :, 0]
    for i in range(bundle_orth.grid.n_steps):
        corr = np.corrcoef(dm[:, i], do[:, i])[0, 1]
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
    sums = fine.dm.reshape(300, 4, 4, 1).sum(axis=2)
    assert np.allclose(coarse.dm, sums, atol=1e-12)


def test_capacity_error():
    with pytest.raises(CapacityError):
        q.simulate_scenario(q.build_grid(1.0, 10), 1, 0, 10**6, capacity=10**4)


def test_bundle_immutable(bundle_1d):
    with pytest.raises(ValueError):
        bundle_1d.m_paths[0, 0, 0] = 1.0


class TestQuadraticVariation:
    def test_zero_integrand(self, bundle_1d):
        assert np.array_equal(q.quadratic_variation(bundle_1d, np.zeros(1)), np.zeros(bundle_1d.n_paths))

    def test_unit_integrand_equals_horizon(self, bundle_1d):
        qv = q.quadratic_variation(bundle_1d, np.ones(1))
        assert np.allclose(qv, 1.0)

    def test_two_components(self):
        b = q.simulate_scenario(q.build_grid(2.0, 8), 2, 0, 10, source=q.RandomSource(3))
        qv = q.quadratic_variation(b, np.array([1.0, 1.0]))
        assert np.allclose(qv, 4.0)

    def test_dimension_mismatch(self, bundle_1d):
        with pytest.raises(ValueError):
            q.quadratic_variation(bundle_1d, np.ones((3, 2)))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-3.0, 3.0))
    def test_quadratic_scaling(self, bundle_orth, c):
        base = q.quadratic_variation(bundle_orth, np.ones(1))
        scaled = q.quadratic_variation(bundle_orth, np.full(1, c))
        assert np.allclose(scaled, c * c * base)


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
def test_cache_roundtrip_keeps_key(seed, stream, steps, dims, n_paths, clock):
    b = q.simulate_scenario(q.build_grid(1.0, steps), *dims, n_paths, clock=clock, source=q.RandomSource(seed, stream))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.npz")
        q.save_scenario(b, path)
        loaded = q.load_scenario(path)
    assert loaded.cache_key() == b.cache_key()
    assert np.array_equal(loaded.m_paths, b.m_paths)


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
