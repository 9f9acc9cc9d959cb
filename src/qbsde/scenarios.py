"""Time grids, Brownian scenario bundles and the deterministic clock/factor pair.

The driving noise is always a standard d-dimensional Brownian motion, so its
predictable quadratic variation is ``I * t``.  What varies is the chosen
factorization into a clock ``A`` and a factor ``B`` with ``B^T B dA = I dt``.
A clock is its values at the grid nodes; on each step B is the scalar
``b = sqrt(dt / dA)`` times I, and the identity clock ``A(t) = t`` gives b = 1.
Orthogonal noise is carried by extra independent Brownian components.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

# Hard ceiling on n_paths * n_nodes * n_components for a single bundle.
DEFAULT_CAPACITY = 200_000_000
# paths whose increments ``simulate_scenario`` draws at once
SIMULATE_BLOCK = 4096


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error (zero for a single value)."""
    values = np.asarray(values, dtype=float)
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return m, se


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < ... < t_K = T; compared and hashed by identity."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", _freeze(nodes))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.nodes)

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.nodes - t)))
        if abs(self.nodes[i] - t) > 1e-9:
            raise ValueError(f"time {t} is not a grid node")
        return i


def build_grid(T: float, n_steps: int, mandatory: list[float] | None = None) -> TimeGrid:
    """Uniform grid on [0, T] augmented with mandatory nodes.

    A mandatory node closer than ``1e-9 * max(1, T)`` to an existing node
    replaces it, so requested kink locations are grid nodes exactly.
    """
    if not T > 0:
        raise ValueError("horizon T must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    nodes = list(np.linspace(0.0, T, n_steps + 1))
    tol = 1e-9 * max(1.0, T)
    for m in sorted(set(float(x) for x in (mandatory or []))):
        if m < 0 or m > T:
            raise ValueError(f"mandatory node {m} outside [0, {T}]")
        j = int(np.argmin([abs(t - m) for t in nodes]))
        if abs(nodes[j] - m) <= tol:
            # endpoints stay pinned at 0 and T
            if 0.0 < nodes[j] < T:
                nodes[j] = m
        else:
            nodes.append(m)
    return TimeGrid(np.array(sorted(nodes)))


@dataclass(frozen=True)
class RandomSource:
    """The seed; a fixed seed reproduces bit-identical bundles.  The 0 beside
    it in the seed sequence keeps the draws of earlier versions."""

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, 0)))


@dataclass(frozen=True, eq=False)
class ScenarioBundle:
    """Simulated paths of the driving martingale M and the orthogonal noise W_orth on a grid.

    ``states`` is the only stored copy of the paths: the (M, W_orth) values,
    node-major, shape (K+1, n_paths, dim_m + dim_orth), with M_0 = W_orth_0 = 0.
    ``state(i)`` is the contiguous view ``states[i]``; ``m_paths``
    (n_paths, K+1, dim_m) and ``orth_paths`` (n_paths, K+1, dim_orth) are
    read-only path-major views of it.  ``clock_values`` holds the clock A at
    each grid node: it starts at 0 and never decreases.  ``factor_b`` is
    derived from it on construction: ``factor_b[i]`` is the scalar b with
    B = b I on step [t_i, t_{i+1}), 0 where dA = 0, and the terminal slot
    repeats the last step.  ``source`` seeds the oracle's resimulation draws.
    A bundle is immutable after construction, and ``==`` and ``hash`` go by
    object identity.
    """

    grid: TimeGrid
    dim_m: int
    states: np.ndarray
    clock_values: np.ndarray
    source: RandomSource
    factor_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.states.ndim != 3 or self.states.shape[0] != self.grid.n_steps + 1 or self.states.shape[2] < self.dim_m:
            raise ValueError(f"states shape {self.states.shape} does not match the grid and dim_m")
        _freeze(self.states)
        a_vals = np.array(self.clock_values, dtype=float)
        if a_vals.shape != self.grid.nodes.shape:
            raise ValueError(f"clock has {a_vals.size} values, the grid {self.grid.nodes.size} nodes")
        da = np.diff(a_vals)
        if a_vals[0] != 0.0 or not np.all(da >= 0):
            raise ValueError("clock must start at 0 and never decrease")
        factor = np.zeros(a_vals.size)
        pos = da > 0
        # two roots, not the root of the ratio: dt / dA overflows for tiny dA
        factor[:-1][pos] = np.sqrt(self.grid.dt[pos]) / np.sqrt(da[pos])
        factor[-1] = factor[-2]
        object.__setattr__(self, "clock_values", _freeze(a_vals))
        object.__setattr__(self, "factor_b", _freeze(factor))

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    @property
    def dim_orth(self) -> int:
        return self.states.shape[2] - self.dim_m

    @property
    def m_paths(self) -> np.ndarray:
        return self.states[:, :, : self.dim_m].transpose(1, 0, 2)

    @property
    def orth_paths(self) -> np.ndarray:
        return self.states[:, :, self.dim_m :].transpose(1, 0, 2)

    @property
    def dt(self) -> np.ndarray:
        return self.grid.dt

    @property
    def dA(self) -> np.ndarray:
        return np.diff(self.clock_values)

    def state(self, i: int) -> np.ndarray:
        """Markov state (M, W_orth) at node i, shape (n_paths, dim_m + dim_orth)."""
        return self.states[i]

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]

    def slice_paths(self, lo: int, hi: int) -> "ScenarioBundle":
        """Read-only sub-bundle over a contiguous path block."""
        return dataclasses.replace(self, states=self.states[:, lo:hi])


def simulate_scenario(
    grid: TimeGrid,
    dim_m: int,
    dim_orth: int,
    n_paths: int,
    clock_values: np.ndarray | None = None,
    source: RandomSource | None = None,
) -> ScenarioBundle:
    """Simulate independent Gaussian increments with variance dt per component.

    The orthogonal components are drawn jointly with the driving ones from a
    single stream, which makes the draw order (hence the bundle) a pure
    function of (seed, grid, dims, n_paths), also when drawn ``SIMULATE_BLOCK``
    paths at a time (one block beside the bundle) and summed node by node into
    the node-major states: a cumsum's additions, in its order.  The clock is
    A(t) = t at the grid nodes unless ``clock_values`` gives A there.
    """
    if dim_m < 1 or dim_orth < 0:
        raise ValueError("need dim_m >= 1 and dim_orth >= 0")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    source = source or RandomSource(seed=0)
    K = grid.n_steps
    total = n_paths * (K + 1) * (dim_m + dim_orth)
    if total > DEFAULT_CAPACITY:
        raise CapacityError(f"bundle size {total} exceeds capacity {DEFAULT_CAPACITY}")

    rng = source.generator()
    sq_dt = np.sqrt(grid.dt)
    states = np.zeros((K + 1, n_paths, dim_m + dim_orth))
    # one buffer: a fresh block would be allocated while the last one is alive
    block = np.empty((min(SIMULATE_BLOCK, n_paths), K, dim_m + dim_orth))
    for lo in range(0, n_paths, SIMULATE_BLOCK):
        rows = states[:, lo : lo + SIMULATE_BLOCK]
        normals = rng.standard_normal(out=block[: rows.shape[1]])
        for k in range(K):
            np.add(rows[k], normals[:, k] * sq_dt[k], out=rows[k + 1])
    return ScenarioBundle(grid=grid, dim_m=dim_m, states=states,
                          clock_values=grid.nodes if clock_values is None else clock_values, source=source)


def coarsen_bundle(bundle: ScenarioBundle, coarse_grid: TimeGrid) -> ScenarioBundle:
    """Restrict a bundle to a sub-grid; paths and clock keep their values at
    the kept nodes, so coarse increments are sums of fine ones.

    Every coarse node must already be a node of the fine grid.
    """
    idx = np.array([bundle.grid.index_of(t) for t in coarse_grid.nodes])
    return dataclasses.replace(bundle, grid=coarse_grid, states=bundle.states[idx],
                               clock_values=bundle.clock_values[idx])


def integral_by_node(bundle: ScenarioBundle, steps):
    """The integral sum_i zeta_i . (dM, dW_orth)_i and its quadratic variation
    sum_i |zeta_i|^2 dt_i, per path, at t_0, ..., t_K, one node at a time.

    ``steps`` gives zeta on [t_0, t_1), ..., [t_{K-1}, t_K) in turn, K steps
    each broadcastable to (n_paths, dim_m + dim_orth), so a caller can form
    each step's integrand as it goes; another count or shape is a
    ``ValueError``.  Yields the (n_paths,) running values from 0, so no
    (n_paths, K+1) surface is built; a terminal-only caller reads the last pair.
    """
    states, dt, n, K = bundle.states, bundle.dt, bundle.n_paths, bundle.grid.n_steps
    integral, qv = np.zeros(n), np.zeros(n)
    yield integral, qv
    i = 0
    for zeta in steps:
        if i == K:
            raise ValueError(f"integrand has more than {K} steps, the bundle {K}")
        z = np.broadcast_to(np.asarray(zeta, dtype=float), (n, states.shape[2]))
        integral = integral + np.einsum("nw,nw->n", z, states[i + 1] - states[i])
        qv = qv + np.einsum("nw,nw->n", z, z) * dt[i]
        i += 1
        yield integral, qv
    if i != K:
        raise ValueError(f"integrand has {i} steps, the bundle {K}")
