"""Time grids, Brownian scenario bundles and the deterministic clock/factor pair.

The driving noise is always a standard d-dimensional Brownian motion, so its
predictable quadratic variation is ``I * t``.  What varies is the chosen
factorization into a clock ``A`` and a factor ``B`` with ``B^T B dA = I dt``:
the identity clock gives ``B = I``, a scaled clock ``A = c*t`` gives
``B = I/sqrt(c)``, and a piecewise-linear clock gives a per-step diagonal
factor.  Orthogonal noise is carried by extra independent Brownian components.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

# Hard ceiling on n_paths * n_nodes * n_components for a single bundle.
DEFAULT_CAPACITY = 200_000_000

_CACHE_FORMAT_VERSION = 3


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error (zero for a single value)."""
    values = np.asarray(values, dtype=float)
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return m, se


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes t_0 = 0 < ... < t_K = T."""

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

    def key(self) -> str:
        return hashlib.sha256(self.nodes.tobytes()).hexdigest()[:16]

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        i = int(np.argmin(np.abs(self.nodes - t)))
        if abs(self.nodes[i] - t) > tol:
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
class ClockSpec:
    """Deterministic clock A with A(0) = 0, nondecreasing, A(T) <= K_A.

    kinds:
      identity   -- A(t) = t
      scaled     -- A(t) = rate * t
      piecewise  -- linear interpolation through (times, values)
    """

    kind: str = "identity"
    rate: float = 1.0
    times: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("identity", "scaled", "piecewise"):
            raise ValueError(f"unknown clock kind {self.kind!r}")
        if self.kind == "scaled" and self.rate <= 0:
            raise ValueError("scaled clock needs a positive rate")
        if self.kind == "piecewise":
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.size != v.size or t.size < 2:
                raise ValueError("piecewise clock needs matching times/values, length >= 2")
            if t[0] != 0.0 or v[0] != 0.0:
                raise ValueError("piecewise clock must start at (0, 0)")
            if not np.all(np.diff(t) > 0) or np.any(np.diff(v) < 0):
                raise ValueError("piecewise clock must be nondecreasing on increasing times")

    def at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            return t.copy()
        if self.kind == "scaled":
            return self.rate * t
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream id; fixed values reproduce bit-identical bundles."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream)))


@dataclass(frozen=True)
class ScenarioBundle:
    """Simulated paths of the driving martingale M and the orthogonal noise W_orth on a grid.

    ``states`` is the only stored copy of the paths: the (M, W_orth) values,
    node-major, shape (K+1, n_paths, dim_m + dim_orth), with M_0 = W_orth_0 = 0.
    ``state(i)`` is the contiguous view ``states[i]``; ``m_paths``
    (n_paths, K+1, dim_m) and ``orth_paths`` (n_paths, K+1, dim_orth) are
    read-only path-major views of it.  ``increments`` (K, n_paths,
    dim_m + dim_orth) is a new array on every access.  ``clock_values`` and
    ``factor_b`` are derived from ``clock`` on construction; ``factor_b[i]`` is
    the factor matrix on step [t_i, t_{i+1}) and the terminal slot repeats the
    last step.  ``first_path`` is the index, among the paths drawn from
    ``source``, of the first path held, so a slice keeps its own identity;
    ``simulated_on`` is the key of the grid the paths were drawn on when it is
    not ``grid`` (a coarsened bundle), else None.  Bundles are immutable
    after construction.
    """

    grid: TimeGrid
    dim_m: int
    states: np.ndarray
    clock: ClockSpec
    source: RandomSource
    first_path: int = 0
    simulated_on: str | None = None
    clock_values: np.ndarray = field(init=False, repr=False, compare=False)
    factor_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.states.ndim != 3 or self.states.shape[0] != self.grid.n_steps + 1 or self.states.shape[2] < self.dim_m:
            raise ValueError(f"states shape {self.states.shape} does not match the grid and dim_m")
        _freeze(self.states)
        a_vals, factor = _factor_from_clock(self.grid, self.clock, self.dim_m)
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

    @property
    def increments(self) -> np.ndarray:
        """(dM, dW_orth) on every step, shape (K, n_paths, dim_m + dim_orth)."""
        return np.diff(self.states, axis=0)

    def state(self, i: int) -> np.ndarray:
        """Markov state (M, W_orth) at node i, shape (n_paths, dim_m + dim_orth)."""
        return self.states[i]

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]

    def slice_paths(self, lo: int, hi: int) -> "ScenarioBundle":
        """Read-only sub-bundle over a contiguous path block."""
        return dataclasses.replace(self, states=self.states[:, lo:hi], first_path=self.first_path + lo)

    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "seed": self.source.seed,
                "stream": self.source.stream,
                "first_path": self.first_path,
                "simulated_on": self.simulated_on,
                "grid": self.grid.key(),
                "dim_m": self.dim_m,
                "dim_orth": self.dim_orth,
                "n_paths": self.n_paths,
                "clock": [self.clock.kind, self.clock.rate, list(self.clock.times), list(self.clock.values)],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _factor_from_clock(grid: TimeGrid, clock: ClockSpec, dim_m: int) -> tuple[np.ndarray, np.ndarray]:
    a_vals = clock.at(grid.nodes)
    da = np.diff(a_vals)
    dt = grid.dt
    scale = np.zeros_like(dt)
    pos = da > 0
    # two roots, not the root of the ratio: dt / dA overflows for tiny dA
    scale[pos] = np.sqrt(dt[pos]) / np.sqrt(da[pos])
    # set the diagonal alone: an overflowed scale times the identity's zeros would be nan
    factor = np.zeros((grid.n_steps + 1, dim_m, dim_m))
    factor[:-1, range(dim_m), range(dim_m)] = scale[:, None]
    factor[-1] = factor[-2]
    return a_vals, factor


def simulate_scenario(
    grid: TimeGrid,
    dim_m: int,
    dim_orth: int,
    n_paths: int,
    clock: ClockSpec | None = None,
    source: RandomSource | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> ScenarioBundle:
    """Simulate independent Gaussian increments with variance dt per component.

    The orthogonal components are drawn jointly with the driving ones from a
    single stream, which makes the draw order (hence the bundle) a pure
    function of (seed, stream, grid, dims, n_paths).
    """
    if dim_m < 1 or dim_orth < 0:
        raise ValueError("need dim_m >= 1 and dim_orth >= 0")
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    clock = clock or ClockSpec()
    source = source or RandomSource(seed=0)
    K = grid.n_steps
    total = n_paths * (K + 1) * (dim_m + dim_orth)
    if total > capacity:
        raise CapacityError(f"bundle size {total} exceeds capacity {capacity}")

    rng = source.generator()
    incr = rng.standard_normal((n_paths, K, dim_m + dim_orth))
    incr *= np.sqrt(grid.dt)[None, :, None]
    states = np.zeros((K + 1, n_paths, dim_m + dim_orth))
    np.cumsum(incr.transpose(1, 0, 2), axis=0, out=states[1:])
    return ScenarioBundle(grid=grid, dim_m=dim_m, states=states, clock=clock, source=source)


def coarsen_bundle(bundle: ScenarioBundle, coarse_grid: TimeGrid) -> ScenarioBundle:
    """Restrict a bundle to a sub-grid; coarse increments are sums of fine ones.

    Every coarse node must already be a node of the fine grid.
    """
    idx = np.array([bundle.grid.index_of(t) for t in coarse_grid.nodes])
    drawn_on = bundle.simulated_on or bundle.grid.key()
    return dataclasses.replace(bundle, grid=coarse_grid, states=bundle.states[idx],
                               simulated_on=None if drawn_on == coarse_grid.key() else drawn_on)


def stochastic_integral(bundle: ScenarioBundle, integrand, running: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Discrete integral of an integrand against (M, W_orth) and its quadratic variation, per path.

    The integral is sum_i zeta_i . (dM, dW_orth)_i and its quadratic
    variation sum_i |zeta_i|^2 dt_i, the covariation of the noise being I dt.
    ``integrand`` holds zeta on the steps [t_i, t_{i+1}), shaped
    (dim_m + dim_orth,), (K, dim_m + dim_orth) or (n_paths, K, dim_m + dim_orth).
    Returns two (n_paths,) arrays of terminal values, or with ``running`` two
    (n_paths, K+1) arrays of the values at every node, starting from 0.
    """
    n, K, w = bundle.n_paths, bundle.grid.n_steps, bundle.states.shape[2]
    z = np.asarray(integrand, dtype=float)
    if z.ndim > 3 or z.shape != (n, K, w)[3 - z.ndim :]:
        raise ValueError(f"integrand shape {z.shape} does not match bundle ({n} paths, {K} steps, dim {w})")
    z = np.broadcast_to(z, (n, K, w))
    if not running:
        return np.einsum("nkw,knw->n", z, bundle.increments), np.einsum("nkw,nkw,k->n", z, z, bundle.dt)
    integral = np.zeros((n, K + 1))
    qv = np.zeros((n, K + 1))
    np.cumsum(np.einsum("nkw,knw->nk", z, bundle.increments), axis=1, out=integral[:, 1:])
    np.cumsum(np.einsum("nkw,nkw->nk", z, z) * bundle.dt, axis=1, out=qv[:, 1:])
    return integral, qv


def save_scenario(bundle: ScenarioBundle, path) -> None:
    """Columnar cache dump; the header field versions the format."""
    header = {
        "format_version": _CACHE_FORMAT_VERSION,
        "seed": bundle.source.seed,
        "stream": bundle.source.stream,
        "first_path": bundle.first_path,
        "simulated_on": bundle.simulated_on,
        "dim_m": bundle.dim_m,
        "clock": {
            "kind": bundle.clock.kind,
            "rate": bundle.clock.rate,
            "times": list(bundle.clock.times),
            "values": list(bundle.clock.values),
        },
        "cache_key": bundle.cache_key(),
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
        nodes=bundle.grid.nodes,
        states=bundle.states,
    )


def load_scenario(path) -> ScenarioBundle:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("format_version") != _CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported scenario cache version {header.get('format_version')}")
        clock = header["clock"]
        bundle = ScenarioBundle(
            grid=TimeGrid(data["nodes"]),
            dim_m=header["dim_m"],
            states=data["states"],
            clock=ClockSpec(clock["kind"], clock["rate"], tuple(clock["times"]), tuple(clock["values"])),
            source=RandomSource(seed=header["seed"], stream=header["stream"]),
            first_path=header["first_path"],
            simulated_on=header["simulated_on"],
        )
    if header.get("cache_key") != bundle.cache_key():
        raise ValueError(f"scenario cache key {header.get('cache_key')} does not match the stored bundle")
    return bundle
