"""Time grids, Brownian scenario bundles and the deterministic clock/factor pair.

The driving noise is always a standard d-dimensional Brownian motion, so its
predictable quadratic variation is ``I * t``.  What varies is the chosen
factorization into a clock ``A`` and a factor ``B`` with ``B^T B dA = I dt``:
the identity clock gives ``B = I``, a scaled clock ``A = c*t`` gives
``B = I/sqrt(c)``, and a piecewise-linear clock gives a per-step diagonal
factor.  Orthogonal noise is carried by extra independent Brownian components.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

# Hard ceiling on n_paths * n_nodes * n_components for a single bundle.
DEFAULT_CAPACITY = 200_000_000

_CACHE_FORMAT_VERSION = 1


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

    def slope_bound(self) -> float:
        """Least c with A(t) <= c * t (the clock-side Lipschitz constant)."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "scaled":
            return self.rate
        t = np.asarray(self.times[1:], dtype=float)
        v = np.asarray(self.values[1:], dtype=float)
        return float(np.max(v / t))


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream id; fixed values reproduce bit-identical bundles."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream)))


@dataclass(frozen=True)
class ScenarioBundle:
    """Simulated paths of the driving martingale and orthogonal noise on a grid.

    ``m_paths`` has shape (n_paths, K+1, dim_m) with M_0 = 0;
    ``orth_paths`` has shape (n_paths, K+1, dim_orth).
    ``factor_b[i]`` is the factor matrix on step [t_i, t_{i+1}); the terminal
    slot repeats the last step.  Bundles are immutable after construction.
    """

    grid: TimeGrid
    dim_m: int
    dim_orth: int
    m_paths: np.ndarray
    orth_paths: np.ndarray
    clock: ClockSpec
    clock_values: np.ndarray
    factor_b: np.ndarray
    n_paths: int
    source: RandomSource

    def __post_init__(self):
        K = self.grid.n_steps
        if self.m_paths.shape != (self.n_paths, K + 1, self.dim_m):
            raise ValueError("m_paths shape mismatch")
        if self.orth_paths.shape != (self.n_paths, K + 1, self.dim_orth):
            raise ValueError("orth_paths shape mismatch")
        for name in ("m_paths", "orth_paths", "clock_values", "factor_b"):
            _freeze(getattr(self, name))

    @property
    def dt(self) -> np.ndarray:
        return self.grid.dt

    @property
    def dA(self) -> np.ndarray:
        return np.diff(self.clock_values)

    @property
    def dm(self) -> np.ndarray:
        """Driving increments, shape (n_paths, K, dim_m)."""
        return np.diff(self.m_paths, axis=1)

    @property
    def dorth(self) -> np.ndarray:
        return np.diff(self.orth_paths, axis=1)

    def state(self, i: int) -> np.ndarray:
        """Markov state at node i: concatenated (M, W_orth) values, (n_paths, dim_m+dim_orth)."""
        return np.concatenate([self.m_paths[:, i, :], self.orth_paths[:, i, :]], axis=1)

    @property
    def terminal_state(self) -> np.ndarray:
        return self.state(self.grid.n_steps)

    def slice_paths(self, lo: int, hi: int) -> "ScenarioBundle":
        """Read-only sub-bundle over a contiguous path block."""
        return ScenarioBundle(
            grid=self.grid,
            dim_m=self.dim_m,
            dim_orth=self.dim_orth,
            m_paths=self.m_paths[lo:hi],
            orth_paths=self.orth_paths[lo:hi],
            clock=self.clock,
            clock_values=self.clock_values,
            factor_b=self.factor_b,
            n_paths=hi - lo,
            source=self.source,
        )

    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "seed": self.source.seed,
                "stream": self.source.stream,
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
    scale[pos] = np.sqrt(dt[pos] / da[pos])
    eye = np.eye(dim_m)
    factor = np.empty((grid.n_steps + 1, dim_m, dim_m))
    factor[:-1] = scale[:, None, None] * eye
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
    paths = np.zeros((n_paths, K + 1, dim_m + dim_orth))
    np.cumsum(incr, axis=1, out=paths[:, 1:, :])

    a_vals, factor = _factor_from_clock(grid, clock, dim_m)
    return ScenarioBundle(
        grid=grid,
        dim_m=dim_m,
        dim_orth=dim_orth,
        m_paths=np.ascontiguousarray(paths[:, :, :dim_m]),
        orth_paths=np.ascontiguousarray(paths[:, :, dim_m:]),
        clock=clock,
        clock_values=a_vals,
        factor_b=factor,
        n_paths=n_paths,
        source=source,
    )


def coarsen_bundle(bundle: ScenarioBundle, coarse_grid: TimeGrid) -> ScenarioBundle:
    """Restrict a bundle to a sub-grid; coarse increments are sums of fine ones.

    Every coarse node must already be a node of the fine grid.
    """
    idx = np.array([bundle.grid.index_of(t) for t in coarse_grid.nodes])
    a_vals, factor = _factor_from_clock(coarse_grid, bundle.clock, bundle.dim_m)
    return ScenarioBundle(
        grid=coarse_grid,
        dim_m=bundle.dim_m,
        dim_orth=bundle.dim_orth,
        m_paths=np.ascontiguousarray(bundle.m_paths[:, idx, :]),
        orth_paths=np.ascontiguousarray(bundle.orth_paths[:, idx, :]),
        clock=bundle.clock,
        clock_values=a_vals,
        factor_b=factor,
        n_paths=bundle.n_paths,
        source=bundle.source,
    )


def quadratic_variation(bundle: ScenarioBundle, integrand: np.ndarray) -> np.ndarray:
    """Discrete <Z.M>_T per path: sum_i z_i^T C z_i dt_i with C = I.

    ``integrand`` may be shaped (dim_m,), (K, dim_m) or (n_paths, K, dim_m).
    """
    z = np.asarray(integrand, dtype=float)
    K, d = bundle.grid.n_steps, bundle.dim_m
    if z.ndim == 1:
        z = np.broadcast_to(z, (bundle.n_paths, K, d))
    elif z.ndim == 2:
        z = np.broadcast_to(z[None, :, :], (bundle.n_paths, K, d))
    if z.shape != (bundle.n_paths, K, d):
        raise ValueError(f"integrand shape {np.asarray(integrand).shape} does not match bundle ({K} steps, dim {d})")
    return np.einsum("pkd,pkd,k->p", z, z, bundle.dt)


def save_scenario(bundle: ScenarioBundle, path) -> None:
    """Columnar cache dump; the header field versions the format."""
    header = {
        "format_version": _CACHE_FORMAT_VERSION,
        "seed": bundle.source.seed,
        "stream": bundle.source.stream,
        "dim_m": bundle.dim_m,
        "dim_orth": bundle.dim_orth,
        "n_paths": bundle.n_paths,
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
        m_paths=bundle.m_paths,
        orth_paths=bundle.orth_paths,
    )


def load_scenario(path) -> ScenarioBundle:
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("format_version") != _CACHE_FORMAT_VERSION:
            raise ValueError(f"unsupported scenario cache version {header.get('format_version')}")
        grid = TimeGrid(data["nodes"])
        clock = ClockSpec(
            kind=header["clock"]["kind"],
            rate=header["clock"]["rate"],
            times=tuple(header["clock"]["times"]),
            values=tuple(header["clock"]["values"]),
        )
        a_vals, factor = _factor_from_clock(grid, clock, header["dim_m"])
        bundle = ScenarioBundle(
            grid=grid,
            dim_m=header["dim_m"],
            dim_orth=header["dim_orth"],
            m_paths=data["m_paths"],
            orth_paths=data["orth_paths"],
            clock=clock,
            clock_values=a_vals,
            factor_b=factor,
            n_paths=header["n_paths"],
            source=RandomSource(seed=header["seed"], stream=header["stream"]),
        )
    if header.get("cache_key") != bundle.cache_key():
        raise ValueError(f"scenario cache key {header.get('cache_key')} does not match the stored bundle")
    return bundle
