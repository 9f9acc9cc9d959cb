"""Backward solvers for dY = Z.dM + dN - F(t,Y,Z) dA - 1/2 d<N>.

Three routes to the same object:

* ``solve_backward`` -- least-squares regression scheme, implicit in Y
  (per-step Picard fixed point), explicit in Z.  Z comes from regressing the
  centered one-step target against the martingale increments, which keeps the
  estimator unbiased and kills the dominant variance term.
* ``nested_mc_oracle`` -- brute-force dynamic programming by resimulation
  from every node/path state; exponential cost, tiny grids only.  Serves as
  the independent check on the regression route.
* ``exponential_transform_reference`` -- for the pure-quadratic driver,
  Y_t = (1/gamma) log E[exp(gamma xi) | F_t]; exact in closed form for affine
  terminal conditions.

``solve_ladder`` runs the truncated problems (xi capped at n, driver switched
off once the running integral of alpha dA exceeds n) used by the existence
construction, and reports monotonicity across levels.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, TerminalCondition
from .errors import CapacityError, MomentFailureError, SolverDivergenceError
from .regression import BasisSpec, NodeRegression, make_regression
from .scenarios import ScenarioBundle, mean_se

ORACLE_CHUNK_BUDGET = 1 << 16
ORACLE_CAPACITY = 4_000_000_000
# leaves per oracle seed block; fixed, so the draws never depend on the chunk size
_ORACLE_SEED_LEAVES = 1 << 16

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the regression scheme.

    The implicit Y-update needs beta_bar * max(dA) < 1/2 so that the Picard
    map is a strict contraction; ``solve_backward`` enforces this.
    """

    degree: int = 3
    basis_kind: str = "poly"
    bins: int = 24
    picard_tol: float = 1e-10
    picard_max: int = 50
    implicit: bool = True
    terminal_feature: bool = True

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")
        if self.picard_max < 1:
            raise ValueError("picard_max must be at least 1")

    @property
    def basis(self) -> BasisSpec:
        return BasisSpec(degree=self.degree, kind=self.basis_kind, bins=self.bins)


@dataclass(frozen=True)
class SolverDiagnostics:
    """Sampling-error metadata for the fitted Y surface.

    ``y_var`` accumulates, per (path, node), the pointwise variance of the
    node's own projection plus the smoothed variance inherited from all
    later steps (first-order error propagation through the backward
    recursion).  ``max_features`` is the widest design used, which sizes the
    simultaneous confidence bands downstream."""

    sigma2_y: np.ndarray
    y_var: np.ndarray
    basis: BasisSpec
    max_features: int


@dataclass(frozen=True)
class SolutionField:
    """Grid estimates of (Y, Z, N-integrand) plus terminal quadratic variations.

    ``y`` has shape (n_paths, K+1); ``z`` and ``z_orth`` have shapes
    (n_paths, K, dim) and hold the integrands on [t_i, t_{i+1}).
    """

    y: np.ndarray
    z: np.ndarray
    z_orth: np.ndarray
    qv_zm: np.ndarray
    qv_n: np.ndarray
    meta: dict = field(default_factory=dict)
    diagnostics: SolverDiagnostics | None = None

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def n_steps(self) -> int:
        return self.y.shape[1] - 1

    @property
    def y0(self) -> float:
        return float(np.mean(self.y[:, 0]))

    def sup_abs_y(self) -> np.ndarray:
        """Per-path running maximum of |Y| over all grid nodes."""
        return np.max(np.abs(self.y), axis=1)

    def to_csv(self, path, grid_nodes: np.ndarray, max_paths: int | None = None) -> None:
        n = self.n_paths if max_paths is None else min(max_paths, self.n_paths)
        K = self.n_steps
        d = self.z.shape[2]
        q = self.z_orth.shape[2]
        header = ["node", "t", "path", "y"] + [f"z{j}" for j in range(d)] + [f"zorth{j}" for j in range(q)]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(K + 1):
                zi = self.z[:, min(i, K - 1), :]
                oi = self.z_orth[:, min(i, K - 1), :]
                for p in range(n):
                    row = [str(i), f"{grid_nodes[i]:.12g}", str(p), f"{self.y[p, i]:.12g}"]
                    row += [f"{zi[p, j]:.12g}" for j in range(d)]
                    row += [f"{oi[p, j]:.12g}" for j in range(q)]
                    fh.write(",".join(row) + "\n")


def _make_field(y, z, z_orth, dt, meta, diagnostics=None) -> SolutionField:
    """SolutionField with the terminal quadratic variations of Z.M and N."""
    return SolutionField(
        y=y,
        z=z,
        z_orth=z_orth,
        qv_zm=np.einsum("nkd,nkd,k->n", z, z, dt),
        qv_n=np.einsum("nkq,nkq,k->n", z_orth, z_orth, dt),
        meta=meta,
        diagnostics=diagnostics,
    )


def _config_hash(bundle: ScenarioBundle, driver: DriverSpec, xi: TerminalCondition, config: SolverConfig, tag: str) -> str:
    payload = json.dumps(
        {
            "tag": tag,
            "bundle": bundle.cache_key(),
            "driver": driver.name,
            "options": driver.options,
            "params": [driver.params.gamma, driver.params.beta, driver.params.beta_bar,
                       driver.params.beta_f, driver.params.c_A],
            "xi": xi.tag,
            "solver": dataclasses.asdict(config),
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _increment_z(reg, resid, dm_i, dorth_i, scale):
    """(Z, Z_orth) on one step: projections of resid * (dM, dW_orth), divided by scale."""
    fitted = reg.fit(resid[:, None] * np.concatenate([dm_i, dorth_i], axis=1))
    d = dm_i.shape[1]
    return fitted[:, :d] / scale, fitted[:, d:] / scale


def _picard_solve(ey, z, half_qv, driver, bundle, i, dA_i, config):
    """Fixed point y = ey + F(t_i, y, z) dA_i + half_qv, vectorized over paths."""
    y = ey + driver.evaluate(bundle, i, ey, z) * dA_i + half_qv
    if not driver.depends_on_y:
        return y
    if not config.implicit:
        return y
    last = np.inf
    for _ in range(config.picard_max):
        y_new = ey + driver.evaluate(bundle, i, y, z) * dA_i + half_qv
        last = float(np.max(np.abs(y_new - y)))
        y = y_new
        if last <= config.picard_tol:
            return y
    raise SolverDivergenceError(step=i, sup_change=last, max_iter=config.picard_max)


def solve_backward(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    config: SolverConfig | None = None,
    feature_source: TerminalCondition | None = None,
) -> SolutionField:
    """Regression-based backward recursion from Y_K = xi.

    Per step: project y_{i+1} on the polynomial basis of the Markov state,
    read Z off the increment regressions of the centered target, then solve
    the implicit Y-update.  The terminal value is pinned exactly path by path.

    ``feature_source`` overrides the terminal condition used for the adapted
    basis column; solving a family of problems with a shared feature keeps
    their basis-approximation bias common, so pathwise comparisons stay clean.
    """
    config = config or SolverConfig()
    if driver.dim_m is not None and driver.dim_m != bundle.dim_m:
        raise ValueError(f"driver {driver.name!r} needs dim_m={driver.dim_m}, bundle has {bundle.dim_m}")
    dA = bundle.dA
    bb_max = driver.params.beta_bar * float(np.max(dA))
    if bb_max >= 0.5:
        raise ValueError(
            f"contraction constraint violated: beta_bar * max dA = {bb_max:.3g} >= 0.5; refine the grid"
        )

    n, K, d, q = bundle.n_paths, bundle.grid.n_steps, bundle.dim_m, bundle.dim_orth
    dt = bundle.dt
    dm = bundle.dm
    dorth = bundle.dorth
    basis = config.basis
    feature_fn = (feature_source or xi).fn if config.terminal_feature else None

    y = np.empty((n, K + 1))
    y[:, K] = xi.evaluate(bundle.terminal_state)
    z = np.zeros((n, K, d))
    z_orth = np.zeros((n, K, q))
    sigma2_y = np.zeros(K)
    y_var = np.zeros((n, K + 1))
    max_features = 0

    for i in range(K - 1, -1, -1):
        state = bundle.state(i)
        extra = feature_fn(state) if feature_fn is not None else None
        reg = make_regression(basis, state, extra)
        target = y[:, i + 1]
        ey = reg.fit(target)
        z[:, i, :], z_orth[:, i, :] = _increment_z(reg, target - ey, dm[:, i, :], dorth[:, i, :], dt[i])

        half_qv = 0.5 * np.einsum("nq,nq->n", z_orth[:, i, :], z_orth[:, i, :]) * dt[i] if q else 0.0
        if dA[i] > 0:
            y[:, i] = _picard_solve(ey, z[:, i, :], half_qv, driver, bundle, i, dA[i], config)
        else:
            y[:, i] = ey + half_qv

        sigma2_y[i] = float(reg.residual_variance(target, ey)[0])
        max_features = max(max_features, reg.n_features)
        # first-order error propagation: this node's fit variance plus
        # the smoothed variance inherited from later steps, amplified by
        # the implicit-step contraction factor
        inherited = np.maximum(reg.fit(y_var[:, i + 1]), 0.0)
        amp = 1.0 / (1.0 - min(driver.params.beta_bar * dA[i], 0.5))
        y_var[:, i] = (reg.fit_variance(sigma2_y[i]) + inherited) * amp**2

    return _make_field(
        y, z, z_orth, dt,
        meta={"solver": "regression", "config_hash": _config_hash(bundle, driver, xi, config, "regression")},
        diagnostics=SolverDiagnostics(sigma2_y=sigma2_y, y_var=y_var, basis=basis, max_features=max_features),
    )


def y0_with_se(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    config: SolverConfig | None = None,
    n_batches: int = 8,
) -> tuple[float, float, list[float]]:
    """Y_0 estimate with a standard error from disjoint path batches.

    Batch means are independent solver runs, so the spread includes the
    regression noise accumulated over all backward steps.
    """
    config = config or SolverConfig()
    k = max(1, min(n_batches, bundle.n_paths))
    edges = np.linspace(0, bundle.n_paths, k + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = bundle.slice_paths(int(lo), int(hi))
        vals.append(solve_backward(sub, driver, xi, config).y0)
    mean, se = mean_se(vals)
    return mean, se, vals


# ---------------------------------------------------------------------------
# nested Monte Carlo oracle
# ---------------------------------------------------------------------------


class _OracleRun:
    """Recursive resimulation from one root node, in cache-sized float32 chunks.

    Chunks.  The states of a level are processed in chunks of about
    ``ORACLE_CHUNK_BUDGET`` leaves (successor states).  At 2^16 leaves the
    successor block, its values and their centred copy (about 0.8 MB in
    float32 for one dimension) stay in cache from the draw through the
    terminal evaluation to the reductions; a 2^24-leaf chunk streams 64 MB
    through memory at every pass.  Accumulations run in float64; the
    single-precision branch noise is three orders of magnitude below the
    Monte Carlo standard error at the minimum branching of 1000.  Increments
    are turned into successor states in place and recovered for the
    Z-reduction through the centering identity
    E[(v - vbar) (s + dW)] = E[(v - vbar) dW]; that reduction is one
    (1 x b)(b x d) product per state, which BLAS keeps on the calling thread
    and which is ten times faster than the equivalent einsum at d = 2.

    Draws.  A root state's id is its path index (0 for a shared root), and
    the successors of state g have ids g * b + branch.  The normals of state
    g are row g % block of an SFC64 stream keyed by (seed, stream, root node,
    node, g // block), where a block is about 2^16 leaves' worth of states;
    one generator per block keeps its set-up cost near 3 % of the draws.
    Chunks are whole blocks, and every call starts at a block boundary (its
    first id is 0 or a chunk start times b), so the only partial block is the
    last one of a level, which is always drawn at the same size.  The draws,
    and with them the field, are therefore the same for every chunk size and
    thread count.  A driver that depends on y stops its Picard iteration on a
    chunk's sup-norm, so its field agrees across chunk sizes to ``picard_tol``
    rather than bit for bit.

    Threads.  The chunks of the first level that has more than one chunk run
    on ``pool`` (node 0: the 1000 first-level states; later nodes: the
    successors of the paths).  Everything below a chunk runs in the thread
    that owns it, and each chunk writes only its own rows of the outputs.
    """

    def __init__(self, bundle, driver, xi, branching, config, root):
        self.bundle = bundle
        self.driver = driver
        self.xi = xi
        self.b = int(branching)
        self.config = config
        self.root = root
        self.K = bundle.grid.n_steps
        self.d = bundle.dim_m
        self.q = bundle.dim_orth
        self.sq_dt = np.sqrt(bundle.dt).astype(np.float32)
        self.block = max(1, _ORACLE_SEED_LEAVES // self.b)
        self.chunk = self.block * max(1, ORACLE_CHUNK_BUDGET // (self.block * self.b))

    def _normals(self, i: int, first: int, count: int) -> np.ndarray:
        """Standard normals (count, b, d + q) for the states first, ..., first + count - 1 at node i."""
        out = np.empty((count, self.b, self.d + self.q), dtype=np.float32)
        source = self.bundle.source
        for lo in range(0, count, self.block):
            key = (source.seed, source.stream, 7001, self.root, i, (first + lo) // self.block)
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
            gen.standard_normal(dtype=np.float32, out=out[lo : lo + self.block])
        return out

    def value(self, i: int, states: np.ndarray, first: int, want_z: bool, want_se: bool = False, pool=None):
        """Estimate (Y, Z, Z_orth, se) at node i for the given states, whose ids start at ``first``."""
        n = states.shape[0]
        if i == self.K:
            return np.asarray(self.xi.fn(states), dtype=np.float32), None, None, None

        y = np.empty(n)
        z = np.zeros((n, self.d)) if want_z else None
        zo = np.zeros((n, self.q))
        se = np.zeros(n) if want_se else None
        dt_i = float(self.bundle.dt[i])
        dA_i = float(self.bundle.dA[i])
        inner_z = self.driver.depends_on_z
        need_z = want_z or inner_z

        def run_chunk(lo, hi, inner_pool):
            c = hi - lo
            succ = self._normals(i, first + lo, c)
            succ *= self.sq_dt[i]
            succ += states[lo:hi].astype(np.float32)[:, None, :]
            v, _, _, _ = self.value(i + 1, succ.reshape(c * self.b, -1), (first + lo) * self.b, inner_z, pool=inner_pool)
            v = v.reshape(c, self.b)
            ey = v.mean(axis=1, dtype=np.float64)
            if i + 1 == self.K:
                # a non-finite float32 leaf makes its state's float64 mean
                # non-finite, and finite leaves cannot overflow that sum
                self.xi.require_finite(ey)
            if need_z or self.q or want_se:
                dv = v - ey.astype(np.float32)[:, None]
            if need_z:
                ez = np.matmul(dv[:, None, :], succ[:, :, : self.d])[:, 0, :].astype(np.float64) / (self.b * dt_i)
            else:
                ez = np.zeros((c, self.d))
            if self.q:
                ezo = np.matmul(dv[:, None, :], succ[:, :, self.d :])[:, 0, :].astype(np.float64) / (self.b * dt_i)
                half_qv = 0.5 * np.einsum("cq,cq->c", ezo, ezo) * dt_i
                zo[lo:hi] = ezo
            else:
                half_qv = 0.0
            if dA_i > 0:
                y[lo:hi] = _picard_solve(ey, ez, half_qv, self.driver, self.bundle, i, dA_i, self.config)
            else:
                y[lo:hi] = ey + half_qv
            if want_z:
                z[lo:hi] = ez
            if want_se:
                se[lo:hi] = v.std(axis=1, ddof=1, dtype=np.float64) / math.sqrt(self.b)

        spans = [(lo, min(lo + self.chunk, n)) for lo in range(0, n, self.chunk)]
        if pool is not None and len(spans) > 1:
            list(pool.map(lambda span: run_chunk(*span, None), spans))
        else:
            for lo, hi in spans:
                run_chunk(lo, hi, pool)
        return y, z, zo, se


def nested_mc_oracle(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    branching: int,
    config: SolverConfig | None = None,
    capacity: int = ORACLE_CAPACITY,
) -> SolutionField:
    """Dynamic programming by resimulation; cost ~ branching ** n_steps.

    Conditional expectations at each node/path state come from fresh branches
    simulated out of that state instead of a cross-sectional regression;
    Y solves the same per-step fixed point as the regression scheme.
    """
    config = config or SolverConfig()
    if bundle.grid.nodes.size > 4:
        raise ValueError("nested MC oracle is restricted to grids with at most 4 nodes")
    if branching < 1000:
        raise ValueError("oracle branching must be at least 1000")
    if branching ** bundle.grid.n_steps > capacity:
        raise CapacityError(
            f"branching**n_steps = {branching ** bundle.grid.n_steps:.3g} exceeds capacity {capacity:.3g}"
        )
    if driver.dim_m is not None and driver.dim_m != bundle.dim_m:
        raise ValueError(f"driver {driver.name!r} needs dim_m={driver.dim_m}, bundle has {bundle.dim_m}")

    n, K, d, q = bundle.n_paths, bundle.grid.n_steps, bundle.dim_m, bundle.dim_orth
    y = np.empty((n, K + 1))
    z = np.zeros((n, K, d))
    z_orth = np.zeros((n, K, q))
    y[:, K] = xi.evaluate(bundle.terminal_state)
    y0_se = 0.0

    # one executor per call: no worker thread outlives it (callers may fork)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=cpus) as pool:
        for i in range(K):
            states = bundle.state(i)
            # a node where every path sits at one state is resimulated once
            shared = bool(np.all(states == states[0]))
            roots = states[:1] if shared else states
            start = time.perf_counter()
            run = _OracleRun(bundle, driver, xi, branching, config, root=i)
            y[:, i], z[:, i, :], z_orth[:, i, :], se = run.value(i, roots, 0, True, want_se=shared, pool=pool)
            seconds = time.perf_counter() - start
            leaves = roots.shape[0] * branching ** (K - i)
            _log.debug("oracle node %d: %d states, %d leaves in %.2f s (%.3g leaves/s)",
                       i, roots.shape[0], leaves, seconds, leaves / max(seconds, 1e-12))
            if i == 0 and shared:
                y0_se = float(se[0])

    return _make_field(
        y, z, z_orth, bundle.dt,
        meta={
            "solver": "nested_mc",
            "branching": branching,
            "y0_se": y0_se,
            "config_hash": _config_hash(bundle, driver, xi, config, f"nested_mc:{branching}"),
        },
    )


# ---------------------------------------------------------------------------
# exponential transform reference
# ---------------------------------------------------------------------------


def exponential_transform_reference(
    bundle: ScenarioBundle,
    gamma: float,
    xi: TerminalCondition,
) -> SolutionField:
    """Reference solution Y_t = (1/gamma) log E[e^{gamma xi} | F_t].

    Solves the pure-quadratic problem F = (gamma/2)||B z||^2 without any
    backward recursion.  For xi affine in the terminal Gaussian state the
    conditional expectation is in closed form; otherwise e^{gamma xi} is
    projected on the solver's polynomial basis node by node.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n, K, d, q = bundle.n_paths, bundle.grid.n_steps, bundle.dim_m, bundle.dim_orth
    nodes = bundle.grid.nodes
    T = bundle.grid.horizon

    if xi.affine is not None and not xi.folded:
        a0, a = xi.affine
        a = np.broadcast_to(np.asarray(a, dtype=float), (d + q,))
        states = np.concatenate([bundle.m_paths, bundle.orth_paths], axis=2)
        drift = 0.5 * gamma * float(a @ a) * (T - nodes)
        y = a0 + states @ a + drift[None, :]
        z = np.broadcast_to(a[:d], (n, K, d)).copy()
        z_orth = np.broadcast_to(a[d:], (n, K, q)).copy()
        meta = {"solver": "exponential_transform", "closed_form": True}
    else:
        with np.errstate(over="ignore"):
            u = np.exp(gamma * xi.evaluate(bundle.terminal_state))
        if not np.all(np.isfinite(u)):
            raise MomentFailureError("exp(gamma * xi) overflows on some paths")
        basis = BasisSpec(degree=3)
        y = np.empty((n, K + 1))
        z = np.zeros((n, K, d))
        z_orth = np.zeros((n, K, q))
        y[:, K] = np.log(u) / gamma
        dm, dorth, dt = bundle.dm, bundle.dorth, bundle.dt
        for i in range(K):
            state = bundle.state(i)
            reg = NodeRegression(basis.design(state, extra=xi.fn(state)))
            m_hat = reg.fit(u)
            if np.any(m_hat <= 0):
                raise MomentFailureError("fitted exponential mass is nonpositive; basis too coarse")
            y[:, i] = np.log(m_hat) / gamma
            z[:, i, :], z_orth[:, i, :] = _increment_z(
                reg, u - m_hat, dm[:, i, :], dorth[:, i, :], dt[i] * gamma * m_hat[:, None]
            )
        meta = {"solver": "exponential_transform", "closed_form": False}

    return _make_field(np.ascontiguousarray(y), np.ascontiguousarray(z), np.ascontiguousarray(z_orth), bundle.dt, meta)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------


def _gated_driver(driver: DriverSpec, bundle: ScenarioBundle, level: float) -> tuple[DriverSpec, float]:
    """Switch the driver (and alpha) off from the first grid step that would
    push the running integral of alpha dA past the level."""
    nodes = bundle.grid.nodes
    alpha = driver.params.alpha_on(bundle)
    running = np.concatenate([[0.0], np.cumsum(alpha[:-1] * bundle.dA)])
    active = running[1:] <= level * (1.0 + 1e-9) + 1e-12

    def gate(t: float) -> float:
        i = min(int(np.argmin(np.abs(nodes - t))), active.size - 1)
        return 1.0 if active[i] else 0.0

    base_f = driver.f
    base_alpha = driver.params.alpha_fn
    base_lam = driver.params.lam_fn

    gated_params = {}
    if base_lam is not None:
        gated_params["lam_fn"] = lambda t: gate(t) * np.asarray(base_lam(t), dtype=float)
    elif base_alpha is not None:
        gated_params["alpha_fn"] = lambda t: gate(t) * float(base_alpha(t))

    gated = dataclasses.replace(
        driver,
        name=f"{driver.name}|gate<= {level:g}",
        f=lambda t, y, z, b: gate(t) * np.asarray(base_f(t, y, z, b), dtype=float),
        params=dataclasses.replace(driver.params, **gated_params),
    )
    alpha_l1_gated = float(np.sum(np.where(active, alpha[:-1] * bundle.dA, 0.0)))
    return gated, alpha_l1_gated


def _truncated_terminal(xi: TerminalCondition, level: float) -> TerminalCondition:
    base = xi.fn

    def fn(s):
        v = np.asarray(base(s), dtype=float)
        return np.minimum(np.maximum(v, 0.0), level) - np.minimum(np.maximum(-v, 0.0), level)

    return TerminalCondition(fn=fn, tag=f"{xi.tag}|trunc {level:g}")


@dataclass(frozen=True)
class TruncationLadder:
    """Per-level truncated problems and their solution fields."""

    levels: tuple[float, ...]
    fields: tuple[SolutionField, ...]
    alpha_l1: tuple[float, ...]

    def pointwise_se(self, level_index: int) -> np.ndarray:
        """Per-(path, node) accumulated standard error of one level's Y estimate."""
        return np.sqrt(self.fields[level_index].diagnostics.y_var)

    def monotonicity_report(self, tol: float = 0.0, use_se: bool = True) -> dict:
        """Fraction of (node, path) points violating y_n <= y_m + tol for n <= m.

        With ``use_se``, regression noise is accounted for pointwise: each
        pair is allowed tol + 3 * combined standard error at that point,
        which matters at high-leverage extreme states where fitted curves
        wiggle.
        """
        ses = None
        if use_se:
            ses = [self.pointwise_se(k) for k in range(len(self.levels))]
        worst = -np.inf
        violations = 0
        total = 0
        for a in range(len(self.levels)):
            for b in range(a + 1, len(self.levels)):
                gap = self.fields[a].y - self.fields[b].y
                allowance = tol if ses is None else tol + 3.0 * np.hypot(ses[a], ses[b])
                worst = max(worst, float(np.max(gap)))
                violations += int(np.count_nonzero(gap > allowance))
                total += gap.size
        return {
            "violation_fraction": violations / max(total, 1),
            "worst_gap": worst,
            "tol": tol,
            "pairs": total,
        }


def solve_ladder(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    levels: list[float],
    config: SolverConfig | None = None,
) -> TruncationLadder:
    """Solve the truncated problems for each level on the same scenario bundle.

    Common random numbers across levels make the comparison-theorem
    monotonicity visible pathwise rather than only in distribution.
    """
    config = config or SolverConfig()
    fields = []
    alphas = []
    for level in levels:
        if level <= 0:
            raise ValueError("truncation levels must be positive")
        gated, a1 = _gated_driver(driver, bundle, float(level))
        xi_n = _truncated_terminal(xi, float(level))
        fields.append(solve_backward(bundle, gated, xi_n, config, feature_source=xi))
        alphas.append(a1)
    return TruncationLadder(
        levels=tuple(float(v) for v in levels),
        fields=tuple(fields),
        alpha_l1=tuple(alphas),
    )
