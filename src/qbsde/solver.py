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

``solve_ladder`` runs the truncated problems used by the existence
construction (xi capped at n, the clock A stopped once the running integral
of alpha dA exceeds n, so the driver acts only before that time) and reports
monotonicity across levels.
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
from .scenarios import ClockSpec, ScenarioBundle, mean_se

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
    """Grid estimates of Y and of the integrand of the martingale part Z.M + N.

    ``y`` has shape (n_paths, K+1).  ``integrand`` has shape
    (n_paths, K, dim_m + dim_orth) and holds (Z, Z_orth) on [t_i, t_{i+1}),
    where N = Z_orth.W_orth; it is the only stored copy of both.  ``z`` and
    ``z_orth`` are views of its first ``dim_m`` and of its remaining columns.
    """

    y: np.ndarray
    integrand: np.ndarray
    dim_m: int
    meta: dict = field(default_factory=dict)
    diagnostics: SolverDiagnostics | None = None

    @property
    def z(self) -> np.ndarray:
        return self.integrand[:, :, : self.dim_m]

    @property
    def z_orth(self) -> np.ndarray:
        return self.integrand[:, :, self.dim_m :]

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
        d, w = self.dim_m, self.integrand.shape[2]
        header = ["node", "t", "path", "y"] + [f"z{j}" for j in range(d)] + [f"zorth{j}" for j in range(w - d)]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(K + 1):
                zi = self.integrand[:, min(i, K - 1), :]
                for p in range(n):
                    row = [str(i), f"{grid_nodes[i]:.12g}", str(p), f"{self.y[p, i]:.12g}"]
                    row += [f"{v:.12g}" for v in zi[p]]
                    fh.write(",".join(row) + "\n")


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


def _solve_y(ey, zeta, driver, bundle, i, config):
    """Y at node i: the fixed point y = ey + F(t_i, y, Z) dA_i + 1/2 |Z_orth|^2 dt_i, vectorized over paths.

    ``zeta`` is the step's integrand (Z, Z_orth), shape (n, dim_m + dim_orth);
    the last term is N's half quadratic variation over the step.
    """
    z, z_orth = zeta[:, : bundle.dim_m], zeta[:, bundle.dim_m :]
    half_qv = 0.5 * np.einsum("nq,nq->n", z_orth, z_orth) * bundle.dt[i] if bundle.dim_orth else 0.0
    dA_i = bundle.dA[i]
    if not dA_i > 0:
        return ey + half_qv
    y = ey + driver.evaluate(bundle, i, ey, z) * dA_i + half_qv
    if not (driver.depends_on_y and config.implicit):
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

    n, K = bundle.n_paths, bundle.grid.n_steps
    dt = bundle.dt
    dw = bundle.increments
    basis = config.basis
    feature_fn = (feature_source or xi).fn if config.terminal_feature else None

    y = np.empty((n, K + 1))
    y[:, K] = xi.evaluate(bundle.terminal_state)
    integrand = np.empty((n, K, dw.shape[2]))
    sigma2_y = np.zeros(K)
    y_var = np.zeros((n, K + 1))
    max_features = 0

    for i in range(K - 1, -1, -1):
        state = bundle.state(i)
        extra = feature_fn(state) if feature_fn is not None else None
        reg = make_regression(basis, state, extra)
        target = y[:, i + 1]
        ey = reg.fit(target)
        # (Z, Z_orth): projections of the centred target times the step's noise
        integrand[:, i, :] = reg.fit((target - ey)[:, None] * dw[i]) / dt[i]
        y[:, i] = _solve_y(ey, integrand[:, i, :], driver, bundle, i, config)

        sigma2_y[i] = float(reg.residual_variance(target, ey)[0])
        max_features = max(max_features, reg.n_features)
        # first-order error propagation: this node's fit variance plus
        # the smoothed variance inherited from later steps, amplified by
        # the implicit-step contraction factor
        inherited = np.maximum(reg.fit(y_var[:, i + 1]), 0.0)
        amp = 1.0 / (1.0 - min(driver.params.beta_bar * dA[i], 0.5))
        y_var[:, i] = (reg.fit_variance(sigma2_y[i]) + inherited) * amp**2

    return SolutionField(
        y, integrand, bundle.dim_m,
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
    (1 x b)(b x (dim_m + dim_orth)) product per state, which BLAS keeps on
    the calling thread and which is ten times faster than the equivalent
    einsum at two dimensions.

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
        self.w = bundle.dim_m + bundle.dim_orth
        self.sq_dt = np.sqrt(bundle.dt).astype(np.float32)
        self.block = max(1, _ORACLE_SEED_LEAVES // self.b)
        self.chunk = self.block * max(1, ORACLE_CHUNK_BUDGET // (self.block * self.b))

    def _normals(self, i: int, first: int, count: int) -> np.ndarray:
        """Standard normals (count, b, dim_m + dim_orth) for the states first, ..., first + count - 1 at node i."""
        out = np.empty((count, self.b, self.w), dtype=np.float32)
        source = self.bundle.source
        for lo in range(0, count, self.block):
            key = (source.seed, source.stream, 7001, self.root, i, (first + lo) // self.block)
            gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))
            gen.standard_normal(dtype=np.float32, out=out[lo : lo + self.block])
        return out

    def value(self, i: int, states: np.ndarray, first: int, want_z: bool, want_se: bool = False, pool=None):
        """Estimate (Y, (Z, Z_orth), se) at node i for the given states, whose ids start at ``first``."""
        n = states.shape[0]
        if i == self.K:
            return np.asarray(self.xi.fn(states), dtype=np.float32), None, None

        y = np.empty(n)
        zeta = np.zeros((n, self.w)) if want_z else None
        se = np.zeros(n) if want_se else None
        dt_i = float(self.bundle.dt[i])
        inner_z = self.driver.depends_on_z
        # Z_orth enters Y through N's quadratic variation
        need_zeta = want_z or inner_z or self.bundle.dim_orth > 0

        def run_chunk(lo, hi, inner_pool):
            c = hi - lo
            succ = self._normals(i, first + lo, c)
            succ *= self.sq_dt[i]
            succ += states[lo:hi].astype(np.float32)[:, None, :]
            v, _, _ = self.value(i + 1, succ.reshape(c * self.b, -1), (first + lo) * self.b, inner_z, pool=inner_pool)
            v = v.reshape(c, self.b)
            ey = v.mean(axis=1, dtype=np.float64)
            if i + 1 == self.K:
                # a non-finite float32 leaf makes its state's float64 mean
                # non-finite, and finite leaves cannot overflow that sum
                self.xi.require_finite(ey)
            if need_zeta or want_se:
                dv = v - ey.astype(np.float32)[:, None]
            if need_zeta:
                ez = np.matmul(dv[:, None, :], succ)[:, 0, :].astype(np.float64) / (self.b * dt_i)
            else:
                ez = np.zeros((c, self.w))
            y[lo:hi] = _solve_y(ey, ez, self.driver, self.bundle, i, self.config)
            if want_z:
                zeta[lo:hi] = ez
            if want_se:
                se[lo:hi] = v.std(axis=1, ddof=1, dtype=np.float64) / math.sqrt(self.b)

        spans = [(lo, min(lo + self.chunk, n)) for lo in range(0, n, self.chunk)]
        if pool is not None and len(spans) > 1:
            list(pool.map(lambda span: run_chunk(*span, None), spans))
        else:
            for lo, hi in spans:
                run_chunk(lo, hi, pool)
        return y, zeta, se


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

    ``xi.fn`` runs on one worker thread per core at once, each call on a
    block of about 2^16 float32 leaf states.  The builtin terminals make no
    BLAS call; a custom terminal that does (``np.dot``, ``s @ a`` with a 2-D
    state) starts BLAS threads inside every worker and oversubscribes the
    cores unless BLAS is limited to one thread.
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

    n, K = bundle.n_paths, bundle.grid.n_steps
    y = np.empty((n, K + 1))
    integrand = np.zeros((n, K, bundle.dim_m + bundle.dim_orth))
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
            y[:, i], integrand[:, i, :], se = run.value(i, roots, 0, True, want_se=shared, pool=pool)
            seconds = time.perf_counter() - start
            leaves = roots.shape[0] * branching ** (K - i)
            _log.debug("oracle node %d: %d states, %d leaves in %.2f s (%.3g leaves/s)",
                       i, roots.shape[0], leaves, seconds, leaves / max(seconds, 1e-12))
            if i == 0 and shared:
                y0_se = float(se[0])

    return SolutionField(
        y, integrand, bundle.dim_m,
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
    n, K, w = bundle.n_paths, bundle.grid.n_steps, bundle.dim_m + bundle.dim_orth
    nodes = bundle.grid.nodes
    T = bundle.grid.horizon

    if xi.affine is not None and not xi.folded:
        a0, a = xi.affine
        a = np.broadcast_to(np.asarray(a, dtype=float), (w,))
        drift = 0.5 * gamma * float(a @ a) * (T - nodes)
        y = (a0 + bundle.states @ a + drift[:, None]).T
        integrand = np.broadcast_to(a, (n, K, w)).copy()
        meta = {"solver": "exponential_transform", "closed_form": True}
    else:
        with np.errstate(over="ignore"):
            u = np.exp(gamma * xi.evaluate(bundle.terminal_state))
        if not np.all(np.isfinite(u)):
            raise MomentFailureError("exp(gamma * xi) overflows on some paths")
        basis = BasisSpec(degree=3)
        y = np.empty((n, K + 1))
        integrand = np.empty((n, K, w))
        y[:, K] = np.log(u) / gamma
        dw, dt = bundle.increments, bundle.dt
        for i in range(K):
            state = bundle.state(i)
            reg = NodeRegression(basis.design(state, extra=xi.fn(state)))
            m_hat = reg.fit(u)
            if np.any(m_hat <= 0):
                raise MomentFailureError("fitted exponential mass is nonpositive; basis too coarse")
            y[:, i] = np.log(m_hat) / gamma
            # Z = grad u / (gamma u): projections of (u - m) times the step's noise
            integrand[:, i, :] = reg.fit((u - m_hat)[:, None] * dw[i]) / (dt[i] * gamma * m_hat[:, None])
        meta = {"solver": "exponential_transform", "closed_form": False}

    return SolutionField(np.ascontiguousarray(y), integrand, bundle.dim_m, meta)


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------


def _stopped_clock(bundle: ScenarioBundle, driver: DriverSpec, level: float) -> ScenarioBundle:
    """The bundle with its clock A held constant from the first grid step that
    would push the running integral of alpha dA past the level."""
    running = np.cumsum(driver.params.alpha_on(bundle)[:-1] * bundle.dA)
    stop = int(np.count_nonzero(np.logical_and.accumulate(running <= level * (1.0 + 1e-9) + 1e-12)))
    held = np.minimum(bundle.clock_values, bundle.clock_values[stop])
    clock = ClockSpec("piecewise", times=tuple(bundle.grid.nodes.tolist()), values=tuple(held.tolist()))
    return dataclasses.replace(bundle, clock=clock)


def _truncated_terminal(xi: TerminalCondition, level: float) -> TerminalCondition:
    base = xi.fn
    return TerminalCondition(fn=lambda s: np.clip(np.asarray(base(s), dtype=float), -level, level),
                             tag=f"{xi.tag}|trunc {level:g}")


@dataclass(frozen=True)
class TruncationLadder:
    """Per-level truncated problems and their solution fields.

    Level n solves the problem with xi capped at +-n on the bundle whose
    clock A stops once the running integral of alpha dA would exceed n; the
    driver itself is unchanged, it only acts where dA > 0.  ``alpha_l1[k]``
    is |alpha|_1 on level k's stopped clock.
    """

    levels: tuple[float, ...]
    fields: tuple[SolutionField, ...]
    alpha_l1: tuple[float, ...]

    def monotonicity_report(self, tol: float = 0.0) -> dict:
        """Fraction of (node, path) points violating y_n <= y_m + tol for n <= m.

        Regression noise is accounted for pointwise: each pair is allowed
        tol + 3 * combined standard error at that point, which matters at
        high-leverage extreme states where fitted curves wiggle.
        """
        ses = [np.sqrt(f.diagnostics.y_var) for f in self.fields]
        worst = -np.inf
        violations = 0
        total = 0
        for a in range(len(self.levels)):
            for b in range(a + 1, len(self.levels)):
                gap = self.fields[a].y - self.fields[b].y
                allowance = tol + 3.0 * np.hypot(ses[a], ses[b])
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
        stopped = _stopped_clock(bundle, driver, float(level))
        xi_n = _truncated_terminal(xi, float(level))
        fields.append(solve_backward(stopped, driver, xi_n, config, feature_source=xi))
        alphas.append(driver.params.alpha_l1(stopped))
    return TruncationLadder(
        levels=tuple(float(v) for v in levels),
        fields=tuple(fields),
        alpha_l1=tuple(alphas),
    )
