"""Backward solvers for dY = Z.dM + dN - F(t,Y,Z) dA - 1/2 d<N>.

Two routes to the same object:

* ``solve_backward`` -- least-squares regression scheme, implicit in Y (a
  Picard fixed point where beta_bar * dA > 0), explicit in Z.  Z regresses the
  centered one-step target on the martingale increments, which keeps the
  estimator unbiased and kills the dominant variance term.
* ``nested_mc_oracle`` -- brute-force dynamic programming by resimulation
  from every node/path state; exponential cost, tiny grids only.  Serves as
  the independent check on the regression route, whose Y-step it shares.

The regression scheme sweeps a problem backward with ``_backward_steps``,
which yields the rows of one node at a time, t_K first.  No solution field
holds a surface.  The paper reads Y only through Y_0, the pathwise supremum
Y* = sup_t |Y_t| and the node-by-node gap between two solutions, and Z only
through the martingale part Z.M + N: its quadratic variation, its
stochastic exponential and Kazamaki's stopped means.  So ``solve_backward``
keeps, of Y, the row at t_0, the running Y* and the first ``EXPORT_PATHS``
paths for the CSV; of Z, each step's regression coefficients, from which Z
is evaluated afresh on any state rows, and what the sweep sums as it goes:
(Z.M + N)_T and its quadratic variation per path, the path mean of Z and
Z_orth per step and the export paths' rows.  At 100,000 paths and 100
steps a float64 (K+1, n) Y surface is 81 MB, and a one-column integrand
80 MB.  The oracle, on at most 4 nodes, takes the same parts from
its small Y and integrand (``field_from_rows``), and ``y0_with_se`` keeps
the last row of each path batch alone.

``solve_backward`` is an experiment's one backward pass: beside its own
problem it sweeps every problem its readers name (the comparison's other
driver, the stability members, the levels of the existence construction's
``TruncationLadder``), on one regression per step, and hands each node's
rows to the readers, which report after it.  Error bars, the pointwise
variance of each Y row by first-order error propagation, are propagated
only for a reader that asks, two rows at a time; no solver stores a
variance surface.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import math
import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .drivers import DriverSpec, TerminalCondition
from .errors import CapacityError, DegenerateBasisError, GridMismatchError, SolverDivergenceError
# NodeRegression is unused here but stays bound: the benchmark's tracing patches solver.NodeRegression
from .regression import BinnedFit, NodeRegression, PolyFit, SolverConfig, make_regression
from .scenarios import ScenarioBundle, mean_se

ORACLE_CHUNK_BUDGET = 1 << 16
ORACLE_CAPACITY = 4_000_000_000
# leaves per oracle seed block; fixed, so the draws never depend on the chunk size
_ORACLE_SEED_LEAVES = 1 << 16
# disjoint path batches behind the Y_0 standard error of ``y0_with_se``
Y0_SE_BATCHES = 8
# the Picard fixed point of a step with beta_bar * dA_i > 0: the sup-norm change that
# stops it and the iterations after which it has diverged.  ``_solve_y`` keeps
# beta_bar * dA_i < 1/2, a strict contraction, so the iteration needs no other limits
PICARD_TOL = 1e-10
PICARD_MAX = 50
# paths written to the solution CSV
EXPORT_PATHS = 100

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolutionField:
    """The parts of a solution (Y, Z) that are read, and Z as a function of the state.

    Of Y the field keeps two (n_paths,) rows, ``y_start`` (Y at t_0) and
    ``y_sup`` (Y* = max_i |Y_i| over the nodes), and ``y_export``, the
    (K+1, m) rows of the first m = min(``EXPORT_PATHS``, n_paths) paths that
    ``to_csv`` writes.  Of the martingale part Z.M + N, N = Z_orth.W_orth,
    with (Z, Z_orth) on [t_i, t_{i+1}) of width w = dim_m + dim_orth, it
    keeps what was summed step by step as the rows were made: ``integral``
    and ``qv``, per path (Z.M + N)_T and its quadratic variation;
    ``z_mean``, (K, w), the path means of Z and of Z_orth on each step; and
    ``z_export``, (K, m, w), the rows of the export paths.  ``steps[i]``
    gives step i's (Z, Z_orth) on any (n, dim) state rows at t_i: the
    regression's coefficients (``ZFit``), or, for the oracle, its rows on
    the paths it was solved on.  ``meta`` holds what a solver reports beside
    the field: the oracle's ``y0_se``, and nothing for the other solvers.

    ``solved_on`` is a weak reference to the states of the bundle the field
    was solved on; a reader of the sums is handed that bundle
    (``require_bundle``).  ``integrand``, (n_paths, K, w), and its views
    ``z`` and ``z_orth`` are evaluated from ``steps`` on those states at
    their first read into one node-major buffer and kept; no reader in the
    package reads them.  The field holds no error bars and no other Y: the
    pass of ``solve_backward`` hands its Y and variance rows, and those of
    the problems swept beside it, one node at a time to its readers.
    """

    y_start: np.ndarray
    y_sup: np.ndarray
    y_export: np.ndarray
    integral: np.ndarray
    qv: np.ndarray
    z_mean: np.ndarray
    z_export: np.ndarray
    steps: tuple
    dim_m: int
    solved_on: weakref.ref
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def integrand(self) -> np.ndarray:
        states = self.solved_on()
        if states is None:
            raise GridMismatchError("the states this field was solved on are gone: its integrand cannot be evaluated")
        buf = np.empty((self.n_steps, self.n_paths, self.z_mean.shape[1]))
        for i, step in enumerate(self.steps):
            step(states[i], out=buf[i])
        return buf.transpose(1, 0, 2)

    @property
    def z(self) -> np.ndarray:
        return self.integrand[:, :, : self.dim_m]

    @property
    def z_orth(self) -> np.ndarray:
        return self.integrand[:, :, self.dim_m :]

    @property
    def n_paths(self) -> int:
        return self.y_start.shape[0]

    @property
    def n_steps(self) -> int:
        return self.z_mean.shape[0]

    @property
    def y0(self) -> float:
        return float(np.mean(self.y_start))

    def require_bundle(self, bundle: ScenarioBundle) -> None:
        """``GridMismatchError`` unless ``bundle`` carries the states the field was solved on."""
        if self.solved_on() is bundle.states:
            return
        mine, theirs = (self.n_paths, self.n_steps), (bundle.n_paths, bundle.grid.n_steps)
        raise GridMismatchError(f"a field on {mine} (paths, steps) is not on the bundle's {theirs}" if mine != theirs
                                else "a field is read only beside the bundle whose paths it was solved on")

    def zeta_rows(self, bundle: ScenarioBundle):
        """(Z, Z_orth) on the states of ``bundle`` from ``steps``, one (n, w)
        row per step, t_0 first; each row is overwritten by the next.  The
        oracle's steps are rows of its own paths, so they need its bundle."""
        row = np.empty((bundle.n_paths, self.z_mean.shape[1]))
        for i, step in enumerate(self.steps):
            yield step(bundle.state(i), out=row)

    def to_csv(self, path, grid_nodes: np.ndarray) -> None:
        n, K, d, w = self.y_export.shape[1], self.n_steps, self.dim_m, self.z_export.shape[2]
        # node-major rows of the first n paths; node K repeats the last step's integrand
        node, p = np.divmod(np.arange((K + 1) * n), n)
        table = np.column_stack([node, grid_nodes[node], p, self.y_export[node, p],
                                 self.z_export[np.minimum(node, K - 1), p]])
        header = ["node", "t", "path", "y"] + [f"z{j}" for j in range(d)] + [f"zorth{j}" for j in range(w - d)]
        np.savetxt(path, table, fmt=["%d", "%.12g", "%d"] + ["%.12g"] * (w + 1), delimiter=",",
                   header=",".join(header), comments="")


@dataclass(frozen=True)
class ZFit:
    """Step i's (Z, Z_orth) as a function of the state at t_i: the fit of the
    step's noise-weighted target (``regression.BinnedFit`` or ``PolyFit``)
    over dt_i, the sweep's own arithmetic, so on the sweep's states it gives
    the sweep's rows bit for bit."""

    fit: BinnedFit | PolyFit
    dt: float

    def __call__(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(Z, Z_orth) on the (n, dim) state rows, into ``out`` if given."""
        out = self.fit(state, out)
        out /= self.dt
        return out


@dataclass(frozen=True)
class _Rows:
    """A step's (Z, Z_orth) known only on the paths it was computed on: the oracle's."""

    rows: np.ndarray

    def __call__(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        if state.shape[0] != self.rows.shape[0]:
            raise GridMismatchError(f"integrand rows of {self.rows.shape[0]} paths are not on {state.shape[0]} paths")
        out[...] = self.rows
        return out


class _FieldParts:
    """What a ``SolutionField`` keeps of Z, added one step at a time in any step order."""

    def __init__(self, bundle: ScenarioBundle):
        K, n, w = bundle.grid.n_steps, bundle.n_paths, bundle.states.shape[2]
        self.bundle = bundle
        self.integral, self.qv = np.zeros(n), np.zeros(n)
        self.z_mean = np.empty((K, w))
        self.z_export = np.empty((K, min(EXPORT_PATHS, n), w))
        self.steps = [None] * K

    def add(self, i: int, zeta: np.ndarray, step) -> None:
        """Step i's rows ``zeta`` (n, w) and its function of the state ``step``."""
        states, dim_m = self.bundle.states, self.bundle.dim_m
        self.integral += np.einsum("nw,nw->n", zeta, states[i + 1] - states[i])
        self.qv += np.einsum("nw,nw->n", zeta, zeta) * self.bundle.dt[i]
        # each over its own columns: a mean over both rounds differently
        self.z_mean[i, :dim_m] = np.mean(zeta[:, :dim_m], axis=0)
        self.z_mean[i, dim_m:] = np.mean(zeta[:, dim_m:], axis=0)
        self.z_export[i] = zeta[: self.z_export.shape[1]]
        self.steps[i] = step

    def field(self, y_start, y_sup, y_export, meta=None) -> SolutionField:
        return SolutionField(y_start, y_sup, y_export, self.integral, self.qv, self.z_mean, self.z_export,
                             tuple(self.steps), self.bundle.dim_m, weakref.ref(self.bundle.states), meta or {})


def field_from_rows(bundle: ScenarioBundle, y: np.ndarray, integrand, meta=None) -> SolutionField:
    """The field of Y's (K+1, n) node rows and the integrand's K (n, w) step
    rows on the paths of ``bundle``, t_0 first: the oracle's route, where Z
    has no coefficients and its rows are kept as its steps.  The sums run
    forward, as ``scenarios.integral_by_node`` runs them."""
    if len(integrand) != bundle.grid.n_steps:
        raise ValueError(f"integrand has {len(integrand)} steps, the bundle {bundle.grid.n_steps}")
    parts = _FieldParts(bundle)
    for i, zeta in enumerate(integrand):
        parts.add(i, zeta, _Rows(zeta))
    return parts.field(y[0].copy(), np.abs(y).max(axis=0), y[:, :EXPORT_PATHS].copy(), meta)


def _solve_y(ey, zeta, driver, bundle, i):
    """Y at node i: the fixed point y = ey + F(t_i, y, Z) dA_i + 1/2 |Z_orth|^2 dt_i, vectorized over paths.

    ``zeta`` is the step's integrand (Z, Z_orth), shape (n, dim_m + dim_orth);
    the last term is N's half quadratic variation over the step.  Picard
    iterates where beta_bar * dA_i > 0, which must be below 1/2 (else
    ``ValueError``); elsewhere one evaluation at ey is the fixed point.
    """
    z, z_orth = zeta[:, : bundle.dim_m], zeta[:, bundle.dim_m :]
    half_qv = 0.5 * np.einsum("nq,nq->n", z_orth, z_orth) * bundle.dt[i] if bundle.dim_orth else 0.0
    dA_i = bundle.dA[i]
    if not dA_i > 0:
        return ey + half_qv
    contraction = driver.params.beta_bar * dA_i
    if contraction >= 0.5:
        raise ValueError(f"contraction constraint violated at step {i}: beta_bar * dA = {contraction:.3g} >= 0.5")
    y = ey + driver.evaluate(bundle, i, ey, z) * dA_i + half_qv
    if not contraction > 0:
        return y
    last = np.inf
    for _ in range(PICARD_MAX):
        y_new = ey + driver.evaluate(bundle, i, y, z) * dA_i + half_qv
        last = float(np.max(np.abs(y_new - y)))
        y = y_new
        if last <= PICARD_TOL:
            return y
    raise SolverDivergenceError(step=i, sup_change=last, max_iter=PICARD_MAX)


def _regression_at(bundle: ScenarioBundle, config: SolverConfig, feature_source: TerminalCondition):
    """Step i's regression as a function of i: ``make_regression`` on the
    Markov state at t_i, handed ``feature_source.fn`` as the feature, built
    once for the sweeps that share it and released before the next build."""
    held = {}

    def regression(i: int):
        if i not in held:
            held.clear()
            held[i] = make_regression(config, bundle.state(i), feature_source.fn)
        return held[i]

    return regression


def _require_dim_m(driver: DriverSpec, bundle: ScenarioBundle) -> None:
    """``ValueError`` unless the driver takes the bundle's martingale dimension."""
    if driver.dim_m is not None and driver.dim_m != bundle.dim_m:
        raise ValueError(f"driver {driver.name!r} needs dim_m={driver.dim_m}, bundle has {bundle.dim_m}")


def _backward_steps(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    config: SolverConfig,
    regression=None,
    variance: bool = False,
    fits: list | None = None,
):
    """The regression scheme's backward sweep, one node at a time from i = K down to 0.

    Yields ``(i, y_i, zeta_i, y_var_i)``: node i's row of Y, the integrand
    (Z, Z_orth) on [t_i, t_{i+1}) and, with ``variance``, the row's variance
    by first-order error propagation (else None).  Node K comes first: xi at
    the terminal states, integrand None and, with ``variance``, a zero row.
    Per step: project y_{i+1} on ``make_regression``'s basis of the Markov
    state, read Z off the increment regressions of the centred target, then
    solve the implicit Y-update.  The variance of y_i is, per path, the
    pointwise variance of the step's projection plus the smoothed variance
    inherited from node i + 1, amplified by the implicit-step contraction factor.

    Only the current Y row is kept, and the variance rows of the current and
    the next node, so a yielded variance row is overwritten once the sweep
    has advanced two more nodes; a consumer stores what it needs.
    ``regression(i)`` gives step i's regression, by default from
    ``_regression_at`` with ``xi.fn`` as the feature; sweeps on the same
    states handed one ``_regression_at`` share it.  With ``fits``, a list of K
    entries, step i's Z as a function of the state (``ZFit``, whose rows on
    the bundle's states are zeta_i) is stored at ``fits[i]``.  A non-finite
    row y_i raises ``DegenerateBasisError`` at its step.
    """
    _require_dim_m(driver, bundle)

    dt, dA, K = bundle.dt, bundle.dA, bundle.grid.n_steps
    y = xi.evaluate(bundle.terminal_state)
    # the variance rows of the current and the next node; without variance both are None
    y_var = np.zeros((2, bundle.n_paths)) if variance else (None, None)
    yield K, y, None, y_var[K % 2]
    regression = regression or _regression_at(bundle, config, xi)
    for i in range(K - 1, -1, -1):
        # the step's regression and rows are released before the next build,
        # the sweep's peak, even while the sweep waits suspended in a pass,
        # and its other temporaries stay unnamed
        reg = regression(i)
        target = y
        ey = reg.fit(target)
        # (Z, Z_orth): projections of the centred target times the step's noise
        z_fit = reg.coef((target - ey)[:, None] * (bundle.states[i + 1] - bundle.states[i]))
        zeta = reg.fitted(z_fit) / dt[i]
        if fits is not None:
            fits[i] = ZFit(z_fit, float(dt[i]))
        y = _solve_y(ey, zeta, driver, bundle, i)
        # min and max allocate no row; an isfinite row here raised the peak RSS by 4 MB
        if not (math.isfinite(y.min()) and math.isfinite(y.max())):
            raise DegenerateBasisError(f"non-finite Y at step {i}")
        if variance:
            sigma2_y = reg.residual_variance(target, ey)
            amp = 1.0 / (1.0 - driver.params.beta_bar * dA[i])
            # the inherited variance, smoothed: no row of it outlives the line
            y_var[i % 2] = (reg.fit_variance(sigma2_y) + np.maximum(reg.fit(y_var[(i + 1) % 2]), 0.0)) * amp**2
        del reg, target, ey, z_fit
        yield i, y, zeta, y_var[i % 2]
        del zeta


def solve_backward(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    config: SolverConfig | None = None,
    readers=(),
) -> SolutionField:
    """Regression-based backward recursion from Y_K = xi: an experiment's one backward pass.

    Keeps what a ``SolutionField`` holds: of Y, the row at t_0, the running
    per-path supremum of |Y| (the terminal value, pinned exactly path by
    path, included) and the rows of the first ``EXPORT_PATHS`` paths; of Z,
    each step's coefficients (``ZFit``) and the sums of the field, added as
    the sweep makes each step's rows, t_{K-1} first.  No (K+1, n) or
    (n, K, w) array is made, and each step's rows are released when the
    sweep moves on.

    ``readers`` read the pass.  A reader's ``problems`` are the (bundle,
    driver, terminal) triples it needs swept beside this one, on ``bundle``'s
    states (``GridMismatchError`` otherwise; the clocks may differ), each
    step's regression built once for all with ``xi.fn`` as the feature, so a
    problem whose terminal is ``xi`` gets the rows of its own solve.  At
    every node, t_K first, ``reader(base, *steps)`` gets this problem's
    ``_backward_steps`` step ``(i, y_i, zeta_i, y_var_i)``, then its
    problems'; ``y_var_i``, valid during the call only, is None unless a
    reader's ``variance`` asks for error bars.  Its ``report()`` follows.
    """
    config = config or SolverConfig()
    n, K = bundle.n_paths, bundle.grid.n_steps
    if any(b.states is not bundle.states for reader in readers for b, _, _ in reader.problems):
        raise GridMismatchError("a problem swept in lockstep must be on the states of the pass")

    y_export = np.empty((K + 1, min(EXPORT_PATHS, n)))
    y_sup = np.zeros(n)
    parts, fits = _FieldParts(bundle), [None] * K
    regression = _regression_at(bundle, config, xi)
    variance = any(reader.variance for reader in readers)
    sweep = _backward_steps(bundle, driver, xi, config, regression, variance=variance, fits=fits)
    # each reader's own sweeps, advanced after this one, which builds the step's regression
    own = [[_backward_steps(*problem, config, regression, variance=reader.variance) for problem in reader.problems]
           for reader in readers]

    for i, y_i, zeta, y_var_i in sweep:
        np.maximum(y_sup, np.abs(y_i), out=y_sup)
        y_export[i] = y_i[: y_export.shape[1]]
        if i < K:
            parts.add(i, zeta, fits[i])
        for reader, sweeps in zip(readers, own):
            reader((i, y_i, zeta, y_var_i), *[next(s) for s in sweeps])

    # the sweep makes every row afresh, so node 0's is kept as it is
    return parts.field(y_i, y_sup, y_export)


def y0_with_se(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    config: SolverConfig | None = None,
) -> tuple[float, float, list[float]]:
    """Y_0 estimate with a standard error from ``Y0_SE_BATCHES`` disjoint path
    batches (one per path when there are fewer paths).

    Batch means are independent solver runs, so the spread includes the
    regression noise accumulated over all backward steps.  Returns the mean
    of the batch Y_0 values, its standard error and the values.

    Each batch runs the sweep of ``solve_backward`` and keeps only its
    current row: a batch Y_0 equals ``solve_backward`` on that batch's
    ``slice_paths`` exactly, without the field's parts or the error
    propagation that only a stored solution needs.
    """
    config = config or SolverConfig()
    k = max(1, min(Y0_SE_BATCHES, bundle.n_paths))
    edges = np.linspace(0, bundle.n_paths, k + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        for _, y, _, _ in _backward_steps(bundle.slice_paths(int(lo), int(hi)), driver, xi, config):
            pass
        vals.append(float(np.mean(y)))
    return (*mean_se(vals), vals)


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

    Draws.  A root state's id is its path index (0 for a shared root), and the
    successors of state g have ids g * b + branch.  The normals of state g are
    row g % block of an SFC64 stream keyed by (seed, 0, root node, node,
    g // block), where a block is about 2^16 leaves' worth of states; one
    generator per block keeps its set-up cost near 3 % of the draws.  Above
    the leaves each state draws b normals; at the leaf level (the step into
    t_K, b times more states than any level above) it draws b/2 and uses each
    as the antithetic pair s + sigma eps, s - sigma eps (Glasserman 2004,
    section 4.2), so the terminal still sees b leaves at half the draws.
    Paired leaves are not independent, so an SE at a leaf-level root (a 1-step
    grid) is the spread of the b/2 pair means.  Chunks are whole blocks, and
    every call starts at a block boundary (its first id is 0 or a chunk start
    times b), so the only partial block is the last one of a level, which is
    always drawn at the same size.  The draws, and with them the field, are
    therefore the same for every chunk size and thread count.  A driver with
    beta_bar > 0 stops its Picard iteration on a chunk's sup-norm, so its
    field agrees across chunk sizes to ``PICARD_TOL`` rather than bit for bit.

    Threads.  The chunks of the first level that has more than one chunk run
    on ``pool`` (node 0: the 1000 first-level states; later nodes: the
    successors of the paths).  Everything below a chunk runs in the thread
    that owns it, and each chunk writes only its own rows of the outputs.
    """

    def __init__(self, bundle, driver, xi, branching, root):
        self.bundle = bundle
        self.driver = driver
        self.xi = xi
        self.b = int(branching)
        self.root = root
        self.K = bundle.grid.n_steps
        self.w = bundle.dim_m + bundle.dim_orth
        self.sq_dt = np.sqrt(bundle.dt).astype(np.float32)
        self.block = max(1, _ORACLE_SEED_LEAVES // self.b)
        self.chunk = self.block * max(1, ORACLE_CHUNK_BUDGET // (self.block * self.b))

    def _normals(self, i: int, first: int, count: int, per_state: int | None = None) -> np.ndarray:
        """Standard normals (count, per_state or b, dim_m + dim_orth) for the states first, ..., first + count - 1 at node i."""
        out = np.empty((count, per_state or self.b, self.w), dtype=np.float32)
        source = self.bundle.source
        for lo in range(0, count, self.block):
            key = (source.seed, 0, 7001, self.root, i, (first + lo) // self.block)
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
        leaf = i + 1 == self.K

        def run_chunk(lo, hi, inner_pool):
            c = hi - lo
            succ = self._normals(i, first + lo, c, self.b // 2 if leaf else None)
            if leaf:
                succ = np.concatenate((succ, -succ), axis=1)
            succ *= self.sq_dt[i]
            succ += states[lo:hi].astype(np.float32)[:, None, :]
            v, _, _ = self.value(i + 1, succ.reshape(c * self.b, -1), (first + lo) * self.b, False, pool=inner_pool)
            v = v.reshape(c, self.b)
            ey = v.mean(axis=1, dtype=np.float64)
            if leaf:
                # a non-finite float32 leaf makes its state's float64 mean
                # non-finite, and finite leaves cannot overflow that sum
                self.xi.require_finite(ey)
            # F may read Z, and Z_orth enters Y through N's quadratic variation
            dv = v - ey.astype(np.float32)[:, None]
            ez = np.matmul(dv[:, None, :], succ)[:, 0, :].astype(np.float64) / (self.b * dt_i)
            y[lo:hi] = _solve_y(ey, ez, self.driver, self.bundle, i)
            if want_z:
                zeta[lo:hi] = ez
            if want_se:
                means = 0.5 * (v[:, : self.b // 2] + v[:, self.b // 2 :]) if leaf else v
                se[lo:hi] = means.std(axis=1, ddof=1, dtype=np.float64) / math.sqrt(means.shape[1])

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
) -> SolutionField:
    """Dynamic programming by resimulation; cost ~ branching ** n_steps.

    Conditional expectations at each node/path state come from fresh branches
    simulated out of that state instead of a cross-sectional regression;
    Y solves the same per-step fixed point as the regression scheme.
    ``branching`` must be even: the branches into t_K are antithetic pairs,
    and when node 0 is itself the leaf level (a 1-step grid) ``meta["y0_se"]``
    is the standard error of the branching/2 pair means.  It is the only
    key of ``meta``, 0 when the paths do not share one state at node 0.
    ``branching ** n_steps`` above ``ORACLE_CAPACITY`` raises ``CapacityError``.
    The field comes from the oracle's own (K+1, n) Y, at most four rows, and
    its K integrand rows, summed forward (``field_from_rows``); the rows are
    the field's Z, which has no coefficients.

    ``xi.fn`` runs on one worker thread per core at once, each call on a
    block of about 2^16 float32 leaf states, when ``xi.affine`` is set: the
    builtin terminals make no BLAS call.  A terminal without an affine form
    may make one (``np.dot``, ``s @ a`` with a 2-D state) and so start BLAS
    threads inside every worker; it runs on the calling thread alone.
    """
    if bundle.grid.nodes.size > 4:
        raise ValueError("nested MC oracle is restricted to grids with at most 4 nodes")
    if branching < 1000:
        raise ValueError("oracle branching must be at least 1000")
    if branching % 2:
        raise ValueError("oracle branching must be even: leaves are drawn in antithetic pairs")
    if branching ** bundle.grid.n_steps > ORACLE_CAPACITY:
        raise CapacityError(
            f"branching**n_steps = {branching ** bundle.grid.n_steps:.3g} exceeds capacity {ORACLE_CAPACITY:.3g}"
        )
    _require_dim_m(driver, bundle)

    n, K = bundle.n_paths, bundle.grid.n_steps
    y = np.empty((K + 1, n))
    integrand = []
    y[K] = xi.evaluate(bundle.terminal_state)
    y0_se = 0.0

    # one executor per call: no worker thread outlives it (callers may fork)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=cpus) if xi.affine is not None else contextlib.nullcontext() as pool:
        for i in range(K):
            states = bundle.state(i)
            # a node where every path sits at one state is resimulated once
            shared = bool(np.all(states == states[0]))
            roots = states[:1] if shared else states
            start = time.perf_counter()
            run = _OracleRun(bundle, driver, xi, branching, root=i)
            y[i], zeta, se = run.value(i, roots, 0, True, want_se=shared, pool=pool)
            # a shared root's single row, copied to every path
            integrand.append(np.broadcast_to(zeta, (n, zeta.shape[1])).copy())
            seconds = time.perf_counter() - start
            leaves = roots.shape[0] * branching ** (K - i)
            _log.debug("oracle node %d: %d states, %d leaves in %.2f s (%.3g leaves/s)",
                       i, roots.shape[0], leaves, seconds, leaves / max(seconds, 1e-12))
            if i == 0 and shared:
                y0_se = float(se[0])

    return field_from_rows(bundle, y, integrand, meta={"y0_se": y0_se})


# ---------------------------------------------------------------------------
# truncation ladder
# ---------------------------------------------------------------------------


def _stopped_clock(bundle: ScenarioBundle, driver: DriverSpec, level: float) -> ScenarioBundle:
    """The bundle with its clock A held constant from the first grid step that
    would push the running integral of alpha dA past the level."""
    running = np.cumsum(driver.params.alpha_on(bundle)[:-1] * bundle.dA)
    stop = int(np.count_nonzero(np.logical_and.accumulate(running <= level * (1.0 + 1e-9) + 1e-12)))
    return dataclasses.replace(bundle, clock_values=np.minimum(bundle.clock_values, bundle.clock_values[stop]))


def _truncated_terminal(xi: TerminalCondition, level: float) -> TerminalCondition:
    base = xi.fn
    return TerminalCondition(fn=lambda s: np.clip(np.asarray(base(s), dtype=float), -level, level),
                             tag=f"{xi.tag}|trunc {level:g}")


class TruncationLadder:
    """The truncated problems of ``levels``: a reader of ``solve_backward``'s pass, then its own report.

    Level n solves the problem with xi capped at +-n on the bundle whose
    clock A stops once the running integral of alpha dA would exceed n; the
    driver itself is unchanged, it only acts where dA > 0.  The levels,
    positive and strictly increasing, are swept with error bars beside the
    untruncated problem, whose xi is their feature; common random numbers
    make the comparison-theorem monotonicity visible pathwise.  Each node
    compares every pair of levels row by row, so no level keeps a row.
    After the pass ``y0[k]`` is the path mean of level k's Y_0 and
    ``monotonicity`` holds the fraction of (node, path) points where a lower
    level exceeds a higher one by more than ``tol`` plus 3 combined
    pointwise standard errors, the worst gap, ``tol`` and the number of
    points compared (``pairs``); ``alpha_l1[k]`` is |alpha|_1 on level k's
    stopped clock.
    """

    variance = True

    def __init__(self, bundle: ScenarioBundle, driver: DriverSpec, xi: TerminalCondition, levels: list[float],
                 tol: float = 0.0):
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"truncation levels must be strictly increasing, got {list(levels)}")
        if any(level <= 0 for level in levels):
            raise ValueError("truncation levels must be positive")
        stopped = [_stopped_clock(bundle, driver, float(level)) for level in levels]
        self.problems = tuple((b, driver, _truncated_terminal(xi, float(level))) for b, level in zip(stopped, levels))
        self.levels = tuple(float(v) for v in levels)
        self.alpha_l1 = tuple(driver.params.alpha_l1(b) for b in stopped)
        self.y0, self.tol, self.worst, self.violations, self.total = (), tol, -np.inf, 0, 0

    def __call__(self, base, *levels) -> None:
        tol = self.tol
        for a in range(len(levels)):
            for b in range(a + 1, len(levels)):
                gap = levels[a][1] - levels[b][1]
                self.worst = max(self.worst, float(np.max(gap)))
                # the allowance is at least tol, so only the points past tol can exceed it
                over = gap > tol
                se_a, se_b = np.sqrt(levels[a][3][over]), np.sqrt(levels[b][3][over])
                self.violations += int(np.count_nonzero(gap[over] > tol + 3.0 * np.hypot(se_a, se_b)))
                self.total += gap.size
        if base[0] == 0:
            self.y0 = tuple(float(np.mean(y)) for _, y, _, _ in levels)

    @property
    def monotonicity(self) -> dict:
        return {"violation_fraction": self.violations / max(self.total, 1), "worst_gap": self.worst, "tol": self.tol,
                "pairs": self.total}

    def report(self) -> TruncationLadder:
        return self


def solve_ladder(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    xi: TerminalCondition,
    levels: list[float],
    config: SolverConfig | None = None,
    tol: float = 0.0,
) -> TruncationLadder:
    """The ``TruncationLadder`` of ``levels``, read off a pass of the
    untruncated problem; an experiment hands the ladder to its own pass."""
    ladder = TruncationLadder(bundle, driver, xi, levels, tol)
    solve_backward(bundle, driver, xi, config, [ladder])
    return ladder
