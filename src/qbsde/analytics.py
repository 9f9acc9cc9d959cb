"""Every check of the paper's statements: its statistic and its verdict.

Each check returns the ``CheckReport`` that the experiment report carries.
Every statistical pass/fail uses a three-standard-error tolerance with the
sample sizes recorded in the report; deterministic experiments collapse the
standard errors to zero, so the same semantics cover exact checks too.

A driver's declared growth, Lipschitz, convexity and local-Lipschitz
properties, and the ordering of two drivers, are falsified (not proved) by
randomized sampling over a probe box; violations are reported with margins,
never raised.

No check builds a (K+1, n) or an (n, K, w) surface beside the solutions it
reads, and no solution holds one (``SolutionField``).  The a priori
check streams through the backward sweep: the sweep hands it each node's Y
row and variance row as it makes them, and the check keeps only running
maxima of the gap |Y| - X over the paths.  The bound X (``apriori_bound``)
is an exact closed form, evaluated only on the paths that can hold a row's
maximum.  X increases in the modulus of the terminal's conditional mean,
so its exact values at ``KNOTS`` uniform knots of the modulus bracket
every path's X; the bracket is widened by 1e-12 (1 + the largest knot
value), far more than the rounding of the closed form's float evaluation,
which need not be monotone.  A path whose gap, bounded from above, stays
below both the running maximum and its row's largest bound from below
cannot hold the maximum, so the maxima, their argmax and its ties are
those over every path, bit for bit.
Comparison and stability read the Y rows of two problems node by node
from their sweeps run in lockstep (``solver.lockstep_sweeps``).  The other
checks reduce a field's stored parts: Y*, the terminal value of Z.M + N
and its quadratic variation, and the per-step means of Z; Kazamaki's
statistic, which needs Z.M + N at every node, evaluates Z afresh from the
field's coefficients one step at a time.
Each check that is handed a bundle beside the field first checks that it
is the bundle the field was solved on (``GridMismatchError`` otherwise).  A
value that a report cannot define is None (JSON null), never a NaN or
infinite sentinel.

Every sample mean of exp(.) over the paths comes from ``_exponential_mean``:
unless every value, the mean and its SE are finite, both are inf and every
check that reads them fails (the norm bound raises ``MomentFailureError``),
so an overflow never passes on an infinite SE or turns into a NaN.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .drivers import DriverSpec, ParamSet, TerminalCondition
from .errors import GridMismatchError, MomentFailureError
# of these, only NodeRegression is unused here; it stays bound because the
# benchmark's tracing patches analytics.NodeRegression
from .regression import NodeRegression, SolverConfig, n_columns
from .scenarios import ScenarioBundle, integral_by_node, mean_se
from .solver import SolutionField, TruncationLadder


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check: pass iff margin <= tolerance."""

    name: str
    passed: bool
    margin: float
    tol: float
    n_paths: int
    se: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "tol": float(self.tol),
            "n_paths": int(self.n_paths),
            "se": float(self.se),
            "extra": dict(self.extra),
        }


class ExpMartingaleEstimate(NamedTuple):
    """Mean and SE over the paths of exp(x), x a per-path exponent such as log E(q (Z.M + N))_T
    (both inf unless both are finite), and the number of paths whose exp(x) is not finite."""

    mean: float
    se: float
    n_overflow: int


def _exponential_mean(exponent: np.ndarray) -> ExpMartingaleEstimate:
    """The estimator of every mean of exp(.) in this module."""
    with np.errstate(over="ignore"):
        vals = np.exp(exponent)
        n_overflow = int(np.count_nonzero(~np.isfinite(vals)))
        mean, se = mean_se(vals) if n_overflow == 0 else (math.inf, math.inf)
    if not (math.isfinite(mean) and math.isfinite(se)):
        mean = se = math.inf
    return ExpMartingaleEstimate(mean, se, n_overflow)


def _require_grid(bundle: ScenarioBundle, shape: tuple[int, ...]) -> None:
    """``GridMismatchError`` unless ``shape``, the sweeps' rows', starts with
    the bundle's (n_paths, n_steps)."""
    if tuple(shape[:2]) != (bundle.n_paths, bundle.grid.n_steps):
        raise GridMismatchError(f"an integrand on {tuple(shape[:2])} (paths, steps) is not on the bundle's "
                                f"{(bundle.n_paths, bundle.grid.n_steps)}")


# ---------------------------------------------------------------------------
# anchor and truncation ladder
# ---------------------------------------------------------------------------


def anchor_check(
    solution: SolutionField,
    estimate: float,
    estimate_se: float,
    y0: float,
    tol: float = 0.01,
    z_mean=None,
    z_orth_mean=None,
) -> CheckReport:
    """The Y0 ``estimate`` within ``tol`` and 3 SE of the known ``y0``; with
    ``z_mean`` (``z_orth_mean``), the path mean of Z (of the orthogonal
    integrand) within 0.05 of it at every step, reported as ``extra["z_tol"]``.

    The 3-SE clause has a floating-point floor, so deterministic problems
    (batch spread at machine precision) are judged on ``tol`` alone.
    """
    gap = abs(estimate - y0)
    passed = gap <= tol and gap <= 3.0 * estimate_se + 1e-12
    extra = {"expected_y0": float(y0), "y0": estimate, "y0_se": estimate_se}
    d = solution.dim_m
    for target, means, key in ((z_mean, solution.z_mean[:, :d], "z_gap"),
                               (z_orth_mean, solution.z_mean[:, d:], "z_orth_gap")):
        if target is not None:
            z_gap = float(np.max(np.abs(means - np.asarray(target, dtype=float)[None, :])))
            passed = passed and z_gap <= 0.05
            extra[key] = z_gap
            extra["z_tol"] = 0.05
    return CheckReport("anchor", passed, gap, tol, solution.n_paths, estimate_se, extra)


def ladder_check(ladder: TruncationLadder, y0: float, y0_se: float, n_paths: int) -> CheckReport:
    """Truncation monotonicity: fewer than 1e-3 of the (node, path) points
    break the level order beyond the ladder's ``tol`` (3 SE of Y0), and the
    top level's Y0 is within 3 SE (of a difference of two estimates) of ``y0``."""
    mono = ladder.monotonicity
    top_gap = abs(ladder.y0[-1] - y0)
    top_ok = top_gap <= 3.0 * max(y0_se, 1e-15) * math.sqrt(2.0)
    return CheckReport(
        name="truncation_ladder",
        passed=mono["violation_fraction"] < 1e-3 and top_ok,
        margin=mono["violation_fraction"],
        tol=1e-3,
        n_paths=n_paths,
        se=y0_se,
        extra={
            "levels": list(ladder.levels),
            "y0_by_level": list(ladder.y0),
            "alpha_l1_by_level": list(ladder.alpha_l1),
            "worst_gap": mono["worst_gap"] if mono["pairs"] else None,
            "untruncated_y0": y0,
            "top_gap": top_gap,
        },
    )


# ---------------------------------------------------------------------------
# a priori bound
# ---------------------------------------------------------------------------


# Cephes ndtr.c (Moshier 1989, Methods and Programs for Mathematical Functions):
# erf(x) = x T(x^2) / U(x^2) on [0, 1], erfc(z) = exp(-z^2) P(z) / Q(z) on
# [1, 8) and exp(-z^2) R(z) / S(z) beyond
_P = (2.46196981473530512524e-10, 5.64189564831068821794e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # erfc(z) is 0 where z^2 exceeds it
_SQRT1_2 = 0.70710678118654752440


def _poly(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule as Cephes' polevl; with a leading 1, as its p1evl."""
    y = np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _poly(z, _T) / _poly(z, _U)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF, vectorized: Cephes ``ndtr`` with its tables and branches, 0.5 + 0.5 erf(x)
    for |x| = |a|/sqrt(2) below sqrt(1/2), else 0.5 erfc(|x|), complemented for x > 0; a NaN stays NaN."""
    x = np.multiply(a, _SQRT1_2)
    z = np.abs(x)
    y = np.empty_like(z)
    inner, below_one, below_eight = z < _SQRT1_2, z < 1.0, z < 8.0
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    near = below_one & ~inner
    y[near] = 1.0 - _erf(z[near])
    for part, num, den in ((below_eight & ~below_one, _P, _Q), (~below_eight, _R, _S)):
        w = z[part]
        with np.errstate(over="ignore", invalid="ignore"):  # a huge z overflows to 0 * inf, zeroed below
            tail = np.exp(-w * w) * _poly(w, num) / _poly(w, den)
            tail[w * w > _MAXLOG] = 0.0
        y[part] = tail
    outer = ~inner
    y[outer] *= 0.5
    flip = outer & (x > 0)
    y[flip] = 1.0 - y[flip]
    return y


def _chi2_isf(u: float, dof: int) -> float:
    """The chi-square quantile of upper tail ``u`` at integer ``dof``, bisected down to adjacent floats on the
    survival function [erfc(sqrt(h)) if dof is odd] + sum_j e^{-h} h^g / Gamma(g + 1), h = x/2, over the
    dof // 2 values g = dof % 2 / 2 + j (none for dof 1)."""
    def survival(x: float) -> float:
        h, g = 0.5 * x, 0.5 * (dof % 2)
        total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
        term = math.exp(-h) * h ** g / math.gamma(g + 1.0)
        for _ in range(dof // 2):
            total += term
            g += 1.0
            term *= h / g
        return total

    lo, hi = 0.0, float(dof)
    while survival(hi) > u:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if survival(mid) > u else (lo, mid)
    return hi


def _folded_log_mgf(c: float, mean: np.ndarray, var: float) -> np.ndarray:
    """log E[exp(c |X|)] for X ~ N(mean, var) and c >= 0, vectorized over the mean.

    With m = |mean| and s = sqrt(var) it is
    c m + c^2 s^2 / 2 + log(Phi(m/s + c s) + e^{-2cm} Phi(-m/s + c s)),
    whose log argument lies in [1/2, 2], so no term overflows; Phi is ``_ndtr``.
    It increases in m: a folded normal is stochastically increasing in the
    modulus of its mean.
    """
    m = np.abs(mean)
    if var <= 0:
        return c * m
    sd = math.sqrt(var)
    hi = m / sd
    lo = np.subtract(c * sd, hi)
    hi += c * sd
    tail = np.multiply(m, -2.0 * c)
    np.exp(tail, out=tail)
    tail *= _ndtr(lo)
    tail += _ndtr(hi)
    m *= c
    m += 0.5 * c * c * var
    m += np.log(tail, out=tail)
    return m


# exact evaluations of the bound that bracket one node row: uniform knots of
# the modulus |a0 + a.state| on [0, its maximum over the paths]
KNOTS = 1025


def apriori_bound(bundle: ScenarioBundle, xi: TerminalCondition, params: ParamSet) -> Callable[[int], np.ndarray]:
    """The row function ``row(i)`` of the bound X, computing its (n_paths,) row
    (1/gamma) log E[exp(gamma e^{b*(T-t)} |xi| + gamma int_t^T e^{b*(r-t)} alpha dA) | F_t]
    at node t_i on every call, so rows may be asked for in any order.

    ``row.bracket(i)`` is ``(lo, hi, exact)``: lo <= X_i <= hi on every path,
    from X_i at ``KNOTS`` knots of the modulus |a0 + a.state_i|, and
    ``exact(paths)`` is ``row(i)[paths]`` bit for bit, computed on those paths
    alone.  It is (-inf, inf) at nodes 0 and K, on a constant modulus and where
    a knot's X is not finite.

    xi must have an affine form (constant, affine or its absolute value;
    ``ValueError`` otherwise): |xi| given F_t is then a folded normal,
    because the state (M, W_orth) is Brownian, and its MGF is in closed form.
    The gamma >= 1 and moment checks run here, before any row.
    """
    if params.gamma < 1:
        raise ValueError("the a priori bound needs gamma >= 1")
    if xi.affine is None:
        raise ValueError("the a priori bound needs a terminal with an affine form (constant, affine or abs)")
    gamma, bstar = params.gamma, params.beta_star
    nodes, T, K = bundle.grid.nodes, bundle.grid.horizon, bundle.grid.n_steps

    order = gamma * math.exp(bstar * T)
    if not math.isfinite(exponential_moment_estimate(xi, params, bundle, order)[0]):
        raise MomentFailureError(
            f"exponential moment of order gamma*e^(beta*T) = {order:.3g} is not finite on the sample"
        )
    xi_vals = xi.evaluate(bundle.terminal_state)
    alpha = params.alpha_on(bundle)

    # weighted remaining mean-variance tradeoff, backward recursion
    R = np.zeros(K + 1)
    for i in range(K - 1, -1, -1):
        R[i] = alpha[i] * (bundle.clock_values[i + 1] - bundle.clock_values[i]) + math.exp(bstar * bundle.dt[i]) * R[i + 1]

    c = gamma * np.exp(bstar * (T - nodes))
    a0, a = xi.affine
    a = np.broadcast_to(np.asarray(a, dtype=float), (bundle.dim_m + bundle.dim_orth,))

    def x_at(i, mean):
        return _folded_log_mgf(float(c[i]), mean, float(a @ a) * (T - nodes[i])) / gamma + R[i]

    def row(i):
        if i == K:
            return np.abs(xi_vals)
        return x_at(i, a0 + bundle.state(i) @ a)

    def bracket(i):
        if i == K:
            return -np.inf, np.inf, lambda paths: np.abs(xi_vals[paths])
        mean = a0 + bundle.state(i) @ a
        exact = lambda paths: x_at(i, mean[paths])  # noqa: E731
        modulus = np.abs(mean)
        top = float(np.max(modulus))
        if i == 0 or not (math.isfinite(top) and top > np.min(modulus)):
            return -np.inf, np.inf, exact
        knots = np.linspace(0.0, top, KNOTS)
        x_knots = x_at(i, knots)
        if not np.all(np.isfinite(x_knots)):
            return -np.inf, np.inf, exact
        # the float evaluation need not be monotone; it is off by far less than the slack
        slack = 1e-12 * (1.0 + float(np.max(np.abs(x_knots))))
        # a scaled floor is off by at most one knot: knots[at - 1] <= modulus <= knots[at + 2]
        at = np.multiply(modulus, (KNOTS - 1) / top).astype(np.intp)
        lo = np.concatenate((x_knots[:1], x_knots[:-1])) - slack
        hi = np.concatenate((x_knots[2:], x_knots[-1:], x_knots[-1:])) + slack
        return lo[at], hi[at], exact

    row.bracket = bracket
    return row


class AprioriCheck:
    """The running state of ``check_apriori``, fed one node row at a time.

    A call ``check(i, y_i, y_var_i)`` takes node i's (n_paths,) row of Y and
    its variance row, in any node order; ``shape`` is (n_paths, K+1).
    ``solve_backward(..., checks=[check])`` makes the calls; a caller feeding
    rows by hand may pass the scalar 0 for an exact row.  The check keeps the
    largest raw gap and the largest adjusted gap as (gap, -path, -node) with
    its SE: tuple order takes the first maximum in path-major order, as a
    flat argmax over the surfaces would.

    Each row's maxima are taken over the paths that ``row.bracket(i)`` leaves
    able to reach them (see the module docstring), in path order, so the
    maxima, their ties and a NaN come out as over every path.  A row function
    without a bracket, built by hand, makes every path a candidate.
    """

    def __init__(self, row: Callable[[int], np.ndarray], shape: tuple[int, int], band: float,
                 tight: float | None, x0: float | None):
        self.shape, self.band, self.tight, self.x0 = shape, band, tight, x0
        self.bracket = getattr(row, "bracket", lambda i: (-np.inf, np.inf, row(i).__getitem__))
        self.worst, self.worst_se, self.raw = None, 0.0, -np.inf
        self.seen = np.zeros(shape[1], dtype=bool)
        self.bound_x0 = None  # from node 0's row

    def __call__(self, i: int, y_i: np.ndarray, y_var_i: np.ndarray | float) -> None:
        n, nodes = self.shape
        if np.shape(y_i) != (n,) or not 0 <= i < nodes:
            raise GridMismatchError(f"row {i} of {np.shape(y_i)} paths is not a row of the bound process {self.shape}")
        lo, hi, exact = self.bracket(i)
        y_abs = np.abs(y_i)
        se = np.broadcast_to(np.sqrt(y_var_i), y_abs.shape)
        cut = 3.0 * self.band * se
        # a NaN bound keeps its path and a NaN maximum every path; a whole
        # bracket keeps every path, its upper bound being inf
        with np.errstate(invalid="ignore"):
            up, down = y_abs - lo, y_abs - hi
            far = up < np.maximum(self.raw, np.max(down))
            up -= cut
            down -= cut
            far &= up < np.maximum(-np.inf if self.worst is None else self.worst[0], np.max(down))
        paths = np.flatnonzero(~far)
        if paths.size:
            x_i = exact(paths)
            if i == 0:
                self.bound_x0 = float(np.mean(x_i))
            gap = y_abs[paths] - x_i
            adjusted = gap - cut[paths]
            k = int(np.argmax(adjusted))
            path = int(paths[k])
            worst = (float(adjusted[k]), -path, -i)
            # a NaN compares False with everything, so it is taken explicitly and then kept
            if self.worst is None or math.isnan(worst[0]) or worst > self.worst:
                self.worst, self.worst_se = worst, float(se[path])
            self.raw = np.maximum(self.raw, np.max(gap))
        self.seen[i] = True

    def report(self) -> CheckReport:
        n, nodes = self.shape
        if not self.seen.all():
            raise GridMismatchError(f"the check was handed {int(self.seen.sum())} of the bound's {nodes} node rows")
        margin, path, node = self.worst
        tol = 1e-6
        passed = margin <= tol
        extra = {
            "argmax_node": -node,
            "argmax_path": -path,
            "raw_margin": float(self.raw),
            "band_factor": self.band,
            "x0": self.bound_x0,
            "x0_se": 0.0,
        }
        if self.tight is not None:
            extra["tight"] = float(self.tight)
            passed = passed and abs(extra["raw_margin"]) <= self.tight
        if self.x0 is not None:
            extra["expected_x0"] = float(self.x0)
            extra["x0_gap"] = abs(self.bound_x0 - self.x0)
            passed = passed and extra["x0_gap"] <= 1e-12
        return CheckReport("apriori_bound", passed, margin, tol, n, self.band * self.worst_se, extra)


def check_apriori(
    bundle: ScenarioBundle,
    xi: TerminalCondition,
    params: ParamSet,
    config: SolverConfig,
    tight: float | None = None,
    x0: float | None = None,
) -> AprioriCheck:
    """Worst violation of |Y| <= X, X = ``apriori_bound(bundle, xi, params)``,
    over all nodes and paths, as a check that the backward sweep feeds
    (``AprioriCheck``); its ``report()`` is the verdict.

    Both surfaces are compared at every (node, path) point, with a
    statistical allowance applied pointwise before taking the maximum.
    Because the comparison is a supremum over the whole fitted surface, the
    pointwise standard error (the sweep's error propagation; the bound is
    exact) is scaled to a Scheffe-type simultaneous band: the sqrt of the
    99.7% chi-square quantile at the nominal column count of the sweep's
    basis (``regression.n_columns`` of the solver ``config``).  The plain
    pointwise three-sigma band would be exceeded somewhere by selection
    alone.  The check passes iff that maximum is at most 1e-6, the report's
    ``tol``.  The raw maximum of |y| - x is kept in ``extra``.

    With ``tight``, the raw maximum must also be within ``tight`` of zero;
    with ``x0``, the bound's X_0 must be within 1e-12 of it.
    """
    dof = n_columns(config, bundle.states.shape[2])
    band = math.sqrt(_chi2_isf(0.003, dof)) / 3.0
    shape = (bundle.n_paths, bundle.grid.n_steps + 1)
    return AprioriCheck(apriori_bound(bundle, xi, params), shape, band, tight, x0)


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def norm_bound_checks(
    bundle: ScenarioBundle,
    solution: SolutionField,
    xi: TerminalCondition,
    params: ParamSet,
    orders,
) -> list[CheckReport]:
    """Per order p > 1, in turn: the moment bound on exp(p gamma Y*) and the
    martingale-moment ratio.

    The first check is the Doob-type inequality with explicit constant
    (p/(p-1))^p.  The second has no named constant; the report carries the
    implied ratio (None if undefined) and flags non-finiteness.  Y* and
    <Z.M + N>_T do not depend on p: both are the field's, ``y_sup`` and
    ``qv``, kept by the sweep.
    """
    if any(p <= 1 for p in orders):
        raise ValueError("norm bound needs p > 1")
    solution.require_bundle(bundle)
    gamma, bstar = params.gamma, params.beta_star
    sup_y, qv = solution.y_sup, solution.qv
    out = []
    for p in map(float, orders):
        order = p * gamma * math.exp(bstar * bundle.grid.horizon)
        m_r1, se_r1 = exponential_moment_estimate(xi, params, bundle, order)
        m_r2, se_r2 = exponential_moment_estimate(xi, params, bundle, 4.0 * order)
        m_l1, se_l1, _ = _exponential_mean(p * gamma * sup_y)
        if not (math.isfinite(m_r1) and math.isfinite(m_l1)):
            raise MomentFailureError("exponential moment in the norm bound overflows on the sample")

        const = (p / (p - 1.0)) ** p
        se1 = math.hypot(se_l1, const * se_r1)
        margin1 = m_l1 - const * m_r1
        out.append(CheckReport(
            name=f"norm_bound_y_p{p:g}",
            passed=margin1 <= 3.0 * se1,
            margin=margin1,
            tol=0.0,
            n_paths=bundle.n_paths,
            se=se1,
            extra={"lhs": m_l1, "rhs": const * m_r1, "constant": const, "lhs_se": se_l1, "rhs_se": se_r1},
        ))

        m_l2, se_l2 = mean_se(qv ** (p / 2.0))
        finite2 = math.isfinite(m_r2)
        implied = m_l2 / m_r2 if (finite2 and m_r2 > 0) else (0.0 if m_l2 == 0 else None)
        out.append(CheckReport(
            name=f"norm_bound_martingale_p{p:g}",
            passed=finite2 and np.isfinite(m_l2),
            margin=0.0,
            tol=0.0,
            n_paths=bundle.n_paths,
            se=math.hypot(se_l2, se_r2),
            extra={"implied_constant": implied, "lhs": m_l2, "rhs": m_r2},
        ))
    return out


# ---------------------------------------------------------------------------
# sampled probes: the declared assumptions and the ordering of two problems
# ---------------------------------------------------------------------------


# the probe box: y and every coordinate of z uniform on [-PROBE_RADIUS, PROBE_RADIUS],
# at up to PROBE_NODES grid nodes; a margin above PROBE_TOL is a violation
PROBE_RADIUS = 5.0
PROBE_NODES = 33
PROBE_TOL = 1e-9
ASSUMPTION_PROBES = 10_000
ORDERING_PROBES = 2000


def _probe_nodes(rng: np.random.Generator, bundle: ScenarioBundle, n_probes: int) -> list[tuple[int, np.ndarray]]:
    """Draw a pool of up to PROBE_NODES grid nodes, then each probe's node from
    the pool; returns (node, mask of its probes) for every node with probes."""
    size = bundle.grid.nodes.size
    pool = np.unique(rng.integers(0, size, size=min(PROBE_NODES, size)))
    node_idx = rng.choice(pool, size=n_probes)
    masks = [(int(i), node_idx == i) for i in pool]
    return [(i, mask) for i, mask in masks if np.any(mask)]


def validate_assumptions(driver: DriverSpec, bundle: ScenarioBundle) -> CheckReport:
    """Probe the declared growth/Lipschitz/convexity clauses at ``ASSUMPTION_PROBES`` random points.

    A clause margin is the amount by which the declared inequality fails, so
    <= 0 (up to ``PROBE_TOL``) means the probe set found no violation.
    ``extra`` holds each clause's ``checked``, ``max_margin`` and
    ``violations``; the report's margin is the worst checked one, and it
    passes iff no checked clause has a violation.
    """
    params = driver.params
    rng = np.random.default_rng(0)
    nodes = bundle.grid.nodes
    P = ASSUMPTION_PROBES
    groups = _probe_nodes(rng, bundle, P)
    alpha = params.alpha_on(bundle)

    y1 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=P)
    y2 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=P)
    z1 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(P, bundle.dim_m))
    z2 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(P, bundle.dim_m))
    theta = rng.uniform(0.0, 1.0, size=P)

    margins = {name: np.full(P, -np.inf) for name in
               ("growth", "derived_growth", "lipschitz_y", "convexity_z", "local_lipschitz_z", "y_zero")}

    for i, mask in groups:
        t = float(nodes[i])
        b = bundle.factor_b[i]
        a_t = alpha[i]
        # ||B_t lam_t|| = sqrt(alpha_t) by the definition of alpha
        b_lam = float(np.sqrt(a_t))

        zz1, zz2 = z1[mask], z2[mask]
        yy1, yy2, th = y1[mask], y2[mask], theta[mask]
        f11 = driver.f(t, yy1, zz1, b)
        f21 = driver.f(t, yy2, zz1, b)
        f12 = driver.f(t, yy1, zz2, b)
        f10 = driver.f(t, np.zeros_like(yy1), zz1, b)
        bz1 = np.linalg.norm(b * zz1, axis=1)
        bz2 = np.linalg.norm(b * zz2, axis=1)

        margins["growth"][mask] = np.abs(f11) - (a_t + a_t * params.beta * np.abs(yy1) + 0.5 * params.gamma * bz1**2)
        margins["derived_growth"][mask] = np.abs(f11) - (
            a_t + params.beta_bar * np.abs(yy1) + 0.5 * params.gamma * bz1**2
        )
        margins["lipschitz_y"][mask] = np.abs(f11 - f21) - params.beta_bar * np.abs(yy1 - yy2)
        margins["y_zero"][mask] = np.abs(f11 - f10) - params.beta_bar * np.abs(yy1)
        zmix = th[:, None] * zz1 + (1.0 - th[:, None]) * zz2
        fmix = driver.f(t, yy1, zmix, b)
        margins["convexity_z"][mask] = fmix - (th * f11 + (1.0 - th) * f12)
        bdz = np.linalg.norm(b * (zz1 - zz2), axis=1)
        margins["local_lipschitz_z"][mask] = np.abs(f11 - f12) - params.beta_f * (b_lam + bz1 + bz2) * bdz

    def clause(checked, values):
        if not checked:
            return {"checked": False, "max_margin": None, "violations": 0}
        return {"checked": True, "max_margin": float(np.max(values)),
                "violations": int(np.count_nonzero(np.asarray(values) > PROBE_TOL))}

    beta_pos = params.beta > 0
    checked = {"convexity_z": driver.convex_in_z, "y_zero": beta_pos}
    clauses = {
        "parameter_domain": clause(True, np.array([max(1.0, params.beta) - params.gamma, -float(np.min(alpha))])),
        **{name: clause(checked.get(name, True), values) for name, values in margins.items()},
        "clock_slope": clause(beta_pos, bundle.clock_values - params.c_A * nodes),
    }
    return CheckReport(
        name="assumptions",
        passed=all(c["violations"] == 0 for c in clauses.values()),
        margin=max((c["max_margin"] for c in clauses.values() if c["checked"]), default=float("-inf")),
        tol=PROBE_TOL,
        n_paths=P,
        se=0.0,
        extra=clauses,
    )


def sample_ordering(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    driver_prime: DriverSpec,
    xi: TerminalCondition,
    xi_prime: TerminalCondition,
) -> tuple[float, float]:
    """(max F - F' over ``ORDERING_PROBES`` points of the probe box, max xi - xi'
    over the paths): the data are ordered, F <= F' and xi <= xi', iff both are
    at most PROBE_TOL."""
    rng = np.random.default_rng(0)
    nodes = bundle.grid.nodes
    groups = _probe_nodes(rng, bundle, ORDERING_PROBES)
    y = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=ORDERING_PROBES)
    z = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(ORDERING_PROBES, bundle.dim_m))
    max_f = -np.inf
    for i, mask in groups:
        t, b = float(nodes[i]), bundle.factor_b[i]
        gap = driver.f(t, y[mask], z[mask], b) - driver_prime.f(t, y[mask], z[mask], b)
        max_f = max(max_f, float(np.max(gap)))
    xi_gap = xi.evaluate(bundle.terminal_state) - xi_prime.evaluate(bundle.terminal_state)
    return max_f, float(np.max(xi_gap))


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def comparison_check(steps, gaps: tuple[float, float]) -> CheckReport:
    """Worst signed violation of Y <= Y' given ordered data (F <= F', xi <= xi'),
    with ``gaps`` from ``sample_ordering``; unordered data make it vacuous.
    It passes iff the data are ordered and the violation is at most 1e-9.

    ``steps`` yields, node by node in any order, the pair of sweep steps
    ``(i, y_i, zeta_i, y_var_i)`` of the two problems, as
    ``solver.lockstep_sweeps`` runs them.  The margin is a maximum over the
    nodes, so it is taken one node row at a time: no (n, K+1) difference
    surface, and no stored Y.
    """
    max_f_gap, max_xi_gap = gaps
    margin, y0 = -math.inf, None
    for (i, y, _, _), (_, y_prime, _, _) in steps:
        if y.shape != y_prime.shape:
            raise GridMismatchError("comparison requires solutions on the same bundle")
        margin = max(margin, float(np.max(y - y_prime)))
        if i == 0:
            y0 = (float(np.mean(y)), float(np.mean(y_prime)))
    vacuous = not (max_f_gap <= PROBE_TOL and max_xi_gap <= PROBE_TOL)
    return CheckReport(
        name="comparison",
        passed=(not vacuous) and margin <= 1e-9,
        margin=margin,
        tol=1e-9,
        n_paths=y.size,
        se=0.0,
        extra={
            "vacuous": vacuous,
            "max_f_gap": max_f_gap,
            "max_xi_gap": max_xi_gap,
            "y0": y0[0],
            "y0_prime": y0[1],
        },
    )


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def stability_metrics(
    bundle: ScenarioBundle,
    steps,
    driver_n: DriverSpec,
    driver_0: DriverSpec,
    xi_n: TerminalCondition,
    xi_0: TerminalCondition,
    orders,
) -> list[dict]:
    """Hypothesis statistic |xi_n - xi_0| + int |F_n - F_0|(t, Y^0, Z^0) dA and
    the two conclusion statistics at each order p, all per-path then averaged:
    one dict per order.

    ``steps`` yields, node by node from t_K down, the pair of sweep steps
    ``(i, y_i, zeta_i, y_var_i)`` of the member (F_n, xi_n) and the base
    (F_0, xi_0), as ``solver.lockstep_sweeps`` runs them.  The sup gap is a
    maximum, taken as the rows arrive.  The hypothesis and the quadratic
    variation of the integrand difference are sums over the nodes from t_0
    on, and a different order would change their rounding, so the check
    keeps each step's base Y and Z rows and the member's integrand rows, and
    sums forward once the sweep is done.  None of them depends on p.
    """
    sup_gap, kept = None, []
    for (_, y_n, zeta_n, _), (_, y_0, zeta_0, _) in steps:
        gap = np.abs(y_n - y_0)
        sup_gap = gap if sup_gap is None else np.maximum(sup_gap, gap, out=sup_gap)
        if zeta_n is not None:
            kept.append((y_0, zeta_0, zeta_n))
    kept.reverse()
    _require_grid(bundle, (sup_gap.size, len(kept)))
    dA, m = bundle.dA, bundle.dim_m

    hyp = np.abs(xi_n.evaluate(bundle.terminal_state) - xi_0.evaluate(bundle.terminal_state))
    for i, (y0, zeta0, _) in enumerate(kept):
        if dA[i] != 0:
            z0 = zeta0[:, :m]
            hyp = hyp + np.abs(driver_n.evaluate(bundle, i, y0, z0) - driver_0.evaluate(bundle, i, y0, z0)) * dA[i]
    _, qv = deque(integral_by_node(bundle, (zeta_n - zeta_0 for _, zeta_0, zeta_n in kept)), maxlen=1)[0]
    h_m, h_se = mean_se(hyp)
    out = []
    for p in map(float, orders):
        e_m, e_se, _ = _exponential_mean(p * sup_gap)
        m_m, m_se = mean_se(qv ** (p / 2.0))
        out.append({
            "p": p,
            "hypothesis_mean": h_m,
            "hypothesis_se": h_se,
            "sup_gap_mean": float(np.mean(sup_gap)),
            "sup_gap_max": float(np.max(sup_gap)),
            "exp_sup_p_mean": e_m,
            "exp_sup_p_se": e_se,
            "martingale_gap_p_mean": m_m,
            "martingale_gap_p_se": m_se,
            "n_paths": int(bundle.n_paths),
        })
    return out


def stability_check(
    metrics: list[dict],
    label: str,
    expected_hypothesis: float | None = None,
    expected_sup: float | None = None,
) -> CheckReport:
    """The stability theorem on one member, from its ``stability_metrics``.

    With ``expected_hypothesis``, the hypothesis statistic must be within
    1e-6 + 3 SE of it.  A member without ``expected_sup`` converges: it must
    keep E[exp(p sup gap)] - 1 within 2 p times the hypothesis + 3 SE at
    every order.  A member with it must keep E[exp(p sup gap)] within
    1e-6 + 3 SE of exp(p ``expected_sup``), the gap that stays while the
    hypothesis vanishes.  Either way E[exp(p sup gap)] must be finite at
    every order.  The report's ``tol`` is that 1e-6.
    """
    first, tol = metrics[0], 1e-6
    hyp = first["hypothesis_mean"]
    passed, margin = True, 0.0
    extra = {"member": label, "hypothesis": hyp, "hypothesis_se": first["hypothesis_se"],
             "sup_gap_max": first["sup_gap_max"], "metrics": {f"p{m['p']:g}": m for m in metrics}}
    if expected_hypothesis is not None:
        h_gap = abs(hyp - expected_hypothesis)
        passed = h_gap <= tol + 3.0 * first["hypothesis_se"]
        margin = max(margin, h_gap - tol)
        extra["hypothesis_gap"] = h_gap
    for m in metrics:
        p, exp_sup = m["p"], m["exp_sup_p_mean"]
        if expected_sup is None:
            key, gap, allowed = f"exp_sup_excess_p{p:g}", exp_sup - 1.0 - 2.0 * p * max(hyp, 0.0), 0.0
        else:
            key, gap, allowed = f"exp_sup_gap_p{p:g}", abs(exp_sup - math.exp(p * expected_sup)), tol
        passed = passed and math.isfinite(exp_sup) and gap <= allowed + 3.0 * m["exp_sup_p_se"]
        margin = max(margin, gap - allowed)
        extra[key] = gap
    return CheckReport(f"stability_{label}", passed, margin, tol, first["n_paths"], first["hypothesis_se"], extra)


# ---------------------------------------------------------------------------
# measure change
# ---------------------------------------------------------------------------


def stochastic_exponential_mean(bundle: ScenarioBundle, solution: SolutionField, q: float) -> ExpMartingaleEstimate:
    """Monte Carlo mean of E(q (Z.M + N))_T; unit mean certifies the measure change."""
    solution.require_bundle(bundle)
    return _exponential_mean(q * solution.integral - 0.5 * q * q * solution.qv)


def exp_martingale_check(bundle: ScenarioBundle, solution: SolutionField, qs) -> list[CheckReport]:
    """Per q in ``qs``: the mean of E(q (Z.M + N))_T is finite and within 3 SE
    of 1.  The integral and its quadratic variation do not depend on q: both
    are the field's, kept by the sweep."""
    solution.require_bundle(bundle)
    integral, qv = solution.integral, solution.qv
    out = []
    for q in map(float, qs):
        est = _exponential_mean(q * integral - 0.5 * q * q * qv)
        gap = abs(est.mean - 1.0)
        out.append(CheckReport(f"exp_martingale_q{q:g}", math.isfinite(est.mean) and gap <= 3.0 * est.se, gap, 0.0,
                               bundle.n_paths, est.se, {"mean": est.mean, "n_overflow": est.n_overflow, "q": q}))
    return out


def kazamaki_statistic(
    bundle: ScenarioBundle,
    solution: SolutionField,
    eta: float,
    q_tilde: float,
    expected_sup: float | None = None,
) -> CheckReport:
    """sup over every node of the bundle's grid of E[exp(eta Mt + (1/2 - eta) <Mt>)]
    for Mt = q_tilde (Z.M + N), stopped at that node.  It passes iff every
    node's mean is finite and, with ``expected_sup``, the sup is within 3 SE
    of it.

    Each node needs only its own mean, so Mt and <Mt> stream from
    ``integral_by_node`` one (n,) row at a time, with the field's Z
    evaluated afresh and scaled step by step (``SolutionField.zeta_rows``):
    no (n, K+1) surface of either is built.  The first node with the largest
    mean is the sup's.  The field must have been solved on the bundle
    (``GridMismatchError``).
    """
    if eta == 1.0:
        raise ValueError("the criterion needs eta != 1")
    solution.require_bundle(bundle)

    steps = (np.multiply(zeta, q_tilde, out=zeta) for zeta in solution.zeta_rows(bundle))
    sup, sup_se, sup_node = -math.inf, 0.0, 0
    for i, (mt, qv) in enumerate(integral_by_node(bundle, steps)):
        m, s, _ = _exponential_mean(eta * mt + (0.5 - eta) * qv)
        if m > sup:
            sup, sup_se, sup_node = m, s, i
    passed, margin = math.isfinite(sup), 0.0
    extra = {"sup": sup, "sup_node": sup_node, "eta": float(eta), "q_tilde": float(q_tilde)}
    if expected_sup is not None:
        margin = abs(sup - expected_sup)
        passed = passed and margin <= 3.0 * sup_se
        extra["expected_sup"] = float(expected_sup)
    return CheckReport("kazamaki", passed, margin, 0.0, bundle.n_paths, sup_se, extra)


# ---------------------------------------------------------------------------
# exponential moments
# ---------------------------------------------------------------------------


def exponential_moment_estimate(
    xi: TerminalCondition,
    params: ParamSet,
    bundle: ScenarioBundle,
    p: float,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[exp(p(|xi| + |alpha|_1))] and its SE, both
    inf unless both are finite."""
    if p <= 0:
        raise ValueError("moment order p must be positive")
    xi_vals = xi.evaluate(bundle.terminal_state)
    est = _exponential_mean(p * (np.abs(xi_vals) + params.alpha_l1(bundle)))
    return est.mean, est.se


def moment_checks(
    xi: TerminalCondition,
    params: ParamSet,
    bundle: ScenarioBundle,
    orders,
    expected=None,
) -> list[CheckReport]:
    """The exponential moment at each order p: finite, and with ``expected``
    within 1e-9 + 3 SE of ``expected[k]`` for the k-th order."""
    out = []
    for k, p in enumerate(map(float, orders)):
        est, se = exponential_moment_estimate(xi, params, bundle, p)
        passed, margin = math.isfinite(est), 0.0
        extra = {"estimate": est, "p": p, "finite": passed}
        if expected is not None:
            margin = abs(est - expected[k])
            passed = passed and margin <= 1e-9 + 3.0 * se
            extra["expected"] = float(expected[k])
        out.append(CheckReport(f"moments_p{p:g}", passed, margin, 0.0, bundle.n_paths, se, extra))
    return out
