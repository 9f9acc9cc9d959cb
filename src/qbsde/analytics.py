"""Quantitative checks run against solution fields.

Every statistical pass/fail uses a three-standard-error tolerance with the
sample sizes recorded in the report; deterministic experiments collapse the
standard errors to zero, so the same semantics cover exact checks too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincinv, ndtr

from .drivers import (PROBE_NODES, PROBE_RADIUS, PROBE_TOL, DriverSpec, ParamSet, SamplingPlan, TerminalCondition,
                      exponential_moment_estimate)
from .errors import GridMismatchError, MomentFailureError
from .regression import BasisSpec, NodeRegression
from .scenarios import ScenarioBundle, integral_by_node, mean_se, quadratic_variation, stochastic_integral
from .solver import SolutionField


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


# ---------------------------------------------------------------------------
# a priori bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundProcess:
    """Estimate of the conditional-expectation bound X_t, per path and node: (n_paths, K+1)
    views with the node axis outermost in memory, like ``SolutionField.y``."""

    x: np.ndarray
    x_se: np.ndarray

    @property
    def x0(self) -> float:
        return float(np.mean(self.x[:, 0]))

    @property
    def x0_se(self) -> float:
        return float(self.x_se[0, 0])


def _folded_mgf(c: float, mean: np.ndarray, var: float) -> np.ndarray:
    """E[exp(c |X|)] for X ~ N(mean, var), vectorized over the mean."""
    if var <= 0:
        return np.exp(c * np.abs(mean))
    sd = math.sqrt(var)
    up = np.exp(c * mean + 0.5 * c * c * var) * ndtr(mean / sd + c * sd)
    dn = np.exp(-c * mean + 0.5 * c * c * var) * ndtr(-mean / sd + c * sd)
    return up + dn


def apriori_bound(
    bundle: ScenarioBundle,
    xi: TerminalCondition,
    params: ParamSet,
    basis: BasisSpec | None = None,
) -> BoundProcess:
    """Per-node estimate of
    (1/gamma) log E[exp(gamma e^{b*(T-t)} |xi| + gamma int_t^T e^{b*(r-t)} alpha dA) | F_t].

    The terminal condition chooses the method.  When xi has an affine form
    (constant, affine or its absolute value), |xi| given F_t is a folded
    normal, because the state (M, W_orth) is Brownian, and its MGF is in
    closed form; ``x_se`` is then zero.  Otherwise the exponential target is
    projected on ``basis`` (cubic polynomials by default), augmented with the
    target evaluated at the current state, which pins the terminal node
    exactly.
    """
    if params.gamma < 1:
        raise ValueError("the a priori bound needs gamma >= 1")
    gamma = params.gamma
    bstar = params.beta_star
    nodes = bundle.grid.nodes
    T = bundle.grid.horizon
    K = bundle.grid.n_steps
    n = bundle.n_paths

    order = gamma * math.exp(bstar * T)
    if not exponential_moment_estimate(xi, params, bundle, order).finite:
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
    x = np.empty((K + 1, n))
    x_se = np.zeros((K + 1, n))
    x[K] = np.abs(xi_vals)

    if xi.affine is not None:
        a0, a = xi.affine
        a = np.broadcast_to(np.asarray(a, dtype=float), (bundle.dim_m + bundle.dim_orth,))
        for i in range(K):
            mean = a0 + bundle.state(i) @ a
            var = float(a @ a) * (T - nodes[i])
            x[i] = np.log(_folded_mgf(float(c[i]), mean, var)) / gamma + R[i]
    else:
        basis = basis or BasisSpec(degree=3)
        for i in range(K):
            state = bundle.state(i)
            with np.errstate(over="ignore"):
                target = np.exp(c[i] * np.abs(xi_vals))
                feature = np.exp(c[i] * np.abs(np.asarray(xi.fn(state), dtype=float)))
            if not (np.all(np.isfinite(target)) and np.all(np.isfinite(feature))):
                raise MomentFailureError(f"exponential target overflows at node {i}")
            reg = NodeRegression(basis.design(state, extra=feature))
            m_hat = reg.fit(target)
            # the integrand is >= 1, so E[.|F_t] >= 1 surely; floor the fit there
            m_hat = np.maximum(m_hat, 1.0)
            x[i] = np.log(m_hat) / gamma + R[i]
            sigma2 = float(reg.residual_variance(target, m_hat)[0])
            x_se[i] = np.sqrt(reg.fit_variance(sigma2)) / (gamma * m_hat)

    return BoundProcess(x=x.T, x_se=x_se.T)


def check_apriori(
    solution: SolutionField,
    bound: BoundProcess,
    tol: float,
) -> CheckReport:
    """Worst violation of |Y| <= X over all nodes and paths.

    Both surfaces are compared at every (node, path) point, with a
    statistical allowance applied pointwise before taking the maximum.
    Because the comparison is a supremum over the whole fitted surface, the
    pointwise OLS standard error is scaled to a Scheffe-type simultaneous
    band (sqrt of the 99.7% chi-square quantile at the fit's width); the
    plain pointwise three-sigma band would be exceeded somewhere by
    selection alone.  The raw maximum of |y| - x is kept in ``extra``.

    The check streams the node rows: a supremum needs only per-path running
    maxima, so no (K+1, n) gap, standard-error or adjusted surface is built.
    The winning path's column is then re-read for its node, which keeps the
    first maximum in path-major order, as a flat argmax would give.
    """
    if solution.y.shape != bound.x.shape:
        raise GridMismatchError(
            f"solution field {solution.y.shape} and bound process {bound.x.shape} disagree"
        )
    y_var = None if solution.diagnostics is None else solution.diagnostics.y_var
    dof = 1 if y_var is None else max(1, solution.diagnostics.max_features)
    # chi2.ppf(u, dof) as 2 * gammaincinv(dof / 2, u): scipy.stats is slow to import
    band = math.sqrt(2.0 * gammaincinv(dof / 2.0, 1.0 - 0.003)) / 3.0

    def gap_and_se(at):
        gap = np.abs(solution.y[at]) - bound.x[at]
        se = bound.x_se[at] if y_var is None else np.hypot(bound.x_se[at], np.sqrt(y_var[at]))
        return gap, se

    # per-path running maxima of the adjusted and the raw gap
    worst, raw = np.full(solution.n_paths, -np.inf), np.full(solution.n_paths, -np.inf)
    for i in range(solution.y.shape[1]):
        gap, se = gap_and_se((slice(None), i))
        np.maximum(worst, gap - 3.0 * band * se, out=worst)
        np.maximum(raw, gap, out=raw)
    path = int(np.argmax(worst))
    gap, se = gap_and_se(path)
    node = int(np.argmax(gap - 3.0 * band * se))
    margin = float(worst[path])
    return CheckReport(
        name="apriori_bound",
        passed=margin <= tol,
        margin=margin,
        tol=tol,
        n_paths=solution.n_paths,
        se=float(band * se[node]),
        extra={
            "argmax_node": int(node),
            "argmax_path": int(path),
            "raw_margin": float(np.max(raw)),
            "band_factor": band,
            "x0": bound.x0,
            "x0_se": bound.x0_se,
        },
    )


# ---------------------------------------------------------------------------
# norm bounds
# ---------------------------------------------------------------------------


def norm_bound_checks(
    bundle: ScenarioBundle,
    solution: SolutionField,
    xi: TerminalCondition,
    params: ParamSet,
    p: float,
) -> tuple[CheckReport, CheckReport]:
    """Moment bound on exp(p gamma Y*) and the martingale-moment ratio.

    The first check is the Doob-type inequality with explicit constant
    (p/(p-1))^p.  The second has no named constant; the report carries the
    implied ratio and flags non-finiteness.
    """
    if p <= 1:
        raise ValueError("norm bound needs p > 1")
    gamma, bstar = params.gamma, params.beta_star
    order = p * gamma * math.exp(bstar * bundle.grid.horizon)
    rhs1 = exponential_moment_estimate(xi, params, bundle, order)
    rhs2 = exponential_moment_estimate(xi, params, bundle, 4.0 * order)
    with np.errstate(over="ignore"):
        lhs1 = np.exp(p * gamma * solution.sup_abs_y())
    lhs2 = quadratic_variation(bundle, solution.integrand) ** (p / 2.0)

    if not (rhs1.finite and np.all(np.isfinite(lhs1))):
        raise MomentFailureError("exponential moment in the norm bound overflows on the sample")

    const = (p / (p - 1.0)) ** p
    m_l1, se_l1 = mean_se(lhs1)
    m_r1, se_r1 = rhs1.estimate, rhs1.se
    se1 = math.hypot(se_l1, const * se_r1)
    margin1 = m_l1 - const * m_r1
    check1 = CheckReport(
        name=f"norm_bound_y_p{p:g}",
        passed=margin1 <= 3.0 * se1,
        margin=margin1,
        tol=0.0,
        n_paths=bundle.n_paths,
        se=se1,
        extra={"lhs": m_l1, "rhs": const * m_r1, "constant": const, "lhs_se": se_l1, "rhs_se": se_r1},
    )

    m_l2, se_l2 = mean_se(lhs2)
    finite2 = rhs2.finite
    m_r2, se_r2 = rhs2.estimate, rhs2.se
    implied = m_l2 / m_r2 if (finite2 and m_r2 > 0) else (0.0 if m_l2 == 0 else float("nan"))
    check2 = CheckReport(
        name=f"norm_bound_martingale_p{p:g}",
        passed=finite2 and np.isfinite(m_l2),
        margin=0.0,
        tol=0.0,
        n_paths=bundle.n_paths,
        se=math.hypot(se_l2, se_r2) if finite2 else float("inf"),
        extra={"implied_constant": implied, "lhs": m_l2, "rhs": m_r2},
    )
    return check1, check2


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingEvidence:
    """Sampled verification that F <= F' everywhere probed and xi <= xi' pathwise."""

    f_ordered: bool
    xi_ordered: bool
    max_f_gap: float
    max_xi_gap: float
    n_probes: int

    @property
    def holds(self) -> bool:
        return self.f_ordered and self.xi_ordered


def sample_ordering(
    bundle: ScenarioBundle,
    driver: DriverSpec,
    driver_prime: DriverSpec,
    xi: TerminalCondition,
    xi_prime: TerminalCondition,
    plan: SamplingPlan | None = None,
) -> OrderingEvidence:
    plan = plan or SamplingPlan(n_probes=2000)
    rng = np.random.default_rng(plan.seed)
    nodes = bundle.grid.nodes
    node_pool = np.unique(rng.integers(0, nodes.size, size=min(PROBE_NODES, nodes.size)))
    P = plan.n_probes
    node_idx = rng.choice(node_pool, size=P)
    y = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=P)
    z = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(P, bundle.dim_m))
    max_f = -np.inf
    for i in node_pool:
        mask = node_idx == i
        if not np.any(mask):
            continue
        t, b = float(nodes[i]), bundle.factor_b[i]
        gap = driver.f(t, y[mask], z[mask], b) - driver_prime.f(t, y[mask], z[mask], b)
        max_f = max(max_f, float(np.max(gap)))
    xi_gap = xi.evaluate(bundle.terminal_state) - xi_prime.evaluate(bundle.terminal_state)
    max_xi = float(np.max(xi_gap))
    return OrderingEvidence(
        f_ordered=max_f <= PROBE_TOL,
        xi_ordered=max_xi <= PROBE_TOL,
        max_f_gap=max_f,
        max_xi_gap=max_xi,
        n_probes=P,
    )


def comparison_check(
    solution: SolutionField,
    solution_prime: SolutionField,
    evidence: OrderingEvidence,
    tol: float,
    se: float = 0.0,
) -> CheckReport:
    """Worst signed violation of Y <= Y' given ordered data (F <= F', xi <= xi')."""
    if solution.y.shape != solution_prime.y.shape:
        raise GridMismatchError("comparison requires fields on the same bundle")
    margin = float(np.max(solution.y - solution_prime.y))
    vacuous = not evidence.holds
    return CheckReport(
        name="comparison",
        passed=(not vacuous) and margin <= tol + 3.0 * se,
        margin=margin,
        tol=tol,
        n_paths=solution.n_paths,
        se=se,
        extra={
            "vacuous": vacuous,
            "max_f_gap": evidence.max_f_gap,
            "max_xi_gap": evidence.max_xi_gap,
            "y0": solution.y0,
            "y0_prime": solution_prime.y0,
        },
    )


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityMetrics:
    """Hypothesis and conclusion statistics of the stability theorem for one pair."""

    p: float
    hypothesis_mean: float
    hypothesis_se: float
    sup_gap_mean: float
    sup_gap_max: float
    exp_sup_p_mean: float
    exp_sup_p_se: float
    martingale_gap_p_mean: float
    martingale_gap_p_se: float
    n_paths: int

    def to_dict(self) -> dict:
        return {k: float(getattr(self, k)) if k != "n_paths" else int(self.n_paths) for k in self.__dataclass_fields__}


def stability_metrics(
    bundle: ScenarioBundle,
    solution_n: SolutionField,
    solution_0: SolutionField,
    driver_n: DriverSpec,
    driver_0: DriverSpec,
    xi_n: TerminalCondition,
    xi_0: TerminalCondition,
    p: float,
) -> StabilityMetrics:
    """Hypothesis statistic |xi_n - xi_0| + int |F_n - F_0|(t, Y^0, Z^0) dA and
    the two conclusion statistics, all per-path then averaged."""
    if solution_n.y.shape != solution_0.y.shape:
        raise GridMismatchError("stability metrics require fields on the same bundle")
    K = bundle.grid.n_steps
    dA = bundle.dA

    hyp = np.abs(xi_n.evaluate(bundle.terminal_state) - xi_0.evaluate(bundle.terminal_state))
    for i in range(K):
        if dA[i] == 0:
            continue
        y0 = solution_0.y[:, i]
        z0 = solution_0.z[:, i, :]
        gap = np.abs(driver_n.evaluate(bundle, i, y0, z0) - driver_0.evaluate(bundle, i, y0, z0))
        hyp = hyp + gap * dA[i]

    sup_gap = np.max(np.abs(solution_n.y - solution_0.y), axis=1)
    with np.errstate(over="ignore"):
        exp_sup = np.exp(p * sup_gap)
    mart_p = quadratic_variation(bundle, solution_n.integrand - solution_0.integrand) ** (p / 2.0)

    h_m, h_se = mean_se(hyp)
    e_m, e_se = mean_se(exp_sup)
    m_m, m_se = mean_se(mart_p)
    return StabilityMetrics(
        p=p,
        hypothesis_mean=h_m,
        hypothesis_se=h_se,
        sup_gap_mean=float(np.mean(sup_gap)),
        sup_gap_max=float(np.max(sup_gap)),
        exp_sup_p_mean=e_m,
        exp_sup_p_se=e_se,
        martingale_gap_p_mean=m_m,
        martingale_gap_p_se=m_se,
        n_paths=bundle.n_paths,
    )


# ---------------------------------------------------------------------------
# measure change
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpMartingaleEstimate:
    q: float
    mean: float
    se: float
    n_overflow: int
    n_paths: int

    @property
    def passed(self) -> bool:
        return self.n_overflow == 0 and abs(self.mean - 1.0) <= 3.0 * self.se


def stochastic_exponential_mean(
    bundle: ScenarioBundle,
    solution: SolutionField,
    q: float,
) -> ExpMartingaleEstimate:
    """Monte Carlo mean of E(q (Z.M + N))_T; unit mean certifies the measure change."""
    integral, qv = stochastic_integral(bundle, solution.integrand)
    log_e = q * integral - 0.5 * q * q * qv
    with np.errstate(over="ignore"):
        vals = np.exp(log_e)
    overflow = int(np.count_nonzero(~np.isfinite(vals)))
    finite = vals[np.isfinite(vals)]
    if finite.size:
        with np.errstate(over="ignore"):
            mean, se = mean_se(finite)
    else:
        mean, se = float("inf"), float("inf")
    return ExpMartingaleEstimate(q=q, mean=mean, se=se, n_overflow=overflow, n_paths=bundle.n_paths)


def exp_martingale_check(bundle: ScenarioBundle, solution: SolutionField, q: float) -> CheckReport:
    est = stochastic_exponential_mean(bundle, solution, q)
    return CheckReport(
        name=f"exp_martingale_q{q:g}",
        passed=est.passed,
        margin=abs(est.mean - 1.0),
        tol=0.0,
        n_paths=est.n_paths,
        se=est.se,
        extra={"mean": est.mean, "n_overflow": est.n_overflow, "q": q},
    )


@dataclass(frozen=True)
class KazamakiReport:
    eta: float
    q_tilde: float
    sup: float
    sup_node: int
    node_means: tuple
    node_ses: tuple
    finite: bool

    @property
    def sup_se(self) -> float:
        return float(self.node_ses[list(self.node_means).index(max(self.node_means))]) if self.node_means else 0.0


def kazamaki_statistic(
    bundle: ScenarioBundle,
    solution: SolutionField,
    eta: float,
    q_tilde: float,
) -> KazamakiReport:
    """sup over every node of the bundle's grid of E[exp(eta Mt + (1/2 - eta) <Mt>)]
    for Mt = q_tilde (Z.M + N), stopped at that node.

    Each node needs only its own mean, so Mt and <Mt> stream from
    ``integral_by_node`` one (n,) row at a time, with the integrand scaled
    step by step: no (n, K+1) surface of either is built.
    """
    if eta == 1.0:
        raise ValueError("the criterion needs eta != 1")
    if solution.y.shape != (bundle.n_paths, bundle.grid.n_steps + 1):
        raise GridMismatchError(f"solution field {solution.y.shape} is not on the bundle's paths and grid")

    steps = (q_tilde * solution.integrand[:, i] for i in range(bundle.grid.n_steps))
    means, ses = [], []
    finite = True
    for mt, qv in integral_by_node(bundle, steps):
        with np.errstate(over="ignore"):
            vals = np.exp(eta * mt + (0.5 - eta) * qv)
        if not np.all(np.isfinite(vals)):
            finite = False
            means.append(float("inf"))
            ses.append(float("inf"))
            continue
        m, s = mean_se(vals)
        means.append(m)
        ses.append(s)
    sup_idx = int(np.argmax(means))
    return KazamakiReport(
        eta=eta,
        q_tilde=q_tilde,
        sup=float(means[sup_idx]),
        sup_node=sup_idx,
        node_means=tuple(means),
        node_ses=tuple(ses),
        finite=finite,
    )
