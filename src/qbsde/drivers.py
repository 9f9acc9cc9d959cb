"""Driver and terminal-condition abstractions plus the builtin catalogue.

A driver is a deterministic function F(t, y, z) together with its declared
parameter set (alpha, beta, beta_bar, beta_f, gamma).  The declared growth,
Lipschitz, convexity and local-Lipschitz properties are falsified (not proved)
by randomized sampling over a probe box; violations are reported with margins,
never raised.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnknownDriverError
from .scenarios import ScenarioBundle, mean_se


def _as_time_fn(value, dim: int | None = None) -> Callable[[float], np.ndarray | float]:
    """Normalize a constant (scalar / vector) or callable of t to a callable."""
    if callable(value):
        return value
    if dim is None:
        v = float(value)
        return lambda t: v
    arr = np.broadcast_to(np.asarray(value, dtype=float), (dim,)).copy()
    return lambda t: arr


@dataclass(frozen=True)
class ParamSet:
    """Declared driver parameters.

    ``alpha_fn`` maps node times to the nonnegative process alpha_t; when a
    vector process ``lam_fn`` is supplied instead, alpha is derived on a bundle
    as ||B_t lam_t||^2 and stays consistent with any clock factorization; in
    either case ||B_t lam_t|| is sqrt(alpha_t).
    ``beta_star`` is c_A * beta_bar by construction.  The domain condition
    gamma >= max(1, beta) is deliberately checked by ``validate_assumptions``
    rather than here, so misdeclared parameter sets can be constructed and
    flagged.
    """

    gamma: float = 1.0
    beta: float = 0.0
    beta_bar: float = 0.0
    beta_f: float = 1.0
    c_A: float = 0.0
    alpha_fn: Callable | None = None
    lam_fn: Callable | None = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.beta < 0 or self.beta_bar < 0 or self.c_A < 0:
            raise ValueError("beta, beta_bar and c_A must be nonnegative")
        if self.beta_f <= 0:
            raise ValueError("beta_f must be positive")
        if self.alpha_fn is not None and self.lam_fn is not None:
            raise ValueError("give alpha_fn or lam_fn, not both")

    @property
    def beta_star(self) -> float:
        return self.c_A * self.beta_bar

    def alpha_on(self, bundle: ScenarioBundle) -> np.ndarray:
        """alpha at every grid node, shape (K+1,)."""
        nodes = bundle.grid.nodes
        if self.lam_fn is not None:
            lam = np.array([np.broadcast_to(np.asarray(self.lam_fn(t), dtype=float), (bundle.dim_m,)) for t in nodes])
            b_lam = np.einsum("kij,kj->ki", bundle.factor_b, lam)
            return np.einsum("ki,ki->k", b_lam, b_lam)
        if self.alpha_fn is None:
            return np.zeros(nodes.size)
        return np.array([float(self.alpha_fn(t)) for t in nodes])

    def alpha_l1(self, bundle: ScenarioBundle) -> float:
        """|alpha|_1 = sum_i alpha(t_i) dA_i, left-endpoint rule on the grid."""
        alpha = self.alpha_on(bundle)
        return float(np.sum(alpha[:-1] * bundle.dA))


@dataclass(frozen=True)
class DriverSpec:
    """A driver F plus its declared parameters and structural flags.

    ``f(t, y, z, b)`` must be a pure function, vectorized over paths:
    y has shape (n,), z has shape (n, d), b is the d x d factor at time t.
    ``options`` are the builtin constructor's options (empty for a custom
    driver); they identify the driver in solution hashes.
    """

    name: str
    f: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    params: ParamSet
    depends_on_y: bool = False
    depends_on_z: bool = True
    convex_in_z: bool = True
    dim_m: int | None = None
    options: dict = field(default_factory=dict)

    def evaluate(self, bundle: ScenarioBundle, i: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        t = float(bundle.grid.nodes[i])
        return np.asarray(self.f(t, np.asarray(y), np.asarray(z), bundle.factor_b[i]), dtype=float)

    def with_declared(self, **overrides) -> "DriverSpec":
        """Same driver function with modified declared parameters."""
        return dataclasses.replace(self, params=dataclasses.replace(self.params, **overrides))


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal value xi as a function of the terminal Markov state.

    ``affine = (a0, a)`` marks xi = a0 + a . state (or its absolute value when
    ``folded`` is set), which unlocks closed forms downstream.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tag: str
    affine: tuple[float, np.ndarray] | None = None
    folded: bool = False

    def evaluate(self, terminal_state: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(np.atleast_2d(terminal_state)), dtype=float)
        self.require_finite(vals)
        return vals

    def require_finite(self, vals: np.ndarray) -> None:
        """Raise ``ValueError`` unless every value of xi is finite."""
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"terminal condition {self.tag!r} is not finite on every path")


def terminal_constant(value: float, dim_state: int = 1) -> TerminalCondition:
    value = float(value)
    return TerminalCondition(
        fn=lambda s: np.full(s.shape[0], value, dtype=s.dtype if s.dtype.kind == "f" else float),
        tag=f"constant({value})",
        affine=(value, np.zeros(dim_state)),
    )


def _affine(a0: float, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a0 + s . a, summed column by column in the caller's float width.

    Elementwise passes avoid BLAS: a BLAS product started from several
    oracle worker threads oversubscribes the cores with BLAS threads, and
    an einsum contraction over a short last axis is slow for d >= 2."""
    if s.shape[1] != a.size:
        raise ValueError(f"terminal slope has {a.size} entries, state has {s.shape[1]} columns")
    a = a.astype(s.dtype, copy=False)
    v = s[:, 0] * a[0]
    for j in range(1, a.size):
        v += s[:, j] * a[j]
    return a0 + v


def terminal_affine(intercept: float, slope) -> TerminalCondition:
    a0 = float(intercept)
    a = np.asarray(slope, dtype=float).ravel()
    # evaluating in the caller's float width keeps the resimulation oracle
    # in single precision end to end
    return TerminalCondition(
        fn=lambda s: _affine(a0, a, s),
        tag=f"affine({a0}, {a.tolist()})",
        affine=(a0, a),
    )


def terminal_abs(intercept: float, slope) -> TerminalCondition:
    a0 = float(intercept)
    a = np.asarray(slope, dtype=float).ravel()
    return TerminalCondition(
        fn=lambda s: np.abs(_affine(a0, a, s)),
        tag=f"abs({a0}, {a.tolist()})",
        affine=(a0, a),
        folded=True,
    )


# ---------------------------------------------------------------------------
# builtin drivers
# ---------------------------------------------------------------------------


def _require(options: dict, name: str, key: str):
    if key not in options:
        raise ValueError(f"driver {name!r} requires option {key!r}")
    return options[key]


def _build_zero(options: dict) -> DriverSpec:
    return DriverSpec(
        name="zero",
        f=lambda t, y, z, b: np.zeros(np.shape(y)),
        params=ParamSet(gamma=1.0),
        depends_on_y=False,
        depends_on_z=False,
    )


def _build_constant(options: dict) -> DriverSpec:
    value = float(_require(options, "constant", "value"))
    mag = abs(value)
    return DriverSpec(
        name="constant",
        f=lambda t, y, z, b: np.full(np.shape(y), value),
        params=ParamSet(gamma=1.0, alpha_fn=lambda t: mag),
        depends_on_y=False,
        depends_on_z=False,
    )


def _build_step_family(options: dict) -> DriverSpec:
    n = float(_require(options, "step_family", "n"))
    if n <= 0:
        raise ValueError("step_family needs n > 0")
    cut = 1.0 / n
    # Support chosen left-closed/right-open so the left-endpoint rule
    # integrates F exactly to 1 on any grid containing 1/n.

    def f(t, y, z, b):
        return np.full(np.shape(y), n if t < cut else 0.0)

    return DriverSpec(
        name="step_family",
        f=f,
        params=ParamSet(gamma=1.0, alpha_fn=lambda t: n if t < cut else 0.0),
        depends_on_y=False,
        depends_on_z=False,
    )


def _build_pure_quadratic(options: dict) -> DriverSpec:
    gamma = float(_require(options, "pure_quadratic", "gamma"))
    if gamma <= 0:
        raise ValueError("pure_quadratic needs gamma > 0")

    def f(t, y, z, b):
        bz = z @ b.T
        return 0.5 * gamma * np.einsum("ni,ni->n", bz, bz)

    return DriverSpec(
        name="pure_quadratic",
        f=f,
        params=ParamSet(gamma=gamma, beta_f=max(gamma / 2.0, 1e-12)),
    )


def _scalar_factor(b: np.ndarray) -> float:
    scale = float(b[0, 0])
    if not np.allclose(b, scale * np.eye(b.shape[0]), atol=1e-12):
        raise ValueError("constrained projection needs a scalar factor matrix")
    return scale


class _BoxSet:
    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).ravel()
        self.upper = np.asarray(upper, dtype=float).ravel()
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must have matching shapes")
        if np.any(self.lower > self.upper):
            raise ValueError("empty constraint set: lower bound exceeds upper bound")
        if np.any(self.lower > 0) or np.any(self.upper < 0):
            raise ValueError("constraint set must contain 0 for the declared growth bound")
        self.dim = self.lower.size

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


class _HalfSpaceSet:
    def __init__(self, normal, offset):
        self.normal = np.asarray(normal, dtype=float).ravel()
        self.offset = float(offset)
        if not np.any(self.normal):
            raise ValueError("half-space normal must be nonzero")
        if self.offset < 0:
            raise ValueError("constraint set must contain 0 for the declared growth bound")
        self.dim = self.normal.size
        self._nn = float(self.normal @ self.normal)

    def project(self, x: np.ndarray) -> np.ndarray:
        excess = x @ self.normal - self.offset
        shift = np.where(excess > 0, excess / self._nn, 0.0)
        return x - shift[:, None] * self.normal[None, :]


def _parse_constraint(spec) -> "_BoxSet | _HalfSpaceSet":
    if isinstance(spec, (_BoxSet, _HalfSpaceSet)):
        return spec
    kind = spec.get("kind")
    if kind == "box":
        return _BoxSet(spec["lower"], spec["upper"])
    if kind == "halfspace":
        return _HalfSpaceSet(spec["normal"], spec["offset"])
    raise ValueError(f"unsupported constraint kind {kind!r} (box or halfspace)")


def _build_power_utility(options: dict) -> DriverSpec:
    p = float(_require(options, "power_utility", "p"))
    if p >= 1 or p == 0:
        raise ValueError("power_utility needs risk exponent p < 1, p != 0")
    constraint = _parse_constraint(_require(options, "power_utility", "constraint"))
    d = constraint.dim
    lam_m = _as_time_fn(_require(options, "power_utility", "lam"), dim=d)
    q = 0.5 * p * (1.0 - p)
    c1 = abs(p) / (1.0 - p)

    def f(t, y, z, b):
        scale = _scalar_factor(b)
        x = (z - np.asarray(lam_m(t))[None, :]) / (1.0 - p)
        proj = constraint.project(x)
        gain = np.einsum("ni,ni->n", x, x) - np.einsum("ni,ni->n", x - proj, x - proj)
        return scale**2 * (q * gain + 0.5 * np.einsum("ni,ni->n", z, z))

    lam_param = lambda t: math.sqrt(c1) * np.asarray(lam_m(t), dtype=float)
    return DriverSpec(
        name="power_utility",
        f=f,
        params=ParamSet(
            gamma=2.0 * c1 + 1.0,
            beta_f=max(c1 + 0.5, 2.0 * math.sqrt(c1)),
            lam_fn=lam_param,
        ),
        dim_m=d,
    )


def _build_entropic(options: dict) -> DriverSpec:
    lam_s = _as_time_fn(_require(options, "entropic", "lam_s"))

    def f(t, y, z, b):
        if z.shape[1] != 2:
            raise ValueError("entropic driver needs a 2-dimensional control")
        ls = float(lam_s(t))
        return 0.5 * (ls**2 - 2.0 * ls * z[:, 0] - z[:, 1] ** 2)

    # Concave in the second control component; convexity is declared off and
    # therefore not probed.
    return DriverSpec(
        name="entropic",
        f=f,
        params=ParamSet(gamma=1.0, alpha_fn=lambda t: float(lam_s(t)) ** 2),
        convex_in_z=False,
        dim_m=2,
    )


_REGISTRY = {
    "zero": _build_zero,
    "constant": _build_constant,
    "step_family": _build_step_family,
    "pure_quadratic": _build_pure_quadratic,
    "power_utility": _build_power_utility,
    "entropic": _build_entropic,
}


def list_builtins() -> list[str]:
    return sorted(_REGISTRY)


def make_builtin(name: str, options: dict | None = None) -> DriverSpec:
    """Construct a builtin driver by name with a fully populated ParamSet."""
    if name not in _REGISTRY:
        raise UnknownDriverError(f"unknown driver {name!r}; available: {list_builtins()}")
    options = dict(options or {})
    return dataclasses.replace(_REGISTRY[name](options), options=options)


# ---------------------------------------------------------------------------
# sampled validation of the declared assumptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingPlan:
    """Probe counts and ranges for the assumption validator."""

    n_probes: int = 10_000
    y_low: float = -5.0
    y_high: float = 5.0
    z_radius: float = 5.0
    seed: int = 0
    tol: float = 1e-9
    max_nodes: int = 33


@dataclass(frozen=True)
class ClauseReport:
    name: str
    checked: bool
    max_margin: float
    violations: int
    n_probes: int

    @property
    def passed(self) -> bool:
        return (not self.checked) or self.violations == 0


@dataclass(frozen=True)
class AssumptionReport:
    driver: str
    clauses: tuple[ClauseReport, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseReport:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        rows = [
            f"  {c.name:18s} {'ok' if c.passed else 'VIOLATED':9s} "
            f"max margin {c.max_margin:+.3e}  ({c.violations}/{c.n_probes})"
            if c.checked
            else f"  {c.name:18s} skipped"
            for c in self.clauses
        ]
        return f"assumption validation for {self.driver!r}:\n" + "\n".join(rows)


def validate_assumptions(
    driver: DriverSpec,
    bundle: ScenarioBundle,
    plan: SamplingPlan | None = None,
) -> AssumptionReport:
    """Probe the declared growth/Lipschitz/convexity clauses at random points.

    Violations are reported with their worst observed margin; nothing is
    raised.  A clause margin is the amount by which the declared inequality
    fails, so <= 0 (up to plan.tol) means the probe set found no violation.
    """
    plan = plan or SamplingPlan()
    params = driver.params
    rng = np.random.default_rng(plan.seed)
    d = bundle.dim_m
    nodes = bundle.grid.nodes
    node_pool = np.unique(rng.integers(0, nodes.size, size=min(plan.max_nodes, nodes.size)))
    alpha = params.alpha_on(bundle)

    P = plan.n_probes
    node_idx = rng.choice(node_pool, size=P)
    y1 = rng.uniform(plan.y_low, plan.y_high, size=P)
    y2 = rng.uniform(plan.y_low, plan.y_high, size=P)
    z1 = rng.uniform(-plan.z_radius, plan.z_radius, size=(P, d))
    z2 = rng.uniform(-plan.z_radius, plan.z_radius, size=(P, d))
    theta = rng.uniform(0.0, 1.0, size=P)

    margins = {
        "growth": np.full(P, -np.inf),
        "derived_growth": np.full(P, -np.inf),
        "lipschitz_y": np.full(P, -np.inf),
        "convexity_z": np.full(P, -np.inf),
        "local_lipschitz_z": np.full(P, -np.inf),
        "y_zero": np.full(P, -np.inf),
    }

    for i in node_pool:
        mask = node_idx == i
        if not np.any(mask):
            continue
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
        bz1 = np.linalg.norm(zz1 @ b.T, axis=1)
        bz2 = np.linalg.norm(zz2 @ b.T, axis=1)

        margins["growth"][mask] = np.abs(f11) - (a_t + a_t * params.beta * np.abs(yy1) + 0.5 * params.gamma * bz1**2)
        margins["derived_growth"][mask] = np.abs(f11) - (
            a_t + params.beta_bar * np.abs(yy1) + 0.5 * params.gamma * bz1**2
        )
        margins["lipschitz_y"][mask] = np.abs(f11 - f21) - params.beta_bar * np.abs(yy1 - yy2)
        margins["y_zero"][mask] = np.abs(f11 - f10) - params.beta_bar * np.abs(yy1)
        zmix = th[:, None] * zz1 + (1.0 - th[:, None]) * zz2
        fmix = driver.f(t, yy1, zmix, b)
        margins["convexity_z"][mask] = fmix - (th * f11 + (1.0 - th) * f12)
        bdz = np.linalg.norm((zz1 - zz2) @ b.T, axis=1)
        margins["local_lipschitz_z"][mask] = np.abs(f11 - f12) - params.beta_f * (b_lam + bz1 + bz2) * bdz

    def clause(name, checked, values, n=P):
        if not checked:
            return ClauseReport(name, False, float("nan"), 0, 0)
        m = float(np.max(values)) if np.size(values) else float("-inf")
        v = int(np.count_nonzero(np.asarray(values) > plan.tol))
        return ClauseReport(name, True, m, v, n)

    beta_pos = params.beta > 0
    clock_margin = bundle.clock_values - params.c_A * nodes
    domain_margin = np.array([max(1.0, params.beta) - params.gamma, -float(np.min(alpha))])

    clauses = (
        clause("parameter_domain", True, domain_margin, 2),
        clause("growth", True, margins["growth"]),
        clause("derived_growth", True, margins["derived_growth"]),
        clause("lipschitz_y", True, margins["lipschitz_y"]),
        clause("convexity_z", driver.convex_in_z, margins["convexity_z"]),
        clause("local_lipschitz_z", True, margins["local_lipschitz_z"]),
        clause("y_zero", beta_pos, margins["y_zero"]),
        clause("clock_slope", beta_pos, clock_margin, nodes.size),
    )
    return AssumptionReport(driver=driver.name, clauses=clauses, tol=plan.tol)


# ---------------------------------------------------------------------------
# exponential moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo estimate of E[exp(p(|xi| + |alpha|_1))]."""

    order: float
    estimate: float
    se: float
    finite: bool
    n_paths: int


def exponential_moment_estimate(
    xi: TerminalCondition,
    params: ParamSet,
    bundle: ScenarioBundle,
    p: float,
) -> MomentReport:
    if p <= 0:
        raise ValueError("moment order p must be positive")
    xi_vals = xi.evaluate(bundle.terminal_state)
    a1 = params.alpha_l1(bundle)
    with np.errstate(over="ignore"):
        vals = np.exp(p * (np.abs(xi_vals) + a1))
    finite = bool(np.all(np.isfinite(vals)))
    est, se = mean_se(vals) if finite else (float("inf"), float("inf"))
    return MomentReport(order=p, estimate=est, se=se, finite=finite, n_paths=bundle.n_paths)
