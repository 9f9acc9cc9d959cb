"""Driver and terminal-condition definitions plus the builtin catalogue.

A driver is a deterministic function F(t, y, z) together with its declared
parameter set (alpha, beta, beta_bar, beta_f, gamma).  ``analytics`` probes
the declared properties; nothing here checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MomentFailureError, UnknownDriverError
from .scenarios import ScenarioBundle


@dataclass(frozen=True)
class ParamSet:
    """Declared driver parameters.

    ``alpha_fn`` maps node times to the nonnegative process alpha_t; when a
    vector process ``lam_fn`` is supplied instead, alpha is derived on a bundle
    as ||B_t lam_t||^2 = b_t^2 |lam_t|^2, with b_t the bundle's scalar factor,
    and stays consistent with any clock; in either case ||B_t lam_t|| is
    sqrt(alpha_t).
    ``beta_star`` is c_A * beta_bar by construction.  The domain condition
    gamma >= max(1, beta) is deliberately checked by ``analytics.validate_assumptions``
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
            b_lam = bundle.factor_b[:, None] * lam
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
    y has shape (n,), z has shape (n, d), b is the step's scalar factor, with
    B = b I the factor of the clock at time t.  Every solver passes Z, which
    a z-free F ignores.  A positive ``params.beta_bar`` makes the Y-update
    iterate, so an F that reads y must declare one; ``validate_assumptions``'
    ``lipschitz_y`` probe checks that it did.
    """

    name: str
    f: Callable[[float, np.ndarray, np.ndarray, float], np.ndarray]
    params: ParamSet
    convex_in_z: bool = True
    dim_m: int | None = None

    def evaluate(self, bundle: ScenarioBundle, i: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        t = float(bundle.grid.nodes[i])
        return np.asarray(self.f(t, np.asarray(y), np.asarray(z), bundle.factor_b[i]), dtype=float)


@dataclass(frozen=True)
class TerminalCondition:
    """Terminal value xi as a function of the terminal Markov state.

    ``affine = (a0, a)`` marks xi = a0 + a . state or its absolute value,
    which unlocks closed forms downstream.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tag: str
    affine: tuple[float, np.ndarray] | None = None

    def evaluate(self, terminal_state: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(np.atleast_2d(terminal_state)), dtype=float)
        self.require_finite(vals)
        return vals

    def require_finite(self, vals: np.ndarray) -> None:
        """Raise ``MomentFailureError`` unless every value of xi is finite."""
        if not np.all(np.isfinite(vals)):
            raise MomentFailureError(f"terminal condition {self.tag!r} is not finite on every path")


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
    )


def _build_constant(options: dict) -> DriverSpec:
    value = float(_require(options, "constant", "value"))
    mag = abs(value)
    return DriverSpec(
        name="constant",
        f=lambda t, y, z, b: np.full(np.shape(y), value),
        params=ParamSet(gamma=1.0, alpha_fn=lambda t: mag),
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
    )


def _build_pure_quadratic(options: dict) -> DriverSpec:
    gamma = float(_require(options, "pure_quadratic", "gamma"))
    if gamma <= 0:
        raise ValueError("pure_quadratic needs gamma > 0")

    def f(t, y, z, b):
        bz = b * z
        return 0.5 * gamma * np.einsum("ni,ni->n", bz, bz)

    return DriverSpec(
        name="pure_quadratic",
        f=f,
        params=ParamSet(gamma=gamma, beta_f=max(gamma / 2.0, 1e-12)),
    )


def _build_power_utility(options: dict) -> DriverSpec:
    p = float(_require(options, "power_utility", "p"))
    if p >= 1 or p == 0:
        raise ValueError("power_utility needs risk exponent p < 1, p != 0")
    spec = _require(options, "power_utility", "constraint")
    if spec.get("kind") != "box":
        raise ValueError(f"unsupported constraint kind {spec.get('kind')!r} (only box)")
    unread = sorted(set(spec) - {"kind", "lower", "upper"})
    if unread:
        raise ValueError(f"box constraint does not read {', '.join(map(repr, unread))}")
    lower = np.asarray(spec["lower"], dtype=float).ravel()
    upper = np.asarray(spec["upper"], dtype=float).ravel()
    if lower.shape != upper.shape:
        raise ValueError("box bounds must have matching shapes")
    if np.any(lower > upper):
        raise ValueError("empty constraint set: lower bound exceeds upper bound")
    if np.any(lower > 0) or np.any(upper < 0):
        raise ValueError("constraint set must contain 0 for the declared growth bound")
    d = lower.size
    lam = np.broadcast_to(np.asarray(_require(options, "power_utility", "lam"), dtype=float), (d,)).copy()
    q = 0.5 * p * (1.0 - p)
    c1 = abs(p) / (1.0 - p)

    def f(t, y, z, b):
        x = (z - lam[None, :]) / (1.0 - p)
        proj = np.clip(x, lower, upper)
        gain = np.einsum("ni,ni->n", x, x) - np.einsum("ni,ni->n", x - proj, x - proj)
        return b**2 * (q * gain + 0.5 * np.einsum("ni,ni->n", z, z))

    lam_param = math.sqrt(c1) * lam
    return DriverSpec(
        name="power_utility",
        f=f,
        params=ParamSet(
            gamma=2.0 * c1 + 1.0,
            beta_f=max(c1 + 0.5, 2.0 * math.sqrt(c1)),
            lam_fn=lambda t: lam_param,
        ),
        dim_m=d,
    )


def _build_entropic(options: dict) -> DriverSpec:
    ls = float(_require(options, "entropic", "lam_s"))

    def f(t, y, z, b):
        if z.shape[1] != 2:
            raise ValueError("entropic driver needs a 2-dimensional control")
        return 0.5 * (ls**2 - 2.0 * ls * z[:, 0] - z[:, 1] ** 2)

    # Concave in the second control component; convexity is declared off and
    # therefore not probed.
    return DriverSpec(
        name="entropic",
        f=f,
        params=ParamSet(gamma=1.0, alpha_fn=lambda t: ls**2),
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
    return _REGISTRY[name](options or {})
