"""Least-squares projection onto a polynomial or binned basis of the Markov state.

The one module that knows a step's columns: ``make_regression`` builds a
step's projection on the basis a ``SolverConfig`` describes, and
``n_columns`` counts its columns from the config alone.  One backend per
basis kind, each serving its step's value and martingale-increment fits:
``NodeRegression`` consumes the polynomial ``design``, scaled in place, and
``BinnedRegression`` forms none.  Both drop the eigenvalues of their normal
matrix below ``RCOND`` times the largest, so rank-deficient designs (the
constant state at t = 0, a terminal feature collinear with a polynomial
column) fall back to the minimum-norm projection instead of failing.

A backend's ``coef(targets)`` is the fitted function itself, small and
detached from the samples: ``BinnedFit`` (cell edges and per-cell intercept
and slope) or ``PolyFit`` (the column scale and the p x m coefficient
block), callable on the state rows of any bundle.  ``fit`` is that function
evaluated at the backend's own samples, so a fit and a later evaluation of
its coefficients on the same states are the same floats.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError

RCOND = 1e-12
# sample rows whose (p, rows) or (rank, rows) block a polynomial projection
# builds at once when it evaluates a fit on other states or takes leverages:
# a reader's peak stays a few rows, and the floats are those of one product
# over every row
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SolverConfig:
    """The regression basis of the scheme.

    Kind "poly" reads ``degree`` and ``terminal_feature``: tensor polynomials
    of total degree <= degree, and the terminal value at the current state
    as an extra column if ``terminal_feature``.  Kind "binned" reads ``bins``:
    quantile cells of a scalar state with an intercept and a slope per cell
    (local regression; tracks kinked targets without global wiggle).
    """

    degree: int = 3
    basis_kind: str = "poly"
    bins: int = 24
    terminal_feature: bool = True

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("polynomial degree must be nonnegative")
        if self.basis_kind not in ("poly", "binned"):
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")
        if self.bins < 1:
            raise ValueError("bins must be positive")


def design(config: SolverConfig, state: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
    """Polynomial design matrix of ``config`` for state (n, n_vars); extra (n,) or (n, m) appended as-is."""
    state = np.atleast_2d(np.asarray(state, dtype=float))
    n, n_vars = state.shape
    extra = np.empty((n, 0)) if extra is None else np.asarray(extra, dtype=float).reshape(n, -1)
    # each monomial row is its parent (one degree lower in its last nonzero
    # variable, listed earlier) times that variable
    exps = [e for e in itertools.product(range(config.degree + 1), repeat=n_vars) if sum(e) <= config.degree]
    rows = np.empty((len(exps) + extra.shape[1], n))
    rows[0] = 1.0
    for k, exp in enumerate(exps[1:], 1):
        j = max(v for v, e in enumerate(exp) if e)
        np.multiply(rows[exps.index(exp[:j] + (exp[j] - 1,) + exp[j + 1 :])], state[:, j], out=rows[k])
    rows[len(exps) :] = extra.T
    return rows.T


def n_columns(config: SolverConfig, width: int) -> int:
    """Nominal column count of ``make_regression``'s basis on a state of
    ``width`` variables, from the config alone: the monomials and the feature
    for a polynomial basis, two per cell for a binned one.  A tied or
    constant state that merges cells has fewer ``n_features``."""
    if config.basis_kind == "binned":
        return 2 * config.bins
    return math.comb(width + config.degree, config.degree) + int(config.terminal_feature)


def _quantile_cells(w: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell index of every sample and the cell edges; there is one more cell than edges.

    A sample's cell is the number of edges at or below it: the distinct
    sample quantiles, read off one sort with numpy's "linear" rule (virtual
    index (n - 1) q, and the two-sided lerp of ``np.quantile``).  A
    degenerate (constant) state collapses to a single active cell.
    """
    s = np.sort(w)
    vi = (s.size - 1) * np.linspace(0.0, 1.0, bins + 1)[1:-1]
    lo = np.floor(vi).astype(np.intp)
    g = vi - lo
    a, b = s[lo], s[np.minimum(lo + 1, s.size - 1)]
    edges = np.unique(np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g))
    return _cells(w, edges), edges


def _cells(w: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The cell of each value of ``w``: the number of ``edges`` at or below it."""
    # counted in the narrowest type that holds the cell count, widened once
    # for bincount and take; one comparison per edge, where a binary search
    # per value took ten times as long
    idx = np.zeros(w.size, dtype=np.min_scalar_type(edges.size))
    for edge in edges:
        idx += w >= edge
    return idx.astype(np.intp)


def make_regression(config: SolverConfig, state: np.ndarray, feature=None):
    """The projection of one time step on ``config``'s basis of state (n, n_vars).

    A binned basis is the block-diagonal per-cell solver (O(n)) of a scalar
    state, else ``ValueError``.  A polynomial basis projects on a fresh
    ``design``, which it consumes; if ``config.terminal_feature``, its last
    column is ``feature(state)``, the terminal's ``fn``, called only then.
    Its fits rebuild the design the same way on other states.
    """
    state = np.atleast_2d(np.asarray(state, dtype=float))
    if config.basis_kind == "binned":
        if state.shape[1] != 1:
            raise ValueError("binned basis supports a one-dimensional state only")
        return BinnedRegression(state[:, 0], config.bins)

    def basis(s):
        return design(config, s, feature(s) if config.terminal_feature else None)

    return NodeRegression(basis(state), basis)


@dataclass(frozen=True)
class BinnedFit:
    """A binned fit: c0 + c1 w in the cell of w, the cells cut at ``edges``.

    ``c0`` and ``c1`` are (cells,) for one target, (cells, m) for m; a state
    below the first edge falls in cell 0.  Called on (n, 1) state rows, into
    ``out`` if given.
    """

    edges: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    def __call__(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        w = np.atleast_2d(np.asarray(state, dtype=float))[:, 0]
        return self.at(w, _cells(w, self.edges), out)

    def at(self, w: np.ndarray, cells: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The fit at the scalar states ``w`` in the given ``cells``."""
        if self.c0.ndim == 2:
            w = w[:, None]
        return np.add(self.c0.take(cells, axis=0), self.c1.take(cells, axis=0) * w, out=out)


@dataclass(frozen=True)
class PolyFit:
    """A polynomial fit: the coefficients ``coef``, (p,) for one target or
    (p, m) for m, of the design columns divided by ``scale``.

    Called on state rows, into ``out`` if given, it rebuilds their design
    through ``basis``, ``BLOCK_ROWS`` rows at a time (``basis`` is None for a
    projection handed a bare design, which is then evaluated only at its own
    samples).
    """

    basis: Callable[[np.ndarray], np.ndarray] | None
    scale: np.ndarray
    coef: np.ndarray

    def __call__(self, state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        state = np.atleast_2d(np.asarray(state, dtype=float))
        out = np.empty(state.shape[:1] + self.coef.shape[1:]) if out is None else out
        for lo in range(0, state.shape[0], BLOCK_ROWS):
            columns = self.basis(state[lo : lo + BLOCK_ROWS])
            columns /= self.scale
            out[lo : lo + BLOCK_ROWS] = self.at(columns.T)
        return out

    def at(self, s: np.ndarray) -> np.ndarray:
        """The fit on the scaled, transposed design ``s`` (p, n)."""
        # (c^T S)^T, not S^T c: the long product runs along the rows of S
        return (self.coef.T @ s).T


class _Projection:
    """What both projection backends share: the residual variance of one (n,) target's fit."""

    def residual_variance(self, target: np.ndarray, fitted: np.ndarray) -> float:
        dof = self.n_samples - self.rank
        if dof <= 0:  # the fit interpolates: no residual is left to estimate a variance from
            raise DegenerateBasisError(f"a fit of rank {self.rank} on {self.n_samples} samples has no residual "
                                       "degrees of freedom")
        return float(np.sum((target - fitted) ** 2) / dof)


class BinnedRegression(_Projection):
    """Local least squares: intercept + slope within quantile cells of a scalar state.

    The normal matrix is block-diagonal over cells, so fits cost O(n) and
    each cell's 2 x 2 block is pseudo-inverted on its own.
    """

    def __init__(self, w: np.ndarray, bins: int):
        w = np.asarray(w, dtype=float)
        if not np.all(np.isfinite(w)):
            raise DegenerateBasisError("non-finite values in regression design")
        if w.size == 0:
            raise DegenerateBasisError("empty regression design")
        self._idx, self._edges = _quantile_cells(w, bins)
        self.n_cells = self._edges.size + 1
        self._w = w
        self.n_samples = w.size
        self.n_features = 2 * self.n_cells

        c = np.bincount(self._idx, minlength=self.n_cells)
        s1 = np.bincount(self._idx, weights=w, minlength=self.n_cells)
        s2 = np.bincount(self._idx, weights=w * w, minlength=self.n_cells)
        a = np.zeros((self.n_cells, 2, 2))
        a[:, 0, 0] = c
        a[:, 0, 1] = a[:, 1, 0] = s1
        a[:, 1, 1] = s2
        u, s, vt = np.linalg.svd(a)
        keep = s > RCOND * np.maximum(s[:, :1], 1e-300)
        s_inv = np.where(keep, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        a_pinv = np.einsum("cij,cj,ckj->cik", vt.transpose(0, 2, 1), s_inv, u)
        # one contiguous per-cell table per entry, gathered with take
        self._p00, self._p01, self._p10, self._p11 = a_pinv.reshape(-1, 4).T.copy()
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise DegenerateBasisError("regression design has rank zero")

    def coef(self, targets: np.ndarray) -> BinnedFit:
        """The fit of targets (n,) or (n, m) as a function of the state."""
        t = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DegenerateBasisError("non-finite regression target")
        cols = t.reshape(self.n_samples, -1)
        c0, c1 = np.empty((2, self.n_cells, cols.shape[1]))
        for j in range(cols.shape[1]):
            t0 = np.bincount(self._idx, weights=cols[:, j], minlength=self.n_cells)
            t1 = np.bincount(self._idx, weights=cols[:, j] * self._w, minlength=self.n_cells)
            c0[:, j], c1[:, j] = self._p00 * t0 + self._p01 * t1, self._p10 * t0 + self._p11 * t1
        if t.ndim == 1:
            c0, c1 = c0[:, 0], c1[:, 0]
        return BinnedFit(self._edges, c0, c1)

    def fitted(self, fit: BinnedFit) -> np.ndarray:
        """``fit`` at the samples."""
        return fit.at(self._w, self._idx)

    def fit(self, targets: np.ndarray) -> np.ndarray:
        return self.fitted(self.coef(targets))

    def fit_variance(self, sigma2: float) -> np.ndarray:
        """Variance of the fitted value at the sample points."""
        idx, w = self._idx, self._w
        quad = self._p00.take(idx) + 2.0 * self._p01.take(idx) * w + self._p11.take(idx) * w * w
        return np.maximum(sigma2 * quad, 0.0)


class NodeRegression(_Projection):
    """Projection machinery for one time step, reusable across targets.

    The design (n, p) is consumed: scaled in place to unit column maxima, it
    is S^T, the only (p, n) block kept.  With (lam, V) the eigenpairs of
    G = S S^T, P = V diag(1/lam) V^T over the eigenvalues above ``RCOND``
    times the largest, and every fit is S^T (P (S t)).  ``eigh``, not
    Cholesky: the terminal feature makes most designs rank-deficient.
    ``basis``, if given, makes the design of other states for ``coef``'s fits.
    """

    def __init__(self, design: np.ndarray, basis: Callable[[np.ndarray], np.ndarray] | None = None):
        design = np.asarray(design, dtype=float)
        if design.ndim != 2 or design.size == 0:
            raise DegenerateBasisError("empty regression design")
        # max, min and maximum propagate NaN and +-inf, so the scale is the finite check
        scale = np.maximum(design.max(axis=0), -design.min(axis=0))
        if not np.all(np.isfinite(scale)):
            raise DegenerateBasisError("non-finite values in regression design")
        scale[scale == 0.0] = 1.0
        # scaled before the product, so columns far from unit size neither
        # underflow nor overflow in the normal matrix
        design /= scale
        self._basis, self._scale = basis, scale
        self._s = design.T
        lam, v = np.linalg.eigh(self._s @ design)
        keep = lam > RCOND * lam[-1]
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise DegenerateBasisError("regression design has rank zero")
        self._w = v[:, keep] / np.sqrt(lam[keep])  # W W^T = P
        self._p = self._w @ self._w.T
        self.n_samples, self.n_features = design.shape

    def coef(self, targets: np.ndarray) -> PolyFit:
        """The LS fit of targets (n,) or (n, m) as a function of the state."""
        t = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DegenerateBasisError("non-finite regression target")
        return PolyFit(self._basis, self._scale, self._p @ (self._s @ t))

    def fitted(self, fit: PolyFit) -> np.ndarray:
        """``fit`` at the samples."""
        return fit.at(self._s)

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the LS projection; targets (n,) or (n, m)."""
        return self.fitted(self.coef(targets))

    def leverage(self) -> np.ndarray:
        """Diagonal of the hat matrix at the sample points: column sums of (W^T S)^2."""
        out = np.empty(self.n_samples)
        for lo in range(0, self.n_samples, BLOCK_ROWS):
            ws = self._w.T @ self._s[:, lo : lo + BLOCK_ROWS]
            np.square(ws, out=ws).sum(axis=0, out=out[lo : lo + BLOCK_ROWS])
        return out

    def fit_variance(self, sigma2: float) -> np.ndarray:
        """Variance of the fitted value at the sample points."""
        return np.maximum(sigma2 * self.leverage(), 0.0)

