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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError

RCOND = 1e-12


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


def _quantile_cells(w: np.ndarray, bins: int) -> tuple[np.ndarray, int]:
    """Cell index of every sample and the cell count.

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
    # counted in the narrowest type that holds the cell count, widened once
    # for bincount and take
    idx = np.zeros(w.size, dtype=np.min_scalar_type(edges.size))
    for edge in edges:
        idx += w >= edge
    return idx.astype(np.intp), edges.size + 1


def make_regression(config: SolverConfig, state: np.ndarray, feature=None):
    """The projection of one time step on ``config``'s basis of state (n, n_vars).

    A binned basis is the block-diagonal per-cell solver (O(n)) of a scalar
    state, else ``ValueError``.  A polynomial basis projects on a fresh
    ``design``, which it consumes; if ``config.terminal_feature``, its last
    column is ``feature(state)``, the terminal's ``fn``, called only then.
    """
    state = np.atleast_2d(np.asarray(state, dtype=float))
    if config.basis_kind == "binned":
        if state.shape[1] != 1:
            raise ValueError("binned basis supports a one-dimensional state only")
        return BinnedRegression(state[:, 0], config.bins)
    return NodeRegression(design(config, state, feature(state) if config.terminal_feature else None))


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
        self._idx, self.n_cells = _quantile_cells(w, bins)
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

    def fit(self, targets: np.ndarray) -> np.ndarray:
        t = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DegenerateBasisError("non-finite regression target")
        squeeze = t.ndim == 1
        t = t.reshape(self.n_samples, -1)
        out = np.empty_like(t)
        for j in range(t.shape[1]):
            t0 = np.bincount(self._idx, weights=t[:, j], minlength=self.n_cells)
            t1 = np.bincount(self._idx, weights=t[:, j] * self._w, minlength=self.n_cells)
            c0, c1 = self._p00 * t0 + self._p01 * t1, self._p10 * t0 + self._p11 * t1
            out[:, j] = c0.take(self._idx) + c1.take(self._idx) * self._w
        return out[:, 0] if squeeze else out

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
    """

    def __init__(self, design: np.ndarray):
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
        self._s = design.T
        lam, v = np.linalg.eigh(self._s @ design)
        keep = lam > RCOND * lam[-1]
        self.rank = int(np.count_nonzero(keep))
        if self.rank == 0:
            raise DegenerateBasisError("regression design has rank zero")
        self._w = v[:, keep] / np.sqrt(lam[keep])  # W W^T = P
        self._p = self._w @ self._w.T
        self.n_samples, self.n_features = design.shape

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values of the LS projection; targets (n,) or (n, m)."""
        t = np.asarray(targets, dtype=float)
        if not np.all(np.isfinite(t)):
            raise DegenerateBasisError("non-finite regression target")
        # (c^T S)^T, not S^T c: the long product runs along the rows of S
        return ((self._p @ (self._s @ t)).T @ self._s).T

    def leverage(self) -> np.ndarray:
        """Diagonal of the hat matrix at the sample points: column sums of (W^T S)^2."""
        return np.square(self._w.T @ self._s).sum(axis=0)

    def fit_variance(self, sigma2: float) -> np.ndarray:
        """Variance of the fitted value at the sample points."""
        return np.maximum(sigma2 * self.leverage(), 0.0)

