import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbsde.errors import DegenerateBasisError
from qbsde.regression import (RCOND, BinnedRegression, NodeRegression, SolverConfig, _quantile_cells, design,
                              make_regression, n_columns)


def test_poly_design_columns():
    config = SolverConfig(degree=2)
    state = np.array([[1.0, 2.0], [3.0, 4.0]])
    columns = design(config, state)
    # six monomials of total degree <= 2 in two variables
    assert columns.shape == (2, 6)
    assert {1.0, 2.0, 4.0} <= set(columns[0])
    extra = design(config, state, extra=np.array([7.0, 8.0]))
    assert extra.shape == (2, 7)
    assert np.array_equal(extra[:, -1], [7.0, 8.0])


@pytest.mark.parametrize("kind,n_vars,feature,state", [
    ("poly", 1, False, "normal"), ("poly", 1, True, "normal"), ("poly", 2, False, "normal"),
    ("poly", 2, True, "normal"), ("binned", 1, False, "normal"), ("binned", 1, True, "normal"),
    ("binned", 1, False, "ties"), ("poly", 2, True, "constant"), ("binned", 1, True, "constant"),
])
def test_n_columns_is_the_regressions_width(rng, kind, n_vars, feature, state):
    # counted from the config alone: the a priori band needs it before the
    # sweep's first row.  Tied or constant states merge binned cells, which
    # still count their nominal columns
    config = SolverConfig(degree=3, basis_kind=kind, bins=12, terminal_feature=feature)
    states = {"normal": rng.normal(size=(500, n_vars)), "ties": rng.integers(0, 5, size=(500, n_vars)) * 1.0,
              "constant": np.zeros((500, n_vars))}[state]
    width = make_regression(config, states, lambda s: np.abs(s[:, 0]) + 1.0).n_features
    if state == "normal":
        assert n_columns(config, n_vars) == width
    else:
        assert n_columns(config, n_vars) >= width


def test_constant_state_falls_back_to_mean():
    rng = np.random.default_rng(0)
    state = np.zeros((200, 1))
    target = rng.normal(2.0, 1.0, 200)
    reg = NodeRegression(design(SolverConfig(degree=3), state))
    fitted = reg.fit(target)
    assert np.allclose(fitted, target.mean())


def test_exact_fit_of_in_span_target(rng):
    state = rng.normal(size=(500, 1))
    target = 1.5 - 2.0 * state[:, 0] + 0.25 * state[:, 0] ** 3
    reg = NodeRegression(design(SolverConfig(degree=3), state))
    assert np.allclose(reg.fit(target), target, atol=1e-10)


def test_degenerate_basis_errors(rng):
    with pytest.raises(DegenerateBasisError):
        NodeRegression(np.zeros((10, 3)))
    with pytest.raises(DegenerateBasisError):
        NodeRegression(np.full((10, 2), np.nan))
    state = rng.normal(size=(50, 1))
    reg = NodeRegression(design(SolverConfig(degree=1), state))
    with pytest.raises(DegenerateBasisError):
        reg.fit(np.full(50, np.inf))


@pytest.mark.parametrize("n_vars", [1, 2])
def test_fit_is_the_lstsq_min_norm_projection(rng, n_vars):
    # rank-deficient poly-plus-feature designs: the feature is affine in the
    # state, and at t = 0 the state is constant
    config = SolverConfig(degree=3)
    for state in (rng.normal(size=(3000, n_vars)), np.full((3000, n_vars), 0.7)):
        feature = 0.5 + state @ np.arange(1.0, n_vars + 1.0)
        columns = design(config, state, feature)
        targets = np.column_stack([np.sin(state @ np.ones(n_vars)), rng.normal(size=(3000, 2))])
        scaled = columns / np.max(np.abs(columns), axis=0)
        coef, _, rank, _ = np.linalg.lstsq(scaled, targets, rcond=RCOND)
        reference = scaled @ coef
        reg = NodeRegression(columns)
        assert reg.rank == rank < reg.n_features
        tol = 1e-10 * np.max(np.abs(targets))
        assert np.max(np.abs(reg.fit(targets) - reference)) <= tol
        assert np.max(np.abs(reg.fit(targets[:, 0]) - reference[:, 0])) <= tol


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_raises(rng, bad):
    columns = design(SolverConfig(degree=2), rng.normal(size=(100, 1)))
    columns[17, 1] = bad
    with pytest.raises(DegenerateBasisError, match="non-finite"):
        NodeRegression(columns)


def test_projection_holds_one_design_block(rng):
    # the design is scaled in place and kept as the only (p, n) block: no
    # scaled copy and no (n, rank) orthonormal basis beside it, during the
    # build or after it
    n = 20_000
    state = rng.normal(size=(n, 2))
    feature = np.abs(state[:, 0])
    config = SolverConfig(degree=3)
    tracemalloc.start()
    try:
        reg = NodeRegression(design(config, state, feature))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * reg.n_features * n
    assert reg.n_features == 11
    assert held < 1.1 * block
    assert peak < 1.1 * block


def test_pointwise_se_matches_sampling_spread(rng):
    # repeated fits of pure-noise targets: the empirical spread of the fitted
    # value at a fixed point should match the OLS formula
    state = rng.normal(size=(2000, 1))
    reg = NodeRegression(design(SolverConfig(degree=2), state))
    fits = []
    for _ in range(300):
        t = rng.normal(size=2000)
        fits.append(reg.fit(t)[0])
    sig2 = 1.0
    se = np.sqrt(reg.fit_variance(sig2))[0]
    assert np.std(fits) == pytest.approx(se, rel=0.2)


def test_binned_agrees_with_explicit_design(rng):
    w = rng.normal(size=(3000, 1))
    target = np.sin(w[:, 0]) + 0.1 * rng.normal(size=3000)
    config = SolverConfig(basis_kind="binned", bins=8)
    fast = make_regression(config, w)
    # the explicit design: a one-hot intercept and a slope column per cell
    idx, n_cells = _quantile_cells(w[:, 0], config.bins)
    onehot = np.zeros((w.shape[0], n_cells))
    onehot[np.arange(w.shape[0]), idx] = 1.0
    slow = NodeRegression(np.column_stack([onehot, onehot * w]))
    assert isinstance(fast, BinnedRegression)
    assert np.allclose(fast.fit(target), slow.fit(target), atol=1e-8)


def test_binned_exact_on_affine_target(rng):
    w = rng.normal(size=(4000, 1))
    target = 0.3 + 1.7 * w[:, 0]
    reg = make_regression(SolverConfig(basis_kind="binned", bins=12), w)
    assert np.allclose(reg.fit(target), target, atol=1e-9)


def test_binned_constant_state(rng):
    w = np.zeros((100, 1))
    target = rng.normal(size=100)
    reg = make_regression(SolverConfig(basis_kind="binned", bins=12), w)
    assert np.allclose(reg.fit(target), target.mean())


def test_binned_rejects_multidim():
    with pytest.raises(ValueError, match="one-dimensional"):
        make_regression(SolverConfig(basis_kind="binned"), np.zeros((10, 2)))


def test_fit_variance_positive(rng):
    w = rng.normal(size=(1000, 1))
    reg = make_regression(SolverConfig(basis_kind="binned", bins=6), w)
    var = reg.fit_variance(2.0)
    assert var.shape == (1000,)
    assert np.all(var >= 0)
    # more data in a cell -> smaller variance than a near-empty tail cell
    assert var[np.argmax(np.abs(w))] >= np.median(var)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["normal", "ties", "constant", "half_zero", "mixed_magnitude", "overflowing_span"]),
    n=st.integers(1, 500),
    bins=st.integers(1, 300),
    exponent=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="normal", n=1, bins=300, exponent=0, seed=0)
@example(kind="ties", n=7, bins=300, exponent=300, seed=1)
@example(kind="half_zero", n=400, bins=2, exponent=-300, seed=2)
@example(kind="overflowing_span", n=2, bins=3, exponent=0, seed=0)
def test_quantile_cells_match_numpy_quantile_and_searchsorted(kind, n, bins, exponent, seed):
    """Same cells as np.quantile's edges; where b - a overflows, only numpy's
    two-sided lerp (b - (b - a)(1 - g) for g >= 0.5) gives the same edge."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    if kind == "normal":
        w = scale * rng.normal(size=n)
    elif kind == "ties":
        w = scale * rng.integers(-3, 4, size=n).astype(float)
    elif kind == "constant":
        w = np.full(n, scale * rng.normal())
    elif kind == "half_zero":
        w = np.where(rng.random(n) < 0.5, 0.0, scale * rng.normal(size=n))
    elif kind == "mixed_magnitude":
        w = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)
    else:
        w = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.9e308, 1.7e308, size=n)
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.unique(np.quantile(w, np.linspace(0.0, 1.0, bins + 1)[1:-1]))
        idx, n_cells = _quantile_cells(w, bins)
    assert n_cells == edges.size + 1
    assert np.array_equal(idx, np.searchsorted(edges, w, side="right"))


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_design_recurrence_matches_explicit_monomials(degree, n_vars, rng):
    state = rng.normal(size=(64, n_vars))
    feature = rng.normal(size=64)
    config = SolverConfig(degree=degree)
    # every exponent tuple of total degree <= degree, in lexicographic order
    exponents = sorted(e for e in np.ndindex(*(degree + 1,) * n_vars) if sum(e) <= degree)
    explicit = np.column_stack([np.prod(state ** np.array(e), axis=1) for e in exponents])
    np.testing.assert_allclose(design(config, state), explicit, rtol=1e-14, atol=0)
    np.testing.assert_allclose(design(config, state, extra=feature), np.column_stack([explicit, feature]),
                               rtol=1e-14, atol=0)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["full_rank", "collinear_feature", "constant_state", "zero_column"]),
    degree=st.integers(0, 3),
    n_vars=st.integers(1, 3),
    n=st.integers(60, 400),
    level=st.floats(-3.0, 3.0),
    target_scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="constant_state", degree=1, n_vars=1, n=60, level=2.2250738585072014e-308, target_scale=1.0, seed=0)
@example(kind="constant_state", degree=1, n_vars=1, n=60, level=1e200, target_scale=1.0, seed=0)
def test_projection_matches_lstsq_reference(kind, degree, n_vars, n, level, target_scale, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(n, n_vars))
    extra = None
    if kind == "collinear_feature":
        # an affine terminal's feature lies in the span of the degree-1 columns
        degree = max(degree, 1)
        extra = level + state @ rng.normal(size=n_vars)
    elif kind == "constant_state":
        state = np.full((n, n_vars), level)
    elif kind == "zero_column":
        extra = np.zeros(n)
    columns = design(SolverConfig(degree=degree), state, extra)
    target = target_scale * rng.normal(size=n)
    # reference: minimum-norm least squares by SVD with the cut-off on
    # singular values of the column-scaled design
    scale = np.max(np.abs(columns), axis=0)
    scale[scale == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(columns / scale, target, rcond=RCOND)
    reference = (columns / scale) @ coef
    reg = NodeRegression(columns)  # consumes the design
    assert reg.rank == rank
    assert np.max(np.abs(reg.fit(target) - reference)) <= 1e-10 * np.max(np.abs(target))
    assert reg.leverage().sum() == pytest.approx(rank, abs=1e-10)
