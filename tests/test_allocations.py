"""Allocation guard: the node-wise reductions stream (n,) rows instead of building (K+1, n) or (n, K, w) surfaces.

numpy reports its buffers to ``tracemalloc``, so the traced peak of one call
is the most memory it held at once.  The bounds are a fixed number of (n,)
float64 rows, independent of the K + 1 = 51 nodes of the grid; building any
one surface of the inputs' size would exceed them.
"""

import tracemalloc

import numpy as np
import pytest

import qbsde as q
from qbsde import solver
from qbsde.regression import n_columns

N_PATHS, N_STEPS = 20_000, 50
ROW_BYTES = 8 * N_PATHS
LEVELS = [0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def problem():
    bundle = q.simulate_scenario(q.build_grid(1.0, N_STEPS), 1, 1, N_PATHS, source=q.RandomSource(1))
    driver = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    xi = q.terminal_abs(0.0, [1.0, 0.5])
    config = q.SolverConfig(degree=2)
    field = q.solve_backward(bundle, driver, xi, config)
    # the node pairs of the sweeps of the driver and of the zero driver, made
    # here so that a check that reads them is measured alone
    pairs = list(q.lockstep_sweeps(bundle, xi, [(bundle, driver, xi), (bundle, q.make_builtin("zero"), xi)], config))
    return bundle, driver, xi, config, field, pairs


def peak_rows(fn) -> float:
    fn()  # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / ROW_BYTES
    finally:
        tracemalloc.stop()


def checked_sweep(bundle, driver, xi, config, check):
    """The sweep of a checked ``solve_backward``, storing no row: it hands the
    check every node's Y and variance rows, the terminal row first."""
    for i, y, _, y_var in solver._backward_steps(bundle, driver, xi, config, variance=True):
        check(i, y, y_var)
    return check.report()


# measured 32 (the variance sweep itself 31), 7, 54 (three levels), 1, 2, 10, 5 and 5
# rows, comparison and stability on node pairs made beforehand; a single
# (K+1, n) surface is 51, each stored input or ladder level would add at
# least one, and an (n, K, w) integrand surface is 100
@pytest.mark.parametrize("call,rows", [
    ("apriori", 48),
    ("kazamaki_statistic", 12),
    ("solve_ladder", 24 * len(LEVELS)),
    ("comparison_check", 3),
    ("y0_with_se", 8),
    ("stability_metrics", 14),
    ("norm_bound_checks", 10),
    ("exp_martingale_check", 8),
])
def test_peak_allocation_is_a_few_rows(problem, call, rows):
    bundle, driver, xi, config, field, pairs = problem
    zero = q.make_builtin("zero")
    calls = {
        "apriori": lambda: checked_sweep(bundle, driver, xi, config, q.check_apriori(bundle, xi, driver.params, config)),
        "kazamaki_statistic": lambda: q.kazamaki_statistic(bundle, field, eta=2.0, q_tilde=0.7),
        "solve_ladder": lambda: q.solve_ladder(bundle, driver, xi, LEVELS, config, tol=0.01),
        "comparison_check": lambda: q.comparison_check(pairs, (0.0, 0.0)),
        "y0_with_se": lambda: q.y0_with_se(bundle, driver, xi, config),
        "stability_metrics": lambda: q.stability_metrics(bundle, pairs, driver, zero, xi, xi, [1.5, 2.0]),
        "norm_bound_checks": lambda: q.norm_bound_checks(bundle, field, xi, driver.params, [1.5, 2.0]),
        "exp_martingale_check": lambda: q.exp_martingale_check(bundle, field, [0.5, 1.0]),
    }
    assert peak_rows(calls[call]) < rows


def retained_rows(fn) -> float:
    """Rows still allocated by ``fn`` while what it returns is alive."""
    fn()  # first call outside the trace: scipy's first import allocates
    tracemalloc.start()
    try:
        kept = fn()  # alive while the memory is read
        return tracemalloc.get_traced_memory()[0] / ROW_BYTES
    finally:
        tracemalloc.stop()


def test_apriori_check_keeps_no_row_of_its_own(problem):
    # fed a row, the check holds scalars and its node mask; what stays is the
    # bound's terminal row |xi|.  Per-path running maxima would keep a row each
    bundle, driver, xi, config, field, _ = problem
    y, y_var = field.y_start.copy(), np.zeros(N_PATHS)

    def fed():
        check = q.check_apriori(bundle, xi, driver.params, config)
        check(0, y, y_var)
        return check
    assert retained_rows(fed) <= 1.1


# measured 16 rows above the solution (its integrand, two Y rows and the
# export block), 7 of them the step's design; a projection that kept a
# scaled copy of the design and an orthonormal basis beside it, alive into
# the next step's build, measured 34
def test_unchecked_solve_peak_is_the_solution_plus_one_design(problem):
    bundle, driver, xi, config, field, _ = problem
    solution = field.integrand.size + 2 * N_PATHS + field.y_export.size
    rows = peak_rows(lambda: q.solve_backward(bundle, driver, xi, config))
    assert rows < solution / N_PATHS + n_columns(config, bundle.states.shape[2]) + 12


def solution_rows(config) -> int:
    """Rows of the bundle plus one stored solution: states, then the integrand.
    The solution's two Y rows and export block sit in the bound's slack."""
    K = config.scenario["steps"]
    w = config.scenario.get("dim_m", 1) + config.scenario.get("dim_orth", 0)
    return (K + 1) * w + K * w


# measured 16 rows above the bundle and the integrand on quadratic-gaussian and
# 38 on truncation-ladder (four levels).  A solution with a Y surface measured
# 115 and 77 rows above, and one that stored its variance surface as well 216
# and 118
@pytest.mark.parametrize("name", ["quadratic-gaussian", "truncation-ladder"])
def test_run_peak_is_the_bundle_plus_one_solution(name):
    config = q.load_config(name)
    rows = peak_rows(lambda: q.run_experiment(config, n_paths=N_PATHS))
    assert rows < solution_rows(config) + 48


def test_solved_field_keeps_its_integrand_and_a_few_rows_of_y(problem):
    # the integrand, Y_0, Y* and the export block of the first EXPORT_PATHS
    # paths; a stored Y surface would add K + 1 = 51 rows
    bundle, driver, xi, config, field, _ = problem
    kept = field.integrand.size + 2 * N_PATHS + field.y_export.size
    assert retained_rows(lambda: q.solve_backward(bundle, driver, xi, config)) <= kept / N_PATHS + 0.1


def test_simulate_peak_is_the_bundle_plus_one_block():
    # the increments are drawn SIMULATE_BLOCK paths at a time; drawing them
    # all at once held a second bundle's worth beside the states
    w = 2
    bundle_rows = (N_STEPS + 1) * w
    block_rows = q.scenarios.SIMULATE_BLOCK * N_STEPS * w / N_PATHS
    grid = q.build_grid(1.0, N_STEPS)
    rows = peak_rows(lambda: q.simulate_scenario(grid, 1, w - 1, N_PATHS, source=q.RandomSource(1)))
    assert rows < bundle_rows + block_rows + 1
