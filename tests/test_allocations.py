"""Allocation guard: the node-wise reductions stream (n,) rows instead of building (K+1, n) surfaces.

numpy reports its buffers to ``tracemalloc``, so the traced peak of one call
is the most memory it held at once.  The bounds are a fixed number of (n,)
float64 rows, independent of the K + 1 = 51 nodes of the grid; building any
one surface of the inputs' size would exceed them.
"""

import dataclasses
import tracemalloc

import pytest

import qbsde as q

N_PATHS, N_STEPS = 20_000, 50
ROW_BYTES = 8 * N_PATHS


@pytest.fixture(scope="module")
def problem():
    bundle = q.simulate_scenario(q.build_grid(1.0, N_STEPS), 1, 1, N_PATHS, source=q.RandomSource(1))
    driver = q.make_builtin("pure_quadratic", {"gamma": 1.0})
    xi = q.terminal_abs(0.0, [1.0, 0.5])
    config = q.SolverConfig(degree=2)
    field = q.solve_backward(bundle, driver, xi, config)
    # the projection route: x_se is a written surface, not the closed form's zeros
    bound = q.apriori_bound(bundle, dataclasses.replace(xi, affine=None), driver.params)
    ladder = q.solve_ladder(bundle, driver, xi, [0.5, 1.0, 2.0], config)
    return bundle, driver, xi, config, field, bound, ladder


def peak_rows(fn) -> float:
    fn()  # first call outside the trace: lazy imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / ROW_BYTES
    finally:
        tracemalloc.stop()


# measured 8, 8, 8, 5 and 2 rows; a single (K+1, n) surface is 51
@pytest.mark.parametrize("call,rows", [
    ("check_apriori", 12),
    ("kazamaki_statistic", 12),
    ("monotonicity_report", 12),
    ("y0_with_se", 8),
    ("sup_abs_y", 3),
])
def test_peak_allocation_is_a_few_rows(problem, call, rows):
    bundle, driver, xi, config, field, bound, ladder = problem
    calls = {
        "check_apriori": lambda: q.check_apriori(field, bound, tol=1e-6),
        "kazamaki_statistic": lambda: q.kazamaki_statistic(bundle, field, eta=2.0, q_tilde=0.7),
        "monotonicity_report": lambda: ladder.monotonicity_report(tol=0.01),
        "y0_with_se": lambda: q.y0_with_se(bundle, driver, xi, config),
        "sup_abs_y": field.sup_abs_y,
    }
    assert peak_rows(calls[call]) < rows
