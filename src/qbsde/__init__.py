"""qbsde: a numerical laboratory for quadratic semimartingale BSDEs.

Solves dY = Z.dM + dN - F(t,Y,Z) dA - (1/2) d<N> on simulated scenarios and
verifies, at desk scale, the quantitative statements that hold under an
exponential-moments condition: the a priori bound, moment bounds on the
solution, comparison and truncation monotonicity, stability and its failure
mode, and the true-martingale property of the stochastic exponential of the
martingale part.
"""

__version__ = "0.1.0"

from .analytics import (
    CheckReport,
    ExpMartingaleEstimate,
    anchor_check,
    apriori_bound,
    check_apriori,
    comparison_check,
    exp_martingale_check,
    exponential_moment_estimate,
    kazamaki_statistic,
    ladder_check,
    moment_checks,
    norm_bound_checks,
    sample_ordering,
    stability_check,
    stability_metrics,
    stochastic_exponential_mean,
    validate_assumptions,
)
from .drivers import (
    DriverSpec,
    ParamSet,
    TerminalCondition,
    list_builtins,
    make_builtin,
    terminal_abs,
    terminal_affine,
    terminal_constant,
)
from .errors import (
    CapacityError,
    ConfigValidationError,
    DegenerateBasisError,
    GridMismatchError,
    MomentFailureError,
    QbsdeError,
    SolverDivergenceError,
    UnknownDriverError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    bundled_configs,
    load_config,
    run_experiment,
    validate_config,
)
from .scenarios import (
    RandomSource,
    ScenarioBundle,
    TimeGrid,
    build_grid,
    coarsen_bundle,
    integral_by_node,
    simulate_scenario,
)
from .solver import (
    SolutionField,
    SolverConfig,
    TruncationLadder,
    lockstep_sweeps,
    nested_mc_oracle,
    solve_backward,
    solve_ladder,
    y0_with_se,
)
