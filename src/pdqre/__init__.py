"""Quantal response and Nash equilibria of the iterated prisoner's dilemma.

Players use memory-one Markov strategies (alpha, gamma): the probability of
cooperating after the opponent defected, respectively cooperated.  The
package computes the symmetric logit quantal response equilibrium across
rationality levels, traces the symmetric mixed Nash curve, validates the
closed forms against numerical and Monte Carlo oracles, and classifies the
bundled experimental strategy table against the QRE boundary.
"""

__version__ = "0.1.0"

from .game import (
    DEFAULT_MATRIX,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
    StationaryState,
    dynamics_step,
    expected_payoff,
    stationary_state,
    stationary_state_iterative,
)
from .nash import (
    CurvePoint,
    curve_residual,
    own_payoff_gradient,
    own_payoff_gradient_fd,
    quadratic_residual,
    stationarity_curve_residual,
    stationarity_quadratic,
    trace_quadratic_curve,
    trace_stationarity_curve,
)
from .qre import (
    ConditionalPayoffs,
    Intersection,
    NoSolution,
    QrePoint,
    SolverConfig,
    SweepResult,
    conditional_payoffs,
    conditional_payoffs_compositional,
    find_intersections,
    logit_response,
    objective_grid,
    qre_objective,
    solve_qre,
    sweep_lambda,
)
from .simulate import (
    GameLog,
    MarkovEstimate,
    PooledLog,
    SimulationConfig,
    estimate_markov,
    estimate_markov_pooled,
    export_log,
    simulate,
    simulate_group,
)
from .data import (
    BoundaryReport,
    ExperimentRecord,
    InsufficientSweep,
    ParseError,
    PhaseAggregate,
    RecordClassification,
    aggregate,
    bundled_experiments_path,
    classify_against_qre,
    load_experiments,
    save_experiments,
)

__all__ = [
    "__version__",
    # game
    "DEFAULT_MATRIX",
    "DegenerateChain",
    "MarkovStrategy",
    "PayoffMatrix",
    "StationaryState",
    "dynamics_step",
    "expected_payoff",
    "stationary_state",
    "stationary_state_iterative",
    # nash
    "CurvePoint",
    "curve_residual",
    "own_payoff_gradient",
    "own_payoff_gradient_fd",
    "quadratic_residual",
    "stationarity_curve_residual",
    "stationarity_quadratic",
    "trace_quadratic_curve",
    "trace_stationarity_curve",
    # qre
    "ConditionalPayoffs",
    "Intersection",
    "NoSolution",
    "QrePoint",
    "SolverConfig",
    "SweepResult",
    "conditional_payoffs",
    "conditional_payoffs_compositional",
    "find_intersections",
    "logit_response",
    "objective_grid",
    "qre_objective",
    "solve_qre",
    "sweep_lambda",
    # simulate
    "GameLog",
    "MarkovEstimate",
    "PooledLog",
    "SimulationConfig",
    "estimate_markov",
    "estimate_markov_pooled",
    "export_log",
    "simulate",
    "simulate_group",
    # data
    "BoundaryReport",
    "ExperimentRecord",
    "InsufficientSweep",
    "ParseError",
    "PhaseAggregate",
    "RecordClassification",
    "aggregate",
    "bundled_experiments_path",
    "classify_against_qre",
    "load_experiments",
    "save_experiments",
]
