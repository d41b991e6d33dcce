"""Growth bounds for the compensator of [0,1]-bounded submartingales.

The package cross-validates three routes to the same quantity: a scalar
recursion whose fixed point bounds the compensator's growth, an exact
finite-horizon value iteration for the worst-case submartingale, and
direct simulation of the extremal chains, all glued together by a
shifted-argument inequality for expectations of increasing functions.
"""

from .bellman import (
    BoundComparison,
    ExtremalPolicy,
    GridConfig,
    ValueTable,
    compare_bounds,
    extremal_policy,
    full_value,
    grid_error_budget,
    value_iteration,
    verify_lemma1,
)
from .chains import (
    ChainLaw,
    LawAtom,
    SimulationResult,
    doob_decompose,
    exact_expectation,
    extremal_chain_law,
    intro_chain_law,
    policy_schedule,
    simulate_extremal,
    simulate_intro,
)
from .functions import (
    ClassSResult,
    Family,
    FunctionSpec,
    class_s_condition,
    is_class_s_family,
    parse_function_spec,
    second_derivative,
)
from .recursion import (
    DEFAULT_CONFIG,
    DivergenceScan,
    FixedPointResult,
    RecursionStatus,
    RecursionTrace,
    SolverConfig,
    divergence_scan,
    fixed_point_bound,
    iterate,
    mixture_objective,
    mixture_objective_deriv,
    optimal_step,
    recursion_sequence,
)
from .shift import (
    COUNTEREXAMPLE_RV,
    COUNTEREXAMPLE_SHIFT,
    DiscreteRV,
    ScanReport,
    expect_f,
    property_scan,
    shift_gap,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "FunctionSpec",
    "ClassSResult",
    "parse_function_spec",
    "class_s_condition",
    "second_derivative",
    "is_class_s_family",
    "DiscreteRV",
    "ScanReport",
    "COUNTEREXAMPLE_RV",
    "COUNTEREXAMPLE_SHIFT",
    "expect_f",
    "shift_gap",
    "property_scan",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "RecursionStatus",
    "RecursionTrace",
    "FixedPointResult",
    "DivergenceScan",
    "mixture_objective",
    "mixture_objective_deriv",
    "optimal_step",
    "iterate",
    "recursion_sequence",
    "fixed_point_bound",
    "divergence_scan",
    "GridConfig",
    "ValueTable",
    "BoundComparison",
    "ExtremalPolicy",
    "grid_error_budget",
    "value_iteration",
    "full_value",
    "extremal_policy",
    "verify_lemma1",
    "compare_bounds",
    "LawAtom",
    "ChainLaw",
    "SimulationResult",
    "intro_chain_law",
    "exact_expectation",
    "doob_decompose",
    "simulate_intro",
    "extremal_chain_law",
    "simulate_extremal",
    "policy_schedule",
    "__version__",
]
