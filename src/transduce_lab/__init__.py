"""transduce-lab: numerical simulation of transducers, purifiers, and error reduction."""

from .linalg import Operator, PermutationOperator, direct_sum, reflection_about
from .oracles import (
    OracleSpec,
    bidirectional,
    boolean_spec,
    general_reflecting_oracle,
    reflecting_from_generator,
    simple_oracle,
    state_generating_oracle,
)
from .query import QueryAlgorithm, QueryTrace, run, trace
from .transducer import (
    Transducer,
    TransductionResult,
    complexities,
    implement_action,
    transduce,
)
from .purifier import (
    analytic_catalyst,
    build_general,
    build_simple,
    exact_query_complexity,
    general_catalyst,
    prop_trunc1_check,
    state_generating_accounting,
    verify_transduction,
)
from .majority import build as build_majority
from .majority import hoeffding_bound, imprecision_exact, simulate_imprecision
from .qsp import (
    PhaseSequence,
    PolynomialPair,
    RealPolynomial,
    complete,
    phase_factors,
    qsp_error_reduction,
    sign_polynomial,
)
from .adversary import (
    AdversaryCandidate,
    StateConversionProblem,
    check_feasible,
    transducer_to_candidate,
    two_oracle_bound,
    two_oracle_problem,
)
from .nonboolean import MultiBitOracleSpec, bv_error_reduction

__version__ = "0.1.0"
