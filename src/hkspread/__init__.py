"""Exact characteristic-p commutative algebra: Gröbner bases, lengths,
Hilbert-Kunz multiplicities, and finite-q star-spread estimation."""

__version__ = "0.1.0"

from .errors import (
    AlgebraError,
    ContainmentError,
    FrobeniusPowerError,
    HomogeneityError,
    InfiniteLengthError,
    NotPrimeError,
    PreconditionError,
    ResourceLimitError,
    RingMismatchError,
    ScriptError,
    UnitRelationError,
)
from .groebner import (
    GroebnerBasis,
    GuardConfig,
    krull_dimension,
    standard_monomials,
    use_guard,
)
from .ideals import (
    Ideal,
    ideal_colon,
    ideal_intersection,
    maximal_ideal,
    min_gens,
)
from .lengths import (
    INFINITE,
    HKEstimate,
    HKSample,
    LengthValue,
    ehk_estimate,
    hk_function,
    length_quotient,
    length_subquotient,
)
from .orders import DEGLEX, DEGREVLEX, LEX, AuxBlockOrder, MonomialOrder, order_by_name
from .poly import Polynomial, RingSpec
from .runner import report_csv, report_json, run_script
from .script import SessionScript, parse_polynomial, parse_script, print_script
from .spread import (
    ColonCriterionReport,
    IdentityReport,
    IndependenceReport,
    SpreadReport,
    check_base_change,
    check_corollary_vanishing,
    check_lemma33_additivity,
    check_product_identity,
    check_self_product,
    colon_criterion_diagnostic,
    star_independence_diagnostic,
    star_spread_estimate,
    star_spread_hk_difference,
)

