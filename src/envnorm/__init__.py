"""envnorm: normal ordering in enveloping algebras of split Lie algebras.

Given a Lie algebra over an exact coefficient ring (Z, Z/qZ, Q), presented by
a finite basis and structure constants and split as a direct sum of two
bracket-closed parts, this package rewrites any enveloping-algebra element
into its unique ordered tensor form (part-1 factors on the left, part-2
factors on the right) and verifies the identities behind the construction by
exhaustive and seeded randomized property checks.
"""

from .checks import (
    ExampleRegistry,
    PROPERTY_NAMES,
    RegistryEntry,
    SuiteConfig,
    SuiteReport,
    abelian_algebra,
    builtin_examples,
    generate,
    heisenberg_algebra,
    run_property,
    run_suite,
    sl2_algebra,
    sl_algebra,
    sl_triangular_split,
)
from .envelope import (
    EnvElement,
    StateElement,
    env_eq,
    env_mul,
    mu_state,
    oracle_normal_order,
    state_canon,
    state_eq,
    straighten,
)
from .liealg import (
    CarrierMismatchError,
    GVector,
    LieAlgebra,
    SplitDecomposition,
    ValidationReport,
    Violation,
    validate,
    validate_algebra,
    validate_split,
)
from .normalform import (
    ActionContext,
    OracleMismatchError,
    act,
    act_word,
    check_filtration,
    check_inverse,
    check_lie_action,
    check_mu_compat,
    check_right_linearity,
    normal_order,
    section_s,
)
from .ring import Ring, RingMismatchError, Scalar, make_ring

__version__ = "0.1.0"

__all__ = [
    "ActionContext",
    "CarrierMismatchError",
    "EnvElement",
    "ExampleRegistry",
    "GVector",
    "LieAlgebra",
    "OracleMismatchError",
    "PROPERTY_NAMES",
    "RegistryEntry",
    "Ring",
    "RingMismatchError",
    "Scalar",
    "SplitDecomposition",
    "StateElement",
    "SuiteConfig",
    "SuiteReport",
    "ValidationReport",
    "Violation",
    "abelian_algebra",
    "act",
    "act_word",
    "builtin_examples",
    "check_filtration",
    "check_inverse",
    "check_lie_action",
    "check_mu_compat",
    "check_right_linearity",
    "env_eq",
    "env_mul",
    "generate",
    "heisenberg_algebra",
    "make_ring",
    "mu_state",
    "normal_order",
    "oracle_normal_order",
    "run_property",
    "run_suite",
    "section_s",
    "sl2_algebra",
    "sl_algebra",
    "sl_triangular_split",
    "state_canon",
    "state_eq",
    "straighten",
    "validate",
    "validate_algebra",
    "validate_split",
]
