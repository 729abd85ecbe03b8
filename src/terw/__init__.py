"""Association schemes and Terwilliger algebra dimensions of groups with an
abelian subgroup of index 2: exact conjugacy classes, character tables,
dimension formulas with brute-force oracles, and Wedderburn multiplicities.
"""

from .abelian import (
    AbElem,
    AbelianGroup,
    CyclicFactor,
    FixedData,
    Involution,
    fixed_data,
    make_abelian,
    make_involution,
)
from .characters import (
    CharacterTable,
    LinearLabel,
    TwoDimLabel,
    character_labels,
    character_table,
    verify_orthogonality,
)
from .closure import (
    algebra_dimension,
    conjugation_orbitals,
    terwilliger_closure_dim,
)
from .conjugacy import (
    ClassList,
    ConjClass,
    class_products,
    conjugacy_classes,
    conjugacy_classes_bruteforce,
)
from .errors import (
    AxiomFailure,
    BadDicyclicYError,
    BadG2ParamsError,
    CharacterTableFailure,
    DimensionMismatchError,
    GuardExceededError,
    IdempotencyFailure,
    IdentityAutomorphismError,
    InvalidGroupError,
    MultiplicityMismatch,
    NonIntegralMultiplicity,
    NonPrimeError,
    NotInvolutionError,
    OracleMismatch,
    OrderTooSmallError,
    OrthogonalityFailure,
    ParityFailure,
    TerwError,
    VerificationFailure,
    YNotFixedError,
)
from .groups import (
    D2Elem,
    D2Group,
    NonUniqueInvolutionWarning,
    dicyclic,
    dihedral,
    g2_group,
    general,
)
from .scheme import (
    TransitivityReport,
    adjacency_matrices,
    dim_centralizer,
    dim_closed_form,
    dim_t0,
    dual_idempotents,
    is_triply_transitive,
    verify_scheme_axioms,
)
from .wedderburn import (
    MultiplicityVector,
    WedderburnReport,
    central_idempotent,
    multiplicities_char_sum,
    multiplicities_closed_form,
    multiplicities_inner_product,
    verify_central_idempotents,
    wedderburn_report,
)

__version__ = "0.1.0"
