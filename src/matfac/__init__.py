"""matfac: exact tools for d-fold matrix factorizations over cyclotomic fields.

A d-fold matrix factorization of a polynomial f is a cyclically composable
tuple of square matrices over a polynomial ring whose d-fold products all
equal f times the identity.  This package constructs them (tensor products,
root-of-unity block tricks, corner sums), verifies them exactly, studies
their morphisms and direct-sum structure through jet truncations, and reports
on the maximal Cohen-Macaulay / Ulrich modules they present.

Everything is exact: coefficients live in Q(zeta_m) represented over the
power basis as integer numerators over one common denominator, polynomials
are sparse dicts keyed by exponent tuples, and all linear algebra is
fraction-free or field-exact.
"""

from .cyclo import CycloElem, CycloField, cyclotomic_field, cyclotomic_polynomial
from .errors import MatfacError, Refusal, UndecidableError
from .factorization import (
    JetMatFac,
    MatFac,
    PresentationMatrix,
    ValidationReport,
    default_precision,
    projective,
    scale_by_units,
)
from .knorrer import (
    OmegaContext,
    alpha_matrix,
    block_diagonalize,
    decompose_symmetric,
    omega_context,
    root_sum,
)
from .linalg import Matrix
from .morphisms import (
    JetHomBasis,
    JetMorphism,
    Morphism,
    SplitResult,
    admits_invertible_combination,
    hom_space_jets,
    split_idempotent,
)
from .rings import Jet, Polynomial, PolynomialRing, monomial_coprime, parse_polynomial
from .structure import (
    AxiomCoprimeRankOne,
    ConsequenceReport,
    DecompBound,
    ReductionReport,
    ShiftRefutation,
    StrongIndCert,
    TensorPropagation,
    constant_term_spot_check,
    coprime_rank_one_cert,
    jet_refute_shift_iso,
    propagate_strong_ind,
    reduce_tensor_witness,
    strong_ind_consequences,
    summand_bound,
    variable_support,
)
from .tensor import (
    TensorMatFac,
    det_check,
    distribute_witness,
    is_projective_tensor,
    recognize_projective_sum,
    shift_witness,
    swap_witness,
    tensor,
)
from .ulrich import (
    ExtensionSES,
    ModuleStats,
    SumOfProducts,
    UlrichBuild,
    build_from_sum,
    build_ulrich,
    extension_ses,
    indecomposable_ulrich,
    mcm_stats,
    sum_of_products,
)

__all__ = [
    "CycloElem",
    "CycloField",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "MatfacError",
    "Refusal",
    "UndecidableError",
    "Jet",
    "Polynomial",
    "PolynomialRing",
    "parse_polynomial",
    "monomial_coprime",
    "Matrix",
    "MatFac",
    "JetMatFac",
    "PresentationMatrix",
    "ValidationReport",
    "default_precision",
    "projective",
    "scale_by_units",
    "Morphism",
    "JetMorphism",
    "JetHomBasis",
    "SplitResult",
    "admits_invertible_combination",
    "hom_space_jets",
    "split_idempotent",
    "TensorMatFac",
    "tensor",
    "swap_witness",
    "shift_witness",
    "distribute_witness",
    "det_check",
    "recognize_projective_sum",
    "is_projective_tensor",
    "OmegaContext",
    "omega_context",
    "root_sum",
    "alpha_matrix",
    "block_diagonalize",
    "decompose_symmetric",
    "variable_support",
    "ReductionReport",
    "reduce_tensor_witness",
    "DecompBound",
    "summand_bound",
    "AxiomCoprimeRankOne",
    "TensorPropagation",
    "StrongIndCert",
    "coprime_rank_one_cert",
    "propagate_strong_ind",
    "ConsequenceReport",
    "strong_ind_consequences",
    "ShiftRefutation",
    "jet_refute_shift_iso",
    "constant_term_spot_check",
    "SumOfProducts",
    "sum_of_products",
    "build_from_sum",
    "ModuleStats",
    "mcm_stats",
    "build_ulrich",
    "ExtensionSES",
    "extension_ses",
    "UlrichBuild",
    "indecomposable_ulrich",
]
