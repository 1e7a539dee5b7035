"""semimod: exact membership decisions over polynomial rings.

The library decides membership in finitely generated submodules of R^n,
in their smallest semiprime enlargements, and in left ideals of M_n(R),
for R = k[x_1..x_d] with k the rationals or a small finite field.  All
arithmetic is exact.  Positives reached by division carry cofactor
certificates, and negative closure verdicts the re-verified refuting point
``find_vanishing_witness`` finds: the query's own first violation, a
vector or a matrix being scanned at most once.  Over Q such a point decides
a negative closure verdict before any radical basis is built.
"""

from .closure import (
    BilinearEncoding,
    bilinear_encoding,
    closure_law_check,
    find_vanishing_witness,
    radical_intersection_check,
    radical_member,
    semiprime_member,
)
from .errors import (
    DimensionMismatchError,
    DivisionByZeroError,
    EnumerationCapExceededError,
    InfiniteFieldError,
    InvariantViolationError,
    MismatchedFieldError,
    MismatchedRingError,
    ProblemSyntaxError,
    ResourceLimitExceededError,
    SemimodError,
    UndefinedNameError,
    ZeroCovectorError,
)
from .fields import (
    QQ,
    FieldElement,
    PrimeField,
    QuadraticField,
    RationalField,
)
from .groebner import (
    GroebnerBasis,
    GroebnerLimits,
    NormalFormResult,
    SubmodulePresentation,
    buchberger,
    ideal_member,
    ideal_presentation,
    normal_form,
    s_vector,
    submodule_member,
)
from .matrixideals import (
    LeftIdealPresentation,
    agreement_check,
    ideal_with_rows_in,
    matrix_member,
    matrix_semiprime_member,
    max_left_ideal_member,
    row_module,
)
from .linalg import kernel_basis
from .oracle import OracleReport, oracle_check
from .parser import parse_polynomial, parse_problem, format_problem
from .poly import (
    OrderSpec,
    Polynomial,
    PolyMatrix,
    PolyRing,
    VectorPoly,
    identity_matrix,
    unit_vector,
)
from .submodules import (
    HyperplaneSubmodule,
    PrimeClosure,
    hyperplane_generators,
    hyperplane_member,
    prime_closure_at,
    semiprime_refutation,
    weakly_semiprime_refutation,
)
from .verdicts import EXTENSION_STABLE, SOUND_ONLY, Verdict, Witness

__version__ = "0.1.0"
