"""Exact linear algebra for Hessenberg pairs, tridiagonal pairs and split decompositions.

The package decides, over the rationals or a prime field GF(p) and with no
rounding anywhere, whether a pair of diagonalizable transformations is a
Hessenberg pair or a tridiagonal pair, tests irreducibility, and
constructs and verifies the associated split decompositions.
"""

from . import errors
from .fields import (
    GF,
    QQ,
    FieldElement,
    FieldSpec,
    PrimeField,
    Rationals,
)
from .generators import (
    CONJUGATED,
    REDUCIBLE_SUM,
    SPLIT_FORM,
    TRIDIAGONAL_FORM,
    GeneratedInstance,
    InstanceTruth,
    conjugate,
    gen_reducible,
    gen_split_form,
    gen_tridiagonal_form,
)
from .irreducibility import (
    DecisionMethod,
    IrreducibilityStatus,
    IrreducibilityVerdict,
    algebra_closure,
    decide_irreducible,
    decide_irreducible_by_enumeration,
    enumerate_subspaces,
    spin,
    verify_invariant,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    apply,
    kernel,
    rref,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from .pairs import (
    DEFAULT_MAX_ORDERINGS,
    DimensionProfile,
    EigenOrdering,
    IntersectionLattice,
    PairAnalysisReport,
    SplitDecomposition,
    analyze_pair,
    antidiagonal_span,
    build_intersection_lattice,
    construct_split,
    dimension_profile,
    find_hessenberg_orderings,
    find_hessenberg_orderings_of,
    is_hessenberg_wrt,
    is_tridiagonal_pair,
    recover_hessenberg_from_split,
    split_from_flags,
    split_violations,
    verify_split,
)
from .spectral import (
    EigenStructure,
    Polynomial,
    char_poly,
    eigen_structure,
    is_decomposition,
    is_raising_decomposition,
)

__version__ = "0.1.0"
