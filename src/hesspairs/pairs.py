"""Hessenberg and tridiagonal pair analysis.

A pair (A, A*) of diagonalizable transformations is *Hessenberg with
respect to* eigenspace orderings ({V_i}; {V*_i}) when

    A* V_i ⊆ V_0 + V_1 + ... + V_{i+1}    for all i, and
    A  V*_i ⊆ V*_0 + V*_1 + ... + V*_{i+1} for all i,

with the conventions V_{-1} = V_{d+1} = 0 (and likewise on the starred
side).  This module decides that property, searches for admissible
orderings, builds the two-parameter lattice of flag intersections,
constructs and verifies split decompositions, and detects tridiagonal
pairs via the reversed-ordering characterization: the three-term
orderings of a side are the admissible orderings whose reversal is also
admissible.

The admissible search reads one block pattern per side: written in an
eigenbasis of A, A* has block (j, i) zero exactly when A* V_i has no
V_j-component, so each inclusion is a test on sets of eigenspace
indices.  The (d+1)! scans ``_scan_orderings(eigen, acting,
_side_condition_holds)`` and ``_scan_orderings(eigen, acting,
_three_term_side_holds)`` check the inclusions with echelons instead and
are kept as oracles for ``hesspairs oracle`` and the tests.

:func:`analyze_pair` computes each eigen structure, each side's
eigenbasis conjugate and each side's admissible orderings once and
derives the ordering pairs, splits and tridiagonal orderings from them.

Everything is exact and deterministic: orderings are reported in
lexicographic order of their eigenvalue sequences, and all subspaces are
canonical RREF bases, so results can be compared structurally.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from math import factorial
from typing import Optional, Sequence

from .errors import (
    DDeltaMismatchError,
    IndexOutOfRangeError,
    IrreducibilityUndeterminedError,
    NotDiagonalizableError,
    NotHessenbergError,
    NotIrreducibleError,
    OracleDisagreementError,
    SearchBudgetExceededError,
    ShapeMismatchError,
    SplitInvalidError,
)
from .fields import FieldElement, FieldSpec
from .irreducibility import (
    IrreducibilityStatus,
    IrreducibilityVerdict,
    decide_irreducible,
)
from .linalg import Matrix, SubspaceBasis, _Echelon, apply, subspace_contains, subspace_intersect
from .spectral import EigenStructure, eigen_structure, is_decomposition

#: Default cap on (d+1)! orderings explored per side.
DEFAULT_MAX_ORDERINGS = 40320


@dataclass(frozen=True)
class EigenOrdering:
    """An eigen structure together with a chosen ordering of its eigenspaces."""

    eigen: EigenStructure
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.eigen.eigenvalues))):
            raise ValueError("perm must be a permutation of the eigenvalue indices")

    @classmethod
    def canonical(cls, eigen: EigenStructure) -> "EigenOrdering":
        return cls(eigen, tuple(range(len(eigen.eigenvalues))))

    @classmethod
    def from_eigenvalues(cls, eigen: EigenStructure, values: Sequence) -> "EigenOrdering":
        """Build the ordering whose eigenvalue sequence equals ``values``."""
        spec = eigen.transform.field
        wanted = [spec.coerce(v) for v in values]
        raw = [ev.value for ev in eigen.eigenvalues]
        if sorted(raw, key=spec.sort_key) != sorted(wanted, key=spec.sort_key):
            raise ValueError("values are not a permutation of the eigenvalues")
        return cls(eigen, tuple(raw.index(v) for v in wanted))

    @property
    def eigenvalues(self) -> tuple[FieldElement, ...]:
        return tuple(self.eigen.eigenvalues[i] for i in self.perm)

    @property
    def eigenspaces(self) -> tuple[SubspaceBasis, ...]:
        return tuple(self.eigen.eigenspaces[i] for i in self.perm)

    @property
    def d(self) -> int:
        return self.eigen.d

    @functools.cached_property
    def flags(self) -> tuple[SubspaceBasis, ...]:
        """The prefix flags V_0 + ... + V_i, for 0 <= i <= d."""
        spec = self.eigen.transform.field
        return tuple(_prefix_flags(self.eigenspaces, spec, self.eigen.ambient_dim))

    def reversed(self) -> "EigenOrdering":
        return EigenOrdering(self.eigen, self.perm[::-1])

    def sort_key(self):
        spec = self.eigen.transform.field
        return tuple(spec.sort_key(v.value) for v in self.eigenvalues)


def _require_diagonalizable(*structures: EigenStructure) -> None:
    for eig in structures:
        if not eig.diagonalizable:
            raise NotDiagonalizableError("both transformations must be diagonalizable")


def _require_derived(ordering: EigenOrdering, m: Matrix, name: str) -> None:
    if ordering.eigen.transform != m:
        raise ValueError(f"{name} was not derived from the supplied matrix")


def _prefix_flags(spaces: Sequence[SubspaceBasis], field: FieldSpec, n: int) -> list[SubspaceBasis]:
    """Flags F_i = spaces[0] + ... + spaces[i]."""
    ech = _Echelon(field, n)
    out = []
    for s in spaces:
        ech.insert_all(s.rows)
        out.append(ech.to_subspace())
    return out


def _side_condition_holds(acting: Matrix, ordering: EigenOrdering) -> bool:
    """Does ``acting`` map each V_i into V_0 + ... + V_{i+1}?"""
    spaces = ordering.eigenspaces
    field, n = acting.field, acting.ncols
    d = len(spaces) - 1
    ech = _Echelon(field, n)
    ech.insert_all(spaces[0].rows)
    for i in range(d + 1):
        if i + 1 <= d:
            ech.insert_all(spaces[i + 1].rows)
        # ech now spans V_0 + ... + V_{min(i+1, d)}
        for v in spaces[i].rows:
            if not ech.contains(acting.mul_vec(v)):
                return False
    return True


def is_hessenberg_wrt(
    a: Matrix,
    a_star: Matrix,
    ord_a: EigenOrdering,
    ord_a_star: EigenOrdering,
) -> bool:
    """Decide whether (A, A*) is Hessenberg with respect to the orderings."""
    _require_derived(ord_a, a, "ord_a")
    _require_derived(ord_a_star, a_star, "ord_a_star")
    _require_diagonalizable(ord_a.eigen, ord_a_star.eigen)
    return _side_condition_holds(a_star, ord_a) and _side_condition_holds(a, ord_a_star)


def _scan_orderings(eigen: EigenStructure, acting: Matrix, side_holds) -> list[tuple[int, ...]]:
    """The orderings for which ``side_holds(acting, ordering)``, each checked on its own.

    The echelon oracle for the block-pattern search: (d+1)! checks.
    """
    return [
        p
        for p in itertools.permutations(range(len(eigen.eigenvalues)))
        if side_holds(acting, EigenOrdering(eigen, p))
    ]


def _block_support(eigen: EigenStructure, acting: Matrix) -> list[set[int]]:
    """support[i]: the j whose block (j, i) of P^-1 · acting · P is nonzero.

    P's columns are the eigenspace bases in order (the shared
    :meth:`~hesspairs.spectral.EigenStructure.eigenbasis_conjugate`).  V
    is the direct sum of the V_j, so acting V_i ⊆ Σ_{j∈S} V_j exactly when
    support[i] ⊆ S.
    """
    owner = [j for j, m in enumerate(eigen.dims) for _ in range(m)]
    zero = acting.field.zero()
    support = [set() for _ in eigen.eigenspaces]
    for r, row in enumerate(eigen.eigenbasis_conjugate(acting).entries):
        for c, x in enumerate(row):
            if x != zero:
                support[owner[c]].add(owner[r])
    return support


def _admissible_side_orderings(
    eigen: EigenStructure, acting: Matrix, max_orderings: int
) -> list[tuple[int, ...]]:
    """All orderings of one side's eigenspaces satisfying its inclusion chain.

    The inclusions are read off the side's block pattern
    (:func:`_block_support`): acting V_perm[i] ⊆ V_perm[0] + ... +
    V_perm[i+1] exactly when support[perm[i]] ⊆ {perm[0], ..., perm[i+1]}.
    A depth-first search that never extends a prefix whose last-settled
    inclusion already fails; orderings come out in lexicographic order.
    """
    count = len(eigen.eigenvalues)
    if factorial(count) > max_orderings:
        raise SearchBudgetExceededError(
            f"({count})! orderings exceed the cap of {max_orderings}"
        )
    support = _block_support(eigen, acting)
    results: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        # The inclusion at the next-to-last position involves the prefix
        # through the last position, which is now fully known.
        if len(prefix) >= 2 and not support[prefix[-2]].issubset(prefix):
            return
        if len(prefix) == count:
            results.append(tuple(prefix))
        for nxt in range(count):
            if nxt not in prefix:
                extend(prefix + [nxt])

    extend([])
    return results


def _admissible_sides(
    a: Matrix,
    a_star: Matrix,
    eig_a: EigenStructure,
    eig_a_star: EigenStructure,
    max_orderings: int,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The admissible orderings of the A side and of the A* side."""
    _require_diagonalizable(eig_a, eig_a_star)
    return (
        _admissible_side_orderings(eig_a, a_star, max_orderings),
        _admissible_side_orderings(eig_a_star, a, max_orderings),
    )


def _ordering_pairs(
    eig_a: EigenStructure,
    eig_a_star: EigenStructure,
    side_a: Sequence[tuple[int, ...]],
    side_a_star: Sequence[tuple[int, ...]],
    max_orderings: int,
) -> list[tuple[EigenOrdering, EigenOrdering]]:
    """The cartesian product of two side lists, capped and sorted by eigenvalues."""
    if len(side_a) * len(side_a_star) > max_orderings:
        raise SearchBudgetExceededError(
            f"{len(side_a)} x {len(side_a_star)} admissible ordering pairs exceed the cap"
        )
    ords_a = [EigenOrdering(eig_a, pa) for pa in side_a]
    ords_a_star = [EigenOrdering(eig_a_star, pb) for pb in side_a_star]
    return sorted(
        itertools.product(ords_a, ords_a_star),
        key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()),
    )


def find_hessenberg_orderings(
    a: Matrix,
    a_star: Matrix,
    *,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> list[tuple[EigenOrdering, EigenOrdering]]:
    """Every ordering pair with respect to which (A, A*) is Hessenberg.

    The two inclusion chains constrain the two sides independently, so the
    search runs per side and the admissible pairs are the cartesian
    product.  Pairs are returned sorted lexicographically by eigenvalue
    sequences; an empty list means the pair is not a Hessenberg pair under
    any ordering.
    """
    eig_a = eigen_structure(a)
    eig_a_star = eigen_structure(a_star)
    return find_hessenberg_orderings_of(a, a_star, eig_a, eig_a_star, max_orderings=max_orderings)


def find_hessenberg_orderings_of(
    a: Matrix,
    a_star: Matrix,
    eig_a: EigenStructure,
    eig_a_star: EigenStructure,
    *,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> list[tuple[EigenOrdering, EigenOrdering]]:
    """Like :func:`find_hessenberg_orderings`, reusing eigen structures."""
    sides = _admissible_sides(a, a_star, eig_a, eig_a_star, max_orderings)
    return _ordering_pairs(eig_a, eig_a_star, *sides, max_orderings)


# -- the flag-intersection lattice ---------------------------------------------


@dataclass(frozen=True)
class IntersectionLattice:
    """All intersections of the two prefix flags, with boundary conventions.

    ``cell(i, j)`` is (V_0+...+V_i) ∩ (V*_0+...+V*_j) where a prefix sum
    is 0 below index 0 and all of V above the top index.  Cells are stored
    for -1 <= i <= d+1 and -1 <= j <= d_star+1; indices beyond that range
    are clamped, which matches the conventions.
    """

    d: int
    d_star: int
    field: FieldSpec
    ambient_dim: int
    cells: dict = dc_field(repr=False, default_factory=dict)

    def cell(self, i: int, j: int) -> SubspaceBasis:
        i = max(-1, min(i, self.d + 1))
        j = max(-1, min(j, self.d_star + 1))
        return self.cells[(i, j)]


def build_intersection_lattice(ord_a: EigenOrdering, ord_a_star: EigenOrdering) -> IntersectionLattice:
    """Compute every lattice cell from the two ordered eigen structures."""
    _require_diagonalizable(ord_a.eigen, ord_a_star.eigen)
    field = ord_a.eigen.transform.field
    n = ord_a.eigen.ambient_dim
    d, d_star = ord_a.d, ord_a_star.d
    zero = SubspaceBasis.zero(field, n)
    full = SubspaceBasis.full(field, n)
    flags_a = [zero, *ord_a.flags, full]
    flags_b = [zero, *ord_a_star.flags, full]
    cells = {}
    for i in range(-1, d + 2):
        for j in range(-1, d_star + 2):
            cells[(i, j)] = subspace_intersect(flags_a[i + 1], flags_b[j + 1])
    return IntersectionLattice(d=d, d_star=d_star, field=field, ambient_dim=n, cells=cells)


def antidiagonal_span(lattice: IntersectionLattice, r: int) -> SubspaceBasis:
    """Sum of the lattice cells (0, r), (1, r-1), ..., (r, 0).

    For an irreducible Hessenberg pair this is 0 for r < d and all of V
    for r = d, which is what forces the two eigenspace counts to agree.
    """
    if not 0 <= r <= min(lattice.d, lattice.d_star):
        raise IndexOutOfRangeError(f"r must lie in [0, {min(lattice.d, lattice.d_star)}]")
    ech = _Echelon(lattice.field, lattice.ambient_dim)
    for h in range(r + 1):
        ech.insert_all(lattice.cell(h, r - h).rows)
    return ech.to_subspace()


# -- split decompositions --------------------------------------------------------


@dataclass(frozen=True)
class SplitDecomposition:
    """A candidate split decomposition: subspaces plus the two eigenvalue orders.

    The defining conditions -- {U_i} a decomposition of V with
    (A - t_{d-i} I) U_i ⊆ U_{i+1} and (A* - s_i I) U_i ⊆ U_{i-1} -- are
    *not* enforced by construction; :func:`verify_split` checks them.
    """

    subspaces: tuple[SubspaceBasis, ...]
    eigenvalues_a: tuple[FieldElement, ...]
    eigenvalues_a_star: tuple[FieldElement, ...]

    @property
    def d(self) -> int:
        return len(self.subspaces) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subspaces)


def split_from_flags(ord_a: EigenOrdering, ord_a_star: EigenOrdering) -> SplitDecomposition:
    """Closed-form split candidate from the two flags.

    U_i = (V*_0+...+V*_i) ∩ (V_0+...+V_{d-i}) for 0 <= i <= d.  Does not
    verify the split conditions; pair with :func:`verify_split`.
    Uniqueness of split decompositions means any split with respect to
    these orderings must equal this candidate.
    """
    _require_diagonalizable(ord_a.eigen, ord_a_star.eigen)
    if ord_a.d != ord_a_star.d:
        raise DDeltaMismatchError(
            f"eigenspace counts differ: {ord_a.d + 1} vs {ord_a_star.d + 1}"
        )
    d = ord_a.d
    flags_a, flags_b = ord_a.flags, ord_a_star.flags
    return SplitDecomposition(
        subspaces=tuple(subspace_intersect(flags_b[i], flags_a[d - i]) for i in range(d + 1)),
        eigenvalues_a=ord_a.eigenvalues,
        eigenvalues_a_star=ord_a_star.eigenvalues,
    )


def construct_split(
    a: Matrix,
    a_star: Matrix,
    ord_a: EigenOrdering,
    ord_a_star: EigenOrdering,
    irreducibility: IrreducibilityVerdict,
) -> SplitDecomposition:
    """Construct the split decomposition of an irreducible Hessenberg pair.

    Re-checks the Hessenberg property, requires an Irreducible verdict
    from the caller, takes U_i as the lattice cells on the antidiagonal,
    and verifies the result instead of trusting the construction --
    implementation bugs surface as verification failures, never as silent
    wrong answers.
    """
    if irreducibility.status is IrreducibilityStatus.UNDETERMINED:
        raise IrreducibilityUndeterminedError(
            "split construction refuses to proceed on an undetermined verdict"
        )
    if irreducibility.status is IrreducibilityStatus.REDUCIBLE:
        raise NotIrreducibleError("split construction requires an irreducible pair")
    if not is_hessenberg_wrt(a, a_star, ord_a, ord_a_star):
        raise NotHessenbergError("pair is not Hessenberg with respect to these orderings")
    split = split_from_flags(ord_a, ord_a_star)
    if not is_decomposition(a.field, a.nrows, split.subspaces):
        raise NotIrreducibleError(
            "antidiagonal cells are not nonzero summands of a direct-sum decomposition of V"
        )
    if not verify_split(a, a_star, split):
        raise OracleDisagreementError(
            "constructed split failed verification despite Hessenberg re-check; this is a bug"
        )
    return split


def split_violations(a: Matrix, a_star: Matrix, cand: SplitDecomposition) -> list[str]:
    """All reasons the candidate fails to be a split decomposition.

    Empty list means the candidate verifies.  Shape inconsistencies raise
    :class:`~hesspairs.errors.ShapeMismatchError` instead of being listed.
    """
    field, n = a.field, a.nrows
    subs = cand.subspaces
    d = len(subs) - 1
    if not a.is_square or not a_star.is_square or a.nrows != a_star.nrows:
        raise ShapeMismatchError("matrices must be square and of equal size")
    if len(cand.eigenvalues_a) != len(subs) or len(cand.eigenvalues_a_star) != len(subs):
        raise ShapeMismatchError("one eigenvalue per subspace is required on both sides")
    if not subs:
        raise ShapeMismatchError("a split decomposition needs at least one subspace")
    for s in subs:
        field.check_same(s.field)
        if s.ambient_dim != n:
            raise ShapeMismatchError("subspace ambient dimension does not match the matrices")
    problems = []
    values_a = [v.value for v in cand.eigenvalues_a]
    values_b = [v.value for v in cand.eigenvalues_a_star]
    if len(set(values_a)) != len(values_a):
        problems.append("eigenvalue sequence for A has repeats")
    if len(set(values_b)) != len(values_b):
        problems.append("eigenvalue sequence for A* has repeats")
    for i, s in enumerate(subs):
        if s.is_zero:
            problems.append(f"subspace {i} is zero")
    if sum(s.dim for s in subs) != n:
        problems.append("subspace dimensions do not sum to the ambient dimension")
    elif not is_decomposition(field, n, subs):
        problems.append("subspaces do not form a direct sum of V")
    if problems:
        return problems
    zero = SubspaceBasis.zero(field, n)
    for i in range(d + 1):
        lowered = apply(a.minus_scalar(values_a[d - i]), subs[i])
        target = subs[i + 1] if i < d else zero
        if not subspace_contains(target, lowered):
            problems.append(
                f"(A - t[{d - i}]) U_{i} is not contained in U_{i + 1}"
            )
        raised = apply(a_star.minus_scalar(values_b[i]), subs[i])
        target = subs[i - 1] if i > 0 else zero
        if not subspace_contains(target, raised):
            problems.append(
                f"(A* - s[{i}]) U_{i} is not contained in U_{i - 1}"
            )
    return problems


def verify_split(a: Matrix, a_star: Matrix, cand: SplitDecomposition) -> bool:
    """True when the candidate really is a split decomposition for (A, A*)."""
    return not split_violations(a, a_star, cand)


def recover_hessenberg_from_split(a: Matrix, a_star: Matrix, split: SplitDecomposition) -> bool:
    """Confirm that an existing split decomposition makes the pair Hessenberg.

    Checks the two flag equalities

        U_i + ... + U_d = V_0 + ... + V_{d-i}
        U_0 + ... + U_i = V*_0 + ... + V*_i

    against the eigenspace flags for the split's eigenvalue orderings and
    then confirms the Hessenberg property itself; returns the conjunction.
    Irreducibility is *not* required here.
    """
    if not verify_split(a, a_star, split):
        raise SplitInvalidError("candidate does not verify as a split decomposition")
    field, n = a.field, a.nrows
    d = split.d
    try:
        eig_a = eigen_structure(a)
        eig_a_star = eigen_structure(a_star)
        ord_a = EigenOrdering.from_eigenvalues(eig_a, split.eigenvalues_a)
        ord_a_star = EigenOrdering.from_eigenvalues(eig_a_star, split.eigenvalues_a_star)
    except ValueError as exc:
        raise SplitInvalidError(f"split eigenvalues do not match the pair: {exc}") from exc
    if not (eig_a.diagonalizable and eig_a_star.diagonalizable):
        raise SplitInvalidError("a verified split forces diagonalizability; eigen data disagrees")

    suffix = _suffix_sums(split.subspaces, field, n)
    flags_a = ord_a.flags
    for i in range(d + 1):
        if suffix[i] != flags_a[d - i]:
            return False
    prefix = _prefix_flags(list(split.subspaces), field, n)
    flags_b = ord_a_star.flags
    for i in range(d + 1):
        if prefix[i] != flags_b[i]:
            return False
    return is_hessenberg_wrt(a, a_star, ord_a, ord_a_star)


def _suffix_sums(spaces: Sequence[SubspaceBasis], field: FieldSpec, n: int) -> list[SubspaceBasis]:
    rev = _prefix_flags(list(spaces)[::-1], field, n)
    return rev[::-1]


@dataclass(frozen=True)
class DimensionProfile:
    """The three dimension sequences attached to a split decomposition.

    Position i holds (dim V_{d-i}, dim V*_i, dim U_i); the three sequences
    always agree for a genuine split decomposition.
    """

    a_eigenspace_dims: tuple[int, ...]
    a_star_eigenspace_dims: tuple[int, ...]
    subspace_dims: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return self.a_eigenspace_dims == self.a_star_eigenspace_dims == self.subspace_dims

    def mismatches(self) -> list[str]:
        out = []
        for i, (x, y, z) in enumerate(
            zip(self.a_eigenspace_dims, self.a_star_eigenspace_dims, self.subspace_dims)
        ):
            if not x == y == z:
                out.append(f"index {i}: dim V_(d-i)={x}, dim V*_i={y}, dim U_i={z}")
        return out


def dimension_profile(
    split: SplitDecomposition,
    ord_a: EigenOrdering,
    ord_a_star: EigenOrdering,
) -> DimensionProfile:
    """Dimensions of V_{d-i}, V*_i and U_i for a verified split."""
    a = ord_a.eigen.transform
    a_star = ord_a_star.eigen.transform
    if (
        ord_a.eigenvalues != split.eigenvalues_a
        or ord_a_star.eigenvalues != split.eigenvalues_a_star
    ):
        raise SplitInvalidError("orderings do not match the split's eigenvalue sequences")
    if not verify_split(a, a_star, split):
        raise SplitInvalidError("dimension profile requires a verified split")
    d = split.d
    spaces_a = ord_a.eigenspaces
    spaces_b = ord_a_star.eigenspaces
    return DimensionProfile(
        a_eigenspace_dims=tuple(spaces_a[d - i].dim for i in range(d + 1)),
        a_star_eigenspace_dims=tuple(spaces_b[i].dim for i in range(d + 1)),
        subspace_dims=split.dims,
    )


# -- tridiagonal detection ---------------------------------------------------------


def _three_term_side_holds(acting: Matrix, ordering: EigenOrdering) -> bool:
    """Does ``acting`` map each V_i into V_{i-1} + V_i + V_{i+1}?"""
    spaces = ordering.eigenspaces
    field, n = acting.field, acting.ncols
    d = len(spaces) - 1
    for i, s in enumerate(spaces):
        ech = _Echelon(field, n)
        for j in (i - 1, i, i + 1):
            if 0 <= j <= d:
                ech.insert_all(spaces[j].rows)
        for v in s.rows:
            if not ech.contains(acting.mul_vec(v)):
                return False
    return True


def _three_term_side_orderings(admissible: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The three-term orderings of a side, given its admissible orderings.

    An ordering satisfies acting V_i ⊆ V_{i-1} + V_i + V_{i+1} for all i
    exactly when it and its reversal both satisfy the inclusion chain, so
    these are the admissible orderings whose reversal is admissible too,
    kept in lexicographic order.
    """
    closed = set(admissible)
    return [p for p in admissible if p[::-1] in closed]


def _tridiagonal_orderings(
    eig_a: EigenStructure,
    eig_a_star: EigenStructure,
    sides: tuple[list[tuple[int, ...]], list[tuple[int, ...]]],
    verdict: IrreducibilityVerdict,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> tuple[bool, list[tuple[EigenOrdering, EigenOrdering]]]:
    """Tridiagonality from the admissible side lists ``sides``.

    The witnesses are the products of the two sides' three-term orderings
    (:func:`_three_term_side_orderings`); a reducible pair has none.
    """
    if verdict.status is IrreducibilityStatus.UNDETERMINED:
        raise IrreducibilityUndeterminedError(
            "tridiagonal detection requires a decided irreducibility verdict"
        )
    if verdict.status is IrreducibilityStatus.REDUCIBLE:
        return False, []
    tri_sides = [_three_term_side_orderings(side) for side in sides]
    witnesses = _ordering_pairs(eig_a, eig_a_star, *tri_sides, max_orderings)
    return bool(witnesses), witnesses


def is_tridiagonal_pair(
    a: Matrix,
    a_star: Matrix,
    *,
    verdict: Optional[IrreducibilityVerdict] = None,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> tuple[bool, list[tuple[EigenOrdering, EigenOrdering]]]:
    """Decide tridiagonality and return every witnessing ordering pair.

    Uses the reversal characterization: an ordering satisfies the
    three-term condition exactly when it and its reversal both satisfy the
    Hessenberg condition; the pair is tridiagonal when it is irreducible
    and such orderings exist on both sides.  This is the path
    :func:`analyze_pair` takes, run on freshly computed eigen structures
    and admissible side orderings.
    """
    eig_a = eigen_structure(a)
    eig_a_star = eigen_structure(a_star)
    if verdict is None:
        verdict = decide_irreducible(a, a_star, eigen_a=eig_a, eigen_a_star=eig_a_star)
    sides = _admissible_sides(a, a_star, eig_a, eig_a_star, max_orderings)
    return _tridiagonal_orderings(eig_a, eig_a_star, sides, verdict, max_orderings)


# -- whole-pair analysis ------------------------------------------------------------


@dataclass(frozen=True)
class PairAnalysisReport:
    """Full verdict for one pair; the CLI serializes this to JSON."""

    field: FieldSpec
    n: int
    eigen_a: EigenStructure
    eigen_a_star: EigenStructure
    irreducibility: IrreducibilityVerdict
    hessenberg_orderings: tuple[tuple[EigenOrdering, EigenOrdering], ...]
    # One entry per ordering pair: the verified split, or None when the
    # candidate fails verification (possible only for non-irreducible pairs).
    splits: tuple[Optional[SplitDecomposition], ...]
    tridiagonal: Optional[bool]
    tridiagonal_orderings: tuple[tuple[EigenOrdering, EigenOrdering], ...]
    d_equals_d_star: Optional[bool]

    @property
    def is_hessenberg_pair(self) -> bool:
        return bool(self.hessenberg_orderings)


def analyze_pair(
    a: Matrix,
    a_star: Matrix,
    *,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
    require_irreducible: bool = False,
) -> PairAnalysisReport:
    """Run the full analysis pipeline on one pair.

    Each fact is computed once: both eigen structures, each side's
    eigenbasis conjugate (shared by the algebra closure and the side's
    block pattern) and both lists of admissible side orderings.  The
    Hessenberg ordering pairs are their product; each pair's split is the
    closed-form candidate of :func:`split_from_flags`, verified once with
    echelons, independently of the block patterns; the tridiagonal
    orderings are the reversal-closed subsets of the same side lists, so
    each witness is one of those ordering pairs.  A split of an
    irreducible pair that fails verification raises
    :class:`~hesspairs.errors.OracleDisagreementError`.

    Raises :class:`~hesspairs.errors.EigenvaluesOutsideFieldError` when a
    spectrum does not lie in the ground field and
    :class:`~hesspairs.errors.SearchBudgetExceededError` when the ordering
    search would blow the cap.  With ``require_irreducible`` an
    undetermined irreducibility verdict becomes an error instead of a
    degraded report.
    """
    field, n = a.field, a.nrows
    if not a.is_square or not a_star.is_square or a.nrows != a_star.nrows:
        raise ShapeMismatchError("pair analysis requires square matrices of equal size")
    a.field.check_same(a_star.field)
    eig_a = eigen_structure(a)
    eig_a_star = eigen_structure(a_star)
    verdict = decide_irreducible(a, a_star, eigen_a=eig_a, eigen_a_star=eig_a_star)
    if require_irreducible and verdict.status is IrreducibilityStatus.UNDETERMINED:
        raise IrreducibilityUndeterminedError(
            "irreducibility is undetermined and --require-irreducible is in force"
        )

    orderings, splits, tri_orderings = [], [], []
    tridiagonal: Optional[bool] = False
    d_eq: Optional[bool] = None
    if eig_a.diagonalizable and eig_a_star.diagonalizable:
        sides = _admissible_sides(a, a_star, eig_a, eig_a_star, max_orderings)
        orderings = _ordering_pairs(eig_a, eig_a_star, *sides, max_orderings)
        d_eq = eig_a.d == eig_a_star.d
        for ord_a, ord_a_star in orderings:
            cand = split_from_flags(ord_a, ord_a_star) if d_eq else None
            if cand is not None and not verify_split(a, a_star, cand):
                if verdict.is_irreducible:
                    raise OracleDisagreementError(
                        "closed-form split of an irreducible Hessenberg pair failed verification"
                    )
                cand = None
            splits.append(cand)
        if verdict.status is IrreducibilityStatus.UNDETERMINED:
            tridiagonal = None
        else:
            tridiagonal, tri_orderings = _tridiagonal_orderings(
                eig_a, eig_a_star, sides, verdict, max_orderings
            )

    return PairAnalysisReport(
        field=field,
        n=n,
        eigen_a=eig_a,
        eigen_a_star=eig_a_star,
        irreducibility=verdict,
        hessenberg_orderings=tuple(orderings),
        splits=tuple(splits),
        tridiagonal=tridiagonal,
        tridiagonal_orderings=tuple(tri_orderings),
        d_equals_d_star=d_eq,
    )
