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
admissible, so the tridiagonal witnesses are the Hessenberg ordering
pairs whose two orderings are both three-term.

There is one ordering search, :func:`_search_orderings`: a depth-first
search that takes the inclusion test as an argument and counts its stops
against one budget.  ``analyze`` passes the block-pattern test: written
in an eigenbasis of A, A* has block (j, i) zero exactly when A* V_i has
no V_j-component, so each inclusion is a test on sets of eigenspace
indices.  ``hesspairs oracle`` passes an echelon test in the standard
basis instead (:func:`_echelon_side_orderings`), which forms neither
P^-1 nor a block pattern and extends one echelon per level of the
search.  The same echelon test, :func:`_maps_into`, checks the
Hessenberg and three-term chains of a given ordering
(:func:`_window_inclusions_hold`); the two chains differ only in their
window of eigenspaces.

:func:`analyze_pair` computes each eigen structure and each side's
eigenbasis conjugate once and makes one ordering search,
:func:`find_hessenberg_orderings_of`; the splits are read from its
ordering pairs and the tridiagonal witnesses are filtered from them.
Each split is read in A's eigenbasis, where the A-flag is a coordinate
span, with one echelon per ordering pair (:func:`split_from_flags`);
:func:`split_violations` checks it in the standard basis, one vector
m·u - t·u at a time.  The d+1 flag intersections of
:func:`_intersected_split` are kept as the oracle for the read.

Everything is exact and deterministic: orderings are reported in
lexicographic order of their eigenvalue sequences, the order in which the
search finds them (eigenvalues are indexed in ascending order and each
side's search tries indices in increasing order), and all subspaces are
canonical RREF bases, so results can be compared structurally.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Collection, Iterable, Optional, Sequence

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
from .linalg import Matrix, SubspaceBasis, _Echelon, _shift_maps_into, subspace_intersect
from .spectral import EigenStructure, eigen_structure, is_decomposition

#: Default budget of stops per side's ordering search, and cap on the
#: reported ordering pairs.  8! = 40320 admits a side of 8 eigenspaces
#: that every ordering satisfies; a side of an irreducible pair stops at
#: most (d+1)^3 times, so every irreducible pair up to d = 33 fits.
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
        if sorted(raw) != sorted(wanted):
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


def _maps_into(acting: Matrix, space: SubspaceBasis, window: Iterable[SubspaceBasis]) -> bool:
    """Does ``acting`` map ``space`` into the sum of the ``window`` spaces?

    The echelon test, in the standard basis: it forms neither an
    eigenbasis nor a block pattern.
    """
    ech = _Echelon(acting.field, acting.ncols)
    for w in window:
        ech.insert_all(w.rows)
    return _shift_maps_into(acting, 0, space, ech)


def _window_inclusions_hold(acting: Matrix, ordering: EigenOrdering, back: int) -> bool:
    """Does ``acting`` map each V_i into V_{i-back} + ... + V_{i+1}?

    Indices outside 0..d are dropped, so ``back`` >= d gives the window
    V_0 + ... + V_{i+1} of the Hessenberg chain and ``back`` = 1 the
    window V_{i-1} + V_i + V_{i+1} of the three-term chain.
    """
    spaces = ordering.eigenspaces
    return all(_maps_into(acting, v, spaces[max(i - back, 0):i + 2]) for i, v in enumerate(spaces))


def _side_condition_holds(acting: Matrix, ordering: EigenOrdering) -> bool:
    """Does ``acting`` map each V_i into V_0 + ... + V_{i+1}?"""
    return _window_inclusions_hold(acting, ordering, len(ordering.eigenspaces))


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


def _block_support(eigen: EigenStructure, acting: Matrix) -> list[set[int]]:
    """support[i]: the j whose block (j, i) of P^-1 · acting · P is nonzero.

    P's columns are the eigenspace bases in order (the shared
    :meth:`~hesspairs.spectral.EigenStructure.eigenbasis_conjugate`).  V
    is the direct sum of the V_j, so acting V_i ⊆ Σ_{j∈S} V_j exactly when
    support[i] ⊆ S.
    """
    owner = [j for j, m in enumerate(eigen.dims) for _ in range(m)]
    support = [set() for _ in eigen.eigenspaces]
    for r, row in enumerate(eigen.eigenbasis_conjugate(acting).entries):
        for c, x in enumerate(row):
            if x:
                support[owner[c]].add(owner[r])
    return support


def _search_orderings(count: int, settled: Callable[[list[int]], bool], budget: int) -> list[tuple[int, ...]]:
    """The orderings of ``count`` eigenspace indices that ``settled`` never rejects.

    A depth-first search that extends a prefix only while
    ``settled(prefix)`` holds; ``settled`` tests the inclusion at position
    len(prefix) - 2, which the last placed index has just fixed.
    Orderings come out in lexicographic order.  A *stop* is a prefix where
    the search ends: a rejected prefix or a complete ordering.  No stop
    extends another, so stops stand for disjoint sets of orderings and
    number at most count!; each other node is a proper prefix of a stop,
    so there are at most ``count`` times as many of them.  Past ``budget``
    stops the search raises
    :class:`~hesspairs.errors.SearchBudgetExceededError`.
    """
    found: list[tuple[int, ...]] = []
    stops = 0

    def extend(prefix: list[int]) -> None:
        nonlocal stops
        rejected = len(prefix) >= 2 and not settled(prefix)
        if rejected or len(prefix) == count:
            stops += 1
            if stops > budget:
                raise SearchBudgetExceededError(f"ordering search of {count} eigenspaces exceeds {budget} stops")
            if not rejected:
                found.append(tuple(prefix))
            return
        for nxt in range(count):
            if nxt not in prefix:
                extend(prefix + [nxt])

    extend([])
    return found


def _admissible_side_orderings(
    eigen: EigenStructure, acting: Matrix, max_orderings: int
) -> list[tuple[int, ...]]:
    """All orderings of one side's eigenspaces satisfying its inclusion chain.

    The inclusions are read off the side's block pattern
    (:func:`_block_support`): acting V_perm[i] ⊆ V_perm[0] + ... +
    V_perm[i+1] exactly when support[perm[i]] ⊆ {perm[0], ..., perm[i+1]},
    the test :func:`_search_orderings` makes at each prefix, with
    ``max_orderings`` as its budget of stops.

    On an irreducible pair the search is small.  A set S of indices with
    support[j] ⊆ S for every j in S spans a subspace Σ_{j∈S} V_j that A
    (a sum of its eigenspaces) and ``acting`` both keep; this is also the
    fact behind the reachability read of
    :func:`~hesspairs.irreducibility.algebra_closure`.  When a prefix
    perm[0..i], i < d, passes the test, each support[perm[k]] with k < i
    lies in perm[0..i], so support[perm[i]] must hold an index outside
    the prefix, or the pair is reducible.  A child survives only when it
    is that index and no other lies outside: each prefix has at most one
    surviving child, a side at most d+1 orderings, and the search at most
    (d+1)^3 stops.
    """
    support = _block_support(eigen, acting)
    return _search_orderings(len(support), lambda pre: support[pre[-2]].issubset(pre), max_orderings)


def _echelon_side_orderings(eigen: EigenStructure, acting: Matrix, max_orderings: int) -> list[tuple[int, ...]]:
    """:func:`_admissible_side_orderings` by echelons: the oracle for the block pattern.

    The same search, testing acting·V_pre[-2] ⊆ Σ_{j∈pre} V_j in the
    standard basis.  The images acting·u of the basis rows u of each V_j
    are formed once (up to scale, :meth:`~hesspairs.linalg.Matrix.mul_line`),
    and each DFS level keeps the echelon of its prefix's sum; a child
    extends a copy of its parent's by the newly placed space.
    """
    spaces = eigen.eigenspaces
    images = [[acting.mul_line(u) for u in space.rows] for space in spaces]
    # levels[k] = (pre[k], echelon of V_pre[0] + ... + V_pre[k]), kept for
    # the longest common prefix with the prefix tested last.
    levels: list[tuple[int, _Echelon]] = []

    def settled(pre: list[int]) -> bool:
        keep = 0
        while keep < min(len(levels), len(pre) - 1) and levels[keep][0] == pre[keep]:
            keep += 1
        del levels[keep:]
        for j in pre[keep:]:
            ech = levels[-1][1].copy() if levels else _Echelon(acting.field, acting.ncols)
            ech.insert_all(spaces[j].rows)
            levels.append((j, ech))
        return all(levels[-1][1].contains(y) for y in images[pre[-2]])

    return _search_orderings(len(spaces), settled, max_orderings)


def _ordering_pairs(
    eig_a: EigenStructure,
    eig_a_star: EigenStructure,
    side_a: Sequence[tuple[int, ...]],
    side_a_star: Sequence[tuple[int, ...]],
    max_orderings: int,
) -> list[tuple[EigenOrdering, EigenOrdering]]:
    """The cartesian product of two side lists, capped.

    Each side list is in lexicographic order of eigenvalue indices, which
    ascend with the eigenvalues, so the product is in lexicographic order
    of the two eigenvalue sequences.
    """
    if len(side_a) * len(side_a_star) > max_orderings:
        raise SearchBudgetExceededError(
            f"{len(side_a)} x {len(side_a_star)} admissible ordering pairs exceed the cap"
        )
    ords_a = [EigenOrdering(eig_a, pa) for pa in side_a]
    ords_a_star = [EigenOrdering(eig_a_star, pb) for pb in side_a_star]
    return list(itertools.product(ords_a, ords_a_star))


def find_hessenberg_orderings(
    a: Matrix,
    a_star: Matrix,
    *,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> list[tuple[EigenOrdering, EigenOrdering]]:
    """Every ordering pair with respect to which (A, A*) is Hessenberg.

    The two inclusion chains constrain the two sides independently, so the
    search runs per side and the admissible pairs are the cartesian
    product.  Pairs come in lexicographic order of their eigenvalue
    sequences, the order of the search itself: eigenvalues are indexed in
    ascending order, and each side's search emits its orderings in
    lexicographic order of those indices.  An empty list means the pair is
    not a Hessenberg pair under any ordering.
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
    """Like :func:`find_hessenberg_orderings`, reusing eigen structures.

    The one ordering search of the package: :func:`analyze_pair` and
    :func:`is_tridiagonal_pair` both call it, and the tridiagonal
    witnesses are filtered from its result.
    """
    _require_diagonalizable(eig_a, eig_a_star)
    side_a = _admissible_side_orderings(eig_a, a_star, max_orderings)
    side_a_star = _admissible_side_orderings(eig_a_star, a, max_orderings)
    return _ordering_pairs(eig_a, eig_a_star, side_a, side_a_star, max_orderings)


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

    Read in A's eigenbasis (P and P^-1 of
    :attr:`~hesspairs.spectral.EigenStructure.eigenbasis`) with the blocks
    in the order V_d, ..., V_0, in which V_0+...+V_{d-i} is the span of the
    coordinates from m_d+...+m_{d-i+1} on (m_k = dim V_k).  The
    A*-eigenvectors, in those coordinates, go into one echelon in the
    order V*_0, V*_1, ...; once V*_i is in, the rows whose pivot lies in
    that span are a basis of U_i, mapped back through P.  Both maps only
    feed echelons, so they are taken up to scale
    (:meth:`~hesspairs.linalg.Matrix.mul_line`).  The coordinates P^-1·w
    are formed once per pair
    (:meth:`~hesspairs.spectral.EigenStructure.eigenbasis_coordinates`);
    an ordering pair only permutes them.
    :func:`_intersected_split` is the same candidate by d+1 intersections.
    """
    _require_diagonalizable(ord_a.eigen, ord_a_star.eigen)
    if ord_a.d != ord_a_star.d:
        raise DDeltaMismatchError(
            f"eigenspace counts differ: {ord_a.d + 1} vs {ord_a_star.d + 1}"
        )
    eigen = ord_a.eigen
    field, n = eigen.transform.field, eigen.ambient_dim
    p, _ = eigen.eigenbasis
    coords = eigen.eigenbasis_coordinates(ord_a_star.eigen.eigenspaces)
    starts = [0, *itertools.accumulate(eigen.dims)]
    # Coordinate k of the read is P's column order[k], and P's column c is
    # coordinate back_order[c] of the read.
    order = [c for j in reversed(ord_a.perm) for c in range(starts[j], starts[j + 1])]
    back_order = sorted(range(n), key=order.__getitem__)
    spaces_a = ord_a.eigenspaces
    d = ord_a.d
    ech = _Echelon(field, n)
    cut = 0
    subspaces = []
    for i, j in enumerate(ord_a_star.perm):
        if i:
            cut += spaces_a[d - i + 1].dim
        for y in coords[j]:
            ech.insert([y[c] for c in order])
        back = _Echelon(field, n)
        # An echelon row is a multiple of its RREF row, which spans the same line.
        for row, piv in zip(ech.rows, ech.pivots):
            if piv >= cut:
                back.insert(p.mul_line([row[k] for k in back_order]))
        subspaces.append(back.to_subspace())
    return SplitDecomposition(
        subspaces=tuple(subspaces),
        eigenvalues_a=ord_a.eigenvalues,
        eigenvalues_a_star=ord_a_star.eigenvalues,
    )


def _intersected_split(ord_a: EigenOrdering, ord_a_star: EigenOrdering) -> tuple[SubspaceBasis, ...]:
    """The subspaces of :func:`split_from_flags` as d+1 intersections of the prefix flags.

    The Zassenhaus oracle for the eigenbasis read, used by ``hesspairs
    oracle`` and the tests.
    """
    d = ord_a.d
    return tuple(subspace_intersect(ord_a_star.flags[i], ord_a.flags[d - i]) for i in range(d + 1))


def construct_split(
    a: Matrix,
    a_star: Matrix,
    ord_a: EigenOrdering,
    ord_a_star: EigenOrdering,
    irreducibility: IrreducibilityVerdict,
) -> SplitDecomposition:
    """Construct the split decomposition of an irreducible Hessenberg pair.

    Re-checks the Hessenberg property, requires an Irreducible verdict
    from the caller, reads U_i in A's eigenbasis (:func:`split_from_flags`),
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
    :class:`~hesspairs.errors.ShapeMismatchError` instead of being listed,
    and a subspace or eigenvalue over another field raises
    :class:`~hesspairs.errors.MixedFieldsError`.
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
    for v in (*cand.eigenvalues_a, *cand.eigenvalues_a_star):
        field.check_same(v.spec)
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
    a_star.field.check_same(field)
    # echelons[d + 1] and echelons[-1] are both the zero space, U_{d+1} = U_{-1} = 0.
    echelons = [s._as_echelon() for s in subs] + [_Echelon(field, n)]
    for i in range(d + 1):
        if not _shift_maps_into(a, values_a[d - i], subs[i], echelons[i + 1]):
            problems.append(
                f"(A - t[{d - i}]) U_{i} is not contained in U_{i + 1}"
            )
        if not _shift_maps_into(a_star, values_b[i], subs[i], echelons[i - 1]):
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

    suffix = _prefix_flags(split.subspaces[::-1], field, n)[::-1]
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


@dataclass(frozen=True)
class DimensionProfile:
    """The three dimension sequences attached to a split decomposition.

    Position i holds (dim V_{d-i}, dim V*_i, dim U_i); the three sequences
    always agree for a genuine split decomposition.
    """

    a_eigenspace_dims: tuple[int, ...]
    a_star_eigenspace_dims: tuple[int, ...]
    subspace_dims: tuple[int, ...]


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
    return _window_inclusions_hold(acting, ordering, 1)


def _three_term_side_orderings(admissible: Collection[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The three-term orderings of a side, given its admissible orderings.

    An ordering satisfies acting V_i ⊆ V_{i-1} + V_i + V_{i+1} for all i
    exactly when it and its reversal both satisfy the inclusion chain, so
    these are the admissible orderings whose reversal is admissible too,
    kept in the order of ``admissible``.
    """
    closed = set(admissible)
    return [p for p in admissible if p[::-1] in closed]


def _tridiagonal_orderings(
    orderings: Sequence[tuple[EigenOrdering, EigenOrdering]],
    verdict: IrreducibilityVerdict,
) -> tuple[bool, list[tuple[EigenOrdering, EigenOrdering]]]:
    """Tridiagonality from the Hessenberg ordering pairs ``orderings``.

    The witnesses are the entries of ``orderings``, in their given order,
    whose two orderings are both three-term
    (:func:`_three_term_side_orderings`).  Each side's admissible
    orderings are read off the list: it is the product of the two side
    lists, so it shows every one of them unless the other side has none,
    and then no pair is a witness either way.  A reducible pair has none.
    """
    if verdict.status is IrreducibilityStatus.UNDETERMINED:
        raise IrreducibilityUndeterminedError(
            "tridiagonal detection requires a decided irreducibility verdict"
        )
    if verdict.status is IrreducibilityStatus.REDUCIBLE:
        return False, []
    tri_a = set(_three_term_side_orderings({oa.perm for oa, _ in orderings}))
    tri_a_star = set(_three_term_side_orderings({ob.perm for _, ob in orderings}))
    witnesses = [ab for ab in orderings if ab[0].perm in tri_a and ab[1].perm in tri_a_star]
    return bool(witnesses), witnesses


def is_tridiagonal_pair(
    a: Matrix,
    a_star: Matrix,
    *,
    max_orderings: int = DEFAULT_MAX_ORDERINGS,
) -> tuple[bool, list[tuple[EigenOrdering, EigenOrdering]]]:
    """Decide tridiagonality and return every witnessing ordering pair.

    Uses the reversal characterization: an ordering satisfies the
    three-term condition exactly when it and its reversal both satisfy the
    Hessenberg condition; the pair is tridiagonal when it is irreducible
    and such orderings exist on both sides.  This is the path
    :func:`analyze_pair` takes: the witnesses are filtered from
    :func:`find_hessenberg_orderings_of`, so this function refuses
    (:class:`~hesspairs.errors.SearchBudgetExceededError`) exactly the
    pairs whose ordering search :func:`analyze_pair` refuses, reducible
    ones included.
    """
    eig_a = eigen_structure(a)
    eig_a_star = eigen_structure(a_star)
    verdict = decide_irreducible(a, a_star, eigen_a=eig_a, eigen_a_star=eig_a_star)
    orderings = find_hessenberg_orderings_of(a, a_star, eig_a, eig_a_star, max_orderings=max_orderings)
    return _tridiagonal_orderings(orderings, verdict)


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
    block pattern) and the Hessenberg ordering pairs, which come from one
    call of :func:`find_hessenberg_orderings_of`.  Each pair's split is the
    closed-form candidate of :func:`split_from_flags`, read in A's
    eigenbasis with the P^-1 the block pattern already formed, so no
    prefix flag is built; it is verified once with echelons in the
    standard basis, independently of P and of the block patterns.  The
    tridiagonal orderings are filtered from the same list
    (:func:`_tridiagonal_orderings`), so each witness is one of its
    entries, with no second product or cap check.  A split of an
    irreducible pair that fails verification raises
    :class:`~hesspairs.errors.OracleDisagreementError`.

    Raises :class:`~hesspairs.errors.EigenvaluesOutsideFieldError` when a
    spectrum does not lie in the ground field and
    :class:`~hesspairs.errors.SearchBudgetExceededError` when the ordering
    search passes its budget.  With ``require_irreducible`` an
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
        orderings = find_hessenberg_orderings_of(a, a_star, eig_a, eig_a_star, max_orderings=max_orderings)
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
            tridiagonal, tri_orderings = _tridiagonal_orderings(orderings, verdict)

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
