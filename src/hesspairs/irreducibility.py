"""Deciding whether a pair of transformations has a common invariant subspace.

A pair (A, A*) is *irreducible* when no subspace W with 0 != W != V
satisfies A W ⊆ W and A* W ⊆ W.  :func:`decide_irreducible` has two
rungs:

1. any field: is the unital algebra 𝒜 generated by {A, A*} all of
   M_n?  If so the pair is irreducible (Burnside sufficiency).  The
   primitive idempotents E_i of a diagonalizable side are polynomials in
   it, so 𝒜 is the direct sum of its blocks E_i 𝒜 E_j; written in an
   eigenbasis of that side, each block is closed in an echelon of width
   m_i·m_j instead of one of width n^2.  Only the column of blocks 𝒜E_j
   of the smallest eigenspace is closed: 𝒜 = M_n exactly when it has
   dimension n·m_j and one transposed spin from a coordinate vector of
   that eigenspace fills K^n, so a shorter column, or a proper dual
   spin, answers "no" at once.  When every eigenspace is a line, no
   block is closed at all: 𝒜 holds E_jj·G·E_ii = g_ji·E_ji for each
   generator G, so it is spanned by the E_ji with j reachable from i in
   the digraph of nonzero entries, and 𝒜 = M_n exactly when that digraph
   is strongly connected;
2. Norton's criterion (Parker 1984; Holt and Rees 1994) on singular
   elements X of that algebra, one shared step per X
   (:func:`_norton_step`).  The spin of a point of ker X is either V or a
   reducibility witness.  When every point of ker X spins to V, one
   transposed spin from ker X^T decides: it fills the dual space and the
   pair is irreducible, or its annihilator is a witness.  ker X is spun
   point by point when it is a line, and over GF(p) when it has at most
   ``ENUMERATION_LIMIT`` projective points; otherwise only its basis rows
   are spun, a probe that can find a witness but cannot conclude.  The
   elements, in order:

   * M - θI for each eigenvalue θ of A and of A*, by kernel dimension;
     the kernel is the eigenspace, already computed by the analysis;
   * X = 0, whose kernel is V: complete over small GF(p), standard-basis
     probes otherwise;
   * over GF(p), ``RANDOM_DRAWS`` random combinations of short words in
     A and A*, drawn from one fixed stream.

When no element decides the verdict is undetermined.  Honest tri-state
beats a wrong boolean; callers that need irreducibility refuse to proceed.

Reducible verdicts always carry a witness that can be re-checked with
:func:`verify_invariant`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .errors import (
    EigenvaluesOutsideFieldError,
    InfiniteFieldError,
    OracleDisagreementError,
    SizeMismatchError,
    ZeroVectorError,
)
from .fields import FieldSpec, PrimeField, Raw
from .linalg import Matrix, SubspaceBasis, _Echelon, apply, kernel, subspace_contains
from .spectral import EigenStructure, eigen_structure


class IrreducibilityStatus(str, Enum):
    IRREDUCIBLE = "irreducible"
    REDUCIBLE = "reducible"
    UNDETERMINED = "undetermined"


class DecisionMethod(str, Enum):
    ALGEBRA_DIMENSION = "algebra-dimension"
    NORTON = "norton"
    BRUTE_FORCE = "brute-force"


# Over GF(p), a kernel with at most this many projective points is spun
# point by point; a larger one is only probed through its basis rows.
ENUMERATION_LIMIT = 5000
# Random algebra elements tried last, over GF(p) only.
RANDOM_DRAWS = 64

# A block of a matrix in the algebra closure: rows of raw entries.
Block = tuple[tuple[Raw, ...], ...]


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the decision ladder; witness present iff reducible."""

    status: IrreducibilityStatus
    method: DecisionMethod
    witness: Optional[SubspaceBasis] = None

    def __post_init__(self):
        if (self.status is IrreducibilityStatus.REDUCIBLE) != (self.witness is not None):
            raise ValueError("witness must be present exactly for reducible verdicts")

    @property
    def is_irreducible(self) -> bool:
        return self.status is IrreducibilityStatus.IRREDUCIBLE


def _check_generators(generators: Sequence[Matrix]) -> tuple[FieldSpec, int]:
    if not generators:
        raise SizeMismatchError("at least one generator is required")
    first = generators[0]
    if not first.is_square:
        raise SizeMismatchError("generators must be square")
    for g in generators[1:]:
        g.field.check_same(first.field)
        if g.nrows != first.nrows or not g.is_square:
            raise SizeMismatchError("generators must share one square size")
    return first.field, first.nrows


def spin(v: Sequence[Raw], generators: Sequence[Matrix]) -> SubspaceBasis:
    """Smallest subspace containing v that is invariant under every generator."""
    field, n = _check_generators(generators)
    vec = tuple(field.coerce(x) for x in v)
    if len(vec) != n:
        raise SizeMismatchError("seed vector length does not match generators")
    if not any(vec):
        raise ZeroVectorError("spin needs a nonzero seed vector")
    ech = _Echelon(field, n)
    ech.insert(vec)
    queue = [vec]
    while queue:
        w = queue.pop()
        for g in generators:
            u = g.mul_line(w)
            if ech.insert(u):
                queue.append(u)
                if ech.dim == n:
                    return ech.to_subspace()
    return ech.to_subspace()


def algebra_closure(generators: Sequence[Matrix]) -> tuple[int]:
    """Rung 1: is the unital algebra 𝒜 generated by the matrices all of M_n?

    Returns (k,): k = n^2 exactly when 𝒜 = M_n; otherwise k < n^2 is a
    lower bound on dim 𝒜.

    The coordinates are split into blocks: the groups of equal entries of
    a diagonal first generator, whose projections E_I are polynomials in
    it and so lie in 𝒜; a non-diagonal first generator is one block.
    Then 𝒜 is the direct sum of the blocks E_I 𝒜 E_J.  For a column
    block J, span{I_J} is closed under left multiplication by the
    generators' blocks G_IK, which reaches every word, in one echelon of
    width |I|·|J| per row block I; that gives dim 𝒜E_J.

    Only the smallest column block J is closed.  If 𝒜 = M_n, then
    dim 𝒜E_J = n·|J| and e_s^T 𝒜 = K^n for every s, so a shorter 𝒜E_J
    answers "no" with k = dim 𝒜E_J.  When 𝒜E_J is full and, for one
    s ∈ J, e_s spins to K^n under the transposed generators, 𝒜 = M_n:
    𝒜E_J holds every E_rs, so 𝒜 holds E_rs·X = e_r(e_s^T X) for each
    X ∈ 𝒜, and the rows e_s^T X fill K^n.  A proper dual spin answers
    "no" with k = n·|J|.  With one block, 𝒜E_J is 𝒜 and k = dim 𝒜.

    When every block is one coordinate (a diagonal first generator with
    distinct entries) nothing is closed.  Each E_ii is a polynomial in
    the first generator, so 𝒜 holds E_jj·G·E_ii = g_ji·E_ji for every
    generator G, and the products of these give E_ji whenever j is
    reachable from i along nonzero entries g_ji.  The span of those E_ji
    is an algebra that holds every generator, so it is 𝒜, and 𝒜 = M_n
    exactly when every coordinate reaches every other.  k is |reach(i)|
    for the first coordinate i that does not.
    """
    # A 1-tuple because perfbench/tracing.py wraps this function by name and reads result[0].
    field, n = _check_generators(generators)
    blocks = _coordinate_blocks(generators[0])
    if len(blocks) == n:
        succ = [{j for g in generators for j in range(n) if g.entries[j][i]} for i in range(n)]
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                new = succ[stack.pop()] - seen
                seen |= new
                stack.extend(new)
            if len(seen) < n:
                return (len(seen),)
        return (n * n,)
    # movers[k]: the blocks G_IK, as rows of raw entries, with their row
    # block I, that act on block K; zero blocks and scalar diagonal blocks
    # give nothing new.  Both are recognized by truth value.
    movers: list[list[tuple[int, Block]]] = [[] for _ in blocks]
    for g in generators:
        for i, rows in enumerate(blocks):
            band = [g.entries[r] for r in rows]
            for k, cols in enumerate(blocks):
                blk = tuple(tuple(row[c] for c in cols) for row in band)
                if any(map(any, blk)) and not (i == k and _is_scalar(blk)):
                    movers[k].append((i, blk))

    # Close 𝒜E_J.  A product G_IK·m is formed flat, row-major, as the
    # echelon of row block I takes it, and is only shaped into rows when
    # it is new; room counts the dimensions still missing from n·|J|.
    j = min(range(len(blocks)), key=lambda b: len(blocks[b]))
    cols = blocks[j]
    width = len(cols)
    echs = [_Echelon(field, len(rows) * width) for rows in blocks]
    ident = Matrix.identity(field, width).entries
    echs[j].insert([x for row in ident for x in row])
    queue = [(j, ident)]
    room = n * width - 1
    while queue and room:
        k, m = queue.pop()
        m_cols = tuple(zip(*m))
        for i, g in movers[k]:
            ech = echs[i]
            if ech.dim == ech.width:
                continue
            flat = [field.dot(row, col) for row in g for col in m_cols]
            if ech.insert(flat):
                queue.append((i, tuple(tuple(flat[r:r + width]) for r in range(0, len(flat), width))))
                room -= 1
                if not room:
                    break
    if room or width == n:
        return (n * width - room,)
    s = cols[0]
    if spin([int(c == s) for c in range(n)], [g.transpose() for g in generators]).dim == n:
        return (n * n,)
    return (n * width,)


def _is_scalar(blk: Block) -> bool:
    """True when the square block ``blk`` is c·I."""
    c = blk[0][0]
    return all(x == c if r == s else not x for r, row in enumerate(blk) for s, x in enumerate(row))


def _coordinate_blocks(m: Matrix) -> list[tuple[int, ...]]:
    """Coordinates grouped by equal diagonal entry of a diagonal ``m``; one block otherwise."""
    if any(x for i, row in enumerate(m.entries) for j, x in enumerate(row) if i != j):
        return [tuple(range(m.nrows))]
    groups: dict[Raw, list[int]] = {}
    for i, row in enumerate(m.entries):
        groups.setdefault(row[i], []).append(i)
    return [tuple(g) for g in groups.values()]


def verify_invariant(w: SubspaceBasis, a: Matrix, a_star: Matrix) -> bool:
    """True when A W ⊆ W and A* W ⊆ W."""
    return subspace_contains(w, apply(a, w)) and subspace_contains(w, apply(a_star, w))


def _projective_points(field: PrimeField, n: int) -> Iterator[tuple[int, ...]]:
    """One representative per projective point: first nonzero coordinate is 1."""
    p = field.p
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def projective_point_count(field: PrimeField, n: int) -> int:
    return (field.p**n - 1) // (field.p - 1)


def decide_irreducible(
    a: Matrix,
    a_star: Matrix,
    *,
    eigen_a: Optional[EigenStructure] = None,
    eigen_a_star: Optional[EigenStructure] = None,
) -> IrreducibilityVerdict:
    """Decide whether the pair (A, A*) is irreducible.

    Rung 1 asks whether the algebra of {A, A*} is all of M_n, in an
    eigenbasis of one side (:func:`_eigenbasis_generators`); it closes
    at most the smallest eigenspace's column of blocks and runs at most
    one dual spin (:func:`algebra_closure`).  Rung 2 runs
    :func:`_norton_step` on the singular algebra elements of
    :func:`_singular_elements`, in the order the module docstring gives,
    until one decides.  The verdict depends on the pair alone.
    ``eigen_a`` / ``eigen_a_star`` are optional precomputed eigen
    structures; when absent they are computed here, and a spectrum
    outside the field gives neither an eigenbasis nor eigenspace
    elements.
    """
    _, n = _check_generators([a, a_star])
    eigs = [_try_eigen(m) if eig is None else eig for m, eig in ((a, eigen_a), (a_star, eigen_a_star))]

    # (1) Burnside sufficiency: a full matrix algebra leaves no room for
    # a common invariant subspace.
    if algebra_closure(_eigenbasis_generators(a, a_star, *eigs))[0] == n * n:
        return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.ALGEBRA_DIMENSION)

    # (2) Norton's criterion.  Every kernel spun in full ends the search,
    # so a kernel seen before was only probed and cannot give anything new.
    tried = set()
    for x, ker in _singular_elements(a, a_star, *eigs):
        if ker.is_zero or ker in tried:
            continue
        tried.add(ker)
        verdict = _norton_step(x, ker, a, a_star)
        if verdict is not None:
            return verdict
    return IrreducibilityVerdict(IrreducibilityStatus.UNDETERMINED, DecisionMethod.NORTON)


def _try_eigen(m: Matrix) -> Optional[EigenStructure]:
    try:
        return eigen_structure(m)
    except EigenvaluesOutsideFieldError:
        return None


def _eigenbasis_generators(a: Matrix, a_star: Matrix,
                           eigen_a: Optional[EigenStructure],
                           eigen_a_star: Optional[EigenStructure]) -> list[Matrix]:
    """Generators [D, P^-1 M' P] of a conjugate of the algebra of {A, A*}.

    P holds an eigenbasis of the diagonalizable side with the smaller
    sum of cubed eigenspace dimensions, D = P^-1 M P is diagonal and M'
    is the other side, so :func:`algebra_closure` works block by block.
    The Σm³ rule prices a closure of every block, which rung 1 never
    runs: it closes one column of blocks at most.  What the rule buys is
    chiefly that Σm³ takes its least value n exactly when every
    eigenspace is a line, so a multiplicity-free side is always chosen
    when there is one, and :func:`algebra_closure` reads 𝒜 = M_n off a
    digraph with no echelon and no spin.  Another rule needs a
    measurement first.
    P^-1 M' P is that side's shared
    :meth:`~hesspairs.spectral.EigenStructure.eigenbasis_conjugate`.
    Without a diagonalizable side the generators are [A, A*].
    """
    sides = [(eig, other) for eig, other in ((eigen_a, a_star), (eigen_a_star, a))
             if eig is not None and eig.diagonalizable]
    if not sides:
        return [a, a_star]
    eig, other = min(sides, key=lambda side: sum(m**3 for m in side[0].dims))
    values = [t for t, space in zip(eig.eigenvalues, eig.eigenspaces) for _ in space.rows]
    return [Matrix.diagonal(a.field, values), eig.eigenbasis_conjugate(other)]


def _singular_elements(a: Matrix, a_star: Matrix,
                       eigen_a: Optional[EigenStructure],
                       eigen_a_star: Optional[EigenStructure]) -> Iterator[tuple[Matrix, SubspaceBasis]]:
    """Algebra elements X with their kernels, in the order rung 2 tries them.

    Each X is formed when it is reached.
    """
    field, n = a.field, a.nrows
    shifts = []
    for m, eig in ((a, eigen_a), (a_star, eigen_a_star)):
        if eig is not None:
            shifts.extend((m, theta, space) for theta, space in zip(eig.eigenvalues, eig.eigenspaces))
    shifts.sort(key=lambda shift: shift[2].dim)
    for m, theta, space in shifts:
        yield m.minus_scalar(theta), space
    yield Matrix.zeros(field, n, n), SubspaceBasis.full(field, n)
    if isinstance(field, PrimeField):
        yield from _random_elements(a, a_star)


def _random_elements(a: Matrix, a_star: Matrix) -> Iterator[tuple[Matrix, SubspaceBasis]]:
    """RANDOM_DRAWS combinations of short words in A and A*, with kernels."""
    field, n = a.field, a.nrows
    # One fixed stream, so that the verdict is a function of the pair alone.
    rng = random.Random(0)
    pool = [Matrix.identity(field, n), a, a_star, a * a_star, a_star * a, a * a, a_star * a_star]
    for _ in range(RANDOM_DRAWS):
        x = Matrix.zeros(field, n, n)
        for m in pool:
            c = field.rand(rng)
            if c:
                x = x + m.scale(c)
        yield x, kernel(x)


def _norton_step(x: Matrix, ker: SubspaceBasis, a: Matrix, a_star: Matrix) -> Optional[IrreducibilityVerdict]:
    """Norton's criterion on one singular element X of the algebra, ker X given.

    A proper invariant subspace U either meets ker X, and then some point
    of ker X spins to a proper subspace, or it does not: then X maps U
    onto U, so U lies in im X and ker X^T lies in the annihilator of U,
    which is invariant under A^T and A*^T.  So once every point of ker X
    has spun to V, one transposed spin from ker X^T decides.  A kernel
    with too many points is only probed through its basis rows, and
    without a witness there the step returns None.
    """
    field, n = a.field, a.nrows
    complete = ker.dim == 1 or (
        isinstance(field, PrimeField) and projective_point_count(field, ker.dim) <= ENUMERATION_LIMIT
    )
    seeds = ker.rows
    if complete and ker.dim > 1:
        seeds = (_combine(field, ker.rows, coeffs) for coeffs in _projective_points(field, ker.dim))
    for vec in seeds:
        space = spin(vec, [a, a_star])
        if space.dim < n:
            return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, DecisionMethod.NORTON, witness=space)
    if not complete:
        return None
    dual = spin(kernel(x.transpose()).rows[0], [a.transpose(), a_star.transpose()])
    if dual.dim == n:
        return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.NORTON)
    witness = kernel(Matrix(field, dual.rows, ncols=n))
    if not verify_invariant(witness, a, a_star):
        raise OracleDisagreementError("the annihilator of a proper dual spin is not invariant")
    return IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, DecisionMethod.NORTON, witness=witness)


def _combine(field: FieldSpec, rows: Sequence[tuple[Raw, ...]], coeffs: Sequence[Raw]) -> tuple[Raw, ...]:
    return tuple(field.dot(coeffs, col) for col in zip(*rows))


# -- exhaustive oracle ---------------------------------------------------------


def enumerate_subspaces(field: PrimeField, n: int, *, proper_only: bool = False) -> Iterator[SubspaceBasis]:
    """Every subspace of GF(p)^n, each exactly once, as its canonical basis.

    Enumerates all RREF shapes: a choice of pivot columns plus arbitrary
    values at the free positions to the right of each pivot.  Intended for
    desk-scale oracles only; the count grows like a Gaussian binomial.
    """
    if not field.is_finite:
        raise InfiniteFieldError("cannot enumerate subspaces over the rationals")
    p = field.p
    dims = range(1, n) if proper_only else range(0, n + 1)
    for k in dims:
        if k == 0:
            yield SubspaceBasis.zero(field, n)
            continue
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_cells = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, n)
                if j not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_cells, values):
                    rows[i][j] = v
                yield SubspaceBasis(field, n, tuple(tuple(r) for r in rows))


def decide_irreducible_by_enumeration(a: Matrix, a_star: Matrix) -> IrreducibilityVerdict:
    """Gold-standard oracle: test every proper nonzero subspace directly."""
    field, n = _check_generators([a, a_star])
    if not isinstance(field, PrimeField):
        raise InfiniteFieldError("enumeration oracle requires a finite field")
    for space in enumerate_subspaces(field, n, proper_only=True):
        if verify_invariant(space, a, a_star):
            return IrreducibilityVerdict(
                IrreducibilityStatus.REDUCIBLE, DecisionMethod.BRUTE_FORCE, witness=space
            )
    return IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.BRUTE_FORCE)
