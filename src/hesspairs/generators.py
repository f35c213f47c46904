"""Certified instance generation for tests and the CLI.

All generators work in block coordinates: the ground-truth flag U_i is the
span of the i-th coordinate block.  ``gen_split_form`` places scalar
blocks on the diagonal and random blocks on the subdiagonal of A (and the
superdiagonal of A*), which makes the block flag a split decomposition by
construction and therefore the pair Hessenberg.  ``gen_tridiagonal_form``
additionally samples extra blocks in the opposite direction -- at most one
direction per gap, which keeps each matrix triangular up to a block
permutation, hence diagonalizable with exactly the requested spectrum --
and rejection-samples until the requested eigenvalue orderings satisfy the
definition of a tridiagonal pair: the three-term inclusions on both sides
and irreducibility.

Seeds are mandatory; generation is reproducible and carries full
ground-truth metadata.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AmbientMismatchError,
    DuplicateEigenvalueError,
    EmptyDimsError,
    GenerationBudgetError,
    LengthMismatchError,
    OracleDisagreementError,
    SingularConjugatorError,
)
from .fields import FieldElement, FieldSpec
from .irreducibility import decide_irreducible
from .linalg import Matrix, SubspaceBasis, apply
from .pairs import (
    EigenOrdering,
    SplitDecomposition,
    _three_term_side_holds,
    split_from_flags,
    verify_split,
)
from .spectral import eigen_structure

SPLIT_FORM = "split-form"
TRIDIAGONAL_FORM = "tridiagonal-form"
REDUCIBLE_SUM = "reducible-sum"
CONJUGATED = "conjugated"

#: Random matrices :func:`conjugate` draws before giving up on an invertible one.
CONJUGATOR_DRAWS = 64


@dataclass(frozen=True)
class InstanceTruth:
    """Ground-truth metadata carried by a generated instance."""

    kind: str
    dims: tuple[int, ...]
    eigenvalues_a: tuple[FieldElement, ...]
    eigenvalues_a_star: tuple[FieldElement, ...]
    flag: tuple[SubspaceBasis, ...]
    seed: int
    witness: Optional[SubspaceBasis] = None
    conjugator: Optional[Matrix] = None
    base_kind: Optional[str] = None


@dataclass(frozen=True)
class GeneratedInstance:
    a: Matrix
    a_star: Matrix
    truth: InstanceTruth

    def split(self) -> SplitDecomposition:
        """The ground-truth split decomposition."""
        return SplitDecomposition(
            subspaces=self.truth.flag,
            eigenvalues_a=self.truth.eigenvalues_a,
            eigenvalues_a_star=self.truth.eigenvalues_a_star,
        )


def _validate(field: FieldSpec, dims, values_a, values_b):
    if not dims:
        raise EmptyDimsError("at least one block is required")
    if any(int(x) < 1 for x in dims):
        raise EmptyDimsError("block dimensions must be positive")
    dims = tuple(int(x) for x in dims)
    if not len(dims) == len(values_a) == len(values_b):
        raise LengthMismatchError("dims and both eigenvalue sequences must have equal length")
    va = tuple(field.element(v) for v in values_a)
    vb = tuple(field.element(v) for v in values_b)
    if len({v.value for v in va}) != len(va):
        raise DuplicateEigenvalueError("eigenvalues for A must be pairwise distinct")
    if len({v.value for v in vb}) != len(vb):
        raise DuplicateEigenvalueError("eigenvalues for A* must be pairwise distinct")
    return dims, va, vb


def _offsets(dims: Sequence[int]) -> list[int]:
    out = [0]
    for w in dims:
        out.append(out[-1] + w)
    return out


def _block_flag(field: FieldSpec, dims: Sequence[int]) -> tuple[SubspaceBasis, ...]:
    n = sum(dims)
    offs = _offsets(dims)
    ident = Matrix.identity(field, n).entries
    return tuple(
        SubspaceBasis(field, n, tuple(ident[offs[i]: offs[i + 1]]))
        for i in range(len(dims))
    )


def _sample_block(field: FieldSpec, rows: int, cols: int, rng, *, nonzero: bool) -> list[list]:
    draw = field.rand_nonzero if nonzero else field.rand
    return [[draw(rng) for _ in range(cols)] for _ in range(rows)]


def _assemble(field: FieldSpec, dims: Sequence[int], diag_values, blocks: dict) -> Matrix:
    """Matrix with scalar diagonal blocks, then the explicit blocks written over them."""
    n = sum(dims)
    offs = _offsets(dims)
    zero = field.zero()
    grid = [[zero] * n for _ in range(n)]
    for b, value in enumerate(diag_values):
        v = field.coerce(value)
        for k in range(offs[b], offs[b + 1]):
            grid[k][k] = v
    for (bi, bj), block in blocks.items():
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                grid[offs[bi] + i][offs[bj] + j] = x
    return Matrix(field, tuple(tuple(r) for r in grid), ncols=n)


def gen_split_form(
    field: FieldSpec,
    dims: Sequence[int],
    eigenvalues_a: Sequence,
    eigenvalues_a_star: Sequence,
    seed: int,
    *,
    allow_zero_entries: bool = False,
) -> GeneratedInstance:
    """A pair in split coordinates: Hessenberg (and diagonalizable) by shape.

    Block i carries eigenvalue a[d-i] for A and a*[i] for A*; A gets random
    subdiagonal blocks and A* random superdiagonal blocks.  Off-diagonal
    entries are all nonzero by default (zero entries tend to produce
    reducible instances); ``allow_zero_entries`` samples uniformly instead.
    """
    dims, va, vb = _validate(field, dims, eigenvalues_a, eigenvalues_a_star)
    rng = random.Random(seed)
    d = len(dims) - 1
    nonzero = not allow_zero_entries
    blocks_a = {
        (g + 1, g): _sample_block(field, dims[g + 1], dims[g], rng, nonzero=nonzero)
        for g in range(d)
    }
    blocks_b = {
        (g, g + 1): _sample_block(field, dims[g], dims[g + 1], rng, nonzero=nonzero)
        for g in range(d)
    }
    a = _assemble(field, dims, [va[d - i].value for i in range(d + 1)], blocks_a)
    a_star = _assemble(field, dims, [vb[i].value for i in range(d + 1)], blocks_b)
    truth = InstanceTruth(
        kind=SPLIT_FORM,
        dims=dims,
        eigenvalues_a=va,
        eigenvalues_a_star=vb,
        flag=_block_flag(field, dims),
        seed=seed,
    )
    return GeneratedInstance(a=a, a_star=a_star, truth=truth)


def gen_tridiagonal_form(
    field: FieldSpec,
    dims: Sequence[int],
    eigenvalues_a: Sequence,
    eigenvalues_a_star: Sequence,
    seed: int,
    *,
    max_attempts: int = 2000,
) -> GeneratedInstance:
    """Rejection-sample a certified tridiagonal pair with the given spectra.

    Per gap each matrix gets a random block in exactly one direction
    (subdiagonal or superdiagonal), which preserves diagonalizability and
    the requested spectrum; a candidate is accepted when, for the requested
    eigenvalue orderings, A* maps each V_i into V_{i-1} + V_i + V_{i+1},
    A does the same to the V*_i, and the pair is irreducible -- the
    definition of a tridiagonal pair.  Its split, the closed form from the
    two flags, must then verify; a failure there is a bug and raises
    :class:`~hesspairs.errors.OracleDisagreementError`.  Acceptance is rare
    for larger d -- the extra inclusions are genuine polynomial constraints
    -- so the attempt budget is generous and
    :class:`~hesspairs.errors.GenerationBudgetError` reports exhaustion.
    The same error refuses, before any draw, block dims that no
    tridiagonal pair has: its shape is symmetric and unimodal (Ito, Tanabe
    and Terwilliger 2001).
    """
    dims, va, vb = _validate(field, dims, eigenvalues_a, eigenvalues_a_star)
    d = len(dims) - 1
    if dims != dims[::-1]:
        raise GenerationBudgetError(f"no tridiagonal pair has block dims {dims}: the shape is not symmetric")
    if any(dims[i - 1] > dims[i] for i in range(1, d // 2 + 1)):
        raise GenerationBudgetError(f"no tridiagonal pair has block dims {dims}: the shape is not unimodal")
    rng = random.Random(seed)
    target_a = tuple(v.value for v in va)
    target_b = tuple(v.value for v in vb)
    for _ in range(max_attempts):
        blocks_a = {}
        blocks_b = {}
        for g in range(d):
            # Block (g + s, g + 1 - s): s = 1 below the diagonal, 0 above;
            # A prefers below and A* above, each with probability 1/2.
            for blocks, preferred in ((blocks_a, 1), (blocks_b, 0)):
                s = preferred if rng.random() < 0.5 else 1 - preferred
                i, j = g + s, g + 1 - s
                blocks[(i, j)] = _sample_block(field, dims[i], dims[j], rng, nonzero=True)
        a = _assemble(field, dims, [va[d - i].value for i in range(d + 1)], blocks_a)
        a_star = _assemble(field, dims, [vb[i].value for i in range(d + 1)], blocks_b)
        # Re-verify diagonalizability and the spectrum instead of arguing it.
        eig_a = eigen_structure(a)
        eig_b = eigen_structure(a_star)
        if not (eig_a.diagonalizable and eig_b.diagonalizable):
            continue
        try:
            ord_a = EigenOrdering.from_eigenvalues(eig_a, target_a)
            ord_b = EigenOrdering.from_eigenvalues(eig_b, target_b)
        except ValueError:  # a spectrum other than the requested one
            continue
        # The definition of a tridiagonal pair: the three-term inclusions
        # on both sides, then irreducibility.
        if not _three_term_side_holds(a_star, ord_a):
            continue
        if not _three_term_side_holds(a, ord_b):
            continue
        verdict = decide_irreducible(a, a_star, eigen_a=eig_a, eigen_a_star=eig_b)
        if not verdict.is_irreducible:
            continue
        split = split_from_flags(ord_a, ord_b)
        if not verify_split(a, a_star, split):
            raise OracleDisagreementError(
                f"closed-form split of a certified tridiagonal pair failed verification "
                f"for the eigenvalue orderings ({', '.join(map(str, va))}) of A "
                f"and ({', '.join(map(str, vb))}) of A*"
            )
        truth = InstanceTruth(
            kind=TRIDIAGONAL_FORM,
            dims=dims,
            eigenvalues_a=va,
            eigenvalues_a_star=vb,
            flag=split.subspaces,
            seed=seed,
        )
        return GeneratedInstance(a=a, a_star=a_star, truth=truth)
    raise GenerationBudgetError(
        f"no tridiagonal instance accepted within {max_attempts} attempts"
    )


def gen_reducible(
    field: FieldSpec,
    inner_dims: Sequence[Sequence[int]],
    eigenvalues_a: Sequence,
    eigenvalues_a_star: Sequence,
    seed: int,
) -> GeneratedInstance:
    """Block-diagonal direct sum of split-form pairs sharing eigenvalue sequences.

    Reducible by construction: each summand's coordinate block is invariant
    under both matrices; the first one is recorded as the witness.  Because
    the summands share the eigenvalue labeling, the blockwise sums of their
    flags still form a split decomposition of the whole space.
    """
    if len(inner_dims) < 2:
        raise EmptyDimsError("a reducible sum needs at least two summands")
    rng = random.Random(seed)
    inners = [
        gen_split_form(field, dims, eigenvalues_a, eigenvalues_a_star, rng.randrange(2**30))
        for dims in inner_dims
    ]
    sizes = [sum(inst.truth.dims) for inst in inners]
    n = sum(sizes)
    # The summands are the diagonal blocks; the scalar parts are zero.
    blocks_a = {(k, k): inst.a.entries for k, inst in enumerate(inners)}
    blocks_b = {(k, k): inst.a_star.entries for k, inst in enumerate(inners)}
    a = _assemble(field, sizes, [0] * len(inners), blocks_a)
    a_star = _assemble(field, sizes, [0] * len(inners), blocks_b)
    # Each summand's flag is its block flag (gen_split_form), so U_i is the
    # span of the coordinates of block i of every summand.  The identity
    # rows at those coordinates, in increasing order, are already the
    # reduced row echelon basis that SubspaceBasis.from_vectors would return.
    coords = [[] for _ in inners[0].truth.dims]
    start = 0
    for inst in inners:
        for i, w in enumerate(inst.truth.dims):
            coords[i].extend(range(start, start + w))
            start += w
    ident = Matrix.identity(field, n).entries
    flag = tuple(SubspaceBasis(field, n, tuple(ident[c] for c in cs)) for cs in coords)
    witness = SubspaceBasis(field, n, tuple(ident[: sizes[0]]))
    truth = InstanceTruth(
        kind=REDUCIBLE_SUM,
        dims=tuple(len(cs) for cs in coords),
        eigenvalues_a=inners[0].truth.eigenvalues_a,
        eigenvalues_a_star=inners[0].truth.eigenvalues_a_star,
        flag=flag,
        seed=seed,
        witness=witness,
    )
    return GeneratedInstance(a=a, a_star=a_star, truth=truth)


def conjugate(
    inst: GeneratedInstance,
    seed: int,
    *,
    conjugator: Optional[Matrix] = None,
) -> GeneratedInstance:
    """Apply an invertible change of basis, transporting all truth data.

    Every verdict (Hessenberg orderings, irreducibility, tridiagonality)
    is invariant under conjugation, so the transported flag and witness
    stay valid.  A specific ``conjugator`` may be supplied; by default an
    invertible matrix is sampled from the seed.
    """
    field = inst.a.field
    n = inst.a.nrows
    if conjugator is not None:
        p = conjugator
        if (p.nrows, p.ncols) != (n, n):
            raise AmbientMismatchError(f"supplied conjugator is {p.nrows}x{p.ncols}; the pair is {n}x{n}")
        p_inv = _inverse(p)
        if p_inv is None:
            raise SingularConjugatorError("supplied conjugator is singular")
    else:
        rng = random.Random(seed)
        for _ in range(CONJUGATOR_DRAWS):
            grid = [[field.rand(rng) for _ in range(n)] for _ in range(n)]
            p = Matrix(field, tuple(tuple(r) for r in grid), ncols=n)
            p_inv = _inverse(p)
            if p_inv is not None:
                break
        else:
            raise SingularConjugatorError(
                f"no invertible conjugator found in {CONJUGATOR_DRAWS} draws"
            )
    truth = inst.truth
    new_truth = InstanceTruth(
        kind=CONJUGATED,
        dims=truth.dims,
        eigenvalues_a=truth.eigenvalues_a,
        eigenvalues_a_star=truth.eigenvalues_a_star,
        flag=tuple(apply(p, u) for u in truth.flag),
        seed=seed,
        witness=apply(p, truth.witness) if truth.witness is not None else None,
        conjugator=p,
        base_kind=truth.base_kind or truth.kind,
    )
    return GeneratedInstance(
        a=p * inst.a * p_inv,
        a_star=p * inst.a_star * p_inv,
        truth=new_truth,
    )


def _inverse(p: Matrix) -> Optional[Matrix]:
    """P^-1, or None when the square P is singular."""
    try:
        return p.inverse()
    except ValueError:
        return None
