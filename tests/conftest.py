"""Shared builders for randomized test corpora (all seeded, all exact)."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from hesspairs import QQ, EigenOrdering, Matrix, SubspaceBasis, eigen_structure, rref, spin, subspace_contains
from hesspairs.fields import FieldSpec
from hesspairs.irreducibility import Block, _check_generators, _coordinate_blocks, _is_scalar
from hesspairs.linalg import _Echelon


def rand_matrix(field, n, rng):
    return Matrix(field, tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(n)), ncols=n)


def rand_invertible(field, n, rng):
    while True:
        m = rand_matrix(field, n, rng)
        if rref(m)[1] == n:
            return m


def in_span(s, v):
    """True when the vector v lies in the subspace s."""
    return subspace_contains(s, SubspaceBasis.from_vectors(s.field, s.ambient_dim, [v]))


def rand_subspace(field, n, dim, rng):
    while True:
        vectors = [[field.rand(rng) for _ in range(n)] for _ in range(dim)]
        s = SubspaceBasis.from_vectors(field, n, vectors)
        if s.dim == dim:
            return s


def rand_diagonalizable(field, n, eigenvalue_pool, rng, max_distinct=None):
    """A conjugated diagonal matrix with a random multiplicity pattern.

    Guaranteed diagonalizable with every eigenvalue in the field.
    """
    k = rng.randint(1, min(n, max_distinct or n))
    values = rng.sample(eigenvalue_pool, k)
    diag = [values[i] for i in range(k)]
    for _ in range(n - k):
        diag.append(rng.choice(values))
    rng.shuffle(diag)
    p = rand_invertible(field, n, rng)
    return p * Matrix.diagonal(field, diag) * p.inverse()


def remix_basis(space: SubspaceBasis, rng) -> list[list]:
    """Rows spanning the same subspace, scrambled by an invertible mix."""
    field = space.field
    k = space.dim
    mix = rand_invertible(field, k, rng)
    out = []
    for mrow in mix.entries:
        vec = [field.zero()] * space.ambient_dim
        for c, row in zip(mrow, space.rows):
            if c != field.zero():
                for j, x in enumerate(row):
                    if x != field.zero():
                        vec[j] = field.add(vec[j], field.mul(c, x))
        out.append(vec)
    return out


def ordering_for(matrix, values):
    return EigenOrdering.from_eigenvalues(eigen_structure(matrix), values)


def sl2_pair(field, d):
    """The weight-basis pair: tridiagonal ladder matrix plus the weight diagonal.

    On a (d+1)-dimensional space, A has subdiagonal 1s and superdiagonal
    entries i(d+1-i); A* is diag(d, d-2, ..., -d).  A classical genuinely
    tridiagonal pair whenever the weights stay distinct in the field.
    """
    n = d + 1
    zero = field.zero()
    grid = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        grid[i][i - 1] = field.one()                     # lowering
        grid[i - 1][i] = field.coerce(i * (d + 1 - i))   # raising
    a = Matrix(field, tuple(tuple(r) for r in grid), ncols=n)
    a_star = Matrix.diagonal(field, [d - 2 * i for i in range(n)])
    return a, a_star


def q_leonard_pair(d):
    """The split-form Leonard pair over Q with d + 1 eigenvalues a side.

    A is lower bidiagonal with θ_i = 3 + 2i and subdiagonal 1s, A* upper
    bidiagonal with θ*_i = 5 + 7i and φ_i = i(d - i + 1)/d.
    """
    n = d + 1
    a = [[0] * n for _ in range(n)]
    a_star = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i], a_star[i][i] = 3 + 2 * i, 5 + 7 * i
        if i:
            a[i][i - 1] = 1
            a_star[i - 1][i] = Fraction(i * (d - i + 1), d)
    return Matrix.from_rows(QQ, a), Matrix.from_rows(QQ, a_star)


def scan_orderings(eigen, acting, side_holds):
    """The orderings for which ``side_holds(acting, ordering)``, each of the (d+1)! checked on its own.

    The brute-force reference for the pruned ordering search.
    """
    return [
        p
        for p in itertools.permutations(range(len(eigen.eigenvalues)))
        if side_holds(acting, EigenOrdering(eigen, p))
    ]


def exact_algebra_closure(generators: Sequence[Matrix]) -> tuple[int, tuple[Matrix, ...]]:
    """Dimension and spanning set of the unital algebra generated by the matrices.

    The reference for rung 1 of the irreducibility ladder, which only
    answers whether the algebra is all of M_n.

    The coordinates are split into blocks: the groups of equal entries of
    a diagonal first generator, whose projections E_I are polynomials in
    it and so lie in the algebra 𝒜; a non-diagonal first generator is one
    block.  Then 𝒜 is the direct sum of the blocks E_I 𝒜 E_J.  For each
    column block J, span{I_J} is closed under left multiplication by the
    generators' blocks G_IK, which reaches every word, in one echelon of
    width |I|·|J| per row block I.  The dimension is at most n^2; the
    spanning set holds n×n matrices, each block embedded.

    The smallest column block J is closed first.  When 𝒜E_J has its
    largest dimension n·|J| and, for one s ∈ J, e_s spins to K^n under the
    transposed generators, the algebra is all of M_n and the n^2 matrix
    units are returned without closing the other blocks: 𝒜E_J holds every
    E_rs, so 𝒜 holds E_rs·X = e_r(e_s^T X) for each X ∈ 𝒜, and the rows
    e_s^T X fill K^n.  Otherwise every block is closed and the dimension is
    exact.

    When every block is one coordinate (a diagonal first generator with
    distinct entries) nothing is closed.  Each E_ii is a polynomial in
    the first generator, so 𝒜 holds E_jj·G·E_ii = g_ji·E_ji for every
    generator G, and the products of these give E_ji whenever j is
    reachable from i along nonzero entries g_ji.  The span of those E_ji
    is an algebra that holds every generator, so it is 𝒜, of dimension
    Σ_i |reach(i)|.
    """
    field, n = _check_generators(generators)
    blocks = _coordinate_blocks(generators[0])
    if len(blocks) == n:
        succ = [{j for g in generators for j in range(n) if g.entries[j][i]} for i in range(n)]
        reach = []
        for i in range(n):
            seen, stack = {i}, [i]
            while stack:
                new = succ[stack.pop()] - seen
                seen |= new
                stack.extend(new)
            reach.append(seen)
        units = _matrix_units(field, n)
        if all(len(r) == n for r in reach):
            return n * n, units
        basis = tuple(units[j * n + i] for j in range(n) for i in range(n) if j in reach[i])
        return len(basis), basis
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

    def close(j: int) -> list[Matrix]:
        """A basis of 𝒜E_J for the column block J = blocks[j], each block embedded.

        Blocks are rows of raw entries.  A product G_IK·m is formed flat,
        row-major, as the echelon of row block I takes it, and is only
        shaped into rows when it is new.
        """
        cols = blocks[j]
        width = len(cols)
        echs = [_Echelon(field, len(rows) * width) for rows in blocks]
        ident = Matrix.identity(field, width).entries
        echs[j].insert([x for row in ident for x in row])
        out = [_embed(field, n, cols, cols, ident)]
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
                    prod = tuple(tuple(flat[r:r + width]) for r in range(0, len(flat), width))
                    out.append(_embed(field, n, blocks[i], cols, prod))
                    queue.append((i, prod))
                    room -= 1
                    if not room:
                        break
        return out

    first = min(range(len(blocks)), key=lambda j: len(blocks[j]))
    first_basis = close(first)
    if len(blocks) > 1 and len(first_basis) == n * len(blocks[first]):
        s = blocks[first][0]
        if spin([int(c == s) for c in range(n)], [g.transpose() for g in generators]).dim == n:
            return n * n, _matrix_units(field, n)
    basis = [m for j in range(len(blocks)) for m in (first_basis if j == first else close(j))]
    return len(basis), tuple(basis)


def _matrix_units(field: FieldSpec, n: int) -> tuple[Matrix, ...]:
    """E_rs for r, s < n in row-major order; the matrices share their row tuples."""
    unit = Matrix.identity(field, n).entries
    zero = Matrix.zeros(field, n, n).entries
    return tuple(Matrix(field, zero[:r] + (unit[s],) + zero[r + 1:]) for r in range(n) for s in range(n))


def _embed(field: FieldSpec, n: int, rows: Sequence[int], cols: Sequence[int], blk: Block) -> Matrix:
    """The n×n matrix that is ``blk`` on rows × cols and zero elsewhere; zero rows are shared."""
    zero_row = (field.zero(),) * n
    grid = [zero_row] * n
    for r, entries in zip(rows, blk):
        out = list(zero_row)
        for c, x in zip(cols, entries):
            out[c] = x
        grid[r] = tuple(out)
    return Matrix(field, tuple(grid))
