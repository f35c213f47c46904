"""Shared builders for randomized test corpora (all seeded, all exact)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hesspairs import QQ, EigenOrdering, Matrix, SubspaceBasis, eigen_structure, rref, subspace_contains


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
