import itertools
import random

import pytest

from conftest import in_span, rand_matrix, rand_subspace, remix_basis
from hesspairs import (
    GF,
    QQ,
    Matrix,
    SubspaceBasis,
    apply,
    kernel,
    rref,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from hesspairs.errors import AmbientMismatchError, MixedFieldsError


def span(field, n, *vectors):
    return SubspaceBasis.from_vectors(field, n, vectors)


def axis(field, n, i):
    return span(field, n, [1 if j == i else 0 for j in range(n)])


def test_rref_zero_matrix():
    basis, rank = rref(Matrix.zeros(QQ, 2, 2))
    assert rank == 0
    assert basis.is_zero


def test_rref_scales_pivot_over_gf5():
    basis, rank = rref(Matrix.from_rows(GF(5), [[2]]))
    assert rank == 1
    assert basis.rows == ((1,),)


def test_rref_dependent_rows():
    basis, rank = rref(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    assert rank == 1
    assert basis == span(QQ, 2, [1, 2])


def test_kernel_identity_is_zero_subspace():
    assert kernel(Matrix.identity(QQ, 3)).is_zero


def test_kernel_zero_matrix_is_full():
    k = kernel(Matrix.zeros(QQ, 2, 2))
    assert k.dim == k.ambient_dim == 2


def test_kernel_rank_one():
    k = kernel(Matrix.from_rows(QQ, [[1, 1], [1, 1]]))
    assert k == span(QQ, 2, [1, -1])


def test_sum_of_axes():
    e1, e2 = axis(QQ, 3, 0), axis(QQ, 3, 1)
    assert subspace_sum(e1, e2) == span(QQ, 3, [1, 0, 0], [0, 1, 0])


def test_sum_identity_and_idempotence():
    rng = random.Random(1)
    w = rand_subspace(GF(7), 4, 2, rng)
    zero = SubspaceBasis.zero(GF(7), 4)
    assert subspace_sum(w, zero) == w
    assert subspace_sum(w, w) == w


def test_intersection_of_coordinate_planes():
    f = QQ
    a = span(f, 3, [1, 0, 0], [0, 1, 0])
    b = span(f, 3, [0, 1, 0], [0, 0, 1])
    assert subspace_intersect(a, b) == axis(f, 3, 1)


def test_intersection_with_full_space():
    rng = random.Random(2)
    w = rand_subspace(GF(3), 4, 2, rng)
    assert subspace_intersect(w, SubspaceBasis.full(GF(3), 4)) == w


def test_intersection_matches_vector_enumeration_over_gf2():
    # Oracle: enumerate all 2^4 vectors and keep those lying in both spans.
    field = GF(2)
    rng = random.Random(3)
    for _ in range(30):
        a = rand_subspace(field, 4, rng.randint(1, 3), rng)
        b = rand_subspace(field, 4, rng.randint(1, 3), rng)
        common = [
            v
            for v in itertools.product(range(2), repeat=4)
            if in_span(a, v) and in_span(b, v)
        ]
        assert subspace_intersect(a, b) == SubspaceBasis.from_vectors(field, 4, common)


def test_contains_full_space_everything():
    rng = random.Random(4)
    full = SubspaceBasis.full(QQ, 3)
    w = rand_subspace(QQ, 3, 2, rng)
    assert subspace_contains(full, w)
    assert subspace_contains(w, SubspaceBasis.zero(QQ, 3))


def test_apply_identity_fixes_subspace():
    rng = random.Random(5)
    w = rand_subspace(GF(5), 3, 2, rng)
    assert apply(Matrix.identity(GF(5), 3), w) == w


def test_apply_shift_matrix():
    m = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert apply(m, axis(QQ, 2, 1)) == axis(QQ, 2, 0)


def test_ambient_mismatch_rejected():
    a = axis(QQ, 2, 0)
    b = axis(QQ, 3, 0)
    with pytest.raises(AmbientMismatchError):
        subspace_sum(a, b)
    with pytest.raises(AmbientMismatchError):
        subspace_intersect(a, b)
    with pytest.raises(MixedFieldsError):
        subspace_sum(axis(QQ, 2, 0), axis(GF(5), 2, 0))
    with pytest.raises(AmbientMismatchError):
        apply(Matrix.identity(QQ, 3), a)


@pytest.mark.parametrize("field", [GF(2), GF(5)])
def test_modular_dimension_law(field):
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = rand_subspace(field, n, rng.randint(0, n), rng)
        b = rand_subspace(field, n, rng.randint(0, n), rng)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert a.dim + b.dim == s.dim + i.dim


def test_canonical_form_independent_of_basis_presentation():
    rng = random.Random(7)
    for field in (QQ, GF(7)):
        for _ in range(25):
            n = rng.randint(2, 5)
            a = rand_subspace(field, n, rng.randint(1, n), rng)
            b = rand_subspace(field, n, rng.randint(1, n), rng)
            a2 = SubspaceBasis.from_vectors(field, n, remix_basis(a, rng))
            b2 = SubspaceBasis.from_vectors(field, n, remix_basis(b, rng))
            assert a2 == a
            assert subspace_sum(a2, b2) == subspace_sum(a, b)
            assert subspace_intersect(a2, b2) == subspace_intersect(a, b)


def test_mutual_containment_is_equality():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_subspace(GF(3), n, rng.randint(0, n), rng)
        b = rand_subspace(GF(3), n, rng.randint(0, n), rng)
        both = subspace_contains(a, b) and subspace_contains(b, a)
        assert both == (a == b)


def test_rref_output_is_canonical_rref():
    rng = random.Random(9)
    for field in (QQ, GF(5)):
        for _ in range(25):
            n = rng.randint(1, 6)
            rows = rng.randint(1, 6)
            m = Matrix(field, tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(rows)), ncols=n)
            basis, rank = rref(m)
            assert rank == basis.dim
            pivots = []
            for row in basis.rows:
                piv = next(j for j, x in enumerate(row) if x != field.zero())
                assert row[piv] == field.one()
                for other in basis.rows:
                    if other is not row:
                        assert other[piv] == field.zero()
                pivots.append(piv)
            assert pivots == sorted(pivots)


def test_matrix_inverse_round_trip():
    rng = random.Random(10)
    for field in (QQ, GF(11)):
        for _ in range(15):
            n = rng.randint(1, 5)
            while True:
                m = rand_matrix(field, n, rng)
                if rref(m)[1] == n:
                    break
            assert m * m.inverse() == Matrix.identity(field, n)


def test_kernel_dimension_theorem():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = rng.randint(1, 6)
        field = GF(5)
        m = Matrix(field, tuple(tuple(field.rand(rng) for _ in range(n)) for _ in range(rows)), ncols=n)
        _, rank = rref(m)
        k = kernel(m)
        assert k.dim == n - rank
        for v in k.rows:
            assert all(x == field.zero() for x in m.mul_vec(v))
