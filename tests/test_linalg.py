import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
from hesspairs import cli, linalg, spectral
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


@pytest.mark.parametrize("field", [GF(7), QQ], ids=str)
def test_kernel_reads_its_echelon_once(field, monkeypatch):
    # kernel takes the RREF rows of m's echelon once, not once per free
    # column: over Q each read forms rank·n Fractions.  Reads made through
    # to_subspace, for the kernel's own basis, are not counted.
    values = linalg._Echelon.values
    reads = []

    def counted(self):
        if sys._getframe(1).f_code is linalg.kernel.__code__:
            reads.append(self.dim)
        return values(self)

    monkeypatch.setattr(linalg._Echelon, "values", counted)
    rng = random.Random(30)
    for n, rank in ((1, 1), (4, 4), (6, 3), (7, 1), (8, 5)):
        left = rand_matrix(field, n, rng).entries
        right = rand_matrix(field, n, rng).entries[:rank]
        m = Matrix(field, tuple(row[:rank] for row in left)) * Matrix(field, right)
        reads.clear()
        k = kernel(m)
        assert reads == [rref(m)[1]] and k.dim == n - reads[0], (n, rank)
    reads.clear()
    assert kernel(Matrix.zeros(field, 3, 3)).dim == 3 and reads == [0]


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


# -- Q on integer images, against a naive Fraction reference -----------------

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def _ref_rref(rows, ncols):
    """Gauss-Jordan on Fractions: the nonzero RREF rows, pivots 1."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def _ref_kernel(rows, ncols):
    red = _ref_rref(rows, ncols)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in red]
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, piv in zip(red, pivots):
            v[piv] = -row[f]
        basis.append(v)
    return _ref_rref(basis, ncols)


def _ref_mul_vec(rows, v):
    return tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in rows)


def _ref_intersect(a, b, n):
    # x = Σ α_i a_i = Σ β_j b_j: the kernel of the n x (|a| + |b|) matrix [a^T | -b^T].
    cols = [list(u) for u in a] + [[-x for x in v] for v in b]
    system = [[col[i] for col in cols] for i in range(n)]
    sols = _ref_kernel(system, len(cols))
    vecs = [[sum((s[k] * a[k][i] for k in range(len(a))), Fraction(0)) for i in range(n)] for s in sols]
    return _ref_rref(vecs, n)


def _ref_char_poly(rows):
    """det(xI - M) low-to-high by Faddeev-LeVerrier."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = [[sum((m[i][t] * acc[t][j] for t in range(n)), Fraction(0)) + (coeffs[n - k + 1] if i == j else 0)
                for j in range(n)] for i in range(n)]
        prod_trace = sum(sum(m[i][t] * acc[t][i] for t in range(n)) for i in range(n))
        coeffs[n - k] = -prod_trace / k
    return coeffs


def _q_entry(rng, big):
    if rng.random() < 0.3:
        return Fraction(0)
    num = rng.randint(-(2**1000), 2**1000) if big and rng.random() < 0.2 else rng.randint(-9, 9)
    return Fraction(num, rng.choice(_PRIMES) if rng.random() < 0.7 else 1)


def _q_matrix(rng, nrows, ncols, big):
    """Entries over pairwise coprime prime denominators, some zero rows and columns."""
    grid = [[_q_entry(rng, big) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        grid[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if ncols and rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in grid:
            row[c] = Fraction(0)
    return grid


def _assert_canonical(values, expected):
    assert len(values) == len(expected)
    for x, y in zip(values, expected):
        assert type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
        assert x == y


def test_q_kernels_match_a_fraction_reference():
    # Over GF(p), test_spectral's test_hessenberg_char_poly_matches_berkowitz
    # checks the integer Berkowitz (D = 1) against the Hessenberg reduction.
    rng = random.Random(4099)
    for trial in range(120):
        big = trial % 3 == 0
        n = rng.randint(1, 6)
        k = rng.randint(1, 6)
        grid = _q_matrix(rng, k, n, big)
        m = Matrix.from_rows(QQ, grid)
        v = [_q_entry(rng, big) for _ in range(n)]
        _assert_canonical(m.mul_vec(v), _ref_mul_vec(grid, v))
        # Repeated products reuse the rows' images.
        _assert_canonical(m.mul_vec(v), _ref_mul_vec(grid, v))
        other = _q_matrix(rng, n, rng.randint(1, 4), big)
        prod = m * Matrix.from_rows(QQ, other)
        cols = list(zip(*other))
        for row, ref_row in zip(prod.entries, grid):
            _assert_canonical(row, [sum((x * y for x, y in zip(ref_row, col)), Fraction(0)) for col in cols])
        basis, rank = rref(m)
        expected = _ref_rref(grid, n)
        assert rank == len(expected)
        for row, ref_row in zip(basis.rows, expected):
            _assert_canonical(row, ref_row)
            assert row[next(j for j, x in enumerate(row) if x)] == 1
        assert kernel(m).rows == tuple(_ref_kernel(grid, n))
        for row in kernel(m).rows:
            _assert_canonical(row, row)
        a = _ref_rref(_q_matrix(rng, rng.randint(1, n), n, big), n)
        b = _ref_rref(_q_matrix(rng, rng.randint(1, n), n, big), n)
        meet = subspace_intersect(SubspaceBasis(QQ, n, tuple(a)), SubspaceBasis(QQ, n, tuple(b)))
        assert meet.rows == tuple(_ref_intersect(a, b, n))
        if k == n:
            ref_poly = _ref_char_poly(grid)
            poly = spectral._char_poly_berkowitz(m)
            _assert_canonical(poly.coeffs, ref_poly)
            if rank == n:
                inv = _ref_rref([list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(grid)], 2 * n)
                for row, ref_row in zip(m.inverse().entries, inv):
                    _assert_canonical(row, ref_row[n:])


_FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", sorted(p.name for p in _FIXTURES.glob("pair_*gf*.json")))
def test_gf_analysis_forms_no_integer_image(monkeypatch, capsys, name):
    def refuse(vec):
        raise AssertionError("integer image formed over GF(p)")

    monkeypatch.setattr(linalg, "_integer_image", refuse)
    assert cli.main(["analyze", str(_FIXTURES / name)]) == 0
    assert '"field"' in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.name for p in _FIXTURES.glob("pair_*_q*.json")))
def test_q_analysis_packs_no_matrix(monkeypatch, capsys, name):
    # The mirror of the check above: Q products never touch the packed
    # GF(p) image.
    def refuse(self):
        raise AssertionError("GF(p) columns packed over Q")

    monkeypatch.setattr(Matrix, "_packed_columns", refuse)
    assert cli.main(["analyze", str(_FIXTURES / name)]) == 0
    assert '"field"' in capsys.readouterr().out


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1])
def test_packed_products_match_dot(p):
    # mul_vec and __mul__ over GF(p) run on packed columns; they must equal
    # the termwise F.dot on every input F.dot takes: the carry bound (every
    # entry p - 1), square and non-square shapes (Krylov's K is n x k),
    # zero vectors and zero rows, and raw negative or unreduced entries in
    # both the matrix and the vector.
    F = GF(p)
    rng = random.Random(f"packed:{p}")
    top = p - 1
    for n in range(1, 31):
        for k in sorted({1, max(1, n // 3), n}):
            for rows, cols in ((n, k), (k, n)):
                full = Matrix(F, tuple((top,) * cols for _ in range(rows)), ncols=cols)
                raw = Matrix(F, tuple(
                    tuple(rng.choice((0, top, rng.randrange(p), -rng.randrange(1, 3 * p), rng.randrange(p, 5 * p)))
                          for _ in range(cols))
                    if i % 4 else (0,) * cols
                    for i in range(rows)
                ), ncols=cols)
                vectors = [
                    (top,) * cols,
                    (0,) * cols,
                    tuple(rng.randrange(p) for _ in range(cols)),
                    tuple(rng.choice((-top, -1, p, 2 * p + 1, top * top)) for _ in range(cols)),
                ]
                right = Matrix(F, tuple(
                    tuple(rng.choice((top, 0, -rng.randrange(1, 2 * p), rng.randrange(3 * p))) for _ in range(rows))
                    for _ in range(cols)
                ), ncols=rows)
                for m in (full, raw):
                    for v in vectors:
                        assert m.mul_vec(v) == tuple(F.dot(row, v) for row in m.entries)
                    product = m * right
                    assert (product.nrows, product.ncols) == (rows, rows)
                    assert product.entries == tuple(
                        tuple(F.dot(row, col) for col in zip(*right.entries)) for row in m.entries
                    )


def test_gf_matrix_packs_its_columns_once(monkeypatch):
    # Over GF(p) a matrix packs its columns on its first product and keeps
    # them: across one Krylov run m packs its n columns once, and the n x k
    # matrix K its k columns once, however often each is applied.
    F = GF(101)
    rng = random.Random("pack-once")
    n, k = 6, 4
    m = rand_matrix(F, n, rng)
    packed = []
    pack = linalg._pack
    monkeypatch.setattr(linalg, "_pack", lambda values, width: packed.append(len(values)) or pack(values, width))
    krylov = spectral._krylov_columns(m, [1] + [0] * (n - 1), k)
    assert packed == [n] * n
    for _ in range(3):
        m.mul_vec([F.rand(rng) for _ in range(n)])
        m.mul_line([F.rand(rng) for _ in range(n)])
        krylov.mul_line([F.rand(rng) for _ in range(k)])
        krylov.mul_vec([F.rand(rng) for _ in range(k)])
        m * krylov
    assert packed == [n] * n + [n] * k
    assert m._packed_columns() is m._packed_columns()


def test_q_matrix_forms_its_image_once(monkeypatch):
    calls = []
    image = linalg._integer_image
    monkeypatch.setattr(linalg, "_integer_image", lambda vec: calls.append(len(vec)) or image(vec))
    m = Matrix.from_rows(QQ, [[1, Fraction(1, 2), 0], [Fraction(-3, 7), 2, 5], [0, 0, Fraction(1, 3)]])
    for v in ([1, 2, 3], [Fraction(1, 2), 0, -1], [0, 0, 1]):
        m.mul_vec([QQ.coerce(x) for x in v])
    # Three row images, formed once, and one image per vector.
    assert len(calls) == 3 + 3
    calls.clear()
    m.mul_vec((QQ.one(), QQ.zero(), QQ.zero()))
    assert calls == [3]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(2**31 - 1)], ids=repr)
def test_mul_line_is_mul_vec_up_to_a_nonzero_scalar(field):
    # Over Q, m.mul_line(v) is an integer vector and a nonzero integer
    # multiple of m.mul_vec(v), also on vectors with mixed denominators and
    # on zero; on an integer v it is exactly (D·m)·v, D·m the integer image.
    # Over GF(p) it is m.mul_vec(v).
    rng = random.Random(f"line:{field!r}")
    for n in range(1, 7):
        m = rand_matrix(field, n, rng)
        vectors = [[field.rand(rng) for _ in range(n)] for _ in range(4)]
        vectors.append([field.zero()] * n)
        vectors.append([field.coerce(rng.randint(-9, 9)) for _ in range(n)])
        if field is QQ:
            vectors.append([Fraction(rng.randint(-9, 9), rng.choice((1, 3, 7, 10**6))) for _ in range(n)])
            # Plain ints, as in the Krylov sequences of spectral._eigenspaces.
            vectors.append([rng.randint(-9, 9) for _ in range(n)])
        for v in vectors:
            line, exact = m.mul_line(v), m.mul_vec(v)
            if field.is_finite:
                assert tuple(line) == exact
                continue
            assert all(type(y) is int for y in line)
            nonzero = [j for j, x in enumerate(exact) if x]
            if not nonzero:
                assert not any(line)
                continue
            scale = line[nonzero[0]] / exact[nonzero[0]]
            assert scale.denominator == 1 and scale
            assert list(line) == [scale * x for x in exact]
            if all(x.denominator == 1 for x in v):
                rows, _ = m.integer_rows()
                assert list(line) == [sum(a * int(x) for a, x in zip(row, v)) for row in rows]
    with pytest.raises(AmbientMismatchError):
        m.mul_line([field.one()] * (n + 1))


def test_q_matrix_forms_its_image_once_across_shift_tests(monkeypatch):
    # _shift_maps_into reads D·m from the one image a Q matrix keeps: the
    # rows' images are formed on the first call only.
    m = Matrix.from_rows(QQ, [[1, Fraction(1, 2), 0], [Fraction(-3, 7), 2, 5], [0, 0, Fraction(1, 3)]])
    row_images = []
    image = linalg._integer_image
    monkeypatch.setattr(
        linalg, "_integer_image", lambda vec: row_images.append(any(vec is row for row in m.entries)) or image(vec)
    )
    s = span(QQ, 3, [1, 0, 0], [0, 1, Fraction(2, 5)])
    everything = SubspaceBasis.full(QQ, 3)._as_echelon()
    nothing = linalg._Echelon(QQ, 3)
    for t in (0, Fraction(1, 2), Fraction(-7, 3)) * 3:
        assert linalg._shift_maps_into(m, QQ.coerce(t), s, everything)
        assert not linalg._shift_maps_into(m, QQ.coerce(t), s, nothing)
    assert row_images.count(True) == 3
    assert m.integer_rows() is m.integer_rows()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_echelon_copy_extends_on_its_own(field):
    # A copy spans the same space, and inserting into it leaves the
    # original untouched (over GF(p) insert reduces rows in place).
    ech = linalg._Echelon(field, 3)
    ech.insert([field.coerce(x) for x in (1, 2, 3)])
    ech.insert([field.coerce(x) for x in (0, 0, 1)])
    before = ech.to_subspace()
    twin = ech.copy()
    assert twin.to_subspace() == before
    assert twin.insert([field.coerce(x) for x in (0, 1, 1)])
    assert ech.to_subspace() == before and ech.dim == 2
    assert twin.to_subspace() == SubspaceBasis.full(field, 3)
