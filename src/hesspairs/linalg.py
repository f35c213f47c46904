"""Dense exact matrices and the subspace lattice.

Conventions used throughout the package:

* Matrices act on **column** vectors: ``m.mul_vec(v)`` is ``m @ v``.
* A vector of K^n is a length-n sequence of raw field values.
* A subspace is stored only as its reduced-row-echelon basis
  (:class:`SubspaceBasis`), which is unique per subspace, so equality of
  subspaces is plain structural equality.

Internally every entry is a raw value (``Fraction`` or int residue).  Over
GF(p) a matrix product runs on packed integers (Kronecker substitution,
:func:`_pack`): a matrix keeps each of its columns as one int, with entry
r in bits [r·w, (r+1)·w), formed on its first product, so m·v is one
``sum`` of packed columns times the entries of v, and each entry is read
back with one shift, one mask and one ``% p``; m·m' is m·v for each
column v of m'.  The owning :class:`~hesspairs.fields.FieldSpec` performs
the echelon arithmetic: every row reduction is one
:meth:`~hesspairs.fields.PrimeField.sub_scaled`, and every new echelon row
is normalized by one :meth:`~hesspairs.fields.FieldSpec.scale`.

Over Q the work runs on integer images (fraction-free, after Bareiss
1968): a vector is held as integers over one common denominator.  A
matrix m keeps one image, the integer matrix D·m with D the lcm of its
denominators (:meth:`Matrix.integer_rows`), formed on its first product.
Each entry of a product that is read is one ``Fraction`` of an integer
``sum(map(mul, ...))``; a product that goes straight into an echelon is
:meth:`Matrix.mul_line`, the integer vector (D·m)·xs for v = xs/den, a
positive multiple of m·v that forms no ``Fraction``.  An echelon keeps
each row as a primitive integer vector whose pivot entry is its
denominator; a row operation p·x - c·y is integer arithmetic followed by
one gcd of the row, and ``Fraction`` rows are formed only when the rows
are read.  The choice is made once per matrix or echelon, by its field.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import AmbientMismatchError, NotSquareError
from .fields import FieldSpec, Rationals, Raw

Vector = tuple[Raw, ...]


def _pack(values: Sequence[int], width: int) -> int:
    """Σ values[r]·2^(r·width): value r in bits [r·width, (r+1)·width) of one int.

    Kronecker substitution (Dumas, Fousse and Salvy 2011): a product or sum
    of packed ints acts slot by slot while no slot carries into the next.
    """
    acc = 0
    for c in reversed(values):
        acc = acc << width | c
    return acc


def _integer_image(vec: Sequence) -> tuple[list[int], int]:
    """(xs, den) with vec = xs/den, den the lcm of the entries' denominators.

    Takes ``Fraction``s or ints (denominator 1).  The image of an RREF row,
    whose pivot is 1, is primitive and has its pivot entry equal to den.
    """
    den = lcm(*[x.denominator for x in vec])
    if den == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (den // x.denominator) for x in vec], den


def _cancel(x: list[int], y: list[int], j: int) -> list[int]:
    """The primitive part of y[j]·x - x[j]·y, which is zero at j.

    y[j] > 0, so the result keeps x's sign on every coordinate where y is zero.
    """
    p, c = y[j], x[j]
    g = gcd(p, c)
    if g > 1:
        p, c = p // g, c // g
    out = [p * a - c * b for a, b in zip(x, y)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


class _Echelon:
    """Mutable reduced-row-echelon accumulator.

    The workhorse behind rref, kernels, sums, intersections, spinning and
    flag construction.  Rows are kept mutually reduced and sorted by pivot
    column, so :meth:`values` is always a canonical RREF basis of the span
    of everything inserted so far.  Zeros are tested by truth value.

    Over GF(p) a row is a list of residues with pivot 1.  Over Q
    (``integral``) a row is a primitive integer vector whose pivot entry,
    positive, is its denominator: the RREF row is row/row[pivot].  Row
    operations are then integer p·x - c·y, each followed by one gcd of the
    row (:func:`_cancel`), and ``Fraction`` rows are formed only in
    :meth:`values`.
    """

    __slots__ = ("field", "width", "rows", "pivots", "integral")

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: list[list[Raw]] = []
        self.pivots: list[int] = []
        self.integral = isinstance(field, Rationals)

    def residual(self, vec: Sequence[Raw]) -> list[Raw]:
        """Reduce ``vec`` against the current rows; returns the remainder.

        Over Q the remainder is an integer vector, a positive multiple of
        the rational one.
        """
        if self.integral:
            out = _integer_image(vec)[0]
            for row, piv in zip(self.rows, self.pivots):
                if out[piv]:
                    out = _cancel(out, row, piv)
            return out
        F = self.field
        out = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = out[piv]
            if c:
                out[piv:] = F.sub_scaled(out[piv:], c, row[piv:])
        return out

    def contains(self, vec: Sequence[Raw]) -> bool:
        return not any(self.residual(vec))

    def insert(self, vec: Sequence[Raw]) -> bool:
        """Add ``vec`` to the span.  Returns True when the span grew."""
        red = self.residual(vec)
        piv = next((j for j, x in enumerate(red) if x), None)
        if piv is None:
            return False
        if self.integral:
            g = gcd(*red) if red[piv] > 0 else -gcd(*red)
            if g != 1:
                red = [x // g for x in red]
            # Clear the new pivot column from the existing rows.
            self.rows = [_cancel(row, red, piv) if row[piv] else row for row in self.rows]
        else:
            F = self.field
            tail = red[piv:]
            if tail[0] != F.one():
                tail = F.scale(F.inv(tail[0]), tail)
                red[piv:] = tail
            # Clear the new pivot column from the existing rows.
            for row in self.rows:
                c = row[piv]
                if c:
                    row[piv:] = F.sub_scaled(row[piv:], c, tail)
        at = bisect_left(self.pivots, piv)
        self.pivots.insert(at, piv)
        self.rows.insert(at, red)
        return True

    def insert_all(self, vectors: Iterable[Sequence[Raw]]) -> int:
        return sum(1 for v in vectors if self.insert(v))

    def copy(self) -> "_Echelon":
        """An independent echelon of the same span, to be extended on its own."""
        out = _Echelon(self.field, self.width)
        # GF(p) rows are reduced in place by insert; Q rows are replaced.
        out.rows = self.rows[:] if self.integral else [row[:] for row in self.rows]
        out.pivots = self.pivots[:]
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def values(self) -> list[Sequence[Raw]]:
        """The rows as raw field values: the canonical RREF basis, pivots 1."""
        if self.integral:
            return [tuple([Fraction(x, row[piv]) for x in row]) for row, piv in zip(self.rows, self.pivots)]
        return self.rows

    def load(self, rows: Sequence[Vector]) -> None:
        """Take the rows of an RREF basis as this echelon's rows."""
        self.pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
        if self.integral:
            self.rows = [_integer_image(r)[0] for r in rows]
        else:
            self.rows = [list(r) for r in rows]

    def to_subspace(self) -> "SubspaceBasis":
        return SubspaceBasis(self.field, self.width, tuple(tuple(row) for row in self.values()))


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "entries", "_integral", "_image")

    def __init__(self, field: FieldSpec, entries: tuple[Vector, ...], ncols: int | None = None):
        self.field = field
        self.entries = entries
        self.nrows = len(entries)
        self.ncols = len(entries[0]) if entries else (ncols or 0)
        # Products run on one image of self, formed on the first product:
        # over Q the integer matrix D·self (integer_rows), over GF(p) the
        # packed columns (_packed_columns).
        self._integral = isinstance(field, Rationals)
        self._image: tuple | None = None

    # construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        """Build a matrix, coercing entries (ints, strings, FieldElements...)."""
        grid = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        return cls(field, grid)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero()
        return cls(field, tuple((zero,) * ncols for _ in range(nrows)), ncols=ncols)

    @classmethod
    def diagonal(cls, field: FieldSpec, values: Sequence) -> "Matrix":
        vals = [field.coerce(v) for v in values]
        zero = field.zero()
        n = len(vals)
        return cls(field, tuple(tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def scalar(cls, field: FieldSpec, n: int, value) -> "Matrix":
        return cls.diagonal(field, [value] * n)

    # arithmetic -----------------------------------------------------------

    def _check_field(self, other: "Matrix") -> None:
        self.field.check_same(other.field)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise AmbientMismatchError("matrix shapes differ")
        F = self.field
        return Matrix(
            F,
            tuple(
                tuple(F.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
            ncols=self.ncols,
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product self·other.

        Over Q one ``Fraction`` per entry, of an integer dot product of a
        row of D·self (:meth:`integer_rows`) with the integer image of a
        column of ``other``.  Over GF(p) column j of the product is
        self·(column j of other) by :meth:`mul_vec`, on self's packed
        columns.
        """
        self._check_field(other)
        if self.ncols != other.nrows:
            raise AmbientMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        F = self.field
        cols = tuple(zip(*other.entries)) if other.entries else ()
        if self._integral:
            images = [_integer_image(col) for col in cols]
            rows, big = self.integer_rows()
            return Matrix(F, tuple(
                tuple([Fraction(sum(map(mul, row, xs)), big * d) for xs, d in images])
                for row in rows
            ), ncols=other.ncols)
        products = [self.mul_vec(col) for col in cols]
        return Matrix(F, tuple(zip(*products)) if products else ((),) * self.nrows, ncols=other.ncols)

    def scale(self, value) -> "Matrix":
        F = self.field
        v = F.coerce(value)
        return Matrix(F, tuple(tuple(F.scale(v, row)) for row in self.entries), ncols=self.ncols)

    def minus_scalar(self, value) -> "Matrix":
        """``self - value * I``; requires a square matrix."""
        if self.nrows != self.ncols:
            raise NotSquareError("matrix is not square")
        F = self.field
        v = F.coerce(value)
        return Matrix(
            F,
            tuple(
                tuple(F.sub(x, v) if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(self.entries)
            ),
            ncols=self.ncols,
        )

    def mul_vec(self, vec: Sequence[Raw]) -> Vector:
        """Apply to a column vector of raw values.

        Over GF(p) one sum of ints: the packed columns of
        :meth:`_packed_columns` times the entries of v reduced mod p, so
        slot r holds Σ_j m[r][j]·v_j, read back with one shift, one mask
        and one ``% p``.
        """
        if self._integral:
            ys, den = self._integer_product(vec)
            return tuple([Fraction(y, den) for y in ys])
        if len(vec) != self.ncols:
            raise AmbientMismatchError("vector length does not match column count")
        p = self.field.p
        columns, width, mask = self._packed_columns()
        s = sum(map(mul, columns, [x % p for x in vec]))
        return tuple([(s >> shift & mask) % p for shift in range(0, self.nrows * width, width)])

    def _packed_columns(self) -> tuple[list[int], int, int]:
        """(columns, width, mask) over GF(p): column j packed into one int by :func:`_pack`.

        Entries are reduced mod p, and width = 2·bits(p - 1) + bits(ncols),
        so a slot holding a sum of ncols products below p² never carries
        into the next.  Formed once, on the first product, and kept.
        """
        if self._image is None:
            p = self.field.p
            width = 2 * (p - 1).bit_length() + self.ncols.bit_length()
            columns = [_pack([x % p for x in col], width) for col in zip(*self.entries)]
            self._image = columns, width, (1 << width) - 1
        return self._image

    def mul_line(self, vec: Sequence[Raw]) -> Sequence[Raw]:
        """m·v up to a nonzero scalar: for products that go straight into an echelon.

        Over Q the integer vector (D·m)·xs, where D·m is :meth:`integer_rows`
        and xs/den = v with den the lcm of v's denominators, so D·den times
        m·v, and exactly (D·m)·v when v is an integer vector.  Over GF(p)
        :meth:`mul_vec`.
        """
        if self._integral:
            return self._integer_product(vec)[0]
        return self.mul_vec(vec)

    def _integer_product(self, vec: Sequence[Raw]) -> tuple[list[int], int]:
        """(ys, c) with m·v = ys/c over Q: ys = (D·m)·xs and c = D·den, as in :meth:`mul_line`."""
        if len(vec) != self.ncols:
            raise AmbientMismatchError("vector length does not match column count")
        rows, big = self.integer_rows()
        xs, den = _integer_image(vec)
        return [sum(map(mul, row, xs)) for row in rows], big * den

    def integer_rows(self) -> tuple[Sequence[Sequence[int]], int]:
        """(rows, D): the integer matrix D·self, D the lcm of its denominators.

        Over Q formed once, on the first product, and kept: the rows must
        not be changed.  Over GF(p) the residues themselves, with D = 1.
        """
        if not self._integral:
            return self.entries, 1
        if self._image is None:
            images = [_integer_image(row) for row in self.entries]
            big = lcm(*[den for _, den in images])
            self._image = [xs if den == big else [x * (big // den) for x in xs] for xs, den in images], big
        return self._image

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.entries)) if self.entries else (), ncols=self.nrows)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise NotSquareError("matrix is not square")
        F = self.field
        n = self.nrows
        one, zero = F.one(), F.zero()
        ech = _Echelon(F, 2 * n)
        for i, row in enumerate(self.entries):
            aug = list(row) + [one if j == i else zero for j in range(n)]
            ech.insert(aug)
        if ech.dim < n or any(p >= n for p in ech.pivots):
            raise ValueError("matrix is not invertible")
        # Rows are sorted by pivot column 0..n-1, so the right halves already
        # line up with the identity on the left.
        return Matrix(F, tuple(tuple(row[n:]) for row in ech.values()), ncols=n)

    # inspection -----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.entries)
        return f"Matrix({self.field!r}, [{rows}])"


class SubspaceBasis:
    """Canonical (reduced-row-echelon) basis of a subspace of K^n.

    ``rows`` is a tuple of basis row vectors in RREF with no zero rows:
    pivot columns strictly increase, pivots are 1, and pivot columns are
    zero elsewhere.  Uniqueness of the RREF makes two values equal exactly
    when they describe the same subspace; the zero subspace is the empty
    basis with an explicit ambient dimension.
    """

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows: tuple[Vector, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence]) -> "SubspaceBasis":
        ech = _Echelon(field, ambient_dim)
        for v in vectors:
            vec = [field.coerce(x) for x in v]
            if len(vec) != ambient_dim:
                raise AmbientMismatchError("vector length does not match ambient dimension")
            ech.insert(vec)
        return ech.to_subspace()

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def _as_echelon(self) -> _Echelon:
        ech = _Echelon(self.field, self.ambient_dim)
        ech.load(self.rows)
        return ech

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceBasis)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.rows)
        return f"Subspace(dim {self.dim} of K^{self.ambient_dim}: [{rows}])"


def _check_ambient(a: SubspaceBasis, b: SubspaceBasis) -> None:
    a.field.check_same(b.field)
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def rref(m: Matrix) -> tuple[SubspaceBasis, int]:
    """Canonical basis of the row space of ``m``, plus its rank."""
    ech = _Echelon(m.field, m.ncols)
    ech.insert_all(m.entries)
    return ech.to_subspace(), ech.dim


def kernel(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right null space {v : m v = 0}."""
    F = m.field
    zero = F.zero()
    ech = _Echelon(F, m.ncols)
    ech.insert_all(m.entries)
    pivots = set(ech.pivots)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis = list(zip(ech.values(), ech.pivots))
    out = _Echelon(F, m.ncols)
    for f in free:
        vec = [zero] * m.ncols
        vec[f] = F.one()
        for row, piv in basis:
            if row[f]:
                vec[piv] = F.neg(row[f])
        out.insert(vec)
    return out.to_subspace()


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of a + b."""
    _check_ambient(a, b)
    ech = _Echelon(a.field, a.ambient_dim)
    ech.insert_all(a.rows)
    ech.insert_all(b.rows)
    return ech.to_subspace()


def subspace_intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of a ∩ b, by the Zassenhaus stacked-block method.

    Rows [u | u] for u in a and [v | 0] for v in b are echelonized over
    width 2n; rows whose pivot falls in the right block have zero left
    halves, and those right halves are exactly an RREF basis of a ∩ b.
    """
    _check_ambient(a, b)
    F = a.field
    n = a.ambient_dim
    zero = F.zero()
    ech = _Echelon(F, 2 * n)
    for u in a.rows:
        ech.insert(list(u) + list(u))
    for v in b.rows:
        ech.insert(list(v) + [zero] * n)
    rows = tuple(tuple(row[n:]) for row, piv in zip(ech.values(), ech.pivots) if piv >= n)
    return SubspaceBasis(F, n, rows)


def subspace_contains(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True when b ⊆ a, i.e. every basis row of b reduces to zero against a."""
    _check_ambient(a, b)
    if b.is_zero:
        return True
    if b.dim > a.dim:
        return False
    ech = a._as_echelon()
    return all(ech.contains(v) for v in b.rows)


def _shift_maps_into(m: Matrix, t: Raw, s: SubspaceBasis, target: _Echelon) -> bool:
    """True when (m - t·I) s ⊆ target, the span of ``target``'s rows.

    Tests m·u - t·u for each basis row u of ``s``; neither m - t·I nor the
    image's echelon is formed.  Over Q, with u = xs/den and t = a/b, the
    test vector is the integer b·(D·m)·xs - a·D·xs, a positive multiple
    of m·u - t·u, with (D·m)·xs from :meth:`Matrix.mul_line`.
    """
    if m._integral:
        big = m.integer_rows()[1]
        a_big, b = t.numerator * big, t.denominator
        images = (_integer_image(u)[0] for u in s.rows)
        return all(
            target.contains([b * y - a_big * x for y, x in zip(m.mul_line(xs), xs)])
            for xs in images
        )
    F = m.field
    return all(target.contains(F.sub_scaled(m.mul_vec(u), t, u)) for u in s.rows)


def apply(m: Matrix, s: SubspaceBasis) -> SubspaceBasis:
    """Canonical basis of the image {m v : v in s}."""
    m.field.check_same(s.field)
    if m.ncols != s.ambient_dim:
        raise AmbientMismatchError("matrix column count does not match ambient dimension")
    ech = _Echelon(m.field, m.nrows)
    for v in s.rows:
        ech.insert(m.mul_line(v))
    return ech.to_subspace()
