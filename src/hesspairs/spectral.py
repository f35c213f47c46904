"""Characteristic polynomials, exact in-field eigenvalues and eigenspaces.

The characteristic polynomial is computed over GF(p) through upper
Hessenberg form, and over Q by the division-free Berkowitz method, under
which the entries grow less.  Eigenvalues are found *in the ground field
only*:

* over GF(p), the roots are sought among the residues mod p itself;
* over Q, the polynomial is scaled to a monic integer g whose rational
  roots are integers.  When g mod p has a repeated root, g gives way to
  its square-free part h = g / gcd(g, g'), with the gcd taken modulo
  word primes and combined by CRT (von zur Gathen and Gerhard, *Modern
  Computer Algebra*, ch. 6).  The prime p is the first above 2·deg at
  which every root of g mod p is a simple root of h, and each is lifted
  p-adically: Newton's iteration on h, modulo p, p², p⁴, …, until p^k
  exceeds twice Fujiwara's bound on the roots (Loos 1983; ibid.,
  ch. 15).  Each lift is counted exactly on g, as below.

On both fields, and for each prime p over Q, the candidate residues mod
p are all of them when p <= 64·deg and, for larger p (odd, and above the
degree), the roots of the linear part of the square-free part of the
polynomial mod p, extracted via gcd
with x^(p+1) - x^2 (the root 0 divided out first), then equal-degree
splitting with (x + a)^((p+1)/2) - (x + a).  The probe a = 0 comes free
from the chain of x^(p+1), and for p = 3 (mod 4) a quadratic factor is
solved in closed form; the other factors take random probes.  The
powers are taken on packed residues (Kronecker substitution: one
big-integer product per squaring); for a Mersenne p, p + 1 is a power
of two, so they are squarings only, after one step by the linear base.
One exact count on integer coefficients is the root test: synthetic
division, mod p or over Z, divides each candidate out of one shrinking
quotient, and the number of zero remainders is its multiplicity.

Eigenspaces are read from Krylov sequences v, Mv, … of fixed start
vectors: with r = ∏(x - θ) over the distinct eigenvalues, the vectors
(r/(x - θ))(M)·v lie in V_θ whenever r(M)·v = 0, and enough of them span
it, at O(n²) per vector and eigenvalue.  Over Q they run on ints, as the
sequences of B·M at its integer eigenvalues B·θ (B the lcm of the
eigenvalues' denominators), each vector over its least denominator.  A
non-diagonalizable M keeps lines (χ/(x - θ))(M)·v for its simple
eigenvalues and takes the kernel of M - θI for its repeated ones.

If the characteristic polynomial does not split into linear factors over
the field, :func:`eigen_structure` raises
:class:`~hesspairs.errors.EigenvaluesOutsideFieldError`: downstream pair
analysis is meaningless without the full spectrum.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    DuplicateEigenvalueError,
    EigenvaluesOutsideFieldError,
    LengthMismatchError,
    NotADecompositionError,
    NotDiagonalizableError,
    NotSquareError,
)
from .fields import FieldElement, FieldSpec, PrimeField, Raw, _is_prime
from .linalg import Matrix, SubspaceBasis, _Echelon, _shift_maps_into, kernel

# A polynomial of degree n has its roots mod p (the field's prime, or over
# Q a lifting prime) found by trying every residue when
# p <= _SCAN_FACTOR·n, and by gcd-based linear-factor extraction above.
# The scan costs about p·n Horner steps and the gcd finder about
# n²·log p products, so the crossover grows with the degree.
_SCAN_FACTOR = 64

# Start vectors formed beyond the largest multiplicity that the Krylov
# sequences serve.  Over a large field a start vector misses an eigenspace
# with probability about 1/p; over GF(2) and GF(3) the spares catch most
# of the misses before the kernel has to.
_SPARE_START_VECTORS = 2

class Polynomial:
    """Polynomial over an exact field, coefficients stored low-to-high.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Sequence[Raw]):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_coefficients(cls, field: FieldSpec, coeffs: Sequence) -> "Polynomial":
        return cls(field, [field.coerce(c) for c in coeffs])

    @classmethod
    def one(cls, field: FieldSpec) -> "Polynomial":
        return cls(field, (field.one(),))

    @classmethod
    def x_minus(cls, field: FieldSpec, root) -> "Polynomial":
        return cls(field, (field.neg(field.coerce(root)), field.one()))

    @classmethod
    def from_roots(cls, field: FieldSpec, roots: Sequence) -> "Polynomial":
        """The monic polynomial with the given roots (with multiplicity)."""
        poly = cls.one(field)
        for r in roots:
            poly = poly * cls.x_minus(field, r)
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self.field.check_same(other.field)
        F = self.field
        # Zero-padded to the product's length, so a[k::-1] lines up with b.
        a = self.coeffs + (F.zero(),) * (len(other.coeffs) - 1)
        return Polynomial(F, [F.dot(a[k::-1], other.coeffs) for k in range(len(a))])

    def eval(self, x) -> Raw:
        """Horner evaluation at a scalar."""
        F = self.field
        v = F.coerce(x)
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, v), c)
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation at a square matrix."""
        if not m.is_square:
            raise NotSquareError("matrix is not square")
        self.field.check_same(m.field)
        n = m.nrows
        acc = Matrix.zeros(self.field, n, n)
        for c in reversed(self.coeffs):
            acc = acc * m + Matrix.scalar(self.field, n, c)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = " + ".join(
            f"({self.field.format(c)})x^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"Polynomial({terms})"


def char_poly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - m).

    Over GF(p) through upper Hessenberg form, in O(n³); over Q by the
    division-free Berkowitz method, in O(n⁴) products of entries that grow
    less than the Hessenberg reduction's.
    """
    if not m.is_square:
        raise NotSquareError("characteristic polynomial of a non-square matrix")
    if isinstance(m.field, PrimeField):
        return _char_poly_hessenberg(m)
    return _char_poly_berkowitz(m)


def _char_poly_berkowitz(m: Matrix) -> Polynomial:
    """det(xI - m) by the Berkowitz method; division-free, so valid over any field.

    Runs on integers: on the matrix D·m of :meth:`~hesspairs.linalg.Matrix.integer_rows`,
    whose coefficient c_k of x^(n-k) is D^k times m's, so m's is c_k/D^k.
    Over GF(p), D = 1 and the coefficients are reduced mod p at the end.
    """
    F = m.field
    n = m.nrows
    if n == 0:
        return Polynomial.one(F)
    grid, den = m.integer_rows()
    # p holds the characteristic polynomial of the leading r x r principal
    # submatrix, highest coefficient first.
    p = [1, -grid[0][0]]
    for r in range(1, n):
        row = grid[r][:r]
        # q[k] multipliers: 1, -a, -(row col), -(row M col), -(row M^2 col)...
        q = [1, -grid[r][r]]
        vec = [grid[i][r] for i in range(r)]
        for k in range(r):
            q.append(-sum(map(mul, row, vec)))
            if k < r - 1:
                # vec has length r, so each product reads only the leading r columns.
                vec = [sum(map(mul, grid[i], vec)) for i in range(r)]
        # The Toeplitz product: new p[i] = Σ_j q[i-j]·p[j].
        p = [sum(map(mul, q[i::-1], p)) for i in range(r + 2)]
    if isinstance(F, PrimeField):
        coeffs = [c % F.p for c in p]
    else:
        coeffs = [Fraction(c, den**k) for k, c in enumerate(p)]
    return Polynomial(F, coeffs[::-1])


def _char_poly_hessenberg(m: Matrix) -> Polynomial:
    """det(xI - m) over GF(p) (Cohen, *A Course in Computational Algebraic
    Number Theory*, Alg. 2.2.9).

    m is reduced to an upper Hessenberg H = Q⁻¹mQ by elimination below the
    subdiagonal, column by column; a zero subdiagonal entry is replaced by
    swapping in a lower row with a nonzero one, and the matching column.
    The characteristic polynomials P_k of H's leading k x k blocks then
    follow the recurrence
    P_{k+1} = (x - h_kk)·P_k - Σ_{i<k} h_ik·h_{i+1,i}···h_{k,k-1}·P_i.
    """
    F = m.field
    p = F.p
    h = [list(row) for row in m.entries]
    n = len(h)
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][k - 1], -1, p)
        pivot_row = h[k][k - 1:]
        # Rows: row_i -= u_i·row_k clears h[i][k-1] for i > k.  Columns:
        # column_k += Σ u_i·column_i completes the similarity.
        us = [h[i][k - 1] * inv % p for i in range(k + 1, n)]
        for i, u in enumerate(us, k + 1):
            if u:
                h[i][k - 1:] = F.sub_scaled(h[i][k - 1:], u, pivot_row)
        for row in h:
            row[k] = (row[k] + sum(map(mul, us, row[k + 1:]))) % p
    polys = [[1]]
    for k in range(n):
        # P_i has i + 1 coefficients, so each sub_scaled updates acc[:i + 1].
        acc = [0, *polys[k]]
        acc[:k + 1] = F.sub_scaled(acc, h[k][k], polys[k])
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            acc[:i + 1] = F.sub_scaled(acc, h[i][k] * t % p, polys[i])
        polys.append(acc)
    return Polynomial(F, polys[n])


# -- root finding ------------------------------------------------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_monic(a: list[int], p: int) -> list[int]:
    """``a`` scaled to lead coefficient 1 over GF(p); zero stays zero."""
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of ``a`` by a nonzero ``b`` over GF(p), both trimmed.

    The lead of ``b`` is inverted once per call, so ``b`` need not be monic.
    """
    r = a[:]
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    inv_lead = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        f = r.pop() * inv_lead % p
        q[shift] = f
        if f:
            r[shift:] = [(x - f * y) % p for x, y in zip(r[shift:], b)]
    return _poly_trim(q), _poly_trim(r)


class _PackedModulus:
    """Residues modulo a monic f of degree d >= 1 over GF(p), each one int.

    Coefficient j of a residue sits in bits [jB, (j+1)B) of its packed int
    (Kronecker substitution; Dumas, Fousse and Salvy 2011), so the product
    of two residues is one bigint product.  Reduced residues have every
    coefficient in [0, p).
    """

    __slots__ = ("p", "d", "width", "mask", "table")

    def __init__(self, mod: list[int], p: int):
        d = len(mod) - 1
        self.p, self.d = p, d
        # A product slot sums at most d terms below p², and the fold in
        # reduce adds at most d - 1 more, so every slot stays below 2d·p²
        # and B = 2·bits(p) + bits(2d) + 1 keeps it from carrying into the
        # next.  A ×(x + a) step stays below 2p² in the same way.
        self.width = 2 * p.bit_length() + (2 * d).bit_length() + 1
        self.mask = (1 << self.width) - 1
        # table[k] = x^(d+k) mod f for k = 0 … d - 2, the high slots of a
        # product; k = 0 is kept when d = 1 for the top slot of r·(x + a).
        row = [(-c) % p for c in mod[:-1]]
        self.table = []
        for _ in range(max(d - 1, 1)):
            self.table.append(self.pack(row))
            top = row[-1]
            row = [(s - top * c) % p for s, c in zip([0, *row[:-1]], mod)]

    def pack(self, coeffs: list[int]) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc << self.width | c
        return acc

    def unpack(self, s: int) -> list[int]:
        """The slots of ``s``, low to high, up to its highest nonzero one."""
        out = []
        while s:
            out.append(s & self.mask)
            s >>= self.width
        return out

    def reduce(self, s: int) -> int:
        """The reduced residue of a packed ``s`` with carry-free slots.

        Each slot above d - 1 is reduced mod p and folded back through
        ``table``; then every low slot is reduced mod p and repacked.
        """
        p, low_bits = self.p, self.d * self.width
        high = s >> low_bits
        if high:
            folds = [c % p for c in self.unpack(high)]
            s = (s & ((1 << low_bits) - 1)) + sum(map(mul, folds, self.table))
        return self.pack([c % p for c in self.unpack(s)])

    def mul(self, x: int, y: int) -> int:
        """x·y mod f for reduced residues x and y."""
        return self.reduce(x * y)


def _poly_pow_linear(a: int, e: int, mod: list[int], p: int) -> list[int]:
    """(x + a)^e modulo a monic ``mod`` of degree >= 1 over GF(p), trimmed.

    Left to right on packed residues (:class:`_PackedModulus`): each
    squaring is one bigint product and one reduction, and a step by the
    linear base is a shift, a scalar product and one reduction.
    """
    m = _PackedModulus(mod, p)
    result = 1
    for i, bit in enumerate(bin(e)[2:]):
        if i:
            result = m.mul(result, result)
        if bit == "1":
            result = m.reduce((result << m.width) + a * result)
    return m.unpack(result)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p); zero when both inputs are zero."""
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _roots_large_prime(coeffs: list[int], p: int) -> list[int]:
    """Roots in GF(p) via gcd with x^(p+1) - x^2 and equal-degree splitting.

    ``p`` must be an odd prime above deg f.  The one caller,
    :func:`_roots_mod`, passes only p > _SCAN_FACTOR·deg; smaller primes
    take its residue scan.

    Once x^k is divided out, f(0) != 0, so gcd(f, x^p - x) equals
    g = gcd(f, x^(p+1) - x^2), and a factor h splits at
    gcd(h, (x + a)^((p+1)/2) - (x + a)), which vanishes where r + a is a
    square or zero.  x^(p+1) is the square of s = x^((p+1)/2), so the
    probe a = 0, gcd(g, s - x), costs no power of its own: it splits g
    into its roots that are squares and those that are not.  When
    p = 3 (mod 4), a quadratic factor is then solved in closed form,
    because disc^((p+1)/4) is a square root of its discriminant; larger
    factors, and quadratics for other p, split at random probes.  For a
    Mersenne p = 2^e - 1, p + 1 and (p + 1)/2 are powers of two, so each
    power is squarings after one step by the linear base.
    """
    f = _poly_trim([c % p for c in coeffs])
    # 0 is a root when f[0] == 0; f / x^k, for x^k the largest power
    # dividing f, has the other roots and a nonzero constant term.
    k = next((i for i, c in enumerate(f) if c), 0)
    roots = [0] if k else []
    f = _poly_monic(f[k:], p)
    if len(f) <= 1:
        return roots
    # f / gcd(f, f') has the same roots, each once: as p > deg f, a root of
    # f of multiplicity m is one of f' of multiplicity m - 1.
    f = _poly_divmod(f, _poly_gcd(f, [i * c % p for i, c in enumerate(f)][1:], p), p)[0]
    half = _poly_pow_linear(0, (p + 1) // 2, f, p)
    packed = _PackedModulus(f, p)
    xp = packed.unpack(packed.mul(packed.pack(half), packed.pack(half)))
    xp += [0] * (3 - len(xp))
    xp[2] = (xp[2] - 1) % p
    g = _poly_gcd(f, xp, p)
    stack = [g]
    if len(g) > 2:
        # The probe a = 0 on g, from the power already raised modulo f.
        w = _probe_gcd(g, half, 0, p)
        if 0 < len(w) - 1 < len(g) - 1:
            stack = [w, _poly_divmod(g, w, p)[0]]
    rng = random.Random(0x5EED)
    inv2 = (p + 1) // 2
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        if d == 2 and p % 4 == 3:
            # h = x^2 + bx + c has two distinct roots in GF(p), so its
            # discriminant is a nonzero square.
            c, b = h[0], h[1]
            s = pow((b * b - 4 * c) % p, (p + 1) // 4, p)
            roots += [(s - b) * inv2 % p, (-s - b) * inv2 % p]
            continue
        while True:
            a = rng.randrange(p)
            w = _probe_gcd(h, _poly_pow_linear(a, (p + 1) // 2, h, p), a, p)
            if 0 < len(w) - 1 < d:
                stack.append(w)
                stack.append(_poly_divmod(h, w, p)[0])
                break
    return roots


def _probe_gcd(h: list[int], power: list[int], a: int, p: int) -> list[int]:
    """gcd(h, (x + a)^((p+1)/2) - (x + a)) over GF(p).

    ``power`` is (x + a)^((p+1)/2) reduced modulo h or a multiple of h.
    """
    power = power + [0] * (2 - len(power))
    power[0] = (power[0] - a) % p
    power[1] = (power[1] - 1) % p
    return _poly_gcd(h, power, p)


def _integer_scaling(poly: Polynomial) -> tuple[list[int], int, int]:
    """(g, L, b) for a monic ``poly`` over Q: g monic on ints, every integer root |y| <= 2^(b+1).

    With L the lcm of the denominators, g(y) = L^n poly(y/L) is monic with
    integer coefficients, so its rational roots are integers y, and the
    roots of ``poly`` are the y/L.  Fujiwara's bound puts them in
    |y| <= 2^(b+1), so they are the symmetric residues of their images
    modulo any q > 2^(b+2).
    """
    n = poly.degree
    lcm = math.lcm(*(c.denominator for c in poly.coeffs))
    g = [c.numerator * (lcm ** (n - i) // c.denominator) for i, c in enumerate(poly.coeffs)]
    b = max((-(-c.bit_length() // (n - i)) for i, c in enumerate(g[:-1])), default=0)
    return g, lcm, b


def _primes_above(n: int):
    """The primes above n, in increasing order."""
    return (q for q in itertools.count(n + 1) if _is_prime(q))


@functools.cache
def _word_prime(i: int) -> int:
    """The i-th prime above 2^30, from i = 0: the moduli of :func:`_square_free_part`.

    Kept once found, as its primality test costs about as much as a small
    gcd mod it.  Called for i = 0, 1, 2, … in turn, each call recurses at
    most one level.
    """
    return next(_primes_above(_word_prime(i - 1) if i else 1 << 30))


def _lift_moduli(p: int, b: int) -> list[int]:
    """The moduli p^j of Newton's iteration from p up to the least p^k > 2^(b+2), increasing.

    The precisions j are k, ⌈k/2⌉, ⌈k/4⌉, … down to 2, so each step about
    doubles the last; empty when p itself is above 2^(b+2).
    """
    k = max(1, math.ceil((b + 2) / math.log2(p)))
    while p**k <= 1 << (b + 2):
        k += 1
    moduli = []
    while k > 1:
        moduli.append(p**k)
        k = (k + 1) // 2
    return moduli[::-1]


def _lift_root(h: list[int], dh: list[int], r: int, p: int, moduli: list[int]) -> int:
    """The symmetric residue mod the last modulus of the p-adic root of h above r.

    ``h`` and its derivative ``dh`` are on ints, high-to-low, and r is a
    simple root of h mod p.  Newton's iteration y <- y - h(y)/h'(y) lifts
    it modulo each of :func:`_lift_moduli`'s ``moduli`` in turn.  The
    inverse s of h'(y) is carried along, s <- s(2 - h'(y)s), so the only
    modular inverse is the one mod p.  With no moduli the result is r's
    symmetric residue mod p.
    """
    y, q = r, p
    s = pow(_synthetic_division(dh, y, p)[1], -1, p)
    for i, q in enumerate(moduli):
        y = (y - _synthetic_division(h, y, q)[1] * s) % q
        if i + 1 < len(moduli):
            s = s * (2 - _synthetic_division(dh, y, q)[1] * s) % q
    return y - q if y > q // 2 else y


def _square_free_part(g: list[int]) -> list[int]:
    """g / gcd(g, g') for a monic g on ints, low-to-high.

    D = gcd(g, g') is monic on ints (Gauss's lemma).  Modulo a prime q
    above deg g, D mod q divides gcd(g mod q, g' mod q), so that image has
    degree >= deg D, and equality makes it D mod q; only the q dividing a
    subresultant of g and g' give more (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 6).  Images mod the primes above 2^30 are
    combined by CRT, an image of higher degree than the lowest seen is
    dropped, and one of lower degree starts over.  The symmetric lift is
    tried after the first image and whenever a new image leaves it
    unchanged, and taken once it divides g and g' exactly: every common
    divisor divides D, so a monic one of degree >= deg D is D itself.
    """
    dg = [i * c for i, c in enumerate(g)][1:]
    crt, trial = None, None
    for q in map(_word_prime, itertools.count()):
        image = _poly_gcd([c % q for c in g], [c % q for c in dg], q)
        if crt is None or len(image) < len(crt):
            crt, modulus, trial = [0] * len(image), 1, None
        elif len(image) > len(crt):
            continue
        u = pow(modulus, -1, q)
        crt = [a + modulus * ((c - a) * u % q) for a, c in zip(crt, image)]
        modulus *= q
        lift = [a - modulus if 2 * a > modulus else a for a in crt]
        if trial is None or lift == trial:
            h = _exact_quotient(g, lift)
            if h is not None and _exact_quotient(dg, lift) is not None:
                return h
        trial = lift


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over Z for a monic b, both low-to-high, or None when b does not divide a."""
    r, k = a[:], len(b) - 1
    # Long division in place: r[top] is the quotient's coefficient of x^(top-k).
    for top in range(len(a) - 1, k - 1, -1):
        for j, y in enumerate(b[:k], top - k):
            r[j] -= r[top] * y
    return None if any(r[:k]) else r[k:]


def _lifted_roots(g: list[int], b: int) -> list[tuple[int, int]]:
    """(y, multiplicity) for every integer root y of a monic g, y ascending.

    ``b`` is :func:`_integer_scaling`'s bound.  The primes above 2·deg g are
    tried in increasing order.  Once g mod p has a repeated root, g gives
    way to its square-free part h (:func:`_square_free_part`), whose roots
    mod p are g's, and p is taken when each of them is a simple root of h
    mod p: only the primes dividing h's discriminant are passed over.
    :func:`_lift_root` lifts each root on h (on g while g has had no
    repeated root mod p) until p^k is above 2^(b+2), twice Fujiwara's
    bound.  Every integer root of g is a root of h, so it reduces to one
    of these and is that root's unique lift.  Each lift is counted exactly
    on g by :func:`_multiplicities`, and one that divides zero times is
    dropped.
    """
    h = g
    for p in _primes_above(2 * (len(g) - 1)):
        pairs = _roots_mod([c % p for c in g], p)
        if h is g and any(m > 1 for _, m in pairs):
            h = _square_free_part(g)
        dh = [i * c for i, c in enumerate(h)][:0:-1]
        # A root of g mod p is one of h mod p, simple when it is simple in g
        # or where h' does not vanish.
        if all(m == 1 or _synthetic_division(dh, r, p)[1] for r, m in pairs):
            break
    high, moduli = h[::-1], _lift_moduli(p, b)
    lifts = sorted(_lift_root(high, dh, r, p, moduli) for r, _ in pairs)
    return [(y, mult) for y, mult in _multiplicities(g, lifts, 0) if mult]


def _synthetic_division(high: list[int], r: int, p: int) -> tuple[list[int], int]:
    """(quotient, remainder) of ``high`` by (x - r), coefficients high-to-low.

    Reduced mod p when p is nonzero; exact when p is 0, on ints or
    ``Fraction``s.
    """
    out = []
    acc = 0
    for c in high:
        acc = acc * r + c
        if p:
            acc %= p
        out.append(acc)
    rem = out.pop()
    return out, rem


def _multiplicities(g: list[int], candidates, p: int):
    """Yield (r, multiplicity in g) for each candidate r, in the order given.

    ``g`` is on ints, low-to-high; mod p when p is nonzero, exact over Z
    when p is 0.  Each candidate is divided out of one shrinking quotient
    until the remainder is nonzero: the number of zero remainders is its
    multiplicity, and the one exact root test.  Candidates must be
    distinct.
    """
    quo = g[::-1]
    for r in candidates:
        mult = 0
        while True:
            q, rem = _synthetic_division(quo, r, p)
            if rem:
                break
            quo = q
            mult += 1
        yield r, mult


def _roots_mod(g: list[int], p: int) -> list[tuple[int, int]]:
    """(root, multiplicity) of the residues ``g`` mod p, roots ascending.

    The candidates are every residue when p <= _SCAN_FACTOR·deg g, else the
    gcd finder's roots of g mod p.
    """
    candidates = range(p) if p <= _SCAN_FACTOR * (len(g) - 1) else sorted(_roots_large_prime(g, p))
    return [(r, mult) for r, mult in _multiplicities(g, candidates, p) if mult]


def _in_field_roots_with_multiplicity(poly: Polynomial) -> list[tuple[Raw, int]]:
    """All (root, multiplicity) pairs with the root in the ground field, roots ascending.

    Over GF(p), :func:`_roots_mod` on the residues of ``poly``.  Over Q, g,
    L and b of :func:`_integer_scaling`, where a root y of g is the root
    y/L of ``poly``: the integer roots and their multiplicities come from
    :func:`_lifted_roots`.
    """
    field_p = _prime(poly.field)
    if field_p:
        return _roots_mod(list(poly.coeffs), field_p)
    g, lcm, b = _integer_scaling(poly)
    return [(Fraction(y, lcm), mult) for y, mult in _lifted_roots(g, b)]


# -- eigen structure ----------------------------------------------------------


@dataclass(frozen=True)
class EigenStructure:
    """Eigenvalues (in canonical order) with matching eigenspaces.

    ``diagonalizable`` is true exactly when the eigenspace dimensions sum
    to the ambient dimension, in which case the eigenspaces form a
    direct-sum decomposition of K^n.
    """

    transform: Matrix
    eigenvalues: tuple[FieldElement, ...]
    eigenspaces: tuple[SubspaceBasis, ...]
    diagonalizable: bool
    # (M', P^-1 M' P) for every M' conjugated so far; see eigenbasis_conjugate.
    _conjugates: list = dc_field(default_factory=list, init=False, repr=False, compare=False)
    # (eigenspaces, P^-1 w up to scale per basis row w) for every family read so far;
    # see eigenbasis_coordinates.
    _coordinates: list = dc_field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        """Number of distinct eigenvalues minus one."""
        return len(self.eigenvalues) - 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.eigenspaces)

    @property
    def ambient_dim(self) -> int:
        return self.transform.nrows

    @functools.cached_property
    def eigenbasis(self) -> tuple[Matrix, Matrix]:
        """(P, P^-1), where P's columns are the eigenspace bases in order.

        Formed once and kept on this structure, so the eigenbasis
        conjugates and the split reads share one inverse.  Requires a
        diagonalizable transform, for which P is invertible.
        """
        if not self.diagonalizable:
            raise NotDiagonalizableError("an eigenbasis needs a diagonalizable transform")
        p = Matrix(self.transform.field, tuple(v for space in self.eigenspaces for v in space.rows)).transpose()
        return p, p.inverse()

    def eigenbasis_conjugate(self, other: Matrix) -> Matrix:
        """P^-1 · other · P, with P and P^-1 from :attr:`eigenbasis`.

        Block (j, i) of the result is the V_j-component of ``other`` on V_i.
        Formed once per matrix and kept on this structure, so the ordering
        searches and the algebra closure share it.
        """
        for m, conj in self._conjugates:
            if m == other:
                return conj
        p, p_inv = self.eigenbasis
        conj = p_inv * other * p
        self._conjugates.append((other, conj))
        return conj

    def eigenbasis_coordinates(self, spaces: Sequence[SubspaceBasis]) -> tuple[tuple[Sequence[Raw], ...], ...]:
        """P^-1·w up to a nonzero scalar for each basis row w of each subspace.

        The coordinates of another eigenspace family in this eigenbasis (P
        from :attr:`eigenbasis`), as :meth:`~hesspairs.linalg.Matrix.mul_line`
        gives them to the split read's echelons.  Formed once per family
        and kept on this structure, so the split reads of every ordering
        pair share them.
        """
        spaces = tuple(spaces)
        for key, coords in self._coordinates:
            if key == spaces:
                return coords
        _, p_inv = self.eigenbasis
        coords = tuple(tuple(p_inv.mul_line(w) for w in space.rows) for space in spaces)
        self._coordinates.append((spaces, coords))
        return coords


def eigen_structure(m: Matrix) -> EigenStructure:
    """Eigenvalues in the ground field, eigenspaces, diagonalizability.

    Eigenvalues are returned in canonical order (ascending residue over
    GF(p), ascending numeric order over Q); callers impose their own
    orderings downstream.  Raises
    :class:`~hesspairs.errors.EigenvaluesOutsideFieldError` when the
    characteristic polynomial does not split over the field.

    The eigenspaces come from Krylov sequences of fixed start vectors
    v_0 = (1, 2, …, n), v_1, ….  Let r = ∏(x − θ) over the k distinct
    eigenvalues, and q_θ = r/(x − θ), one synthetic division.  Then
    u = q_θ(m)·v has (m − θI)·u = r(m)·v.  When every eigenvalue is simple,
    r = χ and Cayley–Hamilton makes that zero; otherwise one more Krylov
    step checks r(m)·v = 0.  Each u then lies in V_θ and is one product
    K·q_θ, K the matrix with columns v, mv, …, m^(k−1)v.  Over Q these
    are the sequences of B·m, B the lcm of the eigenvalues' denominators,
    at its integer eigenvalues B·θ; each vector is an integer vector over
    its least denominator and K holds them over one, so q_θ and K are
    integer and K·q_θ is a nonzero multiple of u.  Over GF(p) B = 1.  An
    echelon of the u from successive start vectors that reaches θ's
    multiplicity is V_θ, and its RREF basis is the one ``kernel(m − θI)``
    gives.  Start vectors are formed only while an eigenvalue lacks its
    dimension, and at most two beyond the largest multiplicity.

    When r(m)·v ≠ 0, m is not diagonalizable: r becomes χ, its simple
    eigenvalues take lines (χ/(x − θ))(m)·v, from sequences of length n,
    the first one again from that v, and its repeated ones
    ``kernel(m − θI)``.  The kernel also serves an eigenvalue that every
    start vector misses, and a repeated one of multiplicity above n/2,
    whose kernel has rank below n/2.
    """
    if not m.is_square:
        raise NotSquareError("eigen structure of a non-square matrix")
    if m.nrows == 0:
        raise NotSquareError("eigen structure of an empty matrix")
    F = m.field
    n = m.nrows
    poly = char_poly(m)
    roots = _in_field_roots_with_multiplicity(poly)
    total_mult = sum(mult for _, mult in roots)
    if total_mult < n:
        raise EigenvaluesOutsideFieldError(n - total_mult)
    spaces = _eigenspaces(m, roots)
    return EigenStructure(
        transform=m,
        eigenvalues=tuple(FieldElement(F, r) for r, _ in roots),
        eigenspaces=tuple(spaces),
        diagonalizable=sum(space.dim for space in spaces) == n,
    )


def _eigenspaces(m: Matrix, roots: list[tuple[Raw, int]]) -> list[SubspaceBasis]:
    """The eigenspace of each root, from Krylov sequences of fixed start vectors.

    ``roots`` are the (root, multiplicity) pairs of m's characteristic
    polynomial, which together account for its degree.  The sequences are
    those of N = B·m, B the lcm of the roots' denominators (1 over GF(p)),
    whose eigenvalues B·θ are integers.  Every polynomial, Krylov vector
    and product K·q is then on ints, reduced mod p over GF(p).

    The loop state is (r, wanted, quotients).  The first start vector
    whose r(N)·v is nonzero switches it to r = χ with only the simple
    roots wanted, and its sequence is formed again at length n, unless
    it already has n vectors (k + 1 = n): on a non-diagonalizable m at
    most k + 1 Krylov steps are formed twice.  The number of start
    vectors is bounded once, before the loop, by the largest multiplicity
    first wanted plus the spares.
    """
    F = m.field
    n = m.nrows
    p = _prime(F)
    scale = math.lcm(*[t.denominator for t, _ in roots])
    values = [t.numerator * (scale // t.denominator) for t, _ in roots]
    scaled = m if scale == 1 else m.scale(scale)
    r = _from_roots(values, p)
    # A repeated eigenvalue of multiplicity above n/2 would need more than
    # n/2 start vectors, and its kernel is cheap, being of rank below n/2.
    wanted = [mult if mult == 1 or 2 * mult <= n else 0 for _, mult in roots]
    spans = [_Echelon(F, n) for _ in roots]
    quotients = _quotients(r, values, min(len(r), n), p)
    for j in range(max(wanted) + _SPARE_START_VECTORS):
        lacking = [i for i, want in enumerate(wanted) if spans[i].dim < want]
        if not lacking:
            break
        start = _start_vector(F, n, j)
        # v, Nv, …, N^k·v for r of degree k: the last one only for the
        # check r(N)·v = 0, which Cayley–Hamilton makes when r = χ.
        krylov = _krylov_columns(scaled, start, min(len(r), n))
        if len(r) <= n and any(krylov.mul_line(r[::-1])):
            # m is not diagonalizable.  From here on r = χ: its simple
            # eigenvalues take lines (χ/(x - θ))(N)·v from sequences of
            # length n, this start vector's first, and its repeated ones
            # kernels.
            r = _from_roots([t for t, (_, mult) in zip(values, roots) for _ in range(mult)], p)
            quotients = _quotients(r, values, n, p)
            wanted = [int(mult == 1) for _, mult in roots]
            lacking = [i for i in lacking if wanted[i]]
            if lacking and krylov.ncols < n:
                krylov = _krylov_columns(scaled, start, n)
        for i in lacking:
            spans[i].insert(krylov.mul_line(quotients[i]))
    return [
        span.to_subspace() if span.dim == mult else kernel(m.minus_scalar(t))
        for span, (t, mult) in zip(spans, roots)
    ]


def _prime(field: FieldSpec) -> int:
    """The field's prime over GF(p); 0 over Q."""
    return field.p if isinstance(field, PrimeField) else 0


def _from_roots(values: Sequence[int], p: int) -> list[int]:
    """∏(x - t) over ``values``, high-to-low, on ints; reduced mod p when p is nonzero."""
    out = [1]
    for t in values:
        out = [a - t * b for a, b in zip(out + [0], [0] + out)]
        if p:
            out = [c % p for c in out]
    return out


def _start_vector(field: FieldSpec, n: int, j: int) -> tuple[int, ...]:
    """Start vector j of the Krylov sequences, on ints (residues over GF(p)).

    j = 0 gives (1, 2, …, n).  Every later one has entries in -3…3, read
    from the high bits of a fixed 64-bit linear congruential stream
    (Knuth's MMIX constants) started at j, so that its entries stay small
    over Q and do not repeat with the coordinate index mod a small p.
    """
    if not j:
        out = range(1, n + 1)
    else:
        out = []
        x = j
        for _ in range(n):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            out.append((x >> 32) % 7 - 3)
    p = _prime(field)
    return tuple(x % p for x in out) if p else tuple(out)


def _krylov_columns(m: Matrix, start: Sequence[int], length: int) -> Matrix:
    """The matrix K with columns v, mv, …, m^(length-1)·v over one denominator.

    ``start`` is v, on ints.  A step is one
    :meth:`~hesspairs.linalg.Matrix.mul_line`, which is (D·m)·y for an
    integer y, and one gcd that puts it in lowest terms, so over Q the
    entries grow with m^k·v and not with D^k.  K·(c_0, c_1, …) is then
    L·Σ c_k·m^k·v, L the lcm of the denominators, exactly, by
    ``K.mul_line``.
    """
    big = m.integer_rows()[1]
    sequence, dens = [start], [1]
    while len(sequence) < length:
        ys = m.mul_line(sequence[-1])
        den = big * dens[-1]
        g = math.gcd(den, *ys)
        sequence.append([y // g for y in ys] if g > 1 else ys)
        dens.append(den // g)
    common = math.lcm(*dens)
    columns = [v if d == common else [x * (common // d) for x in v] for v, d in zip(sequence, dens)]
    return Matrix(m.field, tuple(zip(*columns)))


def _quotients(r: list[int], values: list[int], width: int, p: int) -> list[list[int]]:
    """r/(x - t) for each root t of ``r`` (high-to-low), low-to-high, zero-padded to ``width``."""
    out = []
    for t in values:
        q = _synthetic_division(r, t, p)[0][::-1]
        out.append(q + [0] * (width - len(q)))
    return out


def is_decomposition(field: FieldSpec, ambient_dim: int, subspaces: Sequence[SubspaceBasis]) -> bool:
    """True when the subspaces are nonzero and their direct sum is K^n."""
    total = 0
    ech = _Echelon(field, ambient_dim)
    for s in subspaces:
        if s.field != field or s.ambient_dim != ambient_dim or s.is_zero:
            return False
        total += s.dim
        ech.insert_all(s.rows)
    # Direct sum to V: dimensions add up and the sum is everything.
    return total == ambient_dim and ech.dim == ambient_dim


def is_raising_decomposition(m: Matrix, subspaces: Sequence[SubspaceBasis], eigenvalues: Sequence) -> bool:
    """Check the raising-chain shape (m - t_i I) U_i ⊆ U_{i+1}, U_{last+1} = 0.

    The subspaces must form a decomposition of K^n and the scalars must be
    pairwise distinct (validated, not returned as False).  When this
    returns True, ``m`` is guaranteed diagonalizable with exactly the
    given scalars as eigenvalues and dim V_{t_i} = dim U_i.
    """
    if not m.is_square:
        raise NotSquareError("matrix is not square")
    F = m.field
    values = [F.coerce(t) for t in eigenvalues]
    if len(values) != len(subspaces):
        raise LengthMismatchError("one scalar per subspace is required")
    if len(set(values)) != len(values):
        raise DuplicateEigenvalueError("scalars must be pairwise distinct")
    if not is_decomposition(F, m.nrows, list(subspaces)):
        raise NotADecompositionError("subspaces do not form a direct-sum decomposition of K^n")
    d = len(subspaces) - 1
    for i, (space, t) in enumerate(zip(subspaces, values)):
        target = subspaces[i + 1]._as_echelon() if i < d else _Echelon(F, m.nrows)
        if not _shift_maps_into(m, t, space, target):
            return False
    return True
