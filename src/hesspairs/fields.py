"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Two kinds of field are supported, both exact:

* :class:`Rationals` -- arbitrary-precision fractions (``fractions.Fraction``
  underneath, so overflow is impossible).
* :class:`PrimeField` -- GF(p) for a machine-word prime p, residues stored
  as plain ints in ``[0, p)``.

A field object does double duty: it identifies the field (value equality,
hashable) and implements arithmetic on *raw* canonical values.  Raw values
are what matrices, subspace bases and polynomials store, and every
computation runs on them.  :class:`FieldElement` only tags a value with its
field at API boundaries (eigenvalues, split eigenvalue sequences, generator
truth); it does no arithmetic.

Two vector primitives serve both fields: :meth:`FieldSpec.dot` (Σ x·y),
behind polynomial products and the algebra closure's block products, and
:meth:`FieldSpec.scale` (c·y entrywise).  Both work on integers and build
one canonical value per result entry: over GF(p) one reduction modulo p,
over Q one ``Fraction(numerator, denominator)`` formed from the integer
numerators and denominators of the inputs.
:meth:`PrimeField.sub_scaled` (x − c·y entrywise) is the GF(p) echelon
row operation and the Hessenberg reduction's.  Matrix products run on
images kept on the matrix instead (:mod:`hesspairs.linalg`): packed
columns over GF(p), integer images over Q, where the Berkowitz
recurrence and echelons run on integers too, so Q has no row operation
on ``Fraction``s.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Union

from .errors import (
    DivisionByZeroError,
    HesspairsError,
    InfiniteFieldError,
    MixedFieldsError,
    NotPrimeError,
)

# Raw scalar: Fraction over the rationals, int residue over GF(p).
Raw = Union[Fraction, int]

_MAX_PRIME = 2**31  # machine-word primes only
_WITNESSES = (2, 3, 5, 7)

# Fractions are immutable, so Q's zero and one are shared constants.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3 215 031 751 > _MAX_PRIME.

    Bases 2, 3, 5 and 7 have no common strong pseudoprime below that bound.
    """
    if n < 2:
        return False
    for b in _WITNESSES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Common interface of the two field kinds.

    Subclasses implement exact arithmetic on raw canonical values.  All
    instances are immutable and hashable, so they can tag every matrix,
    subspace and scalar without copying.
    """

    kind: str

    # arithmetic on raw values ------------------------------------------

    def zero(self) -> Raw:
        raise NotImplementedError

    def one(self) -> Raw:
        raise NotImplementedError

    def add(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def sub(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def mul(self, a: Raw, b: Raw) -> Raw:
        raise NotImplementedError

    def neg(self, a: Raw) -> Raw:
        raise NotImplementedError

    def inv(self, a: Raw) -> Raw:
        raise NotImplementedError

    # vector primitives on raw values -------------------------------------

    def dot(self, xs: Iterable[Raw], ys: Iterable[Raw]) -> Raw:
        """Σ x·y over ``zip(xs, ys)``: the shorter input sets the length."""
        raise NotImplementedError

    def scale(self, c: Raw, ys: Iterable[Raw]) -> list[Raw]:
        """``[c·y for y in ys]``."""
        raise NotImplementedError

    # conversion ---------------------------------------------------------

    def coerce(self, x) -> Raw:
        """Normalize ``x`` (int, raw value, text or FieldElement) to a raw value."""
        raise NotImplementedError

    def parse(self, text: str) -> Raw:
        """Parse the canonical text form; raises ValueError on bad input."""
        raise NotImplementedError

    def format(self, value: Raw) -> str:
        """Canonical text form ("n" or "n/d" over Q, residue over GF(p)).

        A scalar with more digits than the interpreter converts to text
        (``sys.get_int_max_str_digits()``, 4300 by default) raises
        :class:`~hesspairs.errors.HesspairsError`, so an output that holds
        one fails as a structured error.
        """
        try:
            return str(value)
        except ValueError as exc:
            raise HesspairsError(
                f"scalar too large to print: more than {sys.get_int_max_str_digits()} digits"
            ) from exc

    def element(self, x) -> "FieldElement":
        return FieldElement(self, self.coerce(x))

    # size / sampling ------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def order(self) -> int:
        """Number of elements; InfiniteFieldError over the rationals."""
        raise InfiniteFieldError("the rationals cannot be enumerated")

    def rand(self, rng) -> Raw:
        raise NotImplementedError

    def rand_nonzero(self, rng) -> Raw:
        while True:
            v = self.rand(rng)
            if v:
                return v

    # helpers --------------------------------------------------------------

    def check_same(self, other: "FieldSpec") -> None:
        if self != other:
            raise MixedFieldsError(f"mixed fields: {self} and {other}")

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Rationals(FieldSpec):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    kind = "Q"

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZeroError("inverse of zero")
        return 1 / a

    # Every Fraction operation reduces by a gcd, so the sum is kept as an
    # integer numerator n over the lcm d of the term denominators and
    # reduced once, at the end.  A term with denominator d is added as is.
    def dot(self, xs, ys):
        n, d = 0, 1
        for x, y in zip(xs, ys):
            if x and y:
                tn = x.numerator * y.numerator
                td = x.denominator * y.denominator
                if td == d:
                    n += tn
                else:
                    g = gcd(d, td)
                    n, d = n * (td // g) + tn * (d // g), d // g * td
        return Fraction(n, d)

    # c·y = (c.n·y.n) / (c.d·y.d): one Fraction per entry.
    def scale(self, c, ys):
        cn, cd = c.numerator, c.denominator
        return [Fraction(cn * y.numerator, cd * y.denominator) if y else y for y in ys]

    def coerce(self, x) -> Fraction:
        if isinstance(x, FieldElement):
            self.check_same(x.spec)
            return x.value
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {text!r}") from exc

    @property
    def is_finite(self) -> bool:
        return False

    def rand(self, rng) -> Fraction:
        # Small numerators and denominators keep generated instances readable.
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def to_json(self) -> dict:
        return {"kind": "Q"}

    def __repr__(self) -> str:
        return "Q"


@dataclass(frozen=True, slots=True)
class PrimeField(FieldSpec):
    """GF(p) for a prime p below 2^31; residues are ints in [0, p)."""

    p: int

    kind = "GF"

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < _MAX_PRIME:
            raise NotPrimeError(f"modulus must be a prime in [2, 2^31): {self.p}")
        if not _is_prime(self.p):
            raise NotPrimeError(f"modulus is not prime: {self.p}")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZeroError("inverse of zero")
        return pow(a, -1, self.p)

    # Integer products are exact, so the sum is reduced once, not per term.
    def dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def sub_scaled(self, xs: Iterable[int], c: int, ys: Iterable[int]) -> list[int]:
        """``[x - c·y for x, y in zip(xs, ys)]``, reduced mod p."""
        p = self.p
        return [(x - c * y) % p if y else x for x, y in zip(xs, ys)]

    def scale(self, c, ys):
        p = self.p
        return [c * y % p for y in ys]

    def coerce(self, x) -> int:
        if isinstance(x, FieldElement):
            self.check_same(x.spec)
            return x.value
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            raise TypeError(f"cannot coerce fraction {x} into {self}")
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def parse(self, text: str) -> int:
        try:
            return int(text.strip(), 10) % self.p
        except ValueError as exc:
            raise ValueError(f"not a GF({self.p}) scalar: {text!r}") from exc

    @property
    def is_finite(self) -> bool:
        return True

    def order(self) -> int:
        return self.p

    def rand(self, rng) -> int:
        return rng.randrange(self.p)

    def to_json(self) -> dict:
        return {"kind": "GF", "p": self.p}

    def __repr__(self) -> str:
        return f"GF({self.p})"


#: Shared instance of the rational field.
QQ = Rationals()


def GF(p: int) -> PrimeField:
    """Convenience constructor for GF(p)."""
    return PrimeField(p)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An exact scalar tagged with its field; it does no arithmetic.

    Values are always canonical: reduced fraction over Q, residue in
    ``[0, p)`` over GF(p).  Computation runs on raw values through the
    :class:`FieldSpec` methods.
    """

    spec: FieldSpec
    value: Raw

    def __str__(self) -> str:
        return self.spec.format(self.value)

    def __repr__(self) -> str:
        return f"{self.spec.format(self.value)}@{self.spec!r}"
