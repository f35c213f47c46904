import math
import random
from fractions import Fraction

import pytest

from hesspairs import GF, QQ, Matrix, SubspaceBasis, subspace_sum
from hesspairs.errors import (
    DivisionByZeroError,
    InfiniteFieldError,
    MixedFieldsError,
    NotPrimeError,
)


def test_rational_addition_exact():
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == QQ.parse("5/6")


def test_gf5_inverse():
    assert GF(5).inv(3) == 2


def test_gf7_product():
    assert GF(7).mul(4, 5) == 6


def test_enumerate_rationals_rejected():
    with pytest.raises(InfiniteFieldError):
        QQ.order()


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldsError):
        GF(7).coerce(GF(5).element(1))
    with pytest.raises(MixedFieldsError):
        QQ.coerce(GF(5).element(1))
    with pytest.raises(MixedFieldsError):
        Matrix.identity(GF(5), 2) * Matrix.identity(GF(7), 2)
    with pytest.raises(MixedFieldsError):
        subspace_sum(SubspaceBasis.full(QQ, 2), SubspaceBasis.full(GF(5), 2))


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZeroError):
        QQ.inv(QQ.zero())
    with pytest.raises(DivisionByZeroError):
        GF(11).inv(0)


def test_non_prime_modulus_rejected():
    for bad in (1, 4, 9, 15, 2**31):
        with pytest.raises(NotPrimeError):
            GF(bad)


def test_is_prime_agrees_with_sieve():
    from hesspairs.fields import _is_prime

    # The sieve of Eratosthenes is trial division done in bulk.
    limit = 200_000
    sieve = [False, False] + [True] * (limit - 2)
    for f in range(2, int(limit**0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, limit, f))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # 25 326 001 = 2251 · 11251 is a strong pseudoprime to bases 2, 3 and 5.
    assert not _is_prime(25_326_001)
    with pytest.raises(NotPrimeError):
        GF(25_326_001)
    assert _is_prime(2**31 - 1) and GF(2**31 - 1).p == 2**31 - 1


@pytest.mark.parametrize("spec", [QQ, GF(2), GF(5), GF(97)])
def test_field_axioms_randomized(spec):
    rng = random.Random(7)
    add, mul = spec.add, spec.mul
    for _ in range(120):
        a, b, c = spec.rand(rng), spec.rand(rng), spec.rand(rng)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, spec.coerce(0)) == a
        assert mul(a, spec.coerce(1)) == a
        assert add(a, spec.neg(a)) == spec.coerce(0)


@pytest.mark.parametrize("spec", [QQ, GF(3), GF(101)])
def test_inverse_involution(spec):
    rng = random.Random(11)
    for _ in range(60):
        a = spec.rand_nonzero(rng)
        assert spec.inv(spec.inv(a)) == a
        assert spec.mul(a, spec.inv(a)) == spec.coerce(1)


def test_canonicalization_idempotent():
    # Re-coercing a canonical value changes nothing.
    x = QQ.element(Fraction(6, 4))
    assert x.value == Fraction(3, 2)
    assert QQ.element(x) == x
    y = GF(7).element(23)
    assert y.value == 2
    assert GF(7).element(y) == y


@pytest.mark.parametrize("spec", [QQ, GF(13)])
def test_text_round_trip(spec):
    rng = random.Random(3)
    for _ in range(40):
        v = spec.rand(rng)
        assert spec.parse(spec.format(v)) == v


def test_rational_text_form():
    assert QQ.format(Fraction(-5, 6)) == "-5/6"
    assert QQ.format(Fraction(4)) == "4"
    assert QQ.parse("7/2") == Fraction(7, 2)
    with pytest.raises(ValueError):
        QQ.parse("x")


def test_gf_text_form():
    spec = GF(5)
    assert spec.format(3) == "3"
    assert spec.parse("-1") == 4
    with pytest.raises(ValueError):
        spec.parse("2/3")


def test_element_str_and_bool():
    # The package tests zeros by truth value: a raw zero is falsy in both fields.
    assert str(QQ.element("3/9")) == "1/3"
    assert bool(GF(5).element(5).value) is False
    assert bool(GF(5).element(4).value) is True
    assert bool(QQ.element("0/7").value) is False
    assert bool(QQ.element("-1/7").value) is True


def test_subtraction_wraps():
    assert GF(5).sub(1, 3) == 3
    assert QQ.sub(QQ.parse("1/2"), QQ.parse("1/3")) == QQ.parse("1/6")


@pytest.mark.parametrize("spec", [GF(2), GF(3), GF(101), GF(2**31 - 1), QQ])
def test_dot_and_sub_scaled_match_termwise(spec):
    rng = random.Random(23)

    def vec(k):
        # About a third of the entries are zero, so the zero skips are exercised.
        return [spec.zero() if rng.random() < 0.35 else spec.rand(rng) for _ in range(k)]

    def fold(xs, ys):
        acc = spec.zero()
        for x, y in zip(xs, ys):
            acc = spec.add(acc, spec.mul(x, y))
        return acc

    cases = [([], []), ([], vec(3)), (vec(3), [])]
    cases += [(vec(k), vec(k)) for k in range(1, 9) for _ in range(5)]
    # Unequal lengths: zip truncation lets the shorter input set the length.
    cases += [(vec(rng.randint(1, 8)), vec(rng.randint(1, 8))) for _ in range(40)]
    cases = [(xs, spec.rand(rng), ys) for xs, ys in cases]
    if spec == QQ:
        cases += _wide_rational_cases(random.Random(29))
    for xs, c, ys in cases:
        for scale in (c, spec.zero()):
            dot, multiples = spec.dot(xs, ys), spec.scale(scale, ys)
            assert dot == fold(xs, ys)
            assert multiples == [spec.mul(scale, y) for y in ys]
            if spec != QQ:
                # Q's row operations run on integer images in linalg, which
                # test_linalg checks against a Fraction reference.
                scaled = spec.sub_scaled(xs, scale, ys)
                assert scaled == [spec.sub(x, spec.mul(scale, y)) for x, y in zip(xs, ys)]
            else:
                for v in [dot, *multiples]:
                    assert isinstance(v, Fraction)
                    assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


def _wide_rational_cases(rng):
    """(xs, c, ys) over Q for the integer-based dot and scale.

    Heights up to about 2^200 with mixed signs; runs of equal term
    denominators, runs of pairwise coprime ones and runs that switch
    between the two; zero x against nonzero y, and the reverse.
    """

    def height(bits):
        return rng.randint(-(2**bits), 2**bits)

    def rat(bits):
        return Fraction(height(bits), rng.randint(1, 2**bits))

    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    cases = []
    for bits in (1, 8, 64, 200):
        for k in range(1, 10):
            cases.append(([rat(bits) for _ in range(k)], rat(bits), [rat(bits) for _ in range(k)]))
            # Integer xs against ys over one prime: every term has that denominator.
            p = rng.choice(primes)
            ints = [Fraction(height(bits)) for _ in range(k)]
            same = [Fraction(height(bits) * p + rng.randint(1, p - 1), p) for _ in range(k)]
            cases.append((ints, rat(bits), same))
            # Pairwise coprime term denominators, then a switch back and forth.
            coprime = [Fraction(height(bits) * q + 1, q) for q in rng.sample(primes, k)]
            mixed = [Fraction(height(bits) * q + 1, q) for q in rng.choices([3, 3, 5, 1], k=k)]
            cases.append((ints, rat(bits), coprime))
            cases.append((coprime, rat(bits), mixed))
            # Zero x against nonzero y, and nonzero x against zero y.
            cases.append(([Fraction(0)] * k, rat(bits), coprime))
            cases.append((coprime, rat(bits), [Fraction(0)] * k))
    return cases
