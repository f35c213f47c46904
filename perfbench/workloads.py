"""Seeded corpora for the analyze benchmark.

``build(workload, seed)`` imports hesspairs, generates the workload's pairs
and encodes each as an analyze document.  The truth block is split off and
kept beside the document for checking; the program only ever sees
``Doc.text``.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

P31 = 2**31 - 1

# tri-scan: 7-8 one-dimensional eigenspaces per side, so the unpruned
# three-term scan in is_tridiagonal_pair (2*(d+1)! orderings) dominates.
# Entries: (kind, p or None for Q, shape, conjugated).  For sl2 the shape
# is d.
TRI_SCAN = [
    ("sl2", None, 6, False),
    ("sl2", 101, 7, False),
    ("sl2", 11, 6, True),
    ("sl2", P31, 6, False),
    ("split-form", 101, (1,) * 7, True),
    ("split-form", 11, (1,) * 7, False),
    ("split-form", P31, (1,) * 7, False),
    ("split-form", 11, (1,) * 7, True),
]

# wide-gfp: n = 12-16 with 4-5 eigenspaces of dimension 2-4, so the
# algebra closure (an echelon of width n^2) dominates.  Unimodal block
# dims keep nearly every split-form pair irreducible (over GF(7) one now
# and then comes out reducible), so the work per pass hardly depends on
# the seed.  For reducible-sum the shape is the summands' block dims.
WIDE_GFP = [
    ("split-form", 7, (2, 3, 4, 3, 2), False),
    ("split-form", 7, (2, 3, 4, 3, 2), False),
    ("split-form", 7, (2, 3, 4, 3, 2), True),
    ("reducible-sum", 7, ((1, 2, 1, 2), (2, 1, 2, 1)), False),
    ("split-form", 101, (2, 3, 4, 3, 2), False),
    ("split-form", 101, (2, 3, 4, 3, 2), True),
    ("split-form", 101, (2, 3, 4, 3, 2), True),
    ("reducible-sum", 101, ((2, 2, 2, 2), (2, 2, 2, 2)), False),
    ("split-form", P31, (2, 3, 4, 3), False),
    ("split-form", P31, (2, 3, 4, 3), True),
    ("split-form", P31, (2, 3, 4, 3), True),
    ("reducible-sum", P31, ((1, 2, 2, 1), (2, 1, 1, 2)), False),
]

# rational: small conjugated Q pairs.  "big" pairs get an A spectrum whose
# constant term |a0| lies in [0.9 * A0_BIG, A0_BIG], so _roots_rationals'
# divisor scan (sqrt|a0| trial divisions) dominates them.  Each divisor of
# a0 then costs two polynomial evaluations, and random draws have from 24
# to about 4000 divisors, so the divisor count is held to DIVISORS_BIG,
# the middle of its range.  Both bands keep the cost about the same for
# every seed.  The rest have eigenvalues in [-9, 9], where the Fraction
# echelons dominate.
A0_BIG = 10**12
DIVISORS_BIG = (240, 720)
_SMALL = [(1, 1, 1), (1, 2, 1), (1, 1, 1, 1)]
RATIONAL = (
    [("split-form", None, dims, True) for dims in _SMALL * 2]
    + [("split-form", None, dims, True) for dims in [(1, 2, 1, 1), (1, 1, 1, 1, 1)] * 2 + [(1, 2, 2, 1)]]
    + [("split-form", None, (2, 2), True)] * 2  # not absolutely irreducible: undetermined
    + [("sl2", None, d, True) for d in (2, 3, 4)]
    + [("split-form-big", None, dims, True) for dims in _SMALL[1:] * 6]
)

WORKLOADS = {"tri-scan": TRI_SCAN, "wide-gfp": WIDE_GFP, "rational": RATIONAL}


@dataclass(frozen=True)
class Doc:
    text: str           # the analyze input: field, A and Astar only
    truth: dict         # the generator's truth block, never sent to analyze
    label: str          # kind, field and shape, for the corpus fingerprint
    abs_a0: int | None  # largest |a0| of the two char polys, over Q only


def _eigenvalues(rng, field, k: int) -> list:
    pool = range(min(field.p, 10**9)) if field.is_finite else range(-9, 10)
    return rng.sample(pool, k)


def _big_eigenvalues(rng, dims) -> list[int]:
    """A eigenvalues for split-form blocks ``dims`` with |a0| and its divisor count in band."""
    m = A0_BIG ** (1 / sum(dims))
    while True:
        vals = [rng.choice((-1, 1)) * rng.randint(int(0.6 * m), int(1.4 * m)) for _ in dims]
        if (len(set(vals)) == len(vals) and 0.9 * A0_BIG <= _abs_a0(vals, dims) <= A0_BIG
                and DIVISORS_BIG[0] <= _divisor_count(vals, dims) <= DIVISORS_BIG[1]):
            return vals[::-1]  # block i carries va[d-i]


def _abs_a0(values, dims) -> int:
    a0 = 1
    for v, k in zip(values, dims):
        if v != 0:
            a0 *= abs(Fraction(v)) ** k
    return int(a0)


def _divisor_count(values, dims) -> int:
    """Number of divisors of prod(values[i] ** dims[i]), from each value's factors."""
    exponents = {}
    for v, k in zip(values, dims):
        v, f = abs(v), 2
        while f * f <= v:
            while v % f == 0:
                exponents[f] = exponents.get(f, 0) + k
                v //= f
            f += 1
        if v > 1:
            exponents[v] = exponents.get(v, 0) + k
    count = 1
    for e in exponents.values():
        count *= e + 1
    return count


def _unimodular(hp, field, n: int, rng):
    """A dense integer conjugator L*U with det 1, so its inverse is integral too.

    Over Q a uniformly random conjugator lets entry heights, and with them
    the cost of every Fraction operation, swing widely from seed to seed.
    """
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    return hp.Matrix.from_rows(field, lower) * hp.Matrix.from_rows(field, upper)


def _sl2(hp, field, d: int):
    """The weight-basis sl2 pair, with its split for the orderings (d, d-2, ..., -d).

    On a (d+1)-dimensional space, A has subdiagonal 1s and superdiagonal
    entries i(d+1-i); A* is diag(d, d-2, ..., -d).  U_0 is the A*-eigenline
    e_0 and U_{i+1} = (A - theta_{d-i}) U_i, which is the split's defining
    recursion for one-dimensional U_i.
    """
    n = d + 1
    zero = field.zero()
    grid = [[zero] * n for _ in range(n)]
    for i in range(1, n):
        grid[i][i - 1] = field.one()                     # lowering
        grid[i - 1][i] = field.coerce(i * (d + 1 - i))   # raising
    a = hp.Matrix(field, tuple(tuple(r) for r in grid), ncols=n)
    a_star = hp.Matrix.diagonal(field, [d - 2 * i for i in range(n)])
    theta = [d - 2 * i for i in range(n)]
    u = [field.one()] + [zero] * d
    flag = []
    for i in range(n):
        flag.append(hp.SubspaceBasis.from_vectors(field, n, [u]))
        u = a.minus_scalar(field.coerce(theta[d - i])).mul_vec(u)
    values = tuple(field.element(t) for t in theta)
    truth = hp.InstanceTruth(
        kind="sl2", dims=(1,) * n, eigenvalues_a=values, eigenvalues_a_star=values,
        flag=tuple(flag), seed=0,
    )
    return hp.GeneratedInstance(a=a, a_star=a_star, truth=truth), theta, theta


def _generate(hp, kind, field, shape, rng):
    """One instance plus its A and A* eigenvalue sequences."""
    if kind == "sl2":
        return _sl2(hp, field, shape)
    if kind == "reducible-sum":
        va, vb = _eigenvalues(rng, field, len(shape[0])), _eigenvalues(rng, field, len(shape[0]))
        return hp.gen_reducible(field, shape, va, vb, rng.randrange(2**30)), va, vb
    if kind == "split-form-big":
        va = _big_eigenvalues(rng, shape)
    else:
        va = _eigenvalues(rng, field, len(shape))
    vb = _eigenvalues(rng, field, len(shape))
    return hp.gen_split_form(field, shape, va, vb, rng.randrange(2**30)), va, vb


def build(workload: str, seed: int) -> list[Doc]:
    """Generate and JSON-encode the workload's documents for ``seed``."""
    import hesspairs as hp
    from hesspairs import cli

    rng = random.Random(f"{workload}:{seed}")
    docs = []
    for kind, p, shape, conjugated in WORKLOADS[workload]:
        field = hp.QQ if p is None else hp.GF(p)
        inst, va, vb = _generate(hp, kind, field, shape, rng)
        dims = inst.truth.dims
        if conjugated:
            n = inst.a.nrows
            conjugator = None if field.is_finite else _unimodular(hp, field, n, rng)
            inst = hp.conjugate(inst, rng.randrange(2**30), conjugator=conjugator)
        doc = cli.instance_to_document(inst)
        truth = doc.pop("truth")
        field_name = "Q" if p is None else f"GF({p})"
        label = " ".join([kind + ("/conjugated" if conjugated else ""), field_name, str(shape)])
        # Block i has A-eigenvalue va[d-i] and A*-eigenvalue vb[i].
        abs_a0 = None if p is not None else max(_abs_a0(va, dims[::-1]), _abs_a0(vb, dims))
        docs.append(Doc(json.dumps(doc, sort_keys=True), truth, label, abs_a0))
    return docs
