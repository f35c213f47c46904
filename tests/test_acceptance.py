"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact -- a criterion passes only with zero failures.
Instances come from the seeded generators, so the corpus is identical on
every run.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines and timings.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import rand_diagonalizable, rand_matrix, rand_subspace, remix_basis
from hesspairs import (
    GF,
    QQ,
    EigenOrdering,
    IrreducibilityStatus,
    Matrix,
    SplitDecomposition,
    SubspaceBasis,
    antidiagonal_span,
    apply,
    build_intersection_lattice,
    char_poly,
    construct_split,
    decide_irreducible,
    decide_irreducible_by_enumeration,
    dimension_profile,
    eigen_structure,
    find_hessenberg_orderings_of,
    gen_split_form,
    gen_tridiagonal_form,
    is_tridiagonal_pair,
    recover_hessenberg_from_split,
    rref,
    split_from_flags,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
    verify_invariant,
    verify_split,
)
from hesspairs.cli import main as cli_main
from hesspairs.pairs import (
    DEFAULT_MAX_ORDERINGS,
    _admissible_side_orderings,
    _ordering_pairs,
    _scan_orderings,
    _side_condition_holds,
    _three_term_side_holds,
)

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {number:2d} FAIL ({elapsed:6.2f}s): {description}")
                raise
            elapsed = time.perf_counter() - start
            extra = f" [{detail}]" if detail else ""
            print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {description}{extra}")

        return wrapper

    return deco


# -- corpus -----------------------------------------------------------------------


def _corpus_configs():
    """200 deterministic split-form configurations: four fields, d <= 4,
    block dims <= 3, ambient dimension <= 8.

    Heavy on multiplicity-one shapes because those are irreducible with
    high probability; block shapes where two facing eigenspaces must
    overlap (some 2*dims[i] > n) are kept as deliberate reducible
    coverage, including the pinned (2,3) profile.
    """
    rng = random.Random(20240808)
    fields = [GF(5), GF(7), GF(11)]
    configs = [
        # pinned non-uniform profiles for the dimension corollary
        (GF(7), (1, 2, 1)),
        (QQ, (1, 2, 1)),
        (GF(11), (1, 2, 1)),
        (GF(5), (2, 3)),
        (QQ, (2, 3)),
        (GF(11), (2, 3)),
        # deliberate degenerate/reducible shapes
        (GF(5), (2,)),
        (QQ, (3,)),
        (GF(7), (2, 1)),
        (GF(7), (1, 3, 1)),
        (GF(11), (3, 1, 2)),
        (QQ, (1, 1, 3)),
    ]
    def pick_field(i):
        return QQ if i % 7 == 3 else fields[i % 3]

    while len(configs) < 132:  # multiplicity-one block of the corpus
        d = rng.randint(1, 4)
        configs.append((pick_field(len(configs)), (1,) * (d + 1)))
    while len(configs) < 152:
        configs.append((pick_field(len(configs)), (1,)))
    while len(configs) < 200:  # balanced block shapes
        d = rng.randint(1, 4)
        while True:
            dims = tuple(rng.randint(1, 3) for _ in range(d + 1))
            n = sum(dims)
            if n <= 8 and all(2 * w <= n for w in dims):
                break
        configs.append((pick_field(len(configs)), dims))
    return configs


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(99)
    instances = []
    for seed, (field, dims) in enumerate(_corpus_configs()):
        d = len(dims) - 1
        pool = range(field.p) if field.is_finite else range(-6, 7)
        va = rng.sample(list(pool), d + 1)
        vb = rng.sample(list(pool), d + 1)
        instances.append(gen_split_form(field, dims, va, vb, seed=seed))
    return instances


@pytest.fixture(scope="module")
def verdicts(corpus):
    return [
        decide_irreducible(inst.a, inst.a_star, eigen_a=None, eigen_a_star=None)
        for inst in corpus
    ]


def generating_orderings(inst):
    ord_a = EigenOrdering.from_eigenvalues(
        eigen_structure(inst.a), [v.value for v in inst.truth.eigenvalues_a]
    )
    ord_b = EigenOrdering.from_eigenvalues(
        eigen_structure(inst.a_star), [v.value for v in inst.truth.eigenvalues_a_star]
    )
    return ord_a, ord_b


@criterion(1, "split-form instances verify and recover the Hessenberg property")
def test_criterion_1_forward_suite(corpus):
    assert len(corpus) == 200
    for inst in corpus:
        split = inst.split()
        assert verify_split(inst.a, inst.a_star, split)
        assert recover_hessenberg_from_split(inst.a, inst.a_star, split)
    return "200 instances"


@criterion(2, "irreducible instances: constructed split equals the closed formula, d = d*")
def test_criterion_2_round_trip(corpus, verdicts):
    checked = 0
    for inst, verdict in zip(corpus, verdicts):
        if verdict.status is not IrreducibilityStatus.IRREDUCIBLE:
            continue
        checked += 1
        ord_a, ord_b = generating_orderings(inst)
        assert ord_a.eigen.d == ord_b.eigen.d  # the two eigenspace counts agree
        constructed = construct_split(inst.a, inst.a_star, ord_a, ord_b, verdict)
        formula = split_from_flags(ord_a, ord_b)
        assert constructed == formula
        assert constructed.subspaces == inst.truth.flag
    assert checked >= 100
    return f"{checked} irreducible instances"


@criterion(3, "split uniqueness under re-basing; corrupted candidates fail")
def test_criterion_3_uniqueness(corpus, verdicts):
    rng = random.Random(303)
    eligible = [
        inst
        for inst, verdict in zip(corpus, verdicts)
        if verdict.status is IrreducibilityStatus.IRREDUCIBLE and len(inst.truth.flag) >= 2
    ][:50]
    assert len(eligible) == 50
    for inst in eligible:
        split = inst.split()
        field, n = inst.a.field, inst.a.nrows
        rebased = SplitDecomposition(
            subspaces=tuple(
                SubspaceBasis.from_vectors(field, n, remix_basis(u, rng))
                for u in split.subspaces
            ),
            eigenvalues_a=split.eigenvalues_a,
            eigenvalues_a_star=split.eigenvalues_a_star,
        )
        assert rebased == split
        assert verify_split(inst.a, inst.a_star, rebased)
        # Swap two subspaces.
        subs = list(split.subspaces)
        subs[0], subs[1] = subs[1], subs[0]
        swapped = SplitDecomposition(
            subspaces=tuple(subs),
            eigenvalues_a=split.eigenvalues_a,
            eigenvalues_a_star=split.eigenvalues_a_star,
        )
        assert not verify_split(inst.a, inst.a_star, swapped)
        # Perturb a basis vector out of its subspace.
        u0 = list(split.subspaces[0].rows[0])
        foreign = split.subspaces[1].rows[0]
        perturbed = [field.add(x, y) for x, y in zip(u0, foreign)]
        rows = [perturbed] + [list(r) for r in split.subspaces[0].rows[1:]]
        corrupted = SplitDecomposition(
            subspaces=(SubspaceBasis.from_vectors(field, n, rows),) + split.subspaces[1:],
            eigenvalues_a=split.eigenvalues_a,
            eigenvalues_a_star=split.eigenvalues_a_star,
        )
        assert not verify_split(inst.a, inst.a_star, corrupted)
    return "50 instances x 3 checks"


@criterion(4, "lattice: cells vanish below the antidiagonal, spans behave, actions hold")
def test_criterion_4_lattice(corpus, verdicts):
    checked = 0
    for inst, verdict in zip(corpus, verdicts):
        if verdict.status is not IrreducibilityStatus.IRREDUCIBLE:
            continue
        checked += 1
        ord_a, ord_b = generating_orderings(inst)
        lat = build_intersection_lattice(ord_a, ord_b)
        d, d_star = lat.d, lat.d_star
        assert d == d_star
        va = [v.value for v in ord_a.eigenvalues]
        vb = [v.value for v in ord_b.eigenvalues]
        for i in range(d + 1):
            for j in range(d_star + 1):
                cell = lat.cell(i, j)
                if i + j < d:
                    assert cell.is_zero
                down = apply(inst.a.minus_scalar(va[i]), cell)
                assert subspace_contains(lat.cell(i - 1, j + 1), down)
                up = apply(inst.a_star.minus_scalar(vb[j]), cell)
                assert subspace_contains(lat.cell(i + 1, j - 1), up)
        for r in range(d):
            assert antidiagonal_span(lat, r).is_zero
        assert antidiagonal_span(lat, d).is_full
    assert checked >= 100
    return f"{checked} lattices"


@criterion(5, "dimension corollary: dim V_(d-i) = dim V*_i = dim U_i")
def test_criterion_5_dimension_profiles(corpus):
    # The corollary needs only a verified split decomposition, never
    # irreducibility, so it runs over the whole corpus.  (A (2,3) profile
    # can never be irreducible: the two 3-dimensional facing eigenspaces
    # must share a line, so restricting to irreducible instances would
    # make the required profile unreachable.)
    profiles_seen = set()
    for inst in corpus:
        ord_a, ord_b = generating_orderings(inst)
        profile = dimension_profile(inst.split(), ord_a, ord_b)
        assert profile.consistent, profile.mismatches()
        assert profile.subspace_dims == inst.truth.dims
        profiles_seen.add(inst.truth.dims)
    assert (1, 2, 1) in profiles_seen
    assert (2, 3) in profiles_seen
    return f"{len(corpus)} profiles incl. (1,2,1) and (2,3)"


def _tridiagonal_corpus():
    specs = []
    for i in range(17):
        specs.append((GF(5), (1, 1), (0, 1), (2, 3), i))
    for i in range(6):
        specs.append((GF(7), (1, 1), (0, 1), (2, 3), i))
        specs.append((GF(11), (1, 1), (1, 2), (0, 4), i))
    for i in range(8):
        specs.append((GF(5), (1, 1, 1), (0, 1, 2), (0, 1, 2), i))
        specs.append((GF(7), (1, 1, 1), (0, 1, 2), (3, 4, 5), i))
    for i in range(2):
        specs.append((GF(11), (1, 2, 1), (0, 1, 2), (0, 1, 2), i))
        specs.append((GF(7), (1, 1, 1, 1), (0, 1, 2, 3), (0, 1, 2, 3), i))
    return specs  # 49 finite-field specs; one rational instance joins below


@criterion(6, "tridiagonal detection: reversal criterion vs three-term oracle, witness counts")
def test_criterion_6_tridiagonal_equivalence():
    # Positive side: 50 certified tridiagonal instances.  is_tridiagonal_pair
    # reports the reversal closure of each side's admissible orderings; the
    # loop below checks it per side against the echelon scan of the direct
    # three-term inclusions.
    positives = [
        gen_tridiagonal_form(field, dims, va, vb, seed)
        for field, dims, va, vb, seed in _tridiagonal_corpus()
    ]
    positives.append(gen_tridiagonal_form(QQ, (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=1))
    assert len(positives) == 50
    for inst in positives:
        verdict = decide_irreducible(inst.a, inst.a_star)
        ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star, verdict=verdict)
        assert ok
        eig_a = eigen_structure(inst.a)
        eig_b = eigen_structure(inst.a_star)
        assert eig_a.d == eig_b.d  # tridiagonal pairs have equal eigenspace counts
        d = eig_a.d
        assert len(witnesses) == (4 if d >= 1 else 1)
        # The per-side equivalence, restated from the definitions.
        for eig, acting in ((eig_a, inst.a_star), (eig_b, inst.a)):
            admissible = set(_admissible_side_orderings(eig, acting, 40320))
            reversal = {p for p in admissible if p[::-1] in admissible}
            three_term = {
                p
                for p in itertools.permutations(range(eig.d + 1))
                if _three_term_side_holds(acting, EigenOrdering(eig, p))
            }
            assert reversal == three_term
    # Negative side: 50 split-form instances that are not tridiagonal.
    negatives = 0
    seed = 0
    while negatives < 50:
        seed += 1
        assert seed < 400, "generic split-form instances stopped being non-tridiagonal"
        field = (GF(7), GF(11), GF(13))[seed % 3]
        dims = ((1, 1, 1), (1, 1, 1, 1), (1, 2, 1))[seed % 3]
        d = len(dims) - 1
        values = list(range(d + 1))
        inst = gen_split_form(field, dims, values, values, seed=seed)
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is IrreducibilityStatus.UNDETERMINED:
            continue
        ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star, verdict=verdict)
        if ok:
            continue  # exceptional split-form instance that is tridiagonal
        assert witnesses == []
        negatives += 1
    return "50 tridiagonal + 50 non-tridiagonal, oracle agreed on each"


@criterion(7, "irreducibility ladder agrees with all-subspace enumeration")
def test_criterion_7_irreducibility_oracle():
    rng = random.Random(707)
    checked = 0
    for field in (GF(2), GF(3)):
        for _ in range(100):
            n = rng.randint(1, 4)
            a = rand_matrix(field, n, rng)
            b = rand_matrix(field, n, rng)
            fast = decide_irreducible(a, b)
            slow = decide_irreducible_by_enumeration(a, b)
            assert fast.status == slow.status
            assert fast.status in (
                IrreducibilityStatus.IRREDUCIBLE,
                IrreducibilityStatus.REDUCIBLE,
            )
            if fast.witness is not None:
                assert verify_invariant(fast.witness, a, b)
                assert 0 < fast.witness.dim < n
            checked += 1
    assert checked == 200
    return "200 pairs over GF(2) and GF(3)"


@criterion(8, "block-pattern ordering search equals the echelon scan")
def test_criterion_8_ordering_oracle(corpus):
    rng = random.Random(808)
    pairs = []
    # Random diagonalizable pairs, eigenspace counts up to 5 per side.
    for _ in range(85):
        field = rng.choice([GF(5), GF(7), GF(11)])
        n = rng.randint(2, 6)
        pool = list(range(field.p))
        a = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        b = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        pairs.append((a, b))
    # Hessenberg-rich pairs where the search has real work to do.
    for inst in corpus[:15]:
        pairs.append((inst.a, inst.a_star))
    assert len(pairs) == 100
    for a, b in pairs:
        eig_a, eig_b = eigen_structure(a), eigen_structure(b)
        fast = find_hessenberg_orderings_of(a, b, eig_a, eig_b)
        sides = (_scan_orderings(eig_a, b, _side_condition_holds), _scan_orderings(eig_b, a, _side_condition_holds))
        slow = _ordering_pairs(eig_a, eig_b, *sides, DEFAULT_MAX_ORDERINGS)
        key = lambda p: (p[0].perm, p[1].perm)  # noqa: E731
        assert sorted(fast, key=key) == sorted(slow, key=key)
    return "100 diagonalizable pairs"


@criterion(9, "substrate: modular law, Zassenhaus vs enumeration, Cayley-Hamilton, idempotence")
def test_criterion_9_substrate():
    rng = random.Random(909)
    cases = 0
    # Modular dimension law.
    for _ in range(200):
        field = rng.choice([GF(2), GF(3), GF(5)])
        n = rng.randint(1, 6)
        a = rand_subspace(field, n, rng.randint(0, n), rng)
        b = rand_subspace(field, n, rng.randint(0, n), rng)
        assert a.dim + b.dim == subspace_sum(a, b).dim + subspace_intersect(a, b).dim
        cases += 1
    # Zassenhaus intersection vs vector enumeration over GF(2), n = 4.
    field = GF(2)
    for _ in range(100):
        a = rand_subspace(field, 4, rng.randint(0, 4), rng)
        b = rand_subspace(field, 4, rng.randint(0, 4), rng)
        common = [
            v
            for v in itertools.product(range(2), repeat=4)
            if a.contains_vector(v) and b.contains_vector(v)
        ]
        assert subspace_intersect(a, b) == SubspaceBasis.from_vectors(field, 4, common)
        cases += 1
    # Cayley-Hamilton.
    for _ in range(100):
        field = rng.choice([GF(3), GF(7), QQ])
        n = rng.randint(1, 5)
        m = rand_matrix(field, n, rng)
        assert char_poly(m).eval_matrix(m).is_zero()
        cases += 1
    # Canonicalization is idempotent and presentation-independent.
    for _ in range(100):
        field = rng.choice([GF(5), QQ])
        n = rng.randint(1, 5)
        s = rand_subspace(field, n, rng.randint(0, n), rng)
        again, rank = rref(Matrix(field, s.rows, ncols=n))
        assert rank == s.dim
        if s.dim:
            assert again == s
            assert SubspaceBasis.from_vectors(field, n, remix_basis(s, rng)) == s
        cases += 1
    assert cases == 500
    return "500 cases"


@criterion(10, "analyze is byte-identical across runs on the fixture corpus")
def test_criterion_10_determinism():
    fixtures = sorted(FIXTURES.glob("pair_*.json"))
    assert len(fixtures) >= 8
    outputs = []
    for _ in range(2):
        run_output = []
        for fixture in fixtures:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["analyze", str(fixture)])
            assert code == 0
            run_output.append(buf.getvalue())
        outputs.append(run_output)
    assert outputs[0] == outputs[1]
    for text in outputs[0]:
        json.loads(text)  # stays parseable
    return f"{len(fixtures)} documents x 2 runs"
