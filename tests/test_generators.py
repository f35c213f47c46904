import dataclasses
import itertools
import random

import pytest

from conftest import ordering_for
from hesspairs import generators
from hesspairs import (
    GF,
    QQ,
    IrreducibilityStatus,
    Matrix,
    construct_split,
    conjugate,
    decide_irreducible,
    eigen_structure,
    find_hessenberg_orderings,
    gen_reducible,
    gen_split_form,
    gen_tridiagonal_form,
    is_tridiagonal_pair,
    recover_hessenberg_from_split,
    verify_invariant,
    verify_split,
)
from hesspairs.errors import (
    AmbientMismatchError,
    DuplicateEigenvalueError,
    EmptyDimsError,
    GenerationBudgetError,
    LengthMismatchError,
    OracleDisagreementError,
    SingularConjugatorError,
)


def test_split_form_canonical_worked_example():
    # Block i carries a[d-i] for A and a*[i] for A*; A is lower and A* upper
    # bidiagonal, with every drawn off-diagonal entry nonzero.
    inst = gen_split_form(QQ, (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=0)
    a, a_star = inst.a.entries, inst.a_star.entries
    assert [a[i][i] for i in range(3)] == [2, 1, 0]
    assert [a_star[i][i] for i in range(3)] == [0, 1, 2]
    assert all(a[i + 1][i] != 0 and a_star[i][i + 1] != 0 for i in range(2))
    for i, j in itertools.product(range(3), repeat=2):
        assert a[i][j] == 0 or i - j in (0, 1)
        assert a_star[i][j] == 0 or j - i in (0, 1)


def test_split_form_single_block_is_scalar_pair():
    inst = gen_split_form(GF(5), (3,), (2,), (4,), seed=1)
    assert inst.a == Matrix.scalar(GF(5), 3, 2)
    assert inst.a_star == Matrix.scalar(GF(5), 3, 4)
    assert verify_split(inst.a, inst.a_star, inst.split())


def test_split_form_outputs_verify_and_recover():
    rng = random.Random(50)
    for seed in range(12):
        field = rng.choice([GF(5), GF(7), GF(11), QQ])
        d = rng.randint(0, 3)
        dims = tuple(rng.randint(1, 2) for _ in range(d + 1))
        pool = list(range(field.p if field.is_finite else 9))
        va = rng.sample(pool, d + 1)
        vb = rng.sample(pool, d + 1)
        inst = gen_split_form(field, dims, va, vb, seed=seed)
        split = inst.split()
        assert verify_split(inst.a, inst.a_star, split)
        assert recover_hessenberg_from_split(inst.a, inst.a_star, split)


def test_split_form_irreducible_round_trip_exact():
    hits = 0
    for seed in range(10):
        inst = gen_split_form(GF(7), (1, 2, 1), (0, 1, 2), (3, 4, 5), seed=seed)
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is not IrreducibilityStatus.IRREDUCIBLE:
            continue
        hits += 1
        ord_a = ordering_for(inst.a, [0, 1, 2])
        ord_b = ordering_for(inst.a_star, [3, 4, 5])
        split = construct_split(inst.a, inst.a_star, ord_a, ord_b, verdict)
        assert split.subspaces == inst.truth.flag
    assert hits >= 5  # blockier shapes are reducible with noticeable probability


def test_split_form_validations():
    with pytest.raises(EmptyDimsError):
        gen_split_form(QQ, (), (), (), seed=0)
    with pytest.raises(EmptyDimsError):
        gen_split_form(QQ, (1, 0), (0, 1), (0, 1), seed=0)
    with pytest.raises(LengthMismatchError):
        gen_split_form(QQ, (1, 1), (0, 1, 2), (0, 1), seed=0)
    with pytest.raises(DuplicateEigenvalueError):
        gen_split_form(QQ, (1, 1), (5, 5), (0, 1), seed=0)
    with pytest.raises(DuplicateEigenvalueError):
        gen_split_form(GF(3), (1, 1), (0, 1), (2, 5), seed=0)  # 5 = 2 mod 3


def test_split_form_deterministic():
    a = gen_split_form(GF(11), (1, 2), (0, 1), (2, 3), seed=7)
    b = gen_split_form(GF(11), (1, 2), (0, 1), (2, 3), seed=7)
    assert a.a == b.a and a.a_star == b.a_star and a.truth.flag == b.truth.flag
    c = gen_split_form(GF(11), (1, 2), (0, 1), (2, 3), seed=8)
    assert (a.a, a.a_star) != (c.a, c.a_star)


def test_reducible_sum_properties():
    inst = gen_reducible(GF(5), [(1, 1), (2, 1)], (0, 1), (2, 3), seed=3)
    assert inst.truth.dims == (3, 2)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verify_invariant(verdict.witness, inst.a, inst.a_star)
    assert verify_invariant(inst.truth.witness, inst.a, inst.a_star)
    assert 0 < inst.truth.witness.dim < inst.a.nrows
    # The combined flag is still a split decomposition (no irreducibility
    # needed for the split-to-Hessenberg direction).
    assert verify_split(inst.a, inst.a_star, inst.split())
    assert recover_hessenberg_from_split(inst.a, inst.a_star, inst.split())


def test_reducible_sum_of_scalars():
    inst = gen_reducible(QQ, [(1,), (1,)], (4,), (9,), seed=4)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert inst.truth.witness.dim == 1


def test_reducible_needs_two_summands():
    with pytest.raises(EmptyDimsError):
        gen_reducible(QQ, [(1, 1)], (0, 1), (0, 1), seed=0)


def test_conjugate_by_identity_changes_nothing():
    inst = gen_split_form(GF(7), (1, 1), (0, 1), (2, 3), seed=5)
    same = conjugate(inst, seed=0, conjugator=Matrix.identity(GF(7), 2))
    assert same.a == inst.a
    assert same.a_star == inst.a_star
    assert same.truth.flag == inst.truth.flag
    assert same.truth.base_kind == "split-form"


def test_conjugate_rejects_singular_conjugator():
    inst = gen_split_form(GF(7), (1, 1), (0, 1), (2, 3), seed=5)
    with pytest.raises(SingularConjugatorError):
        conjugate(inst, seed=0, conjugator=Matrix.zeros(GF(7), 2, 2))


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 1)])
def test_conjugate_rejects_wrong_shape_conjugator(shape):
    inst = gen_split_form(GF(7), (1, 1), (0, 1), (2, 3), seed=5)
    # Full rank, so only the shape can be wrong with it.
    rows, cols = shape
    p = Matrix.from_rows(GF(7), [[int(i == j) for j in range(cols)] for i in range(rows)])
    with pytest.raises(AmbientMismatchError, match=f"supplied conjugator is {rows}x{cols}; the pair is 2x2"):
        conjugate(inst, seed=0, conjugator=p)


def test_conjugate_gives_up_after_a_fixed_number_of_draws(monkeypatch):
    inst = gen_split_form(GF(7), (1, 1), (0, 1), (2, 3), seed=5)
    draws = []
    monkeypatch.setattr(generators, "_inverse", lambda p: draws.append(p))
    with pytest.raises(SingularConjugatorError, match="no invertible conjugator found in 64 draws"):
        conjugate(inst, seed=0)
    assert len(draws) == generators.CONJUGATOR_DRAWS == 64


def test_conjugation_preserves_all_verdicts():
    def seqs(pairs):
        return sorted(
            (
                tuple(v.value for v in oa.eigenvalues),
                tuple(v.value for v in ob.eigenvalues),
            )
            for oa, ob in pairs
        )

    for seed in (0, 1, 2):
        inst = gen_split_form(GF(5), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=seed)
        moved = conjugate(inst, seed=seed + 100)
        # Transported flag is still the split decomposition.
        assert verify_split(moved.a, moved.a_star, moved.split())
        # Irreducibility verdict unchanged.
        v0 = decide_irreducible(inst.a, inst.a_star)
        v1 = decide_irreducible(moved.a, moved.a_star)
        assert v0.status == v1.status
        # Admissible orderings unchanged as eigenvalue sequences.
        assert seqs(find_hessenberg_orderings(inst.a, inst.a_star)) == seqs(
            find_hessenberg_orderings(moved.a, moved.a_star)
        )
        # Tridiagonal verdict unchanged.
        if v0.status is not IrreducibilityStatus.UNDETERMINED:
            t0, _ = is_tridiagonal_pair(inst.a, inst.a_star)
            t1, _ = is_tridiagonal_pair(moved.a, moved.a_star)
            assert t0 == t1


def test_conjugated_reducible_witness_transported():
    inst = gen_reducible(GF(7), [(1, 1), (1, 1)], (0, 1), (0, 1), seed=6)
    moved = conjugate(inst, seed=11)
    assert verify_invariant(moved.truth.witness, moved.a, moved.a_star)


def test_tridiagonal_form_d1_accepts():
    inst = gen_tridiagonal_form(GF(7), (1, 1), (0, 1), (2, 3), seed=0)
    ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star)
    assert ok
    assert len(witnesses) == 4
    assert verify_split(inst.a, inst.a_star, inst.split())


def test_tridiagonal_form_single_point():
    inst = gen_tridiagonal_form(GF(5), (1,), (3,), (4,), seed=0)
    ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star)
    assert ok and len(witnesses) == 1


def test_tridiagonal_form_d2_certified():
    for seed in range(3):
        inst = gen_tridiagonal_form(GF(11), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=seed)
        eig_a = eigen_structure(inst.a)
        assert eig_a.diagonalizable
        assert sorted(v.value for v in eig_a.eigenvalues) == [0, 1, 2]
        ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star)
        assert ok
        assert len(witnesses) == 4  # the four reversal variants, nothing else
        wanted = ((0, 1, 2), (0, 1, 2))
        seqs = {
            (
                tuple(v.value for v in oa.eigenvalues),
                tuple(v.value for v in ob.eigenvalues),
            )
            for oa, ob in witnesses
        }
        assert wanted in seqs
        # Both demanded split decompositions exist (the defining pair and
        # its double reversal).
        assert verify_split(inst.a, inst.a_star, inst.split())


def _count_block_draws(monkeypatch):
    draws = []
    sample = generators._sample_block

    def counted(*args, **kwargs):
        draws.append(args[1:3])
        return sample(*args, **kwargs)

    monkeypatch.setattr(generators, "_sample_block", counted)
    return draws


def test_tridiagonal_form_budget_exhaustion(monkeypatch):
    # A symmetric shape whose spectra break the three-term recurrence: the
    # ratios (θ0 - θ3)/(θ1 - θ2) are 4 for A and 3 for A*, where a
    # tridiagonal pair needs them equal, so every attempt is rejected.
    draws = _count_block_draws(monkeypatch)
    with pytest.raises(GenerationBudgetError, match="within 40 attempts"):
        gen_tridiagonal_form(GF(101), (1, 1, 1, 1), (0, 1, 2, 4), (0, 1, 2, 3), seed=0, max_attempts=40)
    # One block per gap per matrix on every attempt: the budget was spent.
    assert len(draws) == 40 * 3 * 2


def test_tridiagonal_form_unverified_split_is_a_bug(monkeypatch):
    # An irreducible pair with the three-term inclusions for the requested
    # orderings has exactly the closed-form split, so a split that fails
    # verification is a fault in the code, not a rejected attempt.  Seed 1
    # accepts its 16th attempt.
    split_from_flags = generators.split_from_flags

    def swapped(ord_a, ord_a_star):
        split = split_from_flags(ord_a, ord_a_star)
        subs = list(split.subspaces)
        subs[0], subs[1] = subs[1], subs[0]
        return dataclasses.replace(split, subspaces=tuple(subs))

    monkeypatch.setattr(generators, "split_from_flags", swapped)
    with pytest.raises(OracleDisagreementError, match=r"\(0, 1, 2\) of A and \(0, 1, 2\) of A\*"):
        gen_tridiagonal_form(GF(11), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=1, max_attempts=30)


@pytest.mark.parametrize(
    "dims, reason",
    [((2, 1), "not symmetric"), ((1, 2), "not symmetric"), ((2, 1, 2), "not unimodal")],
)
def test_tridiagonal_form_refuses_impossible_shapes_before_drawing(dims, reason, monkeypatch):
    # A tridiagonal pair's shape is symmetric and unimodal (Ito, Tanabe and
    # Terwilliger 2001), so these dims are refused with no candidate drawn.
    draws = _count_block_draws(monkeypatch)
    values = tuple(range(len(dims)))
    with pytest.raises(GenerationBudgetError, match=reason):
        gen_tridiagonal_form(GF(101), dims, values, values, seed=0)
    assert draws == []


def test_tridiagonal_form_deterministic():
    a = gen_tridiagonal_form(GF(7), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=12)
    b = gen_tridiagonal_form(GF(7), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=12)
    assert a.a == b.a and a.a_star == b.a_star
