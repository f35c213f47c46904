import random
from collections import Counter

import pytest

from conftest import rand_diagonalizable, rand_invertible, rand_matrix
from hesspairs import (
    GF,
    QQ,
    DecisionMethod,
    IrreducibilityStatus,
    IrreducibilityVerdict,
    Matrix,
    SubspaceBasis,
    algebra_closure,
    analyze_pair,
    conjugate,
    decide_irreducible,
    decide_irreducible_by_enumeration,
    enumerate_subspaces,
    gen_reducible,
    gen_split_form,
    is_tridiagonal_pair,
    kernel,
    spin,
    verify_invariant,
)
from hesspairs.errors import OracleDisagreementError, SizeMismatchError, ZeroVectorError
from hesspairs.irreducibility import (
    _coordinate_blocks,
    _eigenbasis_generators,
    _norton_step,
    _random_elements,
    _try_eigen,
)


def test_spin_identity_generator():
    s = spin([1, 0, 0], [Matrix.identity(QQ, 3)])
    assert s == SubspaceBasis.from_vectors(QQ, 3, [[1, 0, 0]])


def test_spin_cyclic_shift_spans_everything():
    shift = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert spin([1, 0, 0], [shift]).is_full


def test_spin_stays_in_invariant_block():
    # Both generators preserve span{e2, e3}.
    a = Matrix.from_rows(QQ, [[1, 0, 0], [0, 2, 1], [0, 1, 0]])
    b = Matrix.from_rows(QQ, [[3, 0, 0], [0, 0, 1], [0, 5, 2]])
    s = spin([0, 1, 0], [a, b])
    block = SubspaceBasis.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert s.dim <= 2
    from hesspairs import subspace_contains

    assert subspace_contains(block, s)


def test_spin_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        spin([0, 0], [Matrix.identity(QQ, 2)])


def test_spin_rejects_size_mismatch():
    with pytest.raises(SizeMismatchError):
        spin([1, 0], [Matrix.identity(QQ, 3)])
    with pytest.raises(SizeMismatchError):
        spin([1, 0], [Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)])


def test_algebra_closure_identity_only():
    dim, basis = algebra_closure([Matrix.identity(GF(5), 3)])
    assert dim == 1
    assert len(basis) == 1


def test_algebra_closure_projector():
    dim, _ = algebra_closure([Matrix.diagonal(QQ, [0, 1])])
    assert dim == 2


def _unimodular(field, n, rng):
    """L·U with unit triangular factors and entries in {-1, 0, 1}: det 1, short entries."""
    def unit(lower):
        return Matrix.from_rows(field, [[1 if i == j else rng.randint(-1, 1) if (i > j) == lower else 0
                                         for j in range(n)] for i in range(n)])

    return unit(True) * unit(False)


def _random_side(field, n, rng):
    """An n×n matrix with small entries: dense, diagonalizable, or with a Jordan block.

    Dense ones often have eigenvalues outside the field.
    """
    kind = rng.randrange(3)
    if kind == 0:
        return Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    values = [rng.randint(-3, 3) for _ in range(n)]
    rows = [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == 2 and n > 1:
        rows[1][1] = values[0]
        rows[0][1] = 1  # J_2(values[0]): not diagonalizable
    p = _unimodular(field, n, rng)
    return p * Matrix.from_rows(field, rows) * p.inverse()


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(7), GF(101), QQ], ids=repr)
def test_eigenbasis_closure_matches_one_block_closure_randomized(field, monkeypatch):
    # The block closure in an eigenbasis against the one-block closure of
    # the same pair conjugated to a non-diagonal first generator.  Pairs
    # with more than one block either take the full-algebra shortcut (the
    # dual spin from the smallest block fills K^n) or close every block.
    from hesspairs import irreducibility

    rng = random.Random(f"closure:{field!r}")
    sides = Counter()
    blocked = 0
    paths = Counter()
    dual_spins = []

    def recording_spin(v, generators):
        space = spin(v, generators)
        dual_spins.append(space.is_full)
        return space

    monkeypatch.setattr(irreducibility, "spin", recording_spin)
    for _ in range(50):
        n = rng.randint(1, 6)
        a, b = _random_side(field, n, rng), _random_side(field, n, rng)
        eigs = [_try_eigen(a), _try_eigen(b)]
        for eig in eigs:
            sides["outside" if eig is None else "diagonalizable" if eig.diagonalizable else "defective"] += 1
        gens = _eigenbasis_generators(a, b, *eigs)
        multi = len(_coordinate_blocks(gens[0])) > 1
        blocked += multi
        while True:
            p = _unimodular(field, n, rng)
            oracle = [p.inverse() * a * p, p.inverse() * b * p]
            if len(_coordinate_blocks(oracle[0])) == 1:
                break
        dual_spins.clear()
        assert algebra_closure(gens)[0] == algebra_closure(oracle)[0]
        # Only the first closure has more than one block and can spin.
        assert multi or dual_spins == []
        if multi:
            paths["shortcut" if dual_spins == [True] else "fallback"] += 1
    assert min(sides.values()) >= 5 and len(sides) == 3, sides
    assert blocked >= 15, blocked
    # Measured: 5-30 shortcuts and 4-17 fallbacks per field.
    assert paths["shortcut"] >= 5 and paths["fallback"] >= 4, paths


def test_block_closure_echelons_stay_as_narrow_as_the_eigenspaces(monkeypatch):
    # A conjugated split-form pair has no diagonal side, so only the change
    # to an eigenbasis keeps the closure off one echelon of width n^2 = 81.
    from hesspairs import irreducibility

    dims = (1, 2, 3, 2, 1)
    inst = conjugate(gen_split_form(GF(101), dims, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10), seed=3), seed=4)
    widths = []
    inside = []

    class RecordingEchelon(irreducibility._Echelon):
        def __init__(self, field, width):
            super().__init__(field, width)
            if inside:
                widths.append(width)

    real_closure = irreducibility.algebra_closure

    def closure(generators):
        inside.append(True)
        try:
            return real_closure(generators)
        finally:
            inside.pop()

    monkeypatch.setattr(irreducibility, "_Echelon", RecordingEchelon)
    monkeypatch.setattr(irreducibility, "algebra_closure", closure)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    assert verdict.method is DecisionMethod.ALGEBRA_DIMENSION
    assert widths and max(widths) <= max(dims) * max(dims)


def test_block_closure_basis_spans_the_one_block_algebra():
    # The equal entries of D are not contiguous.  B keeps span{e1, e3},
    # D's eigenspace for 1, so the algebra is proper.
    field = GF(7)
    d = Matrix.diagonal(field, [1, 2, 1, 3, 2])
    rng = random.Random(11)
    rows = [[field.rand(rng) for _ in range(5)] for _ in range(5)]
    for i in (1, 3, 4):
        rows[i][0] = rows[i][2] = 0
    rows[1][3] = 1
    b = Matrix.from_rows(field, rows)
    assert _coordinate_blocks(d) == [(0, 2), (1, 4), (3,)]
    assert _coordinate_blocks(b) == [(0, 1, 2, 3, 4)]

    def flat_rank(mats):
        return Matrix(field, tuple(tuple(x for row in m.entries for x in row) for m in mats)).rank()

    dim, basis = algebra_closure([d, b])
    one_dim, one_basis = algebra_closure([b, d])
    assert dim == one_dim < 25
    assert len(basis) == dim and all(m.nrows == m.ncols == 5 for m in basis)
    assert flat_rank(basis) == dim
    assert flat_rank(basis + one_basis) == dim


def test_full_column_block_without_a_full_dual_spin_is_not_the_full_algebra():
    # B keeps span{e0, e1}, so the algebra is block upper triangular:
    # K[B_00] (2) + its column block over e2 (2) + the corner (1).  Its
    # smallest column block 𝒜E_{2} is full, 3 = n·|J|, but the row
    # e2^T 𝒜 = (0, 0, *) is not, so the closure must not stop at n^2.
    field = QQ
    d = Matrix.diagonal(field, [1, 1, 2])
    b = Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6], [0, 0, 7]])
    assert _coordinate_blocks(d) == [(0, 1), (2,)]
    assert spin([0, 0, 1], [d, b]).is_full
    assert spin([0, 0, 1], [d.transpose(), b.transpose()]).dim == 1
    assert algebra_closure([d, b])[0] == algebra_closure([b, d])[0] == 5


def test_full_algebra_is_proved_from_the_smallest_column_block(monkeypatch):
    # The eigenbasis generators of an irreducible conjugated split-form
    # pair: closing the column block of a 1-dimensional eigenspace inserts
    # n·1 = 9 flattened blocks, and one dual spin finishes the proof.
    # Closing every block would insert n^2 = 81.
    from hesspairs import irreducibility

    dims = (1, 2, 3, 2, 1)
    inst = conjugate(gen_split_form(GF(101), dims, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10), seed=3), seed=4)
    gens = _eigenbasis_generators(inst.a, inst.a_star, _try_eigen(inst.a), _try_eigen(inst.a_star))
    inserted, spinning = [], []

    class CountingEchelon(irreducibility._Echelon):
        def insert(self, vec):
            grew = super().insert(vec)
            if grew and not spinning:
                inserted.append(self.width)
            return grew

    def flagged_spin(v, generators):
        spinning.append(True)
        try:
            return spin(v, generators)
        finally:
            spinning.pop()

    monkeypatch.setattr(irreducibility, "_Echelon", CountingEchelon)
    monkeypatch.setattr(irreducibility, "spin", flagged_spin)
    dim, basis = algebra_closure(gens)
    assert dim == len(basis) == 81
    assert len(set(basis)) == 81 and all(m.nrows == m.ncols == 9 for m in basis)
    assert min(len(block) for block in _coordinate_blocks(gens[0])) == 1
    assert len(inserted) == 9


def test_algebra_closure_irreducible_pair_is_full():
    inst = gen_split_form(GF(5), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=5)
    oracle = decide_irreducible_by_enumeration(inst.a, inst.a_star)
    assert oracle.status is IrreducibilityStatus.IRREDUCIBLE
    dim, _ = algebra_closure([inst.a, inst.a_star])
    assert dim == 9


def test_identity_pair_reducible_with_witness():
    verdict = decide_irreducible(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verdict.witness is not None
    assert 0 < verdict.witness.dim < 2
    assert verify_invariant(verdict.witness, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))


def test_companion_of_irreducible_quadratic_gf2():
    # Invariant subspaces of a companion matrix match factors of its
    # characteristic polynomial; x^2 + x + 1 has none over GF(2).
    field = GF(2)
    c = Matrix.from_rows(field, [[0, 1], [1, 1]])
    verdict = decide_irreducible(c, c)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    assert decide_irreducible_by_enumeration(c, c).status is IrreducibilityStatus.IRREDUCIBLE


def test_block_diagonal_sum_reducible():
    inst = gen_reducible(GF(7), [(1, 1), (1, 1)], (0, 1), (0, 1), seed=9)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verify_invariant(verdict.witness, inst.a, inst.a_star)
    assert verify_invariant(inst.truth.witness, inst.a, inst.a_star)


def test_verify_invariant_trivial_subspaces():
    a = Matrix.diagonal(QQ, [0, 1])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert verify_invariant(SubspaceBasis.zero(QQ, 2), a, b)
    assert verify_invariant(SubspaceBasis.full(QQ, 2), a, b)
    e1 = SubspaceBasis.from_vectors(QQ, 2, [[1, 0]])
    assert not verify_invariant(e1, a, b)  # b e1 = e2


def test_enumerate_subspaces_counts():
    assert sum(1 for _ in enumerate_subspaces(GF(2), 3)) == 16  # 1+7+7+1
    assert sum(1 for _ in enumerate_subspaces(GF(2), 3, proper_only=True)) == 14
    assert sum(1 for _ in enumerate_subspaces(GF(3), 2)) == 6  # 1+4+1
    seen = set(enumerate_subspaces(GF(2), 4))
    assert len(seen) == 67  # 1+15+35+15+1


def test_enumerate_subspaces_are_canonical():
    for s in enumerate_subspaces(GF(3), 3):
        rebuilt = SubspaceBasis.from_vectors(GF(3), 3, s.rows)
        assert rebuilt == s


@pytest.mark.parametrize("field", [GF(2), GF(3)])
def test_ladder_agrees_with_enumeration_oracle(field):
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = rand_matrix(field, n, rng)
        b = rand_matrix(field, n, rng)
        fast = decide_irreducible(a, b)
        slow = decide_irreducible_by_enumeration(a, b)
        assert fast.status == slow.status
        if fast.status is IrreducibilityStatus.REDUCIBLE:
            assert verify_invariant(fast.witness, a, b)
            assert 0 < fast.witness.dim < n


def _first_random_element_verdict(a, b):
    """The first verdict of the Norton step on the random elements alone."""
    for x, ker in _random_elements(a, b):
        if not ker.is_zero:
            verdict = _norton_step(x, ker, a, b)
            if verdict is not None:
                return verdict
    return None


def test_norton_step_on_random_elements_agrees_with_enumeration():
    # The random elements come last in decide_irreducible, after elements
    # that decide every pair this small; drive the step on them directly.
    rng = random.Random(22)
    field = GF(5)
    checked_reducible = checked_irreducible = 0
    for _ in range(30):
        n = rng.randint(2, 3)
        a = rand_matrix(field, n, rng)
        b = rand_matrix(field, n, rng)
        fast = _first_random_element_verdict(a, b)
        slow = decide_irreducible_by_enumeration(a, b)
        if fast is None:
            continue  # no draw was singular; never wrong
        assert fast.status == slow.status
        if fast.status is IrreducibilityStatus.REDUCIBLE:
            checked_reducible += 1
            assert verify_invariant(fast.witness, a, b)
        else:
            checked_irreducible += 1
    assert checked_reducible and checked_irreducible


def _block_diagonal(field, blocks):
    n = sum(blk.nrows for blk in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for blk in blocks:
        for i, row in enumerate(blk.entries):
            rows[offset + i][offset:offset + blk.nrows] = row
        offset += blk.nrows
    return Matrix.from_rows(field, rows)


def _three_cubic_field_blocks():
    """A reducible GF(3) pair that only the random algebra elements decide.

    V = GF(3)^9 is three copies of GF(27) = GF(3)[C], C the companion
    matrix of x^3 - x + 1; A acts as C on each, A* as a different element
    of GF(27) on each, and a random change of basis hides the blocks.
    Neither side has an eigenvalue in GF(3), V has more projective points
    than are spun one by one, and a random element of the algebra is
    singular on a block with probability 1/27.
    """
    field = GF(3)
    c = Matrix.from_rows(field, [[0, 0, 2], [1, 0, 1], [0, 1, 0]])
    i3 = Matrix.identity(field, 3)
    a = _block_diagonal(field, [c, c, c])
    a_star = _block_diagonal(field, [c * c, c * c + c, c * c + i3])
    p = rand_invertible(field, 9, random.Random(5))
    return p * a * p.inverse(), p * a_star * p.inverse()


def test_decision_is_deterministic_for_fixed_seed():
    rng = random.Random(23)
    field = GF(7)
    pairs = [(rand_matrix(field, 3, rng), rand_matrix(field, 3, rng)) for _ in range(2)]
    pairs.append(_three_cubic_field_blocks())
    for a, b in pairs:
        assert list(_random_elements(a, b)) == list(_random_elements(a, b))
        first = decide_irreducible(a, b)
        second = decide_irreducible(a, b)
        assert first == second
    # On the block pair every verdict comes from a random element.
    a, b = pairs[-1]
    n = a.nrows
    assert _norton_step(Matrix.zeros(a.field, n, n), SubspaceBasis.full(a.field, n), a, b) is None
    verdict = decide_irreducible(a, b)
    assert verdict == _first_random_element_verdict(a, b)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verdict.method is DecisionMethod.NORTON
    assert verify_invariant(verdict.witness, a, b)


@pytest.mark.parametrize("analysis", [decide_irreducible, analyze_pair, is_tridiagonal_pair])
def test_analysis_takes_no_seed(analysis):
    # A verdict is a function of the pair; only the generators take seeds.
    a, b = _three_cubic_field_blocks()
    with pytest.raises(TypeError):
        analysis(a, b, seed=0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norton_rung_agrees_with_enumeration_randomized(p):
    # 100 pairs per field.  Half are dense; in the other half A is
    # diagonalizable with a repeated eigenvalue, so the eigenspace
    # elements, tried first, do the work.  n stays where enumerating
    # every subspace is cheap.
    field = GF(p)
    max_n = 5 if p <= 3 else 4
    rng = random.Random(31 + p)
    counts = Counter()
    for i in range(100):
        n = rng.randint(1, max_n)
        if i % 2:
            a, b = rand_matrix(field, n, rng), rand_matrix(field, n, rng)
        else:
            values = list(range(p))
            a = rand_diagonalizable(field, n, values, rng, max_distinct=max(1, min(p, n - 1)))
            b = rand_diagonalizable(field, n, values, rng, max_distinct=min(p, n))
        fast = decide_irreducible(a, b)
        slow = decide_irreducible_by_enumeration(a, b)
        assert fast.status == slow.status
        if fast.status is IrreducibilityStatus.REDUCIBLE:
            assert 0 < fast.witness.dim < n
            assert verify_invariant(fast.witness, a, b)
        counts[fast.status, fast.method] += 1
    assert counts[IrreducibilityStatus.REDUCIBLE, DecisionMethod.NORTON] >= 20
    assert counts[IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.ALGEBRA_DIMENSION] >= 20


def _cubic_extension_pair(field, cubic, values):
    """A = diag(s I_3, t I_3), A* = [[0, I_3], [C, 0]], C the companion of ``cubic``.

    A*^2 = diag(C, C), so the algebra holds GF(p^3) = GF(p)[C] as scalars,
    and over it the pair is (diag(s, t), swap), which is irreducible.  The
    algebra has dimension 12 < 36, and every eigenspace is 3-dimensional.
    """
    c0, c1, c2 = cubic  # x^3 + c2 x^2 + c1 x + c0
    comp = [[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]]
    rows = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][i + 3] = 1
        rows[i + 3][:3] = comp[i]
    s, t = values
    return Matrix.diagonal(field, [s] * 3 + [t] * 3), Matrix.from_rows(field, rows)


def test_norton_decides_a_pair_over_a_cubic_extension():
    # The closure is short of n^2, no eigenspace is a line, and V is far
    # too large to enumerate.  The eigenspaces of A have (23^3 - 1)/22 =
    # 553 projective points each; spinning all of them and one dual spin
    # decide the pair.
    p = 23
    cubic = (3, 1, 0)  # x^3 + x + 3
    assert all((x**3 + x + 3) % p for x in range(p))
    a, b = _cubic_extension_pair(GF(p), cubic, (2, 5))
    assert algebra_closure([a, b])[0] == 12
    verdict = decide_irreducible(a, b)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    assert verdict.method is DecisionMethod.NORTON


def test_cubic_extension_pair_is_irreducible_by_enumeration():
    # The same construction over GF(2), small enough for the oracle.
    field = GF(2)
    a, b = _cubic_extension_pair(field, (1, 1, 0), (0, 1))  # x^3 + x + 1
    assert algebra_closure([a, b])[0] == 12
    assert decide_irreducible_by_enumeration(a, b).status is IrreducibilityStatus.IRREDUCIBLE
    assert decide_irreducible(a, b) == IrreducibilityVerdict(
        IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.NORTON
    )


def test_norton_step_spins_every_point_of_a_small_kernel():
    # ker A = span{e1, e2}.  Both basis rows spin to V, but A* fixes
    # e1 + e2, so that line is invariant; the dual spin from ker A^T fills
    # the dual space, so stopping at the rows would call the pair irreducible.
    field = GF(5)
    a = Matrix.diagonal(field, [0, 0, 1])
    b = Matrix.from_rows(field, [[1, 0, 1], [0, 1, 2], [1, -1, 0]])
    ker = kernel(a)
    assert all(spin(row, [a, b]).is_full for row in ker.rows)
    verdict = _norton_step(a, ker, a, b)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verdict.witness == SubspaceBasis.from_vectors(field, 3, [[1, 1, 0]])
    assert decide_irreducible_by_enumeration(a, b).status is IrreducibilityStatus.REDUCIBLE


def test_norton_dual_spin_witness():
    # A e1 = A e2 = e1 and A* = diag(1, 2) keep span{e1}.  ker A is the
    # line through (1, -1), which A* moves off it, so the kernel spins to
    # V; the dual spin from ker A^T = span{e2} stays a line, and its
    # annihilator is the witness.
    a = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
    b = Matrix.diagonal(QQ, [1, 2])
    verdict = _norton_step(a, kernel(a), a, b)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verdict.method is DecisionMethod.NORTON
    assert verdict.witness == SubspaceBasis.from_vectors(QQ, 2, [[1, 0]])


def test_norton_dual_witness_failing_check_is_a_disagreement(monkeypatch):
    from hesspairs import irreducibility

    a = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
    b = Matrix.diagonal(QQ, [1, 2])
    monkeypatch.setattr(irreducibility, "verify_invariant", lambda *args: False)
    with pytest.raises(OracleDisagreementError):
        _norton_step(a, kernel(a), a, b)


def test_undetermined_over_rationals():
    # Rotation by 90 degrees is irreducible over Q, but the ladder cannot
    # certify it: the algebra is commutative and every spin fills the plane.
    j = Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    verdict = decide_irreducible(j, j)
    assert verdict.status is IrreducibilityStatus.UNDETERMINED


def test_enumeration_oracle_requires_finite_field():
    from hesspairs.errors import InfiniteFieldError

    with pytest.raises(InfiniteFieldError):
        decide_irreducible_by_enumeration(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))


def test_generated_irreducible_instances_have_full_algebra():
    # Empirical heuristic on desk instances, not a theorem: the companion
    # matrix pair above is irreducible with algebra dimension 2 < 4.  For
    # generated dense split-form pairs over GF(p), every observed
    # irreducible verdict has come from the full-algebra test.
    count = 0
    for seed in range(8):
        inst = gen_split_form(GF(7), (1, 1, 1), (0, 1, 2), (2, 3, 4), seed=seed)
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is IrreducibilityStatus.IRREDUCIBLE:
            count += 1
            assert verdict.method is DecisionMethod.ALGEBRA_DIMENSION
            dim, _ = algebra_closure([inst.a, inst.a_star])
            assert dim == 9
    assert count >= 5


def test_verdict_dataclass_validation():
    with pytest.raises(ValueError):
        IrreducibilityVerdict(IrreducibilityStatus.REDUCIBLE, DecisionMethod.NORTON)
    with pytest.raises(ValueError):
        IrreducibilityVerdict(
            IrreducibilityStatus.IRREDUCIBLE,
            DecisionMethod.NORTON,
            witness=SubspaceBasis.zero(QQ, 2),
        )
