import random
from collections import Counter

import pytest

from conftest import exact_algebra_closure, rand_diagonalizable, rand_invertible, rand_matrix
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
    eigen_structure,
    enumerate_subspaces,
    gen_reducible,
    gen_split_form,
    is_tridiagonal_pair,
    kernel,
    rref,
    spin,
    verify_invariant,
)
from hesspairs.errors import OracleDisagreementError, SizeMismatchError, ZeroVectorError
from hesspairs.irreducibility import (
    _coordinate_blocks,
    _eigenbasis_generators,
    _norton_step,
    _random_elements,
    _singular_elements,
    _try_eigen,
)


def test_spin_identity_generator():
    s = spin([1, 0, 0], [Matrix.identity(QQ, 3)])
    assert s == SubspaceBasis.from_vectors(QQ, 3, [[1, 0, 0]])


def test_spin_cyclic_shift_spans_everything():
    shift = Matrix.from_rows(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert spin([1, 0, 0], [shift]).dim == 3


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
    # One coordinate block: rung 1 closes the whole algebra and is exact.
    gens = [Matrix.identity(GF(5), 3)]
    dim, basis = exact_algebra_closure(gens)
    assert dim == 1
    assert len(basis) == 1
    assert algebra_closure(gens) == (1,)


def test_algebra_closure_projector():
    # Two one-coordinate blocks and no edge: rung 1 stops at coordinate 0,
    # which reaches only itself.
    gens = [Matrix.diagonal(QQ, [0, 1])]
    dim, _ = exact_algebra_closure(gens)
    assert dim == 2
    assert algebra_closure(gens) == (1,)


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
    # with more than one block either read the algebra off the digraph of
    # nonzero entries (every block one coordinate: no echelon, no spin),
    # take the full-algebra shortcut (the dual spin from the smallest
    # block fills K^n) or stop short of M_n.  The exact dimensions come
    # from the reference closure; rung 1 must agree on "is it M_n?", stay
    # below the exact dimension, and be exact on one block.
    from hesspairs import irreducibility

    rng = random.Random(f"closure:{field!r}")
    sides = Counter()
    blocked = 0
    paths = Counter()
    dual_spins = []
    echelons = []

    def recording_spin(v, generators):
        space = spin(v, generators)
        dual_spins.append(space.dim == space.ambient_dim)
        return space

    class RecordingEchelon(irreducibility._Echelon):
        def __init__(self, field, width):
            super().__init__(field, width)
            echelons.append(width)

    monkeypatch.setattr(irreducibility, "spin", recording_spin)
    monkeypatch.setattr(irreducibility, "_Echelon", RecordingEchelon)
    for _ in range(150):
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
        echelons.clear()
        k = algebra_closure(gens)[0]
        reachability = not echelons and not dual_spins
        assert reachability == (len(_coordinate_blocks(gens[0])) == n)
        dim = exact_algebra_closure(gens)[0]
        assert (k == n * n) == (dim == n * n) and k <= dim
        assert dim == exact_algebra_closure(oracle)[0] == algebra_closure(oracle)[0]
        # Only the first closure has more than one block and can spin.
        assert multi or dual_spins == []
        if multi:
            paths["reachability" if reachability else "shortcut" if dual_spins == [True] else "fallback"] += 1
    assert min(sides.values()) >= 5 and len(sides) == 3, sides
    assert blocked >= 15, blocked
    # Measured: 12-46 reachability reads, 9-35 shortcuts and 6-45 fallbacks per field.
    assert paths["reachability"] >= 10, paths
    assert paths["shortcut"] >= 5 and paths["fallback"] >= 4, paths


def _flat_rank(field, mats):
    """The rank of the n×n matrices ``mats`` as flattened rows: the dimension of their span."""
    return rref(Matrix(field, tuple(tuple(x for row in m.entries for x in row) for m in mats)))[1]


def _reachability_generators(field, n, rng, values):
    """A kind of support and [D, G] or [D, G, H], D diagonal with distinct entries from ``values``.

    Every G shares one random support on its off-diagonal entries:
    "dense", "triangular" after a random relabelling of the coordinates
    (acyclic, so with a source and a sink), or "isolated", sparse with
    at least one coordinate that has no off-diagonal entry in its row or
    column.  The last two are never strongly connected for n > 1.
    """
    kind = rng.choice(["dense", "triangular", "isolated"])
    rank = rng.sample(range(n), n)
    isolated = set(rng.sample(range(n), rng.randint(1, n)))

    def edge(j, i):
        if kind == "triangular":
            return rank[j] < rank[i] and rng.random() < 0.8
        if kind == "isolated":
            return not {i, j} & isolated and rng.random() < 0.5
        return rng.random() < 0.6

    gens = [Matrix.diagonal(field, rng.sample(values, n))]
    for _ in range(rng.randint(1, 2)):
        gens.append(Matrix.from_rows(field, [[rng.randint(-2, 2) if i == j else rng.choice([1, -1]) if edge(j, i) else 0
                                              for i in range(n)] for j in range(n)]))
    return kind, gens


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), GF(2**31 - 1), QQ], ids=repr)
def test_reachability_closure_is_exact_randomized(field):
    # A diagonal first generator with distinct entries: the closure is read
    # off the digraph of nonzero entries.  In the reference closure its
    # dimension and span must equal the one-block closure of the same
    # generators after a unimodular change of basis P, its basis
    # transported to P^-1·m·P; rung 1 must agree on "is it M_n?" and be
    # exact on the one block.
    rng = random.Random(f"reachability:{field!r}")
    values = list(range(field.p)) if field.is_finite and field.p < 10 else list(range(-20, 21))
    seen = Counter()
    for _ in range(40):
        n = rng.randint(1, min(6, len(values)))
        kind, gens = _reachability_generators(field, n, rng, values)
        dim, basis = exact_algebra_closure(gens)
        while True:
            p = _unimodular(field, n, rng)
            p_inv = p.inverse()
            oracle = [p_inv * g * p for g in gens]
            if len(_coordinate_blocks(oracle[0])) == 1:
                break
        one_dim, one_basis = exact_algebra_closure(oracle)
        k = algebra_closure(gens)[0]
        assert (k == n * n) == (dim == n * n) and k <= dim
        assert algebra_closure(oracle) == (one_dim,)
        moved = [p_inv * m * p for m in basis]
        assert dim == one_dim == len(basis) == _flat_rank(field, moved)
        assert _flat_rank(field, moved + list(one_basis)) == dim
        if kind != "dense" and n > 1:
            assert dim < n * n
        seen[kind, "full" if dim == n * n else "proper"] += 1
        seen["n", n == 1] += 1
        seen["extra", len(gens) - 1] += 1
    assert seen["n", True] and seen["extra", 1] and seen["extra", 2], seen
    assert seen["triangular", "proper"] and seen["isolated", "proper"], seen
    assert seen["dense", "full"], seen


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_ladder_agrees_with_enumeration_on_a_multiplicity_free_side(field, monkeypatch):
    # One side is diagonalizable with distinct eigenvalues, so rung 1 reads
    # the closure off the digraph.  A third of the other sides are dense,
    # half of the pairs are conjugated, and in half the multiplicity-free
    # side is A*.
    from hesspairs import irreducibility

    reads = []

    def recording_closure(generators):
        reads.append(len(_coordinate_blocks(generators[0])) == generators[0].nrows)
        return algebra_closure(generators)

    monkeypatch.setattr(irreducibility, "algebra_closure", recording_closure)
    rng = random.Random(f"multiplicity-free:{field!r}")
    counts = Counter()
    for i in range(100):
        n = 1 + i // 4 % field.p
        _, (a, b, *_) = _reachability_generators(field, n, rng, list(range(field.p)))
        if i % 3 == 0:
            b = rand_matrix(field, n, rng)
        if i % 2:
            p = rand_invertible(field, n, rng)
            a, b = p * a * p.inverse(), p * b * p.inverse()
        if i % 4 >= 2:
            a, b = b, a
        reads.clear()
        fast = decide_irreducible(a, b)
        slow = decide_irreducible_by_enumeration(a, b)
        assert reads == [True]
        assert fast.status == slow.status
        if fast.status is IrreducibilityStatus.REDUCIBLE:
            assert 0 < fast.witness.dim < n
            assert verify_invariant(fast.witness, a, b)
        counts[fast.status, n > 1] += 1
    # Measured: 38-56 reducible and 8-10 irreducible pairs with n > 1 per field.
    assert counts[IrreducibilityStatus.REDUCIBLE, True] >= 20, counts
    assert counts[IrreducibilityStatus.IRREDUCIBLE, True] >= 5, counts


def _refuse(*args):
    raise AssertionError("the closure of a multiplicity-free side ran an echelon or a spin")


def test_multiplicity_free_side_closes_no_echelon_and_spins_nothing(monkeypatch):
    # An irreducible conjugated split-form pair with simple eigenvalues, and
    # a reducible one (A* upper triangular in A's eigenbasis, then
    # conjugated): both closures are reachability reads.
    from hesspairs import irreducibility

    field = GF(101)
    inst = conjugate(gen_split_form(field, (1,) * 6, range(6), range(10, 16), seed=3), seed=4)
    rng = random.Random(41)
    p = rand_invertible(field, 6, rng)
    upper = Matrix.from_rows(field, [[rng.randint(1, 9) if i >= j else 0 for i in range(6)] for j in range(6)])
    reducible = (p * Matrix.diagonal(field, range(6)) * p.inverse(), p * upper * p.inverse())
    pairs = [(inst.a, inst.a_star), reducible]
    gens = [_eigenbasis_generators(a, b, _try_eigen(a), _try_eigen(b)) for a, b in pairs]
    # Coordinate i reaches every j <= i of the upper triangle, in some order.
    dim, basis = exact_algebra_closure(gens[1])
    assert dim == len(basis) == 6 * 7 // 2
    monkeypatch.setattr(irreducibility, "_Echelon", _refuse)
    monkeypatch.setattr(irreducibility, "spin", _refuse)
    assert algebra_closure(gens[0]) == (36,)
    assert algebra_closure(gens[1])[0] < 36
    assert decide_irreducible(inst.a, inst.a_star) == IrreducibilityVerdict(
        IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.ALGEBRA_DIMENSION
    )


def test_one_coordinate_block_takes_the_echelon_path(monkeypatch):
    # A = diag(1, 1) is one block: its digraph is a single vertex, trivially
    # strongly connected, yet the pair is reducible.  Its closure must run
    # an echelon.  decide_irreducible closes in the eigenbasis of A*, which
    # has Σm³ = 2 against A's 8, and must still find a witness.
    from hesspairs import irreducibility

    a, b = Matrix.diagonal(QQ, [1, 1]), Matrix.diagonal(QQ, [1, 2])
    widths = []

    class RecordingEchelon(irreducibility._Echelon):
        def __init__(self, field, width):
            super().__init__(field, width)
            widths.append(width)

    monkeypatch.setattr(irreducibility, "_Echelon", RecordingEchelon)
    assert _coordinate_blocks(a) == [(0, 1)]
    assert algebra_closure([a, b])[0] == 2
    assert widths
    verdict = decide_irreducible(a, b)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verify_invariant(verdict.witness, a, b)


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

    dim, basis = exact_algebra_closure([d, b])
    one_dim, one_basis = exact_algebra_closure([b, d])
    assert dim == one_dim < 25
    assert algebra_closure([b, d]) == (one_dim,)
    assert algebra_closure([d, b])[0] <= dim
    assert len(basis) == dim and all(m.nrows == m.ncols == 5 for m in basis)
    assert _flat_rank(field, basis) == dim
    assert _flat_rank(field, basis + one_basis) == dim


def test_full_column_block_without_a_full_dual_spin_is_not_the_full_algebra():
    # B keeps span{e0, e1}, so the algebra is block upper triangular:
    # K[B_00] (2) + its column block over e2 (2) + the corner (1).  Its
    # smallest column block 𝒜E_{2} is full, 3 = n·|J|, but the row
    # e2^T 𝒜 = (0, 0, *) is not, so rung 1 must answer n·|J| = 3, not n^2.
    field = QQ
    d = Matrix.diagonal(field, [1, 1, 2])
    b = Matrix.from_rows(field, [[1, 2, 3], [4, 5, 6], [0, 0, 7]])
    assert _coordinate_blocks(d) == [(0, 1), (2,)]
    assert spin([0, 0, 1], [d, b]).dim == 3
    assert spin([0, 0, 1], [d.transpose(), b.transpose()]).dim == 1
    assert exact_algebra_closure([d, b])[0] == exact_algebra_closure([b, d])[0] == 5
    assert algebra_closure([b, d]) == (5,)
    assert algebra_closure([d, b]) == (3,)


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
    assert algebra_closure(gens) == (81,)
    assert min(len(block) for block in _coordinate_blocks(gens[0])) == 1
    assert len(inserted) == 9
    dim, basis = exact_algebra_closure(gens)
    assert dim == len(basis) == 81
    assert len(set(basis)) == 81 and all(m.nrows == m.ncols == 9 for m in basis)


def _block_generators(field, n, rng, values):
    """[D, G]: D diagonal with 2 to n - 1 distinct entries, G with small entries.

    Half of the G keep span{e_c : c ∈ S} for a random proper set S of
    coordinates, which D keeps too, so the pair is reducible.
    """
    k = rng.randint(2, min(n - 1, len(values)))
    diag = rng.sample(values, k)
    diag += [rng.choice(diag) for _ in range(n - k)]
    rng.shuffle(diag)
    kept = set(rng.sample(range(n), rng.randint(1, n - 1))) if rng.random() < 0.5 else set()
    g = Matrix.from_rows(field, [[0 if c in kept and r not in kept else rng.randint(-2, 2)
                                  for c in range(n)] for r in range(n)])
    return [Matrix.diagonal(field, diag), g]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), GF(2**31 - 1), QQ], ids=repr)
def test_rung_one_agrees_with_the_exact_closure_randomized(field):
    # Rung 1 answers "is the algebra all of M_n?": k = n^2 exactly when the
    # reference closure has dimension n^2, and k is never above it.  Both
    # paths with more than one block: the reachability read (every block
    # one coordinate) and the block path (some block repeated).
    rng = random.Random(f"rung-one:{field!r}")
    values = list(range(field.p)) if field.is_finite and field.p < 10 else list(range(-20, 21))
    seen = Counter()
    for i in range(120):
        if i % 2:
            n = rng.randint(2, min(6, len(values)))
            _, gens = _reachability_generators(field, n, rng, values)
            path = "reachability"
        else:
            n = rng.randint(3, 6)
            gens = _block_generators(field, n, rng, values)
            path = "blocks"
        assert (len(_coordinate_blocks(gens[0])) == n) == (path == "reachability")
        k = algebra_closure(gens)[0]
        dim = exact_algebra_closure(gens)[0]
        assert (k == n * n) == (dim == n * n), (path, k, dim)
        assert k <= dim
        seen[path, "full" if k == n * n else "proper"] += 1
    # Measured: 27-55 proper and 5-33 full reads per path and field.
    for path in ("reachability", "blocks"):
        assert seen[path, "proper"] >= 20 and seen[path, "full"] >= 3, seen


def test_reducible_sum_closes_one_column_block_and_spins_once(monkeypatch):
    # Conjugated direct sums of split-form pairs over GF(101) with block
    # dims 2-4, as in the wide-gfp benchmark: rung 1 answers "no" after
    # the smallest column block, so it builds one echelon per row block and
    # runs at most one dual spin, where closing every column block would
    # build len(blocks)^2 echelons.
    from hesspairs import irreducibility

    field = GF(101)
    echelons, spins, spinning = [], [], []

    class CountingEchelon(irreducibility._Echelon):
        def __init__(self, field, width):
            super().__init__(field, width)
            if not spinning:
                echelons.append(width)

    def counting_spin(v, generators):
        spins.append(v)
        spinning.append(True)
        try:
            return spin(v, generators)
        finally:
            spinning.pop()

    monkeypatch.setattr(irreducibility, "_Echelon", CountingEchelon)
    monkeypatch.setattr(irreducibility, "spin", counting_spin)
    for seed, shape in enumerate([((2, 3, 4), (4, 3, 2)), ((2, 2, 2, 2), (2, 2, 2, 2)), ((3, 4), (4, 2))]):
        inst = conjugate(gen_reducible(field, shape, range(len(shape[0])), range(10, 10 + len(shape[0])), seed), seed)
        a, b = inst.a, inst.a_star
        gens = _eigenbasis_generators(a, b, _try_eigen(a), _try_eigen(b))
        blocks = _coordinate_blocks(gens[0])
        n = a.nrows
        assert 1 < len(blocks) < n
        echelons.clear()
        spins.clear()
        k = algebra_closure(gens)[0]
        assert k < n * n and exact_algebra_closure(gens)[0] < n * n
        assert len(echelons) <= len(blocks), (shape, echelons)
        assert len(spins) <= 1


def test_algebra_closure_irreducible_pair_is_full():
    inst = gen_split_form(GF(5), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=5)
    oracle = decide_irreducible_by_enumeration(inst.a, inst.a_star)
    assert oracle.status is IrreducibilityStatus.IRREDUCIBLE
    assert algebra_closure([inst.a, inst.a_star]) == (9,)


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



@pytest.mark.parametrize("field", [GF(7), QQ], ids=repr)
def test_singular_elements_come_smallest_kernel_first(field):
    # Rung 2's order: M - θI for every eigenvalue of A and then of A*,
    # stably sorted by eigenspace dimension, then X = 0 with kernel V,
    # then over GF(p) the random elements.
    rng = random.Random(17)
    p, q = rand_invertible(field, 6, rng), rand_invertible(field, 6, rng)
    a = p * Matrix.diagonal(field, [0, 0, 0, 1, 1, 2]) * p.inverse()
    b = q * Matrix.diagonal(field, [3, 4, 4, 5, 5, 5]) * q.inverse()
    eigs = [_try_eigen(a), _try_eigen(b)]
    expected = [(m, theta, space) for m, eig in zip((a, b), eigs)
                for theta, space in zip(eig.eigenvalues, eig.eigenspaces)]
    expected.sort(key=lambda e: e[2].dim)
    assert [e[2].dim for e in expected] == [1, 1, 2, 2, 3, 3]
    assert [e[0] for e in expected] == [a, b, a, b, a, b]
    elements = list(_singular_elements(a, b, *eigs))
    for (x, ker), (m, theta, space) in zip(elements, expected):
        assert x == m.minus_scalar(theta)
        assert ker == space == kernel(x)
    k = len(expected)
    assert elements[k] == (Matrix.zeros(field, 6, 6), SubspaceBasis.full(field, 6))
    rest = elements[k + 1:]
    if field.is_finite:
        assert rest == list(_random_elements(a, b))
    else:
        assert rest == []


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


def test_random_draws_decide_a_conjugated_sum_of_diagonalizable_pairs(monkeypatch):
    # Both sides are diagonalizable over GF(101), with 4-dimensional
    # eigenspaces, and only the random draws decide the pair.  Whatever
    # replaces them must still decide it.
    from hesspairs import irreducibility

    inst = conjugate(gen_reducible(GF(101), [(2, 2), (2, 2)], [0, 1], [5, 6], 1), 2)
    a, b = inst.a, inst.a_star
    for m in (a, b):
        eig = eigen_structure(m)
        assert eig.diagonalizable and eig.dims == (4, 4)
    verdict = decide_irreducible(a, b)
    assert verdict == _first_random_element_verdict(a, b)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    assert verdict.method is DecisionMethod.NORTON
    assert verdict.witness.dim == 2 and verify_invariant(verdict.witness, a, b)
    monkeypatch.setattr(irreducibility, "_random_elements", lambda a, b: iter(()))
    assert decide_irreducible(a, b).status is IrreducibilityStatus.UNDETERMINED


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
    assert exact_algebra_closure([a, b])[0] == 12
    assert algebra_closure([a, b])[0] <= 12
    verdict = decide_irreducible(a, b)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    assert verdict.method is DecisionMethod.NORTON


def test_cubic_extension_pair_is_irreducible_by_enumeration():
    # The same construction over GF(2), small enough for the oracle.
    field = GF(2)
    a, b = _cubic_extension_pair(field, (1, 1, 0), (0, 1))  # x^3 + x + 1
    assert exact_algebra_closure([a, b])[0] == 12
    assert algebra_closure([a, b])[0] <= 12
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
    assert all(spin(row, [a, b]).dim == 3 for row in ker.rows)
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
            assert algebra_closure([inst.a, inst.a_star]) == (9,)
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
