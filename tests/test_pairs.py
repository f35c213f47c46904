import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    ordering_for,
    q_leonard_pair,
    rand_diagonalizable,
    rand_invertible,
    remix_basis,
    scan_orderings,
    sl2_pair,
)
from hesspairs import (
    GF,
    QQ,
    DecisionMethod,
    EigenOrdering,
    IrreducibilityStatus,
    IrreducibilityVerdict,
    Matrix,
    SplitDecomposition,
    SubspaceBasis,
    analyze_pair,
    antidiagonal_span,
    apply,
    build_intersection_lattice,
    construct_split,
    decide_irreducible,
    dimension_profile,
    eigen_structure,
    find_hessenberg_orderings,
    find_hessenberg_orderings_of,
    gen_reducible,
    gen_split_form,
    gen_tridiagonal_form,
    is_decomposition,
    is_hessenberg_wrt,
    is_tridiagonal_pair,
    recover_hessenberg_from_split,
    split_from_flags,
    split_violations,
    subspace_contains,
    verify_split,
)
from hesspairs.errors import (
    DDeltaMismatchError,
    IndexOutOfRangeError,
    IrreducibilityUndeterminedError,
    MixedFieldsError,
    NotDiagonalizableError,
    NotHessenbergError,
    NotIrreducibleError,
    SearchBudgetExceededError,
    SplitInvalidError,
)
from hesspairs.pairs import (
    DEFAULT_MAX_ORDERINGS,
    _admissible_side_orderings,
    _ordering_pairs,
    _side_condition_holds,
    _three_term_side_holds,
    _three_term_side_orderings,
    _tridiagonal_orderings,
    _window_inclusions_hold,
)

FIXTURES = Path(__file__).parent / "fixtures"

IRR = IrreducibilityVerdict(IrreducibilityStatus.IRREDUCIBLE, DecisionMethod.BRUTE_FORCE)


def canonical_pair(field=QQ):
    a = Matrix.from_rows(field, [[2, 0, 0], [1, 1, 0], [0, 1, 0]])
    a_star = Matrix.from_rows(field, [[0, 1, 0], [0, 1, 1], [0, 0, 2]])
    return a, a_star


def swap_pair():
    a = Matrix.diagonal(QQ, [0, 1, 2])
    a_star = Matrix.from_rows(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    return a, a_star


def echelon_scan_pairs(a, a_star):
    """The Hessenberg ordering pairs by the echelon oracle: every ordering of each side checked."""
    ea, eb = eigen_structure(a), eigen_structure(a_star)
    sides = (scan_orderings(ea, a_star, _side_condition_holds), scan_orderings(eb, a, _side_condition_holds))
    return _ordering_pairs(ea, eb, *sides, DEFAULT_MAX_ORDERINGS)


def value_seqs(pairs):
    return sorted(
        (
            tuple(v.value for v in oa.eigenvalues),
            tuple(v.value for v in ob.eigenvalues),
        )
        for oa, ob in pairs
    )


def test_two_eigenspaces_always_hessenberg():
    # With d = 1 on both sides every inclusion has the whole space on the
    # right, so any orderings work.
    a = Matrix.diagonal(QQ, [0, 1])
    a_star = Matrix.from_rows(QQ, [[1, 1], [0, 2]])
    ea, eb = eigen_structure(a), eigen_structure(a_star)
    for pa in itertools.permutations(range(2)):
        for pb in itertools.permutations(range(2)):
            assert is_hessenberg_wrt(a, a_star, EigenOrdering(ea, pa), EigenOrdering(eb, pb))


def test_canonical_pair_orderings():
    a, a_star = canonical_pair()
    assert is_hessenberg_wrt(
        a, a_star, ordering_for(a, [2, 1, 0]), ordering_for(a_star, [0, 1, 2])
    )
    assert is_hessenberg_wrt(
        a, a_star, ordering_for(a, [0, 1, 2]), ordering_for(a_star, [0, 1, 2])
    )


def test_swap_pair_not_hessenberg_for_natural_order():
    a, a_star = swap_pair()
    # A* sends span{e1} to span{e3}, which escapes V_0 + V_1.
    assert not is_hessenberg_wrt(
        a, a_star, ordering_for(a, [0, 1, 2]), ordering_for(a_star, [1, -1])
    )


def test_swap_pair_admissible_orderings_match_brute_force():
    a, a_star = swap_pair()
    fast = find_hessenberg_orderings(a, a_star)
    slow = echelon_scan_pairs(a, a_star)
    assert value_seqs(fast) == value_seqs(slow)
    # The A-side admits exactly the orders where A* maps the leading
    # eigenspace into the first two: e2's eigenvalue first, or the swapped
    # axes e1, e3 adjacent in leading positions.
    a_orders = sorted({seq_a for seq_a, _ in value_seqs(fast)})
    assert a_orders == [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1)]
    # The A*-side is unconstrained (two eigenspaces only).
    assert len(fast) == len(a_orders) * 2


def test_find_orderings_single_eigenvalue():
    a = Matrix.scalar(QQ, 2, 3)
    a_star = Matrix.scalar(QQ, 2, 5)
    pairs = find_hessenberg_orderings(a, a_star)
    assert len(pairs) == 1


def test_generated_instance_contains_generating_pair():
    inst = gen_split_form(GF(7), (1, 2, 1), (0, 1, 2), (3, 4, 5), seed=2)
    pairs = find_hessenberg_orderings(inst.a, inst.a_star)
    wanted = ((0, 1, 2), (3, 4, 5))
    assert wanted in value_seqs(pairs)


def test_full_cartesian_oracle_small():
    # Definition-level check: membership in the found set must coincide
    # with is_hessenberg_wrt over the whole ordering product.
    rng = random.Random(31)
    for _ in range(6):
        a = rand_diagonalizable(GF(5), 4, list(range(5)), rng, max_distinct=3)
        b = rand_diagonalizable(GF(5), 4, list(range(5)), rng, max_distinct=3)
        ea, eb = eigen_structure(a), eigen_structure(b)
        found = {
            (oa.perm, ob.perm)
            for oa, ob in find_hessenberg_orderings_of(a, b, ea, eb)
        }
        for pa in itertools.permutations(range(len(ea.eigenvalues))):
            for pb in itertools.permutations(range(len(eb.eigenvalues))):
                direct = is_hessenberg_wrt(a, b, EigenOrdering(ea, pa), EigenOrdering(eb, pb))
                assert direct == ((pa, pb) in found)


def test_pruned_search_equals_brute_force_randomized():
    rng = random.Random(32)
    for _ in range(15):
        field = rng.choice([GF(5), GF(7)])
        n = rng.randint(2, 5)
        a = rand_diagonalizable(field, n, list(range(7)), rng, max_distinct=4)
        b = rand_diagonalizable(field, n, list(range(7)), rng, max_distinct=4)
        fast = find_hessenberg_orderings(a, b)
        slow = echelon_scan_pairs(a, b)
        assert value_seqs(fast) == value_seqs(slow)


def test_pruned_three_term_search_equals_brute_force_randomized():
    # The reversal closure of the admissible orderings, which analyze
    # reports, against the echelon scan of the three-term inclusions.
    rng = random.Random(33)
    pairs = []
    # Random diagonalizable pairs, eigenspace counts up to 5 per side.
    for _ in range(100):
        field = rng.choice([GF(5), GF(7), GF(11)])
        n = rng.randint(2, 6)
        pool = list(range(field.p))
        a = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        b = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        pairs.append((a, b))
    # Random pairs rarely admit some orderings but not all; sl2 pairs and
    # sparse split-form pairs do, so the reversal closure has real work to do.
    for field in (GF(7), GF(11)):
        pairs.extend(sl2_pair(field, d) for d in (2, 3, 4))
    for seed in range(20):
        field = rng.choice([GF(5), GF(7), GF(11)])
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(3, 5)))
        va, vb = rng.sample(range(field.p), len(dims)), rng.sample(range(field.p), len(dims))
        inst = gen_split_form(field, dims, va, vb, seed=seed, allow_zero_entries=True)
        pairs.append((inst.a, inst.a_star))
    partial = 0
    for a, b in pairs:
        for eig, acting in ((eigen_structure(a), b), (eigen_structure(b), a)):
            fast = _three_term_side_orderings(_admissible_side_orderings(eig, acting, DEFAULT_MAX_ORDERINGS))
            assert fast == scan_orderings(eig, acting, _three_term_side_holds)
            partial += 0 < len(fast) < math.factorial(eig.d + 1)
    assert partial >= 20


def _unimodular(field, n, rng):
    """An integer matrix of determinant 1: a product of elementary row operations."""
    m = Matrix.identity(field, n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        grid = [list(row) for row in Matrix.identity(field, n).entries]
        grid[i][j] = field.coerce(rng.choice([-2, -1, 1, 2]))
        m = Matrix(field, tuple(tuple(r) for r in grid)) * m
    return m


def _search_test_pairs():
    """Random, Q, sl2 and sparse split-form pairs, all sides diagonalizable.

    Sides that admit some but not all orderings come from the sl2 and
    sparse split-form pairs.
    """
    rng = random.Random(34)
    pairs = []
    for _ in range(60):
        field = rng.choice([GF(5), GF(7), GF(11)])
        n = rng.randint(2, 6)
        pool = list(range(field.p))
        a = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        b = rand_diagonalizable(field, n, pool, rng, max_distinct=5)
        pairs.append((a, b))
    for _ in range(10):
        n = rng.randint(2, 4)
        pairs.append(tuple(rand_diagonalizable(QQ, n, list(range(-3, 4)), rng) for _ in range(2)))
    for _ in range(10):
        n = rng.randint(2, 5)
        pair = []
        for _ in range(2):
            p = _unimodular(QQ, n, rng)
            diag = Matrix.diagonal(QQ, [rng.randint(-3, 3) for _ in range(n)])
            pair.append(p * diag * p.inverse())
        pairs.append(tuple(pair))
    for field in (GF(7), GF(11), QQ):
        pairs.extend(sl2_pair(field, d) for d in (2, 3, 4))
    for seed in range(30):
        field = rng.choice([GF(5), GF(7), GF(11), QQ])
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(3, 5)))
        values = range(-5, 6) if field is QQ else range(field.p)
        va, vb = rng.sample(values, len(dims)), rng.sample(values, len(dims))
        inst = gen_split_form(field, dims, va, vb, seed=seed, allow_zero_entries=True)
        pairs.append((inst.a, inst.a_star))
    return pairs


def test_block_pattern_search_equals_echelon_scan_randomized():
    # The admissible search reads each side's block pattern; the
    # oracle scans every ordering with echelons.
    partial = 0
    for a, b in _search_test_pairs():
        for eig, acting in ((eigen_structure(a), b), (eigen_structure(b), a)):
            fast = _admissible_side_orderings(eig, acting, DEFAULT_MAX_ORDERINGS)
            assert fast == scan_orderings(eig, acting, _side_condition_holds)
            partial += 0 < len(fast) < math.factorial(eig.d + 1)
    assert partial >= 20


def _brute_force_sides():
    """(eigen, acting) for both sides of small pairs over GF(2), GF(3), GF(7) and Q, d <= 5.

    Sparse split-form pairs, conjugated reducible sums, and pairs whose
    A* is scalar, so that every ordering of A's side is admissible.
    """
    from hesspairs.generators import conjugate

    rng = random.Random(37)
    fields = [GF(2), GF(3), GF(7), QQ]
    pairs = []
    for seed in range(32):
        field = fields[seed % 4]
        values = range(-5, 6) if field is QQ else range(field.p)
        k = rng.randint(2, min(6, len(values)))
        va, vb = rng.sample(values, k), rng.sample(values, k)
        dims = tuple(rng.randint(1, 2) for _ in range(k))
        inst = gen_split_form(field, dims, va, vb, seed=seed, allow_zero_entries=True)
        pairs.append((inst.a, inst.a_star))
        k = min(k, 4)
        inner = [tuple(rng.randint(1, 2) for _ in range(k)) for _ in range(2)]
        inst = conjugate(gen_reducible(field, inner, va[:k], vb[:k], seed), seed + 1)
        pairs.append((inst.a, inst.a_star))
    for field in fields:
        values = range(-5, 6) if field is QQ else range(field.p)
        k = min(6, len(values))
        p = rand_invertible(field, k, rng)
        a = p * Matrix.diagonal(field, rng.sample(values, k)) * p.inverse()
        pairs.append((a, Matrix.scalar(field, k, rng.choice(values))))
    return [
        (eig, acting)
        for a, b in pairs
        for eig, acting in ((eigen_structure(a), b), (eigen_structure(b), a))
    ]


def test_one_search_under_both_tests_equals_brute_force(monkeypatch):
    # The one ordering search, under the block-pattern test analyze passes
    # and under the echelon test the oracle passes, against the scan of all
    # (d+1)! orderings.  A stop (a rejected prefix or a complete ordering)
    # stands for a set of orderings disjoint from every other stop's, so a
    # side stops at most (d+1)! times, and exactly that often when the
    # acting side is scalar.  The budget admits exactly the stops made.
    from hesspairs import pairs

    search, stops = pairs._search_orderings, []

    def counting_search(count, settled, budget):
        rejected = 0

        def counted(prefix):
            nonlocal rejected
            held = settled(prefix)
            rejected += not held
            return held

        found = search(count, counted, budget)
        stops.append(rejected + len(found))
        return found

    monkeypatch.setattr(pairs, "_search_orderings", counting_search)
    partial = scalar = 0
    fields = set()
    for eig, acting in _brute_force_sides():
        reference = scan_orderings(eig, acting, _side_condition_holds)
        count = math.factorial(eig.d + 1)
        made = []
        for side_search in (pairs._admissible_side_orderings, pairs._echelon_side_orderings):
            stops.clear()
            assert side_search(eig, acting, DEFAULT_MAX_ORDERINGS) == reference
            made += stops
            assert side_search(eig, acting, stops[0]) == reference
            with pytest.raises(SearchBudgetExceededError):
                side_search(eig, acting, stops[0] - 1)
        assert made[0] == made[1] <= count
        if eigen_structure(acting).d == 0:
            assert made[0] == count == len(reference)
            scalar += eig.d >= 4
        partial += 0 < len(reference) < count
        fields.add(acting.field)
    assert partial >= 20 and scalar >= 2 and len(fields) == 4


def test_budget_admits_every_ordering_of_eight_eigenspaces_and_refuses_nine():
    # The identity keeps every eigenspace, so each ordering of A's
    # eigenspaces is a stop: the default budget admits the 8! = 40320
    # orderings of 8 eigenvalues, as the (d+1)! cap did, and refuses 9.
    def search(k):
        return _admissible_side_orderings(
            eigen_structure(Matrix.diagonal(QQ, list(range(k)))), Matrix.identity(QQ, k), DEFAULT_MAX_ORDERINGS
        )

    assert search(8) == list(itertools.permutations(range(8)))
    with pytest.raises(SearchBudgetExceededError, match="exceeds 40320 stops"):
        search(9)


def _first_failing_window(acting, ordering, back):
    """The first i with acting V_i not inside V_{i-back} + ... + V_{i+1}, or None.

    Each window's sum is built afresh from its eigenspaces.
    """
    spaces = ordering.eigenspaces
    for i, space in enumerate(spaces):
        rows = [r for w in spaces[max(i - back, 0):i + 2] for r in w.rows]
        window = SubspaceBasis.from_vectors(acting.field, acting.ncols, rows)
        if not subspace_contains(window, apply(acting, space)):
            return i
    return None


def test_window_inclusions_match_fresh_window_reference():
    # The oracle tests each window with one echelon (_maps_into); the
    # reference sums every window as a subspace and maps it with apply.
    # Both chains are checked on every ordering, and orderings failing at
    # the first, a middle and the last window that can fail are each
    # counted.
    rng = random.Random(36)
    pairs = []
    for _ in range(24):
        field = rng.choice([GF(5), GF(7)])
        n = rng.randint(3, 5)
        pairs.append(tuple(rand_diagonalizable(field, n, list(range(field.p)), rng) for _ in range(2)))
    for _ in range(6):
        n = rng.randint(3, 4)
        pairs.append(tuple(rand_diagonalizable(QQ, n, list(range(-3, 4)), rng) for _ in range(2)))
    for seed in range(24):
        field = [GF(5), GF(7), QQ][seed % 3]
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(4, 5)))
        values = range(-5, 6) if field is QQ else range(field.p)
        va, vb = rng.sample(values, len(dims)), rng.sample(values, len(dims))
        inst = gen_split_form(field, dims, va, vb, seed=seed, allow_zero_entries=True)
        pairs.append((inst.a, inst.a_star))
    seen = {(chain, where): 0 for chain in ("hessenberg", "three-term") for where in ("first", "middle", "last")}
    for a, b in pairs:
        for eig, acting in ((eigen_structure(a), b), (eigen_structure(b), a)):
            d = eig.d
            for perm in itertools.permutations(range(d + 1)):
                ordering = EigenOrdering(eig, perm)
                # The last window that can fail: V_0 + ... + V_d is all of V.
                for chain, back, last in (("hessenberg", d + 1, d - 2), ("three-term", 1, d)):
                    failed_at = _first_failing_window(acting, ordering, back)
                    assert _window_inclusions_hold(acting, ordering, back) == (failed_at is None)
                    if failed_at is not None and last >= 2:
                        where = "first" if failed_at == 0 else "last" if failed_at == last else "middle"
                        seen[chain, where] += 1
    assert min(seen.values()) >= 10, seen


def test_tridiagonal_filter_equals_product_of_three_term_sides():
    # The witnesses are filtered from the Hessenberg ordering pairs; the
    # reference builds them as the product of each side's three-term
    # orderings, as a second search would.  Sides with some but not all
    # orderings three-term, pairs with witnesses and pairs whose filter
    # drops some ordering pair are each counted.
    partial = nonempty = filtered = 0
    for a, b in _search_test_pairs():
        eig_a, eig_b = eigen_structure(a), eigen_structure(b)
        orderings = find_hessenberg_orderings_of(a, b, eig_a, eig_b)
        sides = [
            _three_term_side_orderings(_admissible_side_orderings(eig, acting, DEFAULT_MAX_ORDERINGS))
            for eig, acting in ((eig_a, b), (eig_b, a))
        ]
        expected = _ordering_pairs(eig_a, eig_b, *sides, DEFAULT_MAX_ORDERINGS)
        assert _tridiagonal_orderings(orderings, IRR) == (bool(expected), expected)
        partial += sum(0 < len(side) < math.factorial(eig.d + 1) for side, eig in zip(sides, (eig_a, eig_b)))
        nonempty += bool(expected)
        filtered += len(expected) < len(orderings)
    assert partial >= 20 and nonempty >= 20 and filtered >= 20



def _order_test_pairs():
    """Random GF(5), GF(7), GF(11) pairs, conjugated split-form pairs, and
    Q pairs with negative and fractional eigenvalues."""
    rng = random.Random(35)
    thirds = sorted({Fraction(k, m) for k in range(-6, 7) for m in (1, 2, 3)})
    pairs = []
    for _ in range(30):
        field = rng.choice([GF(5), GF(7), GF(11)])
        n = rng.randint(2, 5)
        pairs.append(tuple(
            rand_diagonalizable(field, n, list(range(field.p)), rng, max_distinct=3) for _ in range(2)
        ))
    for seed in range(40):
        field = rng.choice([GF(5), GF(7), GF(11), QQ])
        dims = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 4)))
        values = thirds if field is QQ else range(field.p)
        va, vb = rng.sample(values, len(dims)), rng.sample(values, len(dims))
        inst = gen_split_form(field, dims, va, vb, seed=seed, allow_zero_entries=True)
        moved = _conjugated(inst, seed, rng)
        pairs.append((moved.a, moved.a_star))
    for _ in range(10):
        n = rng.randint(2, 4)
        pairs.append(tuple(
            _conjugated_diagonal(QQ, _spectrum(rng, thirds, n, 2), _unimodular(QQ, n, rng))
            for _ in range(2)
        ))
    return pairs


def test_ordering_pairs_come_in_ascending_eigenvalue_order():
    # No sort stands behind the report order: eigen_structure lists the
    # eigenvalues in ascending order and each side's search emits its
    # orderings in lexicographic order of eigenvalue indices, so the
    # product of the two sides ascends in the eigenvalue sequences.
    spread = 0
    for a, b in _order_test_pairs():
        for m in (a, b):
            values = [v.value for v in eigen_structure(m).eigenvalues]
            assert all(x < y for x, y in zip(values, values[1:]))
        keys = [
            (tuple(v.value for v in oa.eigenvalues), tuple(v.value for v in ob.eigenvalues))
            for oa, ob in find_hessenberg_orderings(a, b)
        ]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        spread += len({ka for ka, _ in keys}) > 1 and len({kb for _, kb in keys}) > 1
    assert spread >= 20

def test_analyze_pair_computes_each_fact_once(monkeypatch):
    # One eigen structure per side and one split verification per
    # reported ordering pair.
    from hesspairs import irreducibility, pairs
    from hesspairs.cli import parse_document

    doc = json.loads((FIXTURES / "pair_split_gf7.json").read_text())
    _, a, a_star, _ = parse_document(doc)
    eigen_calls, split_checks = [], []

    def counting_eigen(m):
        eigen_calls.append(m)
        return eigen_structure(m)

    def counting_violations(*args):
        split_checks.append(args)
        return split_violations(*args)

    monkeypatch.setattr(pairs, "eigen_structure", counting_eigen)
    monkeypatch.setattr(irreducibility, "eigen_structure", counting_eigen)
    monkeypatch.setattr(pairs, "split_violations", counting_violations)
    report = analyze_pair(a, a_star)
    assert eigen_calls == [a, a_star]
    assert len(report.hessenberg_orderings) == 1
    assert len(split_checks) == len(report.hessenberg_orderings)
    assert report.splits[0] is not None


def test_analyze_pair_searches_orderings_once(monkeypatch):
    # One ordering search, through the public stage, with one block-pattern
    # search per side; the tridiagonal witnesses come from its result.
    from hesspairs import pairs
    from hesspairs.cli import parse_document

    doc = json.loads((FIXTURES / "pair_tridiagonal_gf11.json").read_text())
    _, a, a_star, _ = parse_document(doc)
    searches, sides = [], []
    search, side_search = pairs.find_hessenberg_orderings_of, pairs._admissible_side_orderings

    def counting_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    def counting_side_search(*args):
        sides.append(args)
        return side_search(*args)

    monkeypatch.setattr(pairs, "find_hessenberg_orderings_of", counting_search)
    monkeypatch.setattr(pairs, "_admissible_side_orderings", counting_side_search)
    report = analyze_pair(a, a_star)
    assert report.tridiagonal is True
    assert len(searches) == 1
    assert [eig for eig, _, _ in sides] == [report.eigen_a, report.eigen_a_star]


@pytest.mark.parametrize(
    "fixture", ["pair_split_gf7.json", "pair_canonical_q.json", "pair_split_q_dims23.json"]
)
def test_analyze_pair_conjugates_once_per_side(monkeypatch, fixture):
    # Both sides are diagonalizable: one eigenbasis conjugate P^-1 M' P is
    # formed per side, the algebra closure reuses one of them, each side's
    # block pattern is read once, and the ordering search never falls back
    # to echelon checks.
    from hesspairs import irreducibility, pairs
    from hesspairs.cli import parse_document

    doc = json.loads((FIXTURES / fixture).read_text())
    _, a, a_star, _ = parse_document(doc)
    inverted, closed, patterns = [], [], []
    inverse, closure, block_support = Matrix.inverse, irreducibility.algebra_closure, pairs._block_support

    def counting_inverse(m):
        inverted.append(m)
        return inverse(m)

    def recording_closure(generators):
        closed.append(generators)
        return closure(generators)

    def counting_support(eigen, acting):
        patterns.append(eigen)
        return block_support(eigen, acting)

    def refuse(*args):
        raise AssertionError("an echelon check ran on the block-pattern path")

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    monkeypatch.setattr(irreducibility, "algebra_closure", recording_closure)
    monkeypatch.setattr(pairs, "_block_support", counting_support)
    monkeypatch.setattr(pairs, "_side_condition_holds", refuse)
    monkeypatch.setattr(pairs, "_three_term_side_holds", refuse)
    monkeypatch.setattr(pairs, "_window_inclusions_hold", refuse)
    monkeypatch.setattr(pairs, "_maps_into", refuse)
    monkeypatch.setattr(pairs, "_echelon_side_orderings", refuse)
    report = analyze_pair(a, a_star)
    assert report.eigen_a.diagonalizable and report.eigen_a_star.diagonalizable
    assert report.tridiagonal is not None
    assert len(inverted) == 2
    assert len(patterns) == 2 and patterns[0] is report.eigen_a and patterns[1] is report.eigen_a_star
    # Both conjugates are kept on the eigen structures: fetching them forms nothing new.
    conjugates = [report.eigen_a.eigenbasis_conjugate(a_star), report.eigen_a_star.eigenbasis_conjugate(a)]
    assert len(inverted) == 2
    assert len(closed) == 1 and any(closed[0][1] is c for c in conjugates)


def test_analyze_pair_builds_each_flag_once(monkeypatch):
    # The splits are read in A's eigenbasis, so analyze_pair builds no
    # prefix flag at all for its 4 ordering pairs (2 + 2 orderings).
    from hesspairs import pairs
    from hesspairs.cli import parse_document

    doc = json.loads((FIXTURES / "pair_canonical_q.json").read_text())
    _, a, a_star, _ = parse_document(doc)
    flag_calls = []
    prefix_flags = pairs._prefix_flags

    def counting_flags(*args):
        flag_calls.append(args)
        return prefix_flags(*args)

    monkeypatch.setattr(pairs, "_prefix_flags", counting_flags)
    report = analyze_pair(a, a_star)
    assert len(report.hessenberg_orderings) == 4
    assert flag_calls == []


def test_search_budget_enforced():
    a = Matrix.diagonal(QQ, [0, 1])
    a_star = Matrix.diagonal(QQ, [0, 1])
    with pytest.raises(SearchBudgetExceededError):
        find_hessenberg_orderings(a, a_star, max_orderings=1)


def test_not_diagonalizable_rejected():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    b = Matrix.identity(QQ, 2)
    with pytest.raises(NotDiagonalizableError):
        find_hessenberg_orderings(a, b)


# -- lattice ---------------------------------------------------------------------


def lattice_for(inst):
    ord_a = ordering_for(inst.a, [v.value for v in inst.truth.eigenvalues_a])
    ord_b = ordering_for(inst.a_star, [v.value for v in inst.truth.eigenvalues_a_star])
    return ord_a, ord_b, build_intersection_lattice(ord_a, ord_b)


def test_lattice_boundaries():
    inst = gen_split_form(GF(5), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=3)
    _, _, lat = lattice_for(inst)
    assert lat.cell(lat.d, lat.d_star) == SubspaceBasis.full(GF(5), 3)
    for j in range(-1, lat.d_star + 2):
        assert lat.cell(-1, j).is_zero
    for i in range(-1, lat.d + 2):
        assert lat.cell(i, -1).is_zero
    # Clamping beyond the stored range follows the same conventions.
    assert lat.cell(-5, 0).is_zero
    assert lat.cell(lat.d + 9, lat.d_star + 9) == SubspaceBasis.full(GF(5), 3)


def test_lattice_edge_rows_recover_flags():
    inst = gen_split_form(GF(7), (1, 2, 1), (0, 1, 2), (0, 1, 2), seed=4)
    ord_a, ord_b, lat = lattice_for(inst)
    from hesspairs.pairs import _prefix_flags

    field, n = inst.a.field, inst.a.nrows
    flags_a = _prefix_flags(ord_a.eigenspaces, field, n)
    flags_b = _prefix_flags(ord_b.eigenspaces, field, n)
    for i in range(lat.d + 1):
        assert lat.cell(i, lat.d_star) == flags_a[i]
    for j in range(lat.d_star + 1):
        assert lat.cell(lat.d, j) == flags_b[j]


def test_lattice_cells_vanish_below_antidiagonal_and_actions():
    rng = random.Random(33)
    for seed in range(6):
        field = rng.choice([GF(5), GF(7), GF(11)])
        dims = rng.choice([(1, 1), (1, 1, 1), (1, 2, 1)])
        d = len(dims) - 1
        values = random.Random(seed).sample(range(field.p), d + 1)
        inst = gen_split_form(field, dims, values, values, seed=seed)
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is not IrreducibilityStatus.IRREDUCIBLE:
            continue
        ord_a, ord_b, lat = lattice_for(inst)
        for i in range(0, d + 1):
            for j in range(0, d + 1):
                if i + j < d:
                    assert lat.cell(i, j).is_zero
        # Raising/lowering action cell by cell.
        va = [v.value for v in ord_a.eigenvalues]
        vb = [v.value for v in ord_b.eigenvalues]
        for i in range(0, d + 1):
            for j in range(0, d + 1):
                cell = lat.cell(i, j)
                down = apply(inst.a.minus_scalar(va[i]), cell)
                assert subspace_contains(lat.cell(i - 1, j + 1), down)
                up = apply(inst.a_star.minus_scalar(vb[j]), cell)
                assert subspace_contains(lat.cell(i + 1, j - 1), up)
        # Antidiagonal sums behave like the irreducibility argument says.
        for r in range(0, d):
            assert antidiagonal_span(lat, r).is_zero
        top = antidiagonal_span(lat, d)
        assert top.dim == top.ambient_dim


def test_antidiagonal_span_degenerate_and_range():
    inst = gen_split_form(QQ, (2,), (5,), (7,), seed=1)
    _, _, lat = lattice_for(inst)
    assert antidiagonal_span(lat, 0) == SubspaceBasis.full(QQ, 2)  # d = 0: the (0,0) cell is V
    with pytest.raises(IndexOutOfRangeError):
        antidiagonal_span(lat, 1)
    with pytest.raises(IndexOutOfRangeError):
        antidiagonal_span(lat, -1)


# -- split construction / verification ---------------------------------------------


def test_construct_split_detects_non_direct_cells():
    # A lying Irreducible verdict on a reducible pair: the antidiagonal
    # cells overlap instead of summing directly, which the construction
    # reports as the irreducibility violation it is.
    a = Matrix.diagonal(QQ, [0, 1])
    with pytest.raises(NotIrreducibleError):
        construct_split(a, a, ordering_for(a, [0, 1]), ordering_for(a, [0, 1]), IRR)


def test_construct_split_detects_zero_cell():
    # Simultaneously diagonal pair with misaligned multiplicities: the
    # middle antidiagonal cell is zero, which only a reducible pair can do.
    a = Matrix.diagonal(QQ, [0, 1, 2, 2])
    a_star = Matrix.diagonal(QQ, [0, 0, 1, 2])
    ord_a = ordering_for(a, [0, 1, 2])
    ord_b = ordering_for(a_star, [2, 1, 0])
    assert is_hessenberg_wrt(a, a_star, ord_a, ord_b)
    with pytest.raises(NotIrreducibleError):
        construct_split(a, a_star, ord_a, ord_b, IRR)


def test_construct_split_dimension_one():
    a = Matrix.scalar(QQ, 1, 4)
    a_star = Matrix.scalar(QQ, 1, 9)
    ord_a = EigenOrdering.canonical(eigen_structure(a))
    ord_b = EigenOrdering.canonical(eigen_structure(a_star))
    split = construct_split(a, a_star, ord_a, ord_b, decide_irreducible(a, a_star))
    assert split.subspaces == (SubspaceBasis.full(QQ, 1),)


def test_construct_split_recovers_standard_flag():
    a, a_star = canonical_pair()
    ord_a = ordering_for(a, [0, 1, 2])
    ord_b = ordering_for(a_star, [0, 1, 2])
    split = construct_split(a, a_star, ord_a, ord_b, decide_irreducible(a, a_star))
    expected = tuple(
        SubspaceBasis.from_vectors(QQ, 3, [[1 if j == i else 0 for j in range(3)]])
        for i in range(3)
    )
    assert split.subspaces == expected
    assert split == split_from_flags(ord_a, ord_b)


def test_construct_split_roundtrip_generated():
    for field, dims, seed in [
        (GF(5), (1, 1, 1), 11),
        (GF(7), (1, 2, 1), 12),
        (QQ, (1, 1), 13),
        (GF(11), (2, 3), 14),
    ]:
        d = len(dims) - 1
        values = list(range(d + 1))
        inst = gen_split_form(field, dims, values, values, seed=seed)
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is not IrreducibilityStatus.IRREDUCIBLE:
            continue
        ord_a = ordering_for(inst.a, values)
        ord_b = ordering_for(inst.a_star, values)
        split = construct_split(inst.a, inst.a_star, ord_a, ord_b, verdict)
        assert split.subspaces == inst.truth.flag
        assert split == split_from_flags(ord_a, ord_b)


def test_construct_split_requires_hessenberg():
    a, a_star = swap_pair()
    with pytest.raises(NotHessenbergError):
        construct_split(
            a, a_star, ordering_for(a, [0, 1, 2]), ordering_for(a_star, [1, -1]), IRR
        )


def test_construct_split_rejects_reducible_and_undetermined():
    a, a_star = canonical_pair()
    ord_a = ordering_for(a, [0, 1, 2])
    ord_b = ordering_for(a_star, [0, 1, 2])
    red = IrreducibilityVerdict(
        IrreducibilityStatus.REDUCIBLE,
        DecisionMethod.NORTON,
        witness=SubspaceBasis.from_vectors(QQ, 3, [[1, 0, 0]]),
    )
    with pytest.raises(NotIrreducibleError):
        construct_split(a, a_star, ord_a, ord_b, red)
    und = IrreducibilityVerdict(IrreducibilityStatus.UNDETERMINED, DecisionMethod.NORTON)
    with pytest.raises(IrreducibilityUndeterminedError):
        construct_split(a, a_star, ord_a, ord_b, und)


def test_construct_split_d_delta_mismatch():
    # Hessenberg but with different eigenspace counts; only a reducible
    # pair can do this, so the caller-supplied verdict is the violation.
    a = Matrix.diagonal(QQ, [0, 1, 2])
    a_star = Matrix.diagonal(QQ, [0, 1, 1])
    ord_a = ordering_for(a, [0, 1, 2])
    ord_b = ordering_for(a_star, [0, 1])
    assert is_hessenberg_wrt(a, a_star, ord_a, ord_b)
    with pytest.raises(DDeltaMismatchError):
        construct_split(a, a_star, ord_a, ord_b, IRR)


def test_hessenberg_iff_formula_split_verifies_for_irreducible():
    # For an irreducible pair, an ordering pair admits a verifying split
    # exactly when the pair is Hessenberg with respect to it, so the
    # closed-form candidate's verification decides the Hessenberg property.
    inst = gen_split_form(GF(7), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=61)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    ea = eigen_structure(inst.a)
    eb = eigen_structure(inst.a_star)
    admissible = {
        (oa.perm, ob.perm)
        for oa, ob in find_hessenberg_orderings_of(inst.a, inst.a_star, ea, eb)
    }
    for pa in itertools.permutations(range(3)):
        for pb in itertools.permutations(range(3)):
            ord_a = EigenOrdering(ea, pa)
            ord_b = EigenOrdering(eb, pb)
            cand = split_from_flags(ord_a, ord_b)
            assert verify_split(inst.a, inst.a_star, cand) == ((pa, pb) in admissible)


def test_split_from_flags_d_zero():
    a = Matrix.scalar(GF(5), 2, 3)
    a_star = Matrix.scalar(GF(5), 2, 4)
    split = split_from_flags(
        EigenOrdering.canonical(eigen_structure(a)),
        EigenOrdering.canonical(eigen_structure(a_star)),
    )
    assert split.subspaces == (SubspaceBasis.full(GF(5), 2),)
    assert verify_split(a, a_star, split)


def test_split_from_flags_rejects_count_mismatch():
    a = Matrix.diagonal(QQ, [0, 1, 2])
    a_star = Matrix.diagonal(QQ, [0, 1, 1])
    with pytest.raises(DDeltaMismatchError):
        split_from_flags(ordering_for(a, [0, 1, 2]), ordering_for(a_star, [0, 1]))


def test_split_violations_shape_errors():
    from hesspairs.errors import ShapeMismatchError

    inst = gen_split_form(GF(5), (1, 1), (0, 1), (2, 3), seed=71)
    good = inst.split()
    with pytest.raises(ShapeMismatchError):
        split_violations(
            inst.a,
            inst.a_star,
            SplitDecomposition(good.subspaces, good.eigenvalues_a[:1], good.eigenvalues_a_star),
        )
    with pytest.raises(ShapeMismatchError):
        split_violations(
            inst.a,
            inst.a_star,
            SplitDecomposition((), (), ()),
        )
    with pytest.raises(ShapeMismatchError):
        split_violations(Matrix.zeros(GF(5), 2, 3), inst.a_star, good)
    taller = SubspaceBasis.full(GF(5), 3)
    with pytest.raises(ShapeMismatchError):
        split_violations(
            inst.a,
            inst.a_star,
            SplitDecomposition((taller, taller), good.eigenvalues_a, good.eigenvalues_a_star),
        )


def test_split_violations_rejects_eigenvalues_from_another_field():
    # GF(11)'s 7, 8, 9 reduce to GF(7)'s 0, 1, 2, and a Q copy has the same
    # integers, so reading only each eigenvalue's value would verify both.
    inst = gen_split_form(GF(7), (1, 1, 1), (0, 1, 2), (3, 4, 5), seed=1)
    good = inst.split()
    assert verify_split(inst.a, inst.a_star, good)
    in_gf11 = tuple(GF(11).element(v) for v in (7, 8, 9))
    in_q = tuple(QQ.element(v.value) for v in good.eigenvalues_a)
    in_q_star = tuple(QQ.element(v.value) for v in good.eigenvalues_a_star)
    for cand in (
        SplitDecomposition(good.subspaces, in_gf11, good.eigenvalues_a_star),
        SplitDecomposition(good.subspaces, in_q, in_q_star),
        SplitDecomposition(good.subspaces, good.eigenvalues_a, in_q_star),
    ):
        with pytest.raises(MixedFieldsError):
            verify_split(inst.a, inst.a_star, cand)


def _conjugated_diagonal(field, values, conjugator):
    return conjugator * Matrix.diagonal(field, values) * conjugator.inverse()


def _spectrum(rng, pool, n, k):
    """n diagonal entries with exactly k distinct values from pool."""
    values = rng.sample(pool, k)
    diag = values + [rng.choice(values) for _ in range(n - k)]
    rng.shuffle(diag)
    return diag


def _conjugated(inst, seed, rng):
    """The instance under a random conjugator, unimodular over Q."""
    from hesspairs.generators import conjugate

    field = inst.a.field
    unimodular = _unimodular(field, inst.a.nrows, rng) if field is QQ else None
    return conjugate(inst, seed, conjugator=unimodular)


def _pairs_with_equal_counts(rng):
    """Diagonalizable pairs with d = d* <= 3: random, Q, split-form, reducible, sl2, d = 0."""
    pairs = []
    for field in (GF(2), GF(3), GF(5), GF(7)):
        pool = list(range(field.p))
        for _ in range(6):
            n = rng.randint(1, 5)
            k = rng.randint(1, min(field.p, n, 3))
            pairs.append(tuple(
                _conjugated_diagonal(field, _spectrum(rng, pool, n, k), rand_invertible(field, n, rng))
                for _ in range(2)
            ))
    for _ in range(6):
        n = rng.randint(2, 5)
        k = rng.randint(2, min(n, 3))
        pairs.append(tuple(
            _conjugated_diagonal(QQ, _spectrum(rng, list(range(-3, 4)), n, k), _unimodular(QQ, n, rng))
            for _ in range(2)
        ))
    # Hessenberg by shape, with repeated eigenvalues, then conjugated.
    for seed, (field, dims) in enumerate(
        [(GF(5), (2, 1, 2)), (GF(7), (1, 2, 1)), (GF(3), (2, 2)), (QQ, (2, 1, 1)), (GF(7), (1, 1, 1, 1))]
    ):
        values = list(range(len(dims)))
        inst = gen_split_form(field, dims, values, values[::-1], seed=seed)
        moved = _conjugated(inst, seed, rng)
        pairs.extend([(inst.a, inst.a_star), (moved.a, moved.a_star)])
    # Reducible sums, whose splits still verify.
    for seed, (field, inner) in enumerate(
        [(GF(5), [(1, 1), (1, 1)]), (GF(7), [(1, 2, 1), (1, 1, 1)]), (QQ, [(1, 1), (2, 1)])]
    ):
        d = len(inner[0]) - 1
        inst = gen_reducible(field, inner, list(range(d + 1)), list(range(1, d + 2)), seed=seed)
        moved = _conjugated(inst, seed, rng)
        pairs.extend([(inst.a, inst.a_star), (moved.a, moved.a_star)])
    pairs.extend([sl2_pair(GF(7), 2), sl2_pair(GF(7), 3), sl2_pair(QQ, 2)])
    # d = 0: both sides scalar.
    pairs.extend((Matrix.scalar(field, 3, 1), Matrix.scalar(field, 3, 2)) for field in (GF(3), QQ))
    return pairs


def test_split_read_equals_intersections_on_every_ordering_pair():
    # The eigenbasis read against d + 1 Zassenhaus intersections of the
    # prefix flags, on all (d+1)!^2 ordering pairs, admissible or not.
    from hesspairs.pairs import _intersected_split

    verified = failed = 0
    for a, b in _pairs_with_equal_counts(random.Random(35)):
        ea, eb = eigen_structure(a), eigen_structure(b)
        assert ea.d == eb.d <= 3
        for pa in itertools.permutations(range(ea.d + 1)):
            for pb in itertools.permutations(range(eb.d + 1)):
                ord_a, ord_b = EigenOrdering(ea, pa), EigenOrdering(eb, pb)
                cand = split_from_flags(ord_a, ord_b)
                assert cand.subspaces == _intersected_split(ord_a, ord_b), (a, b, pa, pb)
                if verify_split(a, b, cand):
                    verified += 1
                else:
                    failed += 1
    assert verified >= 60
    assert failed >= 2000


def _violations_by_images(a, a_star, cand):
    """split_violations written with matrix copies and image echelons: the reference."""
    field, n = a.field, a.nrows
    subs = cand.subspaces
    d = len(subs) - 1
    problems = []
    values_a = [v.value for v in cand.eigenvalues_a]
    values_b = [v.value for v in cand.eigenvalues_a_star]
    if len(set(values_a)) != len(values_a):
        problems.append("eigenvalue sequence for A has repeats")
    if len(set(values_b)) != len(values_b):
        problems.append("eigenvalue sequence for A* has repeats")
    for i, s in enumerate(subs):
        if s.is_zero:
            problems.append(f"subspace {i} is zero")
    if sum(s.dim for s in subs) != n:
        problems.append("subspace dimensions do not sum to the ambient dimension")
    elif not is_decomposition(field, n, subs):
        problems.append("subspaces do not form a direct sum of V")
    if problems:
        return problems
    zero = SubspaceBasis.zero(field, n)
    for i in range(d + 1):
        lowered = apply(a.minus_scalar(values_a[d - i]), subs[i])
        target = subs[i + 1] if i < d else zero
        if not subspace_contains(target, lowered):
            problems.append(f"(A - t[{d - i}]) U_{i} is not contained in U_{i + 1}")
        raised = apply(a_star.minus_scalar(values_b[i]), subs[i])
        target = subs[i - 1] if i > 0 else zero
        if not subspace_contains(target, raised):
            problems.append(f"(A* - s[{i}]) U_{i} is not contained in U_{i - 1}")
    return problems


def test_split_violations_equal_the_image_formulation():
    # The lean check (m·u - t·u against an echelon of the target) lists the
    # same violations, in the same order, as images of m - t·I.
    rng = random.Random(36)
    cases = []
    for seed, (field, dims) in enumerate(
        [(GF(5), (1, 1, 1)), (GF(7), (1, 2, 1)), (GF(11), (2, 1, 2, 1)), (QQ, (1, 2, 1)), (GF(3), (2, 2))]
    ):
        d = len(dims) - 1
        values = list(range(d + 1))
        inst = gen_split_form(field, dims, values, values[1:] + values[:1], seed=seed)
        for pair in (inst, _conjugated(inst, seed, rng)):
            a, b, good = pair.a, pair.a_star, pair.split()
            subs, va, vb = good.subspaces, good.eigenvalues_a, good.eigenvalues_a_star
            n = a.nrows
            g = rand_invertible(field, n, rng)
            variants = [
                (subs, va, vb),                                   # verified
                (subs, va[::-1], vb),                             # reversed orderings
                (subs, va, vb[::-1]),
                (subs[::-1], va, vb),                             # swapped subspaces
                ((subs[1], subs[0], *subs[2:]), va, vb),
                (tuple(apply(g, s) for s in subs), va, vb),       # corrupted: moved by g
                ((apply(g, subs[0]), *subs[1:]), va, vb),         # corrupted: one moved by g
                ((subs[0], subs[0], *subs[2:]), va, vb),          # not a direct sum
                ((subs[0], SubspaceBasis.zero(field, n), *subs[2:]), va, vb),
                ((SubspaceBasis.zero(field, n), subs[0], *subs[1:]), va[:1] + va, vb[:1] + vb),
                (subs, (va[0],) * len(va), vb),                   # repeated eigenvalues
            ]
            cases.extend((a, b, SplitDecomposition(*v)) for v in variants)
    # Every ordering pair's candidate of random pairs: mostly not splits.
    for a, b in _pairs_with_equal_counts(random.Random(37))[::3]:
        ea, eb = eigen_structure(a), eigen_structure(b)
        for pa in itertools.permutations(range(ea.d + 1)):
            for pb in itertools.permutations(range(eb.d + 1)):
                cases.append((a, b, split_from_flags(EigenOrdering(ea, pa), EigenOrdering(eb, pb))))
    verified = inclusion_failures = 0
    for a, b, cand in cases:
        expected = _violations_by_images(a, b, cand)
        assert split_violations(a, b, cand) == expected, cand
        verified += not expected
        inclusion_failures += any("is not contained" in v for v in expected)
    assert verified >= 30
    assert inclusion_failures >= 500


def test_analyze_rejects_mismatched_shapes():
    from hesspairs.errors import ShapeMismatchError

    with pytest.raises(ShapeMismatchError):
        analyze_pair(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))


def test_verify_split_reversed_values_fail():
    inst = gen_split_form(GF(7), (1, 1, 1), (0, 1, 2), (3, 4, 5), seed=21)
    good = inst.split()
    assert verify_split(inst.a, inst.a_star, good)
    reversed_a = SplitDecomposition(
        subspaces=good.subspaces,
        eigenvalues_a=good.eigenvalues_a[::-1],
        eigenvalues_a_star=good.eigenvalues_a_star,
    )
    violations = split_violations(inst.a, inst.a_star, reversed_a)
    assert violations
    assert any("U_0" in v or "U_1" in v for v in violations)


def test_verify_split_detects_swapped_subspaces():
    inst = gen_split_form(GF(7), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=22)
    good = inst.split()
    swapped = SplitDecomposition(
        subspaces=(good.subspaces[1], good.subspaces[0], good.subspaces[2]),
        eigenvalues_a=good.eigenvalues_a,
        eigenvalues_a_star=good.eigenvalues_a_star,
    )
    assert not verify_split(inst.a, inst.a_star, swapped)


def test_recover_hessenberg_from_split_generated():
    inst = gen_split_form(GF(11), (1, 2, 1), (0, 1, 2), (4, 5, 6), seed=23)
    assert recover_hessenberg_from_split(inst.a, inst.a_star, inst.split())


def test_recover_hessenberg_needs_valid_split():
    inst = gen_split_form(GF(11), (1, 1), (0, 1), (0, 1), seed=24)
    bad = SplitDecomposition(
        subspaces=inst.truth.flag,
        eigenvalues_a=inst.truth.eigenvalues_a[::-1],
        eigenvalues_a_star=inst.truth.eigenvalues_a_star,
    )
    with pytest.raises(SplitInvalidError):
        recover_hessenberg_from_split(inst.a, inst.a_star, bad)


def test_reducible_pair_still_recovers_hessenberg():
    # Direct sum of two split-form pairs with the same eigenvalue
    # sequences: reducible, yet the combined flag is a split decomposition
    # and the Hessenberg property still follows from it.
    inst = gen_reducible(GF(7), [(1, 1, 1), (1, 2, 1)], (0, 1, 2), (0, 1, 2), seed=25)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.REDUCIBLE
    split = inst.split()
    assert verify_split(inst.a, inst.a_star, split)
    assert recover_hessenberg_from_split(inst.a, inst.a_star, split)


def test_uniqueness_under_rebasing_and_corruption():
    rng = random.Random(34)
    inst = gen_split_form(GF(13), (1, 2, 1), (0, 1, 2), (0, 1, 2), seed=26)
    split = inst.split()
    assert verify_split(inst.a, inst.a_star, split)
    field, n = GF(13), inst.a.nrows
    # Re-present each subspace with a scrambled basis: canonicalization
    # restores the identical decomposition.
    rebased = SplitDecomposition(
        subspaces=tuple(
            SubspaceBasis.from_vectors(field, n, remix_basis(u, rng)) for u in split.subspaces
        ),
        eigenvalues_a=split.eigenvalues_a,
        eigenvalues_a_star=split.eigenvalues_a_star,
    )
    assert rebased == split
    # Perturb one basis vector out of its subspace: verification fails.
    u0 = list(split.subspaces[0].rows[0])
    foreign = split.subspaces[1].rows[0]
    perturbed_row = [field.add(x, y) for x, y in zip(u0, foreign)]
    corrupted = SplitDecomposition(
        subspaces=(SubspaceBasis.from_vectors(field, n, [perturbed_row]),)
        + split.subspaces[1:],
        eigenvalues_a=split.eigenvalues_a,
        eigenvalues_a_star=split.eigenvalues_a_star,
    )
    assert not verify_split(inst.a, inst.a_star, corrupted)


def test_dimension_profile_matches_generator():
    cases = [
        ((1, 2, 1), GF(7), 31),
        ((2, 3), GF(5), 32),
        ((1, 1, 1, 1), GF(11), 33),
    ]
    for dims, field, seed in cases:
        d = len(dims) - 1
        values = list(range(d + 1))
        inst = gen_split_form(field, dims, values, values, seed=seed)
        ord_a = ordering_for(inst.a, values)
        ord_b = ordering_for(inst.a_star, values)
        profile = dimension_profile(inst.split(), ord_a, ord_b)
        assert profile.subspace_dims == dims
        assert profile.a_eigenspace_dims == dims
        assert profile.a_star_eigenspace_dims == dims


def test_dimension_profile_single_block():
    a = Matrix.scalar(QQ, 3, 1)
    a_star = Matrix.scalar(QQ, 3, 2)
    ord_a = EigenOrdering.canonical(eigen_structure(a))
    ord_b = EigenOrdering.canonical(eigen_structure(a_star))
    split = split_from_flags(ord_a, ord_b)
    profile = dimension_profile(split, ord_a, ord_b)
    assert profile.subspace_dims == (3,)
    assert profile.a_eigenspace_dims == profile.a_star_eigenspace_dims == profile.subspace_dims


def test_dimension_profile_requires_valid_split():
    inst = gen_split_form(GF(5), (1, 1), (0, 1), (0, 1), seed=35)
    ord_a = ordering_for(inst.a, [0, 1])
    ord_b = ordering_for(inst.a_star, [0, 1])
    bad = SplitDecomposition(
        subspaces=inst.truth.flag[::-1],
        eigenvalues_a=inst.truth.eigenvalues_a,
        eigenvalues_a_star=inst.truth.eigenvalues_a_star,
    )
    with pytest.raises(SplitInvalidError):
        dimension_profile(bad, ord_a, ord_b)


# -- tridiagonal detection -----------------------------------------------------------


def test_tridiagonal_trivial_dimension_one():
    a = Matrix.scalar(QQ, 1, 3)
    a_star = Matrix.scalar(QQ, 1, 7)
    ok, witnesses = is_tridiagonal_pair(a, a_star)
    assert ok
    assert len(witnesses) == 1


def test_canonical_pair_is_tridiagonal_with_four_orderings():
    a, a_star = canonical_pair()
    ok, witnesses = is_tridiagonal_pair(a, a_star)
    assert ok
    assert len(witnesses) == 4
    seqs = value_seqs(witnesses)
    assert ((0, 1, 2), (0, 1, 2)) in seqs
    assert ((2, 1, 0), (2, 1, 0)) in seqs


@pytest.mark.parametrize("field,d", [(QQ, 2), (QQ, 3), (GF(7), 2), (GF(13), 3)])
def test_sl2_ladder_pair_is_tridiagonal(field, d):
    a, a_star = sl2_pair(field, d)
    ok, witnesses = is_tridiagonal_pair(a, a_star)
    assert ok
    assert len(witnesses) == 4
    # Both split decompositions demanded by the reversed orderings exist.
    for ord_a, ord_b in witnesses:
        split = split_from_flags(ord_a, ord_b)
        assert verify_split(a, a_star, split)


def test_desk_scale_q_leonard_pair():
    # The split-form Leonard pair with d = 19 over Q (conftest): twenty
    # eigenvalues a side, searched at the default budget.
    a, a_star = q_leonard_pair(19)
    report = analyze_pair(a, a_star)
    assert report.irreducibility.status is IrreducibilityStatus.IRREDUCIBLE
    assert len(report.hessenberg_orderings) == 4
    assert all(split is not None and verify_split(a, a_star, split) for split in report.splits)
    assert report.tridiagonal


def test_desk_scale_leonard_oracle_output(tmp_path, capsys):
    # hesspairs oracle on the d = 19 Leonard pair: the echelon search runs
    # under the same default budget as the block-pattern search, and agrees.
    from hesspairs.cli import main, rows_to_json

    a, a_star = q_leonard_pair(19)
    doc = tmp_path / "leonard.json"
    doc.write_text(json.dumps({"field": {"kind": "Q"}, "A": rows_to_json(QQ, a.entries),
                               "Astar": rows_to_json(QQ, a_star.entries)}))
    assert main(["oracle", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "ordering_search": {"agrees": True, "pairs": 4},
        "tridiagonal_search": {"agrees": True, "orderings": [2, 2]},
        "split": {"agrees": True, "pairs": 4},
        "irreducibility": {"skipped": "field infinite or subspace count over limit"},
    }


def test_desk_scale_conjugated_gf101_pair_at_the_default_budget():
    # Thirty simple eigenvalues a side: A has 1..30, A* has 40..69,
    # generator seed 1, conjugation seed 2.  Irreducible, so each side
    # stops at most (d+1)^3 times.
    from hesspairs.generators import conjugate

    inst = conjugate(gen_split_form(GF(101), (1,) * 30, range(1, 31), range(40, 70), seed=1), seed=2)
    report = analyze_pair(inst.a, inst.a_star)
    assert report.irreducibility.status is IrreducibilityStatus.IRREDUCIBLE
    assert len(report.hessenberg_orderings) == 1
    assert report.splits[0] is not None and verify_split(inst.a, inst.a_star, report.splits[0])
    for eig, acting in ((report.eigen_a, inst.a_star), (report.eigen_a_star, inst.a)):
        assert len(_admissible_side_orderings(eig, acting, (eig.d + 1) ** 3)) == 1


def _tridiagonal_witness_facts(a, a_star):
    """Analyze the pair and check two facts on every tridiagonal witness.

    By Ito, Tanabe and Terwilliger (2001), for a tridiagonal pair and a
    witness ordering pair: the split dimensions are symmetric and
    unimodal, and for d >= 3 the ratio
    (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i), 2 <= i <= d-1,
    takes one value on both eigenvalue sequences.  Neither fact is read
    off the block patterns the ordering search uses.  Returns the report
    and the set of ratios seen, computed in the field.
    """
    report = analyze_pair(a, a_star)
    field = a.field
    ratios = set()
    for ord_a, ord_b in report.tridiagonal_orderings:
        dims = split_from_flags(ord_a, ord_b).dims
        assert dims == dims[::-1], dims
        assert all(dims[i - 1] <= dims[i] for i in range(1, len(dims) // 2 + 1)), dims
        for ordering in (ord_a, ord_b):
            theta = [v.value for v in ordering.eigenvalues]
            ratios.update(
                field.mul(field.sub(theta[i - 2], theta[i + 1]), field.inv(field.sub(theta[i - 1], theta[i])))
                for i in range(2, len(theta) - 1)
            )
    assert len(ratios) <= 1, ratios
    return report, ratios


@pytest.mark.parametrize("d", range(3, 8))
@pytest.mark.parametrize("field", [QQ, GF(101), GF(2**31 - 1)], ids=["Q", "GF101", "GF2^31-1"])
def test_sl2_witnesses_have_symmetric_dims_and_one_recurrence_ratio(field, d):
    # Weights d, d-2, ..., -d on both sides: every ratio is 6/2 = 3.
    report, ratios = _tridiagonal_witness_facts(*sl2_pair(field, d))
    assert report.tridiagonal is True
    assert len(report.tridiagonal_orderings) == 4
    assert ratios == {field.coerce(3)}


def test_tridiagonal_fixture_and_generated_witnesses_satisfy_the_facts():
    doc = json.loads((FIXTURES / "pair_tridiagonal_gf11.json").read_text())
    field = GF(doc["field"]["p"])
    pairs = [(Matrix.from_rows(field, doc["A"]), Matrix.from_rows(field, doc["Astar"]))]
    for field, dims, values in [
        (GF(11), (1, 1, 1), (0, 1, 2)),
        (GF(7), (1, 1), (3, 5)),
        (GF(101), (1, 1, 1), (4, 9, 70)),
        (GF(5), (1, 2, 1), (0, 1, 2)),
    ]:
        for seed in range(2):
            inst = gen_tridiagonal_form(field, dims, values, values, seed=seed)
            pairs.append((inst.a, inst.a_star))
    for a, a_star in pairs:
        report, _ = _tridiagonal_witness_facts(a, a_star)
        assert report.tridiagonal is True
        assert report.tridiagonal_orderings


def test_generic_split_form_with_d_at_least_3_has_no_witness():
    # Random spectra: the ratio condition fails, so an irreducible
    # Hessenberg pair of this shape reports no tridiagonal witness.
    rng = random.Random(13)
    cases = [
        (GF(101), (1, 1, 1, 1)),
        (GF(101), (1, 2, 2, 1)),
        (GF(2**31 - 1), (1, 1, 1, 1, 1)),
        (QQ, (1, 1, 1, 1)),
        (QQ, (1, 2, 1, 1)),
    ]
    for k, (field, dims) in enumerate(cases):
        pool = range(field.p) if field.is_finite else range(-50, 51)
        va, vb = (rng.sample(pool, len(dims)) for _ in range(2))
        inst = gen_split_form(field, dims, va, vb, seed=k)
        report, _ = _tridiagonal_witness_facts(inst.a, inst.a_star)
        assert report.irreducibility.is_irreducible
        assert report.is_hessenberg_pair
        assert report.tridiagonal is False
        assert report.tridiagonal_orderings == ()


def test_generic_split_form_is_not_tridiagonal():
    inst = gen_split_form(GF(11), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=41)
    verdict = decide_irreducible(inst.a, inst.a_star)
    assert verdict.status is IrreducibilityStatus.IRREDUCIBLE
    ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star)
    assert not ok
    assert witnesses == []


def test_tridiagonal_witnesses_are_entries_of_the_ordering_pairs():
    from hesspairs.cli import parse_document
    from hesspairs.generators import conjugate

    _, a, a_star, _ = parse_document(json.loads((FIXTURES / "pair_tridiagonal_gf11.json").read_text()))
    inst = conjugate(gen_split_form(GF(11), (1, 1), (3, 5), (1, 4), seed=0), seed=100)
    for a, a_star in ((a, a_star), (inst.a, inst.a_star)):
        report = analyze_pair(a, a_star)
        assert report.tridiagonal is True and report.tridiagonal_orderings
        for witness in report.tridiagonal_orderings:
            assert any(witness is entry for entry in report.hessenberg_orderings)


def test_tridiagonal_detection_refuses_what_analyze_refuses():
    # Each side's 4! orderings pass a cap of 30, their 576 pairs do not.
    # The pair is reducible, but the witnesses are filtered from the
    # capped ordering search, so both entry points refuse it.
    a = Matrix.diagonal(QQ, [0, 1, 2, 3])
    message = "24 x 24 admissible ordering pairs exceed the cap"
    with pytest.raises(SearchBudgetExceededError, match=message):
        analyze_pair(a, a, max_orderings=30)
    with pytest.raises(SearchBudgetExceededError, match=message):
        is_tridiagonal_pair(a, a, max_orderings=30)


def test_reducible_pair_is_not_tridiagonal():
    inst = gen_reducible(GF(5), [(1, 1), (1, 1)], (0, 1), (0, 1), seed=42)
    ok, witnesses = is_tridiagonal_pair(inst.a, inst.a_star)
    assert not ok and witnesses == []


def test_sparse_split_form_instances_oracle_agreement():
    # Split-form pairs with randomly zeroed raising blocks: generally not
    # tridiagonal; the built-in three-term oracle must agree either way.
    hits = 0
    for seed in range(8):
        inst = gen_split_form(
            GF(7), (1, 1, 1), (0, 1, 2), (0, 1, 2), seed=seed, allow_zero_entries=True
        )
        try:
            eigen_structure(inst.a)
            eigen_structure(inst.a_star)
        except Exception:
            continue
        verdict = decide_irreducible(inst.a, inst.a_star)
        if verdict.status is IrreducibilityStatus.UNDETERMINED:
            continue
        ok, _ = is_tridiagonal_pair(inst.a, inst.a_star)
        hits += 1
        if verdict.status is IrreducibilityStatus.REDUCIBLE:
            assert not ok
    assert hits >= 6


def test_tridiagonal_four_variant_characterizations_agree():
    # For a tridiagonal witness (s, t): the pair is Hessenberg with respect
    # to all four reversal combinations, and split decompositions exist for
    # the pairings demanded by the two-pair characterizations.
    a, a_star = sl2_pair(GF(13), 3)
    ok, witnesses = is_tridiagonal_pair(a, a_star)
    assert ok
    ord_a, ord_b = witnesses[0]
    combos = [
        (ord_a, ord_b),
        (ord_a.reversed(), ord_b),
        (ord_a, ord_b.reversed()),
        (ord_a.reversed(), ord_b.reversed()),
    ]
    for oa, ob in combos:
        assert is_hessenberg_wrt(a, a_star, oa, ob)
        split = split_from_flags(oa, ob)
        assert verify_split(a, a_star, split)


def test_operator_products_match_flags():
    # The products X = prod_{h<i} (A - t_{d-h} I) and Y = prod_{h>=i} have
    # image and kernel equal to the eigenspace prefix flag V_0+...+V_{d-i};
    # a direct check of the machinery behind the flag equalities.
    from hesspairs import Matrix as M
    from hesspairs import kernel, rref
    from hesspairs.pairs import _prefix_flags

    inst = gen_split_form(GF(11), (1, 2, 1), (0, 1, 2), (0, 1, 2), seed=77)
    a = inst.a
    field, n = a.field, a.nrows
    values = [v.value for v in inst.truth.eigenvalues_a]
    d = len(values) - 1
    ord_a = ordering_for(a, values)
    flags = _prefix_flags(ord_a.eigenspaces, field, n)
    for i in range(d + 1):
        x = M.identity(field, n)
        for h in range(i):
            x = x * a.minus_scalar(values[d - h])
        y = M.identity(field, n)
        for h in range(i, d + 1):
            y = y * a.minus_scalar(values[d - h])
        image, _ = rref(x.transpose())  # column space of X
        assert image == flags[d - i]
        assert kernel(y) == flags[d - i]


def undetermined_pair():
    """A rational form of a matrix algebra over Q(i): both generators are
    rational-diagonalizable and the pair is irreducible over Q, but not
    absolutely irreducible, so the decision ladder honestly reports
    Undetermined (algebra dimension 8 < 16, every spin fills the space)."""
    g1 = Matrix.diagonal(QQ, [1, 1, 2, 2])
    g2 = Matrix.from_rows(
        QQ, [[0, 1, 1, 0], [-1, 0, 0, 1], [1, 1, 1, -1], [-1, 1, 1, 1]]
    )
    return g1, g2


def test_tridiagonal_refuses_undetermined():
    a, a_star = undetermined_pair()
    assert decide_irreducible(a, a_star).status is IrreducibilityStatus.UNDETERMINED
    with pytest.raises(IrreducibilityUndeterminedError):
        is_tridiagonal_pair(a, a_star)


def test_tridiagonal_requires_diagonalizable():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    with pytest.raises(NotDiagonalizableError):
        is_tridiagonal_pair(a, Matrix.identity(QQ, 2))


# -- full analysis -------------------------------------------------------------------


def test_analyze_canonical_pair():
    a, a_star = canonical_pair()
    report = analyze_pair(a, a_star)
    assert report.is_hessenberg_pair
    assert report.irreducibility.status is IrreducibilityStatus.IRREDUCIBLE
    assert report.d_equals_d_star is True
    assert report.tridiagonal is True
    assert len(report.hessenberg_orderings) == 4
    assert all(s is not None for s in report.splits)
    for (ord_a, ord_b), split in zip(report.hessenberg_orderings, report.splits):
        assert split.eigenvalues_a == ord_a.eigenvalues
        assert split.eigenvalues_a_star == ord_b.eigenvalues


def test_analyze_identity_pair_reducible():
    report = analyze_pair(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    assert report.irreducibility.status is IrreducibilityStatus.REDUCIBLE
    assert report.irreducibility.witness is not None
    assert report.is_hessenberg_pair  # d = 0 orderings are vacuous
    assert report.tridiagonal is False


def test_analyze_non_diagonalizable_pair():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    report = analyze_pair(a, Matrix.identity(QQ, 2))
    assert not report.is_hessenberg_pair
    assert report.tridiagonal is False
    assert report.d_equals_d_star is None
    assert report.splits == ()


def test_analyze_undetermined_tridiagonal_left_open():
    a, a_star = undetermined_pair()
    report = analyze_pair(a, a_star)
    assert report.irreducibility.status is IrreducibilityStatus.UNDETERMINED
    assert report.tridiagonal is None
    assert report.is_hessenberg_pair  # d = 1 on both sides, vacuously
    with pytest.raises(IrreducibilityUndeterminedError):
        analyze_pair(a, a_star, require_irreducible=True)
