"""Exact arithmetic for checking analyze output, independent of hesspairs.

Scalars are Fractions over Q and ints in [0, p) over GF(p).  Every check
here works from the document's matrices, its truth block and the printed
report, so a wrong answer from the code under test cannot hide behind the
same wrong answer in the checker.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """Q (``p is None``) or GF(p), parsed from a document's field object."""

    def __init__(self, spec: dict):
        self.p = spec["p"] if spec["kind"] == "GF" else None

    def parse(self, text: str):
        if self.p is None:
            return Fraction(text)
        return int(text) % self.p

    def inv(self, x):
        return 1 / x if self.p is None else pow(x, -1, self.p)

    def norm(self, x):
        return x if self.p is None else x % self.p

    def vectors(self, rows) -> list[list]:
        return [[self.parse(x) for x in row] for row in rows]


def rank(field: Field, rows) -> int:
    """Rank by plain Gaussian elimination on a copy of ``rows``."""
    work = [list(r) for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        pivot_row = [field.norm(x * inv) for x in work[r]]
        work[r] = pivot_row
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [field.norm(x - f * y) for x, y in zip(work[i], pivot_row)]
        r += 1
    return r


def same_span(field: Field, xs, ys) -> bool:
    rx = rank(field, xs)
    return rx == rank(field, ys) == rank(field, list(xs) + list(ys))


def mul_vec(field: Field, m, v) -> list:
    return [field.norm(sum(x * y for x, y in zip(row, v))) for row in m]


def is_invariant(field: Field, rows, matrices) -> bool:
    """True when the span of ``rows`` is mapped into itself by each matrix."""
    images = [mul_vec(field, m, w) for m in matrices for w in rows]
    return rank(field, list(rows) + images) == rank(field, rows)


def check_report(doc: dict, truth: dict, report: dict) -> list[str]:
    """Every way ``report`` contradicts the document's truth block."""
    field = Field(doc["field"])
    a, a_star = field.vectors(doc["A"]), field.vectors(doc["Astar"])
    n = len(a)
    kind = truth["base_kind"] or truth["kind"]
    verdict = report["irreducibility"]
    problems = []
    if verdict["status"] == "reducible":
        w = field.vectors(verdict["witness"])
        if not (0 < rank(field, w) < n and is_invariant(field, w, [a, a_star])):
            problems.append("reported witness is not a proper invariant subspace")
    elif kind == "reducible-sum":
        problems.append(f"reducible-sum pair reported {verdict['status']}")
    if kind == "sl2" and report["tridiagonal"]["status"] != "true":
        problems.append("sl2 pair not reported tridiagonal")

    def values(seq):
        return [field.parse(x) for x in seq]

    want = (values(truth["eigenvalues_a"]), values(truth["eigenvalues_a_star"]))
    listed = [
        i for i, pair in enumerate(report["hessenberg"]["ordering_pairs"])
        if (values(pair["eigenvalues_a"]), values(pair["eigenvalues_a_star"])) == want
    ]
    if not listed:
        problems.append("truth ordering pair not listed")
    elif truth["flag"]:
        split = report["splits"][listed[0]]
        if split is None:
            problems.append("no verified split for the truth ordering pair")
        elif len(split["subspaces"]) != len(truth["flag"]) or not all(
            same_span(field, field.vectors(u), field.vectors(t))
            for u, t in zip(split["subspaces"], truth["flag"])
        ):
            problems.append("split differs from the truth flag")
    return problems
