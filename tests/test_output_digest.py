"""Pin the exact `analyze` output on a generated corpus.

About forty documents are built here from the generators at fixed seeds,
over GF(7), GF(101), GF(2^31-1) and Q, with simple and repeated spectra,
conjugated and sparse pairs, reducible sums, sl2 pairs and a few
documents that end in an error exit code.  The sha256 of every exit
code, stdout and stderr, in json and text, is pinned: a change to the
analysis that alters a single byte of output fails here.  The corpus
does not depend on the benchmark, so changes to the benchmark cannot
break this test.
"""

import hashlib
import json
import random

from conftest import rand_invertible, sl2_pair
from hesspairs import GF, QQ, Matrix, conjugate, gen_reducible, gen_split_form
from hesspairs.cli import instance_to_document, main, rows_to_json

P31 = 2**31 - 1

# (field, dims, eigenvalues of A, eigenvalues of A*)
SPLIT_SHAPES = [
    (GF(7), (1, 1, 1, 1), (0, 1, 2, 3), (3, 1, 4, 0)),
    (GF(7), (1, 2, 1), (5, 0, 2), (1, 6, 3)),
    (GF(101), (1,) * 6, (3, 14, 15, 92, 65, 35), (89, 79, 32, 38, 46, 26)),
    (GF(101), (2, 3, 2, 1), (7, 0, 50, 100), (1, 2, 3, 4)),
    (GF(P31), (1,) * 6, (1, 2, 3, 5, 8, 13), (P31 - 1, 0, 7, 11, 1000003, 2**30)),
    (GF(P31), (2, 2, 2), (123456789, 2, 987654321), (0, 1, P31 - 2)),
    (QQ, (1, 1, 1, 1), (0, 1, 2, 3), (3, 2, 1, 0)),
    (QQ, (1, 2, 1), ("1/2", -3, 7), (0, "-5/3", 4)),
]


def _pair_doc(a, a_star):
    field = a.field
    return {"field": field.to_json(), "A": rows_to_json(field, a.entries), "Astar": rows_to_json(field, a_star.entries)}


def _conjugated_pair(a, a_star, seed):
    p = rand_invertible(a.field, a.nrows, random.Random(seed))
    p_inv = p.inverse()
    return p * a * p_inv, p * a_star * p_inv


def _corpus():
    docs = []
    for k, (field, dims, va, vb) in enumerate(SPLIT_SHAPES):
        inst = gen_split_form(field, dims, va, vb, seed=100 + k)
        docs.append(instance_to_document(inst))
        docs.append(instance_to_document(conjugate(inst, seed=200 + k)))
        sparse = gen_split_form(field, dims, va, vb, seed=300 + k, allow_zero_entries=True)
        docs.append(instance_to_document(sparse))
    for k, (field, inner, va, vb) in enumerate([
        (GF(7), [(1, 1), (1, 1)], (0, 1), (0, 1)),
        (GF(101), [(1, 2, 1), (1, 1, 1)], (4, 5, 6), (9, 8, 7)),
        (GF(P31), [(1, 1, 1), (1, 1, 1)], (1, 2, 3), (3, 2, 1)),
        (QQ, [(1, 1), (2, 1)], (0, 1), (2, "1/3")),
    ]):
        inst = gen_reducible(field, inner, va, vb, seed=400 + k)
        docs.append(instance_to_document(inst))
        docs.append(instance_to_document(conjugate(inst, seed=500 + k)))
    for k, (field, d) in enumerate([(GF(7), 3), (GF(101), 6), (GF(P31), 5), (QQ, 4)]):
        a, a_star = sl2_pair(field, d)
        docs.append(_pair_doc(a, a_star))
        docs.append(_pair_doc(*_conjugated_pair(a, a_star, seed=600 + k)))
    # Error exits: a non-diagonalizable side, a spectrum outside Q and a
    # spectrum outside GF(7).
    docs.append(_pair_doc(Matrix.from_rows(GF(7), [[1, 1], [0, 1]]), Matrix.diagonal(GF(7), [0, 1])))
    docs.append(_pair_doc(Matrix.from_rows(QQ, [[0, -1], [1, 0]]), Matrix.diagonal(QQ, [0, 1])))
    docs.append(_pair_doc(Matrix.from_rows(GF(7), [[0, 3], [1, 0]]), Matrix.diagonal(GF(7), [0, 1])))
    # Nine simple eigenvalues a side: the irreducible split-form pair is
    # within the search budget; two diagonal matrices, each of whose 9!
    # orderings per side is admissible, exceed it (exit 4).
    big = gen_split_form(GF(101), (1,) * 9, range(9), range(10, 19), seed=700)
    docs.append(instance_to_document(big))
    docs.append(_pair_doc(Matrix.diagonal(GF(101), range(9)), Matrix.diagonal(GF(101), range(10, 19))))
    return docs


# sha256 over every (exit code, stdout, stderr) of `analyze` on the corpus,
# in json and text.  The nine-eigenvalue split-form pair is the one
# document whose bytes depend on the search budget being counted in stops
# rather than as (d+1)! orderings: the latter refused it.
DIGEST = "c41a9e2b995feb58294d4f5fb7b94845698c074358d6e6182c5f2ffcc1d7490c"


def test_analyze_output_digest(tmp_path, capsys):
    docs = _corpus()
    assert len(docs) == 45
    digest = hashlib.sha256()
    for k, doc in enumerate(docs):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        for fmt in ("json", "text"):
            code = main(["analyze", str(path), "--format", fmt])
            digest.update(f"{k} {fmt} {code}\n".encode())
            out, err = capsys.readouterr()
            digest.update(f"{out}\0{err}\0".encode())
    assert digest.hexdigest() == DIGEST
