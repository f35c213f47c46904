import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
ANALYZABLE = sorted(p for p in FIXTURES.glob("pair_*.json"))
# The CLI subprocesses import the package from this checkout's src/, so
# the suite runs without installing it.
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "hesspairs", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=ENV,
    )


def test_analyze_canonical_pair():
    r = run_cli("analyze", str(FIXTURES / "pair_canonical_q.json"))
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["hessenberg"]["is_hessenberg_pair"] is True
    assert len(report["hessenberg"]["ordering_pairs"]) == 4
    assert report["irreducibility"]["status"] == "irreducible"
    assert report["d_equals_d_star"] is True
    assert report["tridiagonal"]["is_tridiagonal_pair"] is True
    assert all(s is not None for s in report["splits"])


def test_analyze_reads_stdin():
    text = (FIXTURES / "pair_identity_reducible.json").read_text()
    r = run_cli("analyze", "-", stdin=text)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["irreducibility"]["status"] == "reducible"
    assert report["irreducibility"]["witness"] is not None


def test_analyze_text_format():
    r = run_cli("analyze", str(FIXTURES / "pair_canonical_q.json"), "--format", "text")
    assert r.returncode == 0
    assert "tridiagonal pair: True" in r.stdout


def test_analyze_undetermined_report_and_flag():
    doc = str(FIXTURES / "pair_undetermined_q.json")
    r = run_cli("analyze", doc)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["irreducibility"]["status"] == "undetermined"
    assert report["tridiagonal"]["status"] == "undetermined"
    strict = run_cli("analyze", doc, "--require-irreducible")
    assert strict.returncode == 1
    err = json.loads(strict.stderr)
    assert err["error"]["type"] == "IrreducibilityUndetermined"


def test_parse_error_exit_code():
    r = run_cli("analyze", "-", stdin="this is not json")
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"]["type"] == "ParseError"
    bad_scalar = json.dumps(
        {"field": {"kind": "GF", "p": 5}, "A": [["1/2"]], "Astar": [["1"]]}
    )
    r = run_cli("analyze", "-", stdin=bad_scalar)
    assert r.returncode == 2
    not_square = json.dumps({"field": {"kind": "Q"}, "A": [["1", "2"]], "Astar": [["1"]]})
    r = run_cli("analyze", "-", stdin=not_square)
    assert r.returncode == 2
    bad_modulus = json.dumps({"field": {"kind": "GF", "p": 6}, "A": [["1"]], "Astar": [["1"]]})
    r = run_cli("analyze", "-", stdin=bad_modulus)
    assert r.returncode == 2
    # Neither a fractional modulus nor JSON booleans may be read as integers.
    float_modulus = json.dumps({"field": {"kind": "GF", "p": 7.9}, "A": [["1"]], "Astar": [["1"]]})
    boolean_entries = json.dumps({"field": {"kind": "Q"}, "A": [[True]], "Astar": [[False]]})
    for doc in (float_modulus, boolean_entries):
        r = run_cli("analyze", "-", stdin=doc)
        assert r.returncode == 2, doc
        assert json.loads(r.stderr)["error"]["type"] == "ParseError"



# An integer literal past the decoder's digit limit (4300) raises a plain
# ValueError in json.loads; deep nesting raises RecursionError.
HUGE_LITERAL = '{"field": {"kind": "Q"}, "A": [[' + "9" * 5000 + ']], "Astar": [["1"]]}'
DEEP_NESTING = "[" * 100_000


@pytest.mark.parametrize("text", [HUGE_LITERAL, DEEP_NESTING], ids=["huge-literal", "deep-nesting"])
def test_undecodable_json_is_a_parse_error(text):
    r = run_cli("analyze", "-", stdin=text)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["type"] == "ParseError"


def test_batch_survives_an_undecodable_line():
    # The bad line prints its error in place; the lines after it are still analyzed.
    good = (FIXTURES / "pair_split_gf7.json").read_text().replace("\n", " ")
    r = run_cli("analyze", "-", "--batch", stdin="\n".join([good, HUGE_LITERAL, good]) + "\n")
    assert r.returncode == 2, r.stderr
    assert r.stderr == ""
    first, middle, last = (json.loads(line) for line in r.stdout.splitlines())
    assert first == last and first["hessenberg"]["is_hessenberg_pair"] is True
    assert middle["line"] == 2 and middle["error"]["type"] == "ParseError"

def _unreadable_path(tmp_path, kind):
    if kind == "missing":
        return str(tmp_path / "missing.json")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
@pytest.mark.parametrize("command", ["analyze", "check-split", "oracle"])
def test_unreadable_file_is_a_parse_error(tmp_path, capsys, command, kind):
    # A path that cannot be read as UTF-8 text gives exit 2 and one JSON
    # error line on stderr, like a document that cannot be parsed.
    from hesspairs.cli import main

    path = _unreadable_path(tmp_path, kind)
    if command == "check-split":
        argv = ["check-split", str(FIXTURES / "pair_split_gf7.json"), "--candidate", path]
    else:
        argv = [command, path]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_analyze_seed_flag_changes_nothing(tmp_path, capsys):
    # A conjugated GF(101) sum that no implemented proof decides; the seed
    # once chose rung 2's random elements, and seed 3 found a witness.
    from hesspairs.cli import main

    assert main([
        "generate", "reducible-sum", "--field", "GF", "--p", "101", "--inner-dims", "3,3;3,3",
        "--eigs-a", "1,2", "--eigs-a-star", "10,11", "--seed", "0", "--conjugate",
    ]) == 0
    doc = tmp_path / "sum.json"
    doc.write_text(capsys.readouterr().out)
    outputs = []
    for extra in ([], ["--seed", "3"], ["--seed", "1"]):
        assert main(["analyze", str(doc), *extra]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0] == outputs[2]
    assert json.loads(outputs[0].out)["irreducibility"]["status"] == "undetermined"


def test_eigenvalues_outside_field_exit_code():
    r = run_cli("analyze", str(FIXTURES / "error_outside_field_gf3.json"))
    assert r.returncode == 3
    assert json.loads(r.stderr)["error"]["type"] == "EigenvaluesOutsideField"


def test_search_budget_exit_code():
    r = run_cli(
        "analyze", str(FIXTURES / "pair_identity_reducible.json"), "--max-orderings", "0"
    )
    assert r.returncode == 4
    assert json.loads(r.stderr)["error"]["type"] == "SearchBudgetExceeded"


def test_generate_then_analyze_pipeline():
    gen = run_cli(
        "generate",
        "split-form",
        "--field",
        "GF",
        "--p",
        "13",
        "--dims",
        "1,1,1",
        "--eigs-a",
        "0,1,2",
        "--eigs-a-star",
        "0,1,2",
        "--seed",
        "9",
    )
    assert gen.returncode == 0, gen.stderr
    doc = json.loads(gen.stdout)
    assert doc["truth"]["kind"] == "split-form"
    r = run_cli("analyze", "-", stdin=gen.stdout)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["hessenberg"]["is_hessenberg_pair"] is True


def test_generate_bad_eigenvalue_is_a_parse_error():
    r = run_cli(
        "generate", "split-form", "--field", "Q", "--dims", "1,1",
        "--eigs-a", "1,x", "--eigs-a-star", "0,1",
    )
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["type"] == "ParseError"


def test_check_split_accepts_truth_block():
    for name in ("pair_split_gf7.json", "pair_tridiagonal_gf11.json", "pair_conjugated_gf5.json"):
        r = run_cli("check-split", str(FIXTURES / name))
        assert r.returncode == 0, (name, r.stdout, r.stderr)
        verdict = json.loads(r.stdout)
        assert verdict["split_valid"] is True
        assert verdict["uniqueness_confirmed"] is True


def test_check_split_names_violated_inclusion():
    doc = json.loads((FIXTURES / "pair_split_gf7.json").read_text())
    truth = doc["truth"]
    flag = truth["flag"]
    flag[0], flag[1] = flag[1], flag[0]  # swap two subspaces
    r = run_cli("check-split", "-", stdin=json.dumps(doc))
    assert r.returncode == 1
    verdict = json.loads(r.stdout)
    assert verdict["split_valid"] is False
    assert any("is not contained in" in v for v in verdict["violations"])


def test_check_split_explicit_candidate(tmp_path):
    doc = json.loads((FIXTURES / "pair_split_gf7.json").read_text())
    cand = {
        "subspaces": doc["truth"]["flag"],
        "eigenvalues_a": doc["truth"]["eigenvalues_a"],
        "eigenvalues_a_star": doc["truth"]["eigenvalues_a_star"],
    }
    cand_path = tmp_path / "cand.json"
    cand_path.write_text(json.dumps(cand))
    r = run_cli("check-split", str(FIXTURES / "pair_split_gf7.json"), "--candidate", str(cand_path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["split_valid"] is True


def test_check_split_boolean_candidate_is_a_parse_error(tmp_path):
    # JSON true/false must not be read as 1/0 in a candidate's subspaces
    # or eigenvalues: such a candidate is refused (exit 2), not checked.
    doc = json.dumps({"field": {"kind": "Q"}, "A": [["1", "0"], ["0", "0"]], "Astar": [["0", "1"], ["1", "0"]]})
    good_subspaces = [[["1", "0"]], [["0", "1"]]]
    candidates = [
        {"subspaces": [[[True, False]], [[False, True]]], "eigenvalues_a": [True, 0]},
        {"subspaces": good_subspaces, "eigenvalues_a": [True, 0]},
        {"subspaces": [[[True, False]], [["0", "1"]]], "eigenvalues_a": ["1", "0"]},
    ]
    for i, cand in enumerate(candidates):
        cand_path = tmp_path / f"cand{i}.json"
        cand_path.write_text(json.dumps({**cand, "eigenvalues_a_star": ["1", "-1"]}))
        r = run_cli("check-split", "-", "--candidate", str(cand_path), stdin=doc)
        assert r.returncode == 2, cand
        assert json.loads(r.stderr)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "candidate, truth_flag",
    [
        (None, None),
        (["subspaces", "eigenvalues_a", "eigenvalues_a_star"], None),
        ({"subspaces": 5, "eigenvalues_a": ["0", "1", "2"], "eigenvalues_a_star": ["3", "4", "5"]}, None),
        (None, 5),
    ],
    ids=["null", "list", "subspaces-int", "truth-flag-int"],
)
def test_check_split_malformed_candidate_is_a_parse_error(tmp_path, candidate, truth_flag):
    # A candidate of the wrong JSON shape is refused (exit 2, JSON error on
    # stderr), from --candidate or from the truth block alike.
    doc = json.loads((FIXTURES / "pair_split_gf7.json").read_text())
    args = ["check-split", "-"]
    if truth_flag is None:
        cand_path = tmp_path / "cand.json"
        cand_path.write_text(json.dumps(candidate))
        args += ["--candidate", str(cand_path)]
    else:
        doc["truth"]["flag"] = truth_flag
    r = run_cli(*args, stdin=json.dumps(doc))
    assert r.returncode == 2, r.stderr
    assert json.loads(r.stderr)["error"]["type"] == "ParseError"


def test_reports_are_self_validating(tmp_path):
    # A split emitted by analyze must pass check-split as a candidate.
    doc = FIXTURES / "pair_split_gf7.json"
    report = json.loads(run_cli("analyze", str(doc)).stdout)
    split = next(s for s in report["splits"] if s is not None)
    cand_path = tmp_path / "cand.json"
    cand_path.write_text(json.dumps(split))
    r = run_cli("check-split", str(doc), "--candidate", str(cand_path))
    assert r.returncode == 0, r.stdout
    verdict = json.loads(r.stdout)
    assert verdict["split_valid"] is True
    assert verdict["uniqueness_confirmed"] is True


def test_batch_mode_preserves_order():
    lines = [
        (FIXTURES / "pair_canonical_q.json").read_text().replace("\n", " "),
        (FIXTURES / "pair_identity_reducible.json").read_text().replace("\n", " "),
    ]
    r = run_cli("analyze", "-", "--batch", stdin="\n".join(lines) + "\n")
    assert r.returncode == 0
    out = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(out) == 2
    assert out[0]["tridiagonal"]["is_tridiagonal_pair"] is True
    assert out[1]["irreducibility"]["status"] == "reducible"


def test_batch_failing_line_reports_in_place():
    # The middle pair has eigenvalues +-i, outside Q: that line alone fails.
    outside_q = {"field": {"kind": "Q"}, "A": [["0", "-1"], ["1", "0"]], "Astar": [["1", "0"], ["0", "2"]]}
    lines = [
        (FIXTURES / "pair_canonical_q.json").read_text().replace("\n", " "),
        json.dumps(outside_q),
        (FIXTURES / "pair_identity_reducible.json").read_text().replace("\n", " "),
    ]
    r = run_cli("analyze", "-", "--batch", stdin="\n".join(lines) + "\n")
    assert r.returncode == 3
    out = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(out) == 3
    assert out[0]["tridiagonal"]["is_tridiagonal_pair"] is True
    assert out[1]["line"] == 2
    assert out[1]["error"]["type"] == "EigenvaluesOutsideField"
    assert set(out[1]) == {"error", "line"} and set(out[1]["error"]) == {"type", "message"}
    assert out[2]["irreducibility"]["status"] == "reducible"
    # The good lines print exactly what they print on their own.
    alone = run_cli("analyze", "-", "--batch", stdin=lines[0] + "\n")
    assert r.stdout.splitlines()[0] == alone.stdout.rstrip("\n")
    # A parse error is reported in place too, and the exit code is the
    # largest per-line code.
    r = run_cli("analyze", "-", "--batch", "--format", "text",
                stdin="\n".join(["not json", lines[1], lines[2]]) + "\n")
    assert r.returncode == 3
    text = r.stdout.splitlines()
    first, second = json.loads(text[0]), json.loads(text[1])
    assert (first["line"], first["error"]["type"]) == (1, "ParseError")
    assert (second["line"], second["error"]["type"]) == (2, "EigenvaluesOutsideField")
    assert "irreducibility: reducible" in r.stdout


def test_analyze_matches_golden_output(capsys):
    # Exit code and stdout of `analyze` in both formats for every fixture.
    # The file was recorded before the analysis computed each fact once per
    # pair; refactors of the pipeline must leave it unchanged.
    from hesspairs.cli import main

    golden = json.loads((FIXTURES / "analyze_golden.json").read_text())
    documents = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "analyze_golden.json")
    assert sorted(golden) == documents
    for name in documents:
        for fmt in ("json", "text"):
            code = main(["analyze", str(FIXTURES / name), "--format", fmt])
            stdout = capsys.readouterr().out
            assert {"exit": code, "stdout": stdout} == golden[name][fmt], (name, fmt)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # In-process callers run main once per document; the parser is built
    # on the first call and reused.
    import argparse

    from hesspairs import cli

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "hesspairs":
            built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for fmt in ("json", "text"):
            assert cli.main(["analyze", str(FIXTURES / "pair_canonical_q.json"), "--format", fmt]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert "irreducibility: irreducible" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("fixture", [p.name for p in ANALYZABLE])
def test_oracle_agrees_on_shipped_corpus(fixture):
    r = run_cli("oracle", str(FIXTURES / fixture))
    assert r.returncode == 0, (fixture, r.stderr)
    verdict = json.loads(r.stdout)
    ordering = verdict["ordering_search"]
    assert ordering.get("agrees", True) is True
    # The reversal closure against the echelon search's orderings filtered
    # by the three-term inclusions, on both sides; skipped exactly when the
    # ordering search is.
    tri = verdict["tridiagonal_search"]
    assert ("skipped" in tri) == ("skipped" in ordering)
    if "skipped" not in tri:
        assert tri["agrees"] is True
        assert len(tri["orderings"]) == 2
    # The eigenbasis split read against the flag intersections, on every
    # ordering pair the search reports.
    split = verdict["split"]
    if "skipped" not in ordering and "skipped" not in split:
        assert split == {"agrees": True, "pairs": ordering["pairs"]}
    irr = verdict["irreducibility"]
    assert irr.get("agrees", True) is True


def test_oracle_catches_a_split_read_fault(monkeypatch, capsys):
    # A read that takes A's blocks in the order V_0, ..., V_d instead of
    # V_d, ..., V_0 gives U_d = V_d instead of V_0; the oracle must exit 5.
    from hesspairs import SplitDecomposition, cli
    from hesspairs.cli import main

    split_from_flags = cli.split_from_flags

    def faulty_read(ord_a, ord_a_star):
        cand = split_from_flags(ord_a.reversed(), ord_a_star)
        return SplitDecomposition(cand.subspaces, ord_a.eigenvalues, ord_a_star.eigenvalues)

    monkeypatch.setattr(cli, "split_from_flags", faulty_read)
    code = main(["oracle", str(FIXTURES / "pair_tridiagonal_gf11.json")])
    assert code == 5
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "OracleDisagreement"
    assert "split read" in error["message"]


def test_oracle_catches_a_block_pattern_fault(monkeypatch, capsys):
    # Dropping one nonzero off-diagonal block from a side's pattern admits
    # orderings the echelon search refuses; the oracle must exit 5.
    from hesspairs import pairs
    from hesspairs.cli import main

    block_support = pairs._block_support

    def faulty_support(eigen, acting):
        support = block_support(eigen, acting)
        i = next(i for i, s in enumerate(support) if s - {i})
        support[i].remove(min(support[i] - {i}))
        return support

    monkeypatch.setattr(pairs, "_block_support", faulty_support)
    code = main(["oracle", str(FIXTURES / "pair_tridiagonal_gf11.json")])
    assert code == 5
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "OracleDisagreement"


def test_oracle_catches_a_planted_reachability_edge(monkeypatch, capsys, tmp_path):
    # A = diag(0, 1, 2) and an upper bidiagonal A* keep span{e0}: in A's
    # eigenbasis the closure is read off the digraph 2 -> 1 -> 0.  One
    # planted entry at (2, 0) adds the edge 0 -> 2, which makes the digraph
    # strongly connected and the verdict a false "irreducible"; the
    # enumeration comparison must catch it and the oracle exit 5.
    from conftest import exact_algebra_closure
    from hesspairs import Matrix, algebra_closure, irreducibility
    from hesspairs.cli import main

    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({
        "field": {"kind": "GF", "p": 5},
        "A": [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]],
        "Astar": [["1", "1", "0"], ["0", "2", "1"], ["0", "0", "3"]],
    }))
    assert main(["oracle", str(doc)]) == 0
    assert json.loads(capsys.readouterr().out)["irreducibility"]["fast"] == "reducible"

    eigenbasis_generators = irreducibility._eigenbasis_generators
    planted = []

    def planting_generators(*args):
        d, g = eigenbasis_generators(*args)
        rows = [list(row) for row in g.entries]
        assert not rows[2][0] and exact_algebra_closure([d, g])[0] == 6
        assert algebra_closure([d, g])[0] < 9
        rows[2][0] = 1
        g = Matrix.from_rows(g.field, rows)
        planted.append(algebra_closure([d, g])[0])
        return [d, g]

    monkeypatch.setattr(irreducibility, "_eigenbasis_generators", planting_generators)
    assert main(["oracle", str(doc)]) == 5
    assert planted == [9]
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "OracleDisagreement"
    assert "irreducibility" in error["message"]


def test_analyze_deterministic_byte_identical():
    for fixture in ANALYZABLE:
        first = run_cli("analyze", str(fixture))
        second = run_cli("analyze", str(fixture))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr


def test_error_dispatch_exit_codes():
    from hesspairs.cli import _dispatch_error
    from hesspairs.errors import (
        DocumentParseError,
        EigenvaluesOutsideFieldError,
        IrreducibilityUndeterminedError,
        NotHessenbergError,
        OracleDisagreementError,
        SearchBudgetExceededError,
    )

    assert _dispatch_error(DocumentParseError("x")) == 2
    assert _dispatch_error(EigenvaluesOutsideFieldError(2)) == 3
    assert _dispatch_error(SearchBudgetExceededError("x")) == 4
    assert _dispatch_error(OracleDisagreementError("x")) == 5
    assert _dispatch_error(IrreducibilityUndeterminedError("x")) == 1
    assert _dispatch_error(NotHessenbergError("x")) == 1
    with pytest.raises(RuntimeError):
        _dispatch_error(RuntimeError("internal bugs propagate"))


def test_generate_deterministic_byte_identical():
    args = [
        "generate", "tridiagonal-form", "--field", "GF", "--p", "7",
        "--dims", "1,1,1", "--eigs-a", "0,1,2", "--eigs-a-star", "0,1,2", "--seed", "3",
    ]
    assert run_cli(*args).stdout == run_cli(*args).stdout
