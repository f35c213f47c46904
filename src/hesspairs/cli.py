"""Batch command-line front end.

Reads pair documents as JSON, runs the analysis pipeline, and emits
machine-readable reports (or a short text summary).  The document schema
is deliberately small and language-neutral:

    {"field": {"kind": "Q"} | {"kind": "GF", "p": 7},
     "A":     [["<scalar>", ...], ...],
     "Astar": [["<scalar>", ...], ...],
     "truth": {...}}            # optional, emitted by `generate`

Scalars are text: "n" or "n/d" over Q, residues over GF(p).  Output is
byte-identical for identical input and flags.  Only ``generate`` takes a
seed; ``analyze --seed`` and ``oracle --seed`` are accepted and ignored.

Exit codes: 0 success; 1 failed check or refused analysis; 2 parse or read
error; 3 eigenvalues outside the field; 4 ordering-search budget exceeded;
5 an oracle disagreed with a fast path (always a bug).  In ``analyze
--batch`` a failing line prints {"error": {...}, "line": k} in its place
and the exit code is the largest per-line code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import (
    DocumentParseError,
    EigenvaluesOutsideFieldError,
    HesspairsError,
    IrreducibilityUndeterminedError,
    MixedFieldsError,
    NotPrimeError,
    OracleDisagreementError,
    SearchBudgetExceededError,
)
from .fields import GF, QQ, FieldSpec
from .generators import (
    REDUCIBLE_SUM,
    SPLIT_FORM,
    TRIDIAGONAL_FORM,
    GeneratedInstance,
    conjugate,
    gen_reducible,
    gen_split_form,
    gen_tridiagonal_form,
)
from .irreducibility import (
    IrreducibilityStatus,
    decide_irreducible,
    decide_irreducible_by_enumeration,
)
from .linalg import Matrix, SubspaceBasis
from .pairs import (
    DEFAULT_MAX_ORDERINGS,
    EigenOrdering,
    PairAnalysisReport,
    SplitDecomposition,
    _admissible_sides,
    _ordering_pairs,
    _scan_orderings,
    _side_condition_holds,
    _three_term_side_holds,
    _three_term_side_orderings,
    analyze_pair,
    split_from_flags,
    split_violations,
)
from .spectral import eigen_structure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_EIGENVALUES = 3
EXIT_BUDGET = 4
EXIT_ORACLE = 5


# -- JSON (de)serialization -----------------------------------------------------


def field_from_json(obj) -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DocumentParseError("field must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        return QQ
    if kind == "GF":
        if "p" not in obj:
            raise DocumentParseError("GF field needs a prime 'p'")
        if isinstance(obj["p"], (bool, float)):
            raise DocumentParseError(f"GF modulus must be an integer, not {obj['p']!r}")
        try:
            return GF(int(obj["p"]))
        except (NotPrimeError, ValueError, TypeError) as exc:
            raise DocumentParseError(f"bad GF modulus: {exc}") from exc
    raise DocumentParseError(f"unknown field kind {kind!r}")


def _reject_booleans(items: list, name: str) -> None:
    """Refuse JSON true/false in a list of scalars or of rows: as ints they would read as 1/0."""
    for item in items:
        if any(isinstance(x, bool) for x in (item if isinstance(item, list) else [item])):
            raise DocumentParseError(f"bad entry in {name}: true and false are not scalars")


def matrix_from_json(field: FieldSpec, obj, name: str) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DocumentParseError(f"{name} must be a non-empty list of rows")
    _reject_booleans(obj, name)
    try:
        return Matrix.from_rows(field, obj)
    except (ValueError, TypeError, MixedFieldsError) as exc:
        raise DocumentParseError(f"bad entry in {name}: {exc}") from exc


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.format(x) for x in row] for row in m.entries]


def subspace_to_json(s: SubspaceBasis) -> list:
    return [[s.field.format(x) for x in row] for row in s.rows]


def subspace_from_json(field: FieldSpec, n: int, obj, name: str) -> SubspaceBasis:
    if not isinstance(obj, list):
        raise DocumentParseError(f"{name} must be a list of basis rows")
    _reject_booleans(obj, name)
    try:
        return SubspaceBasis.from_vectors(field, n, obj)
    except (ValueError, TypeError, MixedFieldsError, HesspairsError) as exc:
        raise DocumentParseError(f"bad subspace {name}: {exc}") from exc


def scalars_from_json(field: FieldSpec, obj, name: str) -> tuple:
    if not isinstance(obj, list):
        raise DocumentParseError(f"{name} must be a list of scalars")
    _reject_booleans(obj, name)
    try:
        return tuple(field.element(x) for x in obj)
    except (ValueError, TypeError) as exc:
        raise DocumentParseError(f"bad scalar in {name}: {exc}") from exc


def parse_document(obj) -> tuple[FieldSpec, Matrix, Matrix, Optional[dict]]:
    if not isinstance(obj, dict):
        raise DocumentParseError("document must be a JSON object")
    for key in ("field", "A", "Astar"):
        if key not in obj:
            raise DocumentParseError(f"document lacks {key!r}")
    field = field_from_json(obj["field"])
    a = matrix_from_json(field, obj["A"], "A")
    a_star = matrix_from_json(field, obj["Astar"], "Astar")
    if not a.is_square or not a_star.is_square or a.nrows != a_star.nrows:
        raise DocumentParseError("A and Astar must be square and of equal size")
    truth = obj.get("truth")
    if truth is not None and not isinstance(truth, dict):
        raise DocumentParseError("truth must be an object when present")
    return field, a, a_star, truth


def instance_to_document(inst: GeneratedInstance) -> dict:
    truth = inst.truth
    field = inst.a.field
    doc = {
        "field": field.to_json(),
        "A": matrix_to_json(inst.a),
        "Astar": matrix_to_json(inst.a_star),
        "truth": {
            "kind": truth.kind,
            "dims": list(truth.dims),
            "eigenvalues_a": [field.format(v.value) for v in truth.eigenvalues_a],
            "eigenvalues_a_star": [field.format(v.value) for v in truth.eigenvalues_a_star],
            "flag": [subspace_to_json(u) for u in truth.flag],
            "seed": truth.seed,
            "witness": subspace_to_json(truth.witness) if truth.witness is not None else None,
            "conjugator": matrix_to_json(truth.conjugator) if truth.conjugator is not None else None,
            "base_kind": truth.base_kind,
        },
    }
    return doc


def _ordering_pair_json(pair: tuple[EigenOrdering, EigenOrdering]) -> dict:
    ord_a, ord_a_star = pair
    field = ord_a.eigen.transform.field
    return {
        "eigenvalues_a": [field.format(v.value) for v in ord_a.eigenvalues],
        "eigenvalues_a_star": [field.format(v.value) for v in ord_a_star.eigenvalues],
    }


def split_to_json(split: SplitDecomposition, field: FieldSpec) -> dict:
    return {
        "eigenvalues_a": [field.format(v.value) for v in split.eigenvalues_a],
        "eigenvalues_a_star": [field.format(v.value) for v in split.eigenvalues_a_star],
        "subspaces": [subspace_to_json(u) for u in split.subspaces],
        "dims": list(split.dims),
    }


def report_to_json(report: PairAnalysisReport) -> dict:
    field = report.field
    verdict = report.irreducibility
    if report.tridiagonal is None:
        tri_status = "undetermined"
    else:
        tri_status = "true" if report.tridiagonal else "false"
    return {
        "field": field.to_json(),
        "n": report.n,
        "eigen": {
            "a": {
                "eigenvalues": [field.format(v.value) for v in report.eigen_a.eigenvalues],
                "eigenspace_dims": list(report.eigen_a.dims),
                "diagonalizable": report.eigen_a.diagonalizable,
            },
            "a_star": {
                "eigenvalues": [field.format(v.value) for v in report.eigen_a_star.eigenvalues],
                "eigenspace_dims": list(report.eigen_a_star.dims),
                "diagonalizable": report.eigen_a_star.diagonalizable,
            },
        },
        "irreducibility": {
            "status": verdict.status.value,
            "method": verdict.method.value,
            "witness": subspace_to_json(verdict.witness) if verdict.witness is not None else None,
        },
        "hessenberg": {
            "is_hessenberg_pair": report.is_hessenberg_pair,
            "ordering_pairs": [_ordering_pair_json(p) for p in report.hessenberg_orderings],
        },
        "d_equals_d_star": report.d_equals_d_star,
        "splits": [
            split_to_json(s, field) if s is not None else None for s in report.splits
        ],
        "tridiagonal": {
            "is_tridiagonal_pair": report.tridiagonal,
            "status": tri_status,
            "ordering_pairs": [_ordering_pair_json(p) for p in report.tridiagonal_orderings],
        },
    }


def report_to_text(report: PairAnalysisReport) -> str:
    field = report.field
    lines = [
        f"pair over {field!r}, ambient dimension {report.n}",
        f"  A : eigenvalues {[field.format(v.value) for v in report.eigen_a.eigenvalues]}"
        f" dims {list(report.eigen_a.dims)} diagonalizable={report.eigen_a.diagonalizable}",
        f"  A*: eigenvalues {[field.format(v.value) for v in report.eigen_a_star.eigenvalues]}"
        f" dims {list(report.eigen_a_star.dims)} diagonalizable={report.eigen_a_star.diagonalizable}",
        f"  irreducibility: {report.irreducibility.status.value}"
        f" (method {report.irreducibility.method.value})",
        f"  hessenberg pair: {report.is_hessenberg_pair}"
        f" ({len(report.hessenberg_orderings)} admissible ordering pair(s))",
        f"  d equals d*: {report.d_equals_d_star}",
        f"  verified splits: {sum(1 for s in report.splits if s is not None)}",
        f"  tridiagonal pair: "
        + ("undetermined" if report.tridiagonal is None else str(report.tridiagonal))
        + f" ({len(report.tridiagonal_orderings)} witnessing ordering pair(s))",
    ]
    return "\n".join(lines)


# -- IO helpers -------------------------------------------------------------------


def _read_text(path: Optional[str]) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentParseError(f"cannot read {path}: {exc}") from exc


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _error_json(kind: str, message: str) -> dict:
    return {"error": {"type": kind, "message": message}}


_ERROR_CODES = [
    (DocumentParseError, "ParseError", EXIT_PARSE),
    (EigenvaluesOutsideFieldError, "EigenvaluesOutsideField", EXIT_EIGENVALUES),
    (SearchBudgetExceededError, "SearchBudgetExceeded", EXIT_BUDGET),
    (OracleDisagreementError, "OracleDisagreement", EXIT_ORACLE),
    (IrreducibilityUndeterminedError, "IrreducibilityUndetermined", EXIT_FAIL),
]


def _classify_error(exc: Exception) -> tuple[str, int]:
    """Error type name and exit code; anything not a HesspairsError propagates."""
    for klass, name, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return name, code
    if isinstance(exc, HesspairsError):
        return type(exc).__name__, EXIT_FAIL
    raise exc


def _dispatch_error(exc: Exception) -> int:
    name, code = _classify_error(exc)
    sys.stderr.write(json.dumps(_error_json(name, str(exc)), sort_keys=True) + "\n")
    return code


# -- subcommands ------------------------------------------------------------------


def _analyze_document(args, text: str) -> PairAnalysisReport:
    _, a, a_star, _truth = parse_document(_load_json(text))
    return analyze_pair(
        a,
        a_star,
        max_orderings=args.max_orderings,
        require_irreducible=args.require_irreducible,
    )


def cmd_analyze(args) -> int:
    text = _read_text(args.document)
    if not args.batch:
        report = _analyze_document(args, text)
        if args.format == "json":
            _emit(report_to_json(report))
        else:
            sys.stdout.write(report_to_text(report) + "\n")
        return EXIT_OK
    # One document per line, each parsed, analyzed and printed before the
    # next; a failing line prints an error object in its place.
    worst = EXIT_OK
    for k, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            report = _analyze_document(args, line)
        except HesspairsError as exc:
            name, code = _classify_error(exc)
            out = json.dumps({**_error_json(name, str(exc)), "line": k}, sort_keys=True)
            worst = max(worst, code)
        else:
            if args.format == "json":
                out = json.dumps(report_to_json(report), sort_keys=True)
            else:
                out = report_to_text(report)
        sys.stdout.write(out + "\n")
    return worst


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise DocumentParseError(f"bad {what}: {text!r}") from exc


def cmd_generate(args) -> int:
    if args.field == "GF":
        if args.p is None:
            raise DocumentParseError("--p is required with --field GF")
        try:
            field = GF(args.p)
        except NotPrimeError as exc:
            raise DocumentParseError(str(exc)) from exc
    else:
        field = QQ
    eigs_a = scalars_from_json(field, args.eigs_a.split(","), "--eigs-a") if args.eigs_a else []
    eigs_b = scalars_from_json(field, args.eigs_a_star.split(","), "--eigs-a-star") if args.eigs_a_star else []
    if args.kind == SPLIT_FORM:
        dims = _parse_ints(args.dims, "--dims")
        inst = gen_split_form(field, dims, eigs_a, eigs_b, args.seed)
    elif args.kind == TRIDIAGONAL_FORM:
        dims = _parse_ints(args.dims, "--dims")
        inst = gen_tridiagonal_form(
            field, dims, eigs_a, eigs_b, args.seed, max_attempts=args.max_attempts
        )
    elif args.kind == REDUCIBLE_SUM:
        if not args.inner_dims:
            raise DocumentParseError("--inner-dims is required for reducible-sum")
        inner = [_parse_ints(part, "--inner-dims") for part in args.inner_dims.split(";")]
        inst = gen_reducible(field, inner, eigs_a, eigs_b, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise DocumentParseError(f"unknown kind {args.kind!r}")
    if args.conjugate:
        inst = conjugate(inst, args.seed + 1)
    _emit(instance_to_document(inst))
    return EXIT_OK


def _candidate_from_json(field: FieldSpec, n: int, obj) -> SplitDecomposition:
    if not isinstance(obj, dict):
        raise DocumentParseError("split candidate must be a JSON object")
    for key in ("subspaces", "eigenvalues_a", "eigenvalues_a_star"):
        if key not in obj:
            raise DocumentParseError(f"split candidate lacks {key!r}")
    if not isinstance(obj["subspaces"], list):
        raise DocumentParseError("split candidate subspaces must be a list of subspaces")
    subs = tuple(
        subspace_from_json(field, n, rows, f"subspaces[{i}]")
        for i, rows in enumerate(obj["subspaces"])
    )
    return SplitDecomposition(
        subspaces=subs,
        eigenvalues_a=scalars_from_json(field, obj["eigenvalues_a"], "eigenvalues_a"),
        eigenvalues_a_star=scalars_from_json(field, obj["eigenvalues_a_star"], "eigenvalues_a_star"),
    )


def cmd_check_split(args) -> int:
    field, a, a_star, truth = parse_document(_load_json(_read_text(args.document)))
    n = a.nrows
    if args.candidate:
        cand_obj = _load_json(_read_text(args.candidate))
    elif truth is not None:
        cand_obj = {
            "subspaces": truth.get("flag"),
            "eigenvalues_a": truth.get("eigenvalues_a"),
            "eigenvalues_a_star": truth.get("eigenvalues_a_star"),
        }
        if any(v is None for v in cand_obj.values()):
            raise DocumentParseError("document truth block lacks a usable split candidate")
    else:
        raise DocumentParseError("no candidate split: pass --candidate or a truth block")
    cand = _candidate_from_json(field, n, cand_obj)
    violations = split_violations(a, a_star, cand)
    result = {
        "split_valid": not violations,
        "violations": violations,
        "matches_formula": None,
        "uniqueness_confirmed": None,
    }
    # Uniqueness: a verifying candidate must equal the closed-form split for
    # its own orderings.
    try:
        eig_a = eigen_structure(a)
        eig_a_star = eigen_structure(a_star)
        ord_a = EigenOrdering.from_eigenvalues(eig_a, cand.eigenvalues_a)
        ord_b = EigenOrdering.from_eigenvalues(eig_a_star, cand.eigenvalues_a_star)
        formula = split_from_flags(ord_a, ord_b)
        result["matches_formula"] = formula == cand
        if not violations:
            result["uniqueness_confirmed"] = formula == cand
            if not result["uniqueness_confirmed"]:
                raise OracleDisagreementError(
                    "verified split differs from the closed-form split; this is a bug"
                )
    except (HesspairsError, ValueError) as exc:
        if isinstance(exc, OracleDisagreementError):
            raise
        result["formula_error"] = str(exc)
    _emit(result)
    return EXIT_OK if result["split_valid"] else EXIT_FAIL


def _count_subspaces(p: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def cmd_oracle(args) -> int:
    field, a, a_star, _truth = parse_document(_load_json(_read_text(args.document)))
    eig_a = eigen_structure(a)
    eig_a_star = eigen_structure(a_star)
    result: dict = {"ordering_search": None, "tridiagonal_search": None, "irreducibility": None}
    if eig_a.diagonalizable and eig_a_star.diagonalizable:
        # What analyze reports, against the echelon scans of all orderings.
        sides = _admissible_sides(a, a_star, eig_a, eig_a_star, args.max_orderings)
        pairs = _ordering_pairs(eig_a, eig_a_star, *sides, args.max_orderings)
        per_side = ((eig_a, a_star), (eig_a_star, a))
        agrees = list(sides) == [_scan_orderings(eig, m, _side_condition_holds) for eig, m in per_side]
        result["ordering_search"] = {"agrees": agrees, "pairs": len(pairs)}
        if not agrees:
            raise OracleDisagreementError("block-pattern ordering search disagrees with the echelon scan")
        tri = [_three_term_side_orderings(side) for side in sides]
        agrees = tri == [_scan_orderings(eig, m, _three_term_side_holds) for eig, m in per_side]
        result["tridiagonal_search"] = {"agrees": agrees, "orderings": [len(side) for side in tri]}
        if not agrees:
            raise OracleDisagreementError("reversal closure disagrees with the echelon three-term scan")
    else:
        result["ordering_search"] = {"skipped": "pair is not diagonalizable"}
        result["tridiagonal_search"] = {"skipped": "pair is not diagonalizable"}
    if field.is_finite and _count_subspaces(field.order(), a.nrows) <= args.subspace_limit:
        fast_v = decide_irreducible(a, a_star, eigen_a=eig_a, eigen_a_star=eig_a_star)
        slow_v = decide_irreducible_by_enumeration(a, a_star)
        agrees = (fast_v.status == slow_v.status) and fast_v.status in (
            IrreducibilityStatus.IRREDUCIBLE,
            IrreducibilityStatus.REDUCIBLE,
        )
        result["irreducibility"] = {
            "agrees": agrees,
            "fast": fast_v.status.value,
            "enumeration": slow_v.status.value,
        }
        if not agrees:
            raise OracleDisagreementError(
                f"irreducibility fast path ({fast_v.status.value}) disagrees with "
                f"enumeration ({slow_v.status.value})"
            )
    else:
        result["irreducibility"] = {"skipped": "field infinite or subspace count over limit"}
    _emit(result)
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="hesspairs",
        description="Exact analysis of Hessenberg/tridiagonal pairs and split decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="analyze a pair document (JSON on stdin or FILE)")
    an.add_argument("document", nargs="?", default=None, help="path to document, '-' for stdin")
    an.add_argument("--batch", action="store_true", help="treat input as one JSON document per line")
    an.add_argument("--max-orderings", type=int, default=DEFAULT_MAX_ORDERINGS)
    an.add_argument("--seed", type=int, default=0, help="ignored: the verdict depends on the pair alone")
    an.add_argument("--format", choices=["json", "text"], default="json")
    an.add_argument(
        "--require-irreducible",
        action="store_true",
        help="fail instead of degrading the report when irreducibility is undetermined",
    )
    an.set_defaults(fn=cmd_analyze)

    gen = sub.add_parser("generate", help="emit a certified instance document")
    gen.add_argument("kind", choices=[SPLIT_FORM, TRIDIAGONAL_FORM, REDUCIBLE_SUM])
    gen.add_argument("--field", choices=["Q", "GF"], default="Q")
    gen.add_argument("--p", type=int, default=None, help="modulus for GF")
    gen.add_argument("--dims", default="", help="block dims, e.g. 1,2,1")
    gen.add_argument("--inner-dims", default="", help="for reducible-sum: dims lists joined by ';'")
    gen.add_argument("--eigs-a", default="", help="eigenvalue sequence for A, comma separated")
    gen.add_argument("--eigs-a-star", default="", help="eigenvalue sequence for A*, comma separated")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-attempts", type=int, default=2000)
    gen.add_argument("--conjugate", action="store_true", help="apply a random change of basis")
    gen.set_defaults(fn=cmd_generate)

    chk = sub.add_parser("check-split", help="verify a split candidate against a pair")
    chk.add_argument("document", nargs="?", default=None)
    chk.add_argument("--candidate", default=None, help="JSON file with the candidate split")
    chk.set_defaults(fn=cmd_check_split)

    orc = sub.add_parser("oracle", help="compare fast paths against brute-force oracles")
    orc.add_argument("document", nargs="?", default=None)
    orc.add_argument("--seed", type=int, default=0, help="ignored: the verdict depends on the pair alone")
    orc.add_argument("--max-orderings", type=int, default=DEFAULT_MAX_ORDERINGS)
    orc.add_argument("--subspace-limit", type=int, default=20000)
    orc.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # dispatch maps known errors to exit codes
        return _dispatch_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
