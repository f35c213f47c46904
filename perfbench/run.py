"""Seeded benchmark of ``hesspairs analyze``, run in-process.

    python3 perfbench/run.py --workload tri-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The script imports hesspairs from ``src/``,
generates the workload's corpus from the seed, and sends each document
through ``hesspairs.cli.main(["analyze"])`` with stdin and stdout swapped
for in-memory buffers.  It repeats whole passes over the corpus until the
time is up and checks every output against the generator's truth with its
own exact arithmetic (exact.py).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics, and
writes the spans to ``perfbench/out/``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it repeat every metric with its unit and record the environment and the
corpus fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Not used while the benchmark was tuned; a claim should also hold on it.
HELD_OUT_SEED = 4099
# Set-up is repeated and the median reported; one extra warm-up rep first
# may compile bytecode.
SETUP_REPS = 5
MIN_PASSES = 3
METHODS = ["algebra-dimension", "spin-probe", "brute-force", "meataxe", "undetermined"]

clock = time.perf_counter

# Host-speed normalisation.  On a shared host the same pass can take 30%
# longer from one minute to the next, and CPU time drifts as much as wall
# time.  So a fixed pure-Python kernel is timed before and after each
# document, and each measured interval is scaled by CALIBRATION_REF_S over
# the kernel's mean time around it.  Reported times are therefore wall
# seconds on a host where the kernel takes CALIBRATION_REF_S, about its
# time on an idle 2-vCPU x86-64 VM under CPython 3.11.  Raw wall times of
# the passes are printed too.
CALIBRATION_REF_S = 0.001


def calibrate() -> float:
    """Seconds taken by a fixed kernel of Fraction and int arithmetic.

    The best of three runs, so that one preemption does not count as a
    slow host.
    """
    best = float("inf")
    for _ in range(3):
        start = clock()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(1, i)
        x = 0
        for i in range(6000):
            x = (x * 31 + i) % 1000003
        best = min(best, clock() - start)
    return best


def setup(workload: str, seed: int):
    """Import hesspairs and build the corpus SETUP_REPS + 1 times.

    Returns the median normalised time of the timed reps (the first rep may
    compile bytecode), the cli module and the documents.
    """
    times, texts = [], None
    cal = calibrate()
    for _ in range(SETUP_REPS + 1):
        for name in [k for k in sys.modules if k == "hesspairs" or k.startswith("hesspairs.")]:
            del sys.modules[name]
        start = clock()
        cli = importlib.import_module("hesspairs.cli")
        docs = workloads.build(workload, seed)
        elapsed = clock() - start
        cal_next = calibrate()
        times.append(elapsed * 2 * CALIBRATION_REF_S / (cal + cal_next))
        cal = cal_next
        if texts is not None and texts != [d.text for d in docs]:
            raise RuntimeError("corpus generation is not deterministic")
        texts = [d.text for d in docs]
    return statistics.median(times[1:]), cli, docs


@dataclass
class Pass:
    seconds: float      # normalised time spent in cli.main, summed over documents
    wall: float         # raw wall time of the pass, calibration included
    latencies: list     # normalised seconds per document
    codes: list         # exit code, or the exception raised, per document
    outputs: list       # stdout per document; kept for the first pass only
    differs: list       # per document: stdout differs from the first pass's


def run_pass(cli, docs, first=None, tracer=None) -> Pass:
    """One pass over ``docs``.

    Without ``first`` the outputs are kept.  With it, each output is
    compared with ``first``'s as soon as it is produced and then dropped,
    so memory does not grow with the number of passes.
    """
    latencies, codes, outputs, differs = [], [], [], []
    stdin = sys.stdin
    start = clock()
    cal = calibrate()
    try:
        for i, doc in enumerate(docs):
            if tracer is not None:
                tracer.doc = i
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(doc.text)
            t = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(["analyze"])
            except Exception:  # a crash fails this document, not the run
                rc = traceback.format_exc().splitlines()[-1]
            elapsed = clock() - t
            cal_next = calibrate()
            latencies.append(elapsed * 2 * CALIBRATION_REF_S / (cal + cal_next))
            cal = cal_next
            codes.append(rc)
            if first is None:
                outputs.append(out.getvalue())
                differs.append(False)
            else:
                differs.append(out.getvalue() != first.outputs[i])
    finally:
        sys.stdin = stdin
    return Pass(sum(latencies), clock() - start, latencies, codes, outputs, differs)


def commit() -> str | None:
    try:
        # The ceiling keeps git from looking for a repository above ROOT.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hesspairs").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "held_out_seed": HELD_OUT_SEED,
    }


def fingerprint(docs) -> dict:
    a0 = [d.abs_a0 for d in docs if d.abs_a0 is not None]
    return {
        "documents": len(docs),
        "by_shape": dict(sorted(Counter(d.label for d in docs).items())),
        "max_abs_a0": max(a0) if a0 else None,
        "sha256": hashlib.sha256("\n".join(d.text for d in docs).encode()).hexdigest()[:16],
    }


def count_failures(docs, passes) -> tuple[int, list[str]]:
    """Failed analyses over all passes, judged against the truth and pass 0's bytes."""
    first = passes[0]
    problems = []
    for doc, rc, out in zip(docs, first.codes, first.outputs):
        if rc != 0:
            problems.append([f"exit code {rc}" if isinstance(rc, int) else f"raised {rc}"])
        else:
            try:
                problems.append(exact.check_report(json.loads(doc.text), doc.truth, json.loads(out)))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append([f"report not readable: {exc!r}"])
    failed = 0
    for p in passes:
        for i, (rc, differs) in enumerate(zip(p.codes, p.differs)):
            if rc != 0 or problems[i] or differs:
                failed += 1
    notes = [f"doc {i} ({docs[i].label}): {'; '.join(p)}" for i, p in enumerate(problems) if p]
    for p in passes[1:]:
        notes += [f"doc {i}: output bytes differ from pass 0" for i, d in enumerate(p.differs) if d]
    return failed, notes


def end_to_end(passes, setup_s) -> dict:
    latencies = [x * 1000 for p in passes for x in p.latencies]
    return {
        "analyze_s": (statistics.median(p.seconds for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "doc_p50_ms": (statistics.median(latencies), "ms"),
        "doc_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def per_layer(docs, untraced, traced, tracer) -> dict:
    """Per-pass layer metrics from the traced passes, plus ratios with their bases."""
    aggs = [agg for _, agg in traced]
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (aggs[0][name][0], "count")
        metrics[f"{name}.self_s"] = (statistics.median(a[name][1] for a in aggs), "s")
    # Shares of traced analyze_pair time; all non-cli spans nest inside it.
    base = sum(a["pairs.analyze_pair"][2] for a in aggs)
    for mod in ("spectral", "linalg", "pairs", "irreducibility"):
        fns = [f"{mod}.{fn}" for fn in tracing.TRACED[mod]]
        for name in fns:
            metrics[f"{name}.share"] = (sum(a[name][1] for a in aggs) / base, "share")
        metrics[f"{mod}.share"] = (sum(a[n][1] for a in aggs for n in fns) / base, "share")
    first = untraced[0]
    reports = [json.loads(out) for rc, out in zip(first.codes, first.outputs) if rc == 0]
    ordering_pairs = sum(len(r["hessenberg"]["ordering_pairs"]) for r in reports)
    n_docs = len(docs)
    metrics["spectral.eigen_structure.calls_per_doc"] = (
        aggs[0]["spectral.eigen_structure"][0] / n_docs, "calls/doc")
    metrics["pairs.ordering_pairs_per_doc"] = (ordering_pairs / n_docs, "pairs/doc")
    metrics["pairs.verify_split.calls_per_ordering_pair"] = (
        aggs[0]["pairs.verify_split"][0] / max(ordering_pairs, 1), "calls/pair")
    decided = Counter(
        "undetermined" if r["irreducibility"]["status"] == "undetermined"
        else r["irreducibility"]["method"] for r in reports)
    for method in METHODS:
        metrics[f"irreducibility.decided_by.{method}"] = (decided[method] / n_docs, "share")
    metrics["irreducibility.algebra_dim_ratio"] = (
        statistics.mean(tracer.closure_dims), "ratio")
    metrics["trace.overhead_share"] = (
        statistics.median(p.seconds for p, _ in traced) / statistics.median(p.seconds for p in untraced) - 1,
        "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hesspairs" / "__init__.py").is_file():
        print(f"perfbench: no hesspairs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s, cli, docs = setup(args.workload, args.seed)
    start = clock()
    if args.trace:
        # Alternate untraced and traced passes so drift hits both alike.
        tracer = tracing.Tracer()
        untraced, traced = [], []
        while True:
            untraced.append(run_pass(cli, docs, untraced[0] if untraced else None))
            mark = len(tracer.spans)
            tracer.install()
            try:
                result = run_pass(cli, docs, untraced[0], tracer)
            finally:
                tracer.uninstall()
            traced.append((result, tracer.aggregate(mark)))
            elapsed = clock() - start
            if elapsed * (len(traced) + 1) / len(traced) > args.seconds:
                break
        passes = untraced + [p for p, _ in traced]
        metrics = per_layer(docs, untraced, traced, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        passes = []
        while True:
            passes.append(run_pass(cli, docs, passes[0] if passes else None))
            elapsed = clock() - start
            if len(passes) >= MIN_PASSES and elapsed + statistics.median(p.wall for p in passes) > args.seconds:
                break
        metrics = end_to_end(passes, setup_s)

    failed, notes = count_failures(docs, passes)
    attempted = len(docs) * len(passes)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} documents={len(docs)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("corpus " + json.dumps(fingerprint(docs), sort_keys=True))
    for note in notes:
        print("FAILED " + note)
    print(f"metric failed_share {failed / attempted} share ({failed} of {attempted} analyses)")
    print("note pass_s " + " ".join(f"{p.seconds:.3f}" for p in passes)
          + " (raw wall " + " ".join(f"{p.wall:.3f}" for p in passes) + ")")
    if not args.trace:
        print(f"note doc_p50_ms and doc_p90_ms pool {attempted} per-document samples")
    else:
        print(f"note per-layer values are per pass, over {len(passes) // 2} traced passes; "
              f"{tracer.bindings} bindings wrapped")
        top = max((k for k in metrics if k.count(".") == 2 and k.endswith(".share")),
                  key=lambda k: metrics[k][0])
        print(f"note largest self-time share: {top[:-6]} ({metrics[top][0]:.3f})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
