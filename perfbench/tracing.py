"""Span recorder that times hesspairs' layers from outside the package.

``Tracer.install`` replaces each traced function at every module binding
that refers to it (``pairs.decide_irreducible`` and
``irreducibility.decide_irreducible`` are separate bindings), so nested
calls are seen whichever module looks them up.  ``uninstall`` puts the
originals back; untraced passes run the unmodified package.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The layers are the modules; these are the functions timed in each.
TRACED = {
    "spectral": ["eigen_structure", "char_poly"],
    "linalg": ["kernel", "subspace_intersect", "apply", "subspace_contains"],
    "pairs": [
        "find_hessenberg_orderings_of", "split_from_flags", "verify_split",
        "construct_split", "is_tridiagonal_pair", "analyze_pair",
    ],
    "irreducibility": ["decide_irreducible", "algebra_closure", "spin"],
    "cli": ["main", "parse_document", "report_to_json"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, doc id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.doc = None
        self.closure_dims: list[float] = []  # algebra_closure dimension / n^2, per call
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.bindings = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.doc]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        if name == "irreducibility.algebra_closure":
            dims = self.closure_dims

            @functools.wraps(fn)
            def closure(generators):
                result = traced(generators)
                dims.append(result[0] / generators[0].nrows ** 2)
                return result

            return closure
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "hesspairs" or k.startswith("hesspairs.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"hesspairs.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, orig))
        self.bindings = len(self._patches)

    def uninstall(self) -> None:
        for m, attr, orig in self._patches:
            setattr(m, attr, orig)
        self._patches.clear()

    def aggregate(self, first: int = 0) -> dict[str, list[float]]:
        """``{name: [calls, self seconds, total seconds]}`` over spans[first:].

        Self time is a span's duration minus its children's durations; the
        pipeline is single-threaded, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for s in spans[first:]:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out = {name: [0, 0.0, 0.0] for name in NAMES}
        for i, s in enumerate(spans[first:]):
            entry = out[s[0]]
            entry[0] += 1
            entry[1] += s[2] - s[1] - child[i]
            entry[2] += s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, doc in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "doc": doc}) + "\n")
