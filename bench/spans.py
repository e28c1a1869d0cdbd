"""In-memory span tracing around the library's public functions.

Each wrapped call records (name, start, end, parent, request id) in flat
arrays; nothing is written until the pass ends.  A function is wrapped where
its callers bind it: in its defining module and in every other module that
imported the same object (``vknots.khovanov.gf2_rank``,
``vknots.forbidden.simplify``, ...), so that each caller's lookup reaches the
wrapper and child spans nest under the span that caused them.  Methods are
wrapped on their class.

Counts are recorded at the same boundaries as the spans, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute path)
TARGETS = (
    ("cli.main", "vknots.cli", "main"),
    ("cli.build_parser", "vknots.cli", "build_parser"),
    ("cli.cmd_kh", "vknots.cli", "cmd_kh"),
    ("cli.cmd_eval", "vknots.cli", "cmd_eval"),
    ("cli.cmd_gpv_sum", "vknots.cli", "cmd_gpv_sum"),
    ("cli.cmd_ntrivial", "vknots.cli", "cmd_ntrivial"),
    ("cli.cmd_trivialize", "vknots.cli", "cmd_trivialize"),
    ("khovanov.homology", "vknots.khovanov", "homology"),
    ("khovanov.jones_hat", "vknots.khovanov", "jones_hat"),
    ("khovanov.bracket", "vknots.khovanov", "bracket"),
    ("gf2.gf2_rank", "vknots.gf2", "gf2_rank"),
    ("laurent.LaurentPoly.init", "vknots.laurent", "LaurentPoly.__init__"),
    ("diagram.GaussDiagram.init", "vknots.diagram", "GaussDiagram.__init__"),
    ("diagram.canonical_code", "vknots.diagram", "GaussDiagram.canonical_code"),
    ("diagram.delete_chords", "vknots.diagram", "GaussDiagram.delete_chords"),
    ("moves.enumerate_moves", "vknots.moves", "enumerate_moves"),
    ("moves.apply_move", "vknots.moves", "apply_move"),
    ("moves.simplify", "vknots.moves", "simplify"),
    ("forbidden.check_n_trivial", "vknots.forbidden", "check_n_trivial"),
    ("forbidden.certify_trivial", "vknots.forbidden", "certify_trivial"),
    ("forbidden.trivialize_forbidden", "vknots.forbidden", "trivialize_forbidden"),
    ("arrows.gpv_alt_sum", "vknots.arrows", "gpv_alt_sum"),
    ("arrows.embeddings", "vknots.arrows", "embeddings"),
    ("braids.closure", "vknots.braids", "closure"),
)


def _state_sum(counts: Counter, seen: set, args, result) -> None:
    diagram = args[0]
    counts["khovanov.states"] += 1 << diagram.n
    counts["khovanov.calls"] += 1
    # the equality that keys khovanov._spaces
    if diagram in seen:
        counts["khovanov.repeats"] += 1
    else:
        seen.add(diagram)


def _gf2_rank(counts: Counter, seen: set, args, result) -> None:
    rows = len(args[0])
    counts["gf2.rows"] += rows
    counts["gf2.max_rows"] = max(counts["gf2.max_rows"], rows)


def _embeddings(counts: Counter, seen: set, args, result) -> None:
    pattern, diagram = args[0], args[1]
    counts["arrows.subsets"] += math.comb(diagram.n, pattern.order)


def _trivialize(counts: Counter, seen: set, args, result) -> None:
    counts["forbidden.trivialize.found"] += result is not None


def _certify(counts: Counter, seen: set, args, result) -> None:
    counts["forbidden.certify.decided"] += result.status in ("certified", "refuted")


COUNTERS = {
    "khovanov.homology": _state_sum,
    "khovanov.jones_hat": _state_sum,
    "khovanov.bracket": _state_sum,
    "gf2.gf2_rank": _gf2_rank,
    "arrows.embeddings": _embeddings,
    "forbidden.trivialize_forbidden": _trivialize,
    "forbidden.certify_trivial": _certify,
}


class Tracer:
    """Records spans for every call of the wrapped functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.current_request = -1
        self.counts: Counter = Counter()
        self._seen: set = set()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, request = (
            self.span_name, self.start, self.end, self.parent, self.request)
        open_spans, counts, seen = self._open, self.counts, self._seen
        after = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            request.append(self.current_request)
            end.append(0.0)
            open_spans.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_spans.pop()
            if after is not None:
                after(counts, seen, args, result)
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every target in its module and wherever it was imported."""
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            places = [(owner, attr)]
            if not outer:  # a method is reached through its class only
                modules = [m for key, m in list(sys.modules.items())
                           if key == "vknots" or key.startswith("vknots.")]
                places += [(module, key)
                           for module in modules + list(extra_modules)
                           for key, value in list(vars(module).items())
                           if value is original and module is not owner]
            for obj, key in places:
                setattr(obj, key, wrapper)
                self._patched.append((obj, key, original))

    def uninstall(self) -> None:
        """Restore every wrapped function; later calls record nothing."""
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        self._patched.clear()

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).  Self time is a
        span's duration minus the time its child spans cover; calls on one
        thread nest, so children never overlap."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            d = end[i] - start[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]
        return {name: (calls[k], total[k], own[k]) for k, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, total, own) in self.per_name().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        c = self.counts

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        for key in ("khovanov.states", "gf2.rows", "gf2.max_rows", "arrows.subsets"):
            out[key] = c[key]
        out["khovanov.repeat_ratio"] = ratio(c["khovanov.repeats"], c["khovanov.calls"])
        out["forbidden.trivialize.found_ratio"] = ratio(
            c["forbidden.trivialize.found"], out["forbidden.trivialize_forbidden.calls"])
        out["forbidden.certify.decided_ratio"] = ratio(
            c["forbidden.certify.decided"], out["forbidden.certify_trivial.calls"])
        return out

    def write(self, prefix: str) -> None:
        """Spans as raw arrays in ``prefix.bin``, described by ``prefix.json``."""
        columns = ("span_name", "start", "end", "parent", "request")
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "byteorder": sys.byteorder,
            "columns": [[col, getattr(self, col).typecode] for col in columns],
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(prefix + ".bin", "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
