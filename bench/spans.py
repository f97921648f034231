"""Spans recorded from outside the program, around svrisk's public functions.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds the wrapper in every ``svrisk`` namespace that holds the
original, because the modules import each other with ``from .geometry import
...``: rebinding ``geometry.feasible`` alone would miss the calls made from
``measures``.  ``rationals`` is not traced: its functions are leaf arithmetic
called millions of times, and their cost shows as self time of the callers.

A span is ``(id, parent, op, name, t0, t1, count)``.  ``parent`` is the id of
the enclosing span (-1 at the top), ``op`` the id of the benchmark operation
that caused it, and ``count`` an optional tuple of sizes taken from the
arguments and the result (see ``_COUNTERS``).  Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time

TRACED_MODULES = ("geometry", "measures", "laws", "represent", "scenario", "cones", "cli")


def _rows(p):
    return len(p.halfspaces) if p is not None else 0


# name -> function(args, kwargs, result) -> tuple of ints; keys of the tuple
# are listed in COUNT_FIELDS under the same name.
_COUNTERS = {
    "geometry.feasible": lambda a, k, r: (len(a[0]), int(r)),
    "geometry.eliminate": lambda a, k, r: (_rows(a[0]), _rows(r)),
    "geometry.canonical_piece": lambda a, k, r: (_rows(a[0]), _rows(r)),
    "geometry.canonicalize": lambda a, k, r: (len(a[0].pieces), len(r.pieces)),
    "geometry.covered_by_union": lambda a, k, r: (int(r),),
    "geometry.cone_vrep": lambda a, k, r: (len(r[0]) + len(r[1]),),
    "laws.check_measure_law": lambda a, k, r: (r.samples,),
    "laws.check_acceptance_law": lambda a, k, r: (r.samples,),
    "laws.check_correspondence": lambda a, k, r: (r.samples,),
}

COUNT_FIELDS = {
    "geometry.feasible": ("rows_in", "true"),
    "geometry.eliminate": ("rows_in", "rows_out"),
    "geometry.canonical_piece": ("rows_in", "rows_out"),
    "geometry.canonicalize": ("pieces_in", "pieces_out"),
    "geometry.covered_by_union": ("true",),
    "geometry.cone_vrep": ("rays_out",),
    "laws.check_measure_law": ("samples",),
    "laws.check_acceptance_law": ("samples",),
    "laws.check_correspondence": ("samples",),
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self.active = True
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            count = counter(args, kwargs, result) if counter is not None else None
            spans.append((sid, parent, self.op, name, t0, t1, count))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> int:
        """Wrap every public function of the traced modules; returns how many."""
        import svrisk
        importlib.import_module("svrisk.cli")
        originals = {}
        for mod_name in TRACED_MODULES:
            mod = sys.modules[f"svrisk.{mod_name}"]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                originals[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        namespaces = [svrisk] + [m for n, m in sys.modules.items()
                                 if n.startswith("svrisk.") and m is not None]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(ns, attr, originals[value])
        return len(originals)

    def adopt(self, spans, op) -> None:
        """Take over spans recorded in a child process, under operation ``op``."""
        base = self._next_id
        top = -1
        for sid, parent, _op, name, t0, t1, count in spans:
            self.spans.append((sid + base, parent + base if parent != -1 else -1,
                               op, name, t0, t1, count))
            top = max(top, sid)
        self._next_id = base + top + 1

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans as gzipped JSON lines: a header, then one per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "t0", "t1", "count"],
                                 **(extra or {})}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path: str) -> tuple[dict, list[tuple]]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [tuple(json.loads(line)) for line in fh]


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children.

    Calls nest (one thread), so the children of a span cover disjoint parts
    of its interval and their durations can simply be subtracted.
    """
    child_total: dict[int, float] = {}
    for s in spans:
        if s[1] != -1:
            child_total[s[1]] = child_total.get(s[1], 0.0) + (s[5] - s[4])
    return {s[0]: (s[5] - s[4]) - child_total.get(s[0], 0.0) for s in spans}


# Per-layer metrics: function -> statistics reported for it.
LAYER_STATS = (
    ("geometry.feasible", ("calls", "self_ms", "rows_in", "true_share")),
    ("geometry.feasible_point", ("calls", "self_ms")),
    ("geometry.eliminate", ("calls", "self_ms", "rows_in", "rows_out")),
    ("geometry.canonical_piece", ("calls", "self_ms", "rows_in", "rows_out")),
    ("geometry.canonicalize", ("calls", "self_ms", "pieces_in", "pieces_out")),
    ("geometry.covered_by_union", ("calls", "self_ms", "true_share")),
    ("geometry.uncovered_point", ("calls", "self_ms")),
    ("geometry.cone_vrep", ("calls", "self_ms", "rays_out")),
    ("geometry.convert_rep", ("calls", "self_ms")),
    ("geometry.hrep_from_vrep", ("calls", "self_ms")),
    *((f"geometry.{f}", ("calls", "self_ms")) for f in (
        "is_subset", "sets_equal", "separating_point", "minkowski_sum",
        "intersect_sets", "union_sets", "scale_set", "translate_set")),
    ("measures.value_at_risk", ("calls", "self_ms", "candidate_pieces")),
    *((f"measures.{f}", ("calls", "self_ms")) for f in (
        "worst_case", "eval_measure", "eval_acceptance", "accepts")),
    *((f"laws.{f}", ("calls", "self_ms", "samples")) for f in (
        "check_measure_law", "check_acceptance_law", "check_correspondence")),
    ("laws.recheck_witness", ("calls", "self_ms")),
    *((f"represent.{f}", ("calls", "self_ms")) for f in (
        "decompose", "reconstruct_check", "family_union_value",
        "dual_certificate", "validate_certificate")),
    ("scenario.load_market", ("calls", "self_ms")),
    ("scenario.load_position", ("calls", "self_ms")),
    ("cones.bidask_cone", ("self_ms",)),
    ("cones.restrict_to_subspace", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)

# Figures measured by the benchmark itself rather than read off the spans.
EXTRA_LAYER_METRICS = (("cli.import_ms", "ms", "lower"),
                       ("cli.stdout_bytes", "bytes", "lower"),
                       ("trace.overhead_share", "share", "lower"))

_STAT_UNIT = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"),
              "true_share": ("share", "higher"), "samples": ("count", "higher")}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn, stats in LAYER_STATS:
        for stat in stats:
            unit, better = _STAT_UNIT.get(stat, ("count", "lower"))
            out.append((f"{fn}.{stat}", unit, better))
    return out + list(EXTRA_LAYER_METRICS)


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one pass.

    Spans whose op is "setup" count once; the others are divided by the
    number of traced passes, which all run the same operation list.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for s in spans:
        sid, parent, op, name, _t0, _t1, count = s
        w = 1.0 if op == "setup" else 1.0 / passes
        add(f"{name}.calls", w)
        add(f"{name}.self_ms", own[sid] * 1000.0 * w)
        for field, value in zip(COUNT_FIELDS.get(name, ()), count or ()):
            add(f"{name}.{field}", value * w)
        if name == "geometry.canonicalize":
            up = by_id.get(parent)
            if up is not None and up[3] == "geometry.upper_set":
                top = by_id.get(up[1])
                if top is not None and top[3] == "measures.value_at_risk":
                    add("measures.value_at_risk.candidate_pieces", count[0] * w)
    out = {}
    for fn, stats in LAYER_STATS:
        calls = acc.get(f"{fn}.calls", 0.0)
        for stat in stats:
            key = f"{fn}.{stat}"
            if stat == "true_share":
                out[key] = acc.get(f"{fn}.true", 0.0) / calls if calls else 0.0
            else:
                out[key] = acc.get(key, 0.0)
    return out
