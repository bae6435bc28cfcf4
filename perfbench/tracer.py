"""Spans around the calls into each module's public functions.

The tracer replaces every binding of a listed function in every loaded
``tokenmedia`` module, so a call through a name imported with ``from ...
import`` is seen too, and puts the originals back on ``uninstall``.  Each
span records its name, start, end, parent span and job id; spans stay in
memory until the run ends.  Work counts are computed at the boundary from
a call's inputs and outputs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: Wrapped public functions, one per layer boundary; "Class.method" names a method.
SPANS = {
    "cli": ["main", "build_parser"],
    "tokens": ["TokenSystem.__init__", "TokenSystem.from_json_dict", "TokenSystem.to_json_dict",
               "check_axioms", "reverse_defect"],
    "families": ["family_medium", "well_graded_witness", "SetFamily.to_json_dict"],
    "represent": ["decide_medium", "contents", "orient_from_state", "positive_content_family",
                  "MediumDecision.to_json_dict", "FamilyRepresentation.to_json_dict"],
    "cubes": ["is_partial_cube", "media_isomorphic", "medium_graph", "extend_isometry",
              "LabeledGraph.to_json_dict"],
    "linorders": ["linear_medium"],
    "arrangements": ["mosaic_window", "Arrangement.from_json_dict", "enumerate_regions",
                     "region_adjacency", "arrangement_medium", "region_family",
                     "Region.to_json_dict"],
}

SPAN_NAMES = [f"{mod}.{attr}" for mod, attrs in SPANS.items() for attr in attrs]


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _count_states(args, result):
    return {"states": len(args[0].states)}


def _count_pcube(args, result):
    edges = len(args[0].edges)
    out = {"edges": edges, "edge_pairs": _pairs(edges)}
    if result.accepted:
        out["accepted_pairs"] = _pairs(edges)
        out["same_class_pairs"] = sum(_pairs(c) for c in Counter(result.edge_classes.values()).values())
    return out


def _count_regions(args, result):
    lines, regions = len(args[0].lines), len(result)
    return {"lines": lines, "regions": regions, "flip_tests": regions * lines}


def _count_adjacency(args, result):
    return {"region_pairs": _pairs(len(args[1])), "edges": len(result.edges)}


COUNTERS = {
    "represent.decide_medium": _count_states,
    "cubes.is_partial_cube": _count_pcube,
    "cubes.media_isomorphic": _count_states,
    "arrangements.enumerate_regions": _count_regions,
    "arrangements.region_adjacency": _count_adjacency,
}

# span record fields
NAME, JOB, PARENT, START, END, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {name: Counter() for name in COUNTERS}
        self.job = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tokenmedia" or name.startswith("tokenmedia.")]
        self.missing = []
        for mod, attrs in SPANS.items():
            home = importlib.import_module(f"tokenmedia.{mod}")
            for attr in attrs:
                name = f"{mod}.{attr}"
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:
                    self._wrap_method(name, getattr(home, owner_name, None), fn_name)
                else:
                    self._wrap_function(name, getattr(home, fn_name, None), modules)

    def _wrap_function(self, name, original, modules) -> None:
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrapper(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, original))

    def _wrap_method(self, name, cls, fn_name) -> None:
        raw = vars(cls).get(fn_name) if cls is not None else None
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrapper(name, raw.__func__))
        else:
            patched = self._wrapper(name, raw)
        setattr(cls, fn_name, patched)
        self._undo.append((cls, fn_name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _wrapper(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, tracer.job, stack[-1] if stack else None, 0.0, 0.0, False]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                tracer.counts[name].update(count(args, result))
            return result

        return traced

    # --- summaries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part of it that its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict[str, float]:
        """Per-span calls, self time and raised count, plus the work counts."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_ms"] = 0.0
            out[f"{name}.raised"] = 0
        for s, own in zip(self.spans, self.self_times()):
            out[f"{s[NAME]}.calls"] += 1
            out[f"{s[NAME]}.self_ms"] += own * 1e3
            out[f"{s[NAME]}.raised"] += s[RAISED]
        c = self.counts
        out["represent.decide_medium.states"] = c["represent.decide_medium"]["states"]
        pc = c["cubes.is_partial_cube"]
        out["cubes.is_partial_cube.edges"] = pc["edges"]
        out["cubes.is_partial_cube.edge_pairs"] = pc["edge_pairs"]
        out["cubes.is_partial_cube.useful_ratio"] = _ratio(pc["same_class_pairs"], pc["accepted_pairs"])
        out["cubes.media_isomorphic.states"] = c["cubes.media_isomorphic"]["states"]
        er = c["arrangements.enumerate_regions"]
        for key in ("lines", "regions", "flip_tests"):
            out[f"arrangements.enumerate_regions.{key}"] = er[key]
        ra = c["arrangements.region_adjacency"]
        out["arrangements.region_adjacency.region_pairs"] = ra["region_pairs"]
        out["arrangements.region_adjacency.useful_ratio"] = _ratio(ra["edges"], ra["region_pairs"])
        return out

    def fired(self, canary: bool) -> set[str]:
        """Span names seen in the canary pass, or everywhere else."""
        return {s[NAME] for s in self.spans if str(s[JOB]).startswith("canary") == canary}

    def job_gaps(self, latencies: dict) -> list[tuple[float, float]]:
        """(latency, latency minus the sum of the job's span self times) per job,
        in ms; the second is near zero when the spans nest correctly."""
        totals: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            if s[JOB] in latencies:
                totals[s[JOB]] = totals.get(s[JOB], 0.0) + own
        return [(lat * 1e3, abs(lat - totals.get(job, 0.0)) * 1e3) for job, lat in latencies.items()]

    def dump(self) -> list[dict]:
        return [{"name": s[NAME], "job": s[JOB], "parent": s[PARENT],
                 "start": s[START], "end": s[END], "raised": s[RAISED]} for s in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0
