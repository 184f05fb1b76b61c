"""Span tracer for the traced run, applied to ``sectornet`` from outside.

Every function in ``LAYERS`` is replaced by a wrapper both in the module
that defines it and in every ``sectornet`` module that imported it (for
example ``orient90`` holds its own binding of ``orient_four``). A wrapper
records a span (name, start, end, parent span, phase) in memory and counts
what the call produced. A span's self time is its duration minus the time
covered by its direct children.

With ``memory`` on, each outermost call into a ``MEMORY_LAYERS`` function
runs under tracemalloc and the layer keeps the highest peak. tracemalloc
slows Python code several times over, so spans recorded with it on are left
out of the times.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Dict, List

LAYERS = {
    "instances": ("random_connected_udg",),
    "topology": ("build_udg", "is_connected", "bounded_degree_mst"),
    "orient180": ("orient_all_180", "plan_groups_180", "partition_groups_180"),
    "orient90": ("orient_all_90", "orient_small", "extract_groups_90", "choose_representatives"),
    "fourpoint": ("orient_four", "search_orient_four", "search_cover_orientation"),
    "verifier": (
        "build_comm_graph",
        "strongly_connected",
        "is_strongly_connected_at",
        "min_strong_radius",
        "covers_plane",
    ),
}
MEMORY_LAYERS = ("topology", "verifier")
# results kept for the structural checks of the traced run
KEPT = ("topology.bounded_degree_mst", "orient180.partition_groups_180", "orient90.extract_groups_90")

# the per-layer metrics, in BENCHMARK.json order
METRICS = (
    ("instances.random_connected_udg_s", "s"),
    ("topology.build_udg_s", "s"),
    ("topology.is_connected_s", "s"),
    ("topology.udg_edges", "count"),
    ("topology.bounded_degree_mst_s", "s"),
    ("topology.peak_mb", "MB"),
    ("orient180.partition_groups_180_s", "s"),
    ("orient180.plan_groups_180_s", "s"),
    ("orient180.groups", "count"),
    ("orient90.extract_groups_90_s", "s"),
    ("orient90.choose_representatives_s", "s"),
    ("orient90.choose_representatives_calls", "count"),
    ("orient90.groups", "count"),
    ("orient90.orient_small_calls", "count"),
    ("fourpoint.orient_four_s", "s"),
    ("fourpoint.orient_four_calls", "count"),
    ("fourpoint.search_cover_orientation_s", "s"),
    ("fourpoint.search_cover_orientation_calls", "count"),
    ("fourpoint.search_orient_four_calls", "count"),
    ("verifier.is_strongly_connected_at_s", "s"),
    ("verifier.is_strongly_connected_at_calls", "count"),
    ("verifier.covers_plane_s", "s"),
    ("verifier.covers_plane_calls", "count"),
    ("verifier.min_strong_radius_s", "s"),
    ("verifier.peak_mb", "MB"),
    ("verifier.build_comm_graph_s", "s"),
    ("verifier.strongly_connected_s", "s"),
    ("verifier.comm_edges", "count"),
)


class Tracer:
    """Spans and counts of one traced run. ``phase`` labels new spans:
    "setup", "round" or "memory"."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, Counter] = defaultdict(Counter)
        self.peaks: Dict[str, int] = {}
        self.kept: List[tuple] = []
        self.phase = "setup"
        self.memory = False
        self.keep = False
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "sectornet"]
        for layer, names in LAYERS.items():
            home = sys.modules[f"sectornet.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, orig)
                for mod in mods:
                    if vars(mod).get(fname) is orig:
                        self._patched.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def _wrap(self, name: str, layer: str, fn):
        tracks_memory = layer in MEMORY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            mem = tracks_memory and self.memory and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if mem:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[layer] = max(self.peaks.get(layer, 0), peak)
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.phase)
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        count = self.counts[self.phase]
        if name == "topology.build_udg":
            count["topology.udg_edges"] += len(result.edges)
        elif name == "verifier.build_comm_graph":
            count["verifier.comm_edges"] += sum(len(v) for v in result.out_edges.values())
        elif name == "orient180.partition_groups_180":
            count["orient180.groups"] += len(result)
        elif name == "orient90.extract_groups_90":
            count["orient90.groups"] += len(result[0])
        if self.keep and name in KEPT:
            self.kept.append((name, args[0], result))

    def per_pass(self, rounds: int) -> Dict[str, float]:
        """Self time, calls and counts of one set-up plus one round, and the
        tracemalloc peaks in MB (2**20 bytes)."""
        weight = {"setup": 1.0, "round": 1.0 / rounds}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            if phase in weight:
                out[name + "_s"] += (end - start - child[i]) * weight[phase]
                out[name + "_calls"] += weight[phase]
        for phase, w in weight.items():
            for key, value in self.counts[phase].items():
                out[key] += value * w
        for layer in MEMORY_LAYERS:
            out[f"{layer}.peak_mb"] = self.peaks.get(layer, 0) / 2**20
        return out

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "phase"], "spans": self.spans}
