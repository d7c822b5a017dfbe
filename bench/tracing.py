"""Per-layer tracing by wrapping the library's functions from outside.

``Tracer`` replaces functions and methods of the lcakit modules with timed
wrappers for the duration of a ``with`` block and restores them on exit.
Each wrapper counts calls and accumulates inclusive and self time: a span
stack subtracts the time of nested wrapped calls, so a layer's self time
is what it spent outside the other layers.  The wrappers' own cost,
calibrated on an empty function, is taken out of both.  Spans are
aggregated in memory per function, never stored one by one.

A name imported into several modules (``from .ranks import
derive_subseed``) is replaced wherever it still refers to the original
object, so calls from inside the library are caught too.  A name that a
later version of the library no longer has is skipped; its metrics then
read zero.
"""

from __future__ import annotations

import time
from typing import Callable

_now = time.perf_counter_ns


class Stat:
    __slots__ = ("layer", "calls", "total_ns", "self_ns", "values")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.values: list = []


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: dict[str, Stat] = {}
        # one frame per open wrapped call: [child_ns, children, descendants]
        self._stack = [[0, 0, 0]]
        self._undo: list[tuple[object, str, object]] = []
        self.floor_ns = 0.0
        self.overhead_ns = 0.0
        self._calibrate()

    def _calibrate(self, calls: int = 20000) -> None:
        """Measure what a wrapper adds: ``floor_ns`` falls inside its own
        timed window, ``overhead_ns`` is its whole cost to the caller.
        Recorded times subtract both, for the call itself and for every
        wrapped call nested in it."""

        def noop():
            return None

        wrapped = self._wrapper(noop, "_calibration", "_calibration", None)
        best_plain = best_wrapped = float("inf")
        for _ in range(5):
            t0 = _now()
            for _ in range(calls):
                noop()
            t1 = _now()
            for _ in range(calls):
                wrapped()
            t2 = _now()
            best_plain = min(best_plain, t1 - t0)
            best_wrapped = min(best_wrapped, t2 - t1)
        stat = self.stats.pop("_calibration")
        self.floor_ns = stat.total_ns / stat.calls
        self.overhead_ns = (best_wrapped - best_plain) / calls

    def _wrapper(self, fn: Callable, key: str, layer: str, observe):
        stat = self.stats.setdefault(key, Stat(layer))
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [0, 0, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
                parent[2] += 1 + frame[2]
                floor, overhead = tracer.floor_ns, tracer.overhead_ns
                stat.calls += 1
                stat.total_ns += dt - floor - frame[2] * overhead
                stat.self_ns += dt - floor - frame[0] - frame[1] * (overhead - floor)
            if observe is not None:
                stat.values.append(observe(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def function(self, module: str, name: str, key: str, layer: str, observe=None):
        """Wrap a module-level function everywhere it was imported."""
        original = getattr(self.modules[module], name, None)
        if original is None:
            return
        wrapped = self._wrapper(original, key, layer, observe)
        for mod in self.modules.values():
            if getattr(mod, name, None) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapped)

    def method(self, module: str, cls: str, name: str, key: str, layer: str, observe=None):
        owner = getattr(self.modules[module], cls, None)
        original = owner.__dict__.get(name) if owner is not None else None
        if original is None:
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, self._wrapper(original, key, layer, observe))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    def snapshot(self) -> dict[str, tuple[int, int, int, int]]:
        return {
            k: (s.calls, s.total_ns, s.self_ns, len(s.values)) for k, s in self.stats.items()
        }

    def between(self, a: dict, b: dict, key: str) -> tuple[int, int, list]:
        """(calls, total_ns, values) of ``key`` between two snapshots."""
        s = self.stats.get(key)
        if s is None:
            return 0, 0, []
        ca, ta, _, va = a.get(key, (0, 0, 0, 0))
        cb, tb, _, vb = b.get(key, (0, 0, 0, 0))
        return cb - ca, tb - ta, s.values[va:vb]

    def self_ns_by_layer(self, a: dict, b: dict) -> dict[str, int]:
        out: dict[str, int] = {}
        for k, s in self.stats.items():
            delta = b.get(k, (0, 0, 0, 0))[2] - a.get(k, (0, 0, 0, 0))[2]
            out[s.layer] = out.get(s.layer, 0) + delta
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    f, m = tracer.function, tracer.method
    # ranks
    f("ranks", "_rank_value", "ranks.full_key", "ranks")
    f("ranks", "derive_subseed", "ranks.derive_subseed", "ranks")
    f("ranks", "random_in_range", "ranks.random_in_range", "ranks")
    m("ranks", "RandomStream", "u64", "ranks.stream_u64", "ranks")
    # graphs: generators and the local adjacency oracles
    for gen in ("gen_bounded_degree", "gen_binomial", "gen_bipartite_choices",
                "gen_hypergraph", "gen_cnf"):
        f("graphs", gen, "graphs.gen." + gen, "graphs")
    for cls, meth in (("LocalGraph", "neighbors"), ("BipartiteChoices", "choices_of"),
                      ("BipartiteChoices", "choosers_of"), ("Hypergraph", "edges_of"),
                      ("Hypergraph", "vertices_of"), ("CnfFormula", "clauses_of")):
        m("graphs", cls, meth, "graphs.adjacency", "graphs")
    # exploration: every closure walk, with its member count
    f("exploration", "_closure", "exploration.walk", "exploration", lambda r: len(r[0]))
    f("exploration", "explore_bipartite", "exploration.walk", "exploration", lambda r: r.size)
    f("exploration", "explore", "exploration.explore", "exploration")
    f("exploration", "explore_sizes", "exploration.explore_sizes", "exploration")
    # matching
    f("matching", "is_matched", "matching.is_matched", "matching",
      lambda r: (r.probes, r.edges_evaluated))
    f("matching", "all_verdicts", "matching.all_verdicts", "matching")
    f("matching", "full_matching", "matching.full_matching", "matching")
    # ballsbins
    for name in ("assign_query", "assign_all"):
        f("ballsbins", name, "ballsbins." + name, "ballsbins")
    # coloring
    for name in ("color_query", "sat_query", "color_all", "sat_all"):
        f("coloring", name, "coloring." + name, "coloring")
    m("coloring", "QueryState", "__init__", "coloring.state_setup", "coloring")
    m("coloring", "QueryState", "query", "coloring.query", "coloring",
      lambda r: (r[1], r[2]))
