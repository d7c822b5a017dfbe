"""The four benchmark workloads.

Each workload generates its instances from a seed, names a fixed list of
cold single queries, answers every item of every instance through the
library's batch entry point, and checks those answers against an oracle
that does not share the local-query code path.

A workload object holds only its sizes; every per-run value (instances,
queries, answers) is passed in and out explicitly.  ``cold`` and ``batch``
contain nothing but the library call the runner times; turning the raw
result into a comparable answer happens in ``cold_answer`` and
``batch_answers``, outside the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from lcakit import ballsbins, coloring, engine, exploration, graphs, matching
from lcakit.exploration import TruncationError, TreeStatsSpec
from lcakit.ranks import (
    FullPseudorandom,
    RandomStream,
    Seed,
    derive_subseed,
    rank_key_fn,
    rank_of,
)

# A cold query whose library call raised a counted failure.
FAILED = object()

# Criterion 1 cap; the largest edge closure observed at n=1000, d=5 is ~230.
MATCHING_CAP = 2048
# Criterion 4 cap for closure-size statistics.
CLOSURE_CAP = 4096


@dataclass
class Instance:
    """One generated input plus what its queries need.

    ``items`` lists the queryable items in batch-answer order; a cold query
    names an index into it.
    """

    label: str
    data: Any
    rseed: Seed
    items: Any
    extra: Any = None


class Matching:
    """Per-edge greedy-matching verdicts on bounded-degree graphs."""

    name = "matching"
    generators = ("gen_bounded_degree",)
    layers = ("ranks", "graphs", "exploration", "matching")

    def __init__(self, n: int, d: int, instances: int, cold_per_instance: int):
        self.n, self.d = n, d
        self.instances, self.cold_per_instance = instances, cold_per_instance

    def setup(self, seed: Seed) -> list[Instance]:
        out = []
        for i in range(self.instances):
            g = graphs.gen_bounded_degree(
                derive_subseed(seed, b"graph:%d" % i), self.n, self.d
            )
            out.append(
                Instance(f"graph{i}", g, derive_subseed(seed, b"ranks:%d" % i), g.edges())
            )
        return out

    def cold_queries(self, seed: Seed, insts: list[Instance]) -> list[tuple[int, int]]:
        stream = RandomStream(derive_subseed(seed, b"cold"), b"queries")
        return [
            (i, stream.randrange(len(inst.items)))
            for i, inst in enumerate(insts)
            for _ in range(self.cold_per_instance)
        ]

    def cold(self, inst: Instance, j: int):
        try:
            return matching.is_matched(inst.data, inst.items[j], inst.rseed, cap=MATCHING_CAP)
        except TruncationError:
            return FAILED

    def cold_answer(self, raw) -> tuple[Any, bool]:
        return (None, True) if raw is FAILED else (raw.matched, False)

    def batch(self, inst: Instance):
        try:
            return matching.full_matching(inst.data, inst.rseed, cap=MATCHING_CAP)
        except TruncationError:
            return FAILED

    def batch_answers(self, inst: Instance, raw) -> tuple[list | None, int]:
        if raw is FAILED:
            return None, len(inst.items)
        return [e in raw for e in inst.items], 0

    def oracle(self, inst: Instance, raw) -> list[str]:
        if raw is FAILED:
            return []
        problems = []
        if raw != matching.greedy_by_rank(inst.data, inst.rseed):
            problems.append(f"{inst.label}: full_matching differs from greedy_by_rank")
        if not matching.verify_maximal(inst.data, raw):
            problems.append(f"{inst.label}: full_matching is not a maximal matching")
        return problems

    def engine_probe(self, inst: Instance, js: list[int]) -> tuple[list, list, list]:
        """Time ``engine.eval_local`` on the line graph for edges ``js``.

        The rank map gives each line-graph vertex its edge's packed-id rank,
        so the walk is the one ``is_matched`` makes.  A rule that never reads
        its dependencies times the walk alone; the greedy rule adds replay.
        Returns per-edge CPU nanoseconds (walk + replay, walk alone) and the
        greedy verdicts.
        """
        g, rseed = inst.data, inst.rseed
        lg, edges = graphs.line_graph(g)
        packed = [u * g.n + v for u, v in edges]
        eval_ns, walk_ns, verdicts = [], [], []
        for j in js:
            for rule, out in ((_walk_only, walk_ns), (_greedy, eval_ns)):
                key = rank_key_fn(rseed, FullPseudorandom(), g.n * g.n)
                t0 = time.thread_time_ns()
                verdict, _ = engine.eval_local(
                    lg, j, rule, rseed, cap=MATCHING_CAP, rank_map=lambda i: key(packed[i])
                )
                out.append(time.thread_time_ns() - t0)
            verdicts.append(verdict)
        return eval_ns, walk_ns, verdicts


def _walk_only(v, x, deps):
    return None


def _greedy(v, x, deps):
    return not any(out for _, out in deps)


class BallsBins:
    """Per-ball bins under all four placement rules, each on its scheme."""

    name = "ballsbins"
    generators = ("gen_bipartite_choices",)
    layers = ("ranks", "graphs", "exploration", "ballsbins")
    # (rule, scheme); the capacity rule runs on unit capacities.
    COMBOS = (
        ("least-loaded", "uniform"),
        ("always-go-left", "grouped"),
        ("capacity", "capacity"),
        ("circle", "circle"),
    )

    def __init__(self, n: int, d: int, cold_per_instance: int):
        self.n, self.d, self.cold_per_instance = n, d, cold_per_instance

    def setup(self, seed: Seed) -> list[Instance]:
        out = []
        for rule, scheme in self.COMBOS:
            caps = [1] * self.n if scheme == "capacity" else None
            bc = graphs.gen_bipartite_choices(
                derive_subseed(seed, b"choices:" + rule.encode()),
                self.n, self.n, self.d, scheme, capacities=caps,
            )
            rseed = derive_subseed(seed, b"ranks:" + rule.encode())
            out.append(Instance(rule, bc, rseed, range(self.n), ballsbins.RULES[rule]))
        return out

    def cold_queries(self, seed, insts):
        stream = RandomStream(derive_subseed(seed, b"cold"), b"queries")
        return [
            (i, stream.randrange(self.n))
            for i in range(len(insts))
            for _ in range(self.cold_per_instance)
        ]

    def cold(self, inst, j):
        return ballsbins.assign_query(inst.data, j, inst.extra, inst.rseed)

    def cold_answer(self, raw):
        return raw.bin, raw.failed

    def batch(self, inst):
        return ballsbins.assign_all(inst.data, inst.extra, inst.rseed)

    def batch_answers(self, inst, raw):
        assignments, _ = raw
        return [a.bin for a in assignments], sum(a.failed for a in assignments)

    def oracle(self, inst, raw):
        assignments, _ = raw
        glob, _ = ballsbins.run_global(inst.data, inst.extra, inst.rseed)
        wrong = sum(
            1 for a, b in zip(glob, assignments) if not b.failed and a.bin != b.bin
        )
        if len(assignments) != len(glob) or wrong:
            return [f"{inst.label}: {wrong} non-failed balls differ from run_global"]
        return []


class Coloring:
    """Per-vertex hypergraph 2-colors and per-variable k-CNF values."""

    name = "coloring"
    generators = ("gen_hypergraph", "gen_cnf")
    layers = ("ranks", "graphs", "exploration", "coloring")

    def __init__(self, m: int, n: int, k: int, d: int, instances: int, cold_per_instance: int):
        self.m, self.n, self.k, self.d = m, n, k, d
        self.instances, self.cold_per_instance = instances, cold_per_instance

    def setup(self, seed):
        out = []
        for i in range(self.instances):
            for kind, gen in (("color", graphs.gen_hypergraph), ("sat", graphs.gen_cnf)):
                inst = gen(
                    derive_subseed(seed, b"%s:%d" % (kind.encode(), i)),
                    self.m, self.n, self.k, self.d,
                )
                rseed = derive_subseed(seed, b"ranks:%s:%d" % (kind.encode(), i))
                out.append(Instance(f"{kind}{i}", inst, rseed, range(self.m), kind))
        return out

    def cold_queries(self, seed, insts):
        stream = RandomStream(derive_subseed(seed, b"cold"), b"queries")
        return [
            (i, stream.randrange(self.m))
            for i in range(len(insts))
            for _ in range(self.cold_per_instance)
        ]

    def cold(self, inst, j):
        query = coloring.color_query if inst.extra == "color" else coloring.sat_query
        try:
            return query(inst.data, j, inst.rseed)
        except coloring.ColoringFailure as exc:
            return exc

    def cold_answer(self, raw):
        if isinstance(raw, coloring.ColoringFailure):
            return None, True
        return (raw.color if isinstance(raw, coloring.ColoringAnswer) else raw.value), False

    def batch(self, inst):
        run_all = coloring.color_all if inst.extra == "color" else coloring.sat_all
        try:
            return run_all(inst.data, inst.rseed)
        except coloring.ColoringFailure as exc:
            return exc

    def batch_answers(self, inst, raw):
        if isinstance(raw, coloring.ColoringFailure):
            return None, self.m
        return list(raw), 0

    def oracle(self, inst, raw):
        if isinstance(raw, coloring.ColoringFailure):
            return []
        verify = coloring.verify_coloring if inst.extra == "color" else coloring.verify_assignment
        if not verify(inst.data, raw):
            return [f"{inst.label}: answers violate a constraint"]
        return []


class ClosureStats:
    """Closure sizes from seeded roots, each under its own derived ordering.

    The cold queries repeat exactly the (root, ordering) pairs that
    ``explore_sizes`` draws for the same spec and seed, so every cold size
    has a batch twin.
    """

    name = "closure-stats"
    GENERATORS = (("bounded", "gen_bounded_degree"), ("binomial", "gen_binomial"))
    generators = tuple(gen for _, gen in GENERATORS)
    layers = ("ranks", "graphs", "exploration")

    def __init__(self, n: int, d: int, queries: int):
        self.n, self.d, self.queries = n, d, queries

    def setup(self, seed):
        out = []
        for name, gen in self.GENERATORS:
            spec = TreeStatsSpec(
                name, self.n, self.d, instances=1,
                queries_per_instance=self.queries, cap=CLOSURE_CAP,
            )
            sseed = derive_subseed(seed, name.encode())
            # explore_sizes derives instance 0 and its roots from these labels
            g = getattr(graphs, gen)(derive_subseed(sseed, b"instance:0"), self.n, self.d)
            roots = RandomStream(derive_subseed(sseed, b"roots:0"), b"root")
            items = [roots.randrange(g.n) for _ in range(self.queries)]
            out.append(Instance(name, g, sseed, items, spec))
        return out

    def cold_queries(self, seed, insts):
        return [(i, q) for i in range(len(insts)) for q in range(self.queries)]

    def cold(self, inst, q):
        oseed = derive_subseed(inst.rseed, b"order:0:%d" % q)
        return exploration.explore(inst.data, inst.items[q], oseed, cap=CLOSURE_CAP)

    def cold_answer(self, raw):
        return raw.size, raw.truncated

    def batch(self, inst):
        return exploration.explore_sizes(inst.extra, inst.rseed)

    def batch_answers(self, inst, raw):
        sizes, truncated = raw
        return list(sizes), truncated

    def oracle(self, inst, raw):
        return []

    def check_cold(self, inst, q, raw) -> list[str]:
        """Closure property: each member's lower-ranked neighbors are members."""
        if raw.truncated:
            return []
        g = inst.data
        oseed = derive_subseed(inst.rseed, b"order:0:%d" % q)
        members = {v: (r.value, r.owner) for v, r in raw.members}
        keys = list(members.values())
        if raw.root != inst.items[q] or raw.root not in members or keys != sorted(keys):
            return [f"{inst.label} query {q}: malformed relevant set"]
        for v, kv in members.items():
            for w in g.neighbors(v):
                if w in members:
                    continue
                r = rank_of(oseed, FullPseudorandom(), w, g.n)
                if (r.value, r.owner) < kv:
                    return [f"{inst.label} query {q}: member {v} has lower neighbor {w} outside"]
        return []


SIZES = {
    "full": {
        "matching": lambda: Matching(n=1000, d=5, instances=16, cold_per_instance=250),
        "ballsbins": lambda: BallsBins(n=10**4, d=2, cold_per_instance=1000),
        "coloring": lambda: Coloring(m=800, n=40, k=40, d=2, instances=24, cold_per_instance=42),
        "closure-stats": lambda: ClosureStats(n=1 << 16, d=5, queries=1000),
    },
    "toy": {
        "matching": lambda: Matching(n=200, d=4, instances=2, cold_per_instance=20),
        "ballsbins": lambda: BallsBins(n=1000, d=2, cold_per_instance=20),
        "coloring": lambda: Coloring(m=400, n=20, k=40, d=2, instances=1, cold_per_instance=20),
        "closure-stats": lambda: ClosureStats(n=1 << 10, d=5, queries=50),
    },
}

WORKLOADS = tuple(SIZES["full"])
