"""Dependency-closure exploration and idealized branching-tree simulation.

The closure of a query vertex is the set of items its simulated online
decision transitively depends on: start at the root and repeatedly add any
neighbor whose rank is lower than the rank of an item already in the set.
A vertex enters the set once (via its first successful discovery), but every
set member gets a full neighbor scan, so the set is closed: each member's
lower-ranked neighbors are all members.  That closure property is what makes
bottom-up replay exact.  ``_decide`` instead decides a root on demand,
deciding first only the lower-ranked items its online rule reads.

Every query reports ``probes``, the adjacency-oracle lookups it made.  Every
closure walk is one ``_closure`` call, so its probes are the lookups one
scan makes times the walk's scan count: one neighbor list for ``explore``,
both endpoints' neighbor lists for a matching edge, and for a ball its
choice list plus the d chosen bins' chooser lists.  The on-demand deciders
count one probe per lookup too: ``engine.eval_local`` per vertex whose
neighbor list it reads, coloring and k-SAT per hypergraph-oracle call.

The branching-tree sampler models the same growth process on idealized
infinite trees (fixed fan-out with per-child survival, or binomial
offspring), which is the right reference object for tail statistics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .graphs import LocalGraph, path_graph
from .ranks import (
    FullPseudorandom,
    OrderingKind,
    RandomStream,
    Rank,
    Seed,
    derive_subseed,
    rank_key_fn,
)


def ilog2ceil(x: int) -> int:
    """ceil(log2(x)) floored at 1, for x >= 1."""
    if x < 1:
        raise ValueError("need x >= 1")
    return max(1, (x - 1).bit_length())


class TruncationError(RuntimeError):
    """A relevant set exceeded its cap; carries the probe statistics."""

    def __init__(self, message: str, probes: int, size: int):
        super().__init__(message)
        self.probes = probes
        self.size = size


@dataclass(frozen=True)
class RelevantSet:
    """Closure of a query item, with exploration statistics.

    ``members`` is sorted ascending by rank and always contains the root.
    ``probes`` counts adjacency-oracle calls.  ``truncated`` means the cap
    was hit; the member list is then a prefix of the full closure.
    """

    root: int
    members: tuple[tuple[int, Rank], ...]
    probes: int
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.members)


def _closure(
    adj: Callable[[int], Sequence[int]],
    root: int,
    key_of: Callable[[int], int],
    cap: int,
):
    """BFS decreasing-rank closure.

    Returns (order, scans, truncated) where ``order`` lists members
    ascending by rank, so the root comes last, and ``scans`` counts the
    ``adj`` calls.  ``adj`` returns a list or tuple, never a lazy iterator,
    so each scan makes all of its lookups, even the one the cap cuts short:
    a walk whose scan makes k lookups costs ``k * scans`` probes.

    An item is keyed again at each comparison and in the sort, so
    ``key_of`` must not rank it again: it caches, as the functions of
    :func:`~lcakit.ranks.rank_key_fn` do, or reads keys ranked up front,
    as ``assign_all``'s does.  A neighbor rejected from one parent may still
    join later via a higher-ranked parent; rejection is never memorized.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    members = {root}
    queue = deque([root])
    scans = 0
    truncated = False
    while queue and not truncated:
        v = queue.popleft()
        kv = key_of(v)
        scans += 1
        for w in adj(v):
            if w not in members and key_of(w) < kv:
                if len(members) >= cap:
                    truncated = True
                    break
                members.add(w)
                queue.append(w)
    return sorted(members, key=key_of), scans, truncated


def _decide(root: int, step: Callable[[int], int | None], cap: int) -> bool:
    """Decide root on an explicit stack; False if it needs over ``cap`` items.

    ``step(v)`` either decides v and returns None, or returns a lower-ranked
    undecided item to decide first.  The stack descends in rank, so each
    push is a new undecided item of the root's decreasing-rank closure.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    stack = [root]
    fresh = 1  # undecided items this decision has needed
    while stack:
        w = step(stack[-1])
        if w is None:
            stack.pop()
        elif fresh == cap:
            return False
        else:
            fresh += 1
            stack.append(w)
    return True


def explore(
    g: LocalGraph,
    root: int,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int = 1 << 20,
) -> RelevantSet:
    """Relevant set of a graph vertex under the seeded arrival order.

    A neighbor w of a set member p joins iff rank(w) < rank(p).  Exploration
    stops, with ``truncated=True``, as soon as the member count would exceed
    ``cap``; truncation is a reported value, never an exception.  Each
    member's ``Rank`` is read back from the walk's cached key function.
    """
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    key_of = rank_key_fn(seed, kind, g.n)
    order, probes, truncated = _closure(g.neighbors, root, key_of, cap)
    members = tuple((v, Rank(*divmod(key_of(v), g.n))) for v in order)
    return RelevantSet(root, members, probes, truncated)


# ---------------------------------------------------------------------------
# Idealized branching trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regular:
    """Fan-out d with independent per-child survival probability 1/L."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.L < 1:
            raise ValueError("need d >= 0 and L >= 1")

    @property
    def mean(self) -> float:
        return self.d / self.L


@dataclass(frozen=True)
class Binomial:
    """Offspring counts drawn from B(n, q)."""

    n: int
    q: float

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.q <= 1:
            raise ValueError("need n >= 0 and q in [0, 1]")

    @property
    def mean(self) -> float:
        return self.n * self.q


OffspringSpec = Union[Regular, Binomial]


@dataclass(frozen=True)
class GwTreeSample:
    """One sampled branching tree: node count, max depth, finite-within-cap."""

    size: int
    depth: int
    extinct: bool


def _binomial_draw(stream: RandomStream, n: int, q: float) -> int:
    """Exact inverse-CDF binomial sample; cheap when n*q is small."""
    if q <= 0.0 or n == 0:
        return 0
    if q >= 1.0:
        return n
    u = stream.random()
    ratio = q / (1.0 - q)
    prob = (1.0 - q) ** n
    cdf = prob
    k = 0
    while u >= cdf and k < n:
        prob *= ratio * (n - k) / (k + 1)
        k += 1
        cdf += prob
    return k


def sample_gw_tree(
    seed: Seed,
    offspring: OffspringSpec,
    cap: int = 1 << 20,
) -> GwTreeSample:
    """Simulate one branching tree; stop (not extinct) if the cap is hit.

    Subcritical specs only: the mean offspring count must be below one so
    that trees are finite with probability one.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if offspring.mean >= 1:
        raise ValueError(
            f"mean offspring {offspring.mean} >= 1; only subcritical "
            "(guaranteed-extinction) specs are supported"
        )
    stream = RandomStream(seed, b"gw-tree")
    size = 1
    depth = 0
    frontier = 1
    while frontier:
        children = 0
        for _ in range(frontier):
            if isinstance(offspring, Regular):
                got = 0
                for _ in range(offspring.d):
                    if stream.randrange(offspring.L) == 0:
                        got += 1
            else:
                got = _binomial_draw(stream, offspring.n, offspring.q)
            children += got
            if size + children > cap:
                return GwTreeSample(cap, depth + 1, extinct=False)
        size += children
        if children:
            depth += 1
        frontier = children
    return GwTreeSample(size, depth, extinct=True)


# ---------------------------------------------------------------------------
# Aggregate statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeStatsSpec:
    """One exploration experiment: generator, size, and query counts.

    ``trials = instances * queries_per_instance``; each query explores from a
    seeded random root under a fresh derived full-pseudorandom ordering, so
    trials are independent (instance, root) pairs.  Tail thresholds are the
    caller's, applied to the sizes with :func:`stats_from_sizes`.
    """

    generator: str  # "bounded" | "binomial"
    n: int
    d: int
    instances: int = 10
    queries_per_instance: int = 1000
    cap: int = 1 << 14


@dataclass(frozen=True)
class TreeStats:
    """Histogram summary of relevant-set sizes over many trials."""

    trials: int
    sizes: tuple[tuple[int, int], ...]  # (size, count), ascending
    max_size: int
    mean_size: float
    tail: tuple[tuple[int, float], ...]  # (threshold, Pr[size > threshold])
    truncated_trials: int = 0

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean": self.mean_size,
            "max": self.max_size,
            "histogram": [[s, c] for s, c in self.sizes],
            "tail": [[t, p] for t, p in self.tail],
            "truncated_trials": self.truncated_trials,
        }


def stats_from_sizes(
    sizes: Sequence[int], thresholds: Sequence[int] = (), truncated: int = 0
) -> TreeStats:
    if not sizes:
        raise ValueError("need at least one trial")
    hist: dict[int, int] = {}
    for s in sizes:
        hist[s] = hist.get(s, 0) + 1
    trials = len(sizes)
    tail = tuple(
        (t, sum(c for s, c in hist.items() if s > t) / trials) for t in thresholds
    )
    return TreeStats(
        trials=trials,
        sizes=tuple(sorted(hist.items())),
        max_size=max(sizes),
        mean_size=sum(sizes) / trials,
        tail=tail,
        truncated_trials=truncated,
    )


def _generate(generator: str, seed: Seed, n: int, d: int) -> LocalGraph:
    from . import graphs

    if generator == "bounded":
        return graphs.gen_bounded_degree(seed, n, d)
    if generator == "binomial":
        return graphs.gen_binomial(seed, n, d)
    raise ValueError(f"unknown generator {generator!r}")


def _instance_sizes(spec: TreeStatsSpec, seed: Seed, i: int) -> tuple[list[int], int]:
    """Relevant-set sizes and truncation count for instance ``i`` of a spec."""
    g = _generate(spec.generator, derive_subseed(seed, b"instance:%d" % i), spec.n, spec.d)
    roots = RandomStream(derive_subseed(seed, b"roots:%d" % i), b"root")
    full = FullPseudorandom()
    sizes: list[int] = []
    truncated = 0
    for q, root in enumerate(roots._randranges([g.n] * spec.queries_per_instance)):
        key_of = rank_key_fn(derive_subseed(seed, b"order:%d:%d" % (i, q)), full, g.n)
        order, _, cut = _closure(g.neighbors, root, key_of, spec.cap)
        sizes.append(len(order))
        truncated += cut
    return sizes, truncated


def explore_sizes(spec: TreeStatsSpec, seed: Seed) -> tuple[list[int], int]:
    """Relevant-set sizes for every (instance, query) pair of a spec."""
    if spec.instances < 1 or spec.queries_per_instance < 1:
        raise ValueError("need at least one instance and one query")
    sizes: list[int] = []
    truncated = 0
    for i in range(spec.instances):
        chunk, chunk_truncated = _instance_sizes(spec, seed, i)
        sizes.extend(chunk)
        truncated += chunk_truncated
    return sizes, truncated


def tree_stats(spec: TreeStatsSpec, seed: Seed) -> TreeStats:
    """Run a full exploration experiment and aggregate the histogram (with
    no tail thresholds)."""
    sizes, truncated = explore_sizes(spec, seed)
    return stats_from_sizes(sizes, truncated=truncated)


def lower_bound_experiment(path_len: int, trials: int, seed: Seed) -> float:
    """Frequency with which the closure from a path endpoint spans the path.

    Each trial explores a fresh derived ordering on a path of ``path_len``
    vertices from vertex 0; the full path is reached exactly when the ranks
    decrease monotonically along it, so the frequency estimates 1/path_len!.
    """
    if path_len < 2:
        raise ValueError("need path_len >= 2")
    if trials < 1:
        raise ValueError("need trials >= 1")
    g = path_graph(path_len)
    full = FullPseudorandom()
    hits = 0
    for t in range(trials):
        key_of = rank_key_fn(derive_subseed(seed, b"trial:%d" % t), full, path_len)
        order, _, _ = _closure(g.neighbors, 0, key_of, path_len)
        hits += len(order) == path_len
    return hits / trials


def gw_sizes(
    seed: Seed, offspring: OffspringSpec, trials: range, cap: int = 1 << 20
) -> list[GwTreeSample]:
    """One branching tree per trial index in ``trials``, in order.

    Trial ``t`` samples under its own subseed of ``seed``, so splitting a
    range into contiguous chunks samples the same trees as the whole range.
    """
    if not trials:
        raise ValueError("need at least one trial")
    return [
        sample_gw_tree(derive_subseed(seed, b"gw:%d" % t), offspring, cap)
        for t in trials
    ]


def tail_slope(sizes: Sequence[int], lo: int, hi: int) -> float:
    """Least-squares slope of log2 Pr[size >= s] against s over [lo, hi].

    Only thresholds with nonzero empirical exceedance contribute (the log is
    undefined at zero); at least two points are required.
    """
    n = len(sizes)
    pts = []
    for s in range(lo, hi + 1):
        count = sum(1 for x in sizes if x >= s)
        if count > 0:
            pts.append((s, math.log2(count / n)))
    if len(pts) < 2:
        raise ValueError("not enough nonzero tail points for a slope fit")
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
