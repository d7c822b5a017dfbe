"""Local queries against the greedy maximal matching.

Edges arrive in a seeded random order; greedy adds an edge iff none of its
neighbors was added before it.  A per-edge query (:func:`is_matched`)
explores the decreasing-rank closure over edge adjacency and runs greedy on
it in ascending rank, tracking only which vertices are covered; that
reproduces the global verdict exactly and reports what the walk cost.  The
batch (:func:`full_matching`) decides every edge once instead: an edge is
matched iff none of its lower-ranked neighbors is, so it checks them in
ascending rank, stops at the first matched one, and keeps every verdict in
one memo shared by the whole batch.  It keys all edges in one bulk call,
sorts them once into rank positions, and keeps at each vertex a frontier
pointer to its lowest edge not yet known to be unmatched: the lower of an
edge's two frontiers is the next neighbor its check needs.  Edge ranks
derive from the packed edge id ``min * n + max`` over a universe of n*n
ids, so they are independent of the endpoint ranks and of how the edge was
reached.  The query walks those packed ids, the batch their rank positions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable

from .exploration import TruncationError, _closure
from .graphs import LocalGraph
from .ranks import FullPseudorandom, OrderingKind, Seed, rank_key_fn, rank_keys

Edge = tuple[int, int]


@dataclass(frozen=True, slots=True)
class MatchVerdict:
    matched: bool
    probes: int
    edges_evaluated: int


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("self-loops are not edges")
    return (u, v) if u < v else (v, u)


def is_matched(
    g: LocalGraph,
    e: Edge,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int = 1 << 20,
    _key_of: Callable[[int], int] | None = None,
) -> MatchVerdict:
    """Whether edge e is in the greedy matching under this seed.

    Explores the closure of e over edge adjacency (a neighbor edge f joins
    iff rank(f) < rank of the edge that scanned it), then runs greedy over
    it in ascending rank by covered vertices.  That is exact: the closure
    holds every lower-ranked neighbor of each member, and e comes last.
    Exceeding ``cap`` raises :class:`TruncationError`: a counted failure,
    never a wrong answer.
    """
    e = canonical_edge(*e)
    if e[1] not in g.neighbors(e[0]):
        raise ValueError(f"{e} is not an edge of the graph")
    n = g.n
    nn = n * n
    key_of = _key_of if _key_of is not None else rank_key_fn(seed, kind, nn)
    nbrs = g.neighbors

    def adj(x: int) -> list[int]:
        # packed ids of the edges at x's two endpoints, x itself included
        return [
            u * n + w if u < w else w * n + u for u in divmod(x, n) for w in nbrs(u)
        ]

    members, scans, truncated = _closure(adj, e[0] * n + e[1], key_of, cap)
    probes = 2 * scans  # each scan reads both endpoints' neighbor lists
    if truncated:
        raise TruncationError(
            f"relevant edge set of {e} exceeded cap {cap}",
            probes=probes,
            size=len(members),
        )
    covered: set[int] = set()
    for k in sorted(members.values()):  # ascending rank; the root is last
        u, v = divmod(k % nn, n)
        if matched := u not in covered and v not in covered:
            covered.update((u, v))
    return MatchVerdict(matched, probes=probes, edges_evaluated=len(members))


def all_verdicts(
    g: LocalGraph,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int = 1 << 20,
) -> dict[Edge, MatchVerdict]:
    """Per-edge verdicts for every edge; any truncation aborts."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    key_of = rank_key_fn(seed, kind, g.n * g.n)
    out = {}
    for e in g.edges():
        try:
            out[e] = is_matched(g, e, seed, kind, cap, _key_of=key_of)
        except TruncationError as exc:
            raise TruncationError(
                f"full matching aborted at edge {e}: {exc}",
                probes=exc.probes,
                size=exc.size,
            ) from None
    return out


def full_matching(
    g: LocalGraph,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int = 1 << 20,
) -> frozenset[Edge]:
    """The greedy matching, with every edge decided once.

    Every edge is keyed once, in one :func:`~lcakit.ranks.rank_keys` call,
    and the keys are sorted once into rank positions.  Each vertex lists
    its edges' positions in ascending order, with a frontier pointer to its
    lowest edge not yet known to be unmatched; pointers only move forward.
    An edge is matched iff none of its lower-ranked neighbors is, so the
    lower of its endpoints' two frontiers decides it: the edge itself if
    every lower neighbor is unmatched, else the lowest one that is matched
    or undecided.  Edges are queried in ``g.edges()`` order against one
    verdict memo; an undecided neighbor is decided first, on an explicit
    stack, so depth never meets Python's recursion limit.

    Cap rule: a query whose decision needs more than ``cap`` edges that the
    memo has not decided yet, itself included, aborts the call with
    :class:`TruncationError`, and nothing is kept.  Those edges all lie in
    the query's closure, so wherever :func:`all_verdicts` answers, this
    answers with the same set; it may also answer where that aborts.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    higher = [nbrs[bisect_right(nbrs, u) :] for u, nbrs in enumerate(g.adjacency)]
    edges = [(u, v) for u, vs in enumerate(higher) for v in vs]  # g.edges() order
    keys = rank_keys(seed, kind, [u * n + v for u, v in edges], n * n)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ends = [edges[i] for i in order]  # position p holds the edge of rank p
    at: list[list[int]] = [[] for _ in range(n)]  # positions of u's edges, ascending
    for p, (u, v) in enumerate(ends):
        at[u].append(p)
        at[v].append(p)
    first = [0] * n  # at[u][first[u]]: u's lowest edge not known unmatched
    verdict: list[bool | None] = [None] * len(ends)  # by position
    roots = [0] * len(ends)
    for p, i in enumerate(order):
        roots[i] = p
    for root in roots:  # g.edges() order
        if verdict[root] is not None:
            continue
        stack = [root]
        fresh = 1  # undecided edges this query has needed, itself included
        while stack:
            k = stack[-1]
            u, v = ends[k]
            a, i = at[u], first[u]
            while verdict[a[i]] is False:
                i += 1
            first[u] = i
            b, j = at[v], first[v]
            while verdict[b[j]] is False:
                j += 1
            first[v] = j
            # k is undecided, so neither frontier has passed it: low <= k
            low = a[i] if a[i] < b[j] else b[j]
            if low == k or verdict[low]:  # low is k itself, or a matched neighbor
                verdict[k] = low == k
                stack.pop()
            elif fresh == cap:
                raise TruncationError(
                    f"full matching aborted at edge {ends[root]}: "
                    f"deciding it needs more than {cap} undecided edges",
                    probes=2 * fresh,  # two neighbor lists per scanned edge
                    size=fresh,
                )
            else:
                fresh += 1
                stack.append(low)
    return frozenset(compress(ends, verdict))


def greedy_by_rank(
    g: LocalGraph, seed: Seed, kind: OrderingKind = FullPseudorandom()
) -> frozenset[Edge]:
    """Oracle: run greedy over all edges in ascending rank order."""
    n = g.n
    key_of = rank_key_fn(seed, kind, n * n)
    edges = sorted(g.edges(), key=lambda e: key_of(e[0] * n + e[1]))
    used = bytearray(n)
    out = set()
    for u, v in edges:
        if not used[u] and not used[v]:
            used[u] = used[v] = 1
            out.add((u, v))
    return frozenset(out)


def verify_maximal(g: LocalGraph, matching: Iterable[Edge]) -> bool:
    """True iff the edge set is a matching and no edge of g can be added."""
    covered = bytearray(g.n)
    for u, v in matching:
        e = canonical_edge(u, v)
        if e[1] not in g.neighbors(e[0]):
            return False
        if covered[u] or covered[v]:
            return False
        covered[u] = covered[v] = 1
    for u, v in g.edges():
        if not covered[u] and not covered[v]:
            return False
    return True
