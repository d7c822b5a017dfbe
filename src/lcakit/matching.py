"""Local queries against the greedy maximal matching.

Edges arrive in a seeded random order; greedy adds an edge iff none of its
neighbors was added before it.  A per-edge query (:func:`is_matched`)
explores the decreasing-rank closure over edge adjacency and runs greedy on
it in ascending rank, tracking only which vertices are covered; that
reproduces the global verdict exactly and reports what the walk cost.  The
batch (:func:`full_matching`) decides every edge once instead: an edge is
matched iff none of its lower-ranked neighbors is, so it checks them in
ascending rank, stops at the first matched one, and keeps every verdict in
one memo shared by the whole batch.  It keys all edges in one bulk call and
finds an edge's lower-ranked neighbors as prefixes of sorted per-vertex key
lists.  Edge ranks derive from the packed edge id ``min * n + max`` over a
universe of n*n ids, so they are independent of the endpoint ranks and of
how the edge was reached.  Both paths run over those packed ids, the same
integers the ranks hash; edge tuples appear only at the public boundary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
    and each vertex keeps its edges' keys sorted, so an edge's lower-ranked
    neighbors are the two prefixes below its key at its endpoints.  Edges
    are queried in ``g.edges()`` order against one verdict memo.  An edge
    is matched iff none of its lower-ranked neighbors is matched; they are
    checked in ascending rank, and the check stops at the first matched
    one.  A neighbor the memo has not decided yet is decided first, on an
    explicit stack, so depth never meets Python's recursion limit.

    Cap rule: a query whose decision needs more than ``cap`` edges that the
    memo has not decided yet, itself included, aborts the call with
    :class:`TruncationError`, and nothing is kept.  Those edges all lie in
    the query's closure, so wherever :func:`all_verdicts` answers, this
    answers with the same set; it may also answer where that aborts.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    nn = n * n
    higher = [nbrs[bisect_right(nbrs, u) :] for u, nbrs in enumerate(g.adjacency)]
    ids = [u * n + v for u, vs in enumerate(higher) for v in vs]  # g.edges() order
    roots = rank_keys(seed, kind, ids, nn)
    at: list[list[int]] = [[] for _ in range(n)]  # keys of u's edges, ascending
    i = 0
    for u, vs in enumerate(higher):
        mine = roots[i : i + len(vs)]
        i += len(vs)
        at[u] += mine
        for v, k in zip(vs, mine):
            at[v].append(k)
    for ks in at:
        ks.sort()
    matched: dict[int, bool] = {}  # key -> verdict
    get = matched.get

    def lower(k: int) -> list[int]:
        """Keys of k's lower-ranked neighbors, highest first, so pop() is lowest:
        the keys below k at its two endpoints."""
        a, b = at[k % nn // n], at[k % n]
        lows = a[: bisect_left(a, k)]
        lows += b[: bisect_left(b, k)]
        lows.sort(reverse=True)
        return lows

    for root in roots:
        if root in matched:
            continue
        stack = [(root, lower(root))]
        fresh = 1  # undecided edges this query has needed, itself included
        while stack:
            k, lows = stack[-1]
            while lows and get(lows[-1]) is False:
                lows.pop()
            if lows and lows[-1] not in matched:
                if fresh == cap:
                    raise TruncationError(
                        f"full matching aborted at edge {divmod(root % nn, n)}: "
                        f"deciding it needs more than {cap} undecided edges",
                        probes=2 * fresh,  # two neighbor lists per scanned edge
                        size=fresh,
                    )
                fresh += 1
                stack.append((lows[-1], lower(lows[-1])))
                continue
            # lows is empty (no lower neighbor matched) or ends at a matched one
            matched[k] = not lows
            stack.pop()
    return frozenset(divmod(k % nn, n) for k, m in matched.items() if m)


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
