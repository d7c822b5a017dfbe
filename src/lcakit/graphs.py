"""Graph, hypergraph, and balls-into-bins instance types plus seeded generators.

All instances are immutable after construction and valid, so algorithms
can treat adjacency lookups as a trusted local oracle.  Instances built from
outside input are validated on entry (``from_edges``, ``from_choices``);
generators build valid instances directly.  Every generator is a pure
function of (seed, parameters).

Text formats (one record per line, '#' comments allowed):

* hypergraphs: header ``hypergraph m=<m>`` then ``e v1 ... vk`` lines
* CNF: DIMACS (``p cnf <vars> <clauses>`` then ``lit ... 0`` lines)
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from operator import add
from typing import Iterable, Sequence

from .ranks import RandomStream, Seed

# Words a generator whose draw count is not known in advance decodes at once.
_CHUNK = 512

# The most items of one kind an instance built from outside input may have:
# vertices of a graph; vertices, and hyperedges, of a hypergraph;
# variables, and clauses, of a CNF; balls, and bins.  Each limit keeps the
# build near 1 GiB.  Peak bytes per item while building, measured with
# tracemalloc under CPython 3.11 at 10^5 items: 536 for a vertex of a
# degree-5 graph, 216 for a hypergraph item (k = 40), 484 for a CNF item
# (k = 40) and 162 for a ball or bin (d = 2).  Each limit is 2^30 bytes
# over that cost, rounded down to one significant digit.  Wide hyperedges,
# clauses or degrees cost more per item; the limits do not bound those.
ITEM_LIMITS = {
    "graph": 2_000_000,
    "hypergraph": 4_000_000,
    "cnf": 2_000_000,
    "balls-bins": 6_000_000,
}


def _check_items(kind: str, **counts: int) -> None:
    """Refuse, before anything is built, a count over ``kind``'s item limit."""
    limit = ITEM_LIMITS[kind]
    for name, count in counts.items():
        if count > limit:
            raise ValueError(f"{name}={count} is over the {kind} limit of {limit} items")


# ---------------------------------------------------------------------------
# Simple graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalGraph:
    """Undirected graph exposed through per-vertex neighbor lists.

    Invariants: symmetric adjacency, no self-loops, no duplicate neighbors,
    ``max_degree`` is the true maximum.  :meth:`from_edges` checks them on
    outside input; generators hold them by construction.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    max_degree: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LocalGraph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs = adj[u]
            if v in nbrs:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs.add(v)
            adj[v].add(u)
        return cls._of(n, adj)

    @classmethod
    def _of(cls, n: int, adj: Iterable[Iterable[int]]) -> "LocalGraph":
        """The graph of per-vertex neighbors that already hold the invariants."""
        adjacency = tuple(map(tuple, map(sorted, adj)))
        return cls(n, adjacency, max(map(len, adjacency), default=0))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """N(v) in ascending id order."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adjacency[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as canonical (min, max) pairs, sorted."""
        return tuple(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self.adjacency) // 2


def path_graph(n: int) -> LocalGraph:
    """Path 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return LocalGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def line_graph(g: LocalGraph) -> tuple[LocalGraph, tuple[tuple[int, int], ...]]:
    """Graph on g's edges; two edges are adjacent iff they share an endpoint.

    Returns the line graph plus the edge list mapping line-vertex index i to
    the original canonical edge.
    """
    edges = g.edges()
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    # Two edges of a simple graph share at most one endpoint, so no pair repeats.
    adj: list[list[int]] = [[] for _ in edges]
    for ids in incident:
        for i in ids:
            adj[i].extend(j for j in ids if j != i)
    return LocalGraph._of(len(edges), adj), edges


def gen_bounded_degree(seed: Seed, n: int, d: int) -> LocalGraph:
    """Random graph with maximum degree <= d.

    Configuration-style pairing: each vertex contributes d stubs, the stub
    list is shuffled, and consecutive stubs are paired; self-loops and
    duplicate edges are rejected.  Instances come out near d-regular.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    stream = RandomStream(seed, b"gen-bounded-degree")
    stubs = list(chain.from_iterable(map(repeat, range(n), repeat(d, n))))
    stream.shuffle(stubs)
    pairs = iter(stubs)
    # first occurrence of each pair, in stub order
    edges = dict.fromkeys((u, v) if u < v else (v, u) for u, v in zip(pairs, pairs) if u != v)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return LocalGraph._of(n, adj)


def gen_binomial(seed: Seed, n: int, d: float) -> LocalGraph:
    """Erdos-Renyi style graph: each pair present independently w.p. d/n.

    Uses geometric skipping over the lexicographic pair order, so the cost is
    proportional to the number of edges, not pairs.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n so that the pair probability is in (0, 1)")
    p = d / n
    stream = RandomStream(seed, b"gen-binomial")
    log1p = math.log1p
    log1mp = log1p(-p)
    adj: list[list[int]] = [[] for _ in range(n)]
    v, w = 1, -1
    # One uniform per skip, decoded a chunk at a time.  The stream is local,
    # so the words drawn past the last skip change nothing.
    for r in chain.from_iterable(map(stream._randoms, repeat(_CHUNK))):
        w += 1 + int(log1p(-r) / log1mp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v >= n:
            break
        adj[w].append(v)
        adj[v].append(w)
    return LocalGraph._of(n, adj)


# ---------------------------------------------------------------------------
# Hypergraphs and CNF formulas
# ---------------------------------------------------------------------------


def _incidence(
    m: int, var_sets: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Per-item constraint ids, and the dependency degree: the most other
    constraints any one constraint shares an item with."""
    incidence: list[list[int]] = [[] for _ in range(m)]
    for ci, vs in enumerate(var_sets):
        for v in vs:
            incidence[v].append(ci)
    dep = 0
    for ci, vs in enumerate(var_sets):
        others = set()
        for v in vs:
            others.update(incidence[v])
        others.discard(ci)
        dep = max(dep, len(others))
    return tuple(tuple(ids) for ids in incidence), dep


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph with a per-vertex incidence transpose.

    ``dependency_degree`` is the maximum, over hyperedges, of the number of
    other hyperedges sharing at least one vertex.
    """

    m: int  # vertex count
    n: int  # hyperedge count
    k: int
    edges: tuple[tuple[int, ...], ...]
    vertex_incidence: tuple[tuple[int, ...], ...]
    dependency_degree: int

    @classmethod
    def from_edges(cls, m: int, edges: Sequence[Sequence[int]]) -> "Hypergraph":
        if m < 0:
            raise ValueError("vertex count must be non-negative")
        if not edges:
            return cls(m, 0, 0, (), tuple(() for _ in range(m)), 0)
        k = len(edges[0])
        if k < 2:
            raise ValueError("hyperedges need at least 2 vertices")
        cleaned = []
        for ei, edge in enumerate(edges):
            vs = tuple(sorted(edge))
            if len(vs) != k:
                raise ValueError(f"edge {ei} has {len(vs)} vertices, expected {k}")
            if len(set(vs)) != k:
                raise ValueError(f"edge {ei} repeats a vertex")
            if vs[0] < 0 or vs[-1] >= m:
                raise ValueError(f"edge {ei} out of range for m={m}")
            cleaned.append(vs)
        return cls(m, len(cleaned), k, tuple(cleaned), *_incidence(m, cleaned))

    def vertices_of(self, e: int) -> tuple[int, ...]:
        return self.edges[e]

    def edges_of(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.m:
            raise ValueError(f"vertex {v} out of range for m={self.m}")
        return self.vertex_incidence[v]


@dataclass(frozen=True)
class CnfFormula:
    """CNF with exactly k distinct variables per clause.

    Literals are (variable, is_positive) pairs; clauses "intersect" when they
    share a variable regardless of polarity.
    """

    m: int  # variable count
    n: int  # clause count
    k: int
    clauses: tuple[tuple[tuple[int, bool], ...], ...]
    variable_incidence: tuple[tuple[int, ...], ...]
    dependency_degree: int
    # Per-clause lookups that every query reads, set at construction like
    # BipartiteChoices' facts, so that no query pays for the whole formula:
    # each clause's variables, and each of its variables' wanted polarity.
    clause_vars: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    clause_wants: tuple[dict[int, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clauses = self.clauses
        object.__setattr__(
            self, "clause_vars", tuple(tuple(v for v, _ in cl) for cl in clauses)
        )
        object.__setattr__(self, "clause_wants", tuple(map(dict, clauses)))

    @classmethod
    def from_clauses(
        cls, m: int, clauses: Sequence[Sequence[tuple[int, bool]]]
    ) -> "CnfFormula":
        if m < 0:
            raise ValueError("variable count must be non-negative")
        if not clauses:
            return cls(m, 0, 0, (), tuple(() for _ in range(m)), 0)
        k = len(clauses[0])
        if k < 1:
            raise ValueError("clauses must be non-empty")
        cleaned = []
        for ci, clause in enumerate(clauses):
            lits = tuple(sorted((int(v), bool(s)) for v, s in clause))
            if len(lits) != k:
                raise ValueError(f"clause {ci} has {len(lits)} literals, expected {k}")
            vs = [v for v, _ in lits]
            if len(set(vs)) != k:
                raise ValueError(f"clause {ci} repeats a variable")
            if vs[0] < 0 or vs[-1] >= m:
                raise ValueError(f"clause {ci} out of range for m={m}")
            cleaned.append(lits)
        var_sets = [[v for v, _ in lits] for lits in cleaned]
        return cls(m, len(cleaned), k, tuple(cleaned), *_incidence(m, var_sets))

    def clauses_of(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.m:
            raise ValueError(f"variable {v} out of range for m={self.m}")
        return self.variable_incidence[v]


def _cluster_plan(m: int, n: int, k: int, d: int) -> tuple[list[int], int]:
    """Partition n hyperedges into clusters and pick a shared-core size.

    Each cluster of size s is a sunflower: its edges share one core of c
    vertices and are otherwise disjoint, so each edge intersects exactly
    s - 1 <= d others and clusters never touch.  The core size c is the
    smallest value that fits the (m, n, k) vertex budget.
    """
    full = d + 1 if d >= 1 else 1
    sizes = [full] * (n // full)
    if n % full:
        sizes.append(n % full)
    n_clusters = len(sizes)
    if n == n_clusters:  # all singletons: no overlap possible
        if n * k > m:
            raise ValueError(
                f"infeasible: {n} disjoint edges of size {k} need {n * k} "
                f"vertices but only {m} are available (d={d} allows no overlap)"
            )
        return sizes, 1
    deficit = n * k - m
    c = max(1, -(-deficit // (n - n_clusters)))  # ceil division
    if c > k - 1:
        need = n * k - (k - 1) * (n - n_clusters)
        raise ValueError(
            f"infeasible: even with maximal overlap, {n} edges of size {k} "
            f"with dependency degree {d} need {need} vertices; m={m} given"
        )
    return sizes, c


def _sunflowers(
    seed: Seed, domain: bytes, m: int, n: int, k: int, d: int
) -> tuple[RandomStream, list[tuple[int, list[int]]]]:
    """Validate, then lay out n k-sets over m items as sunflower clusters.

    Shuffled edge ids are grouped into the clusters of :func:`_cluster_plan`
    over a shuffled item pool; leftover items stay isolated.  Returns the
    stream (after both shuffles) and ``(edge id, items)`` in build order.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if n < 1 or m < k or d < 0:
        raise ValueError("need n >= 1, m >= k, d >= 0")
    sizes, c = _cluster_plan(m, n, k, d)
    stream = RandomStream(seed, domain)
    pool = list(range(m))
    stream.shuffle(pool)
    order = list(range(n))
    stream.shuffle(order)
    built = []
    pos = 0
    it = iter(order)
    for s in sizes:
        core = pool[pos : pos + c]
        pos += c
        for _ in range(s):
            built.append((next(it), core + pool[pos : pos + (k - c)]))
            pos += k - c
    return stream, built


def gen_hypergraph(seed: Seed, m: int, n: int, k: int, d: int) -> Hypergraph:
    """Random k-uniform hypergraph in which each edge intersects <= d others.

    Built by partitioning: shuffled edge ids are grouped into sunflower
    clusters over a shuffled vertex pool (see :func:`_cluster_plan`).
    Vertices left over stay isolated.
    """
    _, built = _sunflowers(seed, b"gen-hypergraph", m, n, k, d)
    edges: list = [None] * n
    for e, vs in built:
        edges[e] = vs
    return Hypergraph.from_edges(m, edges)


def gen_cnf(seed: Seed, m: int, n: int, k: int, d: int) -> CnfFormula:
    """Random k-CNF in which each clause intersects <= d others.

    Same cluster construction as :func:`gen_hypergraph` over the variables;
    literal polarities are independent seeded coin flips, drawn in build
    order once both shuffles are done.
    """
    stream, built = _sunflowers(seed, b"gen-cnf", m, n, k, d)
    coins = map(bool, stream._randranges([2] * (n * k)))
    clauses: list = [None] * n
    for ci, vs in built:
        clauses[ci] = list(zip(vs, coins))
    return CnfFormula.from_clauses(m, clauses)


# ---------------------------------------------------------------------------
# Balls into bins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteChoices:
    """n balls, m bins, and each ball's d bin choices (repetition allowed).

    ``bin_incidence`` is the transpose: for each bin, the balls that chose
    it.  Optional metadata feeds specific decision rules: per-bin capacities
    (must sum to n_balls), per-bin group ids, per-bin circle positions.
    """

    n_balls: int
    m_bins: int
    d: int
    choices: tuple[tuple[int, ...], ...]
    bin_incidence: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...] | None = None
    group_of: tuple[int, ...] | None = None
    positions: tuple[float, ...] | None = None
    # Whole-instance facts that decision rules check before every query,
    # worked out once so that each check is an attribute read.  They are
    # set at construction, not cached on first read: adding to the
    # instance __dict__ later slows every attribute read of the closure
    # walk on that instance (measured at about 15% under CPython 3.11).
    capacities_positive: bool = field(init=False, repr=False, compare=False)
    choices_follow_groups: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        capacities, group_of = self.capacities, self.group_of
        object.__setattr__(
            self,
            "capacities_positive",
            capacities is not None and all(c > 0 for c in capacities),
        )
        object.__setattr__(
            self,
            "choices_follow_groups",
            group_of is not None
            and all(group_of[u] == i for row in self.choices for i, u in enumerate(row)),
        )

    @classmethod
    def from_choices(
        cls,
        n_balls: int,
        m_bins: int,
        d: int,
        choices: Sequence[Sequence[int]],
        capacities: Sequence[int] | None = None,
        group_of: Sequence[int] | None = None,
        positions: Sequence[float] | None = None,
    ) -> "BipartiteChoices":
        if n_balls < 0 or m_bins < 1 or d < 1:
            raise ValueError("need n_balls >= 0, m_bins >= 1, d >= 1")
        if len(choices) != n_balls:
            raise ValueError(f"expected {n_balls} choice rows, got {len(choices)}")
        rows = list(map(tuple, choices))
        for ball, row in enumerate(rows):  # report the first bad ball
            if len(row) != d:
                raise ValueError(f"ball {ball} has {len(row)} choices, expected {d}")
            for u in row:
                if not 0 <= u < m_bins:
                    raise ValueError(f"ball {ball} chose bin {u} out of range")
        if capacities is not None:
            capacities = _checked_capacities(capacities, m_bins, n_balls)
        if group_of is not None:
            group_of = tuple(int(x) for x in group_of)
            if len(group_of) != m_bins:
                raise ValueError("group_of must list one group per bin")
        if positions is not None:
            positions = tuple(float(x) for x in positions)
            if len(positions) != m_bins or any(not 0 <= x < 1 for x in positions):
                raise ValueError("positions must list one point in [0, 1) per bin")
        return cls(
            n_balls,
            m_bins,
            d,
            tuple(rows),
            _bin_incidence(rows, m_bins),
            capacities,
            group_of,
            positions,
        )

    def choices_of(self, ball: int) -> tuple[int, ...]:
        if not 0 <= ball < self.n_balls:
            raise ValueError(f"ball {ball} out of range for n={self.n_balls}")
        return self.choices[ball]

    def choosers_of(self, u: int) -> tuple[int, ...]:
        if not 0 <= u < self.m_bins:
            raise ValueError(f"bin {u} out of range for m={self.m_bins}")
        return self.bin_incidence[u]


def _bin_incidence(
    rows: Sequence[Sequence[int]], m_bins: int
) -> tuple[tuple[int, ...], ...]:
    """For each bin, the balls that chose it, in ball order."""
    incidence: list[list[int]] = [[] for _ in range(m_bins)]
    for ball, row in enumerate(rows):
        for u in row:
            balls = incidence[u]
            if not balls or balls[-1] != ball:  # once per distinct bin
                balls.append(ball)
    return tuple(map(tuple, incidence))


def _checked_capacities(
    capacities: Iterable[int], m_bins: int, n_balls: int, *, sampling: bool = False
) -> tuple[int, ...]:
    """The capacities as ints (never truncated), one per bin, each >= 0 and
    summing to n_balls.  Sampling first needs a positive total."""
    given = tuple(capacities)
    caps = tuple(map(int, given))
    if caps != given:
        raise ValueError("capacities must be whole numbers")
    total = sum(caps)
    if sampling and (len(caps) != m_bins or total <= 0):
        raise ValueError("capacities must cover every bin and sum to > 0")
    if len(caps) != m_bins or any(x < 0 for x in caps):
        raise ValueError("capacities must list one value >= 0 per bin")
    if total != n_balls:
        raise ValueError(f"capacities sum to {total}, expected n_balls={n_balls}")
    return caps


def _rows(flat: list[int], d: int) -> tuple[tuple[int, ...], ...]:
    """``flat`` cut into consecutive rows of ``d``."""
    it = iter(flat)
    return tuple(zip(*[it] * d))


def _nearest_bins(positions: Sequence[float], xs: Iterable[float]) -> list[int]:
    """For each point x, the bin whose position is nearest on the unit
    circle; of two equally near, the lower bin id."""
    ordered = sorted(zip(positions, range(len(positions))))
    pts = [p for p, _ in ordered]
    count = len(ordered)
    out = []
    for x in xs:
        i = bisect_right(pts, x)
        p, b = ordered[i - 1]
        q, c = ordered[i % count]
        near = abs(x - p)
        near = near if near <= 1.0 - near else 1.0 - near
        other = abs(x - q)
        other = other if other <= 1.0 - other else 1.0 - other
        out.append(c if other < near or (other == near and c < b) else b)
    return out


def gen_bipartite_choices(
    seed: Seed,
    n_balls: int,
    m_bins: int,
    d: int,
    scheme: str = "uniform",
    capacities: Sequence[int] | None = None,
) -> BipartiteChoices:
    """Sample each ball's d bin choices under one of four schemes.

    * ``uniform``: d independent uniform bins (repetition possible).
    * ``grouped``: bins split into d contiguous near-equal groups; the i-th
      choice is uniform in group i (for the always-go-left rule).
    * ``capacity``: choices drawn with probability proportional to the given
      capacities (which must sum to n_balls).
    * ``circle``: bins sit at seeded points on a circle; each choice is the
      bin nearest to a fresh uniform point.

    Every drawn bin is in range, so only the capacities are checked.
    """
    if d < 1 or m_bins < 1 or n_balls < 0:
        raise ValueError("need d >= 1, m_bins >= 1, n_balls >= 0")
    stream = RandomStream(seed, b"gen-bipartite:" + scheme.encode())
    k = n_balls * d

    def built(flat, capacities=None, group_of=None, positions=None):
        rows = _rows(flat, d)
        return BipartiteChoices(
            n_balls, m_bins, d, rows, _bin_incidence(rows, m_bins),
            capacities, group_of, positions,
        )

    if scheme == "uniform":
        return built(stream._randranges([m_bins] * k))
    if scheme == "grouped":
        if m_bins < d:
            raise ValueError(f"grouped sampling needs m_bins >= d (got {m_bins} < {d})")
        bounds = [(i * m_bins) // d for i in range(d + 1)]
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        group_of = tuple(chain.from_iterable(map(repeat, range(d), sizes)))
        flat = list(map(add, stream._randranges(sizes * n_balls), cycle(bounds[:d])))
        return built(flat, group_of=group_of)
    if scheme == "capacity":
        if capacities is None:
            raise ValueError("capacity sampling needs a capacities vector")
        caps = _checked_capacities(capacities, m_bins, n_balls, sampling=True)
        # owner[r] is the bin whose share of [0, n_balls) holds r
        owner = list(chain.from_iterable(map(repeat, range(m_bins), caps)))
        return built(list(map(owner.__getitem__, stream._randranges([n_balls] * k))), caps)
    if scheme == "circle":
        positions = tuple(stream._randoms(m_bins))
        return built(_nearest_bins(positions, stream._randoms(k)), positions=positions)
    raise ValueError(f"unknown sampling scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def _records(lines: Iterable[str], comment_chars: str = "#") -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text[0] in comment_chars:
            continue
        yield lineno, text


def _parse_header(lineno: int, text: str, tag: str, fields: Sequence[str]) -> dict[str, int]:
    parts = text.split()
    if not parts or parts[0] != tag:
        raise ValueError(f"line {lineno}: expected '{tag}' header, got {text!r}")
    out = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"line {lineno}: malformed header field {part!r}")
        key, _, val = part.partition("=")
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer header value {part!r}") from None
    missing = [f for f in fields if f not in out]
    if missing:
        raise ValueError(f"line {lineno}: header missing fields {missing}")
    return out


def load_hypergraph(lines: Iterable[str]) -> Hypergraph:
    it = _records(lines)
    try:
        lineno, text = next(it)
    except StopIteration:
        raise ValueError("empty hypergraph file") from None
    header = _parse_header(lineno, text, "hypergraph", ["m"])
    m = header["m"]
    _check_items("hypergraph", vertices=m)
    edges = []
    for lineno, text in it:
        parts = text.split()
        if parts[0] != "e" or len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 'e v1 ... vk', got {text!r}")
        try:
            edges.append([int(x) for x in parts[1:]])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {text!r}") from None
    _check_items("hypergraph", hyperedges=len(edges))
    try:
        return Hypergraph.from_edges(m, edges)
    except ValueError as exc:
        raise ValueError(f"invalid hypergraph: {exc}") from None


def dump_hypergraph(h: Hypergraph) -> str:
    out = [f"hypergraph m={h.m}"]
    out.extend("e " + " ".join(str(v) for v in edge) for edge in h.edges)
    return "\n".join(out) + "\n"


def load_cnf(lines: Iterable[str]) -> CnfFormula:
    it = _records(lines, comment_chars="#c")
    try:
        lineno, text = next(it)
    except StopIteration:
        raise ValueError("empty CNF file") from None
    parts = text.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
        raise ValueError(f"line {lineno}: expected 'p cnf <vars> <clauses>', got {text!r}")
    try:
        m, n = int(parts[2]), int(parts[3])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer problem size in {text!r}") from None
    _check_items("cnf", variables=m, clauses=n)
    clauses = []
    for lineno, text in it:
        try:
            nums = [int(x) for x in text.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer literal in {text!r}") from None
        if not nums or nums[-1] != 0:
            raise ValueError(f"line {lineno}: clause must end with 0")
        lits = []
        for lit in nums[:-1]:
            if lit == 0:
                raise ValueError(f"line {lineno}: embedded 0 in clause")
            var = abs(lit) - 1
            lits.append((var, lit > 0))
        clauses.append(lits)
    if len(clauses) != n:
        raise ValueError(f"header declares {n} clauses but file has {len(clauses)}")
    try:
        return CnfFormula.from_clauses(m, clauses)
    except ValueError as exc:
        raise ValueError(f"invalid CNF: {exc}") from None


def dump_cnf(f: CnfFormula) -> str:
    out = [f"p cnf {f.m} {f.n}"]
    for clause in f.clauses:
        lits = " ".join(str(v + 1 if s else -(v + 1)) for v, s in clause)
        out.append(f"{lits} 0")
    return "\n".join(out) + "\n"
