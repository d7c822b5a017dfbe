"""Local queries against a proper hypergraph 2-coloring or a satisfying
CNF assignment, computed in four phases.

Both problems share one engine.  A constraint (hyperedge or clause) is
"safe" once it can no longer go wrong: a hyperedge that has seen both
colors, a clause with a satisfied literal.  Each phase assigns random values
to the still-undecided items in a fixed order, except that when a constraint
gets down to exactly ``k_next`` unassigned items without being safe it is
marked dangerous and its remaining items are set aside (saved) for the next
phase.  Constraints that end a phase unsafe are the survivors; the next
phase works on the connected component of survivors around the query.

Phase 1 runs over the whole instance, so it is simulated locally: items are
ordered by seeded ranks, and an item is decided by scanning each of its
constraints over the lower-ranked items, in ascending rank, until the
constraint turns safe or dangerous.  An undecided item such a scan reads is
decided first, on an explicit stack, so a query decides only the items its
scans read, never those past a scan's stopping point.  Phases 2 and 3 retry
their random coloring up to a logarithmic number of rounds, each round with
a fresh coin ensemble, until the surviving components are small ("good").
Phase 4 brute-forces the tiny residual component.

Thresholds k1 > k2 > k3 > k4 drop by ``ceil(log2(16 d (d-1)^3 (d+1)))`` per
phase; the run is admissible when ``k4 >= 1`` and ``2^(k4-1) >= e (d+1)``,
which guarantees the phase-4 component admits an assignment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .exploration import _decide, ilog2ceil
from .graphs import (
    CnfFormula,
    Hypergraph,
    gen_cnf,
    gen_hypergraph,
    load_cnf,
    load_hypergraph,
)
from .ranks import (
    FullPseudorandom,
    OrderingKind,
    Seed,
    coin_fn,
    derive_subseed,
    rank_key_fn,
)

COLORS = ("red", "blue")

DEFAULT_TREE_CAP = 1 << 20
BRUTE_FORCE_TRIALS = 1 << 24  # phase-4 assignments tried at most


class ThresholdError(ValueError):
    """The (k, d) pair violates the admissibility premise."""


class ColoringFailure(RuntimeError):
    """A counted failure event: the query could not be resolved."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class PhaseThresholds:
    """Per-phase unassigned-item thresholds and their common decrement."""

    k1: int
    k2: int
    k3: int
    k4: int
    delta: int


def compute_thresholds(k: int, d: int, lenient: bool = False) -> PhaseThresholds:
    """Evaluate the threshold recurrence and check admissibility.

    For d <= 1 the cubic factor degenerates, so it is clamped to 1 (the d = 2
    value is unchanged).  In lenient mode premise violations produce a
    warning and thresholds are floored at 1 instead of raising.
    """
    if k < 2:
        raise ThresholdError(f"need k >= 2, got k={k}")
    if d < 0:
        raise ThresholdError(f"need d >= 0, got d={d}")
    factor = 16 * max(d, 1) * max(d - 1, 1) ** 3 * (d + 1)
    delta = math.ceil(math.log2(factor))
    k1 = k
    k2 = k1 - delta
    k3 = k2 - delta
    k4 = k3 - delta
    problem = None
    # 2^(k4-1) is built only while k4 - 1 < bit_length(d+1) + 2: from there on
    # 2^(k4-1) > 4(d+1) > e(d+1) holds, and the exact power costs O(k) memory
    if k4 < 1:
        problem = f"k4 = k - 3*{delta} = {k4} < 1"
    elif k4 - 1 < (d + 1).bit_length() + 2 and 2 ** (k4 - 1) < math.e * (d + 1):
        problem = f"2^(k4-1) = {2 ** (k4 - 1)} < e*(d+1) = {math.e * (d + 1):.3f}"
    if problem is not None:
        if not lenient:
            raise ThresholdError(
                f"admissibility premise fails for k={k}, d={d}: {problem}"
            )
        warnings.warn(
            f"running with inadmissible thresholds (k={k}, d={d}: {problem}); "
            "validity is only checked a posteriori",
            stacklevel=2,
        )
        k2, k3, k4 = max(1, k2), max(1, k3), max(1, k4)
    return PhaseThresholds(k1, k2, k3, k4, delta)


@dataclass(frozen=True)
class ColoringParams:
    """Knobs shared by the coloring and CNF query entry points.

    Thresholds come from the instance's uniformity and realized dependency
    degree.  ``tree_cap`` bounds the undecided items one phase-1 decision
    may need, the item itself included (a safety valve against pathological
    instances, reported as a failure).
    """

    kind: OrderingKind = field(default_factory=FullPseudorandom)
    lenient: bool = False
    tree_cap: int = DEFAULT_TREE_CAP


@dataclass(frozen=True)
class ColoringAnswer:
    color: str
    phase_resolved: int
    probes: int


@dataclass(frozen=True)
class SatAnswer:
    value: bool
    phase_resolved: int
    probes: int


def _two_color_step(c: int, item: int, value: int, tracker):
    # tracker is the first color seen on hyperedge c, or None
    if tracker is None:
        return value, False
    return tracker, value != tracker


class QueryState:
    """Shared scratch state for one (instance, seed, params) run.

    Everything cached here is a pure function of those three inputs, so
    sharing a state across queries changes cost, never answers.  Per-query
    probe counts are deltas, which means they reflect work actually done
    under the sharing in effect.

    Coloring and k-SAT differ only in the lookups ``items_of`` (a constraint's
    items) and ``cons_of`` (an item's constraints) and in ``step``, which folds
    one assigned item into a constraint's tracker and returns (tracker, safe).
    """

    def __init__(self, inst, items_of, cons_of, step, seed: Seed, params: ColoringParams):
        self.inst = inst
        self.items_of = items_of
        self.cons_of = cons_of
        self.step = step
        self.params = params
        if params.tree_cap < 1:
            raise ValueError("tree_cap must be >= 1")
        self.d = d = inst.dependency_degree
        if inst.n > 0:
            self.thresholds = compute_thresholds(inst.k, d, params.lenient)
            self.rounds = ilog2ceil(inst.n)
            self.loglog = ilog2ceil(self.rounds)
            self.comp1_bound = max(1, 4 * d**3) * ilog2ceil(inst.n)
        else:
            self.thresholds = None
            self.rounds = 0
            self.loglog = 1
            self.comp1_bound = 1
        self._universe = max(inst.m, 1)
        self.key_of = rank_key_fn(derive_subseed(seed, b"ordering"), params.kind, self._universe)
        self._coin = coin_fn(derive_subseed(seed, b"coins"))  # (ensemble, item) -> 0/1
        self.probes = 0
        # phase-1 epoch (never rewritten by later phases)
        self.color1: dict[int, int] = {}
        self.saved1: set[int] = set()
        # committed values across all phases
        self.final: dict[int, int] = {}
        self.phase_of: dict[int, int] = {}
        self._edge_order: dict[int, list[int]] = {}
        self._surv1: dict[int, bool] = {}
        self._comps: dict[tuple[int, int], tuple[int, ...]] = {}
        self._phase_cache: dict = {}

    # -- counted oracle access ------------------------------------------------

    def _items_of(self, c: int) -> tuple[int, ...]:
        self.probes += 1
        return self.items_of(c)

    def _cons_of(self, v: int) -> tuple[int, ...]:
        self.probes += 1
        return self.cons_of(v)

    # -- phase 1: rank-ordered local decisions --------------------------------

    def _ensure(self, x: int) -> None:
        """Decide (color or save) x, first deciding every item its scans read;
        needing more than ``tree_cap`` undecided items, x included, fails."""
        cap = self.params.tree_cap
        if not (x in self.color1 or x in self.saved1 or _decide(x, self._process, cap)):
            raise ColoringFailure(
                "tree_cap", f"deciding item {x} needs more than {cap} undecided items"
            )

    def _process(self, u: int) -> int | None:
        """Decide u, or return an undecided item a scan reads, to decide first.

        Each scan replays one of u's constraints strictly before u's rank, in
        ascending rank.  It stops once the constraint turns safe, or turns
        dangerous (exactly k2 unassigned items while unsafe), which saves u.
        An item saved earlier stays unassigned all phase.
        """
        ku = self.key_of(u)
        universe = self._universe
        for c in self._cons_of(u):
            danger = self.inst.k - self.thresholds.k2  # assigned, k2 left unassigned
            assigned = 0
            tracker = None
            for kw in self._edge_timeline(c):
                if kw >= ku:
                    break
                w = kw % universe
                val = self.color1.get(w)
                if val is None:
                    if w in self.saved1:
                        continue
                    return w
                assigned += 1
                tracker, safe = self.step(c, w, val, tracker)
                if safe:
                    break
                if assigned == danger:
                    self.saved1.add(u)
                    return None
        val = self._coin(0, u)
        self.color1[u] = val
        self.final[u] = val
        self.phase_of[u] = 1
        return None

    def _edge_timeline(self, c: int) -> list[int]:
        """Rank keys of c's items, ascending; a key modulo the universe is
        its item."""
        got = self._edge_order.get(c)
        if got is None:
            got = sorted(map(self.key_of, self._items_of(c)))
            self._edge_order[c] = got
        return got

    def _scan(self, c: int, value_of: Callable[[int], int | None]):
        """(assigned count, tracker, safe) of c, where ``value_of`` gives an
        item's value, or None while it is unassigned.  The scan stops once c
        is safe, so the count is complete only while c is unsafe."""
        count = 0
        tracker = None
        for w in self.items_of(c):
            val = value_of(w)
            if val is not None:
                count += 1
                tracker, safe = self.step(c, w, val, tracker)
                if safe:
                    return count, tracker, True
        return count, tracker, False

    def _survived1(self, c: int) -> bool:
        got = self._surv1.get(c)
        if got is None:
            for w in self._items_of(c):
                self._ensure(w)
            got = not self._scan(c, self.color1.get)[2]
            self._surv1[c] = got
        return got

    def _component(
        self, x: int, phase: int, survives: Callable[[int], bool]
    ) -> tuple[int, ...]:
        """Connected component of the constraints surviving ``phase`` around
        x's constraints; cached for every item of its constraints."""
        got = self._comps.get((phase, x))
        if got is not None:
            return got
        start = [c for c in self._cons_of(x) if survives(c)]
        if not start:
            raise ColoringFailure(
                "internal",
                f"item {x} is unassigned yet touches no surviving constraint",
            )
        comp = set(start)
        queue = list(start)
        while queue:
            c = queue.pop()
            for w in self._items_of(c):
                for c2 in self._cons_of(w):
                    if c2 not in comp and survives(c2):
                        comp.add(c2)
                        queue.append(c2)
                        if len(comp) > self.comp1_bound:
                            raise ColoringFailure(
                                "component",
                                f"phase-{phase} survivor component around item {x} "
                                f"exceeded {self.comp1_bound} constraints",
                            )
        out = tuple(sorted(comp))
        for c in out:
            for w in self.items_of(c):
                self._comps.setdefault((phase, w), out)
        return out

    # -- phases 2 and 3: retried component coloring -----------------------------

    def _try_round(self, edges, items, item_cons, k_next: int, ensemble: int):
        """One random-coloring attempt; returns (assigned, survived)."""
        k = self.inst.k
        assigned: dict[int, int] = {}
        saved: set[int] = set()
        state = {c: list(self._scan(c, self.final.get)) for c in edges}

        def mark_dangerous(c: int) -> None:
            for w in self.items_of(c):
                if w not in self.final and w not in assigned:
                    saved.add(w)

        for c in edges:
            st = state[c]
            if not st[2] and k - st[0] == k_next:
                mark_dangerous(c)
        for v in items:
            if v in saved:
                continue
            val = self._coin(ensemble, v)
            assigned[v] = val
            for c in item_cons[v]:
                st = state[c]
                st[0] += 1
                if st[2]:
                    continue
                st[1], safe = self.step(c, v, val, st[1])
                if safe:
                    st[2] = True
                elif k - st[0] == k_next:
                    mark_dangerous(c)
        survived = tuple(c for c in edges if not state[c][2])
        return assigned, survived

    def _largest_component(self, edges: Sequence[int]) -> int:
        """Constraint count of the largest connected component of ``edges``."""
        by_item: dict[int, list[int]] = {}
        for c in edges:
            for w in self.items_of(c):
                by_item.setdefault(w, []).append(c)
        seen: set[int] = set()
        largest = 0
        for c0 in edges:
            if c0 in seen:
                continue
            seen.add(c0)
            queue = [c0]
            size = 0
            while queue:
                c = queue.pop()
                size += 1
                for w in self.items_of(c):
                    for c2 in by_item[w]:
                        if c2 not in seen:
                            seen.add(c2)
                            queue.append(c2)
            largest = max(largest, size)
        return largest

    def _phase_threshold(self, phase: int) -> int:
        if phase == 2:
            return max(1, 2 * self.d**3 * self.loglog)
        return max(1, -(-self.loglog // self.thresholds.k4))

    def _run_phase(self, phase: int, edges: tuple[int, ...]) -> frozenset[int]:
        """Color a survivor component; commit the first good round.

        Returns the surviving constraints of the committed coloring.  Cached
        per component, so every query in the component sees one outcome.
        """
        cached = self._phase_cache.get((phase, edges))
        if cached is not None:
            return cached
        eset = set(edges)
        items = sorted(
            {w for c in edges for w in self._items_of(c) if w not in self.final}
        )
        item_cons = {
            v: tuple(c for c in self._cons_of(v) if c in eset) for v in items
        }
        k_next = self.thresholds.k3 if phase == 2 else self.thresholds.k4
        threshold = self._phase_threshold(phase)
        base = 1 if phase == 2 else 1 + self.rounds
        for t in range(self.rounds):
            assigned, survived = self._try_round(
                edges, items, item_cons, k_next, base + t
            )
            if self._largest_component(survived) <= threshold:
                for v, val in assigned.items():
                    self.final[v] = val
                    self.phase_of[v] = phase
                out = frozenset(survived)
                self._phase_cache[(phase, edges)] = out
                return out
        raise ColoringFailure(
            "no-good-coloring",
            f"no good coloring within {self.rounds} rounds in phase {phase} "
            f"(component of {len(edges)} constraints)",
        )

    # -- phase 4: brute force ---------------------------------------------------

    def _run_phase4(self, edges: tuple[int, ...]) -> None:
        # not cached: success commits every open item of ``edges``, so no
        # later query reaches this component with an item still open
        items = sorted(
            {w for c in edges for w in self._items_of(c) if w not in self.final}
        )
        trials = min(1 << len(items), BRUTE_FORCE_TRIALS)
        for mask in range(trials):
            extra = {v: (mask >> j) & 1 for j, v in enumerate(items)}
            value_of = lambda w: self.final.get(w, extra.get(w))  # noqa: E731
            if all(self._scan(c, value_of)[2] for c in edges):
                for v, val in extra.items():
                    self.final[v] = val
                    self.phase_of[v] = 4
                return
        raise ColoringFailure(
            "brute-force",
            f"no feasible assignment for the phase-4 component "
            f"({len(edges)} constraints, {len(items)} items) "
            f"within {trials} trials",
        )

    # -- query pipeline ----------------------------------------------------------

    def query(self, x: int) -> tuple[int, int, int]:
        """(value, phase_resolved, probes) for one item."""
        if not 0 <= x < self.inst.m:
            raise ValueError(f"item {x} out of range for m={self.inst.m}")
        before = self.probes
        self._ensure(x)
        if x not in self.final:
            survives = self._survived1
            for phase in (2, 3, 4):
                comp = self._component(x, phase - 1, survives)
                if phase < 4:
                    survives = self._run_phase(phase, comp).__contains__
                else:
                    self._run_phase4(comp)
                if x in self.final:
                    break
        return self.final[x], self.phase_of[x], self.probes - before


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def coloring_state(
    h: Hypergraph, seed: Seed, params: ColoringParams | None = None
) -> QueryState:
    """Reusable state for batching many color queries against one run."""
    return QueryState(h, h.vertices_of, h.edges_of, _two_color_step, seed,
                      params or ColoringParams())


def sat_state(
    f: CnfFormula, seed: Seed, params: ColoringParams | None = None
) -> QueryState:
    want = f.clause_wants
    step = lambda c, item, value, tracker: (tracker, want[c][item] == bool(value))  # noqa: E731
    return QueryState(f, f.clause_vars.__getitem__, f.clauses_of, step, seed,
                      params or ColoringParams())


def color_query(
    h: Hypergraph,
    x: int,
    seed: Seed,
    params: ColoringParams | None = None,
    state: QueryState | None = None,
) -> ColoringAnswer:
    """Color of vertex x, consistent with one proper 2-coloring per seed.

    Passing a shared ``state`` (from :func:`coloring_state`) reuses cached
    work across queries; answers are identical either way.
    """
    if state is None:
        state = coloring_state(h, seed, params)
    val, phase, probes = state.query(x)
    return ColoringAnswer(COLORS[val], phase, probes)


def color_all(
    h: Hypergraph, seed: Seed, params: ColoringParams | None = None
) -> list[str]:
    """Query every vertex; fails if any query fails."""
    state = coloring_state(h, seed, params)
    return [COLORS[state.query(x)[0]] for x in range(h.m)]


def verify_coloring(h: Hypergraph, colors: Sequence) -> bool:
    """Independent checker: every hyperedge must see two distinct colors."""
    if len(colors) != h.m:
        raise ValueError(f"expected {h.m} colors, got {len(colors)}")
    for edge in h.edges:
        first = colors[edge[0]]
        if all(colors[v] == first for v in edge[1:]):
            return False
    return True


def sat_query(
    f: CnfFormula,
    var: int,
    seed: Seed,
    params: ColoringParams | None = None,
    state: QueryState | None = None,
) -> SatAnswer:
    """Truth value of one variable, consistent with one satisfying assignment."""
    if state is None:
        state = sat_state(f, seed, params)
    val, phase, probes = state.query(var)
    return SatAnswer(bool(val), phase, probes)


def sat_all(
    f: CnfFormula, seed: Seed, params: ColoringParams | None = None
) -> list[bool]:
    state = sat_state(f, seed, params)
    return [bool(state.query(v)[0]) for v in range(f.m)]


def verify_assignment(f: CnfFormula, assignment: Sequence[bool]) -> bool:
    """Independent checker: every clause must have a satisfied literal."""
    if len(assignment) != f.m:
        raise ValueError(f"expected {f.m} values, got {len(assignment)}")
    for clause in f.clauses:
        if not any(bool(assignment[v]) == s for v, s in clause):
            return False
    return True


class Problem(NamedTuple):
    """One problem end to end: its generator (seed, m, n, k, d), text loader,
    query-state factory, and checker, which reads values as ``render`` maps
    them from a query's 0/1 value."""

    generate: Callable
    load: Callable
    state: Callable
    verify: Callable
    render: Callable


PROBLEMS: dict[str, Problem] = {
    "coloring": Problem(
        gen_hypergraph, load_hypergraph, coloring_state, verify_coloring, COLORS.__getitem__
    ),
    "ksat": Problem(gen_cnf, load_cnf, sat_state, verify_assignment, bool),
}
