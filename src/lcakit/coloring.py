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
ordered by seeded ranks, and an item's decision is replayed from its
dependency closure only.  Phases 2 and 3 retry their random coloring up to a
logarithmic number of rounds, each round with a fresh coin ensemble, until
the surviving components are small ("good").  Phase 4 brute-forces the tiny
residual component.

Thresholds k1 > k2 > k3 > k4 drop by ``ceil(log2(16 d (d-1)^3 (d+1)))`` per
phase; the run is admissible when ``k4 >= 1`` and ``2^(k4-1) >= e (d+1)``,
which guarantees the phase-4 component admits an assignment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .exploration import _closure, ilog2ceil
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
    derive_subseed,
    random_in_range,
    rank_key_fn,
)

COLORS = ("red", "blue")

DEFAULT_TREE_CAP = 1 << 20


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
    if k4 < 1:
        problem = f"k4 = k - 3*{delta} = {k4} < 1"
    elif 2 ** (k4 - 1) < math.e * (d + 1):
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

    ``k`` and ``d`` default to the instance's uniformity and realized
    dependency degree.  ``tree_cap`` bounds the phase-1 closure per query (a
    safety valve against pathological instances, reported as a failure).
    """

    kind: OrderingKind = field(default_factory=FullPseudorandom)
    lenient: bool = False
    k: int | None = None
    d: int | None = None
    tree_cap: int = DEFAULT_TREE_CAP
    brute_force_trials: int = 1 << 24


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


class _HypergraphView:
    """Constraint view of a hypergraph: safe = edge has seen both colors."""

    def __init__(self, h: Hypergraph):
        self.inst = h
        self.m = h.m
        self.n = h.n
        self.k = h.k
        self.dep = h.dependency_degree

    def items_of(self, c: int) -> tuple[int, ...]:
        return self.inst.vertices_of(c)

    def cons_of(self, v: int) -> tuple[int, ...]:
        return self.inst.edges_of(v)

    @staticmethod
    def step(c: int, item: int, value: int, tracker):
        # tracker is the first value seen on this constraint, or None
        if tracker is None:
            return value, False
        return tracker, value != tracker


class _CnfView:
    """Constraint view of a CNF: safe = clause has a satisfied literal."""

    def __init__(self, f: CnfFormula):
        self.inst = f
        self.m = f.m
        self.n = f.n
        self.k = f.k
        self.dep = f.dependency_degree
        self._vars = tuple(tuple(v for v, _ in cl) for cl in f.clauses)
        self._want = tuple(dict(cl) for cl in f.clauses)

    def items_of(self, c: int) -> tuple[int, ...]:
        return self._vars[c]

    def cons_of(self, v: int) -> tuple[int, ...]:
        return self.inst.clauses_of(v)

    def step(self, c: int, item: int, value: int, tracker):
        return tracker, self._want[c][item] == bool(value)


class QueryState:
    """Shared scratch state for one (instance, seed, params) run.

    Everything cached here is a pure function of those three inputs, so
    sharing a state across queries changes cost, never answers.  Per-query
    probe counts are deltas, which means they reflect work actually done
    under the sharing in effect.
    """

    def __init__(self, view, seed: Seed, params: ColoringParams):
        self.view = view
        self.params = params
        k = params.k if params.k is not None else view.k
        d = params.d if params.d is not None else view.dep
        self.d = d
        if view.n > 0:
            self.thresholds = compute_thresholds(k, d, params.lenient)
            self.rounds = ilog2ceil(view.n)
            self.loglog = ilog2ceil(self.rounds)
            self.comp1_bound = max(1, 4 * d**3) * ilog2ceil(view.n)
        else:
            self.thresholds = None
            self.rounds = 0
            self.loglog = 1
            self.comp1_bound = 1
        self.key_of = rank_key_fn(
            derive_subseed(seed, b"ordering"), params.kind, max(view.m, 1)
        )
        self._coin_seed = derive_subseed(seed, b"coins")
        self.probes = 0
        # phase-1 epoch (never rewritten by later phases)
        self.color1: dict[int, int] = {}
        self.saved1: set[int] = set()
        # committed values across all phases
        self.final: dict[int, int] = {}
        self.phase_of: dict[int, int] = {}
        self._edge_order: dict[int, list[tuple[tuple[int, int], int]]] = {}
        self._surv1: dict[int, bool] = {}
        self._comp1: dict[int, tuple[int, ...]] = {}
        self._phase_cache: dict = {}

    # -- counted oracle access ------------------------------------------------

    def _items_of(self, c: int) -> tuple[int, ...]:
        self.probes += 1
        return self.view.items_of(c)

    def _cons_of(self, v: int) -> tuple[int, ...]:
        self.probes += 1
        return self.view.cons_of(v)

    def _coin(self, ensemble: int, item: int) -> int:
        return random_in_range(
            self._coin_seed.with_ensemble(ensemble), item.to_bytes(8, "big"), 2
        )

    # -- phase 1: rank-ordered local replay ------------------------------------

    def _neighbors(self, v: int):
        for c in self._cons_of(v):
            for w in self._items_of(c):
                if w != v:
                    yield w

    def _decided(self, v: int) -> bool:
        return v in self.color1 or v in self.saved1

    def _ensure(self, x: int) -> None:
        """Decide (color or save) x and everything its decision depends on."""
        if self._decided(x):
            return
        order, _, _, _, truncated = _closure(
            self._neighbors, x, self.key_of, self.params.tree_cap
        )
        if truncated:
            raise ColoringFailure(
                "tree_cap",
                f"query tree of item {x} exceeded cap {self.params.tree_cap}",
            )
        for u in order:  # ascending rank; dependencies come first
            if not self._decided(u):
                self._process(u)

    def _process(self, u: int) -> None:
        ku = self.key_of(u)
        for c in self._cons_of(u):
            if self._dangerous_before(c, ku):
                self.saved1.add(u)
                return
        val = self._coin(0, u)
        self.color1[u] = val
        self.final[u] = val
        self.phase_of[u] = 1

    def _edge_timeline(self, c: int):
        got = self._edge_order.get(c)
        if got is None:
            got = sorted((self.key_of(w), w) for w in self._items_of(c))
            self._edge_order[c] = got
        return got

    def _dangerous_before(self, c: int, t: tuple[int, int]) -> bool:
        """Replay constraint c's phase-1 history strictly before time t.

        Returns True iff c turned dangerous (hit exactly k2 unassigned items
        while unsafe) at some earlier time and was not killed first.  Every
        item of c earlier than t is already decided, so the walk is exact.
        """
        k2 = self.thresholds.k2
        k = self.view.k
        assigned = 0
        tracker = None
        for kw, w in self._edge_timeline(c):
            if kw >= t:
                break
            val = self.color1.get(w)
            if val is None:  # saved earlier; stays unassigned all phase
                continue
            assigned += 1
            tracker, safe = self.view.step(c, w, val, tracker)
            if safe:
                return False
            if k - assigned == k2:
                return True
        return False

    def _safe_phase1(self, c: int) -> bool:
        tracker = None
        for w in self.view.items_of(c):
            val = self.color1.get(w)
            if val is None:
                continue
            tracker, safe = self.view.step(c, w, val, tracker)
            if safe:
                return True
        return False

    def _survived1(self, c: int) -> bool:
        got = self._surv1.get(c)
        if got is None:
            for w in self._items_of(c):
                self._ensure(w)
            got = not self._safe_phase1(c)
            self._surv1[c] = got
        return got

    def _component1(self, x: int) -> tuple[int, ...]:
        """Connected component of survivors around x's constraints."""
        got = self._comp1.get(x)
        if got is not None:
            return got
        start = [c for c in self._cons_of(x) if self._survived1(c)]
        comp = set(start)
        queue = list(start)
        while queue:
            c = queue.pop()
            for w in self._items_of(c):
                for c2 in self._cons_of(w):
                    if c2 not in comp and self._survived1(c2):
                        comp.add(c2)
                        queue.append(c2)
                        if len(comp) > self.comp1_bound:
                            raise ColoringFailure(
                                "component",
                                f"phase-1 survivor component around item {x} "
                                f"exceeded {self.comp1_bound} constraints",
                            )
        out = tuple(sorted(comp))
        for c in out:
            for w in self.view.items_of(c):
                self._comp1.setdefault(w, out)
        self._comp1[x] = out
        return out

    # -- phases 2 and 3: retried component coloring -----------------------------

    def _round_state(self, c: int):
        """[assigned_count, tracker, safe] of c under committed values."""
        count = 0
        tracker = None
        safe = False
        for w in self.view.items_of(c):
            val = self.final.get(w)
            if val is None:
                continue
            count += 1
            if not safe:
                tracker, safe = self.view.step(c, w, val, tracker)
        return [count, tracker, safe]

    def _try_round(self, edges, items, item_cons, k_next: int, ensemble: int):
        """One random-coloring attempt; returns (assigned, survived)."""
        k = self.view.k
        assigned: dict[int, int] = {}
        saved: set[int] = set()
        state = {c: self._round_state(c) for c in edges}

        def mark_dangerous(c: int) -> None:
            for w in self.view.items_of(c):
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
                st[1], safe = self.view.step(c, v, val, st[1])
                if safe:
                    st[2] = True
                elif k - st[0] == k_next:
                    mark_dangerous(c)
        survived = tuple(c for c in edges if not state[c][2])
        return assigned, survived

    def _components_within(self, edges: Sequence[int]) -> list[tuple[int, ...]]:
        eset = set(edges)
        by_item: dict[int, list[int]] = {}
        for c in edges:
            for w in self.view.items_of(c):
                by_item.setdefault(w, []).append(c)
        seen: set[int] = set()
        comps = []
        for c0 in edges:
            if c0 in seen:
                continue
            comp = {c0}
            queue = [c0]
            seen.add(c0)
            while queue:
                c = queue.pop()
                for w in self.view.items_of(c):
                    for c2 in by_item[w]:
                        if c2 not in seen and c2 in eset:
                            seen.add(c2)
                            comp.add(c2)
                            queue.append(c2)
            comps.append(tuple(sorted(comp)))
        return comps

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
            comps = self._components_within(survived)
            if all(len(comp) <= threshold for comp in comps):
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

    def _safe_with(self, c: int, extra: dict[int, int]) -> bool:
        tracker = None
        for w in self.view.items_of(c):
            val = self.final.get(w)
            if val is None:
                val = extra.get(w)
            if val is None:
                continue
            tracker, safe = self.view.step(c, w, val, tracker)
            if safe:
                return True
        return False

    def _run_phase4(self, edges: tuple[int, ...]) -> None:
        if self._phase_cache.get((4, edges)):
            return
        items = sorted(
            {w for c in edges for w in self._items_of(c) if w not in self.final}
        )
        total = 1 << len(items) if len(items) < 63 else self.params.brute_force_trials
        trials = min(total, self.params.brute_force_trials)
        for mask in range(trials):
            extra = {v: (mask >> j) & 1 for j, v in enumerate(items)}
            if all(self._safe_with(c, extra) for c in edges):
                for v, val in extra.items():
                    self.final[v] = val
                    self.phase_of[v] = 4
                self._phase_cache[(4, edges)] = True
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
        if not 0 <= x < self.view.m:
            raise ValueError(f"item {x} out of range for m={self.view.m}")
        before = self.probes
        self._ensure(x)
        if x not in self.final:
            comp = self._component1(x)
            survived = self._run_phase(2, comp)
            if x not in self.final:
                comp = self._component_of(x, survived)
                survived = self._run_phase(3, comp)
                if x not in self.final:
                    comp = self._component_of(x, survived)
                    self._run_phase4(comp)
        return self.final[x], self.phase_of[x], self.probes - before

    def _component_of(self, x: int, survived: frozenset[int]) -> tuple[int, ...]:
        start = [c for c in self._cons_of(x) if c in survived]
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
                    if c2 in survived and c2 not in comp:
                        comp.add(c2)
                        queue.append(c2)
        return tuple(sorted(comp))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def coloring_state(
    h: Hypergraph, seed: Seed, params: ColoringParams | None = None
) -> QueryState:
    """Reusable state for batching many color queries against one run."""
    return QueryState(_HypergraphView(h), seed, params or ColoringParams())


def sat_state(
    f: CnfFormula, seed: Seed, params: ColoringParams | None = None
) -> QueryState:
    return QueryState(_CnfView(f), seed, params or ColoringParams())


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
