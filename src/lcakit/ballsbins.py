"""Local queries against power-of-d-choices load balancing.

Balls arrive in a seeded random order; each is placed into one of its d
chosen bins by a pluggable decision rule that may only look at those d bins'
current loads and static metadata.  A per-ball query walks the ball's
closure in the ball-conflict graph (two balls conflict when they share a
bin) and replays the arrival sequence inside it, tracking loads only for
bins the set touches; that is exact because every earlier ball affecting
those bins is itself in the set.

If the relevant set exceeds its cap the query is a counted failure and the
ball falls back to a seed-derived uniform choice among its own d bins, so
even failures are deterministic and query-order oblivious.

The batch, :func:`assign_all`, walks no closures.  It keys every ball in
one bulk call and sorts the ball ids by those keys.  One pass in that order
places every ball and tells each ball's closure size from a memo of one
closure per bin, which gives the cold walk's ``failed`` flag and probes.
A ball builds a set only where its bins hold two distinct lower closures;
otherwise its closure is itself, or itself before the one closure its bins
hold.  The pass records bins and sizes in flat lists, and every answer is
built after it in one sweep; balls over the cap are then answered by
:func:`assign_query`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, NamedTuple

from .exploration import _closure, ilog2ceil
from .graphs import BipartiteChoices
from .ranks import (
    FullPseudorandom,
    OrderingKind,
    Seed,
    random_in_range,
    rank_key_fn,
    rank_keys,
)

# Multiplier for the default exploration cap, calibrated so the measured
# failure rate at n = m = 10^4, d = 2 stays below 1e-3 (observed closure
# sizes there: mean ~5.5, p99 ~28, max ~71 against a cap of 280).
DEFAULT_CAP_CONSTANT = 20


def default_cap(m_bins: int, constant: int = DEFAULT_CAP_CONSTANT) -> int:
    """Exploration cap ``constant * ceil(log2(m_bins))``."""
    return max(1, constant) * ilog2ceil(max(2, m_bins))


class Assignment(NamedTuple):
    # a NamedTuple: a batch builds one per ball, and a tuple costs about a
    # third of what a frozen dataclass's four __setattr__ calls cost
    ball: int
    bin: int
    failed: bool
    probes: int


class DecisionRule:
    """Base: pick a bin from the ball's choices given their current loads."""

    name = "abstract"
    scheme: str  # the gen_bipartite_choices scheme whose instances it reads

    def validate(self, bc: BipartiteChoices) -> None:
        """Raise if the instance lacks the metadata this rule needs."""

    def choose(
        self, bc: BipartiteChoices, ball: int, load_of: Callable[[int], int]
    ) -> int:
        raise NotImplementedError


class LeastLoaded(DecisionRule):
    """Least loaded of the d choices; ties go to the lowest bin id."""

    name = "least-loaded"
    scheme = "uniform"

    def choose(self, bc, ball, load_of):
        best = None
        best_key = None
        for u in bc.choices_of(ball):
            key = (load_of(u), u)
            if best_key is None or key < best_key:
                best, best_key = u, key
        return best


class AlwaysGoLeft(DecisionRule):
    """One choice per ordered group; ties resolve toward the leftmost group.

    Requires grouped instances where the i-th choice lies in group i.
    """

    name = "always-go-left"
    scheme = "grouped"

    def validate(self, bc):
        if bc.group_of is None:
            raise ValueError("always-go-left needs an instance with bin groups")
        if not bc.choices_follow_groups:
            raise ValueError("always-go-left needs every ball's i-th choice in group i")

    def choose(self, bc, ball, load_of):
        best = None
        best_load = None
        for u in bc.choices_of(ball):
            load = load_of(u)
            if best_load is None or load < best_load:  # ties keep earlier group
                best, best_load = u, load
        return best


class CapacityWeighted(DecisionRule):
    """Least relative load (load divided by capacity); ties to lowest id.

    Relative loads are compared by exact cross-multiplication so verdicts
    never depend on float rounding.
    """

    name = "capacity"
    scheme = "capacity"

    def validate(self, bc):
        if bc.capacities is None:
            raise ValueError("capacity rule needs an instance with capacities")
        if not bc.capacities_positive:
            raise ValueError("capacity rule needs strictly positive capacities")

    def choose(self, bc, ball, load_of):
        caps = bc.capacities
        best = None
        best_load = 0
        for u in bc.choices_of(ball):
            load = load_of(u)
            if best is None:
                best, best_load = u, load
                continue
            lhs = load * caps[best]
            rhs = best_load * caps[u]
            if lhs < rhs or (lhs == rhs and u < best):
                best, best_load = u, load
        return best


class CircleNearest(LeastLoaded):
    """Least loaded of the d nearest-point bins (choices are the nearest
    bins by construction); ties go to the lowest bin id."""

    name = "circle"
    scheme = "circle"

    def validate(self, bc):
        if bc.positions is None:
            raise ValueError("circle rule needs an instance with bin positions")


RULES: dict[str, DecisionRule] = {
    rule.name: rule
    for rule in (LeastLoaded(), AlwaysGoLeft(), CapacityWeighted(), CircleNearest())
}


def run_global(
    bc: BipartiteChoices,
    rule: DecisionRule,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
) -> tuple[list[Assignment], tuple[int, ...]]:
    """The oracle: every ball's bin, placed in true arrival order, and each
    bin's final load. Never fails."""
    rule.validate(bc)
    key_of = rank_key_fn(seed, kind, max(bc.n_balls, 1))
    order = sorted(range(bc.n_balls), key=key_of)
    choose = rule.choose
    loads = [0] * bc.m_bins
    load_of = loads.__getitem__
    out: list = [None] * bc.n_balls  # every slot is filled below
    for b in order:
        u = choose(bc, b, load_of)
        loads[u] += 1
        out[b] = Assignment(b, u, False, bc.d)
    return out, tuple(loads)


def _fallback_bin(bc: BipartiteChoices, ball: int, seed: Seed) -> int:
    choices = bc.choices_of(ball)
    return choices[random_in_range(seed, b"fallback-ball:%d" % ball, bc.d)]


def assign_query(
    bc: BipartiteChoices,
    ball: int,
    rule: DecisionRule,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int | None = None,
    _key_of=None,
) -> Assignment:
    """Bin of one ball, identical to the global run unless the query fails.

    ``cap`` defaults to :func:`default_cap`.  On truncation (or a
    non-positive cap) the result is marked ``failed`` and the bin is a
    seed-derived uniform pick among the ball's own choices.
    """
    rule.validate(bc)
    if cap is None:
        cap = default_cap(bc.m_bins)
    if cap < 1:
        return Assignment(ball, _fallback_bin(bc, ball, seed), failed=True, probes=0)
    if not 0 <= ball < bc.n_balls:
        raise ValueError(f"ball {ball} out of range for n={bc.n_balls}")
    universe = bc.n_balls
    key_of = _key_of if _key_of is not None else rank_key_fn(seed, kind, universe)

    def conflicts(b: int) -> list[int]:
        # the choosers of b's bins, b itself included
        return [w for u in bc.choices_of(b) for w in bc.choosers_of(u)]

    members, scans, truncated = _closure(conflicts, ball, key_of, cap)
    probes = (1 + bc.d) * scans  # each scan: b's choice list, each bin's choosers
    if truncated:
        return Assignment(ball, _fallback_bin(bc, ball, seed), failed=True, probes=probes)
    loads: dict[int, int] = {}
    load_of = lambda u: loads.get(u, 0)  # noqa: E731
    for k in sorted(members.values()):  # ascending rank; the queried ball is last
        u = rule.choose(bc, k % universe, load_of)
        loads[u] = loads.get(u, 0) + 1
    return Assignment(ball, u, failed=False, probes=probes)


def assign_all(
    bc: BipartiteChoices,
    rule: DecisionRule,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int | None = None,
) -> tuple[list[Assignment], tuple[int, ...]]:
    """Every ball's :func:`assign_query` answer, and each bin's load under
    those answers, from one pass in rank order.

    * Order: every ball's rank key comes from one
      :func:`~lcakit.ranks.rank_keys` call.
    * Bins: the pass places balls into global loads as :func:`run_global`
      does, so a ball whose closure fits ``cap`` gets the bin its cold
      replay computes.
    * Closures: a ball's closure is itself plus the closures of its
      lower-ranked co-choosers.  Every earlier chooser of a bin lies in the
      closure of the latest one, so a memo of one closure per bin (its
      latest chooser's) gives each closure from the d bins' memos.  With
      no lower closure it is ``(b,)``; with one distinct closure ``c``
      (both choices on one bin, or one latest chooser of both bins) it is
      ``(b,) + c``, of size ``1 + len(c)`` since ``b`` is new to the pass.
      Only a ball whose bins hold two or more distinct closures builds a
      set, their union with ``b``.
    * ``failed`` and ``probes``: ``_closure`` truncates exactly when the
      closure has more than ``cap`` members.  Its complete walk makes one
      ``choices_of`` and d ``choosers_of`` lookups per member, so a closure
      within the cap costs the cold walk (1 + d) * size probes.
    * Answers: the pass records each ball's bin and closure size in flat
      lists, and every answer is built from them in one sweep after it.
    * Over cap: such closures are not kept.  The memo holds one shared
      marker instead, more than ``cap`` ids that are no ball's, so a ball
      that chose a bin whose memo is the marker is over cap too.  After
      the sweep, each over-cap ball, in rank order, is answered by
      :func:`assign_query` itself, so its fallback bin and truncated-walk
      probes are the cold query's.  Their walks read the batch's keys, so
      no ball is hashed twice.
    * Loads: the pass's loads, with one unit moved for each over-cap
      ball from the bin the pass placed it in to the bin it was answered
      with, as its answer replaces the swept one.
    """
    rule.validate(bc)
    if cap is None:
        cap = default_cap(bc.m_bins)
    n = bc.n_balls
    key_of = rank_keys(seed, kind, range(n), max(n, 1)).__getitem__
    choose = rule.choose
    choices = bc.choices  # ids come from range(n): no range check needed
    per_member = 1 + bc.d  # probes per closure member
    loads = [0] * bc.m_bins
    load_of = loads.__getitem__
    # the over-cap marker: cap + 1 ids below 0, so no ball's, and any union
    # with it is over the cap by itself.  No closure has more than n
    # members, so a cap of n or more never needs it, and n + 1 ids do.
    over = tuple(range(-1 - min(cap, n), 0))
    # latest[u]: closure of the latest-ranked ball so far that chose bin u
    latest: list[tuple[int, ...]] = [()] * bc.m_bins
    placed = [0] * n  # each ball's bin in the pass
    sizes = [0] * n  # each ball's closure size
    over_cap = []  # balls whose closure exceeds cap, in rank order
    for b in sorted(range(n), key=key_of):
        u = placed[b] = choose(bc, b, load_of)
        loads[u] += 1
        mine = choices[b]
        c = members = None
        for v in mine:
            w = latest[v]
            if not w or w is c:
                continue
            if c is None:
                c = w
            elif members is None:
                members = {b, *c, *w}
            else:
                members.update(w)
        if members is not None:
            closure = tuple(members)
        elif c is None:
            closure = (b,)
        else:
            closure = (b,) + c  # b is new to the pass: no duplicate
        size = sizes[b] = len(closure)
        if size > cap:
            closure = over
            over_cap.append(b)
        for v in mine:
            latest[v] = closure
    probes = map(per_member.__mul__, sizes)
    # tuple.__new__ skips Assignment(...)'s argument binding and _make's length check
    rows = zip(range(n), placed, repeat(False), probes)
    out = list(map(tuple.__new__, repeat(Assignment), rows))
    for b in over_cap:
        a = out[b] = assign_query(bc, b, rule, seed, kind, cap, _key_of=key_of)
        loads[placed[b]] -= 1
        loads[a.bin] += 1
    return out, tuple(loads)
