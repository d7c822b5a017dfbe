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
closure per bin, which gives the cold walk's ``failed`` flag and probes;
balls over the cap are answered by :func:`assign_query`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True, slots=True)
class Assignment:
    ball: int
    bin: int
    failed: bool
    probes: int


@dataclass(frozen=True)
class LoadProfile:
    loads: tuple[int, ...]
    max_load: int

    @classmethod
    def from_assignments(cls, m_bins: int, assignments: Sequence[Assignment]):
        loads = [0] * m_bins
        for a in assignments:
            loads[a.bin] += 1
        return cls(tuple(loads), max(loads, default=0))


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
) -> tuple[list[Assignment], LoadProfile]:
    """The oracle: place every ball in true arrival order. Never fails."""
    rule.validate(bc)
    key_of = rank_key_fn(seed, kind, max(bc.n_balls, 1))
    order = sorted(range(bc.n_balls), key=key_of)
    loads = [0] * bc.m_bins
    out: list[Assignment | None] = [None] * bc.n_balls
    load_of = loads.__getitem__
    for b in order:
        u = rule.choose(bc, b, load_of)
        loads[u] += 1
        out[b] = Assignment(b, u, failed=False, probes=bc.d)
    assignments = [a for a in out if a is not None]
    return assignments, LoadProfile.from_assignments(bc.m_bins, assignments)


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
) -> tuple[list[Assignment], LoadProfile]:
    """Every ball's :func:`assign_query` answer, from one pass in rank order.

    * Order: every ball's rank key comes from one
      :func:`~lcakit.ranks.rank_keys` call.
    * Bins: the pass places balls into global loads as :func:`run_global`
      does, so a ball whose closure fits ``cap`` gets the bin its cold
      replay computes.
    * Closures: a ball's closure is itself plus the closures of its
      lower-ranked co-choosers.  Every earlier chooser of a bin lies in the
      closure of the latest one, so a memo of one closure per bin (its
      latest chooser's) gives each closure by d unions.
    * ``failed`` and ``probes``: ``_closure`` truncates exactly when the
      closure has more than ``cap`` members.  Its complete walk makes one
      ``choices_of`` and d ``choosers_of`` lookups per member, so a closure
      within the cap costs the cold walk (1 + d) * size probes.
    * Over cap: such closures are not kept, and a ball that chose a bin
      whose memo is over cap is over cap too.  Each over-cap ball is
      answered by :func:`assign_query` itself, so its fallback bin and
      truncated-walk probes are the cold query's.  Their walks read the
      batch's keys, so no ball is hashed twice.
    """
    rule.validate(bc)
    if cap is None:
        cap = default_cap(bc.m_bins)
    key_of = rank_keys(seed, kind, range(bc.n_balls), max(bc.n_balls, 1)).__getitem__
    per_member = 1 + bc.d  # probes per closure member
    loads = [0] * bc.m_bins
    load_of = loads.__getitem__
    # latest[u]: closure of the latest-ranked ball so far that chose bin u,
    # or None once that closure is over cap
    latest: list[tuple[int, ...] | None] = [()] * bc.m_bins
    out: list[Assignment | None] = [None] * bc.n_balls
    for b in sorted(range(bc.n_balls), key=key_of):
        u = rule.choose(bc, b, load_of)
        loads[u] += 1
        choices = bc.choices_of(b)
        closure = None
        members = {b}
        for v in choices:
            part = latest[v]
            if part is None:  # an over-cap co-chooser puts b over cap
                break
            members.update(part)
        else:
            if len(members) <= cap:
                closure = tuple(members)
        if closure is None:
            out[b] = assign_query(bc, b, rule, seed, kind, cap, _key_of=key_of)
        else:
            out[b] = Assignment(b, u, failed=False, probes=per_member * len(closure))
        for v in choices:
            latest[v] = closure
    assignments = [a for a in out if a is not None]
    return assignments, LoadProfile.from_assignments(bc.m_bins, assignments)
