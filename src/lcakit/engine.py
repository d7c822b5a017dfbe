"""Generic online-to-local evaluation engine.

A rule is any pure callable ``rule(vertex, x, deps) -> output`` where ``x``
is the vertex's static input and ``deps`` is a list of ``(neighbor, output)``
pairs for the lower-ranked neighbors, ascending by rank.  Purity is what
makes answers independent of query order.  A rule may declare ``stop``, a
predicate on one output: ``deps`` then ends at the first output for which it
is true, so the rule must give the same answer on that prefix as on the full
list (greedy stops at a matched neighbor: ``stop = bool``).

``eval_local`` decides a vertex on demand: it walks the lower neighbors in
ascending rank, decides an undecided one first, and calls the rule once all
of ``deps`` is decided.  A query decides a rule's lower neighbors up to its
stop, and all of them (the whole closure) for a rule without ``stop``.
``eval_global`` is the oracle that runs the whole arrival sequence and passes
every dependency.  Whenever the local run does not truncate, they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .exploration import TruncationError, _decide
from .graphs import LocalGraph
from .ranks import FullPseudorandom, OrderingKind, Seed, rank_key_fn

Rule = Callable[[int, Any, list[tuple[int, Any]]], Any]  # optional attribute: stop


@dataclass
class EvalTrace:
    """Outputs of the decided vertices, in ``evaluation_order`` (decision
    order for ``eval_local``, rank order for ``eval_global``), and
    ``probes``, the vertices whose neighbor lists were read."""

    outputs: dict[int, Any]
    evaluation_order: list[int]
    probes: int


def _input_fn(inputs) -> Callable[[int], Any]:
    if inputs is None:
        return lambda v: None
    if isinstance(inputs, Mapping):
        return lambda v: inputs.get(v)
    return inputs


def eval_local(
    g: LocalGraph,
    v0: int,
    rule: Rule,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    cap: int = 1 << 20,
    inputs=None,
    rank_map: Callable[[int], int] | None = None,
) -> tuple[Any, EvalTrace]:
    """Output of the online rule at v0, deciding its rules' ``deps`` first.

    Raises :class:`TruncationError` (with probe statistics) if that needs
    more than ``cap`` undecided vertices, v0 included; they all lie in v0's
    relevant set.  The caller owns the fallback policy.
    """
    if not 0 <= v0 < g.n:
        raise ValueError(f"vertex {v0} out of range for n={g.n}")
    key_of = rank_map if rank_map is not None else rank_key_fn(seed, kind, g.n)
    lower: dict[int, list[int]] = {}  # v's lower neighbors, ascending by rank
    x_of = _input_fn(inputs)
    outputs: dict[int, Any] = {}
    order: list[int] = []
    stop = getattr(rule, "stop", None)

    def step(v: int) -> int | None:
        ids = lower.get(v)
        if ids is None:
            kv = key_of(v)
            ids = lower[v] = sorted((w for w in g.neighbors(v) if key_of(w) < kv), key=key_of)
        deps = []
        for w in ids:
            if w not in outputs:
                return w
            out = outputs[w]
            deps.append((w, out))
            if stop is not None and stop(out):
                break
        outputs[v] = rule(v, x_of(v), deps)
        order.append(v)
        return None

    if not _decide(v0, step, cap):
        raise TruncationError(
            f"deciding vertex {v0} needs more than {cap} undecided vertices",
            probes=len(lower),
            size=len(lower),
        )
    return outputs[v0], EvalTrace(outputs, order, len(lower))


def eval_global(
    g: LocalGraph,
    rule: Rule,
    seed: Seed,
    kind: OrderingKind = FullPseudorandom(),
    inputs=None,
    rank_map: Callable[[int], int] | None = None,
) -> EvalTrace:
    """Run the online rule over the full arrival order (the oracle)."""
    key_of = rank_map if rank_map is not None else rank_key_fn(seed, kind, g.n)
    order = sorted(range(g.n), key=key_of)
    x_of = _input_fn(inputs)
    outputs: dict[int, Any] = {}
    probes = 0
    for v in order:
        probes += 1
        kv = key_of(v)
        deps = sorted((w for w in g.neighbors(v) if key_of(w) < kv), key=key_of)
        outputs[v] = rule(v, x_of(v), [(w, outputs[w]) for w in deps])
    return EvalTrace(outputs, order, probes)
