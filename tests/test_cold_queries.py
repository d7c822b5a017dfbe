"""No cold query pays for the whole instance.

Each instance is copied, and every whole-instance tuple of the copy (rows
indexed by item id, and per-bin metadata) is swapped for a sequence that
can be indexed but not walked.  A cold query on the copy must answer as on
the original: it may read the rows of its own closure, never all of them.
"""

import copy
import dataclasses

import pytest

from lcakit.ballsbins import RULES, assign_query
from lcakit.coloring import color_query, sat_query
from lcakit.engine import eval_local
from lcakit.exploration import explore
from lcakit.graphs import (
    gen_bipartite_choices,
    gen_bounded_degree,
    gen_cnf,
    gen_hypergraph,
)
from lcakit.matching import is_matched
from lcakit.ranks import Seed

SEED = Seed.from_hex("5eed" * 16)


class _Unwalkable:
    """Indexable like the tuple it wraps; iterating it fails the test."""

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, i):
        return self._rows[i]

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        raise AssertionError("a cold query walked a whole-instance sequence")


def guarded(inst):
    """A copy of inst whose whole-instance tuples cannot be walked."""
    out = copy.copy(inst)
    for f in dataclasses.fields(inst):
        value = getattr(inst, f.name)
        if isinstance(value, tuple):
            object.__setattr__(out, f.name, _Unwalkable(value))
    return out


def greedy_rule(v, x, deps):
    return not any(o for _, o in deps)


def test_graph_queries_read_only_their_closure():
    g = gen_bounded_degree(SEED, 300, 4)
    cold = guarded(g)
    for u, v in g.edges()[:20]:
        assert is_matched(cold, (u, v), SEED) == is_matched(g, (u, v), SEED)
    for v in range(0, 300, 15):
        assert explore(cold, v, SEED) == explore(g, v, SEED)
        answer = eval_local(g, v, greedy_rule, SEED)[0]
        assert eval_local(cold, v, greedy_rule, SEED)[0] == answer


@pytest.mark.parametrize("name", sorted(RULES))
def test_ball_queries_read_only_their_closure(name):
    rule = RULES[name]
    bc = gen_bipartite_choices(SEED, 200, 100, 2, rule.scheme, capacities=[2] * 100)
    cold = guarded(bc)
    for ball in range(0, 200, 10):
        assert assign_query(cold, ball, rule, SEED) == assign_query(bc, ball, rule, SEED)


def test_coloring_queries_read_only_their_closure():
    h = gen_hypergraph(SEED, 800, 40, 40, 2)
    cold = guarded(h)
    for x in range(0, 800, 40):
        assert color_query(cold, x, SEED) == color_query(h, x, SEED)


def test_sat_queries_read_only_their_closure():
    f = gen_cnf(SEED, 800, 40, 40, 2)
    cold = guarded(f)
    for x in range(0, 800, 40):
        assert sat_query(cold, x, SEED) == sat_query(f, x, SEED)
