import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.engine import eval_global, eval_local
from lcakit.exploration import TruncationError, explore
from lcakit.graphs import LocalGraph, gen_binomial, gen_bounded_degree, line_graph
from lcakit.ranks import (
    FullPseudorandom,
    KWiseIndependent,
    Seed,
    derive_subseed,
    next_prime,
    rank_key_fn,
)

SEED = Seed.from_hex("5eed" * 16)


def chain_rule(v, x, deps):
    """Longest strictly-decreasing-rank chain ending at v."""
    return 0 if not deps else 1 + max(o for _, o in deps)


def greedy_rule(v, x, deps):
    return not any(o for _, o in deps)


greedy_rule.stop = bool  # one matched lower neighbor decides


def input_rule(v, x, deps):
    return x


def sequence_rule(v, x, deps):
    """Reads deps through len, truthiness, iteration and both index kinds."""
    if not deps:
        return (0, None, ())
    return (len(deps), deps[-1][0], tuple(w for w, _ in deps[:2]), sum(o[0] for _, o in deps))


class TestEvalLocal:
    def test_rule_without_stop_decides_its_closure(self):
        g = gen_bounded_degree(SEED, 10, 3)
        inputs = {v: v % 2 for v in range(10)}
        for v in range(g.n):
            out, trace = eval_local(g, v, input_rule, SEED, inputs=inputs)
            assert out == v % 2
            closure = {w for w, _ in explore(g, v, SEED).members}
            assert sorted(trace.evaluation_order) == sorted(closure)
            assert trace.evaluation_order[-1] == v

    def test_two_vertex_chain_hand_case(self):
        g = LocalGraph.from_edges(2, [(0, 1)])
        key_of = rank_key_fn(SEED, FullPseudorandom(), 2)
        lo, hi = sorted((0, 1), key=key_of)
        assert eval_local(g, hi, chain_rule, SEED)[0] == 1
        assert eval_local(g, lo, chain_rule, SEED)[0] == 0

    def test_truncation_raises_with_stats(self):
        g = LocalGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for root in range(3):
            try:
                eval_local(g, root, chain_rule, SEED, cap=1)
            except TruncationError as exc:
                assert exc.probes >= 1
                return
        pytest.fail("a triangle always has one vertex with two lower neighbors")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            eval_local(LocalGraph.from_edges(2, [(0, 1)]), 5, chain_rule, SEED)

    def test_equals_global_everywhere(self):
        for i in range(40):
            gseed = derive_subseed(SEED, b"eq:%d" % i)
            n = 2 + i % 7
            if i % 2:
                g = gen_bounded_degree(gseed, n, 1 + i % 4)
            else:
                g = gen_binomial(gseed, n, min(1 + i % 4, n - 1))
            for j in range(5):
                rseed = derive_subseed(SEED, b"eqr:%d:%d" % (i, j))
                for rule in (chain_rule, greedy_rule):
                    trace = eval_global(g, rule, rseed)
                    for v in range(g.n):
                        assert eval_local(g, v, rule, rseed)[0] == trace.outputs[v]


    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 10),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
    )
    def test_capped_answers_equal_uncapped(self, tag, n, d, binomial, kwise):
        gseed = derive_subseed(SEED, b"cap:%d" % tag)
        if binomial:
            g = gen_binomial(gseed, n, min(d, n - 1))
        else:
            g = gen_bounded_degree(gseed, n, d)
        rseed = derive_subseed(SEED, b"capr:%d" % tag)
        kind = KWiseIndependent(4, next_prime(n + 1)) if kwise else FullPseudorandom()
        inputs = {v: v % 3 for v in range(n)}
        for rule in (chain_rule, greedy_rule, input_rule):
            want = eval_global(g, rule, rseed, kind, inputs=inputs).outputs
            for v in range(n):
                closure = explore(g, v, rseed, kind).size
                assert eval_local(g, v, rule, rseed, kind, inputs=inputs)[0] == want[v]
                for cap in range(1, closure + 1):
                    try:
                        out, _ = eval_local(g, v, rule, rseed, kind, cap, inputs)
                    except TruncationError:
                        assert cap < closure
                        continue
                    assert out == want[v]

    def test_sequence_rule_equals_global(self):
        g = gen_bounded_degree(SEED, 40, 5)
        want = eval_global(g, sequence_rule, SEED).outputs
        for v in range(g.n):
            assert eval_local(g, v, sequence_rule, SEED)[0] == want[v]

    def test_greedy_decides_within_closure(self):
        g = gen_bounded_degree(SEED, 60, 4)
        lg, _ = line_graph(g)
        fewer = 0
        for i in range(lg.n):
            _, trace = eval_local(lg, i, greedy_rule, SEED)
            closure = {w for w, _ in explore(lg, i, SEED).members}
            assert set(trace.evaluation_order) <= closure
            assert trace.probes == len(trace.evaluation_order) == len(trace.outputs)
            assert trace.evaluation_order[-1] == i
            fewer += len(trace.evaluation_order) < len(closure)
        assert fewer > 0

    def test_deps_end_at_the_first_stopping_output(self):
        seen = {}

        def spy(v, x, deps):
            seen[v] = deps
            return v % 4 == 0

        spy.stop = bool
        g = gen_bounded_degree(SEED, 40, 5)
        eval_global(g, spy, SEED)
        full, cut = dict(seen), 0
        for v in range(g.n):
            seen.clear()
            eval_local(g, v, spy, SEED)
            for w, deps in seen.items():
                outs = [o for _, o in full[w]]
                end = outs.index(True) + 1 if True in outs else len(outs)
                assert deps == full[w][:end]
                cut += end < len(outs)
        assert cut > 0

    def test_cap_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            eval_local(LocalGraph.from_edges(2, [(0, 1)]), 0, chain_rule, SEED, cap=0)


class TestEvalGlobal:
    def test_isolated_vertices_evaluate_independently(self):
        g = LocalGraph.from_edges(3, [])
        trace = eval_global(g, greedy_rule, SEED)
        assert trace.outputs == {0: True, 1: True, 2: True}
        assert trace.probes == 3

    def test_order_is_rank_ascending(self):
        g = gen_bounded_degree(SEED, 30, 3)
        key_of = rank_key_fn(SEED, FullPseudorandom(), 30)
        trace = eval_global(g, chain_rule, SEED)
        keys = [key_of(v) for v in trace.evaluation_order]
        assert keys == sorted(keys)

    def test_repeatable(self):
        g = gen_bounded_degree(SEED, 50, 4)
        a = eval_global(g, chain_rule, SEED)
        b = eval_global(g, chain_rule, SEED)
        assert a.outputs == b.outputs and a.evaluation_order == b.evaluation_order

    def test_deps_arrive_rank_ascending(self):
        seen = []

        def spy(v, x, deps):
            seen.append((v, [w for w, _ in deps]))
            return len(deps)

        g = gen_bounded_degree(SEED, 40, 5)
        key_of = rank_key_fn(SEED, FullPseudorandom(), 40)
        eval_global(g, spy, SEED)
        for v, dep_ids in seen:
            keys = [key_of(w) for w in dep_ids]
            assert keys == sorted(keys)
            assert all(k < key_of(v) for k in keys)


class TestRankMap:
    def test_line_graph_with_edge_ranks_matches_matching(self):
        from lcakit.matching import full_matching

        g = gen_bounded_degree(SEED, 60, 4)
        lg, edges = line_graph(g)
        # matching ranks an edge (u, v) by its packed id u * n + v
        edge_key = rank_key_fn(SEED, FullPseudorandom(), g.n * g.n)
        rank_map = lambda i: edge_key(edges[i][0] * g.n + edges[i][1])  # noqa: E731
        trace = eval_global(lg, greedy_rule, SEED, rank_map=rank_map)
        expected = full_matching(g, SEED)
        got = {edges[i] for i, out in trace.outputs.items() if out}
        assert got == set(expected)
        for i in range(lg.n):
            out, _ = eval_local(lg, i, greedy_rule, SEED, rank_map=rank_map)
            assert out == trace.outputs[i]


# sha256 of eval_local's EvalTrace on every vertex of small graphs and line
# graphs (the latter ranked by packed edge id, as matching ranks them), under
# the full and the k-wise ordering: each vertex's sorted outputs, decision
# order and probes, then at caps 1, 2, 3 and 5 either the probes of the
# truncation or the number of vertices decided.
TRACE_PINNED = {
    ("chain", "graph-full"): "e87a0869971704723d1385494ec2c754ab2d3662d74bc788743f9ca058581f1e",
    ("chain", "graph-kwise"): "57eec581657d016dca5d575bde86081ccd47bef2071e6b2bd5f6cab8ffe6856c",
    ("chain", "line-full"): "6297ede520d191447e4d3ab53658efe01f79c442a6d50aeb73a79c46f11ced94",
    ("chain", "line-kwise"): "09e03fa1a2b6ff33c443b0fcb2557167d06efd9079af5b13657ec1073e5575c4",
    ("greedy", "graph-full"): "91b871caab6dfb243370fb5be643d74e3e40a1b958666ba1c4ccca6afd6d30c7",
    ("greedy", "graph-kwise"): "92aa321d90933162fd8a5f71bc93f6c5d7eedd21f75313ea25f1d40c7f273a92",
    ("greedy", "line-full"): "e0e16d5ee88d9aeee075079d0180ac13022b5e93755d9e8669b69ec5c90c316e",
    ("greedy", "line-kwise"): "6c8bd24ffdf244b4c7990989d53ca154456241dc0d536d1791d11ca834a1b630",
}


def _pin_setting(setting):
    """(graph, ordering, rank_map) of one pinned setting."""
    shape, ordering = setting.split("-")
    g = gen_bounded_degree(derive_subseed(SEED, b"trace-pin:" + shape.encode()), 30, 4)
    kwise = ordering == "kwise"
    if shape == "graph":
        return g, KWiseIndependent(4, next_prime(g.n**3)) if kwise else FullPseudorandom(), None
    lg, edges = line_graph(g)
    universe = g.n * g.n
    kind = KWiseIndependent(4, next_prime(universe + 1)) if kwise else FullPseudorandom()
    edge_key = rank_key_fn(SEED, kind, universe)
    packed = [u * g.n + v for u, v in edges]
    return lg, kind, lambda i: edge_key(packed[i])


@pytest.mark.parametrize("name,setting", sorted(TRACE_PINNED))
def test_pinned_traces(name, setting):
    rule = {"chain": chain_rule, "greedy": greedy_rule}[name]
    g, kind, rank_map = _pin_setting(setting)
    digest = hashlib.sha256()
    for v in range(g.n):
        out, trace = eval_local(g, v, rule, SEED, kind, rank_map=rank_map)
        assert out == trace.outputs[v]
        outputs = sorted(trace.outputs.items())
        digest.update(b"%d %r %r %d\n" % (v, outputs, trace.evaluation_order, trace.probes))
        for cap in (1, 2, 3, 5):
            try:
                _, capped = eval_local(g, v, rule, SEED, kind, cap, rank_map=rank_map)
            except TruncationError as exc:
                digest.update(b"T %d %d\n" % (cap, exc.probes))
            else:
                digest.update(b"D %d %d\n" % (cap, len(capped.evaluation_order)))
    assert digest.hexdigest() == TRACE_PINNED[name, setting]
