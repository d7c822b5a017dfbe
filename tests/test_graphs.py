import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.graphs import (
    BipartiteChoices,
    CnfFormula,
    Hypergraph,
    LocalGraph,
    dump_choices,
    dump_cnf,
    dump_graph,
    dump_hypergraph,
    gen_binomial,
    gen_bipartite_choices,
    gen_bounded_degree,
    gen_cnf,
    gen_hypergraph,
    line_graph,
    load_choices,
    load_cnf,
    load_graph,
    load_hypergraph,
    path_graph,
)
from lcakit.ranks import Seed, derive_subseed

SEED = Seed.from_hex("5eed" * 16)


class TestLocalGraph:
    def test_neighbors_sorted_and_symmetric(self):
        g = LocalGraph.from_edges(4, [(2, 0), (0, 1), (3, 0)])
        assert g.neighbors(0) == (1, 2, 3)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_isolated_vertex(self):
        g = LocalGraph.from_edges(3, [(0, 1)])
        assert g.neighbors(2) == ()

    def test_triangle(self):
        g = LocalGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.neighbors(0) == (1, 2)
        assert g.max_degree == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            LocalGraph.from_edges(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            LocalGraph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LocalGraph.from_edges(2, [(0, 2)])
        g = LocalGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.neighbors(5)

    def test_edges_canonical(self):
        g = LocalGraph.from_edges(4, [(3, 1), (2, 0)])
        assert g.edges() == ((0, 2), (1, 3))


class TestBoundedDegreeGenerator:
    def test_single_vertex(self):
        g = gen_bounded_degree(SEED, 1, 3)
        assert g.n == 1 and g.edge_count == 0

    def test_deterministic(self):
        a = gen_bounded_degree(SEED, 100, 4)
        b = gen_bounded_degree(SEED, 100, 4)
        assert a.adjacency == b.adjacency

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 6))
    def test_degree_cap_and_symmetry(self, tag, n, d):
        g = gen_bounded_degree(derive_subseed(SEED, b"bd:%d" % tag), n, d)
        assert g.max_degree <= d
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_mean_degree_near_d(self):
        g = gen_bounded_degree(SEED, 10**4, 5)
        mean = 2 * g.edge_count / g.n
        assert 5 / 2 <= mean <= 5


class TestBinomialGenerator:
    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            gen_binomial(SEED, 10, 10)
        with pytest.raises(ValueError):
            gen_binomial(SEED, 10, 0)

    def test_mean_and_variance(self):
        n, d = 10**4, 3
        g = gen_binomial(SEED, n, d)
        degrees = [g.degree(v) for v in range(n)]
        mean = sum(degrees) / n
        var = sum((x - mean) ** 2 for x in degrees) / n
        assert abs(mean - d) / d < 0.05
        assert abs(var - d * (1 - d / n)) / (d * (1 - d / n)) < 0.10

    def test_deterministic(self):
        assert gen_binomial(SEED, 500, 3).adjacency == gen_binomial(SEED, 500, 3).adjacency


class TestHypergraph:
    def test_incidence_is_exact_transpose(self):
        h = Hypergraph.from_edges(6, [(0, 1, 2), (2, 3, 4)])
        for v in range(6):
            for e in h.edges_of(v):
                assert v in h.vertices_of(e)
        for e in range(h.n):
            for v in h.vertices_of(e):
                assert e in h.edges_of(v)

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(6, [(0, 1, 2), (3, 4)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(6, [(0, 1, 1)])

    def test_single_edge_dependency_zero(self):
        h = gen_hypergraph(SEED, 20, 1, 5, 2)
        assert h.n == 1 and h.dependency_degree == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(2, 8), st.integers(0, 4))
    def test_generated_respects_dependency_bound(self, tag, n, k, d):
        m = n * k  # always feasible
        h = gen_hypergraph(derive_subseed(SEED, b"hg:%d" % tag), m, n, k, d)
        assert h.dependency_degree <= d
        assert all(len(e) == k for e in h.edges)

    def test_tight_budget_instance(self):
        h = gen_hypergraph(SEED, 2000, 200, 20, 2)
        assert h.n == 200 and h.k == 20 and h.dependency_degree <= 2

    def test_infeasible_raises_with_diagnostic(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_hypergraph(SEED, 50, 40, 20, 2)

    def test_deterministic(self):
        a = gen_hypergraph(SEED, 100, 10, 5, 2)
        b = gen_hypergraph(SEED, 100, 10, 5, 2)
        assert a.edges == b.edges


class TestCnf:
    def test_generated_structure(self):
        f = gen_cnf(SEED, 800, 40, 40, 2)
        assert f.n == 40 and f.k == 40
        assert f.dependency_degree <= 2
        for clause in f.clauses:
            assert len({v for v, _ in clause}) == 40

    def test_polarities_vary(self):
        f = gen_cnf(SEED, 100, 10, 5, 2)
        signs = {s for clause in f.clauses for _, s in clause}
        assert signs == {True, False}

    def test_vars_of_clauses_of(self):
        f = CnfFormula.from_clauses(3, [[(0, True), (2, False)]])
        assert f.vars_of(0) == (0, 2)
        assert f.clauses_of(2) == (0,)
        assert f.clauses_of(1) == ()


class TestBipartiteChoices:
    def test_every_ball_has_d_choices(self):
        bc = gen_bipartite_choices(SEED, 50, 20, 3)
        assert all(len(row) == 3 for row in bc.choices)

    def test_d_one(self):
        bc = gen_bipartite_choices(SEED, 10, 5, 1)
        assert all(len(row) == 1 for row in bc.choices)

    def test_incidence_transpose(self):
        bc = gen_bipartite_choices(SEED, 100, 30, 2)
        for ball, row in enumerate(bc.choices):
            for u in row:
                assert ball in bc.choosers_of(u)

    def test_uniform_in_degree_mean(self):
        n = m = 10**4
        bc = gen_bipartite_choices(SEED, n, m, 2)
        mean = sum(len(bc.choosers_of(u)) for u in range(m)) / m
        # choosers lists are deduplicated per ball, so allow the tiny deficit
        assert abs(mean - n * 2 / m) / (n * 2 / m) < 0.05

    def test_grouped_ith_choice_in_group_i(self):
        bc = gen_bipartite_choices(SEED, 200, 30, 3, "grouped")
        for row in bc.choices:
            for i, u in enumerate(row):
                assert bc.group_of[u] == i

    def test_grouped_needs_enough_bins(self):
        with pytest.raises(ValueError, match="m_bins >= d"):
            gen_bipartite_choices(SEED, 10, 2, 3, "grouped")

    def test_capacity_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            BipartiteChoices.from_choices(3, 2, 1, [(0,), (1,), (0,)], capacities=[1, 1])

    def test_capacity_scheme_prefers_large_bins(self):
        caps = [9996] + [1] * 4
        bc = gen_bipartite_choices(SEED, 10**4, 5, 1, "capacity", capacities=caps)
        share = sum(1 for row in bc.choices if row[0] == 0) / 10**4
        assert share > 0.99

    def test_circle_positions_present(self):
        bc = gen_bipartite_choices(SEED, 20, 10, 2, "circle")
        assert bc.positions is not None and len(bc.positions) == 10

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown"):
            gen_bipartite_choices(SEED, 5, 5, 1, "bogus")


class TestLineGraph:
    def test_path(self):
        lg, edges = line_graph(path_graph(4))
        assert edges == ((0, 1), (1, 2), (2, 3))
        assert lg.neighbors(0) == (1,)
        assert lg.neighbors(1) == (0, 2)

    def test_adjacency_iff_shared_endpoint(self):
        g = gen_bounded_degree(SEED, 30, 4)
        lg, edges = line_graph(g)
        for i in range(lg.n):
            for j in range(i + 1, lg.n):
                shares = bool(set(edges[i]) & set(edges[j]))
                assert (j in lg.neighbors(i)) == shares


class TestTextFormats:
    def test_graph_roundtrip(self):
        g = gen_bounded_degree(SEED, 20, 3)
        assert load_graph(dump_graph(g).splitlines()).adjacency == g.adjacency

    def test_graph_bad_header_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_graph(["# comment", "graf n=3"])

    def test_graph_bad_edge_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            load_graph(["graph n=3", "0 1", "0 x"])

    def test_graph_invariants_checked_on_load(self):
        with pytest.raises(ValueError, match="self-loop"):
            load_graph(["graph n=3", "1 1"])

    def test_hypergraph_roundtrip(self):
        h = gen_hypergraph(SEED, 40, 6, 4, 2)
        got = load_hypergraph(dump_hypergraph(h).splitlines())
        assert got.edges == h.edges and got.m == h.m

    def test_hypergraph_bad_record(self):
        with pytest.raises(ValueError, match="line 2"):
            load_hypergraph(["hypergraph m=5", "0 1 2"])

    def test_cnf_roundtrip(self):
        f = gen_cnf(SEED, 30, 5, 4, 2)
        got = load_cnf(dump_cnf(f).splitlines())
        assert got.clauses == f.clauses

    def test_cnf_dimacs_comments(self):
        f = load_cnf(["c a comment", "p cnf 2 1", "1 -2 0"])
        assert f.clauses == (((0, True), (1, False)),)

    def test_cnf_missing_terminator(self):
        with pytest.raises(ValueError, match="line 2"):
            load_cnf(["p cnf 2 1", "1 -2"])

    def test_choices_roundtrip(self):
        bc = gen_bipartite_choices(SEED, 8, 5, 2)
        got = load_choices(dump_choices(bc).splitlines())
        assert got.choices == bc.choices

    def test_choices_must_cover_all_balls(self):
        with pytest.raises(ValueError, match="cover"):
            load_choices(["choices n=2 m=3 d=1", "0 1"])

    def test_choices_duplicate_ball(self):
        with pytest.raises(ValueError, match="line 3"):
            load_choices(["choices n=2 m=3 d=1", "0 1", "0 2"])


# Digests of generated hypergraphs and CNFs (edges or clauses with their
# polarities, plus k and the dependency degree), so a refactor of the shared
# sunflower construction cannot move any instance unnoticed.
GENERATOR_CASES = [
    (800, 40, 40, 2),
    (200, 10, 40, 2),
    (1000, 100, 8, 5),
    (100, 10, 10, 0),  # d = 0: singleton clusters, every vertex used
    (30, 7, 4, 0),
    (2000, 200, 20, 2),
    (70, 30, 5, 2),  # tight: the core needs k - 1 vertices
    (12, 9, 2, 3),
]

GENERATOR_DIGESTS = {
    (800, 40, 40, 2): (
        "85af337473bb8c415127b4830571228c5278dc639c1cf60df537a34901cf6e96",
        "cc35b21bf1f212cc7373dca2afb5c6e2e43bd1ccfd6f2beea852b45ef484f8b4",
    ),
    (200, 10, 40, 2): (
        "e9b44aa4231f3a9a40f733439b40fac7513204fb4be41463ba381e6278fe9414",
        "f2b7174c0e7830e109bb26600b5e2ee8fb44eea8ccfbed1797218e2d49ecca4f",
    ),
    (1000, 100, 8, 5): (
        "8152409cec5b76c8c53bd93be954cea14af7104a8a7da8979caac16a189d325b",
        "9d808da7bae76182e4be4b9ace91d309a7674fb0d58b08e94de75caf53663741",
    ),
    (100, 10, 10, 0): (
        "3f4ea0c2935a66d63e1d88c182f646f0d5bf02dcaf4608d1bb0a22fbf058c326",
        "b7bbdcdea7f99e26e3e223862c96405809317165b5498dae772ac0ef7c0d9b32",
    ),
    (30, 7, 4, 0): (
        "b37531871b4ec6722a57b3752724452059d1b95e11f3648826ffff86caca602f",
        "af703be9d176d83b83d12fb02681e31f11b815608d3b0157df4f0dd28761f1ef",
    ),
    (2000, 200, 20, 2): (
        "ce74c6b8971cf032709ba9b4a02db50765b48e56e9b6c37fca42767b19c96217",
        "0a275bc6a209a110b20170ec1b363017e27e3241efc76a7603e7efccd60446c2",
    ),
    (70, 30, 5, 2): (
        "784cd9a403eb40105498ecefd783546fd299f5cde21c24c7e9e7a49c61060c64",
        "081215fe48e332f9977fa5b89de0859bd32440bcebb6cd0f86510637fe1aa3c0",
    ),
    (12, 9, 2, 3): (
        "5671d7a3fbabd22cec1933939883ca0a9ded7c03074d4331c212239afe5ee039",
        "37a13876a19221e92f17bba9ef649110f7e36bfa06c1d87379e9a6976e73818a",
    ),
}


def _instance_digest(inst):
    body = inst.edges if isinstance(inst, Hypergraph) else inst.clauses
    return hashlib.sha256(repr((inst.k, inst.dependency_degree, body)).encode()).hexdigest()


def _messages(fn, calls):
    out = []
    for args in calls:
        with pytest.raises(ValueError) as info:
            fn(*args)
        out.append(str(info.value))
    return out


GEN_INFEASIBLE = [
    (10, 3, 1, 2),
    (10, 0, 3, 2),
    (2, 1, 3, 2),
    (10, 2, 3, -1),
    (20, 5, 5, 0),
    (69, 30, 5, 2),
    (50, 40, 20, 2),
]

GEN_MESSAGES = [
    "need k >= 2",
    "need n >= 1, m >= k, d >= 0",
    "need n >= 1, m >= k, d >= 0",
    "need n >= 1, m >= k, d >= 0",
    "infeasible: 5 disjoint edges of size 5 need 25 vertices but only 20 are "
    "available (d=0 allows no overlap)",
    "infeasible: even with maximal overlap, 30 edges of size 5 with dependency "
    "degree 2 need 70 vertices; m=69 given",
    "infeasible: even with maximal overlap, 40 edges of size 20 with dependency "
    "degree 2 need 306 vertices; m=50 given",
]

HYPERGRAPH_BAD = [
    (-1, [(0, 1)]),
    (6, [(0,)]),
    (6, [(0, 1, 2), (3, 4)]),
    (6, [(0, 1, 2), (3, 3, 9)]),
    (6, [(0, 1, 2), (3, 4, 6)]),
    (6, [(0, 1, 2), (-1, 4, 5)]),
    (6, [(0, 1, 2), (3, 4, 6), (1, 1)]),
]

HYPERGRAPH_MESSAGES = [
    "vertex count must be non-negative",
    "hyperedges need at least 2 vertices",
    "edge 1 has 2 vertices, expected 3",
    "edge 1 repeats a vertex",
    "edge 1 out of range for m=6",
    "edge 1 out of range for m=6",
    "edge 1 out of range for m=6",
]

CNF_BAD = [
    (-1, [[(0, True)]]),
    (6, [[]]),
    (6, [[(0, True), (1, False)], [(2, True)]]),
    (6, [[(0, True), (1, False)], [(2, True), (2, False)]]),
    (6, [[(0, True), (1, False)], [(2, True), (6, False)]]),
    (6, [[(0, True), (1, False)], [(-1, True), (3, False)], [(4, True)]]),
]

CNF_MESSAGES = [
    "variable count must be non-negative",
    "clauses must be non-empty",
    "clause 1 has 1 literals, expected 2",
    "clause 1 repeats a variable",
    "clause 1 out of range for m=6",
    "clause 1 out of range for m=6",
]


class TestGeneratorPins:
    @pytest.mark.parametrize("params", GENERATOR_CASES, ids=str)
    def test_pinned_instances(self, params):
        tag = b"pin:%d:%d:%d:%d" % params
        h = gen_hypergraph(derive_subseed(SEED, tag), *params)
        f = gen_cnf(derive_subseed(SEED, tag), *params)
        assert (_instance_digest(h), _instance_digest(f)) == GENERATOR_DIGESTS[params]

    def test_pinned_generator_messages(self):
        for gen in (gen_hypergraph, gen_cnf):
            calls = [(SEED,) + args for args in GEN_INFEASIBLE]
            assert _messages(gen, calls) == GEN_MESSAGES

    def test_pinned_validation_messages(self):
        assert _messages(Hypergraph.from_edges, HYPERGRAPH_BAD) == HYPERGRAPH_MESSAGES
        assert _messages(CnfFormula.from_clauses, CNF_BAD) == CNF_MESSAGES
