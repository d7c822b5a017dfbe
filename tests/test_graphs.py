import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.graphs import (
    ITEM_LIMITS,
    BipartiteChoices,
    CnfFormula,
    Hypergraph,
    LocalGraph,
    dump_cnf,
    dump_hypergraph,
    gen_binomial,
    gen_bipartite_choices,
    gen_bounded_degree,
    gen_cnf,
    gen_hypergraph,
    line_graph,
    load_cnf,
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
        degrees = [len(g.neighbors(v)) for v in range(n)]
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
        assert f.clause_vars[0] == (0, 2)
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

    @pytest.mark.parametrize("caps", [[1.9, 0.9], [1.5, 1.5], [2.5, -0.5]])
    def test_fractional_capacities_are_refused_not_truncated(self, caps):
        # int() would read [1.9, 0.9] as a sum of 1 and [1.5, 1.5] as (1, 1)
        with pytest.raises(ValueError, match="^capacities must be whole numbers$"):
            gen_bipartite_choices(SEED, 2, 2, 1, "capacity", caps)
        with pytest.raises(ValueError, match="^capacities must be whole numbers$"):
            BipartiteChoices.from_choices(2, 2, 1, [(0,), (1,)], capacities=caps)

    def test_whole_float_capacities_are_ints(self):
        bc = BipartiteChoices.from_choices(2, 2, 1, [(0,), (1,)], capacities=[1.0, 1.0])
        assert bc.capacities == (1, 1) and all(type(c) is int for c in bc.capacities)

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


GRAPH_GRID = [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (7, 3), (30, 1), (30, 5), (200, 4)]
BINOMIAL_GRID = [(2, 0.5), (2, 1.5), (3, 1.0), (10, 2.5), (60, 3.0), (500, 5.0)]
CHOICE_GRID = [(0, 5, 2), (1, 1, 1), (7, 2, 3), (9, 3, 3), (40, 9, 1), (50, 10, 2), (200, 30, 3)]


def _assert_same_choices(bc):
    rebuilt = BipartiteChoices.from_choices(
        bc.n_balls, bc.m_bins, bc.d, bc.choices, bc.capacities, bc.group_of, bc.positions
    )
    assert rebuilt == bc
    # compare=False fields, so == above does not read them
    assert rebuilt.capacities_positive == bc.capacities_positive
    assert rebuilt.choices_follow_groups == bc.choices_follow_groups


class TestConstructionPaths:
    """Generators build their instances directly; validating the same data
    through from_edges / from_choices must give an equal instance."""

    @pytest.mark.parametrize("n, d", GRAPH_GRID, ids=str)
    def test_bounded_degree_equals_from_edges(self, n, d):
        g = gen_bounded_degree(derive_subseed(SEED, b"paths:bd:%d:%d" % (n, d)), n, d)
        assert LocalGraph.from_edges(g.n, g.edges()) == g
        lg, _ = line_graph(g)
        assert LocalGraph.from_edges(lg.n, lg.edges()) == lg

    @pytest.mark.parametrize("n, d", BINOMIAL_GRID, ids=str)
    def test_binomial_equals_from_edges(self, n, d):
        g = gen_binomial(derive_subseed(SEED, b"paths:bin:%d:%r" % (n, d)), n, d)
        assert LocalGraph.from_edges(g.n, g.edges()) == g
        lg, _ = line_graph(g)
        assert LocalGraph.from_edges(lg.n, lg.edges()) == lg

    def test_graph_grid_has_edges_that_share_endpoints(self):
        g = gen_bounded_degree(derive_subseed(SEED, b"paths:bd:30:5"), 30, 5)
        assert line_graph(g)[0].max_degree > 1

    @pytest.mark.parametrize(
        "scheme, params",
        [
            (s, p)
            for s in ("uniform", "grouped", "circle")
            for p in CHOICE_GRID
            if s != "grouped" or p[1] >= p[2]
        ],
        ids=str,
    )
    def test_schemes_equal_from_choices(self, scheme, params):
        tag = b"paths:%s:%d:%d:%d" % ((scheme.encode(),) + params)
        bc = gen_bipartite_choices(derive_subseed(SEED, tag), *params, scheme)
        _assert_same_choices(bc)
        assert bc.choices_follow_groups == (scheme == "grouped")

    @pytest.mark.parametrize("params", [p for p in CHOICE_GRID if p[0] > 0], ids=str)
    @pytest.mark.parametrize("gaps", [False, True], ids=["even", "gaps"])
    def test_capacity_scheme_equals_from_choices(self, params, gaps):
        n_balls, m_bins, _ = params
        caps = _even_capacities(n_balls, m_bins)
        if gaps:  # every odd bin has capacity 0 and must own no draw
            half = _even_capacities(n_balls, (m_bins + 1) // 2)
            caps = [0 if u % 2 else half[u // 2] for u in range(m_bins)]
        tag = b"paths:capacity:%d:%d:%d" % params
        bc = gen_bipartite_choices(derive_subseed(SEED, tag), *params, "capacity", caps)
        _assert_same_choices(bc)
        assert all(caps[u] > 0 for row in bc.choices for u in row)

    def test_choice_grid_repeats_bins_within_rows(self):
        bc = gen_bipartite_choices(derive_subseed(SEED, b"paths:uniform:7:2:3"), 7, 2, 3)
        assert any(len(set(row)) < len(row) for row in bc.choices)


class TestTextFormats:
    def test_hypergraph_roundtrip(self):
        h = gen_hypergraph(SEED, 40, 6, 4, 2)
        got = load_hypergraph(dump_hypergraph(h).splitlines())
        assert got.edges == h.edges and got.m == h.m

    def test_hypergraph_bad_header_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_hypergraph(["# comment", "hypergraf m=5"])

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

    def test_hypergraph_over_the_item_limit_is_refused(self, monkeypatch):
        monkeypatch.setitem(ITEM_LIMITS, "hypergraph", 3)
        assert load_hypergraph(["hypergraph m=3", "e 0 1", "e 1 2", "e 0 2"]).n == 3
        with pytest.raises(ValueError, match="vertices=4 is over the hypergraph limit of 3 items"):
            load_hypergraph(["hypergraph m=4"])
        with pytest.raises(ValueError, match="hyperedges=4 is over the hypergraph limit of 3"):
            load_hypergraph(["hypergraph m=3", "e 0 1", "e 1 2", "e 0 2", "e 0 1"])

    def test_cnf_over_the_item_limit_is_refused(self, monkeypatch):
        monkeypatch.setitem(ITEM_LIMITS, "cnf", 3)
        assert load_cnf(["p cnf 3 3", "1 2 0", "2 3 0", "-1 3 0"]).n == 3
        with pytest.raises(ValueError, match="variables=4 is over the cnf limit of 3 items"):
            load_cnf(["p cnf 4 0"])
        # the header is refused before any clause line is read
        with pytest.raises(ValueError, match="clauses=4 is over the cnf limit of 3 items"):
            load_cnf(["p cnf 3 4", "not a clause"])


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


def _graph_digest(g):
    return hashlib.sha256(repr((g.n, g.max_degree, g.adjacency)).encode()).hexdigest()


def _choices_digest(bc):
    fields = (
        bc.n_balls, bc.m_bins, bc.d, bc.choices, bc.bin_incidence, bc.capacities,
        bc.group_of, bc.positions, bc.capacities_positive, bc.choices_follow_groups,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _even_capacities(n_balls, m_bins):
    return [n_balls // m_bins + (i < n_balls % m_bins) for i in range(m_bins)]


BOUNDED_DEGREE_DIGESTS = {
    (1, 1): "d6f702b7c451e78dc2836fc44993b9b30a30063e29baa1886a44c794512edd04",
    (2, 1): "31ca40b7449d0e662cfe17674aef8eee2968fe2686ddc97428849ee29087c0bb",
    (3, 2): "fef09dbce354f0c9239b26a4a9738320ee5ac88fc2e04642bc54ff3e9e543426",
    (10, 3): "d93f16dae3b90a16c9ff28a6aaaf0919f65ce14fb4de3c86e4d0229e72de4823",
    (64, 1): "17f783150500f5e26f6bfe7a33c5bdb90ede7cbffb0e4169185e4a32b9a4ed4a",
    (100, 2): "0237b9939b7370cd46db0a5b4cdd5e361494669a156f372434ae69be3f85f0c8",
    (300, 3): "5c00b2af9fa08612f5b4b0375abe010bcab76dfc203334decde8b00e1a1618a1",
    (1000, 5): "06f4ad21881849fc3880c97085682d8aca98070dad685a850b591b2ae9ff3d2a",
}

BINOMIAL_DIGESTS = {
    (2, 0.5): "31ca40b7449d0e662cfe17674aef8eee2968fe2686ddc97428849ee29087c0bb",
    (3, 2.9): "fef09dbce354f0c9239b26a4a9738320ee5ac88fc2e04642bc54ff3e9e543426",
    (30, 1.0): "63278d7ed797d01b11c19973a2aaa364fd7490f1538144ce17f1669472237844",
    (100, 2.5): "c08478f1c3fecd29bdd83bc9fe8b877eae65e8f625ea2bd2d02f6c78632fe91b",
    (1000, 5.0): "5693f29f7b30ab3b8c192c96b2937da437d92c27d011e1cc302579cd12f60448",
}

# (n_balls, m_bins, d): no balls; one bin; three choices among two bins
# (every row repeats a bin); d = 1, 2, 3 at growing sizes.  The cases a
# scheme cannot build are pinned in CHOICE_BAD instead.
CHOICE_DIGESTS = {
    "uniform": {
        (0, 5, 2):
            "37c18a02e6a17321d5e50cf86e89336480829cf97d6474ac804fe2529bf3acfa",
        (1, 1, 1):
            "8af8053789adfd3a3dd69b79a217b897f1874bea34580fd13c283ce30639e093",
        (7, 2, 3):
            "e1f74ede4f8956fd6acc8a97209d812cf2236dfb83967e5c1ced319b0d2ae40a",
        (9, 3, 3):
            "76ba256d2c7916d6808168cbcc1379fd711ff328b0b6a740d7163a6d99487536",
        (40, 9, 1):
            "199bdd138cd3674775f5064a0a12c5a9ab43b81b24832e1208aace9c3fff5222",
        (50, 10, 2):
            "77556426c381ba1abe3a64902e7f2525b5e6f343ebe590c46f5ead7af255e5ab",
        (200, 30, 3):
            "9a896f9c6475349c1b35b2c223f5bcbd01f72bb4cde905b02434bae01aa290e1",
        (500, 500, 2):
            "ea4a6ee2e55eae4cb6b2bd07c6b49534058b07d900e1e9a2e06663b07fac24f5",
    },
    "grouped": {
        (0, 5, 2):
            "18deb7cee8f9c4e01c877c11208c7c4001a132c5831f10464d9540670e1083cd",
        (1, 1, 1):
            "fcccf32039f86c134f8af0ccd685684a6fe474f35981d30dc1e64acff9cd283c",
        (9, 3, 3):
            "8ffadd140900f7210a69a8e9e28c708aa92c91faf5167fe8019938d309a9c4bd",
        (40, 9, 1):
            "0d4c6194d1745e1cfa04949fefccd1d45e64f4b0b0bf80ce88b650528f2d620e",
        (50, 10, 2):
            "a22b120176bf92a256bd106728ab1b50249998fb30ae758a0e3ab4785dfc35a6",
        (200, 30, 3):
            "f88ecc2bc2c4f86e4b4d58afb97a32ed1e0e41aad06ce17f9f441bba952eb722",
        (500, 500, 2):
            "9c26af1cb0cb416e18d4612690ee8a3495054c56a8c42603bbcb4ea467354558",
    },
    "capacity": {
        (1, 1, 1):
            "2a548a165b27459fdae3707030d2a3f3623fcb2a9b61df502223c7915f2b5c2a",
        (7, 2, 3):
            "b9cedfb014ade854ac6ee8b6f13b81fe9a2f7e2a41111c45961cdf4ba9528c26",
        (9, 3, 3):
            "0f51145e0335527bae26ad968b1de2b0d45cdb53da5bd5172eab9c9762646f9a",
        (40, 9, 1):
            "9b8dd4ad4834d354cec88fbee7da9f2d18730a08ea0deb33c04d552e4b9fdc9a",
        (50, 10, 2):
            "9f3f2e23fec40fc27679f8c793ba91f88f050d66d80ced9451f5ff866c172ef6",
        (200, 30, 3):
            "656a8d66a38bc991d5df694bf68a51d97d5a5328f4b4f882604b2f817e5490ca",
        (500, 500, 2):
            "f3afef3685db7e6df2e00f684da5d67b692c2566a31c4d372c33e9ed5760f0b2",
    },
    "circle": {
        (0, 5, 2):
            "6489e3ce3fed36a258d2b45e64b94635f5f203bd901eb43952962080e6c788d1",
        (1, 1, 1):
            "8acc3b93893a222c0e85d3c9ea380342dff089dc40e363c8490dfaab9e2e3c72",
        (7, 2, 3):
            "33235d232fd18dffd021d0e5d01d3ecdb25efbcc6469171fbb36755d27a8c57c",
        (9, 3, 3):
            "f26e27ade7b3310d34e155782e35252701bb0461d3efd209e5b0d026e3aaf881",
        (40, 9, 1):
            "ce8e1e0b21a1d5305d03dc57567d9aa3bc8a4633f6cc577bc22dc02278d4961d",
        (50, 10, 2):
            "575e022c38c18743c47cd883346322a3eef7368e13966e247610746cfd8afc2e",
        (200, 30, 3):
            "2831a1ac069fe7f05b903f4eccd5d1bae28d16efb090d4416a3de548995f15e0",
        (500, 500, 2):
            "4d87769b1f6eaab7400fc2981e4ae3b669e97fded2c5c6a7052325f9d45e6428",
    },
}

CHOICE_BAD = [
    ((0, 5, 2, "capacity"), "capacities must cover every bin and sum to > 0"),
    ((7, 2, 3, "grouped"), "grouped sampling needs m_bins >= d (got 2 < 3)"),
    ((3, 4, 0, "uniform"), "need d >= 1, m_bins >= 1, n_balls >= 0"),
    ((3, 4, 2, "ring"), "unknown sampling scheme 'ring'"),
]

# Capacity vectors that a library caller may pass.  Each is rejected before any
# draw; a vector with several faults gets the first message in this order:
# length or total, then a negative value, then the sum.
CAPACITY_BAD = [
    ((2, 2, 1), [3, -1], "capacities must list one value >= 0 per bin"),
    ((2, 2, 1), [4, -1], "capacities must list one value >= 0 per bin"),
    ((2, 2, 1), [1, 2], "capacities sum to 3, expected n_balls=2"),
    ((2, 2, 1), [-1, 3, 0], "capacities must cover every bin and sum to > 0"),
    ((2, 2, 1), None, "capacity sampling needs a capacities vector"),
]

GRAPH_BAD = [
    (-1, []),
    (3, [(0, 1), (1, 3), (2, 2)]),
    (3, [(0, 1), (-1, 2)]),
    (3, [(0, 1), (2, 2), (1, 5)]),
    (3, [(0, 1), (1, 2), (1, 0), (0, 0)]),
    (3, [(0, 1), (2, 1), (1, 2)]),
]

GRAPH_MESSAGES = [
    "vertex count must be non-negative",
    "edge (1, 3) out of range for n=3",
    "edge (-1, 2) out of range for n=3",
    "self-loop at vertex 2",
    "duplicate edge (1, 0)",
    "duplicate edge (1, 2)",
]

BALLS_BAD = [
    (-1, 2, 1, []),
    (2, 2, 1, [(0,)]),
    (3, 2, 2, [(0, 1), (1,), (5, 1)]),
    (3, 2, 2, [(0, 1), (1, 2), (1, 0, 0)]),
    (3, 2, 2, [(0, 1), (1, 1), (-1, 0)]),
    (2, 2, 1, [(0,), (1,)], [1, 0, 1]),
    (2, 2, 1, [(0,), (1,)], [3, -1]),
    (2, 2, 1, [(0,), (1,)], [1, 2]),
    (2, 2, 1, [(0,), (1,)], None, [0]),
    (2, 2, 1, [(0,), (1,)], None, None, [0.5, 1.0]),
]

BALLS_MESSAGES = [
    "need n_balls >= 0, m_bins >= 1, d >= 1",
    "expected 2 choice rows, got 1",
    "ball 1 has 1 choices, expected 2",
    "ball 1 chose bin 2 out of range",
    "ball 2 chose bin -1 out of range",
    "capacities must list one value >= 0 per bin",
    "capacities must list one value >= 0 per bin",
    "capacities sum to 3, expected n_balls=2",
    "group_of must list one group per bin",
    "positions must list one point in [0, 1) per bin",
]


class TestStreamGeneratorPins:
    """Pinned output of every generator that draws from a RandomStream."""

    @pytest.mark.parametrize("params", sorted(BOUNDED_DEGREE_DIGESTS), ids=str)
    def test_pinned_bounded_degree(self, params):
        g = gen_bounded_degree(derive_subseed(SEED, b"pin:bounded:%d:%d" % params), *params)
        assert _graph_digest(g) == BOUNDED_DEGREE_DIGESTS[params]

    @pytest.mark.parametrize("params", sorted(BINOMIAL_DIGESTS), ids=str)
    def test_pinned_binomial(self, params):
        tag = b"pin:binomial:%d:%r" % (params[0], params[1])
        g = gen_binomial(derive_subseed(SEED, tag), *params)
        assert _graph_digest(g) == BINOMIAL_DIGESTS[params]

    @pytest.mark.parametrize(
        "scheme, params", [(s, p) for s in CHOICE_DIGESTS for p in CHOICE_DIGESTS[s]], ids=str
    )
    def test_pinned_choices(self, scheme, params):
        n_balls, m_bins, d = params
        caps = _even_capacities(n_balls, m_bins) if scheme == "capacity" else None
        tag = b"pin:%s:%d:%d:%d" % ((scheme.encode(),) + params)
        bc = gen_bipartite_choices(derive_subseed(SEED, tag), *params, scheme, capacities=caps)
        assert _choices_digest(bc) == CHOICE_DIGESTS[scheme][params]

    def test_repeated_choices_are_pinned(self):
        bc = gen_bipartite_choices(SEED, 7, 2, 3)
        assert all(len(set(row)) < 3 for row in bc.choices)
        assert sum(map(len, bc.bin_incidence)) < 7 * 3

    def test_pinned_choice_messages(self):
        calls = []
        for (n_balls, m_bins, d, scheme), _ in CHOICE_BAD:
            caps = _even_capacities(n_balls, m_bins) if scheme == "capacity" else None
            calls.append((SEED, n_balls, m_bins, d, scheme, caps))
        assert _messages(gen_bipartite_choices, calls) == [m for _, m in CHOICE_BAD]

    def test_pinned_capacity_messages(self):
        calls = [(SEED, *params, "capacity", caps) for params, caps, _ in CAPACITY_BAD]
        assert _messages(gen_bipartite_choices, calls) == [m for _, _, m in CAPACITY_BAD]

    def test_pinned_graph_messages(self):
        assert _messages(LocalGraph.from_edges, GRAPH_BAD) == GRAPH_MESSAGES

    def test_pinned_choices_messages(self):
        assert _messages(BipartiteChoices.from_choices, BALLS_BAD) == BALLS_MESSAGES
