import hashlib
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.exploration import (
    Binomial,
    GwTreeSample,
    Regular,
    TreeStatsSpec,
    _binomial_draw,
    _closure,
    explore,
    explore_sizes,
    gw_sizes,
    ilog2ceil,
    lower_bound_experiment,
    sample_gw_tree,
    stats_from_sizes,
    tail_slope,
)
from lcakit.graphs import (
    LocalGraph,
    gen_bounded_degree,
    path_graph,
)
from lcakit.ranks import (
    FullPseudorandom,
    RandomStream,
    Seed,
    derive_subseed,
    rank_key_fn,
)

SEED_HEX = "5eed" * 16
SEED = Seed.from_hex(SEED_HEX)


def closure_oracle(g, root, key_of):
    """Independent fixed-point computation of the decreasing-rank closure."""
    members = {root}
    changed = True
    while changed:
        changed = False
        for v in list(members):
            for w in g.neighbors(v):
                if w not in members and key_of(w) < key_of(v):
                    members.add(w)
                    changed = True
    return members


class TestExplore:
    def test_isolated_root(self):
        g = LocalGraph.from_edges(3, [(1, 2)])
        rs = explore(g, 0, SEED)
        assert tuple(v for v, _ in rs.members) == (0,)
        assert not rs.truncated
        assert rs.probes == 1

    def test_single_edge_rule_both_directions(self):
        g = LocalGraph.from_edges(2, [(0, 1)])
        key_of = rank_key_fn(SEED, FullPseudorandom(), 2)
        lo, hi = sorted((0, 1), key=key_of)
        assert tuple(v for v, _ in explore(g, hi, SEED).members) == tuple(sorted((lo, hi)))
        assert tuple(v for v, _ in explore(g, lo, SEED).members) == (lo,)

    def test_descending_path_includes_everything(self):
        # find a seed whose ranks strictly decrease along a 3-path
        g = path_graph(3)
        for i in range(1000):
            s = derive_subseed(SEED, b"desc:%d" % i)
            key_of = rank_key_fn(s, FullPseudorandom(), 3)
            if key_of(0) > key_of(1) > key_of(2):
                rs = explore(g, 0, s)
                assert {v for v, _ in rs.members} == {0, 1, 2}
                return
        pytest.fail("no witness seed found")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.integers(1, 4))
    def test_matches_fixed_point_oracle(self, tag, n, d):
        g = gen_bounded_degree(derive_subseed(SEED, b"g:%d" % tag), n, d)
        s = derive_subseed(SEED, b"r:%d" % tag)
        key_of = rank_key_fn(s, FullPseudorandom(), n)
        for root in range(g.n):
            rs = explore(g, root, s)
            assert {v for v, _ in rs.members} == closure_oracle(g, root, key_of)

    def test_members_sorted_ascending_by_rank(self):
        g = gen_bounded_degree(SEED, 50, 4)
        rs = explore(g, 0, SEED)
        keys = [(r.value, r.owner) for _, r in rs.members]
        assert keys == sorted(keys)

    def test_closure_soundness(self):
        # every non-root member has an in-set neighbor of strictly greater rank
        g = gen_bounded_degree(SEED, 80, 5)
        for root in range(0, 80, 7):
            rs = explore(g, root, SEED)
            ranks = dict(rs.members)
            for v, rank in rs.members:
                if v == root:
                    continue
                assert any(
                    w in ranks and ranks[w] > rank for w in g.neighbors(v)
                )

    def test_cap_monotonicity(self):
        g = gen_bounded_degree(SEED, 200, 5)
        for root in range(0, 200, 11):
            full = explore(g, root, SEED)
            if full.size < 3:
                continue
            small = explore(g, root, SEED, cap=2)
            assert small.truncated
            assert {v for v, _ in small.members} <= {v for v, _ in full.members}
            bigger = explore(g, root, SEED, cap=full.size)
            assert {v for v, _ in small.members} <= {v for v, _ in bigger.members}

    def test_determinism(self):
        g = gen_bounded_degree(SEED, 100, 4)
        assert explore(g, 3, SEED) == explore(g, 3, SEED)

    def test_kwise_ordering_matches_oracle_too(self):
        from lcakit.ranks import KWiseIndependent

        kind = KWiseIndependent(6, 1009)
        g = gen_bounded_degree(SEED, 30, 3)
        key_of = rank_key_fn(SEED, kind, 30)
        for root in range(0, 30, 5):
            rs = explore(g, root, SEED, kind)
            assert {v for v, _ in rs.members} == closure_oracle(g, root, key_of)

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            explore(path_graph(3), 5, SEED)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            explore(path_graph(3), 0, SEED, cap=0)


class TestClosureKeying:
    def test_keys_each_item_once_per_visit_and_never_a_member_again(self):
        # root 0 (key 100) reaches 1 (20) and 2 (90); 3 (50) is rejected
        # from 1 and joins from 2; 4 (200) is rejected from 0 and from 2
        g = LocalGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (2, 4)])
        keys = {0: 100, 1: 20, 2: 90, 3: 50, 4: 200}
        calls = Counter()

        def key_of(v):
            calls[v] += 1
            return keys[v]

        members, scans, truncated = _closure(g.neighbors, 0, key_of, 10)
        # the root once, then once per visit of a non-member: no key at a
        # pop, at a member neighbor, or in a sort
        assert calls == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2}
        assert members == {0: 100, 1: 20, 2: 90, 3: 50}
        assert (scans, truncated) == (4, False)


class TestLowerBoundExperiment:
    def test_two_vertex_path_near_half(self):
        freq = lower_bound_experiment(2, 10**4, Seed.from_hex(SEED_HEX))
        assert abs(freq - 0.5) <= 3 * (0.25 / 10**4) ** 0.5

    def test_validates_inputs(self):
        seed = Seed.from_hex(SEED_HEX)
        with pytest.raises(ValueError):
            lower_bound_experiment(1, 10, seed)
        with pytest.raises(ValueError):
            lower_bound_experiment(3, 0, seed)


class TestGwSampler:
    def test_zero_offspring_probability(self):
        sample = sample_gw_tree(SEED, Binomial(100, 0.0))
        assert sample == GwTreeSample(size=1, depth=0, extinct=True)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            sample_gw_tree(SEED, Regular(3, 3))
        with pytest.raises(ValueError, match="subcritical"):
            sample_gw_tree(SEED, Binomial(10, 0.2))

    def test_regular_mean_total_progeny(self):
        samples = gw_sizes(SEED, Regular(3, 9), range(10**4))
        mean = sum(s.size for s in samples) / len(samples)
        assert abs(mean - 1.5) / 1.5 < 0.05
        assert all(s.extinct for s in samples)

    def test_binomial_mean_total_progeny(self):
        samples = gw_sizes(SEED, Binomial(10**4, 3 / (9 * 10**4)), range(10**4))
        mean = sum(s.size for s in samples) / len(samples)
        assert abs(mean - 1.5) / 1.5 < 0.05

    def test_deterministic(self):
        assert sample_gw_tree(SEED, Regular(3, 9)) == sample_gw_tree(SEED, Regular(3, 9))

    def test_cap_reports_not_extinct(self):
        # with cap=1 any tree that spawns a child reports non-extinction
        found = False
        for i in range(50):
            s = derive_subseed(SEED, b"cap:%d" % i)
            sample = sample_gw_tree(s, Regular(3, 4), cap=1)
            assert sample.size == 1
            if not sample.extinct:
                found = True
        assert found

    def test_binomial_draw_moments(self):
        stream = RandomStream(SEED, b"bin")
        n, q, trials = 50, 0.1, 20000
        draws = [_binomial_draw(stream, n, q) for _ in range(trials)]
        mean = sum(draws) / trials
        var = sum((x - mean) ** 2 for x in draws) / trials
        assert abs(mean - n * q) < 0.1
        assert abs(var - n * q * (1 - q)) < 0.2


def _tree_stats(spec):
    sizes, truncated = explore_sizes(spec, SEED)
    return stats_from_sizes(sizes, truncated=truncated)


class TestTreeStats:
    def test_single_isolated_vertex(self):
        spec = TreeStatsSpec("bounded", 1, 1, instances=1, queries_per_instance=1)
        ts = _tree_stats(spec)
        assert ts["histogram"] == [[1, 1]]
        assert ts["mean"] == 1.0 and ts["max"] == 1

    def test_histogram_mass_equals_trials(self):
        spec = TreeStatsSpec("bounded", 64, 3, instances=2, queries_per_instance=40)
        ts = _tree_stats(spec)
        assert sum(c for _, c in ts["histogram"]) == ts["trials"] == 80

    def test_histogram_is_ascending(self):
        ts = stats_from_sizes([3, 1, 4, 1, 2], truncated=2)
        assert ts == {
            "trials": 5,
            "mean": 2.2,
            "max": 4,
            "histogram": [[1, 2], [2, 1], [3, 1], [4, 1]],
            "tail": [],
            "truncated_trials": 2,
        }

    def test_tail_exceedance(self):
        ts = stats_from_sizes([1, 2, 3, 4], thresholds=(2, 4))
        assert ts["tail"] == [[2, 0.5], [4, 0.0]]

    def test_deterministic_dict(self):
        spec = TreeStatsSpec("binomial", 64, 3, instances=2, queries_per_instance=20)
        assert _tree_stats(spec) == _tree_stats(spec)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            explore_sizes(TreeStatsSpec("bogus", 8, 2), SEED)

    def test_sizes_are_explore_sizes_where_the_cap_cuts(self):
        # explore_sizes walks without building a RelevantSet; each trial's size
        # and truncation must still be those of explore on the same trial
        spec = TreeStatsSpec("bounded", 200, 5, instances=1, queries_per_instance=40, cap=3)
        sizes, truncated = explore_sizes(spec, SEED)
        g = gen_bounded_degree(derive_subseed(SEED, b"instance:0"), 200, 5)
        roots = RandomStream(derive_subseed(SEED, b"roots:0"), b"root")._randranges([200] * 40)
        want = [
            explore(g, root, derive_subseed(SEED, b"order:0:%d" % q), cap=3)
            for q, root in enumerate(roots)
        ]
        assert sizes == [rs.size for rs in want]
        assert truncated == sum(rs.truncated for rs in want) > 0


class TestTailSlope:
    def test_exact_geometric_decay(self):
        # sizes with Pr[size >= s] halving each step fit slope -1 exactly
        sizes = []
        for s, count in enumerate([64, 32, 16, 8, 4, 2, 1], start=1):
            sizes.extend([s] * (count - (count // 2 if s < 7 else 0)))
        slope = tail_slope(sizes, 1, 7)
        assert slope < -0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tail_slope([1, 1, 1], 5, 30)


class TestIlog2Ceil:
    def test_values(self):
        assert ilog2ceil(1) == 1
        assert ilog2ceil(2) == 1
        assert ilog2ceil(3) == 2
        assert ilog2ceil(40) == 6
        assert ilog2ceil(1024) == 10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ilog2ceil(0)


class TestPathClosureProbability:
    def test_two_vertex_half(self):
        g = path_graph(2)
        trials = 10**4
        hits = sum(
            explore(g, 0, derive_subseed(SEED, b"p2:%d" % t)).size == 2
            for t in range(trials)
        )
        se = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) <= 3 * se


# (spec, cap) -> (total size, extinct count, sha256 of the samples) over 200
# trees: both offspring specs, the draw-free specs, and caps that are hit.
GW_PINS = [
    (Regular(3, 4), 1 << 20, 832, 200,
     "3f904d02137de87704fdee6e9e12ef586cf1badbeb314140aea669fffe2a07bf"),
    (Regular(2, 3), 1 << 20, 618, 200,
     "cf4f562b2587d5bace0d720e4a30eec60741d1eb4f9a6c24b627c5fbc15e23a1"),
    (Regular(0, 1), 1 << 20, 200, 200,
     "8c54fb4174f7e8a0ac073cca829b9400eb4e5f417513a4bc761fc40c6d1ee0c4"),
    (Regular(4, 5), 40, 1004, 198,
     "f032d64247f8e44f1d9aee8a8571965529c53436040512e10748e29004878328"),
    (Binomial(4, 0.2), 1 << 20, 1277, 200,
     "1a38bf874e0208bceea7d113c164b425332b85ca96fcc086af0701bacc75bb59"),
    (Binomial(10, 0.09), 1 << 20, 2864, 200,
     "e264793ab89d54584bae15975d103a5374655c0cb469f4b383ce9568fe42c0d2"),
    (Binomial(60, 0.016), 30, 1545, 172,
     "efbaffe56e38cbb08562cf3c3d1bf5aa042dba9f319e1b5dc2e82af30892e97c"),
    (Binomial(0, 0.5), 1 << 20, 200, 200,
     "8c54fb4174f7e8a0ac073cca829b9400eb4e5f417513a4bc761fc40c6d1ee0c4"),
    (Binomial(3, 0.0), 1 << 20, 200, 200,
     "8c54fb4174f7e8a0ac073cca829b9400eb4e5f417513a4bc761fc40c6d1ee0c4"),
]

# generator -> (size sum, truncations, sha256 of the sizes) of explore_sizes.
EXPLORE_PINS = {
    "bounded": (405, 0, "17a234370cd2c1b805fdbf951d50308faf50f7cd88d146384e40937f22788f28"),
    "binomial": (435, 0, "55d5e63a9d94a7dd5475f69d2b2f34f7c1378347390e5ac3269678fdbcb282d5"),
}


class TestStreamConsumerPins:
    @pytest.mark.parametrize("spec, cap, total, extinct, digest", GW_PINS, ids=str)
    def test_pinned_gw_samples(self, spec, cap, total, extinct, digest):
        samples = gw_sizes(SEED, spec, range(200), cap)
        assert sum(s.size for s in samples) == total
        assert sum(s.extinct for s in samples) == extinct
        assert hashlib.sha256(repr(samples).encode()).hexdigest() == digest

    @pytest.mark.parametrize("generator", sorted(EXPLORE_PINS))
    def test_pinned_explore_sizes(self, generator):
        spec = TreeStatsSpec(generator, 200, 3, instances=3, queries_per_instance=30, cap=64)
        sizes, truncated = explore_sizes(spec, SEED)
        digest = hashlib.sha256(repr(sizes).encode()).hexdigest()
        assert (sum(sizes), truncated, digest) == EXPLORE_PINS[generator]
