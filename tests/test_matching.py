import hashlib
from bisect import bisect_left, bisect_right
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.exploration import TruncationError
from lcakit.graphs import LocalGraph, gen_bounded_degree, path_graph
from lcakit.matching import (
    MatchVerdict,
    all_verdicts,
    canonical_edge,
    full_matching,
    greedy_by_rank,
    is_matched,
    verify_maximal,
)
from lcakit.ranks import (
    FullPseudorandom,
    KWiseIndependent,
    Seed,
    derive_subseed,
    next_prime,
    rank_key_fn,
    rank_keys,
)

SEED = Seed.from_hex("5eed" * 16)


def edge_key_fn(g, seed):
    """Rank key of a canonical edge: the rank of its packed id u * n + v."""
    key_of = rank_key_fn(seed, FullPseudorandom(), g.n * g.n)
    return lambda e: key_of(e[0] * g.n + e[1])


def greedy_oracle(edges_by_rank):
    """Plain sequential greedy over an explicit arrival order."""
    used = set()
    matched = set()
    for u, v in edges_by_rank:
        if u not in used and v not in used:
            used.update((u, v))
            matched.add((u, v))
    return matched


def full_matching_by_lower_lists(g, seed, kind=FullPseudorandom(), cap=1 << 20):
    """Slow reference for full_matching: each edge builds the sorted list of
    its lower-ranked neighbors' keys from the two prefixes below its key at
    its endpoints, and pops the known-unmatched ones off its low end."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.n
    nn = n * n
    higher = [nbrs[bisect_right(nbrs, u) :] for u, nbrs in enumerate(g.adjacency)]
    ids = [u * n + v for u, vs in enumerate(higher) for v in vs]  # g.edges() order
    roots = rank_keys(seed, kind, ids, nn)
    at: list[list[int]] = [[] for _ in range(n)]  # keys of u's edges, ascending
    i = 0
    for u, vs in enumerate(higher):
        mine = roots[i : i + len(vs)]
        i += len(vs)
        at[u] += mine
        for v, k in zip(vs, mine):
            at[v].append(k)
    for ks in at:
        ks.sort()
    matched: dict[int, bool] = {}  # key -> verdict
    get = matched.get

    def lower(k: int) -> list[int]:
        """Keys of k's lower-ranked neighbors, highest first, so pop() is lowest:
        the keys below k at its two endpoints."""
        a, b = at[k % nn // n], at[k % n]
        lows = a[: bisect_left(a, k)]
        lows += b[: bisect_left(b, k)]
        lows.sort(reverse=True)
        return lows

    for root in roots:
        if root in matched:
            continue
        stack = [(root, lower(root))]
        fresh = 1  # undecided edges this query has needed, itself included
        while stack:
            k, lows = stack[-1]
            while lows and get(lows[-1]) is False:
                lows.pop()
            if lows and lows[-1] not in matched:
                if fresh == cap:
                    raise TruncationError(
                        f"full matching aborted at edge {divmod(root % nn, n)}: "
                        f"deciding it needs more than {cap} undecided edges",
                        probes=2 * fresh,  # two neighbor lists per scanned edge
                        size=fresh,
                    )
                fresh += 1
                stack.append((lows[-1], lower(lows[-1])))
                continue
            # lows is empty (no lower neighbor matched) or ends at a matched one
            matched[k] = not lows
            stack.pop()
    return frozenset(divmod(k % nn, n) for k, m in matched.items() if m)


class TestIsMatched:
    def test_single_edge_always_matched(self):
        g = LocalGraph.from_edges(2, [(0, 1)])
        for i in range(10):
            s = derive_subseed(SEED, b"s:%d" % i)
            verdict = is_matched(g, (0, 1), s)
            assert verdict.matched
            assert verdict.edges_evaluated == 1

    def test_two_disjoint_edges_both_matched(self):
        g = LocalGraph.from_edges(4, [(0, 1), (2, 3)])
        for i in range(10):
            s = derive_subseed(SEED, b"s:%d" % i)
            assert is_matched(g, (0, 1), s).matched
            assert is_matched(g, (2, 3), s).matched

    def test_triangle_only_lowest_rank_matched(self):
        g = LocalGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for i in range(30):
            s = derive_subseed(SEED, b"t:%d" % i)
            key_of = edge_key_fn(g, s)
            lowest = min(g.edges(), key=key_of)
            for e in g.edges():
                assert is_matched(g, e, s).matched == (e == lowest)

    def test_non_edge_rejected(self):
        g = LocalGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="not an edge"):
            is_matched(g, (1, 2), SEED)
        with pytest.raises(ValueError, match="self-loop"):
            is_matched(g, (1, 1), SEED)

    def test_probe_accounting(self):
        g = gen_bounded_degree(SEED, 50, 4)
        for e in list(g.edges())[:10]:
            v = is_matched(g, e, SEED)
            assert v.probes >= v.edges_evaluated >= 1

    def test_truncation_is_error_not_wrong_answer(self):
        g = path_graph(30)
        hit = 0
        for e in g.edges():
            try:
                is_matched(g, e, SEED, cap=1)
            except TruncationError as exc:
                assert exc.size >= 1
                hit += 1
        assert hit > 0

    def test_endpoint_order_irrelevant(self):
        g = gen_bounded_degree(SEED, 20, 3)
        u, v = next(iter(g.edges()))
        assert is_matched(g, (u, v), SEED) == is_matched(g, (v, u), SEED)

    def test_verdict_is_slotted_frozen_and_pickles(self):
        g = path_graph(5)
        v = is_matched(g, g.edges()[1], SEED)
        assert isinstance(v, MatchVerdict)
        assert not hasattr(v, "__dict__")
        with pytest.raises(AttributeError):
            v.matched = not v.matched
        assert pickle.loads(pickle.dumps(v)) == v


class TestOracleEquivalence:
    def test_matches_arrival_order_oracle_exhaustively(self):
        # replay the oracle from the explicit rank-sorted edge list
        for i in range(25):
            g = gen_bounded_degree(derive_subseed(SEED, b"g:%d" % i), 12, 3)
            s = derive_subseed(SEED, b"r:%d" % i)
            key_of = edge_key_fn(g, s)
            expected = greedy_oracle(sorted(g.edges(), key=key_of))
            for e in g.edges():
                assert is_matched(g, e, s).matched == (e in expected)

    def test_full_matching_equals_global_greedy(self):
        for i in range(5):
            g = gen_bounded_degree(derive_subseed(SEED, b"fg:%d" % i), 400, 5)
            s = derive_subseed(SEED, b"fr:%d" % i)
            local = full_matching(g, s)
            assert local == greedy_by_rank(g, s)
            assert verify_maximal(g, local)

    def test_kwise_ordering_agrees_too(self):
        g = gen_bounded_degree(SEED, 40, 4)
        kind = KWiseIndependent(8, 4099)  # prime > 40*40
        assert full_matching(g, SEED, kind) == greedy_by_rank(g, SEED, kind)

    def test_query_order_oblivious(self):
        g = gen_bounded_degree(SEED, 100, 4)
        edges = list(g.edges())
        forward = [is_matched(g, e, SEED).matched for e in edges]
        backward = [is_matched(g, e, SEED).matched for e in reversed(edges)]
        assert forward == backward[::-1]


class TestFullMatching:
    def test_empty_graph(self):
        # n*n, the packed-id universe, is 0 or 1 at n = 0 and n = 1
        for n in (0, 1, 3):
            g = LocalGraph.from_edges(n, [])
            for kind in (FullPseudorandom(), KWiseIndependent(2, 5)):
                assert full_matching(g, SEED, kind) == frozenset()

    def test_perfect_matching_input(self):
        g = LocalGraph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert full_matching(g, SEED) == frozenset(g.edges())

    def test_matching_property_no_shared_vertices(self):
        g = gen_bounded_degree(SEED, 200, 5)
        m = full_matching(g, SEED)
        seen = set()
        for u, v in m:
            assert u not in seen and v not in seen
            seen.update((u, v))

    def test_truncation_aborts_with_context(self):
        g = path_graph(40)
        with pytest.raises(TruncationError, match="aborted"):
            full_matching(g, SEED, cap=1)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected_without_edges(self, cap):
        for n in (0, 1, 3):
            g = LocalGraph.from_edges(n, [])
            for batch in (full_matching, all_verdicts):
                with pytest.raises(ValueError, match="cap must be >= 1"):
                    batch(g, SEED, cap=cap)

    def test_cap_counts_the_query_and_each_undecided_edge_it_needs(self):
        # (0, 1) is queried first; deciding it needs (1, 2) too iff that edge
        # ranks lower, and then (1, 2) is already decided when its turn comes
        g = path_graph(3)
        seen = set()
        for i in range(16):
            s = derive_subseed(SEED, b"path3:%d" % i)
            key_of = edge_key_fn(g, s)
            needed = 2 if key_of((1, 2)) < key_of((0, 1)) else 1
            seen.add(needed)
            assert full_matching(g, s, cap=needed) == greedy_by_rank(g, s)
            if needed == 2:
                with pytest.raises(TruncationError, match=r"aborted at edge \(0, 1\)"):
                    full_matching(g, s, cap=1)
        assert seen == {1, 2}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 5), st.integers(1, 50))
    def test_cap_safety(self, tag, n, d, cap):
        g = gen_bounded_degree(derive_subseed(SEED, b"cs:%d" % tag), n, d)
        s = derive_subseed(SEED, b"csr:%d" % tag)
        # a prime just above the n*n packed ids makes rank values tie, so the
        # owner tie-break decides some orders
        for kind in (FullPseudorandom(), KWiseIndependent(8, next_prime(n * n + 1))):
            try:
                verdicts = all_verdicts(g, s, kind, cap)
            except TruncationError:
                verdicts = None
            try:
                batch = full_matching(g, s, kind, cap)
            except TruncationError:
                assert verdicts is None, "the batch aborted where every closure fits the cap"
                continue
            if verdicts is not None:
                assert batch == {e for e, v in verdicts.items() if v.matched}
            assert batch == greedy_by_rank(g, s, kind)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 5), st.integers(1, 50))
    def test_same_answers_and_cuts_as_the_lower_list_reference(self, tag, n, d, cap):
        g = gen_bounded_degree(derive_subseed(SEED, b"diff:%d" % tag), n, d)
        s = derive_subseed(SEED, b"diffr:%d" % tag)
        # a prime just above the n*n packed ids makes rank values tie
        for kind in (FullPseudorandom(), KWiseIndependent(8, next_prime(n * n + 1))):
            outcomes = []
            for batch in (full_matching, full_matching_by_lower_lists):
                try:
                    outcomes.append(batch(g, s, kind, cap))
                except TruncationError as exc:
                    outcomes.append((str(exc), exc.size, exc.probes))
            assert outcomes[0] == outcomes[1]


class TestVerifyMaximal:
    def test_empty_on_single_edge_graph(self):
        g = LocalGraph.from_edges(2, [(0, 1)])
        assert not verify_maximal(g, [])

    def test_the_single_edge_itself(self):
        g = LocalGraph.from_edges(2, [(0, 1)])
        assert verify_maximal(g, [(0, 1)])

    def test_middle_edge_of_three_edge_path(self):
        g = path_graph(4)  # edges (0,1), (1,2), (2,3)
        assert verify_maximal(g, [(1, 2)])

    def test_rejects_overlapping_edges(self):
        g = path_graph(3)
        assert not verify_maximal(g, [(0, 1), (1, 2)])

    def test_rejects_foreign_edges(self):
        g = path_graph(3)
        assert not verify_maximal(g, [(0, 2)])

    def test_exhaustive_small(self):
        g = LocalGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        edges = g.edges()
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                used = [v for e in combo for v in e]
                is_matching = len(used) == len(set(used))
                covered = set(used)
                maximal = is_matching and all(
                    u in covered or v in covered for u, v in edges
                )
                assert verify_maximal(g, combo) == maximal


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            canonical_edge(3, 3)


class TestLocality:
    def test_evaluated_sets_stay_small_as_n_grows(self):
        import math

        from lcakit.matching import all_verdicts

        means = []
        for p in (8, 10, 12):
            n = 2**p
            g = gen_bounded_degree(derive_subseed(SEED, b"loc:%d" % n), n, 4)
            s = derive_subseed(SEED, b"locr:%d" % n)
            verdicts = all_verdicts(g, s)
            evaluated = [v.edges_evaluated for v in verdicts.values()]
            means.append(sum(evaluated) / len(evaluated))
            # calibrated regression bound; passes with >2x margin at this seed
            assert max(evaluated) / math.log2(n) <= 40
        assert max(means) / min(means) < 2


PIN_GRAPHS = ((60, 3), (200, 4), (300, 5))

# sha256 digests of all_verdicts and capped is_matched, split so that a change
# meant to lower costs re-records only the cost digest.  The answer digest
# covers each all_verdicts verdict.  The cost digest covers probes,
# evaluated-set sizes, and where each capped query is cut, with the cut's
# size, probes and message: whether a capped query answers is a cost, and
# when it does, it must answer as the uncapped query does.
PINNED_VERDICT_ANSWERS = "b98910214ba993eadd5ee9340fd179388983123a4a7a9779511213a111c40269"
PINNED_VERDICT_COSTS = "498e3ffd13ec327a0875439e8e70724350c22ecb290a15881f3e11559e34c532"


def test_pinned_verdicts():
    answers, costs = hashlib.sha256(), hashlib.sha256()
    for i, (n, d) in enumerate(PIN_GRAPHS):
        g = gen_bounded_degree(derive_subseed(SEED, b"pin:%d" % i), n, d)
        s = derive_subseed(SEED, b"pin-ranks:%d" % i)
        for kind in (FullPseudorandom(), KWiseIndependent(8, next_prime(n**3))):
            verdicts = all_verdicts(g, s, kind)
            for e, v in verdicts.items():
                assert v.probes == 2 * v.edges_evaluated  # two lookups per scan
                answers.update(b"%r %d\n" % (e, v.matched))
                costs.update(b"%r %d %d\n" % (e, v.probes, v.edges_evaluated))
            for cap in (1, 2, 3, 5):
                for e in g.edges():
                    try:
                        v = is_matched(g, e, s, kind, cap)
                    except TruncationError as exc:
                        costs.update(b"%r\n" % ((cap, e, "cut", exc.size, exc.probes, str(exc)),))
                        continue
                    assert v.matched == verdicts[e].matched
                    assert v.probes == 2 * v.edges_evaluated
                    costs.update(b"%r\n" % ((cap, e, v.probes, v.edges_evaluated),))
    assert answers.hexdigest() == PINNED_VERDICT_ANSWERS
    assert costs.hexdigest() == PINNED_VERDICT_COSTS


# sha256 of full_matching on the pin graphs above plus one n=1000, d=5 graph,
# under full and tied k-wise orderings, for a range of caps: the sorted
# matched edges, or where and how the batch aborts.
PINNED_FULL_MATCHING = "19157c7b14619995af20c6e4cb1575b9df3cf75859cf7cf8f4d3e4debefdb18e"


def test_pinned_full_matching():
    h = hashlib.sha256()
    graphs = [
        (gen_bounded_degree(derive_subseed(SEED, b"pin:%d" % i), n, d),
         derive_subseed(SEED, b"pin-ranks:%d" % i))
        for i, (n, d) in enumerate(PIN_GRAPHS)
    ]
    graphs.append((gen_bounded_degree(derive_subseed(SEED, b"pin-batch"), 1000, 5),
                   derive_subseed(SEED, b"pin-batch-ranks")))
    for g, s in graphs:
        # a prime just above the n*n packed ids makes rank values tie
        for kind in (FullPseudorandom(), KWiseIndependent(8, next_prime(g.n * g.n + 1))):
            for cap in (1, 2, 3, 5, 8, 13, None):
                try:
                    if cap is None:
                        got = full_matching(g, s, kind)
                    else:
                        got = full_matching(g, s, kind, cap)
                except TruncationError as exc:
                    row = (cap, "cut", exc.size, exc.probes, str(exc))
                else:
                    row = (cap, sorted(got))
                h.update(b"%r\n" % (row,))
    assert h.hexdigest() == PINNED_FULL_MATCHING


def test_all_ties_fall_to_packed_id():
    """A degree-0 polynomial gives every edge the same rank value, so every
    two adjacent edges tie and order falls to the packed id, which on
    canonical edges is lexicographic order."""
    for i, (n, d) in enumerate(PIN_GRAPHS):
        g = gen_bounded_degree(derive_subseed(SEED, b"pin:%d" % i), n, d)
        s = derive_subseed(SEED, b"pin-ranks:%d" % i)
        kind = KWiseIndependent(1, next_prime(n * n + 1))
        want = greedy_by_rank(g, s, kind)
        assert want == greedy_oracle(sorted(g.edges()))
        assert full_matching(g, s, kind) == want
        assert {e for e in g.edges() if is_matched(g, e, s, kind).matched} == want
