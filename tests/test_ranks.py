import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit import ranks
from lcakit.ballsbins import RULES, assign_all
from lcakit.graphs import gen_bipartite_choices, gen_bounded_degree
from lcakit.matching import full_matching, is_matched
from lcakit.ranks import (
    FullPseudorandom,
    KWiseIndependent,
    Rank,
    RandomStream,
    Seed,
    _digest,
    coin_fn,
    derive_subseed,
    is_probable_prime,
    next_prime,
    polynomial_rank,
    random_in_range,
    rank_key_fn,
    rank_keys,
    rank_of,
)

SEED = Seed.from_hex("5eed" * 16)


class TestSeed:
    def test_hex_roundtrip(self):
        assert Seed.from_hex(SEED.hex()) == SEED

    def test_rejects_short_hex(self):
        with pytest.raises(ValueError):
            Seed.from_hex("abcd")

    @pytest.mark.parametrize("text", ["zz", "abc"])
    def test_non_hex_names_the_format(self, text):
        with pytest.raises(ValueError) as info:
            Seed.from_hex(text)
        assert str(info.value) == "seed must be 64 hex characters (32 bytes)"

    def test_rejects_negative_ensemble(self):
        with pytest.raises(ValueError):
            Seed(b"\x00" * 32, -1)

    def test_with_ensemble_changes_ranks(self):
        a = rank_of(SEED, FullPseudorandom(), 3, 10)
        b = rank_of(SEED.with_ensemble(1), FullPseudorandom(), 3, 10)
        assert a != b

    def test_equal_fields_equal_function(self):
        twin = Seed(bytes(SEED.master_key), SEED.ensemble_index)
        for v in range(10):
            assert rank_of(SEED, FullPseudorandom(), v, 10) == rank_of(
                twin, FullPseudorandom(), v, 10
            )


class TestRankOf:
    def test_deterministic(self):
        a = rank_of(SEED, FullPseudorandom(), 7, 16)
        b = rank_of(SEED, FullPseudorandom(), 7, 16)
        assert a == b
        assert a.owner == 7

    def test_frozen_value(self):
        # portability regression: BLAKE2b output must not drift
        assert rank_of(SEED, FullPseudorandom(), 7, 16).value == 359204421589185774

    def test_out_of_universe(self):
        with pytest.raises(ValueError):
            rank_of(SEED, FullPseudorandom(), 16, 16)
        with pytest.raises(ValueError):
            rank_of(SEED, FullPseudorandom(), -1, 16)

    def test_kwise_deterministic(self):
        kind = KWiseIndependent(3, 31)
        assert rank_of(SEED, kind, 2, 8) == rank_of(SEED, kind, 2, 8)

    def test_kwise_prime_must_exceed_universe(self):
        with pytest.raises(ValueError):
            rank_of(SEED, KWiseIndependent(2, 11), 0, 11)

    def test_kwise_rejects_composite(self):
        with pytest.raises(ValueError):
            KWiseIndependent(2, 21)

    def test_degree_zero_polynomial_is_constant(self):
        # k=1: every vertex gets the same value, order decided by owner ids
        kind = KWiseIndependent(1, 11)
        ranks = [rank_of(SEED, kind, v, 8) for v in range(8)]
        assert len({r.value for r in ranks}) == 1
        assert sorted(ranks) == ranks

    def test_kwise_matches_naive_polynomial(self):
        from lcakit.ranks import _kwise_coeffs

        kind = KWiseIndependent(4, 101)
        coeffs = _kwise_coeffs(SEED, 4, 101)
        for x in range(9):
            naive = sum(a * x**i for i, a in enumerate(coeffs)) % 101
            assert rank_of(SEED, kind, x, 9).value == (naive << 64) // 101


class TestPolynomialRank:
    def test_scaling_is_strictly_monotone(self):
        prime = 1009
        values = [polynomial_rank((v,), prime, 0) for v in range(prime)]
        assert values == sorted(values)
        assert len(set(values)) == prime

    def test_fits_in_64_bits(self):
        assert polynomial_rank((1008,), 1009, 0) < 1 << 64


class TestExhaustiveOrderUniformity:
    def test_small_field_pairwise(self):
        # every relative order of every pair, over all 11^2 coefficient pairs
        p, n = 11, 5
        counts = {}
        for coeffs in itertools.product(range(p), repeat=2):
            for a, b in itertools.combinations(range(n), 2):
                ka = (polynomial_rank(coeffs, p, a), a)
                kb = (polynomial_rank(coeffs, p, b), b)
                key = (a, b, ka < kb)
                counts[key] = counts.get(key, 0) + 1
        total = p * p
        for a, b in itertools.combinations(range(n), 2):
            for first in (True, False):
                freq = counts.get((a, b, first), 0) / total
                assert abs(freq - 0.5) <= 0.05


class TestCompare:
    def test_value_order(self):
        assert Rank(5, 1) < Rank(9, 0)

    def test_owner_tiebreak(self):
        assert Rank(5, 2) < Rank(5, 3)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=20, unique=True))
    def test_sorting_gives_strict_permutation(self, vertices):
        ranks = [rank_of(SEED, KWiseIndependent(2, 307), v, 64) for v in vertices]
        ordered = sorted(ranks)
        for x, y in zip(ordered, ordered[1:]):
            assert x < y


class TestDeriveSubseed:
    def test_deterministic(self):
        assert derive_subseed(SEED, b"phase2") == derive_subseed(SEED, b"phase2")

    def test_distinct_labels_distinct_seeds(self):
        seen = {derive_subseed(SEED, b"label:%d" % i).master_key for i in range(10**4)}
        assert len(seen) == 10**4

    def test_nesting_differs_from_concatenation(self):
        nested = derive_subseed(derive_subseed(SEED, b"a"), b"b")
        joined = derive_subseed(SEED, b"ab")
        assert nested != joined
        # frozen vectors: derivation must stay stable across releases
        assert nested.hex() == (
            "7167b8255e18495db1d9982650d5dc4ef01875af2f9cc84c7b41d477aa6c2f8d"
        )
        assert joined.hex() == (
            "2e0454c9f925c025449fd4f2521a29d04f66ec51215c9447b07c8ea826b173cf"
        )


class TestRandomInRange:
    def test_bound_one(self):
        assert random_in_range(SEED, b"x", 1) == 0

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            random_in_range(SEED, b"x", 0)

    def test_deterministic(self):
        assert random_in_range(SEED, b"label", 1000) == 503

    def test_uniform_over_six(self):
        # each face within 1% of 1/6 over 6e5 label variations
        # (observed max deviation at this seed: 5.7e-4, bound 1.67e-3)
        draws = 6 * 10**5
        counts = [0] * 6
        for i in range(draws):
            counts[random_in_range(SEED, b"die:%d" % i, 6)] += 1
        for c in counts:
            assert abs(c / draws - 1 / 6) < 0.01 / 6

    @settings(max_examples=300)
    @given(
        st.binary(min_size=32, max_size=32),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_coin_is_the_range_two_draw(self, key, ensembles, items):
        seed = Seed(key, 0)
        coin = coin_fn(seed)  # one function across ensembles, as a query state holds it
        for e in ensembles:
            for x in items:
                expected = random_in_range(seed.with_ensemble(e), x.to_bytes(8, "big"), 2)
                assert coin(e, x) == expected


class TestRandomStream:
    def test_repeatable(self):
        a = RandomStream(SEED, b"s")
        b = RandomStream(SEED, b"s")
        assert [a.u64() for _ in range(20)] == [b.u64() for _ in range(20)]

    def test_randrange_bounds(self):
        stream = RandomStream(SEED, b"r")
        for bound in (1, 2, 3, 7, 2**40, 2**64 + 3):
            for _ in range(50):
                assert 0 <= stream.randrange(bound) < bound

    def test_shuffle_is_permutation(self):
        stream = RandomStream(SEED, b"shuf")
        items = list(range(100))
        stream.shuffle(items)
        assert sorted(items) == list(range(100))
        assert items != list(range(100))

    def test_random_unit_interval(self):
        stream = RandomStream(SEED, b"f")
        xs = [stream.random() for _ in range(1000)]
        assert all(0 <= x < 1 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.05


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 31, 1009, 2**31 - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (0, 1, 4, 21, 561, 2**31):
            assert not is_probable_prime(c)

    def test_next_prime(self):
        assert next_prime(31) == 31
        assert next_prime(32) == 37


class TestKeyedHashing:
    """Keying BLAKE2b once per (seed, domain) and copying the keyed state
    must give exactly the digests of keying afresh for every hash."""

    @settings(max_examples=200)
    @given(
        st.binary(min_size=32, max_size=32),
        st.integers(0, 2**64 - 1),
        st.binary(max_size=40),
        st.binary(max_size=200),
        st.integers(1, 64),
    )
    def test_digest_equals_fresh_keyed_blake2b(self, key, ensemble, domain, payload, size):
        seed = Seed(key, ensemble)
        ref = hashlib.blake2b(key=key, digest_size=size)
        ref.update(ensemble.to_bytes(8, "big"))
        ref.update(len(domain).to_bytes(2, "big"))
        ref.update(domain)
        ref.update(payload)
        assert _digest(seed, domain, payload, size) == ref.digest()
        # a second hash from the same keyed state is unaffected by the first
        assert _digest(seed, domain, payload, size) == ref.digest()

    # Values recorded before the keyed state was shared between hashes.
    OTHER = Seed(bytes(range(32)), 3)

    def test_frozen_full_ranks(self):
        values = [rank_of(SEED, FullPseudorandom(), i, 1000).value for i in (0, 1, 999)]
        assert values == [3545631867768202856, 4666212691553994194, 8965156156747544817]
        values = [rank_of(self.OTHER, FullPseudorandom(), i, 1000).value for i in (0, 5)]
        assert values == [12762174402759418807, 6926396255963048942]

    def test_frozen_kwise_ranks(self):
        kind = KWiseIndependent(4, next_prime(1000**3))
        values = [rank_of(SEED, kind, i, 1000).value for i in (0, 1, 999)]
        assert values == [229523795997905261, 4428401444155208903, 11458243626794360897]
        values = [rank_of(self.OTHER, kind, i, 1000).value for i in (0, 5)]
        assert values == [13509403328249976722, 2577121178456699843]

    def test_frozen_stream(self):
        stream = RandomStream(SEED, b"golden")
        assert [stream.u64() for _ in range(10)] == [
            10841068061214769783, 5906495424114265003, 6062808247351805548,
            8950140539367647330, 13826073857051100139, 7362297308517099299,
            6513219353825080112, 12076171575194047644, 14627308929818347328,
            17049787825352952190,
        ]
        stream = RandomStream(self.OTHER, b"")
        assert [stream.u64() for _ in range(3)] == [
            1665906627277460897, 13498724087484185839, 10689579581754830,
        ]
        assert [random_in_range(SEED, b"x%d" % i, 1000) for i in range(5)] == [
            123, 936, 189, 24, 907,
        ]

    def test_frozen_subseeds(self):
        assert derive_subseed(SEED, b"golden").hex() == (
            "e50cb3ebc73b612b2070bdd0f83669738b63160e881adfe952f5a6892ba2cfa0"
        )
        assert derive_subseed(self.OTHER, b"").hex() == (
            "e1ef4f1eaf450b84dae1d99039327ae4ddcd537fa5adf9cffbb4983a43a85775"
        )


# A prime above every universe the key tests draw, up to 2**64.
_PRIME_ABOVE_U64 = next_prime(2**64 + 1)


class TestKeyFunctions:
    """A key function binds its keyed state (or its k-wise coefficients)
    once; every key it hands out must equal ``value * universe + item`` for
    the value computed from scratch."""

    @settings(max_examples=200)
    @given(
        st.binary(min_size=32, max_size=32),
        st.integers(0, 2**64 - 1),
        st.integers(1, 2**64),
        st.data(),
    )
    def test_full_key_equals_fresh_keyed_blake2b(self, key, ensemble, universe, data):
        seed = Seed(key, ensemble)
        key_of = rank_key_fn(seed, FullPseudorandom(), universe)
        for item in data.draw(st.lists(st.integers(0, universe - 1), max_size=5)):
            ref = hashlib.blake2b(key=key, digest_size=8)
            ref.update(ensemble.to_bytes(8, "big"))
            ref.update(len(b"rank").to_bytes(2, "big"))
            ref.update(b"rank")
            ref.update(item.to_bytes(8, "big"))
            value = int.from_bytes(ref.digest(), "big")
            assert key_of(item) == value * universe + item
            assert key_of(item) == value * universe + item  # cached
            assert rank_of(seed, FullPseudorandom(), item, universe) == Rank(value, item)

    @settings(max_examples=100)
    @given(
        st.binary(min_size=32, max_size=32),
        st.integers(0, 2**16),
        st.sampled_from([(1, 2), (2, 11), (4, 101), (8, 4099)]),
        st.data(),
    )
    def test_kwise_key_equals_naive_polynomial(self, key, ensemble, k_prime, data):
        k, prime = k_prime
        seed = Seed(key, ensemble)
        universe = data.draw(st.integers(1, prime - 1))
        coeffs = ranks._kwise_coeffs(seed, k, prime)
        key_of = rank_key_fn(seed, KWiseIndependent(k, prime), universe)
        for item in data.draw(st.lists(st.integers(0, universe - 1), max_size=5)):
            naive = sum(a * item**i for i, a in enumerate(coeffs)) % prime
            assert key_of(item) == ((naive << 64) // prime) * universe + item

    @pytest.mark.parametrize("kind", [FullPseudorandom(), KWiseIndependent(2, 17)])
    @pytest.mark.parametrize("item", [-1, 16, 10**30])
    def test_out_of_universe_raises(self, kind, item):
        with pytest.raises(ValueError, match="outside declared universe"):
            rank_of(SEED, kind, item, 16)
        with pytest.raises(ValueError, match="outside declared universe") as keyed:
            rank_key_fn(SEED, kind, 16)(item)
        with pytest.raises(ValueError) as bulk:
            rank_keys(SEED, kind, [0, item], 16)
        assert str(bulk.value) == str(keyed.value)

    @pytest.mark.parametrize(
        "kind",
        [FullPseudorandom(), KWiseIndependent(3, 1009), KWiseIndependent(1, 1009)],
        ids=["full", "kwise", "degree-0"],
    )
    def test_rank_keys_are_the_cached_keys(self, kind):
        items = [5, 0, 999, 17, 5, 998, 3]
        key_of = rank_key_fn(SEED, kind, 1000)
        want = [key_of(x) for x in items]
        assert rank_keys(SEED, kind, items, 1000) == want
        assert rank_keys(SEED, kind, range(1000), 1000) == [key_of(x) for x in range(1000)]
        if kind == KWiseIndependent(1, 1009):
            # a constant polynomial: every value ties, so keys order by item
            assert len({k // 1000 for k in want}) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(
            [FullPseudorandom(), KWiseIndependent(3, _PRIME_ABOVE_U64),
             KWiseIndependent(1, _PRIME_ABOVE_U64)]
        ),
        st.integers(1, 2**64),
        st.data(),
    )
    def test_key_reads_back_and_orders_as_rank(self, kind, universe, data):
        items = data.draw(st.lists(st.integers(0, universe - 1), max_size=8, unique=True))
        key_of = rank_key_fn(SEED, kind, universe)
        ranked = {x: rank_of(SEED, kind, x, universe) for x in items}
        for x in items:
            assert divmod(key_of(x), universe) == (ranked[x].value, x)
        assert sorted(items, key=key_of) == sorted(items, key=ranked.__getitem__)
        assert rank_keys(SEED, kind, items, universe) == [key_of(x) for x in items]

    def test_rank_keys_hash_each_item_once(self, monkeypatch):
        # the module global, so a wrapped _rank_value (the traced
        # ``ranks.full_key`` span) sees every hash, in item order
        real = ranks._rank_value
        hashed: list[int] = []

        def counting(state, item, universe):
            hashed.append(item)
            return real(state, item, universe)

        items = list(range(0, 300, 7))[::-1]
        want = rank_keys(SEED, FullPseudorandom(), items, 300)
        monkeypatch.setattr(ranks, "_rank_value", counting)
        assert rank_keys(SEED, FullPseudorandom(), items, 300) == want
        assert hashed == items

    @pytest.mark.parametrize("universe", [11, 12, 50])
    def test_prime_not_above_universe_raises(self, universe):
        kind = KWiseIndependent(2, 11)
        with pytest.raises(ValueError, match="must exceed the universe"):
            rank_of(SEED, kind, 0, universe)
        key_of = rank_key_fn(SEED, kind, universe)
        for item in (0, universe - 1):
            with pytest.raises(ValueError, match="must exceed the universe"):
                key_of(item)
            with pytest.raises(ValueError, match="must exceed the universe"):
                rank_keys(SEED, kind, [item], universe)

    def test_cold_matching_query_hashes_each_edge_once(self, monkeypatch):
        # ranks._rank_value is the one per-item hash entry (the traced
        # ``ranks.full_key`` span), so it must see every hash, once per edge.
        g = gen_bounded_degree(SEED, 300, 5)
        seed = derive_subseed(SEED, b"hash-count")
        n, real = g.n, ranks._rank_value
        hashed: list[int] = []

        def counting(state, item, universe):
            hashed.append(item)
            return real(state, item, universe)

        def rank(f):
            return rank_of(seed, FullPseudorandom(), f[0] * n + f[1], n * n)

        def adjacent(f):
            u, v = f
            return [tuple(sorted((x, w))) for x, y in ((u, v), (v, u))
                    for w in g.neighbors(x) if w != y]

        monkeypatch.setattr(ranks, "_rank_value", counting)
        for e in g.edges()[:40]:
            hashed.clear()
            verdict = is_matched(g, e, seed)
            walk_hashes = list(hashed)  # rank_of below hashes through it too
            assert len(walk_hashes) == len(set(walk_hashes))
            # the walk hashes the root and every edge next to a member
            members, frontier = {e}, [e]
            while frontier:
                f = frontier.pop()
                for h in adjacent(f):
                    if rank(h) < rank(f) and h not in members:
                        members.add(h)
                        frontier.append(h)
            expected = {e} | {h for f in members for h in adjacent(f)}
            assert set(walk_hashes) == {u * n + v for u, v in expected}
            assert verdict.edges_evaluated == len(members)

    def test_full_matching_hashes_each_edge_once(self, monkeypatch):
        # the batch ranks every edge of the graph through ranks._rank_value,
        # each exactly once, and hashes nothing else
        g = gen_bounded_degree(SEED, 300, 5)
        seed = derive_subseed(SEED, b"batch-hash-count")
        n, real = g.n, ranks._rank_value
        hashed: list[int] = []

        def counting(state, item, universe):
            hashed.append(item)
            return real(state, item, universe)

        monkeypatch.setattr(ranks, "_rank_value", counting)
        full_matching(g, seed)
        assert sorted(hashed) == sorted(u * n + v for u, v in g.edges())

    def test_assign_all_hashes_each_ball_once(self, monkeypatch):
        # the batch ranks every ball through ranks._rank_value, each exactly
        # once, and hashes nothing else: with no ball over the cap, and with
        # over-cap balls, whose cold walks reuse the batch's rank values
        bc = gen_bipartite_choices(SEED, 1000, 1000, 2)
        seed = derive_subseed(SEED, b"batch-hash-count")
        real = ranks._rank_value
        hashed: list[int] = []

        def counting(state, item, universe):
            hashed.append(item)
            return real(state, item, universe)

        monkeypatch.setattr(ranks, "_rank_value", counting)
        for cap, over in ((None, False), (5, True)):
            hashed.clear()
            assignments, _ = assign_all(bc, RULES["least-loaded"], seed, cap=cap)
            assert any(a.failed for a in assignments) == over
            assert sorted(hashed) == list(range(bc.n_balls))


def _reference_words(seed: Seed, label: bytes):
    """The stream as documented: block i is the 64-byte keyed BLAKE2b of
    ``label + i.to_bytes(8, "big")`` in the ``b"stream"`` domain, read as
    eight big-endian words in order."""
    for counter in itertools.count():
        h = hashlib.blake2b(key=seed.master_key, digest_size=64)
        h.update(seed.ensemble_index.to_bytes(8, "big"))
        h.update(len(b"stream").to_bytes(2, "big"))
        h.update(b"stream")
        h.update(label + counter.to_bytes(8, "big"))
        block = h.digest()
        for i in range(0, 64, 8):
            yield int.from_bytes(block[i : i + 8], "big")


class _ReferenceStream:
    """One draw per call, straight from the documented definition."""

    def __init__(self, seed: Seed, label: bytes) -> None:
        self.words = _reference_words(seed, label)

    def u64(self) -> int:
        return next(self.words)

    def random(self) -> float:
        return (self.u64() >> 11) / float(1 << 53)

    def randrange(self, bound: int) -> int:
        if bound == 1:
            return 0
        if bound <= 2**64:
            limit = 2**64 - 2**64 % bound
            while (r := self.u64()) >= limit:
                pass
            return r % bound
        bits = bound.bit_length()
        words = -(-bits // 64)
        while True:
            r = 0
            for _ in range(words):
                r = (r << 64) | self.u64()
            r >>= words * 64 - bits
            if r < bound:
                return r

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


PIN_BOUNDS = {
    1: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    2: [0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
    3: [1, 1, 2, 1, 2, 1, 2, 1, 0, 2],
    7: [5, 6, 2, 3, 2, 4, 6, 4, 6, 0],
    2**40: [
        509291407680, 75353924068, 589313697999, 470032075006, 695385059241,
        303343394397, 608898207122, 981246575758, 486884347986, 353069374356,
    ],
    2**63 + 1: [
        2592412184781411037, 2709030896482135601, 7443407225263171023,
        6121182305961453394, 289679785274257309, 1709719276109864651,
        124063311203972723, 3264727759451034289, 2931375026750541272,
        8544341859995430339,
    ],
    2**64: [
        8328026783090924224, 9121604290511918863, 5831985285692517431,
        4315072156684723169, 13112793417350272392, 4577079976626910249,
        4196410015763530047, 16052204683094911568, 6776085951272491102,
        9036099051792810688,
    ],
    2**64 + 3: [
        8208388236638889083, 5084641663578857544, 222320042518837349,
        16190557659063413676, 1871777276666607306, 8782044921097367399,
        8305512826943159892, 816557149292356168, 8034984276864825414,
        1947142226574827453,
    ],
}

# Each op is (name, argument); every script crosses several 8-word blocks,
# with single-word, multi-word and rejected draws mixed in between them.
INTERLEAVED = [
    ("u64", None), ("randrange", 7), ("random", None), ("shuffle", 11),
    ("randrange", 2**64 + 3), ("randrange", 2**40), ("randrange", 1),
    ("randrange", 2**63 + 1), ("shuffle", 3), ("random", None), ("u64", None),
    ("randrange", 2**64), ("randrange", 2), ("shuffle", 0), ("shuffle", 1),
    ("randrange", 3), ("randrange", 2**63 + 1), ("randrange", 2**63 + 1),
    ("random", None), ("shuffle", 20), ("randrange", 2**64 + 3), ("u64", None),
]


def _run(stream, script) -> list:
    out = []
    for op, arg in script:
        if op == "shuffle":
            items = list(range(arg))
            stream.shuffle(items)
            out.append(items)
        elif op == "randrange":
            out.append(stream.randrange(arg))
        elif op == "bulk":  # [randrange(b) for b in bounds]; the reference draws one by one
            bulk = getattr(stream, "_randranges", None)
            out.append(bulk(arg) if bulk else [stream.randrange(b) for b in arg])
        elif op == "bulk_random":
            bulk = getattr(stream, "_randoms", None)
            out.append(bulk(arg) if bulk else [stream.random() for _ in range(arg)])
        else:
            out.append(getattr(stream, op)())
    return out


class TestStreamPins:
    """Frozen stream output: every draw is a fixed function of the words."""

    @pytest.mark.parametrize("bound", sorted(PIN_BOUNDS))
    def test_frozen_randrange(self, bound):
        stream = RandomStream(SEED, b"pin:%d" % bound)
        assert [stream.randrange(bound) for _ in range(10)] == PIN_BOUNDS[bound]

    def test_frozen_random_and_shuffle(self):
        stream = RandomStream(SEED, b"pin:random")
        assert [stream.random() for _ in range(10)] == [
            0.8026462093106685, 0.8206803367955028, 0.788952759297435,
            0.04092426567938612, 0.4387591647800193, 0.5597620548498043,
            0.3538202945877066, 0.6809931306615915, 0.6747553654885211,
            0.7313221422915668,
        ]
        stream = RandomStream(SEED, b"pin:shuffle")
        assert _run(stream, [("shuffle", n) for n in (0, 1, 2, 5, 13)]) == [
            [], [0], [0, 1], [1, 3, 2, 4, 0],
            [3, 5, 11, 0, 7, 8, 6, 4, 9, 12, 10, 2, 1],
        ]

    def test_frozen_interleaved(self):
        out = _run(RandomStream(SEED, b"pin:interleaved"), INTERLEAVED)
        assert out == _run(_ReferenceStream(SEED, b"pin:interleaved"), INTERLEAVED)
        assert hashlib.sha256(repr(out).encode()).hexdigest() == (
            "8e0c787cd826b7cd311de874405f0d88b59fed475839acb41ae05ff836288134"
        )


STREAM_OPS = st.one_of(
    st.tuples(st.sampled_from(["u64", "random"]), st.none()),
    st.tuples(
        st.just("randrange"),
        st.one_of(
            st.sampled_from(sorted(PIN_BOUNDS)),
            st.integers(1, 2**70),
            st.integers(2**64 - 2**16, 2**64 + 2**16),
        ),
    ),
    st.tuples(st.just("shuffle"), st.integers(0, 40)),
)


BULK_BOUNDS = st.one_of(
    st.integers(1, 10**4),
    st.sampled_from([2**40, 2**63 + 1, 2**64 - 5, 2**64, 2**64 + 3]),
)

BULK_OPS = st.one_of(
    STREAM_OPS,
    st.builds(
        lambda pattern, reps: ("bulk", pattern * reps),
        st.lists(BULK_BOUNDS, min_size=1, max_size=3),
        st.integers(0, 900),
    ),
    st.tuples(st.just("bulk"), st.just(range(3000, 1, -1))),
    st.tuples(st.just("bulk_random"), st.integers(0, 2100)),
    st.tuples(st.just("shuffle"), st.sampled_from([1024, 1025, 2049, 3000])),
)


class TestStreamReference:
    @settings(max_examples=150)
    @given(
        st.binary(min_size=32, max_size=32),
        st.integers(0, 2**16),
        st.binary(max_size=12),
        st.lists(STREAM_OPS, max_size=40),
    )
    def test_stream_equals_per_draw_reference(self, key, ensemble, label, script):
        seed = Seed(key, ensemble)
        stream = RandomStream(seed, label)
        assert _run(stream, script) == _run(_ReferenceStream(seed, label), script)

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=12),
        st.lists(BULK_OPS, max_size=8),
    )
    def test_bulk_draws_equal_per_draw_reference(self, key, label, script):
        # bound 2**64 - 5 sends nearly every batch down the one-at-a-time
        # path, 2**63 + 1 rejects about half of its words there
        seed = Seed(key, 0)
        stream = RandomStream(seed, label)
        assert _run(stream, script) == _run(_ReferenceStream(seed, label), script)

    @settings(max_examples=200)
    @given(
        st.binary(min_size=32, max_size=32),
        st.binary(max_size=12),
        st.one_of(st.sampled_from(sorted(PIN_BOUNDS)), st.integers(1, 2**70)),
    )
    def test_random_in_range_is_the_first_stream_draw(self, key, label, bound):
        seed = Seed(key, 0)
        expected = _ReferenceStream(seed, b"range:" + label).randrange(bound)
        assert random_in_range(seed, label, bound) == expected
