import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit import cli
from lcakit.ballsbins import (
    RULES,
    Assignment,
    assign_all,
    assign_query,
    default_cap,
    run_global,
)
from lcakit.graphs import BipartiteChoices, gen_bipartite_choices
from lcakit.ranks import (
    FullPseudorandom,
    KWiseIndependent,
    Seed,
    derive_subseed,
    next_prime,
    rank_key_fn,
)

SEED = Seed.from_hex("5eed" * 16)
LL = RULES["least-loaded"]


def _loads(m, assignments):
    """Each bin's load under the answers, counted from scratch."""
    loads = [0] * m
    for a in assignments:
        loads[a.bin] += 1
    return tuple(loads)


class TestRules:
    def test_least_loaded_ties_to_lowest_id(self):
        bc = BipartiteChoices.from_choices(1, 3, 2, [(2, 1)])
        assert LL.choose(bc, 0, lambda u: 0) == 1

    def test_least_loaded_prefers_lighter_bin(self):
        bc = BipartiteChoices.from_choices(1, 3, 2, [(0, 2)])
        loads = {0: 5, 2: 1}
        assert LL.choose(bc, 0, lambda u: loads.get(u, 0)) == 2

    def test_always_go_left_ties_to_leftmost_group(self):
        bc = BipartiteChoices.from_choices(
            1, 4, 2, [(3, 0)], group_of=[1, 1, 0, 0]
        )
        # choice order is group order; equal loads resolve to the first choice
        assert RULES["always-go-left"].choose(bc, 0, lambda u: 7) == 3

    def test_always_go_left_requires_groups(self):
        bc = gen_bipartite_choices(SEED, 10, 10, 2, "uniform")
        with pytest.raises(ValueError, match="groups"):
            assign_all(bc, RULES["always-go-left"], SEED)

    def test_capacity_relative_load(self):
        bc = BipartiteChoices.from_choices(
            2, 2, 2, [(0, 1), (0, 1)], capacities=[1, 1]
        )
        loads = {0: 3, 1: 2}
        # capacities equal: plain least loaded
        assert RULES["capacity"].choose(bc, 0, lambda u: loads.get(u, 0)) == 1

    def test_capacity_weighs_by_capacity(self):
        bc = BipartiteChoices.from_choices(
            4, 2, 2, [(0, 1)] * 4, capacities=[3, 1]
        )
        loads = {0: 2, 1: 1}
        # 2/3 < 1/1, exact integer comparison
        assert RULES["capacity"].choose(bc, 0, lambda u: loads.get(u, 0)) == 0

    def test_capacity_requires_positive_capacities(self):
        bc = BipartiteChoices.from_choices(
            1, 2, 2, [(0, 1)], capacities=[1, 0]
        )
        with pytest.raises(ValueError, match="positive"):
            assign_query(bc, 0, RULES["capacity"], SEED)

    def test_always_go_left_rejects_misgrouped_choices(self):
        # ball 1's first choice, bin 3, lies in group 1 instead of group 0
        bc = BipartiteChoices.from_choices(
            2, 4, 2, [(0, 2), (3, 1)], group_of=[0, 0, 1, 1]
        )
        with pytest.raises(ValueError, match="group"):
            assign_query(bc, 0, RULES["always-go-left"], SEED)
        with pytest.raises(ValueError, match="group"):
            run_global(bc, RULES["always-go-left"], SEED)

    def test_instance_checks_scan_once_per_instance(self):
        class CountingTuple(tuple):
            scans = 0

            def __iter__(self):
                CountingTuple.scans += 1
                return super().__iter__()

        base = gen_bipartite_choices(SEED, 50, 50, 2, "grouped")
        bc = BipartiteChoices(
            base.n_balls,
            base.m_bins,
            base.d,
            CountingTuple(base.choices),
            base.bin_incidence,
            capacities=CountingTuple([1] * 50),
            group_of=base.group_of,
        )
        for rule in ("capacity", "always-go-left"):
            for ball in range(10):
                assign_query(bc, ball, RULES[rule], SEED)
        assert CountingTuple.scans == 2  # one capacity scan, one choices scan

    def test_circle_requires_positions(self):
        bc = gen_bipartite_choices(SEED, 10, 10, 2, "uniform")
        with pytest.raises(ValueError, match="positions"):
            run_global(bc, RULES["circle"], SEED)


class TestAssignQuery:
    def test_untouched_bins_lowest_id_choice(self):
        bc = BipartiteChoices.from_choices(2, 4, 2, [(3, 1), (0, 2)])
        a = assign_query(bc, 0, LL, SEED)
        assert a.bin == 1 and not a.failed

    def test_two_balls_sharing_both_bins(self):
        bc = BipartiteChoices.from_choices(2, 2, 2, [(0, 1), (0, 1)])
        key_of = rank_key_fn(SEED, FullPseudorandom(), 2)
        first, second = sorted((0, 1), key=key_of)
        assert assign_query(bc, first, LL, SEED).bin == 0
        assert assign_query(bc, second, LL, SEED).bin == 1

    def test_zero_cap_forces_deterministic_fallback(self):
        bc = gen_bipartite_choices(SEED, 20, 10, 3, "uniform")
        a = assign_query(bc, 4, LL, SEED, cap=0)
        b = assign_query(bc, 4, LL, SEED, cap=0)
        assert a.failed and a == b
        assert a.bin in bc.choices_of(4)

    def test_bin_always_among_choices(self):
        bc = gen_bipartite_choices(SEED, 100, 50, 2, "uniform")
        for ball in range(100):
            for cap in (0, 2, None):
                a = assign_query(bc, ball, LL, SEED, cap=cap)
                assert a.bin in bc.choices_of(ball)

    def test_singleton_probes_one_plus_d(self):
        # ball 0's bins are chosen by nobody else: one choice-list lookup
        # plus one chooser-list lookup per bin
        bc = BipartiteChoices.from_choices(3, 4, 2, [(0, 1), (2, 3), (2, 3)])
        a = assign_query(bc, 0, LL, SEED)
        assert a == Assignment(0, 0, failed=False, probes=1 + 2)

    def test_two_balls_sharing_both_bins_probes(self):
        bc = BipartiteChoices.from_choices(2, 2, 2, [(0, 1), (0, 1)])
        key_of = rank_key_fn(SEED, FullPseudorandom(), 2)
        first, second = sorted((0, 1), key=key_of)
        assert assign_query(bc, first, LL, SEED).probes == 1 + 2
        assert assign_query(bc, second, LL, SEED).probes == 2 * (1 + 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_probes_count_whole_scans(self, d):
        # each scan reads the ball's choice list and its d bins' chooser
        # lists, the scan that the cap cuts short included
        bc = gen_bipartite_choices(derive_subseed(SEED, b"scans:%d" % d), 300, 300, d)
        for cap in (1, 2, 3, 5):
            for ball in range(300):
                assert assign_query(bc, ball, LL, SEED, cap=cap).probes % (1 + d) == 0

    def test_cap_one_on_shared_bin_fails_latest(self):
        bc = BipartiteChoices.from_choices(3, 1, 1, [(0,), (0,), (0,)])
        latest = max(range(3), key=rank_key_fn(SEED, FullPseudorandom(), 3))
        a = assign_query(bc, latest, LL, SEED, cap=1)
        assert a.failed and a.bin == 0

    def test_matches_global_run(self):
        bc = gen_bipartite_choices(SEED, 300, 300, 2, "uniform")
        glob, _ = run_global(bc, LL, SEED)
        for ball in range(300):
            a = assign_query(bc, ball, LL, SEED)
            if not a.failed:
                assert a.bin == glob[ball].bin


class TestAssignAll:
    def test_empty(self):
        bc = BipartiteChoices.from_choices(0, 3, 2, [])
        assignments, loads = assign_all(bc, LL, SEED)
        assert assignments == [] and loads == (0, 0, 0)

    def test_d_one_is_trivially_global(self):
        bc = gen_bipartite_choices(SEED, 50, 20, 1, "uniform")
        local, lp = assign_all(bc, LL, SEED)
        glob, gp = run_global(bc, LL, SEED)
        assert [a.bin for a in local] == [a.bin for a in glob]
        assert lp == gp
        assert all(a.bin == bc.choices_of(a.ball)[0] for a in local)

    def test_conservation(self):
        bc = gen_bipartite_choices(SEED, 200, 80, 2, "uniform")
        _, loads = assign_all(bc, LL, SEED)
        assert sum(loads) == 200

    def test_fidelity_across_rules(self):
        for name, scheme, caps in (
            ("least-loaded", "uniform", None),
            ("always-go-left", "grouped", None),
            ("capacity", "capacity", [1] * 200),
            ("circle", "circle", None),
        ):
            bc = gen_bipartite_choices(
                derive_subseed(SEED, b"f:" + name.encode()),
                200,
                200,
                2,
                scheme,
                capacities=caps,
            )
            rule = RULES[name]
            glob, _ = run_global(bc, rule, SEED)
            local, _ = assign_all(bc, rule, SEED)
            for a, b in zip(glob, local):
                if not b.failed:
                    assert a.bin == b.bin

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(RULES)),
        st.integers(1, 30),
        st.integers(3, 60),
        st.integers(1, 3),
        st.none() | st.integers(-2, 20),
    )
    def test_equals_per_ball_queries(self, tag, name, half_n, m, d, cap):
        rule = RULES[name]
        n = 2 * half_n
        caps = None
        if rule.scheme == "capacity":
            # capacities must sum to n: pairs of 1 and 3, and a 2 if m is odd
            m = half_n
            caps = [1, 3] * (m // 2) + [2] * (m % 2)
        bc = gen_bipartite_choices(
            derive_subseed(SEED, b"eq:%d" % tag), n, m, d, rule.scheme, capacities=caps
        )
        s = derive_subseed(SEED, b"eqr:%d" % tag)
        # a prime just above n makes k-wise rank values tie, so the owner
        # tie-break decides some orders
        for kind in (FullPseudorandom(), KWiseIndependent(4, next_prime(n + 1))):
            batch, loads = assign_all(bc, rule, s, kind, cap)
            cold = [assign_query(bc, b, rule, s, kind, cap) for b in range(n)]
            assert batch == cold
            assert loads == _loads(m, cold)

    def test_profile_counts_the_answered_bins(self):
        # small caps send many balls to their fallback bins, which the
        # loads must count in place of the bins the pass placed them in
        for name in sorted(PINNED):
            for bc, rseed in _pin_instances(name):
                for cap in (None, 0, 1, 2, 3):
                    batch, loads = assign_all(bc, RULES[name], rseed, cap=cap)
                    assert type(loads) is tuple
                    assert loads == _loads(bc.m_bins, batch)

    def test_every_answer_is_an_assignment(self):
        # batch == cold compares plain tuples, where 0 == False, so only this
        # sees an answer built as a bare tuple or with an int flag
        for name in sorted(PINNED):
            for bc, rseed in _pin_instances(name):
                for cap in (None, 0, 1, 3):
                    batch, _ = assign_all(bc, RULES[name], rseed, cap=cap)
                    assert all(type(a) is Assignment for a in batch)
                    assert all(type(a.failed) is bool for a in batch)

    @pytest.mark.parametrize(
        "m, cap, choices, probes, failed",
        [
            pytest.param(
                7,
                None,
                [(0, 1), (2, 2), (2, 2), (0, 1), (1, 3), (5, 6), (2, 6)],
                # 0: no lower closure; 1: both choices on one empty bin;
                # 2: both choices on one bin, {2, 1}; 3: ball 0 is the latest
                # chooser of both bins, {3, 0}; 4: bin 3 is empty, {4, 3, 0};
                # 5: no lower closure; 6: two disjoint closures, {6, 2, 1, 5}
                [3, 3, 6, 6, 9, 3, 12],
                [False] * 7,
                id="none-one-and-disjoint",
            ),
            pytest.param(
                3,
                None,
                [(0, 1), (1, 2), (0, 2)],
                # 2: bins 0 and 2 hold {0} and {1, 0}, so its closure is {0, 1, 2}
                [3, 6, 9],
                [False] * 3,
                id="nested",
            ),
            pytest.param(
                4,
                None,
                [(0, 1), (0, 2), (1, 3), (2, 3)],
                # 3: bins 2 and 3 hold {1, 0} and {2, 0}, so {3, 1, 0, 2}
                [3, 6, 6, 12],
                [False] * 4,
                id="partial-overlap",
            ),
            pytest.param(
                5,
                2,
                [(0, 1), (1, 2), (2, 3), (3, 4)],
                # 2: {2, 1, 0} is over the cap, so bins 2 and 3 hold the
                # marker; 3 reads it from bin 3.  Both walks are cut in their
                # second scan, when a third member would join.
                [3, 6, 6, 6],
                [False, False, True, True],
                id="over-cap-marker",
            ),
        ],
    )
    def test_memo_cases(self, m, cap, choices, probes, failed):
        # every rank value ties, so the balls arrive in id order
        n = len(choices)
        bc = BipartiteChoices.from_choices(n, m, 2, choices)
        kind = KWiseIndependent(1, next_prime(n + 1))
        batch, loads = assign_all(bc, LL, SEED, kind, cap)
        assert [a.probes for a in batch] == probes
        assert [a.failed for a in batch] == failed
        assert batch == [assign_query(bc, b, LL, SEED, kind, cap) for b in range(n)]
        assert loads == _loads(m, batch)

    def test_cap_far_above_n_is_cheap(self):
        # the over-cap marker is sized by min(cap, n), never by cap alone
        bc = gen_bipartite_choices(SEED, 60, 30, 2, "uniform")
        batch, loads = assign_all(bc, LL, SEED, cap=10**18)
        assert batch == [assign_query(bc, b, LL, SEED, cap=10**18) for b in range(60)]
        glob, global_loads = run_global(bc, LL, SEED)
        assert [a.bin for a in batch] == [a.bin for a in glob]
        assert not any(a.failed for a in batch) and loads == global_loads

    def test_assignment_is_what_reports_read(self):
        a = Assignment(ball=1, bin=2, failed=True, probes=3)
        assert a == Assignment(1, 2, True, 3)
        assert Assignment._fields == ("ball", "bin", "failed", "probes")
        assert (a.ball, a.bin, a.failed, a.probes) == (1, 2, True, 3)
        # cli._ballsbins_worker writes each row in field order, and
        # criterion 2 reads .bin and .failed
        s = derive_subseed(SEED, b"contract")
        bc = gen_bipartite_choices(derive_subseed(s, b"instance:0"), 200, 100, 2, "uniform")
        rseed = derive_subseed(s, b"ranks:0")
        batch, _ = assign_all(bc, LL, rseed, cap=3)
        rows = cli._ballsbins_worker(200, 100, 2, LL.name, None, 3, s, 0)["rows"]
        assert rows == [tuple(a) for a in batch]
        assert 0 < sum(a.failed for a in batch) < len(batch)
        for a in batch:
            cold = assign_query(bc, a.ball, LL, rseed, cap=3)
            assert a == cold and hash(a) == hash(cold)

    def test_query_order_oblivious(self):
        bc = gen_bipartite_choices(SEED, 100, 50, 2, "uniform")
        forward = [assign_query(bc, b, LL, SEED) for b in range(100)]
        backward = [assign_query(bc, b, LL, SEED) for b in reversed(range(100))]
        assert forward == backward[::-1]


class TestRunGlobal:
    def test_single_ball_tie_rule(self):
        bc = BipartiteChoices.from_choices(1, 5, 2, [(4, 2)])
        assignments, loads = run_global(bc, LL, SEED)
        assert assignments[0].bin == 2
        assert loads == (0, 0, 1, 0, 0)

    def test_loads_sum_to_ball_count(self):
        bc = gen_bipartite_choices(SEED, 500, 100, 2, "uniform")
        assignments, loads = run_global(bc, LL, SEED)
        assert sum(loads) == 500 and loads == _loads(100, assignments)

    def test_never_fails(self):
        bc = gen_bipartite_choices(SEED, 200, 10, 2, "uniform")
        assignments, _ = run_global(bc, LL, SEED)
        assert not any(a.failed for a in assignments)

    def test_capacity_uniform_degenerates_to_least_loaded(self):
        # with equal capacities the relative-load rule IS least-loaded:
        # identical decisions on the identical instance
        s = derive_subseed(SEED, b"deg")
        bc = gen_bipartite_choices(s, 500, 500, 2, "uniform")
        with_caps = BipartiteChoices.from_choices(
            500, 500, 2, bc.choices, capacities=[1] * 500
        )
        a, pa = run_global(with_caps, LL, s)
        b, pb = run_global(with_caps, RULES["capacity"], s)
        assert [x.bin for x in a] == [x.bin for x in b]
        assert pa == pb


class TestDefaultCap:
    def test_scales_with_log(self):
        assert default_cap(2) == 20
        assert default_cap(1024) == 200
        assert default_cap(10**4, constant=10) == 140

    def test_assignment_is_frozen(self):
        a = Assignment(1, 2, False, 3)
        with pytest.raises(AttributeError):
            a.bin = 5

    def test_assignment_is_slotted_and_pickles(self):
        # the CLI's --jobs workers send assignments between processes
        a = Assignment(1, 2, True, 3)
        assert not hasattr(a, "__dict__")
        assert pickle.loads(pickle.dumps(a)) == a


class TestLocality:
    def test_mean_probes_flat_in_n(self):
        import math

        means = []
        for p in (10, 12, 14):
            n = 2**p
            bc = gen_bipartite_choices(
                derive_subseed(SEED, b"loc:%d" % n), n, n, 2, "uniform"
            )
            s = derive_subseed(SEED, b"locr:%d" % n)
            assignments, _ = assign_all(bc, LL, s)
            probes = [a.probes for a in assignments]
            means.append(sum(probes) / len(probes))
            # calibrated regression bound; passes with >2x margin at this seed
            assert max(probes) / math.log2(n) <= 30
        assert max(means) / min(means) < 2


# sha256 digests of assign_all, per rule over d in {1, 2, 3} and caps
# {default, 1, 2, 3, 5}; small caps truncate most queries, so the cost digest
# pins the probe counts of truncated walks as well.  The answer digest covers
# every (ball, bin, failed), the cost digest every (ball, probes), so that a
# change meant to lower costs re-records only the latter.
PINNED = {  # rule: (scheme, answer digest, cost digest)
    "least-loaded": (
        "uniform",
        "c81a74683f4a190d12580912d0b61c589d324df2d998463568305eeca3fd4705",
        "846d5bc5ac78b636de8fa4c8b96c260aca46b2c8ce4bddbfb4173291cd6525b4",
    ),
    "always-go-left": (
        "grouped",
        "37e39125d6ec8464a56699568fc8caf98062aaf6586cbd53e2fa38d878fba640",
        "f66f558756a43114f6162bcd0aefc06054817c01de5bd43c8793a3c25ddfa1ba",
    ),
    "capacity": (
        "capacity",
        "de71bcb2e6766dd0dcda44f39840e7deb05c2b8cf9b565926c5062d58521ffd7",
        "eaa28a678324db0187969ca558e735d4877b5a79dc724396995d3c5860153b8e",
    ),
    "circle": (
        "circle",
        "5f2d68200b6f6387c23abd342fd390a5c08ae117ad9f22b2882632a1f515aa2f",
        "4ad25533449ca8d11df6d1b540a90c3e2110a49a8631aba1a157a77f0a4407cd",
    ),
}


def _pin_instances(name):
    """(instance, rank seed) of ``name``'s pins for d in {1, 2, 3}."""
    scheme = PINNED[name][0]
    m, caps = (150, [1, 3] * 75) if scheme == "capacity" else (300, None)
    for d in (1, 2, 3):
        seed = derive_subseed(SEED, b"pin:%s:%d" % (name.encode(), d))
        bc = gen_bipartite_choices(seed, 300, m, d, scheme, capacities=caps)
        yield bc, derive_subseed(SEED, b"pin-ranks:%d" % d)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_assignments(name):
    _, answer_digest, cost_digest = PINNED[name]
    answers, costs = hashlib.sha256(), hashlib.sha256()
    for bc, rseed in _pin_instances(name):
        for cap in (None, 1, 2, 3, 5):
            assignments, _ = assign_all(bc, RULES[name], rseed, cap=cap)
            for a in assignments:
                answers.update(b"%d %d %d\n" % (a.ball, a.bin, a.failed))
                costs.update(b"%d %d\n" % (a.ball, a.probes))
    assert answers.hexdigest() == answer_digest
    assert costs.hexdigest() == cost_digest


# sha256 of cold assign_query results, per rule on every 7th ball of the
# instances above under caps {default, 3}: each (ball, bin, failed, probes).
# assign_all walks no closure below its cap, so only these pin the replay of
# a cold query's closure.
COLD_PINNED = {
    "least-loaded": "7c68b1a73516ac7fa9ade7a46657575396d0a9052d2e46550408323f139d5dc7",
    "always-go-left": "775aa3b08452191a2f0ff150e14b3a045ef5489c926a22eb25d47333ece9fdbd",
    "capacity": "7736d79362204527b14939fafe328268e3d27d29acfc4ab28766c510fbcdde41",
    "circle": "c46828ec8fbba8da47743723ad4983f4a1714d7a2fa4f0783f88a878fd41619f",
}


@pytest.mark.parametrize("name", sorted(COLD_PINNED))
def test_pinned_cold_queries(name):
    digest = hashlib.sha256()
    for bc, rseed in _pin_instances(name):
        for cap in (None, 3):
            for ball in range(0, bc.n_balls, 7):
                a = assign_query(bc, ball, RULES[name], rseed, cap=cap)
                digest.update(b"%d %d %d %d\n" % (a.ball, a.bin, a.failed, a.probes))
    assert digest.hexdigest() == COLD_PINNED[name]


def test_all_ties_fall_to_ball_id():
    """A degree-0 polynomial gives every ball the same rank value, so arrival
    order falls to the ball id, in the batch as in the oracle."""
    n, m = 300, 600
    bc = gen_bipartite_choices(derive_subseed(SEED, b"ties"), n, m, 2)
    kind = KWiseIndependent(1, next_prime(n + 1))
    loads = [0] * m
    want = []
    for b in range(n):
        u = LL.choose(bc, b, loads.__getitem__)
        loads[u] += 1
        want.append(u)
    oracle, _ = run_global(bc, LL, SEED, kind)
    assert [a.bin for a in oracle] == want
    batch, _ = assign_all(bc, LL, SEED, kind)
    assert batch == [assign_query(bc, b, LL, SEED, kind) for b in range(n)]
    answered = [(a.bin, w) for a, w in zip(batch, want) if not a.failed]
    assert len(answered) > n // 2
    assert all(got == w for got, w in answered)
