import hashlib
import math
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcakit.coloring import (
    COLORS,
    DEFAULT_TREE_CAP,
    PROBLEMS,
    ColoringFailure,
    ColoringParams,
    PhaseThresholds,
    ThresholdError,
    color_all,
    color_query,
    coloring_state,
    compute_thresholds,
    sat_all,
    sat_query,
    sat_state,
    verify_assignment,
    verify_coloring,
)
from lcakit.graphs import CnfFormula, Hypergraph, gen_cnf, gen_hypergraph
from lcakit.ranks import (
    FullPseudorandom,
    KWiseIndependent,
    RandomStream,
    Seed,
    derive_subseed,
    next_prime,
)

SEED = Seed.from_hex("5eed" * 16)

LENIENT = ColoringParams(lenient=True)


def lenient_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LENIENT


class TestComputeThresholds:
    def test_reference_values(self):
        got = compute_thresholds(40, 2)
        assert got == PhaseThresholds(k1=40, k2=33, k3=26, k4=19, delta=7)

    def test_too_small_k_raises(self):
        with pytest.raises(ThresholdError, match="k4"):
            compute_thresholds(20, 2)

    def test_admissibility_boundary_is_inclusive(self):
        # d=2 needs 2^(k4-1) >= 3e ~ 8.15: k4=5 passes, k4=4 fails
        assert compute_thresholds(26, 2).k4 == 5
        with pytest.raises(ThresholdError, match="e\\*"):
            compute_thresholds(25, 2)

    def test_lenient_warns_and_floors(self):
        with pytest.warns(UserWarning, match="inadmissible"):
            got = compute_thresholds(5, 2, lenient=True)
        assert got.k2 >= 1 and got.k3 >= 1 and got.k4 >= 1

    def test_small_d_clamp(self):
        # the cubic factor degenerates below d=2; clamped form stays defined
        assert compute_thresholds(40, 1).delta == 5
        assert compute_thresholds(40, 2).delta == 7

    def test_rejects_bad_inputs(self):
        with pytest.raises(ThresholdError):
            compute_thresholds(1, 2)
        with pytest.raises(ThresholdError):
            compute_thresholds(10, -1)

    def test_admissibility_agrees_with_the_exact_power(self):
        for d in range(65):
            factor = 16 * max(d, 1) * max(d - 1, 1) ** 3 * (d + 1)
            delta = math.ceil(math.log2(factor))
            for k in range(2, 201):
                k4 = k - 3 * delta
                if k4 < 1:
                    problem = f"k4 = k - 3*{delta} = {k4} < 1"
                elif 2 ** (k4 - 1) < math.e * (d + 1):
                    problem = f"2^(k4-1) = {2 ** (k4 - 1)} < e*(d+1) = {math.e * (d + 1):.3f}"
                else:
                    assert compute_thresholds(k, d).k4 == k4
                    continue
                with pytest.raises(ThresholdError) as exc:
                    compute_thresholds(k, d)
                assert str(exc.value) == f"admissibility premise fails for k={k}, d={d}: {problem}"

    def test_huge_k_is_checked_in_constant_time(self):
        start = time.perf_counter()
        got = compute_thresholds(10**9, 2)
        assert time.perf_counter() - start < 0.1
        assert got == PhaseThresholds(10**9, 10**9 - 7, 10**9 - 14, 10**9 - 21, 7)


def phase1_reference(view_kind, inst, state):
    """Global sequential simulation of the first random-coloring pass.

    Independent of the query engine: walks all items in rank order with
    explicit per-constraint state, and checks that a constraint turns
    dangerous at exactly k2 unassigned items.
    """
    k2 = state.thresholds.k2
    order = sorted(range(inst.m), key=state.key_of)
    values = {}
    saved = set()
    assigned = {c: 0 for c in range(inst.n)}
    killed = set()
    dangerous = set()
    first_color = {}
    if view_kind == "cnf":
        want = [dict(cl) for cl in inst.clauses]
        members = inst.clause_vars.__getitem__
        cons_of = inst.clauses_of
    else:
        members = inst.vertices_of
        cons_of = inst.edges_of
    for v in order:
        if v in saved:
            continue
        val = state._coin(0, v)
        values[v] = val
        for c in cons_of(v):
            if c in killed or c in dangerous:
                continue
            assigned[c] += 1
            if view_kind == "cnf":
                safe = want[c][v] == bool(val)
            else:
                safe = c in first_color and first_color[c] != val
                first_color.setdefault(c, val)
            if safe:
                killed.add(c)
            elif inst.k - assigned[c] == k2:
                dangerous.add(c)
                unassigned = [w for w in members(c) if w not in values]
                assert len(unassigned) == k2  # danger fires exactly at k2
                saved.update(unassigned)
    return values, saved, killed


class TestPhaseOneAgainstGlobalReference:
    @pytest.mark.parametrize("i", range(4))
    def test_hypergraph_lenient_small(self, i):
        inst = gen_hypergraph(derive_subseed(SEED, b"p1h:%d" % i), 60, 8, 5, 2)
        state = coloring_state(inst, derive_subseed(SEED, b"p1hr:%d" % i), lenient_params())
        values, saved, killed = phase1_reference("hyper", inst, state)
        for x in range(inst.m):
            state._ensure(x)
        assert state.color1 == values
        assert state.saved1 == saved
        for e in range(inst.n):
            assert state._survived1(e) == (e not in killed)

    def test_hypergraph_strict_scale(self):
        inst = gen_hypergraph(SEED, 400, 20, 40, 2)
        state = coloring_state(inst, derive_subseed(SEED, b"p1s"))
        values, saved, killed = phase1_reference("hyper", inst, state)
        for x in range(inst.m):
            state._ensure(x)
        assert state.color1 == values and state.saved1 == saved

    @pytest.mark.parametrize("i", range(4))
    def test_cnf_lenient_small(self, i):
        inst = gen_cnf(derive_subseed(SEED, b"p1c:%d" % i), 60, 8, 5, 2)
        state = sat_state(inst, derive_subseed(SEED, b"p1cr:%d" % i), lenient_params())
        values, saved, killed = phase1_reference("cnf", inst, state)
        for x in range(inst.m):
            state._ensure(x)
        assert state.color1 == values
        assert state.saved1 == saved


class TestColorQuery:
    def test_single_edge_rerun_stable(self):
        inst = Hypergraph.from_edges(6, [(0, 1, 2, 3, 4, 5)])
        params = lenient_params()
        for x in range(6):
            a = color_query(inst, x, SEED, params)
            b = color_query(inst, x, SEED, params)
            assert a.color == b.color
            assert a.color in COLORS
            assert 1 <= a.phase_resolved <= 4

    def test_zero_edge_instance(self):
        inst = Hypergraph.from_edges(1, [])
        a = color_query(inst, 0, SEED)
        assert a.color in COLORS and a.phase_resolved == 1
        assert color_query(inst, 0, SEED) == a

    def test_phase_one_resolution_has_small_probe_count(self):
        inst = gen_hypergraph(SEED, 400, 20, 40, 2)
        state = coloring_state(inst, SEED)
        answers = [color_query(inst, x, SEED, state=state) for x in range(inst.m)]
        assert any(a.phase_resolved == 1 for a in answers)
        assert all(a.probes >= 0 for a in answers)

    def test_out_of_range(self):
        inst = gen_hypergraph(SEED, 40, 4, 5, 2)
        with pytest.raises(ValueError):
            color_query(inst, 40, SEED, lenient_params())

    def test_fresh_equals_shared_state(self):
        inst = gen_hypergraph(SEED, 400, 20, 40, 2)
        rseed = derive_subseed(SEED, b"fs")
        full = color_all(inst, rseed)
        for x in range(0, inst.m, 13):
            assert color_query(inst, x, rseed).color == full[x]

    def test_query_order_irrelevant(self):
        inst = gen_hypergraph(SEED, 200, 10, 40, 2)
        rseed = derive_subseed(SEED, b"ord")
        forward = [color_query(inst, x, rseed).color for x in range(inst.m)]
        backward = [color_query(inst, x, rseed).color for x in reversed(range(inst.m))]
        assert forward == backward[::-1]

    def test_kwise_ordering_supported(self):
        from lcakit.ranks import KWiseIndependent, next_prime

        inst = gen_hypergraph(SEED, 200, 10, 40, 2)
        params = ColoringParams(kind=KWiseIndependent(16, next_prime(200**3)))
        colors = color_all(inst, SEED, params)
        assert verify_coloring(inst, colors)
        assert color_query(inst, 3, SEED, params).color == colors[3]


class TestLargestComponent:
    def test_counts_constraints_of_the_largest_component(self):
        # hyperedges 0, 1 and 2 are chained by shared vertices; 3 shares none
        h = Hypergraph.from_edges(10, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (7, 8, 9)])
        state = coloring_state(h, SEED, lenient_params())
        assert state._largest_component([0, 1, 2, 3]) == 3
        assert state._largest_component([3, 0, 2]) == 1  # 0 and 2 share no vertex
        assert state._largest_component([1]) == 1
        assert state._largest_component([]) == 0


class TestColorAll:
    def test_proper_on_generated_instances(self):
        for i in range(5):
            inst = gen_hypergraph(derive_subseed(SEED, b"ca:%d" % i), 400, 20, 40, 2)
            colors = color_all(inst, derive_subseed(SEED, b"car:%d" % i))
            assert verify_coloring(inst, colors)

    def test_proper_on_lenient_small_instances(self):
        ok = 0
        for i in range(20):
            inst = gen_hypergraph(derive_subseed(SEED, b"cl:%d" % i), 60, 8, 6, 2)
            try:
                colors = color_all(inst, derive_subseed(SEED, b"clr:%d" % i), lenient_params())
            except ColoringFailure:
                continue
            assert verify_coloring(inst, colors)
            ok += 1
        assert ok > 10  # failures allowed under inadmissible thresholds, not the norm

    def test_phase_values_never_rewritten(self):
        inst = gen_hypergraph(SEED, 400, 20, 40, 2)
        state = coloring_state(inst, SEED)
        snapshots = {}
        for x in range(inst.m):
            state.query(x)
            for v, val in state.final.items():
                assert snapshots.setdefault(v, val) == val


class TestVerifyColoring:
    def test_all_one_color_fails(self):
        inst = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
        assert not verify_coloring(inst, ["red"] * 4)

    def test_two_vertex_edge_red_blue(self):
        inst = Hypergraph.from_edges(2, [(0, 1)])
        assert verify_coloring(inst, ["red", "blue"])

    def test_length_checked(self):
        inst = Hypergraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            verify_coloring(inst, ["red"])

    def test_monochromatic_frequency_matches_power_of_two(self):
        # a random coloring misses a k-edge with probability 2^(1-k)
        k, trials = 8, 20000
        inst = Hypergraph.from_edges(k, [tuple(range(k))])
        stream = RandomStream(SEED, b"mono")
        bad = sum(
            not verify_coloring(inst, [COLORS[stream.randrange(2)] for _ in range(k)])
            for _ in range(trials)
        )
        expected = 2 ** (1 - k)
        se = (expected * (1 - expected) / trials) ** 0.5
        assert abs(bad / trials - expected) <= 4 * se


class TestSat:
    def test_single_clause_satisfied(self):
        inst = CnfFormula.from_clauses(2, [[(0, True), (1, True)]])
        params = lenient_params()
        values = sat_all(inst, SEED, params)
        assert verify_assignment(inst, values)
        for var in range(2):
            again = sat_query(inst, var, SEED, params)
            assert again.value == values[var]

    def test_sat_all_passes_evaluator(self):
        for i in range(5):
            inst = gen_cnf(derive_subseed(SEED, b"sa:%d" % i), 400, 20, 40, 2)
            values = sat_all(inst, derive_subseed(SEED, b"sar:%d" % i))
            assert verify_assignment(inst, values)

    def test_requery_stable(self):
        inst = gen_cnf(SEED, 200, 10, 40, 2)
        a = sat_query(inst, 5, SEED)
        assert sat_query(inst, 5, SEED) == a

    def test_verify_assignment_checks(self):
        inst = CnfFormula.from_clauses(2, [[(0, True), (1, False)]])
        assert verify_assignment(inst, [True, True])
        assert verify_assignment(inst, [False, False])
        assert not verify_assignment(inst, [False, True])
        with pytest.raises(ValueError):
            verify_assignment(inst, [True])


class TestFailureModes:
    def test_strict_premise_violation_raises_threshold_error(self):
        inst = gen_hypergraph(SEED, 60, 8, 5, 2)
        with pytest.raises(ThresholdError):
            color_query(inst, 0, SEED)  # k=5, d=2 is inadmissible in strict mode

    def test_tree_cap_failure_is_counted_failure(self):
        inst = gen_hypergraph(SEED, 400, 20, 40, 2)
        params = ColoringParams(tree_cap=1)
        state = coloring_state(inst, SEED, params)
        with pytest.raises(ColoringFailure) as err:
            for x in range(inst.m):
                state.query(x)
        assert err.value.reason == "tree_cap"

    def test_component_bound_failure_is_counted_failure(self):
        # item 31 of this strict instance resolves in phase 2; its phase-1
        # survivor component has 2 constraints, so a bound of 1 cuts it
        problem = PROBLEMS["coloring"]
        inst = problem.generate(derive_subseed(SEED, b"p23:coloring:11"), 400, 40, 19, 1)
        rseed = derive_subseed(SEED, b"p23r:11")
        assert problem.state(inst, rseed).query(31)[1] == 2
        shared = problem.state(inst, rseed)
        for state in (shared, shared, problem.state(inst, rseed)):  # reruns fail alike
            state.comp1_bound = 1
            with pytest.raises(ColoringFailure) as err:
                state.query(31)
            assert err.value.reason == "component"
            assert str(err.value) == (
                "phase-1 survivor component around item 31 exceeded 1 constraints"
            )

    def test_failure_carries_reason(self):
        try:
            raise ColoringFailure("component", "too big")
        except ColoringFailure as exc:
            assert exc.reason == "component"


# Pin shapes (m, n, k, d, lenient): a strict k = 40 instance, and a lenient
# one whose thresholds floor at 1, so that some items resolve after phase 1
# and some queries fail for reasons other than the cap.
PIN_SHAPES = ((200, 10, 40, 2, False), (80, 40, 4, 6, True))
PIN_CAPS = (DEFAULT_TREE_CAP, 1, 3, 8)

# sha256 digests of the shared-state batch (as color_all and sat_all run it,
# stopping at the first failure) and of fresh-state queries (as color_query
# and sat_query run them), split so that a change meant to lower costs
# re-records only the cost digest.  The answer digest covers (value,
# phase_resolved) of every query that answers at the default cap.  The cost
# digest covers every query's probes, or the reason it failed: whether a
# capped query answers is a cost, and when it does, it must answer as the
# uncapped query does.
PINNED_COLORING_ANSWERS = "bf89f10452ab755056b433776f9526929d98ca6967bb709bf3d56ed72eb59405"
PINNED_COLORING_COSTS = "25f169cf4b315b1d193ef9e5a51379e1a6b6abc09c5545fc9c10dcef45c434a3"


def test_pinned_answers_and_costs():
    answers, costs = hashlib.sha256(), hashlib.sha256()
    reasons, late = set(), 0
    for name, gen, state_of in (
        ("coloring", gen_hypergraph, coloring_state),
        ("ksat", gen_cnf, sat_state),
    ):
        for i, (m, n, k, d, lenient) in enumerate(PIN_SHAPES):
            inst = gen(derive_subseed(SEED, b"pin:%s:%d" % (name.encode(), i)), m, n, k, d)
            rseed = derive_subseed(SEED, b"pin-ranks:%d" % i)
            first = {}  # item -> its uncapped (value, phase)
            for cap in PIN_CAPS:
                params = ColoringParams(lenient=lenient, tree_cap=cap)
                shared = state_of(inst, rseed, params)
                for mode in ("all", "fresh"):
                    for x in range(inst.m):
                        tag = (name, i, cap, mode, x)
                        state = shared if mode == "all" else state_of(inst, rseed, params)
                        try:
                            value, phase, probes = state.query(x)
                        except ColoringFailure as exc:
                            costs.update(b"%r\n" % (tag + (exc.reason,),))
                            reasons.add(exc.reason)
                            if mode == "all":
                                break
                            continue
                        costs.update(b"%r\n" % (tag + (probes,),))
                        if cap == DEFAULT_TREE_CAP:
                            answers.update(b"%r\n" % (tag + (value, phase),))
                            late += phase >= 2
                            first.setdefault(x, (value, phase))
                        assert first.get(x) == (value, phase)
    assert "tree_cap" in reasons and late > 0
    assert answers.hexdigest() == PINNED_COLORING_ANSWERS
    assert costs.hexdigest() == PINNED_COLORING_COSTS


def _outcome(state, x):
    """(value, phase_resolved) of item x, or the reason its query failed."""
    try:
        return state.query(x)[:2]
    except ColoringFailure as exc:
        return exc.reason


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(gen_hypergraph, coloring_state), (gen_cnf, sat_state)]),
    st.sampled_from([(60, 8, 6, 2), (60, 16, 6, 3), (80, 40, 4, 6)]),
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(1, 8),
    st.randoms(use_true_random=False),
)
def test_query_order_oblivious(problem, shape, tag, kwise, cap, rng):
    """One shared state, fresh states in a shuffled order, and capped states
    in a shuffled order all give the same answers."""
    gen, state_of = problem
    inst = gen(derive_subseed(SEED, b"obl:%d" % tag), *shape)
    rseed = derive_subseed(SEED, b"oblr:%d" % tag)
    kind = KWiseIndependent(4, next_prime(inst.m**3)) if kwise else FullPseudorandom()
    params = ColoringParams(kind=kind, lenient=True)
    shared = state_of(inst, rseed, params)
    want = [_outcome(shared, x) for x in range(inst.m)]
    order = list(range(inst.m))
    rng.shuffle(order)
    for x in order:
        assert _outcome(state_of(inst, rseed, params), x) == want[x]
    capped = ColoringParams(kind=kind, lenient=True, tree_cap=cap)
    shared = state_of(inst, rseed, capped)
    for x in order:
        for state in (shared, state_of(inst, rseed, capped)):
            got = _outcome(state, x)
            assert got == want[x] or got == "tree_cap"


# Strict (problem, (m, n, k, d), instance indices) cases whose items reach
# phases 2 and 3: every strict PIN_SHAPES item resolves in phase 1, and the
# lenient shape's floored thresholds leave phases 2 and 3 nothing to resolve.
LATE_PIN_CASES = (
    ("coloring", (400, 40, 19, 1), (11,)),
    ("coloring", (800, 40, 40, 2), (1, 8)),
    ("ksat", (800, 40, 40, 2), (0, 1, 5)),
)
PINNED_LATE_ANSWERS = "b5172b78ec31881e54828c737385ad29835eef39ca33e14a113e75c34ed2d93e"
PINNED_LATE_COSTS = "50890b1a62dba9aba921828bd6ce7e955f45e67ce27f66f77cb05eac54e199f9"


def test_pinned_late_phase_answers_and_costs():
    """The shared and fresh modes of test_pinned_answers_and_costs, at the
    default cap, over instances resolved partly in phases 2 and 3."""
    answers, costs = hashlib.sha256(), hashlib.sha256()
    phases = Counter()
    for name, shape, indices in LATE_PIN_CASES:
        problem = PROBLEMS[name]
        for i in indices:
            inst = problem.generate(derive_subseed(SEED, b"p23:%s:%d" % (name.encode(), i)), *shape)
            rseed = derive_subseed(SEED, b"p23r:%d" % i)
            shared = problem.state(inst, rseed)
            first = {}  # item -> its shared-state (value, phase)
            for mode in ("all", "fresh"):
                for x in range(inst.m):
                    tag = (name, i, mode, x)
                    state = shared if mode == "all" else problem.state(inst, rseed)
                    try:
                        value, phase, probes = state.query(x)
                    except ColoringFailure as exc:
                        costs.update(b"%r\n" % (tag + (exc.reason,),))
                        continue
                    costs.update(b"%r\n" % (tag + (probes,),))
                    answers.update(b"%r\n" % (tag + (value, phase),))
                    phases[phase] += 1
                    assert first.setdefault(x, (value, phase)) == (value, phase)
    assert phases[2] > 0 and phases[3] > 0
    assert answers.hexdigest() == PINNED_LATE_ANSWERS
    assert costs.hexdigest() == PINNED_LATE_COSTS
