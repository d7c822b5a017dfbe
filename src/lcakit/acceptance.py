"""Acceptance suite: every release-gating check, one function per criterion.

Each criterion runs at a fixed seed, compares against an independent oracle
(global replay, exhaustive enumeration, closed-form expectations, or an
output checker), and enforces its tolerance and runtime budget.  The CLI
``accept`` subcommand and ``tests/test_acceptance.py`` both drive this
module, so the gate is identical either way.

A criterion is a body that returns ``(passed, details)``, registered in
:data:`CRITERIA` by ``@_criterion(cid, name, budget)``.  The harness times
the body and turns the pair into a :class:`CriterionResult`; a criterion
with a wall-clock budget passes only if it also ran in under that many
seconds, so each budget is written once, in its decorator.

Statistical tolerances are pinned: oracle comparisons demand exact equality;
sampling checks use 3-standard-error bands or pre-derived bounds; scaling
checks use constants frozen from calibration runs at the fixed seed (noted
inline).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import ballsbins, coloring, matching
from .engine import eval_global, eval_local
from .exploration import (
    Binomial,
    Regular,
    TreeStatsSpec,
    gw_sizes,
    lower_bound_experiment,
    tail_slope,
    tree_stats,
)
from .graphs import (
    gen_binomial,
    gen_bounded_degree,
    gen_bipartite_choices,
    gen_cnf,
    gen_hypergraph,
    line_graph,
)
from .ranks import RandomStream, Seed, derive_subseed, polynomial_rank

ACCEPT_SEED_HEX = "5eed" * 16

# Frozen from calibration runs at ACCEPT_SEED (1.5x-2x margin over the
# observed maxima); they are regression bounds, not theory constants.
MAX_OVER_LOG_BOUND = 90.0  # criterion 4b: max closure size / log2(n)
PROBES_OVER_LOG4_BOUND = 6.0  # criterion 7: max probes / log2(n)^4
MATCHING_CAP = 2048  # criterion 1: max observed edge closure ~230


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    budget: float | None
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        budget = f"/{self.budget:.0f}s" if self.budget else ""
        return f"{status} criterion {self.cid}: {self.name} ({self.elapsed:.1f}s{budget})"


CRITERIA: dict[int, Callable[[], CriterionResult]] = {}


def _criterion(cid: int, name: str, budget: float | None = None):
    """Register a criterion body that returns ``(passed, details)``.

    The registered function times the body and fails it unless it also ran
    in under ``budget`` seconds, when a budget is given.
    """

    def register(body: Callable[[], tuple[bool, dict]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.time()
            passed, details = body()
            elapsed = time.time() - t0
            if budget is not None:
                passed = passed and elapsed < budget
            return CriterionResult(cid, name, passed, elapsed, budget, details)

        CRITERIA[cid] = run
        return run

    return register


def _seed() -> Seed:
    return Seed.from_hex(ACCEPT_SEED_HEX)


@_criterion(1, "matching verdicts equal global greedy on every edge", 60)
def criterion_1() -> tuple[bool, dict]:
    """Matching oracle equivalence: 100 seeds, n=1000, d=5, zero mismatches."""
    seed = _seed()
    mismatched = 0
    not_maximal = 0
    edges_total = 0
    for i in range(100):
        g = gen_bounded_degree(derive_subseed(seed, b"c1:graph:%d" % i), 1000, 5)
        rseed = derive_subseed(seed, b"c1:ranks:%d" % i)
        local = matching.full_matching(g, rseed, cap=MATCHING_CAP)
        oracle = matching.greedy_by_rank(g, rseed)
        edges_total += g.edge_count
        if local != oracle:
            mismatched += 1
        if not matching.verify_maximal(g, local):
            not_maximal += 1
    passed = mismatched == 0 and not_maximal == 0
    return passed, {
        "seeds": 100,
        "edges_compared": edges_total,
        "mismatched_runs": mismatched,
        "non_maximal_runs": not_maximal,
    }


@_criterion(2, "non-failed bin assignments equal the global run", 120)
def criterion_2() -> tuple[bool, dict]:
    """Load-balancing oracle equivalence at n=m=10^4, d=2, three rules."""
    seed = _seed()
    n = m = 10**4
    cap = ballsbins.default_cap(m)
    mismatches = 0
    failures = 0
    queries = 0
    for name, caps in (("least-loaded", None), ("always-go-left", None), ("capacity", [1] * m)):
        rule = ballsbins.RULES[name]
        for i in range(20):
            bc = gen_bipartite_choices(
                derive_subseed(seed, b"c2:%s:inst:%d" % (name.encode(), i)),
                n,
                m,
                2,
                rule.scheme,
                capacities=caps,
            )
            rseed = derive_subseed(seed, b"c2:%s:ranks:%d" % (name.encode(), i))
            glob, _ = ballsbins.run_global(bc, rule, rseed)
            local, _ = ballsbins.assign_all(bc, rule, rseed, cap=cap)
            for a, b in zip(glob, local):
                queries += 1
                if b.failed:
                    failures += 1
                elif a.bin != b.bin:
                    mismatches += 1
    failure_rate = failures / queries
    passed = mismatches == 0 and failure_rate < 1e-3
    return passed, {
        "queries": queries,
        "mismatches": mismatches,
        "failures": failures,
        "failure_rate": failure_rate,
        "cap": cap,
    }


def _chain_rule(v, x, deps):
    return 0 if not deps else 1 + max(o for _, o in deps)


def _greedy_rule(v, x, deps):
    return not any(o for _, o in deps)


@_criterion(3, "micro-scale brute-force equivalence (chain + greedy rules)")
def criterion_3() -> tuple[bool, dict]:
    """Local equals global on every vertex: 512 micro-instances x 100 seeds."""
    seed = _seed()
    corpus = []
    for i in range(512):
        n = 2 + (i % 7)
        d = 1 + (i % 4)
        gseed = derive_subseed(seed, b"c3:inst:%d" % i)
        if i % 2 == 0:
            g = gen_bounded_degree(gseed, n, d)
        else:
            g = gen_binomial(gseed, n, min(d, n - 1))
        corpus.append((g, line_graph(g)[0]))
    mismatches = 0
    checks = 0
    for idx, (g, lg) in enumerate(corpus):
        for j in range(100):
            rseed = derive_subseed(seed, b"c3:ranks:%d" % j)
            trace = eval_global(g, _chain_rule, rseed)
            for v in range(g.n):
                out, _ = eval_local(g, v, _chain_rule, rseed)
                checks += 1
                if out != trace.outputs[v]:
                    mismatches += 1
            if lg.n:
                trace = eval_global(lg, _greedy_rule, rseed)
                for v in range(lg.n):
                    out, _ = eval_local(lg, v, _greedy_rule, rseed)
                    checks += 1
                    if out != trace.outputs[v]:
                        mismatches += 1
    passed = mismatches == 0
    return passed, {"instances": len(corpus), "checks": checks, "mismatches": mismatches}


@_criterion(4, "closure size: mean flat in n, max within C*log2(n)", 300)
def criterion_4() -> tuple[bool, dict]:
    """Closure-size scaling: flat means, at most logarithmic maxima."""
    seed = _seed()
    points = {}
    for gen in ("bounded", "binomial"):
        for p in (10, 12, 14, 16):
            n = 2**p
            spec = TreeStatsSpec(
                gen, n, 5, instances=10, queries_per_instance=1000, cap=4096
            )
            ts = tree_stats(spec, derive_subseed(seed, b"c4:%s:%d" % (gen.encode(), n)))
            points[(gen, n)] = ts
    mean_ratios = {}
    ratio_max = 0.0
    truncations = 0
    for gen in ("bounded", "binomial"):
        means = [points[(gen, 2**p)].mean_size for p in (10, 12, 14, 16)]
        mean_ratios[gen] = max(means) / min(means)
        for p in (10, 12, 14, 16):
            ts = points[(gen, 2**p)]
            ratio_max = max(ratio_max, ts.max_size / math.log2(2**p))
            truncations += ts.truncated_trials
    passed = (
        all(r < 2.0 for r in mean_ratios.values())
        and ratio_max <= MAX_OVER_LOG_BOUND
        and truncations == 0
    )
    return passed, {
        "mean_ratio_by_generator": mean_ratios,
        "max_over_log": ratio_max,
        "bound": MAX_OVER_LOG_BOUND,
        "means": {f"{g}:{2**p}": points[(g, 2**p)].mean_size
                  for g in ("bounded", "binomial") for p in (10, 12, 14, 16)},
        "maxima": {f"{g}:{2**p}": points[(g, 2**p)].max_size
                   for g in ("bounded", "binomial") for p in (10, 12, 14, 16)},
        "truncations": truncations,
    }


@_criterion(5, "branching-tree mean within 5%, tail slope <= -0.1", 30)
def criterion_5() -> tuple[bool, dict]:
    """Subcritical branching trees: mean progeny 1/(1-d/L), exponential tail."""
    seed = _seed()
    trials = 10**5
    expected_mean = 1 / (1 - 3 / 9)
    results = {}
    for label, spec in (
        ("regular", Regular(3, 9)),
        ("binomial", Binomial(10**4, 3 / (9 * 10**4))),
    ):
        samples = gw_sizes(derive_subseed(seed, b"c5:" + label.encode()), spec, range(trials))
        sizes = [s.size for s in samples]
        mean = sum(sizes) / trials
        slope = tail_slope(sizes, 5, 30)
        results[label] = {
            "mean": mean,
            "rel_err": abs(mean - expected_mean) / expected_mean,
            "slope": slope,
            "all_extinct": all(s.extinct for s in samples),
        }
    passed = (
        all(r["rel_err"] < 0.05 for r in results.values())
        and all(r["slope"] <= -0.1 for r in results.values())
    )
    return passed, {"expected_mean": expected_mean, "trials": trials, **results}


@_criterion(6, "path-closure frequency equals 1/k! (k=2, 5)", 60)
def criterion_6() -> tuple[bool, dict]:
    """Full-path closure frequency matches 1/k! within 3 standard errors."""
    seed = _seed()
    checks = {}
    for k, trials in ((2, 10**5), (5, 10**6)):
        freq = lower_bound_experiment(k, trials, derive_subseed(seed, b"c6:%d" % k))
        expected = 1 / math.factorial(k)
        se = math.sqrt(expected * (1 - expected) / trials)
        checks[k] = {
            "frequency": freq,
            "expected": expected,
            "deviation_in_se": abs(freq - expected) / se,
        }
    return all(c["deviation_in_se"] <= 3.0 for c in checks.values()), {str(k): v for k, v in checks.items()}


@_criterion(7, "valid 2-colorings and satisfying assignments; probes within C*log^4(n)")
def criterion_7() -> tuple[bool, dict]:
    """Coloring and CNF validity over 50 seeds plus a probe-scaling sweep."""
    seed = _seed()
    k, d = 40, 2
    outcomes = {}
    for label, problem in coloring.PROBLEMS.items():
        failures = 0
        invalid = 0
        for i in range(50):
            iseed = derive_subseed(seed, b"c7:%s:inst:%d" % (label.encode(), i))
            rseed = derive_subseed(seed, b"c7:%s:ranks:%d" % (label.encode(), i))
            try:
                inst = problem.generate(iseed, 800, 40, k, d)
                state = problem.state(inst, rseed)
                values = [problem.render(state.query(x)[0]) for x in range(inst.m)]
                if not problem.verify(inst, values):
                    invalid += 1
            except coloring.ColoringFailure:
                failures += 1
        outcomes[label] = {
            "runs": 50,
            "failures": failures,
            "invalid": invalid,
            "failure_rate": failures / 50,
        }
    # probe scaling at fixed (k, d) across an instance sweep, fresh state per query
    probe_ratio_max = 0.0
    probe_stats = {}
    for n_edges in (20, 40, 80):
        m = 20 * n_edges
        worst = 0
        for i in range(3):
            h = gen_hypergraph(
                derive_subseed(seed, b"c7:probe:inst:%d:%d" % (n_edges, i)), m, n_edges, k, d
            )
            rseed = derive_subseed(seed, b"c7:probe:ranks:%d:%d" % (n_edges, i))
            for x in range(h.m):
                worst = max(worst, coloring.color_query(h, x, rseed).probes)
        ratio = worst / math.log2(n_edges) ** 4
        probe_stats[n_edges] = {"max_probes": worst, "ratio": ratio}
        probe_ratio_max = max(probe_ratio_max, ratio)
    passed = (
        all(o["invalid"] == 0 for o in outcomes.values())
        and all(o["failure_rate"] < 0.01 for o in outcomes.values())
        and probe_ratio_max <= PROBES_OVER_LOG4_BOUND
    )
    return passed, {
        **outcomes,
        "probe_ratio_max": probe_ratio_max,
        "probe_bound": PROBES_OVER_LOG4_BOUND,
        "probe_stats": {str(k_): v for k_, v in probe_stats.items()},
    }


def _shuffled_queries(seed: Seed, label: bytes, population: int, count: int) -> tuple:
    stream = RandomStream(seed, label)
    subset = sorted(set(stream._randranges([population] * count)))
    order1 = list(subset)
    order2 = list(subset)
    stream.shuffle(order1)
    stream.shuffle(order2)
    return order1, order2


@_criterion(8, "answers independent of query order and equal to the full solution")
def criterion_8() -> tuple[bool, dict]:
    """Query-order obliviousness and full-solution consistency, every algorithm."""
    seed = _seed()
    violations = 0
    runs = 0

    for i in range(20):
        # matching
        g = gen_bounded_degree(derive_subseed(seed, b"c8:m:inst:%d" % i), 300, 4)
        rseed = derive_subseed(seed, b"c8:m:ranks:%d" % i)
        solution = matching.greedy_by_rank(g, rseed)
        edges = g.edges()
        o1, o2 = _shuffled_queries(rseed, b"c8:m:q", len(edges), 40)
        a1 = {j: matching.is_matched(g, edges[j], rseed).matched for j in o1}
        a2 = {j: matching.is_matched(g, edges[j], rseed).matched for j in o2}
        runs += 1
        if a1 != a2 or any(a1[j] != (edges[j] in solution) for j in a1):
            violations += 1

        # balls and bins
        rule = ballsbins.RULES["least-loaded"]
        bc = gen_bipartite_choices(
            derive_subseed(seed, b"c8:b:inst:%d" % i), 1000, 1000, 2, rule.scheme
        )
        rseed = derive_subseed(seed, b"c8:b:ranks:%d" % i)
        full, _ = ballsbins.assign_all(bc, rule, rseed)
        o1, o2 = _shuffled_queries(rseed, b"c8:b:q", 1000, 50)
        q1 = {b: ballsbins.assign_query(bc, b, rule, rseed) for b in o1}
        q2 = {b: ballsbins.assign_query(bc, b, rule, rseed) for b in o2}
        runs += 1
        if q1 != q2 or any(q1[b] != full[b] for b in q1):
            violations += 1

        # hypergraph coloring and CNF
        for label, gen, all_fn, query_fn in (
            (b"c8:h", gen_hypergraph, coloring.color_all,
             lambda inst, x, rs: coloring.color_query(inst, x, rs).color),
            (b"c8:s", gen_cnf, coloring.sat_all,
             lambda inst, x, rs: coloring.sat_query(inst, x, rs).value),
        ):
            inst = gen(derive_subseed(seed, label + b":inst:%d" % i), 400, 20, 40, 2)
            rseed = derive_subseed(seed, label + b":ranks:%d" % i)
            full_solution = all_fn(inst, rseed)
            o1, o2 = _shuffled_queries(rseed, label + b":q", inst.m, 30)
            r1 = {x: query_fn(inst, x, rseed) for x in o1}
            r2 = {x: query_fn(inst, x, rseed) for x in o2}
            runs += 1
            if r1 != r2 or any(r1[x] != full_solution[x] for x in r1):
                violations += 1
    passed = violations == 0
    return passed, {"runs": runs, "violations": violations}


@_criterion(9, "every 3-subset order frequency within 0.05 of 1/6 (exhaustive)", 10)
def criterion_9() -> tuple[bool, dict]:
    """Exact order uniformity of the polynomial ordering (k=3, p=31, n=8)."""
    p, n = 31, 8
    # the k-wise rank value of every item under every coefficient triple
    values = [
        [polynomial_rank(coeffs, p, x) for x in range(n)]
        for coeffs in itertools.product(range(p), repeat=3)
    ]
    total = len(values)
    worst = 0.0
    subsets = list(itertools.combinations(range(n), 3))
    for s in subsets:
        # a stable sort of the ascending ids breaks value ties by owner id
        counts = Counter(tuple(sorted(s, key=row.__getitem__)) for row in values)
        worst = max(worst, max(abs(counts[o] / total - 1 / 6) for o in itertools.permutations(s)))
    passed = worst <= 0.05
    return passed, {"triples": total, "subsets": len(subsets), "worst_deviation": worst}


@_criterion(10, "two-choice max load within bound; grouped rule no worse on average")
def criterion_10() -> tuple[bool, dict]:
    """Max-load sanity at n=m=10^4: two-choice bound, grouped rule no worse."""
    seed = _seed()
    n = m = 10**4
    bound = math.ceil(math.log2(math.log2(n))) + 4
    ll_max = []
    agl_max = []
    for i in range(50):
        for tag, name, out in ((b"u", "least-loaded", ll_max), (b"g", "always-go-left", agl_max)):
            rule = ballsbins.RULES[name]
            bc = gen_bipartite_choices(
                derive_subseed(seed, b"c10:%s:inst:%d" % (tag, i)), n, m, 2, rule.scheme
            )
            _, prof = ballsbins.run_global(
                bc, rule, derive_subseed(seed, b"c10:%s:ranks:%d" % (tag, i))
            )
            out.append(prof.max_load)
    within = sum(1 for x in ll_max if x <= bound) / len(ll_max)
    ll_mean = sum(ll_max) / len(ll_max)
    agl_mean = sum(agl_max) / len(agl_max)
    passed = within >= 0.95 and agl_mean <= ll_mean
    return passed, {
        "bound": bound,
        "fraction_within_bound": within,
        "least_loaded_mean_max": ll_mean,
        "always_go_left_mean_max": agl_mean,
    }


def run_all(ids: list[int] | None = None) -> list[CriterionResult]:
    selected = sorted(ids) if ids else sorted(CRITERIA)
    return [CRITERIA[i]() for i in selected]
