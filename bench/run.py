"""lcakit benchmark: cold and batched local queries on four workloads.

Run from the repository root:

    python3 bench/run.py --workload matching --seed 1 --seconds 10 --trace 0

One process, one caller, closed loop: every query starts when the previous
one returns.  After set-up, the run repeats rounds until ``--seconds`` have
passed (at least one round), each after one more timed set-up.  A round is

* cold: the workload's fixed, seeded list of single queries, each through
  the public single-query call with no shared cache or state, timed one by
  one;
* batch: every item of every instance through the batch entry point, timed
  per instance.

Timings are CPU times scaled by a reference task run next to them
(``clock.py``), so that a stretch in which the shared machine runs
everything slower does not move them.  A cold query's latency is the
median of its scaled times over the rounds, an instance's batch time
likewise, and ``setup_s`` the median set-up (one before each round).

Every answer is checked: batch answers against an independent oracle, each
cold answer against its batch twin, later rounds against the first, and the
answers at the default seed against the digests in ``golden.json``.  Any
mismatch exits 1 and prints no metrics.

``--trace 0`` prints the end-to-end metrics of the chosen workload.
``--trace 1`` is the separate traced run: it traces every workload, wraps
the library's layer functions from outside (``tracing.py``) and prints the
per-layer metrics, each named ``<workload>.<layer>.<metric>``, plus the
tracing overhead against untraced rounds of the same queries.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

DEFAULT_SEED = 1
# Seed 2 is the held-out seed: the golden digests pin seed 1 only.
GOLDEN_FILE = BENCH_DIR / "golden.json"
COLORING_FAILURE_REASONS = ("tree_cap", "component", "no-good-coloring", "brute-force", "internal")

class Mismatch(Exception):
    """An answer disagreed with its oracle, its batch twin or its digest."""


def _import_library():
    """Import lcakit from this checkout's ``src``, never from elsewhere."""
    if not (SRC_DIR / "lcakit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC_DIR / 'lcakit'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import lcakit

    if Path(lcakit.__file__).resolve().parent != SRC_DIR / "lcakit":
        sys.exit(f"error: imported lcakit from {lcakit.__file__}, not from {SRC_DIR}")


def workload_seed(name: str, n: int):
    from lcakit.ranks import Seed

    return Seed(hashlib.sha256(b"lcakit-bench:%s:%d" % (name.encode(), n)).digest())


def percentile(sorted_values: list, pct: int):
    """Nearest-rank ``pct``-th percentile of a non-empty sorted list."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def median_of(series) -> list[float]:
    """Element-wise median of equally long timing lists (one per round)."""
    return [statistics.median(ts) for ts in zip(*series)]


def digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Rounds and checks
# ---------------------------------------------------------------------------


@dataclass
class Round:
    cold_ns: list
    cold_raws: list
    batch_ns: list  # one entry per instance
    batch_raws: list
    wall_ns: int = 0
    snaps: tuple = ()  # tracer snapshots: before cold, after cold, after batch

    @property
    def busy_ns(self) -> int:
        return sum(self.cold_ns) + sum(self.batch_ns)


def run_round(wl, insts, queries, clock: Clock, tracer=None) -> Round:
    snap = tracer.snapshot if tracer is not None else (lambda: None)
    gc.collect()
    wall0 = time.perf_counter_ns()
    s0 = snap()
    cold_ns, cold_raws = [], []
    for i, j in queries:
        raw, ns = clock.time(wl.cold, insts[i], j)
        cold_ns.append(ns)
        cold_raws.append(raw)
    s1 = snap()
    wall1 = time.perf_counter_ns()
    gc.collect()
    wall2 = time.perf_counter_ns()
    batch_ns, batch_raws = [], []
    for inst in insts:
        raw, ns = clock.time(wl.batch, inst)
        batch_ns.append(ns)
        batch_raws.append(raw)
    s2 = snap()
    wall_ns = wall1 - wall0 + time.perf_counter_ns() - wall2
    return Round(cold_ns, cold_raws, batch_ns, batch_raws, wall_ns, (s0, s1, s2))


class Checker:
    """Checks rounds of one set of instances; the first round sets the
    reference answers after passing the oracle."""

    def __init__(self, wl, insts, queries, clock: Clock):
        self.wl, self.insts, self.queries, self.clock = wl, insts, queries, clock
        self.reference = None
        self.oracle_ns = 0
        self.attempted = 0
        self.failed = 0

    def check(self, rnd: Round) -> None:
        wl, insts = self.wl, self.insts
        problems = []
        answers = []
        for inst, raw in zip(insts, rnd.batch_raws):
            ans, failed = wl.batch_answers(inst, raw)
            answers.append(ans)
            self.attempted += len(inst.items)
            self.failed += failed
        if self.reference is None:
            for inst, raw in zip(insts, rnd.batch_raws):
                found, ns = self.clock.time(wl.oracle, inst, raw)
                problems += found
                self.oracle_ns += ns
            check_cold = getattr(wl, "check_cold", None)
            if check_cold is not None:
                for (i, j), raw in zip(self.queries, rnd.cold_raws):
                    problems += check_cold(insts[i], j, raw)
            self.reference = answers
        elif answers != self.reference:
            problems.append("batch answers differ from the first round's")
        for (i, j), raw in zip(self.queries, rnd.cold_raws):
            ans, failed = wl.cold_answer(raw)
            self.attempted += 1
            self.failed += failed
            ref = self.reference[i]
            if ref is not None and ref[j] != ans:
                problems.append(
                    f"{insts[i].label} item {j}: cold answer {ans!r} != batch answer {ref[j]!r}"
                )
        if problems:
            more = f"\n... and {len(problems) - 10} more" if len(problems) > 10 else ""
            raise Mismatch(f"{wl.name}:\n" + "\n".join(problems[:10]) + more)


def timed_setup(wl, seed, clock: Clock) -> tuple[list, float]:
    gc.collect()
    return clock.time(wl.setup, seed)


@dataclass
class Measured:
    insts: list
    queries: list
    rounds: list
    checker: Checker
    setup_ns: list
    clock: Clock


def measure(wl, seed, seconds: float) -> Measured:
    """Set up, then run checked rounds until ``seconds`` have passed.

    Every round after the first is preceded by one more (discarded) set-up,
    so set-up is timed as often as the rounds and across the same span.
    """
    clock = Clock()
    insts, ns = timed_setup(wl, seed, clock)
    setup_ns = [ns]
    queries = wl.cold_queries(seed, insts)
    checker = Checker(wl, insts, queries, clock)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if rounds:
            setup_ns.append(timed_setup(wl, seed, clock)[1])
        rnd = run_round(wl, insts, queries, clock)
        checker.check(rnd)
        if rounds:  # keep only the first round's raw results
            rnd.cold_raws = rnd.batch_raws = None
        rounds.append(rnd)
    return Measured(insts, queries, rounds, checker, setup_ns, clock)


def golden_check(wl, size: str) -> None:
    """Batch-answer the default seed's instances and compare the digest."""
    seed = workload_seed(wl.name, DEFAULT_SEED)
    insts = wl.setup(seed)
    clock = Clock()
    checker = Checker(wl, insts, [], clock)
    checker.check(run_round(wl, insts, [], clock))
    got = digest(checker.reference)
    want = json.loads(GOLDEN_FILE.read_text())["sha256"][size].get(wl.name)
    if got != want:
        raise Mismatch(
            f"{wl.name}: answers at seed {DEFAULT_SEED} ({size}) have "
            f"sha256 {got}, golden.json pins {want}"
        )


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def end_to_end(wl, seed, seconds: float, size: str):
    m = measure(wl, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds, checker, queries = m.rounds, m.checker, m.queries
    items = sum(len(inst.items) for inst in m.insts)
    golden_check(wl, size)

    lat = sorted(median_of(r.cold_ns for r in rounds))
    metrics = {
        "setup_s": (statistics.median(m.setup_ns) / 1e9, "s"),
        "query_p50_us": (percentile(lat, 50) / 1e3, "us"),
        "query_p99_us": (percentile(lat, 99) / 1e3, "us"),
        "batch_items_per_s": (items * 1e9 / sum(median_of(r.batch_ns for r in rounds)), "1/s"),
        "answered_frac": (1 - checker.failed / checker.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {
        "setup_reps": len(m.setup_ns),
        "cold_queries": len(queries),
        "rounds": len(rounds),
        "batch_items_per_round": items,
        "reference_runs": len(m.clock.history),
        "reference_median_ms": statistics.median(m.clock.history) / 1e6,
    }
    return metrics, samples, checker.attempted, checker.failed


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def traced(wl, seed, seconds: float, size: str):
    """Per-layer metrics of one workload, named ``<workload>.<...>``."""
    import tracing
    import workloads
    from lcakit import ballsbins, coloring, engine, exploration, graphs, matching, ranks

    m = measure(wl, seed, seconds)
    insts, queries, rounds, checker = m.insts, m.queries, m.rounds, m.checker
    modules = {
        "ranks": ranks, "graphs": graphs, "exploration": exploration, "engine": engine,
        "matching": matching, "ballsbins": ballsbins, "coloring": coloring,
        "bench": workloads,
    }
    tracer = tracing.Tracer(modules)
    with tracer:
        tracing.install(tracer)
        s_setup = tracer.snapshot()
        wl.setup(seed)
        rnd = run_round(wl, insts, queries, m.clock, tracer)
    checker.check(rnd)
    s0, s1, s2 = rnd.snaps

    def calls(key, a=s0, b=s2):
        return tracer.between(a, b, key)[0]

    def per_call(key, scale=1.0, a=s0, b=s2):
        n, ns, _ = tracer.between(a, b, key)
        return ns / n / scale if n else 0.0

    def values(key, a=s0, b=s2):
        return tracer.between(a, b, key)[2]

    p = wl.name
    items = sum(len(inst.items) for inst in insts)
    sizes = sorted(values("exploration.walk")) or [0]
    out = {
        f"{p}.ranks.full_key_ns": (per_call("ranks.full_key"), "ns"),
        f"{p}.ranks.keys_per_query": (calls("ranks.full_key", s0, s1) / len(queries), "count"),
        f"{p}.graphs.adjacency_ns": (per_call("graphs.adjacency"), "ns"),
        f"{p}.exploration.walk_us": (per_call("exploration.walk", 1e3), "us"),
        f"{p}.exploration.closure_size_mean": (_mean(sizes), "count"),
        f"{p}.exploration.closure_size_p99": (percentile(sizes, 99), "count"),
        f"{p}.exploration.closure_size_max": (sizes[-1], "count"),
        f"{p}.trace.overhead_frac": (
            rnd.busy_ns / statistics.median(r.busy_ns for r in rounds) - 1, "ratio"
        ),
    }
    if wl.name in ("coloring", "closure-stats"):
        out[f"{p}.ranks.derive_subseed_ns"] = (per_call("ranks.derive_subseed", a=s_setup), "ns")
        out[f"{p}.ranks.stream_u64_ns"] = (per_call("ranks.stream_u64", a=s_setup), "ns")
    if wl.name != "closure-stats":
        members = sum(values("exploration.walk", s1, s2))
        out[f"{p}.exploration.members_per_answer"] = (members / items, "count")
    for gen in wl.generators:
        out[f"{p}.graphs.gen_s.{gen}"] = (per_call("graphs.gen." + gen, 1e9, a=s_setup), "s")
    busy = tracer.self_ns_by_layer(s0, s2)
    # the round's wall time without what the wrappers themselves cost
    wrapped_calls = sum(tracer.between(s0, s2, key)[0] for key in tracer.stats)
    untraced_ns = rnd.wall_ns - wrapped_calls * tracer.overhead_ns
    for layer in wl.layers:
        out[f"{p}.{layer}.self_frac"] = (busy.get(layer, 0) / untraced_ns, "ratio")

    first = rounds[0]
    oracle_rate = items / (checker.oracle_ns / 1e9) if checker.oracle_ns else 0.0
    if wl.name == "matching":
        js = [j for i, j in queries if i == 0]
        eval_ns, walk_ns, verdicts = wl.engine_probe(insts[0], js)
        wrong = [j for j, v in zip(js, verdicts) if v != checker.reference[0][j]]
        if wrong:
            raise Mismatch(f"matching: eval_local verdicts differ from the batch on edges {wrong[:10]}")
        out["matching.engine.eval_local_us"] = (_mean(eval_ns) / 1e3, "us")
        out["matching.engine.replay_us"] = ((_mean(eval_ns) - _mean(walk_ns)) / 1e3, "us")
        costs = values("matching.is_matched", s1, s2)
        out["matching.edges_evaluated_per_answer"] = (_mean(v[1] for v in costs), "count")
        out["matching.probes_per_query"] = (
            _mean(r.probes for r in first.cold_raws if r is not workloads.FAILED), "count"
        )
        out["matching.oracle_items_per_s"] = (oracle_rate, "1/s")
    elif wl.name == "ballsbins":
        cold_med = median_of(r.cold_ns for r in rounds)
        batch_med = median_of(r.batch_ns for r in rounds)
        for i, inst in enumerate(insts):
            lat = sorted(ns for (q, _), ns in zip(queries, cold_med) if q == i)
            rate = len(inst.items) * 1e9 / batch_med[i]
            out[f"ballsbins.{inst.label}.query_p50_us"] = (percentile(lat, 50) / 1e3, "us")
            out[f"ballsbins.{inst.label}.batch_items_per_s"] = (rate, "1/s")
        out["ballsbins.probes_per_query"] = (_mean(r.probes for r in first.cold_raws), "count")
        out["ballsbins.oracle_items_per_s"] = (oracle_rate, "1/s")
    elif wl.name == "coloring":
        answers = values("coloring.query", s1, s2)  # (phase, probes) per batch answer
        out["coloring.state_setup_us"] = (per_call("coloring.state_setup", 1e3), "us")
        out["coloring.probes_per_query"] = (
            _mean(r.probes for r in first.cold_raws if not isinstance(r, coloring.ColoringFailure)),
            "count",
        )
        out["coloring.probes_per_answer"] = (_mean(pr for _, pr in answers), "count")
        for phase in (1, 2, 3, 4):
            share = sum(1 for ph, _ in answers if ph == phase) / max(1, len(answers))
            out[f"coloring.resolved_phase{phase}_frac"] = (share, "ratio")
        reasons = [
            r.reason for r in first.cold_raws + first.batch_raws
            if isinstance(r, coloring.ColoringFailure)
        ]
        for reason in COLORING_FAILURE_REASONS:
            out[f"coloring.failures.{reason}"] = (reasons.count(reason), "count")

    samples = {"untraced_rounds": len(rounds), "cold_queries_per_round": len(queries),
               "batch_items_per_round": items}
    golden_check(wl, size)
    return out, samples, checker.attempted, checker.failed


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("matching", "ballsbins", "coloring", "closure-stats"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny instances, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_library()
    import workloads

    try:
        return _run(args, workloads)
    except Mismatch as exc:
        print(f"MISMATCH {exc}", file=sys.stderr)
        return 1


def _run(args, workloads) -> int:
    info = {"machine": machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size}
    metrics, attempted, failed = {}, 0, 0
    if args.trace:
        # every workload, so every per-layer metric is measured where it applies
        info["samples"] = {}
        names = workloads.WORKLOADS
        for name in names:
            wl = workloads.SIZES[args.size][name]()
            got, samples, a, f = traced(
                wl, workload_seed(name, args.seed), args.seconds / (2 * len(names)), args.size
            )
            metrics.update(got)
            info["samples"][name] = samples
            attempted, failed = attempted + a, failed + f
    else:
        wl = workloads.SIZES[args.size][args.workload]()
        metrics, info["samples"], attempted, failed = end_to_end(
            wl, workload_seed(wl.name, args.seed), args.seconds, args.size
        )
    print(json.dumps(info))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
