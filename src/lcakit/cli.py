"""Experiment runner CLI.

Every subcommand is a pure function of its flags: the seed is explicit (or
taken from ``LCAKIT_SEED``, but always echoed), trials use derived subseeds,
and reports are emitted without timing data, so rerunning an echoed spec
reproduces the report byte for byte.  Wall-clock time goes to stderr.

Exit codes: 0 success, 2 invalid parameters, 3 instance generation failed,
4 algorithm failure budget exceeded (or acceptance criteria failed).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from importlib import resources

import click

from . import __version__, acceptance, ballsbins, coloring, exploration, graphs, matching
from .exploration import (
    Binomial,
    Regular,
    TreeStatsSpec,
    lower_bound_experiment,
    stats_from_sizes,
    tail_slope,
)
from .ranks import FullPseudorandom, KWiseIndependent, Seed, derive_subseed, next_prime

DEFAULT_SEED_HEX = "c0ffee00" * 8

EXIT_GENERATION = 3
EXIT_BUDGET = 4


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def load_schema() -> dict:
    with resources.files("lcakit").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def validate_report(report: dict, schema: dict | None = None, path: str = "$") -> None:
    """Check a report against the checked-in structural schema."""
    schema = schema if schema is not None else load_schema()
    expected = schema.get("type")
    kinds = {
        "object": dict,
        "array": list,
        "string": str,
        "integer": int,
        "number": (int, float),
        "boolean": bool,
    }
    if expected is not None:
        if expected == "integer" and isinstance(report, bool):
            raise ValueError(f"{path}: expected integer, got boolean")
        if not isinstance(report, kinds[expected]):
            raise ValueError(f"{path}: expected {expected}, got {type(report).__name__}")
    if expected == "object":
        for key in schema.get("required", []):
            if key not in report:
                raise ValueError(f"{path}: missing required field {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in report:
                validate_report(report[key], sub, f"{path}.{key}")


def _report(subcommand: str, spec: dict, results: dict) -> dict:
    report = {
        "schema_version": 1,
        "subcommand": subcommand,
        "spec": spec,
        "results": results,
        "fingerprint": {
            "package": "lcakit",
            "version": __version__,
            "seed": spec.get("seed", ""),
        },
    }
    validate_report(report)
    return report


def _emit(report: dict, out: str | None, fmt: str, csv_rows=None) -> None:
    """Serialize fully, then write once (temp file + rename when to disk)."""
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        header, rows = csv_rows() if csv_rows else (["key", "value"], [])
        lines = [",".join(header)]
        lines.extend(",".join(str(x) for x in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out)


def _parallel_map(fn, args_list, jobs: int) -> list:
    """Order-preserving map, optionally across processes, one per task at most:
    a fork-started pool launches all of its workers up front."""
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=min(jobs, len(args_list))) as pool:
        return list(pool.map(fn, args_list))


def _ordering(name: str, kwise_k: int, universe: int):
    if name == "full":
        return FullPseudorandom()
    return KWiseIndependent(kwise_k, next_prime(max(universe, 2) ** 3))


def _generate(fn, *args, **kwargs):
    """Call fn; a ValueError (from an instance generator) exits with code 3."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        click.echo(f"instance generation failed: {exc}", err=True)
        sys.exit(EXIT_GENERATION)


def _int_list(text: str, flag: str) -> list[int]:
    """Parse a comma-separated integer flag value; blank items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise click.BadParameter(
            "expected comma-separated integers", param_hint=f"'{flag}'"
        ) from None


# ---------------------------------------------------------------------------
# Per-trial workers for --jobs (top level, so that a partial of them pickles)
# ---------------------------------------------------------------------------


def _gw_chunk_sizes(seed: Seed, offspring, cap: int, trials: range) -> list[int]:
    """Tree sizes of one chunk; sizes, not samples, go back from a worker."""
    return [sample.size for sample in exploration.gw_sizes(seed, offspring, trials, cap)]


def _coloring_worker(kind, m, n, k, d, lenient, inst, seed: Seed, trial: int) -> dict:
    """One trial; ``inst`` is the ``--input`` instance, or None to generate."""
    problem = coloring.PROBLEMS[kind]
    iseed = derive_subseed(seed, b"instance:%d" % trial)
    rseed = derive_subseed(seed, b"ranks:%d" % trial)
    params = coloring.ColoringParams(lenient=lenient)
    out = {"trial": trial, "failed": False, "valid": None, "phases": {}, "max_probes": 0}
    try:
        if inst is None:
            inst = problem.generate(iseed, m, n, k, d)
        state = problem.state(inst, rseed, params)
        values = []
        for x in range(inst.m):
            val, phase, probes = state.query(x)
            values.append(problem.render(val))
            out["phases"][str(phase)] = out["phases"].get(str(phase), 0) + 1
            out["max_probes"] = max(out["max_probes"], probes)
        out["valid"] = problem.verify(inst, values)
        out["values"] = values
    except coloring.ColoringFailure as exc:
        out["failed"] = True
        out["reason"] = exc.reason
    return out


def _ballsbins_worker(n, m, d, rule_name, caps, cap, seed: Seed, trial: int) -> dict:
    rule = ballsbins.RULES[rule_name]
    bc = graphs.gen_bipartite_choices(
        derive_subseed(seed, b"instance:%d" % trial), n, m, d, rule.scheme, capacities=caps
    )
    rseed = derive_subseed(seed, b"ranks:%d" % trial)
    assignments, profile = ballsbins.assign_all(bc, rule, rseed, cap=cap)
    return {
        "trial": trial,
        "failures": sum(1 for a in assignments if a.failed),
        "max_load": profile.max_load,
        "probes_mean": sum(a.probes for a in assignments) / max(1, len(assignments)),
        "probes_max": max((a.probes for a in assignments), default=0),
        "rows": [(a.ball, a.bin, int(a.failed), a.probes) for a in assignments],
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

# Size flags stop at the loaders' item limits, so no flag asks for an
# instance that a loader would refuse.  oracle-compare's --n counts
# vertices or balls, so it stops at the smaller limit.
_MAX_VERTICES = graphs.ITEM_LIMITS["graph"]
_MAX_BALLS_BINS = graphs.ITEM_LIMITS["balls-bins"]


def _check_degree(kind: str, n: int, d: int) -> None:
    """Refuse ``--n`` times ``--d`` over ``kind``'s item limit times the
    degree that limit was measured at (5 for a graph, 2 for balls and bins),
    so that ``--d`` asks for no instance too large to build, and every size
    the item limit allows at that degree stays allowed."""
    limit = graphs.ITEM_LIMITS[kind] * (5 if kind == "graph" else 2)
    if n * d > limit:
        raise click.BadParameter(
            f"--n {n} times --d {d} is over the {kind} limit of {limit} (items times degree)",
            param_hint="'--d'",
        )


@click.group()
@click.option(
    "--seed",
    envvar="LCAKIT_SEED",
    default=DEFAULT_SEED_HEX,
    help="64 hex characters; defaults to LCAKIT_SEED or a fixed constant.",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--jobs", type=click.IntRange(1, 256), default=1, show_default=True)
@click.pass_context
def main(ctx, seed, fmt, out, jobs):
    """Reproducible experiments over the local-query algorithms."""
    try:
        parsed = Seed.from_hex(seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise click.BadParameter(f"directory of {out!r} does not exist", param_hint="--out")
    ctx.obj = {"seed": parsed, "fmt": fmt, "out": out, "jobs": jobs, "t0": time.time()}


def _finish(ctx, results: dict, csv_rows=None, **used):
    """Emit the report, then print the wall clock since :func:`main` to stderr.

    The report's spec is the run's seed hex and every flag of the command,
    each as parsed, or as ``used`` says the command took it.  It leaves out
    only ``--failure-budget``, which sets the exit code and no result.
    """
    spec = {"seed": ctx.obj["seed"].hex(), **ctx.params, **used}
    spec.pop("failure_budget", None)
    subcommand = ctx.command.name
    _emit(_report(subcommand, spec, results), ctx.obj["out"], ctx.obj["fmt"], csv_rows)
    click.echo(f"[{subcommand}] wall clock {time.time() - ctx.obj['t0']:.2f}s", err=True)


@main.command("tree-stats")
@click.option("--generator", type=click.Choice(["bounded", "binomial"]), default="bounded")
@click.option("--n", type=click.IntRange(1, _MAX_VERTICES), default=1024, show_default=True)
@click.option("--d", type=click.IntRange(1), default=5, show_default=True)
@click.option("--instances", type=click.IntRange(1), default=10, show_default=True)
@click.option("--queries", type=click.IntRange(1), default=1000, show_default=True)
@click.option("--cap", type=click.IntRange(1), default=4096, show_default=True)
@click.option("--thresholds", default="", help="comma-separated tail thresholds")
@click.pass_context
def tree_stats_cmd(ctx, generator, n, d, instances, queries, cap, thresholds):
    """Relevant-set size statistics over many (instance, root) trials."""
    thresh = tuple(_int_list(thresholds, "--thresholds"))
    _check_degree("graph", n, d)
    if generator == "binomial" and d >= n:
        raise click.UsageError("binomial generator needs d < n")
    experiment = TreeStatsSpec(generator, n, d, instances, queries, cap)
    worker = partial(exploration._instance_sizes, experiment, ctx.obj["seed"])
    chunks = _generate(_parallel_map, worker, range(instances), ctx.obj["jobs"])
    sizes: list[int] = []
    truncated = 0
    for chunk_sizes, chunk_trunc in chunks:
        sizes.extend(chunk_sizes)
        truncated += chunk_trunc
    stats = stats_from_sizes(sizes, thresh, truncated)
    _finish(
        ctx,
        stats.to_dict(),
        csv_rows=lambda: (["size", "count"], list(stats.sizes)),
        thresholds=list(thresh),
    )


@main.command("gw-sim")
@click.option("--mode", type=click.Choice(["regular", "binomial"]), default="regular")
@click.option("--d", type=click.IntRange(0), default=3, show_default=True)
@click.option("--big-l", "L", type=click.IntRange(1), default=9, show_default=True)
@click.option("--n", type=click.IntRange(1), default=10000, show_default=True)
@click.option("--q", type=click.FloatRange(0, 1), default=None,
              help="binomial offspring probability; defaults to d/(n*L)")
@click.option("--trials", type=click.IntRange(1), default=10000, show_default=True)
@click.option("--cap", type=click.IntRange(1), default=1 << 20, show_default=True)
@click.option("--slope-range", default="5,30", show_default=True)
@click.pass_context
def gw_sim_cmd(ctx, mode, d, L, n, q, trials, cap, slope_range):
    """Monte-Carlo branching-tree sizes for the idealized growth process."""
    if q is None:
        q = d / (n * L)
    if mode == "regular" and d >= L:
        raise click.UsageError("regular mode needs d < L (subcritical)")
    if mode == "binomial" and n * q >= 1:
        raise click.UsageError("binomial mode needs n*q < 1 (subcritical)")
    try:
        lo, hi = (int(x) for x in slope_range.split(","))
    except ValueError:
        raise click.BadParameter(
            "expected 'lo,hi' integers", param_hint="'--slope-range'"
        ) from None
    offspring = Regular(d, L) if mode == "regular" else Binomial(n, q)
    jobs = ctx.obj["jobs"]
    chunks = [range(trials * i // jobs, trials * (i + 1) // jobs) for i in range(jobs)]
    worker = partial(_gw_chunk_sizes, ctx.obj["seed"], offspring, cap)
    sizes = [s for chunk in _parallel_map(worker, [c for c in chunks if c], jobs) for s in chunk]
    stats = stats_from_sizes(sizes)
    try:
        slope = tail_slope(sizes, lo, hi)
    except ValueError:
        slope = None
    results = stats.to_dict()
    results["tail_slope"] = slope
    results["mode"] = mode
    _finish(ctx, results, csv_rows=lambda: (["size", "count"], list(stats.sizes)), q=q)


@main.command("matching")
@click.option("--n", type=click.IntRange(1, _MAX_VERTICES), default=1000, show_default=True)
@click.option("--d", type=click.IntRange(1), default=5, show_default=True)
@click.option("--cap", type=click.IntRange(1), default=acceptance.MATCHING_CAP, show_default=True)
@click.option("--edge", default=None, help="query one edge, as 'u,v'")
@click.option("--trials", type=click.IntRange(1), default=1, show_default=True)
@click.option("--ordering", type=click.Choice(["full", "kwise"]), default="full")
@click.option("--kwise-k", type=click.IntRange(1), default=32, show_default=True)
@click.option("--failure-budget", type=click.FloatRange(0), default=0.01, show_default=True)
@click.pass_context
def matching_cmd(ctx, n, d, cap, edge, trials, ordering, kwise_k, failure_budget):
    """Per-edge matching verdicts or full-matching summaries with probe stats."""
    _check_degree("graph", n, d)
    seed = ctx.obj["seed"]
    kind = _ordering(ordering, kwise_k, n * n)
    if edge is not None:
        try:
            u, v = (int(x) for x in edge.split(","))
        except ValueError:
            raise click.UsageError("--edge must be 'u,v'")
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise click.UsageError(f"--edge must join two distinct vertices below --n {n}")
    per_trial = []
    failures = 0
    rows = []
    for t in range(trials):
        g = _generate(
            graphs.gen_bounded_degree, derive_subseed(seed, b"instance:%d" % t), n, d
        )
        rseed = derive_subseed(seed, b"ranks:%d" % t)
        if edge is not None:
            try:
                verdict = matching.is_matched(g, (u, v), rseed, kind, cap)
            except ValueError as exc:  # each trial generates its own graph
                raise click.UsageError(f"--edge in trial {t}: {exc}")
            except exploration.TruncationError:
                failures += 1
                continue
            rows.append((t, u, v, int(verdict.matched), verdict.probes, verdict.edges_evaluated))
            per_trial.append(
                {
                    "trial": t,
                    "matched": verdict.matched,
                    "probes": verdict.probes,
                    "edges_evaluated": verdict.edges_evaluated,
                }
            )
        else:
            try:
                verdicts = matching.all_verdicts(g, rseed, kind, cap)
            except exploration.TruncationError:
                failures += 1
                continue
            full = frozenset(e for e, v in verdicts.items() if v.matched)
            maximal = matching.verify_maximal(g, full)
            rows.extend(
                (t, u, v, int(w.matched), w.probes, w.edges_evaluated)
                for (u, v), w in sorted(verdicts.items())
            )
            probes = [w.probes for w in verdicts.values()]
            per_trial.append(
                {
                    "trial": t,
                    "edges": g.edge_count,
                    "matched": len(full),
                    "maximal": maximal,
                    "probes_mean": sum(probes) / max(1, len(probes)),
                    "probes_max": max(probes, default=0),
                }
            )
    results = {"trials": trials, "failures": failures, "per_trial": per_trial}
    _finish(
        ctx,
        results,
        csv_rows=lambda: (["trial", "u", "v", "matched", "probes", "edges_evaluated"], rows),
    )
    if failures / trials > failure_budget:
        click.echo(f"failure budget exceeded: {failures}/{trials}", err=True)
        sys.exit(EXIT_BUDGET)


def _coloring_command(kind: str, instance: str, help_text: str, input_help: str) -> None:
    """Register the ``coloring`` or ``ksat`` command; they differ only in
    which :data:`coloring.PROBLEMS` entry they run and in the
    :data:`graphs.ITEM_LIMITS` entry of its ``instance`` type."""
    items = click.IntRange(1, graphs.ITEM_LIMITS[instance])

    @main.command(kind, help=help_text)
    @click.option("--m", type=items, default=800, show_default=True)
    @click.option("--n", type=items, default=40, show_default=True)
    # --k stops there too: generation needs m >= k, and the admissibility
    # check computes 2**(k - 3*delta - 1) before generation starts
    @click.option("--k", type=click.IntRange(2, graphs.ITEM_LIMITS[instance]), default=40,
                  show_default=True)
    @click.option("--d", type=click.IntRange(0), default=2, show_default=True)
    @click.option("--input", type=click.Path(exists=True, dir_okay=False),
                  default=None, help=input_help)
    @click.option("--trials", type=click.IntRange(1), default=1, show_default=True)
    @click.option("--lenient/--strict", default=False, show_default=True)
    @click.option("--failure-budget", type=click.FloatRange(0), default=0.01, show_default=True)
    @click.pass_context
    def command(ctx, m, n, k, d, input, trials, lenient, failure_budget):
        inst = None
        if input is not None:
            try:
                with open(input) as fh:
                    inst = coloring.PROBLEMS[kind].load(fh)
            except (OSError, ValueError) as exc:
                raise click.UsageError(f"cannot load {input}: {exc}")
            m, n, k, d = inst.m, inst.n, inst.k, inst.dependency_degree
        try:
            if n > 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # each lenient trial's state warns
                    coloring.compute_thresholds(k, d, lenient=lenient)
        except coloring.ThresholdError as exc:
            raise click.UsageError(str(exc))
        worker = partial(_coloring_worker, kind, m, n, k, d, lenient, inst, ctx.obj["seed"])
        outs = _generate(_parallel_map, worker, range(trials), ctx.obj["jobs"])
        failures = sum(1 for o in outs if o["failed"])
        invalid = sum(1 for o in outs if o["valid"] is False)
        phases: dict[str, int] = {}
        max_probes = 0
        for o in outs:
            for ph, count in o["phases"].items():
                phases[ph] = phases.get(ph, 0) + count
            max_probes = max(max_probes, o["max_probes"])
        rendered = next((o["values"] for o in outs if not o["failed"]), [])
        results = {
            "trials": trials,
            "failures": failures,
            "invalid": invalid,
            "phase_histogram": phases,
            "max_probes": max_probes,
            "first_trial_values": rendered,
            "per_trial": [
                {
                    "trial": o["trial"],
                    "failed": o["failed"],
                    "valid": o["valid"],
                    "max_probes": o["max_probes"],
                    **({"reason": o["reason"]} if "reason" in o else {}),
                }
                for o in outs
            ],
        }
        _finish(
            ctx,
            results,
            csv_rows=lambda: (["item", "value"], list(enumerate(rendered))),
            m=m, n=n, k=k, d=d,
        )
        if (failures + invalid) / trials > failure_budget:
            click.echo(f"failure budget exceeded: {failures + invalid}/{trials}", err=True)
            sys.exit(EXIT_BUDGET)


_coloring_command(
    "coloring",
    "hypergraph",
    "Query-complete hypergraph 2-colorings with validity checking.",
    "hypergraph file to color instead of generating",
)
_coloring_command(
    "ksat",
    "cnf",
    "Query-complete satisfying assignments with validity checking.",
    "DIMACS file to satisfy instead of generating",
)


def _capacities(scheme: str, n: int, m: int, path: str | None = None) -> list[int] | None:
    """Bin capacities for a ``capacity``-scheme instance, else None.

    Read from ``path`` (one integer per line), or else split ``n`` balls as
    evenly as possible over ``m`` bins.
    """
    if scheme != "capacity":
        if path is not None:
            raise click.BadParameter("only the capacity rule reads it", param_hint="'--capacities'")
        return None
    if path is None:
        base, extra = divmod(n, m)
        if base == 0:
            raise click.UsageError(
                f"the capacity rule splits --n {n} balls evenly over --m {m} bins, "
                "which leaves a bin with capacity 0; use --n >= --m"
            )
        return [base + (1 if i < extra else 0) for i in range(m)]
    with open(path) as fh:
        try:
            caps = [int(line) for line in fh if line.strip()]
        except ValueError:
            raise click.BadParameter(
                "every non-blank line must be one integer", param_hint="'--capacities'"
            ) from None
    if any(c <= 0 for c in caps):
        raise click.BadParameter("every capacity must be positive", param_hint="'--capacities'")
    if len(caps) != m or sum(caps) != n:
        raise click.BadParameter(
            f"need --m {m} capacities that sum to --n {n}, "
            f"not {len(caps)} that sum to {sum(caps)}",
            param_hint="'--capacities'",
        )
    return caps


@main.command("balls-bins")
@click.option("--n", type=click.IntRange(0, _MAX_BALLS_BINS), default=10000, show_default=True)
@click.option("--m", type=click.IntRange(1, _MAX_BALLS_BINS), default=10000, show_default=True)
@click.option("--d", type=click.IntRange(1), default=2, show_default=True)
@click.option("--rule", type=click.Choice(sorted(ballsbins.RULES)), default="least-loaded")
@click.option("--capacities", type=click.Path(exists=True, dir_okay=False), default=None,
              help="file with one integer capacity per line (capacity rule)")
@click.option("--cap-constant", type=click.IntRange(1), default=ballsbins.DEFAULT_CAP_CONSTANT,
              show_default=True)
@click.option("--trials", type=click.IntRange(1), default=1, show_default=True)
@click.option("--failure-budget", type=click.FloatRange(0), default=0.01, show_default=True)
@click.pass_context
def balls_bins_cmd(ctx, n, m, d, rule, capacities, cap_constant, trials, failure_budget):
    """Local load balancing: failure rate, max-load and probe statistics."""
    _check_degree("balls-bins", n, d)
    caps = _capacities(ballsbins.RULES[rule].scheme, n, m, capacities)
    cap = ballsbins.default_cap(m, cap_constant)
    worker = partial(_ballsbins_worker, n, m, d, rule, caps, cap, ctx.obj["seed"])
    outs = _generate(_parallel_map, worker, range(trials), ctx.obj["jobs"])
    failures = sum(o["failures"] for o in outs)
    queries = trials * n
    failure_rate = failures / max(1, queries)
    max_loads = [o["max_load"] for o in outs]
    results = {
        "rule": rule,
        "trials": trials,
        "queries": queries,
        "failures": failures,
        "failure_rate": failure_rate,
        "cap": cap,
        "max_load": {
            "mean": sum(max_loads) / len(max_loads),
            "max": max(max_loads),
            "per_trial": max_loads,
        },
        "probes": {
            "mean": sum(o["probes_mean"] for o in outs) / len(outs),
            "max": max(o["probes_max"] for o in outs),
        },
    }
    rows = [
        (o["trial"], ball, bin_, failed, probes)
        for o in outs
        for (ball, bin_, failed, probes) in o["rows"]
    ]
    _finish(
        ctx,
        results,
        csv_rows=lambda: (["trial", "ball", "bin", "failed", "probes"], rows),
    )
    if failure_rate > failure_budget:
        click.echo(f"failure budget exceeded: rate {failure_rate}", err=True)
        sys.exit(EXIT_BUDGET)


@main.command("oracle-compare")
@click.option("--target", type=click.Choice(["matching", "balls-bins"]), default="matching")
@click.option("--n", type=click.IntRange(1, min(_MAX_VERTICES, _MAX_BALLS_BINS)), default=1000,
              show_default=True)
@click.option("--m", type=click.IntRange(1, _MAX_BALLS_BINS), default=1000, show_default=True)
@click.option("--d", type=click.IntRange(1), default=5, show_default=True)
@click.option("--rule", type=click.Choice(sorted(ballsbins.RULES)), default="least-loaded")
@click.option("--trials", type=click.IntRange(1), default=10, show_default=True)
@click.option("--cap", type=click.IntRange(1), default=None)
@click.pass_context
def oracle_compare_cmd(ctx, target, n, m, d, rule, trials, cap):
    """Compare every local answer against the global oracle run."""
    _check_degree("graph" if target == "matching" else "balls-bins", n, d)
    seed = ctx.obj["seed"]
    the_rule = ballsbins.RULES[rule]
    caps = _capacities(the_rule.scheme, n, m) if target == "balls-bins" else None
    mismatches = 0
    failures = 0
    compared = 0
    for t in range(trials):
        iseed = derive_subseed(seed, b"instance:%d" % t)
        rseed = derive_subseed(seed, b"ranks:%d" % t)
        if target == "matching":
            g = _generate(graphs.gen_bounded_degree, iseed, n, d)
            try:
                local = matching.full_matching(
                    g, rseed, cap=cap or acceptance.MATCHING_CAP
                )
            except exploration.TruncationError:
                failures += 1
                continue
            compared += g.edge_count
            if local != matching.greedy_by_rank(g, rseed):
                mismatches += 1
        else:
            bc = _generate(graphs.gen_bipartite_choices, iseed, n, m, d, the_rule.scheme,
                           capacities=caps)
            glob, _ = ballsbins.run_global(bc, the_rule, rseed)
            local_assignments, _ = ballsbins.assign_all(bc, the_rule, rseed, cap=cap)
            for a, b in zip(glob, local_assignments):
                compared += 1
                if b.failed:
                    failures += 1
                elif a.bin != b.bin:
                    mismatches += 1
    results = {
        "target": target,
        "trials": trials,
        "compared": compared,
        "mismatches": mismatches,
        "failures": failures,
    }
    _finish(
        ctx,
        results,
        csv_rows=lambda: (
            ["compared", "mismatches", "failures"],
            [(compared, mismatches, failures)],
        ),
    )
    click.echo(f"mismatches: {mismatches}", err=True)
    if mismatches:
        sys.exit(EXIT_BUDGET)


@main.command("lower-bound")
@click.option("--path-len", type=click.IntRange(2, _MAX_VERTICES), default=5, show_default=True)
@click.option("--trials", type=click.IntRange(1), default=100000, show_default=True)
@click.pass_context
def lower_bound_cmd(ctx, path_len, trials):
    """Estimate the full-path closure probability (expected 1/path_len!)."""
    freq = lower_bound_experiment(path_len, trials, ctx.obj["seed"])
    expected = 1 / math.factorial(path_len)
    se = math.sqrt(expected * (1 - expected) / trials)
    results = {
        "frequency": freq,
        "expected": expected,
        "standard_error": se,
        "trials": trials,
    }
    _finish(
        ctx,
        results,
        csv_rows=lambda: (["frequency", "expected", "trials"], [(freq, expected, trials)]),
    )


@main.command("accept")
@click.option("--only", default="", help="comma-separated criterion ids")
@click.pass_context
def accept_cmd(ctx, only):
    """Run the acceptance suite; one PASS/FAIL line per criterion."""
    ids = _int_list(only, "--only")
    unknown = sorted(set(ids) - set(acceptance.CRITERIA))
    if unknown:
        raise click.BadParameter(
            f"unknown criterion ids {unknown}; known: {sorted(acceptance.CRITERIA)}",
            param_hint="'--only'",
        )
    results = acceptance.run_all(ids)
    for r in results:
        click.echo(r.line())
    spec = {"seed": acceptance.ACCEPT_SEED_HEX, "only": only}
    payload = {
        "criteria": {
            str(r.cid): {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        },
        "all_passed": all(r.passed for r in results),
    }
    if ctx.obj["out"]:
        _emit(_report("accept", spec, payload), ctx.obj["out"], "json")
    if not payload["all_passed"]:
        sys.exit(EXIT_BUDGET)


if __name__ == "__main__":
    main()
