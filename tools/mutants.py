"""Re-run the source mutants that the tests were shown to catch.

Each mutant replaces one exact piece of text in one file under ``src/`` and
names the tests that must fail once it is in place.  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, runs
every named test on the unmutated copy (each must pass there), then applies
the mutants one at a time and runs only each one's tests.

It exits 1 if a mutant's text no longer occurs exactly once in its file (a
refactor has to restate the mutant), if a named test does not pass on the
unmutated copy, or if any named test still passes under its mutant.  Each
pytest run is killed after TIMEOUT_S seconds; a mutant whose run is killed
counts as caught, since its tests did not pass (one made the closure walk
loop without bound).  Standard library only; run it from anywhere:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # per pytest run; each named set takes a few seconds


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


BALLSBINS = "src/lcakit/ballsbins.py"
CLI = "src/lcakit/cli.py"
COLORING = "src/lcakit/coloring.py"
EXPLORATION = "src/lcakit/exploration.py"
GRAPHS = "src/lcakit/graphs.py"
MATCHING = "src/lcakit/matching.py"
RANKS = "src/lcakit/ranks.py"

MUTANTS = [
    Mutant(
        "bounded-degree-keeps-duplicates",
        GRAPHS,
        "edges = dict.fromkeys((u, v) if u < v else (v, u) for u, v in zip(pairs, pairs) if u != v)",
        "edges = [(u, v) if u < v else (v, u) for u, v in zip(pairs, pairs) if u != v]",
        (
            "tests/test_graphs.py::TestConstructionPaths::test_bounded_degree_equals_from_edges[30-5]",
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_bounded_degree[(1000, 5)]",
        ),
    ),
    Mutant(
        "binomial-one-endpoint",
        GRAPHS,
        "        adj[w].append(v)\n        adj[v].append(w)\n",
        "        adj[w].append(v)\n",
        (
            "tests/test_graphs.py::TestConstructionPaths::test_binomial_equals_from_edges[2-1.5]",
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_binomial[(1000, 5.0)]",
            "tests/test_graphs.py::TestBinomialGenerator::test_mean_and_variance",
        ),
    ),
    Mutant(
        "incidence-repeats-ball",
        GRAPHS,
        "            if not balls or balls[-1] != ball:  # once per distinct bin\n"
        "                balls.append(ball)\n",
        "            balls.append(ball)\n",
        (
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_choices[uniform-(7, 2, 3)]",
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_choices[circle-(50, 10, 2)]",
            "tests/test_graphs.py::TestStreamGeneratorPins::test_repeated_choices_are_pinned",
        ),
    ),
    Mutant(
        "owner-table-off-by-one",
        GRAPHS,
        "owner = list(chain.from_iterable(",
        "owner = [0] + list(chain.from_iterable(",
        (
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_choices[capacity-(40, 9, 1)]",
            "tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_choices[capacity-(500, 500, 2)]",
        ),
    ),
    Mutant(
        "seed-non-hex-passes-through",
        RANKS,
        '        except ValueError:  # not hex at all: same message as a wrong length\n'
        '            key = b""\n',
        "        except ValueError:\n            raise\n",
        (
            "tests/test_ranks.py::TestSeed::test_non_hex_names_the_format[zz]",
            "tests/test_ranks.py::TestSeed::test_non_hex_names_the_format[abc]",
            "tests/test_cli.py::TestExitCodes::test_invalid_seed_is_usage_error",
            "tests/test_cli.py::TestExitCodes::test_non_hex_seed_env_names_the_format",
        ),
    ),
    Mutant(
        "full-matching-cap-one-late",
        MATCHING,
        "                if fresh == cap:\n",
        "                if fresh > cap:\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestFullMatching::test_cap_counts_the_query_and_each_undecided_edge_it_needs",
        ),
    ),
    Mutant(
        "greedy-oracle-swapped-key",
        MATCHING,
        "key=lambda e: key_of(e[0] * n + e[1])",
        "key=lambda e: key_of(e[1] * n + e[0])",
        (
            "tests/test_matching.py::TestOracleEquivalence::test_full_matching_equals_global_greedy",
            "tests/test_matching.py::TestOracleEquivalence::test_kwise_ordering_agrees_too",
        ),
    ),
    Mutant(
        "closure-cap-one-late",
        "src/lcakit/exploration.py",
        "                if len(members) >= cap:\n",
        "                if len(members) > cap:\n",
        (
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_exploration.py::TestExplore::test_cap_monotonicity",
            "tests/test_ballsbins.py::test_pinned_assignments[least-loaded]",
        ),
    ),
    Mutant(
        "bulk-key-ties-to-higher-id",
        RANKS,
        "    return [r * universe + x for r, x in zip(values, items)]",
        "    return [r * universe + universe - 1 - x for r, x in zip(values, items)]",
        (
            "tests/test_ballsbins.py::TestAssignAll::test_equals_per_ball_queries",
            "tests/test_ballsbins.py::test_all_ties_fall_to_ball_id",
            "tests/test_matching.py::test_all_ties_fall_to_packed_id",
            "tests/test_ranks.py::TestKeyFunctions::test_rank_keys_are_the_cached_keys[degree-0]",
        ),
    ),
    Mutant(
        "key-without-owner-term",
        RANKS,
        "            got = cache[item] = value(item) * universe + item",
        "            got = cache[item] = value(item) * universe",
        (
            "tests/test_ranks.py::TestKeyFunctions::test_kwise_key_equals_naive_polynomial",
            "tests/test_ranks.py::TestKeyFunctions::test_key_reads_back_and_orders_as_rank",
            "tests/test_matching.py::test_all_ties_fall_to_packed_id",
            "tests/test_cli.py::test_pinned_report[matching-kwise-ties-json]",
        ),
    ),
    Mutant(
        "capacities-truncated",
        GRAPHS,
        "    caps = tuple(map(int, given))",
        "    caps = given = tuple(map(int, given))",
        (
            "tests/test_graphs.py::TestBipartiteChoices::test_fractional_capacities_are_refused_not_truncated[caps0]",
            "tests/test_graphs.py::TestBipartiteChoices::test_fractional_capacities_are_refused_not_truncated[caps1]",
        ),
    ),
    Mutant(
        "full-matching-highest-first",
        MATCHING,
        "        lows.sort(reverse=True)",
        "        lows.sort()",
        ("tests/test_matching.py::test_pinned_full_matching",),
    ),
    Mutant(
        "matching-adjacency-one-endpoint",
        MATCHING,
        "for u in divmod(x, n) for w in nbrs(u)",
        "for u in divmod(x, n)[:1] for w in nbrs(u)",
        (
            "tests/test_matching.py::TestIsMatched::test_triangle_only_lowest_rank_matched",
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_cli.py::test_pinned_report[matching-edge-json]",
        ),
    ),
    Mutant(
        "ball-probes-one-plus-d-scans",
        "src/lcakit/ballsbins.py",
        "    probes = (1 + bc.d) * scans",
        "    probes = 1 + bc.d * scans",
        (
            "tests/test_ballsbins.py::TestAssignQuery::test_probes_count_whole_scans[2]",
            "tests/test_ballsbins.py::test_pinned_assignments[least-loaded]",
        ),
    ),
    Mutant(
        "lower-bound-walk-one-short",
        "src/lcakit/exploration.py",
        "        members, _, _ = _closure(g.neighbors, 0, key_of, path_len)",
        "        members, _, _ = _closure(g.neighbors, 0, key_of, path_len - 1)",
        (
            "tests/test_exploration.py::TestLowerBoundExperiment::test_two_vertex_path_near_half",
            "tests/test_cli.py::test_pinned_report[lower-bound-json]",
        ),
    ),
    Mutant(
        "pool-of-jobs-workers",
        CLI,
        "max_workers=min(jobs, len(args_list))",
        "max_workers=jobs",
        (
            "tests/test_cli.py::TestSubcommandBehavior::test_parallel_map_starts_at_most_one_worker_per_task",
        ),
    ),
    Mutant(
        "finish-without-seed-echo",
        CLI,
        '    spec = {"seed": ctx.obj["seed"].hex(), **spec}\n',
        "",
        (
            "tests/test_cli.py::TestReports::test_seed_env_var",
            "tests/test_cli.py::test_pinned_report[lower-bound-json]",
            "tests/test_cli.py::test_pinned_report[gw-sim-json]",
        ),
    ),
    Mutant(
        "gw-chunk-starts-late",
        CLI,
        "range(trials * i // jobs, ",
        "range(trials * i // jobs + 1, ",
        (
            "tests/test_cli.py::TestSubcommandBehavior::test_worker_commands_jobs_stable",
            "tests/test_cli.py::test_pinned_report[gw-sim-json]",
        ),
    ),
    Mutant(
        "timeline-decoded-by-division",
        COLORING,
        "w = kw % universe",
        "w = kw // universe",
        (
            "tests/test_coloring.py::test_pinned_answers_and_costs",
            "tests/test_coloring.py::TestColorQuery::test_fresh_equals_shared_state",
            "tests/test_coloring.py::TestPhaseOneAgainstGlobalReference::test_cnf_lenient_small[0]",
        ),
    ),
    Mutant(
        "component-cache-keyed-by-item",
        COLORING,
        "        got = self._comps.get((phase, x))\n",
        "        phase = 0\n        got = self._comps.get((phase, x))\n",
        (
            "tests/test_coloring.py::test_pinned_answers_and_costs",
            "tests/test_cli.py::test_pinned_report[coloring-lenient-json]",
        ),
    ),
    Mutant(
        "is-matched-lowest-edge-verdict",
        MATCHING,
        "    for k in sorted(members.values()):  # ascending rank; the root",
        "    for k in sorted(members.values())[:1]:  # ascending rank; the root",
        (
            "tests/test_matching.py::TestIsMatched::test_triangle_only_lowest_rank_matched",
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_cli.py::test_pinned_report[matching-edge-json]",
        ),
    ),
    Mutant(
        "deps-iteration-skips-undecided",
        "src/lcakit/engine.py",
        "        return map(self._pair, self._ids)",
        "        return ((w, self._outputs[w]) for w in self._ids if w in self._outputs)",
        (
            "tests/test_engine.py::TestEvalLocal::test_two_vertex_chain_hand_case",
            "tests/test_engine.py::TestDeps::test_reading_an_undecided_entry_names_it",
        ),
    ),
    Mutant(
        "query-skips-phase-3",
        COLORING,
        "(2, 3, 4)",
        "(2, 4)",
        (
            "tests/test_coloring.py::test_pinned_late_phase_answers_and_costs",
            "tests/test_coloring.py::test_pinned_answers_and_costs",
            "tests/test_cli.py::test_pinned_report[coloring-lenient-json]",
        ),
    ),
    Mutant(
        "hyperedge-safe-on-equal-colors",
        COLORING,
        "value != tracker",
        "value == tracker",
        (
            "tests/test_coloring.py::TestPhaseOneAgainstGlobalReference::test_hypergraph_lenient_small[0]",
            "tests/test_coloring.py::TestColorAll::test_proper_on_generated_instances",
            "tests/test_coloring.py::test_pinned_late_phase_answers_and_costs",
        ),
    ),
    Mutant(
        "component-size-one-high",
        COLORING,
        "            size = 0\n",
        "            size = 1\n",
        (
            "tests/test_coloring.py::TestLargestComponent::test_counts_constraints_of_the_largest_component",
            "tests/test_coloring.py::TestSat::test_single_clause_satisfied",
        ),
    ),
    Mutant(
        "decide-cap-one-late",
        "src/lcakit/exploration.py",
        "        elif fresh == cap:\n",
        "        elif fresh > cap:\n",
        ("tests/test_coloring.py::test_pinned_answers_and_costs",),
    ),
    Mutant(
        "cli-thresholds-strict-only",
        CLI,
        "            if n > 0:\n                with warnings.catch_warnings():\n",
        "            if strict and n > 0:\n                with warnings.catch_warnings():\n",
        (
            "tests/test_cli.py::TestExitCodes::test_one_literal_clauses_are_a_usage_error_when_lenient",
        ),
    ),
    Mutant(
        "closure-member-keeps-parent-key",
        EXPLORATION,
        "                    members[w] = kw\n",
        "                    members[w] = kv\n",
        (
            "tests/test_exploration.py::TestClosureKeying::test_keys_each_item_once_per_visit_and_never_a_member_again",
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_ballsbins.py::test_pinned_assignments[least-loaded]",
        ),
    ),
    Mutant(
        "ball-replay-without-key-sort",
        BALLSBINS,
        "    for k in sorted(members.values()):  # ascending rank",
        "    for k in members.values():  # ascending rank",
        (
            "tests/test_ballsbins.py::TestAssignQuery::test_matches_global_run",
            "tests/test_ballsbins.py::TestAssignAll::test_equals_per_ball_queries",
        ),
    ),
    Mutant(
        "rank-value-little-endian",
        RANKS,
        '    return _from_bytes(h.digest(), "big")',
        '    return _from_bytes(h.digest(), "little")',
        (
            "tests/test_ranks.py::TestRankOf::test_frozen_value",
            "tests/test_matching.py::test_pinned_verdicts",
        ),
    ),
    Mutant(
        "coin-from-wrong-byte",
        RANKS,
        "        return h.digest()[7] & 1",
        "        return h.digest()[0] & 1",
        (
            "tests/test_ranks.py::TestRandomInRange::test_coin_is_the_range_two_draw",
            "tests/test_coloring.py::test_pinned_answers_and_costs",
        ),
    ),
    Mutant(
        "loader-item-limit-dropped",
        GRAPHS,
        "        if count > limit:\n",
        "        if False:\n",
        (
            "tests/test_graphs.py::TestTextFormats::test_hypergraph_over_the_item_limit_is_refused",
            "tests/test_graphs.py::TestTextFormats::test_cnf_over_the_item_limit_is_refused",
        ),
    ),
    Mutant(
        "full-matching-lower-at-one-endpoint",
        MATCHING,
        "        lows += b[: bisect_left(b, k)]\n",
        "",
        ("tests/test_matching.py::test_pinned_full_matching",),
    ),
    Mutant(
        "full-matching-edge-at-one-endpoint",
        MATCHING,
        "            at[v].append(k)\n",
        "            pass\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestOracleEquivalence::test_full_matching_equals_global_greedy",
        ),
    ),
    Mutant(
        "is-matched-covers-one-endpoint",
        MATCHING,
        "            covered.update((u, v))",
        "            covered.add(u)",
        (
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_matching.py::TestOracleEquivalence::test_matches_arrival_order_oracle_exhaustively",
        ),
    ),
    Mutant(
        "is-matched-checks-one-endpoint",
        MATCHING,
        "if matched := u not in covered and v not in covered:",
        "if matched := u not in covered:",
        (
            "tests/test_matching.py::test_pinned_verdicts",
            "tests/test_matching.py::TestIsMatched::test_triangle_only_lowest_rank_matched",
        ),
    ),
    Mutant(
        "explore-sizes-cap-one-late",
        EXPLORATION,
        "_closure(g.neighbors, root, key_of, spec.cap)",
        "_closure(g.neighbors, root, key_of, spec.cap + 1)",
        ("tests/test_exploration.py::TestTreeStats::test_sizes_are_explore_sizes_where_the_cap_cuts",),
    ),
    Mutant(
        "bulk-keys-bypass-rank-value",
        RANKS,
        "        values = map(_rank_value, repeat(_rank_state(seed)), items, repeat(universe))",
        '        values = (_from_bytes(_digest(seed, b"rank", x.to_bytes(8, "big"), 8), "big") for x in items)',
        (
            "tests/test_ranks.py::TestKeyFunctions::test_rank_keys_hash_each_item_once",
            "tests/test_ranks.py::TestKeyFunctions::test_full_matching_hashes_each_edge_once",
            "tests/test_ranks.py::TestKeyFunctions::test_assign_all_hashes_each_ball_once",
        ),
    ),
    Mutant(
        "kwise-value-without-range-check",
        RANKS,
        "    def value(item: int) -> int:\n"
        "        if not 0 <= item < universe:\n"
        "            raise _outside(item, universe)\n",
        "    def value(item: int) -> int:\n",
        (
            "tests/test_ranks.py::TestKeyFunctions::test_out_of_universe_raises[16-kind1]",
            "tests/test_ranks.py::TestKeyFunctions::test_out_of_universe_raises[-1-kind1]",
        ),
    ),
    Mutant(
        "edge-message-without-trial",
        CLI,
        'f"--edge in trial {t}: {exc}"',
        'f"--edge: {exc}"',
        (
            "tests/test_cli.py::TestSubcommandBehavior::test_matching_nonexistent_edge_is_usage_error",
            "tests/test_cli.py::TestSubcommandBehavior::test_matching_edge_is_checked_in_each_trial",
        ),
    ),
    Mutant(
        "rank-order-ignores-value",
        RANKS,
        "    value: int\n    owner: int\n",
        '    value: int = __import__("dataclasses").field(compare=False)\n    owner: int\n',
        ("tests/test_ranks.py::TestCompare::test_value_order",),
    ),
]
assert all(m.tests for m in MUTANTS), "every mutant names the tests that must fail"


def _run_tests(work: Path, tests: list[str]) -> set[str] | None:
    """Node ids among ``tests`` that passed, or None if the run timed out."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest and any worker it forked
        proc.communicate()
        return None
    return {line.split(" ", 1)[1].strip() for line in out.splitlines() if line.startswith("PASSED ")}


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="lcakit-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")

        for m in MUTANTS:
            count = (work / m.path).read_text().count(m.old)
            if count != 1:
                problems.append(f"{m.name}: its text occurs {count} times in {m.path}")
        if problems:
            print("\n".join(problems))
            return 1

        named = sorted({t for m in MUTANTS for t in m.tests})
        passed = _run_tests(work, named)
        missing = named if passed is None else [t for t in named if t not in passed]
        for t in missing:
            problems.append(f"unmutated copy: {t} did not pass")
        if problems:
            print("\n".join(problems))
            return 1
        print(f"unmutated copy: {len(named)} named tests pass")

        for m in MUTANTS:
            target = work / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                passed = _run_tests(work, list(m.tests))
            finally:
                target.write_text(original)
            if passed is None:
                print(f"caught   {m.name} (killed after {TIMEOUT_S} s)")
                continue
            survivors = [t for t in m.tests if t in passed]
            if survivors:
                problems.append(f"{m.name}: still pass: {survivors}")
                print(f"SURVIVED {m.name}")
            else:
                print(f"caught   {m.name} ({len(m.tests)} tests fail)")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
