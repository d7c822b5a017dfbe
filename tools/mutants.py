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
loop without bound).  Each run prints its wall time and the script prints
its total, so a log shows how much of a time budget the table uses.  A
SIGTERM (a CI ``timeout``) ends the script as a normal exit would: the
running pytest's process group is killed and the temporary copy removed.
Standard library only; run it from anywhere:

    python3 tools/mutants.py
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
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
ENGINE = "src/lcakit/engine.py"
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
        "            elif fresh == cap:\n",
        "            elif fresh > cap:\n",
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
        "    for p, (u, v) in enumerate(ends):\n",
        "    for p, (u, v) in reversed(list(enumerate(ends))):\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestOracleEquivalence::test_full_matching_equals_global_greedy",
        ),
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
        '    spec = {"seed": ctx.obj["seed"].hex(), **ctx.params, **used}\n',
        "    spec = {**ctx.params, **used}\n",
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
        ENGINE,
        "            if w not in outputs:\n                return w\n",
        "            if w not in outputs:\n                continue\n",
        (
            "tests/test_engine.py::TestEvalLocal::test_two_vertex_chain_hand_case",
            "tests/test_engine.py::TestEvalLocal::test_rule_without_stop_decides_its_closure",
            "tests/test_engine.py::test_pinned_traces[chain-graph-full]",
        ),
    ),
    Mutant(
        "engine-ignores-stop",
        ENGINE,
        '    stop = getattr(rule, "stop", None)\n',
        "    stop = None\n",
        (
            "tests/test_engine.py::TestEvalLocal::test_greedy_decides_within_closure",
            "tests/test_engine.py::TestEvalLocal::test_deps_end_at_the_first_stopping_output",
            "tests/test_engine.py::test_pinned_traces[greedy-line-full]",
        ),
    ),
    Mutant(
        "engine-cuts-before-the-stopping-output",
        ENGINE,
        "            deps.append((w, out))\n"
        "            if stop is not None and stop(out):\n"
        "                break\n",
        "            if stop is not None and stop(out):\n"
        "                break\n"
        "            deps.append((w, out))\n",
        (
            "tests/test_engine.py::TestEvalLocal::test_deps_end_at_the_first_stopping_output",
            "tests/test_engine.py::TestRankMap::test_line_graph_with_edge_ranks_matches_matching",
            "tests/test_engine.py::test_pinned_traces[greedy-line-kwise]",
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
        "            if not lenient and n > 0:\n                with warnings.catch_warnings():\n",
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
            "tests/test_ballsbins.py::test_pinned_cold_queries[least-loaded]",
        ),
    ),
    # A marker of cap ids (one short) is equivalent: the ball itself makes
    # every union with it cap + 1.  Two short lets a union fit the cap.
    Mutant(
        "over-cap-marker-two-short",
        BALLSBINS,
        "    over = tuple(range(-1 - min(cap, n), 0))",
        "    over = tuple(range(1 - min(cap, n), 0))",
        (
            "tests/test_ballsbins.py::test_pinned_assignments[least-loaded]",
            "tests/test_ballsbins.py::TestAssignAll::test_assignment_is_what_reports_read",
        ),
    ),
    Mutant(
        "profile-skips-fallback-move",
        BALLSBINS,
        "        loads[placed[b]] -= 1\n        loads[a.bin] += 1\n",
        "",
        ("tests/test_ballsbins.py::TestAssignAll::test_profile_counts_the_answered_bins",),
    ),
    # Dropping the ``w is c`` skip is equivalent: a second copy of the one
    # closure goes into a set with it, which removes the duplicates.
    Mutant(
        "closure-union-without-dedupe",
        BALLSBINS,
        "members = {b, *c, *w}",
        "members = (b, *c, *w)",
        (
            "tests/test_ballsbins.py::test_pinned_assignments[least-loaded]",
            "tests/test_ballsbins.py::TestAssignAll::test_memo_cases[nested]",
            "tests/test_ballsbins.py::TestAssignAll::test_memo_cases[partial-overlap]",
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
        "            low = a[i] if a[i] < b[j] else b[j]\n",
        "            low = a[i]\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestFullMatching::test_same_answers_and_cuts_as_the_lower_list_reference",
        ),
    ),
    Mutant(
        "full-matching-edge-at-one-endpoint",
        MATCHING,
        "        at[v].append(p)\n",
        "        pass\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestOracleEquivalence::test_full_matching_equals_global_greedy",
        ),
    ),
    Mutant(
        "frontier-skips-matched",
        MATCHING,
        "            while verdict[b[j]] is False:\n",
        "            while verdict[b[j]] is not None:\n",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestFullMatching::test_same_answers_and_cuts_as_the_lower_list_reference",
            "tests/test_matching.py::TestOracleEquivalence::test_full_matching_equals_global_greedy",
        ),
    ),
    Mutant(
        "frontier-takes-higher",
        MATCHING,
        "a[i] if a[i] < b[j] else b[j]",
        "a[i] if a[i] > b[j] else b[j]",
        (
            "tests/test_matching.py::test_pinned_full_matching",
            "tests/test_matching.py::TestFullMatching::test_same_answers_and_cuts_as_the_lower_list_reference",
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
    Mutant(
        "finish-drops-flags",
        CLI,
        '"seed": ctx.obj["seed"].hex(), **ctx.params, **used}',
        '"seed": ctx.obj["seed"].hex(), **used}',
        (
            "tests/test_cli.py::test_pinned_report[matching-json]",
            "tests/test_cli.py::test_pinned_report[lower-bound-json]",
            "tests/test_cli.py::test_echoed_spec_reproduces_the_report[balls-bins-capacity-file]",
        ),
    ),
    Mutant(
        "finish-echoes-failure-budget",
        CLI,
        '    spec.pop("failure_budget", None)\n',
        "",
        (
            "tests/test_cli.py::test_pinned_report[matching-json]",
            "tests/test_cli.py::test_pinned_report[coloring-json]",
            "tests/test_cli.py::test_pinned_report[balls-bins-least-loaded-json]",
        ),
    ),
    Mutant(
        "degree-limit-dropped",
        CLI,
        "    if n * d > limit:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::TestExitCodes::test_degree_over_its_limit_is_refused_before_generation[matching]",
            "tests/test_cli.py::TestExitCodes::test_degree_over_its_limit_is_refused_before_generation[balls-bins]",
        ),
    ),
    Mutant(
        "choices-range-check-inclusive",
        GRAPHS,
        "if not 0 <= u < m_bins:",
        "if not 0 <= u <= m_bins:",
        ("tests/test_graphs.py::TestStreamGeneratorPins::test_pinned_choices_messages",),
    ),
    Mutant(
        "range-draw-without-prefix",
        RANKS,
        'RandomStream(seed, b"range:" + bytes(label))',
        "RandomStream(seed, bytes(label))",
        (
            "tests/test_ranks.py::TestRandomInRange::test_deterministic",
            "tests/test_ranks.py::TestRandomInRange::test_coin_is_the_range_two_draw",
            "tests/test_ranks.py::TestKeyedHashing::test_frozen_stream",
        ),
    ),
    Mutant(
        "stats-histogram-unsorted",
        EXPLORATION,
        "for s, c in sorted(hist.items())]",
        "for s, c in hist.items()]",
        ("tests/test_exploration.py::TestTreeStats::test_histogram_is_ascending",),
    ),
    Mutant(
        "component-bound-never-fires",
        COLORING,
        "                        if len(comp) > self.comp1_bound:\n",
        "                        if False:\n",
        ("tests/test_coloring.py::TestFailureModes::test_component_bound_failure_is_counted_failure",),
    ),
    Mutant(
        "tree-stats-binomial-check-dropped",
        CLI,
        'if generator == "binomial" and d >= n:',
        "if False:",
        ("tests/test_cli.py::TestExitCodes::test_binomial_flags_out_of_range_are_usage_errors[tree-stats]",),
    ),
    Mutant(
        "gw-sim-supercritical-check-dropped",
        CLI,
        'if mode == "binomial" and n * q >= 1:',
        "if False:",
        ("tests/test_cli.py::TestExitCodes::test_binomial_flags_out_of_range_are_usage_errors[gw-sim]",),
    ),
    Mutant(
        "input-load-lets-value-error-through",
        CLI,
        "except (OSError, ValueError) as exc:",
        "except OSError as exc:",
        (
            "tests/test_cli.py::TestExitCodes::test_malformed_input_file_is_usage_error[coloring]",
            "tests/test_cli.py::TestExitCodes::test_malformed_input_file_is_usage_error[ksat]",
        ),
    ),
    Mutant(
        "matching-budget-never-exits",
        CLI,
        '        click.echo(f"failure budget exceeded: {failures}/{trials}", err=True)\n'
        "        sys.exit(EXIT_BUDGET)\n",
        '        click.echo(f"failure budget exceeded: {failures}/{trials}", err=True)\n',
        ("tests/test_cli.py::TestSubcommandBehavior::test_matching_over_its_budget_writes_the_report_then_exits_4",),
    ),
    Mutant(
        "matching-edge-failure-uncounted",
        CLI,
        "                failures += 1\n                continue\n            rows.append(",
        "                continue\n            rows.append(",
        ("tests/test_cli.py::TestSubcommandBehavior::test_matching_edge_over_its_cap_counts_a_failure",),
    ),
    Mutant(
        "oracle-compare-matching-failure-uncounted",
        CLI,
        "                failures += 1\n                continue\n            compared += g.edge_count\n",
        "                continue\n            compared += g.edge_count\n",
        ("tests/test_cli.py::TestSubcommandBehavior::test_oracle_compare_counts_capped_failures[matching]",),
    ),
    Mutant(
        "oracle-compare-ball-failure-uncounted",
        CLI,
        "                if b.failed:\n                    failures += 1\n",
        "                if b.failed:\n                    pass\n",
        ("tests/test_cli.py::TestSubcommandBehavior::test_oracle_compare_counts_capped_failures[balls-bins]",),
    ),
]
assert all(m.tests for m in MUTANTS), "every mutant names the tests that must fail"


def _run_tests(work: Path, tests: list[str]) -> tuple[set[str] | None, float]:
    """Node ids among ``tests`` that passed, or None if the run timed out, and
    the run's wall time in seconds."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except BaseException as exc:  # the timeout, or the exit that SIGTERM raises
        with contextlib.suppress(ProcessLookupError):  # the group may be gone already
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any worker it forked
        proc.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, time.perf_counter() - start
    passed = {line.split(" ", 1)[1].strip() for line in out.splitlines() if line.startswith("PASSED ")}
    return passed, time.perf_counter() - start


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through _run_tests and TemporaryDirectory


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.stdout.reconfigure(line_buffering=True)  # a run cut by a timeout still logs its lines
    start = time.perf_counter()
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
        passed, secs = _run_tests(work, named)
        missing = named if passed is None else [t for t in named if t not in passed]
        for t in missing:
            problems.append(f"unmutated copy: {t} did not pass")
        if problems:
            print("\n".join(problems))
            return 1
        print(f"unmutated copy: {len(named)} named tests pass ({secs:.1f} s)")

        for m in MUTANTS:
            target = work / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                passed, secs = _run_tests(work, list(m.tests))
            finally:
                target.write_text(original)
            if passed is None:
                print(f"caught   {m.name} (killed after {secs:.1f} s)")
                continue
            survivors = [t for t in m.tests if t in passed]
            if survivors:
                problems.append(f"{m.name}: still pass: {survivors}")
                print(f"SURVIVED {m.name} ({secs:.1f} s)")
            else:
                print(f"caught   {m.name} ({len(m.tests)} tests fail, {secs:.1f} s)")
    for p in problems:
        print(p)
    print(f"total {time.perf_counter() - start:.1f} s for {len(MUTANTS)} mutants")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
