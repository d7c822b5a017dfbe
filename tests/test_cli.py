import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from lcakit import cli, coloring, graphs
from lcakit.cli import (
    EXIT_BUDGET,
    EXIT_GENERATION,
    main,
    validate_report,
)
from lcakit.graphs import dump_cnf, dump_hypergraph, gen_cnf, gen_hypergraph
from lcakit.ranks import Seed

SEED_HEX = "5eed" * 16


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.stdout
    return result


class TestReports:
    def test_identical_spec_gives_byte_identical_reports(self, runner, tmp_path):
        args = ["--seed", SEED_HEX, "tree-stats", "--n", "64", "--d", "3",
                "--instances", "2", "--queries", "30"]
        a = run_ok(runner, args + ["--thresholds", "4,8"])
        b = run_ok(runner, args + ["--thresholds", "4,8"])
        assert a.stdout == b.stdout

    def test_jobs_do_not_change_the_report(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["--seed", SEED_HEX]
        tail = ["tree-stats", "--n", "64", "--d", "3", "--instances", "4", "--queries", "25"]
        run_ok(runner, base + ["--out", str(out1), "--jobs", "1"] + tail)
        run_ok(runner, base + ["--out", str(out2), "--jobs", "2"] + tail)
        assert out1.read_bytes() == out2.read_bytes()

    def test_reports_validate_against_schema(self, runner):
        commands = [
            ["tree-stats", "--n", "32", "--d", "2", "--instances", "1", "--queries", "10"],
            ["gw-sim", "--trials", "200"],
            ["matching", "--n", "40", "--d", "3"],
            ["coloring", "--m", "200", "--n", "10", "--k", "40", "--d", "2"],
            ["ksat", "--m", "200", "--n", "10", "--k", "40", "--d", "2"],
            ["balls-bins", "--n", "200", "--m", "200"],
            ["oracle-compare", "--n", "60", "--trials", "2"],
            ["lower-bound", "--path-len", "3", "--trials", "500"],
        ]
        for cmd in commands:
            result = run_ok(runner, ["--seed", SEED_HEX] + cmd)
            report = json.loads(result.stdout)
            validate_report(report)
            assert report["fingerprint"]["seed"] == SEED_HEX
            assert report["subcommand"] == cmd[0]

    def test_csv_format(self, runner):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "--format", "csv", "balls-bins",
             "--n", "20", "--m", "10"],
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "trial,ball,bin,failed,probes"
        assert len(lines) == 21

    def test_out_file_written_atomically(self, runner, tmp_path):
        out = tmp_path / "report.json"
        run_ok(runner, ["--seed", SEED_HEX, "--out", str(out),
                        "lower-bound", "--path-len", "2", "--trials", "100"])
        report = json.loads(out.read_text())
        validate_report(report)
        assert not (tmp_path / "report.json.tmp").exists()

    def test_seed_env_var(self, runner):
        result = run_ok(
            runner,
            ["lower-bound", "--path-len", "2", "--trials", "50"],
            env={"LCAKIT_SEED": SEED_HEX},
        )
        assert json.loads(result.stdout)["spec"]["seed"] == SEED_HEX


class TestValidateReport:
    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            validate_report({"schema_version": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="expected integer"):
            validate_report(
                {
                    "schema_version": "one",
                    "subcommand": "x",
                    "spec": {},
                    "results": {},
                    "fingerprint": {"package": "p", "version": "v", "seed": "s"},
                }
            )


class TestExitCodes:
    def test_invalid_seed_is_usage_error(self, runner):
        result = runner.invoke(main, ["--seed", "zz", "lower-bound"])
        assert result.exit_code == 2
        assert "seed must be 64 hex characters (32 bytes)" in result.output
        assert "fromhex" not in result.output

    def test_non_hex_seed_env_names_the_format(self, runner):
        result = runner.invoke(main, ["lower-bound"], env={"LCAKIT_SEED": "zz"})
        assert result.exit_code == 2
        assert "seed must be 64 hex characters (32 bytes)" in result.output
        assert "fromhex" not in result.output

    def test_invalid_parameters_are_usage_errors(self, runner):
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "gw-sim", "--mode", "regular", "--d", "9", "--big-l", "3"]
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "coloring", "--k", "20", "--d", "2"]
        )
        assert result.exit_code == 2  # inadmissible thresholds in strict mode

    @pytest.mark.parametrize(
        "kind,text,limit",
        [
            ("coloring", "hypergraph m=99999999999999999999\n", "hypergraph limit of 4000000"),
            ("ksat", "p cnf 99999999999999999999 0\n", "cnf limit of 2000000"),
        ],
    )
    def test_over_limit_file_exits_before_it_is_built(self, tmp_path, kind, text, limit):
        path = tmp_path / "huge"
        path.write_text(text)
        src = str(Path(cli.__file__).resolve().parents[1])
        # its own process, under 1 GiB of address space and a timeout, so a
        # loader that builds first cannot take the machine's memory
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "lcakit.cli", kind, "--input", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30, preexec_fn=_limit_address_space,
        )
        assert time.perf_counter() - start < 1
        assert result.returncode == 2, result.stderr
        assert limit in result.stderr

    @pytest.mark.parametrize(
        "command,flag,kinds",
        [
            ("tree-stats", "--n", ["graph"]),
            ("matching", "--n", ["graph"]),
            ("lower-bound", "--path-len", ["graph"]),
            ("coloring", "--m", ["hypergraph"]),
            ("coloring", "--n", ["hypergraph"]),
            ("ksat", "--m", ["cnf"]),
            ("ksat", "--n", ["cnf"]),
            ("balls-bins", "--n", ["balls-bins"]),
            ("balls-bins", "--m", ["balls-bins"]),
            ("oracle-compare", "--n", ["graph", "balls-bins"]),  # vertices or balls
            ("oracle-compare", "--m", ["balls-bins"]),
            ("coloring", "--k", ["hypergraph"]),
            ("ksat", "--k", ["cnf"]),
        ],
    )
    def test_size_flag_above_its_item_limit_is_a_usage_error(self, runner, command, flag, kinds):
        limit = min(graphs.ITEM_LIMITS[k] for k in kinds)
        result = runner.invoke(main, [command, flag, str(limit + 1)])
        assert result.exit_code == 2
        assert f"x<={limit}" in result.output

    # Commands whose --n and --d size an instance: (arguments before them, the
    # instance kind, and the degree that kind's item limit was measured at)
    DEGREE_CASES = [
        pytest.param(["matching"], "graph", 5, id="matching"),
        pytest.param(["tree-stats"], "graph", 5, id="tree-stats"),
        pytest.param(["oracle-compare"], "graph", 5, id="oracle-compare-matching"),
        pytest.param(["balls-bins", "--m", "1000"], "balls-bins", 2, id="balls-bins"),
        pytest.param(["oracle-compare", "--target", "balls-bins", "--m", "1000"],
                     "balls-bins", 2, id="oracle-compare-balls-bins"),
    ]

    @staticmethod
    def _over_degree(args, kind, degree):
        """``args`` with ``--n 1000`` and a ``--d`` one above its limit there."""
        d = graphs.ITEM_LIMITS[kind] * degree // 1000 + 1
        return args + ["--n", "1000", "--d", str(d)], d

    @pytest.fixture
    def no_generation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr(cli, "_generate", refuse)

    @pytest.mark.parametrize("args,kind,degree", DEGREE_CASES)
    def test_degree_over_its_limit_exits_before_anything_is_built(self, args, kind, degree):
        argv, d = self._over_degree(args, kind, degree)
        src = str(Path(cli.__file__).resolve().parents[1])
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "lcakit.cli"] + argv,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30, preexec_fn=_limit_address_space,
        )
        assert time.perf_counter() - start < 1
        assert result.returncode == 2, result.stderr
        limit = graphs.ITEM_LIMITS[kind] * degree
        assert f"--n 1000 times --d {d} is over the {kind} limit of {limit}" in result.stderr

    @pytest.mark.parametrize("args,kind,degree", DEGREE_CASES)
    def test_degree_over_its_limit_is_refused_before_generation(
        self, runner, no_generation, args, kind, degree
    ):
        result = runner.invoke(main, self._over_degree(args, kind, degree)[0])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "command,kind,degree",
        [("matching", "graph", 5), ("tree-stats", "graph", 5), ("oracle-compare", "graph", 5),
         ("balls-bins", "balls-bins", 2)],
    )
    def test_item_limit_at_its_measured_degree_is_allowed(
        self, runner, no_generation, command, kind, degree
    ):
        n = graphs.ITEM_LIMITS[kind]
        result = runner.invoke(main, [command, "--n", str(n), "--d", str(degree)])
        assert str(result.exception) == "generation started"

    def test_one_literal_clauses_are_a_usage_error_when_lenient(self, runner, tmp_path):
        path = tmp_path / "k1.cnf"
        path.write_text("p cnf 2 2\n1 0\n-2 0\n")
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "ksat", "--input", str(path), "--lenient"]
        )
        assert result.exit_code == 2
        assert "need k >= 2, got k=1" in result.output

    @pytest.mark.parametrize("kind", ["coloring", "ksat"])
    def test_lenient_run_warns_once_about_its_thresholds(self, runner, kind):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            result = runner.invoke(
                main,
                ["--seed", SEED_HEX, kind, "--m", "60", "--n", "40", "--k", "4", "--d", "6",
                 "--lenient", "--trials", "1", "--failure-budget", "1"],
            )
        assert result.exit_code == 0, result.output
        assert sum("inadmissible" in str(w.message) for w in got) == 1

    def test_generation_failure_exit_code(self, runner):
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "coloring", "--m", "50", "--n", "40",
             "--k", "40", "--d", "2", "--lenient"],
        )
        assert result.exit_code == EXIT_GENERATION

    def test_failure_budget_exit_code(self, runner):
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "balls-bins", "--n", "3000", "--m", "3000",
             "--cap-constant", "1", "--failure-budget", "0.0"],
        )
        assert result.exit_code == EXIT_BUDGET

    def test_non_integer_capacity_line_is_usage_error(self, runner, tmp_path):
        caps = tmp_path / "caps.txt"
        caps.write_text("5\nfive\n")
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "balls-bins", "--n", "10", "--m", "2",
             "--rule", "capacity", "--capacities", str(caps)],
        )
        assert result.exit_code == 2
        assert "--capacities" in result.output

    @pytest.mark.parametrize("slope_range", ["5", "5,x", "5,10,20", ""])
    def test_malformed_slope_range_is_usage_error(self, runner, slope_range):
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "gw-sim", "--trials", "10", "--slope-range", slope_range]
        )
        assert result.exit_code == 2
        assert "--slope-range" in result.output

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["tree-stats", "--thresholds", "a"], "--thresholds"),
            (["accept", "--only", "x"], "--only"),
            (["accept", "--only", "99"], "--only"),
            (["gw-sim", "--mode", "binomial", "--q", "-0.5"], "--q"),
            (["balls-bins", "--rule", "capacity", "--n", "5", "--m", "10"], "--n"),
            (["balls-bins", "--rule", "capacity", "--n", "10", "--m", "3",
              "--capacities", "{caps}"], "--capacities"),
        ],
    )
    def test_bad_flag_value_is_usage_error(self, runner, tmp_path, args, flag):
        caps = tmp_path / "caps.txt"
        caps.write_text("5\n0\n5\n")
        result = runner.invoke(
            main, ["--seed", SEED_HEX] + [a.format(caps=caps) for a in args]
        )
        assert result.exit_code == 2, result.output
        assert flag in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "rule,lines",
        [
            ("capacity", ["5", "5"]),  # fewer lines than --m bins
            ("capacity", ["1"] * 5),  # sums to 5, not --n 10
            ("least-loaded", ["2"] * 5),  # a rule that reads no capacities
        ],
    )
    def test_capacities_that_do_not_fit_are_usage_errors(self, runner, tmp_path, rule, lines):
        caps = tmp_path / "caps.txt"
        caps.write_text("".join(line + "\n" for line in lines))
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "balls-bins", "--n", "10", "--m", "5",
             "--rule", rule, "--capacities", str(caps)],
        )
        assert result.exit_code == 2, result.output
        assert "--capacities" in result.output
        assert "Traceback" not in result.output

    def test_out_in_missing_directory_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "--out", str(out), "lower-bound", "--trials", "10"]
        )
        assert result.exit_code == 2, result.output
        assert "--out" in result.output
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["matching", "coloring", "ksat", "balls-bins"])
    def test_negative_failure_budget_is_usage_error(self, runner, command):
        result = runner.invoke(main, ["--seed", SEED_HEX, command, "--failure-budget", "-0.5"])
        assert result.exit_code == 2
        assert "--failure-budget" in result.output

    @pytest.mark.parametrize(
        "args,message",
        [
            (["tree-stats", "--generator", "binomial", "--n", "5", "--d", "5"],
             "binomial generator needs d < n"),
            # small --trials and --cap, so a run that got past the check ends soon
            (["gw-sim", "--mode", "binomial", "--n", "100", "--q", "0.01",
              "--trials", "5", "--cap", "100"],
             "binomial mode needs n*q < 1 (subcritical)"),
        ],
        ids=["tree-stats", "gw-sim"],
    )
    def test_binomial_flags_out_of_range_are_usage_errors(self, runner, args, message):
        result = runner.invoke(main, ["--seed", SEED_HEX] + args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            ("coloring", "hypergraph m=4\ne 0 x\n", "line 2: non-integer vertex id in 'e 0 x'"),
            ("ksat", "p cnf 2 1\n1 2\n", "line 2: clause must end with 0"),
        ],
        ids=["coloring", "ksat"],
    )
    def test_malformed_input_file_is_usage_error(self, runner, tmp_path, kind, text, message):
        path = tmp_path / "instance.txt"
        path.write_text(text)
        result = runner.invoke(main, ["--seed", SEED_HEX, kind, "--input", str(path)])
        assert result.exit_code == 2, result.output
        assert f"cannot load {path}: {message}" in result.output
        assert "Traceback" not in result.output


class TestSubcommandBehavior:
    def test_matching_single_edge_query(self, runner):
        # (0, 1) is an edge of trial 0's graph at this seed
        report = json.loads(
            run_ok(
                runner,
                ["--seed", SEED_HEX, "matching", "--n", "30", "--d", "3",
                 "--edge", "0,1"],
            ).stdout
        )
        assert report["results"]["failures"] == 0
        assert [row["trial"] for row in report["results"]["per_trial"]] == [0]

    def test_matching_nonexistent_edge_is_usage_error(self, runner):
        # (0, 9) is not an edge of trial 0's graph at this seed
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "matching", "--n", "10", "--d", "1",
             "--edge", "0,9"],
        )
        assert result.exit_code == 2, result.output
        assert "--edge in trial 0: (0, 9) is not an edge" in result.output
        assert "Traceback" not in result.output

    def test_matching_edge_is_checked_in_each_trial(self, runner):
        # each trial generates its own graph: (0, 29) is an edge of trial 0's
        # graph but not of trial 1's, and (1, 15) is an edge of both
        args = ["--seed", SEED_HEX, "matching", "--n", "60", "--d", "3", "--trials", "2"]
        result = runner.invoke(main, args + ["--edge", "0,29"])
        assert result.exit_code == 2, result.output
        assert "--edge in trial 1: (0, 29) is not an edge" in result.output
        assert "Traceback" not in result.output
        report = json.loads(run_ok(runner, args + ["--edge", "1,15"]).stdout)
        assert [row["trial"] for row in report["results"]["per_trial"]] == [0, 1]

    @pytest.mark.parametrize("edge", ["x", "0", "0,1,2"])
    def test_malformed_edge_exits_before_any_graph(self, runner, monkeypatch, edge):
        def no_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(graphs, "gen_bounded_degree", no_graph)
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "matching", "--n", "300000", "--d", "5", "--edge", edge],
        )
        assert result.exit_code == 2, result.output
        assert "--edge must be 'u,v'" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("edge", ["3,3", "-1,5", "5,2000"])
    def test_impossible_edge_exits_before_any_graph(self, runner, monkeypatch, edge):
        def no_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(graphs, "gen_bounded_degree", no_graph)
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "matching", "--n", "1000", "--edge", edge]
        )
        assert result.exit_code == 2, result.output
        assert "--edge must join two distinct vertices below --n 1000" in result.output
        assert "trial" not in result.output
        assert "Traceback" not in result.output

    def test_oracle_compare_reports_zero_mismatches(self, runner):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", "matching",
             "--n", "100", "--d", "4", "--trials", "3"],
        )
        report = json.loads(result.stdout)
        assert report["results"]["mismatches"] == 0

    @pytest.mark.parametrize("rule", ["least-loaded", "always-go-left", "capacity", "circle"])
    def test_oracle_compare_runs_each_rule_on_its_scheme(self, runner, rule):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", "balls-bins", "--rule", rule,
             "--n", "200", "--m", "100", "--d", "2", "--trials", "2"],
        )
        assert json.loads(result.stdout)["results"]["mismatches"] == 0

    def test_oracle_compare_balls_bins(self, runner):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", "balls-bins",
             "--n", "200", "--m", "200", "--d", "2", "--trials", "2"],
        )
        assert json.loads(result.stdout)["results"]["mismatches"] == 0

    def test_matching_over_its_budget_writes_the_report_then_exits_4(self, runner, tmp_path):
        # a cap of 1 cuts every trial's full matching
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "--out", str(out), "matching", "--n", "200", "--d", "5",
             "--cap", "1", "--trials", "2"],
        )
        assert result.exit_code == EXIT_BUDGET, result.output
        assert "failure budget exceeded: 2/2" in result.output
        report = json.loads(out.read_text())
        assert report["results"] == {"trials": 2, "failures": 2, "per_trial": []}

    def test_matching_edge_over_its_cap_counts_a_failure(self, runner):
        # (1, 15) is an edge of both trials' graphs, and a cap of 1 cuts
        # its query in each
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "matching", "--n", "60", "--d", "3", "--trials", "2",
             "--edge", "1,15", "--cap", "1", "--failure-budget", "1"],
        )
        results = json.loads(result.stdout)["results"]
        assert results == {"trials": 2, "failures": 2, "per_trial": []}

    @pytest.mark.parametrize(
        "target,compared,failures",
        # a failed matching trial is not compared; a failed ball is
        [("matching", 0, 2), ("balls-bins", 200, 150)],
        ids=["matching", "balls-bins"],
    )
    def test_oracle_compare_counts_capped_failures(self, runner, target, compared, failures):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", target, "--n", "100",
             "--m", "100", "--d", "2", "--trials", "2", "--cap", "1"],
        )
        results = json.loads(result.stdout)["results"]
        assert (results["compared"], results["failures"]) == (compared, failures)
        assert results["mismatches"] == 0

    def test_gw_sim_mean_in_report(self, runner):
        result = run_ok(runner, ["--seed", SEED_HEX, "gw-sim", "--trials", "2000"])
        assert abs(json.loads(result.stdout)["results"]["mean"] - 1.5) < 0.15
        clock_lines = [ln for ln in result.output.splitlines() if "wall clock" in ln]
        assert len(clock_lines) == 1 and clock_lines[0].startswith("[gw-sim] wall clock ")

    def test_coloring_reports_phases_and_validity(self, runner):
        report = json.loads(
            run_ok(
                runner,
                ["--seed", SEED_HEX, "coloring", "--m", "400", "--n", "20",
                 "--k", "40", "--d", "2", "--trials", "2"],
            ).stdout
        )
        results = report["results"]
        assert results["failures"] == 0 and results["invalid"] == 0
        assert sum(results["phase_histogram"].values()) == 2 * 400
        assert len(results["first_trial_values"]) == 400

    def test_ksat_runs(self, runner):
        report = json.loads(
            run_ok(
                runner,
                ["--seed", SEED_HEX, "ksat", "--m", "200", "--n", "10",
                 "--k", "40", "--d", "2"],
            ).stdout
        )
        assert report["results"]["invalid"] == 0

    def test_worker_commands_jobs_stable(self, runner, tmp_path):
        for cmd in (
            ["balls-bins", "--n", "150", "--m", "150", "--trials", "3"],
            ["coloring", "--m", "200", "--n", "10", "--k", "40", "--d", "2",
             "--trials", "3"],
            ["ksat", "--m", "200", "--n", "10", "--k", "40", "--d", "2",
             "--trials", "3"],
            ["gw-sim", "--trials", "3000"],  # splits its trials by --jobs
            ["gw-sim", "--trials", "1"],  # an empty chunk is dropped
            ["balls-bins", "--n", "150", "--m", "150", "--trials", "1"],  # runs in-process
        ):
            out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
            run_ok(runner, ["--seed", SEED_HEX, "--out", str(out1), "--jobs", "1"] + cmd)
            run_ok(runner, ["--seed", SEED_HEX, "--out", str(out2), "--jobs", "2"] + cmd)
            assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_map_starts_at_most_one_worker_per_task(self, monkeypatch):
        started = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert cli._parallel_map(abs, [-1, -2, -3], 8) == [1, 2, 3]
        assert started == [3]

    def test_tree_stats_single_trivial_trial(self, runner):
        report = json.loads(
            run_ok(
                runner,
                ["--seed", SEED_HEX, "tree-stats", "--n", "1", "--d", "1",
                 "--instances", "1", "--queries", "1"],
            ).stdout
        )
        assert report["results"]["histogram"] == [[1, 1]]

    def test_accept_selected_fast_criterion(self, runner):
        result = run_ok(runner, ["accept", "--only", "9"])
        assert "PASS criterion 9" in result.stdout


# sha256 of small JSON and CSV reports, split in two so that a change meant
# to lower costs re-records only the cost digest.  The answer digest hashes
# the report as the CLI writes it, less its cost fields (JSON keys anywhere in
# the report) and cost columns (CSV); for a report with none, it is the
# sha256 of the report's bytes.  The cost digest hashes those fields, each
# with its JSON path, or those columns.  Runs with --input or --capacities
# blank that spec entry before hashing, because the file path varies between
# runs.
REPORT_CASES = {
    "coloring": (["coloring", "--m", "200", "--n", "10", "--k", "40", "--d", "2",
                  "--trials", "2"], 0),
    "ksat": (["ksat", "--m", "200", "--n", "10", "--k", "40", "--d", "2",
              "--trials", "2"], 0),
    "coloring-input": (["coloring", "--input", "{hypergraph}"], 0),
    "ksat-input": (["ksat", "--input", "{cnf}"], 0),
    "coloring-lenient": (["coloring", "--m", "60", "--n", "40", "--k", "4", "--d", "6",
                          "--lenient", "--trials", "3"], EXIT_BUDGET),
    "ksat-lenient": (["ksat", "--m", "60", "--n", "40", "--k", "4", "--d", "6",
                      "--lenient", "--trials", "3"], EXIT_BUDGET),
    "balls-bins-least-loaded": (["balls-bins", "--n", "300", "--m", "200",
                                 "--rule", "least-loaded", "--trials", "2"], 0),
    "balls-bins-always-go-left": (["balls-bins", "--n", "300", "--m", "200",
                                   "--rule", "always-go-left", "--trials", "2"], 0),
    "balls-bins-capacity": (["balls-bins", "--n", "300", "--m", "200",
                             "--rule", "capacity", "--trials", "2"], 0),
    "balls-bins-capacity-file": (["balls-bins", "--n", "300", "--m", "200",
                                  "--rule", "capacity", "--capacities", "{capacities}"], 0),
    "balls-bins-circle": (["balls-bins", "--n", "300", "--m", "200",
                           "--rule", "circle", "--trials", "2"], 0),
    "oracle-compare-matching": (["oracle-compare", "--n", "100", "--d", "4",
                                 "--trials", "2"], 0),
    "oracle-compare-least-loaded": (["oracle-compare", "--target", "balls-bins",
                                     "--n", "200", "--m", "200", "--d", "2",
                                     "--trials", "2"], 0),
    "matching": (["matching", "--n", "60", "--d", "3", "--trials", "2"], 0),
    "matching-edge": (["matching", "--n", "60", "--d", "3", "--edge", "0,29"], 0),
    "matching-kwise": (["matching", "--n", "60", "--d", "3", "--ordering", "kwise",
                        "--kwise-k", "4", "--trials", "2"], 0),
    # a degree-0 polynomial: every rank value ties, so order falls to edge ids
    "matching-kwise-ties": (["matching", "--n", "60", "--d", "3", "--ordering", "kwise",
                             "--kwise-k", "1", "--trials", "2"], 0),
    "tree-stats": (["tree-stats", "--n", "64", "--d", "3", "--instances", "2",
                    "--queries", "30", "--thresholds", "4,8"], 0),
    "lower-bound": (["lower-bound", "--path-len", "3", "--trials", "500"], 0),
    "gw-sim": (["gw-sim", "--trials", "200"], 0),
    "accept-9": (["accept", "--only", "9"], 0),
}

# Probe counts and evaluated-set sizes: what a report measures a query cost.
COST_FIELDS = {"max_probes", "probes", "probes_mean", "probes_max", "edges_evaluated"}

REPORT_DIGESTS = {
    ('coloring', 'json'): (
        "eb59c7b8cbe812e552abf867700a24b2929952f9a058099862b04be9dd7357a0",
        "9c8ef4396c78772e366f04995f81efbd7bd2fe1f874295f78f5d256dfc206f6d",
    ),
    ('coloring', 'csv'): (
        "2d401641fb75fcc3877398dd50fb5c045b3bffb568a15a153798b2a265618b1f",
        "55294c542728073fd32e65dfaaf1ca58811c012574ac7dabfddef6bc55b4177b",
    ),
    ('ksat', 'json'): (
        "5627b5b90b8957b522f2ec8d497bf7dc0b09196052e52020577e282886048d04",
        "d2d1ac862675057d012d1e09d2650e1f8ab5ad81d94ef0e6863fac5a785cd9b2",
    ),
    ('ksat', 'csv'): (
        "a6470c3ae80cc64ce845703860d242c33742007e3b18592572da42c9ebec909a",
        "55294c542728073fd32e65dfaaf1ca58811c012574ac7dabfddef6bc55b4177b",
    ),
    ('coloring-input', 'json'): (
        "c4a70dd3d56d14a11d5de361e21d527bf317c12bc8b7c60945722cc2617959ff",
        "2dd7d37872669d4275d2a0982df34b3ba04bda02a691207e8019e4367d138e11",
    ),
    ('coloring-input', 'csv'): (
        "2d401641fb75fcc3877398dd50fb5c045b3bffb568a15a153798b2a265618b1f",
        "55294c542728073fd32e65dfaaf1ca58811c012574ac7dabfddef6bc55b4177b",
    ),
    ('ksat-input', 'json'): (
        "a32bfe262bd10504b5082d559b8b56db4f7b2e45ac72a63898882955b777b9f0",
        "2dd7d37872669d4275d2a0982df34b3ba04bda02a691207e8019e4367d138e11",
    ),
    ('ksat-input', 'csv'): (
        "a6470c3ae80cc64ce845703860d242c33742007e3b18592572da42c9ebec909a",
        "55294c542728073fd32e65dfaaf1ca58811c012574ac7dabfddef6bc55b4177b",
    ),
    ('coloring-lenient', 'json'): (
        "41a06ab40131209e24013631ec1e2169e80a871080a68c6f6e08d84d18a9a3ae",
        "da9b3a129615f1c17714340509b903f6a3a3501c3effdccfb875847231edf098",
    ),
    ('coloring-lenient', 'csv'): (
        "1e06da7217da96e56796f2f196f9565f9f63857a6cafafaec665ec012621f684",
        "434e037433755eb56014e9d302f1491e9bca9d2bf375a0ca6c47c685863a341a",
    ),
    ('ksat-lenient', 'json'): (
        "8a164df3316a392d703658bb9c6947e19e72a0b040d2c6c4a8c44d4832586b3c",
        "c5237fd164067455e4e761cd9a9f73831ad9849522154172123ca1eb121a5efd",
    ),
    ('ksat-lenient', 'csv'): (
        "92a5458efc692abda2afb25d189fbbe79b862f2fa159007e5e163c50d27a0932",
        "434e037433755eb56014e9d302f1491e9bca9d2bf375a0ca6c47c685863a341a",
    ),
    ('balls-bins-least-loaded', 'json'): (
        "cdbc0fd8c4927a831652e8a0a5331f52016ef74988d3735c3072f0c914e8645c",
        "bde1630f3a954f3462463e4d36442290a62976e5b5cbe2ddee580675c9688535",
    ),
    ('balls-bins-least-loaded', 'csv'): (
        "d82652286e44df34f03b807a6a4a383a6b3ac4adca37d3bce14983f85284a372",
        "08e250d78c6d870d29204d22c8fe3aaa4400dcd05624f31c02ead33f64ffb7c8",
    ),
    ('balls-bins-always-go-left', 'json'): (
        "25d37f7503b4426d6019768761ab0a207ae20a8e137774b235671c1869c1caf8",
        "f4946cd4ba05d080b40fe8d38972be553e73080646189e201896fbbeccb9e3b9",
    ),
    ('balls-bins-always-go-left', 'csv'): (
        "ad8fcb3c0202149f9edbff6dc17e57c7412145d77f3c585f38640a4dd900b948",
        "2be20ad519d9bdf112dd3d8fa3b7f92cdbe4e46a23f743d0dbf9d482cb8725ad",
    ),
    ('balls-bins-capacity', 'json'): (
        "1f24f0dae1c5a2a9af2fc0a593f34a77a38258fb94362d9c4a5ac581bd3225ae",
        "fb5977d013edbd2e45e3e8262611ece2156c3c6db2bb70d9af57efe2ed6e49c2",
    ),
    ('balls-bins-capacity', 'csv'): (
        "bc3b0bca355dee1a88eac7be6988368362b45d9a547f0962377e1b55ff7cdd48",
        "0cfe31a948bdc5a4581802e064684821d55695748aceb9f7a06de49d0a7ce66a",
    ),
    ('balls-bins-capacity-file', 'json'): (
        "7eaa028fbb9768587ecfde85419dc9c06654ce9771f0ce0f6b0d254f1ce4fa07",
        "c1272699e7a4131bf6254865d3ece62acc0f9ab5e238caa2b272acabab79d93d",
    ),
    ('balls-bins-capacity-file', 'csv'): (
        "01341c0ea0698d12102e8184cccdba8b359c2f5fe227f0a68d38c41352bd5bef",
        "d9d40ad8acef6898913dc7669d27a3a306705d4fa0c23397fd65417a6c019560",
    ),
    ('balls-bins-circle', 'json'): (
        "37e3f441f222b62ac2151a210377340432b60630e36026d58f4288e79c971fc6",
        "4b7fc6c8b23288b4cd9f8c7ce4e44aa3f824cacec552c21b54a0af2aaa64d604",
    ),
    ('balls-bins-circle', 'csv'): (
        "c9426070ef8356c1d1652a343a53066faaff12b74041c2d8b4f0094abbb4da22",
        "bf8c4054dd2a519a42d7c492e52cf4f2b330282773ff43907d8677aa917a524d",
    ),
    ('oracle-compare-matching', 'json'): (
        "b4020c51a4086f852f8a069c0270587920dd15e9312104e1a08e86bffc92547a",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ('oracle-compare-matching', 'csv'): (
        "c1ec4237df4b74f92be48844bb5abb4b0a29d77dc6823c302b84dab7df4ba9d2",
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    ),
    ('oracle-compare-least-loaded', 'json'): (
        "726fd5301e10b8cb142f2c9326efd3ae0972214aebff7233da519bd23915f094",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ('oracle-compare-least-loaded', 'csv'): (
        "11db1d3596ada4d0a32b6a2304d48fbd65537bd3f108eb9d2ee042384fed7391",
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    ),
    ('matching', 'json'): (
        "952fb384eb1fb50c11008c63dd0355083c7bab4e5ace3b7a8639fffb249a447c",
        "f53a7fdd8b6964895d95a40a1962382e159f2bebe04259c759d7f88e917b2564",
    ),
    ('matching', 'csv'): (
        "26eee5bcc97e930d6924304d3d28a0e4b0448e3d9e42de971a7b4892e9bad244",
        "346634b6511011f2d35ddcf1445e63f6d70dd9f8f1c0bb4d3a9349e34cb5bc08",
    ),
    ('matching-edge', 'json'): (
        "a555fc70055c8bba35a2380aff1452e4b62978544319755035a8e1d6ceef7994",
        "c721fdb5e47121e97fbf0838dd91ccde6d2d5ba8ed8f472edba261e01d6d610a",
    ),
    ('matching-edge', 'csv'): (
        "fb77969e57f1bacf65b4e7bab08479f0319917338060b5c3c0800d42ffbff077",
        "1cdf0de2657c0afc751f0d7c64ecf7692cc7aaf1f5643ec10592ed667039c596",
    ),
    ('matching-kwise', 'json'): (
        "29e03cf94a9b64bcd521a012ec183171073e93c2eee76f2a19c8d262cd7491a9",
        "9851668192b6d085051c032e474fd31442cd0a3077afa1aa488b490e8e2373c9",
    ),
    ('matching-kwise', 'csv'): (
        "62b6fae665a28346dffa94bf43a30cc6ac60e12abe441b4969896fbd976daf9d",
        "4e142711e28ca6a31357f84be23dbb5cc1fc6a73cfb5a5abf3bf0cc3f0d9fe9d",
    ),
    ('matching-kwise-ties', 'json'): (
        "024266c06be3d365c3c63b48fc8b26e005c32706f3cf69bf3c3f7bfb12a6d51e",
        "859e37280ec046da8635536a0310a40a8c132cea47750bc5cfb9626968ff5a35",
    ),
    ('matching-kwise-ties', 'csv'): (
        "2dbf5e75da71eda6ed1a87771af7034d49c244166106fb4befe905b0c71dff8d",
        "95438abf20a009bc7bfa4eff9b04e69c4f01c511e879d86269f25416439290a6",
    ),
    ('tree-stats', 'json'): (
        "2101b31fae6990660a7e56954463c63cbb52d08b885c95f77701b562592aee2f",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ('tree-stats', 'csv'): (
        "9c04fafe9f401b05f7e600d0f07fc0007300ed9dd78969bd5d61ff6b80252226",
        "cff6369ac3b08a7046108c46a8fff1601233ca9aecb4cfeb935d31430a833243",
    ),
    ('lower-bound', 'json'): (
        "125ba86d999d8ff81e64ecb0b011862464cb87c6e0a870674f1076497a91b002",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ('lower-bound', 'csv'): (
        "de0991fd118c0f483cc0de6f8da1d5eb29d549257a1dce0e43d2f54f6c31ed5b",
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    ),
    ('gw-sim', 'json'): (
        "9344829238f528c312fa74a7e896d14b94599774b1379229eb024a1bc49a3cb4",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ('gw-sim', 'csv'): (
        "2be8e6b1355b7f21d203ed2f07d806c395f49481119da4b62a09bc85f84e84ed",
        "4eceefa0f0e7565299ba813c54185b911ea8ef467cf845412934db3750257e70",
    ),
    ('accept-9', 'json'): (
        "cafc117113b83aacdfbc336e9bccfca9ef89bff03b0b7e6cb9703bb3b9658151",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


def _instance_files(tmp_path):
    seed = Seed.from_hex(SEED_HEX)
    files = {
        "hypergraph": dump_hypergraph(gen_hypergraph(seed, 200, 10, 40, 2)),
        "cnf": dump_cnf(gen_cnf(seed, 200, 10, 40, 2)),
        "capacities": "".join("%d\n" % (1 + i % 2) for i in range(200)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in files}


def _report_digest(runner, tmp_path, case, fmt):
    args, exit_code = REPORT_CASES[case]
    files = _instance_files(tmp_path)
    args = [a.format(**files) for a in args]
    out = tmp_path / "report"
    result = runner.invoke(
        main, ["--seed", SEED_HEX, "--format", fmt, "--out", str(out)] + args
    )
    assert result.exit_code == exit_code, result.output
    text = out.read_text()
    if fmt == "json":
        report = json.loads(text)
        for flag in ("--input", "--capacities"):
            if flag in args:
                report["spec"][flag[2:]] = ""
        costs = []
        _pop_costs(report, "", costs)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        rows = [line.split(",") for line in text.splitlines()]
        cols = [i for i, name in enumerate(rows[0]) if name in COST_FIELDS]
        costs = [[row[i] for i in cols] for row in rows]
        text = "".join(
            ",".join(x for i, x in enumerate(row) if i not in cols) + "\n" for row in rows
        )
    return (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256(json.dumps(costs).encode()).hexdigest(),
    )


def _pop_costs(node, path, costs):
    """Move every cost field under ``node`` into ``costs`` as [path, value]."""
    if isinstance(node, dict):
        for key in sorted(node):
            if key in COST_FIELDS:
                costs.append([path + key, node.pop(key)])
            else:
                _pop_costs(node[key], path + key + ".", costs)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _pop_costs(item, "%s%d." % (path, i), costs)


@pytest.mark.parametrize(
    "case,fmt",
    [(c, f) for c in REPORT_CASES for f in ("json", "csv") if c != "accept-9" or f == "json"],
)
def test_pinned_report(runner, tmp_path, case, fmt):
    answers, costs = _report_digest(runner, tmp_path, case, fmt)
    assert answers == REPORT_DIGESTS[(case, fmt)][0]
    assert costs == REPORT_DIGESTS[(case, fmt)][1]


@pytest.mark.parametrize("case", [c for c in REPORT_CASES if c != "accept-9"])
def test_echoed_spec_reproduces_the_report(runner, tmp_path, case):
    """Rerunning the command line a report's spec echoes writes the same
    report: each spec entry is the flag of the same name, a list joined by
    commas, a bool as its on or off flag, and a null left out."""
    args, exit_code = REPORT_CASES[case]
    files = _instance_files(tmp_path)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    argv = ["--seed", SEED_HEX, "--out", str(first)] + [a.format(**files) for a in args]
    assert runner.invoke(main, argv).exit_code == exit_code
    report = json.loads(first.read_text())
    spec = dict(report["spec"])
    params = {p.name: p for p in main.commands[report["subcommand"]].params}
    argv = ["--seed", spec.pop("seed"), "--out", str(again), report["subcommand"]]
    for key, value in spec.items():
        param = params[key]
        if isinstance(value, bool):
            argv.append(param.opts[0] if value else param.secondary_opts[0])
        elif isinstance(value, list):
            argv += [param.opts[0], ",".join(map(str, value))]
        elif value is not None:
            argv += [param.opts[0], str(value)]
    result = runner.invoke(main, argv)
    assert result.exit_code == exit_code, result.output
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("kind", ["coloring", "ksat"])
def test_input_trials_do_not_depend_on_jobs(runner, tmp_path, kind):
    path = _instance_files(tmp_path)["hypergraph" if kind == "coloring" else "cnf"]
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / ("report" + jobs)
        run_ok(runner, ["--seed", SEED_HEX, "--jobs", jobs, "--out", str(out),
                        kind, "--input", path, "--trials", "3"])
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("kind", ["coloring", "ksat"])
def test_input_instance_is_loaded_once(runner, tmp_path, kind, monkeypatch):
    problem = coloring.PROBLEMS[kind]
    loads = []

    def counting_load(fh):
        loads.append(fh.name)
        return problem.load(fh)

    monkeypatch.setitem(coloring.PROBLEMS, kind, problem._replace(load=counting_load))
    path = _instance_files(tmp_path)["hypergraph" if kind == "coloring" else "cnf"]
    run_ok(runner, ["--seed", SEED_HEX, kind, "--input", path, "--trials", "5"])
    assert loads == [path]
