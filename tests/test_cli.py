import json

import pytest
from click.testing import CliRunner

from lcakit.cli import (
    EXIT_BUDGET,
    EXIT_GENERATION,
    main,
    validate_report,
)

SEED_HEX = "5eed" * 16


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

    def test_invalid_parameters_are_usage_errors(self, runner):
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "gw-sim", "--mode", "regular", "--d", "9", "--big-l", "3"]
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["--seed", SEED_HEX, "coloring", "--k", "20", "--d", "2"]
        )
        assert result.exit_code == 2  # inadmissible thresholds in strict mode

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

    @pytest.mark.parametrize("command", ["matching", "coloring", "ksat", "balls-bins"])
    def test_negative_failure_budget_is_usage_error(self, runner, command):
        result = runner.invoke(main, ["--seed", SEED_HEX, command, "--failure-budget", "-0.5"])
        assert result.exit_code == 2
        assert "--failure-budget" in result.output


class TestSubcommandBehavior:
    def test_matching_single_edge_query(self, runner):
        report = json.loads(
            run_ok(
                runner,
                ["--seed", SEED_HEX, "matching", "--n", "30", "--d", "3",
                 "--edge", "0,1"],
            ).stdout
        )
        # edge (0,1) may or may not exist in the generated graph
        assert report["results"]["trials"] == 1 or report["results"]["failures"] == 0

    def test_matching_nonexistent_edge_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["--seed", SEED_HEX, "matching", "--n", "10", "--d", "1",
             "--edge", "0,9"],
        )
        assert result.exit_code in (0, 2)  # depends on whether the edge exists

    def test_oracle_compare_reports_zero_mismatches(self, runner):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", "matching",
             "--n", "100", "--d", "4", "--trials", "3"],
        )
        report = json.loads(result.stdout)
        assert report["results"]["mismatches"] == 0

    def test_oracle_compare_balls_bins(self, runner):
        result = run_ok(
            runner,
            ["--seed", SEED_HEX, "oracle-compare", "--target", "balls-bins",
             "--n", "200", "--m", "200", "--d", "2", "--trials", "2"],
        )
        assert json.loads(result.stdout)["results"]["mismatches"] == 0

    def test_gw_sim_mean_in_report(self, runner):
        report = json.loads(
            run_ok(runner, ["--seed", SEED_HEX, "gw-sim", "--trials", "2000"]).stdout
        )
        assert abs(report["results"]["mean"] - 1.5) < 0.15

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

    def test_balls_bins_coloring_jobs_stable(self, runner, tmp_path):
        for cmd in (
            ["balls-bins", "--n", "150", "--m", "150", "--trials", "3"],
            ["coloring", "--m", "200", "--n", "10", "--k", "40", "--d", "2",
             "--trials", "3"],
        ):
            out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
            run_ok(runner, ["--seed", SEED_HEX, "--out", str(out1), "--jobs", "1"] + cmd)
            run_ok(runner, ["--seed", SEED_HEX, "--out", str(out2), "--jobs", "2"] + cmd)
            assert out1.read_bytes() == out2.read_bytes()

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
