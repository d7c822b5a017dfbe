import hashlib
import json

import pytest
from click.testing import CliRunner

from lcakit.cli import (
    EXIT_BUDGET,
    EXIT_GENERATION,
    main,
    validate_report,
)
from lcakit.graphs import dump_cnf, dump_hypergraph, gen_cnf, gen_hypergraph
from lcakit.ranks import Seed

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


# sha256 of small JSON and CSV reports, so a refactor that moves any report
# byte fails here.  Runs with --input blank spec.input before hashing,
# because the instance path varies between runs.
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
    "accept-9": (["accept", "--only", "9"], 0),
}

REPORT_DIGESTS = {
    ("coloring", "json"): "6b4decef717aeb9a2d8dcf18ffbdf387eaee9c5cf03636d124578b4259b46ccf",
    ("coloring", "csv"): "2d401641fb75fcc3877398dd50fb5c045b3bffb568a15a153798b2a265618b1f",
    ("ksat", "json"): "0cf12ead2f41b4cff7f597fff0c06c35971124cb9a242f07f315476941349be5",
    ("ksat", "csv"): "a6470c3ae80cc64ce845703860d242c33742007e3b18592572da42c9ebec909a",
    ("coloring-input", "json"): "a364c9c70e322bf87831d0c5d09f9dece2a7d334cbbe1ab0e75254aae31d75d2",
    ("coloring-input", "csv"): "2d401641fb75fcc3877398dd50fb5c045b3bffb568a15a153798b2a265618b1f",
    ("ksat-input", "json"): "53ed19f61304bee123e1e7da055a3367e71d175f7259079561044d771eddc19f",
    ("ksat-input", "csv"): "a6470c3ae80cc64ce845703860d242c33742007e3b18592572da42c9ebec909a",
    ("coloring-lenient", "json"): "ad0bb5d723af6ec123ffa0ead491d30ddf7b107c9121b3506d91ca349f83596e",
    ("coloring-lenient", "csv"): "1e06da7217da96e56796f2f196f9565f9f63857a6cafafaec665ec012621f684",
    ("ksat-lenient", "json"): "60f3a359ba07cf073f5ead808db8f49d05810e7b515f80d2624270fb60ba833e",
    ("ksat-lenient", "csv"): "92a5458efc692abda2afb25d189fbbe79b862f2fa159007e5e163c50d27a0932",
    ("balls-bins-least-loaded", "json"): "a17d1f949eaa8c31a1e1b622f5fce9bf32e984a04cda230a8b6a3ba5c8ac4785",
    ("balls-bins-least-loaded", "csv"): "1e7223919705810e53a17fb2befdca2e94f110f2cc5e29caf34c6a2402d28c4b",
    ("balls-bins-always-go-left", "json"): "e3a7777e9c22cdfa8a112e758cd7787a6cd3bab127c787bb75e8ea81377a9e7c",
    ("balls-bins-always-go-left", "csv"): "6c3cbb585e4ad24889c1be05d104e11e1f6ad8e8bab823c45dd881a058b6a38e",
    ("balls-bins-capacity", "json"): "95b6107b65fdec343de98d50d74315a4b33b1a0d4e8130fcbbd6297fef455cb3",
    ("balls-bins-capacity", "csv"): "e4be50d72e4acdfb3c15eb135fa2e6db93c6bda66dc0f120534c2ada1a683a52",
    ("balls-bins-capacity-file", "json"): "ccbdb5e6adea45589796ad8a3d844bd79c65a4389b4dfe97bfa07b2040010fa8",
    ("balls-bins-capacity-file", "csv"): "a6676b6a2f0bab36f3471cf23ea1f095c31abc3a9242fb84ca80e24cd5e4d897",
    ("balls-bins-circle", "json"): "d277ce3c0d8972de4fd5709a3a7231a2ac69edbca0edee4100509bf0fd31b1d7",
    ("balls-bins-circle", "csv"): "c0cb4b0bb47d2bcfe4d0cbc03d13f853bf28ade252e540190a99b6b82b1e88af",
    ("oracle-compare-matching", "json"): "b4020c51a4086f852f8a069c0270587920dd15e9312104e1a08e86bffc92547a",
    ("oracle-compare-matching", "csv"): "c1ec4237df4b74f92be48844bb5abb4b0a29d77dc6823c302b84dab7df4ba9d2",
    ("oracle-compare-least-loaded", "json"): "726fd5301e10b8cb142f2c9326efd3ae0972214aebff7233da519bd23915f094",
    ("oracle-compare-least-loaded", "csv"): "11db1d3596ada4d0a32b6a2304d48fbd65537bd3f108eb9d2ee042384fed7391",
    ("matching", "json"): "1dac97d9e01189aaf6cb77760fa3e0b6d3d0e93389de9ba9da20466e93c86116",
    ("matching", "csv"): "1dd38eb2d4c26a055da9b65d64cb803a5ab02b84f15d548bc4457f6bbd517cd7",
    ("accept-9", "json"): "cafc117113b83aacdfbc336e9bccfca9ef89bff03b0b7e6cb9703bb3b9658151",
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
    data = out.read_bytes()
    if fmt == "json" and "--input" in args:
        report = json.loads(data)
        report["spec"]["input"] = ""
        data = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "case,fmt",
    [(c, f) for c in REPORT_CASES for f in ("json", "csv") if c != "accept-9" or f == "json"],
)
def test_pinned_report(runner, tmp_path, case, fmt):
    assert _report_digest(runner, tmp_path, case, fmt) == REPORT_DIGESTS[(case, fmt)]
