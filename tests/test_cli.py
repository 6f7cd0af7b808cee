"""Command-line interface tests: wiring, schemas, manifests, exit codes."""

import csv
import json
import re
from pathlib import Path
from unittest import mock

import pytest

from thzaoi import cli


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def scenario_section(num_users=3, mu_c=200.0):
    return {
        "link": {"bandwidth_hz": 1e10, "carrier_hz": 1e12, "tx_power_w": 1.0,
                 "absorption_per_m": 0.0016, "temperature_k": 300.0,
                 "meta_surfaces": 100, "image_size_bits": 1e7},
        "room": {"side_length": 50.0},
        "queue": {"stage_service_rate": 5.0, "compute_service_rate": mu_c},
        "num_users": num_users,
        "placement_seed": 11,
    }


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestAnalyticCommand:
    def config(self, tmp_path, ages=(0.0, 1.0)):
        return write_config(tmp_path, {
            "analytic": {
                "laws": [
                    {"discipline": "fcfs", "update_rate": 2.0, "service_rate": 1.0},
                    {"discipline": "lcfs", "update_rate": 2.0, "service_rate": 1.0},
                ],
                "ages": list(ages),
                "severity": {"ruin_level_s": 1.0, "z_grid": [1.0], "stages": 1},
            }})

    def test_reference_rows(self, tmp_path):
        rc = cli.main(["analytic", "--config", str(self.config(tmp_path)),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "analytic.csv")
        pdf = [r for r in rows if r["quantity"] == "pdf" and r["discipline"] == "fcfs"
               and float(r["a_or_z"]) == 1.0]
        assert float(pdf[0]["value"]) == pytest.approx(0.21285000254822257, rel=1e-9)
        lcfs0 = [r for r in rows if r["quantity"] == "cdf" and r["discipline"] == "lcfs"
                 and r["mode"] == "closed_form" and float(r["a_or_z"]) == 0.0]
        assert float(lcfs0[0]["value"]) == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert lcfs0[0]["validity_flag"] == "invalid"
        sev = [r for r in rows if r["quantity"] == "severity" and r["discipline"] == "fcfs"]
        assert {r["mode"] for r in sev} == {"as-written", "survival"}
        assert all(r["validity_flag"] == "invalid" for r in sev)

    def test_empty_grid_header_only(self, tmp_path):
        cfg = write_config(tmp_path, {"analytic": {"laws": [], "ages": []}})
        rc = cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "analytic.csv").read_text().splitlines()
        assert lines == [",".join(cli.ANALYTIC_COLUMNS)]

    def test_manifest_written(self, tmp_path):
        rc = cli.main(["analytic", "--config", str(self.config(tmp_path)),
                       "--out", str(tmp_path / "out"), "--seed", "3"])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "analytic"
        assert manifest["master_seed"] == 3
        assert len(manifest["config_sha256"]) == 64

    def test_manifest_records_the_argv_main_parsed(self, tmp_path, monkeypatch):
        # a host process calling main has arguments of its own
        monkeypatch.setattr("sys.argv", ["host", "--unrelated", "flag"])
        argv = ["analytic", "--config", str(self.config(tmp_path)),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["argv"] == argv

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_tail_is_quiet(self, tmp_path):
        # (mu - r) a > 709 overflows the kernels; their exact exp(-r a) tail takes over
        cfg = write_config(tmp_path, {"analytic": {
            "laws": [{"discipline": d, "update_rate": 0.01, "service_rate": 1.0}
                     for d in ("fcfs", "lcfs")],
            "ages": [1000.0],
            "severity": {"ruin_level_s": 800.0, "z_grid": [300.0], "stages": 1}}})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "analytic.csv")
        # pdf, closed-form and quadrature CDF, stage mean, J(z) as written and as survival
        assert [float(r["value"]) for r in rows] == pytest.approx([
            4.586310122172304e-07, 0.9999541368987783, 0.9999541368987765,
            101.01980198019803, -0.006404654812807131, 1.0005348283719548,
            4.586305535862182e-07, 0.9999541369446414, 0.9999541369446419,
            101.01970395059308, -0.006404654810635229, 1.000534775384984], rel=1e-10)
        assert [r["validity_flag"] for r in rows if r["quantity"] == "severity"] \
            == ["invalid"] * 4


class TestSweepCommand:
    def config(self, tmp_path, values=(2, 3), reps=1):
        return write_config(tmp_path, {
            "scenario": scenario_section(),
            "sweep": {"variable": "num_users", "values": list(values),
                      "replications": reps, "ruin_level_s": 1.0,
                      "threshold_z_s": 3.0, "horizon_s": 30.0},
            "master_seed": 5,
        })

    def test_rows_and_aggregate(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path)),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 2 * 1 * 2 * 2 * 2
        agg = read_csv(tmp_path / "out" / "sweep_aggregate.csv")
        assert len(agg) == 2 * 2 * 2 * 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.config(tmp_path, reps=2)
        for name in ("a", "b"):
            rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() \
            == (tmp_path / "b" / "sweep.csv").read_bytes()
        assert (tmp_path / "a" / "sweep_aggregate.csv").read_bytes() \
            == (tmp_path / "b" / "sweep_aggregate.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = self.config(tmp_path)
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b"),
                  "--seed", "77"])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() \
            != (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_threshold_override_changes_severity_column(self, tmp_path):
        cfg = self.config(tmp_path)
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b"),
                  "--z", "2.0"])
        a = read_csv(tmp_path / "a" / "sweep.csv")
        b = read_csv(tmp_path / "b" / "sweep.csv")
        assert a[0]["j_z"] != b[0]["j_z"]

    def test_svg_rendered(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path)),
                       "--out", str(tmp_path / "out"), "--svg"])
        assert rc == 0
        doc = (tmp_path / "out" / "sweep_avg.svg").read_text()
        assert doc.startswith("<svg") and "polyline" in doc

    def test_export_samples(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path, values=(2,))),
                       "--out", str(tmp_path / "out"), "--export-samples"])
        assert rc == 0
        samples_dir = tmp_path / "out" / "samples"
        paoi = sorted(samples_dir.glob("paoi_*.csv"))
        exc = sorted(samples_dir.glob("excursions_*.csv"))
        assert len(paoi) == 2 and len(exc) == 2   # one per discipline
        header = paoi[0].read_text().splitlines()[0]
        assert header == "replication,user,stage,delivery_time,paoi_seconds"
        assert exc[0].read_text().splitlines()[0] == "replication,ruin_level,exceedance"

    def test_exported_excursions_are_the_cells_excursions(self, tmp_path):
        out = tmp_path / "out"
        with mock.patch.object(cli.qs, "excursion_severity",
                               wraps=cli.qs.excursion_severity) as spy:
            rc = cli.main(["sweep", "--config", str(self.config(tmp_path)),
                           "--out", str(out), "--export-samples"])
        assert rc == 0
        assert spy.call_count == (2 + 3) * 2   # once per user per cell: users x disciplines
        for row in read_csv(out / "sweep.csv"):
            name = f"excursions_{row['value']}_rep{row['replication']}_{row['discipline']}.csv"
            lines = (out / "samples" / name).read_text().splitlines()
            assert len(lines) - 1 == int(row["sim_excursions"])

    def test_manifest_lists_the_exported_samples(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path, reps=2)),
                       "--out", str(out), "--export-samples", "--svg"])
        assert rc == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        samples = sorted(f"samples/{p.name}" for p in (out / "samples").iterdir())
        assert len(samples) == 2 * 2 * 2 * 2   # values x replications x disciplines x kinds
        assert outputs == ["sweep.csv", "sweep_aggregate.csv", *samples, "sweep_avg.svg"]
        assert all((out / name).is_file() for name in outputs)

    def test_values_equal_to_six_digits_export_apart(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "scenario": scenario_section(),
            "sweep": {"variable": "bandwidth", "values": [1e10, 1.0000001e10],
                      "replications": 1, "ruin_level_s": 1.0,
                      "threshold_z_s": 3.0, "horizon_s": 10.0},
        })
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--export-samples"])
        assert rc == 0
        samples = sorted(f"samples/{p.name}" for p in (out / "samples").iterdir())
        assert len(samples) == 2 * 2 * 2   # values x disciplines x kinds
        assert json.loads((out / "manifest.json").read_text())["outputs"][2:] == samples

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_excursion_mean_is_nan_without_a_warning(self, tmp_path):
        # no age reaches a 30 s ruin level, so every replication's estimate is NaN
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path, values=(2,), reps=2)),
                       "--out", str(tmp_path / "out"), "--ruin-level", "30"])
        assert rc == 0
        agg = read_csv(tmp_path / "out" / "sweep_aggregate.csv")
        assert agg and all(r["sim_severity_below_z_mean"] == "nan" for r in agg)


class TestValidateCommand:
    REDUCED = {"severity_horizon": 20000.0,
               "e2e_horizon": 300.0, "trend_horizon": 25.0,
               "trend_replications": 1}

    def test_reduced_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"validate": dict(self.REDUCED)})
        rc = cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "density_normalization" in names
        assert "figure_trends_corrected_average" in names
        # persisted artifacts are non-empty
        assert len(read_csv(tmp_path / "out" / "lcfs_cdf_discrepancy.csv")) > 0
        assert len(read_csv(tmp_path / "out" / "severity_deviation.csv")) > 0

    @pytest.mark.parametrize("flags,seed", [(["--seed", "7"], 7), ([], 3)])
    def test_suite_runs_with_the_recorded_seed(self, tmp_path, flags, seed):
        cfg = write_config(tmp_path, {"validate": {"master_seed": 3}, "master_seed": 5})
        with mock.patch.object(cli.val, "run_validation",
                               return_value=cli.val.ValidationReport()) as suite:
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")] + flags) == 0
        assert suite.call_args.args[0].master_seed == seed
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == seed

    def test_corrupted_tolerance_fails_with_report(self, tmp_path):
        corrupted = dict(self.REDUCED)
        corrupted["ks_tolerance"] = 0.0
        cfg = write_config(tmp_path, {"validate": corrupted})
        rc = cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(c["name"] == "simulator_vs_analytic_ks" for c in failed)


class TestShippedConfigs:
    CONFIG_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"

    def test_analytic_grid_config(self, tmp_path):
        rc = cli.main(["analytic", "--config", str(self.CONFIG_DIR / "analytic_grid.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_bandwidth_sweep_config_loads(self, tmp_path):
        from thzaoi import scenario as sc
        cfg = sc.load_json(self.CONFIG_DIR / "bandwidth_sweep.json")
        base = sc.parse_scenario(cfg["scenario"])
        sweep = sc.parse_sweep(cfg["sweep"], base)
        assert sweep.variable is sc.SweepVariable.BANDWIDTH
        assert sweep.arrival_mode is sc.ArrivalRateMode.THROUGHPUT

    def test_reference_sweep_config_loads(self):
        from thzaoi import scenario as sc
        cfg = sc.load_json(self.CONFIG_DIR / "reference_sweep.json")
        base = sc.parse_scenario(cfg["scenario"])
        sweep = sc.parse_sweep(cfg["sweep"], base)
        assert sweep.values == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


class TestReadme:
    """The README's config example and override table must match the code."""

    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_config_example_parses(self):
        from thzaoi import scenario as sc
        blocks = re.findall(r"```json\n(.*?)```", self.TEXT, re.S)
        assert len(blocks) == 1
        cfg = json.loads(blocks[0])
        sweep = sc.parse_sweep(cfg["sweep"], sc.parse_scenario(cfg["scenario"]))
        assert sweep.base.num_users == cfg["scenario"]["num_users"]

    def test_override_flags_are_accepted(self):
        rows = re.findall(r"^\| `(\w+)` \| `(--[\w-]+)", self.TEXT, re.M)
        assert len(rows) >= 6
        parser = cli.build_parser()
        for command, flag in rows:
            # every flag in the table takes a value; an unknown flag exits
            args = parser.parse_args([command, "--config", "c.json", flag, "1"])
            assert args.command == command


class TestExitCodes:
    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": 1})
        assert cli.main(["validate", "--config", str(cfg)]) == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "absent.json")]) == 3

    def test_integer_over_the_digit_limit_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"master_seed": ' + "9" * 5000 + "}")
        assert cli.main(["validate", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("section,key,value", [
        ("link", "typo_key", 1),
        # the queue section holds the two service rates only
        ("queue", "discipline", "fcfs"),
        ("queue", "compute_feed", "tandem"),
    ])
    def test_bad_nested_key_reports_path(self, tmp_path, capsys, section, key, value):
        payload = {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        payload["scenario"][section][key] = value
        cfg = write_config(tmp_path, payload)
        assert cli.main(["sweep", "--config", str(cfg)]) == 3
        assert f"scenario.{section}: unknown keys ['{key}']" in capsys.readouterr().err

    def test_feed_flag_is_rejected_by_argparse(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": scenario_section()})
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(cfg), "--feed", "tandem"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --feed" in capsys.readouterr().err

    @pytest.mark.parametrize("where,value", [
        (("scenario", "link", "bandwidth_hz"), float("nan")),
        (("scenario", "num_users"), 2.7),
        (("scenario", "num_users"), True),
        (("sweep", "replications"), 1.5),
        (("scenario", "num_users"), 0),
        (("sweep", "ruin_level_s"), 0),
        (("sweep", "threshold_z_s"), -1),
        (("sweep", "horizon_s"), 0),
        (("scenario", "placement_seed"), -1),
        pytest.param(("scenario", "link", "carrier_hz"), 10 ** 400, id="400-digit-int"),
        pytest.param(("scenario", "num_users"), 1e18, id="huge-num-users"),
        pytest.param(("sweep", "values"), [2, 1e18], id="huge-user-count-value"),
        pytest.param(("sweep", "replications"), 1e18, id="huge-replications"),
        pytest.param(("sweep", "horizon_s"), 1e12, id="huge-horizon"),
        pytest.param(("scenario", "room", "ris_positions"), [], id="no-ris-positions"),
        pytest.param(("sweep", "values"), [], id="no-sweep-values"),
        pytest.param(("sweep", "values"), [3, 2], id="decreasing-sweep-values"),
    ])
    def test_bad_number_is_usage_error_with_path(self, tmp_path, capsys, where, value):
        payload = {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        node = payload
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        cfg = write_config(tmp_path, payload)
        # a bad number must stop `sweep` before any cell is simulated
        with mock.patch.object(cli.sc, "run_sweep", side_effect=AssertionError):
            assert cli.main(["sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert ".".join(where) in capsys.readouterr().err

    @pytest.mark.parametrize("position", [[1, 2, 3], [5], 5])
    def test_malformed_ris_position_is_usage_error_with_its_index(self, tmp_path, capsys,
                                                                  position):
        payload = {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        payload["scenario"]["room"]["ris_positions"] = [position]
        cfg = write_config(tmp_path, payload)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "scenario.room.ris_positions[0]: expected an [x, y] pair" \
            in capsys.readouterr().err

    def test_zero_users_in_the_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [0, 2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}})
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "sweep.values[0]" in capsys.readouterr().err

    def test_nonpositive_bandwidth_in_the_sweep_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": scenario_section(), "sweep": {
            "variable": "bandwidth", "values": [-1e10, 1e10], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}})
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "sweep.values[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analytic", "sweep", "validate"])
    @pytest.mark.parametrize("seed,flag,field", [
        ("abc", None, "config.master_seed"),
        (2.7, None, "config.master_seed"),
        (-1, None, "config.master_seed"),
        (0, "-1", "--seed"),
    ])
    def test_bad_master_seed_is_usage_error(self, tmp_path, capsys, command, seed, flag, field):
        payload = {"master_seed": seed,
                   "analytic": {"laws": [], "severity": {"ruin_level_s": 1.0}},
                   "scenario": scenario_section(),
                   "sweep": {"variable": "num_users", "values": [2], "replications": 1,
                             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        argv = [command, "--config", str(write_config(tmp_path, payload)),
                "--out", str(tmp_path / "out")] + (["--seed", flag] if flag else [])
        # a bad seed must stop `validate` before the suite runs
        with mock.patch.object(cli.val, "run_validation", side_effect=AssertionError):
            assert cli.main(argv) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("ks_deliveries", 2.5), ("ks_tolerance", float("nan")),
                                           ("master_seed", True), ("ks_deliveries", 0),
                                           ("trend_replications", 0), ("e2e_horizon", 0.0),
                                           ("severity_horizon", -1.0), ("trend_horizon", 0.0),
                                           pytest.param("ks_deliveries", 1e18,
                                                        id="huge-ks_deliveries"),
                                           pytest.param("trend_replications", 1e18,
                                                        id="huge-trend_replications"),
                                           pytest.param("severity_horizon", 1e12,
                                                        id="huge-severity_horizon"),
                                           pytest.param("e2e_horizon", 1e12,
                                                        id="huge-e2e_horizon"),
                                           pytest.param("trend_horizon", 1e12,
                                                        id="huge-trend_horizon")])
    def test_bad_validate_number_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"validate": {key: value}})
        # a bad bound must stop `validate` before the suite runs
        with mock.patch.object(cli.val, "run_validation", side_effect=AssertionError):
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert f"validate.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "normalization_tol", "closed_vs_quad_tol", "moment_tol", "cdf_spot_tol",
        "published_origin_tol", "lcfs_tail_tol", "oracle_tol", "severity_tol",
        "normalization_max_seconds", "ks_max_seconds", "total_budget_seconds"])
    def test_fixed_tolerance_is_not_a_validate_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {"validate": {key: getattr(cli.val, key.upper())}})
        with mock.patch.object(cli.val, "run_validation", side_effect=AssertionError):
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert "validate: unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value,field", [
        ("sweep", "--replications", "0", "sweep.replications"),
        ("sweep", "--z", "-1", "sweep.threshold_z_s"),
        ("sweep", "--ruin-level", "0", "sweep.ruin_level_s"),
        ("sweep", "--z", "nan", "sweep.threshold_z_s"),
        ("analytic", "--z", "-1", "analytic.severity.z_grid[0]"),
        ("analytic", "--z", "nan", "analytic.severity.z_grid[0]"),
    ])
    def test_bad_flag_is_usage_error_naming_its_key(self, tmp_path, capsys, command, flag,
                                                     value, field):
        payload = {"analytic": {"laws": [], "severity": {"ruin_level_s": 1.0}},
                   "scenario": scenario_section(),
                   "sweep": {"variable": "num_users", "values": [2], "replications": 1,
                             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        argv = [command, "--config", str(write_config(tmp_path, payload)),
                "--out", str(tmp_path / "out"), f"{flag}={value}"]
        assert cli.main(argv) == 3
        assert field in capsys.readouterr().err

    def test_analytic_z_without_ruin_level_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"analytic": {"laws": [], "ages": [1.0]}})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--z", "1.0"]) == 3
        assert "analytic.severity" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        (lambda s: s["laws"][0].update(update_rate=True), "analytic.laws[0].update_rate"),
        (lambda s: s.update(ages=[0.5, float("nan")]), "analytic.ages[1]"),
        (lambda s: s["severity"].update(stages=1.5), "analytic.severity.stages"),
        (lambda s: s["severity"].update(z_grid=["1"]), "analytic.severity.z_grid[0]"),
        pytest.param(lambda s: s["severity"].update(stages=0), "analytic.severity.stages",
                     id="zero-stages"),
        pytest.param(lambda s: s.update(ages=[-1.0]), "analytic.ages[0]", id="negative-age"),
        pytest.param(lambda s: s["severity"].update(ruin_level_s=-1.0),
                     "analytic.severity.ruin_level_s", id="negative-ruin-level"),
        pytest.param(lambda s: s["severity"].update(stages=1e12), "analytic.severity.stages",
                     id="huge-stages"),
        pytest.param(lambda s: s.update(ages=5), "analytic.ages: expected a list",
                     id="number-ages"),
        pytest.param(lambda s: s.update(laws=5), "analytic.laws: expected a list",
                     id="number-laws"),
        pytest.param(lambda s: s["severity"].update(z_grid=5),
                     "analytic.severity.z_grid: expected a list", id="number-z-grid"),
        pytest.param(lambda s: s.update(ages="0 1"), "analytic.ages: expected a list",
                     id="string-ages"),
        pytest.param(lambda s: s.update(laws=s["laws"][0]), "analytic.laws: expected a list",
                     id="object-laws"),
    ])
    def test_bad_analytic_number_is_usage_error(self, tmp_path, capsys, edit, field):
        section = {"laws": [{"discipline": "fcfs", "update_rate": 2.0, "service_rate": 1.0}],
                   "ages": [1.0], "severity": {"ruin_level_s": 1.0, "z_grid": [1.0]}}
        edit(section)
        cfg = write_config(tmp_path, {"analytic": section})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("")
        cfg = write_config(tmp_path, {"analytic": {"laws": [], "ages": []}})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / out)]) == 3
        assert "--out" in capsys.readouterr().err
