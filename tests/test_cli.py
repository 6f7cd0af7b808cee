"""Command-line interface tests: wiring, schemas, manifests, exit codes."""

import argparse
import csv
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest

from thzaoi import cli, svg_chart


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


def assert_finite_svg(doc):
    assert ET.fromstring(doc).tag == "{http://www.w3.org/2000/svg}svg"
    assert not re.search(r"\b(nan|inf)\b", doc, re.IGNORECASE), doc   # as Python formats them


class TestAnalyticCommand:
    def config(self, tmp_path, ages=(0.0, 1.0)):
        return write_config(tmp_path, {
            "analytic": {
                "laws": [
                    {"discipline": "fcfs", "update_rate": 2.0, "service_rate": 1.0},
                    {"discipline": "lcfs", "update_rate": 2.0, "service_rate": 1.0},
                ],
                "ages": list(ages),
                "severity": {"ruin_level_s": 1.0, "z_grid": [1.0]},
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
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "analytic"
        assert manifest["master_seed"] is None   # analytic draws no random numbers
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
            "severity": {"ruin_level_s": 800.0, "z_grid": [300.0]}}})
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_ages_integrate_to_one(self, tmp_path):
        # from about 1.4e306 an age over the quadrature's first panel width overflows a float
        cfg = write_config(tmp_path, {"analytic": {
            "laws": [{"discipline": d, "update_rate": 2, "service_rate": 1}
                     for d in ("fcfs", "lcfs")],
            "ages": [1.5e306, 1.7976931348623157e308]}})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "analytic.csv")
        assert [(r["value"], r["validity_flag"]) for r in rows if r["mode"] == "quadrature"] \
            == [("1.0", "valid")] * 4


class TestSweepCommand:
    def config(self, tmp_path, values=(2, 3), reps=1, ruin=1.0, z=3.0, name="config.json"):
        return write_config(tmp_path, {
            "scenario": scenario_section(),
            "sweep": {"variable": "num_users", "values": list(values),
                      "replications": reps, "ruin_level_s": ruin,
                      "threshold_z_s": z, "horizon_s": 30.0},
            "master_seed": 5,
        }, name)

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
        cli.main(["sweep", "--config", str(self.config(tmp_path)),
                  "--out", str(tmp_path / "a")])
        cli.main(["sweep", "--config", str(self.config(tmp_path, z=2.0, name="z2.json")),
                  "--out", str(tmp_path / "b")])
        a = read_csv(tmp_path / "a" / "sweep.csv")
        b = read_csv(tmp_path / "b" / "sweep.csv")
        assert a[0]["j_z"] != b[0]["j_z"]

    def test_svg_rendered(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path)),
                       "--out", str(tmp_path / "out"), "--svg"])
        assert rc == 0
        doc = (tmp_path / "out" / "sweep_avg.svg").read_text()
        assert doc.startswith("<svg") and "polyline" in doc

    def test_one_value_svg_is_a_finite_document(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(self.config(tmp_path, values=(2,))),
                       "--out", str(tmp_path / "out"), "--svg"])
        assert rc == 0
        assert_finite_svg((tmp_path / "out" / "sweep_avg.svg").read_text())

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
        out, exceedances, returned = tmp_path / "out", cli.qs.exceedances, []

        def record(*args):
            returned.append(exceedances(*args))
            return returned[-1]

        with mock.patch.object(cli.qs, "exceedances", side_effect=record) as spy:
            rc = cli.main(["sweep", "--config", str(self.config(tmp_path)),
                           "--out", str(out), "--export-samples"])
        assert rc == 0
        assert spy.call_count == 2 * 2   # once per cell, all its users: values x disciplines
        rows = read_csv(out / "sweep.csv")
        cells = list(dict.fromkeys((r["value"], r["replication"], r["discipline"]) for r in rows))
        assert len(cells) == len(returned)   # the cells run in the order of their rows
        exceed = dict(zip(cells, returned))
        for row in rows:
            cell = (row["value"], row["replication"], row["discipline"])
            exported = read_csv(out / "samples" / "excursions_{}_rep{}_{}.csv".format(*cell))
            assert len(exported) == int(row["sim_excursions"])
            assert [float(e["exceedance"]) for e in exported] == exceed[cell].tolist()
            assert all(float(e["ruin_level"]) == 1.0 for e in exported)   # the sweep's level

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
        rc = cli.main(["sweep", "--config",
                       str(self.config(tmp_path, values=(2,), reps=2, ruin=30.0)),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        agg = read_csv(tmp_path / "out" / "sweep_aggregate.csv")
        assert agg and all(r["sim_severity_below_z_mean"] == "nan" for r in agg)


class TestSvgChart:
    @pytest.mark.parametrize("series", [
        pytest.param({}, id="no-series"),
        pytest.param({"one": ([2.0], [3.5])}, id="one-point"),
    ])
    def test_degenerate_range_is_a_finite_document(self, series):
        assert_finite_svg(svg_chart.line_chart(series, "t", "x", "y"))


class TestValidateCommand:
    def test_reduced_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"validate": {}})
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

    def test_suite_runs_with_the_recorded_seed(self, tmp_path):
        # the suite's seed is validate.master_seed; the top-level one is the sweep's
        cfg = write_config(tmp_path, {"validate": {"master_seed": 3}, "master_seed": 5})
        with mock.patch.object(cli.val, "run_validation",
                               return_value=cli.val.ValidationReport()) as suite:
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 0
        assert suite.call_args.args[0] == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 3

    def test_check_lines_print_whole_milliseconds(self, tmp_path, capsys):
        # a check takes tens of milliseconds, which tenths of a second print as 0.0s
        cfg = write_config(tmp_path, {"validate": {}})
        report = cli.val.ValidationReport(checks=[cli.val.CheckResult("a", True, "x", 0.0126)])
        with mock.patch.object(cli.val, "run_validation", return_value=report):
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 0
        assert "[PASS] a (13 ms): x" in capsys.readouterr().out.splitlines()
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert written["checks"][0]["duration_s"] == 0.0126

    def test_corrupted_tolerance_fails_with_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.val, "KS_TOLERANCE", 0.0)
        cfg = write_config(tmp_path, {"validate": {}})
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
    """The README's config example, flag table and config keys must match the code."""

    TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def test_config_example_parses(self):
        from thzaoi import scenario as sc
        blocks = re.findall(r"```json\n(.*?)```", self.TEXT, re.S)
        assert len(blocks) == 1
        cfg = json.loads(blocks[0])
        sweep = sc.parse_sweep(cfg["sweep"], sc.parse_scenario(cfg["scenario"]))
        assert sweep.base.num_users == cfg["scenario"]["num_users"]

    def test_flag_table_matches_the_parser(self):
        documented = {command: set(re.findall(r"`(--[\w-]+)`", flags))
                      for command, flags in re.findall(r"^\| `(\w+)` \| (`--.*) \|$",
                                                       self.TEXT, re.M)}
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        parsed = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
                  for name, p in commands.items()}
        assert documented == parsed

    def test_validate_keys_are_the_config_fields(self):
        documented = set(re.findall(r"`validate\.(\w+)`", self.TEXT))
        assert documented == {"master_seed"}

    def test_analytic_severity_keys_are_the_parsers(self, tmp_path):
        documented = set(re.findall(r"`analytic\.severity\.(\w+)`", self.TEXT))
        cfg = write_config(tmp_path, {"analytic": {"laws": [], "severity": {"ruin_level_s": 1.0}}})
        with mock.patch.object(cli.sc, "check_keys", wraps=cli.sc.check_keys) as spy:
            assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        accepted = [required | optional for _, required, optional, path
                    in (c.args for c in spy.call_args_list) if path == "analytic.severity"]
        assert accepted == [documented] == [{"ruin_level_s", "z_grid"}]

    def test_choice_keys_list_the_enum_values(self):
        from thzaoi import aoi_analytic as an
        from thzaoi import scenario as sc
        documented = {key: re.findall(r"`(\w+)`", values) for key, values
                      in re.findall(r"^- `([\w.\[\]]+)`(?: \(.*?\))?: (.*)$", self.TEXT, re.M)}
        assert documented == {
            "sweep.variable": [m.value for m in sc.SweepVariable],
            "sweep.arrival_mode": [m.value for m in sc.ArrivalRateMode],
            "analytic.laws[i].discipline": [m.value for m in an.Discipline]}


class TestExitCodes:
    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, {"nonsense": 1})
        assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_missing_file_is_usage_error(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "out")]) == 3

    def test_integer_over_the_digit_limit_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"master_seed": ' + "9" * 5000 + "}")
        assert cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

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
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert f"scenario.{section}: unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("command,drop,message", [
        ("analytic", "analytic", "config: analytic section required"),
        ("sweep", "scenario", "config: scenario section required"),
        ("sweep", "sweep", "config: sweep section required"),
    ])
    def test_missing_section_is_usage_error(self, tmp_path, capsys, command, drop, message):
        payload = {"analytic": {"laws": [], "ages": []}, "scenario": scenario_section(),
                   "sweep": {"variable": "num_users", "values": [2], "replications": 1,
                             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        del payload[drop]
        cfg = write_config(tmp_path, payload)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload,message", [
        pytest.param({"scenario": {**scenario_section(), "room": 5}, "sweep": {}},
                     "scenario.room: expected an object", id="room"),
        pytest.param([scenario_section()], "config: expected an object", id="top-level-list"),
    ])
    def test_non_object_section_is_usage_error(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    def test_feed_flag_is_rejected_by_argparse(self, tmp_path, capsys):
        # every setting but the sweep's seed comes from the config file alone
        cfg = write_config(tmp_path, {"scenario": scenario_section()})
        for command, flag, value in [("sweep", "--feed", "tandem"), ("sweep", "--z", "2"),
                                     ("sweep", "--ruin-level", "1"),
                                     ("sweep", "--replications", "2"),
                                     ("analytic", "--z", "2"), ("analytic", "--ruin-level", "1"),
                                     ("analytic", "--seed", "3"), ("validate", "--seed", "3")]:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                          flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

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
        # the choice keys are read by field path too, not by their section's
        pytest.param(("sweep", "variable"), "nope", id="unknown-sweep-variable"),
        pytest.param(("sweep", "arrival_mode"), "nope", id="unknown-arrival-mode"),
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
        expected = ".".join(where)
        if where == ("scenario", "room", "ris_positions"):
            # the key itself is gone: the surfaces sit at the wall midpoints
            expected = "scenario.room: unknown keys ['ris_positions']"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("position", [[1, 2, 3], [5], 5])
    def test_malformed_ris_position_is_usage_error_with_its_index(self, tmp_path, capsys,
                                                                  position):
        # no position is parsed any more, so the key is unknown before any index is read
        payload = {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        payload["scenario"]["room"]["ris_positions"] = [position]
        cfg = write_config(tmp_path, payload)
        with mock.patch.object(cli.sc, "run_sweep", side_effect=AssertionError):
            assert cli.main(["sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert "scenario.room: unknown keys ['ris_positions']" in capsys.readouterr().err

    def test_ris_positions_is_an_unknown_room_key(self, tmp_path, capsys):
        # the surfaces sit at the wall midpoints; not even that layout may be spelled out
        payload = {"scenario": scenario_section(), "sweep": {
            "variable": "num_users", "values": [2], "replications": 1,
            "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        payload["scenario"]["room"]["ris_positions"] = [[25, 0], [50, 25], [25, 50], [0, 25]]
        cfg = write_config(tmp_path, payload)
        with mock.patch.object(cli.sc, "run_sweep", side_effect=AssertionError):
            assert cli.main(["sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert "scenario.room: unknown keys ['ris_positions']" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["sweep"])   # the one command that reads a master seed
    @pytest.mark.parametrize("seed,flag,field", [
        ("abc", None, "config.master_seed"),
        (2.7, None, "config.master_seed"),
        (-1, None, "config.master_seed"),
        (0, "-1", "--seed"),
    ])
    def test_bad_master_seed_is_usage_error(self, tmp_path, capsys, command, seed, flag, field):
        payload = {"master_seed": seed,
                   "scenario": scenario_section(),
                   "sweep": {"variable": "num_users", "values": [2], "replications": 1,
                             "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 10.0}}
        argv = [command, "--config", str(write_config(tmp_path, payload)),
                "--out", str(tmp_path / "out")] + (["--seed", flag] if flag else [])
        # a bad seed must stop `sweep` before any cell is simulated
        with mock.patch.object(cli.sc, "run_sweep", side_effect=AssertionError):
            assert cli.main(argv) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        pytest.param("master_seed", True, "validate.master_seed", id="master_seed-True"),
        # the simulator sizes are fixed in the code now: a value for one, bad or not,
        # is an unknown key and still stops `validate` as a usage error
        pytest.param("ks_deliveries", 2.5, "validate: unknown keys ['ks_deliveries']",
                     id="ks_deliveries-2.5"),
        pytest.param("ks_tolerance", float("nan"), "validate: unknown keys ['ks_tolerance']",
                     id="ks_tolerance-nan"),
        pytest.param("ks_deliveries", 0, "validate: unknown keys ['ks_deliveries']",
                     id="ks_deliveries-0"),
        pytest.param("e2e_horizon", 0.0, "validate: unknown keys ['e2e_horizon']",
                     id="e2e_horizon-0.0"),
        pytest.param("severity_horizon", -1.0, "validate: unknown keys ['severity_horizon']",
                     id="severity_horizon--1.0"),
        pytest.param("ks_deliveries", 1e18, "validate: unknown keys ['ks_deliveries']",
                     id="huge-ks_deliveries"),
        pytest.param("severity_horizon", 1e12, "validate: unknown keys ['severity_horizon']",
                     id="huge-severity_horizon"),
        pytest.param("e2e_horizon", 1e12, "validate: unknown keys ['e2e_horizon']",
                     id="huge-e2e_horizon")])
    def test_bad_validate_number_is_usage_error(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, {"validate": {key: value}})
        # a bad value must stop `validate` before the suite runs
        with mock.patch.object(cli.val, "run_validation", side_effect=AssertionError):
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "normalization_tol", "closed_vs_quad_tol", "moment_tol", "cdf_spot_tol",
        "published_origin_tol", "lcfs_tail_tol", "oracle_tol", "severity_tol",
        "normalization_max_seconds", "ks_max_seconds", "total_budget_seconds",
        # the figure-trend check simulates nothing, so no horizon or replication count sizes it
        "trend_horizon", "trend_replications",
        # the simulator sizes and the tolerances that scale with them
        "ks_deliveries", "ks_tolerance", "e2e_horizon", "e2e_rel_tol", "severity_horizon"])
    def test_fixed_tolerance_is_not_a_validate_key(self, tmp_path, capsys, key):
        # each key at its value in the code, or at its old one where the code has none
        old = {"trend_horizon": 60.0, "normalization_max_seconds": 10.0,
               "ks_max_seconds": 60.0, "total_budget_seconds": 300.0,
               "cdf_spot_tol": 1e-4, "severity_tol": 1e-6}
        value = old[key] if key in old else getattr(cli.val, key.upper())
        cfg = write_config(tmp_path, {"validate": {key: value}})
        with mock.patch.object(cli.val, "run_validation", side_effect=AssertionError):
            assert cli.main(["validate", "--config", str(cfg),
                             "--out", str(tmp_path / "out")]) == 3
        assert f"validate: unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        (lambda s: s["laws"][0].update(update_rate=True), "analytic.laws[0].update_rate"),
        (lambda s: s.update(ages=[0.5, float("nan")]), "analytic.ages[1]"),
        (lambda s: s["severity"].update(z_grid=["1"]), "analytic.severity.z_grid[0]"),
        # each law is evaluated as a one-stage system; there is no stage count to set
        pytest.param(lambda s: s["severity"].update(stages=1),
                     "analytic.severity: unknown keys ['stages']", id="stages-is-unknown"),
        pytest.param(lambda s: s.update(ages=[-1.0]), "analytic.ages[0]", id="negative-age"),
        pytest.param(lambda s: s["severity"].update(ruin_level_s=-1.0),
                     "analytic.severity.ruin_level_s", id="negative-ruin-level"),
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
        pytest.param(lambda s: s["laws"][0].update(discipline="fifo"),
                     "analytic.laws[0].discipline: expected one of ['fcfs', 'lcfs'], got 'fifo'",
                     id="unknown-discipline"),
    ])
    def test_bad_analytic_number_is_usage_error(self, tmp_path, capsys, edit, field):
        section = {"laws": [{"discipline": "fcfs", "update_rate": 2.0, "service_rate": 1.0}],
                   "ages": [1.0], "severity": {"ruin_level_s": 1.0, "z_grid": [1.0]}}
        edit(section)
        cfg = write_config(tmp_path, {"analytic": section})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("out,reason", [
        pytest.param("taken", "File exists", id="taken"),
        pytest.param("taken/sub", "Not a directory", id="taken/sub"),
        # a path component over the file system's 255-byte limit
        pytest.param("x" * 300, "File name too long", id="name-too-long"),
    ])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys, out, reason):
        (tmp_path / "taken").write_text("")
        cfg = write_config(tmp_path, {"analytic": {"laws": [], "ages": []}})
        assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / out)]) == 3
        assert f"--out: cannot make directory {tmp_path / out} ({reason})" \
            in capsys.readouterr().err
