"""Acceptance gate.

Runs the full validation suite once (default tolerances) and asserts each
criterion at its stated tolerance, printing one pass/fail line per
criterion.  Criterion 9 exercises the sweep command end to end through
the CLI.

  1  density normalization within 1e-6 over the rate grid, < 10 s
  2  drop-on-full closed-form CDF vs quadrature within 1e-6, spot 0.0965
  3  replace-waiter published CDF = -1/3 at 0 (flagged), quadrature valid
  4  stage means equal first moments within 1e-6 (17/6 and 43/18 spots)
  5  simulator KS <= 0.01 at 1e5 deliveries, both disciplines, 3 rates
  6  tandem end-to-end average within 2% of the corrected formula;
     uncorrected compute value 1,515,000.0233... reproduced and flagged
  7  severity worked point -3.05/+3.05 both flagged invalid; excursion
     deviation report persisted and non-empty
  8  corrected per-user average non-increasing in users and in bandwidth
  9  sweep command reruns are byte-identical
 10  full suite under 5 minutes
 11  canonical stage CDFs within 1e-12 of a 30-digit mpmath evaluation at
     r/mu 1e2-5e3, both disciplines; a zero tolerance fails the check
"""

import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from thzaoi import cli
from thzaoi import validation as val

_REPORT = {}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    if "report" not in _REPORT:
        out = tmp_path_factory.mktemp("validation-artifacts")
        _REPORT["report"] = val.run_validation(val.ValidationConfig(), out_dir=out)
        _REPORT["out"] = out
    return _REPORT["report"]


def _check(report, name):
    match = [c for c in report.checks if c.name == name]
    assert match, f"check {name} missing from suite"
    return match[0]


def _emit(criterion, check):
    print(f"criterion-{criterion:02d} "
          f"{'PASS' if check.passed else 'FAIL'}: {check.details}")


def test_c01_density_normalization(report):
    check = _check(report, "density_normalization")
    _emit(1, check)
    assert check.passed, check.details
    assert check.duration_s < 10.0


def test_c02_fcfs_closed_form_vs_quadrature(report):
    check = _check(report, "fcfs_closed_vs_quadrature")
    _emit(2, check)
    assert check.passed, check.details


def test_c03_lcfs_published_cdf_discrepancy(report):
    check = _check(report, "lcfs_published_cdf_discrepancy")
    _emit(3, check)
    assert check.passed, check.details
    rows = report.artifacts["lcfs_cdf_discrepancy"]
    assert rows and rows[0]["closed_form"] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_c04_stage_mean_moment_consistency(report):
    check = _check(report, "stage_mean_moment_consistency")
    _emit(4, check)
    assert check.passed, check.details


def test_c05_simulator_vs_analytic_ks(report):
    check = _check(report, "simulator_vs_analytic_ks")
    _emit(5, check)
    assert check.passed, check.details


def test_c06_e2e_average(report):
    check = _check(report, "e2e_average_vs_simulator")
    _emit(6, check)
    assert check.passed, check.details


def test_c07_severity_modes_and_excursion_report(report):
    check = _check(report, "severity_modes_and_excursions")
    _emit(7, check)
    assert check.passed, check.details
    rows = report.artifacts["severity_deviation"]
    assert len(rows) >= 6
    assert all(math.isfinite(r["deviation_as_written"]) for r in rows)
    assert all(math.isfinite(r["deviation_survival"]) for r in rows)
    # the empirical severity CDF is a proper distribution over the z grid
    emp = [r["empirical_below_z"] for r in rows]
    assert all(0.0 <= e <= 1.0 for e in emp)
    assert all(b >= a for a, b in zip(emp, emp[1:]))


def test_c08_figure_trends(report):
    check = _check(report, "figure_trends_corrected_average")
    _emit(8, check)
    assert check.passed, check.details


def test_c08_short_trend_series_fails_with_its_length(monkeypatch):
    # error rows for each sweep's first value leave the bandwidth series,
    # which has three values, one short
    run_sweep = val.sc.run_sweep

    def first_value_fails(sweep):
        return [dict(row, error="no samples") if row["value"] == sweep.values[0] else row
                for row in run_sweep(sweep)]

    monkeypatch.setattr(val.sc, "run_sweep", first_value_fails)
    check = val.check_trends(replace(val.ValidationConfig(), trend_replications=1))
    assert not check.passed
    assert "2 values, need at least 3" in check.details, check.details


def test_c09_sweep_cli_byte_identical(tmp_path):
    payload = {
        "scenario": {
            "link": {"bandwidth_hz": 1e10, "carrier_hz": 1e12, "tx_power_w": 1.0,
                     "absorption_per_m": 0.0016, "temperature_k": 300.0,
                     "meta_surfaces": 100, "image_size_bits": 1e7},
            "room": {"side_length": 50.0},
            "queue": {"stage_service_rate": 5.0, "compute_service_rate": 500.0},
            "num_users": 3,
            "placement_seed": 21,
        },
        "sweep": {"variable": "num_users", "values": [3, 5], "replications": 2,
                  "ruin_level_s": 1.0, "threshold_z_s": 3.0, "horizon_s": 40.0},
        "master_seed": 9,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    for name in ("one", "two"):
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert rc == 0
    same = all(
        (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes()
        for f in ("sweep.csv", "sweep_aggregate.csv"))
    m1 = json.loads((tmp_path / "one" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "two" / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]
    assert m1["master_seed"] == m2["master_seed"]
    print(f"criterion-09 {'PASS' if same else 'FAIL'}: "
          f"sweep.csv and sweep_aggregate.csv byte-identical across reruns")
    assert same


def test_c10_suite_runtime_budget(report):
    check = _check(report, "total_runtime_budget")
    _emit(10, check)
    assert check.passed, check.details
    assert report.total_duration_s < 300.0


def test_c11_stage_cdf_vs_mpmath(report):
    check = _check(report, "stage_cdf_vs_mpmath")
    _emit(11, check)
    assert check.passed, check.details


def test_c11_corrupted_oracle_tolerance_fails(monkeypatch):
    monkeypatch.setattr(val, "ORACLE_TOL", 0.0)
    check = val.check_stage_cdf_vs_mpmath()
    assert not check.passed, check.details


def test_artifacts_persisted_to_disk(report):
    out = _REPORT["out"]
    for name in ("lcfs_cdf_discrepancy", "severity_deviation"):
        path = out / f"{name}.csv"
        assert path.exists() and path.stat().st_size > 0


def test_csv_writes_numpy_floats_as_plain_numbers():
    buf = io.StringIO()
    val.write_rows_csv(buf, ["x", "y"], [{"x": np.float64(0.25), "y": 0.1 + 0.2}])
    assert buf.getvalue() == "x,y\r\n0.25,0.30000000000000004\r\n"
