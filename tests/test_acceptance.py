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
  8  corrected per-user average non-increasing in users and in bandwidth,
     read from the analytic means without simulating
  9  sweep command reruns are byte-identical
 10  no verdict reads the clock: the suite passes when every read of it
     jumps 1e6 s
 11  canonical stage CDFs within 1e-12 of the simulator's cycle model
     (three exponential terms) at 30 digits in the standard library's
     decimal at r/mu 1e2-5e3, both disciplines; a zero tolerance fails the
     check, and so do the worked points of criteria 2 and 7 against an
     oracle moved by 1e-11
"""

import io
import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from thzaoi import cli
from thzaoi import validation as val

_REPORT = {}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    if "report" not in _REPORT:
        out = tmp_path_factory.mktemp("validation-artifacts")
        _REPORT["report"] = val.run_validation(out_dir=out)
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


def test_c05_c07_stage_checks_never_reach_the_compute_queue(monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("the KS and excursion checks read the stage queue only")

    monkeypatch.setattr(val.qs, "run", no_compute)
    monkeypatch.setattr(val.qs, "_compute_queue", no_compute)
    report = val.ValidationReport()
    seed = val.MASTER_SEED
    for check in (val.check_stage_ks(seed), val.check_severity(seed, report)):
        assert check.passed, check.details
    assert len(report.artifacts["severity_deviation"]) == 6


def test_c05_ks_check_draws_each_rates_cycles_once(monkeypatch):
    # FCFS and LCFS at one rate share their seed, so they read one set of cycles
    drawn, own = [], val.qs._draw_cycles
    monkeypatch.setattr(val.qs, "_draw_cycles", lambda *a: drawn.append(a) or own(*a))
    check = val.check_stage_ks(val.MASTER_SEED)
    assert check.passed, check.details
    assert [a[0] for a in drawn] == [(0.5,), (2.0,), (10.0,)]
    assert check.details.count("fcfs") == check.details.count("lcfs") == 3


def test_c01_c04_moment_checks_share_one_quadrature_pass(monkeypatch):
    calls, own = [], val.an._quad_pdf
    monkeypatch.setattr(val.an, "_quad_pdf", lambda *a: calls.append(a) or own(*a))
    val._moment_gaps.cache_clear()
    checks = [val.check_normalization(), val.check_moment_consistency()]
    assert all(c.passed for c in checks), [c.details for c in checks]
    assert len(calls) == 2 * len(val._grid_laws(val.an.Discipline.FCFS_MM12)) == 28
    assert all(a[2] == (0, 1) for a in calls)


def test_c01_c04_moment_checks_read_their_own_runs_pass(monkeypatch):
    # a density moved by 1e-3 must fail both moment checks of the run that reads it,
    # though an earlier run in this interpreter passed them
    first = {c.name: c for c in val.run_validation().checks}
    monkeypatch.setattr(val.an, "_h2", lambda x, h2=val.an._h2: 1.001 * h2(x))
    try:
        second = {c.name: c for c in val.run_validation().checks}
    finally:   # neither cache may keep values of the moved density
        val._moment_gaps.cache_clear()
        val.an._kernel_value.cache_clear()
    for name in ("density_normalization", "stage_mean_moment_consistency"):
        assert first[name].passed, first[name].details
        assert not second[name].passed, second[name].details
        assert second[name].details != first[name].details


def test_c08_figure_trends(report):
    check = _check(report, "figure_trends_corrected_average")
    _emit(8, check)
    assert check.passed, check.details


TREND_DETAILS = ("users/fcfs: non-increasing; users/lcfs: non-increasing; "
                 "bandwidth/fcfs: non-increasing; bandwidth/lcfs: non-increasing")


def test_c08_trend_check_never_simulates(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the figure-trend check reads the analytic means only")

    monkeypatch.setattr(val.qs, "run", no_simulation)
    monkeypatch.setattr(val.sc, "run_sweep", no_simulation)
    check = val.check_trends()
    assert check.passed, check.details
    assert check.details == TREND_DETAILS


def test_c08_growing_average_is_a_violation(monkeypatch):
    # a per-user mean of N plus the summed update rates grows with the user
    # count and, through the rates, with the bandwidth
    def growing(sys_law, comp):
        n = len(sys_law.stages)
        return n * (n + sum(law.update_rate for law in sys_law.stages))

    monkeypatch.setattr(val.an, "avg_paoi_e2e", growing)
    check = val.check_trends()
    assert not check.passed
    lines = check.details.split("; ")
    assert len(lines) == 4 and all(": VIOLATION [" in line for line in lines), check.details


@pytest.mark.parametrize("variable,values", [
    (val.sc.SweepVariable.NUM_USERS, (2.0, 3.0)),
    (val.sc.SweepVariable.BANDWIDTH, (1e10, 2e10)),
])
def test_c08_trend_series_is_the_sweeps_column(variable, values):
    # the series the check judges is run_sweep's corrected avg_analytic_per_user,
    # meaned over the same placements
    base = replace(val._reference_scenario(mu_c=1000.0), num_users=3)
    sweep = val.sc.Sweep(variable, values, val.TREND_REPLICATIONS, base, 1.0, 3.0, 20.0, 5)
    rows = [r for r in val.sc.run_sweep(sweep)
            if r["avg_analytic_mode"] == "corrected" and r["severity_mode"] == "survival"]
    assert len(rows) == len(values) * val.TREND_REPLICATIONS * 2
    assert not any(r["error"] for r in rows)
    for disc in (val.an.Discipline.FCFS_MM12, val.an.Discipline.LCFS_MM12_STAR):
        column = [float(np.mean([r["avg_analytic_per_user"] for r in rows
                                 if r["value"] == v and r["discipline"] == disc.value]))
                  for v in values]
        assert val._trend_series(base, variable, values)[disc] == column


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


def test_c09_sweep_determinism_computes_both_sweeps(monkeypatch):
    # a stand-in FCFS kernel whose scalar reads drift by 1e-12 a call: two sweeps that
    # each compute their stage-CDF values differ, where a second sweep that read the
    # values the first one cached would repeat its bytes
    exact, calls = val.an._cdf_fcfs_closed, itertools.count(1)
    monkeypatch.setattr(val.an, "_cdf_fcfs_closed", lambda r, mu, a: exact(r, mu, a) + (
        1e-12 * next(calls) if np.ndim(a) == 0 else 0.0))
    check = val.check_sweep_determinism(val.MASTER_SEED)
    assert not check.passed and "byte-identical = False" in check.details, check.details


def test_c10_verdict_ignores_the_clock(monkeypatch):
    ticks = itertools.count(step=1e6)
    monkeypatch.setattr(val, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    report = val.run_validation()
    failed = [c.name for c in report.checks if not c.passed]
    print(f"criterion-10 {'FAIL' if failed else 'PASS'}: checks failed on a clock "
          f"that jumps 1e6 s per read: {failed or 'none'}")
    assert not failed and report.total_duration_s >= 1e6


def test_c11_stage_cdf_vs_cycle_terms(report):
    check = _check(report, "stage_cdf_vs_cycle_terms")
    _emit(11, check)
    assert check.passed, check.details


def test_c11_corrupted_oracle_tolerance_fails(monkeypatch):
    monkeypatch.setattr(val, "ORACLE_TOL", 0.0)
    check = val.check_stage_cdf_vs_cycle_terms()
    assert not check.passed, check.details


@pytest.mark.parametrize("run_check", [
    val.check_fcfs_closed_vs_quadrature,
    lambda: val.check_severity(val.MASTER_SEED, val.ValidationReport())],
    ids=["fcfs_closed_vs_quadrature", "severity_modes_and_excursions"])
def test_c11_worked_points_read_the_oracle(monkeypatch, run_check):
    exact = val._cycle_terms_stage_cdf
    monkeypatch.setattr(val, "_cycle_terms_stage_cdf",
                        lambda law, a: exact(law, a) + Decimal("1e-11"))
    check = run_check()
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
