"""Oracle-and-property validation suite.

Each check pits an implementation path against an independent one:
closed forms against Gauss-Legendre quadrature of the density, the
canonical CDF kernels and the quadrature against a 30-digit mpmath
evaluation, the reference CDFs against the discrete-event simulator,
the published-but-inconsistent expressions against their flagged
reproductions.  The same suite backs the ``validate`` CLI command and
the acceptance tests.  Its fixed tolerances and time budgets are module
constants, so a corrupted tolerance demonstrably fails; ``ValidationConfig``
holds only what runs change.
"""

from __future__ import annotations

import functools
import io
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import aoi_analytic as an
from . import queue_sim as qs
from . import scenario as sc
from . import thz_link as tl

GRID_R = (0.5, 1.0, 2.0, 5.0, 10.0, 1e4)
GRID_MU = (1.0, 5.0)
# THz-scale stage laws (r/mu as realized by the link budget) for the mpmath oracle
ORACLE_MU = (1.0, 5.0)
ORACLE_RATIOS = (1e2, 1e3, 4e3, 5e3)
ORACLE_AGES = (1e-3, 0.1, 0.5, 1.0, 3.0, 4.0)
ORACLE_DIGITS = 30
NORMALIZATION_TOL = CLOSED_VS_QUAD_TOL = MOMENT_TOL = 1e-6
CDF_SPOT_TOL = 1e-4
PUBLISHED_ORIGIN_TOL = 1e-9
LCFS_TAIL_TOL = 1e-6
ORACLE_TOL = 1e-12
SEVERITY_TOL = 1e-6
NORMALIZATION_MAX_SECONDS = 10.0
KS_MAX_SECONDS = 60.0
TOTAL_BUDGET_SECONDS = 300.0
# the stage service rate each check runs its horizon at
_HORIZON_STAGE_RATE = {"e2e_horizon": 5.0, "severity_horizon": 1.0, "trend_horizon": 5.0}


@dataclass(frozen=True)
class ValidationConfig:
    """What runs change: the simulator sizes, the seed and the tolerances that scale with them."""

    ks_tolerance: float = 0.01
    ks_deliveries: int = 100_000
    e2e_rel_tol: float = 0.02
    e2e_horizon: float = 800.0
    severity_horizon: float = 420_000.0
    trend_horizon: float = 60.0
    trend_replications: int = 2
    master_seed: int = 20260810


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    duration_s: float


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict[str, list[dict]] = field(default_factory=dict)
    total_duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_check_line(check: CheckResult) -> str:
    tag = "PASS" if check.passed else "FAIL"
    return f"[{tag}] {check.name} ({check.duration_s:.1f}s): {check.details}"


def parse_validation_config(d: dict, path: str = "validate") -> ValidationConfig:
    """Counts in [1, sc.MOST] (seed >= 0), horizons > 0 of at most sc.MOST stage
    services, tolerances >= 0 (0 fails a check)."""
    defaults = ValidationConfig()
    sc.check_keys(d, set(), {f.name for f in fields(ValidationConfig)}, path)

    def read(key, value, field):
        if key.endswith("_horizon"):
            return sc.horizon(value, field, _HORIZON_STAGE_RATE[key])
        if isinstance(getattr(defaults, key), int):
            if key == "master_seed":
                return sc.count(value, field, least=0)
            return sc.count(value, field, least=1, most=sc.MOST)
        return sc.number(value, field, least=0)

    return replace(defaults, **{k: read(k, v, f"{path}.{k}") for k, v in d.items()})


def _grid_laws(disc):
    laws = []
    for mu in GRID_MU:
        for r in GRID_R:
            if r != mu:
                laws.append(an.StageLaw(r, mu, disc))
        laws.append(an.StageLaw(mu * (1 + 1e-8), mu, disc))
        laws.append(an.StageLaw(mu * (1 - 1e-8), mu, disc))
    return laws


def _worst_moment_gap(moment: int, expected) -> float:
    """Largest |integral of a^moment pdf - expected(law)| over both disciplines' grid laws."""
    return max(abs(an._quad_pdf(law, [0.0, an.support_bound(law)], moment)[-1] - expected(law))
               for disc in (an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR)
               for law in _grid_laws(disc))


def _timed_check(name: str):
    """Make ``fn(...) -> (passed, details)`` return a timed ``CheckResult``."""
    def decorate(fn):
        @functools.wraps(fn)
        def timed(*args) -> CheckResult:
            start = time.perf_counter()
            passed, details = fn(*args)
            return CheckResult(name, bool(passed), details, time.perf_counter() - start)
        return timed
    return decorate


# ---------------------------------------------------------------------------
# individual checks

@_timed_check("density_normalization")
def check_normalization():
    start = time.perf_counter()
    worst = _worst_moment_gap(0, lambda law: 1.0)
    details = f"max |mass - 1| = {worst:.3e}"
    if time.perf_counter() - start >= NORMALIZATION_MAX_SECONDS:
        return False, details + f"; exceeded {NORMALIZATION_MAX_SECONDS}s budget"
    return worst <= NORMALIZATION_TOL, details


@_timed_check("fcfs_closed_vs_quadrature")
def check_fcfs_closed_vs_quadrature():
    worst = 0.0
    for law in _grid_laws(an.Discipline.FCFS_MM12):
        grid = np.linspace(0.0, 20.0 / law.service_rate, 200)
        # for FCFS the reference CDF is the closed form
        gap = np.abs(an.cdf_reference(law)(grid[1:]) - an._quad_pdf(law, grid)[1:])
        worst = max(worst, float(gap.max()))
    spot = an.cdf_paoi(an.StageLaw(2, 1), 1.0, an.CdfSource.CLOSED_FORM).value
    spot_err = abs(spot - 0.096502876187763686)
    ok = worst <= CLOSED_VS_QUAD_TOL and spot_err <= CDF_SPOT_TOL
    return ok, f"max |closed - quad| = {worst:.3e}, spot err = {spot_err:.3e}"


@_timed_check("lcfs_published_cdf_discrepancy")
def check_lcfs_discrepancy(report: ValidationReport):
    law = an.StageLaw(2.0, 1.0, an.Discipline.LCFS_MM12_STAR)
    origin = an.cdf_paoi(law, 0.0, an.CdfSource.CLOSED_FORM)
    origin_ok = (abs(origin.value + 1.0 / 3.0) <= PUBLISHED_ORIGIN_TOL
                 and origin.validity is an.Validity.INVALID)

    grid = np.linspace(0.0, 20.0, 200)
    cum_arr = an._quad_pdf(law, grid)
    monotone = bool(np.all(np.diff(cum_arr) >= -1e-9))
    tail_ok = 1.0 - cum_arr[-1] < LCFS_TAIL_TOL
    zero_ok = cum_arr[0] == 0.0

    closed = an._cdf_kernel(law, an.CdfSource.CLOSED_FORM)(law.update_rate, law.service_rate, grid)
    rows = [{"a": a, "closed_form": c, "closed_validity": an._flag_probability(c).value,
             "quadrature": q, "difference": c - q}
            for a, c, q in zip(grid.tolist(), closed.tolist(), cum_arr.tolist())]
    report.artifacts["lcfs_cdf_discrepancy"] = rows
    ok = origin_ok and monotone and tail_ok and zero_ok
    return ok, (f"origin = {origin.value:.10f} ({origin.validity.value}), "
                f"quad CDF monotone = {monotone}, tail = {1.0 - cum_arr[-1]:.2e}, "
                f"{len(rows)} discrepancy rows persisted")


def _mpmath_stage_cdf(law: an.StageLaw, a: float):
    """Canonical stage CDF at ``ORACLE_DIGITS`` digits, written with explicit
    (r - mu) denominators instead of the package's stable kernels."""
    import mpmath as mp   # only this oracle needs it; keeps package import time flat

    with mp.workdps(ORACLE_DIGITS):
        r, mu, a = mp.mpf(law.update_rate), mp.mpf(law.service_rate), mp.mpf(a)
        d, s = r - mu, r + mu
        emu, ed = mp.exp(-mu * a), mp.expm1(-d * a)
        if law.discipline is an.Discipline.FCFS_MM12:
            bracket = (2 * mu ** 3 * (ed + d * a) / d ** 2 + mu ** 3 * a ** 2
                       + 4 * mu ** 2 * a + 4 * mu + (mu ** 2 * a ** 2 + 2 * mu * a + 2) * d)
            return 1 - emu * bracket / (2 * s)
        quad = r * r + 2 * mu * r + 3 * mu * mu
        inner = (-mu * (r + 3 * mu) + quad * emu
                 - (r * (r * r + r * mu + mu * mu) - d * quad * emu) * ed / d)
        return 1 - (emu * a * mu * r * (r + 2 * mu) + mp.exp(-s * a) * a * mu * r * s
                    + emu * inner) / (r * s)


@_timed_check("stage_cdf_vs_mpmath")
def check_stage_cdf_vs_mpmath():
    worst_ref = worst_quad = 0.0
    for disc in (an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR):
        for mu in ORACLE_MU:
            for ratio in ORACLE_RATIOS:
                law = an.StageLaw(ratio * mu, mu, disc)
                refs = an.cdf_reference(law)(ORACLE_AGES)
                quads = an._quad_pdf(law, (0.0,) + ORACLE_AGES)[1:]
                for a, ref, quad in zip(ORACLE_AGES, refs, quads):
                    exact = _mpmath_stage_cdf(law, a)
                    worst_ref = max(worst_ref, float(abs(ref - exact)))
                    worst_quad = max(worst_quad, float(abs(quad - exact)))
    return max(worst_ref, worst_quad) <= ORACLE_TOL, (
        f"max |reference - mpmath| = {worst_ref:.2e}, "
        f"max |quadrature - mpmath| = {worst_quad:.2e} (tol {ORACLE_TOL:.0e})")


@_timed_check("stage_mean_moment_consistency")
def check_moment_consistency():
    worst = _worst_moment_gap(1, an.avg_paoi_stage)
    spot_f = abs(an.avg_paoi_stage(an.StageLaw(2, 1)) - 17.0 / 6.0)
    spot_l = abs(an.avg_paoi_stage(
        an.StageLaw(2, 1, an.Discipline.LCFS_MM12_STAR)) - 43.0 / 18.0)
    ok = worst <= MOMENT_TOL and spot_f < 1e-12 and spot_l < 1e-12
    return ok, f"max |closed mean - moment| = {worst:.3e}"


@_timed_check("simulator_vs_analytic_ks")
def check_stage_ks(cfg: ValidationConfig):
    lines = []
    ok = True
    for disc in (an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR):
        for rate in (0.5, 2.0, 10.0):
            case_start = time.perf_counter()
            law = an.StageLaw(rate, 1.0, disc)
            horizon = 1.05 * cfg.ks_deliveries / an.stage_throughput(rate, 1.0)
            out = qs.run(qs.QueueConfig(disc, 1.0, 50.0), [rate], horizon,
                         cfg.master_seed + int(10 * rate))
            ecdf = qs.empirical_cdf(out, 0, qs.Stage.STAGE1)
            d = qs.ks_distance(ecdf, an.cdf_reference(law))
            case_s = time.perf_counter() - case_start
            good = d <= cfg.ks_tolerance and ecdf.n >= cfg.ks_deliveries \
                and case_s < KS_MAX_SECONDS
            ok = ok and good
            lines.append(f"{disc.value} r={rate}: KS={d:.4f} n={ecdf.n} ({case_s:.1f}s)")
    return ok, "; ".join(lines)


def _reference_scenario(mu_c: float, meta_surfaces: int = 100,
                        image_bits: float = 1e7, num_users: int = 15) -> sc.Scenario:
    link = tl.LinkParams(bandwidth_hz=1e10, carrier_hz=1e12, tx_power_w=1.0,
                         absorption_per_m=0.0016, temperature_k=300.0,
                         meta_surfaces=meta_surfaces, image_size_bits=image_bits)
    queue = qs.QueueConfig(an.Discipline.FCFS_MM12, 5.0, mu_c)
    return sc.Scenario(room=sc.Room(), num_users=num_users, link_params=link,
                       queue=queue, placement_seed=424242)


@_timed_check("e2e_average_vs_simulator")
def check_e2e_average(cfg: ValidationConfig):
    scen = _reference_scenario(mu_c=100.0)
    rates = sc.realize_rates(scen)
    lam_c = sc.compute_arrival_rate(rates, 5.0, sc.ArrivalRateMode.BURKE)
    lines = []
    ok = True
    for disc in (an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR):
        stages = tuple(an.StageLaw(float(r), 5.0, disc) for r in rates)
        sys_law = an.SystemLaw(stages)
        analytic = an.avg_paoi_e2e(
            sys_law, an.ComputeQueueLaw(lam_c, 100.0, an.AvgMode.CORRECTED))
        out = qs.run(qs.QueueConfig(disc, 5.0, 100.0), rates, cfg.e2e_horizon, cfg.master_seed + 5)
        est = qs.e2e_average_estimate(out)
        rel = abs(est.mean - analytic) / analytic
        gap = lam_c - out.compute_arrival_rate
        good = rel <= cfg.e2e_rel_tol and est.halfwidth <= cfg.e2e_rel_tol * analytic
        ok = ok and good
        lines.append(f"{disc.value}: sim={est.mean:.4f}+-{est.halfwidth:.4f} "
                     f"analytic={analytic:.4f} rel={rel:.4%} burke_gap={gap:+.3f}/s")
    anomaly = an.avg_paoi_compute(an.ComputeQueueLaw(75.0, 100.0, an.AvgMode.AS_WRITTEN))
    exact = (abs(anomaly.value - 1515000.0233333333) < 1e-4
             and anomaly.validity is an.Validity.INVALID)
    ok = ok and exact
    lines.append(f"uncorrected compute value = {anomaly.value!r} "
                 f"({anomaly.validity.value})")
    return ok, "; ".join(lines)


@_timed_check("severity_modes_and_excursions")
def check_severity(cfg: ValidationConfig, report: ValidationReport):
    law = an.StageLaw(2.0, 1.0, an.Discipline.FCFS_MM12)
    sys_law = an.SystemLaw((law,))
    pair = an.severity_both_modes(sys_law, 1.0, 1.0)
    written = pair[an.PsiMode.AS_WRITTEN_CDF]
    survival = pair[an.PsiMode.SURVIVAL]
    point_ok = (abs(written.value + 3.048824854331173) <= SEVERITY_TOL
                and abs(survival.value - 3.048824854331173) <= SEVERITY_TOL
                and written.validity is an.Validity.INVALID
                and survival.validity is an.Validity.INVALID)

    out = qs.run(qs.QueueConfig(an.Discipline.FCFS_MM12, 1.0, 50.0),
                 [2.0], cfg.severity_horizon, cfg.master_seed + 7)
    stats = qs.excursion_severity(out.stage1[0], 1.0)
    z_grid = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    rows = []
    for z in z_grid:
        emp = float(np.mean(stats.exceedances <= z)) if not stats.is_empty else math.nan
        zp = an.severity_both_modes(sys_law, 1.0, z)
        w, s = zp[an.PsiMode.AS_WRITTEN_CDF], zp[an.PsiMode.SURVIVAL]
        rows.append({
            "z": z, "empirical_below_z": emp, "excursions": int(len(stats.exceedances)),
            "j_as_written": w.value, "j_as_written_validity": w.validity.value,
            "deviation_as_written": w.value - emp,
            "j_survival": s.value, "j_survival_validity": s.validity.value,
            "deviation_survival": s.value - emp,
        })
    report.artifacts["severity_deviation"] = rows
    des_ok = (not stats.is_empty) and len(rows) == len(z_grid)
    return point_ok and des_ok, (
        f"worked point: {written.value:.4f}/{survival.value:.4f} "
        f"(both {written.validity.value}); {len(stats.exceedances)} excursions, "
        f"{len(rows)} deviation rows persisted")


def _trend_series(rows, disc) -> list[float]:
    per_value: dict[float, list[float]] = {}
    for row in rows:
        if (row["discipline"] == disc.value and not row.get("error")
                and row.get("avg_analytic_mode") == an.AvgMode.CORRECTED.value
                and row.get("severity_mode") == an.PsiMode.SURVIVAL.value):
            per_value.setdefault(row["value"], []).append(row["avg_analytic_per_user"])
    return [float(np.mean(per_value[v])) for v in sorted(per_value)]


@_timed_check("figure_trends_corrected_average")
def check_trends(cfg: ValidationConfig):
    users_base = _reference_scenario(mu_c=1000.0, num_users=5)
    users_sweep = sc.Sweep(sc.SweepVariable.NUM_USERS, (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                           cfg.trend_replications, users_base, 1.0, 3.0, cfg.trend_horizon,
                           cfg.master_seed + 11)
    user_rows = sc.run_sweep(users_sweep)

    bw_base = _reference_scenario(mu_c=100.0, meta_surfaces=1,
                                  image_bits=2e10, num_users=15)
    bw_rows = sc.run_sweep(replace(users_sweep, variable=sc.SweepVariable.BANDWIDTH,
                                   values=(1e10, 2e10, 4e10), base=bw_base))

    ok = True
    lines = []
    for label, rows in (("users", user_rows), ("bandwidth", bw_rows)):
        for disc in (an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR):
            series = _trend_series(rows, disc)
            mono = all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
            ok = ok and mono and len(series) >= 3
            verdict = (f"{len(series)} values, need at least 3" if len(series) < 3
                       else "non-increasing" if mono else f"VIOLATION {series}")
            lines.append(f"{label}/{disc.value}: {verdict}")
    return ok, "; ".join(lines)


@_timed_check("sweep_determinism")
def check_sweep_determinism(cfg: ValidationConfig):
    base = _reference_scenario(mu_c=1000.0, num_users=3)
    sweep = sc.Sweep(sc.SweepVariable.NUM_USERS, (3.0, 4.0), 1, base, 1.0, 3.0, 30.0,
                     cfg.master_seed + 13)
    blobs = []
    for _ in range(2):
        rows = sc.run_sweep(sweep)
        buf = io.StringIO()
        write_rows_csv(buf, sc.SWEEP_COLUMNS, rows)
        blobs.append(buf.getvalue().encode())
    same = blobs[0] == blobs[1]
    return same, f"two sweep exports byte-identical = {same} ({len(blobs[0])} bytes)"


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        write_rows_csv(fh, columns, rows)


def write_rows_csv(fh, columns, rows):
    import csv

    w = csv.writer(fh)
    w.writerow(columns)
    for row in rows:
        w.writerow([row.get(c, "") for c in columns])


# ---------------------------------------------------------------------------
# suite driver

def run_validation(cfg: ValidationConfig | None = None,
                   out_dir=None) -> ValidationReport:
    cfg = cfg or ValidationConfig()
    report = ValidationReport()
    start = time.perf_counter()
    report.checks.append(check_normalization())
    report.checks.append(check_fcfs_closed_vs_quadrature())
    report.checks.append(check_lcfs_discrepancy(report))
    report.checks.append(check_stage_cdf_vs_mpmath())
    report.checks.append(check_moment_consistency())
    report.checks.append(check_stage_ks(cfg))
    report.checks.append(check_e2e_average(cfg))
    report.checks.append(check_severity(cfg, report))
    report.checks.append(check_trends(cfg))
    report.checks.append(check_sweep_determinism(cfg))
    report.total_duration_s = time.perf_counter() - start
    report.checks.append(CheckResult(
        "total_runtime_budget",
        report.total_duration_s < TOTAL_BUDGET_SECONDS,
        f"suite took {report.total_duration_s:.1f}s of {TOTAL_BUDGET_SECONDS:.0f}s",
        0.0))
    if out_dir is not None:
        persist_artifacts(report, out_dir)
    return report


def persist_artifacts(report: ValidationReport, out_dir):
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in report.artifacts.items():
        if not rows:
            continue
        write_csv(out / f"{name}.csv", list(rows[0].keys()), rows)
