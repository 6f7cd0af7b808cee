"""Oracle-and-property validation suite.

Each check pits an implementation path against an independent one: closed forms
against Gauss-Legendre quadrature of the density, the canonical CDF kernels and
the quadrature against the simulator's cycle model (three exponential terms) at
30 digits in ``decimal``, the reference CDFs against the discrete-event simulator,
the published-but-inconsistent expressions against their flagged reproductions.
The figure trends read the analytic means alone, over fixed user placements.
The same suite backs the ``validate`` CLI command and the acceptance tests.
Its simulator sizes and tolerances are module constants, so a corrupted
tolerance demonstrably fails; a run's one setting is its seed, and no verdict
reads a clock.
"""

from __future__ import annotations

import functools
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import aoi_analytic as an
from . import queue_sim as qs
from . import scenario as sc
from . import thz_link as tl

GRID_R = (0.5, 1.0, 2.0, 5.0, 10.0, 1e4)
GRID_MU = (1.0, 5.0)
# THz-scale stage laws (r/mu as realized by the link budget) for the decimal oracle
ORACLE_MU = (1.0, 5.0)
ORACLE_RATIOS = (1e2, 1e3, 4e3, 5e3)
ORACLE_AGES = (1e-3, 0.1, 0.5, 1.0, 3.0, 4.0)
ORACLE_DIGITS = 30
NORMALIZATION_TOL = CLOSED_VS_QUAD_TOL = MOMENT_TOL = 1e-6
PUBLISHED_ORIGIN_TOL = 1e-9
LCFS_TAIL_TOL = 1e-6
ORACLE_TOL = 1e-12
TREND_REPLICATIONS = 2
KS_DELIVERIES = 100_000
KS_TOLERANCE = 0.01
E2E_HORIZON = 800.0
E2E_REL_TOL = 0.02
SEVERITY_HORIZON = 420_000.0
MASTER_SEED = 20260810


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
    return f"[{tag}] {check.name} ({1e3 * check.duration_s:.0f} ms): {check.details}"


def parse_seed(d: dict) -> int:
    """The ``validate`` section's one key, ``master_seed``: a whole number >= 0."""
    sc.check_keys(d, set(), {"master_seed"}, "validate")
    return sc.count(d.get("master_seed", MASTER_SEED), "validate.master_seed", least=0)


def _grid_laws(disc):
    laws = []
    for mu in GRID_MU:
        for r in GRID_R:
            if r != mu:
                laws.append(an.StageLaw(r, mu, disc))
        laws.append(an.StageLaw(mu * (1 + 1e-8), mu, disc))
        laws.append(an.StageLaw(mu * (1 - 1e-8), mu, disc))
    return laws


@functools.cache
def _moment_gaps() -> tuple[float, float]:
    """Worst |mass - 1| and |mean - avg_paoi_stage| over the grid laws, one pass per law."""
    gaps = [an._quad_pdf(law, [0.0, an.support_bound(law)], (0, 1))[:, -1]
            - (1.0, an.avg_paoi_stage(law)) for disc in an.Discipline for law in _grid_laws(disc)]
    return tuple(np.abs(gaps).max(axis=0).tolist())


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
    worst = _moment_gaps()[0]
    return worst <= NORMALIZATION_TOL, f"max |mass - 1| = {worst:.3e}"


@_timed_check("fcfs_closed_vs_quadrature")
def check_fcfs_closed_vs_quadrature():
    worst = 0.0
    for law in _grid_laws(an.Discipline.FCFS_MM12):
        grid = np.linspace(0.0, 20.0 / law.service_rate, 200)
        # for FCFS the reference CDF is the closed form
        gap = np.abs(an.cdf_reference(law)(grid[1:]) - an._quad_pdf(law, grid)[1:])
        worst = max(worst, float(gap.max()))
    spot = an.cdf_paoi(an.StageLaw(2, 1), 1.0, an.CdfSource.CLOSED_FORM).value
    spot_err = abs(spot - float(_cycle_terms_stage_cdf(an.StageLaw(2, 1), 1.0)))
    ok = worst <= CLOSED_VS_QUAD_TOL and spot_err <= ORACLE_TOL
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


def _cycle_terms_stage_cdf(law: an.StageLaw, a: float):
    """Stage CDF to ``ORACLE_DIGITS`` digits, as a ``Decimal``, from the simulator's cycle
    model, not the published forms: a peak sums independent terms of three cycles, so its
    survival is three exponentials, polynomial coefficients in d = r - mu and s = r + mu.
    Its poles merge at r = mu: validate's grid keeps r/mu >= 1e2, the tests a factor 2 off."""
    import decimal   # only this oracle needs it; keeps package import time flat

    with decimal.localcontext(decimal.Context(prec=ORACLE_DIGITS)):
        r, mu, a = (decimal.Decimal(x) for x in (law.update_rate, law.service_rate, a))
        d, s = r - mu, r + mu
        emu, er, es = ((-x * a).exp() for x in (mu, r, s))
        if law.discipline is an.Discipline.FCFS_MM12:
            poly = (mu * a * d) ** 2 / 2 + mu * r * a * d + r * r - mu * r - mu * mu
            return 1 - (mu ** 3 * er + r * emu * poly) / (d * d * s)
        poly = mu * r * a * (r * r + r * mu - 2 * mu * mu) + 3 * mu ** 3 - mu * mu * r + r ** 3
        return 1 - (emu * poly - er * r * (r * r + r * mu + mu * mu)
                    + es * d * (mu * r * a * s + 3 * mu * mu + 2 * mu * r + r * r)) / (r * d * s)


@_timed_check("stage_cdf_vs_cycle_terms")
def check_stage_cdf_vs_cycle_terms():
    from decimal import Decimal

    worst_ref = worst_quad = 0.0
    for disc in an.Discipline:
        for mu in ORACLE_MU:
            for ratio in ORACLE_RATIOS:
                law = an.StageLaw(ratio * mu, mu, disc)
                refs = an.cdf_reference(law)(ORACLE_AGES)
                quads = an._quad_pdf(law, (0.0,) + ORACLE_AGES)[1:]
                for a, ref, quad in zip(ORACLE_AGES, refs, quads):
                    exact = _cycle_terms_stage_cdf(law, a)
                    worst_ref = max(worst_ref, abs(float(Decimal(ref) - exact)))
                    worst_quad = max(worst_quad, abs(float(Decimal(quad) - exact)))
    return max(worst_ref, worst_quad) <= ORACLE_TOL, (
        f"max |reference - decimal| = {worst_ref:.2e}, "
        f"max |quadrature - decimal| = {worst_quad:.2e} (tol {ORACLE_TOL:.0e})")


@_timed_check("stage_mean_moment_consistency")
def check_moment_consistency():
    worst = _moment_gaps()[1]
    spot_f = abs(an.avg_paoi_stage(an.StageLaw(2, 1)) - 17.0 / 6.0)
    spot_l = abs(an.avg_paoi_stage(
        an.StageLaw(2, 1, an.Discipline.LCFS_MM12_STAR)) - 43.0 / 18.0)
    ok = worst <= MOMENT_TOL and spot_f < 1e-12 and spot_l < 1e-12
    return ok, f"max |closed mean - moment| = {worst:.3e}"


@_timed_check("simulator_vs_analytic_ks")
def check_stage_ks(seed: int):
    lines = {disc: [] for disc in an.Discipline}   # FCFS's cases first, then LCFS's
    ok = True
    for rate in (0.5, 2.0, 10.0):
        case_start = time.perf_counter()   # FCFS's case carries the rate's one draw
        horizon = 1.05 * KS_DELIVERIES / an.stage_throughput(rate, 1.0)
        series = qs.stage_series(an.Discipline, rate, 1.0, horizon, seed + int(10 * rate))
        for disc in an.Discipline:
            ecdf = qs.EmpiricalCdf(next(series).peaks)
            d, n = qs.ks_distance(ecdf, an.cdf_reference(an.StageLaw(rate, 1.0, disc))), ecdf.n
            del ecdf    # freed before the next case simulates
            case_end = time.perf_counter()
            case_s, case_start = case_end - case_start, case_end
            ok = ok and d <= KS_TOLERANCE and n >= KS_DELIVERIES
            lines[disc].append(f"{disc.value} r={rate}: KS={d:.4f} n={n} ({1e3 * case_s:.0f} ms)")
        del series   # its cycles go before the next rate draws
    return ok, "; ".join(sum(lines.values(), []))


def _reference_scenario(mu_c: float, meta_surfaces: int = 100,
                        image_bits: float = 1e7) -> sc.Scenario:
    link = tl.LinkParams(bandwidth_hz=1e10, carrier_hz=1e12, tx_power_w=1.0,
                         absorption_per_m=0.0016, temperature_k=300.0,
                         meta_surfaces=meta_surfaces, image_size_bits=image_bits)
    queue = qs.QueueConfig(an.Discipline.FCFS_MM12, 5.0, mu_c)
    return sc.Scenario(room=sc.Room(), num_users=15, link_params=link,
                       queue=queue, placement_seed=424242)


def _corrected_e2e(rates, mu_u: float, mu_c: float, disc) -> float:
    """The corrected ``avg_paoi_e2e`` of users at ``rates``, fed to compute at Burke's rate."""
    sys_law = an.SystemLaw(tuple(an.StageLaw(float(r), mu_u, disc) for r in rates))
    lam_c = sc.compute_arrival_rate(rates, mu_u, sc.ArrivalRateMode.BURKE)
    return an.avg_paoi_e2e(sys_law, an.ComputeQueueLaw(lam_c, mu_c, an.AvgMode.CORRECTED))


@_timed_check("e2e_average_vs_simulator")
def check_e2e_average(seed: int):
    rates = sc.realize_rates(_reference_scenario(mu_c=100.0))
    lam_c = sc.compute_arrival_rate(rates, 5.0, sc.ArrivalRateMode.BURKE)
    lines = []
    ok = True
    for disc, out in zip(an.Discipline,
                         qs.cell_runs(an.Discipline, rates, 5.0, 100.0, E2E_HORIZON, seed + 5)):
        analytic = _corrected_e2e(rates, 5.0, 100.0, disc)
        est = qs.e2e_average_estimate(out)
        rel = abs(est.mean - analytic) / analytic
        gap = lam_c - out.compute_arrival_rate
        good = rel <= E2E_REL_TOL and est.halfwidth <= E2E_REL_TOL * analytic
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
def check_severity(seed: int, report: ValidationReport):
    law = an.StageLaw(2.0, 1.0, an.Discipline.FCFS_MM12)
    sys_law = an.SystemLaw((law,))
    pair = an.severity_both_modes(sys_law, 1.0, 1.0)
    written = pair[an.PsiMode.AS_WRITTEN_CDF]
    survival = pair[an.PsiMode.SURVIVAL]
    f1, f2 = (_cycle_terms_stage_cdf(law, a) for a in (1.0, 2.0))
    exact = float((f1 - f2) / (f1 * (1 - f1)))   # J as written: Psi(1) = Psi(z) = F(1)
    point_ok = (abs(written.value - exact) <= ORACLE_TOL
                and abs(survival.value + exact) <= ORACLE_TOL
                and written.validity is an.Validity.INVALID
                and survival.validity is an.Validity.INVALID)

    series, = qs.stage_series((an.Discipline.FCFS_MM12,), 2.0, 1.0, SEVERITY_HORIZON, seed + 7)
    exceed = qs.exceedances([series], 1.0)
    z_grid = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    rows = []
    for z in z_grid:
        emp = float(np.mean(exceed <= z)) if exceed.size else math.nan
        zp = an.severity_both_modes(sys_law, 1.0, z)
        w, s = zp[an.PsiMode.AS_WRITTEN_CDF], zp[an.PsiMode.SURVIVAL]
        rows.append({
            "z": z, "empirical_below_z": emp, "excursions": int(len(exceed)),
            "j_as_written": w.value, "j_as_written_validity": w.validity.value,
            "deviation_as_written": w.value - emp,
            "j_survival": s.value, "j_survival_validity": s.validity.value,
            "deviation_survival": s.value - emp,
        })
    report.artifacts["severity_deviation"] = rows
    des_ok = exceed.size > 0 and len(rows) == len(z_grid)
    return point_ok and des_ok, (
        f"worked point: {written.value:.4f}/{survival.value:.4f} "
        f"(both {written.validity.value}); {len(exceed)} excursions, "
        f"{len(rows)} deviation rows persisted")


def _trend_series(base: sc.Scenario, variable: sc.SweepVariable, values):
    """Per discipline, each value's corrected ``avg_analytic_per_user``, meaned over placements."""
    mu_u, mu_c = base.queue.stage_service_rate, base.queue.compute_service_rate
    series = {disc: [] for disc in an.Discipline}
    positions = [sc.replication_positions(base, variable, values, rep)
                 for rep in range(TREND_REPLICATIONS)]
    for value in values:
        reps = [sc.cell_rates(base, variable, value, placed) for placed in positions]
        for disc, means in series.items():
            per_user = [_corrected_e2e(r, mu_u, mu_c, disc) / len(r) for r in reps]
            means.append(float(np.mean(per_user)))
    return series


@_timed_check("figure_trends_corrected_average")
def check_trends():
    monotone, lines = [], []
    for label, base, variable, values in (
            ("users", _reference_scenario(mu_c=1000.0),
             sc.SweepVariable.NUM_USERS, (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
            ("bandwidth", _reference_scenario(mu_c=100.0, meta_surfaces=1, image_bits=2e10),
             sc.SweepVariable.BANDWIDTH, (1e10, 2e10, 4e10))):
        for disc, series in _trend_series(base, variable, values).items():
            monotone.append(all(b <= a + 1e-12 for a, b in zip(series, series[1:])))
            verdict = "non-increasing" if monotone[-1] else f"VIOLATION {series}"
            lines.append(f"{label}/{disc.value}: {verdict}")
    return all(monotone), "; ".join(lines)


@_timed_check("sweep_determinism")
def check_sweep_determinism(seed: int):
    sweep = sc.Sweep(sc.SweepVariable.NUM_USERS, (3.0, 4.0), 1, _reference_scenario(mu_c=1000.0),
                     1.0, 3.0, 30.0, seed + 13)
    blobs = []
    for _ in range(2):
        an._kernel_value.cache_clear()   # so the second run computes what the first one cached
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

def run_validation(seed: int = MASTER_SEED, out_dir=None) -> ValidationReport:
    report = ValidationReport()
    start = time.perf_counter()
    _moment_gaps.cache_clear()   # so this run's two moment checks read this run's pass
    report.checks.append(check_normalization())
    report.checks.append(check_fcfs_closed_vs_quadrature())
    report.checks.append(check_lcfs_discrepancy(report))
    report.checks.append(check_stage_cdf_vs_cycle_terms())
    report.checks.append(check_moment_consistency())
    report.checks.append(check_stage_ks(seed))
    report.checks.append(check_e2e_average(seed))
    report.checks.append(check_severity(seed, report))
    report.checks.append(check_trends())
    report.checks.append(check_sweep_determinism(seed))
    report.total_duration_s = time.perf_counter() - start
    if out_dir is not None:
        persist_artifacts(report, out_dir)
    return report


def persist_artifacts(report: ValidationReport, out_dir):
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in report.artifacts.items():
        write_csv(out / f"{name}.csv", list(rows[0].keys()), rows)
