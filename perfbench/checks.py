"""Correctness gates, one per workload, run outside every timed region.

Each gate turns one worker's outputs into operations attempted and failed:

* ``sweep_users``: one operation per sweep cell (value, replication,
  discipline).  A cell passes when the sweep exited 0, its four rows carry
  no error, and both severity readings match the mpmath oracle in value and
  validity flag.
* ``sim_population``: one operation per discipline.  It passes when every
  user's stage conserves packets, the compute queue conserves jobs, the
  simulated end-to-end average agrees with ``avg_paoi_e2e`` (corrected), and
  the exported CSV holds one row per sample.
* ``validate``: one operation per check in ``report.json``; the suite must
  also exit 0.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import oracle

# largest relative deviation of a sweep J(z) from the oracle that still passes
J_REL_TOL = 1e-6
# simulated vs analytic end-to-end average of the population study; the same
# tolerance as the validation suite's e2e_rel_tol (about 5 batch-means sigmas here)
E2E_REL_TOL = 0.02


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    j_z_rel_err_max: float = 0.0
    samples: int = 0

    def record(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every CSV a run wrote, keyed by path relative to ``out``."""
    digests = {}
    for path in sorted(out.rglob("*.csv")):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[path.relative_to(out).as_posix()] = h.hexdigest()
    return digests


def _placement_seed(base_seed: int, replication: int) -> int:
    """The sweep's per-replication placement seed (users are re-placed per replication)."""
    import numpy as np

    return int(np.random.SeedSequence([base_seed, 1000 + replication]).generate_state(1)[0])


class SweepGate:
    def __init__(self, config: str):
        from thzaoi import scenario as sc

        cfg = sc.load_json(config)
        base = sc.parse_scenario(cfg["scenario"])
        sweep = cfg["sweep"]
        if sweep["variable"] != "num_users":
            raise ValueError("the sweep oracle covers user-count sweeps only")
        ruin, z = float(sweep["ruin_level_s"]), float(sweep["threshold_z_s"])
        mu = base.queue.stage_service_rate
        self.expected = {}
        for value in sweep["values"]:
            for rep in range(int(sweep["replications"])):
                scen = replace(base, num_users=int(value),
                               placement_seed=_placement_seed(base.placement_seed, rep))
                rates = [float(r) for r in sc.realize_rates(scen)]
                for disc in ("fcfs", "lcfs"):
                    self.expected[(float(value), rep, disc)] = oracle.severity(
                        rates, mu, disc, ruin, z)

    def check(self, result: dict, out: Path) -> Verdict:
        verdict = Verdict()
        exit_code = result["output"]["exit_code"]
        path = out / "sweep.csv"
        rows = []
        if path.is_file():
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        cells: dict[tuple, list[dict]] = {}
        for row in rows:
            key = (float(row["value"]), int(row["replication"]), row["discipline"])
            cells.setdefault(key, []).append(row)
        for key, exact in self.expected.items():
            got = cells.get(key, [])
            problems = [f"exit code {exit_code}"] if exit_code != 0 else []
            if len(got) != 4:
                problems.append(f"{len(got)} rows instead of 4")
            for row in got:
                if row["error"]:
                    problems.append(f"error {row['error']!r}")
                    continue
                want = exact[row["severity_mode"]]
                err = oracle.relative_error(float(row["j_z"]), want)
                verdict.j_z_rel_err_max = max(verdict.j_z_rel_err_max, err)
                if err > J_REL_TOL:
                    problems.append(f"{row['severity_mode']} j_z rel err {err:.3g}")
                if row["j_validity"] != oracle.flag(want):
                    problems.append(f"{row['severity_mode']} flag {row['j_validity']}")
            verdict.record(not problems, f"cell {key}: {'; '.join(problems)}")
        return verdict


class PopulationGate:
    def check(self, result: dict, out: Path) -> Verdict:
        from thzaoi import aoi_analytic as an
        from thzaoi import scenario as sc

        verdict = Verdict()
        summary = result["output"]
        rates, mu_u = summary["rates"], summary["stage_service_rate"]
        mu_c = summary["compute_service_rate"]
        lam_c = sc.compute_arrival_rate(rates, mu_u, sc.ArrivalRateMode.THROUGHPUT)
        for name, disc in summary["disciplines"].items():
            problems = []
            law = an.SystemLaw(tuple(an.StageLaw(r, mu_u, an.Discipline(name)) for r in rates))
            bad = [u for u, (arr, dlv, drop, pre, held) in enumerate(disc["stage_counters"])
                   if arr != dlv + drop + pre + held]
            if bad:
                problems.append(f"stage conservation fails for users {bad[:5]}")
            jobs, done, held = disc["compute_counters"]
            delivered = sum(c[1] for c in disc["stage_counters"])
            if jobs != done + held or jobs != delivered:
                problems.append(f"compute conservation: {jobs} jobs, {done} done, "
                                f"{held} held, {delivered} stage deliveries")
            exact = an.avg_paoi_e2e(law, an.ComputeQueueLaw(lam_c, mu_c, an.AvgMode.CORRECTED))
            rel = abs(disc["e2e_mean"] - exact) / exact
            if not rel <= E2E_REL_TOL:
                problems.append(f"e2e average {disc['e2e_mean']:.6g} vs {exact:.6g} (rel {rel:.3g})")
            with open(out / disc["csv"], newline="") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != disc["samples"]:
                problems.append(f"{rows} exported rows for {disc['samples']} samples")
            verdict.samples += disc["samples"]
            verdict.record(not problems, f"{name}: {'; '.join(problems)}")
        return verdict


class ValidateGate:
    def check(self, result: dict, out: Path) -> Verdict:
        verdict = Verdict()
        exit_code = result["output"]["exit_code"]
        path = out / "report.json"
        checks = json.loads(path.read_text())["checks"] if path.is_file() else []
        for check in checks:
            verdict.record(check["passed"], f"{check['name']}: {check['details']}")
        if not checks:
            verdict.record(False, "no report.json")
        elif exit_code != 0 and not verdict.failed:
            verdict.record(False, f"exit code {exit_code} with every check passed")
        return verdict


def gate(workload: str, config: str):
    if workload == "sweep_users":
        return SweepGate(config)
    if workload == "sim_population":
        return PopulationGate()
    return ValidateGate()


def check_durations(out: Path) -> dict[str, float]:
    """Per-check durations from a validate run's report.json (empty otherwise)."""
    path = out / "report.json"
    if not path.is_file():
        return {}
    return {c["name"]: float(c["duration_s"]) for c in json.loads(path.read_text())["checks"]}

