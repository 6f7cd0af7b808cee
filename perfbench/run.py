"""thzaoi benchmark driver.

    python3 perfbench/run.py --workload sweep_users --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measured run of a workload is a
fresh interpreter (``worker.py``), one after another, so imports and peak
memory are per run.  As many runs as fit in ``--seconds`` are made and the
reported figures are medians over them.  Each run's outputs are checked
against an oracle, outside every timed region.  ``--trace 1`` makes one
untraced and one traced run instead and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with ``--trace 1``).  ``--workload all`` runs the three
workloads in turn and ends with one such object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_users", "sim_population", "validate")
REFERENCE = "configs/reference_sweep.json"
ANALYTIC_GRID = "configs/analytic_grid.json"
REQUIRED = ("src/thzaoi/__init__.py", "src/thzaoi/cli.py", REFERENCE, ANALYTIC_GRID,
            "BENCHMARK.json")
SETUP_SAMPLES = 5        # setup_s is the median of at least this many fresh starts
DEADLINE_S = 170.0       # every invocation ends well inside 180 s
WORK_DIR = ".perfbench"  # everything a run writes, relative to the checkout
POPULATION_USERS = 300
# 300 users deliver about 1,500 updates/s to the compute queue: rho ~ 0.75
POPULATION_MU_C = 2000.0
# sizes for the benchmark's own smoke test (and tolerances that suit them)
TINY = {
    "sweep_users": {"sweep": {"values": [2, 3], "replications": 1, "horizon_s": 5.0}},
    "sim_population": {"scenario": {"num_users": 4}, "sweep": {"horizon_s": 300.0}},
    "validate": {"validate": {
        "ks_deliveries": 2000, "ks_tolerance": 0.1, "e2e_horizon": 100.0, "e2e_rel_tol": 0.2,
        "severity_horizon": 2000.0, "trend_horizon": 5.0, "trend_replications": 1}},
}
# the validation checks whose durations the traced run reports
VALIDATION_CHECKS = (
    "density_normalization", "fcfs_closed_vs_quadrature", "lcfs_published_cdf_discrepancy",
    "stage_mean_moment_consistency", "simulator_vs_analytic_ks", "e2e_average_vs_simulator",
    "severity_modes_and_excursions", "figure_trends_corrected_average", "sweep_determinism",
)


class BenchError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
    }


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merge(base[key], value) if isinstance(value, dict) else value
    return out


def workload_config(workload: str, seed: int, work: Path, tiny: bool = False) -> str:
    """Write the config a user would pass for this workload and seed; return its path.

    ``sweep_users`` takes its seed on the command line; the population study
    takes it as placement seed and master seed; ``validate`` as its master seed.
    """
    if workload == "sweep_users" and not tiny:
        return REFERENCE
    if workload == "validate":
        cfg = {**json.loads(Path(ANALYTIC_GRID).read_text()), "validate": {"master_seed": seed}}
    else:
        cfg = json.loads(Path(REFERENCE).read_text())
    if workload == "sim_population":
        cfg = _merge(cfg, {"scenario": {"num_users": POPULATION_USERS, "placement_seed": seed,
                                        "queue": {"compute_service_rate": POPULATION_MU_C}},
                           "master_seed": seed})
    if tiny:
        cfg = _merge(cfg, TINY[workload])
    path = work / f"{workload}_seed{seed}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def spawn(workload: str, config: str, seed: int, out: Path, mode: str,
          deadline: float) -> tuple[dict, float]:
    """Start one worker, wait for it, return its result and its lifetime."""
    out.mkdir(parents=True)
    timeout = deadline - _monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} run of {workload}")
    with open(out / "worker.log", "w") as log:
        started = _monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), workload, config, str(seed),
                 str(out), repr(started), mode],
                stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} run passed the {DEADLINE_S:.0f} s deadline") \
                from exc
        lifetime = _monotonic() - started
    if proc.returncode != 0:
        tail = (out / "worker.log").read_text()[-2000:]
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{tail}")
    return json.loads((out / "result.json").read_text()), lifetime


def measure(workload: str, config: str, seed: int, out: Path, mode: str, gate,
            deadline: float) -> dict:
    """One worker run, its outputs checked and fingerprinted, then deleted."""
    result, lifetime = spawn(workload, config, seed, out, mode, deadline)
    verdict = gate.check(result, out)
    result.pop("output")
    result.update(mode=mode, lifetime_s=lifetime, attempted=verdict.attempted,
                  failed=verdict.failed, problems=verdict.problems,
                  j_z_rel_err_max=verdict.j_z_rel_err_max, samples=verdict.samples,
                  csv_sha256=checks.csv_digests(out),
                  check_durations=checks.check_durations(out))
    if mode == "trace":
        shutil.copy(out / "spans.json", out.parent / "spans.json")
    shutil.rmtree(out)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 tiny: bool = False) -> dict:
    """Measure one workload and check its outputs; returns the result record."""
    deadline = _monotonic() + DEADLINE_S
    work = root / WORK_DIR / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload_config(workload, seed, work, tiny)
    gate = checks.gate(workload, config)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(root), "loadavg_start": os.getloadavg()}

    runs = []
    if trace:
        for mode in ("run", "trace"):
            runs.append(measure(workload, config, seed, work / mode, mode, gate, deadline))
    else:
        # as many runs as fill the measuring time, sized by the first one so
        # that the count does not flip with small changes in speed
        while True:
            runs.append(measure(workload, config, seed, work / f"run{len(runs)}", "run",
                                gate, deadline))
            wanted = max(1, round(seconds / runs[0]["lifetime_s"]))
            if len(runs) >= wanted or _monotonic() + 2 * runs[-1]["lifetime_s"] > deadline:
                break
    setups = [r["setup_s"] for r in runs]
    while not trace and len(setups) < SETUP_SAMPLES and _monotonic() + 10 < deadline:
        out = work / f"setup{len(setups)}"
        setups.append(spawn(workload, config, seed, out, "setup", deadline)[0]["setup_s"])
        shutil.rmtree(out)

    timed = [r for r in runs if r["mode"] == "run"]
    wall = statistics.median(r["wall_s"] for r in timed)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    identical = all(r["csv_sha256"] == runs[0]["csv_sha256"] for r in runs)
    record.update(
        loadavg_end=os.getloadavg(), runs=runs, setup_samples=setups,
        csv_sha256=runs[0]["csv_sha256"], reruns_identical=identical,
        attempted=attempted, failed=failed, correct=failed == 0 and identical,
        end_to_end={
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        },
        extra={"ops_failed_frac": failed / attempted})
    j_err = max(r["j_z_rel_err_max"] for r in runs)
    if workload == "sweep_users":
        record["extra"]["j_z_rel_err_max"] = j_err
    if workload == "sim_population":
        record["extra"]["samples_per_s"] = timed[0]["samples"] / wall
    if trace:
        traced = runs[-1]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (traced["wall_s"] - wall) / wall
        layers["oracle.j_z_rel_err_max"] = j_err
        for name in VALIDATION_CHECKS:
            layers[f"validation.{name}_s"] = traced["check_durations"].get(name, 0.0)
        record["per_layer"] = layers
    return record


# end-to-end figures printed for people but kept out of the JSON line: each
# exists on one workload only, or is 0 at every healthy run
EXTRA_UNITS = {"ops_failed_frac": "ratio", "j_z_rel_err_max": "ratio", "samples_per_s": "1/s"}


def report(record: dict, spec: dict) -> dict:
    """Print the human-readable block and return the contract's JSON object."""
    trace = record["trace"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={int(trace)}")
    print("env " + json.dumps({**record["env"], "loadavg_start": record["loadavg_start"],
                               "loadavg_end": record["loadavg_end"]}))
    print("csv_sha256 " + json.dumps(record["csv_sha256"], sort_keys=True))
    runs = [r for r in record["runs"] if r["mode"] == "run"]
    notes = {"setup_s": f"median of {len(record['setup_samples'])} starts",
             "wall_s": f"median of {len(runs)} runs",
             "peak_rss_mb": f"median of {len(runs)} runs"}
    for name, value in record["end_to_end"].items():
        print(f"  {name:<18} {value:<14.6g} {spec['end_to_end'][name]:<6} {notes[name]}")
    for name, value in record["extra"].items():
        print(f"  {name:<18} {value:<14.6g} {EXTRA_UNITS[name]}")
    print(f"  ops                {record['failed']} failed of {record['attempted']}; "
          f"reruns byte-identical: {record['reruns_identical']}")
    for run in record["runs"]:
        for problem in run["problems"][:10]:
            print(f"  FAILED {problem}")
    section = "per_layer" if trace else "end_to_end"
    values = record[section]
    if trace:
        for name, unit in spec[section].items():
            print(f"  {name:<44} {values[name]:<14.6g} {unit}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in spec[section].items()}}


def load_spec(root: Path) -> dict[str, dict[str, str]]:
    """Metric names and units per section of BENCHMARK.json."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {section: {m["name"]: m["unit"] for m in bench[section]}
            for section in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not the root of a thzaoi checkout; missing {missing}",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    sys.path.insert(0, str(root / "src"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
            results[workload] = report(record, spec)
            path = root / WORK_DIR / "results" / \
                f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({**record, "result": results[workload]}, indent=1))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
