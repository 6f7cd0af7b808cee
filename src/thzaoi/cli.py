"""Command-line front end: analytic tables, sweeps, and the validation suite.

Every invocation writes a manifest (command, config digest, master seed)
next to its outputs so any CSV can be regenerated bit-for-bit on the same
machine and numpy build.  Numeric cells are written with ``repr`` so no
precision is lost in files.

Exit codes: 0 success, 2 validation failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import aoi_analytic as an
from . import queue_sim as qs
from . import scenario as sc
from . import svg_chart
from . import validation as val

_TOP_KEYS_OPT = {"scenario", "sweep", "analytic", "validate", "master_seed"}

ANALYTIC_COLUMNS = ["discipline", "r", "mu", "a_or_z", "quantity", "mode",
                    "value", "validity_flag"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzaoi",
        description="Peak-age analytics, tandem-queue simulation, and sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")

    p_an = sub.add_parser("analytic", help="evaluate densities, CDFs, severity, averages")
    common(p_an)
    p_an.set_defaults(func=cmd_analytic)

    p_sw = sub.add_parser("sweep", help="run a user-count or bandwidth sweep")
    common(p_sw)
    p_sw.add_argument("--seed", type=int, default=None,
                      help="master seed (default: config master_seed, else 0)")
    p_sw.add_argument("--svg", action="store_true", help="render SVG charts")
    p_sw.add_argument("--export-samples", action="store_true",
                      help="write raw peak-age samples and excursions per cell")
    p_sw.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the full oracle validation suite")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv   # for the manifest
    try:
        return args.func(args)
    except sc.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# shared plumbing

def _load(args, *sections: str) -> dict:
    """The config file's top-level object, which must hold each of ``sections``."""
    cfg = sc.load_json(args.config)
    sc.check_keys(cfg, set(), _TOP_KEYS_OPT, "config")
    for key in sections:
        if key not in cfg:
            raise sc.ConfigError(f"config: {key} section required")
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(f"out-{args.command}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, a name too long, ...
        raise sc.ConfigError(f"--out: cannot make directory {out} ({exc.strerror})") from exc
    return out


def _write_manifest(args, out: Path, seed: int | None, outputs: list[str]):
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "config_path": str(Path(args.config).resolve()),
        "config_sha256": digest,
        "master_seed": seed,
        "out_dir": str(out.resolve()),
        "tool_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "argv": args.argv,
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# analytic command

def _parse_analytic_law(d: dict, path: str) -> an.StageLaw:
    sc.check_keys(d, {"discipline", "update_rate", "service_rate"}, set(), path)
    return an.StageLaw(sc.positive(d["update_rate"], f"{path}.update_rate"),
                       sc.positive(d["service_rate"], f"{path}.service_rate"),
                       sc.choice(d["discipline"], an.Discipline, f"{path}.discipline"))


def _nonnegative(value, field: str) -> float:
    return sc.number(value, field, least=0)


def cmd_analytic(args) -> int:
    section = _load(args, "analytic")["analytic"]
    sc.check_keys(section, {"laws"}, {"ages", "severity"}, "analytic")
    laws = sc.entries(section["laws"], "analytic.laws", _parse_analytic_law)
    ages = sc.entries(section.get("ages", []), "analytic.ages", _nonnegative)

    severity = section.get("severity")
    ruin, z_grid = None, []
    if severity is not None:
        sc.check_keys(severity, {"ruin_level_s"}, {"z_grid"}, "analytic.severity")
        ruin = _nonnegative(severity["ruin_level_s"], "analytic.severity.ruin_level_s")
        z_grid = sc.entries(severity.get("z_grid", []), "analytic.severity.z_grid", _nonnegative)

    rows = []
    for law in laws:
        base = {"discipline": law.discipline.value, "r": law.update_rate,
                "mu": law.service_rate}
        for a in ages:
            rows.append({**base, "a_or_z": a, "quantity": "pdf", "mode": "",
                         "value": an.pdf_paoi(law, a), "validity_flag": "valid"})
        for source in (an.CdfSource.CLOSED_FORM, an.CdfSource.QUADRATURE):
            for a in ages:
                got = an.cdf_paoi(law, a, source)
                rows.append({**base, "a_or_z": a, "quantity": "cdf",
                             "mode": source.value, "value": got.value,
                             "validity_flag": got.validity.value})
        rows.append({**base, "a_or_z": "", "quantity": "avg_stage", "mode": "",
                     "value": an.avg_paoi_stage(law), "validity_flag": "valid"})
        sys_law = an.SystemLaw((law,))   # each law as a one-stage system
        for z in z_grid:
            pair = an.severity_both_modes(sys_law, ruin, z)
            for mode, got in pair.items():
                rows.append({**base, "a_or_z": z, "quantity": "severity",
                             "mode": mode.value, "value": got.value,
                             "validity_flag": got.validity.value})

    out = _out_dir(args)
    val.write_csv(out / "analytic.csv", ANALYTIC_COLUMNS, rows)
    _write_manifest(args, out, None, ["analytic.csv"])   # draws no random numbers
    print(f"wrote {out / 'analytic.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# sweep command

def cmd_sweep(args) -> int:
    cfg = _load(args, "scenario", "sweep")
    if args.seed is not None:
        seed = sc.count(args.seed, "--seed", least=0)
    else:
        seed = sc.count(cfg.get("master_seed", 0), "config.master_seed", least=0)
    sweep = sc.parse_sweep(cfg["sweep"], sc.parse_scenario(cfg["scenario"]), seed)
    out = _out_dir(args)
    exported: list[str] = []
    sink = _sample_sink(out, exported) if args.export_samples else None
    rows = sc.run_sweep(sweep, sample_sink=sink)
    agg = sc.aggregate_sweep(rows)

    val.write_csv(out / "sweep.csv", sc.SWEEP_COLUMNS, rows)
    agg_columns = list(agg[0].keys()) if agg else ["sweep_var"]
    val.write_csv(out / "sweep_aggregate.csv", agg_columns, agg)
    outputs = ["sweep.csv", "sweep_aggregate.csv", *sorted(set(exported))]
    if args.svg:
        outputs.append(_render_sweep_svg(out, agg, sweep))
    _write_manifest(args, out, seed, outputs)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows, {len(agg)} aggregated)")
    return 0


def _sample_sink(out: Path, written: list[str]):
    """Writes each cell's samples under ``out/samples``, appending the paths
    relative to ``out`` to ``written``."""
    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    def sink(value, rep, disc, samples, excursions):
        tag = f"{value!r}_rep{rep}_{disc.value}"
        qs.write_samples_csv(samples_dir / f"paoi_{tag}.csv", [(rep, samples)])
        val.write_csv(samples_dir / f"excursions_{tag}.csv",
                      ["replication", "ruin_level", "exceedance"],
                      [{"replication": rep, "ruin_level": excursions.ruin_level, "exceedance": x}
                       for x in excursions.exceedances.tolist()])
        written.extend((f"samples/paoi_{tag}.csv", f"samples/excursions_{tag}.csv"))

    return sink


def _render_sweep_svg(out: Path, agg, sweep) -> str:
    series = {}
    for disc in ("fcfs", "lcfs"):
        pts = [(a["value"], a["avg_analytic_mean"]) for a in agg
               if a["discipline"] == disc
               and a["avg_analytic_mode"] == an.AvgMode.CORRECTED.value
               and a["severity_mode"] == an.PsiMode.SURVIVAL.value]
        if pts:
            xs, ys = zip(*sorted(pts))
            series[f"{disc} corrected"] = (list(xs), list(ys))
    doc = svg_chart.line_chart(series, "Average end-to-end peak age",
                               sweep.variable.value, "seconds")
    name = "sweep_avg.svg"
    (out / name).write_text(doc)
    return name


# ---------------------------------------------------------------------------
# validate command

def cmd_validate(args) -> int:
    seed = val.parse_seed(_load(args).get("validate", {}))
    out = _out_dir(args)
    report = val.run_validation(seed, out_dir=out)
    for check in report.checks:
        print(val.format_check_line(check))
    payload = {
        "passed": report.passed,
        "total_duration_s": report.total_duration_s,
        "checks": [{"name": c.name, "passed": c.passed, "details": c.details,
                    "duration_s": c.duration_s} for c in report.checks],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_manifest(args, out, seed,
                    ["report.json"] + [f"{k}.csv" for k in report.artifacts])
    print(f"suite {'PASSED' if report.passed else 'FAILED'} "
          f"in {report.total_duration_s:.1f}s; report at {out / 'report.json'}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
