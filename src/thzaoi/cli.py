"""Command-line front end: analytic tables, sweeps, and the validation suite.

Every invocation writes a manifest (command, config digest, master seed)
next to its outputs so any CSV can be regenerated bit-for-bit.  Numeric
cells are written with ``repr`` so no precision is lost in files.

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

    def common(p, severity=True):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        if severity:
            p.add_argument("--z", type=float, default=None, help="severity threshold override")
            p.add_argument("--ruin-level", type=float, default=None,
                           help="severity ruin level override")

    p_an = sub.add_parser("analytic", help="evaluate densities, CDFs, severity, averages")
    common(p_an)
    p_an.set_defaults(func=cmd_analytic)

    p_sw = sub.add_parser("sweep", help="run a user-count or bandwidth sweep")
    common(p_sw)
    p_sw.add_argument("--feed", choices=[m.value for m in qs.ComputeFeed], default=None,
                      help="compute-queue feed override")
    p_sw.add_argument("--replications", type=int, default=None)
    p_sw.add_argument("--svg", action="store_true", help="render SVG charts")
    p_sw.add_argument("--export-samples", action="store_true",
                      help="write raw peak-age samples and excursions per cell")
    p_sw.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the full oracle validation suite")
    common(p_val, severity=False)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except sc.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# shared plumbing

def _load(args) -> dict:
    cfg = sc.load_json(args.config)
    sc.check_keys(cfg, set(), _TOP_KEYS_OPT, "config")
    return cfg


def _master_seed(args, cfg: dict) -> int:
    """``--seed`` if given, else ``config.master_seed``; seeds are non-negative."""
    if args.seed is not None:
        return sc.count(args.seed, "--seed", least=0)
    return sc.count(cfg.get("master_seed", 0), "config.master_seed", least=0)


def _override(cfg: dict, keys: tuple[str, ...], value):
    """Write a given flag into the config at ``keys``, to be read and checked as that key."""
    if value is None:
        return
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            return   # the section's parser rejects it by path
    node[keys[-1]] = value


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(f"out-{args.command}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:   # a file is in the way
        raise sc.ConfigError(f"--out: cannot make directory {out} ({exc.strerror})") from exc
    return out


def _write_manifest(args, out: Path, seed: int, outputs: list[str]):
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    manifest = {
        "command": args.command,
        "config_path": str(Path(args.config).resolve()),
        "config_sha256": digest,
        "master_seed": seed,
        "out_dir": str(out.resolve()),
        "tool_version": __version__,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "argv": sys.argv[1:],
        "outputs": outputs,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# analytic command

def _parse_analytic_law(d: dict, path: str) -> an.StageLaw:
    sc.check_keys(d, {"discipline", "update_rate", "service_rate"}, set(), path)
    with sc.config_errors(path):
        return an.StageLaw(sc.positive(d["update_rate"], f"{path}.update_rate"),
                           sc.positive(d["service_rate"], f"{path}.service_rate"),
                           an.Discipline(d["discipline"]))


def cmd_analytic(args) -> int:
    cfg = _load(args)
    if "analytic" not in cfg:
        raise sc.ConfigError("config: analytic section required")
    _override(cfg, ("analytic", "severity", "ruin_level_s"), args.ruin_level)
    _override(cfg, ("analytic", "severity", "z_grid"), None if args.z is None else [args.z])
    section = cfg["analytic"]
    sc.check_keys(section, {"laws"}, {"ages", "severity"}, "analytic")
    laws = [_parse_analytic_law(d, f"analytic.laws[{i}]")
            for i, d in enumerate(sc.entries(section.get("laws", []), "analytic.laws"))]
    ages = [sc.number(a, f"analytic.ages[{i}]", least=0)
            for i, a in enumerate(sc.entries(section.get("ages", []), "analytic.ages"))]

    severity = section.get("severity")
    ruin, z_grid, n_stages = None, [], 1
    if severity is not None:
        sc.check_keys(severity, {"ruin_level_s"}, {"z_grid", "stages"}, "analytic.severity")
        ruin = sc.number(severity["ruin_level_s"], "analytic.severity.ruin_level_s", least=0)
        z_grid = [sc.number(z, f"analytic.severity.z_grid[{i}]", least=0)
                  for i, z in enumerate(sc.entries(severity.get("z_grid", []),
                                                   "analytic.severity.z_grid"))]
        n_stages = sc.count(severity.get("stages", 1), "analytic.severity.stages",
                            least=1, most=sc.MOST)
    seed = _master_seed(args, cfg)

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
        sys_law = an.SystemLaw((law,) * n_stages)
        for z in z_grid:
            pair = an.severity_both_modes(sys_law, ruin, z)
            for mode, got in pair.items():
                rows.append({**base, "a_or_z": z, "quantity": "severity",
                             "mode": mode.value, "value": got.value,
                             "validity_flag": got.validity.value})

    out = _out_dir(args)
    val.write_csv(out / "analytic.csv", ANALYTIC_COLUMNS, rows)
    _write_manifest(args, out, seed, ["analytic.csv"])
    print(f"wrote {out / 'analytic.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# sweep command

def cmd_sweep(args) -> int:
    cfg = _load(args)
    for key in ("scenario", "sweep"):
        if key not in cfg:
            raise sc.ConfigError(f"config: {key} section required")
    _override(cfg, ("scenario", "queue", "compute_feed"), args.feed)
    _override(cfg, ("sweep", "replications"), args.replications)
    _override(cfg, ("sweep", "ruin_level_s"), args.ruin_level)
    _override(cfg, ("sweep", "threshold_z_s"), args.z)
    seed = _master_seed(args, cfg)
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
        qs.write_excursions_csv(samples_dir / f"excursions_{tag}.csv",
                                [(rep, e) for e in excursions])
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
    cfg = _load(args)
    _master_seed(args, cfg)   # a bad --seed is reported as the flag, not the key
    _override(cfg, ("validate", "master_seed"), args.seed)
    vcfg = val.parse_validation_config(cfg.get("validate", {}))
    out = _out_dir(args)
    report = val.run_validation(vcfg, out_dir=out)
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
    _write_manifest(args, out, vcfg.master_seed,
                    ["report.json"] + [f"{k}.csv" for k in report.artifacts])
    print(f"suite {'PASSED' if report.passed else 'FAILED'} "
          f"in {report.total_duration_s:.1f}s; report at {out / 'report.json'}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
