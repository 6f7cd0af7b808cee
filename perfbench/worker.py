"""One workload run in a fresh interpreter: set up, time the work, report.

    python3 perfbench/worker.py WORKLOAD CONFIG SEED OUT_DIR SPAWNED_AT MODE

Run from the root of a checkout.  MODE is ``run`` (timed work), ``trace``
(the same work with every layer wrapped by the tracer) or ``setup`` (set up,
then stop).  SPAWNED_AT is the CLOCK_MONOTONIC reading the parent took just
before starting this process, so ``setup_s`` spans interpreter start-up,
``import thzaoi`` and the config load.  The result is written to
OUT_DIR/result.json; the package's own output goes wherever stdout points.

Only the standard library is imported before the package, so setup time is
the package's.
"""

import json
import os
import resource
import sys
import time


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(workload: str, config: str) -> dict:
    """Import the package as the workload's user would and load its config."""
    sys.path.insert(0, os.path.abspath("src"))
    if workload == "sim_population":
        import thzaoi  # noqa: F401  (the library user's import)
    else:
        from thzaoi import cli  # noqa: F401  (the console-script entry point)
    from thzaoi import scenario as sc
    return sc.load_json(config)


def work(workload: str, config: str, cfg: dict, seed: int, out: str) -> dict:
    """The timed part of one run; the seed reaches the package as a user passes it."""
    if workload == "sweep_users":
        from thzaoi import cli
        return {"exit_code": cli.main(["sweep", "--config", config,
                                       "--seed", str(seed), "--out", out])}
    if workload == "validate":
        from thzaoi import cli
        return {"exit_code": cli.main(["validate", "--config", config, "--out", out])}
    return population(cfg, out)


def population(cfg: dict, out: str) -> dict:
    """The population study: rates, both disciplines, estimators, sample export.

    The population, its placement seed and the compute queue come from the
    config's scenario, the simulator seeds from its master seed.  Returns the
    counters and sizes the correctness check needs; the sample arrays are
    dropped as soon as they are exported.
    """
    from thzaoi import aoi_analytic as an
    from thzaoi import queue_sim as qs
    from thzaoi import scenario as sc

    scen = sc.parse_scenario(cfg["scenario"])
    seed = int(cfg["master_seed"])
    horizon = float(cfg["sweep"]["horizon_s"])
    ruin = float(cfg["sweep"]["ruin_level_s"])
    rates = sc.realize_rates(scen)
    mu_u, mu_c = scen.queue.stage_service_rate, scen.queue.compute_service_rate
    summary = {"rates": [float(r) for r in rates], "stage_service_rate": mu_u,
               "compute_service_rate": mu_c, "disciplines": {}}
    for index, disc in enumerate((an.Discipline.FCFS_MM12, an.Discipline.LCFS_MM12_STAR)):
        config = qs.QueueConfig(disc, mu_u, mu_c, qs.ComputeFeed.TANDEM)
        samples = qs.run(config, rates, horizon, 2 * seed + index)
        e2e = qs.e2e_average_estimate(samples)
        excursions = 0
        ks_max = 0.0
        for u, rate in enumerate(rates):
            stage = samples.series(u, qs.Stage.STAGE1)
            excursions += len(qs.excursion_severity(stage, ruin).exceedances)
            ks = qs.ks_distance(qs.empirical_cdf(samples, u, qs.Stage.STAGE1),
                                an.cdf_reference(an.StageLaw(float(rate), mu_u, disc)))
            ks_max = max(ks_max, ks)
        name = f"paoi_{disc.value}.csv"
        qs.write_samples_csv(os.path.join(out, name), [(0, samples)])
        counters = [samples.stage_counters[u] for u in range(len(rates))]
        summary["disciplines"][disc.value] = {
            "csv": name,
            "stage_counters": [[c.arrivals, c.deliveries, c.drops, c.preemptions, c.in_system]
                               for c in counters],
            "compute_counters": [samples.compute_arrivals, samples.compute_delivered,
                                 samples.compute_in_system],
            "samples": (sum(len(s) for s in samples.stage1.values())
                        + sum(len(s) for s in samples.e2e.values())
                        + len(samples.compute_agg)),
            "e2e_mean": e2e.mean, "e2e_halfwidth": e2e.halfwidth,
            "excursions": excursions, "ks_max": ks_max,
        }
        del samples
    return summary


def main(argv) -> int:
    workload, config, seed, out, spawned_at, mode = argv
    seed, spawned_at = int(seed), float(spawned_at)
    cfg = setup(workload, config)
    result = {"setup_s": _monotonic() - spawned_at}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        start = time.perf_counter()
        try:
            result["output"] = work(workload, config, cfg, seed, out)
            result["wall_s"] = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.restore()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, result["wall_s"])
            with open(os.path.join(out, "spans.json"), "w") as fh:
                json.dump({"columns": ["id", "parent", "group", "function", "start", "end"],
                           "spans": tracer.spans}, fh)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
