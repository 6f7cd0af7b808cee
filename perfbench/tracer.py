"""Span tracer that wraps the package's public functions from outside.

The package calls across and within its modules through module attributes
(``an.``, ``qs.``, ``sc.``, ``link.``, ``val.``, and plain module globals),
so replacing an attribute catches nested calls too.  Every span records its
group, start, end and parent; a group's self time is the summed span
durations minus the time of the spans nested directly inside them, so the
self times of all groups add up to the time spent inside any span.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass


@dataclass
class GroupStats:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0   # outermost spans of the group only


class Tracer:
    """Install with ``with Tracer() as t: t.wrap(...)``; exit restores every attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.groups: dict[str, GroupStats] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []      # [span id, group, time in child spans]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, module, attr: str, group: str, count=None) -> bool:
        """Replace ``module.attr`` by a traced version; False if it is absent.

        ``count(tracer, args, kwargs, result)`` runs after a successful call
        and records work done through ``tracer.add``.
        """
        orig = getattr(module, attr, None)
        if not callable(orig):
            return False

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self._call(orig, group, count, args, kwargs)

        self._saved.append((module, attr, orig))
        setattr(module, attr, traced)
        return True

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def add(self, name: str, amount: float):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _call(self, fn, group, count, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, group, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            stats = self.groups.setdefault(group, GroupStats())
            stats.calls += 1
            stats.self_s += duration - frame[2]
            if all(f[1] != group for f in self._stack):
                stats.inclusive_s += duration
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((span_id, parent, group, fn.__name__, start, end))
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def self_s(self, group: str) -> float:
        return self.groups[group].self_s if group in self.groups else 0.0

    def calls(self, group: str) -> int:
        return self.groups[group].calls if group in self.groups else 0

    def inclusive_s(self, group: str) -> float:
        return self.groups[group].inclusive_s if group in self.groups else 0.0

    def traced_s(self) -> float:
        """Time spent inside any span (the sum of every group's self time)."""
        return sum(g.self_s for g in self.groups.values())


# ---------------------------------------------------------------------------
# the package's layers

def _count_cdf_points(tracer, args, kwargs, result):
    sys_law = args[0] if args else kwargs["sys_law"]
    tracer.add("cdf_points", 3 * len(sys_law.stages))


def _count_run(tracer, args, kwargs, samples):
    counters = samples.stage_counters.values()
    tracer.add("stage_arrivals", sum(c.arrivals for c in counters))
    tracer.add("stage_deliveries", sum(c.deliveries for c in counters))
    tracer.add("compute_jobs", samples.compute_arrivals)


def _count_values(tracer, args, kwargs, result):
    tracer.add("estimator_samples", len(args[0]))


def _count_ks(tracer, args, kwargs, result):
    tracer.add("estimator_samples", args[0].n)


def _count_users(tracer, args, kwargs, rates):
    tracer.add("users_placed", len(rates))


def _count_handle_bytes(tracer, args, kwargs, result):
    # every caller hands write_rows_csv a freshly opened file or buffer
    tracer.add("io_bytes", args[0].tell())


def _count_path_bytes(tracer, args, kwargs, result):
    tracer.add("io_bytes", os.path.getsize(args[0]))


def instrument(tracer: Tracer):
    """Wrap the public entry points of every layer of the package."""
    from thzaoi import aoi_analytic as an
    from thzaoi import queue_sim as qs
    from thzaoi import scenario as sc
    from thzaoi import thz_link as link
    from thzaoi import validation as val

    for attr in ("severity_both_modes", "severity_cdf"):
        tracer.wrap(an, attr, "aoi_analytic.severity", _count_cdf_points)
    tracer.wrap(an, "severity_cdf_grid", "aoi_analytic.severity")
    tracer.wrap(an, "system_cdf", "aoi_analytic.system_cdf")
    tracer.wrap(an, "cdf_paoi", "aoi_analytic.cdf_paoi")
    tracer.wrap(an, "_quad_pdf", "aoi_analytic.quadrature")
    for attr in ("avg_paoi_stage", "avg_paoi_compute", "avg_paoi_e2e"):
        tracer.wrap(an, attr, "aoi_analytic.avg")

    tracer.wrap(qs, "run", "queue_sim.run", _count_run)
    tracer.wrap(qs, "estimate_avg", "queue_sim.estimators", _count_values)
    tracer.wrap(qs, "excursion_severity", "queue_sim.estimators", _count_values)
    tracer.wrap(qs, "ks_distance", "queue_sim.estimators", _count_ks)
    for attr in ("e2e_average_estimate", "empirical_cdf"):
        tracer.wrap(qs, attr, "queue_sim.estimators")

    tracer.wrap(val, "write_rows_csv", "io.write", _count_handle_bytes)
    for attr in ("write_samples_csv", "write_excursions_csv"):
        tracer.wrap(qs, attr, "io.write", _count_path_bytes)

    tracer.wrap(sc, "realize_rates", "scenario.realize_rates", _count_users)
    tracer.wrap(sc, "run_sweep", "scenario.run_sweep")
    tracer.wrap(sc, "aggregate_sweep", "scenario.aggregate_sweep")
    tracer.wrap(link, "rate_bps", "thz_link.rate_bps")

    tracer.wrap(val, "run_validation", "validation")
    for attr in sorted(vars(val)):
        if attr.startswith("check_"):
            tracer.wrap(val, attr, "validation")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose timed region took ``wall_s``."""
    c = tracer.counts.get
    m = {
        "aoi_analytic.severity_s": tracer.self_s("aoi_analytic.severity"),
        "aoi_analytic.system_cdf_s": tracer.self_s("aoi_analytic.system_cdf"),
        "aoi_analytic.cdf_paoi_s": tracer.self_s("aoi_analytic.cdf_paoi"),
        "aoi_analytic.quadrature_s": tracer.self_s("aoi_analytic.quadrature"),
        "aoi_analytic.avg_s": tracer.self_s("aoi_analytic.avg"),
        "aoi_analytic.cdf_paoi_calls": tracer.calls("aoi_analytic.cdf_paoi"),
        "aoi_analytic.cdf_points": c("cdf_points", 0),
        "aoi_analytic.cdf_points_per_s": _ratio(
            c("cdf_points", 0), tracer.inclusive_s("aoi_analytic.severity")),
        "queue_sim.run_s": tracer.self_s("queue_sim.run"),
        "queue_sim.runs": tracer.calls("queue_sim.run"),
        "queue_sim.stage_arrivals": c("stage_arrivals", 0),
        "queue_sim.stage_deliveries": c("stage_deliveries", 0),
        "queue_sim.compute_jobs": c("compute_jobs", 0),
        "queue_sim.deliveries_per_s": _ratio(
            c("stage_deliveries", 0), tracer.self_s("queue_sim.run")),
        "queue_sim.estimators_s": tracer.self_s("queue_sim.estimators"),
        "queue_sim.estimator_samples": c("estimator_samples", 0),
        "queue_sim.estimator_samples_per_s": _ratio(
            c("estimator_samples", 0), tracer.self_s("queue_sim.estimators")),
        "io.write_s": tracer.self_s("io.write"),
        "io.bytes": c("io_bytes", 0),
        "io.mb_per_s": _ratio(c("io_bytes", 0) / 1e6, tracer.self_s("io.write")),
        "scenario.realize_rates_s": tracer.self_s("scenario.realize_rates"),
        "scenario.run_sweep_self_s": tracer.self_s("scenario.run_sweep"),
        "scenario.aggregate_sweep_s": tracer.self_s("scenario.aggregate_sweep"),
        "scenario.users_placed": c("users_placed", 0),
        "thz_link.rate_bps_s": tracer.self_s("thz_link.rate_bps"),
        "thz_link.rate_bps_calls": tracer.calls("thz_link.rate_bps"),
        "validation.self_s": tracer.self_s("validation"),
        "cli.self_s": wall_s - tracer.traced_s(),
        "trace.wall_s": wall_s,
    }
    return {k: float(v) for k, v in m.items()}
