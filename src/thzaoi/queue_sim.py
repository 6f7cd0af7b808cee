"""Discrete-event simulation of the two-stage update network.

Per-user capacity-2 stage queues (drop-on-full FCFS or replace-the-waiter
LCFS) feed a shared infinite-buffer FCFS compute queue.  The stage queues
have no feedback from the compute queue, so each user's stage is simulated
independently and the merged departure stream then drives the compute
queue; event ties are broken by (time, merge sequence) order.

Stage dynamics use a state-race construction that is exact in
distribution: while the stage is full, the individual arrivals that can
only be dropped (FCFS) or can only displace the waiter (LCFS) are drawn in
bulk -- a Poisson count for the bookkeeping and, for LCFS, the position of
the last arrival in the window, which is the only one that survives.  This
keeps the event count O(service rate x horizon) even when update rates are
four orders of magnitude above the service rate, as THz link budgets
produce.

Randomness: one independent substream per user for its arrival process,
one per service station, all derived from the master seed, so adding users
never perturbs existing streams.  The first WARMUP_FRACTION of the horizon
is discarded from all recorded statistics (counters cover the full run).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .aoi_analytic import Discipline

WARMUP_FRACTION = 0.01

# spawn-key tags for substream derivation
_ARRIVAL_TAG = 0
_STAGE_SVC_TAG = 1
_COMPUTE_SVC_TAG = 2
_FEED_TAG = 3


class ComputeFeed(enum.Enum):
    TANDEM = "tandem"
    INDEPENDENT_POISSON = "independent"


class Stage(enum.Enum):
    STAGE1 = "stage1"
    E2E = "e2e"


class EmptyDataError(ValueError):
    """Raised when an estimator is asked for a result with no samples."""


@dataclass(frozen=True)
class QueueConfig:
    discipline: Discipline
    stage_service_rate: float
    compute_service_rate: float
    compute_feed: ComputeFeed = ComputeFeed.TANDEM

    def __post_init__(self):
        if self.stage_service_rate <= 0 or self.compute_service_rate <= 0:
            raise ValueError("service rates must be strictly positive")


@dataclass
class StageSeries:
    """Post-warmup peak-age observations at one observation point."""

    times: np.ndarray       # delivery instants
    peaks: np.ndarray       # age immediately before each delivery
    post_ages: np.ndarray   # age immediately after each delivery

    def __len__(self):
        return len(self.times)


@dataclass
class UserCounters:
    arrivals: int = 0
    deliveries: int = 0
    drops: int = 0
    preemptions: int = 0
    in_system: int = 0


@dataclass
class PaoiSamples:
    config: QueueConfig
    rates: tuple[float, ...]
    horizon: float
    warmup: float
    seed: int
    stage1: dict[int, StageSeries] = field(default_factory=dict)
    e2e: dict[int, StageSeries] = field(default_factory=dict)
    compute_agg: StageSeries | None = None
    stage_counters: dict[int, UserCounters] = field(default_factory=dict)
    compute_arrivals: int = 0
    compute_delivered: int = 0
    compute_in_system: int = 0
    compute_arrival_rate: float = 0.0   # measured post-warmup

    def series(self, user: int, stage: Stage) -> StageSeries:
        table = self.stage1 if stage is Stage.STAGE1 else self.e2e
        if user not in table:
            raise KeyError(f"no user {user}")
        return table[user]


@dataclass
class ExcursionStats:
    ruin_level: float
    exceedances: np.ndarray

    @property
    def is_empty(self) -> bool:
        return len(self.exceedances) == 0


@dataclass(frozen=True)
class AvgEstimate:
    mean: float
    halfwidth: float
    n: int


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, index)))


# ---------------------------------------------------------------------------
# stage simulation

def _simulate_stage(rate: float, mu: float, horizon: float,
                    arr_rng: np.random.Generator, svc_rng: np.random.Generator,
                    discipline: Discipline):
    """One user's stage queue over [0, horizon].

    Returns (departure times, departure generation times, counters,
    sample triples).  Departures are in generation order for both
    disciplines, so every departure refreshes the stage observer.
    """
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    scale_arr = 1.0 / rate
    scale_svc = 1.0 / mu
    counters = UserCounters()
    dep_times: list[float] = []
    dep_gens: list[float] = []
    samples: list[tuple[float, float, float]] = []
    prev_gen = None

    t_arr = arr_rng.exponential(scale_arr)
    serving_gen = None
    waiting_gen = None
    completion = math.inf

    def deliver(t_dep, gen):
        nonlocal prev_gen
        counters.deliveries += 1
        dep_times.append(t_dep)
        dep_gens.append(gen)
        if prev_gen is not None:
            samples.append((t_dep, t_dep - prev_gen, t_dep - gen))
        prev_gen = gen

    while True:
        if serving_gen is None:
            if t_arr > horizon:
                break
            counters.arrivals += 1
            serving_gen = t_arr
            completion = t_arr + svc_rng.exponential(scale_svc)
            t_arr += arr_rng.exponential(scale_arr)
        elif waiting_gen is None:
            if min(t_arr, completion) > horizon:
                break
            if t_arr <= completion:
                counters.arrivals += 1
                waiting_gen = t_arr
                t_arr += arr_rng.exponential(scale_arr)
            else:
                deliver(completion, serving_gen)
                serving_gen = None
                completion = math.inf
        else:
            # full: arrivals before the next completion (or the horizon) only
            # drop (FCFS) or displace the waiter (LCFS); draw them in bulk
            past = completion > horizon
            if (t_arr <= horizon) if past else (t_arr < completion):
                window = (horizon if past else completion) - t_arr
                n_extra = int(arr_rng.poisson(rate * window))
                k = 1 + n_extra
                counters.arrivals += k
                if lcfs:
                    counters.preemptions += k
                else:
                    counters.drops += k
                if past:
                    break
                if lcfs:
                    waiting_gen = (t_arr + window * arr_rng.random() ** (1.0 / n_extra)
                                   if n_extra else t_arr)
                t_arr = completion + arr_rng.exponential(scale_arr)
            if past:
                break
            deliver(completion, serving_gen)
            serving_gen = waiting_gen
            waiting_gen = None
            completion = completion + svc_rng.exponential(scale_svc)

    counters.in_system = int(serving_gen is not None) + int(waiting_gen is not None)
    return dep_times, dep_gens, counters, samples


def _series_from_triples(triples, warmup: float) -> StageSeries:
    kept = [(t, p, s) for (t, p, s) in triples if t >= warmup]
    arr = np.asarray(kept, dtype=float).reshape(-1, 3)
    return StageSeries(arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())


# ---------------------------------------------------------------------------
# full network

def run(config: QueueConfig, per_user_rates: Sequence[float], horizon: float,
        seed: int) -> PaoiSamples:
    """Simulate the tandem network; deterministic for a fixed seed."""
    rates = tuple(float(r) for r in per_user_rates)
    if not rates:
        raise ValueError("need at least one user")
    if any(r <= 0 for r in rates):
        raise ValueError("update rates must be strictly positive")
    if horizon <= 0:
        raise ValueError("horizon must be strictly positive")

    warmup = WARMUP_FRACTION * horizon
    out = PaoiSamples(config=config, rates=rates, horizon=horizon,
                      warmup=warmup, seed=seed)
    mu_u = config.stage_service_rate
    dep_streams = []
    for u, rate in enumerate(rates):
        arr_rng = _rng(seed, _ARRIVAL_TAG, u)
        svc_rng = _rng(seed, _STAGE_SVC_TAG, u)
        dep_t, dep_g, counters, triples = _simulate_stage(
            rate, mu_u, horizon, arr_rng, svc_rng, config.discipline)
        out.stage_counters[u] = counters
        out.stage1[u] = _series_from_triples(triples, warmup)
        dep_streams.append((np.asarray(dep_t), np.asarray(dep_g)))

    if config.compute_feed is ComputeFeed.TANDEM:
        times = np.concatenate([d[0] for d in dep_streams]) if dep_streams else np.empty(0)
        gens = np.concatenate([d[1] for d in dep_streams])
        users = np.concatenate([np.full(len(d[0]), u) for u, d in enumerate(dep_streams)])
        order = np.argsort(times, kind="stable")
        times, gens, users = times[order], gens[order], users[order]
    else:
        feed_rng = _rng(seed, _FEED_TAG, 0)
        lam = mu_u * len(rates)
        gaps = feed_rng.exponential(1.0 / lam, size=max(16, int(lam * horizon * 1.2) + 64))
        times = np.cumsum(gaps)
        while times.size and times[-1] <= horizon:
            more = feed_rng.exponential(1.0 / lam, size=times.size)
            times = np.concatenate([times, times[-1] + np.cumsum(more)])
        times = times[times <= horizon]
        gens = times.copy()
        users = np.full(len(times), -1)

    _simulate_compute(out, times, gens, users, config, horizon, warmup, seed)
    window = horizon - warmup
    n_post = int(np.count_nonzero(times >= warmup))
    out.compute_arrival_rate = n_post / window if window > 0 else 0.0
    return out


def _simulate_compute(out: PaoiSamples, times, gens, users, config: QueueConfig,
                      horizon: float, warmup: float, seed: int):
    svc_rng = _rng(seed, _COMPUTE_SVC_TAG, 0)
    mu_c = config.compute_service_rate
    n = len(times)
    out.compute_arrivals = n

    agg: list[tuple[float, float, float]] = []
    per_user: dict[int, list[tuple[float, float, float]]] = {
        u: [] for u in range(len(out.rates))}
    freshest: dict[int, float] = {}

    last_completion = 0.0
    prev_arrival: float | None = None
    delivered = 0
    for i in range(n):
        a_i = times[i]
        start = a_i if a_i > last_completion else last_completion
        d_i = start + svc_rng.exponential(1.0 / mu_c)
        last_completion = d_i
        if d_i > horizon:
            continue
        delivered += 1
        if prev_arrival is not None:
            agg.append((d_i, d_i - prev_arrival, d_i - a_i))
        prev_arrival = a_i
        u = int(users[i])
        if u >= 0:
            g_i = gens[i]
            if u in freshest:
                per_user[u].append((d_i, d_i - freshest[u], d_i - g_i))
            freshest[u] = g_i

    out.compute_delivered = delivered
    out.compute_in_system = n - delivered
    out.compute_agg = _series_from_triples(agg, warmup)
    if config.compute_feed is ComputeFeed.TANDEM:
        for u in range(len(out.rates)):
            out.e2e[u] = _series_from_triples(per_user[u], warmup)


# ---------------------------------------------------------------------------
# estimators

class EmpiricalCdf:
    """Right-continuous step function through the sorted sample points."""

    def __init__(self, values: Sequence[float]):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise EmptyDataError("no samples")
        self.points = vals
        self.n = vals.size

    def __call__(self, x):
        idx = np.searchsorted(self.points, np.asarray(x, dtype=float), side="right")
        out = idx / self.n
        return out if np.ndim(x) else float(out)


def empirical_cdf(samples: PaoiSamples, user: int, stage: Stage) -> EmpiricalCdf:
    series = samples.series(user, stage)
    if len(series) == 0:
        raise EmptyDataError(f"user {user} has no {stage.value} samples")
    return EmpiricalCdf(series.peaks)


def ks_distance(empirical: EmpiricalCdf, analytic) -> float:
    """Two-sided sup distance between the step function and a CDF."""
    x = empirical.points
    g = np.asarray(analytic(x), dtype=float)
    i = np.arange(1, empirical.n + 1)
    d_plus = np.max(i / empirical.n - g)
    d_minus = np.max(g - (i - 1) / empirical.n)
    return float(max(d_plus, d_minus))


def excursion_severity(trace: StageSeries, ruin_level: float) -> ExcursionStats:
    """Maximal exceedance above ``ruin_level`` for each completed excursion.

    The age process rises with unit slope between deliveries, so an
    excursion above the level is a run of consecutive peaks whose
    post-delivery ages stay above it; the excursion closes at the first
    delivery that resets the age below the level.  An excursion still open
    at the end of the trace is censored and discarded.
    """
    if ruin_level <= 0:
        raise ValueError("ruin level must be strictly positive")
    exceedances: list[float] = []
    in_exc = False
    cur_max = -math.inf
    for i in range(1, len(trace)):
        peak = trace.peaks[i]
        if peak > ruin_level:
            cur_max = peak if not in_exc else max(cur_max, peak)
            in_exc = True
        if in_exc and trace.post_ages[i] < ruin_level:
            exceedances.append(cur_max - ruin_level)
            in_exc = False
    return ExcursionStats(ruin_level, np.asarray(exceedances, dtype=float))


def estimate_avg(values: Sequence[float], batches: int = 20) -> AvgEstimate:
    """Sample mean with a batch-means 95% confidence half-width."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        raise EmptyDataError("need at least two samples")
    b = max(2, min(batches, n // 2))
    usable = (n // b) * b
    means = arr[:usable].reshape(b, -1).mean(axis=1)
    spread = float(np.std(means, ddof=1))
    hw = float(sps.t.ppf(0.975, b - 1) * spread / math.sqrt(b))
    return AvgEstimate(float(arr.mean()), hw, n)


def e2e_average_estimate(samples: PaoiSamples) -> AvgEstimate:
    """Network-wide average peak age: per-user stage means plus the
    aggregate compute-queue mean, composed the same way as the analytic
    end-to-end expression; half-widths combine in quadrature."""
    total = 0.0
    var = 0.0
    n_min = math.inf
    for u in range(len(samples.rates)):
        est = estimate_avg(samples.series(u, Stage.STAGE1).peaks)
        total += est.mean
        var += est.halfwidth ** 2
        n_min = min(n_min, est.n)
    if samples.compute_agg is None or len(samples.compute_agg) < 2:
        raise EmptyDataError("no compute-queue samples")
    est_c = estimate_avg(samples.compute_agg.peaks)
    total += est_c.mean
    var += est_c.halfwidth ** 2
    n_min = min(n_min, est_c.n)
    return AvgEstimate(total, math.sqrt(var), int(n_min))


# ---------------------------------------------------------------------------
# exports

def write_samples_csv(path, tagged_samples: Sequence[tuple[int, PaoiSamples]]):
    """CSV export: (replication, user, stage, delivery_time, paoi_seconds).

    Aggregate compute-queue rows use user = -1 and stage = "compute".
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replication", "user", "stage", "delivery_time", "paoi_seconds"])
        for rep, samples in tagged_samples:
            for stage, table in ((Stage.STAGE1, samples.stage1), (Stage.E2E, samples.e2e)):
                for u in sorted(table):
                    s = table[u]
                    for t, p in zip(s.times, s.peaks):
                        w.writerow([rep, u, stage.value, repr(float(t)), repr(float(p))])
            if samples.compute_agg is not None:
                for t, p in zip(samples.compute_agg.times, samples.compute_agg.peaks):
                    w.writerow([rep, -1, "compute", repr(float(t)), repr(float(p))])


def write_excursions_csv(path, tagged_stats: Sequence[tuple[int, ExcursionStats]]):
    """CSV export: (replication, ruin_level, exceedance)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replication", "ruin_level", "exceedance"])
        for rep, stats_ in tagged_stats:
            for x in stats_.exceedances:
                w.writerow([rep, repr(float(stats_.ruin_level)), repr(float(x))])
