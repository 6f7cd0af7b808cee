"""Scalar event-loop simulator kept as the reference for ``thzaoi.queue_sim``.

These are the loop implementations that ``queue_sim`` replaced with array
code.  The stage loop draws its arrivals and its service times from two
substreams per user, event by event, where ``queue_sim`` draws i.i.d.
service cycles from one, so the stage sample paths agree in distribution
only.  The compute-queue loop, the freshness triples and the excursion
loop are deterministic given the departure streams, and must be reproduced
exactly, array for array and counter for counter, when both simulators are
fed the same streams (see ``test_sim_equivalence.py``).
"""

from __future__ import annotations

import math

import numpy as np

from thzaoi.aoi_analytic import Discipline
from thzaoi.queue_sim import (
    _ARRIVAL_TAG, _COMPUTE_SVC_TAG, WARMUP_FRACTION,
    ExcursionStats, PaoiSamples, QueueConfig, StageSeries, UserCounters, _rng,
)

# the stage loop draws service times from their own substream per user
_STAGE_SVC_TAG = 1


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


def run(config: QueueConfig, per_user_rates, horizon: float, seed: int) -> PaoiSamples:
    """``queue_sim.run`` driven by the scalar stage and compute loops."""
    rates = tuple(float(r) for r in per_user_rates)
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

    times = np.concatenate([d[0] for d in dep_streams]) if dep_streams else np.empty(0)
    gens = np.concatenate([d[1] for d in dep_streams])
    users = np.concatenate([np.full(len(d[0]), u) for u, d in enumerate(dep_streams)])
    order = np.argsort(times, kind="stable")
    times, gens, users = times[order], gens[order], users[order]

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
        g_i = gens[i]
        if u in freshest:
            per_user[u].append((d_i, d_i - freshest[u], d_i - g_i))
        freshest[u] = g_i

    out.compute_delivered = delivered
    out.compute_in_system = n - delivered
    out.compute_agg = _series_from_triples(agg, warmup)
    for u in range(len(out.rates)):
        out.e2e[u] = _series_from_triples(per_user[u], warmup)


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
