"""Scalar event-loop simulator kept as the reference for ``thzaoi.queue_sim``.

These are the loop implementations that ``queue_sim`` replaced with array
code.  The stage loop draws its arrivals and its service times from two
substreams per user, event by event, where ``queue_sim`` draws i.i.d.
service cycles from one, so the stage sample paths agree in distribution
only.  The compute-queue loop, the freshness triples and the excursion
loop are deterministic given the departure streams, and must be reproduced
exactly, array for array and counter for counter, when both simulators are
fed the same streams (see ``test_sim_equivalence.py``).

``_simulate_stage_blocks`` and ``_freshness_series_masked`` are frozen copies
of the array stage simulator and freshness series as they were before they
were rewritten to work in place; the rewrite must reproduce them bit for bit
(see ``test_properties.py`` and ``test_sim_equivalence.py``).
``_simulate_stage_one_user`` is the in-place stage simulator as it was before
it stacked a cell's users into (users x cycles) arrays; the stack must
reproduce it user for user, bit for bit (see ``test_properties.py``).

``ks_distance``, ``aggregate_sweep`` and ``estimate_avg`` are frozen copies of
the one-pass KS distance, the per-metric sweep aggregation and the one-sample
batch means as they were before they became array passes over many segments,
metrics or samples at once; the passes must reproduce them bit for bit (see
``test_properties.py``).
"""

from __future__ import annotations

import math

import numpy as np

from thzaoi.aoi_analytic import Discipline
from thzaoi import queue_sim as qs
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


def _simulate_stage_blocks(rate: float, mu: float, horizon: float,
                           rng: np.random.Generator, discipline: Discipline):
    """``queue_sim._simulate_stage`` before its in-place rewrite: the same draws
    in the same order, from blocks of ``queue_sim._block_size`` cycles."""
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    block = qs._block_size(rate, mu, horizon)
    start, cycles = np.array([rng.exponential(1.0 / rate)]), []
    while not cycles or start[-1] <= horizon:
        s = rng.exponential(1.0 / mu, block)
        e = rng.exponential(1.0 / rate, block)
        n = rng.poisson(rate * np.maximum(s - e, 0.0))
        cycles.append((s, e, n, rng.random(block)) if lcfs else (s, e, n))
        steps = np.cumsum(np.concatenate((start[-1:], np.maximum(s, e))))
        start = steps if len(cycles) == 1 else np.concatenate((start, steps[1:]))
    k = int(np.searchsorted(start, horizon, side="right"))
    start = start[:k]
    s, e, n, *u = (c[0][:k] if len(c) == 1 else np.concatenate(c)[:k] for c in zip(*cycles))
    done = start + s
    queued = np.flatnonzero(e < s)
    arrived = start[queued] + e[queued]
    carried = queued[queued < k - 1]
    gens = start
    gens[carried + 1] = arrived[:carried.size]
    if lcfs:
        w = carried[n[carried] > 0]
        gens[w + 1] += (s[w] - e[w]) * u[0][w] ** (1.0 / n[w])

    d = k - int(k > 0 and done[-1] > horizon)
    waiting = int(d < k and carried.size < queued.size and arrived[-1] <= horizon)
    lost = int(n[:d].sum()) + (int(rng.poisson(rate * (horizon - arrived[-1]))) if waiting else 0)
    arrivals = k - carried.size + int(np.count_nonzero(arrived <= horizon))
    counters = UserCounters(
        arrivals=arrivals + lost, deliveries=d,
        drops=0 if lcfs else lost, preemptions=lost if lcfs else 0, in_system=k - d + waiting)
    return done[:d], gens[:d], counters


def _simulate_stage_one_user(rate: float, mu: float, horizon: float,
                             rng: np.random.Generator, discipline: Discipline):
    """``queue_sim._simulate_stages`` for one user, as it was before it stacked a
    cell's users: the same draws in the same order, and in-place block arrays.

    Returns (departure times, departure generation times, counters).
    """
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    # at least one block is drawn, and more while it falls short of the horizon
    block = qs._block_size(rate, mu, horizon)
    start, cycles = np.array([rng.exponential(1.0 / rate)]), []
    while not cycles or start[-1] <= horizon:
        s = rng.exponential(1.0 / mu, block)
        e = rng.exponential(1.0 / rate, block)
        lam = s - e             # the Poisson means, rate * max(s - e, 0), in place
        n = rng.poisson(np.multiply(np.maximum(lam, 0.0, out=lam), rate, out=lam))
        del lam                 # the peak was there: s, e, lam and n
        # LCFS keeps the latest of the n arrivals behind the waiter, at a U^(1/n) quantile
        cycles.append((s, e, n, rng.random(block)) if lcfs else (s, e, n))
        # a sequential sum, so a departure start + s is the next start bit for bit
        steps = np.empty(block + 1)
        steps[0] = start[-1]
        np.maximum(s, e, out=steps[1:])
        np.cumsum(steps, out=steps)
        start = steps if len(cycles) == 1 else np.concatenate((start, steps[1:]))
    k = int(np.searchsorted(start, horizon, side="right"))   # services begun by the horizon
    start = start[:k]
    # one block, the usual case, is sliced rather than copied
    s, e, n, *u = (c[0][:k] if len(c) == 1 else np.concatenate(c)[:k] for c in zip(*cycles))
    del cycles
    d = k - int(k > 0 and start[-1] + s[-1] > horizon)   # only the last service can straddle it
    lost = int(n[:d].sum())
    queued = e < s              # the next arrival comes during this service and waits
    if lcfs:                    # the survivor came (s - e) U^(1/n) after the waiter
        w = np.flatnonzero(n[:-1])   # n > 0 only behind a waiter, and the last one is not carried
        shift = (s[w] - e[w]) * u[0][w] ** (1.0 / n[w])
    del n, u
    # IEEE + commutes, so these are start + e and start + s element for element
    arrived = np.add(e, start, out=e)[queued]
    del e
    done = np.add(s, start, out=s)
    carried = queued[:-1]       # the last service begun has no next one to carry to
    n_carried = int(np.count_nonzero(carried))
    gens = start                # a service begun empty carries its own arrival
    gens[1:][carried] = arrived[:n_carried]
    if lcfs:
        gens[w + 1] += shift

    waiting = int(d < k and n_carried < arrived.size and arrived[-1] <= horizon)
    # behind the straddling service's waiter, arrivals count up to the horizon only
    lost += int(rng.poisson(rate * (horizon - arrived[-1]))) if waiting else 0
    # services begun empty, plus the waiters that came by the horizon
    arrivals = k - n_carried + int(np.count_nonzero(arrived <= horizon))
    counters = UserCounters(
        arrivals=arrivals + lost, deliveries=d,
        drops=0 if lcfs else lost, preemptions=lost if lcfs else 0, in_system=k - d + waiting)
    return done[:d], gens[:d], counters


def _freshness_series_masked(times: np.ndarray, arrived: np.ndarray,
                             warmup: float) -> StageSeries:
    """``queue_sim._freshness_series`` before its rewrite: the warmup filter as
    a boolean mask, which needs no order in ``times``."""
    t = times[1:]
    kept = t >= warmup
    return StageSeries(t[kept], (t - arrived[:-1])[kept], (t - arrived[1:])[kept])


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
    at the end of the trace is censored and discarded; one already open at
    its start (``post_ages[0]`` above the level) is kept but counted from
    delivery 1, so its maximum can be understated.
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


def estimate_avg(values) -> qs.AvgEstimate:
    """``queue_sim``'s batch means before their spread became one reduction
    over many samples: one sample at a time."""
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 2:
        raise qs.EmptyDataError("need at least two samples")
    b = max(2, min(qs.BATCHES, n // 2))
    usable = (n // b) * b
    means = arr[:usable].reshape(b, -1).mean(axis=1)
    spread = float(np.std(means, ddof=1))
    hw = qs.student_t_975(b - 1) * spread / math.sqrt(b)
    return qs.AvgEstimate(float(arr.mean()), hw)


def ks_distance(empirical: qs.EmpiricalCdf, analytic) -> float:
    """``queue_sim.ks_distance`` before the chunked pass: the CDF at every point at once."""
    x = empirical.points
    g = np.asarray(analytic(x), dtype=float)
    i = np.arange(1, empirical.n + 1)
    d_plus = np.max(i / empirical.n - g)
    d_minus = np.max(g - (i - 1) / empirical.n)
    return float(max(d_plus, d_minus))


def aggregate_sweep(rows) -> list[dict]:
    """``scenario.aggregate_sweep`` before its array pass: one metric at a time."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("error"):
            continue
        key = (row["sweep_var"], row["value"], row["discipline"],
               row["avg_analytic_mode"], row["severity_mode"])
        groups.setdefault(key, []).append(row)
    out = []
    metrics = ["avg_analytic", "avg_sim", "avg_analytic_per_user",
               "avg_sim_per_user", "j_z", "ks_stage", "sim_severity_below_z"]
    for key in sorted(groups):
        members = groups[key]
        agg = {"sweep_var": key[0], "value": key[1], "discipline": key[2],
               "avg_analytic_mode": key[3], "severity_mode": key[4],
               "replications": len(members)}
        for m in metrics:
            vals = np.asarray([r[m] for r in members], dtype=float)
            agg[f"{m}_mean"] = math.nan if np.isnan(vals).all() else float(np.nanmean(vals))
            if vals.size > 1 and np.all(np.isfinite(vals)):
                hw = float(qs.student_t_975(vals.size - 1)
                           * np.std(vals, ddof=1) / math.sqrt(vals.size))
            else:
                hw = 0.0
            agg[f"{m}_hw"] = hw
        out.append(agg)
    return out
