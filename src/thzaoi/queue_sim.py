"""Discrete-event simulation of the two-stage update network.

Per-user capacity-2 stage queues (drop-on-full FCFS or replace-the-waiter
LCFS) feed a shared infinite-buffer FCFS compute queue.  The stage queues
have no feedback from the compute queue, so each user's stage is simulated
independently and the merged departure stream then drives the compute
queue; event ties are broken by (time, merge sequence) order.

Each stage is simulated as a sequence of i.i.d. service cycles, which is
exact in distribution: with capacity 2, every service starts with the
waiting slot empty, so a cycle needs only the service time S ~ Exp(mu),
the time E ~ Exp(r) to the next arrival and, when E < S, the count
N ~ Poisson(r (S - E)) of later arrivals in the service, which can only be
dropped (FCFS) or displace the waiter (LCFS; the last of them survives, at
a U^(1/N) quantile of the window).  The next service starts S after this
one if E < S and E after it otherwise, so the start times are one
cumulative sum over the cycles, and the cost is a few array operations
per service whatever the update rate -- four orders of magnitude above
the service rate for THz link budgets.

The compute queue is the Lindley recursion d[i] = max(a[i], d[i-1]) + s[i].
Within a busy period that is a running sum from the first job's arrival,
so it is evaluated period by period with every addition the per-job loop
makes, in the loop's order, and the completion times equal the loop's bit
for bit.  Where the periods begin is guessed from the max-plus closed form,
which rounds differently, and checked against the exact completions.

Randomness: one independent substream per user for its stage cycles, drawn
in blocks, and one for the compute queue's service times, all derived from
the master seed, so adding users never perturbs existing streams.  The
stage paths match the event loops in ``tests/sim_reference.py`` in
distribution, not draw for draw; the compute queue, the freshness series
and the excursions match them bit for bit when both are fed the same
departure streams.  The first WARMUP_FRACTION of the horizon is discarded
from all recorded statistics (counters cover the full run).
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aoi_analytic import Discipline

WARMUP_FRACTION = 0.01

# spawn-key tags for substream derivation
_ARRIVAL_TAG = 0
_COMPUTE_SVC_TAG = 2


class ComputeFeed(enum.Enum):
    TANDEM = "tandem"


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
    # read by nothing; kept because perfbench/worker.py passes it positionally
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
                    rng: np.random.Generator, discipline: Discipline):
    """One user's stage queue over [0, horizon], one service cycle at a time.

    Returns (departure times, departure generation times, counters).
    Departures are in generation order for both disciplines, so every
    departure refreshes the stage observer.
    """
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    # the throughput is below min(rate, mu), so one block of cycles usually
    # spans the horizon; at least one is drawn, and more while it falls short
    block = int(1.1 * min(rate, mu) * horizon) + 64
    starts, cycles = [np.array([rng.exponential(1.0 / rate)])], []
    while not cycles or starts[-1][-1] <= horizon:
        s = rng.exponential(1.0 / mu, block)
        e = rng.exponential(1.0 / rate, block)
        n = rng.poisson(rate * np.maximum(s - e, 0.0))
        # LCFS keeps the latest of the n arrivals behind the waiter: (s - e) U^(1/n) past it
        u = rng.random(block) ** (1.0 / np.maximum(n, 1)) if lcfs else np.zeros(block)
        cycles.append((s, e, n, np.where(n > 0, u, 0.0)))
        # a sequential sum, so a departure start + s is the next start bit for bit
        starts.append(np.cumsum(np.concatenate((starts[-1][-1:], np.where(e < s, s, e))))[1:])
    start = np.concatenate(starts)
    k = int(np.searchsorted(start, horizon, side="right"))   # services begun by the horizon
    start = start[:k]
    s, e, n, u = (np.concatenate(c)[:k] for c in zip(*cycles))
    done = start + s
    queued = e < s              # the next arrival comes during this service and waits
    arrived = start + e
    gens = start.copy()         # a service begun empty carries its own arrival
    carried = np.flatnonzero(queued[:-1])
    gens[carried + 1] = (arrived + (s - e) * u)[carried]

    d = k - int(k > 0 and done[-1] > horizon)   # only the last service can straddle it
    waiting = int(d < k and queued[-1] and arrived[-1] <= horizon)
    # behind the straddling service's waiter, arrivals count up to the horizon only
    lost = int(n[:d].sum()) + (int(rng.poisson(rate * (horizon - arrived[-1]))) if waiting else 0)
    # services begun empty, plus the waiters that came by the horizon
    arrivals = k - carried.size + int(np.count_nonzero(queued & (arrived <= horizon)))
    counters = UserCounters(
        arrivals=arrivals + lost, deliveries=d,
        drops=0 if lcfs else lost, preemptions=lost if lcfs else 0, in_system=k - d + waiting)
    return done[:d], gens[:d], counters


def _freshness_series(times: np.ndarray, arrived: np.ndarray, warmup: float) -> StageSeries:
    """Ages at deliveries ``times`` that each refresh the observer to ``arrived``;
    the first delivery only sets the age, and those before ``warmup`` are dropped."""
    t = times[1:]
    kept = t >= warmup
    return StageSeries(t[kept], (t - arrived[:-1])[kept], (t - arrived[1:])[kept])


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
        dep_t, dep_g, out.stage_counters[u] = _simulate_stage(
            rate, mu_u, horizon, _rng(seed, _ARRIVAL_TAG, u), config.discipline)
        out.stage1[u] = _freshness_series(dep_t, dep_g, warmup)
        dep_streams.append((dep_t, dep_g))

    times = np.concatenate([d[0] for d in dep_streams])
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
    """FCFS compute queue fed at ``times`` by ``users``' stage deliveries."""
    n = len(times)
    service = _rng(seed, _COMPUTE_SVC_TAG, 0).exponential(1.0 / config.compute_service_rate, n)
    d = _departures(times, service)
    # completions never decrease, so the jobs delivered within the horizon are a
    # prefix, and a completion exactly at the horizon is delivered
    k = int(np.searchsorted(d, horizon, side="right"))
    d = d[:k]

    out.compute_arrivals = n
    out.compute_delivered = k
    out.compute_in_system = n - k
    out.compute_agg = _freshness_series(d, times[:k], warmup)
    # each user's deliveries in time order: a stable sort on the user index
    order = np.argsort(users[:k], kind="stable")
    counts = np.bincount(users[:k], minlength=len(out.rates))
    for u, idx in enumerate(np.split(order, np.cumsum(counts)[:-1])):
        out.e2e[u] = _freshness_series(d[idx], gens[idx], warmup)


# busy periods of at most this many jobs advance together, one position per
# step, and each longer one is a cumsum of its own; the sums run over windows
# of _WINDOW jobs, which keeps the temporaries small and bounds what a
# misjudged period start costs (the timings are in CHANGES.md)
_STEPWISE_MAX = 32
_WINDOW = 1 << 14


def _departures(times: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Completion times ``d[i] = max(times[i], d[i-1]) + service[i]`` from
    ``d[-1] = 0``, bit for bit those of the per-job loop."""
    d = np.empty(times.size)
    lo, prev = 0, 0.0
    while lo < times.size:
        hi = (lo // _WINDOW + 1) * _WINDOW
        a, s = times[lo:hi].copy(), service[lo:hi]
        a[0] = max(float(a[0]), prev)   # the loop's own step into the window
        # the max-plus form C + max.accumulate(a - C + s), C = cumsum(s), is
        # exact in real arithmetic only; it guesses which jobs find the server idle
        c = np.cumsum(s)
        guess = c - s
        np.subtract(a, guess, out=guess)
        np.maximum.accumulate(guess, out=guess)
        guess += c
        opens = np.concatenate(([True], a[1:] > guess[:-1]))
        heads = np.flatnonzero(opens)
        w = d[lo:hi]
        w[:] = s
        _busy_sums(w, heads, a[heads])
        # a period's first job must find the server idle and every other job
        # find it busy; a tie adds the same number either way.  The sums are
        # exact before the first misjudged job, so the next window starts there.
        wrong = np.flatnonzero(np.where(opens[1:], a[1:] < w[:-1], a[1:] > w[:-1]))
        lo += 1 + int(wrong[0]) if wrong.size else a.size
        prev = float(d[lo - 1])
    return d


def _busy_sums(d: np.ndarray, heads: np.ndarray, base: np.ndarray):
    """Turn the service times in ``d`` into completion times, for busy periods
    that begin at ``heads`` (the first at 0) with the server free at ``base``:
    ``d[j] += base`` at a head, then ``d[i] += d[i-1]``."""
    lengths = np.diff(heads, append=d.size)
    d[heads] += base
    short = lengths <= _STEPWISE_MAX
    h, m = heads[short], lengths[short]
    for k in range(1, _STEPWISE_MAX):
        keep = m > k
        h, m = h[keep], m[keep]
        if not h.size:
            break
        d[h + k] += d[h + k - 1]
    for j, e in zip(heads[~short].tolist(), (heads + lengths)[~short].tolist()):
        np.cumsum(d[j:e], out=d[j:e])


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
    # segments end at each later delivery whose post-age is below the level; a
    # segment whose highest peak is above it is one completed excursion, and
    # the tail after the last close is censored
    closes = np.flatnonzero(trace.post_ages[1:] < ruin_level) + 1
    if closes.size == 0:
        return ExcursionStats(ruin_level, np.empty(0))
    starts = np.concatenate(([1], closes[:-1] + 1))
    highest = np.maximum.reduceat(trace.peaks[:closes[-1] + 1], starts)
    return ExcursionStats(ruin_level, highest[highest > ruin_level] - ruin_level)


# scipy.stats.t.ppf(0.975, dof) for dof = 1..30: batch means use at most 19,
# replication intervals replications - 1, so a sweep never imports mpmath
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378)


@functools.lru_cache(maxsize=None)
def student_t_975(dof: int) -> float:
    """Student-t 0.975 quantile (a 95% two-sided interval) for ``dof`` degrees of freedom."""
    if 1 <= dof <= len(_T975):
        return _T975[dof - 1]
    import mpmath as mp

    # the t at which P(|T| > t) = I_{dof / (dof + t^2)}(dof / 2, 1 / 2) is 0.05
    with mp.workdps(40):
        nu = mp.mpf(dof)
        return float(mp.findroot(lambda t: mp.betainc(
            nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) - mp.mpf(1) / 20, 2))


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
    hw = student_t_975(b - 1) * spread / math.sqrt(b)
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
