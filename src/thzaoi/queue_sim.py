"""Discrete-event simulation of the two-stage update network.

Per-user capacity-2 stage queues (drop-on-full FCFS or replace-the-waiter
LCFS) feed a shared infinite-buffer FCFS compute queue.  The stage queues
have no feedback from the compute queue, so each user's stage is simulated
independently and the merged departure stream then drives the compute
queue; event ties are broken by (time, merge sequence) order.  For checks
that read one stage only, ``stage_series`` simulates that stage alone.

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
the service rate for THz link budgets.  The cycles come in blocks, one of
which usually spans the horizon.  Two identities do the bookkeeping: service
t + 1 delivers the first arrival after service t began (LCFS: the survivor
behind it), generated at start + E of cycle t; and the arrivals are the
services begun, a waiter at the horizon and the N, each service taking one.

All users of a ``run`` are simulated together as one stack: (users x cycles)
arrays, a row per user, each user's draws going straight into its row and
the row zero past them.  Only the draws are made user by user; the sums,
counters and generation times are passes over the whole stack, and
the freshness series, the merge of the departures, the batch-means spread
and the excursions (one array, pooled through one boundary mask) are passes
over a cell's users together.  ``stage_series`` is the stack of one row.  The
working set peaks at four (users x block) arrays (S, E, the start times, and
the Poisson means that N is drawn over in slices), and later steps reuse
those buffers in place.  LCFS adds its U draws and survivors' shifts.  An
FCFS ``stage_series`` fills no counters, so it skips N on its last block.

The compute queue is the Lindley recursion d[i] = max(a[i], d[i-1]) + s[i].
Within a busy period that is a running sum from the first job's arrival,
so it is evaluated period by period with every addition the per-job loop
makes, in the loop's order, and the completion times equal the loop's bit
for bit.  Where the periods begin is guessed from the max-plus closed form,
which rounds differently, and checked against the exact completions.

Randomness: one independent substream per user for its stage cycles, drawn
in blocks, and one for the compute queue's service times, all derived from
the master seed, so adding users never perturbs existing streams; stacking
the users changes no draw and no draw's order within its substream.  The
stage paths match the event loops in ``tests/sim_reference.py`` in
distribution, not draw for draw; the compute queue, the freshness series
and the excursions match them bit for bit when both are fed the same
departure streams.  The first WARMUP_FRACTION of the horizon is discarded
from all recorded statistics (counters cover the full run).

The KS estimator takes its sorted points ``_KS_CHUNK`` at a time: it
evaluates the CDF on one chunk, takes each segment's D+ and D- there with
``np.maximum.reduceat`` and keeps their running maxima, so it holds a few
chunk-length arrays whatever the sample size.  ``ks_distance`` is the pass
over one segment; a sweep cell passes its users' peaks as consecutive ones.
Of the one-sample names, ``PaoiSamples.series``, ``empirical_cdf`` and
``excursion_severity`` remain only for ``perfbench/worker.py``, and
``EmpiricalCdf`` and ``ks_distance`` for it and ``validate``'s KS check.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .aoi_analytic import Discipline

WARMUP_FRACTION = 0.01
# batch count of the batch-means confidence intervals
BATCHES = 20
# a user's Poisson counts are drawn this many at a time
_DRAW_SLICE = 1 << 16

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
        if not (self.stage_service_rate > 0 and self.compute_service_rate > 0):
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


@dataclass(frozen=True)
class AvgEstimate:
    mean: float
    halfwidth: float


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, index)))


# ---------------------------------------------------------------------------
# stage simulation

def _block_size(rate: float, mu: float, horizon: float) -> int:
    # the throughput is below min(rate, mu), so one block of cycles usually spans the horizon
    return int(1.1 * min(rate, mu) * horizon) + 64


def _starts(first: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Service start times per row: ``first``, then max(S, E) on per cycle, one
    sequential sum per row, so a block's sum continued from the last start of the
    one before is the sum over both bit for bit.  A zero past a row's cycles
    repeats the start after its last one."""
    start = np.empty(s.shape)
    start[:, 0] = first
    np.maximum(s[:, :-1], e[:, :-1], out=start[:, 1:])
    return np.cumsum(start, axis=1, out=start)


def _simulate_stages(rates: Sequence[float], mu: float, horizon: float,
                     rngs: Sequence[np.random.Generator], discipline: Discipline,
                     counted: bool = True):
    """Every user's stage queue over [0, horizon], one service cycle at a time,
    user ``i`` drawing from ``rngs[i]``, as (users x cycles) arrays.

    Returns (departure times, departure generation times, counters): user
    ``i``'s departures are the first ``counters[i].deliveries`` entries of row
    ``i``.  Departures are in generation order for both disciplines, so every
    departure refreshes the stage observer.  Not ``counted``, delivery counts replace the
    counters, and an FCFS user's last block draws no N, which only counters read there.
    Departure t + 1 carries cycle t's start + E, as ``_starts`` sums start + max(S, E)
    where nothing waits, ties included, and the arrivals are k + waiting + lost.
    """
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    rates = np.array(rates, dtype=float)
    blocks = np.array([_block_size(r, mu, horizon) for r in rates.tolist()])
    first = np.array([rng.exponential(1.0 / r) for rng, r in zip(rngs, rates.tolist())])
    # every user draws one block, and more while its cycles fall short of the horizon;
    # a row is zero past its user's block, so a step there is max(0, 0) = 0
    rounds, rows, last = [], np.arange(rates.size), first.copy()
    while rows.size:
        size = blocks[rows]
        s, e = np.zeros((rows.size, size.max())), np.zeros((rows.size, size.max()))
        # indexed, not iterated: a row view left bound after a loop keeps its array alive
        users = list(enumerate(zip(rows.tolist(), size.tolist())))
        for row, (i, b) in users:
            rngs[i].standard_exponential(out=s[row, :b])   # times the scale below, these
            rngs[i].standard_exponential(out=e[row, :b])   # are exponential(scale, b) bit for bit
        s *= 1.0 / mu
        e *= 1.0 / rates[rows, None]
        start = _starts(last[rows], s, e)
        r, end = np.arange(rows.size), size - 1
        last[rows] = start[r, end] + np.maximum(s[r, end], e[r, end])   # the start after the block
        more = last[rows] <= horizon
        # uncounted, FCFS reads N only to keep the next block's place in the stream
        drawn = [x for x in users if counted or lcfs or more[x[0]]]
        if drawn:
            n = np.subtract(s, e)   # the Poisson means, rate * max(s - e, 0), and then N, in place
            np.maximum(n, 0.0, out=n)
            n *= rates[rows, None]
        # LCFS keeps the latest of the n arrivals behind the waiter, at a U^(1/n) quantile
        u = np.zeros(s.shape) if lcfs else None
        for row, (i, b) in drawn:
            # slices draw what one call would, and keep numpy's int64 draws small
            for lo in range(0, b, _DRAW_SLICE):
                hi = min(lo + _DRAW_SLICE, b)
                n[row, lo:hi] = rngs[i].poisson(n[row, lo:hi])
            if lcfs:
                rngs[i].random(out=u[row, :b])
        cycles = [s, e, n, u] if lcfs else [s, e, n] if counted else [s, e]
        rounds.append((rows, size, cycles))
        rows = rows[more]
    if len(rounds) > 1:   # a user's blocks go end to end along its row, block t at t sizes in
        width = max(((t + 1) * size).max() for t, (_, size, _) in enumerate(rounds))
        cycles = [np.zeros((rates.size, width)) for _ in cycles]
        for t, (rows, size, parts) in enumerate(rounds):
            row, col = np.nonzero(np.arange(size.max()) < size[:, None])
            for dst, src in zip(cycles, parts):
                dst[rows[row], t * size[row] + col] = src[row, col]
        start = _starts(first, cycles[0], cycles[1])
    del rounds
    s, e, n, u = (*cycles, None, None)[:4]
    del cycles

    begun = start <= horizon   # the start times never decrease along a row
    k = np.count_nonzero(begun, axis=1)
    if n is not None:   # N > 0 only where E < S: behind a waiter, of a service begun here
        np.multiply(n, begun, out=n)
    del begun
    r, j = np.arange(rates.size), np.maximum(k - 1, 0)   # j: the last service begun
    if lcfs:   # the survivor came (s - e) U^(1/n) after the waiter
        behind = n > 0
        behind[r, j] = False   # the last service begun has no next one to carry it to
        w = np.flatnonzero(behind)
        del behind
        shift = (s.ravel()[w] - e.ravel()[w]) * u.ravel()[w] ** (1.0 / n.ravel()[w])
        del u
    # only the last service begun can straddle the horizon: one begun before it
    # ends by the next start, and so does its waiter's arrival
    straddles = (k > 0) & (s[r, j] + start[r, j] > horizon)
    waiting = (e[r, j] < s[r, j]) & (e[r, j] + start[r, j] <= horizon)   # the straddler's
    d = k - straddles
    if counted:   # the arrivals lost behind each delivered service, exactly: whole numbers
        lost = (n.sum(axis=1) - np.where(straddles, n[r, j], 0.0)).astype(np.int64)
    del n
    # IEEE + commutes, so these are start + s and start + e element for element
    done = np.add(s, start, out=s)
    arrived = np.add(e, start, out=e)
    gens = start   # the waiter, or else the arrival the next service begins at
    gens[:, 1:] = arrived[:, :-1]
    if lcfs:
        gens.ravel()[w + 1] += shift
    if not counted:
        return done, gens, d

    for i in np.flatnonzero(waiting).tolist():   # arrivals behind it count up to the horizon
        lost[i] += rngs[i].poisson(rates[i] * (horizon - arrived[i, j[i]]))
    # every service begun took one accepted arrival; the waiter is the only other
    counters = [UserCounters(arrivals=kk + wt + x, deliveries=dd, drops=0 if lcfs else x,
                             preemptions=x if lcfs else 0, in_system=kk - dd + wt)
                for x, dd, kk, wt in zip(lost.tolist(), d.tolist(), k.tolist(),
                                         waiting.tolist())]
    return done, gens, counters


def _freshness_series(times: np.ndarray, arrived: np.ndarray, lo: Sequence[int],
                      hi: Sequence[int], warmup: float) -> list[StageSeries]:
    """Ages at the deliveries ``times[lo[j]:hi[j]]`` of each segment ``j``, each
    refreshing the observer to its ``arrived``; a segment's first delivery only
    sets the age, and those before ``warmup`` are dropped.  Every segment's times
    never decrease, so the deliveries kept are a suffix of it."""
    peaks = np.empty_like(times)   # peaks[0] is never read: no segment keeps its first
    np.subtract(times[1:], arrived[:-1], out=peaks[1:])
    post = times - arrived
    out = []
    for a, b in zip(lo, hi):
        i = a + max(int(np.searchsorted(times[a:b], warmup)), 1)
        out.append(StageSeries(times[i:b], peaks[i:b], post[i:b]))
    return out


# ---------------------------------------------------------------------------
# full network

def run(config: QueueConfig, per_user_rates: Sequence[float], horizon: float,
        seed: int) -> PaoiSamples:
    """Simulate the tandem network; deterministic for a fixed seed."""
    rates = tuple(float(r) for r in per_user_rates)
    if not rates:
        raise ValueError("need at least one user")
    if not all(r > 0 for r in rates):
        raise ValueError("update rates must be strictly positive")
    if not horizon > 0:
        raise ValueError("horizon must be strictly positive")

    warmup = WARMUP_FRACTION * horizon
    out = PaoiSamples(config=config, rates=rates, horizon=horizon,
                      warmup=warmup, seed=seed)
    n_users = len(rates)
    done, gens, counters = _simulate_stages(
        rates, config.stage_service_rate, horizon,
        [_rng(seed, _ARRIVAL_TAG, u) for u in range(n_users)], config.discipline)
    out.stage_counters = dict(enumerate(counters))
    # every delivery, users in order: a user's own deliveries are one segment
    d = np.array([c.deliveries for c in counters])
    delivered = np.arange(done.shape[1]) < d[:, None]
    times, gens = done[delivered], gens[delivered]
    del done, delivered
    hi = np.cumsum(d)
    out.stage1 = dict(enumerate(_freshness_series(times, gens, (hi - d).tolist(),
                                                  hi.tolist(), warmup)))
    # and then in time order; the narrowest index type, so the compute queue's
    # stable sort on it is a radix sort
    users = np.repeat(np.arange(n_users, dtype=np.min_scalar_type(n_users - 1)), d)
    order = np.argsort(times, kind="stable")
    times, gens, users = times[order], gens[order], users[order]

    _simulate_compute(out, times, gens, users, config, horizon, warmup, seed)
    window = horizon - warmup
    n_post = int(np.count_nonzero(times >= warmup))
    out.compute_arrival_rate = n_post / window if window > 0 else 0.0
    return out


def stage_series(discipline: Discipline, rate: float, mu: float, horizon: float,
                 seed: int) -> StageSeries:
    """One user's stage queue alone: ``run``'s ``stage1[0]`` for that user, bit for
    bit, drawing no counters' N where nothing else reads it."""
    if not (rate > 0 and mu > 0 and horizon > 0):
        raise ValueError("rates and horizon must be strictly positive")
    done, gens, (d,) = _simulate_stages(
        (rate,), mu, horizon, (_rng(seed, _ARRIVAL_TAG, 0),), discipline, counted=False)
    return _freshness_series(done[0, :d], gens[0, :d], (0,), (d,), WARMUP_FRACTION * horizon)[0]


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
    out.compute_agg, = _freshness_series(d, times[:k], (0,), (k,), warmup)
    # each user's deliveries in time order: a stable sort on the user index
    order = np.argsort(users[:k], kind="stable")
    hi = np.cumsum(np.bincount(users[:k], minlength=len(out.rates)))
    lo = np.concatenate(([0], hi[:-1]))
    out.e2e = dict(enumerate(_freshness_series(d[order], gens[order], lo.tolist(),
                                               hi.tolist(), warmup)))


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
    """A sample's sorted points and their count, as ``ks_distance`` reads them."""

    def __init__(self, values: Sequence[float]):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise EmptyDataError("no samples")
        self.points = vals
        self.n = vals.size


def empirical_cdf(samples: PaoiSamples, user: int, stage: Stage) -> EmpiricalCdf:
    series = samples.series(user, stage)
    if len(series) == 0:
        raise EmptyDataError(f"user {user} has no {stage.value} samples")
    return EmpiricalCdf(series.peaks)


def ks_distance(empirical: EmpiricalCdf, analytic) -> float:
    """Two-sided sup distance between the step function and a CDF: ``ks_segments``
    on one segment, calling ``analytic`` once per chunk of points."""
    x = empirical.points
    return float(ks_segments(x, [empirical.n], lambda lo, hi: analytic(x[lo:hi]))[0])


# the KS pass takes the sorted points this many at a time, so its temporaries
# are a few chunk-length arrays whatever the sample size; the reference kernel's
# temporaries over 8,192 points raise the reference sweep's peak RSS by 0.45 MB
# (these by about 0.1 MB), and the per-chunk calls at 2,048 make validate's
# 100,000-point KS cases slower than one pass over all points
_KS_CHUNK = 1 << 12


def ks_segments(points: np.ndarray, lengths: Sequence[int], cdf) -> np.ndarray:
    """Two-sided KS distance of each segment of ``points``: the segments are
    consecutive, ``lengths`` long (each at least 1) and each sorted, and
    ``cdf(lo, hi)`` gives the CDF at ``points[lo:hi]``, at most ``_KS_CHUNK`` of them.

    A segment's distance is the larger of D+ = max(i/n - F) and D- = max(F - (i-1)/n)
    over its points, i = 1..n, each term as the one-segment formula rounds it.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
        raise EmptyDataError("every KS segment needs a sample")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1])
    out = np.full(lengths.size, -np.inf)
    for lo in range(0, total, _KS_CHUNK):
        hi = min(lo + _KS_CHUNK, total)
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        segs = slice(first, last + 1)                 # the segments this chunk reaches into
        cuts = np.maximum(starts[segs], lo) - lo      # where each begins in the chunk
        g = np.asarray(cdf(lo, hi), dtype=float)
        counts = np.diff(cuts, append=hi - lo)
        n = np.repeat(lengths[segs], counts)
        i = np.arange(lo + 1, hi + 1) - np.repeat(starts[segs], counts)   # rank in its segment
        d_plus = np.maximum.reduceat(i / n - g, cuts)
        i -= 1
        d_minus = np.maximum.reduceat(g - i / n, cuts)
        out[segs] = np.maximum(out[segs], np.maximum(d_plus, d_minus))
    return out


def excursion_severity(trace: StageSeries, ruin_level: float) -> ExcursionStats:
    """``exceedances`` of the one trace, with its level."""
    return ExcursionStats(ruin_level, exceedances([trace], ruin_level))


def exceedances(traces: Sequence[StageSeries], ruin_level: float) -> np.ndarray:
    """Maximal exceedance above ``ruin_level`` of each completed excursion of every
    trace, end to end in trace order; a single trace is read in place, not copied.

    The age process rises with unit slope between deliveries, so an
    excursion above the level is a run of consecutive peaks whose
    post-delivery ages stay above it; the excursion closes at the first
    delivery that resets the age below the level.  An excursion still open
    at the end of a trace is censored and discarded; one already open at
    its start (``post_ages[0]`` above the level) is kept but counted from
    delivery 1, so its maximum can be understated.
    """
    if not ruin_level > 0:
        raise ValueError("ruin level must be strictly positive")
    lengths = np.array([len(t) for t in traces], dtype=np.intp)
    firsts = (np.cumsum(lengths) - lengths)[lengths > 0]
    # runs go from just after each boundary, a trace's first delivery or a close (a
    # later delivery whose post-age is below the level), to the next one.  A run to a
    # close whose highest peak is above the level is one completed excursion; a run to
    # the next trace's first delivery, or after the last boundary, is censored.
    closes = _joined([t.post_ages < ruin_level for t in traces])
    closes[firsts] = True
    bounds = np.flatnonzero(closes)
    closes[firsts] = False     # a trace's first delivery closes nothing
    if bounds.size < 2:
        return np.empty(0)
    highest = np.maximum.reduceat(_joined([t.peaks for t in traces])[:bounds[-1] + 1],
                                  bounds[:-1] + 1)
    completed = closes[bounds[1:]] & (highest > ruin_level)
    return highest[completed] - ruin_level


def _joined(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays end to end; a single array as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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


def _estimate_avgs(samples: Sequence[np.ndarray]) -> list[AvgEstimate]:
    """Each sample's mean with a 95% confidence half-width from ``BATCHES`` batch
    means: one batch-means row per sample, and one spread over the rows of each
    batch count."""
    n = np.array([v.size for v in samples])
    if n.min() < 2:
        raise EmptyDataError("need at least two samples")
    b = np.clip(n // 2, 2, BATCHES)
    # np.add.reduce, then a division, is what .mean() does, without its Python layer
    means = np.empty((len(samples), BATCHES))
    for v, row, bi in zip(samples, means, b.tolist()):
        np.add.reduce(v[:v.size // bi * bi].reshape(bi, -1), axis=1, out=row[:bi])
        row[:bi] /= v.size // bi
    hw = np.empty(len(samples))
    for bi in set(b.tolist()):   # one count, BATCHES, once samples have 40 points
        rows = b == bi
        hw[rows] = student_t_975(bi - 1) * np.std(means[rows, :bi], axis=1, ddof=1) / math.sqrt(bi)
    return [AvgEstimate(float(np.add.reduce(v)) / v.size, h) for v, h in zip(samples, hw.tolist())]


def e2e_average_estimate(samples: PaoiSamples) -> AvgEstimate:
    """Network-wide average peak age: per-user stage means plus the
    aggregate compute-queue mean, composed the same way as the analytic
    end-to-end expression; half-widths combine in quadrature."""
    ests = _estimate_avgs([samples.stage1[u].peaks for u in range(len(samples.rates))])
    if samples.compute_agg is None or len(samples.compute_agg) < 2:
        raise EmptyDataError("no compute-queue samples")
    total = 0.0
    var = 0.0
    for est in ests + _estimate_avgs([samples.compute_agg.peaks]):
        total += est.mean
        var += est.halfwidth ** 2
    return AvgEstimate(total, math.sqrt(var))


# ---------------------------------------------------------------------------
# exports

def write_samples_csv(path, tagged_samples: Sequence[tuple[int, PaoiSamples]]):
    """CSV export: (replication, user, stage, delivery_time, paoi_seconds).

    Aggregate compute-queue rows use user = -1 and stage = "compute".  The
    columns go in as Python floats, which the csv module writes as their repr.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replication", "user", "stage", "delivery_time", "paoi_seconds"])
        for rep, samples in tagged_samples:
            tagged = [(u, stage.value, table[u])
                      for stage, table in ((Stage.STAGE1, samples.stage1), (Stage.E2E, samples.e2e))
                      for u in sorted(table)]
            if samples.compute_agg is not None:
                tagged.append((-1, "compute", samples.compute_agg))
            for u, stage, s in tagged:
                w.writerows(zip(repeat(rep), repeat(u), repeat(stage),
                                s.times.tolist(), s.peaks.tolist()))


def write_excursions_csv(path, tagged_stats: Sequence[tuple[int, ExcursionStats]]):
    """CSV export: (replication, ruin_level, exceedance)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replication", "ruin_level", "exceedance"])
        for rep, stats_ in tagged_stats:
            w.writerows(zip(repeat(rep), repeat(float(stats_.ruin_level)),
                            stats_.exceedances.tolist()))
