"""Discrete-event simulation of the two-stage update network.

Per-user capacity-2 stage queues (drop-on-full FCFS or replace-the-waiter
LCFS) feed a shared infinite-buffer FCFS compute queue.  The stage queues
have no feedback from the compute queue, so each user's stage is simulated
independently and the merged departure stream then drives the compute
queue; event ties are broken by (time, merge sequence) order.  For checks
that read one stage only, ``stage_series`` simulates that stage alone.

Each stage is simulated as a sequence of i.i.d. service cycles, which is
exact in distribution: with capacity 2, every service starts with the
waiting slot empty, so a cycle needs only the service time S ~ Exp(mu), the
time E ~ Exp(r) to the next arrival and, for LCFS, the gap G ~ Exp(r) back
from the service's end to its last arrival.  Where E < S the arrival waits,
and any later ones are dropped (FCFS) or displace it (LCFS): by time
reversal the last of them survives, at the end minus G, if G < S - E.  The
next service starts S after this one if E < S and E after it otherwise, so
the start times are one cumulative sum, and the cost is a few array passes
per service whatever the update rate -- four orders of magnitude above the
service rate for THz link budgets.  Neither depends on the discipline, so
both deliver at the same instants.  Service t + 1 delivers the update
generated at start + E of cycle t (or the LCFS survivor, never older); the
arrivals lost are one Poisson count per user over the summed windows, E to
S (LCFS: to S - G, plus one per survivor).

All users of a ``run`` are simulated together as one stack: (users x cycles)
arrays, a row per user, each user's blocks drawn in place end to end along its
row and the row zero past them; the stack widens only when a block needs the
room.  Only the draws are made user by user; the sums, counters and generation
times are passes over the whole stack, as are, over a cell's users, the
freshness series, the departure merge and the excursions, and, over all of a
sweep's cells of one discipline, the batch means.
``stage_series`` is the stack of one row, uncounted, and yields each discipline's
series from one set of its cycles.  The working set peaks at four (users x
cycles) arrays (S, E, the start times and FCFS's lost windows), reused in place
later on; LCFS adds a copy of the generation times and a few arrays as long as
its G draws.

The compute queue is the Lindley recursion d[i] = max(a[i], d[i-1]) + s[i].
Within a busy period that is a running sum from the first job's arrival,
so it is evaluated period by period with every addition the per-job loop
makes, in the loop's order, and the completion times equal the loop's bit
for bit.  Where the periods begin is guessed from the max-plus closed form,
which rounds differently, and checked against the exact completions.  The
jobs enter in the order of a stable time sort, so tied deliveries keep their
users' order.  The completions go back through the time sort into the stage
layout, user by user, with no second sort: a user's end-to-end series is a
slice of them read against the generation times its stage series reads.

Randomness: one independent substream per user for its stage cycles, drawn
in blocks and followed by FCFS's Poisson count of lost arrivals; one per user
for LCFS's G, drawn only for the delivered services with a waiter (E < S, as
the times round: the arrival came before the end) and followed by LCFS's
Poisson count; and one for the compute queue's service times.  All derive
from the master seed, so adding users never perturbs existing streams, and
stacking the users changes no draw and no draw's order within its substream.
The cycles, FCFS's count and the compute queue are the same for both
disciplines: ``cell_runs`` draws them once for a cell and runs each discipline
on them, so the disciplines are simulated with common random numbers and each
run is the same, bit for bit, as a fresh ``run``, in either order.  The
stage paths match the event loops in ``tests/sim_reference.py`` in
distribution, not draw for draw; the compute queue, the freshness series
and the excursions match them bit for bit when both are fed the same
departure streams.  The first WARMUP_FRACTION of the horizon is discarded
from all recorded statistics (counters cover the full run).

The KS estimator reads the CDF at every m-th point of each sorted segment
(m about half its cube root) and then only between those knots whose bounds
on D+ and D-, the CDF being monotone, can reach the largest term found: the
same maximum over the same float terms as a full pass, from a few percent of
the reads, at most ``_KS_CHUNK`` points a call.  A sweep passes the users'
peaks of all its cells of one discipline as consecutive segments, and
``ks_distance`` passes one.
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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .aoi_analytic import Discipline

WARMUP_FRACTION = 0.01
# batch count of the batch-means confidence intervals
BATCHES = 20

# spawn-key tags for substream derivation
_ARRIVAL_TAG = 0
_COMPUTE_SVC_TAG = 2
_GAP_TAG = 3


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
        if not (0 < self.stage_service_rate < math.inf
                and 0 < self.compute_service_rate < math.inf):
            raise ValueError("service rates must be strictly positive and finite")


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


@dataclass
class _Cycles:
    """The stage cycles of every user of a cell, which both disciplines read."""

    done: np.ndarray      # (users x cycles) service end times
    gens: np.ndarray      # FCFS generation times of the update each service delivers
    k: np.ndarray         # services begun by the horizon, per user
    d: np.ndarray         # services delivered by it
    waiting: np.ndarray   # whether the straddling service has a waiter
    tail: list | None     # the straddler's waiter's arrival to the horizon, or 0,
    lost: list | None     # and FCFS's lost-arrival counts; both None when not counted


class CellDraws(tuple):
    """What the disciplines of a cell share: the tuple is every user's arrival
    substream, users in order; ``cycles`` (drawn from them) and ``compute``
    (``_compute_queue`` on their deliveries) are made by the first ``run`` that reads
    them."""

    def __new__(cls, seed: int, streams: Sequence[np.random.Generator]):
        draws = super().__new__(cls, streams)
        draws.seed, draws.cycles, draws.compute = seed, None, None
        return draws


def _simulate_stages(rates: Sequence[float], mu: float, horizon: float,
                     draws: CellDraws, discipline: Discipline):
    """Every user's stage queue over [0, horizon], one service cycle at a time,
    user ``i`` drawing its cycles from ``draws[i]``, as (users x cycles) arrays.

    Returns (departure times, departure generation times, counters): user
    ``i``'s departures are the first ``counters[i].deliveries`` entries of row
    ``i``.  Departures are in generation order for both disciplines, so every
    departure refreshes the stage observer.  The cycles are drawn once per
    ``draws`` and kept there, so the departure times are the same array for both
    disciplines, and only LCFS's backward gaps are drawn per call.
    """
    if draws.cycles is None:
        draws.cycles = _draw_cycles(rates, mu, horizon, draws, True)
    c = draws.cycles
    lcfs = discipline is Discipline.LCFS_MM12_STAR
    gens, lost = _lcfs_gens(c, rates, draws.seed) if lcfs else (c.gens, c.lost)
    # every service begun took one accepted arrival; the waiter is the only other
    counters = [UserCounters(arrivals=kk + wt + x, deliveries=dd, drops=0 if lcfs else x,
                             preemptions=x if lcfs else 0, in_system=kk - dd + wt)
                for x, dd, kk, wt in zip(lost, c.d.tolist(), c.k.tolist(), c.waiting.tolist())]
    return c.done, gens, counters


def _draw_cycles(rates: Sequence[float], mu: float, horizon: float,
                 rngs: Sequence[np.random.Generator], counted: bool) -> _Cycles:
    """Every user's S and E, drawn block by block from ``rngs`` straight into its
    row, block t at t block sizes in, and summed into start times: the first
    arrival, then max(S, E) on per cycle, one sequential sum per row.  The end of
    service t is its departure, which carries start + E of cycle t - 1 (FCFS), as
    the sum gives start + max(S, E) where nothing waits, ties included.
    ``counted``, each user's lost arrivals follow as one Poisson count, the next
    draw of its substream."""
    rates = np.array(rates, dtype=float)
    blocks = np.array([_block_size(r, mu, horizon) for r in rates.tolist()])
    first = np.array([rng.exponential(1.0 / r) for rng, r in zip(rngs, rates.tolist())])
    s, e = np.zeros((rates.size, blocks.max())), np.zeros((rates.size, blocks.max()))
    # every user draws one block, and more while its next start is by the horizon; a
    # row is zero past its user's draws, so a step there is max(0, 0) = 0 and the
    # start after its last cycle repeats
    rows, t = np.arange(rates.size), 0
    while rows.size:
        ends = (t + 1) * blocks[rows]
        if ends.max() > s.shape[1]:
            pad = ((0, 0), (0, int(ends.max()) - s.shape[1]))
            s, e = np.pad(s, pad), np.pad(e, pad)
        for i, b, scale in zip(rows.tolist(), blocks[rows].tolist(), (1.0 / rates[rows]).tolist()):
            for x, c in ((s[i, t * b:(t + 1) * b], 1.0 / mu), (e[i, t * b:(t + 1) * b], scale)):
                rngs[i].standard_exponential(out=x)
                x *= c   # exponential(1 / c, b) bit for bit
        start = np.empty(s.shape)
        start[:, 0] = first
        np.maximum(s[:, :-1], e[:, :-1], out=start[:, 1:])
        np.cumsum(start, axis=1, out=start)
        end = ends - 1   # each continuing user's last cycle, and the start after it
        rows = rows[start[rows, end] + np.maximum(s[rows, end], e[rows, end]) <= horizon]
        t += 1

    k = np.count_nonzero(start <= horizon, axis=1)   # the start times never decrease along a row
    r, j = np.arange(rates.size), np.maximum(k - 1, 0)   # j: the last service begun
    # only the last service begun can straddle the horizon: one begun before it
    # ends by the next start, and so does its waiter's arrival
    straddles = (k > 0) & (s[r, j] + start[r, j] > horizon)
    d = k - straddles
    waiting = (e[r, j] < s[r, j]) & (e[r, j] + start[r, j] <= horizon)   # the straddler's
    window = np.subtract(s, e) if counted else None   # E to S: FCFS loses its arrivals
    # IEEE + commutes, so these are start + s and start + e element for element
    done = np.add(s, start, out=s)
    arrived = np.add(e, start, out=e)
    gens = start   # the waiter, or else the arrival the next service begins at
    gens[:, 1:] = arrived[:, :-1]
    if not counted:
        return _Cycles(done, gens, k, d, waiting, None, None)

    # every delivered service's window, and the straddler's from its waiter to the
    # horizon, as one Poisson count per user
    np.maximum(window, 0.0, out=window)
    tail = np.where(waiting, horizon - arrived[r, j], 0.0).tolist()
    lost = [int(rng.poisson(rate * (float(np.add.reduce(w[:n])) + x)))
            for rng, rate, w, n, x in zip(rngs, rates.tolist(), window, d.tolist(), tail)]
    return _Cycles(done, gens, k, d, waiting, tail, lost)


def _lcfs_gens(c: _Cycles, rates: Sequence[float], seed: int):
    """LCFS's generation times and lost-arrival counts on the cycles ``c``.

    A delivered service has a waiter where the next arrival came before its end
    (E < S, as the times round).  There the last arrival came G ~ Exp(r) before the
    end, by time reversal of the Poisson process, and survives if it came after the
    waiter; each user draws G for those services only, from a substream of its
    own, and then, where ``c`` holds FCFS's counts, its lost arrivals: one Poisson
    count over the windows from each waiter to its survivor and from the
    straddler's waiter to the horizon, plus one for each waiter displaced.
    """
    ahead = np.zeros(c.done.shape, dtype=bool)
    np.less(c.gens[:, 1:], c.done[:, :-1], out=ahead[:, :-1])
    ahead &= np.arange(ahead.shape[1]) < c.d[:, None]
    at = np.flatnonzero(ahead)   # user by user
    per_user = np.count_nonzero(ahead, axis=1).tolist()
    del ahead
    rngs = [_rng(seed, _GAP_TAG, u) for u in range(len(per_user))]
    later = c.done.ravel()[at]   # less G: the last arrival
    later -= np.concatenate([rng.exponential(1.0 / r, n)
                             for rng, r, n in zip(rngs, rates, per_user)])
    at += 1   # the next service, which delivers the waiter or its survivor
    waiter = c.gens.ravel()[at]
    gens = c.gens.copy()
    # the later of the two, so an LCFS update is never older than the FCFS one
    gens.ravel()[at] = np.maximum(waiter, later)
    if c.lost is None:
        return gens, None
    window = np.subtract(later, waiter, out=later)
    np.maximum(window, 0.0, out=window)
    lost = [int(rng.poisson(r * (float(np.add.reduce(w)) + x))) + int(np.count_nonzero(w))
            for rng, r, w, x in zip(rngs, rates, np.split(window, np.cumsum(per_user)[:-1]),
                                    c.tail)]
    return gens, lost


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
        seed: int, *, draws: CellDraws | None = None) -> PaoiSamples:
    """Simulate the tandem network; deterministic for a fixed seed.  ``draws`` is
    passed only by ``cell_runs``, whose runs share their stage cycles and compute
    queue through it; without it the run makes its own."""
    rates = tuple(float(r) for r in per_user_rates)
    if not rates:
        raise ValueError("need at least one user")
    if not all(0 < r < math.inf for r in rates):
        raise ValueError("update rates must be strictly positive and finite")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be strictly positive and finite")
    if draws is None:
        draws = CellDraws(seed, [_rng(seed, _ARRIVAL_TAG, u) for u in range(len(rates))])

    warmup = WARMUP_FRACTION * horizon
    out = PaoiSamples(config=config, rates=rates, horizon=horizon,
                      warmup=warmup, seed=seed)
    done, gens, counters = _simulate_stages(
        rates, config.stage_service_rate, horizon, draws, config.discipline)
    out.stage_counters = dict(enumerate(counters))
    # every delivery, users in order: a user's own deliveries are one segment
    d = np.array([c.deliveries for c in counters])
    delivered = np.arange(done.shape[1]) < d[:, None]
    times, gens = done[delivered], gens[delivered]
    del done, delivered
    lo = np.cumsum(d) - d
    out.stage1 = dict(enumerate(_freshness_series(times, gens, lo.tolist(),
                                                  (lo + d).tolist(), warmup)))
    if draws.compute is None:
        draws.compute = _compute_queue(times, d, config.compute_service_rate, horizon,
                                       warmup, seed)
    completions, served, out.compute_agg, k = draws.compute
    out.compute_arrivals, out.compute_delivered = times.size, k
    out.compute_in_system = times.size - k
    # each user's end-to-end series reads the first served[u] jobs of its segment
    out.e2e = dict(enumerate(_freshness_series(completions, gens, lo.tolist(),
                                               (lo + served).tolist(), warmup)))
    out.compute_arrival_rate = int(np.count_nonzero(times >= warmup)) / (horizon - warmup)
    return out


def cell_runs(disciplines: Iterable[Discipline], per_user_rates: Sequence[float], mu: float,
              mu_c: float, horizon: float, seed: int) -> Iterator[PaoiSamples]:
    """A cell's ``run`` for each of ``disciplines`` in turn, from one draw of its stage
    cycles and one compute queue: each the ``PaoiSamples`` of a fresh ``run``, bit for bit."""
    draws = CellDraws(seed, [_rng(seed, _ARRIVAL_TAG, u) for u in range(len(per_user_rates))])
    return (run(QueueConfig(disc, mu, mu_c), per_user_rates, horizon, seed, draws=draws)
            for disc in disciplines)


def stage_series(disciplines: Iterable[Discipline], rate: float, mu: float, horizon: float,
                 seed: int) -> Iterator[StageSeries]:
    """One user's stage queue alone, each of ``disciplines`` in turn from one draw of
    its cycles, made at the call: ``run``'s ``stage1[0]`` for that user, bit for bit,
    drawing no Poisson count of lost arrivals, which only counters read."""
    if not (0 < rate < math.inf and 0 < mu < math.inf and 0 < horizon < math.inf):
        raise ValueError("rates and horizon must be strictly positive and finite")
    c = _draw_cycles((rate,), mu, horizon, (_rng(seed, _ARRIVAL_TAG, 0),), False)
    d, warmup, lcfs = int(c.d[0]), WARMUP_FRACTION * horizon, Discipline.LCFS_MM12_STAR
    # no name holds LCFS's generation times, so they go once its series is made
    return (_freshness_series(c.done[0, :d],
                              (_lcfs_gens(c, (rate,), seed)[0] if disc is lcfs else c.gens)[0, :d],
                              (0,), (d,), warmup)[0]
            for disc in disciplines)


def _compute_queue(times: np.ndarray, d: np.ndarray, mu_c: float, horizon: float,
                   warmup: float, seed: int):
    """The FCFS compute queue fed the stage deliveries ``times``: ``d[u]`` of them
    user ``u``'s, users in order, each user's in time order.

    Returns (completions, served, agg, k): each job's completion time, laid out as
    ``times``; how many of each user's jobs complete by the horizon, the first of
    its own; the aggregate series; and the jobs completed in all.  The completions
    depend on the delivery times only, so both disciplines of a cell share them."""
    order = np.argsort(times, kind="stable")
    arrived = times[order]
    done = _departures(arrived, _rng(seed, _COMPUTE_SVC_TAG, 0).exponential(1.0 / mu_c, times.size))
    # completions never decrease, so the jobs delivered within the horizon are a
    # prefix, and a completion exactly at the horizon is delivered; each user's of
    # them are a prefix of its own too
    k = int(np.searchsorted(done, horizon, side="right"))
    agg, = _freshness_series(done[:k], arrived[:k], (0,), (k,), warmup)
    served = np.bincount(np.repeat(np.arange(d.size), d)[order[:k]], minlength=d.size)
    completions = np.empty_like(done)
    completions[order] = done
    return completions, served, agg, k


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
    on one segment, calling ``analytic`` on at most ``_KS_CHUNK`` points at a time.
    ``analytic`` must not decrease by more than ``_KS_SLACK`` between sorted points."""
    x = empirical.points
    return float(ks_segments(x, [empirical.n], lambda idx: analytic(x[idx]))[0])


# the KS pass reads at most this many points per CDF call, so a kernel's temporaries are
# a few chunk-length arrays whatever the sample size (the reference kernel's over 8,192
# points raised the reference sweep's peak RSS by 0.45 MB)
_KS_CHUNK = 1 << 12
# how far a CDF may fall between sorted points and still bound the terms it skips:
# far above the kernels' rounding, far below any KS distance worth reporting
_KS_SLACK = 1e-9


def ks_segments(points: np.ndarray, lengths: Sequence[int], cdf) -> np.ndarray:
    """Two-sided KS distance of each segment of ``points``: the segments are
    consecutive, ``lengths`` long (each at least 1) and each sorted, and ``cdf(idx)``
    gives the CDF at ``points[idx]`` for at most ``_KS_CHUNK`` indices ``idx``.

    A segment's distance is the larger of D+ = max(i/n - F) and D- = max(F - (i-1)/n)
    over its points, i = 1..n, each term as the one-segment formula rounds it.  Between
    knots a and b the terms are at most (i_b - 1)/n - F_a (D+) and F_b - i_a/n (D-), and
    a block whose bound plus ``_KS_SLACK`` does not exceed the largest term at the knots
    is skipped.  The blocks that survive are read through the same chunked reader as
    the knots; their index arrays are as long as all their points together, not bounded
    by the chunk size, which makes them large only where most blocks survive.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
        raise EmptyDataError("every KS segment needs a sample")
    starts = np.cumsum(lengths) - lengths

    def read(idx):
        return np.concatenate([np.asarray(cdf(idx[lo:lo + _KS_CHUNK]), dtype=float)
                               for lo in range(0, idx.size, _KS_CHUNK)])

    stride = np.maximum(np.rint(np.cbrt(lengths) / 2).astype(np.intp), 1)
    count = (lengths - 2) // stride + 2   # offsets 0, m, 2m, ... below n - 1, then n - 1
    seg = np.repeat(np.arange(lengths.size), count)
    heads = np.cumsum(count) - count
    off = np.minimum((np.arange(seg.size) - heads[seg]) * stride[seg], lengths[seg] - 1)
    g = read(starts[seg] + off)
    n = lengths[seg]
    best = np.maximum.reduceat(np.maximum((off + 1) / n - g, g - off / n), heads)
    # a block runs from a knot to the next of its segment, exclusive
    a = np.flatnonzero(off[1:] > off[:-1] + 1)
    bound = np.maximum(off[a + 1] / n[a] - g[a], g[a + 1] - (off[a] + 1) / n[a]) + _KS_SLACK
    a = a[bound > best[seg[a]]]
    if not a.size:
        return best
    counts = off[a + 1] - off[a] - 1
    cuts = np.cumsum(counts) - counts   # each point's offset in its segment is i
    i = np.arange(cuts[-1] + counts[-1]) - np.repeat(cuts - off[a] - 1, counts)
    s = seg[a]
    gi = read(np.repeat(starts[s], counts) + i)
    ni = np.repeat(lengths[s], counts)
    terms = np.maximum((i + 1) / ni - gi, gi - i / ni)
    np.maximum.at(best, s, np.maximum.reduceat(terms, cuts))
    return best


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
    return _e2e_composed(_estimate_avgs(_e2e_samples(samples)))


def _e2e_samples(samples: PaoiSamples) -> list[np.ndarray]:
    """What ``e2e_average_estimate`` reads: each user's stage peaks, users in order,
    then the compute queue's; ``EmptyDataError`` where an estimate would lack samples."""
    peaks = [samples.stage1[u].peaks for u in range(len(samples.rates))]
    if min(p.size for p in peaks) < 2:
        raise EmptyDataError("need at least two samples")
    if samples.compute_agg is None or len(samples.compute_agg) < 2:
        raise EmptyDataError("no compute-queue samples")
    return peaks + [samples.compute_agg.peaks]


def _e2e_composed(ests: Sequence[AvgEstimate]) -> AvgEstimate:
    """The end-to-end estimate from the estimates of ``_e2e_samples``, in its order."""
    total = 0.0
    var = 0.0
    for est in ests:
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
