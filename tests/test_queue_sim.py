"""Simulator tests: exactness against the closed forms, bookkeeping, estimators."""

import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from scipy import stats

import sim_reference as ref
from thzaoi import aoi_analytic as an
from thzaoi import queue_sim as qs
from thzaoi import scenario as sc
from thzaoi import validation as val

FCFS = an.Discipline.FCFS_MM12
LCFS = an.Discipline.LCFS_MM12_STAR


def config(disc=FCFS, mu_u=1.0, mu_c=50.0):
    return qs.QueueConfig(disc, mu_u, mu_c)


def single_user_run(disc, rate, mu, horizon, seed=11):
    return qs.run(config(disc, mu_u=mu), [rate], horizon, seed)


class TestDeterminismAndDomain:
    def test_identical_seeds_identical_output(self):
        a = qs.run(config(), [2.0, 3.0], 500.0, 42)
        b = qs.run(config(), [2.0, 3.0], 500.0, 42)
        for u in (0, 1):
            assert np.array_equal(a.stage1[u].peaks, b.stage1[u].peaks)
            assert np.array_equal(a.e2e[u].times, b.e2e[u].times)
            assert a.stage_counters[u] == b.stage_counters[u]
        assert np.array_equal(a.compute_agg.peaks, b.compute_agg.peaks)

    def test_different_seed_differs(self):
        a = qs.run(config(), [2.0], 500.0, 1)
        b = qs.run(config(), [2.0], 500.0, 2)
        assert not np.array_equal(a.stage1[0].peaks, b.stage1[0].peaks)

    def test_adding_users_preserves_existing_streams(self):
        a = qs.run(config(), [2.0], 300.0, 9)
        b = qs.run(config(), [2.0, 5.0], 300.0, 9)
        assert np.array_equal(a.stage1[0].peaks, b.stage1[0].peaks)

    def test_vanishing_rate_yields_no_samples(self):
        out = single_user_run(FCFS, 1e-9, 1.0, 10.0)
        assert len(out.stage1[0]) == 0
        assert out.stage_counters[0].arrivals == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qs.run(config(), [], 10.0, 0)
        with pytest.raises(ValueError):
            qs.run(config(), [1.0], 0.0, 0)
        with pytest.raises(ValueError):
            qs.run(config(), [0.0], 10.0, 0)


class TestStageOnly:
    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 4000.0])
    def test_stage_series_is_the_networks_stage1(self, disc, ratio):
        horizon = 30.0 if ratio > 100 else 400.0
        alone, = qs.stage_series((disc,), 2.0 * ratio, 2.0, horizon, 5)
        full = qs.run(config(disc, mu_u=2.0), [2.0 * ratio], horizon, 5).stage1[0]
        assert len(alone) > 0
        for name in ("times", "peaks", "post_ages"):
            assert np.array_equal(getattr(alone, name), getattr(full, name))

    @pytest.mark.parametrize("rate,mu,horizon", [(0.0, 1.0, 10.0), (1.0, 0.0, 10.0),
                                                 (1.0, 1.0, 0.0)])
    def test_stage_series_domain_errors(self, rate, mu, horizon):
        with pytest.raises(ValueError):
            qs.stage_series((FCFS,), rate, mu, horizon, 0)

    @pytest.mark.parametrize("first", [FCFS, LCFS])
    @pytest.mark.parametrize("block", [None, 50])
    def test_shared_draws_give_each_discipline_its_own_series(self, monkeypatch, first, block):
        if block:   # the cycles then span several blocks
            monkeypatch.setattr(qs, "_block_size", lambda *_: block)
        drawn, own = [], qs._draw_cycles
        monkeypatch.setattr(qs, "_draw_cycles", lambda *a: drawn.append(a) or own(*a))
        order = (first, LCFS if first is FCFS else FCFS)
        series = qs.stage_series(order, 2.0, 1.0, 400.0, 5)
        assert len(drawn) == 1   # at the call, before the first series is asked for
        shared = dict(zip(order, series))
        assert len(drawn) == 1
        for disc in order:
            fresh, = qs.stage_series((disc,), 2.0, 1.0, 400.0, 5)
            assert len(fresh) > 300
            for name in ("times", "peaks", "post_ages"):
                assert getattr(shared[disc], name).tobytes() == getattr(fresh, name).tobytes()
        assert len(drawn) == 3


class CountingRng:
    """A generator that passes every draw through and counts, per method, its
    calls and the variates they return."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls, self.variates = rng, Counter(), Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls[name] += 1
            self.variates[name] += np.size(out)
            return out
        return counted


@pytest.fixture
def spies(monkeypatch):
    """Every generator ``qs._rng`` makes, wrapped in a ``CountingRng``, in order."""
    made, own = [], qs._rng
    monkeypatch.setattr(qs, "_rng", lambda *key: made.append(CountingRng(own(*key))) or made[-1])
    return made


class TestStageDraws:
    # at r = 2, mu = 1 over 400 s a user needs about 340 cycles, in one block of 504
    def test_fcfs_stage_series_draws_no_n_on_a_single_block(self, spies):
        series, = qs.stage_series((FCFS,), 2.0, 1.0, 400.0, 5)
        assert len(series) > 0
        (rng,) = spies
        assert rng.calls["standard_exponential"] == 2   # S and E of one block
        assert rng.calls["poisson"] == 0

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_stage_series_draws_no_n_on_any_block(self, spies, monkeypatch, disc):
        monkeypatch.setattr(qs, "_block_size", lambda *_: 7)
        next(qs.stage_series((disc,), 2.0, 1.0, 400.0, 5))
        rng = spies[0]   # S and E of each block; LCFS's G come from a substream of their own
        blocks, rest = divmod(rng.calls["standard_exponential"], 2)
        assert blocks > 2 and rest == 0
        assert rng.variates["standard_exponential"] == 7 * 2 * blocks
        assert all(r.calls["poisson"] == r.calls["random"] == 0 for r in spies)

    def test_lcfs_stage_series_draws_only_s_e_and_g(self, spies):
        series, = qs.stage_series((LCFS,), 2.0, 1.0, 400.0, 5)
        rng, gaps = spies   # S and E of one block, then one G per delivered waiter
        assert rng.calls["standard_exponential"] == 2
        assert rng.variates["standard_exponential"] == 2 * qs._block_size(2.0, 1.0, 400.0)
        assert gaps.calls["exponential"] == 1
        # about r/(r + mu) of the deliveries have a waiter, and nothing else draws G
        assert 0.55 * len(series) < gaps.variates["exponential"] < 0.8 * len(series)
        assert all(r.calls["poisson"] == r.calls["random"] == 0 for r in spies)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_run_draws_one_poisson_count_per_user(self, spies, disc):
        qs.run(config(disc), [2.0, 0.5, 4000.0, 1e-9], 400.0, 5)
        # the arrival substreams, LCFS's gap substreams, and then the compute queue's
        assert len(spies) == (9 if disc is LCFS else 5)
        for rng in spies[:-1]:   # FCFS's count on the arrival substream, LCFS's on its gaps'
            assert (rng.calls["poisson"], rng.variates["poisson"]) == (1, 1)
            assert rng.calls["random"] == 0

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("block", [None, 7])
    def test_run_makes_every_draw_of_the_per_user_reference(self, spies, monkeypatch, disc, block):
        # at r/mu = 4,000 the last service begun straddles the horizon with a waiter
        # behind it, whose lost arrivals only the counters read
        if block:
            monkeypatch.setattr(qs, "_block_size", lambda *_: block)
        rates = [2.0, 0.5, 4000.0]
        qs.run(config(disc), rates, 400.0, 5)
        for u, rate in enumerate(rates):
            want, want_gaps = (CountingRng(np.random.default_rng(np.random.SeedSequence(
                5, spawn_key=(tag, u)))) for tag in (qs._ARRIVAL_TAG, qs._GAP_TAG))
            ref._simulate_stage_one_user(rate, 1.0, 400.0, want, disc, want_gaps)
            # S and E come as standard draws times the scale, the same ones; G as
            # exponential draws in both
            pairs = [(spies[u], want, ("poisson", "random"))]
            if disc is LCFS:
                pairs.append((spies[len(rates) + u], want_gaps, ("exponential", "poisson")))
            for got, wanted, names in pairs:
                for name in names:
                    assert ((got.calls[name], got.variates[name])
                            == (wanted.calls[name], wanted.variates[name]))
                assert got.rng.bit_generator.state == wanted.rng.bit_generator.state

    def test_ragged_blocks_of_one_cell_are_each_users_own(self, spies, monkeypatch):
        # block sizes that differ by user, so a user's block t starts at its own
        # column t * b; the user at 1e-9 stops after one block, the others need
        # 15 to 66, and the stack widens as they go
        monkeypatch.setattr(qs, "_block_size", lambda r, mu, h: 5 if r > 1 else 9)
        rates, horizon = [2.0, 0.5, 4000.0, 7.0, 1e-9, 0.9], 300.0
        out = dict(zip((FCFS, LCFS), qs.cell_runs((FCFS, LCFS), rates, 1.0, 50.0, horizon, 5)))
        # the arrival substreams, the compute queue's, then LCFS's gap substreams
        assert len(spies) == 2 * len(rates) + 1
        blocks = [rng.calls["standard_exponential"] // 2 for rng in spies[:len(rates)]]
        assert blocks[4] == 1 and min(blocks[:4] + blocks[5:]) > 10 and max(blocks) > 50

        def fresh(tag, u):   # a copy of a substream the cell drew from, unread
            return np.random.default_rng(np.random.SeedSequence(5, spawn_key=(tag, u)))

        for u, rate in enumerate(rates):
            for disc in (FCFS, LCFS):
                want, want_gaps = fresh(qs._ARRIVAL_TAG, u), fresh(qs._GAP_TAG, u)
                done, gens, counters = ref._simulate_stage_one_user(rate, 1.0, horizon, want, disc,
                                                                     want_gaps)
                assert out[disc].stage_counters[u] == counters
                series, = qs._freshness_series(done, gens, (0,), (done.size,), out[disc].warmup)
                for name in ("times", "peaks", "post_ages"):
                    got = getattr(out[disc].stage1[u], name)
                    assert got.tobytes() == getattr(series, name).tobytes()
                got = spies[u] if disc is FCFS else spies[len(rates) + 1 + u]
                wanted = want if disc is FCFS else want_gaps
                assert got.rng.bit_generator.state == wanted.bit_generator.state


class TiedRng:
    """``rng``, except that each block's E repeats that block's S standard draws,
    halved in every other cycle: at rate == mu, half the cycles have E == S bit for
    bit.  A block draws ``per_block`` exponential arrays, S and E first."""

    def __init__(self, rng: np.random.Generator, per_block: int):
        self.rng, self.per_block, self.drawn, self.s_block = rng, per_block, 0, None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def _block(self, size):
        self.drawn += 1
        if self.drawn % self.per_block != 2 % self.per_block:
            self.s_block = self.rng.standard_exponential(size)
            return self.s_block
        x = self.s_block.copy()
        x[1::2] *= 0.5
        return x

    def standard_exponential(self, out):
        out[...] = self._block(out.size)
        return out

    def exponential(self, scale, size=None):
        return self.rng.exponential(scale) if size is None else scale * self._block(size)


@pytest.mark.parametrize("disc", [FCFS, LCFS])
@pytest.mark.parametrize("block", [None, 3])
def test_generation_times_hold_at_exact_ties(monkeypatch, disc, block):
    # where E == S the next service begins at start + max(S, E), which must be the
    # arrival start + E that its generation time is read from, bit for bit
    if block:
        monkeypatch.setattr(qs, "_block_size", lambda *_: block)
    rate = mu = 3.0

    def tied(per_block=2):
        return TiedRng(qs._rng(4, qs._ARRIVAL_TAG, 0), per_block)

    done, gens, (counters,) = qs._simulate_stages((rate,), mu, 40.0, qs.CellDraws(4, (tied(),)),
                                                  disc)
    want = ref._simulate_stage_one_user(rate, mu, 40.0, tied(), disc, qs._rng(4, qs._GAP_TAG, 0))
    d = counters.deliveries
    assert d > 20 and astuple(counters) == astuple(want[2])
    for a, b in zip((done[0, :d], gens[0, :d]), want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the same cycles uncounted, as ``stage_series`` draws and reads them
    c = qs._draw_cycles((rate,), mu, 40.0, (tied(),), False)
    alone, alone_gens, (d_alone,) = c.done, (qs._lcfs_gens(c, (rate,), 4)[0] if disc is LCFS
                                             else c.gens), c.d
    assert d_alone == d
    assert np.array_equal(alone[0, :d], done[0, :d])
    assert np.array_equal(alone_gens[0, :d], gens[0, :d])
    # the block copy drew S and E of its first block where these are drawn, and read
    # no Poisson count or uniform for departure times or FCFS generation times
    old = ref._simulate_stage_blocks(rate, mu, 40.0, tied(2), disc)
    m = min(d, qs._block_size(rate, mu, 40.0))
    assert np.array_equal(done[0, :m], old[0][:m])
    if disc is FCFS:
        assert np.array_equal(gens[0, :m], old[1][:m])


# sha256 of _simulate_stages's (departures, generation times) bytes and its
# counters (arrivals, deliveries, drops, preemptions, in system) at mu = 1,
# seed 17.  The FCFS digests date from before the lost arrivals became one
# Poisson count per user, which moved only the drops and arrivals; the LCFS ones
# from when G moved to a substream of its own, drawn only behind a delivered
# waiter, with LCFS's Poisson count after it there
GOLDEN_STAGE = {
    (FCFS, 0.5): ("1daea6ffb8c8fddf0ae0da2eac7b55e51d8c25d3bb4882dc633db4563352ffa5",
                  (2347, 2046, 300, 0, 1)),
    (FCFS, 2.0): ("522102af01ed304e0769557c2bc814157651be2e7e5e86f888ae6c20e5d672b1",
                  (9881, 4159, 5720, 0, 2)),
    (FCFS, 4000.0): ("24533e3ebedd1d1a9456fa9bd1ef4d24aa59e715d28f7e6c9960f7041a798ab3",
                     (8003873, 1932, 8001939, 0, 2)),
    (LCFS, 0.5): ("11fcbc3e0b9a3b8998595a6cd950704a82f326867c24d03c3a15832ea3d3f4e0",
                  (2371, 2046, 0, 324, 1)),
    (LCFS, 2.0): ("b545c1fbdc45f634918341cf1feb80e491214e28ca13c9e0955a34136ebc956d",
                  (9887, 4159, 0, 5726, 2)),
    (LCFS, 4000.0): ("3b10b6c91485499acc7b5e2b3033a1743cbb4f34587f10321f4e609c8678743a",
                     (7998262, 1932, 0, 7996328, 2)),
}


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("disc,ratio", list(GOLDEN_STAGE))
def test_stage_draws_are_pinned(disc, ratio):
    # the sweep CSVs stay byte-identical only while every draw and its order do;
    # no stage path takes numpy's SIMD power any more, so every CPU runs all six
    horizon = 2000.0 if ratio > 100 else 5000.0
    done, gens, (counters,) = qs._simulate_stages(
        (ratio,), 1.0, horizon, qs.CellDraws(17, (qs._rng(17, qs._ARRIVAL_TAG, 0),)), disc)
    done, gens = done[0, :counters.deliveries], gens[0, :counters.deliveries]
    digest, expected = GOLDEN_STAGE[disc, ratio]
    assert astuple(counters) == expected
    assert _sha256(done, gens) == digest


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc, which sees numpy's buffers, traces during ``run()``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# validate's severity run, FCFS at r = 2, mu = 1 over 420,000 s, is one block of
# 462,064 cycles, 3.5 MiB per array.  Its FCFS stage series holds S, E and the
# start times, and then the departures, the generation times and the freshness
# series' two delivery arrays (12.55 MiB); LCFS adds its G draws, the windows
# behind each waiter and the survivors' indices (17.91 MiB; both traced after a
# first run, whose own allocations add 0.73 MiB to FCFS's)
@pytest.mark.parametrize("disc,limit_mib", [(FCFS, 13.5), (LCFS, 26)])
def test_severity_size_stage_run_peak_memory(disc, limit_mib):
    peak = traced_peak(lambda: [*qs.stage_series((disc,), 2.0, 1.0, 420_000.0, 7)])
    assert peak <= limit_mib * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


# the same run with its counters, as ``run`` makes it, holds four block arrays at
# its peak (S, E, the start times and the windows whose arrivals are lost): 14.11 MiB
def test_counted_severity_size_stage_run_peak_memory():
    peak = traced_peak(lambda: qs._simulate_stages(
        (2.0,), 1.0, 420_000.0, qs.CellDraws(7, (qs._rng(7, qs._ARRIVAL_TAG, 0),)), FCFS))
    assert peak <= 15 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


# a reference-sweep cell: 30 users at r/mu 3,200-4,400 over 60 s stack into
# (30 x 394)-cycle arrays, 92 KiB each; the whole run, compute queue included,
# peaked at 1.12 MiB for both disciplines when this bound was set
@pytest.mark.parametrize("disc", [FCFS, LCFS])
def test_stacked_cell_run_peak_memory(disc):
    config, rates = qs.QueueConfig(disc, 5.0, 1000.0), np.linspace(16_000.0, 22_000.0, 30)
    qs.run(config, rates, 60.0, 11)   # first-call allocations are not the run's
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        qs.run(config, rates, 60.0, 11)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


# a 100,000-point sample is 0.76 MiB per array; the KS pass holds a few arrays of
# _KS_CHUNK points, and the reference kernel's temporaries over one chunk, at once
@pytest.mark.parametrize("disc", [FCFS, LCFS])
def test_ks_distance_peak_memory_is_a_few_chunks(disc):
    ecdf = qs.EmpiricalCdf(np.random.default_rng(3).exponential(0.6, 100_000))
    cdf = an.cdf_reference(an.StageLaw(20_000.0, 5.0, disc))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        qs.ks_distance(ecdf, cdf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"


class TestConservation:
    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("rate", [0.5, 2.0, 20.0])
    def test_stage_accounting_balances(self, disc, rate):
        out = single_user_run(disc, rate, 1.0, 2000.0)
        c = out.stage_counters[0]
        assert c.arrivals == c.deliveries + c.drops + c.preemptions + c.in_system
        assert 0 <= c.in_system <= 2
        if disc is FCFS:
            assert c.preemptions == 0
        else:
            assert c.drops == 0

    def test_compute_accounting_balances(self):
        out = qs.run(config(), [2.0, 2.0], 1000.0, 3)
        stage_deliveries = sum(c.deliveries for c in out.stage_counters.values())
        assert out.compute_arrivals == stage_deliveries
        assert out.compute_arrivals == out.compute_delivered + out.compute_in_system

    def test_saturated_stage_records_losses(self):
        fcfs = single_user_run(FCFS, 50.0, 1.0, 500.0)
        assert fcfs.stage_counters[0].drops > 0
        lcfs = single_user_run(LCFS, 50.0, 1.0, 500.0)
        assert lcfs.stage_counters[0].preemptions > 0


class TestCounterOracle:
    """The counters against the capacity-2 occupancy chain, whose stationary law is
    proportional to (1, rho, rho^2): deliveries at ``stage_throughput``, losses (FCFS
    drops, LCFS preemptions) at ``stage_loss_rate``, over 20 seeds."""

    SEEDS = range(20)

    @staticmethod
    def counts(disc, ratio, horizon):
        runs = [single_user_run(disc, ratio, 1.0, horizon, seed).stage_counters[0]
                for seed in TestCounterOracle.SEEDS]
        return (np.array([c.drops + c.preemptions for c in runs], dtype=float),
                np.array([c.deliveries for c in runs], dtype=float))

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("ratio,horizon", [(0.5, 2000.0), (2.0, 1000.0), (4e3, 200.0)])
    def test_loss_and_delivery_rates_match_the_chain(self, disc, ratio, horizon):
        law = an.StageLaw(ratio, 1.0, disc)
        lost, delivered = self.counts(disc, ratio, horizon)
        for counts, rate in ((lost, an.stage_loss_rate(law)),
                             (delivered, an.stage_throughput(ratio, 1.0))):
            per_s = counts / horizon
            se = per_s.std(ddof=1) / math.sqrt(per_s.size)
            assert abs(per_s.mean() - rate) <= 4.0 * se, (per_s.mean(), rate, se)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("ratio,horizon", [(0.5, 2000.0), (2.0, 1000.0), (4e3, 200.0)])
    def test_loss_count_spread_matches_the_event_loop(self, disc, ratio, horizon):
        # the loop draws each arrival (in bulk while the stage is full) and places an
        # LCFS survivor at a U^(1/N) quantile: a lost-arrival mean summed over the
        # wrong windows moves the spread of the counts as well as their mean
        lost, _ = self.counts(disc, ratio, horizon)
        loop = np.array([sum(astuple(ref._simulate_stage(
            ratio, 1.0, horizon, qs._rng(seed, qs._ARRIVAL_TAG, 0),
            qs._rng(seed, ref._STAGE_SVC_TAG, 0), disc)[2])[2:4]) for seed in self.SEEDS],
            dtype=float)
        f = lost.var(ddof=1) / loop.var(ddof=1)
        dof = len(self.SEEDS) - 1
        p = 2.0 * min(stats.f.cdf(f, dof, dof), stats.f.sf(f, dof, dof))
        assert p > 1e-3, (f, p)


class TestBurkeGap:
    """``burke_gap``, mu N less the measured compute arrival rate, against the chain:
    each stage delivers at ``stage_throughput``, so the gap has mean
    sum(mu - stage_throughput(r_i, mu)), here over 40 seeds."""

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_mean_gap_matches_the_stage_throughputs(self, disc):
        rates, mu, horizon = [0.3, 1.0, 3.0, 30.0, 4e3], 1.0, 2000.0
        gaps = np.array([mu * len(rates) - qs.run(config(disc, mu_u=mu), rates, horizon,
                                                  seed).compute_arrival_rate
                         for seed in range(40)])
        expect = sum(mu - an.stage_throughput(r, mu) for r in rates)
        se = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean() - expect) <= 4.0 * se, (gaps.mean(), expect, se)


class TestPairedDisciplines:
    """Both disciplines of a cell from one ``cell_runs``: the same S, E and compute
    service draws, so the same delivery instants, and an LCFS peak, whose update is
    never older, never above the FCFS one."""

    CELL = dict(rates=[0.5, 2.0, 4e3, 1e-9], mu=1.0, mu_c=50.0, horizon=1500.0, seed=23)
    # one user whose cycles span several blocks of 50
    BLOCKS = dict(rates=[2.0], mu=1.0, mu_c=50.0, horizon=400.0, seed=31)

    @staticmethod
    def paired(rates, mu, mu_c, horizon, seed, first=FCFS):
        order = (first, LCFS if first is FCFS else FCFS)
        out = dict(zip(order, qs.cell_runs(order, rates, mu, mu_c, horizon, seed)))
        return out[FCFS], out[LCFS]

    @pytest.fixture(params=["CELL", "BLOCKS"])
    def cell(self, request, monkeypatch):
        if request.param == "BLOCKS":
            monkeypatch.setattr(qs, "_block_size", lambda *_: 50)
        return getattr(self, request.param)

    def test_both_deliver_at_the_same_instants(self, cell):
        fcfs, lcfs = self.paired(**cell)
        assert sum(len(s) for s in fcfs.stage1.values()) > 300
        for table in ("stage1", "e2e"):
            for u in range(len(cell["rates"])):
                a, b = getattr(fcfs, table)[u].times, getattr(lcfs, table)[u].times
                assert a.tobytes() == b.tobytes()
        assert fcfs.compute_agg.peaks.tobytes() == lcfs.compute_agg.peaks.tobytes()
        assert fcfs.compute_arrival_rate == lcfs.compute_arrival_rate   # the Burke gap too
        for u in range(len(cell["rates"])):
            f, g = fcfs.stage_counters[u], lcfs.stage_counters[u]
            assert (f.deliveries, f.in_system) == (g.deliveries, g.in_system)

    def test_an_lcfs_peak_never_exceeds_the_fcfs_one(self, cell):
        fcfs, lcfs = self.paired(**cell)
        below = 0
        for table in ("stage1", "e2e"):
            for u in range(len(cell["rates"])):
                a, b = getattr(fcfs, table)[u].peaks, getattr(lcfs, table)[u].peaks
                assert (b <= a).all()
                below += int(np.count_nonzero(b < a))
        assert below > 100

    def test_lcfs_is_the_same_alone_shared_and_in_either_order(self, cell):
        rates, mu, mu_c, horizon, seed = (cell[k] for k in ("rates", "mu", "mu_c", "horizon",
                                                            "seed"))
        alone = qs.run(config(LCFS, mu, mu_c), rates, horizon, seed)
        after = self.paired(**cell)[1]
        before = self.paired(**cell, first=LCFS)[1]
        for other in (after, before):
            assert other.stage_counters == alone.stage_counters
            for table in ("stage1", "e2e"):
                for u in range(len(rates)):
                    for name in ("times", "peaks", "post_ages"):
                        a = getattr(getattr(alone, table)[u], name)
                        assert a.tobytes() == getattr(getattr(other, table)[u], name).tobytes()
        series, = qs.stage_series((LCFS,), rates[0], mu, horizon, seed)
        for name in ("times", "peaks", "post_ages"):
            assert getattr(series, name).tobytes() == getattr(alone.stage1[0], name).tobytes()

    @staticmethod
    def drawn(samples: qs.PaoiSamples) -> tuple:
        """What a run drew: every series array and counter, not the cell it was asked for."""
        series = [s for t in (samples.stage1, samples.e2e) for s in t.values()]
        return (_sha256(*(getattr(s, n) for s in series + [samples.compute_agg]
                          for n in ("times", "peaks", "post_ages"))),
                samples.stage_counters, samples.compute_arrivals, samples.compute_delivered,
                samples.compute_in_system)

    # a cell that differs from CELL in one field, run while CELL's runs are half read:
    # each of them is its own cell's fresh run, not one from the other cell's draws
    @pytest.mark.parametrize("other", [
        dict(rates=[0.5, 2.5, 4e3, 1e-9]), dict(mu=2.0), dict(mu_c=60.0), dict(horizon=1501.0),
        dict(seed=24)], ids=["rates", "stage-rate", "compute-rate", "horizon", "seed"])
    def test_draws_belong_to_one_cell(self, other):
        cells = dict(own=self.CELL, other={**self.CELL, **other})
        runs = {k: qs.cell_runs((FCFS, LCFS), *c.values()) for k, c in cells.items()}
        got = {(disc, k): next(runs[k]) for disc, k in ((FCFS, "own"), (FCFS, "other"),
                                                         (LCFS, "other"), (LCFS, "own"))}
        for disc in (FCFS, LCFS):
            for k, c in cells.items():
                fresh = qs.run(config(disc, c["mu"], c["mu_c"]), c["rates"], c["horizon"],
                               c["seed"])
                assert self.drawn(got[disc, k]) == self.drawn(fresh)
            assert self.drawn(got[disc, "own"]) != self.drawn(got[disc, "other"])

    @pytest.mark.parametrize("ratio", [0.5, 2.0, 4e3])
    def test_mean_peak_gap_is_the_identity(self, ratio):
        # one shared run; each user's FCFS - LCFS stage peaks, delivery by delivery,
        # have mean r^2 / (mu (r + mu)^2), and their batch means spread less than
        # those of two independent series would
        mu, horizon = 1.0, 6000.0
        fcfs, lcfs = self.paired([ratio * mu], mu, 50.0, horizon, 41)
        a, b = fcfs.stage1[0].peaks, lcfs.stage1[0].peaks
        t975 = qs.student_t_975(qs.BATCHES - 1)
        gap, alone_f, alone_l = (e.halfwidth / t975 for e in qs._estimate_avgs([a - b, a, b]))
        r = ratio * mu
        exact = r * r / (mu * (r + mu) ** 2)
        mean = float(np.mean(a - b))
        assert abs(mean - exact) <= 4.0 * gap, (mean, exact, gap)
        assert gap < math.hypot(alone_f, alone_l), (gap, alone_f, alone_l)


class TestThreeTermMap:
    """``stage_series`` peaks against the cycles it drew, redrawn here: the peak at
    delivery t is A(t - 2) + B(t - 1) + S(t), with B = max(S, E) and A = (S - E)+ for
    FCFS, or min(G, S - E) where E < S, else 0, for LCFS."""

    @staticmethod
    def redraw(rate, mu, horizon, seed):
        """The user's cycles, one block at a time until the start after a block passes
        the horizon, and the start times as the simulator sums them."""
        rng = qs._rng(seed, qs._ARRIVAL_TAG, 0)
        first, size, blocks = rng.exponential(1.0 / rate), qs._block_size(rate, mu, horizon), []
        while True:
            blocks.append([rng.exponential(1.0 / mu, size), rng.exponential(1.0 / rate, size)])
            s, e = (np.concatenate(c) for c in zip(*blocks))
            start = np.cumsum(np.concatenate([[first], np.maximum(s, e)[:-1]]))
            if start[-1] + max(s[-1], e[-1]) > horizon:
                return len(blocks), s, e, start

    @staticmethod
    def check(disc, rate, mu, horizon, seed):
        blocks, s, e, start = TestThreeTermMap.redraw(rate, mu, horizon, seed)
        series, = qs.stage_series((disc,), rate, mu, horizon, seed)
        done = start + s
        done = done[done <= horizon]   # done never decreases: a delivery ends by the next start
        first = done.size - len(series)
        assert first >= 2 and series.times.tobytes() == done[first:].tobytes()
        b = np.maximum(s, e)
        a = np.maximum(s - e, 0.0)
        if disc is LCFS:
            # G from the gap substream, one per delivered cycle whose next arrival
            # came before its end (E < S, as the times round), in cycle order
            ahead = np.flatnonzero((start + e < start + s)[:done.size])
            g = qs._rng(seed, qs._GAP_TAG, 0).exponential(1.0 / rate, ahead.size)
            a = np.zeros_like(s)
            a[ahead] = np.minimum(g, s[ahead] - e[ahead])
        t = np.arange(first, done.size)
        gap = np.abs(series.peaks - (a[t - 2] + b[t - 1] + s[t]))
        assert gap.max() <= 4 * np.spacing(horizon), gap.max() / np.spacing(horizon)
        return blocks

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 10.0, 4e3])
    def test_peaks_are_the_three_terms_of_the_drawn_cycles(self, disc, ratio):
        assert self.check(disc, ratio, 1.0, 2000.0, 3) == 1

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_peaks_are_the_three_terms_across_blocks(self, monkeypatch, disc):
        monkeypatch.setattr(qs, "_block_size", lambda *_: 50)
        assert self.check(disc, 2.0, 1.0, 400.0, 3) > 2


class TestSawtooth:
    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_peak_is_gap_plus_previous_system_time(self, disc):
        out = single_user_run(disc, 2.0, 1.0, 3000.0)
        s = out.stage1[0]
        gaps = np.diff(s.times)
        implied = gaps + s.post_ages[:-1]
        assert np.allclose(s.peaks[1:], implied, rtol=0, atol=1e-9)

    def test_peaks_strictly_positive(self):
        out = single_user_run(LCFS, 2.0, 1.0, 3000.0)
        assert np.all(out.stage1[0].peaks > 0)
        assert np.all(out.e2e[0].peaks > 0)


class TestAgainstClosedForms:
    @pytest.mark.parametrize("disc,expect", [
        (FCFS, 17.0 / 6.0),     # closed-form stage mean at (r=2, mu=1)
        (LCFS, 43.0 / 18.0),
    ])
    def test_stage_mean_converges(self, disc, expect):
        out = single_user_run(disc, 2.0, 1.0, 40000.0, seed=5)
        got = float(np.mean(out.stage1[0].peaks))
        assert got == pytest.approx(expect, rel=0.02)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("rate", [0.5, 2.0, 10.0])
    def test_stage_distribution_ks(self, disc, rate):
        stage = an.StageLaw(rate, 1.0, disc)
        horizon = 25000.0 / an.stage_throughput(rate, 1.0)
        out = single_user_run(disc, rate, 1.0, horizon, seed=7)
        ecdf = qs.empirical_cdf(out, 0, qs.Stage.STAGE1)
        assert ecdf.n > 15000
        d = qs.ks_distance(ecdf, an.cdf_reference(stage))
        assert d <= 0.02

    def test_saturated_stage_fast_and_accurate(self):
        out = single_user_run(FCFS, 1e4, 5.0, 2000.0, seed=13)
        got = float(np.mean(out.stage1[0].peaks))
        expect = an.avg_paoi_stage(an.StageLaw(1e4, 5.0, FCFS))
        assert got == pytest.approx(expect, rel=0.02)

    def test_poisson_fed_compute_queue_matches_corrected_formula(self, monkeypatch):
        # the compute queue alone, fed a Poisson stream at 75/s by one user; over seeds
        # 0-49 the largest error is 3.8% at a 2,000 s horizon and 1.2% at 20,000 s
        horizon, seed = 20000.0, 21
        times = np.cumsum(np.random.default_rng(seed).exponential(1.0 / 75.0, 1_600_000))
        assert times[-1] > horizon
        times = times[times <= horizon]
        # a stage that delivers that stream, each update generated on delivery
        monkeypatch.setattr(qs, "_simulate_stages", lambda *args: (
            times[None], times[None], [qs.UserCounters(deliveries=times.size)]))
        out = qs.run(config(mu_c=100.0), [75.0], horizon, seed)
        got = float(np.mean(out.compute_agg.peaks))
        expect = an.avg_paoi_compute(
            an.ComputeQueueLaw(75.0, 100.0, an.AvgMode.CORRECTED)).value
        assert got == pytest.approx(expect, rel=0.03)
        # one user whose updates are generated on arrival sees the aggregate stream
        assert np.array_equal(out.e2e[0].peaks, out.compute_agg.peaks)

    def test_tandem_compute_arrival_rate_below_service_sum(self):
        out = qs.run(config(FCFS, mu_u=1.0, mu_c=50.0), [2.0, 2.0, 2.0], 5000.0, 17)
        assert out.compute_arrival_rate <= 3.0 * 1.0 + 0.05
        gap = 3.0 - out.compute_arrival_rate
        assert gap > 0.05   # finite buffers throttle well below the service sum at rho = 2


class TestEndToEnd:
    def test_e2e_exceeds_stage_and_counts_match(self):
        out = qs.run(config(FCFS, mu_u=1.0, mu_c=25.0), [2.0], 20000.0, 23)
        assert float(np.mean(out.e2e[0].peaks)) > float(np.mean(out.stage1[0].peaks))
        # per-user deliveries at the compute output equal compute deliveries
        assert abs(len(out.e2e[0]) - len(out.stage1[0])) <= 2

    def test_compose_estimate_matches_parts(self):
        out = qs.run(config(FCFS, mu_u=1.0, mu_c=25.0), [2.0, 3.0], 8000.0, 29)
        est = qs.e2e_average_estimate(out)
        manual = sum(float(np.mean(out.stage1[u].peaks)) for u in (0, 1)) \
            + float(np.mean(out.compute_agg.peaks))
        assert est.mean == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_each_users_e2e_mean_is_stage_mean_plus_compute_sojourn(self, disc):
        # a user's end-to-end peak is its inter-delivery time plus the compute
        # sojourn of its previous update; stage departures leave in generation
        # order and the compute queue is FCFS, so by renewal-reward the mean is
        # the stage mean plus E[T_c] = 1 / (mu_c - lambda_c) (Burke's M/M/1)
        rates = sc.realize_rates(val._reference_scenario(mu_c=100.0))   # rho 0.75
        out = qs.run(config(disc, mu_u=5.0, mu_c=100.0), rates, 4000.0, 1)
        sojourn = 1.0 / (100.0 - sum(an.stage_throughput(float(r), 5.0) for r in rates))
        ests = qs._estimate_avgs([out.e2e[u].peaks for u in range(len(rates))])
        for u, (r, est) in enumerate(zip(rates, ests)):
            formula = an.avg_paoi_stage(an.StageLaw(float(r), 5.0, disc)) + sojourn
            assert abs(est.mean - formula) <= 2.0 * est.halfwidth, (u, est, formula)

    # the texts go verbatim into sweep.csv's error column; mu_c 1e-6 delivers no
    # compute job in 60 s, a user at 1e-3/s delivers fewer than two updates, and a
    # short user is reported ahead of a short compute aggregate
    @pytest.mark.parametrize("mu_c,rates,text", [
        (1e-6, [10.0, 10.0], "no compute-queue samples"),
        (1000.0, [10.0, 1e-3], "need at least two samples"),
        (1e-6, [10.0, 1e-3], "need at least two samples"),
    ])
    def test_estimate_error_texts(self, mu_c, rates, text):
        out = qs.run(config(FCFS, mu_u=5.0, mu_c=mu_c), rates, 60.0, 0)
        with pytest.raises(qs.EmptyDataError) as err:
            qs.e2e_average_estimate(out)
        assert str(err.value) == text


class TestEstimators:
    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(qs.EmptyDataError):
            qs.EmpiricalCdf([])
        for lengths in ([3, 0, 2], []):   # a segment without a sample, and no segment
            with pytest.raises(qs.EmptyDataError, match="every KS segment needs a sample"):
                qs.ks_segments(np.arange(5.0), lengths, lambda idx: idx / 5.0)

    def test_ks_zero_function_gives_one(self):
        f = qs.EmpiricalCdf(np.arange(1.0, 11.0))
        assert qs.ks_distance(f, lambda x: np.zeros_like(np.asarray(x))) == 1.0

    def test_ks_midpoint_match_hits_half_step_floor(self):
        n = 10
        pts = np.arange(1.0, n + 1)
        f = qs.EmpiricalCdf(pts)
        mid = lambda x: (np.searchsorted(pts, np.asarray(x), side="right") - 0.5) / n
        assert qs.ks_distance(f, mid) == pytest.approx(1.0 / (2 * n))

    def test_ks_pass_reads_every_point_when_every_term_ties(self):
        # F(x_i) = (i - 1/2)/n puts every term at 1/(2n), so no block between knots
        # can be passed over; each point is read once, a chunk at most per call
        n = 3 * qs._KS_CHUNK + 5
        pts = np.arange(1.0, n + 1)
        reads = []

        def mid(x):
            reads.append(x.copy())
            return (x - 0.5) / n
        f = qs.EmpiricalCdf(pts)
        assert qs.ks_distance(f, mid) == ref.ks_distance(f, lambda x: (x - 0.5) / n)
        assert max(r.size for r in reads) <= qs._KS_CHUNK
        assert np.array_equal(np.sort(np.concatenate(reads)), pts)

    def test_ks_pass_reads_a_fitting_sample_sparsely(self):
        # a sample of the CDF it is tested against deviates most at a few points;
        # the knots and the blocks next to them are a small share of the sample
        rng = np.random.default_rng(77)
        f = qs.EmpiricalCdf(rng.exponential(1.0, size=100_000))
        read = []

        def cdf(x):
            read.append(x.size)
            return -np.expm1(-x)
        assert qs.ks_distance(f, cdf) == ref.ks_distance(f, lambda x: -np.expm1(-x))
        assert sum(read) < 0.1 * f.n

    def test_ks_exponential_self_test(self):
        rng = np.random.default_rng(123)
        f = qs.EmpiricalCdf(rng.exponential(1.0, size=100000))
        d = qs.ks_distance(f, lambda x: -np.expm1(-np.asarray(x)))
        assert d <= 0.01

    def test_estimate_avg_constant(self):
        est, = qs._estimate_avgs([np.array([2.0, 2.0, 2.0, 2.0])])
        assert est.mean == 2.0
        assert est.halfwidth == 0.0

    def test_estimate_avg_alternating(self):
        est, = qs._estimate_avgs([np.array([1.0, 3.0] * 20)])
        assert est.mean == pytest.approx(2.0)

    def test_estimate_avg_needs_two(self):
        with pytest.raises(qs.EmptyDataError):
            qs._estimate_avgs([np.array([1.0])])


class TestExcursions:
    def series(self, times, peaks, posts):
        return qs.StageSeries(np.asarray(times, float), np.asarray(peaks, float),
                              np.asarray(posts, float))

    def test_level_above_all_peaks_is_empty(self):
        tr = self.series([1, 2, 3], [0.5, 1.0, 1.2], [0.2, 0.3, 0.2])
        stats = qs.excursion_severity(tr, 5.0)
        assert stats.exceedances.size == 0

    def test_single_peak_exceedance(self):
        tr = self.series([1.0, 4.0, 5.0], [0.5, 5.0, 1.0], [0.4, 0.5, 0.3])
        stats = qs.excursion_severity(tr, 3.0)
        assert stats.exceedances.tolist() == [2.0]

    def test_excursion_spanning_deliveries_takes_running_max(self):
        # age resets stay above the level, so two peaks form one excursion
        tr = self.series([1.0, 2.0, 3.0, 4.0],
                         [0.5, 4.0, 5.5, 4.2],
                         [0.4, 3.6, 3.5, 0.2])
        stats = qs.excursion_severity(tr, 3.0)
        assert stats.exceedances.tolist() == [2.5]

    def test_open_excursion_is_censored(self):
        tr = self.series([1.0, 2.0], [0.5, 9.0], [0.4, 8.0])
        stats = qs.excursion_severity(tr, 3.0)
        assert stats.exceedances.size == 0

    def test_simulated_excursions_positive(self):
        out = single_user_run(FCFS, 2.0, 1.0, 20000.0, seed=31)
        stats = qs.excursion_severity(out.stage1[0], 1.0)
        assert stats.exceedances.size > 0
        assert np.all(stats.exceedances > 0)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            qs.excursion_severity(self.series([1], [1], [1]), 0.0)


class TestExports:
    def test_samples_csv_schema(self, tmp_path):
        out = qs.run(config(), [2.0], 400.0, 37)
        path = tmp_path / "samples.csv"
        qs.write_samples_csv(path, [(0, out)])
        lines = path.read_text().splitlines()
        assert lines[0] == "replication,user,stage,delivery_time,paoi_seconds"
        assert any(",stage1," in ln for ln in lines[1:])
        assert any(",e2e," in ln for ln in lines[1:])
