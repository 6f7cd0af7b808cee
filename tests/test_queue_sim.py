"""Simulator tests: exactness against the closed forms, bookkeeping, estimators."""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

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
        alone = qs.stage_series(disc, 2.0 * ratio, 2.0, horizon, 5)
        full = qs.run(config(disc, mu_u=2.0), [2.0 * ratio], horizon, 5).stage1[0]
        assert len(alone) > 0
        for name in ("times", "peaks", "post_ages"):
            assert np.array_equal(getattr(alone, name), getattr(full, name))

    @pytest.mark.parametrize("rate,mu,horizon", [(0.0, 1.0, 10.0), (1.0, 0.0, 10.0),
                                                 (1.0, 1.0, 0.0)])
    def test_stage_series_domain_errors(self, rate, mu, horizon):
        with pytest.raises(ValueError):
            qs.stage_series(FCFS, rate, mu, horizon, 0)


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
        assert len(qs.stage_series(FCFS, 2.0, 1.0, 400.0, 5)) > 0
        (rng,) = spies
        assert rng.calls["standard_exponential"] == 2   # S and E of one block
        assert rng.calls["poisson"] == 0

    def test_fcfs_stage_series_draws_n_on_every_block_but_the_last(self, spies, monkeypatch):
        monkeypatch.setattr(qs, "_block_size", lambda *_: 7)
        qs.stage_series(FCFS, 2.0, 1.0, 400.0, 5)
        (rng,) = spies
        blocks = rng.calls["standard_exponential"] // 2
        assert blocks > 2 and rng.variates["poisson"] == 7 * (blocks - 1)

    def test_lcfs_stage_series_still_draws_n(self, spies):
        qs.stage_series(LCFS, 2.0, 1.0, 400.0, 5)
        (rng,) = spies
        assert rng.variates["poisson"] == rng.variates["random"] == qs._block_size(2.0, 1.0, 400.0)

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
            want = CountingRng(np.random.default_rng(
                np.random.SeedSequence(5, spawn_key=(qs._ARRIVAL_TAG, u))))
            ref._simulate_stage_one_user(rate, 1.0, 400.0, want, disc)
            got = spies[u]   # S and E come as standard draws times the scale, the same ones
            for name in ("poisson", "random"):
                assert (got.calls[name], got.variates[name]) == (want.calls[name], want.variates[name])
            assert got.rng.bit_generator.state == want.rng.bit_generator.state


class TiedRng:
    """``rng``, except that each exponential block after the first of a pair (a
    block's E after its S) repeats that S block's standard draws, halved in every
    other cycle: at rate == mu, half the cycles have E == S bit for bit."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.s_block = rng, None

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def _block(self, size):
        if self.s_block is None:
            self.s_block = self.rng.standard_exponential(size)
            return self.s_block
        x, self.s_block = self.s_block.copy(), None
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

    def tied():
        return TiedRng(qs._rng(4, qs._ARRIVAL_TAG, 0))

    done, gens, (counters,) = qs._simulate_stages((rate,), mu, 40.0, (tied(),), disc)
    want = ref._simulate_stage_blocks(rate, mu, 40.0, tied(), disc)
    d = counters.deliveries
    assert d > 20 and astuple(counters) == astuple(want[2])
    for a, b in zip((done[0, :d], gens[0, :d]), want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    alone, alone_gens, (d_alone,) = qs._simulate_stages((rate,), mu, 40.0, (tied(),), disc,
                                                        counted=False)
    assert d_alone == d
    assert np.array_equal(alone[0, :d], done[0, :d])
    assert np.array_equal(alone_gens[0, :d], gens[0, :d])


# sha256 of _simulate_stages's (departures, generation times) bytes and its
# counters (arrivals, deliveries, drops, preemptions, in system) at mu = 1,
# seed 17, as the simulator drew them before its temporaries were trimmed
GOLDEN_STAGE = {
    (FCFS, 0.5): ("1daea6ffb8c8fddf0ae0da2eac7b55e51d8c25d3bb4882dc633db4563352ffa5",
                  (2390, 2046, 343, 0, 1)),
    (FCFS, 2.0): ("522102af01ed304e0769557c2bc814157651be2e7e5e86f888ae6c20e5d672b1",
                  (10011, 4159, 5850, 0, 2)),
    (FCFS, 4000.0): ("24533e3ebedd1d1a9456fa9bd1ef4d24aa59e715d28f7e6c9960f7041a798ab3",
                     (8004797, 1932, 8002863, 0, 2)),
    (LCFS, 0.5): ("8a38f17c4175e10f4e5bbd2962b7dbbebdc2469782566621f11422e3303f64fe",
                  (2390, 2046, 0, 343, 1)),
    (LCFS, 2.0): ("35da4ff757e9fe5772e467e5a002d67efab5aad245a7b99241a66b5adc332a10",
                  (10011, 4159, 0, 5850, 2)),
    (LCFS, 4000.0): ("f02e99d62ce48f085bbb8c2fc65f366df10dcd537b7a74d994a0f3a99de22146",
                     (8004733, 1932, 0, 8002799, 2)),
}
# LCFS generation times take U ** (1/n) through numpy's float64 power, whose
# last bit depends on the CPU's SIMD loop (AVX-512 uses its own pow); this is
# the digest of a fixed power table on the CPU the LCFS digests were taken on
POW_TABLE_SHA256 = "779b1e849ace70ce6a65ab5fa619ca8e5d9839a9fe7661b80ed9364f126b2548"


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("disc,ratio", list(GOLDEN_STAGE))
def test_stage_draws_are_pinned(disc, ratio):
    # the sweep CSVs stay byte-identical only while every draw and its order do
    horizon = 2000.0 if ratio > 100 else 5000.0
    done, gens, (counters,) = qs._simulate_stages((ratio,), 1.0, horizon,
                                                  (qs._rng(17, qs._ARRIVAL_TAG, 0),), disc)
    done, gens = done[0, :counters.deliveries], gens[0, :counters.deliveries]
    digest, expected = GOLDEN_STAGE[disc, ratio]
    assert astuple(counters) == expected
    table = np.linspace(0.01, 0.99, 4096) ** (1.0 / np.arange(1, 4097))
    if disc is LCFS and _sha256(table) != POW_TABLE_SHA256:
        pytest.skip("numpy's float64 power rounds differently on this CPU")
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
# 462,064 cycles, 3.5 MiB per array.  Its FCFS stage series draws no N there, so
# it holds S, E and the start times, and then the departures, the generation times
# and the freshness series' two delivery arrays (12.55 MiB); LCFS draws N and adds
# its U draws and the survivors' shifts
@pytest.mark.parametrize("disc,limit_mib", [(FCFS, 13.5), (LCFS, 26)])
def test_severity_size_stage_run_peak_memory(disc, limit_mib):
    peak = traced_peak(lambda: qs.stage_series(disc, 2.0, 1.0, 420_000.0, 7))
    assert peak <= limit_mib * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


# the same run with its counters, as ``run`` makes it, holds four block arrays at
# its peak (S, E, the start times and N, drawn in slices over the Poisson means):
# 14.61 MiB; numpy's int64 draw over the whole block would be a fifth (17.64 MiB)
def test_counted_severity_size_stage_run_peak_memory():
    peak = traced_peak(lambda: qs._simulate_stages(
        (2.0,), 1.0, 420_000.0, (qs._rng(7, qs._ARRIVAL_TAG, 0),), FCFS))
    assert peak <= 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


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

    def test_poisson_fed_compute_queue_matches_corrected_formula(self):
        # the compute queue alone, fed a Poisson stream at 75/s by one user; over seeds
        # 0-49 the largest error is 3.8% at a 2,000 s horizon and 1.2% at 20,000 s
        horizon, seed = 20000.0, 21
        times = np.cumsum(np.random.default_rng(seed).exponential(1.0 / 75.0, 1_600_000))
        assert times[-1] > horizon
        times = times[times <= horizon]
        cfg = config(mu_c=100.0)
        out = qs.PaoiSamples(cfg, (75.0,), horizon, qs.WARMUP_FRACTION * horizon, seed)
        qs._simulate_compute(out, times, times, np.zeros(times.size, dtype=int), cfg,
                             horizon, out.warmup, seed)
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

    def test_ks_zero_function_gives_one(self):
        f = qs.EmpiricalCdf(np.arange(1.0, 11.0))
        assert qs.ks_distance(f, lambda x: np.zeros_like(np.asarray(x))) == 1.0

    def test_ks_midpoint_match_hits_half_step_floor(self):
        n = 10
        pts = np.arange(1.0, n + 1)
        f = qs.EmpiricalCdf(pts)
        mid = lambda x: (np.searchsorted(pts, np.asarray(x), side="right") - 0.5) / n
        assert qs.ks_distance(f, mid) == pytest.approx(1.0 / (2 * n))

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

    def test_excursions_csv_schema(self, tmp_path):
        out = single_user_run(FCFS, 2.0, 1.0, 5000.0)
        stats = qs.excursion_severity(out.stage1[0], 1.0)
        path = tmp_path / "exc.csv"
        qs.write_excursions_csv(path, [(0, stats)])
        lines = path.read_text().splitlines()
        assert lines[0] == "replication,ruin_level,exceedance"
        assert len(lines) == 1 + len(stats.exceedances)
