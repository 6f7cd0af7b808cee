"""Simulator tests: exactness against the closed forms, bookkeeping, estimators."""


import numpy as np
import pytest

from thzaoi import aoi_analytic as an
from thzaoi import queue_sim as qs

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
        # the compute queue alone, fed a Poisson stream at 75/s by one user
        horizon, seed = 2000.0, 21
        times = np.cumsum(np.random.default_rng(seed).exponential(1.0 / 75.0, 160_000))
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


class TestEstimators:
    def test_empirical_cdf_single_point(self):
        f = qs.EmpiricalCdf([3.0])
        assert f(2.999) == 0.0
        assert f(3.0) == 1.0
        assert f(10.0) == 1.0

    def test_empirical_cdf_two_points(self):
        f = qs.EmpiricalCdf([1.0, 2.0])
        assert f(1.5) == 0.5
        assert f(2.0) == 1.0

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
        est = qs.estimate_avg([2.0, 2.0, 2.0, 2.0])
        assert est.mean == 2.0
        assert est.halfwidth == 0.0

    def test_estimate_avg_alternating(self):
        est = qs.estimate_avg([1.0, 3.0] * 20)
        assert est.mean == pytest.approx(2.0)

    def test_estimate_avg_needs_two(self):
        with pytest.raises(qs.EmptyDataError):
            qs.estimate_avg([1.0])


class TestExcursions:
    def series(self, times, peaks, posts):
        return qs.StageSeries(np.asarray(times, float), np.asarray(peaks, float),
                              np.asarray(posts, float))

    def test_level_above_all_peaks_is_empty(self):
        tr = self.series([1, 2, 3], [0.5, 1.0, 1.2], [0.2, 0.3, 0.2])
        stats = qs.excursion_severity(tr, 5.0)
        assert stats.is_empty

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
        assert stats.is_empty

    def test_simulated_excursions_positive(self):
        out = single_user_run(FCFS, 2.0, 1.0, 20000.0, seed=31)
        stats = qs.excursion_severity(out.stage1[0], 1.0)
        assert not stats.is_empty
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
