"""The array simulator against the scalar reference loops.

``sim_reference`` holds the event-by-event loops the array code replaced.
The stage queue is drawn differently (i.i.d. service cycles from one
substream per user, against arrivals and services event by event from
two), so at the stage level the two must agree in distribution: a
two-sample KS test on the pooled peaks and the per-user delivery and loss
rates, over fixed seeds.  Everything downstream of the stage departures is
deterministic, so when both simulators are fed the reference loop's
departures every sample array, counter and exceedance must be equal bit
for bit, not within a tolerance.  The compute queue's array kernel is also
checked on its own against the scalar Lindley recursion, bit for bit, on
inputs chosen to reach each of its paths.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

import sim_reference as ref
from thzaoi import aoi_analytic as an
from thzaoi import queue_sim as qs

FCFS = an.Discipline.FCFS_MM12
LCFS = an.Discipline.LCFS_MM12_STAR
FIELDS = ("times", "peaks", "post_ages")


def assert_series_equal(got: qs.StageSeries, want: qs.StageSeries):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def assert_runs_equal(got: qs.PaoiSamples, want: qs.PaoiSamples):
    for table in ("stage1", "e2e"):
        a, b = getattr(got, table), getattr(want, table)
        assert sorted(a) == sorted(b), table
        for u in b:
            assert_series_equal(a[u], b[u])
    assert_series_equal(got.compute_agg, want.compute_agg)
    assert got.stage_counters == want.stage_counters
    for name in ("compute_arrivals", "compute_delivered", "compute_in_system",
                 "compute_arrival_rate"):
        assert getattr(got, name) == getattr(want, name), name


# ---------------------------------------------------------------------------
# the stage queue: equal in distribution

MU = 2.0
SEEDS = range(20)


def stage_runs(sim, disc, rates, horizon):
    return [sim.run(qs.QueueConfig(disc, MU, 40.0), rates, horizon, seed) for seed in SEEDS]


def mean_and_se(values):
    x = np.asarray(values, dtype=float)
    return x.mean(), x.std(ddof=1) / math.sqrt(x.size)


@pytest.mark.parametrize("r_over_mu", [0.5, 2.0, 4e3])
@pytest.mark.parametrize("disc", [FCFS, LCFS])
def test_stage_matches_the_reference_in_distribution(disc, r_over_mu):
    rates = [r_over_mu * MU, 0.7 * r_over_mu * MU]
    horizon = 1000.0
    got, want = (stage_runs(sim, disc, rates, horizon) for sim in (qs, ref))
    loss = "preemptions" if disc is LCFS else "drops"
    for u in range(len(rates)):
        a = np.concatenate([out.stage1[u].peaks for out in got])
        b = np.concatenate([out.stage1[u].peaks for out in want])
        assert min(a.size, b.size) > 10_000
        assert sps.ks_2samp(a, b).pvalue > 1e-3, (u, sps.ks_2samp(a, b))
        for name in ("deliveries", loss):
            (m_a, se_a), (m_b, se_b) = (
                mean_and_se([getattr(out.stage_counters[u], name) / horizon for out in runs])
                for runs in (got, want))
            assert abs(m_a - m_b) <= 3 * math.hypot(se_a, se_b), (u, name, m_a, m_b)
        for out in got:
            c = out.stage_counters[u]
            assert c.arrivals == c.deliveries + c.drops + c.preemptions + c.in_system
            assert (c.drops if disc is LCFS else c.preemptions) == 0


# ---------------------------------------------------------------------------
# downstream of the stage departures: equal bit for bit

def both(monkeypatch, config, rates, horizon, seed):
    """Both simulators on the reference stage loop's departures.

    ``qs.run`` hands the stage stack every user's arrival substream, users
    in order; the stand-in adds each user's service substream, runs the
    reference loop on the two, as ``ref.run`` does, and lays the users'
    departures out as the stack does, one zero-padded row per user.
    """
    def reference_stages(rates, mu, horizon, arr_rngs, discipline):
        runs = [ref._simulate_stage(rate, mu, horizon, arr_rng,
                                    qs._rng(seed, ref._STAGE_SVC_TAG, u), discipline)
                for u, (rate, arr_rng) in enumerate(zip(rates, arr_rngs))]
        d = np.array([len(t) for t, *_ in runs])
        done, gens = np.zeros((len(runs), d.max())), np.zeros((len(runs), d.max()))
        for done_u, gens_u, (t, g, _, _) in zip(done, gens, runs):
            done_u[:len(t)], gens_u[:len(g)] = t, g
        return done, gens, [c for _, _, c, _ in runs]

    monkeypatch.setattr(qs, "_simulate_stages", reference_stages)
    return qs.run(config, rates, horizon, seed), ref.run(config, rates, horizon, seed)


# a compute queue that rarely holds a job, and one the faster stages overload
@pytest.mark.parametrize("mu_c", [40.0, 3.0])
@pytest.mark.parametrize("r_over_mu", [1e-3, 0.5, 2.0, 10.0, 4e3])
@pytest.mark.parametrize("disc", [FCFS, LCFS])
def test_sample_paths_match_the_reference(monkeypatch, disc, r_over_mu, mu_c):
    mu = 2.0
    # the last user is too slow to deliver anything within the horizon
    rates = [r_over_mu * mu, 0.7 * r_over_mu * mu, 1e-9]
    got, want = both(monkeypatch, qs.QueueConfig(disc, mu, mu_c), rates, 400.0, 5)
    assert want.stage_counters[2].deliveries == 0
    assert_runs_equal(got, want)
    for u in range(len(rates)):
        for level in (0.5, 1.0, 2.0):
            a = qs.excursion_severity(got.stage1[u], level).exceedances
            b = ref.excursion_severity(want.stage1[u], level).exceedances
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("disc", [FCFS, LCFS])
def test_overloaded_compute_queue_matches(monkeypatch, disc):
    # six stages deliver about 5.5/s into a compute queue that serves 2.5/s
    got, want = both(monkeypatch, qs.QueueConfig(disc, 1.0, 2.5), [3.0] * 6, 600.0, 8)
    assert want.compute_in_system > 100
    assert_runs_equal(got, want)


def test_long_horizon_matches(monkeypatch):
    # long runs are where a reordered Lindley sum would drift in the last bits
    got, want = both(monkeypatch, qs.QueueConfig(FCFS, 1.0, 3.0), [2.0, 0.4], 40_000.0, 12)
    assert want.compute_delivered > 30_000
    assert_runs_equal(got, want)


def test_delivery_at_the_warmup_instant_is_kept():
    warmup = 2.0
    times = np.array([0.5, 1.5, 2.0, 3.5, 4.0])
    gens = np.array([0.1, 1.0, 1.25, 3.0, 3.75])
    triples = [(t, t - g0, t - g1) for t, g0, g1 in zip(times[1:], gens[:-1], gens[1:])]
    got, = qs._freshness_series(times, gens, (0,), (times.size,), warmup)
    assert_series_equal(got, ref._series_from_triples(triples, warmup))
    assert got.times[0] == warmup


@pytest.mark.parametrize("size", [0, 1])
def test_fewer_than_two_deliveries_give_an_empty_series(size):
    got, = qs._freshness_series(np.arange(size, dtype=float), np.zeros(size), (0,), (size,), 0.0)
    assert len(got) == 0
    assert_series_equal(got, ref._freshness_series_masked(np.arange(size, dtype=float),
                                                          np.zeros(size), 0.0))


@pytest.mark.parametrize("seed", range(20))
def test_freshness_series_is_the_masked_form(seed):
    # segments of sorted times on a coarse grid, so ties and deliveries exactly at
    # the warmup instant are common; some warmups fall before or after them all,
    # and gaps between the segments hold numbers no segment reads
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, 60, int(rng.integers(1, 5)))
    gaps = rng.integers(0, 3, sizes.size)
    hi = np.cumsum(sizes + gaps)
    lo = hi - sizes
    times, arrived = rng.random(int(hi[-1])), rng.random(int(hi[-1]))
    for a, b in zip(lo, hi):
        times[a:b] = np.sort(rng.integers(0, 20, b - a)).astype(float)
        arrived[a:b] = times[a:b] - rng.random(b - a)
    warmup = float(rng.integers(-2, 23))
    got = qs._freshness_series(times, arrived, lo.tolist(), hi.tolist(), warmup)
    assert len(got) == sizes.size
    for series_, a, b in zip(got, lo, hi):
        assert_series_equal(series_, ref._freshness_series_masked(times[a:b], arrived[a:b], warmup))


def series(peaks, post_ages):
    peaks = np.asarray(peaks, dtype=float)
    return qs.StageSeries(np.arange(peaks.size, dtype=float), peaks,
                          np.asarray(post_ages, dtype=float))


@pytest.mark.parametrize("peaks,post_ages,expected", [
    ([], [], []),                                         # empty trace
    ([5.0], [0.1], []),                                   # the first delivery only sets the age
    ([9.0, 0.5], [0.2, 0.1], []),
    ([0.5, 3.0, 0.5], [0.2, 0.5, 0.2], [2.0]),            # opens and closes at one delivery
    ([0.5, 3.0, 4.0], [0.2, 2.0, 3.0], []),               # censored tail
    ([0.5, 3.0, 0.5, 5.0, 6.0], [0.2, 0.5, 0.2, 2.0, 3.0], [2.0]),
    ([0.5, 1.0, 0.5], [0.2, 0.5, 0.2], []),               # peak equal to the level
    ([0.5, 3.0, 2.5, 0.8], [0.2, 1.0, 0.5, 0.3], [2.0]),  # post-age equal to the level
    ([0.5, 0.6, 3.0, 0.7], [0.1, 0.2, 0.3, 0.1], [2.0]),  # a close with no excursion open
    ([0.5, 2.0, 4.0, 3.0, 1.5, 0.2], [0.1, 1.5, 2.0, 0.5, 0.3, 0.1], [3.0, 0.5]),
])
def test_excursion_edge_cases(peaks, post_ages, expected):
    trace = series(peaks, post_ages)
    got = qs.excursion_severity(trace, 1.0).exceedances
    want = ref.excursion_severity(trace, 1.0).exceedances
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert got.tolist() == expected


def test_excursions_on_coarse_grids_match():
    # values on a grid of halves hit the level exactly, often
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(0, 40))
        trace = series(rng.integers(0, 6, n) / 2.0, rng.integers(0, 6, n) / 2.0)
        for level in (0.5, 1.0, 1.5, 2.5):
            got = qs.excursion_severity(trace, level).exceedances
            assert np.array_equal(got, ref.excursion_severity(trace, level).exceedances)


OPEN_TAIL = ([0.5, 3.0, 0.5, 5.0], [0.2, 0.5, 0.2, 3.0])   # one excursion, then censored
POOLED_CASES = [
    # the open tail does not close at the next trace's first delivery, nor in it
    ([OPEN_TAIL, ([9.0, 0.5], [0.2, 0.1])], [2.0]),
    ([OPEN_TAIL, ([9.0, 4.0, 0.5], [5.0, 2.0, 0.1])], [2.0, 3.0]),
    # a first post-age below the level opens a trace, closing nothing before it
    ([OPEN_TAIL, ([9.0, 3.0, 0.5], [0.2, 2.0, 0.1])], [2.0, 2.0]),
    # empty and one-delivery traces between others
    ([OPEN_TAIL, ([], []), ([7.0], [0.1]), ([], []), ([0.5, 2.5, 0.5], [0.2, 2.0, 0.3])],
     [2.0, 1.5]),
    ([([], []), ([7.0], [0.1]), ([6.0], [5.0]), ([0.5, 2.5, 0.5], [0.2, 2.0, 0.3]), ([], [])],
     [1.5]),
    ([([], []), ([7.0], [0.1])], []),
]


def assert_pooled_excursions(traces, level):
    got = qs.exceedances(traces, level)
    want = [ref.excursion_severity(t, level).exceedances for t in traces]
    assert got.dtype == np.float64 and np.array_equal(got, np.concatenate(want))
    return got.tolist()


def test_pooled_excursions_are_each_traces_own_end_to_end():
    for traces, expected in POOLED_CASES:
        assert assert_pooled_excursions([series(*t) for t in traces], 1.0) == expected
    # several traces at once, some empty or of one delivery, on the coarse grid
    rng = np.random.default_rng(9)
    for _ in range(50):
        traces = [series(rng.integers(0, 6, n) / 2.0, rng.integers(0, 6, n) / 2.0)
                  for n in rng.integers(0, 30, int(rng.integers(1, 6)))]
        for level in (0.5, 1.0, 2.5):
            assert_pooled_excursions(traces, level)


# ---------------------------------------------------------------------------
# the compute queue's busy-period sums against the scalar recursion, bit for bit

def lindley(times, service):
    """The scalar recursion ``_departures`` replaces, in the loop's order."""
    done, last = [], 0.0
    for a, s in zip(np.asarray(times, dtype=float).tolist(),
                    np.asarray(service, dtype=float).tolist()):
        last = (a if a > last else last) + s
        done.append(last)
    return done


def assert_departures_exact(times, service):
    times, service = np.asarray(times, dtype=float), np.asarray(service, dtype=float)
    got = qs._departures(times, service)
    assert got.dtype == np.float64
    assert got.tolist() == lindley(times, service)
    return got


def period_starts(times, done):
    """Jobs after the first that find the server idle."""
    return int(np.count_nonzero(np.asarray(times[1:]) > np.asarray(done[:-1])))


def test_ties_on_an_integer_grid():
    rng = np.random.default_rng(21)
    times = np.cumsum(rng.integers(0, 4, 2000)).astype(float)
    service = rng.integers(0, 3, 2000).astype(float)
    done = assert_departures_exact(times, service)
    assert np.count_nonzero(times[1:] == done[:-1]) > 300   # arrivals exactly at a completion
    assert period_starts(times, done) > 300


@pytest.mark.parametrize("times,service", [
    ([], []),
    ([0.0], [0.0]),
    ([2.5], [0.1]),
    ([0.0], [0.3]),
])
def test_no_job_and_one_job(times, service):
    assert_departures_exact(times, service)


def test_no_job_before_the_first_stage_arrival(monkeypatch):
    config = qs.QueueConfig(FCFS, 2.0, 40.0)
    rates, seed = [3.0, 1.0], 4
    # each user's first arrival is the first draw of its arrival substream;
    # stop before the earliest of them
    first = min(qs._rng(seed, qs._ARRIVAL_TAG, u).exponential(1.0 / r)
                for u, r in enumerate(rates))
    got, want = both(monkeypatch, config, rates, first / 2, seed)
    assert all(c.arrivals == 0 for c in want.stage_counters.values())
    assert want.compute_arrivals == 0
    assert_runs_equal(got, want)


@pytest.mark.parametrize("job", [0, 7, 300])
def test_completion_exactly_at_the_horizon_is_delivered(job):
    config = qs.QueueConfig(FCFS, 1.0, 3.0)
    seed = 6
    rng = np.random.default_rng(8)
    times = np.cumsum(rng.exponential(0.4, 600))
    gens = times - rng.uniform(0.0, 0.5, times.size)
    users = rng.integers(0, 2, times.size)
    service = qs._rng(seed, qs._COMPUTE_SVC_TAG, 0).exponential(1.0 / 3.0, times.size)
    done = assert_departures_exact(times, service)
    horizon = float(done[job])
    assert done[job + 1] > horizon
    got, want = (qs.PaoiSamples(config, (1.0, 1.0), horizon, 0.0, seed) for _ in range(2))
    qs._simulate_compute(got, times, gens, users, config, horizon, 0.0, seed)
    ref._simulate_compute(want, times, gens, users, config, horizon, 0.0, seed)
    assert got.compute_delivered == job + 1
    assert_runs_equal(got, want)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_busy_periods_around_the_stepwise_limit(extra):
    # batches of jobs that arrive together, each batch one busy period
    limit = qs._STEPWISE_MAX
    lengths = [limit + extra, 1, limit + extra, 2, limit + extra, limit - 1, limit + 1, limit]
    rng = np.random.default_rng(limit + extra)
    times = np.repeat(100.0 * np.arange(len(lengths)) + 0.1, lengths)
    service = rng.exponential(0.7, times.size)
    done = assert_departures_exact(times, service)
    assert period_starts(times, done) == len(lengths) - 1


def test_one_busy_period_spans_the_run():
    # longer than a window, so the period is summed in several pieces
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.exponential(1.0, 50_000))
    service = rng.exponential(2.0, times.size)   # load 2
    done = assert_departures_exact(times, service)
    assert period_starts(times, done) == 0


@pytest.mark.parametrize("rho", [0.01, 0.7, 0.99, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_loads(rho, seed):
    rng = np.random.default_rng([seed, int(100 * rho)])
    times = np.cumsum(rng.exponential(1.0, 20_000))
    assert_departures_exact(times, rng.exponential(rho, times.size))


def test_near_ties_on_a_decimal_grid():
    # sums of tenths land within an ulp of each other, where the guess at
    # the period starts is as often wrong as right
    rng = np.random.default_rng(9)
    times = np.cumsum(np.round(rng.uniform(0.0, 1.0, 5000), 1))
    assert_departures_exact(times, np.round(rng.uniform(0.0, 0.9, times.size), 1))


@pytest.mark.parametrize("window", [1, 2, 7, 1000])
@pytest.mark.parametrize("rho", [0.7, 2.0])
def test_windows_split_busy_periods(monkeypatch, window, rho):
    monkeypatch.setattr(qs, "_WINDOW", window)
    rng = np.random.default_rng(window)
    times = np.cumsum(rng.exponential(1.0, 3000))
    assert_departures_exact(times, rng.exponential(rho, times.size))


@pytest.mark.parametrize("times,service,expected", [
    # the guess frees the server one ulp late: the third job opens a period after all
    ([0.6, 0.6, 1.0], [0.3, 0.1, 0.1], [0.8999999999999999, 0.9999999999999999, 1.1]),
    # the guess frees the server one ulp early: the third job still waits
    ([0.2, 0.5, 0.9], [0.4, 0.3, 0.3],
     [0.6000000000000001, 0.9000000000000001, 1.2000000000000002]),
])
def test_misjudged_period_starts_are_repaired(times, service, expected):
    assert assert_departures_exact(times, service).tolist() == expected
