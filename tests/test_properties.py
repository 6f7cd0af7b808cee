"""Property tests: stage kernels and simulator bookkeeping over wide rate ranges,
the config boundary over malformed numbers, and NaN at every positivity check
(and infinities where a rate or horizon must be finite).

r/mu is drawn log-uniformly over [1e-3, 1e5], from lightly loaded stages to
the saturated ones the THz link budget produces.  Examples are derandomized
so every run draws the same cases.
"""

import copy
import functools
import io
import json
import math
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

import sim_reference as ref
from thzaoi import aoi_analytic as an
from thzaoi import cli
from thzaoi import queue_sim as qs
from thzaoi import scenario as sc
from thzaoi import thz_link as tl


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


RATIO = log_uniform(1e-3, 1e5)
MU = log_uniform(1e-2, 1e2)
DISCIPLINE = st.sampled_from(list(an.Discipline))
# ages in units of the slower of the two stage time scales
AGES = st.lists(log_uniform(1e-4, 1e4), min_size=1, max_size=12)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def stage_and_ages(ratio, mu, disc, ages):
    law = an.StageLaw(ratio * mu, mu, disc)
    scaled = np.sort(np.asarray(ages)) / min(law.update_rate, mu)
    return law, np.concatenate([[0.0], scaled])


@PROPERTY
@given(RATIO, MU, DISCIPLINE, AGES)
def test_reference_cdf_is_a_cdf(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    cdf = an.cdf_reference(law)(a)
    assert np.all(np.isfinite(cdf))
    assert np.all(cdf >= -1e-12) and np.all(cdf <= 1.0 + 1e-12)
    assert np.all(np.diff(cdf) >= -1e-12)


@PROPERTY
@given(RATIO, MU, DISCIPLINE, AGES)
def test_density_is_finite_and_non_negative(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    pdf = an.pdf_paoi(law, a)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)


@PROPERTY
@given(log_uniform(1e-2, 5e3), st.sampled_from([1.0, 5.0]), DISCIPLINE, AGES)
def test_quadrature_matches_the_reference_cdf(ratio, mu, disc, ages):
    law, a = stage_and_ages(ratio, mu, disc, ages)
    quad = an._quad_pdf(law, a)
    assert np.max(np.abs(quad - an.cdf_reference(law)(a))) <= 1e-12


def test_negative_float_age_is_rejected():
    with pytest.raises(ValueError):
        an._check_age(-1.0)
    with pytest.raises(ValueError):
        an.pdf_paoi(an.StageLaw(2.0, 1.0), -1.0)
    for disc in an.Discipline:
        with pytest.raises(ValueError):
            an.cdf_reference(an.StageLaw(2.0, 1.0, disc))(-1.0)


NAN = math.nan
FCFS = an.Discipline.FCFS_MM12
LCFS = an.Discipline.LCFS_MM12_STAR
LINK = dict(bandwidth_hz=1e10, carrier_hz=1e12, tx_power_w=1.0, absorption_per_m=0.0016,
            temperature_k=300.0, meta_surfaces=100, image_size_bits=1e7)


def sweep(ruin=1.0, z=3.0, horizon=100.0):
    base = sc.Scenario(sc.Room(), 1, tl.LinkParams(**LINK), qs.QueueConfig(FCFS, 5.0, 100.0), 0)
    return sc.Sweep(sc.SweepVariable.NUM_USERS, (1.0,), 1, base, ruin, z, horizon, 0)


# the stage law and the simulator also take no infinity, which `x > 0` lets through
# to a wrong CDF, a float-to-integer conversion or numpy's Poisson: (id, a build
# from the bad number, message)
FINITE_SITES = [
    ("stage-rate", lambda x: an.StageLaw(x, 1.0), "rates must be strictly positive"),
    ("stage-mu", lambda x: an.StageLaw(2.0, x), "rates must be strictly positive"),
    ("queue-mu-u", lambda x: qs.QueueConfig(FCFS, x, 1.0), "service rates must be strictly positive"),
    ("queue-mu-c", lambda x: qs.QueueConfig(FCFS, 1.0, x), "service rates must be strictly positive"),
    ("run-rate", lambda x: qs.run(qs.QueueConfig(FCFS, 1.0, 50.0), [2.0, x], 100.0, 0),
     "update rates must be strictly positive"),
    ("run-horizon", lambda x: qs.run(qs.QueueConfig(FCFS, 1.0, 50.0), [2.0], x, 0),
     "horizon must be strictly positive"),
    ("series-rate", lambda x: qs.stage_series((FCFS,), x, 1.0, 100.0, 0), "rates and horizon must be"),
    ("series-mu", lambda x: qs.stage_series((FCFS,), 2.0, x, 100.0, 0), "rates and horizon must be"),
    ("series-horizon", lambda x: qs.stage_series((FCFS,), 2.0, 1.0, x, 0), "rates and horizon must be"),
    ("compute-lambda", lambda x: an.ComputeQueueLaw(x, 1.0),
     "rates must be strictly positive and finite"),
    ("compute-mu", lambda x: an.ComputeQueueLaw(1.0, x),
     "rates must be strictly positive and finite"),
]
BAD_NUMBERS = {"": NAN, "-inf": math.inf, "-neg-inf": -math.inf}
# each age check, whose message must name a NaN age: (id, a build from a NaN age)
AGE_SITES = [
    ("pdf-age", lambda: an.pdf_paoi(an.StageLaw(2.0, 1.0), NAN)),
    *[(f"cdf-age-{source.value}", functools.partial(an.cdf_paoi, an.StageLaw(2.0, 1.0), NAN, source))
      for source in an.CdfSource],
    *[(f"reference-age-{disc.value}",
       functools.partial(lambda d: an.cdf_reference(an.StageLaw(2.0, 1.0, d))([1.0, NAN]), disc))
      for disc in an.Discipline],
    ("quad-grid", lambda: an._quad_pdf(an.StageLaw(2.0, 1.0), [0.0, NAN])),
]


# NaN compares false, so `x <= 0` lets it through; each site's own message must
# name the rejection, not a later failure such as a NaN-to-integer conversion
@pytest.mark.parametrize("build,message", [
    (functools.partial(build, bad), message)
    for _, build, message in FINITE_SITES for bad in BAD_NUMBERS.values()] + [
    (lambda: qs.excursion_severity(next(qs.stage_series((FCFS,), 2.0, 1.0, 100.0, 0)), NAN),
     "ruin level must be strictly positive"),
    (lambda: sc.Room(NAN), "side_length must be strictly positive"),
    (lambda: sweep(ruin=NAN), "ruin_level must be strictly positive"),
    (lambda: sweep(z=NAN), "threshold and horizon must be strictly positive"),
    (lambda: sweep(horizon=NAN), "threshold and horizon must be strictly positive"),
    (lambda: tl.LinkParams(**{**LINK, "carrier_hz": NAN}), "carrier_hz must be strictly positive"),
    (lambda: tl.LinkParams(**{**LINK, "meta_surfaces": NAN}), "meta_surfaces must be a positive"),
    (lambda: tl.channel_gain(NAN, tl.LinkParams(**LINK)), "distance must be strictly positive"),
    (lambda: tl.ris_array_gain(NAN), "meta-surface count must be >= 1"),
    (lambda: tl.update_rate(NAN, tl.LinkParams(**LINK)), "rate must be non-negative"),
] + [(build, "age must be non-negative") for _, build in AGE_SITES],
    ids=[site + suffix for site, _, _ in FINITE_SITES for suffix in BAD_NUMBERS] + [
        "excursion", "room", "sweep-ruin", "sweep-z", "sweep-horizon", "link-carrier",
        "link-surfaces", "channel-gain", "array-gain", "update-rate"] + [site for site, _ in AGE_SITES])
def test_nan_fails_each_positivity_check(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@PROPERTY
@given(RATIO, MU)
def test_throughput_is_positive_and_below_the_service_rate(ratio, mu):
    assert 0.0 < an.stage_throughput(ratio * mu, mu) < mu


# the stage laws of the two paper-claims identities below: r/mu from lightly loaded
# to THz-saturated stages, service rates around the shipped 5/s
CLAIM_RATIO = log_uniform(1e-3, 1e4)
CLAIM_MU = log_uniform(1e-1, 1e1)


@PROPERTY
@given(CLAIM_RATIO, CLAIM_MU)
def test_fcfs_mean_exceeds_lcfs_by_the_closed_gap(ratio, mu):
    # the two closed means differ by r^2 / (mu (r + mu)^2) >= 0: LCFS has the lower
    # average peak age at every load
    r = ratio * mu
    fcfs = an.avg_paoi_stage(an.StageLaw(r, mu))
    lcfs = an.avg_paoi_stage(an.StageLaw(r, mu, an.Discipline.LCFS_MM12_STAR))
    gap_err = abs(fcfs - lcfs - r * r / (mu * (r + mu) ** 2)) / fcfs
    target(gap_err, label="relative gap error")
    assert fcfs >= lcfs and gap_err <= 1e-12


SYSTEMS = st.sampled_from([1, 3]).flatmap(lambda n: st.lists(
    st.builds(lambda ratio, mu, disc: an.StageLaw(ratio * mu, mu, disc),
              CLAIM_RATIO, CLAIM_MU, DISCIPLINE), min_size=n, max_size=n))


@PROPERTY
@given(SYSTEMS, log_uniform(1e-6, 1e3), log_uniform(1e-6, 1e3))
def test_published_severity_readings_leave_the_unit_interval(stages, a, z):
    sys_law = an.SystemLaw(tuple(stages))
    # a and z in units of the slowest stage's time scale
    scale = max(1.0 / min(s.update_rate, s.service_rate) for s in stages)
    a, z = a * scale, z * scale
    f_a, f_z = (an.system_cdf(sys_law, x).value for x in (a, z))
    assume(1.0 - f_a >= 1e-6 and f_z >= 1e-6)
    pair = an.severity_both_modes(sys_law, a, z)
    # survival J = G_a(z) / F(z), G_a(z) = [F(a+z) - F(a)] / [1 - F(a)], is at least 1:
    # both stage laws, and so their maximum, are new-better-than-used
    survival = pair[an.PsiMode.SURVIVAL].value
    target(-survival, label="survival J, negated")
    assert survival >= 1.0 - 1e-6
    # as-written J = [F(a) - F(a+z)] / [F(a) (1 - F(z))] <= 0 for any CDF, read where
    # its denominator's factors are at least 1e-6 too, as the survival ones are: the
    # reference CDF rounds to 0 or -2e-16 where the true one is below 1e-16, and to 1
    if f_a >= 1e-6 and 1.0 - f_z >= 1e-6:
        written = pair[an.PsiMode.AS_WRITTEN_CDF].value
        target(written, label="as-written J")
        assert written <= 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(RATIO, min_size=1, max_size=3), DISCIPLINE,
       st.floats(1.0, 200.0), st.integers(0, 2 ** 32 - 1))
def test_simulator_accounts_for_every_packet(ratios, disc, horizon, seed):
    out = qs.run(qs.QueueConfig(disc, 1.0, 10.0), ratios, horizon, seed)
    for c in out.stage_counters.values():
        assert c.arrivals == c.deliveries + c.drops + c.preemptions + c.in_system
        assert 0 <= c.in_system <= 2
    assert out.compute_arrivals == out.compute_delivered + out.compute_in_system
    again = qs.run(qs.QueueConfig(disc, 1.0, 10.0), ratios, horizon, seed)
    assert again.stage_counters == out.stage_counters
    for u in out.stage1:
        for a, b in ((again.stage1[u], out.stage1[u]), (again.e2e[u], out.e2e[u])):
            assert all(getattr(a, f).tobytes() == getattr(b, f).tobytes()
                       for f in ("times", "peaks", "post_ages"))


@PROPERTY
@given(CLAIM_RATIO, CLAIM_MU, DISCIPLINE, log_uniform(1e-1, 2e3),
       st.one_of(st.none(), st.integers(1, 400)), st.integers(0, 2 ** 32 - 1))
def test_in_place_stage_draws_what_the_block_copies_drew(ratio, mu, disc, services,
                                                         block, seed):
    # horizons from a tenth of a service to 2,000 of them; a patched block size of
    # a few cycles makes both simulators concatenate many blocks.  The block copy
    # also drew a Poisson count and a uniform per cycle, so its later blocks come
    # from other stream positions; the first block's S and E are the same draws
    rate, horizon = ratio * mu, services / min(ratio * mu, mu)
    with mock.patch.object(qs, "_block_size", lambda *_: block) if block else nullcontext():
        done, gens, (counters,) = qs._simulate_stages(
            (rate,), mu, horizon, qs.CellDraws(seed, (qs._rng(seed, qs._ARRIVAL_TAG, 0),)), disc)
        want = ref._simulate_stage_blocks(rate, mu, horizon,
                                          qs._rng(seed, qs._ARRIVAL_TAG, 0), disc)
        first = qs._block_size(rate, mu, horizon)
    # departure t ends cycle t, and its generation time was read off cycle t - 1
    m = min(counters.deliveries, want[2].deliveries, first)
    kept = (done, gens) if disc is FCFS else (done,)
    for a, b in zip(kept, want[:2]):
        assert a.dtype == b.dtype and np.array_equal(a[0, :m], b[:m])
    if want[2].deliveries < first:   # the first block spans the horizon: one block
        assert (counters.deliveries, counters.in_system) == (m, want[2].in_system)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CLAIM_RATIO, CLAIM_MU, DISCIPLINE, log_uniform(1e-1, 1e3),
       st.one_of(st.none(), st.integers(1, 40)), st.integers(0, 2 ** 32 - 1))
# users that draw one block, several, and dozens of them
@example(ratio=2.0, mu=1.0, disc=FCFS, services=300.0, block=None, seed=0)
@example(ratio=2.0, mu=1.0, disc=FCFS, services=300.0, block=7, seed=0)
@example(ratio=1e4, mu=5.0, disc=an.Discipline.LCFS_MM12_STAR, services=300.0, block=40, seed=1)
def test_stage_series_is_the_runs_stage1(ratio, mu, disc, services, block, seed):
    # stage_series draws no Poisson count, which run draws only after a user's last
    # block, so every block's S, E (and G) come from where run draws them.  Horizons
    # go from a tenth of a service to a thousand of them, and a patched block of a
    # few cycles makes a user draw many blocks
    rate, horizon = ratio * mu, services / min(ratio * mu, mu)
    with mock.patch.object(qs, "_block_size", lambda *_: block) if block else nullcontext():
        alone, = qs.stage_series((disc,), rate, mu, horizon, seed)
        full = qs.run(qs.QueueConfig(disc, mu, 10.0), [rate], horizon, seed).stage1[0]
    for name in ("times", "peaks", "post_ages"):
        a, b = getattr(alone, name), getattr(full, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# a user of a stack: its r/mu, and a block size patched over its own or None
STACK_USERS = st.lists(st.tuples(log_uniform(1e-2, 1e4), st.one_of(st.none(), st.integers(1, 40))),
                       min_size=1, max_size=6)


# users whose last service begun straddles the horizon, with a waiter behind it and not
STRADDLING = dict(users=[(1e4, None), (0.5, None), (2.0, 5)], mu=1.0, disc=FCFS,
                  services=30.0, seed=0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(STACK_USERS, CLAIM_MU, DISCIPLINE, log_uniform(1e-2, 1e3), st.integers(0, 2 ** 32 - 1))
# a user that begins no service, one that begins one, and one that needs many blocks
@example(users=[(1e-2, None), (0.5, None), (1e4, 3), (2.0, None)], mu=1.0,
         disc=an.Discipline.LCFS_MM12_STAR, services=2.0, seed=0)
@example(**STRADDLING)
def test_stacked_stages_are_each_users_own_run(users, mu, disc, services, seed):
    # horizons from a hundredth of a service to a thousand of them, so slow users may
    # begin no service at all; a patched block of a few cycles makes its user draw
    # more blocks than the others in its stack
    rates = [ratio * mu for ratio, _ in users]
    patched = {rate: block for rate, (_, block) in zip(rates, users) if block}
    horizon, own = services / mu, qs._block_size
    draws = qs.CellDraws(seed, [qs._rng(seed, qs._ARRIVAL_TAG, u) for u in range(len(rates))])
    with mock.patch.object(qs, "_block_size", lambda r, m, h: patched.get(r) or own(r, m, h)):
        done, gens, counters = qs._simulate_stages(rates, mu, horizon, draws, disc)
        want = [ref._simulate_stage_one_user(rate, mu, horizon, qs._rng(seed, qs._ARRIVAL_TAG, u),
                                             disc, qs._rng(seed, qs._GAP_TAG, u))
                for u, rate in enumerate(rates)]
    for u, (times, gen_times, c) in enumerate(want):
        assert astuple(counters[u]) == astuple(c)
        for a, b in ((done[u, :c.deliveries], times), (gens[u, :c.deliveries], gen_times)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # deliveries leave in generation order, each generated by its departure
        g = gens[u, :c.deliveries]
        assert (np.diff(g) >= 0).all() and (g <= done[u, :c.deliveries]).all()
    if dict(users=users, mu=mu, disc=disc, services=services, seed=seed) == STRADDLING:
        # a user holds two updates at the horizon only with a waiter behind a straddler
        assert 2 in {c.in_system for c in counters} and min(c.in_system for c in counters) < 2
    # a row is padded with finite numbers, so whole-stack differences raise no warning
    assert np.isfinite(done).all() and np.isfinite(gens).all()


def assert_same_samples(a: qs.PaoiSamples, b: qs.PaoiSamples):
    """Every series array, byte for byte, and every counter and compute field."""
    for table in ("stage1", "e2e"):
        assert getattr(a, table).keys() == getattr(b, table).keys()
    pairs = [(getattr(a, t)[u], getattr(b, t)[u]) for t in ("stage1", "e2e") for u in a.stage1]
    for x, y in pairs + [(a.compute_agg, b.compute_agg)]:
        for name in ("times", "peaks", "post_ages"):
            p, q = getattr(x, name), getattr(y, name)
            assert p.dtype == q.dtype and p.tobytes() == q.tobytes()
    assert a.stage_counters == b.stage_counters
    fields = ("config", "rates", "horizon", "warmup", "seed", "compute_arrivals",
              "compute_delivered", "compute_in_system", "compute_arrival_rate")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(log_uniform(1e-3, 4e3), max_size=3), st.integers(0, 3), CLAIM_MU,
       log_uniform(1e-1, 3e2), st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32 - 1))
# a slow user alone, and one among users that need dozens of blocks
@example(ratios=[], slow=0, mu=1.0, services=30.0, block=3, lcfs_first=False, seed=0)
@example(ratios=[4e3, 0.5, 2.0], slow=1, mu=1.0, services=300.0, block=7, lcfs_first=True,
         seed=5)
def test_cell_runs_are_each_a_fresh_run(ratios, slow, mu, services, block, lcfs_first, seed):
    # 1-4 users, one of them too slow to deliver, over horizons of a tenth of a service
    # to 300 of them; a patched block of a few cycles makes the users span many blocks
    rates = [r * mu for r in ratios]
    rates.insert(min(slow, len(rates)), 1e-9 * mu)
    order = (LCFS, FCFS) if lcfs_first else (FCFS, LCFS)
    horizon, mu_c = services / mu, 50.0 * mu
    with mock.patch.object(qs, "_block_size", lambda *_: block):
        for disc, samples in zip(order, qs.cell_runs(order, rates, mu, mu_c, horizon, seed)):
            assert_same_samples(samples, qs.run(qs.QueueConfig(disc, mu, mu_c), rates, horizon,
                                                seed))


def cell_peaks(rng, law, n, ties):
    """``n`` peak ages for ``law``: 1e-4 to 1e3 of its slower time scale, half of them
    past (mu - r) a = 709 when r < mu, where the kernels take their exp(-r a) tail,
    and with ``ties`` drawn with replacement from an eighth of them."""
    r, mu = law.update_rate, law.service_rate
    a = 10.0 ** rng.uniform(-4.0, 3.0, n) / min(r, mu)
    if r < mu:
        tail = rng.random(n) < 0.5
        a[tail] = 709.0 / (mu - r) * (1.0 + 3.0 * rng.random(np.count_nonzero(tail)))
    return rng.choice(a[:max(1, n // 8)], n) if ties else a


# 1 point to more than two KS chunks per user, so segments straddle the chunk edges
CELL_USERS = st.lists(st.tuples(CLAIM_RATIO, log_uniform(1, 2.5 * qs._KS_CHUNK).map(round)),
                      min_size=1, max_size=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(CELL_USERS, CLAIM_MU, DISCIPLINE, st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(users=[(1e4, qs._KS_CHUNK - 1), (0.5, 3), (2.0, qs._KS_CHUNK + 2), (1e-3, 1)],
         mu=5.0, disc=an.Discipline.LCFS_MM12_STAR, ties=True, seed=1)
# a tail age where numpy's exact square of an array (mu - r) and libm's pow of a
# scalar one round apart
@example(users=[(0.0015, 1)], mu=0.344, disc=an.Discipline.FCFS_MM12, ties=False, seed=16)
def test_cell_ks_is_the_largest_user_ks_bit_for_bit(users, mu, disc, ties, seed):
    rng = np.random.default_rng(seed)
    laws = [an.StageLaw(ratio * mu, mu, disc) for ratio, _ in users]
    peaks = [cell_peaks(rng, law, n, ties) for law, (_, n) in zip(laws, users)]
    per_user = [qs.ks_distance(qs.EmpiricalCdf(p), an.cdf_reference(law))
                for p, law in zip(peaks, laws)]
    assert per_user == [ref.ks_distance(qs.EmpiricalCdf(p), an.cdf_reference(law))
                        for p, law in zip(peaks, laws)]
    assert sc.stage_ks(peaks, laws).tolist() == per_user


# a cell's samples: 2 to 200 points each, so batch counts from 2 to 20 mix in one pass
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.integers(2, 200), min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1))
def test_cell_batch_means_are_each_samples_own(sizes, seed):
    rng = np.random.default_rng(seed)
    samples = [rng.exponential(10.0 ** rng.uniform(-3, 3), n) for n in sizes]
    assert qs._estimate_avgs(samples) == [ref.estimate_avg(v) for v in samples]


AGG_METRICS = ["avg_analytic", "avg_sim", "avg_analytic_per_user", "avg_sim_per_user",
               "j_z", "ks_stage", "sim_severity_below_z"]
# how a metric's replications are drawn: finite, partly NaN, all NaN, partly
# infinite, or any mixture of the four
METRIC_KIND = st.sampled_from(["finite", "nan", "all-nan", "inf", "-inf", "mixed"])
# (value, discipline, replications); a group of 9 or more sums pairwise
AGG_GROUPS = st.lists(st.tuples(st.sampled_from([5.0, 10.0, 2e10]),
                                st.sampled_from(["fcfs", "lcfs"]), st.integers(1, 150)),
                      min_size=1, max_size=6)


def metric_column(rng, kind, size):
    """``size`` replications of a metric of ``kind``, the finite ones across six decades."""
    x = rng.normal(1.0, 0.5, size) * 10.0 ** rng.integers(-3, 4, size)
    odd = {"nan": [math.nan], "all-nan": [math.nan], "inf": [math.inf], "-inf": [-math.inf],
           "mixed": [math.nan, math.inf, -math.inf]}.get(kind)
    if odd:
        hit = np.full(size, True) if kind == "all-nan" else rng.random(size) < 0.3
        x[hit] = rng.choice(odd, np.count_nonzero(hit))
    return x.tolist()


MODES = [(a, p) for a in ("corrected", "as-written") for p in ("as-written", "survival")]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(AGG_GROUPS, st.lists(METRIC_KIND, min_size=len(AGG_METRICS), max_size=len(AGG_METRICS)),
       st.integers(0, 2 ** 32 - 1))
# one replication, the pairwise sums' first regime and their recursion, with every kind
@example(groups=[(5.0, "fcfs", 1), (10.0, "lcfs", 9), (2e10, "fcfs", 140), (10.0, "lcfs", 3)],
         kinds=["finite", "nan", "all-nan", "inf", "-inf", "mixed", "finite"], seed=0)
def test_aggregate_sweep_matches_the_per_metric_loop(groups, kinds, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for value, disc, reps in groups:
        # a replication is a cell of one row per mode pair, or a failed cell's one
        # error row, which has no modes and no metrics
        failed = rng.random(reps) < 0.1
        columns = [metric_column(rng, kind, len(MODES) * reps) for kind in kinds]
        for rep in range(reps):
            base = {"sweep_var": "num_users", "value": value, "replication": rep,
                    "discipline": disc, "error": ""}
            if failed[rep]:
                rows.append(dict(base, error="no samples"))
                continue
            for j, (avg_mode, psi_mode) in enumerate(MODES, start=len(MODES) * rep):
                row = dict(base, avg_analytic_mode=avg_mode, severity_mode=psi_mode)
                row.update((m, c[j]) for m, c in zip(AGG_METRICS, columns))
                rows.append(row)
    rng.shuffle(rows)
    # +inf and -inf in one metric make an inf - inf in both sums
    with np.errstate(invalid="ignore"):
        got, want = sc.aggregate_sweep(rows), ref.aggregate_sweep(rows)
        by_group = ref.aggregate_sweep_by_group(rows)
    assert [[(k, repr(v)) for k, v in agg.items()] for agg in got] == \
        [[(k, repr(v)) for k, v in agg.items()] for agg in want] == \
        [[(k, repr(v)) for k, v in agg.items()] for agg in by_group]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_user_sweep():
    cfg = json.loads((CONFIG_DIR / "reference_sweep.json").read_text())
    cfg["sweep"].update(values=[2], replications=1, horizon_s=5)
    return cfg


CONFIGS = {"analytic": json.loads((CONFIG_DIR / "analytic_grid.json").read_text()),
           "sweep": tiny_user_sweep()}


def numeric_leaves(node, keys=()):
    """Key paths of every JSON number (list elements included) under ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from numeric_leaves(child, keys + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def field_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


LEAVES = [(command, keys) for command, cfg in CONFIGS.items() for keys in numeric_leaves(cfg)]
MALFORMED = [math.nan, math.inf, -math.inf, True, "1", -1, 0, 2.5, 10 ** 400]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from(LEAVES), st.sampled_from(MALFORMED))
def test_malformed_config_number_is_rejected_by_field_path(leaf, value):
    command, keys = leaf
    cfg = copy.deepcopy(CONFIGS[command])
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert rc in (0, 3)
    if rc == 3:
        assert field_path(keys) in err.getvalue()
