"""Property tests: stage kernels and simulator bookkeeping over wide rate ranges.

r/mu is drawn log-uniformly over [1e-3, 1e5], from lightly loaded stages to
the saturated ones the THz link budget produces.  Examples are derandomized
so every run draws the same cases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thzaoi import aoi_analytic as an
from thzaoi import queue_sim as qs


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
@given(RATIO, MU)
def test_throughput_is_positive_and_below_the_service_rate(ratio, mu):
    assert 0.0 < an.stage_throughput(ratio * mu, mu) < mu


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(RATIO, min_size=1, max_size=3), DISCIPLINE,
       st.floats(1.0, 200.0), st.integers(0, 2 ** 32 - 1))
def test_simulator_accounts_for_every_packet(ratios, disc, horizon, seed):
    out = qs.run(qs.QueueConfig(disc, 1.0, 10.0), ratios, horizon, seed)
    for c in out.stage_counters.values():
        assert c.arrivals == c.deliveries + c.drops + c.preemptions + c.in_system
    assert out.compute_arrivals == out.compute_delivered + out.compute_in_system
