"""The three-term sampler of ``cycle_terms`` against the reference CDFs, with no simulator.

The KS bound 1.95 / sqrt(n) is the asymptotic 0.999 quantile of the one-sample
KS statistic of i.i.d. draws, and the seeds are fixed, so the test is
deterministic.
"""

import math

import numpy as np
import pytest

from cycle_terms import cycle_terms, sample_peaks
from thzaoi import aoi_analytic as an

N = 200_000
RATIOS = (0.5, 2.0, 4e3)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided KS distance of the samples' step function from ``cdf``, in one pass."""
    x = np.sort(samples)
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max(np.max(i / x.size - f), np.max(f - (i - 1) / x.size)))


@pytest.mark.parametrize("disc", list(an.Discipline), ids=lambda d: d.value)
@pytest.mark.parametrize("ratio", RATIOS)
def test_sampled_peaks_follow_the_reference_cdf(disc, ratio):
    mu = 2.0
    law = an.StageLaw(ratio * mu, mu, disc)
    rng = np.random.default_rng([35, int(ratio * 10), list(an.Discipline).index(disc)])
    peaks = sample_peaks(disc, ratio * mu, mu, N, rng)
    d = ks_statistic(peaks, an.cdf_reference(law))
    assert d < 1.95 / math.sqrt(N), d


@pytest.mark.parametrize("ratio", RATIOS)
def test_an_lcfs_first_term_never_exceeds_the_fcfs_one(ratio):
    a, _, _ = cycle_terms(ratio, 1.0, N, np.random.default_rng([36, int(ratio * 10)]))
    fcfs, lcfs = a[an.Discipline.FCFS_MM12], a[an.Discipline.LCFS_MM12_STAR]
    assert (lcfs <= fcfs).all()
    # both are 0 where nothing waits (E > S, probability mu / (r + mu)); where the
    # arrival waits, LCFS is below where G < S - E, probability r / (r + mu) again
    waits = fcfs > 0.0
    assert (lcfs[~waits] == 0.0).all()
    for share in (np.mean(waits), np.mean(lcfs[waits] < fcfs[waits])):
        assert abs(share - ratio / (ratio + 1.0)) < 5.0 / math.sqrt(np.count_nonzero(waits))
