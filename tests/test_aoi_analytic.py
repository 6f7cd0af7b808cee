"""Peak-age analytics tests.

Frozen reference numbers come from 50-digit mpmath evaluation of the same
published expressions; distributional facts (normalization, moments, CDF
consistency) are checked against independent quadrature of the density.
The stage CDF has two more constructions that share none of that algebra:
``validate``'s cycle-model oracle and a 5-phase phase-type law.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg

from thzaoi import aoi_analytic as an
from thzaoi import validation as val

FCFS = an.Discipline.FCFS_MM12
LCFS = an.Discipline.LCFS_MM12_STAR

GRID_R = [0.5, 1.0, 2.0, 5.0, 10.0, 1e4]
GRID_MU = [1.0, 5.0]


def law(r, mu, disc=FCFS):
    return an.StageLaw(r, mu, disc)


def grid_laws(disc):
    out = []
    for mu in GRID_MU:
        for r in GRID_R:
            if r == mu:
                continue
            out.append(law(r, mu, disc))
        out.append(law(mu * (1 + 1e-8), mu, disc))
        out.append(law(mu * (1 - 1e-8), mu, disc))
    return out


def mpmath_stage_cdf(stage, a, digits=40):
    """The canonical stage CDF at ``digits`` digits in mpmath, with explicit (r - mu)
    denominators and mpmath's own expm1: the tests' oracle for the package's kernels
    and for the cycle-model evaluation in ``decimal`` that ``validate`` uses."""
    with mp.workdps(digits):
        r, mu, a = mp.mpf(stage.update_rate), mp.mpf(stage.service_rate), mp.mpf(a)
        d, s = r - mu, r + mu
        emu, ed = mp.exp(-mu * a), mp.expm1(-d * a)
        if stage.discipline is FCFS:
            bracket = (2 * mu ** 3 * (ed + d * a) / d ** 2 + mu ** 3 * a ** 2
                       + 4 * mu ** 2 * a + 4 * mu + (mu ** 2 * a ** 2 + 2 * mu * a + 2) * d)
            return 1 - emu * bracket / (2 * s)
        quad = r * r + 2 * mu * r + 3 * mu * mu
        inner = (-mu * (r + 3 * mu) + quad * emu
                 - (r * (r * r + r * mu + mu * mu) - d * quad * emu) * ed / d)
        return 1 - (emu * a * mu * r * (r + 2 * mu) + mp.exp(-s * a) * a * mu * r * s
                    + emu * inner) / (r * s)


def quad_moment(stage, power=0):
    upper = an.support_bound(stage)
    pts = [p for p in (1.0 / (stage.update_rate + stage.service_rate),
                       1.0 / stage.update_rate, 1.0 / stage.service_rate,
                       5.0 / stage.service_rate) if p < upper]
    val, _ = integrate.quad(lambda t: t ** power * an.pdf_paoi(stage, t),
                            0.0, upper, points=pts, limit=400,
                            epsabs=1e-10, epsrel=1e-10)
    return val


class TestPdf:
    def test_fcfs_zero_at_origin(self):
        for stage in grid_laws(FCFS):
            assert an.pdf_paoi(stage, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_lcfs_zero_at_origin(self):
        # algebraic cancellation of all three exponential groups at a = 0
        for stage in grid_laws(LCFS):
            assert an.pdf_paoi(stage, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_fcfs_reference_value(self):
        # (2/3) e^-2 + (1/3) e^-1, mpmath reference
        assert an.pdf_paoi(law(2, 1), 1.0) == pytest.approx(0.21285000254822257, rel=1e-12)

    def test_lcfs_reference_values(self):
        assert an.pdf_paoi(law(2, 1, LCFS), 1.0) == pytest.approx(0.29365751941195049, rel=1e-12)
        assert an.pdf_paoi(law(2, 1, LCFS), 0.5) == pytest.approx(0.12745245185104266, rel=1e-12)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_nonnegative(self, disc):
        ages = np.linspace(0.0, 30.0, 400)
        for stage in grid_laws(disc):
            vals = an.pdf_paoi(stage, ages)
            assert np.all(vals >= -1e-10)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_normalization_sample(self, disc):
        for stage in [law(0.5, 1, disc), law(2, 1, disc), law(1e4, 1, disc),
                      law(1 + 1e-8, 1, disc)]:
            assert quad_moment(stage, 0) == pytest.approx(1.0, abs=1e-6)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            an.pdf_paoi(law(2, 1), -0.1)

    def test_continuity_through_equal_rates(self):
        # approaching r = mu from both sides meets the limit path
        for disc in (FCFS, LCFS):
            mid = an.pdf_paoi(law(1.0 * (1 + 1e-9), 1.0, disc), 1.3)
            lo = an.pdf_paoi(law(1.0 * (1 - 1e-5), 1.0, disc), 1.3)
            hi = an.pdf_paoi(law(1.0 * (1 + 1e-5), 1.0, disc), 1.3)
            assert lo == pytest.approx(mid, rel=1e-4)
            assert hi == pytest.approx(mid, rel=1e-4)


class TestCdfFcfs:
    def test_zero_at_origin(self):
        got = an.cdf_paoi(law(2, 1), 0.0, an.CdfSource.CLOSED_FORM)
        assert got.value == pytest.approx(0.0, abs=1e-12)
        assert got.validity is an.Validity.VALID

    def test_reference_values(self):
        # mpmath reference: 1 - e^-2/3 - (7/3) e^-1
        got = an.cdf_paoi(law(2, 1), 1.0, an.CdfSource.CLOSED_FORM)
        assert got.value == pytest.approx(0.096502876187763686, rel=1e-12)
        got2 = an.cdf_paoi(law(2, 1), 2.0, an.CdfSource.CLOSED_FORM)
        assert got2.value == pytest.approx(0.36233013193289604, rel=1e-12)

    def test_closed_matches_quadrature_spot(self):
        for stage in [law(0.5, 1), law(2, 1), law(10, 1), law(5, 5 * (1 + 1e-8))]:
            for a in (0.3, 1.0, 4.0):
                closed = an.cdf_paoi(stage, a, an.CdfSource.CLOSED_FORM).value
                quad = an.cdf_paoi(stage, a, an.CdfSource.QUADRATURE).value
                assert closed == pytest.approx(quad, abs=1e-6)

    def test_tail_reaches_one(self):
        stage = law(2, 1)
        bound = an.support_bound(stage)
        assert 1.0 - an.cdf_paoi(stage, bound, an.CdfSource.CLOSED_FORM).value < 1e-12


class TestCdfLcfs:
    def test_published_form_invalid_at_origin(self):
        got = an.cdf_paoi(law(2, 1, LCFS), 0.0, an.CdfSource.CLOSED_FORM)
        assert got.value == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert got.validity is an.Validity.INVALID

    def test_published_form_reference_value(self):
        got = an.cdf_paoi(law(2, 1, LCFS), 1.0, an.CdfSource.CLOSED_FORM)
        assert got.value == pytest.approx(0.37764684463835675, rel=1e-12)

    def test_quadrature_reference_values(self):
        got = an.cdf_paoi(law(2, 1, LCFS), 1.0, an.CdfSource.QUADRATURE)
        assert got.value == pytest.approx(0.1323938838573952, abs=1e-9)
        assert got.validity is an.Validity.VALID
        got2 = an.cdf_paoi(law(2, 1, LCFS), 2.0, an.CdfSource.QUADRATURE)
        assert got2.value == pytest.approx(0.46933759391060583, abs=1e-9)

    def test_quadrature_is_valid_cdf(self):
        stage = law(2, 1, LCFS)
        grid = np.linspace(0.0, 20.0, 41)
        vals = [an.cdf_paoi(stage, a, an.CdfSource.QUADRATURE).value for a in grid]
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert 1.0 - vals[-1] < 1e-6

    def test_integrated_reference_matches_quadrature(self):
        for stage in [law(0.5, 1, LCFS), law(2, 1, LCFS), law(10, 1, LCFS),
                      law(5 * (1 - 1e-8), 5, LCFS), law(1e4, 1, LCFS)]:
            ref = an.cdf_reference(stage)
            for a in (0.2, 1.0, 3.0, 8.0):
                quad = an.cdf_paoi(stage, a, an.CdfSource.QUADRATURE).value
                assert float(ref(a)) == pytest.approx(quad, abs=1e-8)

    def test_published_vs_quadrature_discrepancy_persists(self):
        # the published antiderivative disagrees with the density's integral
        stage = law(2, 1, LCFS)
        closed = an.cdf_paoi(stage, 1.0, an.CdfSource.CLOSED_FORM).value
        quad = an.cdf_paoi(stage, 1.0, an.CdfSource.QUADRATURE).value
        assert abs(closed - quad) > 0.2

    @staticmethod
    def _mpmath_published(r, mu, a, nudge="0"):
        # 1 - t1 + t2 - t3 exactly as printed, at 60 digits, at r (1 + nudge)
        with mp.workdps(60):
            r, mu, a = mp.mpf(r) * (1 + mp.mpf(nudge)), mp.mpf(mu), mp.mpf(a)
            d, s = r - mu, r + mu
            t1 = mp.exp(-s * a) / (r * s * d) * (r ** 3 - 3 * mu ** 3 + r * mu * s * (1 + d))
            t2 = mp.exp(-r * a) / (s * d) * (r * r + r * mu + mu * mu)
            t3 = mp.exp(-mu * a) / (r * s * d) * (
                3 * mu ** 3 + r * d ** 2 + r * mu * a * (r * r + r * mu - 2 * mu * mu))
            return 1 - t1 + t2 - t3

    def test_published_form_matches_mpmath(self):
        # through r = mu (exactly: against r = mu (1 + 1e-30)) and into the
        # exp(-r a) tail, where (mu - r) a > 709
        near = [1 + sign * eps for eps in (1e-3, 1e-5, 1e-6, 1e-7, 1e-9) for sign in (-1, 1)]
        ratios = [1e-3, 0.01, 0.5, 0.9, *near, 1.1, 2, 10, 1e2, 1e3, 4e3, 1e5]
        cases = [(ratio, "0") for ratio in ratios] + [(1.0, "1e-30")]
        ages = [0, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1, 3, 8, 20, 100, 1000]
        bad = []
        for mu in (0.1, 1.0, 5.0, 100.0):
            for ratio, nudge in cases:
                for a_mu in ages:
                    r, a = mu * ratio, a_mu / mu
                    exact = self._mpmath_published(r, mu, a, nudge)
                    got = an._cdf_lcfs_published(r, mu, a)
                    if abs(got - exact) > 1e-12 * max(1, abs(exact)):
                        bad.append((mu, ratio, nudge, a_mu, got, float(exact)))
        assert not bad


class TestCdfReference:
    LAWS = [law(2, 1), law(0.5, 1), law(2e4, 5), law(5 * (1 + 1e-8), 5),
            law(2, 1, LCFS), law(0.5, 1, LCFS), law(2e4, 5, LCFS), law(5 * (1 - 1e-8), 5, LCFS)]

    def test_cdf_paoi_reference_is_cdf_reference(self):
        for stage in self.LAWS:
            ref = an.cdf_reference(stage)
            for a in (0.0, 1e-3, 0.3, 1.0, 4.0):
                got = an.cdf_paoi(stage, a, an.CdfSource.REFERENCE)
                assert got.value == float(ref(a))
                assert got.validity is an.Validity.VALID

    def test_reference_is_the_default_source(self):
        for stage in self.LAWS:
            assert an.cdf_paoi(stage, 1.0) == an.cdf_paoi(stage, 1.0, an.CdfSource.REFERENCE)

    def test_lcfs_reference_is_not_the_published_form(self):
        stage = law(2, 1, LCFS)
        assert an.cdf_paoi(stage, 0.0).value == pytest.approx(0.0, abs=1e-12)
        assert an.cdf_paoi(stage, 1.0).value == pytest.approx(0.1323938838573952, abs=1e-12)


class TestCdfCache:
    # cdf_paoi reads each kernel value through a bounded cache, keyed by the kernel,
    # the rates and the age; a value read from it is the fresh kernel value
    LAWS = [(2, 1), (0.5, 1), (2e4, 5)]
    AGES = (0.0, 1e-3, 0.3, 1.0, 4.0)

    @pytest.mark.parametrize("source", [an.CdfSource.CLOSED_FORM, an.CdfSource.REFERENCE])
    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_a_cached_value_is_the_fresh_kernel_value(self, disc, source):
        for r, mu in self.LAWS:
            stage = law(r, mu, disc)
            for a in self.AGES:
                first = an.cdf_paoi(stage, a, source)
                hits = an._kernel_value.cache_info().hits
                again = an.cdf_paoi(stage, a, source)
                assert an._kernel_value.cache_info().hits == hits + 1
                fresh = float(an._cdf_kernel(stage, source)(r, mu, a))
                assert first == again == an.FlaggedValue(fresh, an._flag_probability(fresh))

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_quadrature_is_not_cached(self, disc):
        stage = law(2, 1, disc)
        before = an._kernel_value.cache_info()
        got = an.cdf_paoi(stage, 1.0, an.CdfSource.QUADRATURE)
        assert an._kernel_value.cache_info() == before
        assert got.value == float(an._quad_pdf(stage, [0.0, 1.0])[-1])

    def test_lcfs_readings_are_cached_apart(self):
        stage = law(2, 1, LCFS)
        for a in self.AGES:
            reference = an.cdf_paoi(stage, a).value
            published = an.cdf_paoi(stage, a, an.CdfSource.CLOSED_FORM).value
            assert reference != published
            assert reference == float(an._cdf_lcfs_integrated(2, 1, a))
            assert published == float(an._cdf_lcfs_published(2, 1, a))
            assert an.cdf_paoi(stage, a).value == reference

    def test_the_cache_is_bounded(self):
        maxsize = an._kernel_value.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
        stage = law(3, 1)
        for a in np.linspace(0.5, 1.5, maxsize + 1).tolist():
            an.cdf_paoi(stage, a)
        assert an._kernel_value.cache_info().currsize == maxsize


class TestQuadrature:
    LAWS = TestCdfReference.LAWS

    def test_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert an._GL_NODES.tobytes() == nodes.tobytes()
        assert an._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_grid_is_the_running_sum_of_its_intervals(self):
        for stage in self.LAWS:
            grid = np.concatenate(([0.0], np.geomspace(1e-4, an.support_bound(stage), 30)))
            pieces = [an._quad_pdf(stage, [lo, hi])[-1] for lo, hi in zip(grid, grid[1:])]
            whole = an._quad_pdf(stage, grid)
            assert whole[0] == 0.0
            np.testing.assert_allclose(whole[1:], np.cumsum(pieces), rtol=0.0, atol=1e-15)

    def test_repeated_grid_points_read_the_same_value(self):
        stage = law(2, 1, LCFS)
        got = an._quad_pdf(stage, [0.0, 0.0, 1.0, 1.0, 2.0])
        assert got[0] == got[1] == 0.0 and got[2] == got[3]

    def test_nan_density_raises(self, monkeypatch):
        density = an.pdf_paoi
        monkeypatch.setattr(an, "pdf_paoi",
                            lambda stage, a: np.where(a > 0.7, np.nan, density(stage, a)))
        with pytest.raises(ArithmeticError):
            an.cdf_paoi(law(2, 1), 1.0, an.CdfSource.QUADRATURE)

    def test_moment_rows_are_the_single_moment_passes_bit_for_bit(self, monkeypatch):
        grid = [0.0, 0.3, 1.0, 4.0, 20.0]
        density, calls = an.pdf_paoi, []
        monkeypatch.setattr(an, "pdf_paoi", lambda *a: calls.append(a) or density(*a))
        for stage in self.LAWS:
            rows = an._quad_pdf(stage, grid, (0, 1, 2))
            assert len(calls) == 2   # the panels and the halved panels, for every row
            assert rows.shape == (3, len(grid))
            for m, row in enumerate(rows):
                assert row.tobytes() == an._quad_pdf(stage, grid, m).tobytes()
            calls.clear()

    def test_each_moment_row_is_self_checked(self, monkeypatch):
        # a step inside a panel moves the mass by about 2e-13 when the panels are halved,
        # below the tolerance, and the second moment, weighted by a^2 ~ 234, by 5e-11,
        # five times its tolerance
        density = an.pdf_paoi
        monkeypatch.setattr(an, "pdf_paoi",
                            lambda stage, a: density(stage, a) + 3e-12 * (a > 15.3))
        stage = law(2, 1)
        an._quad_pdf(stage, [0.0, 20.0], (0,))
        with pytest.raises(ArithmeticError):
            an._quad_pdf(stage, [0.0, 20.0], (0, 2))

    @pytest.mark.parametrize("mu", GRID_MU)
    def test_fcfs_at_equal_rates_is_erlang3(self, mu):
        # r = mu: the FCFS density is mu^3 a^2 exp(-mu a) / 2
        stage = law(mu, mu)
        grid = np.linspace(0.0, an.support_bound(stage), 61)
        x = mu * grid
        erlang3 = 1.0 - np.exp(-x) * (1.0 + x + x * x / 2.0)
        np.testing.assert_allclose(an.cdf_reference(stage)(grid), erlang3, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(an._quad_pdf(stage, grid), erlang3, rtol=0.0, atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestKernelOverflow:
    # (mu - r) a above about 709 overflows exp((mu - r) a) in the stable kernels;
    # the kernels replace those values and raise no warning
    POINTS = [(1.0, 5.0, 200.0), (0.01, 1.0, 1000.0)]

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("r,mu,a", POINTS)
    def test_cdf_matches_mpmath(self, disc, r, mu, a):
        stage = law(r, mu, disc)
        got = an.cdf_paoi(stage, a)
        assert got.validity is an.Validity.VALID
        assert abs(got.value - float(mpmath_stage_cdf(stage, a))) < 1e-15

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("r,mu,a", POINTS)
    def test_density_finite_and_positive(self, disc, r, mu, a):
        pdf = an.pdf_paoi(law(r, mu, disc), a)
        assert math.isfinite(pdf) and pdf > 0.0

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_density_is_the_slope_of_the_mpmath_cdf(self, disc):
        stage, a, h = law(0.01, 1.0, disc), 1000.0, 1e-3
        with mp.workdps(40):
            slope = (mpmath_stage_cdf(stage, a + h)
                     - mpmath_stage_cdf(stage, a - h)) / mp.mpf(2 * h)
        assert an.pdf_paoi(stage, a) == pytest.approx(float(slope), rel=1e-8)

    def test_support_bound_of_a_slow_source(self):
        stage = law(0.03, 1.0)
        bound = an.support_bound(stage)
        assert 1.0 - an.cdf_paoi(stage, bound).value < an.TAIL_MASS


class TestCycleTermsOracle:
    # validate's oracle grid, r/mu 0.5, 2 and 10 at its rates and ages, and the
    # TestKernelOverflow points, where exp(-(r - mu) a) passes 1e300
    CASES = [(ratio * mu, mu, a) for mu in val.ORACLE_MU
             for ratio in val.ORACLE_RATIOS + (0.5, 2.0, 10.0)
             for a in val.ORACLE_AGES] + TestKernelOverflow.POINTS

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_matches_a_40_digit_mpmath_evaluation(self, disc):
        worst = 0.0
        for r, mu, a in self.CASES:
            stage = law(r, mu, disc)
            with mp.workdps(40):
                exact = mpmath_stage_cdf(stage, a)
                gap = abs(mp.mpf(str(val._cycle_terms_stage_cdf(stage, a))) - exact)
            worst = max(worst, float(gap))
        assert worst < 1e-25


def phase_type_cdf(stage, ages):
    """The stage CDF as the absorption time of a 5-phase chain read off the capacity-2
    queue (Neuts' construction), evaluated with scipy's ``expm``.  FCFS runs
    W -> S1 -> {S2, E} -> K, LCFS B -> S -> {S', E} -> K; the chain starts in its
    first phase with probability rho / (1 + rho), and otherwise in its second."""
    r, mu = stage.update_rate, stage.service_rate
    lead = mu if stage.discipline is FCFS else r + mu   # W is Exp(mu), B is Exp(r + mu)
    gen = np.diag([-lead, -(r + mu), -mu, -r, -mu])
    gen[0, 1], gen[1, 2], gen[1, 3], gen[2, 4], gen[3, 4] = lead, r, mu, mu, r
    start = np.array([r, mu, 0.0, 0.0, 0.0]) / (r + mu)
    return np.array([1.0 - start @ linalg.expm(gen * a).sum(axis=1) for a in ages])


class TestPhaseTypeLaw:
    # a third construction of the stage law, sharing neither the published forms'
    # algebra nor the cycle terms' partial fractions
    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    @pytest.mark.parametrize("mu", [1.0, 5.0])
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 10.0, 1e3, 4e3])
    def test_matches_the_reference_and_the_cycle_terms(self, disc, mu, ratio):
        stage, ages = law(ratio * mu, mu, disc), np.array(val.ORACLE_AGES)
        phase = phase_type_cdf(stage, ages)
        terms = [float(val._cycle_terms_stage_cdf(stage, a)) for a in ages]
        assert np.max(np.abs(phase - an.cdf_reference(stage)(ages))) < 1e-12
        assert np.max(np.abs(phase - terms)) < 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.floats(-3.0, 4.0), st.sampled_from([1.0, 5.0]), st.sampled_from([FCFS, LCFS]),
           st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
    def test_holds_with_the_reference_over_the_rate_range(self, log_ratio, mu, disc, log_ages):
        # r/mu log-uniform over [1e-3, 1e4]; ages in units of the slower time scale
        stage = law(10.0 ** log_ratio * mu, mu, disc)
        ages = 10.0 ** np.array(log_ages) / min(stage.update_rate, mu)
        assert np.max(np.abs(phase_type_cdf(stage, ages) - an.cdf_reference(stage)(ages))) < 1e-12


def test_stable_kernels_equal_their_two_branch_form():
    # the kernels build the series only when some x falls inside its cutoff;
    # the reference evaluates both branches everywhere and picks per element
    x = np.array([-800.0, -3.0, -1e-3, -2e-4, -1e-5, -1e-13, 0.0, 1e-13, 1e-5, 1e-3, 3.0])
    with np.errstate(invalid="ignore", divide="ignore"):
        phi1 = np.where(np.abs(x) < 1e-12, 1.0 + x / 2.0, np.expm1(x) / x)
        series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
        h2 = np.where(np.abs(x) < 1e-4, series, (np.expm1(x) - x) / (x * x))
        for kernel, expect in ((an._phi1, phi1), (an._h2, h2)):
            assert kernel(x).tobytes() == expect.tobytes()
            assert kernel(x[:2]).tobytes() == expect[:2].tobytes()   # no x inside the cutoff
            assert [float(kernel(v)) for v in x] == expect.tolist()   # one numpy scalar each


class TestSystemCdf:
    def test_single_stage_identity(self):
        stage = law(2, 1)
        sys_law = an.SystemLaw((stage,))
        direct = an.cdf_paoi(stage, 1.0).value
        assert an.system_cdf(sys_law, 1.0).value == pytest.approx(direct, rel=1e-12)

    def test_homogeneous_power_squares(self):
        # identical stages: the product over stages is the power of one stage
        stage = law(2, 1)
        sys_law = an.SystemLaw((stage, stage))
        base = an.cdf_paoi(stage, 1.5).value
        assert an.system_cdf(sys_law, 1.5).value == pytest.approx(base ** 2, rel=1e-12)

    def test_heterogeneous_product(self):
        s1, s2 = law(2, 1), law(3, 1)
        sys_law = an.SystemLaw((s1, s2))
        expect = an.cdf_paoi(s1, 1.5).value * an.cdf_paoi(s2, 1.5).value
        assert an.system_cdf(sys_law, 1.5).value == pytest.approx(expect, rel=1e-12)


class TestSeverity:
    def severity(self, ruin_level, z, mode):
        sys_law = an.SystemLaw((law(2, 1),))
        return an.severity_both_modes(sys_law, ruin_level, z)[mode]

    def test_worked_point_as_written(self):
        got = self.severity(1.0, 1.0, an.PsiMode.AS_WRITTEN_CDF)
        assert got.value == pytest.approx(-3.048824854331173, rel=1e-10)
        assert got.validity is an.Validity.INVALID

    def test_worked_point_survival(self):
        got = self.severity(1.0, 1.0, an.PsiMode.SURVIVAL)
        assert got.value == pytest.approx(3.048824854331173, rel=1e-10)
        assert got.validity is an.Validity.INVALID

    def test_small_z_limit_with_raw_cdf(self):
        # numerator -> 0 while the denominator stays near Psi(a)
        got = self.severity(1.0, 1e-7, an.PsiMode.AS_WRITTEN_CDF)
        assert abs(got.value) < 1e-4

    def test_zero_psi_not_computable(self):
        # far in the tail the survival function underflows to an exact zero
        got = self.severity(80.0, 1.0, an.PsiMode.SURVIVAL)
        assert got.validity is an.Validity.NOT_COMPUTABLE
        assert math.isnan(got.value)

    def test_grid_flags_deterministic(self):
        zs = [0.25, 0.5, 1.0, 2.0, 4.0]
        one = [self.severity(1.0, z, an.PsiMode.SURVIVAL) for z in zs]
        two = [self.severity(1.0, z, an.PsiMode.SURVIVAL) for z in zs]
        assert [(v.value, v.validity) for v in one] == [(v.value, v.validity) for v in two]

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_default_source_agrees_with_quadrature_at_thz_rates(self, disc):
        # r/mu around 4e3, the rates the THz link budget realizes; the oracle
        # builds J(z) from products of quadrature stage CDFs
        stages = tuple(law(r, 5.0, disc) for r in (1.9e4, 2.0e4, 2.15e4))
        ruin, z = 1.0, 3.0
        fast = an.severity_both_modes(an.SystemLaw(stages), ruin, z)
        quad = {x: math.prod(an.cdf_paoi(s, x, an.CdfSource.QUADRATURE).value for s in stages)
                for x in (ruin, ruin + z, z)}
        for mode in an.PsiMode:
            psi = {x: c if mode is an.PsiMode.AS_WRITTEN_CDF else 1.0 - c
                   for x, c in quad.items()}
            oracle = (psi[ruin] - psi[ruin + z]) / (psi[ruin] * (1.0 - psi[z]))
            assert fast[mode].value == pytest.approx(oracle, rel=1e-6)
            assert fast[mode].validity is an._flag_probability(oracle)


class TestAverages:
    def test_fcfs_stage_mean_reference(self):
        assert an.avg_paoi_stage(law(2, 1)) == pytest.approx(17.0 / 6.0, rel=1e-14)

    def test_lcfs_stage_mean_reference(self):
        assert an.avg_paoi_stage(law(2, 1, LCFS)) == pytest.approx(43.0 / 18.0, rel=1e-14)

    def test_fcfs_saturation_limit(self):
        assert an.avg_paoi_stage(law(1e9, 2.0)) == pytest.approx(1.5, rel=1e-6)

    @pytest.mark.parametrize("disc", [FCFS, LCFS])
    def test_mean_equals_first_moment(self, disc):
        for stage in [law(0.5, 1, disc), law(2, 1, disc), law(5, 1, disc),
                      law(1 * (1 + 1e-8), 1, disc)]:
            assert an.avg_paoi_stage(stage) == pytest.approx(quad_moment(stage, 1), abs=1e-6)

    def test_compute_corrected_reference(self):
        got = an.avg_paoi_compute(an.ComputeQueueLaw(75.0, 100.0, an.AvgMode.CORRECTED))
        assert got.value == pytest.approx(1.0 / 75.0 + 1.0 / 25.0, rel=1e-14)
        assert got.validity is an.Validity.VALID

    def test_compute_as_written_reproduced_and_flagged(self):
        got = an.avg_paoi_compute(an.ComputeQueueLaw(75.0, 100.0, an.AvgMode.AS_WRITTEN))
        assert got.value == pytest.approx(1515000.0233333333, rel=1e-12)
        assert got.validity is an.Validity.INVALID

    def test_compute_corrected_unstable_raises(self):
        with pytest.raises(an.InstabilityError):
            an.avg_paoi_compute(an.ComputeQueueLaw(100.0, 100.0, an.AvgMode.CORRECTED))
        with pytest.raises(an.InstabilityError):
            an.avg_paoi_compute(an.ComputeQueueLaw(150.0, 100.0, an.AvgMode.CORRECTED))

    def test_corrected_saturation_blowup(self):
        close = an.avg_paoi_compute(an.ComputeQueueLaw(100.0 - 1e-9, 100.0, an.AvgMode.CORRECTED))
        assert close.value > 1e8

    def test_e2e_sum_of_equal_stages(self):
        stage = law(2, 1)
        sys_law = an.SystemLaw((stage,) * 4)
        comp = an.ComputeQueueLaw(75.0, 100.0, an.AvgMode.CORRECTED)
        expect = an.avg_paoi_compute(comp).value + 4 * an.avg_paoi_stage(stage)
        assert an.avg_paoi_e2e(sys_law, comp) == pytest.approx(expect, rel=1e-14)

    def test_throughput_below_both_rates(self):
        for r, mu in [(0.5, 1.0), (2.0, 1.0), (1e4, 5.0)]:
            thr = an.stage_throughput(r, mu)
            assert 0.0 < thr < min(r, mu)
