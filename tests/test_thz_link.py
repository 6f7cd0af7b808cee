"""Link-budget unit tests.

Frozen reference numbers were computed with 50-digit mpmath evaluations of
the same expressions (independent of the float64 code path).
"""

import math

import pytest

from thzaoi import thz_link as tl


def params(**over):
    base = dict(bandwidth_hz=1e10, carrier_hz=1e12, tx_power_w=1.0,
                absorption_per_m=0.0016, temperature_k=300.0,
                meta_surfaces=100, image_size_bits=1e7)
    base.update(over)
    return tl.LinkParams(**base)


class TestChannelGain:
    def test_prefactor_collapses_at_quarter_wavelength_over_pi(self):
        p = params(absorption_per_m=1e-300)  # absorption negligible
        d = p.wavelength_m / (4.0 * math.pi)
        assert tl.channel_gain(d, p) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value_at_10m(self):
        # mpmath 50-digit reference
        assert tl.channel_gain(10.0, params()) == pytest.approx(5.5121909584105109e-12, rel=1e-12)

    @pytest.mark.parametrize("d1,d2", [(10.0, 20.0), (1.0, 2.0), (25.0, 25.001)])
    def test_strictly_decreasing_in_distance(self, d1, d2):
        p = params()
        assert tl.channel_gain(d1, p) > tl.channel_gain(d2, p)

    def test_strictly_decreasing_in_absorption(self):
        assert tl.channel_gain(10.0, params(absorption_per_m=0.0016)) \
            > tl.channel_gain(10.0, params(absorption_per_m=0.0032))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            tl.channel_gain(0.0, params())
        with pytest.raises(ValueError):
            tl.channel_gain(-1.0, params())


class TestArrayGain:
    def test_single_element(self):
        assert tl.ris_array_gain(1) == 1.0

    def test_aligned_is_square(self):
        assert tl.ris_array_gain(100) == 10000.0

    def test_zero_elements_rejected(self):
        with pytest.raises(ValueError):
            tl.ris_array_gain(0)


class TestNoise:
    def geom(self, dists, serving=None):
        return tl.LinkGeometry(serving if serving is not None else dists[0], tuple(dists))

    def test_reference_value_four_surfaces_at_25m(self):
        # mpmath 50-digit reference, N0 in the (W lambda^2 / 4 pi) kB T0 form
        value = tl.noise_plus_interference(self.geom([25.0] * 4), params())
        assert value == pytest.approx(1.4282545189812334e-13, rel=1e-12)

    def test_zero_absorption_leaves_only_floor(self):
        p = params(absorption_per_m=1e-300)
        got = tl.noise_plus_interference(self.geom([10.0, 20.0]), p)
        assert got == pytest.approx(tl.thermal_noise_w(p), rel=1e-10)

    def test_far_surfaces_approach_floor(self):
        p = params()
        far = tl.noise_plus_interference(self.geom([1e12]), p)
        assert far == pytest.approx(tl.thermal_noise_w(p), rel=1e-6)

    def test_empty_distance_list_rejected(self):
        with pytest.raises(ValueError):
            tl.LinkGeometry(25.0, ())

    def test_positive(self):
        assert tl.noise_plus_interference(self.geom([25.0] * 4), params()) > 0.0


class TestRate:
    def test_reference_value(self):
        # mpmath 50-digit reference: d = 25 m, four surfaces at 25 m, N = 100
        geom = tl.LinkGeometry(25.0, (25.0,) * 4)
        assert tl.rate_bps(geom, params()) == pytest.approx(158449322081.59329, rel=1e-12)

    def test_unit_snr_gives_bandwidth(self):
        # engineered so p h N^2 equals the noise exactly
        p = params(meta_surfaces=1)
        geom = tl.LinkGeometry(25.0, (25.0,))
        noise = tl.noise_plus_interference(geom, p)
        h = tl.channel_gain(25.0, p)
        scaled = params(meta_surfaces=1, tx_power_w=noise / h)
        # power appears in the interference too, so solve by ratio instead
        snr = scaled.tx_power_w * tl.channel_gain(25.0, scaled) / \
            tl.noise_plus_interference(geom, scaled)
        rate = tl.rate_bps(geom, scaled)
        assert rate == pytest.approx(1e10 * math.log2(1.0 + snr), rel=1e-12)

    def test_increasing_in_meta_surfaces_and_power(self):
        geom = tl.LinkGeometry(25.0, (25.0,) * 4)
        assert tl.rate_bps(geom, params(meta_surfaces=200)) > tl.rate_bps(geom, params())
        assert tl.rate_bps(geom, params(tx_power_w=2.0)) > tl.rate_bps(geom, params())

    def test_vanishing_gain_limit(self):
        geom = tl.LinkGeometry(1e9, (1e9,))
        assert tl.rate_bps(geom, params()) == pytest.approx(0.0, abs=1e-3)


class TestUpdateRate:
    def test_exact_division(self):
        assert tl.update_rate(1e8, params()) == pytest.approx(10.0)

    def test_zero_rate(self):
        assert tl.update_rate(0.0, params()) == 0.0

    def test_reference_chain(self):
        # mpmath 50-digit reference: rate above divided by 10 Mbit
        geom = tl.LinkGeometry(25.0, (25.0,) * 4)
        r = tl.update_rate(tl.rate_bps(geom, params()), params())
        assert r == pytest.approx(15844.932208159329, rel=1e-12)

    def test_linear_scaling(self):
        p = params()
        assert tl.update_rate(3e8, p) == pytest.approx(3.0 * tl.update_rate(1e8, p))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tl.update_rate(-1.0, params())


class TestValidation:
    def test_nonpositive_fields_rejected(self):
        for field in ("bandwidth_hz", "carrier_hz", "tx_power_w",
                      "absorption_per_m", "temperature_k", "image_size_bits"):
            with pytest.raises(ValueError):
                params(**{field: 0.0})

    def test_serving_must_be_member(self):
        with pytest.raises(ValueError):
            tl.LinkGeometry(10.0, (25.0, 30.0))
