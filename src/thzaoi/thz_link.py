"""THz link budget for RIS-served uplink users.

Converts a user--RIS geometry plus physical-layer parameters into a
packetized update rate: free-space + molecular-absorption channel gain,
phase-aligned array gain, noise-plus-interference floor, Shannon rate,
and rate-per-image division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BOLTZMANN, SPEED_OF_LIGHT


@dataclass(frozen=True)
class LinkParams:
    """Physical-layer constants for one deployment.

    All quantities in SI base units; ``image_size_bits`` is the fixed
    payload of a single update.  ``meta_surfaces`` is the number of
    independently phase-tunable elements per reflecting surface and has
    no default: it must be chosen explicitly per scenario.
    """

    bandwidth_hz: float
    carrier_hz: float
    tx_power_w: float
    absorption_per_m: float
    temperature_k: float
    meta_surfaces: int
    image_size_bits: float

    def __post_init__(self):
        for name in ("bandwidth_hz", "carrier_hz", "tx_power_w",
                     "absorption_per_m", "temperature_k", "image_size_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.meta_surfaces < 1:
            raise ValueError("meta_surfaces must be a positive count")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class LinkGeometry:
    """Distances from one user to every reflecting surface.

    ``serving_distance_m`` must be one of ``ris_distances_m`` (the user is
    served by one of the listed surfaces).
    """

    serving_distance_m: float
    ris_distances_m: tuple[float, ...]

    def __post_init__(self):
        if not self.ris_distances_m:
            raise ValueError("ris_distances_m must be non-empty")
        if any(d <= 0 for d in self.ris_distances_m):
            raise ValueError("all distances must be strictly positive")
        if self.serving_distance_m not in self.ris_distances_m:
            raise ValueError("serving distance must be one of the listed distances")


def channel_gain(distance_m: float, params: LinkParams) -> float:
    """Line-of-sight power gain (lambda/4 pi d)^2 * exp(-2 k d)."""
    if distance_m <= 0:
        raise ValueError("distance must be strictly positive")
    lam = params.wavelength_m
    spreading = (lam / (4.0 * math.pi * distance_m)) ** 2
    return spreading * math.exp(-2.0 * params.absorption_per_m * distance_m)


def ris_array_gain(n: int) -> float:
    """Coherent array gain n^2 of n phase-aligned meta-surfaces."""
    if n < 1:
        raise ValueError("meta-surface count must be >= 1")
    return float(n) ** 2


def thermal_noise_w(params: LinkParams) -> float:
    """Noise floor N0 in the (W lambda^2 / 4 pi) kB T0 form used by the link model."""
    lam = params.wavelength_m
    return params.bandwidth_hz * lam ** 2 / (4.0 * math.pi) \
        * BOLTZMANN * params.temperature_k


def noise_plus_interference(geom: LinkGeometry, params: LinkParams) -> float:
    """Noise floor plus absorption-scattered power from every surface.

    The sum runs over all listed surfaces, serving one included, matching
    the link model's unrestricted sum.
    """
    n0 = thermal_noise_w(params)
    a0 = SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * params.carrier_hz ** 2)
    k = params.absorption_per_m
    total = n0
    for d in geom.ris_distances_m:
        total += params.tx_power_w * a0 / d ** 2 * (1.0 - math.exp(-k * d))
    return total


def rate_bps(geom: LinkGeometry, params: LinkParams) -> float:
    """Uplink Shannon rate W log2(1 + p h N^2 / noise)."""
    h = channel_gain(geom.serving_distance_m, params)
    gain = ris_array_gain(params.meta_surfaces)
    noise = noise_plus_interference(geom, params)
    snr = params.tx_power_w * h * gain / noise
    return params.bandwidth_hz * math.log2(1.0 + snr)


def update_rate(rate_bits_per_s: float, params: LinkParams) -> float:
    """Updates per second for a fixed image size: R / M."""
    if rate_bits_per_s < 0:
        raise ValueError("rate must be non-negative")
    return rate_bits_per_s / params.image_size_bits
