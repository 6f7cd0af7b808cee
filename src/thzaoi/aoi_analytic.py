"""Closed-form peak-age distributions, severity-of-exceedance CDF, averages.

Two single-stage disciplines are covered, both capacity-2 queues fed by a
Poisson update stream of rate r and served at rate mu:

* ``FCFS_MM12`` -- drop-on-full FCFS,
* ``LCFS_MM12_STAR`` -- the waiting slot is replaced by each new arrival,
  the packet in service is never preempted.

Every closed form carries (r - mu) denominators.  All five -- the two
densities, the FCFS CDF and both LCFS CDFs -- are evaluated through the
stable kernels ``_phi1`` and ``_h2``, so they stay exact through r = mu.

The LCFS closed-form CDF is reproduced exactly as published even though
it is not a valid CDF (it evaluates to mu (2 - mu - r) / (mu + r) at
a = 0); results carry a validity flag instead of being corrected
silently.  The canonical CDFs (``CdfSource.REFERENCE``, the default) are
the FCFS closed form and, for LCFS, the analytically integrated density.
Gauss-Legendre quadrature of the density (``CdfSource.QUADRATURE``, see
``_quad_pdf``) is kept as an independent oracle.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

TAIL_MASS = 1e-12
_RANGE_TOL = 1e-8            # slack when range-checking probabilities
_QUAD_SELF_CHECK_TOL = 1e-12  # quadrature's largest move when its panels are halved


class Discipline(enum.Enum):
    FCFS_MM12 = "fcfs"
    LCFS_MM12_STAR = "lcfs"


class CdfSource(enum.Enum):
    CLOSED_FORM = "closed_form"      # as published; the LCFS form is flagged invalid
    QUADRATURE = "quadrature"        # Gauss-Legendre quadrature of the density (oracle)
    REFERENCE = "reference"          # canonical kernels, see cdf_reference


class PsiMode(enum.Enum):
    AS_WRITTEN_CDF = "as-written"
    SURVIVAL = "survival"


class AvgMode(enum.Enum):
    AS_WRITTEN = "as-written"
    CORRECTED = "corrected"


class Validity(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    NOT_COMPUTABLE = "not_computable"


class InstabilityError(ValueError):
    """Raised when a stable-queue formula is evaluated at rho >= 1."""


@dataclass(frozen=True)
class StageLaw:
    """Peak-age law of one user stage: update rate, service rate, discipline."""

    update_rate: float
    service_rate: float
    discipline: Discipline = Discipline.FCFS_MM12

    def __post_init__(self):
        if not (0 < self.update_rate < math.inf and 0 < self.service_rate < math.inf):
            raise ValueError("rates must be strictly positive and finite")


@dataclass(frozen=True)
class SystemLaw:
    """Joint law across user stages: the product of the per-stage laws."""

    stages: tuple[StageLaw, ...]

    def __post_init__(self):
        if len(self.stages) < 1:
            raise ValueError("need at least one stage")


@dataclass(frozen=True)
class ComputeQueueLaw:
    """Shared downstream FCFS queue: aggregate arrival and service rates."""

    arrival_rate: float
    service_rate: float
    formula_mode: AvgMode = AvgMode.CORRECTED

    def __post_init__(self):
        if not (0 < self.arrival_rate < math.inf and 0 < self.service_rate < math.inf):
            raise ValueError("rates must be strictly positive and finite")


@dataclass(frozen=True)
class FlaggedValue:
    value: float
    validity: Validity


# ---------------------------------------------------------------------------
# stable kernels

def _any(mask) -> bool:
    """Whether any of ``mask`` is set; on the numpy scalar of one age this skips
    the 2 us that ``mask.any()`` costs there."""
    return bool(mask.any() if mask.ndim else mask)


# each kernel builds its series only when some x falls inside the cutoff: np.where
# alone would build both branches at every x, 1-3 us on the numpy scalar of one age
def _phi1(x):
    """(exp(x) - 1) / x, continuous through x = 0."""
    out = np.expm1(x) / x
    small = np.abs(x) < 1e-12
    return np.where(small, 1.0 + x / 2.0, out) if _any(small) else out


def _h2(x):
    """(exp(x) - 1 - x) / x^2, continuous through x = 0."""
    out = (np.expm1(x) - x) / (x * x)
    small = np.abs(x) < 1e-4
    if not _any(small):
        return out
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, out)


# every kernel runs without numpy's overflow, invalid-value and division warnings: what
# raises them is the overflow _tail_where_overflowed replaces, the 0 / 0 of _phi1 and
# _h2 at x = 0, where the series is taken, or, with one rate per age, the tail's
# 1 / (mu - r) at the ages of a rate r = mu, whose finite values are kept
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _tail_where_overflowed(value, r: float, mu: float, a, coef: float, power: int,
                           base: float = 0.0):
    """``value`` where finite, else the exp(-r a) tail base + coef exp(-r a) / (mu - r)^power.

    The kernels overflow only once (mu - r) a > 709, where exp(-mu a) < 1e-308.
    The power is libm's ``pow`` whether ``r`` is one rate or one per age: numpy
    squares an array exactly, which rounds apart from ``pow`` for some (mu - r)."""
    finite = np.isfinite(value)
    if not _any(~finite):
        return value
    return np.where(finite, value,
                    base + coef * np.exp(-r * a) / np.float_power(mu - r, power))


def _check_age(a):
    arr = np.asarray(a, dtype=float)
    if not (arr >= 0).all():   # NaN fails too
        raise ValueError("age must be non-negative")
    return arr[()]   # one age as a numpy scalar: scalar arithmetic beats 0-d arrays


# ---------------------------------------------------------------------------
# densities

@_quiet
def _pdf_fcfs(r: float, mu: float, a):
    p_empty = mu / (r + mu)
    p_busy = r / (r + mu)
    delta = r - mu
    emu = np.exp(-mu * a)
    cond_empty = mu ** 2 * r * emu * (a * a) * _h2(-delta * a)
    cond_busy = 0.5 * (a * a) * mu ** 3 * emu
    return _tail_where_overflowed(cond_empty * p_empty + cond_busy * p_busy,
                                  r, mu, a, p_empty * mu ** 2 * r, 2)


@_quiet
def _pdf_lcfs(r: float, mu: float, a):
    s = r + mu
    p_empty = mu / s
    p_busy = r / s
    delta = r - mu
    poly = r * r + 2.0 * mu * r + 2.0 * mu * mu
    q = r * (r * r + r * mu + mu * mu)
    es = np.exp(-s * a)
    emu = np.exp(-mu * a)
    cond_empty = (r * s * a + poly / mu) * es \
        + emu * (q * a * _phi1(-delta * a) - poly) / mu
    cond_busy = (mu * mu / (r * r)) * (
        es * (3.0 * mu + 2.0 * r + r * s * a)
        - emu * (3.0 * mu + 2.0 * r - r * (r + 2.0 * mu) * a))
    return _tail_where_overflowed(cond_empty * p_empty + cond_busy * p_busy,
                                  r, mu, a, p_empty * q / mu, 1)


def pdf_paoi(law: StageLaw, a):
    """Peak-age density at scalar or array age(s) ``a``."""
    arr = _check_age(a)
    kernel = _pdf_fcfs if law.discipline is Discipline.FCFS_MM12 else _pdf_lcfs
    out = kernel(law.update_rate, law.service_rate, arr)
    return out if arr.ndim else float(out)


# ---------------------------------------------------------------------------
# CDFs

@_quiet
def _cdf_fcfs_closed(r: float, mu: float, a):
    # exact restatement of the published form with the (r - mu)^-2 factor absorbed
    # into the h2 kernel
    delta = r - mu
    emu = np.exp(-mu * a)
    bracket = (2.0 * mu ** 3 * (a * a) * _h2(-delta * a)
               + mu ** 3 * (a * a) + 4.0 * mu ** 2 * a + 4.0 * mu
               + (mu ** 2 * (a * a) + 2.0 * mu * a + 2.0) * delta)
    return _tail_where_overflowed(1.0 - emu * bracket / (2.0 * (r + mu)),
                                  r, mu, a, -mu ** 3 / (r + mu), 2, 1.0)


@_quiet
def _cdf_lcfs_integrated(r: float, mu: float, a):
    # antiderivative of the LCFS density (not the published form): the
    # canonical LCFS CDF, exact where quadrature stops at its tolerance
    delta = r - mu
    s = r + mu
    emu = np.exp(-mu * a)
    es = np.exp(-s * a)
    q2 = r * (r * r + r * mu + mu * mu)
    r2 = delta * (r * r + 2.0 * mu * r + 3.0 * mu * mu)
    term_a = emu * a * mu * r * (r + 2.0 * mu)
    term_b = es * a * mu * r * s
    inner = (-mu * (r + 3.0 * mu)
             + (r * r + 2.0 * mu * r + 3.0 * mu * mu) * emu
             + (q2 - r2 * emu) * a * _phi1(-delta * a))
    term_c = emu * inner
    return _tail_where_overflowed(1.0 - (term_a + term_b + term_c) / (r * s),
                                  r, mu, a, -q2 / (r * s), 1, 1.0)


@_quiet
def _cdf_lcfs_published(r: float, mu: float, a):
    # the closed form exactly as printed, 1 - t1 + t2 - t3, with its 1 / (r (r - mu))
    # cancelled through exp(-r a) = exp(-mu a) (1 - (r - mu) a phi1(-(r - mu) a)) and
    # 1 - exp(-r a) = r a phi1(-r a); violates the CDF axioms at a = 0
    delta = r - mu
    s = r + mu
    poly = r * r + 2.0 * mu * r + 3.0 * mu * mu
    p = r * r + r * mu + mu * mu
    bracket = (a * _phi1(-r * a) * (poly + mu * r * s) - p * a * _phi1(-delta * a)
               - mu * (r + 2.0 * mu) * a - delta - mu * s)
    return _tail_where_overflowed(1.0 + np.exp(-mu * a) * bracket / s,
                                  r, mu, a, -p / s, 1, 1.0)


def support_bound(law: StageLaw) -> float:
    """Upper truncation point: drop-on-full closed-form tail below ``TAIL_MASS``."""
    r, mu = law.update_rate, law.service_rate
    upper = 10.0 / min(r, mu)
    for _ in range(200):
        if 1.0 - _cdf_fcfs_closed(r, mu, upper) < TAIL_MASS:
            return upper
        upper *= 1.5
    raise RuntimeError("tail mass did not fall below target")


# the 20-point Gauss-Legendre rule on [-1, 1], bit for bit numpy.polynomial's
# leggauss(20), which would load numpy.polynomial (about 5 ms) on first use; the
# rule is symmetric, so its nodes in (0, 1) and their weights give all of it
_GL_HALF_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
                  0.5108670019508271, 0.636053680726515, 0.7463319064601508,
                  0.8391169718222188, 0.912234428251326, 0.9639719272779138,
                  0.993128599185095)
_GL_HALF_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
                    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
                    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
                    0.017614007139150893)
_GL_NODES = np.concatenate((-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS))


def _quad_pdf(law: StageLaw, grid, moment: int | tuple[int, ...] = 0) -> np.ndarray:
    """Integral of a^moment pdf(a) from ``grid[0]`` to each point of the ascending ``grid``;
    for a tuple of moments, one such row per moment from one evaluation of the density.

    20-point Gauss-Legendre on panels cut at the grid, at the time scales 1/(r + mu),
    1/r, 1/mu, 3/mu and at 1/(64 max(r, mu)) times powers of 1.5, all in one call of
    ``pdf_paoi``.  ``ArithmeticError`` if halving every panel moves a row's value by more
    than ``_QUAD_SELF_CHECK_TOL`` times the row's largest value (at least 1).
    """
    grid = _check_age(grid)
    r, mu = law.update_rate, law.service_rate
    lo, hi = float(grid[0]), float(grid[-1])
    first = 1.0 / (64.0 * max(r, mu))
    # the ratio overflows from ages of about 1.4e306; capped, it drops only edges where pdf = 0
    steps = math.ceil(math.log(min(hi / first, sys.float_info.max), 1.5)) if hi > first else 0
    edges = np.sort(np.concatenate(
        (grid, [1.0 / (r + mu), 1.0 / r, 1.0 / mu, 3.0 / mu], first * 1.5 ** np.arange(steps))))
    # repeats dropped by hand: np.unique would load numpy.ma on first use
    edges = edges[(edges >= lo) & (edges <= hi) & np.append(True, edges[1:] != edges[:-1])]
    moments = moment if isinstance(moment, tuple) else (moment,)

    def cumulative(edges):
        half = 0.5 * np.diff(edges)
        t = (edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES
        f = pdf_paoi(law, t)
        # a row at a time: a stacked 3-D matmul may round apart from the 2-D one
        return np.array([np.cumsum(np.concatenate(([0.0], half * ((f * t ** m) @ _GL_WEIGHTS))))
                         for m in moments])

    at = np.searchsorted(edges, grid)
    cum = cumulative(edges)[:, at]
    halved = np.sort(np.concatenate((edges, edges[:-1] + 0.5 * np.diff(edges))))
    check = cumulative(halved)[:, 2 * at]
    moved = np.max(np.abs(cum - check), axis=1)
    if not np.all(moved <= _QUAD_SELF_CHECK_TOL * np.maximum(1.0, np.max(np.abs(check), axis=1))):
        raise ArithmeticError(
            f"quadrature failed on [{lo}, {hi}]: halving its panels moved it by {np.max(moved)}")
    return cum if isinstance(moment, tuple) else cum[0]


def _flag_probability(value: float) -> Validity:
    if not math.isfinite(value):
        return Validity.NOT_COMPUTABLE
    if -_RANGE_TOL <= value <= 1.0 + _RANGE_TOL:
        return Validity.VALID
    return Validity.INVALID


def _cdf_kernel(law: StageLaw, source: CdfSource):
    """The one stage-CDF kernel of a (discipline, reading): the FCFS closed form for
    both; for LCFS the published form as CLOSED_FORM, else the integrated density."""
    if law.discipline is Discipline.FCFS_MM12:
        return _cdf_fcfs_closed
    return _cdf_lcfs_published if source is CdfSource.CLOSED_FORM else _cdf_lcfs_integrated


def cdf_paoi(law: StageLaw, a, source: CdfSource = CdfSource.REFERENCE) -> FlaggedValue:
    """Peak-age CDF at scalar age ``a`` from the requested source.

    REFERENCE is the kernel of ``cdf_reference``; CLOSED_FORM is the published
    expression verbatim (for LCFS known-invalid near zero: flagged, never
    clamped); QUADRATURE integrates the density (``_quad_pdf``), an oracle.
    """
    a = float(a)
    if not a >= 0:   # NaN fails too, as it does in _check_age
        raise ValueError("age must be non-negative")
    if source is not CdfSource.QUADRATURE:
        return _kernel_value(_cdf_kernel(law, source), law.update_rate, law.service_rate, a)
    val = float(_quad_pdf(law, [0.0, a])[-1])
    return FlaggedValue(val, _flag_probability(val))


@functools.lru_cache(maxsize=1 << 12)
def _kernel_value(kernel, r: float, mu: float, a: float) -> FlaggedValue:
    """``kernel`` at one age, flagged, evaluated once per (kernel, rates, age): a sweep's
    cells share users, so its severities read each stage's few ages many times over."""
    val = float(kernel(r, mu, a))
    return FlaggedValue(val, _flag_probability(val))


def cdf_reference(law: StageLaw) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized canonical CDF: the FCFS closed form, or the integrated LCFS density.

    Both agree with a 30-digit ``decimal`` evaluation to about 1e-16 at THz-scale
    rates, which the validation suite checks; quadrature stays within 1e-12
    there.
    """
    kernel = _cdf_kernel(law, CdfSource.REFERENCE)
    r, mu = law.update_rate, law.service_rate
    return lambda a: kernel(r, mu, _check_age(a))


# ---------------------------------------------------------------------------
# system-level CDF and severity

def system_cdf(sys_law: SystemLaw, a) -> FlaggedValue:
    """Joint CDF of the worst stage: the product of the per-stage reference CDFs."""
    val = 1.0
    for stage in sys_law.stages:
        val *= cdf_paoi(stage, a).value
    return FlaggedValue(val, _flag_probability(val))


def severity_both_modes(sys_law: SystemLaw, ruin_level: float,
                        threshold_z: float) -> dict[PsiMode, FlaggedValue]:
    """Maximum-severity-of-exceedance CDF value J(z) under both Psi readings.

    J(z) = [Psi(a) - Psi(a + z)] / [Psi(a) (1 - Psi(z))] with Psi taken
    either as the raw joint CDF or as the survival function; both readings
    share the three CDF evaluations.  The value is returned verbatim;
    anything outside [0, 1] is flagged INVALID and a vanishing denominator
    yields NOT_COMPUTABLE (NaN), never a clamp.
    """
    points = (ruin_level, ruin_level + threshold_z, threshold_z)
    raw = [system_cdf(sys_law, x).value for x in points]
    out = {}
    for mode in (PsiMode.AS_WRITTEN_CDF, PsiMode.SURVIVAL):
        psi_a, psi_az, psi_z = raw if mode is PsiMode.AS_WRITTEN_CDF else [1.0 - c for c in raw]
        denom = psi_a * (1.0 - psi_z)
        if denom == 0.0:
            out[mode] = FlaggedValue(math.nan, Validity.NOT_COMPUTABLE)
            continue
        val = (psi_a - psi_az) / denom
        out[mode] = FlaggedValue(val, _flag_probability(val))
    return out


# ---------------------------------------------------------------------------
# averages

def avg_paoi_stage(law: StageLaw) -> float:
    """Mean peak age of one stage (equals the first moment of pdf_paoi)."""
    r, mu = law.update_rate, law.service_rate
    if law.discipline is Discipline.FCFS_MM12:
        return 1.0 / r + 3.0 / mu - 2.0 / (r + mu)
    return 1.0 / r + 1.0 / mu + r / (r + mu) ** 2 + r / (mu * (r + mu))


def avg_paoi_compute(law: ComputeQueueLaw) -> FlaggedValue:
    """Mean peak age of the shared compute queue.

    CORRECTED is mean inter-arrival plus mean system time of a
    single-server Markov queue, 1/lambda + 1/(mu - lambda).  AS_WRITTEN
    reproduces the uncorrected published expression verbatim; its third
    term has units of rate squared, so it is flagged INVALID
    (dimensionally anomalous) rather than repaired.
    """
    lam, mu = law.arrival_rate, law.service_rate
    rho = lam / mu
    if law.formula_mode is AvgMode.CORRECTED:
        if rho >= 1.0:
            raise InstabilityError(
                f"compute queue unstable: rho = {rho:.6g} >= 1")
        return FlaggedValue(1.0 / lam + 1.0 / (mu - lam), Validity.VALID)
    if rho == 1.0:
        return FlaggedValue(math.inf, Validity.INVALID)
    val = 1.0 / lam + 1.0 / mu + lam * (mu + mu * mu) / (2.0 * (1.0 - rho))
    return FlaggedValue(val, Validity.INVALID)


def avg_paoi_e2e(sys_law: SystemLaw, comp: ComputeQueueLaw) -> float:
    """End-to-end average: compute-queue term plus the sum of stage terms."""
    total = avg_paoi_compute(comp).value
    for stage in sys_law.stages:
        total += avg_paoi_stage(stage)
    return total


def stage_throughput(update_rate: float, service_rate: float) -> float:
    """Delivered-update rate of one capacity-2 stage, r (1 + rho) / (1 + rho + rho^2).

    Identical for both disciplines (same occupancy chain); strictly below
    the service rate, approaching it as the stage saturates.
    """
    rho = update_rate / service_rate
    return update_rate * (1.0 + rho) / (1.0 + rho + rho * rho)


def stage_loss_rate(law: StageLaw) -> float:
    """Rate of arrivals that find the stage full, r rho^2 / (1 + rho + rho^2): FCFS
    drops them, LCFS lets each displace the waiter (the same occupancy chain)."""
    rho = law.update_rate / law.service_rate
    return law.update_rate * rho * rho / (1.0 + rho + rho * rho)
