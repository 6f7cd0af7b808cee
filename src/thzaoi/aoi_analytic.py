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
Adaptive quadrature of the density (``CdfSource.QUADRATURE``) is kept as
an independent oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

QUAD_ABS_TOL = 1e-9
TAIL_MASS = 1e-12
_RANGE_TOL = 1e-8            # slack when range-checking probabilities


class Discipline(enum.Enum):
    FCFS_MM12 = "fcfs"
    LCFS_MM12_STAR = "lcfs"


class CdfSource(enum.Enum):
    CLOSED_FORM = "closed_form"      # as published; the LCFS form is flagged invalid
    QUADRATURE = "quadrature"        # adaptive quadrature of the density (oracle)
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
        if self.update_rate <= 0 or self.service_rate <= 0:
            raise ValueError("rates must be strictly positive")


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
        if self.arrival_rate <= 0 or self.service_rate <= 0:
            raise ValueError("rates must be strictly positive")


@dataclass(frozen=True)
class FlaggedValue:
    value: float
    validity: Validity


# ---------------------------------------------------------------------------
# stable kernels

def _phi1(x):
    """(exp(x) - 1) / x, continuous through x = 0.

    A Python float (quadrature's one-point calls) takes plain branches with the
    same threshold and numpy calls as the array path, so both agree bit for bit."""
    if isinstance(x, float):
        return 1.0 + x / 2.0 if abs(x) < 1e-12 else float(np.expm1(x) / x)
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x / 2.0, np.expm1(safe) / safe)
    return out if out.ndim else float(out)


def _h2_series(x):
    return 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))


def _h2(x):
    """(exp(x) - 1 - x) / x^2, continuous through x = 0; a float path as in ``_phi1``."""
    if isinstance(x, float):
        return _h2_series(x) if abs(x) < 1e-4 else float((np.expm1(x) - x) / (x * x))
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    direct = (np.expm1(safe) - safe) / (safe * safe)
    out = np.where(small, _h2_series(x), direct)
    return out if out.ndim else float(out)


def _tail_where_overflowed(value, r: float, mu: float, a, coef: float, power: int,
                           base: float = 0.0):
    """``value`` where finite, else the exp(-r a) tail base + coef exp(-r a) / (mu - r)^power.

    The kernels overflow only once (mu - r) a > 709, where exp(-mu a) < 1e-308."""
    if (isinstance(value, float) and math.isfinite(value)) or np.all(np.isfinite(value)):
        return value
    return np.where(np.isfinite(value), value, base + coef * np.exp(-r * a) / (mu - r) ** power)


def _check_age(a):
    if isinstance(a, float):
        if a < 0:
            raise ValueError("age must be non-negative")
        return a
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0):
        raise ValueError("age must be non-negative")
    return arr


# ---------------------------------------------------------------------------
# densities

def _pdf_fcfs(r: float, mu: float, a):
    p_empty = mu / (r + mu)
    p_busy = r / (r + mu)
    delta = r - mu
    emu = np.exp(-mu * a)
    # a * a, not a ** 2: a float's pow() can round apart from numpy's square
    cond_empty = mu ** 2 * r * emu * (a * a) * _h2(-delta * a)
    cond_busy = 0.5 * (a * a) * mu ** 3 * emu
    return _tail_where_overflowed(cond_empty * p_empty + cond_busy * p_busy,
                                  r, mu, a, p_empty * mu ** 2 * r, 2)


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
    """Peak-age density at scalar or array age(s) ``a``; a float stays one in the kernels."""
    arr = _check_age(a)
    r, mu = law.update_rate, law.service_rate
    if law.discipline is Discipline.FCFS_MM12:
        out = _pdf_fcfs(r, mu, arr)
    else:
        out = _pdf_lcfs(r, mu, arr)
    return float(out) if isinstance(arr, float) or not np.ndim(a) else out


# ---------------------------------------------------------------------------
# CDFs

def _cdf_fcfs_closed(r: float, mu: float, a):
    # exact restatement of the published form with the (r - mu)^-2 factor
    # absorbed into the h2 kernel
    delta = r - mu
    emu = np.exp(-mu * a)
    bracket = (2.0 * mu ** 3 * a ** 2 * _h2(-delta * a)
               + mu ** 3 * a ** 2 + 4.0 * mu ** 2 * a + 4.0 * mu
               + (mu ** 2 * a ** 2 + 2.0 * mu * a + 2.0) * delta)
    return _tail_where_overflowed(1.0 - emu * bracket / (2.0 * (r + mu)),
                                  r, mu, a, -mu ** 3 / (r + mu), 2, 1.0)


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


def _quad_breakpoints(law: StageLaw, upper: float) -> list[float]:
    scales = {1.0 / (law.update_rate + law.service_rate),
              1.0 / law.update_rate, 1.0 / law.service_rate,
              3.0 / law.service_rate}
    return sorted(p for p in scales if 0.0 < p < upper)


def _quad_pdf(law: StageLaw, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    from scipy import integrate
    pts = [p for p in _quad_breakpoints(law, hi) if lo < p < hi]
    val, err = integrate.quad(lambda t: pdf_paoi(law, t), lo, hi,
                              points=pts or None, limit=300,
                              epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL)
    if not math.isfinite(val) or err > max(1e-7, 1e-6 * abs(val)):
        raise ArithmeticError(
            f"quadrature failed on [{lo}, {hi}]: value={val}, err={err}")
    return val


def _flag_probability(value: float) -> Validity:
    if not math.isfinite(value):
        return Validity.NOT_COMPUTABLE
    if -_RANGE_TOL <= value <= 1.0 + _RANGE_TOL:
        return Validity.VALID
    return Validity.INVALID


def cdf_paoi(law: StageLaw, a, source: CdfSource = CdfSource.REFERENCE) -> FlaggedValue:
    """Peak-age CDF at scalar age ``a`` from the requested source.

    REFERENCE evaluates the canonical kernel of ``cdf_reference``;
    CLOSED_FORM returns the published expression verbatim (for LCFS this
    is known-invalid near zero and is flagged, never clamped); QUADRATURE
    integrates the density and serves as an oracle.
    """
    a = float(a)
    if a < 0:
        raise ValueError("age must be non-negative")
    r, mu = law.update_rate, law.service_rate
    if source is CdfSource.REFERENCE:
        val = float(cdf_reference(law)(a))
    elif source is CdfSource.CLOSED_FORM:
        if law.discipline is Discipline.FCFS_MM12:
            val = float(_cdf_fcfs_closed(r, mu, a))
        else:
            val = float(_cdf_lcfs_published(r, mu, a))
    else:
        val = _quad_pdf(law, 0.0, a)
    return FlaggedValue(val, _flag_probability(val))


def cdf_reference(law: StageLaw) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized canonical CDF: the one place that picks the kernel per discipline.

    FCFS uses the closed form (a genuine CDF); LCFS uses the integrated
    density, never the published form.  Both agree with a 30-digit mpmath
    evaluation to about 1e-16 at THz-scale rates, which the validation
    suite checks; quadrature is off by up to about 1e-8 there.
    """
    r, mu = law.update_rate, law.service_rate
    if law.discipline is Discipline.FCFS_MM12:
        return lambda a: _cdf_fcfs_closed(r, mu, np.asarray(a, dtype=float))
    return lambda a: _cdf_lcfs_integrated(r, mu, np.asarray(a, dtype=float))


# ---------------------------------------------------------------------------
# system-level CDF and severity

def system_cdf(sys_law: SystemLaw, a, source: CdfSource = CdfSource.REFERENCE) -> FlaggedValue:
    """Joint CDF of the worst stage: the product of the per-stage CDFs."""
    val = 1.0
    worst = Validity.VALID
    for stage in sys_law.stages:
        part = cdf_paoi(stage, a, source)
        val *= part.value
        if part.validity is not Validity.VALID:
            worst = part.validity
    if worst is Validity.VALID:
        worst = _flag_probability(val)
    return FlaggedValue(val, worst)


def severity_both_modes(sys_law: SystemLaw, ruin_level: float, threshold_z: float,
                        source: CdfSource = CdfSource.REFERENCE) -> dict[PsiMode, FlaggedValue]:
    """Maximum-severity-of-exceedance CDF value J(z) under both Psi readings.

    J(z) = [Psi(a) - Psi(a + z)] / [Psi(a) (1 - Psi(z))] with Psi taken
    either as the raw joint CDF or as the survival function; both readings
    share the three CDF evaluations.  The value is returned verbatim;
    anything outside [0, 1] is flagged INVALID and a vanishing denominator
    yields NOT_COMPUTABLE (NaN), never a clamp.
    """
    base = {x: system_cdf(sys_law, x, source)
            for x in (ruin_level, ruin_level + threshold_z, threshold_z)}
    out = {}
    for mode in (PsiMode.AS_WRITTEN_CDF, PsiMode.SURVIVAL):
        def pick(x):
            v = base[x]
            return FlaggedValue(1.0 - v.value, v.validity) if mode is PsiMode.SURVIVAL else v
        psi_a, psi_az, psi_z = (pick(ruin_level), pick(ruin_level + threshold_z),
                                pick(threshold_z))
        denom = psi_a.value * (1.0 - psi_z.value)
        if psi_a.value == 0.0 or denom == 0.0:
            out[mode] = FlaggedValue(math.nan, Validity.NOT_COMPUTABLE)
            continue
        val = (psi_a.value - psi_az.value) / denom
        flag = _flag_probability(val)
        if flag is Validity.VALID:
            for part in (psi_a, psi_az, psi_z):
                if part.validity is not Validity.VALID:
                    flag = part.validity
        out[mode] = FlaggedValue(val, flag)
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
