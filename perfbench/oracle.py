"""High-precision reference for the sweep's severity values J(z).

Each stage CDF is evaluated at 50 significant digits with mpmath: the FCFS
closed form, and for LCFS the antiderivative of the density (the canonical
CDF; the published LCFS form is known to be invalid and is never used
here).  The system CDF is the product over users, and J(z) is formed under
both Psi readings exactly as the sweep defines it.  Nothing here calls into
the package, so the oracle cannot inherit a defect from the code it checks.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 50
# the package's slack when it range-checks a probability (aoi_analytic._RANGE_TOL)
RANGE_SLACK = 1e-8


def _h2(x):
    """(exp(x) - 1 - x) / x^2."""
    return mp.mpf(1) / 2 if x == 0 else (mp.expm1(x) - x) / (x * x)


def _phi1(x):
    """(exp(x) - 1) / x."""
    return mp.mpf(1) if x == 0 else mp.expm1(x) / x


@mp.workdps(DIGITS)
def stage_pdf(r, mu, a, discipline: str):
    """Peak-age density of one capacity-2 stage ("fcfs" or "lcfs")."""
    r, mu, a = mp.mpf(r), mp.mpf(mu), mp.mpf(a)
    s, d = r + mu, r - mu
    emu = mp.exp(-mu * a)
    if discipline == "fcfs":
        empty = mu ** 2 * r * emu * a ** 2 * _h2(-d * a)
        busy = a ** 2 * mu ** 3 * emu / 2
        return (empty * mu + busy * r) / s
    es = mp.exp(-s * a)
    poly = r * r + 2 * mu * r + 2 * mu * mu
    q = r * (r * r + r * mu + mu * mu)
    empty = (r * s * a + poly / mu) * es + emu * (q * a * _phi1(-d * a) - poly) / mu
    busy = (mu * mu / (r * r)) * (es * (3 * mu + 2 * r + r * s * a)
                                  - emu * (3 * mu + 2 * r - r * (r + 2 * mu) * a))
    return (empty * mu + busy * r) / s


@mp.workdps(DIGITS)
def stage_cdf(r, mu, a, discipline: str):
    """Peak-age CDF of one capacity-2 stage ("fcfs" or "lcfs")."""
    r, mu, a = mp.mpf(r), mp.mpf(mu), mp.mpf(a)
    s, d = r + mu, r - mu
    emu = mp.exp(-mu * a)
    if discipline == "fcfs":
        bracket = (2 * mu ** 3 * a ** 2 * _h2(-d * a) + mu ** 3 * a ** 2
                   + 4 * mu ** 2 * a + 4 * mu + (mu ** 2 * a ** 2 + 2 * mu * a + 2) * d)
        return 1 - emu * bracket / (2 * s)
    es = mp.exp(-s * a)
    quad = r * r + 2 * mu * r + 3 * mu * mu
    inner = (-mu * (r + 3 * mu) + quad * emu
             + (r * (r * r + r * mu + mu * mu) - d * quad * emu) * a * _phi1(-d * a))
    return 1 - (emu * a * mu * r * (r + 2 * mu) + es * a * mu * r * s + emu * inner) / (r * s)


def flag(value) -> str:
    """Validity the package should attach to a severity value."""
    if not mp.isfinite(value):
        return "not_computable"
    return "valid" if -RANGE_SLACK <= value <= 1 + RANGE_SLACK else "invalid"


def severity(rates, mu: float, discipline: str, ruin: float, z: float) -> dict:
    """J(z) under both Psi readings: {"as-written": mpf, "survival": mpf}.

    The system CDF is the product of the per-user stage CDFs; the level
    ``ruin + z`` is formed in binary floating point as the package does.
    """
    with mp.workdps(DIGITS):
        levels = (ruin, float(ruin) + float(z), z)
        cdf = {}
        for x in levels:
            prod = mp.mpf(1)
            for r in rates:
                prod *= stage_cdf(r, mu, x, discipline)
            cdf[x] = prod
        out = {}
        for mode in ("as-written", "survival"):
            psi = {x: (1 - v if mode == "survival" else v) for x, v in cdf.items()}
            denom = psi[levels[0]] * (1 - psi[levels[2]])
            if psi[levels[0]] == 0 or denom == 0:
                out[mode] = mp.nan
            else:
                out[mode] = (psi[levels[0]] - psi[levels[1]]) / denom
        return out


def relative_error(got: float, exact) -> float:
    """|got - exact| / |exact|, in double precision."""
    if not mp.isfinite(exact):
        return 0.0 if math.isnan(got) else math.inf
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(got) - exact) / abs(exact))
