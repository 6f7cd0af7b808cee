"""Monte Carlo reference for a stage's peak age that needs no simulator.

In the cycle model of ``thzaoi.queue_sim`` a cycle draws the service time
S ~ Exp(mu), the time E ~ Exp(r) to the next arrival and, for LCFS, the backward
gap G ~ Exp(r) from the service's end to its last arrival, i.i.d. over cycles.
The peak at a delivery is the sum of three terms from three consecutive cycles,

    P = A(cycle t - 2) + B(cycle t - 1) + S(cycle t),   B = max(S, E),

with A = (S - E)+ for FCFS and, for LCFS, min(G, S - E) where E < S, else 0.
The terms come from different cycles, so i.i.d. draws of each give i.i.d.
peaks from the stationary law.  Both disciplines' A are read off one set of S
and E, as the simulator's paired runs do, so an LCFS term never exceeds the
FCFS one.
"""

import numpy as np

from thzaoi.aoi_analytic import Discipline


def cycle_terms(rate: float, mu: float, n: int, rng: np.random.Generator):
    """``n`` i.i.d. draws of each term: ({discipline: A}, B, S), the two A from one S, E."""
    s, e = rng.exponential(1.0 / mu, (3, n)), rng.exponential(1.0 / rate, (2, n))
    g = rng.exponential(1.0 / rate, n)
    wait = s[0] - e[0]   # the next arrival waits where it came before the service's end
    a = {Discipline.FCFS_MM12: np.maximum(wait, 0.0),
         Discipline.LCFS_MM12_STAR: np.where(wait > 0.0, np.minimum(g, wait), 0.0)}
    return a, np.maximum(s[1], e[1]), s[2]


def sample_peaks(discipline: Discipline, rate: float, mu: float, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. peak ages of the stage (rate, mu, discipline)."""
    a, b, s = cycle_terms(rate, mu, n, rng)
    return a[discipline] + b + s
