"""Hard-particle gas observables on finite graphs and the integer chain.

The partition function of a hard-particle gas on a finite graph counts
stable sets by size, Z(t) = sum alpha_n t^n, with the activity t standing
in for chemical potential and temperature (t = exp(mu/kT); neither mu, k
nor T appears anywhere else).  The mean particle count t Z'/Z also equals
the alternating pyramid series sum (-1)^{n-1} p_n t^n, which is the
identity checked here by computing both sides independently: Z from the
stable sets (`projected_series(g, "gamma", ...)`), and p_n from the
Cartier-Foata layer transfer that lists heaps, counting pyramids instead
(`projected_series(g, "pi-bar", ...)`, which is sum (-1)^n p_n t^n),
neither building a heap.

On the infinite chain the per-site density has the closed form
d(t) = (1 - (1+4t)^{-1/2}) / 2, whose Taylor coefficients are the
alternating halved central binomials; the series is exposed exactly and
the closed form is the only place floating point enters.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import CommutationGraph
from .series import UnivariateSeries, projected_series


class GasError(ValueError):
    """Evaluation outside the domain of the closed form."""


def partition_function(g: CommutationGraph, degree: int) -> UnivariateSeries:
    """Z(t): coefficient n = number of stable sets of size n."""
    return projected_series(g, "gamma", degree)


def mean_particles_direct(g: CommutationGraph, degree: int) -> UnivariateSeries:
    """t Z'(t) / Z(t), truncated."""
    z = partition_function(g, degree)
    return z.t_derivative() * z.invert()


def mean_particles_pyramids(g: CommutationGraph, degree: int) -> UnivariateSeries:
    """sum (-1)^{n-1} p_n t^n over pyramid counts p_n (all bases)."""
    return projected_series(g, "pi-bar", degree).scale(-1)


def linear_density(degree: int) -> UnivariateSeries:
    """Per-site density series of the chain: sum (-1)^{n-1} C(2n,n)/2 t^n.

    C(2n, n) = 2 C(2n-1, n-1) is even for n >= 1, so every coefficient is an
    int.  Each central binomial comes from the last by the exact ratio
    C(2n, n) = C(2n-2, n-1) * 2(2n-1) / n, one small product per degree.
    """
    coeffs = [0]
    central = 1  # C(2n, n)
    for n in range(1, degree + 1):
        central = central * 2 * (2 * n - 1) // n
        coeffs.append(central // 2 if n % 2 else -(central // 2))
    return UnivariateSeries(degree, tuple(coeffs))


def evaluate_density(t: float | Fraction | int) -> float:
    """Closed form (1 - 1/sqrt(1+4t)) / 2; defined for 1 + 4t > 0."""
    radicand = 1 + 4 * Fraction(t) if isinstance(t, (Fraction, int)) else 1.0 + 4.0 * t
    if radicand <= 0:
        raise GasError(f"density undefined at t={t}: 1+4t <= 0")
    return 0.5 * (1.0 - 1.0 / math.sqrt(radicand))


def density_taylor_oracle(degree: int) -> UnivariateSeries:
    """Independent expansion of the closed form via the binomial series.

    (1+x)^(-1/2) = sum binom(-1/2, k) x^k with x = 4t, kept in exact
    rationals; used to cross-check linear_density.
    """
    half = Fraction(1, 2)
    binom = Fraction(1)  # binom(-1/2, k), built up multiplicatively
    power = 1  # 4^k
    coeffs = [half - half * binom * power]
    for k in range(1, degree + 1):
        binom *= -half - (k - 1)
        binom /= k
        power *= 4
        coeffs.append(-half * binom * power)
    return UnivariateSeries(degree, tuple(coeffs))
