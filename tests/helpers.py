"""Shared independent oracles for the test suite.

These deliberately avoid the package's own recurrence code: normalized
associated Legendre values come from scipy's lpmv with log-factorial
normalization, so kernel and sampler checks are cross-implementation.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, lpmv


def oracle_pbar(m, k, x):
    logn = 0.5 * (
        math.log((2 * m + 1) / (4 * math.pi)) + gammaln(m - k + 1) - gammaln(m + k + 1)
    )
    return math.exp(logn) * lpmv(k, m, x)


def oracle_harmonic_columns(max_level, theta, phi):
    """All real orthonormal harmonics, level-major, k=0 then cos/sin pairs."""
    x = np.cos(theta)
    cols = []
    for m in range(1, max_level + 1):
        cols.append(oracle_pbar(m, 0, x))
        for k in range(1, m + 1):
            pk = oracle_pbar(m, k, x)
            cols.append(math.sqrt(2) * pk * np.cos(k * phi))
            cols.append(math.sqrt(2) * pk * np.sin(k * phi))
    return np.stack(cols, axis=-1)


def slow_sphere_field(weights_by_level, gaussians, theta, phi):
    """Reference evaluator: sum of per-level weight * draw * harmonic."""
    Y = oracle_harmonic_columns(len(weights_by_level), theta, phi)
    w = np.concatenate(
        [np.full(2 * m + 1, weights_by_level[m - 1]) for m in range(1, len(weights_by_level) + 1)]
    )
    return Y @ (w * gaussians)


def two_wave_sup_tail(u, a, sigma=0.5, eigenvalue=18.0):
    """The exact P(max_x |R1 - R0| > u) on the continuum for a flat-torus
    field of one level whose two waves run along x - y and x + y (level 10
    of torus2_spectrum(11): eigenvalue 18, modes k = (3, +-3)), with R0 = 0.

    h = R1 cos(3(x - y) - p1) + R2 cos(3(x + y) - p2) with R1, R2 Rayleigh of
    scale sigma, so sup h = S = R1 + R2; with f = -h / eigenvalue the largest
    |deviation| is a S e^{a S / eigenvalue}.  The event is S > s*, the root
    of s e^{a s / eigenvalue} = u / a (brentq), and
    P(S > s*) = P(R1 > s*) + int_0^s* p(r) P(R2 > s* - r) dr (one quad).
    """
    target = u / a
    s_star = brentq(lambda s: s * math.exp(a * s / eigenvalue) - target, 0.0, target)
    tail = lambda r: math.exp(-r * r / (2.0 * sigma * sigma))
    density = lambda r: r / sigma**2 * tail(r)
    inner, _ = quad(lambda r: density(r) * tail(s_star - r), 0.0, s_star, epsabs=0.0, epsrel=1e-12)
    return tail(s_star) + inner
