"""Closed-form bounds, asymptotics, and comparison predicates.

Every operation is a pure function of recorded constants (amplitudes,
thresholds, variances, spectral data); the CLI writes the values as theory
rows next to Monte Carlo rows.  Nothing here samples.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .spectral import SpectrumModel


def gaussian_tail(u: float) -> float:
    """Upper tail of the standard normal, via the complementary error function."""
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def borell_tis_upper(u: float, sigma: float, alpha: float) -> float:
    """Supremum tail bound exp(alpha*u - u^2/(2 sigma^2)) with a caller-supplied
    alpha (the inequality's constant is not computable in closed form)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return math.exp(alpha * u - u * u / (2.0 * sigma * sigma))


def borell_tis_concentration(u: float, e_sup: float, sigma: float) -> float:
    """Concentration form exp(-(u - E[sup])^2 / (2 sigma^2)); needs u > E[sup]."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if u <= e_sup:
        raise ValueError("concentration form needs u above the expected supremum")
    d = u - e_sup
    return math.exp(-d * d / (2.0 * sigma * sigma))


def p2_two_sided(a: float, sigma_v: float, C1_low: float, C2_up: float) -> tuple[float, float]:
    """Two-sided sign-change probability bounds:
    (C1*a) e^{-1/(2 a^2 sigma_v^2)}  <=  P2(a)  <=  e^{C2/a - 1/(2 a^2 sigma_v^2)}.
    """
    if a <= 0 or sigma_v <= 0:
        raise ValueError("a and sigma_v must be positive")
    expo = -1.0 / (2.0 * a * a * sigma_v * sigma_v)
    lower = C1_low * a * math.exp(expo)
    upper = math.exp(C2_up / a + expo)
    return lower, upper


def p2_log_diagnostics(a: float, sigma_v: float, C1_low: float, C2_up: float) -> tuple[float, float, float]:
    """(a^2 ln lower, a^2 ln upper, limit) computed in log space, so the
    small-a limit -1/(2 sigma_v^2) is visible even where the bounds underflow."""
    if a <= 0 or sigma_v <= 0:
        raise ValueError("a and sigma_v must be positive")
    limit = -1.0 / (2.0 * sigma_v * sigma_v)
    a2_log_lower = a * a * math.log(C1_low * a) + limit
    a2_log_upper = a * C2_up + limit
    return a2_log_lower, a2_log_upper, limit


def heat_sigma_small_T(T: float, n: int, inf_R0_sq: float) -> float:
    """Small-time supremum-variance asymptote 1 / ((4 pi T)^{n/2} inf R0^2)."""
    if T <= 0 or inf_R0_sq <= 0:
        raise ValueError("T and inf R0^2 must be positive")
    return 1.0 / ((4.0 * math.pi * T) ** (n / 2.0) * inf_R0_sq)


def heat_sigma_large_T(spectrum: SpectrumModel, R0_grid, T: float) -> tuple[float, float]:
    """Large-time constants (F, F e^{-lambda_1 T}) with
    F = sup_x sum_{first eigenspace} phi_j(x)^2 / R0(x)^2."""
    if T <= 0:
        raise ValueError("T must be positive")
    r0sq = np.asarray(R0_grid, dtype=float) ** 2
    if np.any(r0sq == 0.0):
        raise ValueError("reference curvature vanishes somewhere")
    F = float(np.max(spectrum.phi_sq_level(0) / r0sq))
    lam1 = float(spectrum.eigenvalues[0])
    return F, F * math.exp(-lam1 * T)


class Ordering(str, Enum):
    A_LARGER = "A"
    B_LARGER = "B"
    INCOMPARABLE = "incomparable"


def compare_small_T(inf_R0sq_A: float, inf_R0sq_B: float) -> Ordering:
    """Which metric has larger sign-change probability in the small-time limit:
    the one with smaller inf R0^2 (ties are not ordered)."""
    if inf_R0sq_A <= 0 or inf_R0sq_B <= 0:
        raise ValueError("inf R0^2 inputs must be positive")
    if inf_R0sq_A == inf_R0sq_B:
        return Ordering.INCOMPARABLE
    return Ordering.A_LARGER if inf_R0sq_A < inf_R0sq_B else Ordering.B_LARGER


def compare_large_T(lambda1_A: float, lambda1_B: float) -> Ordering:
    """Large-time analogue: the metric with smaller first eigenvalue wins."""
    if lambda1_A <= 0 or lambda1_B <= 0:
        raise ValueError("first eigenvalues must be positive")
    if lambda1_A == lambda1_B:
        return Ordering.INCOMPARABLE
    return Ordering.A_LARGER if lambda1_A < lambda1_B else Ordering.B_LARGER


def linf_log_asymptote(u: float, a: float, sigma_w: float) -> float:
    """Log-probability asymptote -u^2 / (2 a^2 sigma_w^2) for the sup-norm
    curvature deviation exceeding u."""
    if u <= 0 or a <= 0 or sigma_w <= 0:
        raise ValueError("u, a and sigma_w must be positive")
    return -u * u / (2.0 * a * a * sigma_w * sigma_w)


def linf_regime_ok(u: float, a: float) -> bool:
    # the asymptote needs u small and u/a large
    return u < 0.5 and u / a > 3.0


def nd_negative_bound(a: float, n: int, sigma_v: float, alpha: float) -> float:
    """Sign-change bound exp(alpha/(a(n-1)) - 1/(2 a^2 (n-1)^2 sigma_v^2)) for
    negative reference curvature in dimension n > 2."""
    if n <= 2:
        raise ValueError("this bound needs dimension n > 2")
    if a <= 0 or sigma_v <= 0:
        raise ValueError("a and sigma_v must be positive")
    m = (n - 1.0) * a
    return math.exp(alpha / m - 1.0 / (2.0 * m * m * sigma_v * sigma_v))


def nd_positive_constants(n: int, sigma_v: float, sigma_2: float) -> tuple[float, float, float]:
    """(kappa, delta0, B) for positive reference curvature in dimension n > 2:
    kappa = 4 sigma_v^2 (n-1) / (sigma_2 n (n-2)), delta0 the root in (0,1) of
    delta^2 + kappa delta - kappa = 0, and B the matched exponent constant.

    delta0 and B use cancellation-free forms of (sqrt(kappa^2+4kappa)-kappa)/2
    and (2+kappa-sqrt(kappa^2+4kappa))/(sigma_2 n (n-1)(n-2)).
    """
    if n <= 2:
        raise ValueError("these constants need dimension n > 2")
    if sigma_v <= 0 or sigma_2 <= 0:
        raise ValueError("sigma_v and sigma_2 must be positive")
    kappa = 4.0 * sigma_v * sigma_v * (n - 1.0) / (sigma_2 * n * (n - 2.0))
    s = math.sqrt(kappa * (kappa + 4.0))
    delta0 = 2.0 * kappa / (s + kappa)
    B = 8.0 * kappa / ((s + kappa) ** 2 * sigma_2 * n * (n - 1.0) * (n - 2.0))
    return kappa, delta0, B
