"""Conformal transformation laws: curvature of the perturbed metric.

Surfaces and general dimension use g1 = e^{af} g0, under which

    R1 = e^{-af} [ R0 - a(n-1) h - a^2 (n-1)(n-2) |grad f|^2 / 4 ]

with h the Laplace-Beltrami image of f (the gradient term vanishes at n = 2).
The fourth-order case uses g1 = e^{2af} g0 in even dimension n, under which
the associated curvature transforms as Q1 = e^{-naf} (Q0 - a h) with
h = -P f.  In both cases the exponential prefactor is positive, so the sign
of the transformed curvature is the sign of the bracket.

deviation_field evaluates the law of its dimension (fields.exponent_factor):
the surface law at n = 2 and the fourth-order one at even n > 2; at n = 2
the latter is half the surface law at doubled a and Q0, bit for bit.  No
built-in geometry of dimension n > 2 has a sampler.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import FieldKind, RandomFieldSpec, diagonal_variance, exponent_factor

__all__ = [
    "scalar_curvature_2d",
    "q_round_s4",
    "expected_volume",
    "deviation_field",
]


def scalar_curvature_2d(R0, f, h, a: float) -> np.ndarray:
    """R1 = e^{-af} (R0 - a h) on a surface; R0, f and h broadcast."""
    return np.exp(-a * f) * (R0 - a * h)


def q_round_s4() -> float:
    """Fourth-order curvature constant of the unit round 4-sphere, derived
    from the dimension-4 formula -(1/12)(Lap R - R^2 + 3 |Ric|^2) with the
    round data R = n(n-1), Ric = (n-1) g, Lap R = 0 at n = 4."""
    n = 4
    scal = n * (n - 1.0)
    ric_sq = (n - 1.0) ** 2 * n
    return -(0.0 - scal * scal + 3.0 * ric_sq) / 12.0


def expected_volume(spec: RandomFieldSpec, a: float, n: int, grid) -> float:
    """Expected volume of the perturbed metric, integrated on the grid:
    the volume element is e^{naf/2} dV0 and averaging the lognormal factor
    pointwise gives the integrand e^{n^2 a^2 r_f(x,x)/8}."""
    f_spec = RandomFieldSpec(spec.spectrum, spec.coefficients, FieldKind.F)
    var_f = diagonal_variance(f_spec, grid)
    weights = getattr(grid, "weights", None)
    if weights is None:
        raise ValueError("expected_volume needs a grid with quadrature weights")
    # fsum: exactly rounded, so a = 0 returns the grid's total area verbatim
    return math.fsum(weights * np.exp((n * n * a * a / 8.0) * var_f))


def deviation_field(f, h, reference, a: float, n: int) -> np.ndarray:
    """The exact curvature deviation in dimension n for field values f and
    h, which broadcast with reference: R0 (e^{-af} - 1) - a h e^{-af} on
    surfaces, Q1 - Q0 = Q0 (e^{-naf} - 1) - a h e^{-naf} in even n > 2."""
    rate = exponent_factor(n) * a
    return reference * np.expm1(-rate * f) - a * h * np.exp(-rate * f)
