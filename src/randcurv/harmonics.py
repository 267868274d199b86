"""Real orthonormal spherical harmonics on S^2.

Everything is built from fully normalized associated Legendre functions
evaluated by stable three-term recurrences (no factorials, no overflow up to
degrees in the thousands).

Column convention of the design matrix: levels m = 1..max_level in order;
within a level the k = 0 harmonic first, then (cos, sin) pairs for
k = 1..m.  Level m occupies columns [m^2 - 1, (m+1)^2 - 1).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["legendre_all", "n_columns", "SphereHarmonicBasis"]

_CLAMP = 1e-12


def legendre_all(max_degree: int, t) -> np.ndarray:
    """All Legendre polynomials P_0..P_max at once, shape (max_degree+1, npts).

    Arguments within 1e-12 of [-1, 1] are clamped; anything further out
    raises.  Bonnet's recurrence keeps |P_m| <= 1 to rounding for all m.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _CLAMP):
        worst = float(np.max(np.abs(t)))
        raise ValueError(f"legendre argument {worst!r} outside [-1, 1]")
    t = np.atleast_1d(np.clip(t, -1.0, 1.0))
    out = np.empty((max_degree + 1, t.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    for n in range(1, max_degree):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def n_columns(max_level: int) -> int:
    return (max_level + 1) ** 2 - 1


class SphereHarmonicBasis:
    """Design matrix of the real orthonormal harmonics at given points.

    Y[i, j] is the j-th harmonic at point i.
    """

    def __init__(self, max_level: int, theta, phi):
        if max_level < 1:
            raise ValueError("need max_level >= 1")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if theta.shape != phi.shape or theta.ndim != 1:
            raise ValueError("theta and phi must be 1-d arrays of equal length")
        self.max_level = int(max_level)
        self.theta = theta
        self.phi = phi
        self.Y = np.empty((theta.size, n_columns(max_level)))
        self._build()

    def _build(self) -> None:
        M = self.max_level
        x = np.cos(self.theta)
        sx = np.sin(self.theta)
        sqrt2 = math.sqrt(2.0)
        diag = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))   # P~_0^0

        # one order k at a time: P~_m^k for degrees m = k..M, rows below k unused
        for k in range(M + 1):
            if k > 0:
                diag = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sx * diag
            Pk = np.empty((M + 1, x.size))
            Pk[k] = diag
            if k + 1 <= M:
                Pk[k + 1] = math.sqrt(2.0 * k + 3.0) * x * diag
            for m in range(k + 2, M + 1):
                a = math.sqrt((4.0 * m * m - 1.0) / (m * m - k * k))
                b = -math.sqrt(
                    (2.0 * m + 1.0)
                    / (2.0 * m - 3.0)
                    * ((m - 1.0) ** 2 - k * k)
                    / (m * m - k * k)
                )
                Pk[m] = a * x * Pk[m - 1] + b * Pk[m - 2]

            if k == 0:
                for m in range(1, M + 1):
                    self.Y[:, m * m - 1] = Pk[m]
                continue
            cos_k = np.cos(k * self.phi)
            sin_k = np.sin(k * self.phi)
            for m in range(k, M + 1):
                c = m * m - 1 + 2 * k - 1
                self.Y[:, c] = sqrt2 * Pk[m] * cos_k
                self.Y[:, c + 1] = sqrt2 * Pk[m] * sin_k
