"""Real orthonormal spherical harmonics on S^2.

Everything is built from fully normalized associated Legendre functions
evaluated by stable three-term recurrences (no factorials, no overflow up to
degrees in the thousands).

Column convention of the design matrix: levels m = 1..max_level in order;
within a level the k = 0 harmonic first, then (cos, sin) pairs for
k = 1..m.  Level m occupies columns [m^2 - 1, (m+1)^2 - 1).  A basis over
some of the degrees holds only theirs, in the same order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["legendre_all", "n_columns", "SphereHarmonicBasis"]

_CLAMP = 1e-12
# points per block of the basis build: each block's harmonics are written
# straight into its rows of Y, with working arrays of one block's size
_POINT_BLOCK = 2048


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

    Y[i, j] is the j-th harmonic at point i, over the degrees 1..max_level
    whose flag in kept (one per degree, default all) is set: only their
    columns are written, and the Legendre recurrence runs up to the highest
    of them.  Each element is computed as in the basis over every degree,
    bit for bit.  The build writes each block of _POINT_BLOCK points straight
    into its rows of Y, so it holds Y and one block's Legendre table,
    angle products and scratch row.
    """

    def __init__(self, max_level: int, theta, phi, kept=None):
        if max_level < 1:
            raise ValueError("need max_level >= 1")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if theta.shape != phi.shape or theta.ndim != 1:
            raise ValueError("theta and phi must be 1-d arrays of equal length")
        kept = np.ones(max_level, dtype=bool) if kept is None else np.asarray(kept, dtype=bool)
        if kept.shape != (max_level,):
            raise ValueError("kept needs one flag per degree 1..max_level")
        self.max_level = int(max_level)
        self.theta = theta
        self.phi = phi
        # each kept degree m and its first column; its 2m + 1 columns follow
        self._first, n_cols = [], 0
        for m in (np.flatnonzero(kept) + 1).tolist():
            self._first.append((m, n_cols))
            n_cols += 2 * m + 1
        self.Y = np.empty((theta.size, n_cols))
        for i in range(0, theta.size, _POINT_BLOCK):
            block = slice(i, i + _POINT_BLOCK)
            self._fill(self.Y[block], theta[block], phi[block])

    def _fill(self, Y, theta, phi) -> None:
        """Write the harmonics at a block of points into its rows Y, one
        order k at a time; every product is written through out= buffers in
        the order of the expressions in the comments."""
        M = self._first[-1][0] if self._first else 0
        x = np.cos(theta)
        sx = np.sin(theta)
        sqrt2 = math.sqrt(2.0)
        # row m: P~_m^k at the current order k, for m = k..M, the highest kept
        # degree; row k is the diagonal P~_k^k, made from row k-1 of order k-1
        P = np.empty((M + 1, x.size))
        P[0] = 1.0 / math.sqrt(4.0 * math.pi)   # P~_0^0
        tmp = np.empty(x.size)
        kphi = np.arange(1, M + 1)[:, None] * phi   # row k-1: k * phi
        cos_k, sin_k = np.cos(kphi), np.sin(kphi)

        for k in range(M + 1):
            if k > 0:
                # P[k] = -sqrt((2k+1) / 2k) * sx * P[k-1]
                np.multiply(sx, -math.sqrt((2.0 * k + 1.0) / (2.0 * k)), out=P[k])
                np.multiply(P[k], P[k - 1], out=P[k])
            if k + 1 <= M:
                # P[k+1] = sqrt(2k+3) * x * P[k]
                np.multiply(x, math.sqrt(2.0 * k + 3.0), out=P[k + 1])
                np.multiply(P[k + 1], P[k], out=P[k + 1])
            for m in range(k + 2, M + 1):
                a = math.sqrt((4.0 * m * m - 1.0) / (m * m - k * k))
                b = -math.sqrt(
                    (2.0 * m + 1.0)
                    / (2.0 * m - 3.0)
                    * ((m - 1.0) ** 2 - k * k)
                    / (m * m - k * k)
                )
                # P[m] = a * x * P[m-1] + b * P[m-2]
                np.multiply(x, a, out=P[m])
                np.multiply(P[m], P[m - 1], out=P[m])
                np.multiply(P[m - 2], b, out=tmp)
                np.add(P[m], tmp, out=P[m])

            if k == 0:
                for m, first in self._first:
                    Y[:, first] = P[m]
                continue
            for m, first in self._first:
                if m < k:
                    continue
                c = first + 2 * k - 1
                # (cos, sin) columns: sqrt2 * P[m] * (cos k phi, sin k phi)
                np.multiply(P[m], sqrt2, out=tmp)
                np.multiply(tmp, cos_k[k - 1], out=Y[:, c])
                np.multiply(tmp, sin_k[k - 1], out=Y[:, c + 1])
