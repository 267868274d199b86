"""Real orthonormal spherical harmonics on S^2, with surface gradients.

Everything is built from fully normalized associated Legendre functions
evaluated by stable three-term recurrences (no factorials, no overflow up to
degrees in the thousands).  The azimuthal derivative is computed through the
auxiliary functions P~_m^k / sin(theta), which satisfy the same degree
recurrence, so the tangential gradient components stay finite and accurate at
the poles without any frame rotation.

Column convention of the design matrices: levels m = 1..max_level in order;
within a level the k = 0 harmonic first, then (cos, sin) pairs for
k = 1..m.  Level m occupies columns [m^2 - 1, (m+1)^2 - 1).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["legendre", "legendre_all", "level_slice", "n_columns", "SphereHarmonicBasis"]

_CLAMP = 1e-12


def _clamped(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _CLAMP):
        worst = float(np.max(np.abs(t)))
        raise ValueError(f"legendre argument {worst!r} outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def legendre(m: int, t):
    """Legendre polynomial P_m(t) for t in [-1, 1].

    Arguments within 1e-12 of the interval are clamped; anything further out
    raises.  Bonnet's recurrence keeps |P_m| <= 1 to rounding for all m.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    t = _clamped(t)
    if m == 0:
        return np.ones_like(t)
    p_prev = np.ones_like(t)
    p = t.copy()
    for n in range(1, m):
        p, p_prev = ((2 * n + 1) * t * p - n * p_prev) / (n + 1), p
    return p


def legendre_all(max_degree: int, t) -> np.ndarray:
    """All Legendre polynomials P_0..P_max at once, shape (max_degree+1, npts)."""
    t = np.atleast_1d(_clamped(t))
    out = np.empty((max_degree + 1, t.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    for n in range(1, max_degree):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def n_columns(max_level: int) -> int:
    return (max_level + 1) ** 2 - 1


def level_slice(m: int) -> slice:
    """Columns of level m in the design matrices."""
    return slice(m * m - 1, (m + 1) * (m + 1) - 1)


class SphereHarmonicBasis:
    """Design matrices of the real orthonormal harmonics at given points.

    Y[i, j] is the j-th harmonic at point i.  With want_gradient=True the
    matrices dtheta (polar derivative) and dphi_over_sin (azimuthal
    derivative already divided by sin(theta)) are filled as well, so
    |grad f|^2 = (dtheta @ coef)^2 + (dphi_over_sin @ coef)^2.
    """

    def __init__(self, max_level: int, theta, phi, want_gradient: bool = False):
        if max_level < 1:
            raise ValueError("need max_level >= 1")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        if theta.shape != phi.shape or theta.ndim != 1:
            raise ValueError("theta and phi must be 1-d arrays of equal length")
        self.max_level = int(max_level)
        self.theta = theta
        self.phi = phi
        npts = theta.size
        ncol = n_columns(max_level)
        self.Y = np.empty((npts, ncol))
        self.dtheta = np.empty((npts, ncol)) if want_gradient else None
        self.dphi_over_sin = np.empty((npts, ncol)) if want_gradient else None
        self._build(want_gradient)

    # ---- construction ----

    def _build(self, want_gradient: bool) -> None:
        M = self.max_level
        x = np.cos(self.theta)
        sx = np.sin(self.theta)
        npts = x.size
        sqrt2 = math.sqrt(2.0)

        def col(m: int, k: int, trig: int) -> int:
            # trig: 0 = the k=0 column or cos, 1 = sin
            base = m * m - 1
            return base if k == 0 else base + 2 * k - 1 + trig

        # P[k] rows are degrees; row m valid for m >= k.  Keep three orders.
        P: dict[int, np.ndarray] = {}
        U: dict[int, np.ndarray] = {}
        diag_prev = np.full(npts, 1.0 / math.sqrt(4.0 * math.pi))   # P~_0^0

        def recur_fill(arr: np.ndarray, k: int) -> None:
            # degree recurrence for fixed order, rows k..M already seeded at k, k+1
            for m in range(k + 2, M + 1):
                a = math.sqrt((4.0 * m * m - 1.0) / (m * m - k * k))
                b = -math.sqrt(
                    (2.0 * m + 1.0)
                    / (2.0 * m - 3.0)
                    * ((m - 1.0) ** 2 - k * k)
                    / (m * m - k * k)
                )
                arr[m] = a * x * arr[m - 1] + b * arr[m - 2]

        def emit_dtheta(k: int) -> None:
            dth = self.dtheta
            if k == 0:
                Pk1 = P[1]
                for m in range(1, M + 1):
                    dth[:, col(m, 0, 0)] = math.sqrt(m * (m + 1.0)) * Pk1[m]
                return
            cos_k = np.cos(k * self.phi)
            sin_k = np.sin(k * self.phi)
            Plo = P[k - 1]
            Phi_ = P.get(k + 1)
            for m in range(k, M + 1):
                A = math.sqrt((m + k) * (m - k + 1.0))
                term = A * Plo[m]
                if m > k:
                    B = math.sqrt((m - k) * (m + k + 1.0))
                    term = term - B * Phi_[m]
                d = -0.5 * sqrt2 * term
                dth[:, col(m, k, 0)] = d * cos_k
                dth[:, col(m, k, 1)] = d * sin_k

        for k in range(0, M + 1):
            Pk = np.zeros((M + 1, npts))
            if k == 0:
                diag = diag_prev
            else:
                diag = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * sx * diag_prev
            Pk[k] = diag
            if k + 1 <= M:
                Pk[k + 1] = math.sqrt(2.0 * k + 3.0) * x * diag
            recur_fill(Pk, k)
            P[k] = Pk

            if want_gradient and k >= 1:
                Uk = np.zeros((M + 1, npts))
                Uk[k] = -math.sqrt((2.0 * k + 1.0) / (2.0 * k)) * diag_prev
                if k + 1 <= M:
                    Uk[k + 1] = math.sqrt(2.0 * k + 3.0) * x * Uk[k]
                recur_fill(Uk, k)
                U[k] = Uk

            # value and azimuthal columns of this order
            if k == 0:
                for m in range(1, M + 1):
                    self.Y[:, col(m, 0, 0)] = Pk[m]
                    if want_gradient:
                        self.dphi_over_sin[:, col(m, 0, 0)] = 0.0
            else:
                cos_k = np.cos(k * self.phi)
                sin_k = np.sin(k * self.phi)
                for m in range(max(1, k), M + 1):
                    self.Y[:, col(m, k, 0)] = sqrt2 * Pk[m] * cos_k
                    self.Y[:, col(m, k, 1)] = sqrt2 * Pk[m] * sin_k
                    if want_gradient:
                        g = sqrt2 * k * U[k][m]
                        self.dphi_over_sin[:, col(m, k, 0)] = -g * sin_k
                        self.dphi_over_sin[:, col(m, k, 1)] = g * cos_k

            if want_gradient and k >= 1:
                emit_dtheta(k - 1)

            diag_prev = diag
            for stale in list(P):
                if stale < k - 1:
                    del P[stale]
            for stale in list(U):
                if stale < k:
                    del U[stale]

        if want_gradient:
            emit_dtheta(M)
