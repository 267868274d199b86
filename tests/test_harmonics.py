import math

import numpy as np
import pytest
from scipy.special import eval_legendre, gammaln, lpmv

from randcurv.grids import icosphere
from randcurv.harmonics import SphereHarmonicBasis, legendre_all, n_columns


def oracle_pbar(m, k, x):
    # fully normalized associated Legendre via scipy, log-factorials for safety
    logn = 0.5 * (math.log((2 * m + 1) / (4 * math.pi)) + gammaln(m - k + 1) - gammaln(m + k + 1))
    return math.exp(logn) * lpmv(k, m, x)


@pytest.fixture(scope="module")
def random_angles():
    rng = np.random.default_rng(1234)
    theta = rng.uniform(0.02, np.pi - 0.02, 60)
    phi = rng.uniform(0.0, 2 * np.pi, 60)
    return theta, phi


def test_legendre_against_scipy():
    t = np.linspace(-1.0, 1.0, 101)
    table = legendre_all(40, t)
    for m in (0, 1, 2, 5, 13, 40):
        np.testing.assert_allclose(table[m], eval_legendre(m, t), atol=1e-12)


def test_legendre_bounded_and_clamped():
    t = np.linspace(-1, 1, 2001)
    assert np.max(np.abs(legendre_all(59, t))) <= 1.0 + 1e-12
    assert legendre_all(3, 1.0 + 5e-13)[3, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        legendre_all(3, 1.001)


def test_legendre_all_matches_single():
    # every row of the table against scipy's single-degree evaluation
    t = np.linspace(-1, 1, 17)
    table = legendre_all(12, t)
    for m in range(13):
        np.testing.assert_allclose(table[m], eval_legendre(m, t), atol=1e-14)


def test_column_layout():
    assert n_columns(1) == 3
    assert n_columns(4) == 24


def test_harmonics_match_scipy(random_angles):
    theta, phi = random_angles
    x = np.cos(theta)
    M = 10
    B = SphereHarmonicBasis(M, theta, phi)
    for m in range(1, M + 1):
        base = m * m - 1
        np.testing.assert_allclose(B.Y[:, base], oracle_pbar(m, 0, x), atol=1e-12)
        for k in range(1, m + 1):
            pk = oracle_pbar(m, k, x)
            np.testing.assert_allclose(
                B.Y[:, base + 2 * k - 1], math.sqrt(2) * pk * np.cos(k * phi), atol=1e-12
            )
            np.testing.assert_allclose(
                B.Y[:, base + 2 * k], math.sqrt(2) * pk * np.sin(k * phi), atol=1e-12
            )


def test_addition_theorem(random_angles):
    # sum over a level of Y(x) Y(y) equals (2m+1)/(4 pi) P_m(cos distance)
    theta, phi = random_angles
    rng = np.random.default_rng(99)
    th2 = rng.uniform(0.02, np.pi - 0.02, theta.size)
    ph2 = rng.uniform(0.0, 2 * np.pi, theta.size)
    M = 20
    A = SphereHarmonicBasis(M, theta, phi)
    B = SphereHarmonicBasis(M, th2, ph2)
    cosd = np.sin(theta) * np.sin(th2) * np.cos(phi - ph2) + np.cos(theta) * np.cos(th2)
    for m in range(1, M + 1):
        sl = slice(m * m - 1, (m + 1) ** 2 - 1)
        lhs = np.sum(A.Y[:, sl] * B.Y[:, sl], axis=1)
        rhs = (2 * m + 1) / (4 * np.pi) * legendre_all(m, cosd)[m]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_orthonormality_by_quadrature():
    # Gauss-Legendre in cos(theta) x trapezoid in phi integrates products exactly
    M = 6
    nodes, weights = np.polynomial.legendre.leggauss(2 * M + 2)
    nphi = 4 * M + 4
    phis = np.arange(nphi) * (2 * np.pi / nphi)
    th = np.arccos(nodes)
    T, P = np.meshgrid(th, phis, indexing="ij")
    W = np.repeat(weights[:, None], nphi, axis=1) * (2 * np.pi / nphi)
    B = SphereHarmonicBasis(M, T.ravel(), P.ravel())
    G = B.Y.T @ (W.ravel()[:, None] * B.Y)
    np.testing.assert_allclose(G, np.eye(n_columns(M)), atol=1e-10)


def _blockwise_transposed_design(max_level, theta, phi, kept):
    """The design as it was built before it was written in place: each block
    of 2048 points filled one harmonic (row) at a time into Yt, then
    Y[block] = Yt.T.  Kept here as the bit-for-bit oracle."""
    first, n_cols = [], 0
    for m in (np.flatnonzero(kept) + 1).tolist():
        first.append((m, n_cols))
        n_cols += 2 * m + 1
    M = first[-1][0] if first else 0
    Y = np.empty((theta.size, n_cols))
    for i in range(0, theta.size, 2048):
        th, ph = theta[i:i + 2048], phi[i:i + 2048]
        x, sx, sqrt2 = np.cos(th), np.sin(th), math.sqrt(2.0)
        diag = np.full(x.size, 1.0 / math.sqrt(4.0 * math.pi))
        Yt = np.empty((n_cols, x.size))
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
                    (2.0 * m + 1.0) / (2.0 * m - 3.0) * ((m - 1.0) ** 2 - k * k) / (m * m - k * k)
                )
                Pk[m] = a * x * Pk[m - 1] + b * Pk[m - 2]
            if k == 0:
                for m, c in first:
                    Yt[c] = Pk[m]
                continue
            cos_k, sin_k = np.cos(k * ph), np.sin(k * ph)
            for m, c in first:
                if m >= k:
                    Yt[c + 2 * k - 1] = sqrt2 * Pk[m] * cos_k
                    Yt[c + 2 * k] = sqrt2 * Pk[m] * sin_k
        Y[i:i + 2048] = Yt.T
    return Y


@pytest.fixture(scope="module")
def design_points():
    # angles of the icosphere:5 vertices, whose prefixes give the smaller sets
    g = icosphere(5)
    return g.theta, g.phi


@pytest.mark.parametrize("poles", [False, True], ids=["points", "points+poles"])
@pytest.mark.parametrize("n_points", [1, 2, 2047, 2048, 2049, 10242])
@pytest.mark.parametrize("M", [1, 2, 5, 12, 30])
def test_design_is_the_blockwise_transposed_design_bit_for_bit(design_points, M, n_points, poles):
    theta, phi = (a[:n_points] for a in design_points)
    if poles:
        # the poles and a point just off the north pole, where sin(theta) is 0 or tiny
        theta = np.concatenate([theta, [0.0, 1e-9, math.pi]])
        phi = np.concatenate([phi, [0.3, 1.7, 5.1]])
    every = np.ones(M, dtype=bool)
    off_third = np.arange(1, M + 1) % 3 != 0
    top = np.arange(1, M + 1) == M
    for kept in (every, off_third, top):
        new = SphereHarmonicBasis(M, theta, phi, kept).Y
        old = _blockwise_transposed_design(M, theta, phi, kept)
        assert new.shape == old.shape
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
