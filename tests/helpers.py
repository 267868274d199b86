"""Shared independent oracles for the test suite.

These deliberately avoid the package's own recurrence code: normalized
associated Legendre values come from scipy's lpmv with log-factorial
normalization, so kernel and sampler checks are cross-implementation.  The
icosphere oracle builds the mesh one midpoint at a time through a cache, the
route the package's array-pass builder must match bit for bit.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln, lpmv

from randcurv.grids import (
    _ICO_FACES,
    _ICO_VERTS,
    SphereGrid,
    _angles,
    _closed_faces,
    _read_only,
    sphere_distance,
)


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


def midpoint_cache_icosphere(depth: int) -> SphereGrid:
    """Icosahedron subdivided depth times, vertices projected to the sphere,
    by a Python loop over the faces: each midpoint is made once, normalised by
    np.linalg.norm, and shared through a cache.  Weights are a third of each
    incident triangle's spherical area, added corner by corner with np.add.at.
    The grid's memo holds the row-sorted faces, as icosphere's does."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(depth):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            idx = cache.get(key)
            if idx is None:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                idx = len(verts) - 1
                cache[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    xyz = np.array(verts)
    farr = np.array(faces, dtype=np.int64)
    sorted_faces, edges = _closed_faces(farr, xyz.shape[0])

    # spherical triangle areas by l'Huilier, shared to the three corners
    A, B, C = xyz[farr[:, 0]], xyz[farr[:, 1]], xyz[farr[:, 2]]
    a = sphere_distance(B, C)
    b = sphere_distance(C, A)
    c = sphere_distance(A, B)
    s = 0.5 * (a + b + c)
    tanq = np.sqrt(
        np.maximum(
            0.0,
            np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2) * np.tan((s - c) / 2),
        )
    )
    area = 4.0 * np.arctan(tanq)
    weights = np.zeros(xyz.shape[0])
    for col in range(3):
        np.add.at(weights, farr[:, col], area / 3.0)

    theta, phi = _angles(xyz)
    _read_only(xyz, theta, phi, weights, farr, edges, sorted_faces)
    grid = SphereGrid("icosphere", xyz, theta, phi, weights, faces=farr, edges=edges, depth=depth)
    grid._memo["closed_faces"] = sorted_faces
    return grid
