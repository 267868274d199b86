import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from randcurv import grids
from randcurv.grids import (
    _closed_triangulation,
    _harmonic_design,
    face_edges,
    fibonacci_sphere,
    icosphere,
    sphere_distance,
    torus_grid,
)
from randcurv.spectral import torus2_spectrum

from helpers import midpoint_cache_icosphere


def test_fibonacci_basics():
    g = fibonacci_sphere(500)
    assert g.n_points == 500
    np.testing.assert_allclose(np.linalg.norm(g.xyz, axis=1), 1.0, atol=1e-14)
    assert g.weights.sum() == pytest.approx(4 * math.pi)
    # quasi-uniformity: centroid near the origin
    assert np.linalg.norm(g.xyz.mean(axis=0)) < 5e-3
    # low-degree moments integrate close to their exact values
    assert abs(np.sum(g.weights * g.xyz[:, 2] ** 2) - 4 * math.pi / 3) < 1e-3


def test_fibonacci_refine_doubles():
    g = fibonacci_sphere(128)
    assert g.refine().n_points == 256


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
def test_icosphere_counts_and_euler(depth):
    g = icosphere(depth)
    V, E, F = g.n_points, g.edges.shape[0], g.faces.shape[0]
    assert V == 10 * 4**depth + 2
    assert E == 30 * 4**depth
    assert F == 20 * 4**depth
    assert V - E + F == 2


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
def test_icosphere_equals_the_midpoint_cache_builder(depth):
    # one array pass per level numbers, places and weighs every vertex as the
    # face-by-face loop with a midpoint cache does, bit for bit
    g, ref = icosphere(depth), midpoint_cache_icosphere(depth)
    for name in ("xyz", "theta", "phi", "weights", "faces", "edges"):
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(g._memo["closed_faces"], ref._memo["closed_faces"])


@pytest.mark.parametrize("kind, build, sizes", [
    ("fibonacci", fibonacci_sphere, (2, 7, 100)),
    ("icosphere", icosphere, (0, 1, 2, 3)),
    ("torus", torus_grid, (2, 5, 9)),
])
def test_point_counts_match_the_builders(kind, build, sizes):
    # the CLI checks a design's size from these counts before building
    for size in sizes:
        assert grids._N_POINTS[kind](size) == build(size).n_points


def test_icosphere_geometry():
    g = icosphere(3)
    np.testing.assert_allclose(np.linalg.norm(g.xyz, axis=1), 1.0, atol=1e-14)
    # no duplicated vertices from subdivision
    rounded = np.round(g.xyz, 9)
    assert np.unique(rounded, axis=0).shape[0] == g.n_points
    # dual-region weights tile the sphere
    assert g.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    assert np.all(g.weights > 0)
    assert g.refine().depth == 4


def test_icosphere_faces_reference_valid_vertices():
    g = icosphere(2)
    assert g.faces.min() >= 0
    assert g.faces.max() < g.n_points
    # each edge is shared by exactly two faces in a closed surface
    e = np.sort(
        np.concatenate([g.faces[:, [0, 1]], g.faces[:, [1, 2]], g.faces[:, [2, 0]]], axis=0),
        axis=1,
    )
    _, counts = np.unique(e, axis=0, return_counts=True)
    assert np.all(counts == 2)


def test_face_edges_match_row_wise_unique():
    g = icosphere(3)
    pairs = np.sort(np.concatenate([g.faces[:, [0, 1]], g.faces[:, [1, 2]], g.faces[:, [2, 0]]]), axis=1)
    edges, counts = face_edges(g.faces)
    assert np.array_equal(edges, np.unique(pairs, axis=0))
    assert np.array_equal(g.edges, edges)
    assert np.all(counts == 2)


def test_sphere_distance_accuracy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.normal(size=(50, 3))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    d = sphere_distance(a, b)
    ref = np.arccos(np.clip(np.sum(a * b, axis=1), -1, 1))
    np.testing.assert_allclose(d, ref, atol=1e-7)
    # near-identical and near-antipodal pairs stay accurate
    eps = 1e-9
    p = np.array([[1.0, 0.0, 0.0]])
    q = np.array([[math.cos(eps), math.sin(eps), 0.0]])
    assert sphere_distance(p, q)[0] == pytest.approx(eps, rel=1e-6)
    assert sphere_distance(p, -q)[0] == pytest.approx(math.pi - eps, rel=1e-12)


def test_torus_grid_layout():
    g = torus_grid(8)
    assert g.n_points == 64
    assert g.points[0].tolist() == [0.0, 0.0]
    step = 2 * math.pi / 8
    assert g.points[1].tolist() == [0.0, step]          # row-major: second axis fastest
    assert g.points[8].tolist() == [step, 0.0]
    assert g.weights.sum() == pytest.approx(4 * math.pi**2)
    assert g.refine().n_per_axis == 16


def test_torus_design_equals_the_per_level_loop():
    # one phase product and one cos and sin call over all levels give the
    # bits of the per-level loop they replaced, on the lattice and off it
    norm = 1.0 / (math.pi * math.sqrt(2.0))
    modes = torus2_spectrum(11).torus_modes
    off_lattice = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, (37, 2))
    for pts in (torus_grid(16).points, off_lattice):
        loop = [
            np.stack([np.cos(pts @ reps.T), np.sin(pts @ reps.T)], axis=2).reshape(len(pts), -1) * norm
            for reps in modes
        ]
        assert np.array_equal(grids._torus_design(pts, modes), np.concatenate(loop, axis=1))


def test_torus_design_peaks_near_its_own_size():
    # the cos and sin are written into the design, so the build holds little
    # beyond the design and the phases (half its size)
    pts, modes = torus_grid(64).points, torus2_spectrum(100).torus_modes
    tracemalloc.start()
    try:
        design = grids._torus_design(pts, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.shape == (4096, 828)
    assert peak <= 1.6 * design.nbytes


@pytest.mark.parametrize(
    "grid, names",
    [
        (fibonacci_sphere(64), ("xyz", "theta", "phi", "weights")),
        (icosphere(2), ("xyz", "theta", "phi", "weights", "faces", "edges")),
        (torus_grid(8), ("points", "weights")),
    ],
    ids=["fibonacci", "icosphere", "torus"],
)
def test_builders_return_read_only_arrays(grid, names):
    # a sphere grid memoises data derived from its arrays, so they cannot change
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 0


def test_icosphere_carries_its_checked_sorted_faces():
    g = icosphere(3)
    faces, table = _closed_triangulation(g)
    again = _closed_triangulation(g)
    assert again[0] is faces and again[1] is table
    assert np.array_equal(faces, np.sort(g.faces, axis=1))
    assert not faces.flags.writeable and not table.flags.writeable
    # the memo is private: not shown, not compared
    assert "_memo" not in repr(g)
    assert g == dataclasses.replace(g)


def test_icosphere_build_peaks_near_its_own_arrays():
    # the build holds no dual-cell areas: weights are derived on first read
    tracemalloc.start()
    try:
        g = icosphere(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (g.xyz, g.theta, g.phi, g.faces, g.edges, g._memo["closed_faces"])
    assert "weights" not in g._memo
    assert peak <= 2.4 * sum(a.nbytes for a in held)


def test_icosphere_weights_are_derived_once_on_first_read():
    g = icosphere(2)
    w = g.weights
    assert g.weights is w and g._memo["weights"] is w and not w.flags.writeable
    # over writable arrays they are derived again on every read, and kept nowhere
    h = dataclasses.replace(g, faces=np.array(g.faces))
    a, b = h.weights, h.weights
    assert a is not b and np.array_equal(a, w) and "weights" not in h._memo


def test_replace_starts_an_empty_memo():
    g = icosphere(2)
    g2 = dataclasses.replace(g, theta=np.pi - g.theta)
    assert g2._memo == {} and g2._memo is not g._memo
    assert "closed_faces" in g._memo


def test_memo_is_used_only_over_read_only_arrays():
    g = fibonacci_sphere(50)
    assert _harmonic_design(g, 3) is _harmonic_design(g, 3)
    # a grid whose angles can be written derives its design on every call
    h = dataclasses.replace(g, theta=np.array(g.theta), phi=np.array(g.phi))
    a, b = _harmonic_design(h, 3), _harmonic_design(h, 3)
    assert a is not b and np.array_equal(a, b) and h._memo == {}
    # an unpickled grid's arrays are writable, so its faces are checked again
    ico = pickle.loads(pickle.dumps(icosphere(2)))
    assert ico.faces.flags.writeable
    faces, _ = _closed_triangulation(ico)
    assert faces is not ico._memo["closed_faces"]
    assert np.array_equal(faces, ico._memo["closed_faces"])


def test_vertex_face_table_lists_the_faces_around_each_vertex():
    # icosphere(1): the 12 icosahedron vertices have 5 faces, the others 6
    g = icosphere(1)
    faces, table = _closed_triangulation(g)
    assert table.shape == (g.n_points, 6)
    for v, row in enumerate(table):
        around = np.flatnonzero((faces == v).any(axis=1))
        assert sorted(row[row < len(faces)]) == around.tolist()
        assert np.all(row[len(around):] == len(faces))


def test_vertex_face_table_is_memoised_beside_the_checked_faces(monkeypatch):
    builds = []
    build = grids._vertex_faces
    monkeypatch.setattr(grids, "_vertex_faces", lambda faces, n: builds.append(n) or build(faces, n))
    g = icosphere(2)
    _, table = _closed_triangulation(g)
    assert _closed_triangulation(g)[1] is table and len(builds) == 1
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0
    # a copy with writable faces and an unpickled grid build it on every call
    writable = dataclasses.replace(g, faces=np.array(g.faces))
    unpickled = pickle.loads(pickle.dumps(g))
    for other in (writable, unpickled):
        a, b = _closed_triangulation(other)[1], _closed_triangulation(other)[1]
        assert a is not b and np.array_equal(a, table) and np.array_equal(b, table)
    assert len(builds) == 5
