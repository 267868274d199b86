"""Evaluation grids: quasi-uniform sphere point sets, a triangulated sphere
mesh for topological counts, and regular torus lattices.

Each grid knows how to produce its canonical refinement (used for the
grid-convergence diagnostics): the Fibonacci set doubles its point count, the
mesh subdivides once more, the torus lattice doubles each axis
(_refined_size).  The CLI bounds each grid it builds, the refinement too,
by _check_build before it builds any.

The builders return read-only arrays.  A SphereGrid memoises what it
derives from them (see SphereGrid), so repeated samplers and Euler counts on
one grid object share that work, and an icosphere derives its weights only
when they are first read; only this module reads or writes the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import SphereHarmonicBasis

__all__ = ["SphereGrid", "TorusGrid", "fibonacci_sphere", "icosphere", "torus_grid", "sphere_distance"]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SphereGrid:
    """Points on the unit sphere, with faces and edges for a mesh.

    Its arrays must not be changed after construction: the private memo
    holds data derived from them, which lives as long as the grid and is
    neither compared nor shown.  It keeps the harmonic design of the last
    truncation and kept degrees asked for (_harmonic_design), which holds
    those degrees' columns alone, and, for an icosphere, the
    row-sorted faces checked to be a closed triangulation when the mesh was
    built, with the table of the faces around each vertex once Euler
    counting first asks for them (_closed_triangulation), and its weights
    once they are first read (weights).  The memo is
    used only while the arrays it derives from are read-only, as the
    builders return them; a grid built by hand with writable arrays, or
    unpickled, derives them on every call.
    dataclasses.replace starts a new grid with an empty memo.
    """

    kind: str                       # "fibonacci" or "icosphere"
    xyz: np.ndarray                 # (n, 3) unit vectors
    theta: np.ndarray
    phi: np.ndarray
    _weights: np.ndarray | None     # quadrature weights, or None: a mesh's own (weights)
    faces: np.ndarray | None = None     # (n_faces, 3), icosphere only
    edges: np.ndarray | None = None     # (n_edges, 2), icosphere only
    depth: int | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_points(self) -> int:
        return self.xyz.shape[0]

    @property
    def weights(self) -> np.ndarray | None:
        """Quadrature weights, sum 4 pi: those the grid was built with, or, for
        a mesh built without them (as icosphere builds it), the spherical
        areas of its dual cells (_dual_areas), derived on first read and kept
        read-only in the memo while xyz and faces are read-only.  None for a
        grid with neither weights nor faces."""
        if self._weights is not None or self.faces is None:
            return self._weights
        if not _frozen(self.xyz, self.faces):
            return _dual_areas(self.xyz, self.faces)
        if "weights" not in self._memo:
            (self._memo["weights"],) = _read_only(_dual_areas(self.xyz, self.faces))
        return self._memo["weights"]

    def refine(self) -> "SphereGrid":
        if self.kind == "fibonacci":
            return fibonacci_sphere(_refined_size(self.kind, self.n_points))
        return icosphere(_refined_size(self.kind, self.depth))


@dataclass(frozen=True)
class TorusGrid:
    points: np.ndarray              # (n^2, 2) in [0, 2 pi)^2, row-major
    n_per_axis: int
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def refine(self) -> "TorusGrid":
        return torus_grid(_refined_size("torus", self.n_per_axis))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _frozen(*arrays: np.ndarray) -> bool:
    return not any(a.flags.writeable for a in arrays)


def _torus_design(points: np.ndarray, modes, kept=None) -> np.ndarray:
    """The orthonormal torus modes cos(k.x)/(pi sqrt 2), sin(k.x)/(pi sqrt 2)
    at the points, one pair per half-lattice representative k, level-major
    over the levels' (n_reps, 2) representatives `modes` whose flag in kept
    (default all) is set, cosine before sine.  All levels built share one
    phase product and one cos and sin call, written into the interleaved
    columns of the design, so the build holds the design and the phases
    (half its size) and nothing more."""
    kept = np.ones(len(modes), dtype=bool) if kept is None else kept
    built = [reps for reps, keep in zip(modes, kept) if keep]
    reps = np.concatenate([np.empty((0, 2), dtype=np.int64), *built])
    phase = points @ reps.T                           # (npts, total reps)
    design = np.empty((len(points), 2 * phase.shape[1]))
    np.cos(phase, out=design[:, 0::2])
    np.sin(phase, out=design[:, 1::2])
    design *= 1.0 / (math.pi * math.sqrt(2.0))
    return design


def _harmonic_design(grid: SphereGrid, M: int, kept=None) -> np.ndarray:
    """The real spherical harmonics of the kept degrees of 1..M (default
    all) at the grid's points, SphereHarmonicBasis(M, theta, phi, kept).Y;
    the last (M, kept) built stays in the memo (read-only) while theta and
    phi are read-only."""
    kept = np.ones(M, dtype=bool) if kept is None else np.asarray(kept, dtype=bool)
    if not _frozen(grid.theta, grid.phi):
        return SphereHarmonicBasis(M, grid.theta, grid.phi, kept).Y
    key = M, kept.tobytes()
    memo_key, Y = grid._memo.get("design", (None, None))
    if memo_key != key:
        Y = SphereHarmonicBasis(M, grid.theta, grid.phi, kept).Y
        Y.flags.writeable = False
        grid._memo["design"] = (key, Y)
    return Y


def _closed_faces(faces, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The faces with each row's vertex indices sorted, and their edges
    (face_edges), after checking they are an integer (F, 3) array of indices
    in [0, n_points) and every edge lies in exactly two faces (closed
    manifold); raises otherwise."""
    faces = np.asarray(faces)
    if faces.ndim != 2 or faces.shape[1] != 3 or faces.shape[0] == 0 or faces.dtype.kind not in "iu":
        raise ValueError(f"faces must be a nonempty integer (F, 3) array, got {faces.dtype} {faces.shape}")
    if faces.min() < 0 or faces.max() >= n_points:
        raise ValueError(f"faces hold vertex indices outside [0, {n_points})")
    faces = np.sort(faces, axis=1)
    edges, counts = face_edges(faces)
    if np.any(counts != 2):
        raise ValueError("triangulation is not a closed manifold: an edge is not shared by exactly 2 faces")
    return faces, edges


def _vertex_faces(faces: np.ndarray, n_points: int) -> np.ndarray:
    """The (n_points, max degree) table of the indices of the faces around
    each vertex, each row padded with len(faces)."""
    v = faces.ravel()
    order = np.argsort(v, kind="stable")
    degree = np.bincount(v, minlength=n_points)
    slot = np.arange(v.size) - np.repeat(np.cumsum(degree) - degree, degree)
    table = np.full((n_points, degree.max()), faces.shape[0], dtype=np.intp)
    table[v[order], slot] = order // 3
    return table


def _closed_triangulation(grid) -> tuple[np.ndarray, np.ndarray]:
    """The row-sorted faces of any grid with faces and n_points, checked by
    _closed_faces, and the table of the faces around each vertex
    (_vertex_faces) built from them.  An icosphere checked its faces when it
    was built: while they are read-only, those faces are returned from its
    memo, with the table built on the first call and kept there read-only."""
    faces = getattr(grid, "faces", None)
    if faces is None:
        raise ValueError("Euler counting needs a triangulated grid with faces")
    if not (isinstance(grid, SphereGrid) and "closed_faces" in grid._memo and _frozen(faces)):
        closed = _closed_faces(faces, grid.n_points)[0]
        return closed, _vertex_faces(closed, grid.n_points)
    memo = grid._memo
    if "vertex_faces" not in memo:
        (memo["vertex_faces"],) = _read_only(_vertex_faces(memo["closed_faces"], grid.n_points))
    return memo["closed_faces"], memo["vertex_faces"]


def _angles(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = np.clip(xyz[:, 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2.0 * math.pi)
    return theta, phi


def fibonacci_sphere(n: int) -> SphereGrid:
    """n quasi-uniform points from the golden-angle spiral, equal weights."""
    if n < 2:
        raise ValueError("need at least 2 points")
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    ang = _GOLDEN_ANGLE * i
    xyz = np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    theta, phi = _angles(xyz)
    weights = np.full(n, 4.0 * math.pi / n)
    return SphereGrid("fibonacci", *_read_only(xyz, theta, phi, weights))


# icosahedron: 12 vertices, 20 faces (standard listing)
_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _unit(v: np.ndarray) -> np.ndarray:
    """Each row of v over its length, the length as np.linalg.norm takes it."""
    return v / np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]


def _subdivide(xyz: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each face (a, b, c) into (a, ab, ca), (b, bc, ab), (c, ca, bc),
    (ab, bc, ca), adding each edge's midpoint as a unit vector."""
    n = xyz.shape[0]
    nxt = np.roll(faces, -1, axis=1)                # face edges (a, b), (b, c), (c, a)
    keys = (np.minimum(faces, nxt) * n + np.maximum(faces, nxt)).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))            # each edge's place in visiting order
    ab, bc, ca = (n + rank[inverse.ravel()]).reshape(-1, 3).T
    visit = np.sort(first)
    i, j = faces.ravel()[visit], nxt.ravel()[visit]
    a, b, c = faces.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([xyz, _unit(xyz[i] + xyz[j])]), new_faces


def icosphere(depth: int) -> SphereGrid:
    """Icosahedron subdivided depth times, vertices projected to the sphere.

    Vertex/edge/face counts are 10*4^d + 2, 30*4^d, 20*4^d.  Each level is
    one array pass with no midpoint cache (_subdivide): visiting the faces in
    order and each face's edges as ab, bc, ca, every edge gets one midpoint,
    numbered after the existing vertices in order of first visit, so the mesh
    is watertight (Euler number 2).  A midpoint's length is taken by a
    stacked matmul of the row with itself (_unit), which numpy runs through
    the dot routine np.linalg.norm uses on one vector, so the coordinates do
    not depend on the vectorisation; the row-wise forms (an axis=1 norm,
    einsum, a sum of squares) add in another order and differ in the last
    bit on 10-14% of random normal vectors.
    The weights, the dual-cell areas (_dual_areas), are derived on first
    read of grid.weights, not here: only the expected volume reads them.
    Deriving the edges checks the mesh is closed, so the grid's memo keeps
    the row-sorted faces for Euler counting (_closed_triangulation).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    xyz, farr = _unit(_ICO_VERTS), _ICO_FACES.copy()
    for _ in range(depth):
        xyz, farr = _subdivide(xyz, farr)
    sorted_faces, edges = _closed_faces(farr, xyz.shape[0])
    theta, phi = _angles(xyz)
    _read_only(xyz, theta, phi, farr, edges, sorted_faces)
    grid = SphereGrid("icosphere", xyz, theta, phi, None, faces=farr, edges=edges, depth=depth)
    grid._memo["closed_faces"] = sorted_faces
    return grid


def _dual_areas(xyz: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The spherical areas of a mesh's dual regions, approximated by a third
    of each incident triangle's spherical area (l'Huilier's formula)."""
    A, B, C = xyz[faces[:, 0]], xyz[faces[:, 1]], xyz[faces[:, 2]]
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
    # the sum order (corner by corner, faces in order) fixes the last bit
    return np.bincount(faces.T.ravel(), weights=np.tile(area / 3.0, 3), minlength=xyz.shape[0])


def face_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique (lo, hi) vertex pairs of the triangles' edges, and
    how many faces share each.  Pairs are found through the 1-D key
    lo * n + hi, several times faster than a row-wise unique; each edge's
    lo and hi are the elementwise minimum and maximum of its two ends."""
    nxt = np.roll(faces, -1, axis=1)
    n = int(faces.max()) + 1
    keys = np.minimum(faces, nxt).astype(np.int64, copy=False) * n
    keys += np.maximum(faces, nxt)
    keys, counts = np.unique(keys, return_counts=True)
    return np.stack(np.divmod(keys, n), axis=1), counts


def torus_grid(n_per_axis: int) -> TorusGrid:
    """Regular n x n lattice on [0, 2 pi)^2, row-major point order."""
    if n_per_axis < 2:
        raise ValueError("need at least 2 points per axis")
    step = 2.0 * math.pi / n_per_axis
    ax = np.arange(n_per_axis) * step
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    weights = np.full(pts.shape[0], step * step)
    _read_only(pts, weights)
    return TorusGrid(pts, n_per_axis, weights)


# the n_points of each builder's grid at a size, known without building it
_N_POINTS = dict(fibonacci=lambda n: n, icosphere=lambda d: 10 * 4**d + 2, torus=lambda n: n**2)
# each builder's peak allocation per point while it builds, in bytes
# (tracemalloc: flat from 10^4 points up), and the largest build checked
_BUILD_BYTES = dict(fibonacci=88, icosphere=521, torus=40)
_MAX_BUILD_BYTES = 2**30


def _refined_size(kind: str, size: int) -> int:
    """The size of the canonical refinement of the kind's grid at a size:
    twice the Fibonacci points, one more mesh subdivision, twice the torus
    points per axis."""
    return size + 1 if kind == "icosphere" else 2 * size


def _check_build(kind: str, size: int) -> None:
    """Raise unless building the kind's grid at a size takes at most
    _MAX_BUILD_BYTES, by _N_POINTS and _BUILD_BYTES, without building it."""
    n_points = _N_POINTS[kind](size)
    nbytes = n_points * _BUILD_BYTES[kind]
    if nbytes > _MAX_BUILD_BYTES:
        raise ValueError(
            f"building the grid {kind}:{size} ({n_points} points) would take about "
            f"{nbytes / 2**30:.2f} GiB, over the {_MAX_BUILD_BYTES / 2**30:g} GiB limit; "
            "lower the grid size"
        )


def sphere_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distance between unit vectors, accurate at 0 and pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    dot = np.sum(a * b, axis=-1)
    return np.arctan2(cross, dot)
