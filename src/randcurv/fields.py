"""Gaussian random fields built from spectral data.

The conformal factor field f has independent centered Gaussian coefficients
against the orthonormal eigenfunctions; h is its image under the reference
operator with the sign convention h = -P f (which on surfaces is the
Laplace-Beltrami image of f, eigenvalue -lambda per level).  Derived fields:
v = h / R0 and the linearization field w = h + k R0 f, with k = exponent_factor(n)
(1 on surfaces, n for the fourth-order law in even n > 2), signed so that
the deviation of either law is -a w to first order in a.

Per-level coefficient weights come in two indexings (see spectral):
per-eigenfunction scales c (f coefficient std per eigenfunction) and
per-eigenspace variance weights c (the level's contribution to the pointwise
variance of h).  level_weights alone reads them into the per-level table
(alpha, beta, counts) that every weight, variance and kernel here is built
from: the f coefficient std, the h one (-lambda alpha) and the multiplicity.

Sampling is counter-based and addressed by column (stream RNG_STREAM = 2):
the normal of draw j, column k and seed s is row j mod B of the B normals of
the Philox stream keyed by s with counter words (0, b mod 2^64, k, b >> 64),
where b = j // B and B = DRAW_BLOCK.  Draw j of seed s is therefore fixed
whatever the chunking, the worker count or the other columns drawn, and a
column without weight is never drawn at all.  A stream is a function of its
key and counter alone, so each thread keeps one Philox generator and
re-keys it on every call.

Every sampler is a LinearSampler, the column model field = design @ (w * A)
for the draws A, with one design column at the points and per-column stds
wf, wh for each eigenfunction with weight (nonzero wf or wh), its active
columns; the others are never built, drawn or evaluated.  The geometry
subclasses only build the design.  One expression (LinearSampler._fields)
evaluates the fields of draw rows: sample and sample_block on their draws,
and the estimators' field pass (_slices) on a chunk's draws in row slices
of at most _FIELD_ROWS draws (128: the GEMM runs at its full rate there)
and _FIELD_VALUES values per field, so they hold one slice of each field at
a time.
Every second moment follows from it, so covariance_matrix is (D w^2) D^T
over the sampler's design D; covariance_h_sphere and covariance_f_sphere
are the closed Legendre forms on the sphere, an independent route to the
same numbers.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import SphereGrid, TorusGrid, _angles, _harmonic_design, _torus_design
from .harmonics import SphereHarmonicBasis, legendre_all
from .spectral import CoefficientScheme, Geometry, Indexing, SpectrumModel, paneitz_level_s4, sphere_level

__all__ = [
    "RNG_STREAM",
    "DRAW_BLOCK",
    "FieldKind",
    "RandomFieldSpec",
    "level_weights",
    "FieldSample",
    "covariance_matrix",
    "covariance_h_sphere",
    "covariance_f_sphere",
    "gaussian_draws",
    "gaussian_draw_block",
    "LinearSampler",
    "SphereSampler",
    "TorusSampler",
    "UserSampler",
    "make_sampler",
    "VarianceSummary",
    "variance_summary",
    "diagonal_variance",
    "HeatVariance",
    "heat_variance",
]


class FieldKind(str, Enum):
    F = "f"
    H = "h"
    V = "v"
    W = "w"


@dataclass(frozen=True)
class RandomFieldSpec:
    """A spectrum, a coefficient scheme, and which derived field is meant.

    reference_curvature (a constant or gridded values) is required for the
    V and W fields; V additionally needs it nowhere zero.  When given it must
    be finite: a NaN would make every comparison against it false.  W needs
    a dimension with a curvature law (exponent_factor), so odd n is refused.
    """

    spectrum: SpectrumModel
    coefficients: CoefficientScheme
    which: FieldKind = FieldKind.H
    reference_curvature: float | np.ndarray | None = None

    def __post_init__(self):
        if self.coefficients.truncation > self.spectrum.n_levels:
            raise ValueError("scheme truncation exceeds the spectrum's level count")
        nneg = len(self.spectrum.negative_levels)
        if self.coefficients.neg_values.size not in (0, nneg):
            raise ValueError(
                "negative-level scales must align with the spectrum's negative levels"
            )
        if self.reference_curvature is None:
            if self.which in (FieldKind.V, FieldKind.W):
                raise ValueError(f"field {self.which.value} needs reference_curvature")
            return
        r = np.asarray(self.reference_curvature, dtype=float)
        if not np.all(np.isfinite(r)):
            raise ValueError("reference_curvature must be finite everywhere")
        if self.which is FieldKind.V and np.any(r == 0.0):
            raise ValueError("v = h / R0 needs a nowhere-zero reference curvature")
        if self.which is FieldKind.W:
            exponent_factor(self.spectrum.dimension)

    def constant_reference(self) -> float:
        r = np.asarray(self.reference_curvature, dtype=float)
        if r.ndim == 0:
            return float(r)
        if np.ptp(r) == 0.0:
            return float(r.ravel()[0])
        raise ValueError("this operation needs a constant reference curvature")


def level_weights(spec: RandomFieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per level, the truncated positive levels then the negative ones: the
    f coefficient std alpha, the h one beta (-lambda alpha, or +mu alpha on
    a negative level, whose alpha is 0 without neg_values) and the column
    count, the level's multiplicity."""
    sch = spec.coefficients
    model = spec.spectrum
    M = sch.truncation
    lam = model.eigenvalues[:M]
    neg = model.negative_levels
    counts = np.concatenate([model.multiplicities[:M], [p[1] for p in neg]]).astype(int)
    if sch.indexing is Indexing.PER_EIGENFUNCTION:
        alpha = sch.values
    else:
        # per-eigenspace: values are the level variance weights of h
        alpha = np.sqrt(sch.values * model.volume / counts[:M]) / lam
    mu = np.array([p[0] for p in neg])
    neg_alpha = sch.neg_values if sch.neg_values.size else np.zeros(mu.size)
    return (
        np.concatenate([alpha, neg_alpha]),
        np.concatenate([-lam * alpha, mu * neg_alpha]),
        counts,
    )


def exponent_factor(n: int) -> float:
    """k in the prefactor e^{-k a f} of the curvature law of dimension n: 1
    for the surface law (n = 2), n for the fourth-order law (even n > 2).
    At n = 2 the fourth-order law at (a, R0) is half the surface law at
    (2a, 2R0), bit for bit (doubling is exact), so it needs no k of its own."""
    if n == 2:
        return 1.0
    if n % 2 or n < 2:
        raise ValueError(f"no curvature law in dimension {n}: need n = 2 or an even n > 2")
    return float(n)


def _selected(spec: RandomFieldSpec, f, h):
    """The selected field's coefficient std from those of f and h, per level
    or per column alike: v = h / R0 and w = h + exponent_factor(n) R0 f.

    V and W need a constant reference here; gridded references are handled
    pointwise by diagonal_variance instead.
    """
    if spec.which is FieldKind.F:
        return f
    if spec.which is FieldKind.H:
        return h
    r0 = spec.constant_reference()
    if spec.which is FieldKind.V:
        return h / r0
    return h + exponent_factor(spec.spectrum.dimension) * r0 * f


@dataclass
class FieldSample:
    """One realization: the Gaussian draws plus the evaluated fields.

    gaussians holds one coefficient per column of the spec (n_gaussians),
    0 in the columns without weight (never drawn); values_f and values_h
    are the fields.
    """

    seed: int
    draw_index: int
    gaussians: np.ndarray
    values_f: np.ndarray
    values_h: np.ndarray


# version of the random stream: draw j of seed s changes only with it
RNG_STREAM = 2
# rows of one (block, column) Philox stream
DRAW_BLOCK = 2048

_U64 = 2**64 - 1


def _check_seed(seed) -> int:
    """The seed as an int in [0, 2^64): Philox keys are unsigned, so an
    out-of-range seed would wrap onto another seed's stream."""
    seed = operator.index(seed)
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _column_array(columns) -> np.ndarray:
    """Column indices: range(columns) for an int, else the given integers."""
    if np.ndim(columns) == 0:
        return np.arange(operator.index(columns))
    cols = np.asarray(columns)
    if cols.ndim != 1 or (cols.size and (cols.dtype.kind not in "iu" or cols.min() < 0)):
        raise ValueError("columns must be a count or a 1-D array of nonnegative integers")
    return cols


# the calling thread's (Philox, Generator, state dict) for _draws: one per
# thread, so threads that draw at once never share one
_philox = threading.local()


def _draws(seed: int, draw_indices: range, cols: np.ndarray) -> np.ndarray:
    """Stream v2 normals, shape (len(draw_indices), cols.size), for a checked
    seed and columns; draw_indices must be a range of step 1 in [0, 2^128).

    The calling thread's Philox bit generator, Generator and state dict,
    built on its first draw and kept across calls, serve every stream: each
    call writes (seed, 0) into the key words and, per (block, column),
    counter words 1-3, then sets the whole state.  Per block b the range
    touches, rows r0..r1 of the block fill one slice of the result, and only
    rows 0..r1 are generated.  The result is the transpose of a
    (cols.size, n) array, so a block whose rows start at 0 is generated in
    place, one column at a time; any other block goes through a buffer.
    """
    if not isinstance(draw_indices, range) or draw_indices.step != 1:
        raise TypeError("draw indices must be a range of step 1")
    start, stop = draw_indices.start, draw_indices.stop
    if draw_indices and (start < 0 or stop > 2**128):
        raise ValueError("draw_index must lie in [0, 2**128)")
    out = np.empty((cols.size, len(draw_indices)))
    if not out.size:
        return out.T
    if not hasattr(_philox, "parts"):
        bg = np.random.Philox(key=0)
        _philox.parts = bg, np.random.Generator(bg), bg.state  # zero counter, empty buffer
    bg, gen, state = _philox.parts
    state["state"]["key"][0] = seed
    counter = state["state"]["counter"]
    ks = cols.tolist()
    for b in range(start // DRAW_BLOCK, (stop - 1) // DRAW_BLOCK + 1):
        first = b * DRAW_BLOCK
        r0, r1 = max(start - first, 0), min(stop - first, DRAW_BLOCK)
        dest = out[:, first + r0 - start : first + r1 - start]
        buf = dest if r0 == 0 else np.empty((cols.size, r1))
        counter[1] = b & _U64
        counter[3] = b >> 64
        for c, k in enumerate(ks):
            counter[2] = k
            bg.state = state
            gen.standard_normal(out=buf[c])
        if r0:
            dest[...] = buf[:, r0:]
    return out.T


def gaussian_draws(seed: int, draw_index: int, columns) -> np.ndarray:
    """The canonical N(0, 1) coefficients of a (seed, draw_index) pair in the
    given columns (an int n means columns 0..n-1): row 0 of
    gaussian_draw_block(seed, range(draw_index, draw_index + 1), columns).

    The seed must lie in [0, 2^64) and the draw index in [0, 2^128); both
    must be integers (Python or numpy), so a fractional value raises
    TypeError instead of aliasing another draw.
    """
    seed, draw_index = _check_seed(seed), operator.index(draw_index)
    return _draws(seed, range(draw_index, draw_index + 1), _column_array(columns))[0]


def gaussian_draw_block(seed: int, draw_indices, columns) -> np.ndarray:
    """Rows gaussian_draws(seed, j, columns) for j in draw_indices, a range
    of step 1 (anything else raises TypeError); an empty range gives shape
    (0, number of columns).

    Column k of draw j depends on (seed, j, k) alone, so any subset of the
    columns equals those columns of the full draw.  The draws inside one
    DRAW_BLOCK cost one Philox state set per column.
    """
    return _draws(_check_seed(seed), draw_indices, _column_array(columns))


# ---------------------------------------------------------------------------
# samplers


# the largest design a sampler builds, in bytes (points x columns float64s)
_MAX_DESIGN_BYTES = 2**30
# the most draw rows, and the most values per field (32 MiB of float64s), of
# one slice of a sampler's field pass (LinearSampler._slices); the BLAS packs
# the design once per GEMM, and past 128 rows that cost is paid for, so more
# rows only hold more field
_FIELD_ROWS = 128
_FIELD_VALUES = 2**22


def _level_table(spec: RandomFieldSpec, n_points: int):
    """The spec's level_weights table and its kept levels, the bool mask of
    the levels with weight (a nonzero f or h std), once the scheme is known
    nonempty and a design of n_points x the kept levels' columns, the only
    ones a sampler builds, to fit _MAX_DESIGN_BYTES."""
    if spec.coefficients.truncation < 1:
        raise ValueError("empty coefficient scheme")
    weights = level_weights(spec)
    alpha, beta, counts = weights
    kept = (alpha != 0.0) | (beta != 0.0)
    columns = int(counts[kept].sum())
    nbytes = n_points * columns * 8
    if nbytes > _MAX_DESIGN_BYTES:
        raise ValueError(
            f"the design of {n_points} points x {columns} columns would take "
            f"{nbytes / 2**30:.2f} GiB, over the {_MAX_DESIGN_BYTES / 2**30:g} GiB limit; "
            "lower the truncation or the grid size"
        )
    return weights, kept


class LinearSampler:
    """The column model field = design @ (w * a) on a point set over its
    active columns: of the n_gaussians columns of level_weights (positive
    levels, then negative ones), those whose std wf (of f) or wh (of h) is
    nonzero.  design, wf and wh hold the active columns alone.  The geometry
    subclasses only build the design, in any memory layout, and hand over
    the table with it.  sample, sample_block and the field pass (_slices)
    all evaluate through _fields, the one field expression."""

    def __init__(self, weights, design: np.ndarray):
        alpha, beta, counts = weights
        wf, wh = np.repeat(alpha, counts), np.repeat(beta, counts)
        self.n_gaussians = wf.size
        self.active = np.flatnonzero((wf != 0.0) | (wh != 0.0))
        if design.shape[1] != self.active.size:
            raise ValueError(
                f"design has {design.shape[1]} columns for {self.active.size} weighted columns"
            )
        self.wf, self.wh = wf[self.active], wh[self.active]
        self.design = design

    @property
    def n_points(self) -> int:
        return self.design.shape[0]

    def sample(self, seed: int, draw_index: int) -> FieldSample:
        """Row 0 of sample_block(seed, range(draw_index, draw_index + 1)),
        with its draws."""
        A = gaussian_draw_block(seed, range(draw_index, draw_index + 1), self.active)
        F, H = self._fields(A)
        a = np.zeros(self.n_gaussians)
        a[self.active] = A[0]
        return FieldSample(
            seed=seed, draw_index=draw_index, gaussians=a, values_f=F[0], values_h=H[0],
        )

    def _fields(self, A, fields=("f", "h"), out=(None, None)):
        """(F, H) = ((A wf) design^T, (A wh) design^T) of shape (B, n_points)
        for the active columns' draw rows A (B, active.size), the one field
        GEMM, each written into its array of out when that is given; a field
        not named in `fields` is None and costs no GEMM."""
        return tuple(
            np.matmul(A * w, self.design.T, out=buf) if name in fields else None
            for name, w, buf in zip("fh", (self.wf, self.wh), out)
        )

    def _slices(self, A, fields=("f", "h")):
        """The field pass over the draw rows A: (F, H) = _fields(A[i0:i1],
        fields) for consecutive row slices [i0, i1) that tile A in order,
        one slice at a time.  A slice holds at most _FIELD_ROWS rows, past
        which the GEMM runs no faster, and _FIELD_VALUES values per field,
        but at least one row, and the fewest slices that fit are made of
        near-equal sizes: a 256-draw Euler chunk on icosphere:5 runs as two
        slices of 128 rows, and grids of over 2^15 points are sliced by the
        value cap.  A slice's fields are views of buffers allocated once per
        pass and overwritten by the next slice, so a pass holds one slice of
        each field.

        numpy runs a one-row product as a matrix-vector product, whose bits
        differ from a GEMM's; near-equal slices hold two rows or more, like
        A, unless the value cap allows fewer than three rows (grids of over
        2^22 / 3 points).  On a grid of n_points % 8 != 0 a slice's last
        rows can still differ from one GEMM over A in the last bits (see the
        README)."""
        step = max(1, min(_FIELD_ROWS, _FIELD_VALUES // max(self.n_points, 1)))
        n = len(A)
        k = -(-n // step)  # the fewest slices of at most step rows
        rows = -(-n // k) if n else 0  # the largest of k near-equal slices
        bufs = [np.empty((rows, self.n_points)) if f in fields else None for f in "fh"]
        for i in range(k):
            i0, i1 = n * i // k, n * (i + 1) // k
            out = [None if buf is None else buf[: i1 - i0] for buf in bufs]
            yield self._fields(A[i0:i1], fields, out)

    def sample_block(self, seed: int, draw_indices):
        """(F, H) of shape (B, n_points): the f and h fields of the B draws
        of draw_indices, a range of step 1 as gaussian_draw_block takes it."""
        return self._fields(gaussian_draw_block(seed, draw_indices, self.active))


class SphereSampler(LinearSampler):
    """f and h on a sphere point set: the real spherical harmonics of the
    degrees of 1..M with weight at the points, built alone.  A SphereGrid
    from the builders keeps the (read-only) design of the last truncation
    and weighted degrees asked for, so repeated samplers of one scheme's
    levels on that grid object share one design; other point sets build
    theirs on every call."""

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec, grid):
        if spec.spectrum.geometry is not Geometry.SPHERE2:
            raise ValueError("sphere sampler needs the Sphere2 geometry")
        theta, phi = _sphere_angles_of(grid)
        weights, kept = _level_table(spec, len(theta))
        M = spec.coefficients.truncation
        if isinstance(grid, SphereGrid):
            design = _harmonic_design(grid, M, kept)
        else:
            design = SphereHarmonicBasis(M, theta, phi, kept).Y
        super().__init__(weights, design)


class TorusSampler(LinearSampler):
    """f and h on points of the square torus [0, 2 pi)^2.

    Mode columns are ordered level-major, within a level by the sorted
    half-lattice representatives, cosine before sine; all modes are the
    orthonormal cos(k.x)/(pi sqrt 2), sin(k.x)/(pi sqrt 2).  Only the levels
    with weight are built.
    """

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec, grid):
        if spec.spectrum.geometry is not Geometry.FLAT_TORUS2:
            raise ValueError("torus sampler needs the FlatTorus2 geometry")
        pts = _torus_points_of(grid)
        weights, kept = _level_table(spec, len(pts))
        modes = spec.spectrum.torus_modes[: spec.coefficients.truncation]
        super().__init__(weights, _torus_design(pts, modes, kept))


class UserSampler(LinearSampler):
    """f and h on the stored point set of a user-supplied model: its stored
    eigenfunctions of the levels with weight, then its negative-level ones
    with weight, taken alone.  The design is the transpose of those rows,
    not a copy."""

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec):
        model = spec.spectrum
        if model.geometry is not Geometry.USER_SUPPLIED:
            raise ValueError("user sampler needs a user-supplied spectrum")
        weights, kept = _level_table(spec, model.eigenfunctions.shape[1])
        keep = np.repeat(kept, weights[2])
        n_pos = int(model.multiplicities[: spec.coefficients.truncation].sum())
        rows = [model.eigenfunctions[:n_pos][keep[:n_pos]]]
        if model.negative_levels:
            rows.append(model.neg_eigenfunctions[keep[n_pos:]])
        super().__init__(weights, np.concatenate(rows).T)


def make_sampler(spec: RandomFieldSpec, grid=None):
    """The spec's sampler on the grid; a user-supplied model has its own
    stored points and ignores the grid."""
    g = spec.spectrum.geometry
    if g is Geometry.SPHERE2:
        return SphereSampler(spec, grid)
    if g is Geometry.FLAT_TORUS2:
        return TorusSampler(spec, grid)
    if g is Geometry.USER_SUPPLIED:
        return UserSampler(spec)
    raise ValueError(f"no sampler for geometry {g}")


def _sphere_angles_of(grid):
    """(theta, phi) of a SphereGrid, a (theta, phi) pair or (n, 3) unit
    vectors; the checks fail on NaN, which passes every negated comparison."""
    if isinstance(grid, SphereGrid):
        return grid.theta, grid.phi
    if isinstance(grid, tuple) and len(grid) == 2:
        th = np.atleast_1d(np.asarray(grid[0], dtype=float))
        ph = np.atleast_1d(np.asarray(grid[1], dtype=float))
        if th.shape != ph.shape or th.ndim != 1 or not np.all(np.isfinite(th + ph)):
            raise ValueError("theta and phi must be finite 1-d arrays of equal length")
        return th, ph
    xyz = np.atleast_2d(np.asarray(grid, dtype=float))
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("sphere grid must be a SphereGrid, (theta, phi), or (n, 3) points")
    norms = np.linalg.norm(xyz, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise ValueError("sphere grid points must be finite with unit norm")
    return _angles(xyz)


def _torus_points_of(grid):
    """The (n, 2) points of a TorusGrid or of points in [0, 2 pi)^2, whose
    range check fails on NaN."""
    if isinstance(grid, TorusGrid):
        return grid.points
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("torus grid must be a TorusGrid or (n, 2) points")
    if not np.all((pts >= -1e-9) & (pts < 2.0 * math.pi + 1e-9)):
        raise ValueError("torus points must be finite and lie in [0, 2 pi)^2")
    return pts


# ---------------------------------------------------------------------------
# covariances


def covariance_matrix(spec: RandomFieldSpec, points) -> np.ndarray:
    """Covariance matrix of the selected field over the points, (D w^2) D^T
    for the sampler's design D and the field's per-column std w.

    For a user-supplied model the points are integer indices into its
    stored points, each in [0, n_points); anything else would alias a point.
    """
    smp = make_sampler(spec, points)
    D = smp.design
    if spec.spectrum.geometry is Geometry.USER_SUPPLIED:
        try:
            idx = [operator.index(i) for i in np.ravel(points)]
        except TypeError:
            raise ValueError("user-model points must be integer indices") from None
        if not all(0 <= i < smp.n_points for i in idx):
            raise ValueError(f"user-model point indices must lie in [0, {smp.n_points})")
        D = D[idx]
    w = _selected(spec, smp.wf, smp.wh)
    return (D * w**2) @ D.T


def _legendre_series(spec: RandomFieldSpec, want: FieldKind, d):
    """sum_m var_m P_m(cos d) with the per-level variances of the field."""
    model = spec.spectrum
    if model.geometry is not Geometry.SPHERE2:
        raise ValueError("this kernel is defined on the 2-sphere only")
    if spec.which is not want:
        raise ValueError(f"spec selects field {spec.which.value!r}, expected {want.value!r}")
    alpha, beta, counts = level_weights(spec)
    scale = _selected(spec, alpha, beta)
    pvar = scale * scale * counts / model.volume
    d = np.asarray(d, dtype=float)
    table = legendre_all(counts.size, np.cos(d).ravel())
    out = (pvar[:, None] * table[1:]).sum(axis=0)
    return out.reshape(d.shape) if d.shape else float(out[0])


def covariance_h_sphere(spec: RandomFieldSpec, d):
    """r_h at spherical distance d: the Legendre series with the level
    variance weights of h (equal to the scheme values in the per-eigenspace
    convention)."""
    return _legendre_series(spec, FieldKind.H, d)


def covariance_f_sphere(spec: RandomFieldSpec, d):
    """r_f at spherical distance d (per-eigenspace weights c_m / lambda_m^2)."""
    return _legendre_series(spec, FieldKind.F, d)


# ---------------------------------------------------------------------------
# variance summaries


@dataclass(frozen=True)
class VarianceSummary:
    sigma2_sup: float


def _n_points(geometry: Geometry, grid) -> int:
    """The number of grid points a sampler of the geometry reads, with the
    grid checked as the samplers check it."""
    if grid is None:
        raise ValueError("variance_summary needs a grid")
    if geometry is Geometry.FLAT_TORUS2:
        return len(_torus_points_of(grid))
    if geometry is Geometry.SPHERE2:
        return len(_sphere_angles_of(grid)[0])
    return len(np.asarray(grid))


def _isotropic_variances(spec: RandomFieldSpec) -> tuple[float, float, float]:
    """(var f, var h, cov fh) at every point of a built-in (homogeneous)
    geometry: the per-level products of the weights, summed with the
    multiplicities over the volume."""
    alpha, beta, counts = level_weights(spec)
    return tuple(
        float(np.sum(w * counts) / spec.spectrum.volume)
        for w in (alpha**2, beta**2, alpha * beta)
    )


def diagonal_variance(spec: RandomFieldSpec, grid) -> np.ndarray:
    """Pointwise variance of the selected field at the grid points, or at
    the stored points of a user-supplied model (which ignores the grid)."""
    model = spec.spectrum
    if model.geometry is Geometry.USER_SUPPLIED:
        smp = UserSampler(spec)
        wf, wh = smp.wf, smp.wh
        var_f, var_h, cov_fh = (smp.design**2 @ np.stack([wf * wf, wh * wh, wf * wh], axis=1)).T
    else:
        # isotropic: constants across the grid
        n = _n_points(model.geometry, grid)
        var_f, var_h, cov_fh = (np.full(n, v) for v in _isotropic_variances(spec))
    npts = var_h.size
    if npts == 0:
        raise ValueError("variance_summary needs a nonempty grid")

    if spec.which is FieldKind.F:
        return var_f
    if spec.which is FieldKind.H:
        return var_h
    r0 = np.broadcast_to(np.asarray(spec.reference_curvature, dtype=float), (npts,))
    if spec.which is FieldKind.V:
        return var_h / r0**2
    scale = exponent_factor(spec.spectrum.dimension)
    # w = h + k R0 f
    return var_h + 2.0 * (scale * r0) * cov_fh + (scale * r0) ** 2 * var_f


def variance_summary(spec: RandomFieldSpec, grid) -> VarianceSummary:
    """The sup over the grid of the selected field's pointwise variance."""
    return VarianceSummary(sigma2_sup=float(diagonal_variance(spec, grid).max()))


# ---------------------------------------------------------------------------
# heat-kernel variance


@dataclass(frozen=True)
class HeatVariance:
    """Diagonal of the heat kernel without its constant term.

    For the built-in homogeneous geometries this is a constant (values
    None); user-supplied models get pointwise values over their stored grid.
    """

    sup: float
    values: np.ndarray | None = None


def _level_series(term, max_level: int, T: float) -> float:
    """sum_{m >= 1} term(m), stopped once a term falls below 1e-17 of the sum;
    a series that has not converged by level max_level + 1 raises ValueError
    naming T instead of returning a partial sum."""
    total = 0.0
    for m in range(1, max_level + 2):
        t = term(m)
        total += t
        if t < 1e-17 * max(total, 1e-300):
            return total
    raise ValueError(f"heat variance series does not converge in bounded work at T = {T!r}")


def heat_variance(spectrum: SpectrumModel, T: float) -> HeatVariance:
    """sum_j e^{-lambda_j T} phi_j(x)^2, extended adaptively past any
    truncation for the built-in geometries.

    On the 2-sphere, the flat torus and S^4 the series is summed over at
    most 10^5, 10^6 and 10^4 levels; a T too small for it to converge there
    raises ValueError.
    """
    if not T > 0:
        raise ValueError("diffusion time must be positive")
    g = spectrum.geometry
    if g is Geometry.FLAT_TORUS2:
        # sum over k in Z^2 \ {0} of e^{-|k|^2 T} = theta^2 - 1 = 4 s (1 + s)
        # with theta = 1 + 2 s, s = sum_{k >= 1} e^{-k^2 T}: O(1/sqrt(T))
        # terms and no cancellation at large T
        s = _level_series(lambda k: math.exp(-k * k * T), 10**6, T)
        return HeatVariance(sup=4.0 * s * (1.0 + s) / spectrum.volume)
    if g is not Geometry.USER_SUPPLIED:
        law, cap = (sphere_level, 10**5) if g is Geometry.SPHERE2 else (paneitz_level_s4, 10**4)

        def term(m):
            lam, mult = law(m)
            return mult * math.exp(-lam * T)

        return HeatVariance(sup=_level_series(term, cap, T) / spectrum.volume)
    # user-supplied: finite listed sum on the stored grid
    levels = enumerate(spectrum.eigenvalues)
    vals = np.sum([math.exp(-lam * T) * spectrum.phi_sq_level(i) for i, lam in levels], axis=0)
    return HeatVariance(sup=float(vals.max()), values=vals)
