"""Gaussian random fields built from spectral data.

The conformal factor field f has independent centered Gaussian coefficients
against the orthonormal eigenfunctions; h is its image under the reference
operator with the sign convention h = -P f (which on surfaces is the
Laplace-Beltrami image of f, eigenvalue -lambda per level).  Derived fields:
v = h / R0 and the linearization field w (h + R0 f for surfaces, -(h + n Q0 f)
for the fourth-order case; only the sign differs and both are centered).

Per-level coefficient weights come in two indexings (see spectral):
per-eigenfunction scales c (f coefficient std per eigenfunction) and
per-eigenspace variance weights c (the level's contribution to the pointwise
variance of h).  Both reduce to the same per-harmonic (alpha, beta) pair used
throughout this module: alpha is the f coefficient std, beta = -lambda*alpha
the h coefficient std.

Sampling is counter-based: the Gaussian vector of draw j from seed s is
generated by a Philox stream keyed by s with counter j * 2^128, so samples
are reproducible and independent of scheduling or worker count.

Every sampler is a LinearSampler, the column model field = design @ (w * A)
for the draws A, with one design column per eigenfunction at the points and
per-column stds wf, wh; the geometry subclasses only build the design.
Every second moment follows from it, so covariance_matrix is (D w^2) D^T
over the sampler's design D; covariance_h_sphere and covariance_f_sphere
are the closed Legendre forms on the sphere, an independent route to the
same numbers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import SphereGrid, TorusGrid
from .harmonics import SphereHarmonicBasis, legendre_all
from .spectral import CoefficientScheme, Geometry, Indexing, SpectrumModel

__all__ = [
    "FieldKind",
    "RandomFieldSpec",
    "LevelWeights",
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
    "gradient_variance_sphere",
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
    be finite: a NaN would make every comparison against it false.
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

    @property
    def q_mode(self) -> bool:
        # fourth-order convention for the linearization field
        return self.spectrum.dimension != 2

    def constant_reference(self) -> float:
        r = np.asarray(self.reference_curvature, dtype=float)
        if r.ndim == 0:
            return float(r)
        if np.ptp(r) == 0.0:
            return float(r.ravel()[0])
        raise ValueError("this operation needs a constant reference curvature")


@dataclass(frozen=True)
class LevelWeights:
    """Per-harmonic coefficient standard deviations by level.

    alpha: f coefficient; beta = -lambda * alpha: h coefficient (signed).
    Negative-spectrum levels carry beta = +mu * alpha.
    """

    alpha: np.ndarray
    beta: np.ndarray
    neg_alpha: np.ndarray
    neg_beta: np.ndarray


def level_weights(spec: RandomFieldSpec) -> LevelWeights:
    sch = spec.coefficients
    model = spec.spectrum
    M = sch.truncation
    lam = model.eigenvalues[:M]
    if sch.indexing is Indexing.PER_EIGENFUNCTION:
        alpha = sch.values.copy()
    else:
        # per-eigenspace: values are the level variance weights of h
        N = model.multiplicities[:M].astype(float)
        alpha = np.sqrt(sch.values * model.volume / N) / lam
    beta = -lam * alpha
    nneg = len(model.negative_levels)
    if nneg and sch.neg_values.size:
        mu = np.array([p[0] for p in model.negative_levels])
        neg_alpha = sch.neg_values.copy()
        neg_beta = mu * neg_alpha
    else:
        neg_alpha = np.zeros(nneg)
        neg_beta = np.zeros(nneg)
    return LevelWeights(alpha, beta, neg_alpha, neg_beta)


def _selected(spec: RandomFieldSpec, f, h):
    """The selected field's coefficient std from those of f and h, per level
    or per column alike: v = h / R0, w = h + R0 f on surfaces and
    -(h + n Q0 f) in the Q mode.

    V and W need a constant reference here; gridded references are handled
    pointwise by variance_summary instead.
    """
    if spec.which is FieldKind.F:
        return f
    if spec.which is FieldKind.H:
        return h
    r0 = spec.constant_reference()
    if spec.which is FieldKind.V:
        return h / r0
    if spec.q_mode:
        return -(h + spec.spectrum.dimension * r0 * f)
    return h + r0 * f


@dataclass
class FieldSample:
    """One realization: the Gaussian draws plus evaluated fields on a grid.

    Samplers fill values_f / values_h; values_gradsq (|grad f|^2) is read by
    the dimension-n curvature and filled by its callers.
    """

    seed: int
    draw_index: int
    gaussians: np.ndarray
    grid: object
    values_f: np.ndarray | None = None
    values_h: np.ndarray | None = None
    values_gradsq: np.ndarray | None = None


_U64 = 2**64 - 1


def _check_stream(seed: int, draw_indices) -> None:
    """Reject a seed outside [0, 2^64) or a draw index outside [0, 2^128).

    Philox keys and counter words are unsigned: an out-of-range seed would
    wrap onto another seed's stream and an out-of-range index would fail
    inside numpy, differently for single and block draws.
    """
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if draw_indices and not (min(draw_indices) >= 0 and max(draw_indices) < 2**128):
        raise ValueError("draw_index must lie in [0, 2**128)")


def gaussian_draws(seed: int, draw_index: int, n: int) -> np.ndarray:
    """The canonical i.i.d. N(0,1) vector of a (seed, draw_index) pair.

    Streams are spaced 2^128 Philox states apart (the counter's upper two
    words), vastly more than one vector ever consumes, so distinct draw
    indices can never overlap.  The seed must lie in [0, 2^64) and the draw
    index in [0, 2^128); both must be integers (Python or numpy), so a
    fractional value raises TypeError instead of aliasing another draw.
    """
    seed, draw_index = operator.index(seed), operator.index(draw_index)
    _check_stream(seed, [draw_index])
    bitgen = np.random.Philox(key=seed, counter=draw_index << 128)
    return np.random.Generator(bitgen).standard_normal(n)


def gaussian_draw_block(seed: int, draw_indices, n: int) -> np.ndarray:
    """Rows gaussian_draws(seed, j, n) for j in draw_indices, bit-identical.

    One Philox bit generator, one Generator and one state dict serve the
    whole block: per row only the counter words change, and the row is
    filled in place, which is several times faster than constructing a
    generator per draw for the short vectors the samplers consume.
    """
    seed = operator.index(seed)
    idx = [operator.index(j) for j in draw_indices]
    _check_stream(seed, idx)
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    state = bg.state  # a fresh state: zero counter, empty buffer
    counter = state["state"]["counter"]
    out = np.empty((len(idx), n))
    for r, j in enumerate(idx):
        counter[2] = j & _U64
        counter[3] = j >> 64
        bg.state = state
        gen.standard_normal(out=out[r])
    return out


# ---------------------------------------------------------------------------
# samplers


class LinearSampler:
    """The column model field = design @ (w * a) on a point set: one design
    column per eigenfunction, with the stds wf (of f) and wh (of h) of
    level_weights repeated by multiplicity, positive levels then negative
    ones.  The geometry subclasses only build the design."""

    def __init__(self, spec: RandomFieldSpec, design: np.ndarray, grid):
        model = spec.spectrum
        lw = level_weights(spec)
        counts = np.concatenate([
            model.multiplicities[: spec.coefficients.truncation],
            [p[1] for p in model.negative_levels],
        ]).astype(int)
        self.wf = np.repeat(np.concatenate([lw.alpha, lw.neg_alpha]), counts)
        self.wh = np.repeat(np.concatenate([lw.beta, lw.neg_beta]), counts)
        if design.shape[1] != self.wf.size:
            raise ValueError(f"design has {design.shape[1]} columns for {self.wf.size} weights")
        self.design = design
        self.grid = grid

    @property
    def n_points(self) -> int:
        return self.design.shape[0]

    @property
    def n_gaussians(self) -> int:
        return self.wf.size

    def sample(self, seed: int, draw_index: int) -> FieldSample:
        a = gaussian_draws(seed, draw_index, self.n_gaussians)
        return FieldSample(
            seed=seed,
            draw_index=draw_index,
            gaussians=a,
            grid=self.grid,
            values_f=self.design @ (self.wf * a),
            values_h=self.design @ (self.wh * a),
        )

    def evaluate(self, A, fields=("f", "h")):
        """(F, H) = ((A wf) design^T, (A wh) design^T) of shape (B, n_points)
        for the draw rows A (B, n_gaussians); a field not named in `fields`
        ("f", "h") is None and costs no GEMM."""
        unknown = set(fields) - {"f", "h"}
        if unknown:
            raise ValueError(f"unknown fields {sorted(unknown)}; choose from 'f', 'h'")
        F = (A * self.wf) @ self.design.T if "f" in fields else None
        H = (A * self.wh) @ self.design.T if "h" in fields else None
        return F, H

    def sample_block(self, seed: int, draw_indices, fields=("f", "h")):
        """evaluate() on the block draws of draw_indices."""
        A = gaussian_draw_block(seed, np.asarray(draw_indices), self.n_gaussians)
        return self.evaluate(A, fields)


class SphereSampler(LinearSampler):
    """f and h on a sphere point set: the real spherical harmonics of degrees
    1..M at the points."""

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec, grid):
        if spec.spectrum.geometry is not Geometry.SPHERE2:
            raise ValueError("sphere sampler needs the Sphere2 geometry")
        theta, phi, grid = _sphere_angles_of(grid)
        M = spec.coefficients.truncation
        if M < 1:
            raise ValueError("empty coefficient scheme")
        super().__init__(spec, SphereHarmonicBasis(M, theta, phi).Y, grid)


class TorusSampler(LinearSampler):
    """f and h on points of the square torus [0, 2 pi)^2.

    Mode columns are ordered level-major, within a level by the sorted
    half-lattice representatives, cosine before sine; all modes are the
    orthonormal cos(k.x)/(pi sqrt 2), sin(k.x)/(pi sqrt 2).
    """

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec, grid):
        if spec.spectrum.geometry is not Geometry.FLAT_TORUS2:
            raise ValueError("torus sampler needs the FlatTorus2 geometry")
        pts, grid = _torus_points_of(grid)
        norm = 1.0 / (math.pi * math.sqrt(2.0))
        cols = []
        for reps in spec.spectrum.torus_modes[: spec.coefficients.truncation]:
            phase = pts @ reps.T          # (npts, n_reps)
            cos_sin = np.stack([np.cos(phase), np.sin(phase)], axis=2)
            cols.append(cos_sin.reshape(len(pts), -1) * norm)
        super().__init__(spec, np.concatenate(cols, axis=1), grid)


class UserSampler(LinearSampler):
    """f and h on the stored point set of a user-supplied model: its stored
    eigenfunctions, then its negative-level ones."""

    # perfbench's tracer wraps these per class, read from the class namespace
    sample, sample_block = LinearSampler.sample, LinearSampler.sample_block

    def __init__(self, spec: RandomFieldSpec):
        model = spec.spectrum
        if model.geometry is not Geometry.USER_SUPPLIED:
            raise ValueError("user sampler needs a user-supplied spectrum")
        n_pos = int(model.multiplicities[: spec.coefficients.truncation].sum())
        design = [model.eigenfunctions[:n_pos].T]
        if model.negative_levels:
            design.append(model.neg_eigenfunctions.T)
        super().__init__(spec, np.concatenate(design, axis=1), model.points)


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
    if isinstance(grid, SphereGrid):
        return grid.theta, grid.phi, grid
    if isinstance(grid, tuple) and len(grid) == 2:
        th = np.atleast_1d(np.asarray(grid[0], dtype=float))
        ph = np.atleast_1d(np.asarray(grid[1], dtype=float))
        return th, ph, grid
    xyz = np.atleast_2d(np.asarray(grid, dtype=float))
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise ValueError("sphere grid must be a SphereGrid, (theta, phi), or (n, 3) points")
    norms = np.linalg.norm(xyz, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("sphere grid points must have unit norm")
    theta = np.arccos(np.clip(xyz[:, 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(xyz[:, 1], xyz[:, 0]), 2.0 * math.pi)
    return theta, phi, grid


def _torus_points_of(grid):
    if isinstance(grid, TorusGrid):
        return grid.points, grid
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("torus grid must be a TorusGrid or (n, 2) points")
    if np.any(pts < -1e-9) or np.any(pts >= 2.0 * math.pi + 1e-9):
        raise ValueError("torus points must lie in [0, 2 pi)^2")
    return pts, grid


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
    lw = level_weights(spec)
    scale = _selected(spec, lw.alpha, lw.beta)
    M = spec.coefficients.truncation
    pvar = scale * scale * model.multiplicities[:M].astype(float) / model.volume
    d = np.asarray(d, dtype=float)
    table = legendre_all(M, np.cos(d).ravel())
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
    argmax_index: int
    argmax_point: np.ndarray | None
    is_constant: bool


def _grid_points(spec: RandomFieldSpec, grid):
    """One row per point, read as the samplers read the grid: unit vectors on
    the 2-sphere, (x, y) on the torus, the stored points of a user-supplied
    model (which ignores the grid), array rows elsewhere."""
    g = spec.spectrum.geometry
    if g is Geometry.USER_SUPPLIED:
        return spec.spectrum.points
    if grid is None:
        raise ValueError("variance_summary needs a grid")
    if g is Geometry.FLAT_TORUS2:
        return _torus_points_of(grid)[0]
    if g is not Geometry.SPHERE2:
        return np.asarray(grid)
    if isinstance(grid, SphereGrid):
        return grid.xyz
    theta, phi, _ = _sphere_angles_of(grid)
    st = np.sin(theta)
    return np.column_stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def diagonal_variance(spec: RandomFieldSpec, grid) -> np.ndarray:
    """Pointwise variance of the selected field at the grid points."""
    return _diagonal_components(spec, grid)[0]


def variance_summary(spec: RandomFieldSpec, grid) -> VarianceSummary:
    """Pointwise variance of the selected field over the grid, its sup and
    argmax, and a constancy flag (max - min < 1e-10 * max)."""
    diag, pts = _diagonal_components(spec, grid)
    npts = diag.size
    imax = int(np.argmax(diag))
    hi = float(diag[imax])
    lo = float(diag.min())
    return VarianceSummary(
        sigma2_sup=hi,
        argmax_index=imax,
        argmax_point=(None if pts is None else np.asarray(pts[imax])),
        is_constant=bool(hi - lo < 1e-10 * max(hi, 1e-300)),
    )


def _diagonal_components(spec: RandomFieldSpec, grid):
    model = spec.spectrum
    pts = _grid_points(spec, grid)
    if model.geometry is Geometry.USER_SUPPLIED:
        smp = UserSampler(spec)
        wf, wh = smp.wf, smp.wh
        var_f, var_h, cov_fh = (smp.design**2 @ np.stack([wf * wf, wh * wh, wf * wh], axis=1)).T
        npts = var_h.size
    else:
        # isotropic: constants across the grid, summed per level
        lw = level_weights(spec)
        M = spec.coefficients.truncation
        N = model.multiplicities[:M].astype(float)
        var_f = float(np.sum(lw.alpha**2 * N) / model.volume)
        var_h = float(np.sum(lw.beta**2 * N) / model.volume)
        cov_fh = float(np.sum(lw.alpha * lw.beta * N) / model.volume)
        npts = len(pts)
        var_f = np.full(npts, var_f)
        var_h = np.full(npts, var_h)
        cov_fh = np.full(npts, cov_fh)
    if npts == 0:
        raise ValueError("variance_summary needs a nonempty grid")

    if spec.which is FieldKind.F:
        diag = var_f
    elif spec.which is FieldKind.H:
        diag = var_h
    else:
        r0 = np.broadcast_to(
            np.asarray(spec.reference_curvature, dtype=float), (npts,)
        )
        if spec.which is FieldKind.V:
            diag = var_h / r0**2
        else:
            scale = spec.spectrum.dimension if spec.q_mode else 1.0
            # w = h + R0 f (surfaces) or -(h + n Q0 f); variance is the same
            diag = var_h + 2.0 * (scale * r0) * cov_fh + (scale * r0) ** 2 * var_f
    return diag, pts


# ---------------------------------------------------------------------------
# heat-kernel variance and gradient variance


@dataclass(frozen=True)
class HeatVariance:
    """Diagonal of the heat kernel without its constant term.

    For the built-in homogeneous geometries this is a constant (is_constant
    true, values None); user-supplied models get pointwise values over their
    stored grid.
    """

    sup: float
    is_constant: bool
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
    if g is Geometry.SPHERE2:
        total = _level_series(lambda m: (2 * m + 1) * math.exp(-m * (m + 1) * T), 100000, T)
        return HeatVariance(sup=total / spectrum.volume, is_constant=True)
    if g is Geometry.FLAT_TORUS2:
        # sum over k in Z^2 \ {0} of e^{-|k|^2 T} = theta^2 - 1 = 4 s (1 + s)
        # with theta = 1 + 2 s, s = sum_{k >= 1} e^{-k^2 T}: O(1/sqrt(T))
        # terms and no cancellation at large T
        s = _level_series(lambda k: math.exp(-k * k * T), 10**6, T)
        return HeatVariance(sup=4.0 * s * (1.0 + s) / spectrum.volume, is_constant=True)
    if g is Geometry.ROUND_SPHERE4_PANEITZ:
        from .spectral import paneitz_level_s4

        def term(m):
            lam, mult = paneitz_level_s4(m)
            return mult * math.exp(-lam * T)

        total = _level_series(term, 10000, T)
        return HeatVariance(sup=total / spectrum.volume, is_constant=True)
    # user-supplied: finite listed sum on the stored grid
    rows = []
    pos = 0
    for lam, mult in zip(spectrum.eigenvalues, spectrum.multiplicities):
        block = spectrum.eigenfunctions[pos : pos + int(mult)]
        rows.append(math.exp(-lam * T) * np.sum(block**2, axis=0))
        pos += int(mult)
    vals = np.sum(rows, axis=0)
    hi = float(vals.max())
    lo = float(vals.min())
    return HeatVariance(
        sup=hi, is_constant=bool(hi - lo < 1e-10 * max(hi, 1e-300)), values=vals
    )


def gradient_variance_sphere(spec: RandomFieldSpec) -> float:
    """E|grad f|^2 on the round sphere: sum of alpha_m^2 lambda_m N_m / |S^2|
    by the differentiated addition theorem (constant over the sphere).  In the
    per-eigenspace convention this equals sum c_m / lambda_m."""
    model = spec.spectrum
    if model.geometry is not Geometry.SPHERE2:
        raise ValueError(
            "closed-form gradient variance is sphere-only; estimate by MC elsewhere"
        )
    lw = level_weights(spec)
    M = spec.coefficients.truncation
    lam = model.eigenvalues[:M]
    N = model.multiplicities[:M].astype(float)
    return float(np.sum(lw.alpha**2 * lam * N) / model.volume)
