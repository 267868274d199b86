"""Monte Carlo excursion estimators and expected-topology predictions.

Estimators compute grid suprema of sampled fields: the one-sided supremum of
v = h / R0 for sign-change probabilities (no absolute value; the event
{sup v > 1/a} is the sign-change event for either sign of a constant-sign R0)
and the two-sided max |deviation| for the sup-norm curvature deviation.
Empirical Euler characteristics of super-level sets on closed triangulations
are joined with the closed-form expected value 2 Psi(u) + L2 rho2(u).

All three estimators and `randcurv sample` run on one driver, map_chunks:
each builds its context once and maps a kernel (ctx, j0, j1) over the fixed
chunks [j0, j1) of range(n).  Draw j of seed s is fixed, the chunks do not
depend on the worker count, and chunk results reduce by integer (or fsum)
addition, so estimates are byte-identical for any parallelism.  The sample
count and the seed must be integers (Python or numpy): a fractional one
raises TypeError before any work instead of aliasing another run.
"""

from __future__ import annotations

import logging
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from . import fields
from .bounds import gaussian_tail, linf_regime_ok
from .curvature import deviation_field
from .fields import FieldKind, RandomFieldSpec, exponent_factor, make_sampler, variance_summary
from .grids import _closed_triangulation, icosphere
from .spectral import SPHERE2_VOLUME, CoefficientScheme, Indexing, _require_unit_variance, sphere_level

__all__ = [
    "P2_CHUNK",
    "EULER_CHUNK",
    "ExcursionReport",
    "P2Study",
    "EulerCurve",
    "P2Prediction",
    "map_chunks",
    "p2_curve",
    "estimate_linf",
    "empirical_euler",
    "euler_curve",
    "predicted_euler",
    "at_metric_constant",
    "sphere_p2_prediction",
    "attainability_matrix",
    "degeneracy_check",
]

# one draw block per chunk, so each column's stream is set once per chunk
P2_CHUNK = fields.DRAW_BLOCK
EULER_CHUNK = 256

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExcursionReport:
    """One Monte Carlo exceedance estimate over draws 0 .. n_samples - 1 of
    the seed, with its provenance.

    refinement_delta is the change of the estimate under the grid's
    canonical refinement with identical draws (None without refinement).
    """

    estimate: float
    standard_error: float
    n_samples: int
    threshold: float
    amplitude: float | None
    n_grid_points: int
    seed: int
    refinement_delta: float | None = None
    regime_warning: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("estimate must be a probability")


@dataclass(frozen=True)
class P2Study:
    """Shared-sample sign-change estimates over an amplitude grid, plus the
    run-level supremum statistics the concentration bound needs."""

    reports: tuple[ExcursionReport, ...]
    e_sup: float
    sigma_v: float


@dataclass(frozen=True)
class EulerCurve:
    thresholds: np.ndarray
    empirical_mean: np.ndarray
    empirical_se: np.ndarray
    predicted: np.ndarray
    lipschitz_killing: tuple[float, float, float]
    n_samples: int
    seed: int


def _reports(counts, n, thresholds, amplitudes, n_points, seed, refine, warnings=None):
    """One ExcursionReport per (threshold, amplitude) pair from its event
    counts over n draws: counts[0] on the grid and, if refine, counts[1] on
    the refined grid, one column per pair."""
    reports = []
    for i, (u, a) in enumerate(zip(thresholds, amplitudes, strict=True)):
        p = int(counts[0][i]) / n
        reports.append(
            ExcursionReport(
                estimate=p,
                standard_error=math.sqrt(p * (1.0 - p) / n),
                n_samples=n,
                threshold=u,
                amplitude=a,
                n_grid_points=n_points,
                seed=seed,
                refinement_delta=int(counts[1][i]) / n - p if refine else None,
                regime_warning=None if warnings is None else warnings[i],
            )
        )
    return tuple(reports)


# ---------------------------------------------------------------------------
# the chunked Monte Carlo driver

# a worker process's context, handed over once by the pool initializer
_worker_ctx = None


def _set_worker_ctx(ctx) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _run_in_worker(kernel, j0: int, j1: int):
    return kernel(_worker_ctx, j0, j1)


def map_chunks(kernel, ctx, n: int, chunk: int, workers: int = 1) -> list:
    """[kernel(ctx, j0, j1) for the chunks [j0, j1) of range(n)], in chunk
    order.  The chunks depend on n and chunk only, so results reduced by
    integer or fsum addition do not depend on the worker count.  At most one
    worker process is started per chunk, and none for a single chunk.  With
    workers > 1 the kernel must be a module-level function."""
    starts = range(0, n, chunk)
    ends = [min(j0 + chunk, n) for j0 in starts]
    workers = min(workers, len(starts))
    if workers <= 1:
        return [kernel(ctx, j0, j1) for j0, j1 in zip(starts, ends)]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_worker_ctx, initargs=(ctx,)
    ) as pool:
        return list(pool.map(_run_in_worker, repeat(kernel), starts, ends))


def _samplers(spec, grid, refine: bool) -> list:
    """The grid's sampler, then, if refine, the refined grid's one.  A
    gridded reference curvature must hold one value per grid point."""
    grids_ = [grid]
    if refine:
        if np.ndim(spec.reference_curvature) != 0:
            raise ValueError(
                "refine=True needs a constant reference curvature: a gridded one "
                "is given on the coarse grid only"
            )
        if getattr(grid, "refine", None) is None:
            raise ValueError("refinement needs a structured grid with a refine() method")
        grids_.append(grid.refine())
    samplers = [make_sampler(spec, g) for g in grids_]
    shape = np.shape(spec.reference_curvature)
    if shape and shape != (samplers[0].n_points,):
        raise ValueError(
            f"a gridded reference_curvature needs shape ({samplers[0].n_points},) "
            f"for the grid's points, got {shape}"
        )
    return samplers


def _sup_v(H, r0):
    """Per row of H the max of v = H / R0.  A constant R0 divides only the
    row's max (R0 > 0) or min (R0 < 0): correctly rounded division is
    monotone, so that is the same number."""
    if np.ndim(r0):
        return (H / r0).max(axis=1)
    return (H.max(axis=1) if r0 > 0 else H.min(axis=1)) / r0


def _p2_chunk(ctx, j0: int, j1: int):
    """Exceedance counts per sampler and amplitude and the sum of the
    per-draw suprema of v on the coarse grid.  The chunk's draws of the
    active columns, the same on both grids, are drawn once; each sampler
    takes the row sups of h one slice of its field pass at a time."""
    # looked up through the module, where profilers wrap the draw layer
    A = fields.gaussian_draw_block(ctx.seed, range(j0, j1), ctx.samplers[0].active)
    sups = [
        np.concatenate([_sup_v(H, ctx.r0) for _, H in smp._slices(A, ("h",))])
        for smp in ctx.samplers
    ]
    counts = np.array([(sup[None, :] > (1.0 / ctx.a)[:, None]).sum(axis=1) for sup in sups])
    return counts, float(sups[0].sum())


def p2_curve(
    spec: RandomFieldSpec,
    a_values,
    grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
    refine: bool = False,
) -> P2Study:
    """Sign-change probability estimates at several amplitudes from one shared
    set of samples (the per-sample supremum of v does not depend on a)."""
    n, seed = operator.index(n_samples), operator.index(seed)
    if spec.which is not FieldKind.V:
        raise ValueError("sign-change estimation needs a spec for the v = h / R0 field")
    r = np.asarray(spec.reference_curvature, dtype=float)
    if not (np.all(r > 0.0) or np.all(r < 0.0)):
        raise ValueError("reference curvature must have one strict sign on the grid")
    a_arr = np.asarray(a_values, dtype=float)
    if a_arr.size == 0 or not np.all(a_arr > 0.0):
        raise ValueError("amplitudes must be positive and nonempty")
    if n < 1:
        raise ValueError("need at least one sample")
    ctx = SimpleNamespace(samplers=_samplers(spec, grid, refine), r0=r, a=a_arr, seed=seed)
    results = map_chunks(_p2_chunk, ctx, n, P2_CHUNK, workers)
    counts = sum(c for c, _ in results)
    return P2Study(
        reports=_reports(
            counts, n, 1.0 / a_arr, a_arr.tolist(), ctx.samplers[0].n_points, ctx.seed, refine
        ),
        e_sup=math.fsum(t for _, t in results) / n,
        sigma_v=math.sqrt(variance_summary(spec, grid).sigma2_sup),
    )


# relative margin of the screen bound over the computed fields; it covers
# the rounding of the GEMMs and of exp/expm1 (a few ulp)
_SCREEN_MARGIN = 1e-12
# relative slack of the prefilter radius below its root; it covers the
# rounding of the row norms and of the per-level bound (a few ulp)
_RADIUS_SLACK = 1e-9
# the most values (rows x active columns) of one linf chunk's draws, 512 KiB:
# several draw blocks per chunk for few active columns, so the fixed work
# per chunk is shared by more draws, and one block for a wide spec
_LINF_CHUNK_VALUES = 2**16


def _linf_screen(sampler):
    """(groups, screen) for the active columns: groups is the one-hot
    (active, G) matrix of the groups of equal (wf, wh), one per level on the
    built-in spectra, and screen[g] = (|wf_g| c_g, |wh_g| c_g) with
    c_g = max_x ||design[x, g]||_2.  By Cauchy-Schwarz in each group,
    sqrt((A * A) @ groups) @ screen bounds (max |f|, max |h|) of every draw
    row A of the active columns.  The screen is raised by the margin; as
    expm1 is convex through 0, that raises the deviation bound by at least
    the same ratio, and the exponent by enough where e^{r max|f|} is large."""
    # np.unique orders complex values by real, then imaginary part, so one
    # 1-D unique of wf + i wh groups equal (wf, wh) as a row unique would,
    # at a quarter of its cost
    pairs, group = np.unique(sampler.wf + 1j * sampler.wh, return_inverse=True)
    groups = (group.reshape(-1, 1) == np.arange(len(pairs))).astype(float)
    c = np.sqrt((sampler.design**2 @ groups).max(axis=0))
    weights = np.abs(np.stack([pairs.real, pairs.imag], axis=1))
    return groups, weights * c[:, None] * (1.0 + _SCREEN_MARGIN)


def _linf_chunk_rows(n_active: int) -> int:
    """Rows of one linf chunk: the most whole draw blocks whose draws of the
    n_active columns hold at most _LINF_CHUNK_VALUES values, and at least
    one block.  It reads only the spec, so a command's chunks are fixed."""
    blocks = _LINF_CHUNK_VALUES // (fields.DRAW_BLOCK * max(n_active, 1))
    return fields.DRAW_BLOCK * max(blocks, 1)


def _linf_radius(ctx, screen) -> float:
    """A row norm r_lo such that every draw row A with ||A||_2 <= r_lo has a
    per-level bound (_linf_count) <= u.

    By Cauchy-Schwarz over the groups, Mf <= sf ||A||_2 and
    Mh <= sh ||A||_2 (sf, sh = the 2-norms of the screen's columns), and
    the bound increases in both, so r_lo is the root in t of
    g(t) = rho expm1(rate sf t) + a sh t e^{rate sf t} = u, found by
    bisection and lowered by _RADIUS_SLACK.  As g(t) / t does not
    decrease, g(r_lo) <= (1 - slack) u, which covers the rounding of the
    row norms and of the bound."""
    sf, sh = np.linalg.norm(screen, axis=0).tolist()

    def g(t):
        growth = ctx.rate * sf * t
        try:
            return ctx.rho * math.expm1(growth) + ctx.a * sh * t * math.exp(growth)
        except OverflowError:
            return math.inf

    # g(lo) <= u and not g(hi) <= u: hi = inf ends the doubling, as g(inf)
    # is inf or nan; then halve until lo and hi are adjacent floats
    lo, hi = 0.0, 1.0
    while g(hi) <= ctx.u:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if g(mid) <= ctx.u else (lo, mid)
    return lo * (1.0 - _RADIUS_SLACK)


def _linf_count(ctx, sampler, groups, screen, A) -> tuple[int, int]:
    """(events, screen survivors) among the draws with rows A, for the
    sampler's groups and screen from _linf_screen.

    Since |f| <= Mf and |h| <= Mh on the grid
    (Mf, Mh = sqrt((A * A) @ groups) @ screen),
    |R0 expm1(-r f) - a h e^{-r f}| <= rho expm1(r Mf) + a Mh e^{r Mf}
    (rho = max |R0|); a draw whose bound is <= u cannot be an event.  The
    survivors' fields are evaluated from their own rows of A, one slice of
    the sampler's field pass at a time, and decided on the max |deviation|
    of each slice's exact deviation field, so however many draws survive,
    the pass holds one slice of F, H and the deviation.  A GEMM's row count
    can move a field's last bits, so the count is a full evaluation's
    except for a draw whose max |deviation| lies within rounding of u; the
    fixed chunks keep it reproducible.
    """
    M = np.sqrt((A * A) @ groups) @ screen
    growth = ctx.rate * M[:, 0]
    bound = ctx.rho * np.expm1(growth) + ctx.a * M[:, 1] * np.exp(growth)
    hit = np.flatnonzero(bound > ctx.u)
    events = 0
    for F, H in sampler._slices(A[hit]):
        dev = deviation_field(F, H, ctx.reference, ctx.a, ctx.dim)
        events += int((np.abs(dev).max(axis=1) > ctx.u).sum())
    return events, int(hit.size)


def _linf_chunk(ctx, j0: int, j1: int):
    """Per sampler (coarse, then refined if asked) the chunk's (events,
    screen survivors); both share the chunk's draws of the active columns,
    which are the same on both grids.  Rows of squared norm <= radius2
    cannot pass the per-level screen on either grid (_linf_radius) and are
    dropped first."""
    # looked up through the module, where profilers wrap the draw layer
    A = fields.gaussian_draw_block(ctx.seed, range(j0, j1), ctx.screened[0][0].active)
    A = A[np.einsum("ij,ij->i", A, A) > ctx.radius2]
    return [_linf_count(ctx, smp, groups, screen, A) for smp, groups, screen in ctx.screened]


def estimate_linf(
    spec: RandomFieldSpec,
    a: float,
    u: float,
    grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
    refine: bool = False,
) -> ExcursionReport:
    """Fraction of samples whose max |curvature deviation| over the grid
    exceeds u, using the exact deviation field of the spectrum's dimension."""
    n, seed = operator.index(n_samples), operator.index(seed)
    if not (a > 0 and u > 0):
        raise ValueError("a and u must be positive")
    if spec.reference_curvature is None:
        raise ValueError("deviation estimation needs the spec's reference curvature")
    # checked here: a draw the screen drops never reaches deviation_field
    rate = exponent_factor(spec.spectrum.dimension) * float(a)
    if n < 1:
        raise ValueError("need at least one sample")
    warning = None if linf_regime_ok(u, a) else "the log-asymptote needs u < 0.5 and u/a > 3"
    ctx = SimpleNamespace(
        screened=[(smp, *_linf_screen(smp)) for smp in _samplers(spec, grid, refine)],
        reference=spec.reference_curvature,
        rho=float(np.abs(np.asarray(spec.reference_curvature, dtype=float)).max()),
        rate=rate, dim=spec.spectrum.dimension, a=float(a), u=float(u), seed=seed,
    )
    # a product, not **: past ~1.3e154 it rounds to inf, and every draw drops
    radius = min(_linf_radius(ctx, screen) for _, _, screen in ctx.screened)
    ctx.radius2 = radius * radius
    chunk = _linf_chunk_rows(ctx.screened[0][0].active.size)
    results = map_chunks(_linf_chunk, ctx, n, chunk, workers)
    counts, passed = np.array(results, dtype=np.int64).sum(axis=0).T
    for label, k in zip(("grid", "refined grid"), passed):
        logger.info("linf screen (%s): %d of %d draws passed", label, k, n)
    return _reports(
        counts[:, None], n, [ctx.u], [ctx.a], ctx.screened[0][0].n_points, ctx.seed, refine,
        [warning],
    )[0]


# ---------------------------------------------------------------------------
# Euler characteristics of super-level sets


def _euler_counts(
    values: np.ndarray, thresholds: np.ndarray, faces: np.ndarray, vertex_faces: np.ndarray
) -> np.ndarray:
    """Euler characteristics chi[b, k] = #V - #E + #F of {values[b] >= thresholds[k]}
    for a block of vertex values (B, n_vertices) on a closed triangulation
    whose face rows are sorted, with its table of the faces around each
    vertex, padded with len(faces) (both from _closed_triangulation).

    Order the vertices by (value, index).  A cell lies in {h >= u} iff its
    lowest vertex value is >= u, so chi(u) = sum over vertices v with
    h(v) >= u of c(v) = 1 - #edges lowest at v + #faces lowest at v
    (Banchoff's critical-point form for PL functions).  The link of v is a
    disjoint union of cycles, as every edge lies in two faces; call a
    neighbour upper when it comes after v.  On each cycle, #upper vertices -
    #upper edges is the number of upper arcs: half the upper/lower switches,
    and 0 on an all-upper or all-lower cycle.  Neighbours p, q switch exactly
    when v is the middle vertex of the face (v, p, q), so
    c(v) = 1 - mid(v) / 2 with mid(v) the number of faces whose middle vertex
    is v.  With f0 < f1 < f2 the tests a_i <= a_j break ties by index.

    Only the vertices S with h(v) >= min(thresholds) reach a threshold, and a
    face whose middle vertex is v contains v, so mid(v) for v in S is counted
    on the faces around S alone: they are marked through the table (the pad
    marks a spare slot), and mid is read at S only.  When S holds half the
    vertices or more, marking costs more than it saves and every face is
    visited.  Only the few vertices of S with mid(v) != 2 (the PL critical
    points) meet the thresholds.
    Values and thresholds must be finite: a NaN would be mis-attributed.
    """
    B, n_vertices = values.shape
    n_faces = faces.shape[0]
    order = np.argsort(thresholds, kind="stable")
    ts = thresholds[order]
    f0, f1, f2 = np.ascontiguousarray(faces.T)
    rows, levels, weights = [], [], []
    for b, h in enumerate(values):
        in_S = h >= ts[0]
        if 2 * np.count_nonzero(in_S) >= n_vertices:
            g0, g1, g2 = f0, f1, f2
        else:
            marked = np.zeros(n_faces + 1, dtype=bool)
            # np.take gathers the rows several times faster than indexing
            marked[np.take(vertex_faces, np.flatnonzero(in_S), axis=0)] = True
            near = np.flatnonzero(marked[:n_faces])
            g0, g1, g2 = f0[near], f1[near], f2[near]
        a0, a1, a2 = h[g0], h[g1], h[g2]
        lt01 = a0 <= a1
        lt02 = a0 <= a2
        lt12 = a1 <= a2
        mid = np.where(lt01 != lt02, g0, np.where(lt01 == lt12, g1, g2))
        k = np.bincount(mid, minlength=n_vertices)
        crit = np.flatnonzero((k != 2) & in_S)
        rows.append(np.full(crit.size, b))
        levels.append(h[crit])
        weights.append(1 - k[crit] // 2)
    # a critical vertex at level h lies in S, so at least one threshold is
    # <= h, and it counts toward each: bin it by the number of sorted
    # thresholds <= h, less one, then sum the bins from the top
    above = np.searchsorted(ts, np.concatenate(levels), side="right") - 1
    bins = np.zeros((B, ts.size), dtype=np.int64)
    np.add.at(bins, (np.concatenate(rows), above), np.concatenate(weights))
    chi = np.empty((B, ts.size), dtype=np.int64)
    chi[:, order] = np.cumsum(bins[:, ::-1], axis=1)[:, ::-1]
    return chi


def empirical_euler(grid, values, u: float) -> int:
    """Euler characteristic of the super-level set {values >= u} on the grid's
    triangulation: the vertices, edges and faces whose every vertex value is
    >= u (a vertex exactly at u is included).  Non-finite values or a
    non-finite u are rejected."""
    faces, vertex_faces = _closed_triangulation(grid)
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != grid.n_points:
        raise ValueError("values must cover every grid vertex")
    if not (np.all(np.isfinite(vals)) and math.isfinite(u)):
        raise ValueError("vertex values and the threshold must be finite")
    chi = _euler_counts(vals[None, :], np.array([u], dtype=float), faces, vertex_faces)
    return int(chi[0, 0])


def _euler_chunk(ctx, j0: int, j1: int):
    """Per threshold, the chunk's sums of chi and chi^2, counted one slice
    of the sampler's field pass over the chunk's draws at a time (two
    slices of 128 rows for EULER_CHUNK draws on icosphere:5)."""
    # looked up through the module, where profilers wrap the draw layer
    A = fields.gaussian_draw_block(ctx.seed, range(j0, j1), ctx.sampler.active)
    chi = np.concatenate([
        _euler_counts(H, ctx.thresholds, ctx.faces, ctx.vertex_faces)
        for _, H in ctx.sampler._slices(A, ("h",))
    ])
    return chi.sum(axis=0), (chi * chi).sum(axis=0)


def euler_curve(
    spec: RandomFieldSpec,
    thresholds,
    n_samples: int,
    seed: int,
    grid=None,
    workers: int = 1,
) -> EulerCurve:
    """Empirical mean Euler characteristic of {h >= u} per threshold (a vertex
    exactly at u is included), with the closed-form prediction
    2 Psi(u) + L2 rho2(u) alongside.  Thresholds must be finite; their order
    and repeats are kept."""
    n, seed = operator.index(n_samples), operator.index(seed)
    if grid is None:
        grid = icosphere(5)
    ts = np.asarray(thresholds, dtype=float)
    if ts.size == 0 or n < 1:
        raise ValueError("need thresholds and at least one sample")
    if not np.all(np.isfinite(ts)):
        raise ValueError("thresholds must be finite")
    # the prediction rejects a scheme it does not cover: before any draw
    L2 = SPHERE2_VOLUME * at_metric_constant(spec.coefficients)
    predicted = np.array([predicted_euler(spec.coefficients, u) for u in ts])
    faces, vertex_faces = _closed_triangulation(grid)
    ctx = SimpleNamespace(
        sampler=make_sampler(spec, grid), faces=faces, vertex_faces=vertex_faces,
        thresholds=ts, seed=seed,
    )
    results = map_chunks(_euler_chunk, ctx, n, EULER_CHUNK, workers)
    chi_sum = sum(c for c, _ in results)
    chi2_sum = sum(c2 for _, c2 in results)
    mean = chi_sum / n
    var = (chi2_sum - n * mean * mean) / (n - 1) if n > 1 else np.zeros(ts.size)
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return EulerCurve(
        thresholds=ts,
        empirical_mean=mean,
        empirical_se=se,
        predicted=predicted,
        lipschitz_killing=(2.0, 0.0, L2),
        n_samples=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# closed-form predictions and appendix validity checks (sphere schemes)


def _sphere_level_data(scheme: CoefficientScheme) -> tuple[np.ndarray, np.ndarray]:
    """(level h-variance weights, eigenvalues m(m+1)) of a sphere scheme."""
    eig, mult = sphere_level(np.arange(1, scheme.truncation + 1))
    if scheme.indexing is Indexing.PER_EIGENSPACE:
        return scheme.values.copy(), eig
    return mult * (scheme.values * eig) ** 2 / SPHERE2_VOLUME, eig


def at_metric_constant(scheme: CoefficientScheme) -> float:
    """The constant C with the parameter-space metric of h equal to C times
    the round metric: half the eigenvalue-weighted sum of the level variance
    weights, also the negated second distance-derivative of the h covariance
    at the diagonal."""
    c, eig = _sphere_level_data(scheme)
    return float(np.sum(c * eig) / 2.0)


def predicted_euler(scheme: CoefficientScheme, u: float) -> float:
    """Expected Euler characteristic of {h >= u} for a unit-variance sphere
    scheme: 2 Psi(u) + L2 (2 pi)^{-3/2} u e^{-u^2/2}."""
    if scheme.indexing is not Indexing.PER_EIGENSPACE:
        raise ValueError("the prediction needs the per-eigenspace (variance weight) convention")
    _require_unit_variance(scheme.values)
    L2 = SPHERE2_VOLUME * at_metric_constant(scheme)
    rho2 = (2.0 * math.pi) ** -1.5 * u * math.exp(-u * u / 2.0)
    return 2.0 * gaussian_tail(u) + L2 * rho2


@dataclass(frozen=True)
class P2Prediction:
    value: float
    c1: float
    c2: float
    warnings: tuple[str, ...]


def sphere_p2_prediction(scheme: CoefficientScheme, a: float) -> P2Prediction:
    """Asymptotic sign-change probability on the round sphere:
    C1 Psi(1/a) + (C2/a) e^{-1/(2 a^2)} with C1 = 2 and C2 the normalized
    eigenvalue-weighted coefficient sum.  Hypothesis violations are attached
    as warnings, not raised: the number is still evaluable."""
    if not a > 0:
        raise ValueError("amplitude must be positive")
    c, eig = _sphere_level_data(scheme)
    warnings = []
    if scheme.s is not None and scheme.s <= 7.0:
        warnings.append("decay exponent s <= 7: smoothness hypothesis of the asymptotic fails")
    total = float(np.sum(c))
    if abs(total - 1.0) > 1e-6:
        warnings.append(f"scheme is not unit-variance (weights sum to {total:.8f})")
    if not degeneracy_check(scheme):
        warnings.append("no odd-degree weight is positive: antipodally degenerate covariance")
    c2 = float(np.sum(c * eig)) / math.sqrt(2.0 * math.pi)
    value = 2.0 * gaussian_tail(1.0 / a) + (c2 / a) * math.exp(-1.0 / (2.0 * a * a))
    return P2Prediction(value=value, c1=2.0, c2=c2, warnings=tuple(warnings))


def attainability_matrix(
    scheme: CoefficientScheme, truncation: int | None = None
) -> tuple[np.ndarray, bool]:
    """Second-order covariance matrix of the scheme's h field: the weighted
    sum of the per-level 5x5 blocks blockdiag((E/2) I2, Omega) with
    Omega = (E/8) [[3E-2, E+2, 0], [E+2, 3E-2, 0], [0, 0, E-2]].  Returns the
    matrix and whether it is positive definite (eigenvalue check)."""
    c, eig = _sphere_level_data(scheme)
    M = c.size if truncation is None else int(truncation)
    if not 1 <= M <= c.size:
        raise ValueError("truncation must select at least one listed level")
    C = np.zeros((5, 5))
    for i in range(M):
        E = eig[i]
        C[0, 0] += c[i] * E / 2.0
        C[1, 1] += c[i] * E / 2.0
        om = (E / 8.0) * np.array(
            [[3.0 * E - 2.0, E + 2.0, 0.0], [E + 2.0, 3.0 * E - 2.0, 0.0], [0.0, 0.0, E - 2.0]]
        )
        C[2:, 2:] += c[i] * om
    eigs = np.linalg.eigvalsh(C)
    return C, bool(eigs[0] > 1e-12 * np.trace(C))


def degeneracy_check(scheme: CoefficientScheme) -> bool:
    """True iff some odd-degree level has a strictly positive coefficient,
    the condition ruling out covariance degeneracies such as the antipodal
    identification of even-only schemes."""
    return bool(np.any(np.asarray(scheme.values)[0::2] > 0.0))
