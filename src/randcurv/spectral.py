"""Reference spectra and Gaussian coefficient schemes.

A SpectrumModel lists the positive Laplacian levels of a reference geometry
(round 2-sphere, square flat 2-torus on [0, 2pi]^2, the fourth-order
conformally covariant operator on the round 4-sphere) or carries user-supplied
eigendata on a finite point set.  A CoefficientScheme attaches Gaussian scales
to that spectrum, either one scale per eigenfunction (c_j = F(lambda_j)) or
one variance weight per eigenspace (the unit-variance sphere convention where
the weights of the Laplacian image field sum to one).

Truncation is explicit: every scheme records the estimated mass fraction of
the dropped tail of the level-variance series (exact on a user-supplied
model, which lists every level), and constructors refuse configurations
whose tail exceeds the tolerance instead of truncating silently.  A
truncation, like a spectrum's level count, must be an integer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Geometry",
    "Indexing",
    "SpectrumModel",
    "CoefficientScheme",
    "SPHERE2_VOLUME",
    "TORUS2_VOLUME",
    "SPHERE4_VOLUME",
    "sphere_level",
    "paneitz_level_s4",
    "sphere2_spectrum",
    "torus2_spectrum",
    "s4_paneitz_spectrum",
    "make_power_law",
    "make_sphere_normalized",
    "make_heat_kernel",
    "make_explicit",
    "classify_regularity",
    "load_spectrum_file",
    "write_spectrum_file",
]

SPHERE2_VOLUME = 4.0 * math.pi
TORUS2_VOLUME = 4.0 * math.pi**2
SPHERE4_VOLUME = 8.0 * math.pi**2 / 3.0

DEFAULT_TAIL_TOL = 1e-8

# level records for the eigenvalue-equality grouping of user files
_LEVEL_MATCH_RTOL = 1e-9


class Geometry(str, Enum):
    SPHERE2 = "sphere2"
    FLAT_TORUS2 = "flat_torus2"
    ROUND_SPHERE4_PANEITZ = "round_sphere4_paneitz"
    USER_SUPPLIED = "user_supplied"


class Indexing(str, Enum):
    PER_EIGENFUNCTION = "per_eigenfunction"
    PER_EIGENSPACE = "per_eigenspace"


# the indexing of each named scheme (an explicit one's comes with its values)
_SCHEME_INDEXING = {
    "normalized": Indexing.PER_EIGENSPACE, "power": Indexing.PER_EIGENFUNCTION,
    "heat": Indexing.PER_EIGENFUNCTION,
}


def sphere_level(m):
    """Eigenvalue m(m+1) and multiplicity 2m+1 of the degree-m spherical
    harmonics on S^2, of an int m or elementwise of an integer array.

    Degree 0 (the constants) is excluded throughout the package.
    """
    if (m.min() if isinstance(m, np.ndarray) else m) < 1:
        raise ValueError("level index must be >= 1 (constants are excluded)")
    return m * (m + 1), 2 * m + 1


def paneitz_level_s4(m):
    """Eigenvalue and multiplicity at harmonic degree m of the fourth-order
    conformally covariant operator on the round S^4, of an int m or
    elementwise of an integer array.

    On degree-m harmonics the operator acts as L(L + 2) where L = m(m + 3) is
    the Laplacian eigenvalue, and L(L + 2) factors as m(m+1)(m+2)(m+3).  The
    multiplicity is the dimension of the degree-m harmonics on S^4.  An
    array whose largest eigenvalue would wrap its integer type is refused
    (int64 holds m <= 55107).
    """
    is_array = isinstance(m, np.ndarray)
    if (m.min() if is_array else m) < 1:
        raise ValueError("level index must be >= 1 (constants are excluded)")
    if is_array:
        top = int(m.max())
        if top * (top + 1) * (top + 2) * (top + 3) > np.iinfo(m.dtype).max:
            raise ValueError(f"level {top} overflows the eigenvalue's {m.dtype} type")
    eig = m * (m + 1) * (m + 2) * (m + 3)
    mult = (m + 1) * (m + 2) * (2 * m + 3) // 6
    return eig, mult


@dataclass(frozen=True)
class SpectrumModel:
    """Positive spectrum of a reference operator, listed level by level.

    eigenvalues[i] is the i-th distinct positive eigenvalue (increasing) and
    multiplicities[i] its eigenspace dimension.  negative_levels holds
    (mu, multiplicity) pairs for operators with negative spectrum; mu > 0 is
    the absolute value of the eigenvalue.

    phi_sq_level(i) is the density sum_k phi_{i,k}^2 of level i: the
    constant N_i / volume on the isotropic geometries, and the value at each
    stored point of a user-supplied model, which carries its gridded values.
    """

    geometry: Geometry
    dimension: int
    volume: float
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    negative_levels: tuple[tuple[float, int], ...] = ()
    # torus only: half-lattice representatives per level, each (n_pairs, 2)
    torus_modes: tuple[np.ndarray, ...] | None = None
    # user-supplied only
    points: np.ndarray | None = None
    eigenfunctions: np.ndarray | None = None        # (n_pos_fn, n_points), level-ordered
    neg_eigenfunctions: np.ndarray | None = None    # (n_neg_fn, n_points)

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "multiplicities", mult)
        if eig.size == 0:
            raise ValueError("spectrum must contain at least one positive level")
        if eig[0] <= 0.0:
            raise ValueError("first listed eigenvalue must be strictly positive")
        if np.any(np.diff(eig) <= 0.0):
            raise ValueError("eigenvalues must be strictly increasing per level")
        if np.any(mult < 1):
            raise ValueError("multiplicities must be positive")
        for mu, nmu in self.negative_levels:
            if mu <= 0 or nmu < 1:
                raise ValueError("negative levels must be (mu > 0, multiplicity >= 1)")

    @property
    def n_levels(self) -> int:
        return int(self.eigenvalues.size)

    def phi_sq_level(self, i: int) -> float | np.ndarray:
        """sum_k phi_{i,k}^2 over level i, per stored point on a user model."""
        if self.geometry is Geometry.USER_SUPPLIED:
            k = int(self.multiplicities[:i].sum())
            return np.sum(self.eigenfunctions[k : k + self.multiplicities[i]] ** 2, axis=0)
        return float(self.multiplicities[i]) / self.volume


def _truncation(truncation, n_levels: float = math.inf) -> int:
    """The truncation (or level count) as an int in [1, n_levels]; a
    fractional one raises TypeError instead of giving another truncation."""
    M = operator.index(truncation)
    if not 1 <= M <= n_levels:
        raise ValueError(f"need 1 <= truncation <= {n_levels}, got {M}")
    return M


def _level_spectrum(geometry: Geometry, dimension: int, volume: float, law, max_level: int) -> SpectrumModel:
    """The spectrum whose levels 1..max_level have the eigenvalues and
    multiplicities law(m) of an integer array m."""
    eig, mult = law(np.arange(1, _truncation(max_level) + 1))
    return SpectrumModel(geometry, dimension, volume, eigenvalues=eig, multiplicities=mult)


def sphere2_spectrum(max_level: int) -> SpectrumModel:
    """Laplacian spectrum of the unit round 2-sphere up to harmonic degree max_level."""
    return _level_spectrum(Geometry.SPHERE2, 2, SPHERE2_VOLUME, sphere_level, max_level)


# the most lattice points _lattice_blocks lays out at once (2 MiB per table)
_LATTICE_BLOCK = 2**18
# the most lattice points, about pi r^2, of a disc the torus heat tail sums
_HEAT_TAIL_POINTS = 2**24


def _lattice_blocks(lo: float, hi: float):
    """The integer vectors k of Z^2 with lo < |k|^2 <= hi in row-major order
    (k1, then k2, increasing), in blocks of whole rows k1 of at most
    _LATTICE_BLOCK lattice points: yields each block's (n, 2) vectors and
    their |k|^2."""
    r = math.isqrt(int(hi))
    k = np.arange(-r, r + 1)
    rows = max(1, _LATTICE_BLOCK // k.size)
    for start in range(0, k.size, rows):
        k1 = k[start:start + rows]
        norms = k1[:, None] ** 2 + k**2
        i, j = np.nonzero((norms > lo) & (norms <= hi))
        yield np.stack([k1[i], k[j]], axis=1), norms[i, j]


def _lattice_shell(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """All of _lattice_blocks(lo, hi) at once: the (n, 2) vectors and their |k|^2."""
    k, norms = zip(*_lattice_blocks(lo, hi))
    return np.concatenate(k), np.concatenate(norms)


def _torus_levels(max_level: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    # enumerate nonzero lattice points until max_level distinct squared norms exist
    bound = max(4, 3 * max_level)
    while True:
        k, norms = _lattice_shell(0, bound)
        distinct = np.unique(norms)
        if distinct.size >= max_level:
            break
        bound *= 2
    distinct = distinct[:max_level]
    # one representative per {k, -k}, each level's in row-major (sorted) order
    half = (k[:, 0] > 0) | ((k[:, 0] == 0) & (k[:, 1] > 0))
    modes = [k[half & (norms == e)] for e in distinct]
    mults = np.array([2 * len(reps) for reps in modes])
    return distinct.astype(float), mults, modes


def torus2_spectrum(max_level: int) -> SpectrumModel:
    """Laplacian spectrum of the square flat torus [0, 2pi]^2.

    Levels are the distinct squared norms |k|^2 of nonzero integer lattice
    vectors; each level stores one representative per {k, -k} pair (cos and
    sin modes), so the multiplicity is twice the representative count.
    """
    eigs, mults, modes = _torus_levels(_truncation(max_level))
    return SpectrumModel(
        geometry=Geometry.FLAT_TORUS2,
        dimension=2,
        volume=TORUS2_VOLUME,
        eigenvalues=eigs,
        multiplicities=mults,
        torus_modes=tuple(modes),
    )


def s4_paneitz_spectrum(max_level: int) -> SpectrumModel:
    """Spectrum of the fourth-order conformally covariant operator on round S^4."""
    return _level_spectrum(Geometry.ROUND_SPHERE4_PANEITZ, 4, SPHERE4_VOLUME, paneitz_level_s4, max_level)


# ---------------------------------------------------------------------------
# coefficient schemes


@dataclass(frozen=True)
class CoefficientScheme:
    """Gaussian scales attached to a spectrum's first M levels, where the
    truncation M is the length of values.

    values[i] is the scale for level i+1.  With per-eigenfunction indexing it
    is the standard deviation of each eigenfunction coefficient of the
    conformal factor field; with per-eigenspace indexing it is the variance
    weight of the level in the Laplacian image field (the weights of a
    normalized scheme sum to 1).  neg_values are the per-eigenfunction scales
    t_i of negative-spectrum levels (explicit only; no generating rule).
    Every scale must be finite and nonnegative: a NaN or inf scale would
    turn every estimate it reaches into 0 without an error.
    """

    rule: str               # power_law | heat_kernel | sphere_normalized_power_law | explicit
    indexing: Indexing
    values: np.ndarray
    tail_fraction: float
    s: float | None = None
    T: float | None = None
    normalization: float | None = None   # K for the normalized scheme
    truncated_sum: float | None = None   # sum of values for the normalized scheme
    neg_values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "neg_values", np.asarray(self.neg_values, dtype=float))
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.neg_values))):
            raise ValueError("coefficient scales must be finite")
        if np.any(self.values < 0.0) or np.any(self.neg_values < 0.0):
            raise ValueError("coefficient scales must be nonnegative")

    @property
    def truncation(self) -> int:
        return int(self.values.size)


def _check_tail(tail_fraction: float, tail_tol: float | None, what: str) -> None:
    if tail_tol is not None and not (tail_fraction <= tail_tol):
        raise ValueError(
            f"truncated {what} drops a tail fraction {tail_fraction:.3e} of the "
            f"level-variance series, above the tolerance {tail_tol:.1e}; raise the "
            "truncation or pass tail_tol=None to accept the recorded estimate"
        )


def _power_tail_sphere2(s: float, M: int) -> float:
    """Tail of sum_m (2m+1) [m(m+1)]^(2-2s) beyond level M (per-eigenfunction mass)."""
    if s <= 1.5:
        return math.inf
    # exact partial window, then the closed-form integral of the same summand
    eig, mult = sphere_level(np.arange(M + 1, M + 2001))
    head = float(np.sum(mult * eig ** (2.0 - 2.0 * s)))
    rest = sphere_level(M + 2000)[0] ** (3.0 - 2.0 * s) / (2.0 * s - 3.0)
    return head + rest


# B_2, B_4, ..., B_16 over (2k)!: the Euler-Maclaurin corrections of _zeta
_EM_COEFFICIENTS = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1)
)


def _zeta(s: float) -> float:
    """Riemann zeta for s > 1: the terms below N = 10, then the Euler-Maclaurin
    tail N^(1-s)/(s-1) + N^-s/2 + sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k).
    The first omitted correction is below 3e-17 of the value for every s > 1,
    so the result is within a few ulp of scipy.special.zeta."""
    N = 10
    head = math.fsum(n**-s for n in range(1, N))
    tail = [N ** (1.0 - s) / (s - 1.0), 0.5 * N**-s]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, c in enumerate(_EM_COEFFICIENTS, 1):
        tail.append(c * rising * N ** (1.0 - s - 2 * k))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return head + math.fsum(tail)


def _heat_tail_sphere2(T: float, M: int) -> float:
    """A bound on the tail of sum (2m+1) e^{-m(m+1) T} beyond level M.  The
    summand f(x) = (2x+1) e^{-x(x+1) T} rises up to x* = (sqrt(2/T) - 1)/2
    and falls after it, so the sum over m >= M+1 is at most the integral of f
    over x >= M+1, e^{-(M+1)(M+2) T} / T, plus f at max(M+1, x*)."""
    x = max(M + 1.0, (math.sqrt(2.0 / T) - 1.0) / 2.0)
    return math.exp(-sphere_level(M + 1)[0] * T) / T + (2.0 * x + 1.0) * math.exp(-x * (x + 1.0) * T)


def _power_tail_torus(s: float, e_max: float) -> float:
    """Tail of sum over lattice k of |k|^(4-4s) for |k|^2 > e_max."""
    if s <= 1.5:
        return math.inf
    r2max = 9.0 * e_max
    n2 = _lattice_shell(e_max, r2max)[1].astype(float)
    head = float(np.sum(n2 ** (2.0 - 2.0 * s)))
    rest = 2.0 * math.pi * r2max ** (3.0 - 2.0 * s) / (4.0 * s - 6.0)
    return head + rest


def _heat_tail_torus(T: float, e_max: float) -> float:
    """Tail of sum over lattice k of e^{-|k|^2 T} for |k|^2 > e_max: the disc
    |k|^2 <= e_max + max(40/T, 4 e_max) summed block by block (its size grows
    as 1/T), then the integral beyond it.  A disc of over _HEAT_TAIL_POINTS
    points (T below about 7.5e-6 at small e_max) is refused before any
    block is laid out."""
    r2max = e_max + max(40.0 / T, 4.0 * e_max)
    if math.pi * r2max > _HEAT_TAIL_POINTS:
        raise ValueError(
            f"the torus heat tail at heat time T = {T!r} sums a lattice disc of about "
            f"{math.pi * r2max:.3g} points, over the bound of {_HEAT_TAIL_POINTS} "
            "(2^24); raise the heat time"
        )
    head = sum(float(np.sum(np.exp(-n2.astype(float) * T))) for _, n2 in _lattice_blocks(e_max, r2max))
    rest = math.pi * math.exp(-r2max * T) / T
    return head + rest


def _power_tail_s4(s: float, M: int) -> float:
    """Tail of sum_m N_m lambda_m^(2-2s) beyond level M: the 4000 levels past
    M summed exactly, then a geometric remainder from the decay of the last
    two terms."""
    if s <= 1.5:
        return math.inf
    eig, mult = paneitz_level_s4(np.arange(M + 1, M + 4002))
    terms = mult * eig.astype(float) ** (2.0 - 2.0 * s)
    # summed in level order: np.sum's pairwise order would move the last bits
    total = float(np.cumsum(terms[:-1])[-1])
    prev, t2 = float(terms[-2]), float(terms[-1])
    ratio = t2 / prev if prev > 0 else 0.0
    if ratio >= 1.0:
        return math.inf
    return total + t2 / (1.0 - ratio)


def _tail_fraction_power(s: float, spectrum: SpectrumModel, M: int) -> float:
    terms = spectrum.multiplicities.astype(float) * spectrum.eigenvalues ** (2.0 - 2.0 * s)
    head = float(np.sum(terms[:M]))
    if spectrum.geometry is Geometry.SPHERE2:
        tail = _power_tail_sphere2(s, M)
    elif spectrum.geometry is Geometry.FLAT_TORUS2:
        tail = _power_tail_torus(s, float(spectrum.eigenvalues[M - 1]))
    elif spectrum.geometry is Geometry.ROUND_SPHERE4_PANEITZ:
        tail = _power_tail_s4(s, M)
    else:
        # a user model lists every level: its tail is the listed levels past M
        tail = float(np.sum(terms[M:]))
    if math.isinf(tail):
        return 1.0
    return tail / (head + tail)


def make_power_law(
    s: float,
    spectrum: SpectrumModel,
    truncation: int,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> CoefficientScheme:
    """Per-eigenfunction scales c_j = lambda_j^(-s), truncated at level M."""
    if s <= 0:
        raise ValueError("power-law exponent must be positive")
    M = _truncation(truncation, spectrum.n_levels)
    values = spectrum.eigenvalues[:M] ** (-s)
    tail = _tail_fraction_power(s, spectrum, M)
    _check_tail(tail, tail_tol, "power-law scheme")
    return CoefficientScheme(
        rule="power_law",
        indexing=_SCHEME_INDEXING["power"],
        values=values,
        tail_fraction=tail,
        s=s,
    )


def make_sphere_normalized(
    s: float,
    truncation: int,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> CoefficientScheme:
    """Per-eigenspace weights c_m = K / m^s on the 2-sphere with K = 1/zeta(s),
    so the untruncated weights sum to one and the Laplacian image field has
    unit variance."""
    if s <= 1:
        raise ValueError("normalized scheme needs s > 1 for a convergent series")
    M = _truncation(truncation)
    K = 1.0 / _zeta(s)
    m = np.arange(1, M + 1, dtype=float)
    values = K * m ** (-s)
    # fraction of the unit total: sum_{m > M} m^-s is below the integral M^(1-s) / (s-1)
    tail = K * (M ** (1.0 - s) / (s - 1.0))
    _check_tail(tail, tail_tol, "normalized sphere scheme")
    return CoefficientScheme(
        rule="sphere_normalized_power_law",
        indexing=_SCHEME_INDEXING["normalized"],
        values=values,
        tail_fraction=tail,
        s=s,
        normalization=K,
        truncated_sum=float(np.sum(values)),
    )


def make_heat_kernel(
    T: float,
    spectrum: SpectrumModel,
    truncation: int,
    tail_tol: float | None = DEFAULT_TAIL_TOL,
) -> CoefficientScheme:
    """Per-eigenfunction scales c_j = e^{-lambda_j T/2} / lambda_j.

    The diagonal variance of the Laplacian image field is then the heat trace
    density without its constant term, sum_j e^{-lambda_j T} phi_j(x)^2.
    """
    if T <= 0:
        raise ValueError("diffusion time must be positive")
    M = _truncation(truncation, spectrum.n_levels)
    eig = spectrum.eigenvalues[:M]
    values = np.exp(-eig * (T / 2.0)) / eig
    terms = spectrum.multiplicities.astype(float) * np.exp(-spectrum.eigenvalues * T)
    head = float(np.sum(terms[:M]))
    if spectrum.geometry is Geometry.SPHERE2:
        tail = _heat_tail_sphere2(T, M)
    elif spectrum.geometry is Geometry.FLAT_TORUS2:
        tail = _heat_tail_torus(T, float(eig[-1]))
    elif spectrum.geometry is Geometry.ROUND_SPHERE4_PANEITZ:
        # the first omitted level, then the rest under an integral: since
        # N_m = (lambda_m - lambda_{m-1}) (2m+3) / (24 m), with (2m+3) / (24 m)
        # decreasing, sum_{m > M+1} N_m e^{-lambda_m T} is at most
        # (2M+7) / (24 (M+2)) times the integral of e^{-yT} over y > lambda_{M+1}
        lam_next, n_next = paneitz_level_s4(M + 1)
        tail = math.exp(-lam_next * T) * (n_next + (2 * M + 7) / (24 * (M + 2) * T))
    else:
        # a user model lists every level: its tail is the listed levels past M
        tail = float(np.sum(terms[M:]))
    frac = tail / (head + tail)
    _check_tail(frac, tail_tol, "heat-kernel scheme")
    return CoefficientScheme(
        rule="heat_kernel",
        indexing=_SCHEME_INDEXING["heat"],
        values=values,
        tail_fraction=frac,
        T=T,
    )


def make_explicit(
    values,
    indexing: Indexing = Indexing.PER_EIGENSPACE,
    neg_values=(),
) -> CoefficientScheme:
    """Explicitly listed scales; the truncation is the listed length and the
    tail is zero by construction (nothing beyond the list is intended)."""
    vals = np.asarray(values, dtype=float)
    return CoefficientScheme(
        rule="explicit",
        indexing=indexing,
        values=vals,
        tail_fraction=0.0,
        neg_values=np.asarray(neg_values, dtype=float),
    )


def _require_unit_variance(values) -> None:
    """Raise unless the per-eigenspace variance weights sum to 1 within 1e-6,
    as excursion.predicted_euler needs; config._validate checks explicit
    values with it before a run builds anything."""
    total = float(np.sum(values))
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"the prediction needs a unit-variance scheme (weights sum to {total:.8f})")


# ---------------------------------------------------------------------------
# regularity classification


def classify_regularity(
    scheme: CoefficientScheme,
    spectrum: SpectrumModel,
    k: int,
    which: str = "f",
) -> bool | None:
    """Sufficient almost-sure C^k regularity of the idealized (untruncated)
    field implied by the scheme's decay rate.

    which selects the classified field: "f" is the conformal factor field,
    "h" its image under the reference operator.  Returns None for explicit
    schemes (no asymptotic rule, indeterminate).  Heat-kernel schemes always
    classify as regular (samples are real-analytic).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if which not in ("f", "h"):
        raise ValueError('which must be "f" or "h"')
    if scheme.rule == "explicit":
        return None
    if scheme.rule == "heat_kernel":
        return True
    s = scheme.s
    if scheme.rule == "sphere_normalized_power_law":
        # weight decay m^-s; the factor field gains two orders from the
        # inverse eigenvalues, the image field does not
        if which == "h":
            return s > 2 * k + 3
        return s > 2 * k - 1
    # power law c_j = lambda_j^-s
    if spectrum.geometry is Geometry.ROUND_SPHERE4_PANEITZ:
        # eigenfunction count grows linearly in the eigenvalue, so the decay
        # exponent in the eigenfunction index equals s; order-4 operator
        order = 4
        t = s if which == "f" else s - 1.0
        return t > 1.0 + k / order
    n = spectrum.dimension
    s_eff = s if which == "f" else s - 1.0
    return s_eff > (n + k) / 2.0


# ---------------------------------------------------------------------------
# user-supplied spectrum files
#
# Layout (documented in the README): '#' starts a comment; header lines
#   dimension <int>
#   volume <float>
#   points <int>
# optionally followed by exactly <points> lines "point <coord> ...", then one
# record per eigenfunction:
#   ef <lambda> <v_1> ... <v_points>
# A negative lambda marks a negative-spectrum level with mu = |lambda|.
# Consecutive records whose lambdas agree to relative tolerance 1e-9 form one
# level (multiplicity = record count).


def load_spectrum_file(path) -> SpectrumModel:
    path = Path(path)
    dimension = None
    volume = None
    n_points = None
    points: list[list[float]] = []
    lams: list[float] = []
    rows: list[np.ndarray] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "dimension":
            dimension = int(parts[1])
        elif key == "volume":
            volume = float(parts[1])
        elif key == "points":
            n_points = int(parts[1])
        elif key == "point":
            points.append([float(x) for x in parts[1:]])
        elif key == "ef":
            if n_points is None:
                raise ValueError(f"{path}: 'points' header must precede eigenfunction records")
            vals = np.array([float(x) for x in parts[2:]], dtype=float)
            if vals.size != n_points:
                raise ValueError(
                    f"{path}: eigenfunction record has {vals.size} values, expected {n_points}"
                )
            lams.append(float(parts[1]))
            rows.append(vals)
        else:
            raise ValueError(f"{path}: unrecognized record {key!r}")
    if dimension is None or volume is None or n_points is None:
        raise ValueError(f"{path}: header must set dimension, volume and points")
    if points and len(points) != n_points:
        raise ValueError(f"{path}: expected {n_points} point lines, found {len(points)}")
    if not rows:
        raise ValueError(f"{path}: no eigenfunction records")
    lam_arr = np.array(lams)
    if np.any(lam_arr == 0.0):
        raise ValueError(f"{path}: zero eigenvalues are not allowed (constants excluded)")

    def group(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vals = np.abs(lam_arr[idx])
        order = idx[np.argsort(vals, kind="stable")]
        sv = np.abs(lam_arr[order])
        levels, mults = [], []
        i = 0
        while i < sv.size:
            j = i + 1
            while j < sv.size and abs(sv[j] - sv[i]) <= _LEVEL_MATCH_RTOL * max(sv[i], 1.0):
                j += 1
            levels.append(float(np.mean(sv[i:j])))
            mults.append(j - i)
            i = j
        return np.array(levels), np.array(mults, dtype=int), order

    pos_idx = np.nonzero(lam_arr > 0)[0]
    neg_idx = np.nonzero(lam_arr < 0)[0]
    if pos_idx.size == 0:
        raise ValueError(f"{path}: need at least one positive-spectrum record")
    pos_levels, pos_mults, pos_order = group(pos_idx)
    fn_matrix = np.stack([rows[i] for i in pos_order])
    neg_pairs: tuple[tuple[float, int], ...] = ()
    neg_matrix = None
    if neg_idx.size:
        neg_levels, neg_mults, neg_order = group(neg_idx)
        neg_pairs = tuple((float(mu), int(nm)) for mu, nm in zip(neg_levels, neg_mults))
        neg_matrix = np.stack([rows[i] for i in neg_order])
    return SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=dimension,
        volume=volume,
        eigenvalues=pos_levels,
        multiplicities=pos_mults,
        negative_levels=neg_pairs,
        points=np.array(points) if points else None,
        eigenfunctions=fn_matrix,
        neg_eigenfunctions=neg_matrix,
    )


def write_spectrum_file(path, model: SpectrumModel) -> None:
    """Inverse of load_spectrum_file for user-supplied models."""
    if model.geometry is not Geometry.USER_SUPPLIED:
        raise ValueError("only user-supplied models serialize to spectrum files")
    lines = [
        f"dimension {model.dimension}",
        f"volume {model.volume!r}",
        f"points {model.eigenfunctions.shape[1]}",
    ]
    if model.points is not None:
        for p in model.points:
            lines.append("point " + " ".join(repr(float(x)) for x in p))
    # one record per eigenfunction row: the positive levels' rows, then the
    # negative levels' at -mu
    neg = model.negative_levels
    lams = [*model.eigenvalues, *(-mu for mu, _ in neg)]
    counts = [*model.multiplicities, *(n for _, n in neg)]
    rows = [*model.eigenfunctions, *(model.neg_eigenfunctions if neg else ())]
    for lam, row in zip(np.repeat(lams, counts), rows):
        lines.append(f"ef {float(lam)!r} " + " ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
