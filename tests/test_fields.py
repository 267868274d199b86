import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_harmonic_columns, slow_sphere_field

from randcurv import fields as fl
from randcurv import grids
from randcurv import spectral as sp
from randcurv.fields import FieldKind, RandomFieldSpec
from randcurv.grids import fibonacci_sphere, sphere_distance, torus_grid
from randcurv.harmonics import SphereHarmonicBasis
from randcurv.spectral import Geometry, Indexing


@pytest.fixture(scope="module")
def sphere12():
    return sp.sphere2_spectrum(12)


@pytest.fixture(scope="module")
def norm8(sphere12):
    return sp.make_sphere_normalized(8.0, 12)


@pytest.fixture(scope="module")
def h_spec(sphere12, norm8):
    return RandomFieldSpec(sphere12, norm8, FieldKind.H)


def test_spec_validation(sphere12, norm8):
    with pytest.raises(ValueError):
        RandomFieldSpec(sphere12, norm8, FieldKind.W)              # missing reference
    with pytest.raises(ValueError):
        RandomFieldSpec(sphere12, norm8, FieldKind.V, reference_curvature=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RandomFieldSpec(sp.sphere2_spectrum(5), norm8, FieldKind.H)   # truncation 12 > 5 levels


@pytest.mark.parametrize("dimension", [1, 3, 5])
def test_spec_refuses_w_without_a_curvature_law(dimension):
    # w = h + k R0 f has no k in odd n, so W is refused when the spec is built;
    # the other fields of the same model still build
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED, dimension=dimension, volume=1.0,
        eigenvalues=np.array([1.0]), multiplicities=np.array([1]),
        points=np.array([[0.0], [1.0]]), eigenfunctions=np.array([[1.0, 0.5]]),
    )
    sch = sp.make_explicit([0.5])
    with pytest.raises(ValueError, match=f"dimension {dimension}"):
        RandomFieldSpec(model, sch, FieldKind.W, reference_curvature=1.0)
    for which in (FieldKind.F, FieldKind.H, FieldKind.V):
        RandomFieldSpec(model, sch, which, reference_curvature=1.0)


@pytest.mark.parametrize("which", [FieldKind.H, FieldKind.V, FieldKind.W])
def test_spec_rejects_non_finite_reference_curvature(which):
    # a NaN reference makes every comparison false, so estimate_linf would read 0
    model = sp.torus2_spectrum(3)
    sch = sp.make_explicit([0.0, 0.0, 0.5])
    gridded = np.ones(64)
    gridded[5] = np.nan
    for r in (math.nan, math.inf, -math.inf, gridded):
        with pytest.raises(ValueError, match="reference_curvature"):
            RandomFieldSpec(model, sch, which, reference_curvature=r)
    RandomFieldSpec(model, sch, which, reference_curvature=np.ones(64))


def test_constant_reference_of_a_gridded_reference():
    model, sch = sp.torus2_spectrum(3), sp.make_explicit([0.0, 0.0, 0.5])
    flat = RandomFieldSpec(model, sch, FieldKind.V, reference_curvature=np.full(4, 2.5))
    assert flat.constant_reference() == 2.5
    varying = RandomFieldSpec(model, sch, FieldKind.V, reference_curvature=np.array([2.5, 2.5, 1.0, 2.5]))
    with pytest.raises(ValueError, match="needs a constant reference curvature"):
        varying.constant_reference()


@pytest.mark.parametrize("geometry, points, message", [
    # a NaN passes every comparison's negation, so each check is written to fail on it
    ("sphere", [[0.0, 0.0, 1.0], [math.nan, 0.0, 0.0]], "finite with unit norm"),
    ("sphere", [[0.0, 0.0, 1.0], [math.inf, 0.0, 0.0]], "finite with unit norm"),
    ("sphere", [[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]], "unit norm"),
    ("sphere", (np.array([0.5, math.nan]), np.array([1.0, 2.0])), "theta and phi must be finite"),
    ("sphere", (np.array([0.5, 1.0]), np.array([1.0, -math.inf])), "theta and phi must be finite"),
    ("torus", [[1.0, 1.0], [math.nan, 1.0]], "finite and lie in"),
    ("torus", [[1.0, math.inf]], "finite and lie in"),
    ("torus", [[7.0, 1.0]], "finite and lie in"),
    ("torus", [[1.0, -0.1]], "finite and lie in"),
], ids=["xyz-nan", "xyz-inf", "xyz-norm", "theta-nan", "phi-inf", "torus-nan", "torus-inf",
        "torus-high", "torus-low"])
def test_samplers_refuse_non_finite_and_out_of_range_points(geometry, points, message):
    if geometry == "sphere":
        spec = RandomFieldSpec(sp.sphere2_spectrum(3), sp.make_sphere_normalized(8.0, 3, tail_tol=None))
    else:
        spec = RandomFieldSpec(sp.torus2_spectrum(3), sp.make_explicit([0.0, 0.7, 0.0]))
    with pytest.raises(ValueError, match=message):
        fl.make_sampler(spec, points)
    with pytest.raises(ValueError, match=message):
        fl.variance_summary(spec, points)


def test_level_weights_sphere_conventions(sphere12, norm8):
    alpha, beta, counts = fl.level_weights(RandomFieldSpec(sphere12, norm8, FieldKind.H))
    lam = sphere12.eigenvalues
    N = sphere12.multiplicities.astype(float)
    np.testing.assert_allclose(alpha, np.sqrt(4 * math.pi * norm8.values / N) / lam)
    np.testing.assert_allclose(beta, -lam * alpha)
    np.testing.assert_array_equal(counts, sphere12.multiplicities)
    # per-eigenfunction: alpha is the scheme value itself
    pl = sp.make_power_law(3.0, sphere12, 12, tail_tol=None)
    alpha2, _, _ = fl.level_weights(RandomFieldSpec(sphere12, pl, FieldKind.H))
    np.testing.assert_allclose(alpha2, pl.values)


def test_covariance_h_sphere_values(sphere12, norm8, h_spec):
    assert fl.covariance_h_sphere(h_spec, 0.0) == pytest.approx(norm8.truncated_sum, abs=1e-14)
    signs = (-1.0) ** np.arange(1, 13)
    assert fl.covariance_h_sphere(h_spec, math.pi) == pytest.approx(
        float(np.sum(norm8.values * signs)), abs=1e-14
    )
    single = RandomFieldSpec(sphere12, sp.make_explicit([1.0]), FieldKind.H)
    assert fl.covariance_h_sphere(single, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        fl.covariance_h_sphere(RandomFieldSpec(sphere12, norm8, FieldKind.F), 0.3)


def test_covariance_f_sphere_values(sphere12, norm8):
    f_spec = RandomFieldSpec(sphere12, norm8, FieldKind.F)
    single = RandomFieldSpec(sphere12, sp.make_explicit([1.0]), FieldKind.F)
    assert fl.covariance_f_sphere(single, 0.0) == pytest.approx(0.25, abs=1e-15)
    lam = sphere12.eigenvalues
    assert fl.covariance_f_sphere(f_spec, 0.0) == pytest.approx(
        float(np.sum(norm8.values / lam**2)), abs=1e-14
    )


def test_covariance_f_matches_harmonic_brute_force():
    # independent oracle: explicit harmonic summation through scipy at d = pi/3
    spec10 = sp.sphere2_spectrum(10)
    sch = sp.make_sphere_normalized(8.0, 10, tail_tol=None)
    f_spec = RandomFieldSpec(spec10, sch, FieldKind.F)
    theta = np.array([0.9, 0.9 + math.pi / 3])
    phi = np.array([0.4, 0.4])
    Y = oracle_harmonic_columns(10, theta, phi)
    alpha, _, _ = fl.level_weights(f_spec)
    w = np.repeat(alpha, spec10.multiplicities[:10])
    brute = float(np.sum(w**2 * Y[0] * Y[1]))
    assert fl.covariance_f_sphere(f_spec, math.pi / 3) == pytest.approx(brute, abs=1e-10)


def test_sampler_matches_slow_reference(h_spec):
    theta = np.array([0.3, 1.2, 2.8])
    phi = np.array([5.1, 0.2, 3.3])
    smp = fl.SphereSampler(h_spec, (theta, phi))
    s = smp.sample(seed=11, draw_index=4)
    alpha, beta, _ = fl.level_weights(h_spec)
    ref_h = slow_sphere_field(beta, s.gaussians, theta, phi)
    ref_f = slow_sphere_field(alpha, s.gaussians, theta, phi)
    np.testing.assert_allclose(s.values_h, ref_h, atol=1e-12)
    np.testing.assert_allclose(s.values_f, ref_f, atol=1e-12)


def test_linear_sampler_rejects_a_design_of_the_wrong_width(h_spec):
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(8))
    with pytest.raises(ValueError, match="columns"):
        fl.LinearSampler(fl.level_weights(h_spec), smp.design[:, 1:])
    # a design over every column is refused when a level has no weight
    spec = RandomFieldSpec(sp.torus2_spectrum(3), sp.make_explicit([0.0, 0.7, 0.0]), FieldKind.H)
    grid = torus_grid(4)
    full = grids._torus_design(grid.points, spec.spectrum.torus_modes)
    with pytest.raises(ValueError, match="design has 12 columns for 4 weighted columns"):
        fl.LinearSampler(fl.level_weights(spec), full)


@pytest.mark.parametrize("sampler, spectrum, grid", [
    (fl.SphereSampler, sp.sphere2_spectrum(3), fibonacci_sphere(8)),
    (fl.TorusSampler, sp.torus2_spectrum(3), torus_grid(4)),
])
def test_empty_scheme_rejected_before_the_design(sampler, spectrum, grid):
    spec = RandomFieldSpec(spectrum, sp.make_explicit([]), FieldKind.H)
    with pytest.raises(ValueError, match="empty coefficient scheme"):
        sampler(spec, grid)


def _no_design(*args):
    raise AssertionError("the design was built")


@pytest.mark.parametrize("sampler, spectrum, grid, columns", [
    # (400 + 1)^2 - 1 harmonics on 1024 points: 1.23 GiB
    (fl.SphereSampler, sp.sphere2_spectrum(400), fibonacci_sphere(1024), 160800),
    # 828 modes in the first 100 torus levels on 512^2 points: 1.62 GiB
    (fl.TorusSampler, sp.torus2_spectrum(100), torus_grid(512), 828),
])
def test_oversize_design_rejected_before_it_is_built(monkeypatch, sampler, spectrum, grid, columns):
    for name in ("SphereHarmonicBasis", "_harmonic_design", "_torus_design"):
        monkeypatch.setattr(fl, name, _no_design)
    spec = RandomFieldSpec(spectrum, sp.make_explicit(np.full(spectrum.n_levels, 0.1)), FieldKind.H)
    with pytest.raises(ValueError, match=f"x {columns} columns .* over the 1 GiB limit"):
        sampler(spec, grid)


def _one_level(spectrum, level):
    values = np.zeros(spectrum.n_levels)
    values[level - 1] = 0.5
    return RandomFieldSpec(spectrum, sp.make_explicit(values), FieldKind.H)


@pytest.mark.parametrize("spectrum, level, columns, fits, passes", [
    # level 10 alone of 100 torus levels: 8 columns, 16 MiB on 512^2 points,
    # though all 828 columns would take 1.62 GiB there
    (sp.torus2_spectrum(100), 10, 8, 512**2, 4100**2),
    # degree 400 alone of 400: 801 columns, 0.60 GiB on 10^5 points, though
    # all 160800 would take 120 GiB there
    (sp.sphere2_spectrum(400), 400, 801, 10**5, 2 * 10**5),
])
def test_design_limit_counts_only_the_weighted_columns(spectrum, level, columns, fits, passes):
    spec = _one_level(spectrum, level)
    weights, kept = fl._level_table(spec, fits)
    assert np.flatnonzero(kept).tolist() == [level - 1]
    assert weights[2][kept].sum() == columns
    with pytest.raises(ValueError, match=f"{passes} points x {columns} columns .* over the 1 GiB limit"):
        fl._level_table(spec, passes)


def test_evaluate_on_block_draws_is_sample_block(h_spec):
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(16))
    A = fl.gaussian_draw_block(5, range(7), smp.n_gaussians)
    F, H = smp._fields(A)
    F2, H2 = smp.sample_block(5, range(7))
    assert np.array_equal(F, F2) and np.array_equal(H, H2)
    F1, H1 = smp._fields(A, ("h",))
    assert F1 is None and np.array_equal(H1, H)
    # written into the given arrays, bit for bit
    out = np.empty_like(F), np.empty_like(H)
    assert all(x is y for x, y in zip(smp._fields(A, out=out), out))
    assert np.array_equal(out[0], F) and np.array_equal(out[1], H)


@pytest.mark.parametrize("grid", [fibonacci_sphere(1024), torus_grid(16)], ids=["fib1024", "torus16"])
@pytest.mark.parametrize(
    "rows, value_rows", [(7, 10**4), (64, 5), (3, 10**4)], ids=["row-cap", "value-cap", "three-rows"]
)
def test_slice_pass_tiles_the_rows_and_equals_evaluate(monkeypatch, h_spec, grid, rows, value_rows):
    # both grids have n_points % 8 == 0, where a GEMM over a row slice is
    # the whole block's bit for bit; 50 draws make uneven slices, none of
    # one row (numpy's matrix-vector product would move bits)
    if isinstance(grid, grids.TorusGrid):
        spec = RandomFieldSpec(
            sp.torus2_spectrum(5), sp.make_explicit([0.9, 0.4, 0.25, 0.1, 0.05]), FieldKind.H
        )
    else:
        spec = h_spec
    smp = fl.make_sampler(spec, grid)
    values = value_rows * smp.n_points + 3
    monkeypatch.setattr(fl, "_FIELD_ROWS", rows)
    monkeypatch.setattr(fl, "_FIELD_VALUES", values)
    A = fl.gaussian_draw_block(5, range(50), smp.active)
    for wanted in [("f",), ("h",), ("f", "h")]:
        sizes, parts = [], {"f": [], "h": []}
        for F, H in smp._slices(A, wanted):
            for name, field in zip("fh", (F, H)):
                assert (field is None) == (name not in wanted)
                if field is not None:
                    assert field.shape[1] == smp.n_points
                    parts[name].append(field.copy())  # the next slice overwrites it
            sizes.append(len(F if H is None else H))
            assert 2 <= sizes[-1] <= rows and sizes[-1] * smp.n_points <= values
        assert len(sizes) == math.ceil(len(A) / min(rows, values // smp.n_points))
        # the slices, concatenated, are the rows of A in order, bit for bit
        for name, full in zip("fh", smp._fields(A, wanted)):
            if full is not None:
                assert np.array_equal(np.concatenate(parts[name]), full)


@pytest.mark.parametrize(
    "grid, n_draws, n_slices",
    [(grids.icosphere(5), 256, 2), (fibonacci_sphere(1024), 2048, 16)],
    ids=["icosphere5-euler-chunk", "fib1024-p2-chunk"],
)
def test_slice_pass_plan_at_the_default_caps(h_spec, grid, n_draws, n_slices):
    # 128-row slices: an Euler chunk on icosphere:5 runs as two, a p2 chunk
    # on fib1024 as 16, each written into one (128, n_points) buffer per field
    smp = fl.make_sampler(h_spec, grid)
    A = fl.gaussian_draw_block(5, range(n_draws), smp.active)
    bases = set()
    for F, H in smp._slices(A):
        assert F.shape == H.shape == (128, grid.n_points)
        assert F.base.shape == H.base.shape == (128, grid.n_points)
        bases.update((id(F.base), id(H.base)))
        n_slices -= 1
    assert n_slices == 0 and len(bases) == 2


def test_zero_draws_give_zero_fields(h_spec):
    smp = fl.SphereSampler(h_spec, (np.array([0.7]), np.array([0.1])))
    z = np.zeros(smp.n_gaussians)
    assert np.all(smp.design @ (smp.wf * z) == 0.0)
    assert np.all(smp.design @ (smp.wh * z) == 0.0)


def test_unit_variance_and_covariance_mc(h_spec):
    # sampler/kernel consistency at several distances, 3 SE
    base_th, base_ph = 0.8, 2.0
    dists = np.array([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    theta = np.concatenate([[base_th], base_th + dists[1:]])
    phi = np.full(4, base_ph)
    smp = fl.SphereSampler(h_spec, (theta, phi))
    n = 30000
    _, H = smp.sample_block(2024, range(n))
    var = H[:, 0].var()
    se_var = math.sqrt(2.0 / n)
    assert abs(var - 1.0) < 3 * se_var + 3e-9
    for j in (1, 2, 3):
        emp = float(np.mean(H[:, 0] * H[:, j]))
        ref = fl.covariance_h_sphere(h_spec, dists[j])
        se = math.sqrt((1.0 + ref**2) / n)
        assert abs(emp - ref) < 3 * se


def test_determinism_and_block_consistency(h_spec):
    g = fibonacci_sphere(64)
    smp = fl.SphereSampler(h_spec, g)
    s1 = smp.sample(99, 7)
    s2 = smp.sample(99, 7)
    assert np.array_equal(s1.values_f, s2.values_f)
    assert np.array_equal(s1.values_h, s2.values_h)
    # block evaluation is bitwise reproducible for identical index sets and
    # matches the single-draw path to rounding (different BLAS kernel)
    F, H = smp.sample_block(99, range(5, 8))
    F2, H2 = smp.sample_block(99, range(5, 8))
    assert np.array_equal(F, F2) and np.array_equal(H, H2)
    np.testing.assert_allclose(F[2], s1.values_f, atol=1e-12)
    np.testing.assert_allclose(H[2], s1.values_h, atol=1e-12)
    s3 = smp.sample(100, 7)
    assert not np.array_equal(s1.values_h, s3.values_h)


def test_philox_streams_disjoint():
    a = fl.gaussian_draws(1, 0, 1000)
    b = fl.gaussian_draws(1, 1, 1000)
    assert not np.array_equal(a[1:], b[:-1])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.12
    with pytest.raises(ValueError):
        fl.gaussian_draws(1, -1, 4)


def test_torus_sampler_variance_and_translation():
    t1 = sp.torus2_spectrum(1)
    ex = sp.make_explicit([1.0], indexing=Indexing.PER_EIGENFUNCTION)
    rt = RandomFieldSpec(t1, ex, FieldKind.H)
    vs = fl.variance_summary(rt, torus_grid(8))
    assert vs.sigma2_sup == pytest.approx(1.0 / math.pi**2, rel=1e-14)
    # translation invariance: same displacement, different base points
    pts = np.array([[0.3, 1.0], [0.8, 1.7], [4.0, 2.2], [4.5, 2.9]])
    smp = fl.TorusSampler(rt, pts)
    _, H = smp.sample_block(5, range(30000))
    c_a = float(np.mean(H[:, 0] * H[:, 1]))
    c_b = float(np.mean(H[:, 2] * H[:, 3]))
    se = math.sqrt(2.0) * vs.sigma2_sup / math.sqrt(30000)
    assert abs(c_a - c_b) < 3 * se
    ref = fl.covariance_matrix(rt, pts[:2])[0, 1]
    assert abs(c_a - ref) < 3 * se


def test_torus_sampler_matches_direct_modes():
    t2 = sp.torus2_spectrum(2)
    ex = sp.make_explicit([0.9, 0.4], indexing=Indexing.PER_EIGENFUNCTION)
    rt = RandomFieldSpec(t2, ex, FieldKind.H)
    pts = np.array([[0.5, 2.5], [3.1, 0.2]])
    smp = fl.TorusSampler(rt, pts)
    s = smp.sample(21, 3)
    # slow reference: enumerate modes in the documented order
    norm = 1.0 / (math.pi * math.sqrt(2.0))
    ref_f = np.zeros(2)
    ref_h = np.zeros(2)
    i = 0
    for lev, c in ((0, 0.9), (1, 0.4)):
        lam = t2.eigenvalues[lev]
        for k in t2.torus_modes[lev]:
            for trig in (np.cos, np.sin):
                phi = trig(pts @ k) * norm
                ref_f += c * s.gaussians[i] * phi
                ref_h += -lam * c * s.gaussians[i] * phi
                i += 1
    np.testing.assert_allclose(s.values_f, ref_f, atol=1e-13)
    np.testing.assert_allclose(s.values_h, ref_h, atol=1e-13)


def test_unit_variance_at_a_point_and_odd_antipodal_correlation(sphere12):
    single = RandomFieldSpec(sphere12, sp.make_explicit([0.6, 0.4]), FieldKind.H)
    pole = np.array([[0.0, 0.0, 1.0]])
    assert fl.covariance_matrix(single, pole)[0, 0] == pytest.approx(1.0, rel=1e-14)
    # odd levels only: h(-x) = -h(x), so the antipodes are perfectly anticorrelated
    odd = RandomFieldSpec(sphere12, sp.make_explicit([0.7, 0.0, 0.3]), FieldKind.H)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    K = fl.covariance_matrix(odd, poles)
    assert K[0, 1] / math.sqrt(K[0, 0] * K[1, 1]) == pytest.approx(-1.0, abs=1e-14)
    assert fl.covariance_h_sphere(odd, math.pi) == pytest.approx(-1.0, abs=1e-14)


def test_sampler_second_moments_match_covariance_matrix(h_spec):
    rng = np.random.default_rng(0)
    xyz = rng.normal(size=(12, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    n = 20000
    _, H = fl.SphereSampler(h_spec, xyz).sample_block(31, range(n))
    emp = H.T @ H / n
    K = fl.covariance_matrix(h_spec, xyz)
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / n)
    assert np.all(np.abs(emp - K) < 3.5 * se)


def test_variance_summary_fields(sphere12, norm8, h_spec):
    g = fibonacci_sphere(50)
    vs = fl.variance_summary(h_spec, g)
    assert vs.sigma2_sup == pytest.approx(norm8.truncated_sum, rel=1e-13)
    np.testing.assert_array_equal(fl.diagonal_variance(h_spec, g), np.full(50, vs.sigma2_sup))
    v_spec = RandomFieldSpec(sphere12, norm8, FieldKind.V, reference_curvature=2.0)
    assert fl.variance_summary(v_spec, g).sigma2_sup == pytest.approx(
        norm8.truncated_sum / 4.0, rel=1e-13
    )
    w_spec = RandomFieldSpec(sphere12, norm8, FieldKind.W, reference_curvature=1.0)
    lam = sphere12.eigenvalues
    expect = float(np.sum(norm8.values * (1.0 - 1.0 / lam) ** 2))
    assert fl.variance_summary(w_spec, g).sigma2_sup == pytest.approx(expect, rel=1e-13)


def test_variance_summary_reads_an_angle_tuple_as_points(h_spec):
    # (theta, phi) is one point per entry, as the samplers read it
    theta = np.array([0.3, 1.0, 1.7, 2.4, 3.0])
    phi = np.array([0.1, 2.0, 4.0, 5.5, 1.2])
    diag = fl.diagonal_variance(h_spec, (theta, phi))
    assert diag.shape == (5,)
    assert fl.variance_summary(h_spec, (theta, phi)).sigma2_sup == diag.max()
    # the samplers reject angle arrays of unequal length, and so does the summary
    with pytest.raises(ValueError, match="equal length"):
        fl.variance_summary(h_spec, (theta, phi[:4]))
    torus = RandomFieldSpec(sp.torus2_spectrum(1), sp.make_explicit([1.0]), FieldKind.H)
    pts = np.array([[0.3, 1.0], [0.8, 1.7], [4.0, 2.2]])
    assert fl.diagonal_variance(torus, pts).shape == (3,)


def test_variance_summary_user_supplied_pointwise():
    # two points with unequal diagonal: the sup is the larger one
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([2.0]),
        multiplicities=np.array([1]),
        points=np.array([[0.0], [1.0]]),
        eigenfunctions=np.array([[0.5, 2.0]]),
    )
    spec = RandomFieldSpec(model, sp.make_explicit([1.0], indexing=Indexing.PER_EIGENFUNCTION), FieldKind.H)
    # h weight -lambda c = -2 against the values (0.5, 2.0)
    np.testing.assert_allclose(fl.diagonal_variance(spec, None), [1.0, 16.0], rtol=1e-15)
    assert fl.variance_summary(spec, None).sigma2_sup == pytest.approx((2.0 * 2.0) ** 2)


@pytest.mark.parametrize("geometry", ["sphere", "torus"])
def test_variance_summary_rejects_a_gridded_reference_of_another_length(
    sphere12, norm8, geometry
):
    if geometry == "sphere":
        model, scheme, grid = sphere12, norm8, fibonacci_sphere(16)
    else:
        model, scheme, grid = sp.torus2_spectrum(3), sp.make_explicit([0.9, 0.4, 0.25]), torus_grid(4)
    for which in (FieldKind.V, FieldKind.W):
        for size in (grid.n_points - 1, grid.n_points + 1):
            spec = RandomFieldSpec(model, scheme, which, reference_curvature=np.ones(size))
            with pytest.raises(ValueError):
                fl.variance_summary(spec, grid)


def test_variance_summary_rejects_an_empty_torus_point_set():
    spec = RandomFieldSpec(sp.torus2_spectrum(1), sp.make_explicit([1.0]), FieldKind.H)
    with pytest.raises(ValueError, match="nonempty"):
        fl.variance_summary(spec, np.empty((0, 2)))


def test_variance_summary_sup_of_a_gridded_w_reference(sphere12, norm8):
    # var w(x) = sum over levels of N_m (beta_m + R0(x) alpha_m)^2 / volume
    g = fibonacci_sphere(16)
    r0 = np.linspace(-0.8, 1.3, g.n_points)
    spec = RandomFieldSpec(sphere12, norm8, FieldKind.W, reference_curvature=r0)
    alpha, beta, _ = fl.level_weights(spec)
    N = sphere12.multiplicities[: norm8.truncation]
    want = ((beta[None, :] + r0[:, None] * alpha[None, :]) ** 2 @ N) / sphere12.volume
    np.testing.assert_allclose(fl.diagonal_variance(spec, g), want, rtol=1e-12)
    assert fl.variance_summary(spec, g).sigma2_sup == pytest.approx(want.max(), rel=1e-12)


def test_w_identity_through_sampler(h_spec, sphere12, norm8):
    # w = h + R0 f computed from sampled arrays matches the per-level weights
    g = fibonacci_sphere(32)
    smp = fl.SphereSampler(h_spec, g)
    s = smp.sample(3, 1)
    w_direct = s.values_h + 1.0 * s.values_f
    alpha, beta, _ = fl.level_weights(h_spec)
    ref = slow_sphere_field(beta + 1.0 * alpha, s.gaussians, g.theta, g.phi)
    np.testing.assert_allclose(w_direct, ref, atol=1e-12)


def test_heat_variance_sphere_asymptotics(sphere12):
    hv = fl.heat_variance(sphere12, 0.01)
    assert 4 * math.pi * 0.01 * hv.sup == pytest.approx(1.0, abs=0.05)
    hv6 = fl.heat_variance(sphere12, 6.0)
    assert hv6.sup / ((3 / (4 * math.pi)) * math.exp(-12.0)) == pytest.approx(1.0, abs=0.01)
    # pointwise monotone decreasing in T
    sups = [fl.heat_variance(sphere12, T).sup for T in (0.05, 0.1, 0.5, 1.0, 3.0)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    with pytest.raises(ValueError):
        fl.heat_variance(sphere12, 0.0)


def _two_level_user_model():
    return sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 1]),
        eigenfunctions=np.array([[1.0, 0.5], [0.2, 1.5]]),
    )


def test_phi_sq_level_of_a_user_model_is_its_gridded_rows():
    model = _two_level_user_model()
    np.testing.assert_allclose(model.phi_sq_level(0), [1.0, 0.25], rtol=1e-15)
    np.testing.assert_allclose(model.phi_sq_level(1), [0.04, 2.25], rtol=1e-15)


def test_heat_variance_user_two_level():
    model = _two_level_user_model()
    hv = fl.heat_variance(model, 0.7)
    direct = math.exp(-0.7) * np.array([1.0, 0.25]) + math.exp(-2.1) * np.array([0.04, 2.25])
    np.testing.assert_allclose(hv.values, direct, rtol=1e-14)
    assert hv.sup == pytest.approx(float(direct.max()))


def test_degeneracy_antipodal_covariance(sphere12):
    even = RandomFieldSpec(sphere12, sp.make_explicit([0.0, 0.5, 0.0, 0.5]), FieldKind.H)
    assert fl.covariance_h_sphere(even, math.pi) == pytest.approx(1.0, abs=1e-14)
    g = fibonacci_sphere(64)
    smp = fl.SphereSampler(even, g)
    s = smp.sample(9, 0)
    # antipodal symmetry of every even-only sample
    flipped = fl.SphereSampler(even, -g.xyz).sample(9, 0)
    np.testing.assert_allclose(s.values_h, flipped.values_h, atol=1e-12)
    mixed = RandomFieldSpec(sphere12, sp.make_explicit([0.1, 0.5, 0.0, 0.4]), FieldKind.H)
    assert fl.covariance_h_sphere(mixed, math.pi) < 1.0 - 0.19


@pytest.mark.parametrize("n_per_axis", [8, 16, 64])
@pytest.mark.parametrize("scheme", [
    sp.make_explicit([0.0] * 10 + [0.5]),
    sp.make_explicit([0.0, 0.0, 0.3] + [0.0] * 7 + [0.5]),
    sp.make_power_law(3.0, sp.torus2_spectrum(11), 11, tail_tol=None),
], ids=["one level", "two levels", "power"])
def test_torus_design_builds_only_the_weighted_levels(scheme, n_per_axis, monkeypatch):
    # the design is the one build over the weighted levels' modes, and it
    # equals those columns of the design over every mode, bit for bit: no
    # column of an unweighted level is built, zero or not
    model = sp.torus2_spectrum(11)
    grid = torus_grid(n_per_axis)
    full = grids._torus_design(grid.points, model.torus_modes)
    built = []

    def build(*args):
        built.append(grids._torus_design(*args))
        return built[-1]

    monkeypatch.setattr(fl, "_torus_design", build)
    smp = fl.TorusSampler(RandomFieldSpec(model, scheme, FieldKind.H), grid)
    weighted = np.repeat(scheme.values != 0.0, model.multiplicities[:11])
    assert np.array_equal(np.flatnonzero(weighted), smp.active)
    assert len(built) == 1 and smp.design is built[0]
    assert smp.design.shape == (grid.n_points, weighted.sum())
    assert np.array_equal(smp.design, full[:, weighted])


def _sparse_user_spec():
    # three positive levels, the middle one (two columns) without weight,
    # then one negative level
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0, 5.0]),
        multiplicities=np.array([1, 2, 1]),
        negative_levels=((2.0, 1),),
        points=np.arange(6.0)[:, None],
        eigenfunctions=np.random.default_rng(3).normal(size=(4, 6)),
        neg_eigenfunctions=np.random.default_rng(4).normal(size=(1, 6)),
    )
    sch = sp.make_explicit([0.7, 0.0, 0.4], indexing=Indexing.PER_EIGENFUNCTION, neg_values=[0.5])
    return RandomFieldSpec(model, sch, FieldKind.H)


def _sphere_spec(values):
    return RandomFieldSpec(sp.sphere2_spectrum(4), sp.make_explicit(values), FieldKind.H)


def _user_spec_without_negative_levels():
    # the first of three positive levels without weight, no negative level
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0, 5.0]),
        multiplicities=np.array([1, 2, 1]),
        points=np.arange(5.0)[:, None],
        eigenfunctions=np.random.default_rng(5).normal(size=(4, 5)),
    )
    sch = sp.make_explicit([0.0, 0.3, 0.4], indexing=Indexing.PER_EIGENFUNCTION)
    return RandomFieldSpec(model, sch, FieldKind.H)


_FIB32 = fibonacci_sphere(32)
_ANGLES32 = (np.array(_FIB32.theta), np.array(_FIB32.phi))


@pytest.mark.parametrize("spec, grid", [
    (_sphere_spec([0.3, 0.0, 0.5, 0.2]), _FIB32),
    (_sphere_spec([0.0, 0.0, 0.5, 0.0]), _FIB32),
    (_sphere_spec([0.0, 0.0, 0.5, 0.0]), _ANGLES32),
    (_sphere_spec([0.0, 0.3, 0.5, 0.2]), _FIB32),
    (_sphere_spec([0.0, 0.3, 0.5, 0.2]), _ANGLES32),
    (_sphere_spec([0.1, 0.3, 0.5, 0.2]), _FIB32),
    (RandomFieldSpec(sp.torus2_spectrum(4), sp.make_explicit([0.0, 0.0, 0.6, 0.0]), FieldKind.H),
     torus_grid(6)),
    (RandomFieldSpec(sp.torus2_spectrum(4), sp.make_explicit([0.4, 0.0, 0.6, 0.0]), FieldKind.H),
     torus_grid(6)),
    (RandomFieldSpec(sp.torus2_spectrum(4), sp.make_explicit([0.4, 0.3, 0.6, 0.2]), FieldKind.H),
     torus_grid(6)),
    (_sparse_user_spec(), None),
    (_user_spec_without_negative_levels(), None),
], ids=[
    "sphere", "sphere one level", "sphere one level angles", "sphere level 1 at 0",
    "sphere level 1 at 0 angles", "sphere all levels", "torus one level", "torus two levels",
    "torus all levels", "user", "user zero level",
])
def test_a_sampler_holds_only_the_columns_it_draws(spec, grid):
    smp = fl.make_sampler(spec, grid)
    model = spec.spectrum
    alpha, beta, counts = fl.level_weights(spec)
    wf, wh = np.repeat(alpha, counts), np.repeat(beta, counts)
    # the design over every eigenfunction, built independently
    if model.geometry is Geometry.SPHERE2:
        theta, phi = (grid.theta, grid.phi) if isinstance(grid, grids.SphereGrid) else grid
        full = SphereHarmonicBasis(counts.size, theta, phi).Y
    elif model.geometry is Geometry.FLAT_TORUS2:
        full = grids._torus_design(grid.points, model.torus_modes[: counts.size])
    else:
        rows = [model.eigenfunctions] + ([model.neg_eigenfunctions] if model.negative_levels else [])
        full = np.concatenate(rows).T
    assert smp.n_gaussians == counts.sum() == full.shape[1]
    assert np.array_equal(smp.active, np.flatnonzero((wf != 0.0) | (wh != 0.0)))
    assert 0 < smp.active.size
    assert smp.design.shape == (full.shape[0], smp.active.size)
    assert smp.wf.shape == smp.wh.shape == (smp.active.size,)
    assert np.array_equal(smp.design, full[:, smp.active])
    assert np.array_equal(smp.wf, wf[smp.active]) and np.array_equal(smp.wh, wh[smp.active])
    # a builder's sphere grid keeps the design of its last scheme's levels
    if isinstance(grid, grids.SphereGrid):
        assert fl.make_sampler(spec, grid).design is smp.design
    # the fields are those of every column, the unweighted ones with draw 0
    F, H = smp.sample_block(8, range(5))
    A = np.zeros((5, smp.n_gaussians))
    A[:, smp.active] = fl.gaussian_draw_block(8, range(5), smp.active)
    for field, w, level_w in ((F, wf, alpha), (H, wh, beta)):
        if model.geometry is Geometry.SPHERE2:
            ref = [slow_sphere_field(level_w, a, theta, phi) for a in A]
        else:
            ref = (A * w) @ full.T
        np.testing.assert_allclose(field, ref, rtol=0, atol=1e-12)


def test_a_sampler_build_reads_the_level_table_once(monkeypatch):
    # the design size check, the torus weighted-level mask and the column
    # weights all read one level_weights table per build
    calls = []
    table = fl.level_weights
    monkeypatch.setattr(fl, "level_weights", lambda spec: calls.append(spec) or table(spec))
    torus = RandomFieldSpec(
        sp.torus2_spectrum(11), sp.make_explicit([0.0] * 10 + [0.5]), FieldKind.H
    )
    sphere = RandomFieldSpec(sp.sphere2_spectrum(3), sp.make_explicit([0.2, 0.3, 0.1]), FieldKind.H)
    for spec, grid in ((torus, torus_grid(8)), (sphere, fibonacci_sphere(16))):
        calls.clear()
        fl.make_sampler(spec, grid)
        assert calls == [spec]


def test_threads_drawing_at_once_get_the_serial_draws():
    # each thread keeps its own generator: four threads drawing interleaved
    # blocks (other seeds, ranges across block edges, other columns) get
    # the serial draws bit for bit
    jobs = [
        (seed, range(start, start + length), cols)
        for seed in (0, 12345, 2**64 - 1)
        for start, length in ((0, 3000), (2040, 20), (2**64 * 2048 - 9, 4200))
        for cols in (4, np.array([59, 3, 3, 17]))
    ] * 3
    serial = [fl.gaussian_draw_block(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda job: fl.gaussian_draw_block(*job), jobs))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def test_gaussian_draw_block_bit_identical_to_single_draws():
    # at the bottom, across a block edge, beyond 64 bits and at the top
    for idx in (range(18), range(2047, 2050), range(2**70 - 1, 2**70 + 2), range(2**128 - 2, 2**128)):
        B = fl.gaussian_draw_block(321, idx, 7)
        assert B.shape == (len(idx), 7)
        for r, j in enumerate(idx):
            assert np.array_equal(B[r], fl.gaussian_draws(321, j, 7))
    assert fl.gaussian_draw_block(321, range(0), 7).shape == (0, 7)
    assert np.array_equal(
        fl.gaussian_draw_block(2**64 - 1, range(3, 4), 7)[0], fl.gaussian_draws(2**64 - 1, 3, 7)
    )
    with pytest.raises(ValueError):
        fl.gaussian_draw_block(321, range(-1, 4), 7)


def _v2_normal(seed, j, k):
    # the stream v2 definition, one fresh generator per (block, column)
    b = j // fl.DRAW_BLOCK
    counter = np.array([0, b % 2**64, k, b >> 64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=counter))
    return gen.standard_normal(fl.DRAW_BLOCK)[j % fl.DRAW_BLOCK]


def test_stream_v2_follows_its_definition():
    assert (fl.RNG_STREAM, fl.DRAW_BLOCK) == (2, 2048)
    for j in (0, 1, 2047, 2048, 4097, 2**64 * 2048 + 5, 2**128 - 1):
        row = fl.gaussian_draws(7, j, 3)
        assert row.tolist() == [_v2_normal(7, j, k) for k in range(3)]


# draw indices near block boundaries, at the top of the range, and anywhere
_draw_indices = st.one_of(
    st.integers(0, 3 * 2048),
    st.integers(2**128 - 3 * 2048, 2**128 - 1),
    st.integers(0, 2**128 - 1),
)
_seeds = st.integers(0, 2**64 - 1)


# range starts at the bottom, around block 2**64 (counter word 3 turns
# over) and at the top of the index range
_range_starts = st.one_of(
    st.integers(0, 3 * 2048),
    st.integers(2**64 * 2048 - 3 * 2048, 2**64 * 2048 + 3 * 2048),
    st.integers(2**128 - 3 * 2048, 2**128 - 1),
)


def _draw_range(start, length):
    return range(start, min(start + length, 2**128))


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, start=_range_starts, length=st.integers(0, 10), n=st.integers(1, 5))
def test_block_rows_equal_single_draws(seed, start, length, n):
    idx = _draw_range(start, length)
    B = fl.gaussian_draw_block(seed, idx, n)
    assert B.shape == (len(idx), n)
    for r, j in enumerate(idx):
        assert np.array_equal(B[r], fl.gaussian_draws(seed, j, n))


@settings(max_examples=30, deadline=None)
@given(seed=_seeds, start=_range_starts, length=st.integers(-3, 5 * 2048))
# four blocks across the turnover of counter word 3, the last rows of the
# index range, and two empty ranges
@example(seed=1, start=2**64 * 2048 - 5, length=3 * 2048 + 10)
@example(seed=2, start=2**128 - 2 * 2048 - 7, length=3 * 2048)
@example(seed=3, start=7, length=0)
@example(seed=3, start=7, length=-3)
def test_range_equals_its_single_draws(seed, start, length):
    r = _draw_range(start, length)
    B = fl.gaussian_draw_block(seed, r, 2)
    assert B.shape == (len(r), 2)
    # both ends of the range and the rows on either side of each block edge
    # inside it, each against its own single draw
    edges = range(r.start + -r.start % 2048, r.stop, 2048)
    for j in {r.start, r.stop - 1, *edges, *(e - 1 for e in edges)}:
        if j in r:
            assert np.array_equal(B[j - r.start], fl.gaussian_draws(seed, j, 2))


@pytest.mark.parametrize("idx", [[0, 1, 2], np.arange(3), range(0, 6, 2), range(2, -1, -1)])
def test_draw_indices_other_than_a_range_of_step_1_rejected(h_spec, idx):
    with pytest.raises(TypeError, match="^draw indices must be a range of step 1$"):
        fl.gaussian_draw_block(0, idx, 3)
    with pytest.raises(TypeError, match="^draw indices must be a range of step 1$"):
        fl.SphereSampler(h_spec, fibonacci_sphere(8)).sample_block(0, idx)


@pytest.mark.parametrize("r", [
    range(-1, 5), range(-5000, -4990), range(2**128 - 2, 2**128 + 1), range(2**128, 2**128 + 3),
])
def test_out_of_range_draw_range_rejected_as_its_list(r):
    # the message gaussian_draws gives one index outside [0, 2**128)
    with pytest.raises(ValueError, match=r"^draw_index must lie in \[0, 2\*\*128\)$"):
        fl.gaussian_draw_block(0, r, 3)


@settings(max_examples=30, deadline=None)
@given(
    seed=_seeds,
    start=_range_starts,
    length=st.integers(0, 6),
    cols=st.lists(st.integers(0, 9), max_size=12),
)
def test_column_subset_equals_those_columns_of_the_full_draw(seed, start, length, cols):
    idx = _draw_range(start, length)
    full = fl.gaussian_draw_block(seed, idx, 10)
    part = fl.gaussian_draw_block(seed, idx, np.array(cols, dtype=np.int64))
    assert np.array_equal(part, full[:, cols])


_SPARSE_TORUS = fl.TorusSampler(
    RandomFieldSpec(sp.torus2_spectrum(3), sp.make_explicit([0.0, 0.7, 0.0]), FieldKind.H),
    torus_grid(6),
)


@settings(max_examples=20, deadline=None)
@given(seed=_seeds, j=_draw_indices)
def test_sample_is_row_zero_of_sample_block(seed, j):
    smp = _SPARSE_TORUS
    assert 0 < smp.active.size < smp.n_gaussians
    s = smp.sample(seed, j)
    F, H = smp.sample_block(seed, range(j, j + 1))
    assert np.array_equal(s.values_f, F[0]) and np.array_equal(s.values_h, H[0])
    assert np.array_equal(s.gaussians[smp.active], fl.gaussian_draws(seed, j, smp.active))
    # unweighted columns are never drawn
    assert np.count_nonzero(s.gaussians) <= smp.active.size


@pytest.mark.parametrize(
    "seed, index, message",
    [(-1, 0, "seed"), (2**64, 0, "seed"), (0, -1, "draw_index"), (0, 2**128, "draw_index")],
)
def test_out_of_range_seed_or_index_rejected_alike(seed, index, message):
    # a masked seed would silently alias: -1 would draw seed 2**64 - 1's stream
    with pytest.raises(ValueError, match=message):
        fl.gaussian_draws(seed, index, 4)
    with pytest.raises(ValueError, match=message):
        fl.gaussian_draw_block(seed, range(index, index + 1), 4)


def test_fractional_seed_or_index_rejected_alike(h_spec):
    # int() would truncate 1.7 to seed 1 and 0.9 to draw 0, aliasing them
    for seed, index in [(1.7, 0), (1.0, 0), (2, 0.9), (2, np.float64(3.0))]:
        with pytest.raises(TypeError):
            fl.gaussian_draws(seed, index, 3)
        with pytest.raises(TypeError):
            fl.gaussian_draw_block(seed, range(index, index + 1), 3)
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(8))
    with pytest.raises(TypeError):
        smp.sample_block(2, np.array([0.0, 1.0]))
    # Python and numpy integers of any width are indices
    want = fl.gaussian_draws(2, 5, 3)
    assert np.array_equal(fl.gaussian_draws(np.uint64(2), np.int32(5), 3), want)
    assert np.array_equal(fl.gaussian_draw_block(np.int64(2), range(np.uint8(5), np.uint8(6)), 3)[0], want)


def lattice_heat_sum(T):
    # brute force over the square |k_i| <= r, whose omitted terms are
    # below e^{-r^2 T} < 1e-22 of the first
    r = math.ceil(math.sqrt(50.0 / T))
    k = np.arange(-r, r + 1)
    n2 = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    return float(np.sum(np.exp(-n2[n2 > 0] * T)))


@pytest.mark.parametrize("T", [1.0, 0.1, 0.01, 1e-3])
def test_heat_variance_torus_matches_lattice_sum(T):
    model = sp.torus2_spectrum(3)
    hv = fl.heat_variance(model, T)
    assert hv.sup == pytest.approx(lattice_heat_sum(T) / model.volume, rel=1e-14)


def test_heat_variance_torus_tiny_time():
    # theta(T)^2 - 1 = pi / T - 1 + O(e^{-pi^2 / T}): O(1/sqrt(T)) work
    model = sp.torus2_spectrum(3)
    T = 1e-8
    assert fl.heat_variance(model, T).sup == pytest.approx(math.pi / T / model.volume, rel=1e-6)
    assert fl.heat_variance(model, 1e3).sup == 0.0
    with pytest.raises(ValueError):
        fl.heat_variance(model, math.nan)


def test_heat_variance_torus_rejects_a_time_too_small_to_converge():
    # s = sum_{k>=1} e^{-k^2 T} needs ~6e6 terms at T = 1e-12, past the cap
    with pytest.raises(ValueError, match="T = 1e-12"):
        fl.heat_variance(sp.torus2_spectrum(3), 1e-12)


def test_heat_variance_rejects_a_time_too_small_to_converge(sphere12):
    # sum_{m>=1} (2m+1) e^{-m(m+1)T} = 1/T - 2/3 + O(T); at T = 1e-8 the
    # series converges within the level cap, at 1e-10 it does not
    T = 1e-8
    assert fl.heat_variance(sphere12, T).sup * sphere12.volume == pytest.approx(
        1.0 / T - 2.0 / 3.0, rel=1e-9
    )
    with pytest.raises(ValueError, match="T = 1e-10"):
        fl.heat_variance(sphere12, 1e-10)
    with pytest.raises(ValueError, match="T = 1e-17"):
        fl.heat_variance(sp.s4_paneitz_spectrum(3), 1e-17)


def test_covariance_matrix_matches_legendre_forms_on_the_sphere(sphere12, norm8, h_spec):
    xyz = np.random.default_rng(0).normal(size=(12, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    d = sphere_distance(xyz[:, None, :], xyz[None, :, :])
    f_spec = RandomFieldSpec(sphere12, norm8, FieldKind.F)
    np.testing.assert_allclose(
        fl.covariance_matrix(h_spec, xyz), fl.covariance_h_sphere(h_spec, d), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        fl.covariance_matrix(f_spec, xyz), fl.covariance_f_sphere(f_spec, d), rtol=0, atol=1e-14
    )


def test_covariance_matrix_matches_cosine_sum_on_the_torus():
    t3 = sp.torus2_spectrum(3)
    values = [0.9, 0.4, 0.25]
    spec = RandomFieldSpec(t3, sp.make_explicit(values, indexing=Indexing.PER_EIGENFUNCTION), FieldKind.H)
    pts = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, size=(7, 2))
    # each mode pair cos(k.x), sin(k.x) / (pi sqrt 2) contributes cos(k.(x - y)) / (2 pi^2)
    delta = pts[:, None, :] - pts[None, :, :]
    brute = np.zeros((7, 7))
    for lam, c, reps in zip(t3.eigenvalues, values, t3.torus_modes):
        for k in reps:
            brute += (lam * c) ** 2 * np.cos(delta @ k) / (2.0 * math.pi**2)
    np.testing.assert_allclose(fl.covariance_matrix(spec, pts), brute, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dimension", [2, 4])
def test_covariance_matrix_user_model_with_negative_level(dimension):
    phi = np.array([[1.0, 0.5, -0.3, 0.8], [0.2, 1.5, 0.7, -1.1]])
    psi = np.array([[0.6, -0.4, 1.2, 0.3]])
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=dimension,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 1]),
        negative_levels=((2.0, 1),),
        points=np.arange(4.0)[:, None],
        eigenfunctions=phi,
        neg_eigenfunctions=psi,
    )
    sch = sp.make_explicit([0.7, 0.2], indexing=Indexing.PER_EIGENFUNCTION, neg_values=[0.5])
    idx = np.array([2, 0, 3])
    # h = -lambda f on the positive levels and +mu f on the negative one
    w_f = np.array([0.7, 0.2, 0.5])
    w_h = np.array([-1.0 * 0.7, -3.0 * 0.2, 2.0 * 0.5])
    # the level table lists the positive levels, then the negative one
    table = fl.level_weights(RandomFieldSpec(model, sch, FieldKind.H))
    np.testing.assert_array_equal(np.stack(table), [w_f, w_h, [1, 1, 1]])
    # w = h + k R0 f with k = 1 on surfaces and n in even n > 2
    w_w = w_h + (1 if dimension == 2 else dimension) * 0.4 * w_f
    cols = np.concatenate([phi, psi])[:, idx]
    for which, w in ((FieldKind.F, w_f), (FieldKind.H, w_h), (FieldKind.W, w_w)):
        spec = RandomFieldSpec(model, sch, which, reference_curvature=0.4)
        brute = np.einsum("k,ki,kj->ij", w**2, cols, cols)
        np.testing.assert_allclose(fl.covariance_matrix(spec, idx), brute, rtol=1e-14, atol=1e-15)
        diag = fl.diagonal_variance(spec, None)
        np.testing.assert_allclose(diag[idx], np.diag(brute), rtol=1e-14)


def test_covariance_matrix_user_model_rejects_aliasing_indices():
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 1]),
        points=np.arange(3.0)[:, None],
        eigenfunctions=np.array([[1.0, 0.5, -0.3], [0.2, 1.5, 0.7]]),
    )
    spec = RandomFieldSpec(model, sp.make_explicit([0.7, 0.2], indexing=Indexing.PER_EIGENFUNCTION))
    for bad in ([-1], [2.7], [0.5, 1.9], [3]):
        with pytest.raises(ValueError, match="indices"):
            fl.covariance_matrix(spec, bad)
    K = fl.covariance_matrix(spec, np.array([2, 0]))
    np.testing.assert_array_equal(K, fl.covariance_matrix(spec, [2, 0]))
    # h weights -lambda * c = (-0.7, -0.6) against point 2's values (-0.3, 0.7)
    assert K[0, 0] == pytest.approx((0.7 * 0.3) ** 2 + (0.6 * 0.7) ** 2, rel=1e-14)


@pytest.mark.parametrize("which, r0", [(FieldKind.V, 2.0), (FieldKind.W, 1.0), (FieldKind.W, -0.7)])
def test_covariance_matrix_diagonal_matches_variance_summary(sphere12, norm8, which, r0):
    g = fibonacci_sphere(16)
    spec = RandomFieldSpec(sphere12, norm8, which, reference_curvature=r0)
    np.testing.assert_allclose(
        np.diag(fl.covariance_matrix(spec, g)), fl.diagonal_variance(spec, g), rtol=1e-12
    )
    t = sp.torus2_spectrum(3)
    tspec = RandomFieldSpec(t, sp.make_explicit([0.9, 0.4, 0.25]), which, reference_curvature=r0)
    tg = torus_grid(4)
    np.testing.assert_allclose(
        np.diag(fl.covariance_matrix(tspec, tg)), fl.diagonal_variance(tspec, tg), rtol=1e-12
    )


class TestSphereDesignReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts every real harmonic basis build, whatever the caller."""
        calls = []
        init = SphereHarmonicBasis.__init__

        def counting(self, max_level, theta, phi, kept=None):
            calls.append(max_level)
            init(self, max_level, theta, phi, kept)

        monkeypatch.setattr(SphereHarmonicBasis, "__init__", counting)
        return calls

    def test_design_is_the_fresh_basis_and_is_built_once(self, h_spec, builds):
        g = fibonacci_sphere(200)
        smp = fl.make_sampler(h_spec, g)
        assert builds == [12]
        fresh = SphereHarmonicBasis(12, g.theta, g.phi).Y
        assert np.array_equal(smp.design, fresh)
        builds.clear()
        again = fl.make_sampler(h_spec, g)
        assert builds == [] and again.design is smp.design

    def test_other_truncation_builds_and_replaces_the_design(self, h_spec, builds):
        g = fibonacci_sphere(200)
        fl.make_sampler(h_spec, g)
        scheme6 = sp.make_sphere_normalized(8.0, 6, tail_tol=None)
        spec6 = RandomFieldSpec(sp.sphere2_spectrum(12), scheme6, FieldKind.H)
        assert fl.make_sampler(spec6, g).design.shape == (200, 48)
        assert builds == [12, 6]
        # one design per grid: the truncation asked for last
        assert fl.make_sampler(h_spec, g).design.shape == (200, 168)
        assert builds == [12, 6, 12]

    def test_point_arrays_build_on_every_call(self, h_spec, builds):
        g = fibonacci_sphere(50)
        for grid in ((g.theta, g.phi), np.array(g.xyz)):
            a, b = fl.make_sampler(h_spec, grid), fl.make_sampler(h_spec, grid)
            assert np.array_equal(a.design, b.design) and a.design is not b.design
        assert builds == [12] * 4

    def test_design_is_read_only(self, h_spec):
        smp = fl.make_sampler(h_spec, fibonacci_sphere(50))
        with pytest.raises(ValueError, match="read-only"):
            smp.design[0, 0] = 0.0

    def test_replaced_grid_gets_its_own_design(self, h_spec):
        g = fibonacci_sphere(50)
        old = fl.make_sampler(h_spec, g).design
        g2 = dataclasses.replace(g, theta=np.pi - g.theta)
        new = fl.make_sampler(h_spec, g2).design
        assert np.array_equal(new, SphereHarmonicBasis(12, g2.theta, g2.phi).Y)
        assert not np.array_equal(new, old)
