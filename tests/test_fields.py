import math

import numpy as np
import pytest

from helpers import oracle_harmonic_columns, slow_sphere_field

from randcurv import fields as fl
from randcurv import spectral as sp
from randcurv.fields import FieldKind, RandomFieldSpec
from randcurv.grids import fibonacci_sphere, sphere_distance, torus_grid
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


def test_level_weights_sphere_conventions(sphere12, norm8):
    lw = fl.level_weights(RandomFieldSpec(sphere12, norm8, FieldKind.H))
    lam = sphere12.eigenvalues
    N = sphere12.multiplicities.astype(float)
    np.testing.assert_allclose(lw.alpha, np.sqrt(4 * math.pi * norm8.values / N) / lam)
    np.testing.assert_allclose(lw.beta, -lam * lw.alpha)
    # per-eigenfunction: alpha is the scheme value itself
    pl = sp.make_power_law(3.0, sphere12, 12, tail_tol=None)
    lw2 = fl.level_weights(RandomFieldSpec(sphere12, pl, FieldKind.H))
    np.testing.assert_allclose(lw2.alpha, pl.values)


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
    lw = fl.level_weights(f_spec)
    w = np.repeat(lw.alpha, spec10.multiplicities[:10])
    brute = float(np.sum(w**2 * Y[0] * Y[1]))
    assert fl.covariance_f_sphere(f_spec, math.pi / 3) == pytest.approx(brute, abs=1e-10)


def test_sampler_matches_slow_reference(h_spec):
    theta = np.array([0.3, 1.2, 2.8])
    phi = np.array([5.1, 0.2, 3.3])
    smp = fl.SphereSampler(h_spec, (theta, phi))
    s = smp.sample(seed=11, draw_index=4)
    lw = fl.level_weights(h_spec)
    ref_h = slow_sphere_field(lw.beta, s.gaussians, theta, phi)
    ref_f = slow_sphere_field(lw.alpha, s.gaussians, theta, phi)
    np.testing.assert_allclose(s.values_h, ref_h, atol=1e-12)
    np.testing.assert_allclose(s.values_f, ref_f, atol=1e-12)


def test_linear_sampler_rejects_a_design_of_the_wrong_width(h_spec):
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(8))
    with pytest.raises(ValueError, match="columns"):
        fl.LinearSampler(h_spec, smp.design[:, 1:], smp.grid)


def test_evaluate_on_block_draws_is_sample_block(h_spec):
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(16))
    A = fl.gaussian_draw_block(5, range(7), smp.n_gaussians)
    F, H = smp.evaluate(A)
    F2, H2 = smp.sample_block(5, range(7))
    assert np.array_equal(F, F2) and np.array_equal(H, H2)
    assert smp.evaluate(A, fields=("h",))[0] is None
    with pytest.raises(ValueError, match="unknown fields"):
        smp.evaluate(A, fields=("g",))


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
    _, H = smp.sample_block(2024, np.arange(n))
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
    F, H = smp.sample_block(99, [5, 6, 7])
    F2, H2 = smp.sample_block(99, [5, 6, 7])
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
    assert vs.is_constant
    # translation invariance: same displacement, different base points
    pts = np.array([[0.3, 1.0], [0.8, 1.7], [4.0, 2.2], [4.5, 2.9]])
    smp = fl.TorusSampler(rt, pts)
    _, H = smp.sample_block(5, np.arange(30000))
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
    _, H = fl.SphereSampler(h_spec, xyz).sample_block(31, np.arange(n))
    emp = H.T @ H / n
    K = fl.covariance_matrix(h_spec, xyz)
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / n)
    assert np.all(np.abs(emp - K) < 3.5 * se)


def test_variance_summary_fields(sphere12, norm8, h_spec):
    g = fibonacci_sphere(50)
    vs = fl.variance_summary(h_spec, g)
    assert vs.sigma2_sup == pytest.approx(norm8.truncated_sum, rel=1e-13)
    assert vs.is_constant
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
    assert fl.diagonal_variance(h_spec, (theta, phi)).shape == (5,)
    vs = fl.variance_summary(h_spec, (theta, phi))
    assert vs.argmax_point.shape == (3,)
    want = [math.sin(theta[vs.argmax_index]) * math.cos(phi[vs.argmax_index]),
            math.sin(theta[vs.argmax_index]) * math.sin(phi[vs.argmax_index]),
            math.cos(theta[vs.argmax_index])]
    np.testing.assert_allclose(vs.argmax_point, want, atol=1e-15)
    torus = RandomFieldSpec(sp.torus2_spectrum(1), sp.make_explicit([1.0]), FieldKind.H)
    pts = np.array([[0.3, 1.0], [0.8, 1.7], [4.0, 2.2]])
    assert fl.diagonal_variance(torus, pts).shape == (3,)
    assert np.array_equal(fl.variance_summary(torus, pts).argmax_point, pts[0])


def test_variance_summary_user_supplied_argmax():
    # two points with unequal diagonal: argmax at the larger one
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
    vs = fl.variance_summary(spec, None)
    assert vs.argmax_index == 1
    assert not vs.is_constant
    assert vs.sigma2_sup == pytest.approx((2.0 * 2.0) ** 2)


def test_w_identity_through_sampler(h_spec, sphere12, norm8):
    # w = h + R0 f computed from sampled arrays matches the per-level weights
    g = fibonacci_sphere(32)
    smp = fl.SphereSampler(h_spec, g)
    s = smp.sample(3, 1)
    w_direct = s.values_h + 1.0 * s.values_f
    lw = fl.level_weights(h_spec)
    ref = slow_sphere_field(lw.beta + 1.0 * lw.alpha, s.gaussians, g.theta, g.phi)
    np.testing.assert_allclose(w_direct, ref, atol=1e-12)


def test_heat_variance_sphere_asymptotics(sphere12):
    hv = fl.heat_variance(sphere12, 0.01)
    assert hv.is_constant
    assert 4 * math.pi * 0.01 * hv.sup == pytest.approx(1.0, abs=0.05)
    hv6 = fl.heat_variance(sphere12, 6.0)
    assert hv6.sup / ((3 / (4 * math.pi)) * math.exp(-12.0)) == pytest.approx(1.0, abs=0.01)
    # pointwise monotone decreasing in T
    sups = [fl.heat_variance(sphere12, T).sup for T in (0.05, 0.1, 0.5, 1.0, 3.0)]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    with pytest.raises(ValueError):
        fl.heat_variance(sphere12, 0.0)


def test_heat_variance_user_two_level():
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 1]),
        eigenfunctions=np.array([[1.0, 0.5], [0.2, 1.5]]),
    )
    hv = fl.heat_variance(model, 0.7)
    direct = math.exp(-0.7) * np.array([1.0, 0.25]) + math.exp(-2.1) * np.array([0.04, 2.25])
    np.testing.assert_allclose(hv.values, direct, rtol=1e-14)
    assert hv.sup == pytest.approx(float(direct.max()))


def test_gradient_variance_closed_form_and_harmonic_sum(sphere12, norm8):
    single = RandomFieldSpec(sphere12, sp.make_explicit([1.0]), FieldKind.F)
    assert fl.gradient_variance_sphere(single) == pytest.approx(0.5, rel=1e-14)
    spec = RandomFieldSpec(sphere12, norm8, FieldKind.F)
    lam = sphere12.eigenvalues
    expect = float(np.sum(norm8.values / lam))
    assert fl.gradient_variance_sphere(spec) == pytest.approx(expect, rel=1e-14)
    # independent route: E|grad f|^2 = 4 (r_f(0) - r_f(delta)) / delta^2 + O(delta^2)
    # from the Legendre covariance
    delta = 1e-3
    for coeffs in (norm8, sp.make_explicit([1.0]), sp.make_explicit([0.2, 0, 0.5, 0.3])):
        s = RandomFieldSpec(sphere12, coeffs, FieldKind.F)
        r0, rd = fl.covariance_f_sphere(s, 0.0), fl.covariance_f_sphere(s, delta)
        assert 4 * (r0 - rd) / delta**2 == pytest.approx(fl.gradient_variance_sphere(s), rel=1e-5)
    t = sp.torus2_spectrum(2)
    with pytest.raises(ValueError):
        fl.gradient_variance_sphere(
            RandomFieldSpec(t, sp.make_explicit([1.0, 1.0], indexing=Indexing.PER_EIGENFUNCTION), FieldKind.F)
        )


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


def test_gaussian_draw_block_bit_identical_to_single_draws():
    # unsorted, repeated, and at both ends of the index range
    idx = [17, 0, 1, 5, 2**40, 2**70, 5, 2**128 - 1, 0]
    B = fl.gaussian_draw_block(321, idx, 7)
    assert B.shape == (9, 7)
    for r, j in enumerate(idx):
        assert np.array_equal(B[r], fl.gaussian_draws(321, j, 7))
    assert np.array_equal(B[3], B[6]) and np.array_equal(B[1], B[8])
    assert fl.gaussian_draw_block(321, [], 7).shape == (0, 7)
    assert np.array_equal(
        fl.gaussian_draw_block(2**64 - 1, [3], 7)[0], fl.gaussian_draws(2**64 - 1, 3, 7)
    )
    with pytest.raises(ValueError):
        fl.gaussian_draw_block(321, [3, -1], 7)


@pytest.mark.parametrize(
    "seed, index, message",
    [(-1, 0, "seed"), (2**64, 0, "seed"), (0, -1, "draw_index"), (0, 2**128, "draw_index")],
)
def test_out_of_range_seed_or_index_rejected_alike(seed, index, message):
    # a masked seed would silently alias: -1 would draw seed 2**64 - 1's stream
    with pytest.raises(ValueError, match=message):
        fl.gaussian_draws(seed, index, 4)
    with pytest.raises(ValueError, match=message):
        fl.gaussian_draw_block(seed, [0, index], 4)


def test_sample_block_evaluates_only_requested_fields(h_spec):
    user = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 1]),
        points=np.array([[0.0], [1.0]]),
        eigenfunctions=np.array([[1.0, 0.5], [0.2, 1.5]]),
    )
    torus = sp.torus2_spectrum(3)
    samplers = [
        fl.SphereSampler(h_spec, fibonacci_sphere(32)),
        fl.TorusSampler(
            RandomFieldSpec(torus, sp.make_explicit([0.5, 0.3, 0.2]), FieldKind.H), torus_grid(6)
        ),
        fl.UserSampler(
            RandomFieldSpec(user, sp.make_explicit([1.0, 0.5], indexing=Indexing.PER_EIGENFUNCTION), FieldKind.H)
        ),
    ]
    for smp in samplers:
        F, H = smp.sample_block(8, [0, 3, 4])
        F1, H1 = smp.sample_block(8, [0, 3, 4], fields=("h",))
        assert F1 is None and np.array_equal(H1, H)
        F2, H2 = smp.sample_block(8, [0, 3, 4], fields=("f",))
        assert H2 is None and np.array_equal(F2, F)
        with pytest.raises(ValueError, match="unknown fields"):
            smp.sample_block(8, [0], fields=("H",))


def test_fractional_seed_or_index_rejected_alike(h_spec):
    # int() would truncate 1.7 to seed 1 and 0.9 to draw 0, aliasing them
    for seed, index in [(1.7, 0), (1.0, 0), (2, 0.9), (2, np.float64(3.0))]:
        with pytest.raises(TypeError):
            fl.gaussian_draws(seed, index, 3)
        with pytest.raises(TypeError):
            fl.gaussian_draw_block(seed, [0, index], 3)
    smp = fl.SphereSampler(h_spec, fibonacci_sphere(8))
    with pytest.raises(TypeError):
        smp.sample_block(2, np.array([0.0, 1.0]))
    # Python and numpy integers of any width are indices
    want = fl.gaussian_draws(2, 5, 3)
    assert np.array_equal(fl.gaussian_draws(np.uint64(2), np.int32(5), 3), want)
    assert np.array_equal(fl.gaussian_draw_block(np.int64(2), np.array([5], dtype=np.uint8), 3)[0], want)


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
    assert hv.is_constant
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
    # w = h + R0 f on surfaces, -(h + n Q0 f) otherwise
    w_w = w_h + 0.4 * w_f if dimension == 2 else -(w_h + dimension * 0.4 * w_f)
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
