import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import two_wave_sup_tail
from randcurv import bounds as bd
from randcurv import fields as fl
from randcurv import spectral as sp
from randcurv.bounds import Ordering
from randcurv.fields import FieldKind, RandomFieldSpec
from randcurv.grids import fibonacci_sphere, torus_grid
from randcurv.spectral import Geometry, Indexing, SpectrumModel


def tail_quadrature(u):
    # Psi(u) = e^{-u^2/2}/sqrt(2 pi) * int_0^inf e^{-u s - s^2/2} ds, a form
    # whose quadrature is relative-accurate even deep in the tail
    val, _ = quad(lambda s: math.exp(-u * s - s * s / 2.0), 0.0, np.inf, epsabs=0, epsrel=1e-12)
    return math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi) * val


def test_gaussian_tail_fixed_points():
    assert bd.gaussian_tail(0.0) == 0.5
    assert bd.gaussian_tail(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert bd.gaussian_tail(40.0) < 1e-300
    assert bd.gaussian_tail(-40.0) == pytest.approx(1.0, abs=1e-15)
    for u in (0.3, 1.7, 5.0):
        assert bd.gaussian_tail(-u) == pytest.approx(1.0 - bd.gaussian_tail(u), abs=1e-15)


def test_gaussian_tail_quadrature_oracle():
    for u in (0.5, 1.0, 2.0, 4.0, 8.0):
        assert bd.gaussian_tail(u) == pytest.approx(tail_quadrature(u), rel=1e-10)


def test_borell_tis_forms():
    u, sig = 2.0, 1.3
    assert bd.borell_tis_upper(u, sig, 0.0) == pytest.approx(
        math.exp(-u * u / (2 * sig * sig)), rel=1e-15
    )
    # decreasing in u beyond alpha sigma^2
    alpha = 0.7
    us = np.linspace(alpha * sig * sig + 0.01, alpha * sig * sig + 5.0, 50)
    vals = [bd.borell_tis_upper(x, sig, alpha) for x in us]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        bd.borell_tis_upper(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bd.borell_tis_concentration(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        bd.borell_tis_concentration(0.9, 1.0, 1.0)
    assert bd.borell_tis_concentration(3.0, 1.0, 2.0) == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )


def test_borell_tis_concentration_vs_mc_torus():
    # one-sided check: empirical sup tail never exceeds the concentration bound
    model = sp.torus2_spectrum(2)
    sch = sp.make_explicit([0.5, 0.5])
    spec = RandomFieldSpec(model, sch, FieldKind.H)
    grid = torus_grid(24)
    sig = math.sqrt(fl.variance_summary(spec, grid).sigma2_sup)
    smp = fl.make_sampler(spec, grid)
    n, B = 100_000, 2048
    sups = np.empty(n)
    for s0 in range(0, n, B):
        _, H = smp.sample_block(77, range(s0, min(s0 + B, n)))
        sups[s0 : s0 + H.shape[0]] = H.max(axis=1)
    e_sup = float(sups.mean())
    for k in (1.0, 2.0, 3.0):
        u = e_sup + k * sig
        p_hat = float((sups > u).mean())
        assert p_hat <= bd.borell_tis_concentration(u, e_sup, sig)


def test_p2_two_sided_shape_and_limits():
    lo, up = bd.p2_two_sided(1e-3, 1.0, 2.0, 0.8)
    assert lo == 0.0 and up == 0.0  # underflow: both bounds vanish with a
    for a in np.linspace(1e-4, 0.1, 60):
        lo, up = bd.p2_two_sided(a, 1.0, 2.0, 0.8)
        assert lo <= up
    with pytest.raises(ValueError):
        bd.p2_two_sided(0.0, 1.0, 2.0, 0.8)


def test_p2_log_diagnostics_converge():
    sig = 0.9
    limit = -1.0 / (2.0 * sig * sig)
    prev = None
    for a in (1e-1, 1e-2, 1e-3):
        a2l, a2u, lim = bd.p2_log_diagnostics(a, sig, 2.0, 0.8)
        assert lim == limit
        if prev is not None:
            # relative drift between consecutive sweep points shrinks under 5%
            assert abs(a2l - prev[0]) / abs(a2l) < 0.05 or a == 1e-2
            assert abs(a2u - prev[1]) / abs(a2u) < 0.05 or a == 1e-2
        prev = (a2l, a2u)
    assert prev[0] == pytest.approx(limit, rel=2e-2)
    assert prev[1] == pytest.approx(limit, rel=2e-2)


def test_heat_sigma_small_T():
    T = 0.25
    assert bd.heat_sigma_small_T(T, 2, 1.0) == pytest.approx(1.0 / (4 * math.pi * T), rel=1e-15)
    # halving T doubles the n=2 value
    assert bd.heat_sigma_small_T(T / 2, 2, 1.0) == pytest.approx(
        2.0 * bd.heat_sigma_small_T(T, 2, 1.0), rel=1e-15
    )
    # spectral-sum oracle on the round sphere, R0 = 1
    model = sp.sphere2_spectrum(4)
    direct = fl.heat_variance(model, 0.01).sup
    assert bd.heat_sigma_small_T(0.01, 2, 1.0) == pytest.approx(direct, rel=0.05)
    with pytest.raises(ValueError):
        bd.heat_sigma_small_T(0.0, 2, 1.0)


def test_heat_sigma_large_T_sphere():
    model = sp.sphere2_spectrum(6)
    F, asym = bd.heat_sigma_large_T(model, 1.0, 6.0)
    assert F * 4 * math.pi == pytest.approx(3.0, rel=1e-14)
    # the first level alone sets F, whatever the truncation
    F3, _ = bd.heat_sigma_large_T(sp.sphere2_spectrum(3), 1.0, 6.0)
    assert F3 == pytest.approx(3.0 / (4 * math.pi), rel=1e-14)
    assert asym == pytest.approx(F * math.exp(-12.0), rel=1e-14)
    # pointwise reference: the smallest R0^2 wins
    F2, _ = bd.heat_sigma_large_T(model, np.array([1.0, 2.0, 3.0]), 6.0)
    assert F2 == pytest.approx(F, rel=1e-14)
    # sigma_v^2(T) e^{lambda_1 T} -> F within 1% once lambda_1 T >= 12
    direct = fl.heat_variance(model, 6.0).sup
    assert direct * math.exp(2.0 * 6.0) == pytest.approx(F, rel=0.01)
    with pytest.raises(ValueError):
        bd.heat_sigma_large_T(model, np.array([1.0, 0.0]), 6.0)


def test_heat_sigma_large_T_user_two_level():
    pts = 4
    phi = np.array(
        [
            [1.0, -0.5, 0.25, -1.5],   # level lambda = 1
            [0.3, 0.8, -0.2, 0.1],     # level lambda = 3 (two functions)
            [0.4, -0.1, 0.9, 0.2],
        ]
    )
    model = SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=1.0,
        eigenvalues=np.array([1.0, 3.0]),
        multiplicities=np.array([1, 2]),
        eigenfunctions=phi,
    )
    r0 = np.array([1.0, 2.0, 0.5, 1.5])
    T = 10.0
    F, asym = bd.heat_sigma_large_T(model, r0, T)
    assert F == pytest.approx(float(np.max(phi[0] ** 2 / r0**2)), rel=1e-14)
    direct = float(np.max(fl.heat_variance(model, T).values / r0**2))
    assert direct == pytest.approx(asym, rel=1e-8)


def test_compare_predicates():
    assert bd.compare_small_T(1.0, 4.0) is Ordering.A_LARGER
    assert bd.compare_small_T(4.0, 1.0) is Ordering.B_LARGER
    assert bd.compare_small_T(2.0, 2.0) is Ordering.INCOMPARABLE
    assert bd.compare_large_T(2.0, 5.0) is Ordering.A_LARGER
    assert bd.compare_large_T(5.0, 2.0) is Ordering.B_LARGER
    assert bd.compare_large_T(3.0, 3.0) is Ordering.INCOMPARABLE
    with pytest.raises(ValueError):
        bd.compare_small_T(-1.0, 1.0)
    with pytest.raises(ValueError):
        bd.compare_large_T(0.0, 1.0)
    # consistency with direct bound evaluation: smaller inf R0^2 gives the
    # larger small-T variance, hence larger two-sided bounds at fixed a
    T, a = 0.01, 0.05
    sA = math.sqrt(bd.heat_sigma_small_T(T, 2, 1.0))
    sB = math.sqrt(bd.heat_sigma_small_T(T, 2, 4.0))
    loA, upA = bd.p2_two_sided(a, sA, 2.0, 0.8)
    loB, upB = bd.p2_two_sided(a, sB, 2.0, 0.8)
    assert bd.compare_small_T(1.0, 4.0) is Ordering.A_LARGER and loA > loB and upA > upB
    # large T: smaller lambda_1 decays slower, larger asymptotic variance;
    # both bounds underflow at these variances, so compare their log exponents
    F = 3.0 / (4 * math.pi)
    sA = math.sqrt(F * math.exp(-2.0 * 6.0))
    sB = math.sqrt(F * math.exp(-6.0 * 6.0))
    _, a2uA, _ = bd.p2_log_diagnostics(a, sA, 2.0, 0.8)
    _, a2uB, _ = bd.p2_log_diagnostics(a, sB, 2.0, 0.8)
    assert bd.compare_large_T(2.0, 6.0) is Ordering.A_LARGER and a2uA > a2uB


def test_linf_log_asymptote():
    v = bd.linf_log_asymptote(0.1, 0.025, 1.0)
    assert v == pytest.approx(-8.0, rel=1e-15)
    assert bd.linf_log_asymptote(0.2, 0.025, 1.0) == pytest.approx(4 * v, rel=1e-15)
    assert bd.linf_regime_ok(0.1, 0.025)
    assert not bd.linf_regime_ok(0.5, 0.025)
    assert not bd.linf_regime_ok(0.1, 0.05)
    assert not bd.linf_regime_ok(0.5, 0.1)
    with pytest.raises(ValueError):
        bd.linf_log_asymptote(0.0, 0.1, 1.0)


def test_exact_two_wave_log_ratios_rise_toward_one():
    # criterion 7's spec at u = 0.1: its one level has h-variance 0.5, and
    # the exact law's polynomial prefactor keeps log P / asymptote below 1,
    # closing in as u/a grows
    u, sigma_h = 0.1, math.sqrt(0.5)
    ratios = [
        math.log(two_wave_sup_tail(u, u / k)) / bd.linf_log_asymptote(u, u / k, sigma_h)
        for k in (3.0, 4.0, 5.0, 6.0)
    ]
    assert ratios == pytest.approx([0.804, 0.867, 0.902, 0.924], abs=6e-4)
    assert all(x < y < 1.0 for x, y in zip(ratios, ratios[1:]))


def test_linf_sigma_w_spectral_vs_mc():
    # sigma_w on the sphere from the spectral sums, cross-checked by sampling
    model = sp.sphere2_spectrum(12)
    sch = sp.make_sphere_normalized(8.0, 12)
    R0 = 1.0
    spec_w = RandomFieldSpec(model, sch, FieldKind.W, reference_curvature=R0)
    grid = fibonacci_sphere(16)
    var_w = fl.variance_summary(spec_w, grid).sigma2_sup
    smp = fl.make_sampler(RandomFieldSpec(model, sch, FieldKind.H), grid)
    n = 4000
    F, H = smp.sample_block(55, range(n))
    W = H + R0 * F
    mc = float(W[:, 3].var())
    se = var_w * math.sqrt(2.0 / n)
    assert abs(mc - var_w) < 3 * se


def test_nd_negative_bound():
    assert bd.nd_negative_bound(0.1, 3, 1.0, 0.0) == pytest.approx(math.exp(-12.5), rel=1e-14)
    assert bd.nd_negative_bound(1e-3, 3, 1.0, 0.0) == 0.0
    # algebraic identity with the two-sided upper bound
    for a, n, sig, alpha in [(0.05, 3, 1.0, 0.3), (0.08, 5, 0.7, 1.1)]:
        _, up = bd.p2_two_sided(a, (n - 1) * sig, 2.0, alpha / (n - 1))
        assert bd.nd_negative_bound(a, n, sig, alpha) == pytest.approx(up, rel=1e-13)
    with pytest.raises(ValueError):
        bd.nd_negative_bound(0.1, 2, 1.0, 0.0)


def test_nd_positive_constants_fixed_point():
    kappa, delta0, B = bd.nd_positive_constants(4, 1.0, 1.0)
    r = math.sqrt(8.25)
    assert kappa == pytest.approx(1.5, rel=1e-15)
    assert delta0 == pytest.approx((r - 1.5) / 2.0, rel=1e-13)
    assert B == pytest.approx((3.5 - r) / 24.0, rel=1e-13)
    assert abs(delta0 * delta0 + kappa * delta0 - kappa) <= 1e-12 * (1.0 + kappa)
    with pytest.raises(ValueError):
        bd.nd_positive_constants(2, 1.0, 1.0)


def test_nd_positive_constants_kappa_scan():
    n, sigma_2 = 4, 1.0
    for kappa_target in np.logspace(-6, 6, 49):
        sigma_v = math.sqrt(kappa_target * sigma_2 * n * (n - 2) / (4.0 * (n - 1)))
        kappa, delta0, B = bd.nd_positive_constants(n, sigma_v, sigma_2)
        assert kappa == pytest.approx(kappa_target, rel=1e-12)
        assert 0.0 < delta0 < 1.0
        assert abs(delta0 * delta0 + kappa * delta0 - kappa) <= 1e-12 * (1.0 + kappa)
        lhs = delta0 * delta0 / (2.0 * (n - 1) ** 2 * sigma_v * sigma_v)
        rhs = 2.0 * (1.0 - delta0) / (sigma_2 * n * (n - 1) * (n - 2))
        assert lhs == pytest.approx(B, rel=1e-12)
        assert rhs == pytest.approx(B, rel=1e-12)


def test_q_sign_bounds():
    # the q-sign table's bounds: the two-sided shape with unit constants
    lo, up = bd.p2_two_sided(1e-3, 1.0, 1.0, 1.0)
    assert lo == 0.0 and up == 0.0
    sig = 1.2
    # the q-sign table's limit column: constant-free, -1/(2 sigma_v^2)
    limit = bd.p2_log_diagnostics(0.1, sig, 1.0, 1.0)[2]
    assert limit == pytest.approx(-1.0 / (2 * sig * sig), rel=1e-15)


def test_q_sigma_v_s4_single_level():
    # sigma_v^2 = t1^2 lambda1^2 N1 / (|S^4| Q0^2) for a single Paneitz level
    model = sp.s4_paneitz_spectrum(1)
    t1, Q0 = 0.3, 2.0
    sch = sp.make_explicit([t1], indexing=Indexing.PER_EIGENFUNCTION)
    spec = RandomFieldSpec(model, sch, FieldKind.V, reference_curvature=Q0)
    dummy = np.zeros((3, 5))
    got = fl.variance_summary(spec, dummy).sigma2_sup
    expect = t1 * t1 * 24.0**2 * 5.0 / (sp.SPHERE4_VOLUME * Q0 * Q0)
    assert got == pytest.approx(expect, rel=1e-13)
