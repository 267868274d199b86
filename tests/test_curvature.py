import math

import numpy as np
import pytest

from randcurv import curvature as cv
from randcurv import fields as fl
from randcurv import spectral as sp
from randcurv.curvature import DeviationMode
from randcurv.fields import FieldKind, FieldSample, RandomFieldSpec
from randcurv.grids import fibonacci_sphere


def synthetic_sample(f, h, g=None):
    return FieldSample(
        seed=0,
        draw_index=0,
        gaussians=np.zeros(0),
        grid=None,
        values_f=np.asarray(f, dtype=float),
        values_h=np.asarray(h, dtype=float),
        values_gradsq=None if g is None else np.asarray(g, dtype=float),
    )


def test_scalar_2d_basics():
    s = synthetic_sample([0.0, 0.0], [0.0, 0.0])
    out = cv.scalar_curvature_2d(1.0, s, 0.3)
    np.testing.assert_array_equal(out.values, [1.0, 1.0])
    # R0 = 1, h = 2, a = 1: bracket is -1, curvature negative
    s2 = synthetic_sample([0.4], [2.0])
    out2 = cv.scalar_curvature_2d(1.0, s2, 1.0)
    assert out2.values[0] == pytest.approx(-math.exp(-0.4))
    assert out2.sign[0] == -1


def test_sign_identity_random():
    rng = np.random.default_rng(4)
    f = rng.normal(size=200)
    h = rng.normal(size=200) * 3
    g = rng.chisquare(2, size=200)
    s = synthetic_sample(f, h, g)
    for n, a in ((2, 0.7), (3, 0.4), (5, 0.2)):
        out = cv.scalar_curvature_nd(1.0, s, a, n)
        np.testing.assert_array_equal(out.sign, np.sign(out.values))
    outq = cv.q_curvature(3.0, s, 0.6, 4)
    np.testing.assert_array_equal(outq.sign, np.sign(outq.values))


def test_nd_reduces_to_2d_bitwise():
    rng = np.random.default_rng(7)
    s = synthetic_sample(rng.normal(size=64), rng.normal(size=64), rng.chisquare(2, size=64))
    a = 0.37
    v2 = cv.scalar_curvature_2d(2.0, s, a)
    vn = cv.scalar_curvature_nd(2.0, s, a, 2)
    assert np.array_equal(v2.values, vn.values)
    assert np.array_equal(v2.sign, vn.sign)


def test_nd_gradient_term_is_nonpositive():
    rng = np.random.default_rng(9)
    s = synthetic_sample(rng.normal(size=50), rng.normal(size=50), rng.chisquare(2, size=50))
    a, n, R0 = 0.3, 4, 1.0
    out = cv.scalar_curvature_nd(R0, s, a, n)
    bracket = out.values * np.exp(a * s.values_f)
    upper = R0 - a * (n - 1) * s.values_h
    assert np.all(bracket <= upper + 1e-12)
    with pytest.raises(ValueError):
        cv.scalar_curvature_nd(R0, synthetic_sample([0.1], [0.2]), a, 3)


def test_bracket_monotone_in_amplitude():
    s = synthetic_sample([0.2], [1.5], [0.8])
    amps = np.linspace(0.05, 1.0, 12)
    for n in (2, 4):
        vals = []
        for a in amps:
            out = cv.scalar_curvature_nd(1.0, s, a, n)
            vals.append(float(out.values[0] * math.exp(a * 0.2)))
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_q_curvature_basics():
    zero = synthetic_sample([0.0], [0.0])
    assert cv.q_curvature(3.0, zero, 0.5, 4).values[0] == 3.0
    with pytest.raises(ValueError):
        cv.q_curvature(3.0, zero, 0.5, 3)
    # sign-change event over a grid is sup(h/Q0) > 1/a
    rng = np.random.default_rng(12)
    for trial in range(20):
        h = rng.normal(size=30) * 2.5
        s = synthetic_sample(np.zeros(30), h)
        a, Q0 = 0.6, 3.0
        out = cv.q_curvature(Q0, s, a, 4)
        changes = bool(np.any(out.values < 0)) and bool(np.any(out.values > 0))
        assert changes == (float(np.max(h / Q0)) > 1.0 / a)


def test_q_and_scalar_paths_share_sign_structure():
    rng = np.random.default_rng(3)
    s = synthetic_sample(rng.normal(size=40), rng.normal(size=40) * 4)
    a = 0.5
    q = cv.q_curvature(3.0, s, a, 4)
    r = cv.scalar_curvature_2d(3.0, s, a)
    np.testing.assert_array_equal(q.sign, r.sign)
    # values differ only in the prefactor exponent
    np.testing.assert_allclose(
        q.values * np.exp(4 * a * s.values_f), r.values * np.exp(a * s.values_f), rtol=1e-12
    )


def test_expected_volume_exact_and_symmetry():
    spec12 = sp.sphere2_spectrum(12)
    sch = sp.make_sphere_normalized(8.0, 12)
    spec = RandomFieldSpec(spec12, sch, FieldKind.F)
    g = fibonacci_sphere(4096)
    assert cv.expected_volume(spec, 0.0, 2, g) == 4.0 * math.pi
    lam = spec12.eigenvalues
    sigma_f2 = float(np.sum(sch.values / lam**2))
    for a in (0.1, 0.5):
        expect = 4.0 * math.pi * math.exp(a * a * sigma_f2 / 2.0)
        assert cv.expected_volume(spec, a, 2, g) == pytest.approx(expect, rel=1e-12)
    vols = [cv.expected_volume(spec, a, 2, g) for a in (0.0, 0.2, 0.4, 0.8)]
    assert all(x < y for x, y in zip(vols, vols[1:]))
    assert cv.expected_volume(spec, -0.3, 2, g) == cv.expected_volume(spec, 0.3, 2, g)


def test_expected_volume_against_mc():
    spec12 = sp.sphere2_spectrum(12)
    sch = sp.make_sphere_normalized(8.0, 12)
    spec = RandomFieldSpec(spec12, sch, FieldKind.F)
    g = fibonacci_sphere(256)
    a, n = 0.4, 2
    smp = fl.SphereSampler(spec, g)
    F, _ = smp.sample_block(2025, np.arange(4000))
    vols = np.exp((n * a / 2.0) * F) @ g.weights
    se = vols.std(ddof=1) / math.sqrt(len(vols))
    assert abs(vols.mean() - cv.expected_volume(spec, a, n, g)) < 3 * se


def test_deviation_scalar_exact_and_linear():
    zero = np.zeros(2)
    d0 = cv.deviation_field(zero, zero, 1.0, 0.3, 2, DeviationMode.SCALAR_2D)
    np.testing.assert_array_equal(d0.exact, [0.0, 0.0])
    np.testing.assert_array_equal(d0.linear, [0.0, 0.0])
    # R0 = 0 (flat torus): exact deviation is -a h e^{-af}, bit for bit
    rng = np.random.default_rng(5)
    f, h = rng.normal(size=100), rng.normal(size=100)
    a = 0.25
    d = cv.deviation_field(f, h, 0.0, a, 2, DeviationMode.SCALAR_2D)
    np.testing.assert_array_equal(d.exact, -a * h * np.exp(-a * f))
    # w-identity: linearization is exactly -a (h + R0 f)
    d1 = cv.deviation_field(f, h, 2.0, a, 2, DeviationMode.SCALAR_2D)
    np.testing.assert_array_equal(d1.linear, -a * (h + 2.0 * f))


def test_deviation_q_mode():
    rng = np.random.default_rng(6)
    f, h = rng.normal(size=50) * 0.2, rng.normal(size=50)
    s = synthetic_sample(f, h)
    a, n, Q0 = 0.1, 4, 3.0
    d = cv.deviation_field(f, h, Q0, a, n, DeviationMode.Q)
    np.testing.assert_allclose(
        d.exact, Q0 * (np.exp(-n * a * f) - 1.0) - a * h * np.exp(-n * a * f), atol=1e-13
    )
    np.testing.assert_array_equal(d.linear, -a * (h + n * Q0 * f))
    # exact deviation agrees with the transformed-curvature difference
    q1 = cv.q_curvature(Q0, s, a, n)
    np.testing.assert_allclose(d.exact, q1.values - Q0, atol=1e-12)
    with pytest.raises(ValueError):
        cv.deviation_field(f, h, Q0, a, 3, DeviationMode.Q)
    with pytest.raises(ValueError):
        cv.deviation_field(f, h, Q0, a, 4, DeviationMode.SCALAR_2D)


def test_linearization_error_is_second_order():
    rng = np.random.default_rng(8)
    f, h = rng.normal(size=200), rng.normal(size=200)

    def gap(a):
        d = cv.deviation_field(f, h, 1.0, a, 2, DeviationMode.SCALAR_2D)
        return float(np.max(np.abs(d.exact - d.linear)))

    ratio = gap(0.02) / gap(0.01)
    assert ratio == pytest.approx(4.0, rel=0.2)
