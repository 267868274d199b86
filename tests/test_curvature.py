import math

import numpy as np
import pytest

from randcurv import curvature as cv
from randcurv import fields as fl
from randcurv import spectral as sp
from randcurv.fields import FieldKind, RandomFieldSpec
from randcurv.grids import fibonacci_sphere


def test_scalar_2d_basics():
    zero = np.zeros(2)
    np.testing.assert_array_equal(cv.scalar_curvature_2d(1.0, zero, zero, 0.3), [1.0, 1.0])
    # R0 = 1, h = 2, a = 1: bracket is -1, curvature negative
    out = cv.scalar_curvature_2d(1.0, np.array([0.4]), np.array([2.0]), 1.0)
    assert out[0] == pytest.approx(-math.exp(-0.4))
    assert out[0] < 0
    # R0, f and h broadcast
    out = cv.scalar_curvature_2d(np.array([[1.0], [2.0]]), np.array([0.1, 0.2]), 0.5, 0.3)
    assert out.shape == (2, 2)
    assert out[1, 0] == math.exp(-0.3 * 0.1) * (2.0 - 0.3 * 0.5)


def test_bracket_monotone_in_amplitude():
    f, h = np.array([0.2]), np.array([1.5])
    amps = np.linspace(0.05, 1.0, 12)
    vals = [float(cv.scalar_curvature_2d(1.0, f, h, a)[0] * math.exp(a * 0.2)) for a in amps]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def q_curvature(Q0, f, h, a, n):
    """Q1 = Q0 + (Q1 - Q0), the exact fourth-order deviation in even n > 2."""
    return Q0 + cv.deviation_field(f, h, Q0, a, n)


def test_q_curvature_basics():
    zero = np.zeros(1)
    assert q_curvature(3.0, zero, zero, 0.5, 4)[0] == 3.0
    with pytest.raises(ValueError):
        q_curvature(3.0, zero, zero, 0.5, 3)
    # sign-change event over a grid is sup(h/Q0) > 1/a
    rng = np.random.default_rng(12)
    for trial in range(20):
        h = rng.normal(size=30) * 2.5
        a, Q0 = 0.6, 3.0
        out = q_curvature(Q0, np.zeros(30), h, a, 4)
        changes = bool(np.any(out < 0)) and bool(np.any(out > 0))
        assert changes == (float(np.max(h / Q0)) > 1.0 / a)


def test_q_and_scalar_paths_share_sign_structure():
    rng = np.random.default_rng(3)
    f, h = rng.normal(size=40), rng.normal(size=40) * 4
    a = 0.5
    q = q_curvature(3.0, f, h, a, 4)
    r = cv.scalar_curvature_2d(3.0, f, h, a)
    np.testing.assert_array_equal(np.sign(q), np.sign(r))
    # values differ only in the prefactor exponent
    np.testing.assert_allclose(q * np.exp(4 * a * f), r * np.exp(a * f), rtol=1e-12)


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
    F, _ = smp.sample_block(2025, range(4000))
    vols = np.exp((n * a / 2.0) * F) @ g.weights
    se = vols.std(ddof=1) / math.sqrt(len(vols))
    assert abs(vols.mean() - cv.expected_volume(spec, a, n, g)) < 3 * se


def test_deviation_scalar_exact():
    zero = np.zeros(2)
    d0 = cv.deviation_field(zero, zero, 1.0, 0.3, 2)
    np.testing.assert_array_equal(d0, [0.0, 0.0])
    # R0 = 0 (flat torus): exact deviation is -a h e^{-af}, bit for bit
    rng = np.random.default_rng(5)
    f, h = rng.normal(size=100), rng.normal(size=100)
    a = 0.25
    d = cv.deviation_field(f, h, 0.0, a, 2)
    np.testing.assert_array_equal(d, -a * h * np.exp(-a * f))
    # R0 (e^{-af} - 1) - a h e^{-af}, bit for bit in its expm1 form
    d1 = cv.deviation_field(f, h, 2.0, a, 2)
    np.testing.assert_array_equal(d1, 2.0 * np.expm1(-a * f) - a * h * np.exp(-a * f))


def test_deviation_q_mode():
    rng = np.random.default_rng(6)
    f, h = rng.normal(size=50) * 0.2, rng.normal(size=50)
    a, n, Q0 = 0.1, 4, 3.0
    d = cv.deviation_field(f, h, Q0, a, n)
    np.testing.assert_array_equal(d, Q0 * np.expm1(-n * a * f) - a * h * np.exp(-n * a * f))
    np.testing.assert_allclose(
        d, Q0 * (np.exp(-n * a * f) - 1.0) - a * h * np.exp(-n * a * f), atol=1e-13
    )
    d6 = cv.deviation_field(f, h, Q0, a, 6)
    np.testing.assert_array_equal(d6, Q0 * np.expm1(-6 * a * f) - a * h * np.exp(-6 * a * f))
    # odd and nonpositive dimensions have neither law
    for bad in (-2, 0, 1, 3, 5):
        with pytest.raises(ValueError, match=f"dimension {bad}"):
            cv.deviation_field(f, h, Q0, a, bad)
    # at n = 2 the fourth-order form at (a, Q0) is half the surface law at
    # (2a, 2 Q0), bit for bit: doubling is exact
    for ref in (Q0, rng.normal(size=50)):
        q2 = ref * np.expm1(-2 * a * f) - a * h * np.exp(-2 * a * f)
        np.testing.assert_array_equal(cv.deviation_field(f, h, 2 * ref, 2 * a, 2), 2 * q2)


def test_linearization_error_is_second_order():
    rng = np.random.default_rng(8)
    f, h = rng.normal(size=200), rng.normal(size=200)

    def gap(a):
        # the small-a linearization of the deviation is -a (h + R0 f)
        d = cv.deviation_field(f, h, 1.0, a, 2)
        return float(np.max(np.abs(d - (-a * (h + 1.0 * f)))))

    ratio = gap(0.02) / gap(0.01)
    assert ratio == pytest.approx(4.0, rel=0.2)
