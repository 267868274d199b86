"""Acceptance gate: one test per criterion, each with its stated tolerance
and runtime budget, so a verbose run prints one pass/fail line per criterion.

The Monte Carlo criteria pin their seeds; the exact-identity criteria assert
at machine-level tolerances."""

import math
import time
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from randcurv import bounds
from randcurv import excursion as ex
from randcurv.cli import main
from randcurv.curvature import expected_volume, q_round_s4
from randcurv.fields import (
    FieldKind,
    RandomFieldSpec,
    SphereSampler,
    covariance_h_sphere,
    heat_variance,
    make_sampler,
    variance_summary,
)
from randcurv.grids import fibonacci_sphere, torus_grid
from randcurv.reports import payload_lines
from randcurv.spectral import (
    make_explicit,
    make_sphere_normalized,
    s4_paneitz_spectrum,
    sphere2_spectrum,
    torus2_spectrum,
)

SPHERE = sphere2_spectrum(12)
SCHEME = make_sphere_normalized(8.0, 12)
H_SPEC = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)


def test_criterion_01_unit_variance_of_single_point_samples():
    start = time.perf_counter()
    sampler = make_sampler(H_SPEC, np.array([[0.0, 0.0, 1.0]]))
    n = 100_000
    sq_sum = 0.0
    for first in range(0, n, 20_000):
        _, H = sampler.sample_block(11, range(first, min(first + 20_000, n)))
        sq_sum += float((H[:, 0] ** 2).sum())
    variance = sq_sum / n
    se = math.sqrt(2.0 / n)
    elapsed = time.perf_counter() - start
    assert abs(variance - 1.0) <= 3.0 * se, f"variance {variance} outside 1 +- {3 * se}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_02_pair_covariances_match_kernel_and_brute_force():
    points = fibonacci_sphere(20).xyz
    sampler = SphereSampler(H_SPEC, points)
    pairs = [(2 * i, 2 * i + 1) for i in range(10)]
    cosines = np.array([float(points[i] @ points[j]) for i, j in pairs])
    distances = np.arccos(np.clip(cosines, -1.0, 1.0))
    kernel = covariance_h_sphere(H_SPEC, distances)

    # independent route: direct harmonic summation over the basis columns
    Y = sampler.design
    wh_sq = sampler.wh**2
    brute = np.array([float((Y[i] * wh_sq) @ Y[j]) for i, j in pairs])
    assert np.max(np.abs(kernel - brute)) <= 1e-10

    n = 100_000
    prod_sum = np.zeros(10)
    prod_sq_sum = np.zeros(10)
    for first in range(0, n, 20_000):
        _, H = sampler.sample_block(21, range(first, min(first + 20_000, n)))
        prods = np.stack([H[:, i] * H[:, j] for i, j in pairs], axis=1)
        prod_sum += prods.sum(axis=0)
        prod_sq_sum += (prods**2).sum(axis=0)
    mean = prod_sum / n
    se = np.sqrt((prod_sq_sum / n - mean**2) / (n - 1))
    assert np.all(np.abs(mean - kernel) <= 3.0 * se), (
        f"max z = {np.max(np.abs(mean - kernel) / se):.2f}"
    )


def test_criterion_03_second_derivative_constant_matches_finite_difference():
    step = 1e-4
    r0, r_step = covariance_h_sphere(H_SPEC, np.array([0.0, step]))
    finite_difference = 2.0 * (r0 - r_step) / step**2
    constant = ex.at_metric_constant(SCHEME)
    assert constant == pytest.approx(finite_difference, rel=1e-6)


def test_criterion_04_euler_characteristic_curve_tracks_prediction():
    start = time.perf_counter()
    thresholds = np.linspace(1.0, 3.5, 20)
    curve = ex.euler_curve(H_SPEC, thresholds, 2000, 12345)
    z = (curve.empirical_mean - curve.predicted) / curve.empirical_se
    hits = int((np.abs(z) <= 3.0).sum())
    elapsed = time.perf_counter() - start
    assert hits >= 18, f"only {hits}/20 thresholds within 3 SE (max |z| = {np.max(np.abs(z)):.2f})"
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_05_sign_change_probability_factor_two_and_sandwich():
    start = time.perf_counter()
    v_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.V, reference_curvature=1.0)
    amplitudes = [1.0 / 2.5, 1.0 / 3.0, 1.0 / 3.5]
    study = ex.p2_curve(v_spec, amplitudes, fibonacci_sphere(1024), 100_000, 2026)
    sigma_v = study.sigma_v
    c2_upper = study.e_sup / sigma_v**2
    for report, a in zip(study.reports, amplitudes):
        prediction = ex.sphere_p2_prediction(SCHEME, a).value
        ratio = report.estimate / prediction
        assert 0.5 <= ratio <= 2.0, f"1/a={1/a}: MC/prediction = {ratio:.3f}"
        lower = bounds.gaussian_tail(report.threshold / sigma_v)
        upper = bounds.p2_two_sided(a, sigma_v, 1.0, c2_upper)[1]
        three_se = 3.0 * report.standard_error
        assert lower <= report.estimate + three_se
        assert report.estimate - three_se <= upper
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f}s, budget 900s"


def test_criterion_06_volume_identity_mc_and_exact_zero_amplitude():
    f_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.F)
    assert expected_volume(f_spec, 0.0, 2, fibonacci_sphere(4096)) == 4.0 * math.pi

    grid = fibonacci_sphere(1024)
    sampler = make_sampler(f_spec, grid)
    n = 10_000
    for a in (0.1, 0.5):
        total = 0.0
        total_sq = 0.0
        for first in range(0, n, 2000):
            F, _ = sampler.sample_block(31, range(first, min(first + 2000, n)))
            volumes = np.exp(a * F) @ grid.weights  # n a f / 2 with n = 2
            total += float(volumes.sum())
            total_sq += float((volumes**2).sum())
        mean = total / n
        se = math.sqrt((total_sq / n - mean**2) / (n - 1))
        expect = expected_volume(f_spec, a, 2, grid)
        assert abs(mean - expect) <= 3.0 * se, f"a={a}: z = {(mean - expect) / se:.2f}"


def test_criterion_07_sup_norm_log_ratio_on_flat_torus():
    start = time.perf_counter()
    values = np.zeros(11)
    values[10] = 0.5
    spec = RandomFieldSpec(
        torus2_spectrum(11), make_explicit(values), FieldKind.H,
        reference_curvature=0.0,
    )
    grid = torus_grid(16)
    sigma_h = math.sqrt(variance_summary(spec, grid).sigma2_sup)
    combos = [
        (0.05, 3.0, 1_000_000),
        (0.10, 3.0, 1_000_000),
        (0.05, 4.0, 20_000_000),
        (0.10, 4.0, 20_000_000),
    ]
    for u, u_over_a, n in combos:
        a = u / u_over_a
        report = ex.estimate_linf(spec, a, u, grid, n, 2026)
        assert report.estimate > 0.0, f"no events at u={u}, u/a={u_over_a}"
        ratio = math.log(report.estimate) / bounds.linf_log_asymptote(u, a, sigma_h)
        assert 0.8 <= ratio <= 1.25, f"u={u}, u/a={u_over_a}: ratio = {ratio:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"took {elapsed:.1f}s, budget 900s"


def test_criterion_08_heat_kernel_variance_asymptotes():
    small_T = 0.01
    sigma_sq = heat_variance(SPHERE, small_T).sup
    small = bounds.heat_sigma_small_T(small_T, 2, 1.0)
    assert abs(sigma_sq / small - 1.0) < 0.05

    for large_T in (6.0, 8.0):
        sigma_sq = heat_variance(SPHERE, large_T).sup
        _, asymptote = bounds.heat_sigma_large_T(SPHERE, np.array([1.0]), large_T)
        assert abs(sigma_sq / asymptote - 1.0) < 0.01


def test_criterion_09_dimension_constants_solve_their_identities():
    n = 4
    # the two exponent expressions are evaluated at the exact root in 60-digit
    # arithmetic: recomposing 2 (1 - delta0) from the double-precision root is
    # ill-conditioned (condition number ~ kappa), so only the high-precision
    # route can resolve the identity at the stated tolerance for large kappa
    getcontext().prec = 60
    for kappa_target in np.logspace(-6.0, 6.0, 49):
        sigma_v = math.sqrt(kappa_target / 1.5)
        kappa, delta0, B = bounds.nd_positive_constants(n, sigma_v, 1.0)
        assert abs(kappa - kappa_target) <= 1e-12 * kappa_target
        assert 0.0 < delta0 < 1.0
        quadratic = delta0**2 + kappa * delta0 - kappa
        scale = delta0**2 + kappa * delta0 + kappa
        assert abs(quadratic) <= 1e-12 * scale

        kd = 4 * Decimal(sigma_v) ** 2 * (n - 1) / (n * (n - 2))
        root = 2 * kd / ((kd * (kd + 4)).sqrt() + kd)
        exponent_neg = root**2 / (2 * (n - 1) ** 2 * Decimal(sigma_v) ** 2)
        exponent_pos = 2 * (1 - root) / (n * (n - 1) * (n - 2))
        tol = Decimal("1e-12")
        assert abs(Decimal(delta0) / root - 1) < tol
        assert abs(Decimal(B) / exponent_neg - 1) < tol
        assert abs(Decimal(B) / exponent_pos - 1) < tol


def test_criterion_10_second_order_matrices_and_degeneracy():
    C1, pd1 = ex.attainability_matrix(make_explicit([1.0]))
    want1 = np.zeros((5, 5))
    want1[0, 0] = want1[1, 1] = 1.0
    want1[2:, 2:] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    assert np.array_equal(C1, want1) and pd1 is False

    C2m, pd2 = ex.attainability_matrix(make_explicit([0.0, 1.0]))
    want2 = np.zeros((5, 5))
    want2[0, 0] = want2[1, 1] = 3.0
    want2[2:, 2:] = [[12.0, 6.0, 0.0], [6.0, 12.0, 0.0], [0.0, 0.0, 3.0]]
    assert np.array_equal(C2m, want2) and pd2 is True

    assert ex.attainability_matrix(SCHEME)[1] is True

    for scheme, expect in (
        (make_explicit([1.0]), True),
        (make_explicit([0.0, 1.0]), False),
        (make_explicit([0.0, 0.5, 0.5]), True),
        (SCHEME, True),
    ):
        assert ex.degeneracy_check(scheme) is expect
        spec = RandomFieldSpec(sphere2_spectrum(scheme.truncation), scheme, FieldKind.H)
        r0, r_pi = covariance_h_sphere(spec, np.array([0.0, math.pi]))
        # antipodal confirmation: even-only schemes repeat their variance at
        # distance pi, any odd weight strictly lowers it
        if expect:
            assert r_pi < r0 - 1e-9
        else:
            assert r_pi == pytest.approx(r0, rel=1e-12)


def test_criterion_11_fourth_order_spectrum_and_sign_limit():
    model = s4_paneitz_spectrum(50)
    m = np.arange(1, 51, dtype=float)
    assert np.array_equal(model.eigenvalues, m * (m + 1) * (m + 2) * (m + 3))
    counts = (m + 1) * (m + 2) * (2 * m + 3) / 6
    assert np.array_equal(model.multiplicities.astype(float), counts)

    assert q_round_s4() == 3.0

    sigma_v = 1.0 / 3.0  # unit-variance single level over the constant 3
    _, _, limit = bounds.p2_log_diagnostics(1.0, sigma_v, 1.0, 1.0)
    assert limit == -4.5
    low_2, up_2, _ = bounds.p2_log_diagnostics(1e-2, sigma_v, 1.0, 1.0)
    low_3, up_3, _ = bounds.p2_log_diagnostics(1e-3, sigma_v, 1.0, 1.0)
    for coarse, fine in ((low_2, low_3), (up_2, up_3)):
        assert abs(fine - coarse) / abs(fine) < 0.05
        assert abs(fine / limit - 1.0) < 0.05
    lower, upper = bounds.p2_two_sided(1e-3, sigma_v, 1.0, 1.0)
    assert 0.0 <= lower <= upper


def test_criterion_12_worker_count_leaves_csv_payload_identical(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[common]\n"
        "geometry = sphere\nscheme = normalized\ns = 8.0\ntruncation = 12\n"
        "seed = 7\n"
        "[p2]\ngrid = fibonacci:64\namplitudes = 0.4, 0.25\nn_samples = 5000\n"
        "[euler]\ngrid = icosphere:3\nthresholds = 1.5, 2.5\nn_samples = 300\n"
    )
    for command in ("p2", "euler"):
        payloads = []
        for workers in ("1", "8"):
            out = tmp_path / f"{command}_w{workers}"
            assert main([
                command, "--config", str(config),
                "--workers", workers, "--out", str(out),
            ]) == 0
            (csv_path,) = sorted(Path(out).glob("*.csv"))
            payloads.append(payload_lines(csv_path))
        assert payloads[0] == payloads[1], f"{command}: payload differs across workers"
