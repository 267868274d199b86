import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.special

from randcurv import spectral as sp
from randcurv.spectral import Geometry, Indexing


def test_sphere_level_values():
    assert sp.sphere_level(1) == (2, 3)
    assert sp.sphere_level(2) == (6, 5)
    assert sp.sphere_level(3) == (12, 7)
    assert sp.sphere_level(10) == (110, 21)
    with pytest.raises(ValueError):
        sp.sphere_level(0)


def test_sphere_level_on_an_array_is_the_spectrum():
    model = sp.sphere2_spectrum(20)
    eig, mult = sp.sphere_level(np.arange(1, 21))
    np.testing.assert_array_equal(eig, model.eigenvalues)
    np.testing.assert_array_equal(mult, model.multiplicities)
    with pytest.raises(ValueError, match="level index"):
        sp.sphere_level(np.arange(0, 3))


def test_paneitz_level_low_degrees():
    assert sp.paneitz_level_s4(1) == (24, 5)
    assert sp.paneitz_level_s4(2) == (120, 14)
    assert sp.paneitz_level_s4(3) == (360, 30)


def test_paneitz_identity_against_combinatorial_oracle():
    # multiplicity oracle: dimension of degree-m harmonics on S^4 as a
    # difference of monomial counts; eigenvalue oracle: L(L+2), L = m(m+3)
    for m in range(1, 51):
        eig, mult = sp.paneitz_level_s4(m)
        oracle_mult = math.comb(m + 4, 4) - math.comb(m + 2, 4)
        L = m * (m + 3)
        assert mult == oracle_mult
        assert eig == L * (L + 2)


def test_paneitz_level_on_an_array_is_the_spectrum():
    m = np.arange(1, 61)
    eig, mult = sp.paneitz_level_s4(m)
    assert list(zip(eig.tolist(), mult.tolist())) == [sp.paneitz_level_s4(int(k)) for k in m]
    model = sp.s4_paneitz_spectrum(60)
    np.testing.assert_array_equal(eig, model.eigenvalues)
    np.testing.assert_array_equal(mult, model.multiplicities)
    with pytest.raises(ValueError, match="level index"):
        sp.paneitz_level_s4(np.arange(0, 3))


def test_paneitz_level_array_refuses_an_eigenvalue_past_int64():
    # 55107 * 55108 * 55109 * 55110 < 2^63 <= 55108 * 55109 * 55110 * 55111
    top = np.array([55107])
    assert sp.paneitz_level_s4(top)[0].tolist() == [sp.paneitz_level_s4(55107)[0]]
    with pytest.raises(ValueError, match="overflows"):
        sp.paneitz_level_s4(np.array([3, 55108]))
    # the int path has Python's unbounded integers
    assert sp.paneitz_level_s4(55108)[0] == 55108 * 55109 * 55110 * 55111


def _level_loop_power_tail_s4(s, M):
    # one paneitz_level_s4 call per level: the 4000 levels past M summed in
    # order, then the geometric remainder from the last two terms
    terms = []
    for m in range(M + 1, M + 4002):
        eig, mult = sp.paneitz_level_s4(m)
        terms.append(mult * eig ** (2.0 - 2.0 * s))
    total = 0.0
    for t in terms[:-1]:
        total += t
    ratio = terms[-1] / terms[-2]
    return total + terms[-1] / (1.0 - ratio)


@pytest.mark.parametrize("s", [1.6, 2.0, 3.0, 4.5, 6.0])
@pytest.mark.parametrize("M", [1, 5, 12, 40])
def test_s4_power_tail_window_is_the_level_loop(s, M):
    assert sp._power_tail_s4(s, M) == pytest.approx(_level_loop_power_tail_s4(s, M), rel=1e-13)


def _recorded_tail(scheme, model, T):
    """The tail a heat-kernel scheme recorded, from its tail fraction and the
    head sum of its truncated levels."""
    M = scheme.truncation
    head = float(np.sum(model.multiplicities[:M] * np.exp(-model.eigenvalues[:M] * T)))
    frac = scheme.tail_fraction
    return frac * head / (1.0 - frac)


def _exact_s4_heat_tail(T, M):
    terms, m = [], M + 1
    while True:
        lam, n = sp.paneitz_level_s4(m)
        terms.append(n * math.exp(-lam * T))
        if lam * T > 50 and terms[-1] < 1e-18 * math.fsum(terms):
            return math.fsum(terms)
        m += 1


def test_s4_heat_tail_is_a_bound_within_twice_the_exact_tail():
    ratios = {}
    for M in (1, 2, 5, 12, 40):
        model = sp.s4_paneitz_spectrum(M)
        for T in (1e-7, 1e-5, 1e-3, 0.05, 0.5, 2.0):
            if sp.paneitz_level_s4(M + 1)[0] * T > 600:
                continue  # the tail underflows double precision
            scheme = sp.make_heat_kernel(T, model, M, tail_tol=None)
            ratios[M, T] = _recorded_tail(scheme, model, T) / _exact_s4_heat_tail(T, M)
    assert len(ratios) >= 20
    assert all(1 - 1e-9 <= r <= 2.0 for r in ratios.values()), ratios


def _exact_s2_heat_tail(T, M):
    terms, m = [], M + 1
    while True:
        lam, n = sp.sphere_level(m)
        terms.append(n * math.exp(-lam * T))
        if lam * T > 50 and terms[-1] < 1e-18 * math.fsum(terms):
            return math.fsum(terms)
        m += 1


def test_s2_heat_tail_is_a_bound_within_twice_the_exact_tail():
    ratios = {}
    for M in (1, 2, 5, 7, 13, 40):
        model = sp.sphere2_spectrum(M)
        for T in (1e-5, 1e-3, 0.05, 0.1, 0.3, 2.0):
            if sp.sphere_level(M + 1)[0] * T > 600:
                continue  # the tail underflows double precision
            scheme = sp.make_heat_kernel(T, model, M, tail_tol=None)
            ratios[M, T] = _recorded_tail(scheme, model, T) / _exact_s2_heat_tail(T, M)
    assert len(ratios) >= 30
    assert all(1 - 1e-9 <= r <= 2.0 for r in ratios.values()), ratios
    # an exact tail fraction of 2.6e-9 passes the default 1e-8 tolerance
    assert sp.make_heat_kernel(0.3, sp.sphere2_spectrum(7), 7).tail_fraction < 1e-8


@pytest.mark.parametrize("M", [3, 10])
@pytest.mark.parametrize("T", [0.05, 0.3, 1.0, 3.0])
def test_torus_heat_tail_is_the_lattice_sum(M, T):
    model = sp.torus2_spectrum(M)
    e_max = model.eigenvalues[-1]
    r = int(math.sqrt(e_max + 80.0 / T)) + 2
    k1, k2 = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    n2 = (k1**2 + k2**2).astype(float).ravel()
    exact = math.fsum(np.exp(-n2[n2 > e_max] * T).tolist())
    recorded = _recorded_tail(sp.make_heat_kernel(T, model, M, tail_tol=None), model, T)
    assert recorded == pytest.approx(exact, rel=1e-9)


def test_torus_heat_tail_peaks_in_bounded_blocks():
    # at T = 1e-5 the tail's lattice disc has radius 2000 (16 million
    # points); laid out at once it took 765 MiB before the tail was refused
    model = sp.torus2_spectrum(11)
    tracemalloc.start()
    try:
        scheme = sp.make_heat_kernel(1e-5, model, 11, tail_tol=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scheme.tail_fraction > 0.999
    assert peak <= 32 * 2**20


def test_torus_heat_tail_refuses_a_disc_over_its_bound_at_once():
    # at T = 1e-7 the disc would hold ~1.3e9 points, minutes of summing
    model = sp.torus2_spectrum(11)
    start = time.perf_counter()
    for tail_tol in (None, sp.DEFAULT_TAIL_TOL):
        with pytest.raises(ValueError, match=r"T = 1e-07.*over the bound of 16777216"):
            sp.make_heat_kernel(1e-7, model, 11, tail_tol=tail_tol)
    assert time.perf_counter() - start < 1.0


def test_torus_levels_match_lattice_count():
    spec = sp.torus2_spectrum(12)
    r = 8
    k1, k2 = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    norms = (k1**2 + k2**2).ravel()
    for e, mult in zip(spec.eigenvalues, spec.multiplicities):
        assert mult == int(np.sum(norms == e))


def test_torus_mode_representatives():
    spec = sp.torus2_spectrum(8)
    for e, reps, mult in zip(spec.eigenvalues, spec.torus_modes, spec.multiplicities):
        assert mult == 2 * reps.shape[0]
        for k1, k2 in reps:
            assert k1 * k1 + k2 * k2 == e
            assert k1 > 0 or (k1 == 0 and k2 > 0)
        as_tuples = [tuple(row) for row in reps]
        assert as_tuples == sorted(as_tuples)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        sp.SpectrumModel(Geometry.SPHERE2, 2, 4 * math.pi, np.array([2.0, 2.0]), np.array([3, 5]))
    with pytest.raises(ValueError):
        sp.SpectrumModel(Geometry.SPHERE2, 2, 4 * math.pi, np.array([0.0, 2.0]), np.array([1, 3]))
    with pytest.raises(ValueError):
        sp.SpectrumModel(Geometry.SPHERE2, 2, 4 * math.pi, np.array([2.0]), np.array([0]))


def test_zeta_against_scipy():
    # the normalized scheme's K = 1/zeta(s), summed without importing scipy.special
    for s in (1.0001, 1.5, 2.0, 3.0, 4.5, 8.0, 12.0, 30.0, 200.0):
        ref = float(scipy.special.zeta(s, 1.0))
        assert abs(sp._zeta(s) - ref) <= 8 * np.spacing(ref)


def test_sphere_normalized_mass_budget():
    for s, M in ((8.0, 12), (9.5, 10), (12.0, 8)):
        sch = sp.make_sphere_normalized(s, M)
        assert abs(sch.truncated_sum + sch.tail_fraction - 1.0) < 1e-8
        assert sch.indexing is Indexing.PER_EIGENSPACE
        ref_K = 1.0 / float(scipy.special.zeta(s, 1.0))
        assert abs(sch.normalization - ref_K) <= 1e-12 * ref_K


def test_sphere_normalized_rejects_heavy_tail():
    with pytest.raises(ValueError):
        sp.make_sphere_normalized(8.0, 4)
    # but an explicit opt-out records the estimate instead
    sch = sp.make_sphere_normalized(8.0, 4, tail_tol=None)
    assert sch.tail_fraction > 1e-8


def test_power_law_values_and_tail():
    spec = sp.sphere2_spectrum(40)
    sch = sp.make_power_law(3.0, spec, 40, tail_tol=None)
    assert np.allclose(sch.values, spec.eigenvalues ** (-3.0), rtol=0, atol=0)
    # oracle: extend the level-variance series far beyond the truncation
    m = np.arange(1.0, 100001.0)
    lam = m * (m + 1)
    terms = (2 * m + 1) * lam ** (2 - 2 * 3.0)
    head = float(np.sum(terms[:40]))
    far = float(np.sum(terms[40:]))
    true_frac = far / (head + far)
    assert sch.tail_fraction == pytest.approx(true_frac, rel=1e-3)
    assert sch.tail_fraction >= true_frac * (1 - 1e-6)


def test_power_law_divergent_tail_is_total():
    spec = sp.sphere2_spectrum(10)
    sch = sp.make_power_law(1.2, spec, 10, tail_tol=None)
    assert sch.tail_fraction == 1.0


def test_heat_kernel_values_and_tail():
    spec = sp.sphere2_spectrum(30)
    sch = sp.make_heat_kernel(0.3, spec, 30, tail_tol=None)
    lam = spec.eigenvalues
    assert np.allclose(sch.values, np.exp(-lam * 0.15) / lam, rtol=1e-15)
    m = np.arange(1.0, 3001.0)
    terms = (2 * m + 1) * np.exp(-m * (m + 1) * 0.3)
    far = float(np.sum(terms[30:]))
    head = float(np.sum(terms[:30]))
    true_frac = far / (head + far)
    assert sch.tail_fraction >= true_frac
    assert sch.tail_fraction < 1e-20


def _four_level_user_model():
    # levels 1, 2, 3, 4, one eigenfunction each, on two points
    return sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED, dimension=2, volume=1.0,
        eigenvalues=np.array([1.0, 2.0, 3.0, 4.0]), multiplicities=np.ones(4, dtype=int),
        points=np.array([[0.0], [1.0]]), eigenfunctions=np.ones((4, 2)),
    )


@pytest.mark.parametrize("make, param, term, rounded", [
    (sp.make_power_law, 0.5, lambda lam: lam ** (2.0 - 2.0 * 0.5), 0.9),
    (sp.make_heat_kernel, 0.01, lambda lam: math.exp(-0.01 * lam), 0.746),
], ids=["power", "heat"])
def test_user_model_tail_is_its_listed_levels_past_the_truncation(make, param, term, rounded):
    model = _four_level_user_model()
    sch = make(param, model, 1, tail_tol=None)
    terms = [term(lam) for lam in (1.0, 2.0, 3.0, 4.0)]
    assert sch.tail_fraction == pytest.approx(sum(terms[1:]) / sum(terms), rel=1e-15)
    assert round(sch.tail_fraction, 3) == rounded
    with pytest.raises(ValueError, match="tail fraction"):
        make(param, model, 1)
    # truncated at its level count, nothing is dropped
    assert make(param, model, 4).tail_fraction == 0.0


@pytest.mark.parametrize("build", [
    lambda M: sp.make_power_law(3.0, sp.sphere2_spectrum(12), M, tail_tol=None),
    lambda M: sp.make_heat_kernel(0.5, sp.sphere2_spectrum(12), M, tail_tol=None),
    lambda M: sp.make_sphere_normalized(8.0, M, tail_tol=None),
    sp.sphere2_spectrum,
    sp.torus2_spectrum,
    sp.s4_paneitz_spectrum,
], ids=["power", "heat", "normalized", "sphere2", "torus2", "s4"])
def test_a_fractional_truncation_is_refused(build):
    # int(12.7) would silently give the 12-level scheme, and 3.5 levels 4
    for M in (12.7, 5.9, 3.5, 12.0, np.float64(4.0)):
        with pytest.raises(TypeError):
            build(M)
    assert build(np.int64(12)) is not None
    for M in (0, -3):
        with pytest.raises(ValueError, match="need 1 <= truncation"):
            build(M)


def test_a_truncation_past_the_spectrum_is_refused():
    for make, param in ((sp.make_power_law, 3.0), (sp.make_heat_kernel, 0.5)):
        with pytest.raises(ValueError, match="need 1 <= truncation <= 12, got 13"):
            make(param, sp.sphere2_spectrum(12), 13)


def test_torus_power_tail_estimate():
    spec = sp.torus2_spectrum(20)
    sch = sp.make_power_law(2.5, spec, 20, tail_tol=None)
    # brute-force oracle over a large lattice window
    r = 400
    k1, k2 = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    n2 = (k1**2 + k2**2).astype(float).ravel()
    n2 = n2[(n2 > 0) & (n2 <= r * r)]
    e_max = spec.eigenvalues[19]
    head = float(np.sum(n2[n2 <= e_max] ** (2 - 5.0)))
    far = float(np.sum(n2[n2 > e_max] ** (2 - 5.0)))
    true_frac = far / (head + far)
    assert sch.tail_fraction == pytest.approx(true_frac, rel=5e-2)


def test_classify_regularity_thresholds():
    spec2 = sp.sphere2_spectrum(12)
    sch = sp.make_sphere_normalized(8.0, 12)
    # image field: continuous through k=2, not guaranteed at k=3
    assert sp.classify_regularity(sch, spec2, 0, "h") is True
    assert sp.classify_regularity(sch, spec2, 2, "h") is True
    assert sp.classify_regularity(sch, spec2, 3, "h") is False
    # factor field gains two derivatives
    assert sp.classify_regularity(sch, spec2, 4, "f") is True
    assert sp.classify_regularity(sch, spec2, 5, "f") is False

    pl = sp.make_power_law(3.0, spec2, 10, tail_tol=None)
    assert sp.classify_regularity(pl, spec2, 1, "f") is True     # 3 > (2+1)/2
    assert sp.classify_regularity(pl, spec2, 1, "h") is True     # 2 > 1.5
    assert sp.classify_regularity(pl, spec2, 2, "h") is False    # 2 > 2 fails

    hk = sp.make_heat_kernel(1.0, spec2, 10)
    assert sp.classify_regularity(hk, spec2, 25, "h") is True

    ex = sp.make_explicit([0.5, 0.5])
    assert sp.classify_regularity(ex, spec2, 0, "h") is None


def test_classify_regularity_monotone_in_k():
    spec = sp.sphere2_spectrum(10)
    for sch in (
        sp.make_sphere_normalized(9.0, 10),
        sp.make_power_law(2.7, spec, 10, tail_tol=None),
        sp.make_heat_kernel(0.7, spec, 10),
    ):
        for which in ("f", "h"):
            flags = [sp.classify_regularity(sch, spec, k, which) for k in range(8)]
            # once regularity fails at some order it stays failed
            for lo, hi in zip(flags, flags[1:]):
                assert not (hi and not lo)


def test_paneitz_power_law_regularity():
    spec = sp.s4_paneitz_spectrum(10)
    pl = sp.make_power_law(2.0, spec, 10, tail_tol=None)
    assert sp.classify_regularity(pl, spec, 3, "f") is True      # 2 > 1 + 3/4
    assert sp.classify_regularity(pl, spec, 4, "f") is False     # 2 > 2 fails
    assert sp.classify_regularity(pl, spec, 0, "h") is False     # 1 > 1 fails


def test_explicit_scheme_shape():
    sch = sp.make_explicit([0.25, 0.5, 0.25], neg_values=[0.1])
    assert sch.truncation == 3
    assert sch.tail_fraction == 0.0
    assert sch.neg_values.tolist() == [0.1]
    with pytest.raises(ValueError):
        sp.make_explicit([-0.1, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_scales_are_refused(bad):
    # a NaN or inf scale made every p2 and linf estimate 0 without an error
    with pytest.raises(ValueError, match="finite"):
        sp.make_explicit([0.5, bad, 0.2])
    with pytest.raises(ValueError, match="finite"):
        sp.make_explicit([0.5], neg_values=[bad])


def test_spectrum_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 3))
    fns = rng.normal(size=(4, 6))
    neg = rng.normal(size=(1, 6))
    model = sp.SpectrumModel(
        geometry=Geometry.USER_SUPPLIED,
        dimension=2,
        volume=11.5,
        eigenvalues=np.array([2.0, 5.0]),
        multiplicities=np.array([3, 1]),
        negative_levels=((4.0, 1),),
        points=pts,
        eigenfunctions=fns,
        neg_eigenfunctions=neg,
    )
    path = tmp_path / "spec.txt"
    sp.write_spectrum_file(path, model)
    back = sp.load_spectrum_file(path)
    assert back.dimension == 2
    assert back.volume == 11.5
    np.testing.assert_array_equal(back.eigenvalues, model.eigenvalues)
    np.testing.assert_array_equal(back.multiplicities, model.multiplicities)
    assert back.negative_levels == ((4.0, 1),)
    np.testing.assert_allclose(back.points, pts, rtol=0, atol=0)
    np.testing.assert_allclose(back.eigenfunctions, fns, rtol=0, atol=0)
    np.testing.assert_allclose(back.neg_eigenfunctions, neg, rtol=0, atol=0)


def test_spectrum_file_groups_repeated_eigenvalues(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(
        "dimension 2\nvolume 1.0\npoints 2\n"
        "ef 3.0 1.0 0.0\n"
        "ef 3.0000000000001 0.0 1.0\n"   # same level to rel tol 1e-9
        "ef 7.0 1.0 1.0\n"
    )
    model = sp.load_spectrum_file(path)
    np.testing.assert_allclose(model.eigenvalues, [3.0, 7.0], rtol=1e-12)
    np.testing.assert_array_equal(model.multiplicities, [2, 1])


def test_spectrum_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dimension 2\nvolume 1.0\npoints 3\nef 2.0 1.0 0.0\n")
    with pytest.raises(ValueError):
        sp.load_spectrum_file(bad)
    bad.write_text("dimension 2\nvolume 1.0\npoints 1\nef 0.0 1.0\n")
    with pytest.raises(ValueError):
        sp.load_spectrum_file(bad)
