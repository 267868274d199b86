"""Excursion estimators: brute-force Euler oracles on tiny closed
triangulations, closed-form predictions against independent quadrature and
chi-square identities, and Monte Carlo drivers against single-point Gaussian
tails, hand-recomputed event vectors, and worker-count invariance."""

import dataclasses
import logging
import math
import re
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from helpers import two_wave_sup_tail

from randcurv import curvature, fields, grids
from randcurv import excursion as ex
from randcurv.bounds import gaussian_tail, linf_regime_ok
from randcurv.fields import (
    FieldKind,
    RandomFieldSpec,
    covariance_h_sphere,
    gaussian_draw_block,
    make_sampler,
)
from randcurv.grids import face_edges, fibonacci_sphere, icosphere, torus_grid
from randcurv.spectral import (
    Geometry,
    Indexing,
    SpectrumModel,
    make_explicit,
    make_power_law,
    make_sphere_normalized,
    sphere2_spectrum,
    torus2_spectrum,
)


def octahedron():
    # vertices 0:+x 1:-x 2:+y 3:-y 4:+z 5:-z
    faces = np.array(
        [
            [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
        ],
        dtype=np.int64,
    )
    return SimpleNamespace(faces=faces, n_points=6)


def torus_5x4():
    # a 5 x 4 vertex lattice with periodic wrap, each square cut in two: genus 1
    idx = lambda i, j: (i % 5) * 4 + j % 4
    faces = []
    for i in range(5):
        for j in range(4):
            faces += [[idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)],
                      [idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)]]
    return SimpleNamespace(faces=np.array(faces, dtype=np.int64), n_points=20)


def suspended_12gon():
    # a 12-cycle coned to two apexes 12 and 13: each apex has degree 12
    faces = [[i, (i + 1) % 12, apex] for apex in (12, 13) for i in range(12)]
    return SimpleNamespace(faces=np.array(faces, dtype=np.int64), n_points=14)


def octahedra_glued_at_a_vertex():
    # two octahedra sharing vertex 0, whose link is two 4-cycles
    second = np.array([0, 6, 7, 8, 9, 10])[octahedron().faces]
    return SimpleNamespace(faces=np.concatenate([octahedron().faces, second]), n_points=11)


def brute_chi(faces, mask):
    nv = int(sum(mask))
    seen = set()
    ne = 0
    for f in faces:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            e = tuple(sorted((int(f[i]), int(f[j]))))
            if e not in seen:
                seen.add(e)
                if mask[e[0]] and mask[e[1]]:
                    ne += 1
    nf = sum(1 for f in faces if mask[f[0]] and mask[f[1]] and mask[f[2]])
    return nv - ne + nf


def euler_counts(g, values, thresholds):
    return ex._euler_counts(values, thresholds, *ex._closed_triangulation(g))


def all_faces_chi(faces, h, thresholds):
    # the middle-vertex rule on every face, c(v) = 1 - mid(v)/2 summed over
    # every vertex with h(v) >= u
    f = np.sort(faces, axis=1)
    a = h[f]
    lt01, lt02, lt12 = a[:, 0] <= a[:, 1], a[:, 0] <= a[:, 2], a[:, 1] <= a[:, 2]
    mid = np.where(lt01 != lt02, f[:, 0], np.where(lt01 == lt12, f[:, 1], f[:, 2]))
    c = 2 - np.bincount(mid, minlength=h.size)
    return [int(c[h >= u].sum()) // 2 for u in thresholds]


class TestEmpiricalEuler:
    def test_every_octahedron_subset_matches_brute_force(self):
        g = octahedron()
        for m in range(64):
            mask = [(m >> k) & 1 for k in range(6)]
            got = ex.empirical_euler(g, np.array(mask, dtype=float), 0.5)
            assert got == brute_chi(g.faces, mask)

    def test_topology_landmarks(self):
        g = octahedron()
        assert ex.empirical_euler(g, np.ones(6), 0.5) == 2
        assert ex.empirical_euler(g, np.eye(6)[0], 0.5) == 1
        # the four equatorial vertices form a cycle
        ring = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        assert ex.empirical_euler(g, ring, 0.5) == 0

    def test_degree_one_harmonic_cap(self):
        # {z >= 0.5} is a spherical cap
        grid = icosphere(4)
        assert ex.empirical_euler(grid, grid.xyz[:, 2], 0.5) == 1

    def test_endpoints_are_exact(self):
        grid = icosphere(5)
        vals = grid.xyz[:, 2]
        assert ex.empirical_euler(grid, vals, vals.min() - 1.0) == 2
        assert ex.empirical_euler(grid, vals, vals.max() + 1.0) == 0

    def test_threshold_on_a_vertex_value_includes_it(self):
        # {h >= u}: a vertex exactly at u is in the set, one just below is not
        g = octahedron()
        vals = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert ex.empirical_euler(g, vals, 1.0) == 1
        assert ex.empirical_euler(g, np.zeros(6), 0.0) == 2
        below = np.array([1.0, 1.0 - 1e-13, 0.0, 0.0, 0.0, 0.0])
        assert ex.empirical_euler(g, below, 1.0) == 1
        assert ex.empirical_euler(g, below, 1.0 - 1e-13) == 2

    def test_non_finite_input_rejected(self):
        g = octahedron()
        for vals, u in [(np.array([np.nan, 1, 1, 1, 1, 1.0]), 0.5), (np.ones(6), np.nan),
                        (np.array([np.inf, 0, 0, 0, 0, 0.0]), 0.5)]:
            with pytest.raises(ValueError, match="finite"):
                ex.empirical_euler(g, vals, u)

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.sampled_from([octahedron(), icosphere(2)]),
        seed=st.integers(0, 2**32 - 1),
        thresholds=st.lists(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 1.0, 1.5, 2.0, 4.0]), min_size=1, max_size=8),
    )
    def test_critical_vertex_counts_match_brute_force(self, g, seed, thresholds):
        # small integer values force ties between vertices and with thresholds;
        # thresholds come unsorted, repeated and equal to vertex values
        values = np.random.default_rng(seed).integers(-2, 3, size=(3, g.n_points)).astype(float)
        ts = np.array(thresholds)
        got = euler_counts(g, values, ts)
        for b, h in enumerate(values):
            expect = [brute_chi(g.faces, h >= u) for u in ts]
            assert got[b].tolist() == expect
            assert [ex.empirical_euler(g, h, u) for u in ts] == expect

    @pytest.mark.parametrize(
        "g, chi",
        [(torus_5x4(), 0), (suspended_12gon(), 2), (octahedra_glued_at_a_vertex(), 3)],
        ids=["torus", "suspension", "glued"],
    )
    def test_other_topologies_match_brute_force(self, g, chi):
        # the middle-vertex weight must hold on every closed triangulation:
        # genus 1, a vertex of degree 12, a vertex whose link is two cycles
        assert ex.empirical_euler(g, np.zeros(g.n_points), 0.0) == chi
        rng = np.random.default_rng(20261018)
        for values in (
            rng.integers(-2, 3, size=(8, g.n_points)).astype(float),
            rng.standard_normal((8, g.n_points)),
        ):
            # unsorted thresholds, some equal to vertex values
            ts = np.concatenate([[1.0, -1.0, 0.0, 2.0, -3.0], values[0, :4]])
            got = euler_counts(g, values, ts)
            for b, h in enumerate(values):
                assert got[b].tolist() == [brute_chi(g.faces, h >= u) for u in ts]

    @pytest.mark.parametrize(
        "case", ["normal-above-1", "integer-ties", "empty", "glued", "suspension"]
    )
    def test_high_thresholds_visit_only_the_faces_around_the_set(self, case):
        # fewer than half the vertices reach the lowest threshold, so the
        # kernel counts on the faces around them alone; every chi must match
        # brute force and the middle-vertex rule over every face
        rng = np.random.default_rng(20261019)
        if case == "normal-above-1":
            g, values, ts = icosphere(3), rng.standard_normal((6, 642)), [1.5, 1.0, 2.5, 1.0]
        elif case == "integer-ties":
            g, values, ts = icosphere(3), rng.integers(-2, 3, size=(6, 642)).astype(float), [2.0, 1.0]
        elif case == "empty":
            g, values, ts = icosphere(2), rng.standard_normal((3, 162)), [9.0, 12.0]
        elif case == "glued":
            # the pinched vertex 0 alone, with two vertices of its second link, or absent
            g, values, ts = octahedra_glued_at_a_vertex(), np.zeros((3, 11)), [1.0]
            values[0, 0] = values[1, [0, 6, 7]] = values[2, 3] = 1.0
        else:
            # the two degree-12 apexes pushed above the thresholds
            g, values, ts = suspended_12gon(), rng.standard_normal((8, 14)), [1.5, 2.0]
            values[:, 12:] += 3.0
        ts = np.array(ts)
        assert all(2 * np.count_nonzero(h >= ts.min()) < g.n_points for h in values)
        got = euler_counts(g, values, ts)
        for b, h in enumerate(values):
            expect = [brute_chi(g.faces, h >= u) for u in ts]
            assert got[b].tolist() == expect == all_faces_chi(g.faces, h, ts)

    def test_closed_triangulation_edges_are_sorted_unique_pairs(self):
        # the kernel reads only the row-sorted faces; their edges are the grid's
        g = icosphere(3)
        faces, _ = ex._closed_triangulation(g)
        assert np.array_equal(faces, np.sort(g.faces, axis=1))
        edges, counts = face_edges(faces)
        assert np.array_equal(edges, g.edges)
        assert np.all(counts == 2)

    @pytest.mark.parametrize(
        "faces",
        [
            np.vstack([octahedron().faces[:-1], [[0, 3, -1]]]),
            np.vstack([octahedron().faces[:-1], [[0, 3, 6]]]),
            octahedron().faces.astype(float),
            octahedron().faces[:, :2],
            octahedron().faces.ravel(),
        ],
        ids=["index-minus-one", "index-n-points", "float", "two-columns", "flat"],
    )
    def test_malformed_faces_rejected(self, faces):
        with pytest.raises(ValueError, match="faces"):
            ex.empirical_euler(SimpleNamespace(faces=faces, n_points=6), np.ones(6), 0.5)

    def test_open_triangulation_rejected(self):
        g = octahedron()
        broken = SimpleNamespace(faces=g.faces[:-1], n_points=6)
        with pytest.raises(ValueError, match="closed manifold"):
            ex.empirical_euler(broken, np.ones(6), 0.5)

    def test_grid_without_faces_rejected(self):
        with pytest.raises(ValueError, match="faces"):
            ex.empirical_euler(fibonacci_sphere(16), np.ones(16), 0.5)

    def test_value_count_must_match_vertices(self):
        with pytest.raises(ValueError, match="vertex"):
            ex.empirical_euler(octahedron(), np.ones(5), 0.5)


class TestPredictedEuler:
    def test_single_mode_equals_chi3_survival(self):
        # a pure degree-1 unit-variance field has maximum |w| with
        # |w|^2 ~ chi^2(3), and its super-level sets are caps, so the
        # expected Euler characteristic is the chi-3 survival function
        sch = make_explicit([1.0])
        for u in (0.3, 0.5, 1.0, 2.0, 3.0):
            want = chi2.sf(u * u, 3)
            got = ex.predicted_euler(sch, u)
            assert got == pytest.approx(want, rel=1e-12)

    def test_low_threshold_limit_is_two(self):
        sch = make_sphere_normalized(8.0, 12)
        assert ex.predicted_euler(sch, -40.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_threshold_is_one(self):
        sch = make_sphere_normalized(8.0, 12)
        assert ex.predicted_euler(sch, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_per_eigenfunction_convention(self):
        sch = make_power_law(9.0, sphere2_spectrum(8), 8, tail_tol=None)
        assert sch.indexing is Indexing.PER_EIGENFUNCTION
        with pytest.raises(ValueError, match="per-eigenspace"):
            ex.predicted_euler(sch, 1.0)

    def test_rejects_non_unit_variance(self):
        with pytest.raises(ValueError, match="unit-variance"):
            ex.predicted_euler(make_explicit([0.5]), 1.0)


class TestAtMetricConstant:
    def test_linearity_in_level_weights(self):
        # levels contribute m(m+1)/2 each: 0.3 * 1 + 0.7 * 3
        got = ex.at_metric_constant(make_explicit([0.3, 0.7]))
        assert got == pytest.approx(2.4, rel=1e-15)
        assert ex.at_metric_constant(make_explicit([1.0])) == pytest.approx(1.0)

    def test_matches_second_difference_of_covariance(self):
        # C equals the negated second distance-derivative of r_h at 0
        sch = make_sphere_normalized(8.0, 12)
        spec = RandomFieldSpec(sphere2_spectrum(12), sch, FieldKind.H)
        d = 1e-4
        r0, rd = covariance_h_sphere(spec, np.array([0.0, d]))
        fd = 2.0 * (r0 - rd) / d**2
        assert ex.at_metric_constant(sch) == pytest.approx(fd, rel=1e-6)

    def test_per_eigenfunction_scheme_converts_to_level_variances(self):
        sch = make_power_law(9.0, sphere2_spectrum(3), 3, tail_tol=None)
        m = np.arange(1, 4, dtype=float)
        eig = m * (m + 1.0)
        level_var = (2.0 * m + 1.0) * (sch.values * eig) ** 2 / (4.0 * math.pi)
        want = float(np.sum(level_var * eig) / 2.0)
        assert ex.at_metric_constant(sch) == pytest.approx(want, rel=1e-14)


class TestSphereP2Prediction:
    def test_agrees_with_predicted_euler_at_reciprocal_threshold(self):
        sch = make_sphere_normalized(8.0, 12)
        for a in (0.2, 1.0 / 3.0, 0.4):
            pred = ex.sphere_p2_prediction(sch, a)
            assert pred.value == pytest.approx(
                ex.predicted_euler(sch, 1.0 / a), rel=1e-12
            )
            assert pred.c1 == 2.0

    def test_default_scheme_constants(self):
        pred = ex.sphere_p2_prediction(make_sphere_normalized(8.0, 12), 1.0 / 3.0)
        assert pred.c2 == pytest.approx(0.8048523748214655, rel=1e-12)
        assert pred.warnings == ()

    def test_rough_scheme_warns(self):
        sch = make_sphere_normalized(6.5, 12, tail_tol=None)
        pred = ex.sphere_p2_prediction(sch, 0.3)
        assert any("s <= 7" in w for w in pred.warnings)

    def test_unnormalized_scheme_warns(self):
        pred = ex.sphere_p2_prediction(make_explicit([0.5]), 0.3)
        assert any("unit-variance" in w for w in pred.warnings)

    def test_even_only_scheme_warns_of_degeneracy(self):
        pred = ex.sphere_p2_prediction(make_explicit([0.0, 1.0]), 0.3)
        assert any("antipodally" in w for w in pred.warnings)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            ex.sphere_p2_prediction(make_explicit([1.0]), 0.0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="positive"):
            ex.sphere_p2_prediction(make_explicit([1.0]), math.nan)


class TestAttainability:
    def test_degree_one_block_is_singular(self):
        C, pd = ex.attainability_matrix(make_explicit([1.0]))
        want = np.zeros((5, 5))
        want[0, 0] = want[1, 1] = 1.0
        want[2:, 2:] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        assert np.array_equal(C, want)
        assert pd is False

    def test_degree_two_block_is_nonsingular(self):
        C, pd = ex.attainability_matrix(make_explicit([0.0, 1.0]))
        want = np.zeros((5, 5))
        want[0, 0] = want[1, 1] = 3.0
        want[2:, 2:] = [[12.0, 6.0, 0.0], [6.0, 12.0, 0.0], [0.0, 0.0, 3.0]]
        assert np.array_equal(C, want)
        assert pd is True

    def test_default_scheme_is_positive_definite(self):
        C, pd = ex.attainability_matrix(make_sphere_normalized(8.0, 12))
        assert pd is True
        assert np.array_equal(C, C.T)

    def test_semidefinite_floor(self):
        for sch in (
            make_explicit([1.0]),
            make_explicit([0.0, 1.0]),
            make_sphere_normalized(8.0, 12),
            make_sphere_normalized(10.0, 6, tail_tol=None),
        ):
            C, _ = ex.attainability_matrix(sch)
            eigs = np.linalg.eigvalsh(C)
            assert eigs[0] >= -1e-10 * np.trace(C)

    def test_truncation_selects_levels(self):
        sch = make_explicit([1.0, 1.0])
        C1, _ = ex.attainability_matrix(sch, truncation=1)
        Cfull, _ = ex.attainability_matrix(sch)
        Conly2, _ = ex.attainability_matrix(make_explicit([0.0, 1.0]))
        assert np.allclose(Cfull, C1 + Conly2)
        with pytest.raises(ValueError):
            ex.attainability_matrix(sch, truncation=3)


class TestDegeneracy:
    def test_flag_tracks_odd_degree_weights(self):
        assert ex.degeneracy_check(make_explicit([1.0])) is True
        assert ex.degeneracy_check(make_explicit([0.0, 1.0])) is False
        assert ex.degeneracy_check(make_explicit([0.0, 0.5, 0.5])) is True

    def test_even_only_covariance_is_antipodally_symmetric(self):
        even = RandomFieldSpec(sphere2_spectrum(2), make_explicit([0.0, 1.0]), FieldKind.H)
        r0, rpi = covariance_h_sphere(even, np.array([0.0, math.pi]))
        assert rpi == pytest.approx(r0, rel=1e-12)
        mixed = RandomFieldSpec(
            sphere2_spectrum(2), make_explicit([0.5, 0.5]), FieldKind.H
        )
        r0, rpi = covariance_h_sphere(mixed, np.array([0.0, math.pi]))
        assert rpi < r0 - 0.5


def tagged_span(ctx, j0, j1):
    return ctx, j0, j1


class TestMapChunks:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5000), chunk=st.integers(1, 3000))
    def test_chunks_cover_the_range_once_in_order(self, n, chunk):
        spans = ex.map_chunks(tagged_span, "ctx", n, chunk)
        assert all(c == "ctx" and 0 < j1 - j0 <= chunk for c, j0, j1 in spans)
        assert [j for _, j0, j1 in spans for j in range(j0, j1)] == list(range(n))

    def test_workers_receive_the_context_and_keep_chunk_order(self):
        ctx = {"seed": 3}
        want = [(ctx, 0, 3), (ctx, 3, 6), (ctx, 6, 9), (ctx, 9, 10)]
        assert ex.map_chunks(tagged_span, ctx, 10, 3) == want
        assert ex.map_chunks(tagged_span, ctx, 10, 3, workers=2) == want

    def test_starts_at_most_one_worker_per_chunk(self, monkeypatch):
        pools = []

        def recording_pool(max_workers, **kwargs):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(ex, "ProcessPoolExecutor", recording_pool)
        ctx = {"seed": 3}
        assert ex.map_chunks(tagged_span, ctx, 3, 3, workers=8) == [(ctx, 0, 3)]
        assert pools == []
        assert ex.map_chunks(tagged_span, ctx, 5, 3, workers=8) == [(ctx, 0, 3), (ctx, 3, 5)]
        assert pools == [2]
        # one chunk and two chunks give the same estimates at any worker count
        grid = fibonacci_sphere(64)
        for n in (ex.P2_CHUNK, ex.P2_CHUNK + 1):
            runs = [ex.p2_curve(V_SPEC, [0.4], grid, n, 5, workers=w) for w in (1, 2, 8)]
            assert runs[0] == runs[1] == runs[2]
        assert pools == [2, 2, 2]


SCHEME = make_sphere_normalized(8.0, 12)
SPHERE = sphere2_spectrum(12)
V_SPEC = RandomFieldSpec(SPHERE, SCHEME, FieldKind.V, reference_curvature=1.0)
# three stored points: the user sampler takes no grid
USER3 = SpectrumModel(
    geometry=Geometry.USER_SUPPLIED, dimension=2, volume=1.0,
    eigenvalues=np.array([1.0]), multiplicities=np.array([1]),
    points=np.array([[0.0], [1.0], [2.0]]), eigenfunctions=np.array([[1.0, 0.5, -0.2]]),
)


class TestEstimateP2:
    def test_single_point_grid_matches_gaussian_tail(self):
        # on one grid point the supremum is a unit normal
        point = np.array([[0.0, 0.0, 1.0]])
        r = ex.p2_curve(V_SPEC, [1.0 / 1.5], point, 20000, 901).reports[0]
        tail = gaussian_tail(1.5)
        assert abs(r.estimate - tail) <= 3.0 * r.standard_error
        assert r.n_grid_points == 1

    def test_dual_route_agrees_sample_by_sample(self):
        grid = fibonacci_sphere(64)
        n, seed, a = 4096, 555, 0.45
        r = ex.p2_curve(V_SPEC, [a], grid, n, seed).reports[0]
        smp = make_sampler(V_SPEC, grid)
        _, H = smp.sample_block(seed, range(n))
        sups = H.max(axis=1)  # R0 = 1
        direct = sups > 1.0 / a
        dual = (1.0 - a * sups) < 0.0
        assert np.array_equal(direct, dual)
        assert r.estimate == direct.sum() / n

    def test_refinement_shift_is_small(self):
        r = ex.p2_curve(
            V_SPEC, [0.5], fibonacci_sphere(256), 20000, 77, refine=True
        ).reports[0]
        assert r.refinement_delta is not None
        assert abs(r.refinement_delta) < 2.0 * r.standard_error

    def test_worker_count_does_not_change_counts(self):
        grid = fibonacci_sphere(128)
        # 5000 samples leave a ragged final chunk
        r1 = ex.p2_curve(V_SPEC, [0.4], grid, 5000, 7, workers=1).reports[0]
        r2 = ex.p2_curve(V_SPEC, [0.4], grid, 5000, 7, workers=2).reports[0]
        assert r1 == r2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_grid_gives_fresh_grid_results(self, workers):
        reused = fibonacci_sphere(128)
        for seed in (5, 6):
            a = ex.p2_curve(V_SPEC, [0.4, 0.5], reused, 3000, seed, workers=workers)
            b = ex.p2_curve(V_SPEC, [0.4, 0.5], fibonacci_sphere(128), 3000, seed, workers=workers)
            assert a == b

    def test_curve_shares_samples_across_amplitudes(self):
        grid = fibonacci_sphere(64)
        study = ex.p2_curve(V_SPEC, [0.4, 1.0 / 3.0], grid, 4096, 19)
        singles = [
            ex.p2_curve(V_SPEC, [a], grid, 4096, 19).reports[0] for a in (0.4, 1.0 / 3.0)
        ]
        assert study.reports == tuple(singles)
        assert study.reports[0].estimate >= study.reports[1].estimate
        assert study.sigma_v == pytest.approx(1.0, abs=1e-6)
        assert study.e_sup > 1.0

    def test_requires_ratio_field_with_signed_reference(self):
        h_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        with pytest.raises(ValueError, match="v = h / R0"):
            ex.p2_curve(h_spec, [0.3], fibonacci_sphere(8), 16, 0).reports[0]
        mixed = RandomFieldSpec(
            SPHERE, SCHEME, FieldKind.V,
            reference_curvature=np.array([1.0] * 4 + [-1.0] * 4),
        )
        with pytest.raises(ValueError, match="one strict sign"):
            ex.p2_curve(mixed, [0.3], fibonacci_sphere(8), 16, 0).reports[0]

    def test_refine_with_gridded_reference_rejected_up_front(self):
        r0 = np.linspace(0.5, 1.5, 64)
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.V, reference_curvature=r0)
        with pytest.raises(ValueError, match="refine=True needs a constant reference"):
            ex.p2_curve(spec, [0.3], fibonacci_sphere(64), 16, 0, refine=True)
        assert ex.p2_curve(spec, [0.3], fibonacci_sphere(64), 16, 0).reports[0].n_samples == 16

    def test_refine_on_a_bare_point_set_rejected(self):
        # an (n, 3) array of points has no canonical refinement
        points = np.asarray(fibonacci_sphere(64).xyz)
        with pytest.raises(ValueError, match="needs a structured grid with a refine"):
            ex.p2_curve(V_SPEC, [0.3], points, 16, 0, refine=True)
        assert ex.p2_curve(V_SPEC, [0.3], points, 16, 0).reports[0].n_samples == 16

    def test_refined_chunk_draws_once(self, monkeypatch):
        # the grid and its refinement reduce the same draws of each chunk,
        # drawn once for both
        blocks = []
        draw = fields.gaussian_draw_block

        def counting(seed, draw_indices, n):
            blocks.append(len(draw_indices))
            return draw(seed, draw_indices, n)

        monkeypatch.setattr(fields, "gaussian_draw_block", counting)
        n = 2 * ex.P2_CHUNK + 100
        study = ex.p2_curve(V_SPEC, [0.3], fibonacci_sphere(64), n, 2026, refine=True)
        assert study.reports[0].refinement_delta is not None
        assert blocks == [ex.P2_CHUNK, ex.P2_CHUNK, 100]

    def test_rejects_bad_amplitudes_and_counts(self):
        g = fibonacci_sphere(8)
        with pytest.raises(ValueError):
            ex.p2_curve(V_SPEC, [], g, 16, 0)
        with pytest.raises(ValueError):
            ex.p2_curve(V_SPEC, [0.0], g, 16, 0)
        with pytest.raises(ValueError):
            ex.p2_curve(V_SPEC, [0.3], g, 0, 0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="positive"):
            ex.p2_curve(V_SPEC, [0.3, math.nan], fibonacci_sphere(8), 16, 0)

    def test_pinned_counts(self):
        # seed 2026, 4096 draws on fib256 and its refinement: exact counts
        # of stream 2 (fields.RNG_STREAM)
        n = 4096
        study = ex.p2_curve(V_SPEC, [0.3, 0.4, 0.5], fibonacci_sphere(256), n, 2026, refine=True)
        counts = [round(r.estimate * n) for r in study.reports]
        assert counts == [38, 429, 1088]
        refined = [round((r.estimate + r.refinement_delta) * n) for r in study.reports]
        assert refined == [39, 430, 1098]
        assert study.e_sup == pytest.approx(1.6058032086244622, rel=1e-13)

    def test_criterion_5_estimates_lie_within_3_se_of_the_prediction(self):
        # the prediction is the expected Euler characteristic of the
        # excursion set, whose error is exponentially smaller than the tail:
        # criterion 5's seed 2026 and 100k draws on fib1024 read
        # z = -0.89, -1.25 and -0.26
        amplitudes = [1.0 / 2.5, 1.0 / 3.0, 1.0 / 3.5]
        study = ex.p2_curve(V_SPEC, amplitudes, fibonacci_sphere(1024), 100_000, 2026)
        for report, a in zip(study.reports, amplitudes):
            prediction = ex.sphere_p2_prediction(SCHEME, a).value
            assert abs(report.estimate - prediction) <= 3.0 * report.standard_error

    @pytest.mark.parametrize("r0", [0.7, -1.3])
    def test_constant_reference_divides_the_extreme_to_the_same_sups(self, r0):
        # the constant route divides each row's max (or min) once, the
        # gridded route every value; both give the same sups bit for bit
        _, H = make_sampler(V_SPEC, fibonacci_sphere(256)).sample_block(7, range(512))
        wide = H * np.logspace(-3, 3, H.shape[1])
        for h in (H, wide):
            sup = ex._sup_v(h, r0)
            assert np.array_equal(sup, ex._sup_v(h, np.full(h.shape[1], r0)))
            assert np.array_equal(sup, (h / r0).max(axis=1))

    def test_user_model_reports_its_stored_point_count(self):
        spec = RandomFieldSpec(USER3, make_explicit([1.0]), FieldKind.V, reference_curvature=1.0)
        study = ex.p2_curve(spec, [0.5], None, 64, 3)
        assert study.reports[0].n_grid_points == 3

    def test_report_rejects_non_probability(self):
        with pytest.raises(ValueError):
            ex.ExcursionReport(
                estimate=1.5, standard_error=0.0, n_samples=1, threshold=1.0,
                amplitude=1.0, n_grid_points=1, seed=0,
            )


TORUS_VALUES = np.zeros(11)
TORUS_VALUES[10] = 0.5
TORUS_SPEC = RandomFieldSpec(
    torus2_spectrum(11), make_explicit(TORUS_VALUES), FieldKind.H,
    reference_curvature=0.0,
)


LINF_GEOMETRIES = [
    (TORUS_SPEC, torus_grid(8)),
    (RandomFieldSpec(SPHERE, SCHEME, FieldKind.H), fibonacci_sphere(64)),
]


class TestEstimateLinf:
    def test_events_match_hand_computed_deviation(self):
        grid = torus_grid(16)
        n, seed, a, u = 2048, 2026, 0.05 / 3.0, 0.02
        r = ex.estimate_linf(TORUS_SPEC, a, u, grid, n, seed)
        smp = make_sampler(TORUS_SPEC, grid)
        F, H = smp.sample_block(seed, range(n))
        # flat reference: the exact deviation is -a h e^{-a f}
        dev = -a * H * np.exp(-a * F)
        events = np.abs(dev).max(axis=1) > u
        assert events.sum() > 0
        assert r.estimate == events.sum() / n

    def test_regime_warning_below_threshold_ratio(self):
        grid = torus_grid(16)
        warm = ex.estimate_linf(TORUS_SPEC, 0.05, 0.05, grid, 32, 1)
        assert warm.regime_warning is not None
        cold = ex.estimate_linf(TORUS_SPEC, 0.05 / 4.0, 0.05, grid, 32, 1)
        assert cold.regime_warning is None
        # the warning is exactly the CSV's regime_ok = false: at u/a == 3
        # (criterion 7's point) and at u >= 0.5 with u/a large
        for a, u in ((0.1 / 3.0, 0.1), (0.1, 0.6), (0.1, 0.5)):
            assert not linf_regime_ok(u, a)
            assert ex.estimate_linf(TORUS_SPEC, a, u, grid, 32, 1).regime_warning is not None

    def test_fine_grid_estimate_matches_the_exact_two_wave_law(self):
        # TORUS_SPEC's one level is two waves, so sup |R1 - R0| has a closed
        # law (helpers.two_wave_sup_tail); torus:64 resolves the crest that
        # criterion 7's torus:16 misses.  Seed 77, 1e6 draws, u/a = 3.
        a, u = 0.1 / 3.0, 0.1
        exact = two_wave_sup_tail(u, a)
        assert exact == pytest.approx(7.2044e-4, rel=1e-4)
        r = ex.estimate_linf(TORUS_SPEC, a, u, torus_grid(64), 1_000_000, 77)
        assert abs(r.estimate - exact) <= 3.0 * r.standard_error

    def test_coarse_grid_estimate_does_not_exceed_the_exact_two_wave_law(self):
        # a grid's sup never exceeds the continuum sup, so on criterion 7's
        # torus:16 the estimate may fall short of the law (its grid misses
        # the crest) but not exceed it.  Seed 2026, 1e6 draws, u/a = 3.
        a, u = 0.1 / 3.0, 0.1
        r = ex.estimate_linf(TORUS_SPEC, a, u, torus_grid(16), 1_000_000, 2026)
        assert r.estimate - two_wave_sup_tail(u, a) <= 3.0 * r.standard_error

    def test_refinement_shift_is_small(self):
        r = ex.estimate_linf(
            TORUS_SPEC, 0.05 / 3.0, 0.05, torus_grid(16), 20000, 2026, refine=True
        )
        assert abs(r.refinement_delta) < 2.0 * r.standard_error

    def test_worker_count_does_not_change_counts(self):
        # a draw under another seed leaves this thread's generator keyed by
        # it; workers forked from here inherit it and must re-key it.  The
        # draws span two linf chunks, so workers 2 does fork
        grid = torus_grid(16)
        n = ex._linf_chunk_rows(make_sampler(TORUS_SPEC, grid).active.size) + 1000
        r1 = ex.estimate_linf(TORUS_SPEC, 0.02, 0.05, grid, n, 5, workers=1)
        gaussian_draw_block(99, range(5), 3)
        r2 = ex.estimate_linf(TORUS_SPEC, 0.02, 0.05, grid, n, 5, workers=2)
        assert r1 == r2

    @pytest.mark.parametrize("refine", [False, True])
    def test_counts_and_screen_survivors_are_pinned(self, caplog, refine):
        # events and screen survivors per grid (torus:16, then its
        # refinement) at seed 2026, stream 2: criterion 7's one-level spec
        # and a two-level w spec with a negative reference
        two = np.zeros(11)
        two[[2, 10]] = 0.2, 0.4
        cases = [
            (TORUS_SPEC, 0.02, 0.05, [70, 77], [123, 123]),
            (
                RandomFieldSpec(
                    torus2_spectrum(11), make_explicit(two), FieldKind.W, reference_curvature=-0.3
                ),
                0.05, 0.12, [975, 1326], [2568, 2568],
            ),
        ]
        n = 8192
        for spec, a, u, events, survivors in cases:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="randcurv.excursion"):
                r = ex.estimate_linf(spec, a, u, torus_grid(16), n, 2026, refine=refine)
            found = [
                re.fullmatch(r"linf screen \((?:grid|refined grid)\): (\d+) of 8192 draws passed",
                             rec.getMessage())
                for rec in caplog.records
            ]
            counts = [round(r.estimate * n)]
            if refine:
                counts.append(round((r.estimate + r.refinement_delta) * n))
            k = len(counts)
            assert counts == events[:k]
            assert [int(m.group(1)) for m in found if m] == survivors[:k]

    def test_needs_reference_and_positive_parameters(self):
        bare = RandomFieldSpec(torus2_spectrum(11), make_explicit(TORUS_VALUES), FieldKind.H)
        g = torus_grid(8)
        with pytest.raises(ValueError, match="reference"):
            ex.estimate_linf(bare, 0.01, 0.05, g, 16, 0)
        with pytest.raises(ValueError):
            ex.estimate_linf(TORUS_SPEC, -0.01, 0.05, g, 16, 0)
        with pytest.raises(ValueError):
            ex.estimate_linf(TORUS_SPEC, 0.01, 0.0, g, 16, 0)

    def test_rejects_nan_amplitude_and_threshold(self):
        g = torus_grid(8)
        for a, u in ((0.01, math.nan), (math.nan, 0.05)):
            with pytest.raises(ValueError, match="positive"):
                ex.estimate_linf(TORUS_SPEC, a, u, g, 16, 0)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize(
        "values, a", [(np.zeros(11), 0.05), (TORUS_VALUES, 1e-160)], ids=["no weight", "tiny a"]
    )
    def test_unbounded_prefilter_radius_drops_every_draw(self, values, a, refine):
        # without weight every draw's per-level bound is 0 and g never
        # exceeds u; at a = 1e-160 the radius is ~1e159 and its square passes
        # the largest float.  Either way every draw is dropped: no events
        spec = RandomFieldSpec(
            torus2_spectrum(11), make_explicit(values), FieldKind.H, reference_curvature=-0.3
        )
        r = ex.estimate_linf(spec, a, 0.1, torus_grid(8), 5000, 1, refine=refine)
        assert r.estimate == 0.0 and r.standard_error == 0.0
        assert r.refinement_delta == (0.0 if refine else None)

    @pytest.mark.parametrize("refine", [False, True])
    def test_draws_each_chunk_once(self, monkeypatch, refine):
        # screen survivors are evaluated from the chunk's own draws, on the
        # grid and on its refinement alike, never drawn again
        blocks = []
        draw = fields.gaussian_draw_block

        def counting(seed, draw_indices, n):
            blocks.append(len(draw_indices))
            return draw(seed, draw_indices, n)

        monkeypatch.setattr(fields, "gaussian_draw_block", counting)
        grid = torus_grid(8)
        chunk = ex._linf_chunk_rows(make_sampler(TORUS_SPEC, grid).active.size)
        n = 2 * chunk + 100
        r = ex.estimate_linf(TORUS_SPEC, 0.05, 0.1, grid, n, 2026, refine=refine)
        assert r.estimate > 0.0
        assert blocks == [chunk, chunk, 100]

    def test_chunk_spans_the_whole_draw_blocks_that_fit_its_budget(self):
        # 2^16 values: 8 blocks of 4 columns (criterion 7), 1 of 168 (the
        # sphere spec) and at least one block however wide the spec
        assert ex._linf_chunk_rows(4) == 8 * fields.DRAW_BLOCK
        assert ex._linf_chunk_rows(168) == fields.DRAW_BLOCK
        assert ex._linf_chunk_rows(10**6) == fields.DRAW_BLOCK

    @pytest.mark.parametrize("shape", [(10,), (8, 8), (1,)])
    def test_gridded_reference_of_the_wrong_shape_rejected_before_any_draw(self, monkeypatch, shape):
        # unchecked, one value would broadcast as a constant and any other
        # size would fail inside the chunk kernel
        def no_draws(*args):
            raise AssertionError("drew samples for a reference it rejects")

        monkeypatch.setattr(ex, "map_chunks", no_draws)
        grid = torus_grid(8)
        for which in (FieldKind.H, FieldKind.V):
            spec = RandomFieldSpec(
                TORUS_SPEC.spectrum, TORUS_SPEC.coefficients, which,
                reference_curvature=np.full(shape, 0.5),
            )
            with pytest.raises(ValueError, match=r"reference_curvature needs shape \(64,\)"):
                if which is FieldKind.H:
                    ex.estimate_linf(spec, 0.02, 0.05, grid, 16, 0)
                else:
                    ex.p2_curve(spec, [0.3], grid, 16, 0)

    def test_sphere_deviation_mode_runs(self):
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H, reference_curvature=1.0)
        r = ex.estimate_linf(spec, 0.05, 0.2, fibonacci_sphere(64), 1000, 3)
        assert 0.0 <= r.estimate <= 1.0

    def test_refine_with_gridded_reference_rejected_up_front(self):
        grid = torus_grid(8)
        spec = RandomFieldSpec(
            torus2_spectrum(11), make_explicit(TORUS_VALUES), FieldKind.H,
            reference_curvature=np.full(grid.n_points, 0.3),
        )
        with pytest.raises(ValueError, match="refine=True needs a constant reference"):
            ex.estimate_linf(spec, 0.02, 0.05, grid, 16, 0, refine=True)
        # without refinement the gridded reference is fine
        assert 0.0 <= ex.estimate_linf(spec, 0.02, 0.05, grid, 16, 0).estimate <= 1.0

    def test_mode_dimension_mismatch_rejected_even_when_nothing_passes(self):
        # a dimension-3 model has neither curvature law; the threshold is far
        # out of reach, so the check cannot wait for a screen survivor
        user = SpectrumModel(
            geometry=Geometry.USER_SUPPLIED, dimension=3, volume=1.0,
            eigenvalues=np.array([1.0]), multiplicities=np.array([1]),
            points=np.array([[0.0], [1.0]]), eigenfunctions=np.array([[1.0, 0.5]]),
        )
        spec = RandomFieldSpec(user, make_explicit([1e-6]), FieldKind.H, reference_curvature=0.0)
        with pytest.raises(ValueError, match="dimension 3"):
            ex.estimate_linf(spec, 0.01, 1e3, None, 16, 0)

    def test_user_model_reports_its_stored_point_count(self):
        spec = RandomFieldSpec(USER3, make_explicit([1.0]), FieldKind.H, reference_curvature=0.0)
        assert ex.estimate_linf(spec, 0.1, 0.3, None, 64, 3).n_grid_points == 3

    def test_dimension_4_user_model_runs_the_fourth_order_law(self):
        # no argument picks the law: the exponent is n a = 4 a, and the count
        # is the brute count of the dimension-4 deviation field
        user4 = dataclasses.replace(
            USER3, dimension=4, eigenvalues=np.array([1.0, 3.0]),
            multiplicities=np.array([1, 1]),
            eigenfunctions=np.array([[1.0, 0.5, -0.2], [0.3, -0.8, 0.6]]),
        )
        spec = RandomFieldSpec(user4, make_explicit([0.6, 0.4]), FieldKind.H, reference_curvature=0.7)
        a, u, n = 0.2, 0.25, 3000
        F, H = make_sampler(spec).sample_block(9, range(n))
        brute = int((np.abs(curvature.deviation_field(F, H, 0.7, a, 4)).max(axis=1) > u).sum())
        assert brute != int((np.abs(curvature.deviation_field(F, H, 0.7, a, 2)).max(axis=1) > u).sum())
        assert ex.estimate_linf(spec, a, u, None, n, 9).estimate == brute / n

    def test_screen_bound_dominates_every_draw(self):
        # the bound per draw is >= the computed max |exact| over the grid, at
        # a and R0 and at both doubled (the fourth-order law at n = 2, up to
        # a factor 2), for flat, signed and gridded references
        a = 0.3
        for spec0, grid in LINF_GEOMETRIES:
            smp = make_sampler(spec0, grid)
            A = gaussian_draw_block(11, range(256), smp.active)
            groups, screen = ex._linf_screen(smp)
            M = np.sqrt((A * A) @ groups) @ screen
            # independent route: per level, (|wf|, |wh|) ||A_level||
            # max_x ||design[x, level]||, summed over the levels; the design,
            # wf and wh hold the active columns only, in stream order
            assert smp.design.shape[1] == smp.wf.size == smp.wh.size == smp.active.size
            per_level = np.zeros((256, 2))
            mult = spec0.spectrum.multiplicities[: spec0.coefficients.truncation]
            for lo, hi in zip(np.cumsum(mult) - mult, np.cumsum(mult)):
                on = (smp.active >= lo) & (smp.active < hi)
                if on.any():
                    assert on.sum() == hi - lo
                    c = np.linalg.norm(smp.design[:, on], axis=1).max()
                    w = np.abs([smp.wf[on][0], smp.wh[on][0]]) * c
                    per_level += np.outer(np.linalg.norm(A[:, on], axis=1), w)
            assert np.all(per_level <= M) and np.all(M <= per_level * (1.0 + 2e-12))
            F, H = smp.sample_block(11, range(256))
            for scale in (1.0, 2.0):
                sa = scale * a
                growth = sa * M[:, 0]
                for r0 in (0.0, -0.4, np.linspace(-0.5, 0.3, grid.n_points)):
                    sr0 = scale * r0
                    bound = np.abs(sr0).max() * np.expm1(growth) + sa * M[:, 1] * np.exp(growth)
                    exact = curvature.deviation_field(F, H, sr0, sa, 2)
                    assert np.all(np.abs(exact).max(axis=1) <= bound)

    @settings(max_examples=40, deadline=None)
    @given(
        geometry=st.sampled_from(range(len(LINF_GEOMETRIES))),
        reference=st.sampled_from(["zero", "positive", "negative", "gridded"]),
        scale=st.sampled_from([1.0, 2.0]),
        a=st.floats(0.01, 0.5),
        u_over_a=st.floats(1.0, 5.0),
        refine=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 2500),
    )
    def test_screened_count_equals_brute_count(
        self, geometry, reference, scale, a, u_over_a, refine, seed, n
    ):
        # scale 2 doubles a, u and R0: the fourth-order law at n = 2, up to
        # a factor 2 in the deviation
        spec0, grid = LINF_GEOMETRIES[geometry]
        r0 = {
            "zero": 0.0, "positive": 0.4, "negative": -0.3,
            "gridded": np.random.default_rng(seed).uniform(-0.4, 0.4, grid.n_points),
        }[reference] * scale
        a *= scale
        refine = refine and reference != "gridded"
        spec = RandomFieldSpec(spec0.spectrum, spec0.coefficients, FieldKind.H, reference_curvature=r0)
        u = a * u_over_a

        def brute(g):
            F, H = make_sampler(spec, g).sample_block(seed, range(n))
            exact = curvature.deviation_field(F, H, r0, a, 2)
            return int((np.abs(exact).max(axis=1) > u).sum())

        r = ex.estimate_linf(spec, a, u, grid, n, seed, refine=refine)
        count = brute(grid)
        assert r.estimate == count / n
        if refine:
            assert r.refinement_delta == brute(grid.refine()) / n - count / n

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        case=st.sampled_from(["torus, one level", "torus, two levels", "sphere, 12 levels"]),
        r0=st.sampled_from([0.0, 0.4, -0.3]),
        a=st.floats(0.01, 0.5),
        u_over_a=st.floats(1.0, 5.0),
        refine=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 20000),
    )
    def test_prefilter_keeps_the_per_level_survivors_and_counts(
        self, caplog, case, r0, a, u_over_a, refine, seed, n
    ):
        # oracle: the per-level bound of _linf_count on every draw row, and
        # the exact deviation of every draw
        two = np.zeros(11)
        two[[2, 10]] = 0.2, 0.4
        spectrum, scheme, grid = {
            "torus, one level": (TORUS_SPEC.spectrum, TORUS_SPEC.coefficients, torus_grid(8)),
            "torus, two levels": (TORUS_SPEC.spectrum, make_explicit(two), torus_grid(8)),
            "sphere, 12 levels": (SPHERE, SCHEME, fibonacci_sphere(64)),
        }[case]
        spec = RandomFieldSpec(spectrum, scheme, FieldKind.H, reference_curvature=r0)
        u = a * u_over_a
        survivors, events = [], []
        for g in [grid, grid.refine()][: 1 + refine]:
            smp = make_sampler(spec, g)
            A = gaussian_draw_block(seed, range(n), smp.active)
            groups, screen = ex._linf_screen(smp)
            M = np.sqrt((A * A) @ groups) @ screen
            bound = abs(r0) * np.expm1(a * M[:, 0]) + a * M[:, 1] * np.exp(a * M[:, 0])
            survivors.append(int((bound > u).sum()))
            F, H = smp.sample_block(seed, range(n))
            dev = curvature.deviation_field(F, H, r0, a, 2)
            events.append(int((np.abs(dev).max(axis=1) > u).sum()))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="randcurv.excursion"):
            r = ex.estimate_linf(spec, a, u, grid, n, seed, refine=refine)
        found = [re.fullmatch(r"linf screen \(.*\): (\d+) of \d+ draws passed", rec.getMessage())
                 for rec in caplog.records]
        assert [int(m.group(1)) for m in found if m] == survivors
        assert r.estimate == events[0] / n
        if refine:
            assert r.refinement_delta == events[1] / n - events[0] / n

    @pytest.mark.parametrize("scale, counts", [(1.0, (214, 275)), (2.0, (245, 310))])
    def test_pinned_counts(self, scale, counts):
        # seed 2026, 4096 draws on torus:8 and its refinement, (a, u, R0) =
        # scale (0.05, 0.1, -0.3), stream 2; scale 2 is the fourth-order law
        # at n = 2
        n = 4096
        spec = RandomFieldSpec(
            TORUS_SPEC.spectrum, TORUS_SPEC.coefficients, FieldKind.H,
            reference_curvature=-0.3 * scale,
        )
        r = ex.estimate_linf(
            spec, 0.05 * scale, 0.1 * scale, torus_grid(8), n, 2026, refine=True
        )
        assert (round(r.estimate * n), round((r.estimate + r.refinement_delta) * n)) == counts

    def test_screen_hit_rate_is_logged(self, caplog):
        grid = torus_grid(16)
        with caplog.at_level(logging.INFO, logger="randcurv.excursion"):
            r = ex.estimate_linf(TORUS_SPEC, 0.1 / 3.0, 0.1, grid, 4096, 2026, refine=True)
        pattern = r"linf screen \((grid|refined grid)\): (\d+) of 4096 draws passed"
        found = [re.fullmatch(pattern, rec.getMessage()) for rec in caplog.records]
        passed = {m.group(1): int(m.group(2)) for m in found if m}
        # every event passes the screen, and at u/a = 3 almost nothing else
        # does: seed 2026, stream 2
        assert passed == {"grid": 7, "refined grid": 7}
        assert round(r.estimate * 4096) <= passed["grid"]


class TestEulerCurve:
    def test_small_run_tracks_prediction(self):
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        ec = ex.euler_curve(spec, [1.5, 2.5], 256, 321, grid=icosphere(4))
        for m, s, p in zip(ec.empirical_mean, ec.empirical_se, ec.predicted):
            assert abs(m - p) <= 3.0 * s
        assert ec.lipschitz_killing[0] == 2.0
        assert ec.lipschitz_killing[1] == 0.0
        assert ec.lipschitz_killing[2] == pytest.approx(
            4.0 * math.pi * ex.at_metric_constant(SCHEME), rel=1e-15
        )

    def test_curve_lies_within_3_se_of_the_exact_expected_euler_characteristic(self):
        # 2 Psi(u) + L2 rho2(u) is the exact expected Euler characteristic of
        # a smooth unit-variance isotropic field on S^2 at every u, so only
        # grid bias and MC error remain.  From u = -2 nearly every vertex
        # reaches a threshold, so the counting visits all faces; thresholds
        # <= 0 check that branch.  Seed 777, 40k draws on icosphere:3.
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        thresholds = [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        ec = ex.euler_curve(spec, thresholds, 40_000, 777, grid=icosphere(3), workers=2)
        assert np.all(np.abs(ec.empirical_mean - ec.predicted) <= 3.0 * ec.empirical_se)
        # at u = 0 the prediction is 2 Psi(0) = 1
        assert ec.predicted[2] == 1.0
        assert abs(ec.empirical_mean[2] - 1.0) <= 3.0 * ec.empirical_se[2]

    def test_worker_count_does_not_change_sums(self):
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        e1 = ex.euler_curve(spec, [2.0], 300, 11, grid=icosphere(3), workers=1)
        e2 = ex.euler_curve(spec, [2.0], 300, 11, grid=icosphere(3), workers=2)
        assert np.array_equal(e1.empirical_mean, e2.empirical_mean)
        assert np.array_equal(e1.empirical_se, e2.empirical_se)

    def test_rejects_empty_inputs(self):
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        with pytest.raises(ValueError):
            ex.euler_curve(spec, [], 16, 0, grid=icosphere(2))
        with pytest.raises(ValueError):
            ex.euler_curve(spec, [1.0], 0, 0, grid=icosphere(2))
        with pytest.raises(ValueError, match="finite"):
            ex.euler_curve(spec, [1.0, np.inf], 16, 0, grid=icosphere(2))

    def test_unpredictable_scheme_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("euler_curve drew samples for a scheme it rejects")

        monkeypatch.setattr(ex, "map_chunks", no_draws)
        power = make_power_law(3.0, SPHERE, SPHERE.n_levels, tail_tol=None)
        spec = RandomFieldSpec(SPHERE, power, FieldKind.H)
        with pytest.raises(ValueError, match="per-eigenspace"):
            ex.euler_curve(spec, [1.0], 16, 0, grid=icosphere(2))

    def test_fresh_icosphere_is_not_checked_again(self, monkeypatch):
        # icosphere() derives its edges once, which checks the mesh is closed
        calls = []
        monkeypatch.setattr(grids, "face_edges", lambda faces: calls.append(faces) or face_edges(faces))
        g = icosphere(3)
        assert len(calls) == 1
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        ex.euler_curve(spec, [2.0], 16, 3, grid=g)
        ex.empirical_euler(g, np.zeros(g.n_points), 0.0)
        assert len(calls) == 1
        # writable faces may have changed since: they are checked again
        g2 = dataclasses.replace(g, faces=np.array(g.faces))
        ex.empirical_euler(g2, np.zeros(g2.n_points), 0.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_grid_gives_fresh_grid_results(self, workers):
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        reused = icosphere(3)
        for seed in (5, 6):
            a = ex.euler_curve(spec, [0.5, 2.0], 300, seed, grid=reused, workers=workers)
            b = ex.euler_curve(spec, [0.5, 2.0], 300, seed, grid=icosphere(3), workers=workers)
            assert np.array_equal(a.empirical_mean, b.empirical_mean)
            assert np.array_equal(a.empirical_se, b.empirical_se)

    def test_pinned_chi_sums(self):
        # seed 12345, 64 draws on icosphere:5: the exact chi sums per
        # threshold of stream 2
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        ec = ex.euler_curve(spec, np.linspace(1.0, 3.5, 20), 64, 12345, grid=icosphere(5))
        chi_sums = np.rint(ec.empirical_mean * ec.n_samples).astype(int).tolist()
        assert chi_sums == [53, 51, 46, 41, 32, 22, 17, 13, 10, 7, 4, 3, 2, 2, 2, 2, 0, 0, 0, 0]

    def test_pinned_chi_sums_of_a_sliced_chunk(self):
        # 256 draws, one chunk that the field pass cuts into two 128-row
        # slices; the sums are those of the chunk evaluated as one slice
        spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
        ec = ex.euler_curve(spec, np.linspace(1.0, 3.5, 20), 256, 12345, grid=icosphere(5))
        chi_sums = np.rint(ec.empirical_mean * ec.n_samples).astype(int).tolist()
        assert chi_sums == [196, 182, 165, 144, 122, 92, 77, 56, 40, 32, 23, 19, 12, 9, 5, 5, 3, 3, 2, 2]


@settings(max_examples=8, deadline=None)
@given(chunk=st.integers(100, 2500), n=st.integers(1, 2500))
def test_estimates_do_not_depend_on_the_chunk_size(chunk, n):
    # draw j is fixed whatever chunk it is drawn in, so every count is too
    v_grid, t_grid, ico = fibonacci_sphere(64), torus_grid(8), icosphere(2)
    h_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)

    def run():
        study = ex.p2_curve(V_SPEC, [0.3, 0.5], v_grid, n, 5)
        linf = ex.estimate_linf(TORUS_SPEC, 0.05, 0.1, t_grid, n, 5, refine=True)
        chi = ex.euler_curve(h_spec, [0.5, 2.0], n, 5, grid=ico).empirical_mean
        return [r.estimate for r in study.reports], study.e_sup, linf, chi

    p2, e_sup, linf, chi = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "P2_CHUNK", chunk)
        mp.setattr(ex, "EULER_CHUNK", chunk)
        mp.setattr(ex, "_linf_chunk_rows", lambda n_active: chunk)
        p2_c, e_sup_c, linf_c, chi_c = run()
    assert p2_c == p2 and e_sup_c == pytest.approx(e_sup, rel=1e-12)
    assert (linf_c.estimate, linf_c.refinement_delta) == (linf.estimate, linf.refinement_delta)
    assert np.array_equal(chi_c, chi)


def test_estimates_do_not_depend_on_the_field_slices():
    # slices of at most 7 rows, or 6 under the 4096-value cap on
    # icosphere:3's 642 points, cut each chunk (and the 41 linf screen
    # survivors of its two chunks) unevenly; every report equals its report
    # under the default caps exactly
    h_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)

    def run():
        return (
            [ex.p2_curve(V_SPEC, [0.3, 0.5], fibonacci_sphere(64), 2500, 5, refine=r) for r in (False, True)],
            ex.estimate_linf(TORUS_SPEC, 1.0 / 60.0, 0.05, torus_grid(16), 20000, 2026),
            ex.euler_curve(h_spec, [0.5, 1.5, 2.5], 600, 5, grid=icosphere(3)),
        )

    p2, linf, euler = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_FIELD_ROWS", 7)
        mp.setattr(fields, "_FIELD_VALUES", 2**12)
        p2_s, linf_s, euler_s = run()
    assert p2_s == p2
    assert linf.estimate > 0.0 and linf_s == linf
    for name, value in vars(euler).items():
        assert np.array_equal(getattr(euler_s, name), value)


@pytest.mark.parametrize("estimator", ["p2", "linf", "euler"])
def test_fractional_seed_or_sample_count_is_refused(monkeypatch, estimator):
    # int() would run seed 2.9 as seed 2 and 300.7 samples as 300, aliasing
    # those runs; the check comes before any sampler is built
    h_spec = RandomFieldSpec(SPHERE, SCHEME, FieldKind.H)
    run = {
        "p2": lambda n, seed: ex.p2_curve(V_SPEC, [0.5], fibonacci_sphere(16), n, seed).reports[0],
        "linf": lambda n, seed: ex.estimate_linf(TORUS_SPEC, 0.05, 0.05, torus_grid(4), n, seed),
        "euler": lambda n, seed: ex.euler_curve(h_spec, [0.5], n, seed, grid=icosphere(1)),
    }[estimator]
    # Python and numpy integers are counts and seeds
    assert run(np.int32(3), np.uint64(2)).seed == 2
    built = []
    monkeypatch.setattr(ex, "make_sampler", lambda *args: built.append(args))
    for n, seed in [(3, 2.9), (3, 2.0), (3.7, 2), (np.float64(3.0), 2)]:
        with pytest.raises(TypeError):
            run(n, seed)
    assert built == []
