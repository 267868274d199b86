"""End-to-end command runs on small configs: every artifact parses, the JSON
summaries validate against the schema, reruns are byte-identical, and the
documented row-level checks (sandwich, asymptote ratios, endpoint exactness)
hold."""

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from randcurv import cli, excursion, fields, grids
from randcurv.cli import main
from randcurv.excursion import estimate_linf, p2_curve
from randcurv.fields import RNG_STREAM, FieldKind, RandomFieldSpec, make_sampler
from randcurv.grids import fibonacci_sphere, torus_grid
from randcurv.reports import RUN_SCHEMA, format_cell, payload_lines, read_csv
from randcurv.spectral import (
    make_explicit,
    make_heat_kernel,
    make_power_law,
    make_sphere_normalized,
    sphere2_spectrum,
    torus2_spectrum,
)

BASE = """
[common]
geometry = sphere
scheme = normalized
s = 8.0
truncation = 12
seed = 7
out = {out}

[sample]
grid = fibonacci:12
n_samples = 2
amplitude = 0.1

[p2]
grid = fibonacci:64
amplitudes = 0.4, 0.3333333333333333
n_samples = 2048

[euler]
grid = icosphere:3
thresholds = 1.5, 2.5
n_samples = 200

[linf]
geometry = torus
scheme = explicit
truncation = 11
values = 0,0,0,0,0,0,0,0,0,0,0.5
reference = 0.0
grid = torus:16
amplitudes = 0.016666666666666666
thresholds = 0.05
n_samples = 4096

[heat]
t_values = 0.01, 0.1, 1, 5, 10

[bounds]
n_dim = 4
sigma_v = 1.0
sigma_2 = 1.0
amplitude = 0.1

[qsign]
geometry = s4
scheme = explicit
truncation = 1
values = 1.0
reference = 3.0
amplitudes = 0.1, 0.01, 0.001
"""

COMMANDS = ("sample", "p2", "euler", "linf", "heat", "bounds", "qsign")


def write_ini(tmp_path, text=None, name="exp.ini"):
    out = tmp_path / "artifacts"
    path = tmp_path / name
    path.write_text((text or BASE).format(out=out))
    return str(path), out


def run_ok(args):
    assert main(args) == 0


def csvs(out_dir):
    return sorted(Path(out_dir).glob("*.csv"))


def rows_by_header(path):
    _, header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


class TestArtifacts:
    def test_every_command_emits_valid_artifacts(self, tmp_path):
        ini, out = write_ini(tmp_path)
        for command in COMMANDS:
            run_ok([command, "--config", ini])
        for csv_path in csvs(out):
            meta, header, rows = read_csv(csv_path)
            assert len(meta["config_hash"]) == 16
            assert meta["rng_stream"] == str(RNG_STREAM)
            assert header and rows
        run_files = sorted(Path(out).glob("*_run.json"))
        assert len(run_files) == len(COMMANDS)
        for run_file in run_files:
            doc = json.loads(run_file.read_text())
            jsonschema.validate(doc, RUN_SCHEMA)
            for artifact in doc["artifacts"]:
                assert Path(artifact).exists()
                assert doc["config_hash"] in Path(artifact).name

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unparsable_config_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "dup.ini"
        ini.write_text("[common]\nseed = 1\nseed = 2\n")
        assert main(["bounds", "--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse config file")


GOLDEN = {
    "sample": (
        "5a04230df9ee2eba53796af0bcc81326dacb619cb942e235356a0e911973499c",
        ["sample_7d3053522711e40e_d0000.csv", "sample_7d3053522711e40e_d0001.csv",
         "sample_7d3053522711e40e_run.json"],
    ),
    "p2": (
        "3bf4c85be39ddea3b71c1bfe57c0dc36619252ed8942040415b8a1ad35eee680",
        ["p2_9a14cd56bf9c4b68.csv", "p2_9a14cd56bf9c4b68_run.json"],
    ),
    "euler": (
        "cb518e2a6175815d25fd380a5a4aa436d3efd34c106eb2f83a3f4053d0ae493e",
        ["euler_a8bc2c96008a5320.csv", "euler_a8bc2c96008a5320_run.json"],
    ),
    "linf": (
        "46f40294ccc9094a0f70dd61ad9fea020a94890517d76b037034ab53efc84b9c",
        ["linf_ad255c716e77aec9.csv", "linf_ad255c716e77aec9_run.json"],
    ),
    "heat": (
        "8066458dd0c8c7eb0268a0feb8edd903229f695cd20204229eb95a20618c4870",
        ["heat_f55f4217a43ff358.csv", "heat_f55f4217a43ff358_run.json"],
    ),
    "bounds": (
        "880162c98ca4be8cb4619309f99faa0b5c6ea22ca0b1f9cc1d3b6163eb67106a",
        ["bounds_98f0b1425a8c809a_run.json", "bounds_compare_98f0b1425a8c809a.csv",
         "bounds_constants_98f0b1425a8c809a.csv", "bounds_limits_98f0b1425a8c809a.csv"],
    ),
    "qsign": (
        "85b898b13c26d0243c3c17dc982addadc5b1b04b5462f11845780acdcd420e6b",
        ["qsign_3f273a77e7edb45b.csv", "qsign_3f273a77e7edb45b_run.json"],
    ),
}


class TestGolden:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_payload_and_names_are_pinned(self, tmp_path, monkeypatch, command):
        # every command on BASE at one worker: the sha256 of its CSV payloads
        # (files in name order) and its artifact names, which carry the
        # config hash
        monkeypatch.delenv("RANDCURV_SEED", raising=False)
        ini, out = write_ini(tmp_path)
        run_ok([command, "--config", ini, "--workers", "1"])
        digest = hashlib.sha256()
        for path in csvs(out):
            digest.update("\n".join(payload_lines(path)).encode())
        names = sorted(p.name for p in Path(out).iterdir())
        assert (digest.hexdigest(), names) == GOLDEN[command]


class TestRunRows:
    @pytest.mark.parametrize("command", ["p2", "euler", "linf", "heat", "qsign", "bounds"])
    def test_run_json_rows_are_the_csv_rows(self, tmp_path, command):
        # the run JSON rows, formatted as the CSV writer does, are the rows
        # of the command's CSV tables in artifact order, cell for cell
        ini, out = write_ini(tmp_path)
        run_ok([command, "--config", ini])
        (run_file,) = Path(out).glob("*_run.json")
        doc = json.loads(run_file.read_text())
        tables = [p for p in doc["artifacts"] if p.endswith(".csv")]
        csv_rows = [row for p in tables for row in rows_by_header(p)]
        json_rows = [{k: format_cell(v) for k, v in row.items()} for row in doc["rows"]]
        assert csv_rows and json_rows == csv_rows


class TestSample:
    def test_zero_amplitude_leaves_reference_curvature(self, tmp_path):
        text = BASE.replace("amplitude = 0.1", "amplitude = 0.0")
        ini, out = write_ini(tmp_path, text)
        run_ok(["sample", "--config", ini])
        for path in csvs(out):
            for row in rows_by_header(path):
                assert row["R1"] == "1.0"

    def test_r1_is_the_law_of_its_own_f_and_h(self, tmp_path):
        # repr round-trips, so R1 = e^{-af} (R0 - a h) holds bit for bit on
        # the f and h read back from the same file
        a, r0 = 0.7, -2.5
        text = BASE.replace("amplitude = 0.1", f"amplitude = {a}\nreference = {r0}")
        ini, out = write_ini(tmp_path, text)
        run_ok(["sample", "--config", ini])
        paths = csvs(out)
        assert len(paths) == 2
        for path in paths:
            meta, _, _ = read_csv(path)
            assert float(meta["reference"]) == r0
            for row in rows_by_header(path):
                f, h = float(row["f"]), float(row["h"])
                assert float(row["R1"]) == np.exp(-a * f) * (r0 - a * h)

    def test_fields_are_the_samplers_draws(self, tmp_path):
        # the command draws its fields in blocks of draws; draw j is the
        # sampler's, across the block boundary too
        ini, out = write_ini(tmp_path, BASE.replace("n_samples = 2\n", "n_samples = 40\n"))
        run_ok(["sample", "--config", ini])
        spec = RandomFieldSpec(sphere2_spectrum(12), make_sphere_normalized(8.0, 12), FieldKind.H)
        smp = make_sampler(spec, fibonacci_sphere(12))
        paths = csvs(out)
        assert len(paths) == 40
        for j, path in enumerate(paths):
            rows = rows_by_header(path)
            s = smp.sample(7, j)
            np.testing.assert_allclose([float(r["f"]) for r in rows], s.values_f, rtol=0, atol=1e-13)
            np.testing.assert_allclose([float(r["h"]) for r in rows], s.values_h, rtol=0, atol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["sample", "--config", ini])
        out2 = tmp_path / "second"
        run_ok(["sample", "--config", ini, "--out", str(out2)])
        first = csvs(out)
        second = csvs(out2)
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", [1, 8])
    def test_payload_digest_is_pinned(self, tmp_path, monkeypatch, workers):
        # the benchmark's pinned sample-cli run: two draws on fib1024
        monkeypatch.delenv("RANDCURV_SEED", raising=False)
        ini, out = write_ini(
            tmp_path,
            "[common]\ngeometry = sphere\nscheme = normalized\ns = 8.0\ntruncation = 12\n"
            "[sample]\ngrid = fibonacci:1024\namplitude = 0.25\nn_samples = 2\n",
        )
        run_ok(["sample", "--config", ini, "--seed", "2026", "--workers", str(workers), "--out", str(out)])
        paths = csvs(out)
        assert len(paths) == 2
        digest = hashlib.sha256()
        for path in paths:
            digest.update("\n".join(payload_lines(path)).encode())
        assert digest.hexdigest() == "98c14d21a0b2c5c6bd359f67d5e948b461cdc608c21801409ed98fea16c938ff"

    def test_workers_change_nothing_but_where(self, tmp_path, monkeypatch):
        # 40 draws make two chunks of the sample command, so workers > 1 run
        # them in a pool of two
        pools = []

        def recording_pool(max_workers, **kwargs):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(excursion, "ProcessPoolExecutor", recording_pool)
        ini, _ = write_ini(tmp_path, BASE.replace("n_samples = 2\n", "n_samples = 40\n"))
        runs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"workers{workers}"
            run_ok(["sample", "--config", ini, "--workers", str(workers), "--out", str(out)])
            (run_json,) = out.glob("*_run.json")
            payloads = [p.read_bytes() for p in csvs(out)]
            runs.append((payloads, json.loads(run_json.read_text())["rows"]))
        assert pools == [2, 2]
        assert len(runs[0][0]) == 40
        assert runs[0] == runs[1] == runs[2]

    def test_torus_files_carry_the_grid_angles(self, tmp_path):
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\n[sample]\ngeometry = torus\nscheme = power\ns = 5.0\n"
            "truncation = 12\ngrid = torus:4\nn_samples = 2\n",
        )
        run_ok(["sample", "--config", ini])
        points = torus_grid(4).points
        paths = csvs(out)
        assert len(paths) == 2
        for path in paths:
            _, header, rows = read_csv(path)
            assert header == ["index", "theta1", "theta2", "f", "h", "R1"]
            assert [r[1:3] for r in rows] == [[repr(float(x)) for x in p] for p in points]

    def test_s4_has_no_sampler(self, tmp_path, capsys):
        text = BASE.replace("[sample]\ngrid", "[sample]\ngeometry = s4\ngrid")
        text = text.replace(
            "[sample]\ngeometry = s4\ngrid = fibonacci:12",
            "[sample]\ngeometry = s4\nscheme = explicit\nvalues = 1.0\ngrid = fibonacci:12",
        )
        ini, _ = write_ini(tmp_path, text)
        assert main(["sample", "--config", ini]) == 2
        assert "spectrum-only" in capsys.readouterr().err

    def test_oversize_design_exits_2_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # (400 + 1)^2 - 1 harmonics on 1024 points would take 1.23 GiB
        monkeypatch.setattr(fields, "_harmonic_design", pytest.fail)
        text = BASE.replace("truncation = 12\n", "truncation = 400\n", 1)
        ini, _ = write_ini(tmp_path, text.replace("grid = fibonacci:12", "grid = fibonacci:1024"))
        assert main(["sample", "--config", ini]) == 2
        assert "1024 points x 160800 columns" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, truncation, message", [
        # 10 * 4^8 + 2 mesh vertices and 14 * 16 harmonics
        ("icosphere:8", 14, "655362 points x 224 columns would take 1.09 GiB"),
        ("fibonacci:1000000000", 12, "1000000000 points x 168 columns would take 1251.70 GiB"),
    ], ids=["icosphere", "fibonacci"])
    def test_oversize_design_exits_2_before_the_grid_is_built(
        self, tmp_path, capsys, monkeypatch, grid, truncation, message
    ):
        for builder in ("fibonacci_sphere", "icosphere", "torus_grid"):
            monkeypatch.setattr(cli, builder, pytest.fail)
        text = BASE.replace("truncation = 12\n", f"truncation = {truncation}\n", 1)
        ini, _ = write_ini(tmp_path, text.replace("grid = fibonacci:12", f"grid = {grid}"))
        assert main(["sample", "--config", ini]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        # 10 * 4^10 + 2 mesh vertices at 521 bytes each; a 3-column design
        # of them takes 0.23 GiB
        ("icosphere:10", "icosphere:10 (10485762 points) would take about 5.09 GiB"),
        ("fibonacci:20000000", "fibonacci:20000000 (20000000 points) would take about 1.64 GiB"),
    ], ids=["icosphere", "fibonacci"])
    def test_oversize_grid_exits_2_before_it_is_built(
        self, tmp_path, capsys, monkeypatch, grid, message
    ):
        for builder in ("fibonacci_sphere", "icosphere", "torus_grid"):
            monkeypatch.setattr(cli, builder, pytest.fail)
        text = BASE.replace(
            "[sample]\ngrid = fibonacci:12",
            f"[sample]\nscheme = explicit\nvalues = 1.0\ntruncation = 1\ngrid = {grid}",
        )
        ini, _ = write_ini(tmp_path, text)
        assert main(["sample", "--config", ini]) == 2
        assert message in capsys.readouterr().err


class TestP2:
    def test_rows_are_sandwiched_and_predicted(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["p2", "--config", ini])
        (path,) = csvs(out)
        meta, _, _ = read_csv(path)
        assert float(meta["sigma_v"]) == pytest.approx(1.0, abs=1e-6)
        assert float(meta["e_sup_mc"]) > 1.0
        rows = rows_by_header(path)
        assert len(rows) == 2
        for row in rows:
            est = float(row["estimate"])
            se = float(row["standard_error"])
            assert float(row["lower"]) <= est + 3.0 * se
            assert est - 3.0 * se <= float(row["upper"])
            # factor-2 agreement needs more samples; here just consistency
            assert 0.2 <= est / float(row["prediction"]) <= 5.0
            assert row["warnings"] == ""

    def test_empty_amplitudes_is_a_config_error(self, tmp_path, capsys):
        ini, _ = write_ini(
            tmp_path, "[common]\nout = {out}\n[p2]\ngrid = fibonacci:16\n"
        )
        assert main(["p2", "--config", ini]) == 2
        assert "amplitudes" in capsys.readouterr().err

    def test_nan_amplitude_is_a_config_error(self, tmp_path, capsys):
        ini, out = write_ini(
            tmp_path, "[common]\nout = {out}\n[p2]\ngrid = fibonacci:16\namplitudes = nan\n"
        )
        assert main(["p2", "--config", ini]) == 2
        assert "'amplitudes'" in capsys.readouterr().err
        assert not csvs(out)

    def test_explicit_values_beyond_the_truncation_exit_2(self, tmp_path, capsys):
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\n[p2]\nscheme = explicit\nvalues = 0.5, 0.5\n"
            "truncation = 1\ngrid = fibonacci:16\namplitudes = 0.4\n",
        )
        assert main(["p2", "--config", ini]) == 2
        assert "truncation exceeds" in capsys.readouterr().err
        assert not csvs(out)

    @pytest.mark.parametrize("setting, scheme, amplitudes", [
        # amplitudes with thresholds 1/a near 2 and 3 sigma_v (0.031 and 0.33)
        ("scheme = power\ns = 5.0", lambda model: make_power_law(5.0, model, 12), [16.0, 11.0]),
        ("scheme = heat\nheat_time = 0.5", lambda model: make_heat_kernel(0.5, model, 12), [1.5, 1.0]),
    ])
    def test_per_eigenfunction_schemes_are_the_librarys(self, tmp_path, setting, scheme, amplitudes):
        ini, out = write_ini(
            tmp_path,
            f"[common]\nout = {{out}}\nseed = 7\n[p2]\n{setting}\ntruncation = 12\n"
            f"grid = fibonacci:64\namplitudes = {amplitudes[0]}, {amplitudes[1]}\nn_samples = 512\n",
        )
        run_ok(["p2", "--config", ini])
        (path,) = csvs(out)
        model = sphere2_spectrum(12)
        spec = RandomFieldSpec(model, scheme(model), FieldKind.V, reference_curvature=1.0)
        study = p2_curve(spec, amplitudes, fibonacci_sphere(64), 512, 7)
        rows = rows_by_header(path)
        assert [(float(r["estimate"]), float(r["standard_error"])) for r in rows] == [
            (report.estimate, report.standard_error) for report in study.reports
        ]
        assert all(0.0 < report.estimate < 1.0 for report in study.reports)

    def test_heat_scheme_with_a_tail_under_the_tolerance_runs(self, tmp_path):
        # at T = 0.3 the S^2 tail past degree 7 is 2.6e-9 of the heat trace,
        # under the default 1e-8 tolerance, so the scheme must not be refused
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\nseed = 7\n[p2]\nscheme = heat\nheat_time = 0.3\n"
            "truncation = 7\ngrid = fibonacci:64\namplitudes = 1.5\nn_samples = 512\n",
        )
        run_ok(["p2", "--config", ini])
        (path,) = csvs(out)
        (row,) = rows_by_header(path)
        assert 0.0 <= float(row["estimate"]) <= 1.0

    @pytest.mark.parametrize("grid, scheme, stand_in, builder, message", [
        # icosphere:8 passes both bounds; its refinement icosphere:9 would
        # take 2621442 x 521 bytes to build (its 3-column design, 60 MiB)
        ("icosphere:8", "scheme = explicit\nvalues = 1.0\ntruncation = 1\n",
         lambda: dataclasses.replace(grids.icosphere(2), depth=8), "icosphere",
         "icosphere:9 (2621442 points) would take about 1.27 GiB"),
        # fibonacci:500000's 168-column design takes 0.63 GiB, its refinement's 1.25 GiB
        ("fibonacci:500000", "", lambda: grids.fibonacci_sphere(64), "fibonacci_sphere",
         "1000000 points x 168 columns would take 1.25 GiB"),
    ], ids=["build", "design"])
    def test_oversize_refined_grid_exits_2_before_either_grid_is_built(
        self, tmp_path, capsys, monkeypatch, grid, scheme, stand_in, builder, message
    ):
        # the configured grid's builder gives a small stand-in, so a run that
        # built it would reach the refinement's builder in grids, which fails
        small, built = stand_in(), []
        monkeypatch.setattr(cli, builder, lambda size: built.append(size) or small)
        monkeypatch.setattr(grids, builder, lambda size: pytest.fail(f"grids.{builder}({size}) was called"))
        text = f"[common]\nout = {{out}}\n[p2]\n{scheme}grid = {grid}\namplitudes = 0.4\nn_samples = 16\n"
        ini, out = write_ini(tmp_path, text + "refine = true\n")
        assert main(["p2", "--config", ini]) == 2
        assert message in capsys.readouterr().err
        assert built == [] and not csvs(out)
        # without refine the configured grid fits and is built
        ini, out = write_ini(tmp_path, text)
        run_ok(["p2", "--config", ini])
        assert built == [int(grid.split(":")[1])]

    def test_worker_count_leaves_payload_identical(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["p2", "--config", ini, "--workers", "1"])
        (path1,) = csvs(out)
        payload1 = payload_lines(path1)
        out2 = tmp_path / "w2"
        run_ok(["p2", "--config", ini, "--workers", "2", "--out", str(out2)])
        (path2,) = csvs(out2)
        assert payload1 == payload_lines(path2)
        assert path1.name == path2.name


class TestEuler:
    def test_mid_thresholds_track_prediction(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["euler", "--config", ini])
        (path,) = csvs(out)
        for row in rows_by_header(path):
            gap = abs(float(row["empirical_mean"]) - float(row["predicted"]))
            assert gap <= 3.0 * float(row["standard_error"])

    def test_extreme_thresholds_are_exact(self, tmp_path):
        text = BASE.replace("thresholds = 1.5, 2.5", "thresholds = -10, 10")
        ini, out = write_ini(tmp_path, text)
        run_ok(["euler", "--config", ini])
        (path,) = csvs(out)
        low, high = rows_by_header(path)
        assert low["empirical_mean"] == "2.0"
        assert low["standard_error"] == "0.0"
        assert high["empirical_mean"] == "0.0"
        assert high["standard_error"] == "0.0"

    def test_needs_triangulated_sphere(self, tmp_path, capsys):
        text = BASE.replace("grid = icosphere:3", "grid = fibonacci:64")
        ini, _ = write_ini(tmp_path, text)
        assert main(["euler", "--config", ini]) == 2
        assert "icosphere" in capsys.readouterr().err


class TestLinf:
    def test_log_ratio_near_asymptote(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["linf", "--config", ini])
        (path,) = csvs(out)
        meta, _, _ = read_csv(path)
        assert float(meta["sigma_w"]) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        (row,) = rows_by_header(path)
        assert row["regime_ok"] == "false"
        assert float(row["log_asymptote"]) == pytest.approx(-9.0, rel=1e-12)
        assert 0.5 <= float(row["ratio"]) <= 1.3

    def test_regime_ok_is_the_report_without_warning(self, tmp_path):
        # u/a == 3, u >= 0.5 with u/a large, and one point inside the regime
        pairs = [(0.1 / 3.0, 0.1), (0.1, 0.6), (0.1, 0.5), (0.0125, 0.05)]
        text = BASE.replace(
            "amplitudes = 0.016666666666666666\nthresholds = 0.05\nn_samples = 4096",
            "amplitudes = " + ", ".join(repr(a) for a, _ in pairs)
            + "\nthresholds = " + ", ".join(repr(u) for _, u in pairs) + "\nn_samples = 64",
        )
        ini, out = write_ini(tmp_path, text)
        run_ok(["linf", "--config", ini])
        (path,) = csvs(out)
        spec = RandomFieldSpec(
            torus2_spectrum(11), make_explicit([0.0] * 10 + [0.5]), FieldKind.H,
            reference_curvature=0.0,
        )
        rows = rows_by_header(path)
        assert [(float(r["a"]), float(r["u"])) for r in rows] == pairs
        expect = [
            estimate_linf(spec, a, u, torus_grid(16), 64, 7).regime_warning is None
            for a, u in pairs
        ]
        assert expect == [False, False, False, True]
        assert [r["regime_ok"] for r in rows] == [format_cell(ok) for ok in expect]

    def test_spec_without_weight_estimates_zero(self, tmp_path):
        # every level's value is 0: no column is drawn or evaluated, no draw
        # can be an event, and sigma_w = 0 has no log-asymptote
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\n[linf]\ngeometry = torus\nscheme = explicit\n"
            "truncation = 3\nvalues = 0,0,0\nreference = 0.0\ngrid = torus:8\n"
            "amplitudes = 0.05\nthresholds = 0.1\nn_samples = 256\n",
        )
        run_ok(["linf", "--config", ini])
        (path,) = csvs(out)
        (row,) = rows_by_header(path)
        assert float(row["estimate"]) == 0.0
        assert row["log_estimate"] == row["log_asymptote"] == row["ratio"] == ""

    def test_w_without_variance_leaves_the_ratio_empty(self, tmp_path):
        # torus level 1 at R0 = 1: w = h + R0 f = 0, so sigma_w = 0 and there
        # is no log-asymptote, yet the second-order terms make events
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\n[linf]\ngeometry = torus\nscheme = explicit\n"
            "truncation = 1\nvalues = 0.5\nreference = 1.0\ngrid = torus:8\n"
            "amplitudes = 0.5\nthresholds = 0.01\nn_samples = 256\n",
        )
        run_ok(["linf", "--config", ini])
        (path,) = csvs(out)
        (row,) = rows_by_header(path)
        assert float(row["estimate"]) > 0.0 and row["log_estimate"] != ""
        assert row["log_asymptote"] == row["ratio"] == ""

    def test_one_weighted_level_of_many_fits_the_design_limit(self, tmp_path):
        # level 10 alone of 100 torus levels on 512^2 points: the sampler
        # builds its 8 columns (16 MiB); all 828 would pass the 1 GiB limit
        values = ",".join(["0"] * 9 + ["0.5"] + ["0"] * 90)
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\nseed = 7\n[linf]\ngeometry = torus\nscheme = explicit\n"
            f"truncation = 100\nvalues = {values}\nreference = 0.0\ngrid = torus:512\n"
            "amplitudes = 0.05\nthresholds = 0.25\nn_samples = 4096\n",
        )
        run_ok(["linf", "--config", ini])
        (path,) = csvs(out)
        (row,) = rows_by_header(path)
        spec = RandomFieldSpec(
            torus2_spectrum(100), make_explicit([0.0] * 9 + [0.5] + [0.0] * 90), FieldKind.H,
            reference_curvature=0.0,
        )
        report = estimate_linf(spec, 0.05, 0.25, torus_grid(512), 4096, 7)
        assert float(row["estimate"]) == report.estimate

    def test_nan_threshold_is_a_config_error(self, tmp_path, capsys):
        ini, out = write_ini(
            tmp_path,
            "[common]\nout = {out}\n[linf]\ngeometry = torus\nscheme = explicit\n"
            "values = 0.5\nreference = 0.0\ngrid = torus:8\n"
            "amplitudes = 0.1\nthresholds = nan\n",
        )
        assert main(["linf", "--config", ini]) == 2
        assert "'thresholds'" in capsys.readouterr().err
        assert not csvs(out)


class TestHeat:
    def test_asymptote_ratios_at_both_ends(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["heat", "--config", ini])
        (path,) = csvs(out)
        rows = rows_by_header(path)
        assert abs(float(rows[0]["small_T_ratio"]) - 1.0) < 0.05
        assert abs(float(rows[-1]["large_T_ratio"]) - 1.0) < 1e-6


class TestBounds:
    def test_constants_compare_and_limit_tables(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["bounds", "--config", ini])
        paths = {p.name.split("_" + p.name.split("_")[-1])[0]: p for p in csvs(out)}
        constants = rows_by_header(paths["bounds_constants"])
        positive = next(r for r in constants if r["kind"] == "nd_positive")
        assert positive["kappa"] == "1.5"
        assert abs(float(positive["quadratic_residual"])) <= 1e-12
        assert abs(float(positive["exponent_neg_minus_B"])) <= 1e-12
        assert abs(float(positive["exponent_pos_minus_B"])) <= 1e-12
        compare = {r["regime"]: r["larger_p2"] for r in rows_by_header(paths["bounds_compare"])}
        assert compare == {"small_T": "B", "large_T": "B"}
        limits = rows_by_header(paths["bounds_limits"])
        last = limits[-1]
        drift = abs(float(last["a2_log_upper"]) / float(last["limit"]) - 1.0)
        assert drift < 0.05


class TestQsign:
    def test_limit_diagnostic_converges(self, tmp_path):
        ini, out = write_ini(tmp_path)
        run_ok(["qsign", "--config", ini])
        (path,) = csvs(out)
        meta, _, _ = read_csv(path)
        assert meta["q0_round_derived"] == "3.0"
        assert float(meta["sigma_v"]) == pytest.approx(1.0 / 3.0, rel=1e-12)
        rows = rows_by_header(path)
        assert float(rows[0]["limit"]) == -4.5
        tiny = rows[-1]
        assert abs(float(tiny["a2_log_upper"]) / -4.5 - 1.0) < 0.05
        assert abs(float(tiny["a2_log_lower"]) / -4.5 - 1.0) < 0.05


class TestSeedPrecedence:
    def test_env_seed_lands_in_metadata(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDCURV_SEED", "99")
        ini, out = write_ini(tmp_path)
        run_ok(["bounds", "--config", ini, "--seed", "3"])
        (path, *_unused) = csvs(out)
        meta, _, _ = read_csv(path)
        assert meta["seed"] == "99"

    def test_out_of_range_seed_exits_2(self, tmp_path, capsys):
        ini, _ = write_ini(tmp_path)
        assert main(["bounds", "--config", ini, "--seed", "-1"]) == 2
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
