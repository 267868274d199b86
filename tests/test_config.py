"""Configuration loading: section merging, override precedence, validation,
and hash stability."""

import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcurv import cli
from randcurv.config import (
    INDEXINGS,
    SEED_ENV,
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_grid,
)
from randcurv.fields import RNG_STREAM


def write(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return str(p)


class TestLoading:
    def test_defaults_without_file(self):
        cfg = load_config("bounds", None)
        assert cfg.command == "bounds"
        assert cfg.geometry == "sphere"
        assert cfg.n_dim == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_config("bounds", str(tmp_path / "nope.ini"))

    def test_command_section_overrides_common(self, tmp_path):
        path = write(
            tmp_path,
            "[common]\nseed = 3\nn_samples = 10\n"
            "[p2]\nn_samples = 20\namplitudes = 0.4\ngrid = fibonacci:32\n",
        )
        cfg = load_config("p2", path)
        assert cfg.seed == 3
        assert cfg.n_samples == 20
        assert cfg.amplitudes == (0.4,)

    def test_flag_overrides_file(self, tmp_path):
        path = write(tmp_path, "[common]\nseed = 3\nworkers = 2\n")
        cfg = load_config("bounds", path, seed=9, workers=4, out="elsewhere")
        assert cfg.seed == 9
        assert cfg.workers == 4
        assert cfg.out == "elsewhere"

    def test_env_seed_beats_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "42")
        path = write(tmp_path, "[common]\nseed = 3\n")
        cfg = load_config("bounds", path, seed=9)
        assert cfg.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[common]\nwibble = 1\n")
        with pytest.raises(ValueError, match="unknown configuration key"):
            load_config("bounds", path)

    def test_inline_comments_stripped(self, tmp_path):
        path = write(tmp_path, "[common]\nseed = 5 ; the run seed\n")
        assert load_config("bounds", path).seed == 5

    def test_bad_value_reports_key(self, tmp_path):
        path = write(tmp_path, "[common]\nrefine = maybe\n")
        with pytest.raises(ValueError, match="refine"):
            load_config("bounds", path)

    @pytest.mark.parametrize("text", [
        "[common]\nseed = 1\nseed = 2\n",  # duplicate option
        "seed = 1\n[common]\nn_samples = 3\n",  # no section header
        "[common]\nseed = 1\nout = a%b\n",  # bad interpolation
    ])
    def test_unparsable_file_raises_value_error(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(ValueError, match="^cannot parse config file .*exp.ini: "):
            load_config("bounds", path)


class TestSeedRange:
    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_seed_rejected_from_every_source(self, tmp_path, monkeypatch, bad):
        path = write(tmp_path, f"[common]\nseed = {bad}\n")
        with pytest.raises(ValueError, match="'seed'.*2\\*\\*64"):
            load_config("bounds", path)
        with pytest.raises(ValueError, match="seed must lie"):
            load_config("bounds", None, seed=bad)
        monkeypatch.setenv(SEED_ENV, str(bad))
        with pytest.raises(ValueError, match=SEED_ENV):
            load_config("bounds", None)

    def test_range_ends_accepted(self, tmp_path, monkeypatch):
        path = write(tmp_path, "[common]\nseed = 0\n")
        assert load_config("bounds", path).seed == 0
        assert load_config("bounds", path, seed=2**64 - 1).seed == 2**64 - 1
        monkeypatch.setenv(SEED_ENV, str(2**64 - 1))
        assert load_config("bounds", path).seed == 2**64 - 1


class TestValidation:
    def test_p2_needs_amplitudes(self):
        with pytest.raises(ValueError, match="amplitudes"):
            load_config("p2", None)

    def test_p2_needs_nonzero_reference(self, tmp_path):
        path = write(
            tmp_path, "[p2]\namplitudes = 0.1\nreference = 0.0\n"
        )
        with pytest.raises(ValueError, match="reference"):
            load_config("p2", path)

    def test_linf_needs_matched_lists(self, tmp_path):
        path = write(
            tmp_path, "[linf]\namplitudes = 0.1, 0.2\nthresholds = 0.5\n"
        )
        with pytest.raises(ValueError, match="equal"):
            load_config("linf", path)

    def test_euler_needs_thresholds(self):
        with pytest.raises(ValueError, match="thresholds"):
            load_config("euler", None)

    def test_euler_indexing_applies_to_explicit_values_only(self, tmp_path):
        # the normalized scheme is per-eigenspace whatever the indexing key says
        path = write(
            tmp_path,
            "[euler]\nindexing = per_eigenfunction\nthresholds = 1.0\ngrid = icosphere:2\n",
        )
        assert load_config("euler", path).scheme == "normalized"

    def test_euler_values_must_sum_to_one(self, tmp_path, monkeypatch, capsys):
        # refused as predicted_euler would refuse it, before the CLI builds
        # a spectrum or a grid
        path = write(
            tmp_path,
            "[euler]\nscheme = explicit\nvalues = 0.5, 0.2\nthresholds = 1.0\n"
            f"grid = icosphere:2\nout = {tmp_path / 'runs'}\n",
        )
        message = "the prediction needs a unit-variance scheme (weights sum to 0.70000000)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config("euler", path)
        built = []
        monkeypatch.setattr(cli, "sphere2_spectrum", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "icosphere", lambda *a: built.append(a))
        assert cli.main(["euler", "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert built == [] and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scheme", ["power", "heat"])
    def test_euler_refuses_per_eigenfunction_schemes(self, tmp_path, monkeypatch, capsys, scheme):
        # power and heat scales are per eigenfunction, which the prediction
        # cannot read: refused before the CLI builds the grid
        path = write(
            tmp_path,
            f"[euler]\nscheme = {scheme}\nthresholds = 1.0\ngrid = icosphere:7\n"
            f"out = {tmp_path / 'runs'}\n",
        )
        message = "the prediction needs the per-eigenspace (variance weight) convention"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config("euler", path)
        monkeypatch.setattr(cli, "icosphere", pytest.fail)
        assert cli.main(["euler", "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bounds_needs_high_dimension(self, tmp_path):
        path = write(tmp_path, "[bounds]\nn_dim = 2\n")
        with pytest.raises(ValueError, match="n > 2"):
            load_config("bounds", path)

    def test_sample_file_count_capped(self, tmp_path):
        path = write(tmp_path, "[sample]\nn_samples = 500\n")
        with pytest.raises(ValueError, match="256"):
            load_config("sample", path)

    def test_normalized_scheme_is_sphere_only(self, tmp_path):
        path = write(
            tmp_path,
            "[qsign]\ngeometry = s4\nscheme = normalized\namplitudes = 0.1\n",
        )
        with pytest.raises(ValueError, match="sphere"):
            load_config("qsign", path)

    def test_explicit_scheme_needs_values(self, tmp_path):
        path = write(tmp_path, "[common]\nscheme = explicit\n")
        with pytest.raises(ValueError, match="values"):
            load_config("bounds", path)

    def test_misspelled_indexing_rejected_naming_the_key(self, tmp_path):
        for scheme in ("explicit", "power"):
            path = write(
                tmp_path,
                f"[common]\nscheme = {scheme}\nvalues = 1.0\nindexing = per_eigenfuncton\n",
            )
            with pytest.raises(ValueError, match="indexing.*per_eigenfuncton"):
                load_config("bounds", path)

    @pytest.mark.parametrize("key, value", [
        ("amplitudes", "0.1, nan"),
        ("thresholds", "nan"),
        ("reference", "inf"),
        ("r0sq_pair", "1.0, nan"),
    ])
    def test_non_finite_number_rejected_naming_the_key(self, tmp_path, key, value):
        path = write(tmp_path, f"[common]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"bad value for '{key}'.*finite"):
            load_config("bounds", path)

    def test_bad_geometry_and_command(self, tmp_path):
        path = write(tmp_path, "[common]\ngeometry = klein\n")
        with pytest.raises(ValueError, match="geometry"):
            load_config("bounds", path)
        with pytest.raises(ValueError, match="unknown command"):
            load_config("frobnicate", None)

    @pytest.mark.parametrize("command, setting, message", [
        *((command, "geometry = s4",
           f"{command} needs a pointwise sampler; the 4-sphere model is "
           "spectrum-only (use qsign or bounds for it)")
          for command in ("sample", "p2", "linf")),
        ("euler", "geometry = s4", "euler needs sphere geometry"),
        ("euler", "geometry = torus", "euler needs sphere geometry"),
        ("euler", "grid = fibonacci:16", "euler needs an icosphere:<depth> grid (triangulation)"),
        ("euler", "indexing = per_eigenfunction",
         "the prediction needs the per-eigenspace (variance weight) convention"),
        ("sample", "geometry = torus\ngrid = fibonacci:16", "torus geometry needs a torus:<n> grid"),
        ("linf", "geometry = torus\ngrid = icosphere:2", "torus geometry needs a torus:<n> grid"),
        ("p2", "grid = torus:8",
         "sphere geometry needs a fibonacci:<n> or icosphere:<depth> grid"),
        ("qsign", "geometry = sphere", "qsign runs on the round 4-sphere model (geometry = s4)"),
        ("qsign", "geometry = torus", "qsign runs on the round 4-sphere model (geometry = s4)"),
    ])
    def test_command_geometry_grid_mismatch_rejected(self, tmp_path, command, setting, message):
        # rejected by load_config, before any spectrum or grid is built
        path = write(
            tmp_path,
            "[common]\nscheme = explicit\nvalues = 1.0\namplitudes = 0.1\nn_samples = 4\n"
            f"thresholds = 1.0\ngrid = icosphere:2\n[{command}]\n{setting}\n",
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(command, path)


    @pytest.mark.parametrize("command, setting, message", [
        ("bounds", "scheme = wavelet", "scheme must be one of normalized, power, heat, explicit"),
        ("bounds", "truncation = 0", "truncation must be at least 1"),
        ("bounds", "n_samples = 0", "n_samples must be at least 1"),
        ("bounds", "workers = 0", "workers must be at least 1"),
        ("p2", "amplitudes = 0.1, 0.0", "amplitudes must be positive"),
        ("qsign", "geometry = s4\namplitudes = -0.1", "amplitudes must be positive"),
        ("linf", "amplitudes = 0.0", "linf amplitudes and thresholds must be positive"),
        ("linf", "thresholds = -1.0", "linf amplitudes and thresholds must be positive"),
        ("heat", "t_values = 0.1, 0.0", "heat needs positive t_values"),
        ("heat", "reference = 0.0", "heat needs a nonzero reference curvature"),
        ("qsign", "geometry = s4\nreference = 0.0", "qsign needs a nonzero reference curvature"),
        ("sample", "amplitude = -0.1", "sample amplitude must be nonnegative"),
        ("bounds", "r0sq_pair = 1.0, 0.5, 0.2",
         "bad value for 'r0sq_pair': expected two comma-separated numbers, got '1.0, 0.5, 0.2'"),
    ])
    def test_out_of_range_setting_rejected(self, tmp_path, command, setting, message):
        path = write(
            tmp_path,
            "[common]\nscheme = explicit\nvalues = 1.0\namplitudes = 0.1\nn_samples = 4\n"
            f"thresholds = 1.0\ngrid = icosphere:2\n[{command}]\n{setting}\n",
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(command, path)


class TestGrid:
    def test_parse_forms(self):
        assert parse_grid("fibonacci:1024") == ("fibonacci", 1024)
        assert parse_grid("icosphere:5") == ("icosphere", 5)
        assert parse_grid(" torus:16") == ("torus", 16)

    def test_rejects_malformed(self):
        for text in ("fibonacci", "cube:8", "torus:0", "icosphere:x"):
            with pytest.raises(ValueError):
                parse_grid(text)


class TestHash:
    def test_formatting_does_not_change_hash(self, tmp_path):
        a = load_config(
            "p2", write(tmp_path, "[p2]\namplitudes = 0.4,0.25\nseed = 7\n")
        )
        b = load_config(
            "p2",
            write(tmp_path, "[common]\nseed = 7\n[p2]\namplitudes = 0.40 , 0.250\n"),
        )
        assert config_hash(a) == config_hash(b)

    def test_workers_and_out_excluded(self):
        a = load_config("bounds", None)
        b = load_config("bounds", None, workers=8, out="elsewhere")
        assert config_hash(a) == config_hash(b)
        assert "workers" not in canonical_text(a)

    def test_seed_and_command_distinguish(self, tmp_path):
        a = load_config("bounds", None)
        b = load_config("bounds", None, seed=1)
        assert config_hash(a) != config_hash(b)
        c = load_config("heat", None)
        assert config_hash(a) != config_hash(c)

    def test_canonical_text_is_sorted_key_value(self):
        text = canonical_text(load_config("bounds", None))
        keys = [line.split("=", 1)[0] for line in text.splitlines()]
        assert keys == sorted(keys)
        assert "command=bounds" in text

    def test_rng_stream_is_hashed_and_must_be_the_librarys(self, tmp_path):
        # a config made under another random stream cannot reproduce its numbers
        assert f"rng_stream={RNG_STREAM}" in canonical_text(load_config("bounds", None)).splitlines()
        with pytest.raises(ValueError, match="rng_stream 1 cannot be reproduced"):
            load_config("bounds", write(tmp_path, "[common]\nrng_stream = 1\n"))

    def test_hash_is_stable_hex(self):
        h = config_hash(ExperimentConfig(command="bounds"))
        assert len(h) == 16
        assert h == config_hash(ExperimentConfig(command="bounds"))


_positive = st.floats(min_value=1e-3, max_value=50.0)


@st.composite
def _ini_values(draw):
    """The [common] section of a valid p2, linf or heat config."""
    command = draw(st.sampled_from(["p2", "linf", "heat"]))
    geometry = draw(st.sampled_from(["sphere", "torus"]))
    schemes = ["power", "heat", "explicit"] + (["normalized"] if geometry == "sphere" else [])
    kv = {
        "geometry": geometry,
        "scheme": draw(st.sampled_from(schemes)),
        "indexing": draw(st.sampled_from(INDEXINGS)),
        "s": draw(_positive),
        "truncation": draw(st.integers(1, 40)),
        "values": draw(st.lists(_positive, min_size=1, max_size=4)),
        "reference": draw(st.floats(-5.0, 5.0).filter(bool)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "n_samples": draw(st.integers(1, 10**6)),
        "refine": draw(st.booleans()),
        "grid": "torus:8" if geometry == "torus" else draw(st.sampled_from(["fibonacci:64", "icosphere:3"])),
    }
    if command == "heat":
        kv["t_values"] = draw(st.lists(_positive, min_size=1, max_size=5))
    else:
        kv["amplitudes"] = amps = draw(st.lists(_positive, min_size=1, max_size=4))
        if command == "linf":
            kv["thresholds"] = draw(st.lists(_positive, min_size=len(amps), max_size=len(amps)))
    text = "".join(
        f"{k} = {', '.join(map(repr, v)) if isinstance(v, list) else v}\n" for k, v in kv.items()
    )
    return command, text


def _load_common(command, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w") as fh:
            fh.write("[common]\n" + body)
        return load_config(command, path)


@settings(max_examples=60, deadline=None)
@given(_ini_values())
def test_canonical_text_reloads_to_itself(case):
    command, body = case
    text = canonical_text(_load_common(command, body))
    rest = "\n".join(line for line in text.splitlines() if not line.startswith("command="))
    assert canonical_text(_load_common(command, rest + "\n")) == text
