"""Experiment configuration.

INI-style files with a [common] section and one optional section per command;
command-section keys override [common], command-line flags override the file,
and the RANDCURV_SEED environment variable overrides everything for the seed.
The config hash is a stable digest of the canonicalized effective settings
(excluding workers and output directory, which do not change the numbers);
they include rng_stream, the version of the random stream, which must be the
library's own.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, fields as dataclass_fields

from .fields import RNG_STREAM, _check_seed
from .spectral import _SCHEME_INDEXING, Indexing, _require_unit_variance

__all__ = [
    "COMMANDS",
    "SEED_ENV",
    "ExperimentConfig",
    "load_config",
    "parse_grid",
    "canonical_text",
    "config_hash",
]

COMMANDS = ("sample", "p2", "euler", "linf", "heat", "bounds", "qsign")
SEED_ENV = "RANDCURV_SEED"

GEOMETRIES = ("sphere", "torus", "s4")
SCHEMES = ("normalized", "power", "heat", "explicit")
GRID_KINDS = ("fibonacci", "icosphere", "torus")
INDEXINGS = tuple(i.value for i in Indexing)

# the commands that sample a field on a grid
_GRIDDED = ("sample", "p2", "euler", "linf")
# fields whose values never influence the computed numbers
_UNHASHED = ("workers", "out")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    geometry: str = "sphere"
    scheme: str = "normalized"
    s: float = 8.0
    heat_time: float = 1.0
    truncation: int = 12
    values: tuple[float, ...] = ()
    indexing: str = "per_eigenspace"
    reference: float = 1.0
    amplitude: float = 0.1
    amplitudes: tuple[float, ...] = ()
    thresholds: tuple[float, ...] = ()
    grid: str = "fibonacci:1024"
    n_samples: int = 1000
    seed: int = 0
    workers: int = 1
    out: str = "runs"
    refine: bool = False
    n_dim: int = 4
    sigma_v: float = 1.0
    sigma_2: float = 1.0
    alpha: float = 0.0
    r0sq_pair: tuple[float, float] = (1.0, 0.5)
    lambda1_pair: tuple[float, float] = (2.0, 1.0)
    t_values: tuple[float, ...] = (0.01, 0.1, 1.0, 5.0, 10.0)
    # the random stream the numbers come from; part of the hash
    rng_stream: int = RNG_STREAM


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return x


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    return tuple(_parse_float(p) for p in parts)


def _parse_seed(text) -> int:
    return _check_seed(int(text))


def _parse_pair(text: str) -> tuple[float, float]:
    vals = _parse_floats(text)
    if len(vals) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return vals


# parser per field annotation; the seed alone has its own range check
_PARSERS = {
    "str": str.strip,
    "float": _parse_float,
    "int": int,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_floats,
    "tuple[float, float]": _parse_pair,
}
_CONVERTERS = {
    f.name: _parse_seed if f.name == "seed" else _PARSERS[f.type]
    for f in dataclass_fields(ExperimentConfig)
    if f.name != "command"
}


def parse_grid(text: str) -> tuple[str, int]:
    """'kind:size' -> (kind, size) with kind in fibonacci | icosphere | torus."""
    kind, sep, size = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in GRID_KINDS:
        raise ValueError(
            f"grid must be one of {', '.join(GRID_KINDS)} followed by ':<size>', got {text!r}"
        )
    n = int(size)
    if n < 1:
        raise ValueError("grid size must be positive")
    return kind, n


def _canon_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def canonical_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in sorted(dataclass_fields(cfg), key=lambda f: f.name):
        if f.name in _UNHASHED:
            continue
        lines.append(f"{f.name}={_canon_value(getattr(cfg, f.name))}")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.geometry not in GEOMETRIES:
        raise ValueError(f"geometry must be one of {', '.join(GEOMETRIES)}")
    if cfg.scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}")
    if cfg.indexing not in INDEXINGS:
        raise ValueError(
            f"indexing must be one of {', '.join(INDEXINGS)}, got {cfg.indexing!r}"
        )
    if cfg.rng_stream != RNG_STREAM:
        raise ValueError(
            f"rng_stream {cfg.rng_stream} cannot be reproduced: this version draws stream {RNG_STREAM}"
        )
    if cfg.truncation < 1:
        raise ValueError("truncation must be at least 1")
    if cfg.n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    if cfg.scheme == "explicit" and not cfg.values:
        raise ValueError("explicit scheme needs a nonempty values list")
    if cfg.scheme == "normalized" and cfg.geometry != "sphere":
        raise ValueError("the normalized scheme is defined on the sphere")
    if cfg.command in _GRIDDED:
        kind = parse_grid(cfg.grid)[0]
    if cfg.command in ("p2", "qsign"):
        if not cfg.amplitudes:
            raise ValueError(f"{cfg.command} needs a nonempty amplitudes list")
        if any(a <= 0 for a in cfg.amplitudes):
            raise ValueError("amplitudes must be positive")
    if cfg.command == "p2" and cfg.reference == 0.0:
        raise ValueError("p2 needs a nonzero constant-sign reference curvature")
    if cfg.command == "euler" and not cfg.thresholds:
        raise ValueError("euler needs a nonempty thresholds list")
    if cfg.command == "linf":
        if not cfg.amplitudes or len(cfg.amplitudes) != len(cfg.thresholds):
            raise ValueError(
                "linf needs amplitudes and thresholds lists of equal nonzero length"
            )
        if any(a <= 0 for a in cfg.amplitudes) or any(u <= 0 for u in cfg.thresholds):
            raise ValueError("linf amplitudes and thresholds must be positive")
    if cfg.command == "heat":
        if not cfg.t_values or any(t <= 0 for t in cfg.t_values):
            raise ValueError("heat needs positive t_values")
        if cfg.reference == 0.0:
            raise ValueError("heat needs a nonzero reference curvature")
    if cfg.command == "bounds" and cfg.n_dim <= 2:
        raise ValueError("bounds constants need dimension n > 2")
    if cfg.command == "qsign" and cfg.reference == 0.0:
        raise ValueError("qsign needs a nonzero reference curvature")
    if cfg.command == "sample":
        if cfg.amplitude < 0:
            raise ValueError("sample amplitude must be nonnegative")
        if cfg.n_samples > 256:
            raise ValueError("sample writes one file per draw; use n_samples <= 256")
    # what each command can run on: a command that samples needs a sampler
    # for its geometry and a grid of that geometry; qsign is spectrum-only
    if cfg.command in _GRIDDED:
        if cfg.command == "euler":
            if cfg.geometry != "sphere":
                raise ValueError("euler needs sphere geometry")
            if kind != "icosphere":
                raise ValueError("euler needs an icosphere:<depth> grid (triangulation)")
            # the expected-EC prediction reads per-eigenspace variance weights
            # that sum to 1; indexing applies to explicit values only
            indexing = _SCHEME_INDEXING.get(cfg.scheme, Indexing(cfg.indexing))
            if indexing is not Indexing.PER_EIGENSPACE:
                raise ValueError(
                    "the prediction needs the per-eigenspace (variance weight) convention"
                )
            if cfg.scheme == "explicit":
                _require_unit_variance(cfg.values)
        if cfg.geometry == "s4":
            raise ValueError(
                f"{cfg.command} needs a pointwise sampler; the 4-sphere model is "
                "spectrum-only (use qsign or bounds for it)"
            )
        if cfg.geometry == "torus" and kind != "torus":
            raise ValueError("torus geometry needs a torus:<n> grid")
        if cfg.geometry == "sphere" and kind == "torus":
            raise ValueError("sphere geometry needs a fibonacci:<n> or icosphere:<depth> grid")
    if cfg.command == "qsign" and cfg.geometry != "s4":
        raise ValueError("qsign runs on the round 4-sphere model (geometry = s4)")


def load_config(
    command: str,
    path: str | None,
    seed: int | None = None,
    workers: int | None = None,
    out: str | None = None,
) -> ExperimentConfig:
    """Effective configuration for one command.

    Precedence per key: [common] section < [command] section < command-line
    flag; the seed additionally honors the RANDCURV_SEED environment variable
    above all of those.
    """
    merged: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            read = parser.read(path)
            sections = {
                section: parser.items(section)
                for section in ("common", command)
                if parser.has_section(section)
            }
        except configparser.Error as err:
            # duplicate keys, a missing section header, a bad % interpolation
            raise ValueError(f"cannot parse config file {path}: {err}") from err
        if not read:
            raise ValueError(f"config file not found: {path}")
        for section, items in sections.items():
            for key, raw in items:
                if key not in _CONVERTERS:
                    raise ValueError(f"unknown configuration key {key!r} in [{section}]")
                try:
                    merged[key] = _CONVERTERS[key](raw)
                except ValueError as err:
                    raise ValueError(f"bad value for {key!r}: {err}") from err
    if seed is not None:
        merged["seed"] = _parse_seed(seed)
    if workers is not None:
        merged["workers"] = int(workers)
    if out is not None:
        merged["out"] = out
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            merged["seed"] = _parse_seed(env_seed)
        except ValueError as err:
            raise ValueError(f"bad value for {SEED_ENV}: {err}") from err
    cfg = ExperimentConfig(command=command, **merged)
    _validate(cfg)
    return cfg
