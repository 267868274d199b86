"""Command-line experiment runner.

randcurv <sample|p2|euler|linf|heat|bounds|qsign> --config FILE
         [--seed N] [--workers N] [--out DIR]

Each command reads its section of the config file, runs the matching
estimators and bound evaluators, and writes CSV tables plus one JSON run
summary into the output directory.  Every artifact embeds the config hash;
identical config and seed reproduce identical CSV bytes at any worker count.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds
from .config import (
    ExperimentConfig,
    canonical_text,
    config_hash,
    load_config,
    parse_grid,
)
from .curvature import q_round_s4, scalar_curvature_2d
from .excursion import (
    at_metric_constant,
    estimate_linf,
    euler_curve,
    map_chunks,
    p2_curve,
    sphere_p2_prediction,
)
from .fields import (
    FieldKind,
    RandomFieldSpec,
    _isotropic_variances,
    _level_table,
    heat_variance,
    make_sampler,
    variance_summary,
)
from .grids import _N_POINTS, _check_build, _refined_size, fibonacci_sphere, icosphere, torus_grid
from .reports import RunRecord, format_column, write_csv, write_run_json
from .spectral import (
    SPHERE2_VOLUME,
    Indexing,
    make_explicit,
    make_heat_kernel,
    make_power_law,
    make_sphere_normalized,
    s4_paneitz_spectrum,
    sphere2_spectrum,
    torus2_spectrum,
)

# draws per chunk (one sample_block call) of the sample command: the fields
# a chunk holds take 512 bytes per grid point, less than a truncation-12 design
_SAMPLE_CHUNK = 32


def _build_spectrum(cfg: ExperimentConfig):
    if cfg.geometry == "sphere":
        return sphere2_spectrum(cfg.truncation)
    if cfg.geometry == "torus":
        return torus2_spectrum(cfg.truncation)
    return s4_paneitz_spectrum(cfg.truncation)


def _build_scheme(cfg: ExperimentConfig, model):
    if cfg.scheme == "normalized":
        return make_sphere_normalized(cfg.s, cfg.truncation)
    if cfg.scheme == "power":
        return make_power_law(cfg.s, model, cfg.truncation)
    if cfg.scheme == "heat":
        return make_heat_kernel(cfg.heat_time, model, cfg.truncation)
    return make_explicit(cfg.values, indexing=Indexing(cfg.indexing))


def _build_field(cfg: ExperimentConfig, which: FieldKind, refine: bool = False):
    """(spec, grid) of a command that samples: the configured spectrum and
    scheme with the reference curvature, and the configured grid, built
    only once its design and its own build are known to fit, and, with
    refine, those of the refined grid the estimator builds from it."""
    model = _build_spectrum(cfg)
    spec = RandomFieldSpec(
        model, _build_scheme(cfg, model), which, reference_curvature=cfg.reference
    )
    kind, size = parse_grid(cfg.grid)
    for s in [size, _refined_size(kind, size)] if refine else [size]:
        _level_table(spec, _N_POINTS[kind](s))
        _check_build(kind, s)
    build = {"fibonacci": fibonacci_sphere, "icosphere": icosphere, "torus": torus_grid}[kind]
    return spec, build(size)


def _base_metadata(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "command": cfg.command,
        "version": __version__,
        "geometry": cfg.geometry,
        "scheme": cfg.scheme,
        "truncation": cfg.truncation,
        "seed": cfg.seed,
        "rng_stream": cfg.rng_stream,
    }


def _artifact(cfg: ExperimentConfig, stem: str) -> Path:
    return Path(cfg.out) / f"{stem}_{config_hash(cfg)}.csv"


def _limits_table(amplitudes, sigma_v: float) -> tuple[list, list]:
    """(header, rows) of the two-sided sign-change bounds with unit constants
    and their a^2-log diagnostics, one row per amplitude.  The surface (P2)
    and fourth-order (Q) statements share this shape; neither pins its
    constants, and the a^2-log limit -1/(2 sigma_v^2) is constant-free."""
    rows = [
        [a, *bounds.p2_two_sided(a, sigma_v, 1.0, 1.0),
         *bounds.p2_log_diagnostics(a, sigma_v, 1.0, 1.0)]
        for a in amplitudes
    ]
    return ["a", "lower", "upper", "a2_log_lower", "a2_log_upper", "limit"], rows


def _finish(cfg: ExperimentConfig, rows, artifacts) -> RunRecord:
    h = config_hash(cfg)
    record = RunRecord(
        command=cfg.command,
        config_hash=h,
        version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        config_text=canonical_text(cfg),
        artifacts=tuple(str(a) for a in artifacts),
        rows=tuple(rows),
    )
    json_path = write_run_json(Path(cfg.out) / f"{cfg.command}_{h}_run.json", record)
    return replace(record, artifacts=record.artifacts + (json_path,))


def _write_tables(cfg: ExperimentConfig, meta: dict, tables: dict) -> RunRecord:
    """Write each {stem: (header, table)} table, given as rows, to its CSV
    artifact in order, and finish the run with one {column: value} run-JSON
    row per table row."""
    paths, rows = [], []
    for stem, (header, table) in tables.items():
        columns = [format_column(column) for column in zip(*table, strict=True)]
        paths.append(write_csv(_artifact(cfg, stem), meta, header, columns))
        rows += [dict(zip(header, row)) for row in table]
    return _finish(cfg, rows, paths)


def _sample_chunk(ctx, j0: int, j1: int) -> list:
    """(CSV path, run-JSON row) of each draw in [j0, j1), whose f, h and
    transformed curvature R1 go to the draw's own CSV."""
    cfg, sampler, meta, header, grid_columns = ctx
    stem = Path(cfg.out) / f"sample_{config_hash(cfg)}"
    F, H = sampler.sample_block(cfg.seed, range(j0, j1))
    out = []
    for j, f, h in zip(range(j0, j1), F, H):
        R1 = scalar_curvature_2d(cfg.reference, f, h, cfg.amplitude)
        columns = [*grid_columns, format_column(f), format_column(h), format_column(R1)]
        row = {
            "draw_index": j,
            "max_abs_f": float(np.abs(f).max()),
            "max_abs_h": float(np.abs(h).max()),
            "min_R1": float(R1.min()),
            "max_R1": float(R1.max()),
        }
        path = f"{stem}_d{j:04d}.csv"
        out.append((write_csv(path, {**meta, "draw_index": j}, header, columns), row))
    return out


def cmd_sample(cfg: ExperimentConfig) -> RunRecord:
    spec, grid = _build_field(cfg, FieldKind.H)
    scheme = spec.coefficients
    sampler = make_sampler(spec, grid)
    if cfg.geometry == "sphere":
        coords = np.asarray(grid.xyz)
        coord_names = ["x", "y", "z"]
    else:
        coords = np.asarray(grid.points)
        coord_names = ["theta1", "theta2"]
    meta = _base_metadata(cfg)
    meta["amplitude"] = cfg.amplitude
    meta["reference"] = cfg.reference
    if cfg.geometry == "sphere":
        if scheme.normalization is not None:
            meta["normalization_k"] = scheme.normalization
        if scheme.indexing is Indexing.PER_EIGENSPACE:
            at_c = at_metric_constant(scheme)
            meta["at_constant"] = at_c
            meta["lk_l2"] = SPHERE2_VOLUME * at_c
        meta["sigma_h"] = math.sqrt(variance_summary(spec, grid).sigma2_sup)
    header = ["index", *coord_names, "f", "h", "R1"]
    # the index and coordinate columns are the same in every draw's file
    grid_columns = [
        format_column(np.arange(sampler.n_points)),
        *(format_column(c) for c in coords.T),
    ]
    ctx = (cfg, sampler, meta, header, grid_columns)
    chunks = map_chunks(_sample_chunk, ctx, cfg.n_samples, _SAMPLE_CHUNK, cfg.workers)
    artifacts, rows = zip(*(draw for chunk in chunks for draw in chunk))
    return _finish(cfg, rows, artifacts)


def cmd_p2(cfg: ExperimentConfig) -> RunRecord:
    spec, grid = _build_field(cfg, FieldKind.V, cfg.refine)
    scheme = spec.coefficients
    study = p2_curve(
        spec,
        list(cfg.amplitudes),
        grid,
        cfg.n_samples,
        cfg.seed,
        workers=cfg.workers,
        refine=cfg.refine,
    )
    sigma_v = study.sigma_v
    c2_upper = study.e_sup / sigma_v**2
    predictions = None
    if cfg.geometry == "sphere" and scheme.indexing is Indexing.PER_EIGENSPACE:
        predictions = [sphere_p2_prediction(scheme, a) for a in cfg.amplitudes]
    meta = _base_metadata(cfg)
    meta["n_samples"] = cfg.n_samples
    meta["sigma_v"] = sigma_v
    meta["e_sup_mc"] = study.e_sup
    meta["c2_upper"] = c2_upper
    if predictions is not None:
        meta["c1_prediction"] = predictions[0].c1
        meta["c2_prediction"] = predictions[0].c2
    header = [
        "a", "threshold", "estimate", "standard_error", "prediction",
        "lower", "upper", "refinement_delta", "warnings",
    ]
    table = []
    for i, report in enumerate(study.reports):
        a = report.amplitude
        lower = bounds.gaussian_tail(report.threshold / sigma_v)
        upper = bounds.p2_two_sided(a, sigma_v, 1.0, c2_upper)[1]
        prediction = None if predictions is None else predictions[i].value
        warnings = "" if predictions is None else "; ".join(predictions[i].warnings)
        table.append(
            [a, report.threshold, report.estimate, report.standard_error,
             prediction, lower, upper, report.refinement_delta, warnings]
        )
    return _write_tables(cfg, meta, {"p2": (header, table)})


def cmd_euler(cfg: ExperimentConfig) -> RunRecord:
    spec, grid = _build_field(cfg, FieldKind.H)
    curve = euler_curve(
        spec, list(cfg.thresholds), cfg.n_samples, cfg.seed,
        grid=grid, workers=cfg.workers,
    )
    meta = _base_metadata(cfg)
    meta["n_samples"] = cfg.n_samples
    meta["at_constant"] = at_metric_constant(spec.coefficients)
    meta["lk_l0"], meta["lk_l1"], meta["lk_l2"] = curve.lipschitz_killing
    header = ["u", "empirical_mean", "standard_error", "predicted"]
    table = [
        [float(u), float(mean), float(se), float(predicted)]
        for u, mean, se, predicted in zip(
            curve.thresholds, curve.empirical_mean, curve.empirical_se, curve.predicted
        )
    ]
    return _write_tables(cfg, meta, {"euler": (header, table)})


def cmd_linf(cfg: ExperimentConfig) -> RunRecord:
    spec, grid = _build_field(cfg, FieldKind.H, cfg.refine)
    sigma_w = math.sqrt(variance_summary(replace(spec, which=FieldKind.W), grid).sigma2_sup)
    meta = _base_metadata(cfg)
    meta["n_samples"] = cfg.n_samples
    meta["sigma_w"] = sigma_w
    header = [
        "u", "a", "u_over_a", "estimate", "standard_error",
        "log_estimate", "log_asymptote", "ratio", "regime_ok",
        "refinement_delta",
    ]
    table = []
    for a, u in zip(cfg.amplitudes, cfg.thresholds):
        report = estimate_linf(
            spec, a, u, grid, cfg.n_samples, cfg.seed,
            workers=cfg.workers, refine=cfg.refine,
        )
        asymptote = bounds.linf_log_asymptote(u, a, sigma_w) if sigma_w > 0 else None
        log_estimate = math.log(report.estimate) if report.estimate > 0 else None
        ratio = None if log_estimate is None or asymptote is None else log_estimate / asymptote
        table.append(
            [u, a, u / a, report.estimate, report.standard_error,
             log_estimate, asymptote, ratio, report.regime_warning is None,
             report.refinement_delta]
        )
    return _write_tables(cfg, meta, {"linf": (header, table)})


def cmd_heat(cfg: ExperimentConfig) -> RunRecord:
    model = _build_spectrum(cfg)
    r0_sq = cfg.reference**2
    meta = _base_metadata(cfg)
    meta["reference"] = cfg.reference
    meta["lambda1"] = float(model.eigenvalues[0])
    meta["dimension"] = model.dimension
    header = [
        "T", "sigma2_v", "small_T_value", "small_T_ratio",
        "large_T_F", "large_T_asymptote", "large_T_ratio",
    ]
    table = []
    for T in cfg.t_values:
        sigma2 = heat_variance(model, T).sup / r0_sq
        small = bounds.heat_sigma_small_T(T, model.dimension, r0_sq)
        F, asymptote = bounds.heat_sigma_large_T(
            model, np.array([cfg.reference]), T
        )
        table.append(
            [T, sigma2, small, sigma2 / small, F, asymptote, sigma2 / asymptote]
        )
    return _write_tables(cfg, meta, {"heat": (header, table)})


def cmd_bounds(cfg: ExperimentConfig) -> RunRecord:
    n, sv, s2 = cfg.n_dim, cfg.sigma_v, cfg.sigma_2
    kappa, delta0, B = bounds.nd_positive_constants(n, sv, s2)
    quad_residual = delta0**2 + kappa * delta0 - kappa
    expo_neg = delta0**2 / (2.0 * (n - 1.0) ** 2 * sv**2)
    expo_pos = 2.0 * (1.0 - delta0) / (s2 * n * (n - 1.0) * (n - 2.0))
    negative = bounds.nd_negative_bound(cfg.amplitude, n, sv, cfg.alpha)
    meta = _base_metadata(cfg)

    constants_header = [
        "kind", "n", "sigma_v", "sigma_2", "alpha", "a",
        "kappa", "delta0", "B", "quadratic_residual",
        "exponent_neg_minus_B", "exponent_pos_minus_B", "value",
    ]
    constants_rows = [
        ["nd_positive", n, sv, s2, None, None, kappa, delta0, B,
         quad_residual, expo_neg - B, expo_pos - B, None],
        ["nd_negative", n, sv, None, cfg.alpha, cfg.amplitude,
         None, None, None, None, None, None, negative],
    ]

    compare_header = ["regime", "input_a", "input_b", "larger_p2"]
    compare_rows = [
        ["small_T", *cfg.r0sq_pair, bounds.compare_small_T(*cfg.r0sq_pair).value],
        ["large_T", *cfg.lambda1_pair, bounds.compare_large_T(*cfg.lambda1_pair).value],
    ]

    return _write_tables(cfg, meta, {
        "bounds_constants": (constants_header, constants_rows),
        "bounds_compare": (compare_header, compare_rows),
        "bounds_limits": _limits_table((0.1, 0.01, 0.001), sv),
    })


def cmd_qsign(cfg: ExperimentConfig) -> RunRecord:
    model = _build_spectrum(cfg)
    _, var_h, _ = _isotropic_variances(RandomFieldSpec(model, _build_scheme(cfg, model)))
    sigma_v = math.sqrt(var_h) / abs(cfg.reference)
    meta = _base_metadata(cfg)
    meta["q0"] = cfg.reference
    meta["q0_round_derived"] = q_round_s4()
    meta["lambda1"] = float(model.eigenvalues[0])
    meta["multiplicity1"] = int(model.multiplicities[0])
    meta["sigma_v"] = sigma_v
    return _write_tables(cfg, meta, {"qsign": _limits_table(cfg.amplitudes, sigma_v)})


_DISPATCH = {
    "sample": cmd_sample,
    "p2": cmd_p2,
    "euler": cmd_euler,
    "linf": cmd_linf,
    "heat": cmd_heat,
    "bounds": cmd_bounds,
    "qsign": cmd_qsign,
}

_HELP = {
    "sample": "write per-sample grids of f, h, and the transformed curvature",
    "p2": "Monte Carlo sign-change probabilities joined with bounds and the asymptotic",
    "euler": "empirical vs predicted Euler characteristic curve on the sphere",
    "linf": "sup-norm deviation exceedance probabilities vs the log-asymptote",
    "heat": "heat-kernel variance sweep with both asymptote ratios",
    "bounds": "pure-theory constants, comparisons, and limit diagnostics",
    "qsign": "fourth-order curvature sign-change bounds on the round 4-sphere",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcurv",
        description="Random conformal perturbation experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="INI-style experiment file")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--workers", type=int, default=None)
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.command, args.config,
            seed=args.seed, workers=args.workers, out=args.out,
        )
        record = _DISPATCH[args.command](cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for artifact in record.artifacts:
        print(artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
