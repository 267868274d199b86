"""Measurement loop, metrics and environment record for one workload run."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

import randcurv
from reference import Reference
from tracer import Tracer

# set-up is mostly Python-level construction, so its reference is the
# interpreter-bound formatting kernel; see reference.py
SETUP_REFERENCE = ("format",)
SETUP_REFERENCE_S = 0.0119

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}

# span-derived per-layer times: (span name, quantity); "s" is inclusive
# time, "self_s" excludes the spans called from inside
_SPAN_METRICS = [
    ("fields.gaussian_draw_block", "self_s"),
    ("fields.gaussian_draws", "self_s"),
    ("fields.sample_block", "self_s"),
    ("fields.sample", "self_s"),
    ("fields.make_sampler", "s"),
    ("fields.variance_summary", "s"),
    ("harmonics.SphereHarmonicBasis", "s"),
    ("spectral.sphere2_spectrum", "s"),
    ("spectral.torus2_spectrum", "s"),
    ("spectral.make_sphere_normalized", "s"),
    ("spectral.make_explicit", "s"),
    ("grids.fibonacci_sphere", "s"),
    ("grids.icosphere", "s"),
    ("grids.torus_grid", "s"),
    ("curvature.deviation_field", "self_s"),
    ("curvature.scalar_curvature_2d", "self_s"),
    ("excursion.p2_curve", "self_s"),
    ("excursion.estimate_linf", "self_s"),
    ("excursion.euler_curve", "self_s"),
    ("reports.write_csv", "self_s"),
    ("reports.write_run_json", "self_s"),
    ("config.load_config", "s"),
    ("cli.main", "self_s"),
]
PER_LAYER_UNITS = {
    **{f"{name}.{q}": "s" for name, q in _SPAN_METRICS},
    "fields.sample_block.calls": "count",
    "fields.sample_block.call_ms_p50": "ms",
    "fields.sample_block.call_ms_p90": "ms",
    "fields.normals": "count",
    "fields.gemm_flops": "flop",
    "fields.gemm_bytes": "byte",
    "fields.gemm_gflops": "GFLOP/s",
    "fields.gemm_useful_col_ratio": "ratio",
    "fields.field_use_ratio": "ratio",
    "excursion.chunks": "count",
    "excursion.euler_cells_tested": "count",
    "excursion.time_to_rse10_s": "s",
    "reports.write_csv.bytes": "byte",
    "trace.draws": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(randcurv.__file__).parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "workers": 1,
        "randcurv": randcurv.__version__,
        "git_commit": commit,
    }


def _rep_seed(seed: int, k: int) -> int:
    # distinct estimator seeds per repetition; draw j of a seed is fixed, so
    # a repetition is reproducible from (--seed, k) alone
    return seed * 1000 + k


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key]) for key in a if key != "out"
    )


def _attempt(w, seed: int):
    """One timed main call: (result, seconds), or (None, seconds) if it raised."""
    t0 = time.perf_counter()
    try:
        r = w.run(seed)
    except Exception as err:  # counted against error_rate; the run goes on
        print(f"# seed {seed} raised {type(err).__name__}: {err}", flush=True)
        r = None
    return r, time.perf_counter() - t0


def _timed_setup(w) -> float:
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def run_workload(w, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    env = environment()
    print("# environment " + json.dumps(env), flush=True)
    w.setup()
    print("# pinned-seed counts " + json.dumps({w.name: {"seed": w.pinned_seed, **w.pinned_counts()}}), flush=True)

    tracer = Tracer(w.fields_consumed) if trace else None
    if tracer is not None:
        tracer.install()
        try:
            w.setup()
        finally:
            tracer.restore()

    ref = Reference()
    setup_raw, setup_scaled, rate_raw, rate_scaled = [], [], [], []
    results, rep_times, traced_times = [], [], []
    attempted = failed = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        rseed = _rep_seed(seed, k)
        k += 1
        # a set-up before every repetition, so that set-up is sampled over
        # the same stretch of time; each timing is paired with a reference
        # timing taken just before it
        setup_ref = ref.time(SETUP_REFERENCE)
        setup_dt = _timed_setup(w)
        setup_raw.append(setup_dt)
        setup_scaled.append(setup_dt * SETUP_REFERENCE_S / setup_ref)
        work_ref = ref.time(w.reference)
        attempted += 1
        r, dt = _attempt(w, rseed)
        if r is None or not w.rep_ok(r):
            failed += 1
            continue
        results.append(r)
        rep_times.append(dt)
        rate_raw.append(r["n"] / dt)
        rate_scaled.append(r["n"] / dt * work_ref / w.reference_s)
        if tracer is None:
            continue
        attempted += 1
        tracer.install()
        try:
            rt, dt = _attempt(w, rseed)
        finally:
            tracer.restore()
        traced_times.append(dt)
        # the traced repetition must reproduce the untraced one exactly
        if rt is None or not (w.rep_ok(rt) and _same(r, rt)):
            failed += 1

    correct, detail = (w.pooled_check(results) if results else (False, {}))
    correct = bool(correct) and failed == 0
    print("# check " + json.dumps({"correct": correct, **detail}, default=float), flush=True)
    print(f"# error_rate {failed / attempted:.6f} ({failed}/{attempted})", flush=True)

    print("# unscaled medians " + json.dumps({
        "setup_s": statistics.median(setup_raw),
        "samples_per_s": statistics.median(rate_raw) if rate_raw else 0.0,
    }), flush=True)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "samples_per_s": statistics.median(rate_scaled) if rate_scaled else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics = _per_layer(w, tracer, results, rep_times, traced_times)
        units = PER_LAYER_UNITS
        tracer.write(out_dir / f"trace-{w.name}-seed{seed}.json", {"environment": env, "metrics": metrics})
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _per_layer(w, tracer: Tracer, results, rep_times, traced_times) -> dict:
    tot = tracer.totals()
    m = {f"{name}.{q}": tot[name][q] if name in tot else 0.0 for name, q in _SPAN_METRICS}
    c = tracer.counts
    sb = tot.get("fields.sample_block")
    durations_ms = [1e3 * d for d in sb["durations"]] if sb else [0.0]
    gemm_s = m["fields.sample_block.self_s"] + m["fields.sample.self_s"]
    rse = w.rse(results) if results else None
    m.update({
        "fields.sample_block.calls": sb["calls"] if sb else 0,
        "fields.sample_block.call_ms_p50": float(np.percentile(durations_ms, 50)),
        "fields.sample_block.call_ms_p90": float(np.percentile(durations_ms, 90)),
        "fields.normals": c["fields.normals"],
        "fields.gemm_flops": c["fields.gemm_flops"],
        "fields.gemm_bytes": c["fields.gemm_bytes"],
        "fields.gemm_gflops": c["fields.gemm_flops"] / gemm_s / 1e9 if gemm_s > 0 else 0.0,
        "fields.gemm_useful_col_ratio": c["gemm_useful_cols"] / c["gemm_cols"] if c["gemm_cols"] else 0.0,
        "fields.field_use_ratio": c["fields_consumed"] / c["fields_evaluated"] if c["fields_evaluated"] else 0.0,
        "excursion.chunks": tracer.chunks(),
        "excursion.euler_cells_tested": c["excursion.euler_cells_tested"],
        # crude-MC time to a 10% relative SE on the rarest reported event,
        # from the untraced repetitions; 0 where no event probability is reported
        # or no event was seen
        "excursion.time_to_rse10_s": sum(rep_times) * (rse / 0.10) ** 2 if rse is not None else 0.0,
        "reports.write_csv.bytes": c["reports.write_csv.bytes"],
        "trace.draws": sum(r["n"] for r in results),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": sum(traced_times) - sum(rep_times[: len(traced_times)]),
    })
    return m
