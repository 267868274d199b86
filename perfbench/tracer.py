"""Span tracer that wraps randcurv's public entry points from outside.

`Tracer.install()` replaces each public name where its callers look it up
(module attributes and sampler class attributes) by a wrapper that records a
span (name, parent, start, end) and, through an optional hook, computed work
counts.  `Tracer.restore()` puts every original object back.  Spans stay in
memory until `write()`; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from randcurv import cli, config, curvature, excursion, fields, grids, harmonics, reports, spectral

# span name -> places where callers look the function up
_SAMPLERS = (fields.SphereSampler, fields.TorusSampler, fields.UserSampler)
TARGETS = {
    "fields.gaussian_draw_block": [(fields, "gaussian_draw_block")],
    "fields.gaussian_draws": [(fields, "gaussian_draws")],
    "fields.sample_block": [(c, "sample_block") for c in _SAMPLERS],
    "fields.sample": [(c, "sample") for c in _SAMPLERS],
    "fields.make_sampler": [(fields, "make_sampler"), (excursion, "make_sampler"), (cli, "make_sampler")],
    "fields.variance_summary": [(fields, "variance_summary"), (excursion, "variance_summary"), (cli, "variance_summary")],
    "harmonics.SphereHarmonicBasis": [(harmonics.SphereHarmonicBasis, "__init__")],
    "spectral.sphere2_spectrum": [(spectral, "sphere2_spectrum"), (cli, "sphere2_spectrum")],
    "spectral.torus2_spectrum": [(spectral, "torus2_spectrum"), (cli, "torus2_spectrum")],
    "spectral.make_sphere_normalized": [(spectral, "make_sphere_normalized"), (cli, "make_sphere_normalized")],
    "spectral.make_explicit": [(spectral, "make_explicit"), (cli, "make_explicit")],
    "grids.fibonacci_sphere": [(grids, "fibonacci_sphere"), (cli, "fibonacci_sphere")],
    "grids.icosphere": [(grids, "icosphere"), (excursion, "icosphere"), (cli, "icosphere")],
    "grids.torus_grid": [(grids, "torus_grid"), (cli, "torus_grid")],
    "curvature.deviation_field": [(curvature, "deviation_field"), (excursion, "deviation_field")],
    "curvature.scalar_curvature_2d": [(curvature, "scalar_curvature_2d"), (cli, "scalar_curvature_2d")],
    "excursion.p2_curve": [(excursion, "p2_curve"), (cli, "p2_curve")],
    "excursion.estimate_linf": [(excursion, "estimate_linf"), (cli, "estimate_linf")],
    "excursion.euler_curve": [(excursion, "euler_curve"), (cli, "euler_curve")],
    "reports.write_csv": [(reports, "write_csv"), (cli, "write_csv")],
    "reports.write_run_json": [(reports, "write_run_json"), (cli, "write_run_json")],
    "config.load_config": [(config, "load_config"), (cli, "load_config")],
    "cli.main": [(cli, "main")],
}
ESTIMATORS = ("excursion.p2_curve", "excursion.estimate_linf", "excursion.euler_curve")


def _lookup(owner, attr):
    # class attributes are read from __dict__ so a restore puts back the
    # plain function, not a bound method
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self, fields_consumed: int):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fields_consumed = fields_consumed
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ---- installation ----

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, places in TARGETS.items():
            hook = getattr(self, "_count_" + name.split(".")[1], None)
            for owner, attr in places:
                orig = _lookup(owner, attr)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hook))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ---- computed work counts, taken from argument and result shapes ----

    def _count_gaussian_draw_block(self, args, kwargs, out):
        self.counts["fields.normals"] += out.size

    def _count_gaussian_draws(self, args, kwargs, out):
        self.counts["fields.normals"] += out.size

    def _count_sample_block(self, args, kwargs, out):
        evaluated = [x for x in out if x is not None]
        self._add_gemm(args[0], evaluated, *evaluated[0].shape)

    def _count_sample(self, args, kwargs, out):
        evaluated = [out.values_f, out.values_h]
        if getattr(out, "values_gradsq", None) is not None:
            evaluated.append(out.values_gradsq)
        self._add_gemm(args[0], evaluated, 1, out.values_h.size)

    def _add_gemm(self, sampler, evaluated, B, P):
        N = sampler.n_gaussians
        useful = int(np.count_nonzero((sampler.wf != 0) | (sampler.wh != 0)))
        self.counts["fields.gemm_flops"] += 2.0 * B * N * P * len(evaluated)
        self.counts["fields.gemm_bytes"] += 8.0 * (B * N + N * P + B * P) * len(evaluated)
        self.counts["gemm_useful_cols"] += useful * B * len(evaluated)
        self.counts["gemm_cols"] += N * B * len(evaluated)
        self.counts["fields_evaluated"] += B * len(evaluated)
        self.counts["fields_consumed"] += B * self.fields_consumed

    def _count_euler_curve(self, args, kwargs, out):
        grid = kwargs.get("grid", args[4] if len(args) > 4 else None)
        cells = grid.n_points + grid.edges.shape[0] + grid.faces.shape[0]
        self.counts["excursion.euler_cells_tested"] += out.n_samples * out.thresholds.size * cells

    def _count_write_csv(self, args, kwargs, path):
        self.counts["reports.write_csv.bytes"] += Path(path).stat().st_size

    # ---- reduction ----

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and the list
        of per-call durations."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        for s in self.spans:
            d = s["end"] - s["start"]
            t = out[s["name"]]
            t["calls"] += 1
            t["s"] += d
            t["self_s"] += d - child_time[s["id"]]
            t["durations"].append(d)
        return out

    def chunks(self) -> int:
        """sample_block calls made from inside an estimator."""
        by_id = {s["id"]: s for s in self.spans}
        n = 0
        for s in self.spans:
            if s["name"] != "fields.sample_block":
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in ESTIMATORS:
                p = by_id[p]["parent"]
            n += p is not None
        return n

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}) + "\n")
