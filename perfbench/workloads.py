"""The four benchmark workloads.

Each workload builds its inputs through randcurv's public API (`setup`), runs
one fixed-size main call per repetition (`run`), checks each repetition's
output (`rep_ok`) and the pooled repetitions against the acceptance gate's
stream-independent tolerances (`pooled_check`), and reports exact counts at
its pinned seed (`pinned_counts`) so refactors can show bit-identical output.

Main calls are looked up through the module (`excursion.p2_curve`,
`cli.main`) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from randcurv import bounds, cli, config, excursion, fields, grids, reports, spectral
from randcurv.fields import FieldKind, RandomFieldSpec


def _counts(reports_, n):
    return [round(r.estimate * n) for r in reports_]


class P2Sphere:
    """Sign-change probability at three amplitudes on fib1024 (168 Gaussians)."""

    name = "p2-sphere"
    pinned_seed = 2026
    pinned_draws = 10240
    rep_draws = 10240
    fields_consumed = 1  # H only
    reference = ("gemm", "philox")
    reference_s = 0.0103  # nominal time of reference.Reference.time(reference)
    amplitudes = (1.0 / 2.5, 1.0 / 3.0, 1.0 / 3.5)

    def setup(self):
        self.scheme = spectral.make_sphere_normalized(8.0, 12)
        self.spec = RandomFieldSpec(
            spectral.sphere2_spectrum(12), self.scheme, FieldKind.V, reference_curvature=1.0
        )
        self.grid = grids.fibonacci_sphere(1024)
        fields.make_sampler(self.spec, self.grid)

    def run(self, seed):
        study = excursion.p2_curve(self.spec, self.amplitudes, self.grid, self.rep_draws, seed)
        return {
            "n": study.reports[0].n_samples,
            "counts": _counts(study.reports, self.rep_draws),
            "sup_sum": study.e_sup * self.rep_draws,
            "sigma_v": study.sigma_v,
        }

    def rep_ok(self, r):
        return (
            r["n"] == self.rep_draws
            and len(r["counts"]) == len(self.amplitudes)
            and all(0 <= c <= r["n"] for c in r["counts"])
            and math.isfinite(r["sup_sum"])
        )

    def pooled(self, results):
        n = sum(r["n"] for r in results)
        counts = np.sum([r["counts"] for r in results], axis=0)
        p = counts / n
        se = np.sqrt(p * (1.0 - p) / n)
        return n, p, se

    def pooled_check(self, results):
        n, p, se = self.pooled(results)
        sigma_v = results[0]["sigma_v"]
        c2_upper = math.fsum(r["sup_sum"] for r in results) / n / sigma_v**2
        ok = True
        detail = []
        for a, est, s in zip(self.amplitudes, p, se):
            ratio = est / excursion.sphere_p2_prediction(self.scheme, a).value
            lower = bounds.gaussian_tail((1.0 / a) / sigma_v)
            upper = bounds.p2_two_sided(a, sigma_v, 1.0, c2_upper)[1]
            good = bool(0.5 <= ratio <= 2.0 and lower <= est + 3 * s and est - 3 * s <= upper)
            ok &= good
            detail.append({"a": a, "estimate": est, "mc_over_prediction": ratio, "ok": good})
        return ok, {"draws": n, "amplitudes": detail}

    def rse(self, results):
        _, p, se = self.pooled(results)
        return se[-1] / p[-1] if p[-1] > 0 else None

    def pinned_counts(self):
        study = excursion.p2_curve(
            self.spec, self.amplitudes, self.grid, self.pinned_draws, self.pinned_seed
        )
        return {"draws": self.pinned_draws, "sign_change_counts": _counts(study.reports, self.pinned_draws)}


class LinfTorus:
    """Criterion 7's sup-norm deviation event at u = 0.1, u/a = 3 on torus:16."""

    name = "linf-torus"
    pinned_seed = 2026
    pinned_draws = 40960
    rep_draws = 20480
    fields_consumed = 2  # F and H
    reference = ("philox", "exp")
    reference_s = 0.0055
    u = 0.1
    a = 0.1 / 3.0

    def setup(self):
        values = np.zeros(11)
        values[10] = 0.5
        self.spec = RandomFieldSpec(
            spectral.torus2_spectrum(11), spectral.make_explicit(values), FieldKind.H,
            reference_curvature=0.0,
        )
        self.grid = grids.torus_grid(16)
        fields.make_sampler(self.spec, self.grid)

    def run(self, seed):
        report = excursion.estimate_linf(self.spec, self.a, self.u, self.grid, self.rep_draws, seed)
        return {"n": report.n_samples, "count": round(report.estimate * report.n_samples)}

    def rep_ok(self, r):
        return r["n"] == self.rep_draws and 0 <= r["count"] <= r["n"]

    def pooled(self, results):
        n = sum(r["n"] for r in results)
        count = sum(r["count"] for r in results)
        p = count / n
        return n, count, p, math.sqrt(p * (1.0 - p) / n)

    def pooled_check(self, results):
        n, count, p, _ = self.pooled(results)
        sigma_h = math.sqrt(fields.variance_summary(self.spec, self.grid).sigma2_sup)
        ratio = math.log(p) / bounds.linf_log_asymptote(self.u, self.a, sigma_h) if p > 0 else math.nan
        return bool(0.8 <= ratio <= 1.25), {"draws": n, "events": count, "log_ratio": ratio}

    def rse(self, results):
        _, _, p, se = self.pooled(results)
        return se / p if p > 0 else None

    def pinned_counts(self):
        report = excursion.estimate_linf(
            self.spec, self.a, self.u, self.grid, self.pinned_draws, self.pinned_seed
        )
        return {"draws": self.pinned_draws, "exceedance_count": round(report.estimate * self.pinned_draws)}


class EulerIco5:
    """Criterion 4's Euler characteristic curve: icosphere:5, 20 thresholds."""

    name = "euler-ico5"
    pinned_seed = 12345
    pinned_draws = 64
    rep_draws = 256
    fields_consumed = 1  # H only
    reference = ("gather",)
    reference_s = 0.0126
    thresholds = np.linspace(1.0, 3.5, 20)

    def setup(self):
        self.spec = RandomFieldSpec(
            spectral.sphere2_spectrum(12), spectral.make_sphere_normalized(8.0, 12), FieldKind.H
        )
        self.grid = grids.icosphere(5)
        fields.make_sampler(self.spec, self.grid)

    @staticmethod
    def _sums(curve):
        n = curve.n_samples
        mean, se = curve.empirical_mean, curve.empirical_se
        chi = np.rint(mean * n).astype(np.int64)
        chi2 = np.rint(se**2 * n * (n - 1) + n * mean**2).astype(np.int64)
        return n, chi, chi2, curve.predicted

    def run(self, seed):
        curve = excursion.euler_curve(self.spec, self.thresholds, self.rep_draws, seed, grid=self.grid)
        n, chi, chi2, predicted = self._sums(curve)
        return {"n": n, "chi": chi, "chi2": chi2, "predicted": predicted}

    def rep_ok(self, r):
        return (
            r["n"] == self.rep_draws
            and r["chi"].shape == self.thresholds.shape
            and bool(np.all(np.isfinite(r["predicted"])))
        )

    def pooled_check(self, results):
        n = sum(r["n"] for r in results)
        mean = np.sum([r["chi"] for r in results], axis=0) / n
        var = (np.sum([r["chi2"] for r in results], axis=0) - n * mean**2) / (n - 1)
        se = np.sqrt(np.maximum(var, 0.0) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (mean - results[0]["predicted"]) / se
        hits = int((np.abs(z) <= 3.0).sum())
        return hits >= 18, {"draws": n, "thresholds_within_3se": hits}

    def rse(self, results):
        return None

    def pinned_counts(self):
        curve = excursion.euler_curve(
            self.spec, self.thresholds, self.pinned_draws, self.pinned_seed, grid=self.grid
        )
        return {"draws": self.pinned_draws, "chi_sums": self._sums(curve)[1].tolist()}


class SampleCli:
    """`randcurv sample` on fib1024 writing per-draw CSVs and a run JSON."""

    name = "sample-cli"
    pinned_seed = 2026
    pinned_draws = 2
    rep_draws = 20
    fields_consumed = 2  # f and h both go to the CSV
    reference = ("format",)
    reference_s = 0.0119
    n_points = 1024

    def __init__(self, work: Path):
        self.work = work

    def _config(self, n_samples):
        path = self.work / f"sample_{n_samples}.ini"
        if path.exists():
            return path
        path.write_text(
            "[common]\ngeometry = sphere\nscheme = normalized\ns = 8.0\ntruncation = 12\n"
            f"[sample]\ngrid = fibonacci:{self.n_points}\namplitude = 0.25\n"
            f"n_samples = {n_samples}\n"
        )
        return path

    def setup(self):
        cfg = config.load_config("sample", self._config(self.rep_draws))
        spec = RandomFieldSpec(
            spectral.sphere2_spectrum(cfg.truncation),
            spectral.make_sphere_normalized(cfg.s, cfg.truncation),
            FieldKind.H,
        )
        fields.make_sampler(spec, grids.fibonacci_sphere(self.n_points))

    def _main(self, n_samples, seed):
        out = Path(tempfile.mkdtemp(dir=self.work))
        argv = ["sample", "--config", str(self._config(n_samples)), "--seed", str(seed), "--out", str(out)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except BaseException:
            shutil.rmtree(out)
            raise
        return {"n": n_samples, "code": code, "out": out}

    def run(self, seed):
        return self._main(self.rep_draws, seed)

    def rep_ok(self, r):
        """Exit code 0, one CSV of n_points rows per draw, and a run JSON that
        validates against reports.RUN_SCHEMA.  Deletes the output directory."""
        import jsonschema

        try:
            if r["code"] != 0:
                return False
            csvs = sorted(r["out"].glob("sample_*.csv"))
            if len(csvs) != r["n"] or any(len(reports.read_csv(p)[2]) != self.n_points for p in csvs):
                return False
            (run_json,) = r["out"].glob("*_run.json")
            jsonschema.validate(json.loads(run_json.read_text()), reports.RUN_SCHEMA)
            return True
        except (ValueError, jsonschema.ValidationError):
            return False
        finally:
            shutil.rmtree(r["out"])

    def pooled_check(self, results):
        return True, {"draws": sum(r["n"] for r in results)}

    def rse(self, results):
        return None

    def pinned_counts(self):
        r = self._main(self.pinned_draws, self.pinned_seed)
        try:
            digest = hashlib.sha256()
            for p in sorted(r["out"].glob("sample_*.csv")):
                digest.update("\n".join(reports.payload_lines(p)).encode())
        finally:
            shutil.rmtree(r["out"])
        return {"draws": self.pinned_draws, "exit_code": r["code"], "csv_payload_sha256": digest.hexdigest()}


def make(name: str, work: Path):
    by_name = {w.name: w for w in (P2Sphere, LinfTorus, EulerIco5, SampleCli)}
    cls = by_name[name]
    return cls(work) if cls is SampleCli else cls()


NAMES = ("p2-sphere", "linf-torus", "euler-ico5", "sample-cli")
