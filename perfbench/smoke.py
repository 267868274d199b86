"""The benchmark's own checks, at tiny sizes:

    python3 perfbench/run.py --smoke

1. every metric named in BENCHMARK.json is emitted, with its unit, by every
   workload (end-to-end metrics with --trace 0, per-layer ones with --trace 1);
2. a repetition that fails its correctness check raises error_rate
   (failed > 0) and clears `correct`;
3. after traced runs every attribute of randcurv's modules and classes is
   the original object again.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import randcurv
from randcurv import bounds, cli, config, curvature, excursion, fields, grids, harmonics, reports, spectral

import bench
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = (bounds, cli, config, curvature, excursion, fields, grids, harmonics, reports, spectral)
TINY = {"p2-sphere": 256, "linf-torus": 256, "euler-ico5": 4, "sample-cli": 2}


def _snapshot() -> dict:
    snap = {}
    for mod in MODULES:
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith(randcurv.__name__):
                for attr, value in vars(obj).items():
                    snap[(mod.__name__, name, attr)] = value
    return snap


def _tiny(name: str, work: Path):
    w = workloads.make(name, work)
    w.rep_draws = w.pinned_draws = TINY[name]
    return w


def _run(w, trace: bool, work: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return bench.run_workload(w, 1, 0.0, trace, work)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    before = _snapshot()
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        work = Path(tmp)
        for name in workloads.NAMES:
            for trace in (False, True):
                res = _run(_tiny(name, work), trace, work)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{name} trace={int(trace)}: metrics/units differ from BENCHMARK.json")
                if not all(math.isfinite(v["value"]) for v in res["metrics"].values()):
                    problems.append(f"{name} trace={int(trace)}: a metric is not a finite number")
                if res["attempted"] < 1 or res["failed"] != 0:
                    problems.append(f"{name} trace={int(trace)}: attempted={res['attempted']} failed={res['failed']}")

        w = _tiny("sample-cli", work)
        check = w.rep_ok
        w.rep_ok = lambda r: check(r) and False
        res = _run(w, False, work)
        if res["failed"] != res["attempted"] or res["correct"]:
            problems.append(f"a failing check left failed={res['failed']}/{res['attempted']}, correct={res['correct']}")

    after = _snapshot()
    changed = sorted(".".join(k) for k in before.keys() | after.keys() if before.get(k) is not after.get(k))
    if changed:
        problems.append("tracing left randcurv changed: " + ", ".join(changed))
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
