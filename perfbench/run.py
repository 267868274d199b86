"""randcurv benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload p2-sphere --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  --trace 0 prints the end-to-end
metrics (setup_s, samples_per_s, peak_rss_mb); --trace 1 alternates
untraced and traced repetitions of the same seeds and prints the per-layer
split.  The last stdout line is one JSON object with correct, attempted,
failed and metrics.  See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, fixed before numpy loads: with two threads on a shared
# 2-vCPU machine the run-to-run spread roughly triples
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("RANDCURV_SEED", None)  # it would override --seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _import_randcurv():
    if not (SRC / "randcurv" / "__init__.py").is_file():
        sys.exit(f"error: no randcurv sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import randcurv

    if Path(randcurv.__file__).resolve().parent != SRC / "randcurv":
        sys.exit(f"error: randcurv imported from {randcurv.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own self-checks")
    args = parser.parse_args(argv)
    _import_randcurv()
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        import smoke

        return smoke.main()
    import bench
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        w = workloads.make(args.workload, Path(tmp))
        result = bench.run_workload(w, args.seed, args.seconds, bool(args.trace), WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
