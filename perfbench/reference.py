"""Fixed reference work, timed next to every set-up and repetition.

On a shared 2-vCPU virtual machine, speed drifted by up to ~1.8x over tens
of seconds to minutes (CPU time tracked wall time, so the process was not
descheduled; the CPU itself ran slower), which no run length averages
away. Each workload therefore names reference kernels that resemble its own
dominant operations but use only numpy and the standard library, never
randcurv. A timing is scaled by (reference time measured just before it) /
(the reference's nominal time on the machine the benchmark was defined on),
which cancels the drift: a change to randcurv cannot move the reference, so
the scaled value still moves with the program.

Every kernel works on small arrays built once, so its working set stays in
cache whatever the program did before it.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 168))
        self._b = rng.standard_normal((168, 1024))
        self._x = rng.standard_normal((512, 256))
        self._mask = rng.standard_normal((32, 10242)) > 1.0
        self._e0, self._e1 = rng.integers(0, 10242, (2, 30720))
        self._rows = rng.standard_normal((512, 6)).tolist()

    def gemm(self):
        self._a @ self._b

    def philox(self):
        for j in range(64):
            np.random.Generator(np.random.Philox(key=j)).standard_normal(168)

    def exp(self):
        np.exp(self._x)
        np.expm1(self._x)

    def gather(self):
        (self._mask[:, self._e0] & self._mask[:, self._e1]).sum(axis=1)

    def format(self):
        "\n".join(",".join(repr(c) for c in row) for row in self._rows)

    def time(self, kernels: tuple[str, ...]) -> float:
        """Seconds for three passes over the named kernels (~10 ms)."""
        t0 = time.perf_counter()
        for _ in range(3):
            for name in kernels:
                getattr(self, name)()
        return time.perf_counter() - t0
