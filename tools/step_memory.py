"""Peak memory and page faults of a bare training step.

    python3 tools/step_memory.py

Run from the repository root. Each of 12 steps is `zero_grad`, the forward,
the cross-entropy loss and `backward` of the default full-arm `ModelConfig`
on one fixed batch of 16 64x64 noise images, with no optimizer and no
dataset in the process. Prints the process's peak RSS (`ru_maxrss`) and,
over the steps after the first two, the median minor page faults and wall
time per step. BLAS runs on one thread, as in perfbench.
"""
from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, "src")

import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from dcswin import tensor as T  # noqa: E402
from dcswin.model import DCSWin, ModelConfig  # noqa: E402

STEPS = 12
BATCH = 16


def main() -> None:
    cfg = ModelConfig()
    model = DCSWin(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((BATCH, 3, 64, 64)))
    y = rng.integers(0, cfg.num_classes, BATCH)
    faults, times = [], []
    for _ in range(STEPS):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        model.zero_grad()
        T.backward(T.cross_entropy(model(x), y))
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"minflt_per_step {statistics.median(faults[2:]):.0f}")
    print(f"step_ms {1000 * statistics.median(times[2:]):.1f}")


if __name__ == "__main__":
    main()
