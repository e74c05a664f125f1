"""Peak memory and page faults of a bare training step or a no-grad request.

    python3 tools/step_memory.py [--request]

Run from the repository root. Each of 12 steps is `zero_grad`, the forward,
the cross-entropy loss and `backward` of the default full-arm `ModelConfig`
on one fixed batch of 16 64x64 noise images, with no optimizer and no
dataset in the process. With `--request`, each of 12 steps is instead one
`trainer.predict_probs` request for all 64 images of an in-memory noise
dataset on the baseline arm, as perfbench's `infer-baseline` makes it.
Its normalization is fit on 4 of the images, a small labeled pool as in
the benchmark: glibc sizes its heap thresholds from the largest block
freed so far, so fitting on all 64 would free a 6 MB copy first and hide
the request's own heap churn. Prints the process's peak RSS (`ru_maxrss`) and, over the steps after the
first two, the median minor page faults and wall time per step. BLAS runs
on one thread, as in perfbench.
"""
from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, "src")

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from dcswin import tensor as T  # noqa: E402
from dcswin import trainer  # noqa: E402
from dcswin.data import ArrayDataset  # noqa: E402
from dcswin.model import DCSWin, ModelConfig  # noqa: E402

STEPS = 12
BATCH = 16
REQUEST = 64
LABELED = 4


def training_step():
    cfg = ModelConfig()
    model = DCSWin(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((BATCH, 3, 64, 64)))
    y = rng.integers(0, cfg.num_classes, BATCH)

    def step():
        model.zero_grad()
        T.backward(T.cross_entropy(model(x), y))
    return step


def request():
    cfg = ModelConfig().ablated("baseline")
    model = DCSWin(cfg, seed=0)
    rng = np.random.default_rng(0)
    ids = [f"s{i:02d}" for i in range(REQUEST)]
    dataset = ArrayDataset(ids, rng.random((REQUEST, 3, 64, 64)),
                           rng.integers(0, cfg.num_classes, REQUEST),
                           [f"class{c}" for c in range(cfg.num_classes)])
    dataset.fit_normalization(ids[:LABELED])
    return lambda: trainer.predict_probs(model, dataset, ids)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--request", action="store_true",
                        help="time 64-image no-grad requests on the "
                             "baseline arm instead of training steps")
    step = request() if parser.parse_args().request else training_step()
    faults, times = [], []
    for _ in range(STEPS):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"minflt_per_step {statistics.median(faults[2:]):.0f}")
    print(f"step_ms {1000 * statistics.median(times[2:]):.1f}")


if __name__ == "__main__":
    main()
