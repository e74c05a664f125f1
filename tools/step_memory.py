"""Peak memory and page faults of a bare training step, a no-grad request
or a training run.

    python3 tools/step_memory.py [--request | --train]

Run from the repository root. Each of 12 steps is `zero_grad`, the forward,
the cross-entropy loss and `backward` of the default full-arm `ModelConfig`
on one fixed batch of 16 64x64 noise images, with no optimizer and no
dataset in the process. With `--request`, each of 12 steps is instead one
`trainer.predict_probs` request for all 64 images of an in-memory noise
dataset on the baseline arm, as perfbench's `infer-baseline` makes it.
Its normalization is fit on 4 of the images, a small labeled pool as in
the benchmark: glibc sizes its heap thresholds from the largest block
freed so far, so fitting on all 64 would free a 6 MB copy first and hide
the request's own heap churn. With `--train`, the steps are those of
perfbench's `train-full` configuration: three one-epoch `trainer.train`
runs, each from a fresh default full-arm model, batch 16 with Adam over
320 labeled 64x64 noise images held as 8-bit samples (20 steps a run);
each step's peak RSS, minor faults and wall time are printed as it ends.
Prints the process's peak RSS (`ru_maxrss`) and, over the steps after the
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
from dcswin.data import ArrayDataset, DatasetSplit  # noqa: E402
from dcswin.model import DCSWin, ModelConfig  # noqa: E402

STEPS = 12
BATCH = 16
REQUEST = 64
LABELED = 4
TRAIN_IMAGES = 320
TRAIN_RUNS = 3


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


def train_runs():
    """`train-full`'s steps: each call of `on_step` ends one Adam step."""
    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    ids = [f"s{i:03d}" for i in range(TRAIN_IMAGES)]
    dataset = ArrayDataset(
        ids, rng.integers(0, 256, (TRAIN_IMAGES, 3, 64, 64), np.uint8),
        rng.integers(0, cfg.num_classes, TRAIN_IMAGES),
        [f"class{c}" for c in range(cfg.num_classes)], scale=255)
    dataset.fit_normalization(ids)
    split = DatasetSplit(labeled=tuple(ids), unlabeled=(), test=(), seed=0,
                         train_frac=0.8, labeled_frac=1.0)
    train_cfg = trainer.TrainConfig(epochs=1, batch_size=BATCH, tau=1.0,
                                    warmup_epochs=1, seed=0)

    def run(on_step):
        for seed in range(TRAIN_RUNS):
            trainer.train(DCSWin(cfg, seed=seed), dataset, split, train_cfg,
                          step_listener=lambda event: on_step())
    return run


def repeat(step):
    def run(on_step):
        for _ in range(STEPS):
            step()
            on_step()
    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--request", action="store_true",
                      help="time 64-image no-grad requests on the "
                           "baseline arm instead of training steps")
    mode.add_argument("--train", action="store_true",
                      help="run train-full's Adam steps and print the peak "
                           "RSS after each")
    args = parser.parse_args()
    run = (train_runs() if args.train else
           repeat(request() if args.request else training_step()))
    faults, times = [], []
    last = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
            time.perf_counter()]

    def on_step():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        now = time.perf_counter()
        faults.append(usage.ru_minflt - last[0])
        times.append(now - last[1])
        if args.train:
            print(f"step {len(times) - 1} peak_rss_mb "
                  f"{usage.ru_maxrss / 1024:.1f} minflt {faults[-1]} "
                  f"ms {1000 * times[-1]:.1f}", flush=True)
        last[:] = usage.ru_minflt, time.perf_counter()

    run(on_step)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"minflt_per_step {statistics.median(faults[2:]):.0f}")
    print(f"step_ms {1000 * statistics.median(times[2:]):.1f}")


if __name__ == "__main__":
    main()
