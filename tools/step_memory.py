"""Peak memory and page faults of a bare training step, a no-grad request
or a training run, or the wall time of loading a dataset.

    python3 tools/step_memory.py [--request | --train | --semi | --load | --saved]

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
With `--semi`, the steps are the noise-consistency steps of perfbench's
`semi-loop` configuration: a 160-image synthetic PPM dataset is written
to a temporary directory and loaded once, as `dcswin train` loads its
dataset, and three 3-epoch `trainer.train` runs of the small full-arm
model (pseudo-labels, consistency loss, diffusion augmentation and a
checkpoint every epoch) each start from a fresh model. A step is the
interval between two consecutive steps of one consistency pass, as
perfbench times them; the median and 90th percentile wall time and the
median minor faults over all of them are printed.
With `--load`, nothing trains: synthetic 64x64 PPM datasets of 160 and
400 images (the sizes `semi-loop` and `train-full`/`infer-baseline` load)
are written to a temporary directory once, and 25
`ArrayDataset.from_manifest` calls on each are timed; the median wall time
and microseconds per image of each, then the peak RSS, are printed.
With `--saved`, one training step of that model and batch runs under
`tracemalloc`. The bytes the forward's backward rules hold (parameters
included) are printed, in MB of 2^20 bytes as peak RSS is, by op and by
the rule's closure variable, counting each array that owns its memory
once: what the tape keeps alive between forward and backward. Then the
step's peak of bytes allocated since it began (`step_peak_mb`) and where
it fell (`peak_rule`): `forward`, or the op of the backward rule and that
rule's place in the sweep, counted from 1. Last, for the five rules with
the highest peaks, the op, the place in the sweep, the bytes held as the
rule starts (`held_mb`) and the rule's transient on top of them
(`transient_mb`): a peak that the tape sets shows a large held figure, one
that a rule's scratch sets a large transient.
Otherwise prints the process's peak RSS (`ru_maxrss`) and, over the steps
after the first two, the median minor page faults and wall time per step.
BLAS runs on one thread, as in perfbench.
"""
from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # before NumPy loads; an importer keeps its own settings
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import argparse  # noqa: E402
import collections  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from dcswin import tensor as T  # noqa: E402
from dcswin import trainer  # noqa: E402
from dcswin.data import (ArrayDataset, DatasetSplit,  # noqa: E402
                         stratified_split, synth_generate)
from dcswin.model import DCSWin, ModelConfig  # noqa: E402

STEPS = 12
BATCH = 16
REQUEST = 64
LABELED = 4
TRAIN_IMAGES = 320
TRAIN_RUNS = 3
LOAD_IMAGES = (160, 400)
LOAD_CALLS = 25
TOP_RULES = 5


def step_inputs():
    """The default full-arm model and the one fixed batch it steps on."""
    cfg = ModelConfig()
    model = DCSWin(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((BATCH, 3, 64, 64)))
    y = rng.integers(0, cfg.num_classes, BATCH)
    return model, x, y


def training_step():
    model, x, y = step_inputs()

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


def semi_runs(work_dir: Path):
    """`semi-loop`'s runs: `on_step(kind, epoch)` follows every step."""
    manifest = synth_generate(work_dir / "data", num_classes=4, per_class=40,
                              image_size=64, seed=0)
    dataset = ArrayDataset.from_manifest(manifest)
    split = stratified_split(manifest, train_frac=0.8, labeled_frac=0.05,
                             seed=0)
    cfg = ModelConfig(image_size=64, patch_size=8, embed_dims=(16, 32),
                      depths=(1, 1), num_heads=(2, 4), candidates=(2, 4),
                      num_classes=4, fixed_window=4)
    train_cfg = trainer.TrainConfig(
        epochs=3, initial_lr=3e-3, batch_size=4, warmup_epochs=1, tau=0.3,
        pseudo_weight=0.8, consistency_weight=0.1, augment_t=5,
        checkpoint_every=1, num_runs=1, seed=0)

    def run(on_step):
        for seed in range(TRAIN_RUNS):
            trainer.train(DCSWin(cfg, seed=seed), dataset, split, train_cfg,
                          run_dir=work_dir / f"run{seed}",
                          step_listener=lambda event: on_step(
                              event["kind"], event["epoch"]))
    return run


def semi_main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        run = semi_runs(Path(work_dir))
        faults, times = [], []
        last = {"pass": None}

        def on_step(kind, epoch):
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            now = time.perf_counter()
            if kind == "consistency" and last["pass"] == (kind, epoch):
                faults.append(minflt - last["minflt"])
                times.append(now - last["t"])
            last.update({"pass": (kind, epoch), "minflt": minflt, "t": now})

        run(on_step)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")
    print(f"consistency_steps {len(times)}")
    print(f"step_ms_median {1000 * statistics.median(times):.2f}")
    print(f"step_ms_p90 {1000 * float(np.percentile(times, 90)):.2f}")
    print(f"minflt_per_step {statistics.median(faults):.0f}")


def load_main() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        for images in LOAD_IMAGES:
            manifest = synth_generate(Path(work_dir) / f"data{images}",
                                      num_classes=4, per_class=images // 4,
                                      image_size=64, seed=0)
            times = []
            for _ in range(LOAD_CALLS):
                t0 = time.perf_counter()
                ArrayDataset.from_manifest(manifest)
                times.append(time.perf_counter() - t0)
            ms = 1000 * statistics.median(times)
            print(f"images {images} load_ms_median {ms:.2f} "
                  f"us_per_image {1000 * ms / images:.1f}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}")


def traced_rule(bw, op: str, spans: list):
    """`bw`, which first closes the last `[peak, held, where]` of `spans`
    with the traced peak since it opened, then opens its own with the
    bytes traced as it starts."""
    def rule(g):
        held, spans[-1][0] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        spans.append([0, held, f"{op} {len(spans)}"])
        return bw(g)
    return rule


def traced_step():
    """One training step of `step_inputs()` under `tracemalloc`: the
    forward's tape entries, the bytes its rules hold by (op, closure
    variable), and per span, the forward's and then each rule's in sweep
    order, `[peak, held, where]`: the traced peak of bytes allocated since
    the step began, the bytes traced as the span began (0 for the
    forward), and `forward` or the rule's op and place in the sweep,
    counted from 1."""
    model, x, y = step_inputs()
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            logits = model(x)
            saved = collections.Counter()
            for op, var, arr in T._saved_arrays(tape):
                saved[op, var] += arr.nbytes
            entries = len(tape)
            loss = T.cross_entropy(logits, y)
        del logits
        # a rule's span runs until the next rule starts, so it includes
        # the sweep adding up the gradients the rule returned
        spans = [[0, 0, "forward"]]
        for entry in tape._entries:
            entry.bw = traced_rule(
                entry.bw, entry.bw.__qualname__.split(".")[0], spans)
        tape.backward(loss)
        spans[-1][0] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return entries, saved, spans


def saved_main() -> None:
    entries, saved, spans = traced_step()
    by_op = collections.Counter()
    for (op, _), nbytes in saved.items():
        by_op[op] += nbytes
    step_peak, _, peak_rule = max(spans, key=lambda s: s[0])
    mb = 1 << 20
    print(f"tape_entries {entries}")
    print(f"saved_mb {sum(by_op.values()) / mb:.2f}")
    for op, nbytes in by_op.most_common():
        print(f"{op} {nbytes / mb:.2f}")
        for (vop, var), vbytes in saved.most_common():
            if vop == op:
                print(f"  {var} {vbytes / mb:.2f}")
    print(f"step_peak_mb {step_peak / mb:.2f}")
    print(f"peak_rule {peak_rule}")
    print("top_rules op sweep_index held_mb transient_mb")
    rules = sorted(spans[1:], key=lambda s: s[0], reverse=True)
    for peak, held, where in rules[:TOP_RULES]:
        print(f"  {where} {held / mb:.2f} {(peak - held) / mb:.2f}")


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
    mode.add_argument("--semi", action="store_true",
                      help="time semi-loop's noise-consistency steps")
    mode.add_argument("--load", action="store_true",
                      help="time ArrayDataset.from_manifest on PPM trees "
                           "of 160 and 400 images")
    mode.add_argument("--saved", action="store_true",
                      help="print the bytes one training forward leaves "
                           "on the tape, by op and closure variable, and "
                           "the step's traced peak and where it falls")
    args = parser.parse_args()
    if args.saved:
        saved_main()
        return
    if args.semi:
        semi_main()
        return
    if args.load:
        load_main()
        return
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
