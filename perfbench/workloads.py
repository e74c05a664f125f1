"""The benchmark's workloads: set-up, closed-loop measurement, output check.

Every workload is one process with one caller; the next iteration starts
only after the previous one returns. `--seed n` selects input set
`n % INPUT_SETS`: the synthetic dataset, the split and the model init all
derive from it, and `reference/<workload>.json` holds the outputs that set
gives at the commit that defined the benchmark.
"""
from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from dcswin import data, tensor, trainer
from dcswin.model import DCSWin, ModelConfig
from dcswin.rng import stream

INPUT_SETS = 16

# Outputs may differ from the reference only by float64 rounding, e.g. from
# re-associated sums. Perturbing every op's output by up to 2 ulp moved
# `semi-loop` outputs by at most 1.5e-10 (140 Adam steps amplify it) and
# the others by under 1e-15; any change to the arithmetic itself lands
# orders of magnitude above this tolerance.
RTOL = 1e-6
ATOL = 1e-8


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ATOL + RTOL * abs(ref)


class Deadline(Exception):
    """Raised from a step listener to end a time-bounded training call."""


class Recorder:
    """Latencies, output-check results and whole runs of one phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.run_s: list[float] = []
        self.run_items: list[int] = []
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        # Run at `pause()`; its time is kept out of the measured phase.
        self.on_pause = None
        self.paused_s = 0.0

    def iteration(self, ok: bool, what: str,
                  latency_s: float | None = None) -> None:
        """One finished iteration; `latency_s` None leaves it untimed."""
        self.iterations += 1
        self.attempted += 1
        if latency_s is not None:
            self.latencies_ms.append(latency_s * 1000.0)
        if not ok:
            self.fail(f"output mismatch at {what}")
        if self.tracer is not None:
            self.tracer.iteration += 1

    def run(self, seconds: float, items: int) -> None:
        """One whole run of the workload, `items` samples or images."""
        self.run_s.append(seconds)
        self.run_items.append(items)

    def check(self, ok: bool, what: str) -> None:
        """An output check that is not tied to one iteration."""
        self.attempted += 1
        if not ok:
            self.fail(f"output mismatch at {what}")

    def pause(self) -> None:
        """A point between iterations, outside every timed interval."""
        if self.on_pause is not None:
            t0 = time.perf_counter()
            self.on_pause()
            self.paused_s += time.perf_counter() - t0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)


def _raised(rec: Recorder, what: str) -> None:
    rec.attempted += 1
    rec.fail(f"{what} raised")
    traceback.print_exc(file=sys.stderr)


class Workload:
    name: str
    arm: str
    # Fixed tail percentile: a run of BENCHMARK.json's `run_seconds`
    # collects enough latency samples to leave at least ten beyond it.
    tail_pct: int

    # Images per class of the synthetic dataset.
    per_class: int

    def __init__(self, input_set: int, work_dir: Path, ref: dict):
        self.input_set = input_set
        self.work_dir = work_dir
        self.ref = ref
        self.manifest: data.DatasetManifest | None = None

    def synthesize(self) -> data.DatasetManifest:
        """Write the input set's PPM dataset, the files a user would have
        on disk. They are the benchmark's inputs, so `setup_s` leaves the
        writing out: file creation costs several times more in some
        directories than in others, and that cost is not the program's."""
        root = Path(tempfile.mkdtemp(prefix="data-", dir=self.work_dir))
        self.manifest = data.synth_generate(root, num_classes=4,
                                            per_class=self.per_class,
                                            image_size=64,
                                            seed=self.input_set)
        return self.manifest

    def _dataset(self, labeled_frac: float):
        if self.manifest is None:
            self.synthesize()
        dataset = data.ArrayDataset.from_manifest(self.manifest)
        split = data.stratified_split(self.manifest, train_frac=0.8,
                                      labeled_frac=labeled_frac,
                                      seed=self.input_set)
        return dataset, split

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what `setup` built, so that timing it again does not hold
        two copies; `setup` rebuilds the same state."""
        for attr in ("dataset", "split", "pool", "model"):
            self.__dict__.pop(attr, None)

    def warmup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, rec: Recorder) -> None:
        raise NotImplementedError

    def reference(self) -> dict:
        """Outputs of one whole run, in the form stored under reference/."""
        raise NotImplementedError

    def tape_entries(self) -> int:
        """Tape entries one iteration records, counted with `len(Tape())`."""
        raise NotImplementedError


def _model(cfg: ModelConfig, input_set: int) -> DCSWin:
    """The init of `input_set` plus seeded weight noise. A fresh init zeroes
    the output projection of every residual branch, so attention and MLP
    would barely reach the outputs the check compares."""
    model = DCSWin(cfg, seed=input_set)
    noise = stream(input_set, "perfbench-weights")
    for param in model.named_params().values():
        param.data = param.data + noise.normal(0.0, 0.05, param.data.shape)
    return model


class TrainFull(Workload):
    """Labeled steps of the default full arm: batch 16 over 320 labeled
    samples, one `trainer.train` epoch (20 steps) per run, each run from a
    fresh init."""
    name = "train-full"
    arm = "full"
    tail_pct = 70
    per_class = 100

    def setup(self) -> None:
        self.dataset, split = self._dataset(labeled_frac=0.05)
        ids = tuple(sorted(split.labeled + split.unlabeled))
        self.split = data.DatasetSplit(labeled=ids, unlabeled=(),
                                       test=split.test, seed=split.seed,
                                       train_frac=0.8, labeled_frac=1.0)
        self.dataset.fit_normalization(ids)
        self.cfg = ModelConfig()
        self.train_cfg = trainer.TrainConfig(epochs=1, batch_size=16, tau=1.0,
                                             warmup_epochs=1,
                                             seed=self.input_set)
        self.model = _model(self.cfg, self.input_set)

    def _run(self, rec: Recorder, deadline: float, max_steps: int | None,
             timed: bool) -> list[float]:
        losses: list[float] = []
        samples = [0]
        model = _model(self.cfg, self.input_set)
        ref = self.ref.get("losses", []) if self.ref else None
        prev = time.perf_counter()
        start = prev

        def listener(event):
            nonlocal prev
            now = time.perf_counter()
            k = len(losses)
            losses.append(event["loss"])
            samples[0] += len(event["ids"])
            ok = ref is None or (k < len(ref) and close(event["loss"], ref[k]))
            rec.iteration(ok, f"step {k}", now - prev if timed else None)
            prev = now
            if (max_steps is not None and len(losses) >= max_steps) or \
                    (now >= deadline and rec.run_s):
                raise Deadline

        trainer.train(model, self.dataset, self.split, self.train_cfg,
                      step_listener=listener)
        if timed:
            rec.run(time.perf_counter() - start, samples[0])
        if ref is not None:
            rec.check(len(losses) == len(ref), "step count")
        return losses

    def warmup(self, rec: Recorder) -> None:
        try:
            self._run(rec, 0.0, max_steps=2, timed=False)
        except Deadline:
            pass

    def measure(self, seconds: float, rec: Recorder) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            try:
                self._run(rec, deadline + rec.paused_s, None, timed=True)
            except Deadline:
                return
            except Exception:
                _raised(rec, "train epoch")
            rec.pause()
            if time.perf_counter() >= deadline + rec.paused_s:
                return

    def reference(self) -> dict:
        self.ref = None
        return {"losses": self._run(Recorder(), float("inf"), None, False)}

    def tape_entries(self) -> int:
        return _step_tape(self.model, self.dataset, self.split.labeled[:16])


class InferBaseline(Workload):
    """No-grad `trainer.predict_probs` requests of 64 images on the baseline
    arm, cycling over the unlabeled and test pools (304 + 80 = 6 requests
    per run)."""
    name = "infer-baseline"
    arm = "baseline"
    tail_pct = 65
    request = 64
    per_class = 100

    def setup(self) -> None:
        self.dataset, split = self._dataset(labeled_frac=0.05)
        self.dataset.fit_normalization(split.labeled)
        self.pool = sorted(split.unlabeled) + sorted(split.test)
        self.cfg = ModelConfig().ablated("baseline")
        self.model = _model(self.cfg, self.input_set)

    @property
    def requests_per_run(self) -> int:
        return len(self.pool) // self.request

    def _request(self, j: int) -> np.ndarray:
        ids = self.pool[j * self.request:(j + 1) * self.request]
        return trainer.predict_probs(self.model, self.dataset, ids)

    def _check(self, j: int, probs: np.ndarray) -> bool:
        lo, hi = j * self.request, (j + 1) * self.request
        pairs = list(zip(probs.sum(axis=1), self.ref["row_sums"][lo:hi])) + \
            list(zip(probs.max(axis=1), self.ref["max_probs"][lo:hi]))
        return (probs.shape == (self.request, self.cfg.num_classes)
                and [int(v) for v in probs.argmax(axis=1)]
                == self.ref["labels"][lo:hi]
                and all(close(float(a), b) for a, b in pairs))

    def _one(self, rec: Recorder, k: int, timed: bool) -> float:
        j = k % self.requests_per_run
        t0 = time.perf_counter()
        try:
            probs = self._request(j)
        except Exception:
            _raised(rec, f"request {j}")
            return 0.0
        latency = time.perf_counter() - t0
        rec.iteration(self._check(j, probs), f"request {j}",
                      latency if timed else None)
        return latency

    def warmup(self, rec: Recorder) -> None:
        self._one(rec, 0, timed=False)

    def measure(self, seconds: float, rec: Recorder) -> None:
        deadline = time.perf_counter() + seconds
        k = 0
        sweep = 0.0
        while time.perf_counter() < deadline + rec.paused_s or not rec.run_s:
            sweep += self._one(rec, k, timed=True)
            rec.pause()
            k += 1
            if k % self.requests_per_run == 0:
                rec.run(sweep, self.requests_per_run * self.request)
                sweep = 0.0

    def reference(self) -> dict:
        probs = np.concatenate([self._request(j)
                                for j in range(self.requests_per_run)])
        return {"labels": [int(v) for v in probs.argmax(axis=1)],
                "row_sums": [float(v) for v in probs.sum(axis=1)],
                "max_probs": [float(v) for v in probs.max(axis=1)]}

    def tape_entries(self) -> int:
        with tensor.Tape() as tape:
            self._request(0)
        return len(tape)


class SemiLoop(Workload):
    """`trainer.run_experiment` on the criterion-6 semi arm for 3 epochs
    (1 warmup epoch, then pseudo-labelling) with consistency loss, diffusion
    augmentation and a checkpoint every epoch. Each run is interrupted after
    2 epochs with `stop_after`, then resumed and evaluated by
    `run_experiment`."""
    name = "semi-loop"
    arm = "full"
    tail_pct = 90
    stop_after = 2
    per_class = 40

    def setup(self) -> None:
        self.dataset, self.split = self._dataset(labeled_frac=0.05)
        self.dataset.fit_normalization(self.split.labeled)
        self.cfg = ModelConfig(image_size=64, patch_size=8,
                               embed_dims=(16, 32), depths=(1, 1),
                               num_heads=(2, 4), candidates=(2, 4),
                               num_classes=4, fixed_window=4)
        self.train_cfg = trainer.TrainConfig(
            epochs=3, initial_lr=3e-3, batch_size=4, warmup_epochs=1, tau=0.3,
            pseudo_weight=0.8, consistency_weight=0.1, augment_t=5,
            checkpoint_every=1, num_runs=1, seed=self.input_set)
        self.model = DCSWin(self.cfg, seed=self.input_set)

    def _run(self, rec: Recorder, timed: bool,
             stop_after: int | None = None) -> dict:
        """One run. Latency is timed between consecutive steps of one
        consistency pass: every input set runs the same 29 such intervals
        per epoch, while the number of pseudo steps, which are cheaper,
        depends on the data, and a percentile over that mix moves with it.
        Pseudo-labelling, checkpoints and the resume show in the run time."""
        out_dir = Path(tempfile.mkdtemp(prefix="semi-", dir=self.work_dir))
        seed = self.input_set
        steps: list[list] = []
        samples = [0]
        ref_steps = self.ref["steps"] if self.ref else None
        last = {"pass": None, "t": 0.0}

        def listener(event):
            now = time.perf_counter()
            k = len(steps)
            steps.append([event["kind"], event["loss"]])
            key = (event["kind"], event["epoch"])
            latency = (now - last["t"] if timed and last["pass"] == key
                       and key[0] == "consistency" else None)
            ok = ref_steps is None or (
                k < len(ref_steps) and ref_steps[k][0] == event["kind"]
                and close(event["loss"], ref_steps[k][1]))
            samples[0] += len(event["ids"])
            rec.iteration(ok, f"step {k}", latency)
            last["pass"], last["t"] = key, now

        def train_with_listener(*args, **kwargs):
            last["pass"] = None
            return original_train(*args, step_listener=listener, **kwargs)

        original_train = trainer.train
        start = time.perf_counter()
        try:
            train_with_listener(DCSWin(self.cfg, seed=seed), self.dataset,
                                self.split, self.train_cfg,
                                run_dir=out_dir / f"seed{seed}",
                                stop_after=stop_after or self.stop_after)
            if stop_after is not None:
                return {"steps": steps}
            # run_experiment calls `train` through the trainer module, so the
            # listener is passed in by swapping that name for this call.
            trainer.train = train_with_listener
            try:
                trainer.run_experiment(self.dataset, self.split, self.cfg,
                                       self.train_cfg, out_dir, seeds=[seed],
                                       resume=True)
            finally:
                trainer.train = original_train
            elapsed = time.perf_counter() - start
            seed_dir = out_dir / f"seed{seed}"
            epochs = [json.loads(line) for line in
                      (seed_dir / "epochs.jsonl").read_text().splitlines()]
            for record in epochs:
                record.pop("wall_ms")
            values = json.loads((seed_dir / "metrics.json").read_text())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result = {"steps": steps, "epochs": epochs,
                  "test_balanced_accuracy": values["balanced_accuracy"]}
        self.accuracy = result["test_balanced_accuracy"]
        if self.ref:
            rec.check(len(steps) == len(ref_steps), "step count")
            rec.check(_same_records(epochs, self.ref["epochs"]), "epoch log")
            rec.check(close(result["test_balanced_accuracy"],
                            self.ref["test_balanced_accuracy"]),
                      "test_balanced_accuracy")
        if timed:
            rec.run(elapsed, samples[0])
        return result

    def warmup(self, rec: Recorder) -> None:
        self._run(rec, timed=False, stop_after=1)

    def measure(self, seconds: float, rec: Recorder) -> None:
        deadline = time.perf_counter() + seconds
        while not rec.run_s or time.perf_counter() \
                + statistics.median(rec.run_s) <= deadline + rec.paused_s:
            try:
                self._run(rec, timed=True)
            except Exception:
                _raised(rec, "semi run")
                if time.perf_counter() >= deadline + rec.paused_s:
                    return
            rec.pause()

    def reference(self) -> dict:
        self.ref = None
        return self._run(Recorder(), timed=False)

    def tape_entries(self) -> int:
        return _step_tape(self.model, self.dataset, self.split.labeled[:4])


def _step_tape(model, dataset, ids) -> int:
    """Entries one labeled step records: the forward and its loss."""
    with tensor.Tape() as tape:
        tensor.cross_entropy(model(tensor.Tensor(dataset.batch(ids))),
                             dataset.labels_for(ids))
    return len(tape)


def _same_records(got: list[dict], ref: list[dict]) -> bool:
    if len(got) != len(ref):
        return False
    for a, b in zip(got, ref):
        if a.keys() != b.keys():
            return False
        for key, value in b.items():
            if isinstance(value, float):
                if not isinstance(a[key], float) or not close(a[key], value):
                    return False
            elif a[key] != value:
                return False
    return True


WORKLOADS = {cls.name: cls for cls in (TrainFull, InferBaseline, SemiLoop)}
