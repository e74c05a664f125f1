"""Bit parity of this tree's package against another revision's.

    python3 tools/parity.py --against <rev>
    python3 tools/parity.py --digest [--src DIR]

Run from the repository root. `--against` exports the committed tree of
`<rev>` with `git archive` into a temporary directory (local, no network,
and nothing is left registered in `.git` if the run is interrupted), runs
the digest matrix once on that tree's `src/` and once on this working
tree's, each in its own subprocess with BLAS on one thread, and compares
the two lists array by array. It prints the first array that differs, by
name, and exits 1, or prints how many arrays were equal and exits 0.

`--digest` prints the matrix's digests, one `name sha256` line per array,
for the package under `--src` (default `src`). The matrix, per case:

  * configs: the default `ModelConfig()`, `semi-loop`'s small config, the
    micro config, and a padded micro config (6x6 and 3x3 token maps, so
    windows pad, with and without a shift);
  * every ablation arm, and soft and hard selection on the arms with a
    dynamic window;
  * fresh init weights, and the same weights with seeded noise (a fresh
    init zeroes every residual branch's output projection);

and, per case, the logits without a graph; the logits, cross-entropy loss
and every parameter gradient of one step; the loss and every parameter
after each of 3 Adam and 3 SGD steps, the third a noise-consistency step;
and, of the final SGD model over 11 images (chunks of 8 and 3):
`trainer.predict_probs`; `trainer.evaluate_model`'s metric values and
confusion counts; `trainer.generate_pseudo_labels`' ids, labels and
confidences at the median top probability; and the no-graph logits of
the model that `DCSWin.load` rebuilds from a `save_checkpoint` of its
weights and SGD state. Once per tree, after the cases, it digests the
files of one `trainer.run_experiment` (two seeds of a semi-supervised run
of the micro config on a small synthetic dataset, with pseudo-labels,
the consistency loss, diffusion augmentation and a checkpoint every
epoch): each seed's `epochs.jsonl` records without their `wall_ms`, its
`metrics.json` and the bytes of its `state.dcsm`, and `report.json`.
Last, it digests the worst and the per-tensor relative errors of
`gradcheck.run_op_check` for every named op and of
`gradcheck.run_model_check()`: finite differences read the loss at
perturbed inputs, so these see any change to a value the cases miss.
Each digest covers an array's dtype, shape and bytes (a file's bytes as
an array of uint8), so two trees agree only if every value has the same
bits, signs of zeros included.

The matrix is this tool's, so both trees digest the same names, except
for the gradient checks, which are the package's own: a check that only
one tree names has nothing to be compared with, and is listed as new or
gone instead.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# dcswin is imported inside the functions below, once `main` has put the
# package under `--src` first on the path
ROOT = Path(__file__).resolve().parent.parent
BATCH = 4
PREDICT_IMAGES = 11
LR = 1e-3


@dataclass(frozen=True)
class Case:
    config: str
    arm: str
    selection: str
    weights: str

    @property
    def name(self) -> str:
        return f"{self.config}/{self.arm}/{self.selection}/{self.weights}"


def _config(name: str):
    from dcswin.model import ModelConfig
    if name == "default":
        return ModelConfig()
    if name == "semi-loop":
        return ModelConfig(image_size=64, patch_size=8, embed_dims=(16, 32),
                           depths=(1, 1), num_heads=(2, 4), candidates=(2, 4),
                           num_classes=4, fixed_window=4)
    if name == "micro":
        return ModelConfig.micro()
    # 6x6 and 3x3 maps: window 4 pads at stage 0, window 2 at stage 1, and
    # the second block of each stage shifts
    return ModelConfig.micro(image_size=24, depths=(2, 2), fixed_window=4)


CONFIGS = ("default", "semi-loop", "micro", "padded-micro")
ARMS = ("full", "no-dw", "no-cs", "baseline")
CASES = tuple(
    Case(config, arm, selection, weights)
    for config in CONFIGS for arm in ARMS
    for selection in (("soft", "hard") if arm in ("full", "no-cs")
                      else ("soft",))
    for weights in ("fresh", "perturbed"))


def _model(cfg, weights: str):
    """The seed-0 init of `cfg`, with seeded noise added in place for
    perturbed weights."""
    from dcswin.model import DCSWin
    model = DCSWin(cfg, seed=0)
    if weights == "perturbed":
        noise = np.random.default_rng(1)
        for param in model.named_params().values():
            param.data += noise.normal(0.0, 0.05, param.data.shape)
    return model


def _digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _case_digests(case: Case):
    """(name, digest) of every array of one case, in a fixed order."""
    from dcswin import tensor as T
    from dcswin import trainer
    from dcswin.data import ArrayDataset
    from dcswin.diffusion import NoiseSchedule, consistency_loss
    from dcswin.model import DCSWin
    from dcswin.serialization import save_checkpoint
    from dcswin.tensor import Tensor

    cfg = _config(case.config).ablated(case.arm)
    if case.selection == "hard":
        cfg = replace(cfg, selection="hard")
    rng = np.random.default_rng(2)
    side = cfg.image_size
    x = rng.standard_normal((BATCH, 3, side, side))
    y = rng.integers(0, cfg.num_classes, BATCH)
    model = _model(cfg, case.weights)

    def out(what, arr):
        return f"{case.name}/{what}", _digest(arr)

    with T.no_grad():
        yield out("logits.nograd", model(Tensor(x)).data)
    logits = model(Tensor(x))
    loss = T.cross_entropy(logits, y)
    T.backward(loss)
    yield out("logits", logits.data)
    yield out("loss", loss.data)
    for name, p in model.named_params().items():
        yield out(f"grad.{name}", np.zeros(0) if p.grad is None else p.grad)

    schedule = NoiseSchedule.linear()
    for kind in ("adam", "sgd"):
        model = _model(cfg, case.weights)
        params = model.named_params()
        opt = trainer.Adam(params) if kind == "adam" else trainer.SGD(params)
        steps = np.random.default_rng(3)
        for step in range(3):
            model.zero_grad()
            if step < 2:
                loss = T.cross_entropy(model(Tensor(x)), y)
            else:
                loss = consistency_loss(model, x, schedule, 5, steps)
            T.backward(loss)
            opt.step(LR)
            yield out(f"{kind}.step{step}.loss", loss.data)
            for name, p in params.items():
                yield out(f"{kind}.step{step}.{name}", p.data)

    ids = [f"s{i:02d}" for i in range(PREDICT_IMAGES)]
    # every class has a true sample, so every metric is defined
    dataset = ArrayDataset(ids, rng.random((PREDICT_IMAGES, 3, side, side)),
                           np.arange(PREDICT_IMAGES) % cfg.num_classes,
                           [f"c{i}" for i in range(cfg.num_classes)])
    dataset.fit_normalization(ids)
    probs = trainer.predict_probs(model, dataset, ids)
    yield out("predict_probs", probs)
    values, cm, _ = trainer.evaluate_model(model, dataset, ids)
    yield out("evaluate_model.values",
              np.array([values[k] for k in sorted(values)]))
    yield out("evaluate_model.confusion", cm.counts)
    pseudo = trainer.generate_pseudo_labels(
        model, dataset, ids, float(np.median(probs.max(axis=1))))
    yield out("pseudo.ids", np.array(pseudo.ids(), dtype=str))
    yield out("pseudo.labels", pseudo.labels())
    yield out("pseudo.confidences",
              np.array([rec.confidence for rec in pseudo.records]))
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        path = Path(tmp) / "state.dcsm"
        save_checkpoint(path, cfg.to_mapping(),
                        {**model.state_dict(), **opt.state_tensors()})
        loaded, _ = DCSWin.load(path)
    with T.no_grad():
        yield out("checkpoint.logits", loaded(Tensor(x)).data)


def digests(cases=CASES) -> dict[str, str]:
    """name -> digest for every array of `cases`, in matrix order."""
    result = {}
    for case in cases:
        result.update(_case_digests(case))
    return result


def experiment_digests() -> dict[str, str]:
    """name -> digest of the files one small `run_experiment` writes."""
    import json

    from dcswin import trainer
    from dcswin.data import ArrayDataset, stratified_split, synth_generate
    from dcswin.model import ModelConfig

    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        root = Path(tmp)
        manifest = synth_generate(root / "data", num_classes=2, per_class=8,
                                  image_size=16, seed=0)
        split = stratified_split(manifest, train_frac=0.75, labeled_frac=0.4,
                                 seed=0)
        cfg = trainer.TrainConfig(
            epochs=3, initial_lr=3e-3, batch_size=4, warmup_epochs=1,
            tau=0.3, pseudo_weight=0.8, consistency_weight=0.1, augment_t=5,
            checkpoint_every=1, seed=0)
        out = root / "out"
        trainer.run_experiment(ArrayDataset.from_manifest(manifest), split,
                               ModelConfig.micro(num_classes=2), cfg, out,
                               seeds=[0, 1])

        def file_digest(data: bytes) -> str:
            return _digest(np.frombuffer(data, dtype=np.uint8))

        result = {}
        for seed_dir in sorted(out.glob("seed*")):
            records = [json.loads(line) for line in
                       (seed_dir / "epochs.jsonl").read_text().splitlines()]
            for record in records:
                record.pop("wall_ms")
            files = {"epochs.jsonl": json.dumps(records).encode(),
                     "metrics.json": (seed_dir / "metrics.json").read_bytes(),
                     "state.dcsm": (seed_dir / "state.dcsm").read_bytes()}
            for what, data in files.items():
                result[f"experiment/{seed_dir.name}/{what}"] = \
                    file_digest(data)
        result["experiment/report.json"] = file_digest(
            (out / "report.json").read_bytes())
    return result


def gradcheck_digests() -> dict[str, str]:
    """name -> digest of the worst and each tensor's relative error of
    every named op's elementwise check and of the model's directional
    check."""
    from dcswin import gradcheck
    result = {}
    for res in [*map(gradcheck.run_op_check, gradcheck.op_names()),
                gradcheck.run_model_check()]:
        errors = {"worst_rel": res.worst_rel, **res.per_tensor}
        for what, err in errors.items():
            result[f"gradcheck/{res.name}/{what}"] = _digest(np.float64(err))
    return result


def _run_digest(src: Path) -> list[tuple[str, str]]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digest",
         "--src", str(src)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"parity: the digest run on {src} failed")
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def compare(theirs: list[tuple[str, str]], ours: list[tuple[str, str]],
            rev: str) -> int:
    """Print how this tree's digests compare with `rev`'s, and return the
    exit status: 1 for a differing digest, an array digested in another
    order, or a name outside the gradient checks that only one tree has."""
    their_map, our_map = dict(theirs), dict(ours)
    gone = [name for name, _ in theirs if name not in our_map]
    new = [name for name, _ in ours if name not in their_map]
    for name in gone + new:
        if not name.startswith("gradcheck/"):
            side = rev if name in their_map else "this tree"
            print(f"differs: only {side} digests {name}")
            return 1
    shared = [name for name, _ in ours if name in their_map]
    for a, b in zip([name for name, _ in theirs if name in our_map], shared):
        if a != b:
            print(f"differs: {rev} has {a} where this tree has {b}")
            return 1
    for name in shared:
        if their_map[name] != our_map[name]:
            print(f"differs: {name}")
            return 1
    print(f"equal: all {len(shared)} arrays of {len(CASES)} cases, the "
          f"experiment files and the gradient checks have the same bits "
          f"as at {rev}")
    for label, names, side in (("new", new, "this tree"), ("gone", gone, rev)):
        checks = sorted({name.split("/")[1] for name in names})
        if checks:
            print(f"{label}: {len(names)} arrays of the gradient checks "
                  f"{', '.join(checks)}, which only {side} has")
    return 0


def against(rev: str) -> int:
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True)
    if sha.returncode:
        raise SystemExit(f"parity: unknown revision {rev!r}")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        archive = subprocess.run(["git", "archive", sha.stdout.strip(), "src"],
                                 cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        theirs = _run_digest(Path(tmp) / "src")
    ours = _run_digest(ROOT / "src")
    return compare(theirs, ours, rev)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV",
                      help="compare this tree with the committed tree of REV")
    mode.add_argument("--digest", action="store_true",
                      help="print the digest of every array of the matrix")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the package directory --digest imports")
    args = parser.parse_args()
    if args.against:
        raise SystemExit(against(args.against))
    sys.path.insert(0, str(Path(args.src).resolve()))
    for name, dig in {**digests(), **experiment_digests(),
                      **gradcheck_digests()}.items():
        print(name, dig)


if __name__ == "__main__":
    main()
