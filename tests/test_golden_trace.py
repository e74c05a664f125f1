"""Golden training trace: a refactor of the training loop or of the config
codec must reproduce these runs step for step.

`golden_trace.json` holds two micro-model runs on the 2-class, 8-per-class,
16-px synthetic set:
  * "semi": Adam with a warmed-up cosine schedule, pseudo-labels,
    noise consistency and diffusion augmentation, interrupted after two
    epochs with `stop_after` and then resumed;
  * "sgd": SGD with the step schedule.

For each run it stores every step event (kind, epoch, ids, loss), every
`epochs.jsonl` record without `wall_ms`, the text of `run_config.txt` and
the config section of `state.dcsm`. Text and ints must match exactly,
floats to 1e-10 relative.

Regenerate (only when the numbers are meant to change) with
`PYTHONPATH=src python tests/test_golden_trace.py`.
"""
import json
import math
import tempfile
from pathlib import Path

from dcswin.data import (ArrayDataset, DatasetManifest, stratified_split,
                         synth_generate)
from dcswin.model import DCSWin, ModelConfig
from dcswin.serialization import config_to_text, load_checkpoint
from dcswin.trainer import TrainConfig, train, write_run_config

GOLDEN = Path(__file__).with_name("golden_trace.json")
REL = 1e-10

RUNS = {
    "semi": (TrainConfig(epochs=4, initial_lr=3e-3, batch_size=3, tau=0.5,
                         warmup_epochs=1, consistency_weight=0.1,
                         consistency_t_max=5, augment_t=3,
                         diffusion_steps=10, checkpoint_every=3, seed=1),
             2),
    "sgd": (TrainConfig(epochs=3, initial_lr=0.05, batch_size=3, tau=0.5,
                        warmup_epochs=1, optimizer="sgd", momentum=0.8,
                        scheduler="step", step_size=1, step_gamma=0.5,
                        seed=2),
            None),
}


def run_trace(root: Path, name: str, manifest: DatasetManifest) -> dict:
    cfg, stop_after = RUNS[name]
    dataset = ArrayDataset.from_manifest(manifest)
    split = stratified_split(manifest, train_frac=0.75, labeled_frac=0.4,
                             seed=0)
    model_cfg = ModelConfig.micro(num_classes=2)
    run_dir = root / name
    events: list[dict] = []

    def listener(event):
        events.append({"kind": event["kind"], "epoch": event["epoch"],
                       "ids": list(event["ids"]), "loss": event["loss"]})

    model = DCSWin(model_cfg, seed=cfg.seed)
    train(model, dataset, split, cfg, run_dir=run_dir,
          stop_after=stop_after, step_listener=listener)
    if stop_after is not None:
        model = DCSWin(model_cfg, seed=cfg.seed)
        train(model, dataset, split, cfg, run_dir=run_dir,
              step_listener=listener)
    write_run_config(run_dir / "run_config.txt", model_cfg, cfg, [cfg.seed])
    epochs = [json.loads(line) for line in
              (run_dir / "epochs.jsonl").read_text().splitlines()]
    for record in epochs:
        record.pop("wall_ms")
    state_config, _ = load_checkpoint(run_dir / "state.dcsm")
    return {"events": events, "epochs": epochs,
            "run_config": (run_dir / "run_config.txt").read_text(),
            "state_config": config_to_text(state_config)}


def compute_trace(root: Path) -> dict:
    manifest = synth_generate(root / "data", num_classes=2, per_class=8,
                              image_size=16, seed=0)
    return {name: run_trace(root, name, manifest) for name in RUNS}


def assert_same(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def test_golden_training_trace(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = compute_trace(tmp_path)
    # round-trip through JSON so both sides have the same container types
    assert_same(json.loads(json.dumps(got)), want, "trace")


def test_golden_trace_exercises_every_pass():
    want = json.loads(GOLDEN.read_text())
    semi = want["semi"]
    kinds = {e["kind"] for e in semi["events"]}
    assert kinds == {"labeled", "pseudo", "consistency"}
    assert [r["epoch"] for r in semi["epochs"]] == [0, 1, 2, 3]
    assert any(r["pseudo_count"] > 0 for r in semi["epochs"])
    assert "progress.epoch_next = 4" in semi["state_config"]
    assert "train.optimizer = sgd" in want["sgd"]["run_config"]
    lrs = [r["lr"] for r in want["sgd"]["epochs"]]
    assert lrs == [0.05, 0.025, 0.0125]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(compute_trace(Path(tmp)), indent=1)
                          + "\n")
    print(f"wrote {GOLDEN}")
