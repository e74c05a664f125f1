"""Checks on the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

They run whole workload units (about two minutes on one core), so they sit
outside the package's test suite.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from tracer import PER_LAYER, Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = ("model.stage0", "model.stage1")
COMMON = (
    ["tensor.op_calls", "tensor.matmul.calls", "tensor.linear.calls",
     "tensor.layer_norm.calls", "tensor.gelu.calls", "tensor.softmax.calls",
     "tensor.add.calls", "tensor.reshape.calls", "tensor.permute.calls",
     "tensor.broadcast_to.calls",
     "tensor.reduce_mean.calls", "attention.windowed_mhsa.calls",
     "attention.attention_mask.calls", "attention.window_partition.ms",
     "attention.window_reverse.ms", "attention.layout.calls",
     "attention.self_ms", "model.forward.ms", "model.patch_embed.ms",
     "model.merge.ms", "model.head.ms", "model.self_ms", "trainer.self_ms",
     "data.batch.calls",
     "data.synth_generate.ms", "data.from_manifest.ms"]
    + [f"{s}.{part}_ms" for s in STAGES for part in ("attn", "mlp", "norm")])
TRAINING = [
    "tensor.backward_ms", "tensor.cross_entropy.calls", "tensor.conv1x1.calls",
    "tensor.avg_pool2d.calls", "tensor.slice_nd.calls",
    "attention.cross_attention.ms",
    "dynamic_window.dynamic_window_attention.ms",
    "dynamic_window.branches", "dynamic_window.distinct_windows",
    "dynamic_window.predict_scales.ms", "dynamic_window.pool_to_stage.ms",
    "dynamic_window.self_ms", "model.fuse.ms", "model.zero_grad.ms",
    "trainer.optimizer_step.ms", "trainer.data_wait_ms"]
DIFFUSION = ["diffusion.forward_diffuse.calls",
             "diffusion.consistency_loss.ms", "diffusion.self_ms"]
SEMI_ONLY = DIFFUSION + [
    "tensor.log_softmax.calls", "trainer.generate_pseudo_labels.ms",
    "trainer.pseudo_yield", "trainer.pseudo_precision",
    "trainer.evaluate_model.ms", "serialization.save_checkpoint.calls",
    "serialization.load_checkpoint.ms", "serialization.checkpoint_bytes",
    "metrics.evaluate_predictions.ms"]

# Metrics that must show work on a workload, and those that must stay at 0.
BUSY = {
    "train-full": COMMON + TRAINING + ["model.stage2.attn_ms",
                                       "tensor.roll.calls"],
    "infer-baseline": COMMON + ["model.stage2.attn_ms", "tensor.roll.calls"],
    "semi-loop": COMMON + TRAINING + SEMI_ONLY,
}
IDLE = {
    "train-full": SEMI_ONLY,
    "infer-baseline": TRAINING + SEMI_ONLY,
    "semi-loop": ["model.stage2.attn_ms"],
}


def _setup(name, tmp_path, ref=None):
    workload = WORKLOADS[name](0, tmp_path, ref)
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_covers_every_layer(name, tmp_path):
    plain = _setup(name, tmp_path).reference()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _setup(name, tmp_path).reference()
    finally:
        tracer.uninstall()
    # Bit-identical: the recorders only read the clock around each call.
    assert json.dumps(traced) == json.dumps(plain)
    values = per_layer(tracer.spans, 1, tracer.spans)
    assert set(values) == {n for n, _ in PER_LAYER}
    assert [m for m in BUSY[name] if not values[m] > 0] == []
    assert [m for m in IDLE[name] if values[m] != 0] == []


@pytest.mark.parametrize("name,field", [
    ("train-full", "losses"), ("infer-baseline", "max_probs"),
    ("semi-loop", "test_balanced_accuracy")])
def test_corrupted_reference_fails_the_workload(name, field, tmp_path,
                                                monkeypatch):
    good = bench.load_reference(name, 0)
    result, _ = bench._run(name, 0, 0.5, False, tmp_path, tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)

    # 100 times the check's tolerance, still far below any real change.
    bad = json.loads(json.dumps(good))
    if isinstance(bad[field], list):
        bad[field][0] *= 1.0 + 1e-4
    else:
        bad[field] += 1e-4
    monkeypatch.setattr(bench, "load_reference", lambda *_: bad)
    result, record = bench._run(name, 0, 0.5, False, tmp_path, tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["failed_frac"] > 0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER

