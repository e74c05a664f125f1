"""Span tracer that wraps dcswin's public functions from outside the package.

`Tracer.install()` replaces each traced function with a recorder in every
`dcswin` module that holds a reference to it (so `from .tensor import
backward` in `trainer` is covered as well as `T.<op>` lookups), and wraps
the traced methods on their classes. `uninstall()` puts the originals back.
Nothing under `src/dcswin/` is edited.

A span is `[name, start, end, parent, iteration, info]`; spans stay in
memory until `write()` dumps them. Self time is a span's duration minus
the durations of its direct children (calls are single-threaded and
properly nested, so the children never overlap).
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from dcswin import (attention, data, diffusion, dynamic_window, metrics, model,
                    serialization, tensor, trainer)

# Public differentiable ops of `tensor`; `linear`, `layer_norm`,
# `log_softmax`, `mean_pool` and `avg_pool2d` call their siblings through
# module globals, so nested op calls are spans of their own.
TENSOR_OPS = (
    "add", "add_scalar", "sub", "neg", "mul", "div", "scale", "exp", "log",
    "sqrt", "tanh", "relu", "gelu", "broadcast_to", "reshape", "permute",
    "roll", "pad2d", "slice_nd", "concat", "reduce_sum", "reduce_mean",
    "mean_pool", "avg_pool2d", "matmul", "softmax", "log_softmax",
    "cross_entropy", "conv1x1", "linear", "layer_norm", "detach",
)

# Ops that get `.ms`/`.calls` metrics of their own; `tensor.op_calls`
# still counts every op above.
REPORTED_OPS = (
    "matmul", "linear", "layer_norm", "gelu", "softmax", "log_softmax",
    "cross_entropy", "add", "sub", "mul", "div", "scale", "add_scalar",
    "sqrt", "exp", "log", "broadcast_to", "reshape", "permute", "roll",
    "pad2d", "slice_nd", "reduce_sum", "reduce_mean", "mean_pool",
    "avg_pool2d", "conv1x1",
)

MAX_STAGES = 3


def _window_info(args, kwargs, result):
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return [spec.window, spec.shift]


def _pseudo_info(args, kwargs, result):
    dataset, unlabeled_ids = args[1], args[2]
    correct = np.sum(result.labels() == dataset.labels_for(result.ids()))
    return [len(result), len(unlabeled_ids), int(correct)]


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, function, span name[, info]): `info(args, kwargs, result)` is
# stored on the span.
_FUNCTIONS = (
    (tensor, "backward", "tensor.backward"),
    (attention, "windowed_mhsa", "attention.windowed_mhsa", _window_info),
    (attention, "cross_attention", "attention.cross_attention"),
    (attention, "attention_mask", "attention.attention_mask"),
    (attention, "window_partition", "attention.window_partition"),
    (attention, "window_reverse", "attention.window_reverse"),
    (attention, "map_to_tokens", "attention.map_to_tokens"),
    (attention, "tokens_to_map", "attention.tokens_to_map"),
    (attention, "mhsa", "attention.mhsa"),
    (dynamic_window, "dynamic_window_attention",
     "dynamic_window.dynamic_window_attention"),
    (dynamic_window, "predict_scales", "dynamic_window.predict_scales"),
    (dynamic_window, "pool_to_stage", "dynamic_window.pool_to_stage"),
    (trainer, "train", "trainer.train"),
    (trainer, "generate_pseudo_labels", "trainer.generate_pseudo_labels",
     _pseudo_info),
    (trainer, "run_experiment", "trainer.run_experiment"),
    (trainer, "predict_probs", "trainer.predict_probs"),
    (trainer, "evaluate_model", "trainer.evaluate_model"),
    (diffusion, "forward_diffuse", "diffusion.forward_diffuse"),
    (diffusion, "consistency_loss", "diffusion.consistency_loss"),
    (data, "synth_generate", "data.synth_generate"),
    (serialization, "save_checkpoint", "serialization.save_checkpoint",
     _file_size),
    (serialization, "load_checkpoint", "serialization.load_checkpoint"),
    (metrics, "evaluate_predictions", "metrics.evaluate_predictions"),
)

_METHODS = (
    (model.DCSWin, "zero_grad", "model.zero_grad"),
    (model.PatchEmbed, "__call__", "model.patch_embed"),
    (model.PatchMerge, "__call__", "model.merge"),
    (model.CrossScaleFuse, "__call__", "model.fuse"),
    (model.Mlp, "__call__", "model.mlp"),
    (model.LayerNorm, "__call__", "model.norm"),
    (model.Linear, "__call__", "model.linear"),
    (trainer.Adam, "step", "trainer.optimizer_step"),
    (trainer.SGD, "step", "trainer.optimizer_step"),
    (data.ArrayDataset, "batch", "data.batch"),
    (data.ArrayDataset, "from_manifest", "data.from_manifest"),
)


def _dcswin_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "dcswin" or name.startswith("dcswin."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._stage_of_side: dict[int, int] = {}

    # ---- recording ---------------------------------------------------------
    def _wrap(self, fn, name, info=None):
        """`name` is a string, or a callable of the call's args giving it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def recorder(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    self.iteration, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return recorder

    def _patch_function(self, module, attr, name, info=None):
        original = getattr(module, attr)
        recorder = self._wrap(original, name, info)
        for mod in _dcswin_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, recorder)

    def _patch_method(self, cls, attr, name, info=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            recorder = classmethod(self._wrap(original.__func__, name, info))
        else:
            recorder = self._wrap(original, name, info)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, recorder)

    def _forward_name(self, args):
        cfg = args[0].cfg
        self._stage_of_side = {cfg.stage_side(i): i
                               for i in range(cfg.num_stages)}
        return "model.forward"

    def _block_name(self, args):
        return f"model.stage{self._stage_of_side.get(args[0].side, -1)}.block"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for op in TENSOR_OPS:
            self._patch_function(tensor, op, f"tensor.{op}")
        for module, attr, name, *info in _FUNCTIONS:
            self._patch_function(module, attr, name, *info)
        for cls, attr, name in _METHODS:
            self._patch_method(cls, attr, name)
        self._patch_method(model.DCSWin, "forward", self._forward_name)
        self._patch_method(model.Block, "__call__", self._block_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent, it, info) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "iteration": it, "info": info}) + "\n")


# ---- per-layer metrics ------------------------------------------------------

def _per_layer_names() -> list[tuple[str, str]]:
    names = [("tensor.backward_ms", "ms"), ("tensor.tape_entries", "count"),
             ("tensor.op_calls", "count")]
    for op in REPORTED_OPS:
        names += [(f"tensor.{op}.ms", "ms"), (f"tensor.{op}.calls", "count")]
    names += [
        ("attention.windowed_mhsa.ms", "ms"),
        ("attention.windowed_mhsa.calls", "count"),
        ("attention.cross_attention.ms", "ms"),
        ("attention.attention_mask.ms", "ms"),
        ("attention.attention_mask.calls", "count"),
        ("attention.window_partition.ms", "ms"),
        ("attention.window_reverse.ms", "ms"),
        ("attention.layout.ms", "ms"),
        ("attention.layout.calls", "count"),
        ("attention.self_ms", "ms"),
        ("dynamic_window.dynamic_window_attention.ms", "ms"),
        ("dynamic_window.branches", "count"),
        ("dynamic_window.distinct_windows", "count"),
        ("dynamic_window.useful_branch_ratio", "ratio"),
        ("dynamic_window.predict_scales.ms", "ms"),
        ("dynamic_window.pool_to_stage.ms", "ms"),
        ("dynamic_window.self_ms", "ms"),
        ("model.forward.ms", "ms"),
        ("model.patch_embed.ms", "ms"),
    ]
    for i in range(MAX_STAGES):
        names += [(f"model.stage{i}.{part}_ms", "ms")
                  for part in ("attn", "mlp", "norm")]
    names += [
        ("model.fuse.ms", "ms"),
        ("model.merge.ms", "ms"),
        ("model.head.ms", "ms"),
        ("model.zero_grad.ms", "ms"),
        ("model.self_ms", "ms"),
        ("trainer.optimizer_step.ms", "ms"),
        ("trainer.data_wait_ms", "ms"),
        ("trainer.generate_pseudo_labels.ms", "ms"),
        ("trainer.pseudo_yield", "ratio"),
        ("trainer.pseudo_precision", "ratio"),
        ("trainer.evaluate_model.ms", "ms"),
        ("trainer.self_ms", "ms"),
        ("diffusion.forward_diffuse.ms", "ms"),
        ("diffusion.forward_diffuse.calls", "count"),
        ("diffusion.consistency_loss.ms", "ms"),
        ("diffusion.self_ms", "ms"),
        ("data.synth_generate.ms", "ms"),
        ("data.from_manifest.ms", "ms"),
        ("data.batch.ms", "ms"),
        ("data.batch.calls", "count"),
        ("serialization.save_checkpoint.ms", "ms"),
        ("serialization.save_checkpoint.calls", "count"),
        ("serialization.load_checkpoint.ms", "ms"),
        ("serialization.checkpoint_bytes", "bytes"),
        ("metrics.evaluate_predictions.ms", "ms"),
        ("bench.tracing_overhead", "ratio"),
    ]
    return names


PER_LAYER = _per_layer_names()

# Metrics whose time includes the traced calls they make; every other
# `.ms` / `_ms` time is self time.
INCLUSIVE = ("dynamic_window.dynamic_window_attention.ms", "model.forward.ms",
             "model.patch_embed.ms", "model.fuse.ms", "model.merge.ms",
             "model.head.ms", "diffusion.consistency_loss.ms") + tuple(
    f"model.stage{i}.{part}_ms" for i in range(MAX_STAGES)
    for part in ("attn", "mlp", "norm"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[list], iterations: int,
              setup_spans: list[list]) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of the measured phase.

    Times and call counts are divided by `iterations` (steps or requests).
    `data.synth_generate.ms` and `data.from_manifest.ms` come from the
    set-up spans and are per call. `tensor.tape_entries` and
    `bench.tracing_overhead` are measured by the caller and left at 0.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_by_name: dict[str, float] = defaultdict(float)
    incl_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    stage_part: dict[str, float] = defaultdict(float)
    windows_by_parent: dict[int, set] = defaultdict(set)
    branches = data_wait = head = 0.0
    pseudo = [0, 0, 0]
    ckpt_bytes = []
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        own = dur[i] - child[i]
        self_by_name[name] += own
        incl_by_name[name] += dur[i]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        pname = spans[parent][0] if parent >= 0 else ""
        if pname.endswith(".block"):
            stage = pname[len("model."):-len(".block")]
            if name in ("dynamic_window.dynamic_window_attention",
                        "attention.windowed_mhsa"):
                stage_part[f"{stage}.attn_ms"] += dur[i]
            elif name == "model.mlp":
                stage_part[f"{stage}.mlp_ms"] += dur[i]
            elif name == "model.norm":
                stage_part[f"{stage}.norm_ms"] += dur[i]
        if name == "attention.windowed_mhsa" and \
                pname == "dynamic_window.dynamic_window_attention":
            branches += 1
            windows_by_parent[parent].add(tuple(s[5]))
        elif name in ("data.batch", "diffusion.forward_diffuse") and \
                pname == "trainer.train":
            data_wait += dur[i]
        elif name == "model.linear" and pname == "model.forward":
            head += dur[i]
        elif name == "trainer.generate_pseudo_labels":
            pseudo = [a + b for a, b in zip(pseudo, s[5])]
        elif name == "serialization.save_checkpoint":
            ckpt_bytes.append(s[5])

    n = max(iterations, 1)

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / n

    out = {name: 0.0 for name, _ in PER_LAYER}
    out["tensor.backward_ms"] = ms(self_by_name["tensor.backward"])
    out["tensor.op_calls"] = sum(calls[f"tensor.{op}"]
                                 for op in TENSOR_OPS) / n
    for op in REPORTED_OPS:
        out[f"tensor.{op}.ms"] = ms(self_by_name[f"tensor.{op}"])
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / n
    for fn in ("windowed_mhsa", "cross_attention", "attention_mask",
               "window_partition", "window_reverse"):
        out[f"attention.{fn}.ms"] = ms(self_by_name[f"attention.{fn}"])
    for fn in ("windowed_mhsa", "attention_mask"):
        out[f"attention.{fn}.calls"] = calls[f"attention.{fn}"] / n
    layout = ("attention.map_to_tokens", "attention.tokens_to_map")
    out["attention.layout.ms"] = ms(sum(self_by_name[k] for k in layout))
    out["attention.layout.calls"] = sum(calls[k] for k in layout) / n
    distinct = sum(len(v) for v in windows_by_parent.values())
    out["dynamic_window.dynamic_window_attention.ms"] = ms(
        incl_by_name["dynamic_window.dynamic_window_attention"])
    out["dynamic_window.branches"] = branches / n
    out["dynamic_window.distinct_windows"] = distinct / n
    out["dynamic_window.useful_branch_ratio"] = _ratio(distinct, branches)
    for fn in ("predict_scales", "pool_to_stage"):
        out[f"dynamic_window.{fn}.ms"] = ms(
            self_by_name[f"dynamic_window.{fn}"])
    for part in ("forward", "patch_embed", "fuse", "merge"):
        out[f"model.{part}.ms"] = ms(incl_by_name[f"model.{part}"])
    for key, seconds in stage_part.items():
        out[f"model.{key}"] = ms(seconds)
    out["model.head.ms"] = ms(head)
    out["model.zero_grad.ms"] = ms(self_by_name["model.zero_grad"])
    for fn in ("optimizer_step", "generate_pseudo_labels", "evaluate_model"):
        out[f"trainer.{fn}.ms"] = ms(self_by_name[f"trainer.{fn}"])
    out["trainer.data_wait_ms"] = ms(data_wait)
    out["trainer.pseudo_yield"] = _ratio(pseudo[0], pseudo[1])
    out["trainer.pseudo_precision"] = _ratio(pseudo[2], pseudo[0])
    out["diffusion.forward_diffuse.ms"] = ms(
        self_by_name["diffusion.forward_diffuse"])
    out["diffusion.forward_diffuse.calls"] = \
        calls["diffusion.forward_diffuse"] / n
    out["diffusion.consistency_loss.ms"] = ms(
        incl_by_name["diffusion.consistency_loss"])
    setup_n = defaultdict(int)
    setup_t = defaultdict(float)
    for s in setup_spans:
        setup_n[s[0]] += 1
        setup_t[s[0]] += s[2] - s[1]
    for fn in ("synth_generate", "from_manifest"):
        out[f"data.{fn}.ms"] = 1000.0 * _ratio(setup_t[f"data.{fn}"],
                                               setup_n[f"data.{fn}"])
    out["data.batch.ms"] = ms(self_by_name["data.batch"])
    out["data.batch.calls"] = calls["data.batch"] / n
    for fn in ("save_checkpoint", "load_checkpoint"):
        out[f"serialization.{fn}.ms"] = ms(self_by_name[f"serialization.{fn}"])
    out["serialization.save_checkpoint.calls"] = \
        calls["serialization.save_checkpoint"] / n
    out["serialization.checkpoint_bytes"] = _ratio(sum(ckpt_bytes),
                                                   len(ckpt_bytes))
    out["metrics.evaluate_predictions.ms"] = ms(
        self_by_name["metrics.evaluate_predictions"])
    for layer in ("attention", "dynamic_window", "model", "trainer",
                  "diffusion"):
        out[f"{layer}.self_ms"] = ms(layer_self[layer])
    return out
