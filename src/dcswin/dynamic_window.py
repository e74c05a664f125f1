"""Per-pixel window-scale prediction and mixture-weighted window attention.

A 1x1 convolution over the channels-first input image emits S per-pixel
scale logits; softmax turns them into scale probabilities [B,S,H,W]. Their
spatial mean is one per-sample mixture [B,S], a plain tensor shared by
every stage: each block mixes the outputs of windowed attention over its
channels-last [B,H,W,C] map at each candidate window size, weighted by
that mixture.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .attention import (AttentionConfig, AttentionParams, WindowSpec,
                        _mix_columns, window_attention)
from .errors import ConfigError, ShapeError
from .tensor import Tensor


def predict_scales(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Softmax over a 1x1-conv's channel axis: per-pixel scale
    probabilities [B,S,H,W], one channel per row of `w`."""
    return T.softmax(T.conv1x1(x, w, b), axis=1)


def pool_to_stage(probs: Tensor) -> Tensor:
    """Spatial mean of the probabilities, renormalized to a per-sample
    distribution [B,S].

    Box-averaging to any stage grid before the mean would change nothing
    (the mean of equal-size box means is the global mean), so every stage
    shares this one mixture.
    """
    m = T.reduce_mean(probs, axis=(2, 3))
    norm = T.reduce_sum(m, axis=1, keepdims=True)
    return T.div(m, T.broadcast_to(norm, m.shape))


def hard_selection(mixture: Tensor) -> Tensor:
    """One-hot argmax of the [B,S] mixture, detached (no gradient through
    the choice); ties break toward the smaller candidate index. The
    mixture is screened first: the argmax of a NaN row is a finite
    one-hot, so a deferred screen of the logits would miss it."""
    w = mixture.data
    T._screen(w, "hard selection mixture")
    hard = np.zeros_like(w)
    hard[np.arange(w.shape[0]), w.argmax(axis=1)] = 1.0
    return Tensor(hard)


def dynamic_window_attention(x: Tensor, mixture: Tensor,
                             candidates: Sequence[int], params: AttentionParams,
                             cfg: AttentionConfig, shift: bool = False,
                             hard: bool = False) -> Tensor:
    """Mixture-weighted sum of windowed attention at every candidate size.

    x is [B,H,W,C]. Q/K/V/output projections are shared across candidates,
    and q, k and v are projected once (`window_attention`); only the window
    geometry differs. Candidates with the same window and
    shift (e.g. several clipped to the stage side) are attended once, with
    their weight columns summed; hard selection takes its argmax over the
    original candidate list first. Windows whose weight is exactly zero for
    every sample are skipped, so a one-hot mixture reproduces single-window
    attention exactly. With shift=True each candidate uses its own
    half-window cyclic shift (suppressed when the window covers the map).
    """
    candidates = tuple(int(c) for c in candidates)
    weights = hard_selection(mixture) if hard else mixture
    b, h, w_sp, _ = x.data.shape
    if weights.data.shape != (b, len(candidates)):
        raise ShapeError(f"mixture shape {weights.data.shape} != "
                         f"({b}, {len(candidates)})")
    groups: dict[WindowSpec, list[int]] = {}
    for i, cand in enumerate(candidates):
        s = cand // 2 if (shift and cand < min(h, w_sp)) else 0
        groups.setdefault(WindowSpec(cand, s), []).append(i)
    cols = _mix_columns(weights.data, list(groups.values()))
    live = [(spec, idx) for (spec, idx), col in zip(groups.items(), cols)
            if not np.all(col == 0.0)]
    if not live:
        raise ConfigError("mixture assigns zero weight to every candidate")
    return window_attention(x, params, cfg, [spec for spec, _ in live],
                            weights, [idx for _, idx in live])
