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
                        window_attention)
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

    x is [B,H,W,C]. Each candidate is one `WindowSpec`; with shift=True
    it takes its half-window cyclic shift (`WindowSpec.in_block`).
    `window_attention` attends equal windows once, skips those whose
    weight is zero for every sample, and shares the Q/K/V/output
    projections across windows. Hard selection takes its argmax over the
    candidate list first, so a one-hot choice reproduces single-window
    attention exactly.
    """
    _, h, w_sp, _ = x.data.shape
    specs = [WindowSpec.in_block(int(c), min(h, w_sp), shift)
             for c in candidates]
    weights = hard_selection(mixture) if hard else mixture
    return window_attention(x, params, cfg, specs, weights)
