"""Per-pixel window-scale prediction and mixture-weighted window attention.

A 1x1 convolution over the channels-first input image emits S per-pixel
scale logits; softmax turns them into a scale probability field [B,S,H,W].
Its spatial mean is one per-sample mixture, shared by every stage: each
block mixes the outputs of windowed attention over its channels-last
[B,H,W,C] map at each candidate window size, weighted by that mixture.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, AttentionParams, WindowSpec, windowed_mhsa
from .errors import ConfigError, ShapeError
from .tensor import Tensor

_SUM_TOL = 1e-6


@dataclass
class ScaleField:
    """Per-pixel distribution over candidate window scales: [B, S, H, W]."""
    probs: Tensor
    candidates: tuple[int, ...]

    def __post_init__(self):
        self.candidates = tuple(int(c) for c in self.candidates)
        p = self.probs.data
        if p.ndim != 4:
            raise ShapeError(f"scale field must be [B,S,H,W], got {p.shape}")
        s = p.shape[1]
        if s != len(self.candidates):
            raise ConfigError(f"{s} probability channels but "
                              f"{len(self.candidates)} candidates")
        if s < 2:
            raise ConfigError(f"need at least 2 scale candidates, got {s}")
        if any(c < 1 for c in self.candidates):
            raise ConfigError(f"candidate windows must be >= 1: {self.candidates}")
        side = min(p.shape[2], p.shape[3])
        if any(c > side for c in self.candidates):
            raise ConfigError(f"candidates {self.candidates} exceed field side "
                              f"{side}")
        if np.any(p < 0) or np.max(np.abs(p.sum(axis=1) - 1.0)) > _SUM_TOL:
            raise ConfigError("scale field rows must be a distribution "
                              "(nonnegative, summing to 1 per pixel)")


@dataclass
class StageMixture:
    """Per-sample distribution over candidates for one stage: [B, S]."""
    weights: Tensor

    def __post_init__(self):
        w = self.weights.data
        if w.ndim != 2:
            raise ShapeError(f"stage mixture must be [B,S], got {w.shape}")
        if np.any(w < 0) or np.max(np.abs(w.sum(axis=1) - 1.0)) > _SUM_TOL:
            raise ConfigError("stage mixture rows must sum to 1 and be "
                              "nonnegative")


def predict_scales(x: Tensor, w: Tensor, b: Tensor,
                   candidates: Sequence[int]) -> ScaleField:
    """Softmax over a 1x1-conv's channel axis gives the per-pixel field."""
    if len(candidates) < 2:
        raise ConfigError(f"need at least 2 candidates, got {list(candidates)}")
    if w.data.shape[0] != len(candidates):
        raise ConfigError(f"predictor emits {w.data.shape[0]} channels but "
                          f"{len(candidates)} candidates given")
    logits = T.conv1x1(x, w, b)
    return ScaleField(T.softmax(logits, axis=1), tuple(candidates))


def pool_to_stage(field: ScaleField) -> StageMixture:
    """Spatial mean of the field, renormalized to a per-sample distribution.

    Box-averaging to any stage grid before the mean would change nothing
    (the mean of equal-size box means is the global mean), so every stage
    shares this one mixture.
    """
    m = T.reduce_mean(field.probs, axis=(2, 3))
    norm = T.reduce_sum(m, axis=1, keepdims=True)
    return StageMixture(T.div(m, T.broadcast_to(norm, m.shape)))


def _mixture_weights(mixture: Union[StageMixture, Tensor]) -> Tensor:
    return mixture.weights if isinstance(mixture, StageMixture) else mixture


def hard_selection(mixture: Union[StageMixture, Tensor]) -> Tensor:
    """One-hot argmax of the mixture, detached (no gradient through the
    choice); ties break toward the smaller candidate index."""
    w = _mixture_weights(mixture).data
    hard = np.zeros_like(w)
    hard[np.arange(w.shape[0]), w.argmax(axis=1)] = 1.0
    return Tensor(hard)


def dynamic_window_attention(x: Tensor, mixture: Union[StageMixture, Tensor],
                             candidates: Sequence[int], params: AttentionParams,
                             cfg: AttentionConfig, shift: bool = False,
                             hard: bool = False) -> Tensor:
    """Mixture-weighted sum of windowed attention at every candidate size.

    x is [B,H,W,C]. Q/K/V/output projections are shared across candidates;
    only the window geometry differs. Candidates with the same window and
    shift (e.g. several clipped to the stage side) are attended once, with
    their weight columns summed; hard selection takes its argmax over the
    original candidate list first. Windows whose weight is exactly zero for
    every sample are skipped, so a one-hot mixture reproduces single-window
    attention exactly. With shift=True each candidate uses its own
    half-window cyclic shift (suppressed when the window covers the map).
    """
    candidates = tuple(int(c) for c in candidates)
    weights = _mixture_weights(mixture)
    if hard:
        weights = hard_selection(weights)
    b, h, w_sp, _ = x.data.shape
    if weights.data.shape != (b, len(candidates)):
        raise ShapeError(f"mixture shape {weights.data.shape} != "
                         f"({b}, {len(candidates)})")
    columns: dict[WindowSpec, Tensor] = {}
    for i, cand in enumerate(candidates):
        s = cand // 2 if (shift and cand < min(h, w_sp)) else 0
        spec = WindowSpec(cand, s)
        col = T.slice_nd(weights, (slice(None), slice(i, i + 1)))
        columns[spec] = T.add(columns[spec], col) if spec in columns else col
    out: Optional[Tensor] = None
    for spec, col in columns.items():
        if np.all(col.data == 0.0):
            continue
        branch = windowed_mhsa(x, params, cfg, spec)
        wmap = T.broadcast_to(T.reshape(col, (b, 1, 1, 1)), branch.shape)
        term = T.mul(branch, wmap)
        out = term if out is None else T.add(out, term)
    if out is None:
        raise ConfigError("mixture assigns zero weight to every candidate")
    return out
