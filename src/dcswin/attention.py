"""Windowed multi-head self-attention and cross-feature attention.

Feature maps are channels-last [B, H, W, C]. `window_partition` tiles the
(optionally cyclically shifted and zero-padded) map into non-overlapping
w x w windows over axes 1-2 and returns tokens [B*nW, w*w, C];
`window_reverse` is its exact inverse.
Disallowed token pairs (across the wrap-around seam created by the shift,
or involving padding) are suppressed with an additive -1e9 before softmax.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

MASK_VALUE = -1e9


@dataclass(frozen=True)
class AttentionConfig:
    """Channel width and head count; width must split evenly across heads."""
    dim: int
    num_heads: int

    def __post_init__(self):
        if self.dim < 1 or self.num_heads < 1:
            raise ConfigError(f"attention dims must be positive, got dim={self.dim} "
                              f"heads={self.num_heads}")
        if self.dim % self.num_heads:
            raise ConfigError(f"dim {self.dim} not divisible by "
                              f"{self.num_heads} heads")

    @property
    def head_dim(self) -> int:
        return self.dim // self.num_heads


@dataclass(frozen=True)
class WindowSpec:
    """Window side and cyclic shift; shift must lie in [0, window)."""
    window: int
    shift: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not (0 <= self.shift < self.window):
            raise ConfigError(f"shift {self.shift} outside [0, {self.window})")


@dataclass
class AttentionParams:
    """Learned Q/K/V/output projections (weights [C,C], biases [C])."""
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor

    @classmethod
    def init(cls, cfg: AttentionConfig, rng: np.random.Generator,
             zero_out: bool = True) -> "AttentionParams":
        """Truncated-normal projections; the output projection starts at zero
        so residual branches are identities at initialization."""
        c = cfg.dim

        def w():
            return T.trunc_normal((c, c), rng, std=0.02, requires_grad=True)

        wo = T.zeros((c, c), requires_grad=True) if zero_out \
            else T.trunc_normal((c, c), rng, std=0.02, requires_grad=True)
        return cls(wq=w(), bq=T.zeros((c,), requires_grad=True),
                   wk=w(), bk=T.zeros((c,), requires_grad=True),
                   wv=w(), bv=T.zeros((c,), requires_grad=True),
                   wo=wo, bo=T.zeros((c,), requires_grad=True))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.wq": self.wq, f"{prefix}.bq": self.bq,
                f"{prefix}.wk": self.wk, f"{prefix}.bk": self.bk,
                f"{prefix}.wv": self.wv, f"{prefix}.bv": self.bv,
                f"{prefix}.wo": self.wo, f"{prefix}.bo": self.bo}


@dataclass(frozen=True)
class PartitionInfo:
    """Bookkeeping needed to invert a window partition."""
    batch: int
    channels: int
    height: int
    width: int
    pad_h: int
    pad_w: int
    grid_h: int
    grid_w: int
    spec: WindowSpec

    @property
    def padded_h(self) -> int:
        return self.height + self.pad_h

    @property
    def padded_w(self) -> int:
        return self.width + self.pad_w

    @property
    def num_windows(self) -> int:
        return self.grid_h * self.grid_w


def window_partition(x: Tensor, spec: WindowSpec) -> tuple[Tensor, PartitionInfo]:
    """Tile [B,H,W,C] into [B*nW, w*w, C] tokens (pad, then shift, then cut).

    Windows are laid out batch-major, then row-major over the window grid;
    tokens inside a window are row-major.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"window_partition expects [B,H,W,C], got {x.shape}")
    b, h, w_in, c = x.data.shape
    w = spec.window
    if w > h or w > w_in:
        raise ConfigError(f"window {w} exceeds feature map side ({h},{w_in}); "
                          "clip candidates to the stage side")
    pad_h = (-h) % w
    pad_w = (-w_in) % w
    t = x
    if pad_h or pad_w:
        t = T.pad2d(t, pad_h, pad_w)
    if spec.shift:
        t = T.roll(t, (-spec.shift, -spec.shift), (1, 2))
    gh, gw = (h + pad_h) // w, (w_in + pad_w) // w
    t = T.reshape(t, (b, gh, w, gw, w, c))
    t = T.permute(t, (0, 1, 3, 2, 4, 5))
    t = T.reshape(t, (b * gh * gw, w * w, c))
    return t, PartitionInfo(b, c, h, w_in, pad_h, pad_w, gh, gw, spec)


def window_reverse(windows: Tensor, info: PartitionInfo) -> Tensor:
    """Exact inverse of `window_partition` (un-tile, un-shift, strip pad)."""
    b, c = info.batch, info.channels
    w = info.spec.window
    expect = (b * info.num_windows, w * w, c)
    if windows.data.shape != expect:
        raise ShapeError(f"window_reverse: got {windows.data.shape}, "
                         f"partition info implies {expect}")
    t = T.reshape(windows, (b, info.grid_h, info.grid_w, w, w, c))
    t = T.permute(t, (0, 1, 3, 2, 4, 5))
    t = T.reshape(t, (b, info.padded_h, info.padded_w, c))
    if info.spec.shift:
        t = T.roll(t, (info.spec.shift, info.spec.shift), (1, 2))
    if info.pad_h or info.pad_w:
        t = T.slice_nd(t, (slice(None), slice(0, info.height),
                           slice(0, info.width)))
    return t


def _axis_regions(size: int, window: int, shift: int) -> np.ndarray:
    """Post-shift region ids along one axis: content that wrapped across the
    edge gets a different id from content that merely slid."""
    ids = np.zeros(size, dtype=np.int64)
    ids[size - window:size - shift] = 1
    ids[size - shift:] = 2
    return ids


def attention_mask(info: PartitionInfo) -> Optional[np.ndarray]:
    """Additive mask [nW, L, L] (0 allowed, -1e9 blocked), or None if every
    pair is allowed. Blocks pairs across the cyclic wrap seam and pairs
    involving zero-padding.

    The mask depends only on the geometry, not on batch or channels, so it
    is built once per geometry and shared: the array is read-only.
    """
    return _geometry_mask(info.height, info.width, info.pad_h, info.pad_w,
                          info.grid_h, info.grid_w, info.spec)


@lru_cache(maxsize=64)
def _geometry_mask(height: int, width: int, pad_h: int, pad_w: int,
                   gh: int, gw: int, spec: WindowSpec) -> Optional[np.ndarray]:
    if spec.shift == 0 and pad_h == 0 and pad_w == 0:
        return None
    hp, wp = height + pad_h, width + pad_w
    if spec.shift:
        ry = _axis_regions(hp, spec.window, spec.shift)
        rx = _axis_regions(wp, spec.window, spec.shift)
        region = ry[:, None] * 3 + rx[None, :]
    else:
        region = np.zeros((hp, wp), dtype=np.int64)
    valid = np.zeros((hp, wp), dtype=bool)
    valid[:height, :width] = True
    if spec.shift:
        # padding is appended pre-shift, so the validity map shifts with x
        valid = np.roll(valid, (-spec.shift, -spec.shift), axis=(0, 1))

    w = spec.window
    region_w = region.reshape(gh, w, gw, w).transpose(0, 2, 1, 3).reshape(-1, w * w)
    valid_w = valid.reshape(gh, w, gw, w).transpose(0, 2, 1, 3).reshape(-1, w * w)
    same = region_w[:, :, None] == region_w[:, None, :]
    ok = same & valid_w[:, :, None] & valid_w[:, None, :]
    mask = np.where(ok, 0.0, MASK_VALUE)
    mask.flags.writeable = False
    return mask


def _project_heads(tokens: Tensor, w: Tensor, b: Tensor,
                   cfg: AttentionConfig) -> Tensor:
    nb, length, _ = tokens.data.shape
    p = T.linear(tokens, w, b)
    p = T.reshape(p, (nb, length, cfg.num_heads, cfg.head_dim))
    return T.permute(p, (0, 2, 1, 3))


def _attend(q_src: Tensor, kv_src: Tensor, params: AttentionParams,
            cfg: AttentionConfig, mask: Optional[np.ndarray] = None,
            return_weights: bool = False):
    nb, lq, c = q_src.data.shape
    lk = kv_src.data.shape[1]
    if c != cfg.dim or kv_src.data.shape[2] != cfg.dim:
        raise ShapeError(f"attention: token dim {c}/{kv_src.data.shape[2]} "
                         f"!= configured {cfg.dim}")
    q = _project_heads(q_src, params.wq, params.bq, cfg)
    k = _project_heads(kv_src, params.wk, params.bk, cfg)
    v = _project_heads(kv_src, params.wv, params.bv, cfg)
    logits = T.scale(T.matmul(q, T.permute(k, (0, 1, 3, 2))),
                     1.0 / np.sqrt(cfg.head_dim))
    if mask is None:
        weights = T.softmax(logits, axis=-1)
    else:
        m = np.asarray(mask, dtype=np.float64)
        if m.ndim == 2:
            m = m[None]
        if m.ndim != 3 or nb % m.shape[0]:
            raise ShapeError(f"mask of shape {m.shape} does not tile "
                             f"{nb} windows")
        # windows are batch-major, so the nW window masks repeat per image
        per_image = T.reshape(logits, (nb // m.shape[0], m.shape[0])
                              + logits.shape[1:])
        weights = T.reshape(T.softmax(per_image, axis=-1, mask=m[:, None]),
                            logits.shape)
    ctx = T.matmul(weights, v)
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (nb, lq, c))
    out = T.linear(ctx, params.wo, params.bo)
    return (out, weights) if return_weights else out


def mhsa(tokens: Tensor, params: AttentionParams, cfg: AttentionConfig,
         mask: Optional[np.ndarray] = None, return_weights: bool = False):
    """Multi-head self-attention over [N, L, C] token batches."""
    if tokens.data.ndim != 3:
        raise ShapeError(f"mhsa expects [N,L,C] tokens, got {tokens.shape}")
    return _attend(tokens, tokens, params, cfg, mask, return_weights)


def windowed_mhsa(x: Tensor, params: AttentionParams, cfg: AttentionConfig,
                  spec: WindowSpec, return_weights: bool = False):
    """Partition -> masked self-attention per window -> reverse."""
    tokens, info = window_partition(x, spec)
    out = mhsa(tokens, params, cfg, attention_mask(info), return_weights)
    if return_weights:
        out, weights = out
        return window_reverse(out, info), weights, info
    return window_reverse(out, info)


# Channels-first helpers. The model keeps its maps channels-last and never
# calls them; perfbench's tracer still wraps both by name.

def map_to_tokens(x: Tensor) -> Tensor:
    """Channels-first [B,C,H,W] -> [B, H*W, C] (row-major positions)."""
    b, c, h, w = x.data.shape
    return T.permute(T.reshape(x, (b, c, h * w)), (0, 2, 1))


def tokens_to_map(t: Tensor, h: int, w: int) -> Tensor:
    """[B, H*W, C] -> channels-first [B,C,H,W]; inverse of `map_to_tokens`."""
    b, length, c = t.data.shape
    if length != h * w:
        raise ShapeError(f"tokens_to_map: {length} tokens != {h}x{w}")
    return T.reshape(T.permute(t, (0, 2, 1)), (b, c, h, w))


def cross_attention(current: Tensor, prev: Tensor, params: AttentionParams,
                    cfg: AttentionConfig, residual: bool = True,
                    return_weights: bool = False):
    """Attend from `current` (queries) into `prev` (keys/values).

    Both are [B,H,W,C] with equal B and C; spatial sizes may differ. The
    attended result is added back onto `current` unless residual=False.
    """
    for name, t in (("current", current), ("prev", prev)):
        if t.data.ndim != 4:
            raise ShapeError(f"cross_attention: {name} must be [B,H,W,C], "
                             f"got {t.shape}")
    if current.data.shape[0] != prev.data.shape[0]:
        raise ShapeError(f"cross_attention: batch mismatch "
                         f"{current.data.shape[0]} vs {prev.data.shape[0]}")
    if current.data.shape[3] != prev.data.shape[3]:
        raise ShapeError(f"cross_attention: channel mismatch {current.data.shape} "
                         f"vs {prev.data.shape}; align prev first")
    b, h, w, c = current.data.shape
    _, hp, wp, _ = prev.data.shape
    att = _attend(T.reshape(current, (b, h * w, c)),
                  T.reshape(prev, (b, hp * wp, c)), params, cfg,
                  return_weights=return_weights)
    if return_weights:
        att, weights = att
    att = T.reshape(att, current.data.shape)
    out = T.add(current, att) if residual else att
    return (out, weights) if return_weights else out
