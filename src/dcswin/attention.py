"""Windowed multi-head self-attention and cross-feature attention.

Feature maps are channels-last [B, H, W, C]. `window_partition` tiles the
(optionally cyclically shifted and zero-padded) map into non-overlapping
w x w windows over axes 1-2 and returns tokens [B*nW, w*w, C];
`window_reverse` is its exact inverse.
Disallowed token pairs (across the wrap-around seam created by the shift,
or involving padding) are suppressed with an additive -1e9 before softmax.

A block's window attention, at one window or mixed over several, is one
op, `window_attention`: it projects q, k and v once on the map and cuts
each window's rows out of them by a cached index instead of partitioning
the map with `pad2d`, `roll`, `reshape` and `permute`. The mask comes from
the same index: `_window_rows` works out a window's pad, shift and
partition once and derives both from those coordinates. A block's ln1
is part of the op as well. `mhsa`, `window_partition` and
`window_reverse` remain as that op's reference chain.

`cross_attention`, the cross-scale fusion's attention with its residual
add, is one op too, so the model no longer calls `_attend` or
`tensor.multihead_attention`; perfbench's tracer still wraps `mhsa`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

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

    @classmethod
    def in_block(cls, window: int, side: int, shifted: bool) -> "WindowSpec":
        """A `window` in a block over a map of `side`: a shifted block
        shifts by half a window, unless the window covers the map."""
        return cls(window, window // 2 if shifted and window < side else 0)


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
    def init(cls, cfg: AttentionConfig,
             rng: np.random.Generator) -> "AttentionParams":
        """Truncated-normal projections; the output projection starts at zero
        so residual branches are identities at initialization."""
        c = cfg.dim

        def w():
            return T.trunc_normal((c, c), rng, std=0.02, requires_grad=True)

        return cls(wq=w(), bq=T.zeros((c,), requires_grad=True),
                   wk=w(), bk=T.zeros((c,), requires_grad=True),
                   wv=w(), bv=T.zeros((c,), requires_grad=True),
                   wo=T.zeros((c, c), requires_grad=True),
                   bo=T.zeros((c,), requires_grad=True))

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
    info = _partition_info(x.data.shape, spec)
    b, c, w = info.batch, info.channels, spec.window
    t = x
    if info.pad_h or info.pad_w:
        t = T.pad2d(t, info.pad_h, info.pad_w)
    if spec.shift:
        t = T.roll(t, (-spec.shift, -spec.shift), (1, 2))
    t = T.reshape(t, (b, info.grid_h, w, info.grid_w, w, c))
    t = T.permute(t, (0, 1, 3, 2, 4, 5))
    t = T.reshape(t, (b * info.num_windows, w * w, c))
    return t, info


def _partition_info(shape: tuple[int, ...], spec: WindowSpec) -> PartitionInfo:
    """The geometry of the windows `spec` cuts from a [B,H,W,C] map."""
    if len(shape) != 4:
        raise ShapeError(f"window partition expects [B,H,W,C], got {shape}")
    b, h, w_in, c = shape
    w = spec.window
    if w > h or w > w_in:
        raise ConfigError(f"window {w} exceeds feature map side ({h},{w_in}); "
                          "clip candidates to the stage side")
    pad_h, pad_w = (-h) % w, (-w_in) % w
    return PartitionInfo(b, c, h, w_in, pad_h, pad_w, (h + pad_h) // w,
                         (w_in + pad_w) // w, spec)


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


def attention_mask(info: PartitionInfo) -> Optional[np.ndarray]:
    """Additive mask [nW, L, L] (0 allowed, -1e9 blocked), or None if every
    pair is allowed. Blocks pairs across the cyclic wrap seam and pairs
    involving zero-padding.

    The mask depends only on the geometry, not on batch or channels, so it
    is built once per geometry, by `_window_rows`, and shared: the array is
    read-only.
    """
    return _window_rows(info.height, info.width, info.spec)[3]


def _attend(q_src: Tensor, kv_src: Tensor, params: AttentionParams,
            cfg: AttentionConfig, mask: Optional[np.ndarray] = None) -> Tensor:
    c = q_src.data.shape[2]
    if c != cfg.dim or kv_src.data.shape[2] != cfg.dim:
        raise ShapeError(f"attention: token dim {c}/{kv_src.data.shape[2]} "
                         f"!= configured {cfg.dim}")
    q = T.linear(q_src, params.wq, params.bq)
    k = T.linear(kv_src, params.wk, params.bk)
    v = T.linear(kv_src, params.wv, params.bv)
    ctx = T.multihead_attention(q, k, v, cfg.num_heads, mask)
    return T.linear(ctx, params.wo, params.bo)


def mhsa(tokens: Tensor, params: AttentionParams, cfg: AttentionConfig,
         mask: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head self-attention over [N, L, C] token batches."""
    if tokens.data.ndim != 3:
        raise ShapeError(f"mhsa expects [N,L,C] tokens, got {tokens.shape}")
    return _attend(tokens, tokens, params, cfg, mask)


def windowed_mhsa(x: Tensor, params: AttentionParams, cfg: AttentionConfig,
                  spec: WindowSpec,
                  norm: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Partition -> masked self-attention per window -> reverse, as one
    `window_attention` op, of `x` or of its layer norm under `norm`'s
    (gamma, beta)."""
    return window_attention(x, params, cfg, (spec,), norm=norm)


@lru_cache(maxsize=64)
def _window_rows(height: int, width: int, spec: WindowSpec
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                            Optional[np.ndarray]]:
    """One window geometry: the row indices between one image's [H*W, C]
    rows of a map and the [nW*L, C] rows of the tokens `window_partition`
    cuts from it, and the mask those tokens attend under. That is, per
    token row the map row it copies (0 for padding), the token rows that
    are padding, per map row the token row that holds it, and the additive
    [nW, L, L] `attention_mask` (None without shift or padding). Every
    image of a batch uses the same, so they are read-only and shared."""
    w, s = spec.window, spec.shift
    hp, wp = height + (-height) % w, width + (-width) % w
    py = np.arange(hp).reshape(hp // w, 1, w, 1)
    px = np.arange(wp).reshape(1, wp // w, 1, w)
    # the padded map is rolled back by the shift before it is cut
    ys, xs = (py + s) % hp, (px + s) % wp
    valid = (ys < height) & (xs < width)
    rows = np.where(valid, ys * width + xs, 0).reshape(-1)
    valid = valid.reshape(-1, w * w)
    mask = None
    if s or hp != height or wp != width:
        # after the roll each axis holds the content that slid (0), the
        # last window's content that did not wrap (1) and the content that
        # wrapped round (2); a pair attends within one region, both real
        ry = (py >= hp - w) * 1 + (py >= hp - s) if s else 0 * py
        rx = (px >= wp - w) * 1 + (px >= wp - s) if s else 0 * px
        region = (ry * 3 + rx).reshape(-1, w * w)
        ok = (region[:, :, None] == region[:, None, :]) \
            & valid[:, :, None] & valid[:, None, :]
        mask = np.where(ok, 0.0, MASK_VALUE)
    pad = np.flatnonzero(~valid)
    back = np.empty(height * width, dtype=np.intp)
    back[rows[valid.reshape(-1)]] = np.flatnonzero(valid)
    for a in (rows, pad, back, mask):
        if a is not None:
            a.flags.writeable = False
    return rows, pad, back, mask


def _gather(src: np.ndarray, rows: np.ndarray,
            pad: Optional[np.ndarray] = None, fill=0.0) -> np.ndarray:
    """`src[:, rows]` of a [B, R, C] array into an `_empty` array, with
    the rows `pad` of every image set to `fill`."""
    b, _, c = src.shape
    # the rows are in range; "clip" only spares take a buffered copy
    out = np.take(src, rows, axis=1, out=T._empty((b, rows.size, c)),
                  mode="clip")
    if pad is not None and pad.size:
        out[:, pad] = fill
    return out


def _cut(info: PartitionInfo,
         project: Callable[[int], Optional[np.ndarray]],
         biases: Sequence[np.ndarray]) -> tuple:
    """The row indices of `info`'s windows (`_window_rows`), their token
    shape [B*nW, L, C], and their rows of the [B*H*W, C] maps
    `project(0)`, `project(1)` and `project(2)`, with each map's bias for
    padding; None for a map that `project` gives as None."""
    rows, pad, back, _ = _window_rows(info.height, info.width, info.spec)
    b, c = info.batch, info.channels
    shape = (b * info.num_windows, info.spec.window ** 2, c)
    return rows, pad, back, shape, [
        None if m is None else
        _gather(m.reshape(b, -1, c), rows, pad, bd).reshape(shape)
        for m, bd in zip(map(project, range(len(biases))), biases)]


def _mix_weight_grad(gcols: Sequence[np.ndarray],
                     columns: Sequence[Sequence[int]], s: int) -> np.ndarray:
    """The [B, S] gradient of the mixture weights from each window's [B, 1]
    gradient `_unbroadcast(g * o)` of its map-order output `o`, built as
    slicing, summing, broadcasting and multiplying columns would pass it
    back: one zero-padded [B, S] array per column, added in descending
    column order, so it has their bits down to the sign of a zero."""
    b = gcols[0].shape[0]
    per_column = {}
    for gcol, idx in zip(gcols, columns):
        for i in idx:
            per_column[i] = gcol
    dw = None
    for i in sorted(per_column, reverse=True):
        z = np.zeros((b, s))
        z[:, i:i + 1] = per_column[i]
        dw = z if dw is None else dw + z
    return dw


def window_attention(x: Tensor, params: AttentionParams, cfg: AttentionConfig,
                     specs: Sequence[WindowSpec],
                     mixture: Optional[Tensor] = None,
                     norm: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """Self-attention of the [B,H,W,C] map `x`, or with `norm`'s [C]
    (gamma, beta) of its `layer_norm`, within the windows of each spec, as
    one tape entry.

    Without `mixture` there is one spec, and the result is
    `window_reverse` of `mhsa` over `window_partition(x, spec)` with the
    spec's `attention_mask`. A [B, S] `mixture` has one column per spec.
    Equal specs (e.g. candidates clipped to the map side) are attended
    once, and their columns are summed in spec order. A window whose
    summed column is zero for every sample is skipped, so a one-hot
    mixture is single-window attention exactly. Each live window's output
    is scaled per sample by its column, and the scaled outputs are added
    in spec order.

    q, k and v are projected once, on the map. Each window gathers its
    tokens' rows of them by a cached index (a padding row gets the bias,
    which is what a zero row's product gives), and its output projection
    goes back to map order by one more gather. The rule keeps only `x`
    and, per window, the attention weights. Before its sweep it projects
    v again, and q and k too when a branch input needs a gradient, by the
    forward's own products. Window by window in reverse, it rebuilds every
    window-order copy by the same gathers, the context from the weights
    and v, and, when the mixture needs a gradient, the map-order output
    from the context, each with the forward's own calls just before its
    first reader, and runs the rules the op chain would: the mixture's,
    the output projection's, the attention's, then v's, k's and q's
    projections. So values and gradients are the same bits as that
    chain's, per window `window_partition`, three `linear`,
    `multihead_attention`, `linear` and `window_reverse`, then the
    mixture's slices, adds, broadcasts and products; each weight's
    gradient is summed over windows in the sweep's order, and the
    mixture's is assembled after the sweep in the chain's column order.

    With `norm`, the norm is part of the op, as `mlp_branch`'s is: the
    rule keeps the norm's xn and denom instead of the map, rebuilds the
    norm output from them before its sweep, and runs `layer_norm`'s rule
    after it. Without a graph the norm output overwrites xn. A window's
    input gradients go before the next window builds its own, and the
    attention's rule runs over chunks of whole images' windows
    (`T._attention_grads`).
    """
    xd = x.data
    if mixture is None:
        if len(specs) != 1:
            raise ShapeError(f"window_attention: {len(specs)} windows without "
                             f"a mixture; only one window may go unmixed")
    else:
        md = mixture.data
        want = (*xd.shape[:1], len(specs))
        if md.shape != want:
            raise ShapeError(f"mixture shape {md.shape} != {want}")
        # equal specs share one window, whose column sums theirs in order
        groups: dict[WindowSpec, tuple[list[int], np.ndarray]] = {}
        for i, spec in enumerate(specs):
            idx, col = groups.get(spec, ([], None))
            col = md[:, i:i + 1] if col is None else col + md[:, i:i + 1]
            groups[spec] = (idx + [i], col)
        live = [(spec, idx, col.reshape(-1, 1, 1, 1))
                for spec, (idx, col) in groups.items()
                if not np.all(col == 0.0)]
        if not live:
            raise ConfigError("mixture assigns zero weight to every candidate")
        specs, columns, cols = zip(*live)
    infos = [_partition_info(xd.shape, spec) for spec in specs]
    # the rule reads x's shape, and with a folded norm not x itself
    xshape = xd.shape
    b, _, _, c = xshape
    if c != cfg.dim:
        raise ShapeError(f"window_attention: map width {c} != configured "
                         f"{cfg.dim}")
    plist = (params.wq, params.bq, params.wk, params.bk, params.wv,
             params.bv, params.wo, params.bo)
    for p in plist:
        if p.data.shape != ((c, c) if p.data.ndim == 2 else (c,)):
            raise ShapeError(f"window_attention: projection {p.data.shape} "
                             f"for width {c}")
    wq, bq, wk, bk, wv, bv, wo, bo = (p.data for p in plist)
    heads = cfg.num_heads
    inputs = (x, *(() if norm is None else norm), *plist) \
        + (() if mixture is None else (mixture,))
    keep = T._grad_enabled and any(t.requires_grad for t in inputs)
    # only the mixture's rule reads the map-order outputs
    need_mix = mixture is not None and mixture.requires_grad
    if norm is None:
        x2 = n2 = T._contiguous(xd).reshape(-1, c)
    else:
        T._check_norm_params(c, *norm, "window_attention")
        gd, nbd = (p.data for p in norm)
        xn, denom = T._norm_stats(xd)
        n2 = T._norm_out(xn, gd, nbd, None if keep else xn).reshape(-1, c)
        if not keep:
            xn = denom = None
        x2 = None
    weights, biases = (wq, wk, wv), (bq, bk, bv)
    # every window reads the projected maps, which go when the op returns;
    # a lone window lets each go once its rows are gathered
    maps = [T._affine(n2, wd, bd) for wd, bd in zip(weights, biases)] \
        if len(infos) > 1 else None

    def project(j: int) -> np.ndarray:
        if maps is None:
            return T._affine(n2, weights[j], biases[j])
        return maps[j]

    saved: list[tuple] = []
    out = term = None
    for i, info in enumerate(infos):
        _, _, back, _, (qd, kd, vd) = _cut(info, project, biases)
        probs, _ = T._attention_probs(qd, kd, heads, attention_mask(info))
        ctx = T._attention_context(probs, vd, heads).reshape(-1, c)
        del qd, kd, vd
        o = _gather(T._affine(ctx, wo, bo).reshape(b, -1, c),
                    back).reshape(xshape)
        if keep:
            saved.append(probs)
        if mixture is None:
            out = o
        elif out is None:
            out = np.multiply(o, cols[0], out=T._empty(xshape))
        else:
            term = T._empty(xshape) if term is None else term
            out += np.multiply(o, cols[i], out=term)
        # the next window's arrays may reuse these buffers
        del probs, ctx, o
    del maps, n2
    # the gradient of the attention's input: the map, or the norm output
    need_x = any(t.requires_grad for t in (x, *(norm or ())))
    need_branch = need_x or any(p.requires_grad for p in plist)

    def bw(g):
        dx = None
        dparams = [None] * 8
        gcols = [None] * len(infos)
        n2 = x2 if norm is None else T._norm_out(xn, gd, nbd).reshape(-1, c)
        # the forward's projections: v for every context, q and k only
        # for the branch's gradients
        maps = [T._affine(n2, wd, bd) if need_branch or j == 2 else None
                for j, (wd, bd) in enumerate(zip(weights, biases))]
        for i in reversed(range(len(infos))):
            probs = saved[i]
            rows, pad, back, shape, (qd, kd, vd) = _cut(
                infos[i], maps.__getitem__, biases)
            ctx = T._attention_context(probs, vd, heads).reshape(-1, c)
            if need_mix:
                o = _gather(T._affine(ctx, wo, bo).reshape(b, -1, c),
                            back).reshape(xshape)
                gcols[i] = T._unbroadcast(g * o, (b, 1, 1, 1)).reshape(b, 1)
                del o
            if not need_branch:
                continue
            gi = g if mixture is None else g * cols[i]
            dctx, dwo, dbo = T._affine_grads(
                _gather(gi.reshape(b, -1, c), rows, pad).reshape(-1, c), ctx,
                wo, True, True)
            del gi, ctx
            kt = T._contiguous(T._heads(kd, heads).transpose(0, 1, 3, 2))
            del kd
            dq, dk, dv = T._attention_grads(dctx.reshape(shape), probs, qd,
                                            kt, vd, heads,
                                            infos[i].num_windows)
            del dctx, qd, kt, vd
            tok = _gather(n2.reshape(b, -1, c), rows, pad).reshape(-1, c)
            dxv, dwv, dbv = T._affine_grads(dv.reshape(-1, c), tok, wv, need_x,
                                            True)
            dxk, dwk, dbk = T._affine_grads(dk.reshape(-1, c), tok, wk, need_x,
                                            True)
            dxq, dwq, dbq = T._affine_grads(dq.reshape(-1, c), tok, wq, need_x,
                                            True)
            del tok, dq, dk, dv
            for j, d in enumerate((dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo)):
                if dparams[j] is None:
                    dparams[j] = d
                else:
                    dparams[j] += d
            if need_x:
                # the tokens' flows arrive as v's, then k's, then q's
                dxv += dxk
                dxv += dxq
                del dxk, dxq
                dxm = _gather(dxv.reshape(b, -1, c), back).reshape(xshape)
                del dxv
                if dx is None:
                    dx = dxm
                else:
                    dx += dxm
                del dxm
        del maps, n2
        dnorm = ()
        if norm is not None:
            # the norm's rule, on the flow its output got
            dx, *dnorm = (None, None, None) if dx is None else \
                T._norm_grads(dx, xn, denom, gd)
        if mixture is None:
            return (dx, *dnorm, *dparams)
        dmix = _mix_weight_grad(gcols, columns, md.shape[1]) if need_mix \
            else None
        return (dx, *dnorm, *dparams, dmix)

    return T._finish(out, inputs, bw, "window_attention")


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
                    cfg: AttentionConfig) -> Tensor:
    """Attend from `current` (queries) into `prev` (keys/values), as one
    tape entry.

    Both are [B,H,W,C] with equal B and C; spatial sizes may differ. The
    attended result is added back onto `current`.

    The result is that of the op chain it replaces: `current` and `prev`
    reshaped to tokens, `mhsa`'s projections and `multihead_attention`
    from the first into the second, the output projection reshaped back,
    and an `add` onto `current`. The rule keeps `current`, `prev` and the
    attention weights. It projects q, k and v again and rebuilds k^T and
    the context with the forward's own calls, then runs the chain's rules
    in its order: the output projection's, the attention's, then v's, k's
    and q's projections. So `prev` gets v's gradient plus k's, `current`
    the add's plus q's, and every value is the same bits as the chain's.
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
    cshape, pshape = current.data.shape, prev.data.shape
    b, c = cshape[0], cshape[3]
    if c != cfg.dim:
        raise ShapeError(f"attention: token dim {c} != configured {cfg.dim}")
    plist = (params.wq, params.bq, params.wk, params.bk, params.wv,
             params.bv, params.wo, params.bo)
    for p in plist:
        if p.data.shape != ((c, c) if p.data.ndim == 2 else (c,)):
            raise ShapeError(f"cross_attention: projection {p.data.shape} "
                             f"for width {c}")
    wq, bq, wk, bk, wv, bv, wo, bo = (p.data for p in plist)
    heads = cfg.num_heads
    cur2 = T._contiguous(current.data).reshape(-1, c)
    prev2 = T._contiguous(prev.data).reshape(-1, c)

    def project(x2, wd, bd):
        return T._affine(x2, wd, bd).reshape(b, -1, c)

    qd, kd, vd = (project(cur2, wq, bq), project(prev2, wk, bk),
                  project(prev2, wv, bv))
    probs, _ = T._attention_probs(qd, kd, heads, None)
    del qd, kd
    ctx = T._attention_context(probs, vd, heads).reshape(-1, c)
    del vd
    att = T._affine(ctx, wo, bo).reshape(cshape)
    del ctx
    out = np.add(current.data, att, out=T._empty(cshape))
    del att
    need_cur, need_prev = current.requires_grad, prev.requires_grad

    def bw(g):
        qd = project(cur2, wq, bq)
        kd = project(prev2, wk, bk)
        kt = T._contiguous(T._heads(kd, heads).transpose(0, 1, 3, 2))
        del kd
        vd = project(prev2, wv, bv)
        ctx = T._attention_context(probs, vd, heads).reshape(-1, c)
        g2 = g.reshape(-1, c)
        dctx, dwo, dbo = T._affine_grads(g2, ctx, wo, True, True)
        del ctx
        dq, dk, dv = T._attention_grads(dctx.reshape(b, -1, c), probs, qd,
                                        kt, vd, heads)
        del dctx, qd, kt, vd
        dpv, dwv, dbv = T._affine_grads(dv.reshape(-1, c), prev2, wv,
                                        need_prev, True)
        dpk, dwk, dbk = T._affine_grads(dk.reshape(-1, c), prev2, wk,
                                        need_prev, True)
        dcq, dwq, dbq = T._affine_grads(dq.reshape(-1, c), cur2, wq,
                                        need_cur, True)
        del dq, dk, dv
        dprev = dcur = None
        if need_prev:
            dpv += dpk
            dprev = dpv.reshape(pshape)
        if need_cur:
            dcq += g2
            dcur = dcq.reshape(cshape)
        return dcur, dprev, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo

    return T._finish(out, (current, prev, *plist), bw, "cross_attention")
