"""Window partition/reverse, masking, and attention invariants."""
from dataclasses import replace

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import (MASK_VALUE, AttentionConfig, AttentionParams,
                              WindowSpec, attention_mask, cross_attention,
                              map_to_tokens, mhsa, tokens_to_map,
                              window_partition, window_reverse,
                              windowed_mhsa)
from dcswin.errors import ConfigError, NumericsError, ShapeError
from dcswin.rng import stream
from dcswin.tensor import Tensor


def channels_last(a):
    """[B,C,H,W] draws as the contiguous [B,H,W,C] map the model uses."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def rand_map(rng, b, c, h, w):
    return Tensor(channels_last(rng.standard_normal((b, c, h, w))),
                  requires_grad=True)


def live_params(cfg, rng):
    """`AttentionParams.init` with a drawn output projection in place of
    the zero one, so attention reaches the output. `wo` is drawn first,
    then `wq`, `wk` and `wv` as `init` draws them."""
    wo = T.trunc_normal((cfg.dim, cfg.dim), rng, std=0.02, requires_grad=True)
    return replace(AttentionParams.init(cfg, rng), wo=wo)


def attend_weights(q_src, kv_src, p, cfg, mask=None):
    """The [N, heads, Lq, Lk] weights `mhsa` and `cross_attention` attend
    with: those of their q and k projections."""
    return T._attention_probs(T.linear(q_src, p.wq, p.bq).data,
                              T.linear(kv_src, p.wk, p.bk).data,
                              cfg.num_heads, mask)[0]


def window_weights(x, p, cfg, spec):
    """The [B*nW, heads, L, L] weights `window_attention` attends with at
    one window, from the `window_partition` reference chain, and the
    partition's info."""
    tokens, info = window_partition(x, spec)
    return attend_weights(tokens, tokens, p, cfg, attention_mask(info)), info


# ---- partition / reverse ------------------------------------------------------

def test_partition_counts_8x8_window4():
    x = rand_map(np.random.default_rng(0), 2, 3, 8, 8)
    tokens, info = window_partition(x, WindowSpec(4))
    assert tokens.data.shape == (2 * 4, 16, 3)
    assert info.num_windows == 4
    assert info.pad_h == 0 and info.pad_w == 0


def test_partition_single_window_degenerate():
    x = rand_map(np.random.default_rng(1), 1, 2, 5, 5)
    tokens, info = window_partition(x, WindowSpec(5))
    assert tokens.data.shape == (1, 25, 2)
    # row-major token order inside the single window
    assert np.array_equal(tokens.data[0, :, 0],
                          x.data[0, :, :, 0].reshape(-1))


def test_partition_layout_row_major():
    # 1x1x4x4 with values 0..15: window 2 gives windows in row-major grid
    # order, each window's tokens row-major.
    x = Tensor(channels_last(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)))
    tokens, _ = window_partition(x, WindowSpec(2))
    assert np.array_equal(tokens.data[:, :, 0],
                          [[0, 1, 4, 5], [2, 3, 6, 7],
                           [8, 9, 12, 13], [10, 11, 14, 15]])


@pytest.mark.parametrize("h,w,win,shift", [
    (8, 8, 4, 0), (8, 8, 4, 2), (6, 10, 4, 0), (6, 10, 4, 3),
    (5, 7, 3, 1), (7, 7, 7, 0), (9, 4, 4, 2), (16, 16, 8, 4),
])
def test_partition_reverse_inverse_pair(h, w, win, shift):
    rng = np.random.default_rng(h * 100 + w * 10 + win + shift)
    x = rand_map(rng, 2, 3, h, w)
    tokens, info = window_partition(x, WindowSpec(win, shift))
    back = window_reverse(tokens, info)
    assert np.array_equal(back.data, x.data)


def test_partition_reverse_gradient_is_identity():
    x = rand_map(np.random.default_rng(5), 1, 2, 6, 6)
    tokens, info = window_partition(x, WindowSpec(4, 2))
    out = window_reverse(tokens, info)
    T.backward(T.reduce_mean(T.mul(out, out)))
    # d mean(x^2) / dx = 2x / N
    assert np.allclose(x.grad, 2.0 * x.data / x.data.size, atol=1e-12)


def test_window_larger_than_side_rejected():
    x = rand_map(np.random.default_rng(6), 1, 2, 4, 4)
    with pytest.raises(ConfigError):
        window_partition(x, WindowSpec(5))


def test_reverse_shape_mismatch_rejected():
    x = rand_map(np.random.default_rng(7), 1, 2, 4, 4)
    tokens, info = window_partition(x, WindowSpec(2))
    bad = Tensor(np.zeros((4, 4, 3)))
    with pytest.raises(ShapeError):
        window_reverse(bad, info)


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(0)
    with pytest.raises(ConfigError):
        WindowSpec(4, 4)
    with pytest.raises(ConfigError):
        WindowSpec(4, -1)
    with pytest.raises(ConfigError):
        AttentionConfig(6, 4)


# ---- masks ---------------------------------------------------------------------

def test_no_mask_when_aligned_unshifted():
    x = rand_map(np.random.default_rng(8), 1, 2, 8, 8)
    _, info = window_partition(x, WindowSpec(4))
    assert attention_mask(info) is None


def test_mask_blocks_cross_seam_pairs_only():
    # 8x8, window 4, shift 2: region ids partition each axis into
    # slid / pre-seam / wrapped content
    x = rand_map(np.random.default_rng(9), 1, 1, 8, 8)
    _, info = window_partition(x, WindowSpec(4, 2))
    mask = attention_mask(info)
    assert mask.shape == (4, 16, 16)
    assert set(np.unique(mask)) <= {0.0, -1e9}
    # the top-left window saw no seam: fully allowed
    assert np.all(mask[0] == 0.0)
    # every other window mixes regions: some pair must be blocked
    for wdx in (1, 2, 3):
        assert np.any(mask[wdx] == -1e9)
        # blocked relation is symmetric
        assert np.array_equal(mask[wdx], mask[wdx].T)


def test_mask_marks_padding_invalid():
    x = rand_map(np.random.default_rng(10), 1, 1, 5, 5)
    _, info = window_partition(x, WindowSpec(4))
    mask = attention_mask(info)
    # window grid is 2x2 on the padded 8x8 map; window 0 is all-real
    assert np.all(mask[0] == 0.0)
    # real->pad pairs blocked: window 1 holds columns 4..7, cols 5..7 are pad
    w = 4
    real_cols = np.array([c < 1 for r in range(w) for c in range(w)])
    blocked = mask[1][real_cols][:, ~real_cols]
    assert np.all(blocked == -1e9)


def reference_mask(height, width, spec):
    """The mask built by rolling and cutting a map of region ids and of
    validity the way `window_partition` cuts the map: pairs are allowed
    within one post-shift region of each axis (slid, the last window's
    unwrapped content, wrapped) when both tokens are real."""
    w, s = spec.window, spec.shift
    pad_h, pad_w = (-height) % w, (-width) % w
    if s == 0 and pad_h == 0 and pad_w == 0:
        return None
    hp, wp = height + pad_h, width + pad_w

    def regions(size):
        ids = np.zeros(size, dtype=np.int64)
        ids[size - w:size - s] = 1
        ids[size - s:] = 2
        return ids

    if s:
        region = regions(hp)[:, None] * 3 + regions(wp)[None, :]
    else:
        region = np.zeros((hp, wp), dtype=np.int64)
    valid = np.zeros((hp, wp), dtype=bool)
    valid[:height, :width] = True
    if s:
        # padding is appended pre-shift, so the validity map shifts with x
        valid = np.roll(valid, (-s, -s), axis=(0, 1))
    gh, gw = hp // w, wp // w
    region_w = region.reshape(gh, w, gw, w).transpose(0, 2, 1, 3) \
        .reshape(-1, w * w)
    valid_w = valid.reshape(gh, w, gw, w).transpose(0, 2, 1, 3) \
        .reshape(-1, w * w)
    same = region_w[:, :, None] == region_w[:, None, :]
    ok = same & valid_w[:, :, None] & valid_w[:, None, :]
    return np.where(ok, 0.0, MASK_VALUE)


def test_mask_matches_reference_every_small_geometry():
    checked = 0
    for h in range(1, 13):
        for w in range(1, 13):
            for win in range(1, min(h, w) + 1):
                for shift in range(win):
                    spec = WindowSpec(win, shift)
                    _, info = window_partition(Tensor(np.zeros((1, h, w, 1))),
                                               spec)
                    got, want = attention_mask(info), reference_mask(h, w, spec)
                    checked += 1
                    if want is None:
                        assert got is None, (h, w, spec)
                        continue
                    assert got.dtype == want.dtype and \
                        got.shape == want.shape, (h, w, spec)
                    assert got.tobytes() == want.tobytes(), (h, w, spec)
                    assert not got.flags.writeable, (h, w, spec)
    assert checked == 2366


def test_mask_cached_per_geometry_and_read_only():
    rng = np.random.default_rng(12)
    _, info = window_partition(rand_map(rng, 1, 1, 8, 8), WindowSpec(4, 2))
    # batch and channels differ, geometry does not: the same array comes back
    _, same_geometry = window_partition(rand_map(rng, 3, 2, 8, 8),
                                        WindowSpec(4, 2))
    mask = attention_mask(info)
    assert attention_mask(same_geometry) is mask
    with pytest.raises(ValueError):
        mask[0, 0, 0] = 1.0

    _, shifted = window_partition(rand_map(rng, 1, 1, 8, 8), WindowSpec(4, 1))
    other = attention_mask(shifted)
    assert other is not mask and not np.array_equal(other, mask)
    assert set(np.unique(other)) <= {0.0, -1e9}
    assert np.all(other[0] == 0.0)
    for wdx in (1, 2, 3):
        assert np.any(other[wdx] == -1e9)
        assert np.array_equal(other[wdx], other[wdx].T)

    _, padded = window_partition(rand_map(rng, 1, 1, 5, 5), WindowSpec(4))
    pad_mask = attention_mask(padded)
    assert pad_mask is not mask and not pad_mask.flags.writeable
    assert np.all(pad_mask[0] == 0.0)
    real_cols = np.array([c < 1 for r in range(4) for c in range(4)])
    assert np.all(pad_mask[1][real_cols][:, ~real_cols] == -1e9)


# ---- attention semantics ---------------------------------------------------------

def test_single_key_weight_is_one():
    rng = stream(0, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    tok = Tensor(rng.standard_normal((2, 1, 4)))
    out = mhsa(tok, p, cfg)
    weights = attend_weights(tok, tok, p, cfg)
    assert np.array_equal(weights, np.ones_like(weights))
    assert out.data.shape == (2, 1, 4)


def test_mask_saturation_attends_single_key():
    rng = stream(1, "t-attn")
    cfg = AttentionConfig(4, 1)
    p = live_params(cfg, rng)
    tok = Tensor(rng.standard_normal((1, 5, 4)))
    mask = np.full((5, 5), -1e9)
    mask[:, 3] = 0.0
    out = mhsa(tok, p, cfg, mask)
    weights = attend_weights(tok, tok, p, cfg, mask)
    assert np.allclose(weights[..., 3], 1.0, atol=1e-12)
    only = np.delete(weights, 3, axis=-1)
    assert np.all(only < 1e-12)
    # every query's context is v(key 3), so all output rows coincide
    assert np.allclose(out.data, out.data[:, :1], atol=1e-12)


def test_mhsa_records_five_tape_entries():
    rng = stream(12, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    tok = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    with T.Tape() as tape:
        mhsa(tok, p, cfg)
    # the q, k, v and output linears, and one attention op
    assert len(tape) == 5


def test_mhsa_overflowing_logits_raise():
    rng = stream(13, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    tok = Tensor(rng.standard_normal((2, 3, 4)) * 1e200)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericsError, match="attention logits"):
        mhsa(tok, p, cfg)


def test_rows_stochastic_random_configs():
    rng = stream(2, "t-attn")
    for dim, heads, l in ((8, 2, 6), (6, 3, 9), (4, 4, 1)):
        cfg = AttentionConfig(dim, heads)
        p = live_params(cfg, rng)
        tok = Tensor(rng.standard_normal((3, l, dim)))
        weights = attend_weights(tok, tok, p, cfg)
        sums = weights.sum(axis=-1)
        assert np.all(weights >= 0.0)
        assert np.allclose(sums, 1.0, atol=1e-9)


def test_permutation_equivariance_unmasked():
    rng = stream(3, "t-attn")
    cfg = AttentionConfig(8, 2)
    p = live_params(cfg, rng)
    tok = rng.standard_normal((2, 7, 8))
    perm = rng.permutation(7)
    out = mhsa(Tensor(tok), p, cfg).data
    out_p = mhsa(Tensor(tok[:, perm]), p, cfg).data
    assert np.allclose(out_p, out[:, perm], atol=1e-10)


def test_shift_mask_isolation_end_to_end():
    # windowed attention with shift: weights on cross-seam pairs < 1e-12
    rng = stream(4, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 8, 8))))
    w, info = window_weights(x, p, cfg, WindowSpec(4, 2))
    mask = attention_mask(info)
    blocked = mask < 0
    for wdx in range(mask.shape[0]):
        assert np.all(w[wdx][:, blocked[wdx]] < 1e-12)
        sums = w[wdx].sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-9)


def test_windowed_mhsa_pad_tokens_get_no_weight():
    rng = stream(5, "t-attn")
    cfg = AttentionConfig(4, 1)
    p = live_params(cfg, rng)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 5, 5))))
    out = windowed_mhsa(x, p, cfg, WindowSpec(4))
    assert out.data.shape == (1, 5, 5, 4)
    weights, info = window_weights(x, p, cfg, WindowSpec(4))
    mask = attention_mask(info)
    blocked = mask < 0
    for wdx in range(mask.shape[0]):
        # rows with no allowed key belong to stripped padding; skip them
        real = ~np.all(blocked[wdx], axis=-1)
        sel = blocked[wdx] & real[:, None]
        assert np.all(weights[wdx][:, sel] < 1e-12)


def test_windowed_mhsa_gradients_flow():
    rng = stream(6, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 6, 6))),
               requires_grad=True)
    out = windowed_mhsa(x, p, cfg, WindowSpec(4, 2))
    T.backward(T.reduce_mean(T.mul(out, out)))
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    assert p.wq.grad is not None and np.any(p.wq.grad != 0.0)


# ---- the window op against the op chain it replaced ------------------------------

def chain_windowed_mhsa(x, params, cfg, spec):
    """`windowed_mhsa` as a chain of ops: partition, the three projections,
    attention, the output projection and reverse."""
    tokens, info = window_partition(x, spec)
    q = T.linear(tokens, params.wq, params.bq)
    k = T.linear(tokens, params.wk, params.bk)
    v = T.linear(tokens, params.wv, params.bv)
    ctx = T.multihead_attention(q, k, v, cfg.num_heads, attention_mask(info))
    return window_reverse(T.linear(ctx, params.wo, params.bo), info)


def grads_after(fn, leaves):
    """The output's bytes and every leaf gradient's bytes (None if it got
    none) after one backward of a probe-weighted sum of the output."""
    for t in leaves:
        t.grad = None
    out = fn()
    # negative probe weights give zero gradients of both signs
    probe = Tensor(np.linspace(-1.3, 0.7, out.data.size).reshape(out.shape))
    T.backward(T.reduce_sum(T.mul(out, probe)))
    return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes()
                                for t in leaves]


# (map side, window, shift): aligned, shifted, a window covering the map,
# and padding with and without a shift (5x5 under 2, and 4x4 under 3 as
# in the micro model)
GEOMETRIES = [(8, 4, 0), (8, 4, 2), (4, 4, 0), (5, 2, 1), (5, 4, 0), (4, 3, 1)]


@pytest.mark.parametrize("side,window,shift", GEOMETRIES)
@pytest.mark.parametrize("x_grad", [True, False])
def test_windowed_mhsa_is_the_op_chain_bit_for_bit(side, window, shift,
                                                   x_grad, attention_weights):
    """Output and every gradient are the same bytes, signs of zeros
    included, whether the rule keeps the weights or rebuilds them, and
    the op is one tape entry."""
    rng = stream(13, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    x = Tensor(channels_last(rng.standard_normal((2, 4, side, side))),
               requires_grad=x_grad)
    spec = WindowSpec(window, shift)
    leaves = [x, *p.named("p").values()]
    assert grads_after(lambda: windowed_mhsa(x, p, cfg, spec), leaves) == \
        grads_after(lambda: chain_windowed_mhsa(x, p, cfg, spec), leaves)
    with T.Tape() as tape:
        windowed_mhsa(x, p, cfg, spec)
    assert len(tape) == 1


@pytest.mark.parametrize("side,window,shift", GEOMETRIES)
def test_windowed_mhsa_without_a_graph_is_the_op_chain(side, window, shift):
    """Under no_grad, and inside a request scope whose second call reuses
    the first call's buffers, the output is the chain's bytes."""
    rng = stream(14, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    x = Tensor(channels_last(rng.standard_normal((3, 4, side, side))))
    spec = WindowSpec(window, shift)
    want = chain_windowed_mhsa(x, p, cfg, spec).data.tobytes()
    with T.no_grad():
        assert windowed_mhsa(x, p, cfg, spec).data.tobytes() == want
        with T._request_buffers():
            for _ in range(2):
                assert windowed_mhsa(x, p, cfg, spec).data.tobytes() == want


def chain_cross_attention(current, prev, params, cfg):
    """`cross_attention` as the chain of ops it replaced: both maps
    reshaped to tokens, the three projections, attention, the output
    projection reshaped back, and an add onto `current`."""
    b, h, w, c = current.shape
    cur = T.reshape(current, (b, h * w, c))
    kv = T.reshape(prev, (b, -1, c))
    q = T.linear(cur, params.wq, params.bq)
    k = T.linear(kv, params.wk, params.bk)
    v = T.linear(kv, params.wv, params.bv)
    ctx = T.multihead_attention(q, k, v, cfg.num_heads)
    att = T.linear(ctx, params.wo, params.bo)
    return T.add(current, T.reshape(att, current.shape))


# (current side, previous side): equal grids as the model pools them, and
# keys from a larger or a smaller grid
CROSS_SIDES = [(4, 4), (2, 3), (3, 1)]


@pytest.mark.parametrize("side,prev_side", CROSS_SIDES)
@pytest.mark.parametrize("needs", ["both", "current", "prev", "neither"])
def test_cross_attention_is_the_op_chain_bit_for_bit(side, prev_side, needs,
                                                     attention_weights):
    """Output and every gradient are the same bytes, signs of zeros
    included, whichever map needs a gradient and whether the rule keeps
    the weights or rebuilds them, and the op is one tape entry."""
    rng = stream(15, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((2, 4, side, side))),
                 requires_grad=needs in ("both", "current"))
    prev = Tensor(channels_last(
        rng.standard_normal((2, 4, prev_side, prev_side))),
        requires_grad=needs in ("both", "prev"))
    leaves = [cur, prev, *p.named("p").values()]
    assert grads_after(lambda: cross_attention(cur, prev, p, cfg), leaves) \
        == grads_after(lambda: chain_cross_attention(cur, prev, p, cfg),
                       leaves)
    with T.Tape() as tape:
        cross_attention(cur, prev, p, cfg)
    assert len(tape) == 1


def test_cross_attention_without_a_graph_is_the_op_chain():
    rng = stream(16, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((3, 4, 4, 4))))
    prev = Tensor(channels_last(rng.standard_normal((3, 4, 4, 4))))
    want = chain_cross_attention(cur, prev, p, cfg).data.tobytes()
    with T.no_grad():
        assert cross_attention(cur, prev, p, cfg).data.tobytes() == want
        with T._request_buffers():
            for _ in range(2):
                assert cross_attention(cur, prev, p, cfg).data.tobytes() \
                    == want


# ---- token/map helpers -----------------------------------------------------------

def test_map_tokens_roundtrip():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)))
    t = map_to_tokens(x)
    assert t.data.shape == (2, 20, 3)
    back = tokens_to_map(t, 4, 5)
    assert np.array_equal(back.data, x.data)


def test_tokens_to_map_length_mismatch():
    with pytest.raises(ShapeError):
        tokens_to_map(Tensor(np.zeros((1, 6, 3))), 2, 2)


# ---- cross attention --------------------------------------------------------------

def test_cross_attention_identity_at_zero_init():
    rng = stream(7, "t-attn")
    cfg = AttentionConfig(6, 2)
    p = AttentionParams.init(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((2, 6, 3, 3))))
    prev = Tensor(channels_last(rng.standard_normal((2, 6, 5, 5))))
    out = cross_attention(cur, prev, p, cfg)
    assert np.array_equal(out.data, cur.data)


def test_cross_attention_constant_prev_position_independent():
    rng = stream(8, "t-attn")
    cfg = AttentionConfig(4, 1)
    p = live_params(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((1, 4, 3, 3))))
    prev = Tensor(channels_last(np.broadcast_to(
        rng.standard_normal((1, 4, 1, 1)), (1, 4, 4, 4))))
    out = cross_attention(cur, prev, p, cfg)
    # all keys/values identical -> attended output constant across queries
    flat = (out.data - cur.data).reshape(1, -1, 4)
    assert np.allclose(flat, flat[:, :1], atol=1e-12)


def test_cross_attention_spatial_sizes_may_differ():
    rng = stream(9, "t-attn")
    cfg = AttentionConfig(4, 2)
    p = live_params(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((2, 4, 4, 4))))
    prev = Tensor(channels_last(rng.standard_normal((2, 4, 8, 8))))
    out = cross_attention(cur, prev, p, cfg)
    assert out.data.shape == cur.data.shape


def test_cross_attention_1x1_reduces_to_single_token():
    rng = stream(10, "t-attn")
    cfg = AttentionConfig(4, 1)
    p = live_params(cfg, rng)
    cur = Tensor(channels_last(rng.standard_normal((1, 4, 1, 1))))
    prev = Tensor(channels_last(rng.standard_normal((1, 4, 1, 1))))
    out = cross_attention(cur, prev, p, cfg)
    weights = attend_weights(Tensor(cur.data.reshape(1, 1, 4)),
                             Tensor(prev.data.reshape(1, 1, 4)), p, cfg)
    assert np.array_equal(weights, np.ones_like(weights))
    assert out.data.shape == (1, 1, 1, 4)


def test_cross_attention_mismatches_rejected():
    rng = stream(11, "t-attn")
    cfg = AttentionConfig(4, 1)
    p = live_params(cfg, rng)
    with pytest.raises(ShapeError):
        cross_attention(Tensor(np.zeros((1, 2, 2, 4))),
                        Tensor(np.zeros((2, 2, 2, 4))), p, cfg)
    with pytest.raises(ShapeError):
        cross_attention(Tensor(np.zeros((1, 2, 2, 4))),
                        Tensor(np.zeros((1, 2, 2, 6))), p, cfg)
    with pytest.raises(ShapeError):
        cross_attention(Tensor(np.zeros((2, 2, 4))),
                        Tensor(np.zeros((1, 2, 2, 4))), p, cfg)
