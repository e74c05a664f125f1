"""Scale prediction, the per-sample [B,S] mixture, and mixture-weighted
attention."""
import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import (AttentionConfig, AttentionParams, WindowSpec,
                              attention_mask, window_attention, windowed_mhsa)
from dcswin.dynamic_window import (dynamic_window_attention, hard_selection,
                                   pool_to_stage, predict_scales)
from dcswin.errors import ConfigError, ShapeError
from dcswin.rng import stream
from dcswin.tensor import Tensor
from test_attention import chain_windowed_mhsa, grads_after, live_params


def channels_last(a):
    """[B,C,H,W] draws as the contiguous [B,H,W,C] map the model uses."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def attn_setup(dim=4, heads=2, key=0):
    rng = stream(key, "t-dynwin")
    cfg = AttentionConfig(dim, heads)
    return live_params(cfg, rng), cfg, rng


# ---- predict_scales ---------------------------------------------------------------

def test_predict_scales_zero_logits_uniform():
    rng = stream(1, "t-dynwin")
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    probs = predict_scales(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
    assert probs.data.shape == (2, 2, 4, 4)
    assert np.allclose(probs.data, 0.5, atol=1e-15)


def test_predict_scales_bias_saturation():
    rng = stream(2, "t-dynwin")
    x = Tensor(rng.standard_normal((1, 3, 4, 4)) * 0.01)
    b = np.zeros(3)
    b[1] = 20.0
    probs = predict_scales(x, Tensor(np.zeros((3, 3))), Tensor(b))
    assert np.all(probs.data[:, 1] > 1.0 - 1e-6)


def test_predict_scales_rows_sum_to_one():
    rng = stream(3, "t-dynwin")
    x = Tensor(rng.standard_normal((2, 3, 5, 6)))
    w = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal(3))
    probs = predict_scales(x, w, b)
    assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)


def test_predict_scales_translation_consistent():
    # 1x1 conv + pointwise softmax: rolling the image rolls the field exactly
    rng = stream(4, "t-dynwin")
    x = rng.standard_normal((1, 3, 6, 6))
    w = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal(2))
    f0 = predict_scales(Tensor(x), w, b).data
    f1 = predict_scales(Tensor(np.roll(x, (2, 3), axis=(2, 3))), w, b).data
    assert np.array_equal(f1, np.roll(f0, (2, 3), axis=(2, 3)))


# ---- pool_to_stage ----------------------------------------------------------------

def test_pool_constant_field_keeps_distribution():
    probs = np.zeros((2, 3, 8, 8))
    probs[:, 0], probs[:, 1], probs[:, 2] = 0.5, 0.3, 0.2
    mix = pool_to_stage(Tensor(probs))
    assert mix.data.shape == (2, 3)
    assert np.allclose(mix.data, [[0.5, 0.3, 0.2]] * 2, atol=1e-12)


def test_pool_one_hot_field_stays_one_hot():
    probs = np.zeros((1, 2, 4, 4))
    probs[:, 1] = 1.0
    mix = pool_to_stage(Tensor(probs))
    assert np.allclose(mix.data, [[0.0, 1.0]], atol=1e-12)


def test_pool_mixes_spatial_regions_and_renormalizes():
    probs = np.zeros((1, 2, 4, 4))
    probs[:, 0, :2] = 1.0   # top half votes scale 0
    probs[:, 1, 2:] = 1.0   # bottom half votes scale 1
    mix = pool_to_stage(Tensor(probs))
    assert np.allclose(mix.data, [[0.5, 0.5]], atol=1e-12)
    assert np.allclose(mix.data.sum(axis=1), 1.0, atol=1e-9)


# ---- dynamic window attention -------------------------------------------------------

def one_hot_mix(b, s, k):
    w = np.zeros((b, s))
    w[:, k] = 1.0
    return Tensor(w)


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("k", [0, 1])
def test_one_hot_mixture_reduces_exactly(shift, k):
    params, cfg, rng = attn_setup(key=10)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 8, 8))))
    candidates = (2, 4)
    out = dynamic_window_attention(x, one_hot_mix(2, 2, k), candidates,
                                   params, cfg, shift=shift)
    cand = candidates[k]
    s = cand // 2 if (shift and cand < 8) else 0
    ref = windowed_mhsa(x, params, cfg, WindowSpec(cand, s))
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def test_duplicate_candidates_consistent():
    params, cfg, rng = attn_setup(key=11)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 8, 8))))
    out = dynamic_window_attention(x, Tensor([[0.5, 0.5]]), (4, 4),
                                   params, cfg)
    ref = windowed_mhsa(x, params, cfg, WindowSpec(4))
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def test_output_in_convex_hull_of_branches():
    params, cfg, rng = attn_setup(key=12)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 8, 8))))
    candidates = (2, 4, 8)
    mix = Tensor(np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]))
    out = dynamic_window_attention(x, mix, candidates, params, cfg)
    branches = np.stack([windowed_mhsa(x, params, cfg, WindowSpec(c)).data
                         for c in candidates])
    lo, hi = branches.min(axis=0), branches.max(axis=0)
    assert np.all(out.data >= lo - 1e-9)
    assert np.all(out.data <= hi + 1e-9)


def test_hard_selection_picks_argmax_branch():
    params, cfg, rng = attn_setup(key=14)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 8, 8))))
    mix = Tensor([[0.3, 0.7]])
    out = dynamic_window_attention(x, mix, (2, 4), params, cfg, hard=True)
    ref = windowed_mhsa(x, params, cfg, WindowSpec(4))
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def test_hard_selection_tie_breaks_to_smaller_index():
    sel = hard_selection(Tensor([[0.5, 0.5], [0.2, 0.8]]))
    assert np.array_equal(sel.data, [[1.0, 0.0], [0.0, 1.0]])


def test_hard_selection_argmax_before_merging_duplicates():
    # merged first, the two 4x4 columns (0.35 + 0.25) would outvote window 2
    params, cfg, rng = attn_setup(key=18)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 4, 4))))
    mix = Tensor([[0.4, 0.35, 0.25]])
    out = dynamic_window_attention(x, mix, (2, 4, 4), params, cfg, hard=True)
    ref = windowed_mhsa(x, params, cfg, WindowSpec(2))
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def test_duplicate_windows_attended_once(monkeypatch):
    import dcswin.attention as attention

    params, cfg, rng = attn_setup(key=19)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 4, 4))))
    mix = Tensor([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    masks = []

    def counting(info):
        masks.append(info.spec)
        return attention_mask(info)

    # the op asks for one mask per window it attends
    monkeypatch.setattr(attention, "attention_mask", counting)
    out = dynamic_window_attention(x, mix, (2, 4, 4), params, cfg, shift=True)
    assert masks == [WindowSpec(2, 1), WindowSpec(4, 0)]
    monkeypatch.undo()
    b2 = windowed_mhsa(x, params, cfg, WindowSpec(2, 1)).data
    b4 = windowed_mhsa(x, params, cfg, WindowSpec(4, 0)).data
    w2 = mix.data[:, 0].reshape(2, 1, 1, 1)
    ref = w2 * b2 + (1.0 - w2) * b4
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_gradients_reach_mixture_weights():
    params, cfg, rng = attn_setup(key=15)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 4, 4))))
    mix = Tensor([[0.25, 0.75]], requires_grad=True)
    out = dynamic_window_attention(x, mix, (2, 4), params, cfg)
    T.backward(T.reduce_mean(T.mul(out, out)))
    assert mix.grad is not None
    assert np.all(np.isfinite(mix.grad)) and np.any(mix.grad != 0.0)


def test_zero_weight_everywhere_rejected():
    params, cfg, rng = attn_setup(key=16)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 4, 4))))
    with pytest.raises(ConfigError):
        dynamic_window_attention(x, Tensor([[0.0, 0.0]]), (2, 4), params, cfg)


def test_mixture_shape_mismatch_rejected():
    params, cfg, rng = attn_setup(key=17)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 4, 4))))
    with pytest.raises(ShapeError):
        dynamic_window_attention(x, Tensor([[1.0, 0.0]]), (2, 4), params, cfg)


# ---- the window op against the op chain it replaced -------------------------------

def chain_dynamic_window_attention(x, mixture, candidates, params, cfg,
                                   shift=False, hard=False):
    """`dynamic_window_attention` as a chain of ops: a slice per candidate,
    an add per duplicate window, and per live window the partition,
    projection, attention and reverse ops, then a reshape, a broadcast, a
    product and a running add."""
    weights = hard_selection(mixture) if hard else mixture
    b, h, w_sp, _ = x.data.shape
    columns = {}
    for i, cand in enumerate(candidates):
        s = cand // 2 if (shift and cand < min(h, w_sp)) else 0
        spec = WindowSpec(cand, s)
        col = T.slice_nd(weights, (slice(None), slice(i, i + 1)))
        columns[spec] = T.add(columns[spec], col) if spec in columns else col
    out = None
    for spec, col in columns.items():
        if np.all(col.data == 0.0):
            continue
        branch = chain_windowed_mhsa(x, params, cfg, spec)
        wmap = T.broadcast_to(T.reshape(col, (b, 1, 1, 1)), branch.shape)
        term = T.mul(branch, wmap)
        out = term if out is None else T.add(out, term)
    return out


def mixture_leaves(kind, rng, b, s):
    """The mixture and the leaf its gradient reaches: a softmax output (the
    gradient arrives as a tape flow), or a leaf with an all-zero column."""
    if kind == "softmax":
        logits = Tensor(rng.standard_normal((b, s)), requires_grad=True)
        return (lambda: T.softmax(logits, axis=1)), logits
    w = rng.uniform(0.1, 1.0, (b, s))
    w[:, 1] = 0.0
    leaf = Tensor(w, requires_grad=True)
    return (lambda: leaf), leaf


def assert_op_is_the_chain(side, candidates, shift, hard, kind):
    """Output, every input gradient and the mixture's gradient are the same
    bytes as the chain's, signs of zeros included, also when only the
    mixture needs a gradient, and the op is one tape entry."""
    params, cfg, rng = attn_setup(key=20)
    x = Tensor(channels_last(rng.standard_normal((2, 4, side, side))),
               requires_grad=True)
    mixture, leaf = mixture_leaves(kind, rng, 2, len(candidates))
    # a zero output projection makes every window's output exactly zero
    zeroed = AttentionParams.init(cfg, rng)
    for p in (params, zeroed):
        leaves = [x, *p.named("p").values()] + ([] if hard else [leaf])
        got = grads_after(lambda: dynamic_window_attention(
            x, mixture(), candidates, p, cfg, shift=shift, hard=hard),
            leaves)
        want = grads_after(lambda: chain_dynamic_window_attention(
            x, mixture(), candidates, p, cfg, shift=shift, hard=hard),
            leaves)
        assert got == want
    if not hard:
        # only the mixture needs a gradient: the rule rebuilds the windows'
        # map-order outputs and nothing else
        frozen = AttentionParams(**{k: Tensor(getattr(params, k).data)
                                    for k in params.__dataclass_fields__})
        fixed = Tensor(x.data)
        got = grads_after(lambda: dynamic_window_attention(
            fixed, mixture(), candidates, frozen, cfg, shift=shift), [leaf])
        want = grads_after(lambda: chain_dynamic_window_attention(
            fixed, mixture(), candidates, frozen, cfg, shift=shift), [leaf])
        assert got == want and got[1][0] is not None
    mix = mixture()
    with T.Tape() as tape:
        dynamic_window_attention(x, mix, candidates, params, cfg,
                                 shift=shift, hard=hard)
    assert len(tape) == 1


@pytest.mark.parametrize("candidates,shift", [
    ((2, 4), False), ((2, 4, 4), True), ((4, 2, 4), False),
    ((4, 2, 4, 2), True)])
@pytest.mark.parametrize("hard", [False, True])
@pytest.mark.parametrize("kind", ["softmax", "zero-column"])
def test_mixture_op_matches_the_op_chain_bit_for_bit(candidates, shift, hard,
                                                     kind):
    """Duplicates, a candidate listed twice and two duplicated pairs."""
    assert_op_is_the_chain(4, candidates, shift, hard, kind)


# (map side, candidates, shift): 5x5 pads under 2 and 4, and 4x4 under 3
# as in the micro model
PADDED = [(5, (2, 4), True), (5, (4, 2, 4), False), (4, (3, 2), True)]


@pytest.mark.parametrize("side,candidates,shift", PADDED)
@pytest.mark.parametrize("hard", [False, True])
@pytest.mark.parametrize("kind", ["softmax", "zero-column"])
def test_mixture_op_matches_the_op_chain_on_padded_maps(side, candidates,
                                                        shift, hard, kind):
    assert_op_is_the_chain(side, candidates, shift, hard, kind)


@pytest.mark.parametrize("side,candidates,shift",
                         [(4, (2, 4, 4), True), (4, (4, 2, 4, 2), True)]
                         + PADDED)
@pytest.mark.parametrize("hard", [False, True])
def test_mixture_op_without_a_graph_is_the_op_chain(side, candidates, shift,
                                                   hard):
    """Under no_grad, and inside a request scope whose second call reuses
    the first call's buffers, the output is the chain's bytes."""
    params, cfg, rng = attn_setup(key=21)
    x = Tensor(channels_last(rng.standard_normal((3, 4, side, side))))
    mix = Tensor(rng.uniform(0.1, 1.0, (3, len(candidates))))
    want = chain_dynamic_window_attention(x, mix, candidates, params, cfg,
                                          shift=shift, hard=hard)
    with T.no_grad():
        got = [dynamic_window_attention(x, mix, candidates, params, cfg,
                                        shift=shift, hard=hard)]
        with T._request_buffers():
            for _ in range(2):
                got.append(dynamic_window_attention(
                    x, mix, candidates, params, cfg, shift=shift, hard=hard))
                assert got[-1].data.tobytes() == want.data.tobytes()
    assert got[0].data.tobytes() == want.data.tobytes()


def test_mixture_op_rejects_bad_column_groups():
    """A mixture needs one [B]-long column per spec, and an unmixed call
    one spec."""
    params, cfg, rng = attn_setup(key=22)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 4, 4))))
    specs = (WindowSpec(2), WindowSpec(4))
    for shape in [(3, 2), (2, 3), (2, 1), (2,)]:
        with pytest.raises(ShapeError, match="mixture shape"):
            window_attention(x, params, cfg, specs, Tensor(np.ones(shape)))
    with pytest.raises(ShapeError):
        window_attention(x, params, cfg, specs)
    with pytest.raises(ShapeError):
        window_attention(x, params, AttentionConfig(8, 2), specs[:1])
