"""Scale-field prediction, the per-sample mixture, and mixture-weighted
attention."""
import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import (AttentionConfig, AttentionParams, WindowSpec,
                              windowed_mhsa)
from dcswin.dynamic_window import (ScaleField, StageMixture,
                                   dynamic_window_attention, hard_selection,
                                   pool_to_stage, predict_scales)
from dcswin.errors import ConfigError, ShapeError
from dcswin.rng import stream
from dcswin.tensor import Tensor


def channels_last(a):
    """[B,C,H,W] draws as the contiguous [B,H,W,C] map the model uses."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def attn_setup(dim=4, heads=2, key=0):
    rng = stream(key, "t-dynwin")
    cfg = AttentionConfig(dim, heads)
    return AttentionParams.init(cfg, rng, zero_out=False), cfg, rng


# ---- field / mixture types ------------------------------------------------------

def uniform_field(b=1, s=2, h=4, w=4, candidates=(2, 4)):
    return ScaleField(Tensor(np.full((b, s, h, w), 1.0 / s)), candidates)


def test_scale_field_validation():
    uniform_field()  # valid
    with pytest.raises(ShapeError):
        ScaleField(Tensor(np.full((2, 4, 4), 0.5)), (2, 4))
    with pytest.raises(ConfigError):
        ScaleField(Tensor(np.full((1, 3, 4, 4), 1 / 3)), (2, 4))
    with pytest.raises(ConfigError):
        ScaleField(Tensor(np.ones((1, 1, 4, 4))), (2,))
    with pytest.raises(ConfigError):
        ScaleField(Tensor(np.full((1, 2, 4, 4), 0.5)), (0, 4))
    with pytest.raises(ConfigError):
        ScaleField(Tensor(np.full((1, 2, 4, 4), 0.5)), (2, 8))
    with pytest.raises(ConfigError):
        ScaleField(Tensor(np.full((1, 2, 4, 4), 0.3)), (2, 4))


def test_stage_mixture_validation():
    StageMixture(Tensor([[0.25, 0.75]]))
    with pytest.raises(ShapeError):
        StageMixture(Tensor([0.25, 0.75]))
    with pytest.raises(ConfigError):
        StageMixture(Tensor([[0.5, 0.1]]))
    with pytest.raises(ConfigError):
        StageMixture(Tensor([[1.5, -0.5]]))


# ---- predict_scales ---------------------------------------------------------------

def test_predict_scales_zero_logits_uniform():
    rng = stream(1, "t-dynwin")
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    field = predict_scales(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)),
                           (2, 4))
    assert np.allclose(field.probs.data, 0.5, atol=1e-15)


def test_predict_scales_bias_saturation():
    rng = stream(2, "t-dynwin")
    x = Tensor(rng.standard_normal((1, 3, 4, 4)) * 0.01)
    b = np.zeros(3)
    b[1] = 20.0
    field = predict_scales(x, Tensor(np.zeros((3, 3))), Tensor(b), (2, 3, 4))
    assert np.all(field.probs.data[:, 1] > 1.0 - 1e-6)


def test_predict_scales_rows_sum_to_one():
    rng = stream(3, "t-dynwin")
    x = Tensor(rng.standard_normal((2, 3, 5, 6)))
    w = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(rng.standard_normal(3))
    field = predict_scales(x, w, b, (2, 3, 5))
    assert np.allclose(field.probs.data.sum(axis=1), 1.0, atol=1e-9)


def test_predict_scales_translation_consistent():
    # 1x1 conv + pointwise softmax: rolling the image rolls the field exactly
    rng = stream(4, "t-dynwin")
    x = rng.standard_normal((1, 3, 6, 6))
    w = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal(2))
    f0 = predict_scales(Tensor(x), w, b, (2, 4)).probs.data
    f1 = predict_scales(Tensor(np.roll(x, (2, 3), axis=(2, 3))), w, b,
                        (2, 4)).probs.data
    assert np.array_equal(f1, np.roll(f0, (2, 3), axis=(2, 3)))


def test_predict_scales_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ConfigError):
        predict_scales(x, Tensor(np.zeros((1, 3))), Tensor(np.zeros(1)), (4,))
    with pytest.raises(ConfigError):
        predict_scales(x, Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)), (2, 4))


# ---- pool_to_stage ----------------------------------------------------------------

def test_pool_constant_field_keeps_distribution():
    probs = np.zeros((2, 3, 8, 8))
    probs[:, 0], probs[:, 1], probs[:, 2] = 0.5, 0.3, 0.2
    field = ScaleField(Tensor(probs), (2, 4, 8))
    mix = pool_to_stage(field)
    assert np.allclose(mix.weights.data, [[0.5, 0.3, 0.2]] * 2, atol=1e-12)


def test_pool_one_hot_field_stays_one_hot():
    probs = np.zeros((1, 2, 4, 4))
    probs[:, 1] = 1.0
    field = ScaleField(Tensor(probs), (2, 4))
    mix = pool_to_stage(field)
    assert np.allclose(mix.weights.data, [[0.0, 1.0]], atol=1e-12)


def test_pool_mixes_spatial_regions_and_renormalizes():
    probs = np.zeros((1, 2, 4, 4))
    probs[:, 0, :2] = 1.0   # top half votes scale 0
    probs[:, 1, 2:] = 1.0   # bottom half votes scale 1
    field = ScaleField(Tensor(probs), (2, 4))
    mix = pool_to_stage(field)
    assert np.allclose(mix.weights.data, [[0.5, 0.5]], atol=1e-12)
    assert np.allclose(mix.weights.data.sum(axis=1), 1.0, atol=1e-9)


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


def test_stage_mixture_object_accepted():
    params, cfg, rng = attn_setup(key=13)
    x = Tensor(channels_last(rng.standard_normal((1, 4, 4, 4))))
    mix = StageMixture(Tensor([[0.25, 0.75]]))
    out = dynamic_window_attention(x, mix, (2, 4), params, cfg)
    assert out.data.shape == x.data.shape


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
    import dcswin.dynamic_window as dw

    params, cfg, rng = attn_setup(key=19)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 4, 4))))
    mix = Tensor([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    specs = []

    def counting(x, params, cfg, spec):
        specs.append(spec)
        return windowed_mhsa(x, params, cfg, spec)

    monkeypatch.setattr(dw, "windowed_mhsa", counting)
    out = dynamic_window_attention(x, mix, (2, 4, 4), params, cfg, shift=True)
    assert specs == [WindowSpec(2, 1), WindowSpec(4, 0)]
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
