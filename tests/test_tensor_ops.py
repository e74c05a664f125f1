"""Forward semantics and tape behavior of the tensor core."""
import math

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.errors import NumericsError, ShapeError, TapeError
from dcswin.tensor import Tensor, backward, no_grad


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def channels_last(a):
    """[B,C,H,W] draws as the contiguous [B,H,W,C] map the model uses."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


# ---- arithmetic & shape ops -------------------------------------------------

def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = Tensor(rng.standard_normal((3, 5)))
    out = T.matmul(Tensor(np.eye(3)), m)
    assert np.allclose(out.data, m.data, atol=1e-15)


def test_matmul_batch_broadcast_matches_einsum():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((4, 1, 3, 5)))
    b = Tensor(rng.standard_normal((1, 2, 5, 7)))
    out = T.matmul(a, b)
    ref = np.einsum("xymk,xykn->xymn",
                    np.broadcast_to(a.data, (4, 2, 3, 5)),
                    np.broadcast_to(b.data, (4, 2, 5, 7)))
    assert out.data.shape == (4, 2, 3, 7)
    assert np.allclose(out.data, ref, atol=1e-12)


def test_matmul_inner_dim_mismatch_names_shapes():
    with pytest.raises(ShapeError) as err:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_no_implicit_broadcasting_on_add():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3,))))


def test_broadcast_to_backward_sums_over_expanded_axes():
    x = leaf(np.arange(3.0))
    out = T.broadcast_to(T.reshape(x, (1, 3)), (4, 3))
    backward(T.reduce_sum(out))
    assert np.array_equal(x.grad, [4.0, 4.0, 4.0])


def test_reshape_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)))
    there = T.reshape(x, (4 * 5, 2, 3))
    back = T.reshape(there, (2, 3, 4, 5))
    assert np.array_equal(back.data, x.data)


def test_reshape_count_mismatch():
    with pytest.raises(ShapeError):
        T.reshape(Tensor(np.zeros((2, 3))), (7,))


def test_permute_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    perm = (2, 0, 1)
    inverse = tuple(np.argsort(perm))
    assert np.array_equal(T.permute(T.permute(x, perm), inverse).data, x.data)


def test_roll_matches_numpy_and_inverts():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)))
    rolled = T.roll(x, (-2, -1), (2, 3))
    assert np.array_equal(rolled.data, np.roll(x.data, (-2, -1), (2, 3)))
    assert np.array_equal(T.roll(rolled, (2, 1), (2, 3)).data, x.data)


def test_pad2d_and_slice_strip_roundtrip():
    rng = np.random.default_rng(5)
    x = Tensor(channels_last(rng.standard_normal((1, 2, 3, 5))))
    padded = T.pad2d(x, 2, 1)
    assert padded.data.shape == (1, 5, 6, 2)
    assert np.all(padded.data[:, 3:, :, :] == 0)
    assert np.all(padded.data[:, :, 5:, :] == 0)
    stripped = T.slice_nd(padded, (slice(None), slice(0, 3), slice(0, 5)))
    assert np.array_equal(stripped.data, x.data)


def test_concat_forward_and_backward_split():
    a, b = leaf(np.ones((2, 2))), leaf(np.full((3, 2), 2.0))
    out = T.concat([a, b], axis=0)
    assert out.data.shape == (5, 2)
    backward(T.reduce_sum(T.mul(out, Tensor(np.arange(10.0).reshape(5, 2)))))
    assert np.array_equal(a.grad, np.arange(4.0).reshape(2, 2))
    assert np.array_equal(b.grad, np.arange(4.0, 10.0).reshape(3, 2))


def test_mean_pool_constant_map():
    x = Tensor(np.full((2, 3, 4, 4), 1.5))
    out = T.mean_pool(x, (2, 3))
    assert np.allclose(out.data, 1.5, atol=1e-15)
    assert out.data.shape == (2, 3)


def test_avg_pool2d_matches_block_means():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 6))
    out = T.avg_pool2d(Tensor(channels_last(x)), 2, 3)
    ref = x.reshape(2, 3, 2, 2, 2, 3).mean(axis=(3, 5))
    assert np.allclose(out.data, channels_last(ref), atol=1e-12)
    with pytest.raises(ShapeError):
        T.avg_pool2d(Tensor(channels_last(x)), 3)


# ---- softmax / cross entropy --------------------------------------------------

def test_softmax_uniform_on_zero_logits():
    out = T.softmax(Tensor(np.zeros((2, 3))), axis=1)
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_worked_example():
    out = T.softmax(Tensor([[0.0, math.log(3.0)]]), axis=1)
    assert np.allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_shift_invariance_and_rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 8))
    a = T.softmax(Tensor(x), axis=1).data
    b = T.softmax(Tensor(x + 123.456), axis=1).data
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.min(a) > 0
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_handles_large_logits():
    out = T.softmax(Tensor([[1000.0, 0.0]]), axis=1)
    assert np.isfinite(out.data).all()
    assert abs(out.data[0, 0] - 1.0) < 1e-12


def test_cross_entropy_uniform_prediction():
    logits = Tensor(np.zeros((3, 4)))
    loss = T.cross_entropy(logits, np.array([0, 1, 2]))
    assert abs(float(loss.data) - math.log(4.0)) < 1e-12


def test_cross_entropy_confident_correct_prediction():
    logits = np.zeros((1, 4))
    logits[0, 2] = 60.0
    loss = T.cross_entropy(Tensor(logits), np.array([2]))
    assert float(loss.data) < 1e-12
    assert np.isfinite(loss.data)


def test_cross_entropy_matches_manual_log_softmax():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((6, 5))
    targets = rng.integers(0, 5, size=6)
    loss = T.cross_entropy(Tensor(logits), targets)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    ref = -logp[np.arange(6), targets].mean()
    assert abs(float(loss.data) - ref) < 1e-12


def test_cross_entropy_uniform_weight_is_exact_scaling():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((4, 3))
    targets = np.array([0, 2, 1, 1])
    base = T.cross_entropy(Tensor(logits), targets)
    weighted = T.cross_entropy(Tensor(logits), targets,
                               weights=np.full(4, 0.8))
    assert float(weighted.data) == 0.8 * float(base.data)


def test_cross_entropy_per_sample_weights():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((3, 4))
    targets = np.array([1, 0, 3])
    w = np.array([0.5, 1.0, 2.0])
    loss = T.cross_entropy(Tensor(logits), targets, weights=w)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    ref = -(w * logp[np.arange(3), targets]).mean()
    assert abs(float(loss.data) - ref) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_empty_batch():
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor(np.zeros((0, 3))), np.array([], dtype=int))


# ---- layer_norm / conv1x1 -----------------------------------------------------

def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    out = T.layer_norm(x, T.ones((5,)), T.zeros((5,)))
    assert np.max(np.abs(out.data)) < 1e-3  # eps-dominated, near zero


def test_layer_norm_two_point_example():
    out = T.layer_norm(Tensor([[1.0, 3.0]]), T.ones((2,)), T.zeros((2,)),
                       eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_statistics():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((10, 32)))
    out = T.layer_norm(x, T.ones((32,)), T.zeros((32,))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4


def test_conv1x1_identity():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    out = T.conv1x1(x, Tensor(np.eye(3)), T.zeros((3,)))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_conv1x1_row_of_ones_sums_channels():
    x = np.zeros((1, 3, 2, 2))
    x[0, 0], x[0, 1], x[0, 2] = 1.0, 2.0, 4.0
    out = T.conv1x1(Tensor(x), Tensor(np.ones((1, 3))), T.zeros((1,)))
    assert np.allclose(out.data, 7.0, atol=1e-15)


def test_conv1x1_matches_reshape_matmul():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 5, 3, 4))
    w = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    out = T.conv1x1(Tensor(x), Tensor(w), Tensor(b))
    flat = x.transpose(0, 2, 3, 1).reshape(-1, 5)
    ref = (flat @ w.T + b).reshape(2, 3, 4, 7).transpose(0, 3, 1, 2)
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_conv1x1_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv1x1(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((4, 5))))


# ---- fused ops against the composites they replace -------------------------------

def composite_linear(x, w, b):
    y = T.matmul(x, w)
    shape = (1,) * (y.data.ndim - 1) + (b.data.shape[-1],)
    return T.add(y, T.broadcast_to(T.reshape(b, shape), y.shape))


def composite_layer_norm(x, gamma, beta, eps=1e-5):
    c = x.data.shape[-1]
    mu = T.reduce_mean(x, axis=-1, keepdims=True)
    xc = T.sub(x, T.broadcast_to(mu, x.shape))
    var = T.reduce_mean(T.mul(xc, xc), axis=-1, keepdims=True)
    denom = T.sqrt(T.add_scalar(var, eps))
    xn = T.div(xc, T.broadcast_to(denom, x.shape))
    pshape = (1,) * (x.data.ndim - 1) + (c,)
    g = T.broadcast_to(T.reshape(gamma, pshape), x.shape)
    b = T.broadcast_to(T.reshape(beta, pshape), x.shape)
    return T.add(T.mul(xn, g), b)


def composite_masked_softmax(a, mask):
    return T.softmax(T.add(a, T.broadcast_to(Tensor(mask), a.shape)), axis=-1)


def _value_and_grads(fn, leaves):
    """Forward value and the grads of a fixed random projection of it."""
    for t in leaves:
        t.grad = None
    out = fn(*leaves)
    probe = np.random.default_rng(99).standard_normal(out.data.shape)
    backward(T.reduce_sum(T.mul(out, Tensor(probe))))
    return out.data.copy(), [t.grad.copy() for t in leaves]


def _assert_same_op(fused, composite, leaves):
    out_f, grads_f = _value_and_grads(fused, leaves)
    out_c, grads_c = _value_and_grads(composite, leaves)
    assert out_f.shape == out_c.shape
    assert np.max(np.abs(out_f - out_c)) <= 1e-12
    for gf, gc in zip(grads_f, grads_c):
        assert gf.shape == gc.shape
        assert np.max(np.abs(gf - gc)) <= 1e-12


@pytest.mark.parametrize("xshape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
def test_linear_matches_composite(xshape):
    rng = np.random.default_rng(20 + len(xshape))
    leaves = [leaf(rng.standard_normal(xshape)), leaf(rng.standard_normal((4, 6))),
              leaf(rng.standard_normal(6))]
    _assert_same_op(T.linear, composite_linear, leaves)


def test_linear_without_bias_and_bad_shapes():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    out = T.linear(Tensor(x), Tensor(w))
    assert np.max(np.abs(out.data - x @ w)) <= 1e-12
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(np.zeros((3, 5))))
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(w), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros(4)), Tensor(w))


@pytest.mark.parametrize("xshape", [(5, 8), (2, 3, 8), (2, 2, 3, 8)])
def test_layer_norm_matches_composite(xshape):
    rng = np.random.default_rng(30 + len(xshape))
    leaves = [leaf(rng.standard_normal(xshape) * 3.0 + 1.0),
              leaf(rng.uniform(0.5, 1.5, size=8)), leaf(rng.standard_normal(8))]
    _assert_same_op(T.layer_norm, composite_layer_norm, leaves)


def test_layer_norm_overflowing_squares_raise():
    # the squared deviations overflow; the op must not quietly return beta
    x = Tensor(np.array([[1e200, -1e200, 0.0]]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.layer_norm(x, T.ones((3,)), T.zeros((3,)))


def test_layer_norm_param_shape_mismatch():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 4))), T.ones((3,)), T.zeros((4,)))


@pytest.mark.parametrize("ashape,mshape", [
    ((3, 5), (3, 5)),          # same shape
    ((4, 3, 5), (3, 5)),       # broadcast over a leading axis
    ((2, 3, 4, 5, 5), (3, 1, 5, 5)),  # the attention layout [B, nW, h, L, L]
])
def test_masked_softmax_matches_composite(ashape, mshape):
    rng = np.random.default_rng(40 + len(ashape))
    mask = np.where(rng.uniform(size=mshape) < 0.3, -1e9, 0.0)
    mask[..., 0] = 0.0  # every row keeps an allowed entry
    assert np.any(mask == -1e9)
    leaves = [leaf(rng.standard_normal(ashape) * 2.0)]
    _assert_same_op(lambda a: T.softmax(a, axis=-1, mask=mask),
                    lambda a: composite_masked_softmax(a, mask), leaves)
    probs = T.softmax(Tensor(leaves[0].data), axis=-1, mask=mask).data
    assert np.all(probs[np.broadcast_to(mask, ashape) < 0] < 1e-12)


def test_masked_softmax_rejects_bad_masks():
    a = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        T.softmax(a, mask=np.zeros((3, 3)))
    with pytest.raises(ShapeError):  # would grow the output
        T.softmax(a, mask=np.zeros((5, 2, 3, 4)))
    with pytest.raises(NumericsError):
        T.softmax(a, mask=np.full((3, 4), np.nan))


def test_gelu_matches_tanh_form():
    x = np.linspace(-6.0, 6.0, 101)
    c = math.sqrt(2.0 / math.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
    assert np.max(np.abs(T.gelu(Tensor(x)).data - ref)) <= 1e-14


# ---- backward contracts --------------------------------------------------------

def test_backward_sum_gives_ones():
    x = leaf(np.arange(6.0).reshape(2, 3))
    backward(T.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = leaf([1.0, 2.0])
    backward(T.reduce_sum(T.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_requires_scalar():
    x = leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        backward(T.add(x, x))


def test_backward_twice_is_an_error():
    x = leaf(np.ones(3))
    loss = T.reduce_sum(T.mul(x, x))
    backward(loss)
    with pytest.raises(TapeError):
        backward(loss)


def test_explicit_tape_requires_reset():
    x = leaf(np.ones(3))
    with T.Tape() as tape:
        loss = T.reduce_sum(x)
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)


def test_grad_accumulates_across_shared_leaf():
    x = leaf([2.0])
    loss = T.add(T.mul(x, x), T.scale(x, 3.0))  # x^2 + 3x
    backward(T.reduce_sum(loss))
    assert np.allclose(x.grad, [7.0], atol=1e-15)


def test_no_grad_blocks_recording():
    x = leaf(np.ones(3))
    with no_grad():
        out = T.reduce_sum(T.mul(x, x))
    assert out._tape is None
    with pytest.raises(TapeError):
        backward(out)


def test_detach_stops_gradient():
    x = leaf([3.0])
    out = T.reduce_sum(T.mul(T.detach(x), x))
    backward(out)
    assert np.allclose(x.grad, [3.0], atol=1e-15)  # only the live branch


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(14)
    data = rng.standard_normal((4, 6))
    a = T.softmax(T.matmul(Tensor(data), Tensor(data.T)), axis=1).data
    b = T.softmax(T.matmul(Tensor(data), Tensor(data.T)), axis=1).data
    assert np.array_equal(a, b)


# ---- checked mode ---------------------------------------------------------------

def test_checked_mode_rejects_nan_input():
    assert T.is_checked()
    with pytest.raises(NumericsError):
        Tensor(np.array([1.0, np.nan]))


def test_checked_mode_rejects_inf_result():
    x = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.add(x, x)


def test_checked_mode_can_be_disabled():
    with T.checked_mode(False):
        t = Tensor(np.array([np.inf]))
        assert np.isinf(t.data).all()
    assert T.is_checked()


def test_grad_shape_matches_leaf():
    x = leaf(np.ones((3, 4)))
    backward(T.reduce_sum(T.scale(x, 2.0)))
    assert x.grad.shape == (3, 4)


def test_trunc_normal_within_two_deviations():
    rng = np.random.default_rng(15)
    t = T.trunc_normal((1000,), rng, std=0.02)
    assert np.max(np.abs(t.data)) <= 0.04 + 1e-15
    assert 0.01 < t.data.std() < 0.03
