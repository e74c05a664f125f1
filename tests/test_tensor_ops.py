"""Forward semantics and tape behavior of the tensor core."""
import math

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import WindowSpec, attention_mask, window_partition
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


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


@pytest.mark.parametrize("targets", [np.array([0.7, 1.9]),
                                     np.array([0.0, 1.0]),
                                     np.array([True, False])])
def test_cross_entropy_rejects_non_integer_targets(targets):
    with pytest.raises(TypeError, match="integers"):
        T.cross_entropy(Tensor(np.zeros((2, 3))), targets)


def test_cross_entropy_empty_batch():
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor(np.zeros((0, 3))), np.array([], dtype=int))


# ---- layer_norm / conv1x1 -----------------------------------------------------

def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    out = T.layer_norm(x, T.ones((5,)), T.zeros((5,)))
    assert np.max(np.abs(out.data)) < 1e-3  # eps-dominated, near zero


def test_layer_norm_two_point_example():
    # mean 2 and variance 1, so the two points normalize to +-1/sqrt(1+eps)
    out = T.layer_norm(Tensor([[1.0, 3.0]]), T.ones((2,)), T.zeros((2,)))
    want = 1.0 / np.sqrt(1.0 + T._LN_EPS)
    assert np.allclose(out.data, [[-want, want]], rtol=0.0, atol=1e-12)


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
        T.conv1x1(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((4, 5))),
                  T.zeros((4,)))


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


def composite_attention(q, k, v, num_heads, mask=None):
    """The per-op chain `multihead_attention` replaced: head-split copies,
    k^T, a scaled matmul, a tiled mask added through `broadcast_to`,
    softmax, and the head merge."""
    n, lq, c = q.data.shape
    lk = k.data.shape[1]
    d = c // num_heads

    def heads(t, length):
        return T.permute(T.reshape(t, (n, length, num_heads, d)), (0, 2, 1, 3))

    logits = T.scale(T.matmul(heads(q, lq), T.permute(heads(k, lk), (0, 1, 3, 2))),
                     1.0 / np.sqrt(d))
    if mask is not None:
        tiled = np.tile(mask, (n // mask.shape[0], 1, 1))[:, None]
        logits = T.add(logits, T.broadcast_to(Tensor(tiled), logits.shape))
    ctx = T.matmul(T.softmax(logits, axis=-1), heads(v, lk))
    return T.reshape(T.permute(ctx, (0, 2, 1, 3)), (n, lq, c))


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


def test_linear_bad_shapes():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = T.zeros((5,))
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(np.zeros((3, 5))), b)
    with pytest.raises(ShapeError):
        T.linear(Tensor(x), Tensor(w), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.linear(Tensor(np.zeros(4)), Tensor(w), b)


@pytest.mark.parametrize("xshape", [(5, 8), (2, 3, 8), (2, 2, 3, 8)])
def test_layer_norm_matches_composite(xshape):
    rng = np.random.default_rng(30 + len(xshape))
    leaves = [leaf(rng.standard_normal(xshape) * 3.0 + 1.0),
              leaf(rng.uniform(0.5, 1.5, size=8)), leaf(rng.standard_normal(8))]
    _assert_same_op(T.layer_norm, composite_layer_norm, leaves)


def chain_patch_embed(x, w, b, p):
    """`patch_embed` as the chain of ops it replaced."""
    bsz, c, h, w_sp = x.shape
    t = T.reshape(x, (bsz, c, h // p, p, w_sp // p, p))
    t = T.permute(t, (0, 2, 4, 1, 3, 5))
    return T.linear(T.reshape(t, (bsz, h // p, w_sp // p, c * p * p)), w, b)


@pytest.mark.parametrize("shape,p", [((2, 3, 8, 8), 4), ((1, 3, 4, 6), 2),
                                     ((2, 2, 3, 3), 1)])
@pytest.mark.parametrize("x_grad", [True, False])
def test_patch_embed_is_the_op_chain_bit_for_bit(shape, p, x_grad):
    """Output and every gradient are the same bytes as the chain's, and
    the op is one tape entry."""
    rng = np.random.default_rng(40)
    x = Tensor(rng.standard_normal(shape), requires_grad=x_grad)
    k = shape[1] * p * p
    w, b = leaf(rng.standard_normal((k, 5))), leaf(rng.standard_normal(5))
    leaves = [x, w, b] if x_grad else [w, b]

    def run(op):
        for t in leaves:
            t.grad = None
        out = op(x, w, b, p)
        probe = np.linspace(-1.3, 0.7, out.data.size).reshape(out.shape)
        backward(T.reduce_sum(T.mul(out, Tensor(probe))))
        return out.data.tobytes(), [t.grad.tobytes() for t in leaves]

    assert run(T.patch_embed) == run(chain_patch_embed)
    with T.Tape() as tape:
        T.patch_embed(x, w, b, p)
    assert len(tape) == 1


def test_patch_embed_rejects_bad_shapes():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w, b = Tensor(np.zeros((12, 2))), Tensor(np.zeros(2))
    for args in ((x, w, b, 3), (Tensor(np.zeros((3, 4, 4))), w, b, 2),
                 (x, Tensor(np.zeros((8, 2))), b, 2),
                 (x, w, Tensor(np.zeros(3)), 2)):
        with pytest.raises(ShapeError, match="patch_embed"):
            T.patch_embed(*args)


def test_layer_norm_overflowing_squares_raise():
    # the squared deviations overflow; the op must not quietly return beta
    x = Tensor(np.array([[1e200, -1e200, 0.0]]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.layer_norm(x, T.ones((3,)), T.zeros((3,)))


def test_layer_norm_param_shape_mismatch():
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 4))), T.ones((3,)), T.zeros((4,)))


def four_op_mlp(x, gamma, beta, w1, b1, w2, b2):
    """The chain `mlp_branch` replaced."""
    n = T.layer_norm(x, gamma, beta)
    return T.linear(T.gelu(T.linear(n, w1, b1)), w2, b2)


def _mlp_leaves(xshape, seed, needs=(True,) * 7):
    rng = np.random.default_rng(seed)
    c, h = xshape[-1], 2 * xshape[-1] + 1
    draws = (rng.standard_normal(xshape) * 2.0 + 0.5,
             rng.uniform(0.5, 1.5, size=c), rng.standard_normal(c),
             rng.standard_normal((c, h)), rng.standard_normal(h),
             rng.standard_normal((h, c)), rng.standard_normal(c))
    return [Tensor(d, requires_grad=need) for d, need in zip(draws, needs)]


def _bits(arrays):
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


# x, gamma, beta, w1, b1, w2, b2: all, the weights alone, fc2 alone
MLP_NEEDS = [(True,) * 7, (False,) * 3 + (True,) * 4,
             (False,) * 5 + (True,) * 2]


@pytest.mark.parametrize("needs", MLP_NEEDS)
@pytest.mark.parametrize("xshape", [(5, 4), (2, 3, 5, 6)])
def test_mlp_branch_is_the_four_op_chain_bit_for_bit(xshape, needs):
    """Output and input gradients, alone and beside the residual `add` a
    block puts around it (whose flow into x it adds to), are the same
    bytes as the chain's."""
    leaves = _mlp_leaves(xshape, 50 + len(xshape), needs)
    probe = Tensor(np.random.default_rng(51).standard_normal(xshape))

    def run(branch, residual, grad=True):
        for t in leaves:
            t.grad = None
        out = branch(*leaves)
        if residual:
            out = T.add(leaves[0], out)
        if grad:
            backward(T.reduce_sum(T.mul(out, probe)))
        return _bits([out.data] + [t.grad for t in leaves])

    for residual in (False, True):
        assert run(T.mlp_branch, residual) == run(four_op_mlp, residual)
    with no_grad():
        assert run(T.mlp_branch, False, False) == run(four_op_mlp, False,
                                                      False)


def test_mlp_branch_in_a_request_scope_matches_the_chain():
    """Inside a request scope the op draws recycled buffers, and a held
    output keeps its bytes while later calls reuse the dead ones."""
    leaves = _mlp_leaves((2, 3, 5, 6), 52)
    with no_grad():
        want = four_op_mlp(*leaves).data.tobytes()
        with T._request_buffers():
            held = T.mlp_branch(*leaves)
            for _ in range(3):
                assert T.mlp_branch(*leaves).data.tobytes() == want
            assert held.data.tobytes() == want


def test_mlp_branch_rejects_mismatched_shapes():
    leaves = _mlp_leaves((3, 4), 53)
    for i, bad in ((1, (5,)), (3, (5, 9)), (4, (8,)), (5, (9, 5)),
                   (6, (5,))):
        args = list(leaves)
        args[i] = Tensor(np.zeros(bad))
        with pytest.raises(ShapeError):
            T.mlp_branch(*args)


def _window_mask(side, spec):
    """The model's additive mask for a side x side map under `spec`."""
    _, info = window_partition(Tensor(np.zeros((1, side, side, 1))), spec)
    return attention_mask(info)


# heads, images, Lq, Lk, width, mask
ATTENTION_CASES = {
    "1head-unmasked": (1, 3, 4, 6, 5, None),
    "2heads-shifted": (2, 2, 4, 4, 6, "shifted"),     # 4 windows, seam pairs
    "3heads-lq-ne-lk-masked": (3, 2, 3, 7, 6, "random"),
    "4heads-padded": (4, 2, 4, 4, 8, "padded"),       # 9 windows, pad + seam
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_multihead_attention_matches_composite(case):
    heads, images, lq, lk, c, kind = ATTENTION_CASES[case]
    rng = np.random.default_rng(40 + heads)
    mask = None
    if kind == "shifted":
        mask = _window_mask(4, WindowSpec(2, 1))
    elif kind == "padded":
        mask = _window_mask(5, WindowSpec(2, 1))
    elif kind == "random":
        mask = np.where(rng.uniform(size=(2, lq, lk)) < 0.4, -1e9, 0.0)
        mask[..., 0] = 0.0  # every row keeps an allowed entry
    n = images * (1 if mask is None else mask.shape[0])
    assert mask is None or np.any(mask == -1e9)
    leaves = [leaf(rng.standard_normal((n, lq, c)) * 2.0),
              leaf(rng.standard_normal((n, lk, c)) * 2.0),
              leaf(rng.standard_normal((n, lk, c)))]
    _assert_same_op(lambda q, k, v: T.multihead_attention(q, k, v, heads, mask),
                    lambda q, k, v: composite_attention(q, k, v, heads, mask),
                    leaves)


def test_multihead_attention_mask_saturates():
    rng = np.random.default_rng(45)
    q, k, v = (Tensor(rng.standard_normal(s) * 3.0)
               for s in ((2, 3, 4), (2, 5, 4), (2, 5, 4)))
    mask = np.full((3, 5), -1e9)
    mask[:, 2] = 0.0
    weights = T._attention_probs(q.data, k.data, 2, mask)[0]
    assert weights.shape == (2, 2, 3, 5)
    assert np.all(np.delete(weights, 2, axis=-1) < 1e-12)
    # every query of every head reads value row 2 alone
    out = T.multihead_attention(q, k, v, 2, mask).data
    assert np.allclose(out, np.broadcast_to(v.data[:, 2:3], out.shape),
                       atol=1e-12)


def test_multihead_attention_rejects_bad_masks():
    q, k = Tensor(np.zeros((4, 3, 4))), Tensor(np.zeros((4, 5, 4)))
    with pytest.raises(ShapeError):  # 3 window blocks do not tile 4 windows
        T.multihead_attention(q, k, k, 2, np.zeros((3, 3, 5)))
    with pytest.raises(ShapeError):  # blocks of the wrong Lq x Lk
        T.multihead_attention(q, k, k, 2, np.zeros((2, 5, 3)))
    with pytest.raises(NumericsError):
        T.multihead_attention(q, k, k, 2, np.full((2, 3, 5), np.nan))
    with pytest.raises(ShapeError):  # 3 heads do not split width 4
        T.multihead_attention(q, k, k, 3)
    with pytest.raises(ShapeError):
        T.multihead_attention(q, k, Tensor(np.zeros((4, 6, 4))), 2)
    with pytest.raises(ShapeError):
        T.multihead_attention(q, Tensor(np.zeros((4, 5, 6))),
                              Tensor(np.zeros((4, 5, 6))), 2)


def test_gelu_matches_tanh_form():
    x = np.linspace(-6.0, 6.0, 101)
    c = math.sqrt(2.0 / math.pi)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
    assert np.max(np.abs(T.gelu(Tensor(x)).data - ref)) <= 1e-14


def test_gelu_rounds_as_the_one_expression_form():
    # the buffer-reusing kernels must round exactly as the plain formulas
    rng = np.random.default_rng(46)
    x = np.concatenate([np.linspace(-8.0, 8.0, 401), [0.0],
                        rng.choice([-1.0, 1.0], 400)
                        * 10.0 ** rng.uniform(-300.0, 100.0, 400)])
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    th = np.tanh(c * (x + a * (x * x * x)))
    g = rng.standard_normal(x.shape)
    d = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * c * (1.0 + 3.0 * a * x * x)
    xt = leaf(x)
    out = T.gelu(xt)
    backward(T.reduce_sum(T.mul(out, Tensor(g))))
    assert np.array_equal(out.data, 0.5 * x * (1.0 + th))
    assert np.array_equal(xt.grad, g * d)


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
    with pytest.raises(TapeError):
        T.Tape().backward(leaf([1.0]))  # a leaf has no entry on a tape
    with T.Tape() as tape:
        loss = T.reduce_sum(x)
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)
    tape.reset()
    with pytest.raises(TapeError):
        tape.backward(loss)  # consumed: its entries went with the reset


def test_rule_returning_a_gradient_short_is_an_error():
    """A rule must give one gradient per input: one too few would leave
    the last input without a gradient, and its optimizer would step it as
    if that gradient were zero."""
    a, b = leaf(np.ones(3)), leaf(np.ones(3))
    out = T._finish(a.data + b.data, (a, b), lambda g: (g,), "short")
    with pytest.raises(TapeError):
        backward(T.reduce_sum(out))


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


# ---- request buffers ------------------------------------------------------------

def _address(a):
    return a.__array_interface__["data"][0]


def test_request_scope_keeps_held_outputs_and_recycles_dead_ones():
    """Inside a request scope an `add` output that is still held keeps its
    values while later ops of the same size run, and an output that
    nothing holds any more lends its memory to the next op that fits."""
    rng = np.random.default_rng(16)
    a, b = (Tensor(rng.standard_normal((4, 6, 8))) for _ in range(2))
    w = Tensor(rng.standard_normal((8, 8)))
    with no_grad(), T._request_buffers():
        held = T.add(a, b)
        for _ in range(3):
            T.add(b, b)
            T.gelu(a)
            T.layer_norm(b, T.ones((8,)), T.zeros((8,)))
            T.linear(a, w, T.zeros((8,)))
            T.permute(b, (0, 2, 1))
        assert np.array_equal(held.data, a.data + b.data)
        dead = _address(T.add(b, b).data)
        assert _address(T.add(a, a).data) == dead
    assert T._pool is None
