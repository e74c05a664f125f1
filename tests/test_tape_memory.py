"""The tape's memory contract: an entry keeps only what its backward rule
reads, and the sweep frees each entry's saved arrays as it passes it."""
import weakref

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import (AttentionConfig, WindowSpec, attention_mask,
                              window_attention, window_partition,
                              window_reverse)
from dcswin.dynamic_window import hard_selection
from dcswin.errors import ShapeError
from dcswin.model import DCSWin, ModelConfig
from dcswin.tensor import Tensor, backward
from test_attention import live_params


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def probe(x: Tensor, check) -> Tensor:
    """Identity op whose backward rule calls `check()` before passing the
    gradient through."""
    def bw(g):
        check()
        return (g,)

    return T._finish(x.data.copy(), (x,), bw, "probe")


def test_unread_intermediate_is_freed_when_the_caller_drops_it():
    x = leaf(np.arange(6.0).reshape(2, 3))
    y = T.add(x, x)  # add's rule reads no array
    loss = T.reduce_sum(T.scale(y, 3.0))
    ref = weakref.ref(y.data)
    del y
    assert ref() is None
    backward(loss)
    assert np.array_equal(x.grad, np.full((2, 3), 6.0))


def test_sweep_frees_a_later_rule_before_an_earlier_rule_runs():
    x = leaf([0.5, -1.0, 2.0])
    seen = []
    held = []

    def check():
        seen.append(held[0]() is None)

    a = probe(x, check)
    b = T.exp(a)  # exp's rule saves its output
    held.append(weakref.ref(b.data))
    loss = T.reduce_sum(b)
    del b  # now only exp's rule holds that array
    assert held[0]() is not None
    backward(loss)
    assert seen == [True]
    assert np.array_equal(x.grad, np.exp(x.data))


def test_multihead_attention_drops_the_key_array_after_forward():
    rng = np.random.default_rng(3)
    q = leaf(rng.standard_normal((2, 3, 4)))
    kv = leaf(rng.standard_normal((2, 3, 4)))
    k = T.scale(kv, 1.0)  # a recorded output the caller can drop
    out = T.multihead_attention(q, k, kv, num_heads=2)
    ref = weakref.ref(k.data)
    del k
    assert ref() is None
    backward(T.reduce_sum(out))
    assert kv.grad.shape == (2, 3, 4) and np.all(np.isfinite(kv.grad))


def test_default_tape_recovers_after_a_failed_sweep():
    x = leaf([1.0, 2.0])

    def bad(g):
        return (np.zeros(5),)

    loss = T.reduce_sum(T._finish(x.data * 2.0, (x,), bad, "bad"))
    with pytest.raises(ShapeError, match="grad shape"):
        backward(loss)
    backward(T.reduce_sum(T.scale(x, 3.0)))
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_broadcast_to_is_a_read_only_view():
    x = Tensor(np.arange(3.0).reshape(1, 3))
    out = T.broadcast_to(x, (4, 3))
    assert np.shares_memory(out.data, x.data)
    assert not out.data.flags.writeable
    assert np.array_equal(out.data, np.tile(x.data, (4, 1)))


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (T.linear, (2, 3, 4), (4, 5)),
    (T.conv1x1, (2, 4, 3, 3), (5, 4)),
])
def test_input_gradient_is_skipped_when_the_input_needs_none(op, x_shape,
                                                             w_shape):
    rng = np.random.default_rng(4)
    w = leaf(rng.standard_normal(w_shape))
    b = leaf(rng.standard_normal(w_shape[0] if op is T.conv1x1
                                 else w_shape[1]))
    for needs in (False, True):
        x = Tensor(rng.standard_normal(x_shape), requires_grad=needs)
        with T.Tape() as tape:
            out = op(x, w, b)
        (entry,) = tape._entries
        dx, dw, db = entry.bw(np.ones(out.shape))
        assert (dx is not None) == needs
        assert dw.shape == w.shape and db.shape == b.shape


def test_mlp_branch_keeps_neither_its_norm_output_nor_its_activation():
    """The rule holds only the norm's xn and denom, and rebuilds the
    rest, the hidden pre-activation and gelu's tanh included, in
    backward."""
    rng = np.random.default_rng(5)
    c, h = 6, 13
    x = leaf(rng.standard_normal((2, 3, 4, c)))
    params = [leaf(rng.uniform(0.5, 1.5, c)), leaf(rng.standard_normal(c)),
              leaf(rng.standard_normal((c, h))), leaf(rng.standard_normal(h)),
              leaf(rng.standard_normal((h, c))), leaf(rng.standard_normal(c))]
    with T.no_grad():
        norm = T.layer_norm(x, *params[:2])
        hidden = T.linear(norm, *params[2:4])
        act = T.gelu(hidden)
    th = T._gelu_tanh(hidden.data)
    with T.Tape() as tape:
        T.mlp_branch(x, *params)
    held = {id(p.data) for p in params}
    saved = [(var, arr) for op, var, arr in T._saved_arrays(tape)
             if id(arr) not in held]
    assert sorted(var for var, _ in saved) == ["denom", "xn"]
    for _, arr in saved:
        for dropped in (norm.data, hidden.data, act.data, th):
            assert not (arr.size == dropped.size
                        and np.array_equal(arr.reshape(dropped.shape),
                                           dropped))
    rows = x.data.size // c
    assert sum(arr.nbytes for _, arr in saved) == 8 * (rows * c + rows)


def assert_window_op_keeps_only_the_weights(selection):
    """The rule of a two-window `window_attention` over a padded 5x5 map
    holds only the input map and, per window, the attention weights; no
    array it holds equals one of the three projected maps or a per-window
    array of the `window_partition` reference chain (the tokens, q, k^T,
    v, the context or the map-order output)."""
    rng = np.random.default_rng(6)
    cfg = AttentionConfig(4, 2)
    params = live_params(cfg, rng)
    x = leaf(rng.standard_normal((2, 5, 5, 4)))
    # each sample favours another window, so hard selection runs both
    soft = leaf([[0.7, 0.3], [0.2, 0.8]])
    mix = hard_selection(soft) if selection == "hard" else soft
    specs = (WindowSpec(2, 1), WindowSpec(4))
    with T.Tape() as tape:
        window_attention(x, params, cfg, specs, mix)
    held = {id(t.data) for t in (mix, *params.named("p").values())}
    saved = [(op, var, arr) for op, var, arr in T._saved_arrays(tape)
             if id(arr) not in held]
    assert {op for op, _, _ in saved} == {"window_attention"}
    assert sorted(var for _, var, _ in saved) == ["saved"] * 2 + ["x2"]
    assert any(arr is x.data for _, _, arr in saved)
    copies = []
    with T.no_grad():
        for w, b in ((params.wq, params.bq), (params.wk, params.bk),
                     (params.wv, params.bv)):
            copies.append(T.linear(x, w, b).data)
        for spec in specs:
            tokens, info = window_partition(x, spec)
            q, k, v = (T.linear(tokens, w, b) for w, b in (
                (params.wq, params.bq), (params.wk, params.bk),
                (params.wv, params.bv)))
            kt = np.ascontiguousarray(
                k.data.reshape(k.shape[:2] + (2, 2)).transpose(0, 2, 3, 1))
            ctx = T.multihead_attention(q, k, v, cfg.num_heads,
                                        attention_mask(info))
            o = window_reverse(T.linear(ctx, params.wo, params.bo), info)
            copies += [tokens.data, q.data, kt, v.data, ctx.data, o.data]
    for _, _, arr in saved:
        for copy in copies:
            assert not (arr.size == copy.size
                        and np.array_equal(arr.reshape(copy.shape), copy))
    # per window [B*nW, heads, L, L] weights: 5x5 pads to 6x6 (9 windows
    # of 4) under 2, and to 8x8 (4 windows of 16) under 4
    weights = sum(8 * 2 * nw * 2 * length * length
                  for nw, length in [(9, 4), (4, 16)])
    assert sum(arr.nbytes for _, _, arr in saved) == x.data.nbytes + weights


def test_window_attention_keeps_no_partitioned_copy():
    """Soft selection: the projected maps, the window-order tokens, q, k^T
    and v, the context and the map-order output that the mixture's
    gradient reads are all rebuilt in backward."""
    assert_window_op_keeps_only_the_weights("soft")


def test_window_attention_keeps_no_output_for_hard_selection():
    """Hard selection's one-hot mixture is a constant, and the op keeps
    the same arrays as for soft selection."""
    assert_window_op_keeps_only_the_weights("hard")


# measured with `tools/step_memory.py --saved`: 43.87 MB; the sizes follow
# from the shapes alone, so the figure is the same on any host
FULL_ARM_SAVED_BYTES = 45_998_888


def test_full_arm_forward_saves_no_more_than_measured():
    """What a default full-arm batch-16 forward leaves on the tape for
    backward, each array that owns memory counted once: a change that
    saves more fails here before it shows in peak RSS."""
    model = DCSWin(ModelConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((16, 3, 64, 64)))
    with T.Tape() as tape:
        model(x)
    saved = sum(arr.nbytes for _, _, arr in T._saved_arrays(tape))
    assert saved <= FULL_ARM_SAVED_BYTES, saved
