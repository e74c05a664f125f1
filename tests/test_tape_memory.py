"""The tape's memory contract: an entry keeps only what its backward rule
reads, and the sweep frees each entry's saved arrays as it passes it."""
import importlib
import itertools
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import (AttentionConfig, WindowSpec, attention_mask,
                              cross_attention, window_attention,
                              window_partition, window_reverse)
from dcswin.dynamic_window import hard_selection
from dcswin.errors import ShapeError
from dcswin.model import DCSWin, ModelConfig
from dcswin.tensor import Tensor, backward
from test_attention import live_params

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


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


def test_input_gradient_is_skipped_when_the_input_needs_none():
    """conv1x1 convolves the image, which needs no gradient."""
    rng = np.random.default_rng(4)
    w = leaf(rng.standard_normal((5, 4)))
    b = leaf(rng.standard_normal(5))
    for needs in (False, True):
        x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=needs)
        with T.Tape() as tape:
            out = T.conv1x1(x, w, b)
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


# (windows per image, tokens per window) of the two windows below: 5x5
# pads to 6x6 (9 windows of 4) under 2, and to 8x8 (4 windows of 16) under
# 4; their [B*nW, heads, L, L] weights at two images and two heads
WINDOWS = [(9, 4), (4, 16)]
WINDOW_WEIGHT_BYTES = [8 * 2 * nw * 2 * length * length
                       for nw, length in WINDOWS]
# the rule's chunk sizes at which it keeps both windows' weights, only the
# smaller window's, and neither
CHUNKS = pytest.mark.parametrize(
    "chunk", [T._GRAD_CHUNK_BYTES, WINDOW_WEIGHT_BYTES[0], 0],
    ids=["keep", "mixed", "rebuild"])


def assert_window_op_keeps_only_the_weights(selection, folded):
    """The rule of a two-window `window_attention` over a padded 5x5 map
    holds only the input map, or with a folded norm the norm's xn and
    denom, and, per window, the attention weights if they fit in one
    chunk of the attention rule, else exactly their softmax rows' max and
    sum; no array it holds equals the norm output, one of the three
    projected maps or a per-window array of the `window_partition`
    reference chain (the tokens, q, k^T, v, the weights it does not keep,
    the context or the map-order output)."""
    rng = np.random.default_rng(6)
    cfg = AttentionConfig(4, 2)
    params = live_params(cfg, rng)
    x = leaf(rng.standard_normal((2, 5, 5, 4)))
    norm = (leaf(rng.uniform(0.5, 1.5, 4)), leaf(rng.standard_normal(4)))
    # each sample favours another window, so hard selection runs both
    soft = leaf([[0.7, 0.3], [0.2, 0.8]])
    mix = hard_selection(soft) if selection == "hard" else soft
    specs = (WindowSpec(2, 1), WindowSpec(4))
    kept = [n <= T._GRAD_CHUNK_BYTES for n in WINDOW_WEIGHT_BYTES]
    with T.Tape() as tape:
        window_attention(x, params, cfg, specs, mix,
                         norm if folded else None)
    held = {id(t.data) for t in (mix, *norm, *params.named("p").values())}
    saved = [(op, var, arr) for op, var, arr in T._saved_arrays(tape)
             if id(arr) not in held]
    assert {op for op, _, _ in saved} == {"window_attention"}
    per_window = ["saved"] * sum(1 if k else 2 for k in kept)
    assert sorted(var for _, var, _ in saved) == (
        ["denom", *per_window, "xn"] if folded else [*per_window, "x2"])
    assert any(arr is x.data for _, _, arr in saved) != folded
    copies, stats = [], []
    with T.no_grad():
        src = T.layer_norm(x, *norm) if folded else x
        copies.append(src.data)
        for w, b in ((params.wq, params.bq), (params.wk, params.bk),
                     (params.wv, params.bv)):
            copies.append(T.linear(src, w, b).data)
        for spec, keeps in zip(specs, kept):
            tokens, info = window_partition(src, spec)
            q, k, v = (T.linear(tokens, w, b) for w, b in (
                (params.wq, params.bq), (params.wk, params.bk),
                (params.wv, params.bv)))
            probs, kt, row_stats = T._attention_probs(
                q.data, k.data, cfg.num_heads, attention_mask(info))
            ctx = T.multihead_attention(q, k, v, cfg.num_heads,
                                        attention_mask(info))
            o = window_reverse(T.linear(ctx, params.wo, params.bo), info)
            copies += [tokens.data, q.data, kt, v.data, ctx.data, o.data]
            if not keeps:
                copies.append(probs)
                stats += row_stats
    if not folded:
        copies.pop(0)  # the map itself is what the rule keeps
    for _, _, arr in saved:
        for copy in copies:
            assert not (arr.size == copy.size
                        and np.array_equal(arr.reshape(copy.shape), copy))
    # a rebuilt window's row max and row sum, [B*nW, heads, L, 1] each
    small = [arr for _, var, arr in saved if var == "saved"
             and arr.shape[-1] == 1]
    assert sorted(a.tobytes() for a in small) == \
        sorted(a.tobytes() for a in stats)
    # per window its weights, or two [B*nW, heads, L, 1] statistics
    weights = sum(8 * 2 * nw * 2 * length * (length if keeps else 2)
                  for (nw, length), keeps in zip(WINDOWS, kept))
    # xn is the map's size, denom one value per row
    kept_bytes = x.data.nbytes + (8 * 2 * 5 * 5 if folded else 0)
    assert sum(arr.nbytes for _, _, arr in saved) == kept_bytes + weights


@CHUNKS
def test_window_attention_keeps_no_partitioned_copy(chunk, monkeypatch):
    """Soft selection: the projected maps, the window-order tokens, q, k^T
    and v, the context and the map-order output that the mixture's
    gradient reads are all rebuilt in backward, and so are the weights
    larger than a chunk."""
    monkeypatch.setattr(T, "_GRAD_CHUNK_BYTES", chunk)
    assert_window_op_keeps_only_the_weights("soft", folded=False)


@CHUNKS
def test_window_attention_keeps_no_output_for_hard_selection(chunk,
                                                             monkeypatch):
    """Hard selection's one-hot mixture is a constant, and the op keeps
    the same arrays as for soft selection."""
    monkeypatch.setattr(T, "_GRAD_CHUNK_BYTES", chunk)
    assert_window_op_keeps_only_the_weights("hard", folded=False)


@CHUNKS
@pytest.mark.parametrize("selection", ["soft", "hard"])
def test_window_attention_keeps_a_folded_norm_as_xn_and_denom(selection,
                                                              chunk,
                                                              monkeypatch):
    """With ln1 folded in, the rule keeps the norm's xn and denom in
    place of the map, and rebuilds the norm output as well."""
    monkeypatch.setattr(T, "_GRAD_CHUNK_BYTES", chunk)
    assert_window_op_keeps_only_the_weights(selection, folded=True)


def test_cross_attention_keeps_its_inputs_and_the_weights_or_their_row_stats(
        attention_weights):
    """The rule holds `current`, `prev` and the [B, heads, Lq, Lk]
    attention weights, or, when those are larger than a chunk, exactly
    their softmax rows' max and sum, [B, heads, Lq, 1] each, and not the
    weights; q, k^T, v and the context are rebuilt."""
    rng = np.random.default_rng(7)
    cfg = AttentionConfig(4, 2)
    params = live_params(cfg, rng)
    cur = leaf(rng.standard_normal((2, 3, 3, 4)))
    prev = leaf(rng.standard_normal((2, 2, 2, 4)))
    with T.Tape() as tape:
        cross_attention(cur, prev, params, cfg)
    held = {id(t.data) for t in params.named("p").values()}
    saved = [(var, arr) for op, var, arr in T._saved_arrays(tape)
             if id(arr) not in held]
    probs, _, stats = T._attention_probs(
        *(T.linear(T.reshape(t, (2, -1, 4)), w, b).data for t, w, b in (
            (cur, params.wq, params.bq), (prev, params.wk, params.bk))),
        cfg.num_heads, None)
    assert probs.shape == (2, 2, 9, 4)
    want = [probs] if probs.nbytes <= attention_weights else list(stats)
    assert sorted(var for var, _ in saved) == \
        ["cur2"] + ["kept"] * len(want) + ["prev2"]
    assert dict(saved)["cur2"] is cur.data
    assert dict(saved)["prev2"] is prev.data
    assert sorted(arr.tobytes() for var, arr in saved if var == "kept") == \
        sorted(a.tobytes() for a in want)
    assert all(arr.shape in ((2, 2, 9, 4), (2, 2, 9, 1))
               for var, arr in saved if var == "kept")


def test_patch_embed_keeps_the_image_not_its_patches():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    w, b = leaf(rng.standard_normal((12, 5))), leaf(rng.standard_normal(5))
    with T.Tape() as tape:
        T.patch_embed(x, w, b, 2)
    saved = [(var, arr) for _, var, arr in T._saved_arrays(tape)
             if arr is not w.data]
    assert [var for var, _ in saved] == ["xd"] and saved[0][1] is x.data


# measured with `tools/step_memory.py --saved`: 19.69 MB; the sizes follow
# from the shapes alone, so the figure is the same on any host
FULL_ARM_SAVED_BYTES = 20_644_648
# that tool's `step_peak_mb` for the same step, 26.00 MB, rounded up; the
# traced bytes are NumPy's arrays and Python's objects, so the figure
# varies by a few KB at most between processes
FULL_ARM_STEP_PEAK_MB = 26.01


def full_arm_forward():
    """The default full-arm model and the tape of its batch-16 forward."""
    model = DCSWin(ModelConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((16, 3, 64, 64)))
    with T.Tape() as tape:
        model(x)
    return model, tape


def test_full_arm_forward_saves_no_more_than_measured():
    """What a default full-arm batch-16 forward leaves on the tape for
    backward, each array that owns memory counted once: a change that
    saves more fails here before it shows in peak RSS."""
    _, tape = full_arm_forward()
    saved = sum(arr.nbytes for _, _, arr in T._saved_arrays(tape))
    assert saved <= FULL_ARM_SAVED_BYTES, saved


def readme_keeps() -> dict[str, set[str]]:
    """README's table of what each rule keeps: op -> closure variables."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| op | keeps | rebuilds in backward |") + 2
    keeps = {}
    for line in itertools.takewhile(lambda row: row.startswith("|"),
                                    lines[start:]):
        op, kept = line.split("|")[1:3]
        keeps[op.strip(" `")] = set(re.findall(r"`(\w+)`", kept))
    return keeps


def test_readme_lists_what_each_rule_keeps():
    """README's table names, per op, exactly the closure variables through
    which the rules of a default full-arm batch-16 forward keep arrays
    other than parameters, as `T._saved_arrays` finds them."""
    model, tape = full_arm_forward()
    params = {id(p.data) for p in model.named_params().values()}
    keeps = {}
    for op, var, arr in T._saved_arrays(tape):
        if id(arr) not in params:
            keeps.setdefault(op, set()).add(var)
    assert readme_keeps() == keeps


def test_full_arm_step_peak_stays_at_most_measured(monkeypatch):
    """The traced peak of a default full-arm batch-16 training step, as
    `tools/step_memory.py --saved` measures it: the tape's bytes plus the
    largest rule's scratch on top of them."""
    monkeypatch.syspath_prepend(str(TOOLS))
    step_memory = importlib.import_module("step_memory")
    _, _, spans = step_memory.traced_step()
    peak, held, where = max(spans)
    assert peak <= FULL_ARM_STEP_PEAK_MB * (1 << 20), (peak, held, where)
