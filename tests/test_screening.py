"""Where NaN/Inf screening happens and what its error names.

A model forward screens its logits once and, when they are not finite,
replays itself with every op screened; ops called anywhere else screen
their own output. Either way the NumericsError names the first op that
went non-finite.
"""
import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.errors import NumericsError
from dcswin.model import ARMS, DCSWin, ModelConfig
from dcswin.tensor import Tensor


def fault_cfg(arm, selection):
    """Micro config with shifted blocks and a window that does not divide
    the first stage's side (4 % 3), so the window op's shift and padding
    are reached as well."""
    return ModelConfig.micro(depths=(2, 2), candidates=(2, 3), fixed_window=3,
                             selection=selection).ablated(arm)


def noisy_model(cfg, seed=0):
    """A model whose residual branches are live (a fresh init zeroes their
    output projections)."""
    model = DCSWin(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for p in model.named_params().values():
        p.data = p.data + rng.standard_normal(p.data.shape) * 0.05
    return model


def op_kinds(model, x):
    """The `what` of every `_finish` call one forward makes."""
    kinds = set()
    finish = T._finish

    def record(data, inputs, bw, what):
        kinds.add(what)
        return finish(data, inputs, bw, what)

    T._finish = record
    try:
        model(x)
    finally:
        T._finish = finish
    return kinds


@pytest.mark.parametrize("selection", ["soft", "hard"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_poisoned_op_is_named(arm, selection, monkeypatch):
    model = noisy_model(fault_cfg(arm, selection))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 16, 16)))
    kinds = op_kinds(model, x)
    # the norms are parts of the window op and the MLP branch, and the
    # fusion's attention is one cross_attention op
    assert {"patch_embed", "linear", "window_attention",
            "mlp_branch"} <= kinds
    assert not {"layer_norm", "multihead_attention"} & kinds
    if ARMS[arm][0]:
        assert {"conv1x1", "softmax", "div"} <= kinds
    if ARMS[arm][1]:
        assert "cross_attention" in kinds
    finish = T._finish
    for kind in sorted(kinds):
        for bad in (np.nan, np.inf):
            def poison(data, inputs, bw, what, kind=kind, bad=bad):
                if what == kind:
                    data = np.full_like(data, bad)
                return finish(data, inputs, bw, what)

            monkeypatch.setattr(T, "_finish", poison)
            with np.errstate(all="ignore"), \
                    pytest.raises(NumericsError) as info:
                model(x)
            assert str(info.value) == f"non-finite values in {kind}", \
                (kind, bad)


@pytest.mark.parametrize("arm,bound", [("baseline", 25), ("full", 40)])
def test_no_grad_forward_screens_few_arrays(arm, bound, monkeypatch):
    model = DCSWin(ModelConfig().ablated(arm), seed=0)
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 64, 64)))
    screened = []
    screen = T._screen

    def count(arr, what):
        screened.append(what)
        return screen(arr, what)

    monkeypatch.setattr(T, "_screen", count)
    with T.no_grad():
        model(x)
    assert screened[-1] == "model logits"
    assert len(screened) <= bound, len(screened)


def test_per_op_screening_resumes_after_a_failed_forward():
    model = DCSWin(ModelConfig.micro(), seed=0)
    model.head.b.data = np.full_like(model.head.b.data, np.inf)
    with pytest.raises(NumericsError, match="in linear"):
        model(Tensor(np.zeros((1, 3, 16, 16))))
    x = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError,
                                                   match="in add"):
        T.add(x, x)


def test_unchecked_forward_returns_non_finite_logits():
    model = DCSWin(ModelConfig.micro(), seed=0)
    model.head.b.data = np.full_like(model.head.b.data, np.nan)
    with T.checked_mode(False):
        logits = model(Tensor(np.zeros((1, 3, 16, 16))))
    assert np.isnan(logits.data).all()
