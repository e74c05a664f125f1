"""Whole-model reduction properties over small generated configs: a
mechanism switched to one choice gives its ablation's numbers, bit for
bit."""
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import dcswin.tensor as T  # noqa: E402
from dcswin.model import DCSWin, ModelConfig  # noqa: E402
from dcswin.tensor import Tensor  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)


@st.composite
def saturated_configs(draw):
    """A hard-selection full-arm micro config and the candidate index k
    its predictor will saturate. Token maps of side 1 to 6 with candidates
    up to 7 give clipped duplicates (several candidates clipped to the
    side), padded windows (a window that does not divide the side) and,
    with depth 2, shifted blocks."""
    stages = draw(st.integers(1, 2))
    grid = draw(st.integers(1, 3)) * 2 ** (stages - 1)
    patch = draw(st.sampled_from((2, 4)))
    candidates = tuple(draw(st.lists(st.integers(1, 7), min_size=2,
                                     max_size=3)))
    cfg = ModelConfig.micro(
        image_size=grid * patch, patch_size=patch,
        embed_dims=(8, 16)[:stages], num_heads=(2, 2)[:stages],
        depths=tuple(draw(st.integers(1, 2)) for _ in range(stages)),
        candidates=candidates, selection="hard")
    return cfg, draw(st.integers(0, len(candidates) - 1))


def logits_and_grads(model, x, y):
    model.zero_grad()
    logits = model(Tensor(x))
    T.backward(T.cross_entropy(logits, y))
    return logits.data, {name: p.grad for name, p in
                         model.named_params().items()}


@SETTINGS
@given(saturated_configs())
def test_saturated_hard_selection_is_the_fixed_window_arm(case):
    """The full arm whose predictor bias saturates candidate k gives the
    logits and shared-parameter gradients of the no-dw arm with
    fixed_window = candidates[k], byte for byte. Exact equality holds
    because the one live window is scaled by a mixture column of exactly
    1.0 (duplicates of it add 0.0), so both arms run the same NumPy calls
    on the same arrays."""
    cfg, k = case
    full = DCSWin(cfg, seed=0)
    noise = np.random.default_rng(1)
    # nonzero output projections: at init they are zero, and every window
    # would then give the same zero output
    for p in full.named_params().values():
        p.data += noise.normal(0.0, 0.3, p.data.shape)
    full.predictor.b.data[k] += 30.0
    fixed = DCSWin(replace(cfg.ablated("no-dw"),
                           fixed_window=cfg.candidates[k]), seed=0)
    shared = fixed.named_params()
    for name, p in shared.items():
        p.data = full.named_params()[name].data.copy()
    x = noise.standard_normal((2, 3, cfg.image_size, cfg.image_size))
    y = np.array([0, 1])
    want_logits, want = logits_and_grads(fixed, x, y)
    got_logits, got = logits_and_grads(full, x, y)
    assert got_logits.tobytes() == want_logits.tobytes()
    for name in shared:
        assert got[name].tobytes() == want[name].tobytes(), name
