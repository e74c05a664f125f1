"""Golden logits and gradients: a layout or dispatch refactor of the model
must reproduce these to 1e-12.

`golden.npz` holds, for one fixed seeded batch and seeded weight noise (the
zero-initialized output projections would otherwise hide attention and the
MLP from the comparison):
  * logits of `ModelConfig.micro()` on all four ablation arms, plus hard
    selection on the full arm;
  * every parameter gradient of a cross-entropy loss on the micro full arm,
    with soft and with hard selection;
  * logits of the default `ModelConfig()` on the full and baseline arms at
    batch 2;
  * the `named_params()` keys and shapes of every model above.

Micro clips stage 1 candidates to (2, 2) and the default config clips stage
2 to (2, 4, 4), so duplicate window candidates are exercised on both.

Regenerate (only when the numbers are meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""
from pathlib import Path

import numpy as np

import dcswin.tensor as T
from dcswin.model import DCSWin, ModelConfig
from dcswin.rng import stream
from dcswin.tensor import Tensor

GOLDEN = Path(__file__).with_name("golden.npz")
TOL = 1e-12
ARMS = ("full", "no-dw", "no-cs", "baseline")
NOISE_STD = 0.05


def noisy_model(cfg: ModelConfig, seed: int) -> DCSWin:
    model = DCSWin(cfg, seed=seed)
    rng = stream(seed, "golden-noise")
    for _, t in sorted(model.named_params().items()):
        t.data = t.data + NOISE_STD * rng.standard_normal(t.data.shape)
    return model


def batch(cfg: ModelConfig, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = stream(seed, "golden-batch")
    x = rng.standard_normal((n, 3, cfg.image_size, cfg.image_size))
    y = rng.integers(0, cfg.num_classes, size=n)
    return x, y


def param_layout(model: DCSWin, prefix: str) -> dict[str, np.ndarray]:
    params = model.named_params()
    return {f"{prefix}/keys": np.array(list(params)),
            f"{prefix}/shapes": np.array([str(t.data.shape)
                                          for t in params.values()])}


def compute_golden() -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    micro = ModelConfig.micro()
    x, y = batch(micro, 3, seed=0)
    with T.no_grad():
        for arm in ARMS:
            model = noisy_model(micro.ablated(arm), seed=1)
            out[f"micro/{arm}/logits"] = model(Tensor(x)).data
            out.update(param_layout(model, f"micro/{arm}"))
        hard = noisy_model(ModelConfig.micro(selection="hard"), seed=1)
        out["micro/full-hard/logits"] = hard(Tensor(x)).data

    for selection in ("soft", "hard"):
        model = noisy_model(ModelConfig.micro(selection=selection), seed=1)
        model.zero_grad()
        T.backward(T.cross_entropy(model(Tensor(x)), y))
        for name, t in model.named_params().items():
            grad = np.zeros_like(t.data) if t.grad is None else t.grad
            out[f"micro/grad-{selection}/{name}"] = grad

    default = ModelConfig()
    xd, _ = batch(default, 2, seed=2)
    with T.no_grad():
        for arm in ("full", "baseline"):
            model = noisy_model(default.ablated(arm), seed=3)
            out[f"default/{arm}/logits"] = model(Tensor(xd)).data
            out.update(param_layout(model, f"default/{arm}"))
    return out


def test_golden_logits_gradients_and_parameter_layout():
    want = np.load(GOLDEN)
    got = compute_golden()
    assert sorted(got) == sorted(want.files)
    for key in want.files:
        ref = want[key]
        if ref.dtype.kind in "US":
            assert np.array_equal(got[key], ref), key
            continue
        assert got[key].shape == ref.shape, key
        err = float(np.max(np.abs(got[key] - ref), initial=0.0))
        assert err <= TOL, f"{key}: max abs deviation {err:.3e}"


def test_golden_fixture_exercises_every_mechanism():
    want = np.load(GOLDEN)
    # the arms must disagree, or an arm could silently fall back to another
    logits = [want[f"micro/{arm}/logits"] for arm in ARMS]
    for i in range(len(logits)):
        for j in range(i + 1, len(logits)):
            assert np.max(np.abs(logits[i] - logits[j])) > 1e-6
    assert np.max(np.abs(want["default/full/logits"]
                         - want["default/baseline/logits"])) > 1e-6
    # soft selection trains the predictor; hard selection does not
    assert np.any(want["micro/grad-soft/predictor.w"] != 0.0)
    assert np.all(want["micro/grad-hard/predictor.w"] == 0.0)
    assert np.any(want["micro/grad-soft/stages.0.blocks.0.attn.wo"] != 0.0)


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **compute_golden())
    print(f"wrote {GOLDEN}")
