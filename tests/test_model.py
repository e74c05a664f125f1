"""Model assembly: config validation, parameter accounting, persistence,
and equivalence of the ablated baseline with a hand-wired plain
windowed transformer."""
import struct

import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.attention import AttentionConfig, WindowSpec, map_to_tokens, \
    tokens_to_map, windowed_mhsa
from dcswin.errors import ConfigError, FormatError, ShapeError
from dcswin.model import DCSWin, ModelConfig
from dcswin.rng import stream
from dcswin.serialization import (CHECKPOINT_MAGIC, FORMAT_VERSION,
                                  save_checkpoint)
from dcswin.tensor import Tensor


CONFIGS = [
    ModelConfig.micro(),
    ModelConfig.micro(dynamic_window=False),
    ModelConfig.micro(cross_scale=False),
    ModelConfig.micro(dynamic_window=False, cross_scale=False),
    ModelConfig.micro(mlp_ratio=2.5, num_heads=(2, 4)),
    ModelConfig(image_size=32, patch_size=4, embed_dims=(8, 16, 32),
                depths=(1, 2, 1), num_heads=(2, 2, 4), candidates=(2, 4),
                num_classes=3, cross_scale_stages=(2,)),
]


# ---- config ----------------------------------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS)
def test_param_count_matches_built_model(cfg):
    model = DCSWin(cfg, seed=0)
    assert cfg.param_count() == sum(
        t.data.size for t in model.named_params().values())


@pytest.mark.parametrize("cfg", CONFIGS)
def test_config_mapping_roundtrip(cfg):
    assert ModelConfig.from_mapping(cfg.to_mapping()) == cfg


def test_from_mapping_defaults():
    assert ModelConfig.from_mapping({}) == ModelConfig()


@pytest.mark.parametrize("kwargs", [
    dict(image_size=30, patch_size=4),          # patch does not divide image
    dict(embed_dims=(8, 16), depths=(1,)),      # length mismatch
    dict(embed_dims=(8, 16), num_heads=(3, 2), depths=(1, 1)),  # 8 % 3
    dict(embed_dims=(8, 24), depths=(1, 1), num_heads=(2, 2)),  # not doubling
    dict(embed_dims=(8, 16, 32, 64), depths=(1, 1, 1, 1),
         num_heads=(2, 2, 2, 2), image_size=16, patch_size=4),
    # grid side 4 cannot halve across 4 stages
    dict(num_classes=1),
    dict(candidates=(4,)),                      # dynamic needs >= 2
    dict(selection="fuzzy"),
    dict(fixed_window=0),
    dict(mlp_ratio=0.0),
    dict(depths=(0, 1)),
    dict(cross_scale_stages=(0,)),
    dict(mlp_ratio=0.01),                       # MLP width int(8 * 0.01) = 0
])
def test_config_rejections(kwargs):
    base = dict(image_size=16, patch_size=4, embed_dims=(8, 16),
                depths=(1, 1), num_heads=(2, 2), candidates=(2, 4))
    base.update(kwargs)
    with pytest.raises(ConfigError):
        ModelConfig(**base)


BAD_MAPPING_VALUES = [
    ("image_size", "abc"),
    ("patch_size", "4.0"),
    ("num_classes", ""),
    ("fixed_window", "two"),
    ("embed_dims", "32,x"),
    ("depths", "2;2;2"),
    ("cross_scale_stages", "1,,2"),
    ("mlp_ratio", "abc"),
    ("mlp_ratio", "nan"),
    ("mlp_ratio", "inf"),
    ("mlp_ratio", "1e300"),        # over the parameter cap
    ("embed_dims", "32,,64,128"),
    ("dynamic_window", "maybe"),
]


@pytest.mark.parametrize("key,value", BAD_MAPPING_VALUES)
def test_from_mapping_bad_value_is_config_error(key, value):
    with pytest.raises(ConfigError):
        ModelConfig.from_mapping({key: value})


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_mlp_ratio_rejected(ratio):
    with pytest.raises(ConfigError):
        ModelConfig.micro(mlp_ratio=ratio)


@pytest.mark.parametrize("key,value", BAD_MAPPING_VALUES)
def test_load_hand_written_checkpoint_bad_config(tmp_path, key, value):
    text = f"{key} = {value}\n".encode("utf-8")
    path = tmp_path / "hand.dcsm"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", FORMAT_VERSION)
                     + struct.pack("<Q", len(text)) + text
                     + struct.pack("<Q", 0))
    with pytest.raises(ConfigError):
        DCSWin.load(path)


@pytest.mark.parametrize("kwargs", [
    dict(mlp_ratio=1e6),
    dict(mlp_ratio=1e300),
    dict(embed_dims=(4096, 8192), num_heads=(2, 2)),
    dict(depths=(10**9, 1)),
])
def test_oversized_config_rejected(kwargs):
    """Rejected from the closed-form count, before any weight exists."""
    with pytest.raises(ConfigError, match="parameters"):
        ModelConfig.micro(**kwargs)


def test_stage_candidates_clip_to_side():
    cfg = ModelConfig.micro()          # grid 4 -> stage sides 4, 2
    assert cfg.stage_candidates(0) == (2, 4)
    assert cfg.stage_candidates(1) == (2, 2)
    assert cfg.stage_fixed_window(1) == 2


def test_ablation_arms():
    cfg = ModelConfig.micro()
    assert cfg.ablated("full") is cfg
    assert not cfg.ablated("no-dw").dynamic_window
    assert not cfg.ablated("no-cs").cross_scale
    b = cfg.ablated("baseline")
    assert not b.dynamic_window and not b.cross_scale
    with pytest.raises(ConfigError):
        cfg.ablated("half")


ARM_NAMES = ("full", "no-dw", "no-cs", "baseline")


@pytest.mark.parametrize("first", ARM_NAMES)
@pytest.mark.parametrize("second", ARM_NAMES)
def test_ablated_sets_both_flags(first, second):
    """Any arm is reachable from any other: `ablated` never keeps a flag."""
    cfg = ModelConfig().ablated(first).ablated(second)
    assert cfg.arm == second
    assert cfg == ModelConfig().ablated(second)


# ---- construction & init --------------------------------------------------------

def test_init_statistics_and_zeroed_branches():
    model = DCSWin(ModelConfig.micro(), seed=0)
    params = model.named_params()
    # truncated-normal weights stay inside +-2 std
    w = params["patch_embed.proj.w"]
    assert np.all(np.abs(w.data) <= 2 * 0.02 + 1e-12)
    # residual branches start as identities
    assert np.all(params["stages.0.blocks.0.attn.wo"].data == 0.0)
    assert np.all(params["stages.0.blocks.0.mlp.fc2.w"].data == 0.0)
    assert np.all(params["stages.0.blocks.0.ln1.gamma"].data == 1.0)
    assert np.all(params["head.b"].data == 0.0)


def test_same_seed_same_model():
    cfg = ModelConfig.micro()
    a = DCSWin(cfg, seed=7)
    b = DCSWin(cfg, seed=7)
    for name, t in a.named_params().items():
        assert np.array_equal(t.data, b.named_params()[name].data), name


def test_forward_shape_and_determinism():
    cfg = ModelConfig.micro()
    model = DCSWin(cfg, seed=1)
    rng = stream(1, "t-model")
    x = Tensor(rng.standard_normal((3, 3, 16, 16)))
    out1 = model(x).data
    out2 = model(x).data
    assert out1.shape == (3, 4)
    assert np.array_equal(out1, out2)


def test_forward_input_validation():
    model = DCSWin(ModelConfig.micro(), seed=0)
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((3, 16, 16))))
    with pytest.raises(ShapeError):
        model(Tensor(np.zeros((1, 1, 16, 16))))
    with pytest.raises(ConfigError):
        model(Tensor(np.zeros((1, 3, 32, 32))))


# ---- baseline equivalence ----------------------------------------------------------

def plain_windowed_forward(model: DCSWin, x: Tensor) -> Tensor:
    """Hand-wired plain windowed transformer over the model's own tensors:
    patch embed -> [LN, fixed-window MHSA, residual, LN, MLP, residual]
    blocks with alternating shifts -> 2x2 merge -> mean pool -> head."""
    cfg = model.cfg
    p = model.named_params()

    def lin(t, prefix):
        return T.linear(t, p[f"{prefix}.w"], p[f"{prefix}.b"])

    b, c, h, w = x.data.shape
    ps = cfg.patch_size
    t = T.reshape(x, (b, c, h // ps, ps, w // ps, ps))
    t = T.permute(t, (0, 2, 4, 1, 3, 5))
    t = T.reshape(t, (b, (h // ps) * (w // ps), c * ps * ps))
    feat = tokens_to_map(lin(t, "patch_embed.proj"), h // ps, w // ps)

    for i in range(cfg.num_stages):
        side = cfg.stage_side(i)
        acfg = AttentionConfig(cfg.embed_dims[i], cfg.num_heads[i])
        for j in range(cfg.depths[i]):
            pre = f"stages.{i}.blocks.{j}"
            tok = map_to_tokens(feat)
            n1 = tokens_to_map(T.layer_norm(tok, p[f"{pre}.ln1.gamma"],
                                            p[f"{pre}.ln1.beta"]), side, side)
            win = cfg.stage_fixed_window(i)
            shift = win // 2 if (j % 2 == 1 and win < side) else 0
            block_params = model.stages[i][j].attn
            # the model's attention takes channels-last maps
            att = T.permute(windowed_mhsa(T.permute(n1, (0, 2, 3, 1)),
                                          block_params, acfg,
                                          WindowSpec(win, shift)), (0, 3, 1, 2))
            feat = T.add(feat, att)
            n2 = T.layer_norm(map_to_tokens(feat), p[f"{pre}.ln2.gamma"],
                              p[f"{pre}.ln2.beta"])
            hidden = T.gelu(lin(n2, f"{pre}.mlp.fc1"))
            feat = T.add(feat, tokens_to_map(lin(hidden, f"{pre}.mlp.fc2"),
                                             side, side))
        if i < cfg.num_stages - 1:
            bb, cc, hh, ww = feat.data.shape
            t = T.reshape(feat, (bb, cc, hh // 2, 2, ww // 2, 2))
            t = T.permute(t, (0, 2, 4, 3, 5, 1))
            t = T.reshape(t, (bb, (hh // 2) * (ww // 2), 4 * cc))
            feat = tokens_to_map(lin(t, f"stages.{i}.merge.proj"),
                                 hh // 2, ww // 2)
    pooled = T.mean_pool(feat, (2, 3))
    return lin(pooled, "head")


def test_baseline_arm_is_plain_windowed_transformer():
    cfg = ModelConfig.micro(dynamic_window=False, cross_scale=False)
    model = DCSWin(cfg, seed=2)
    assert model.predictor is None and model.fuses == {}
    rng = stream(2, "t-model")
    x = Tensor(rng.standard_normal((2, 3, 16, 16)))
    ref = plain_windowed_forward(model, x)
    out = model(x)
    assert np.max(np.abs(out.data - ref.data)) <= 1e-12


def test_full_model_gradients_reach_every_parameter():
    cfg = ModelConfig.micro()
    model = DCSWin(cfg, seed=3)
    rng = stream(3, "t-model")
    x = Tensor(rng.standard_normal((2, 3, 16, 16)))
    y = np.array([0, 2])
    loss = T.cross_entropy(model(x), y)
    T.backward(loss)
    for name, t in model.named_params().items():
        assert t.grad is not None, name
        assert np.all(np.isfinite(t.grad)), name


# ---- persistence ----------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = ModelConfig.micro(cross_scale_stages=(1,))
    model = DCSWin(cfg, seed=4)
    path = tmp_path / "model.dcsm"
    save_checkpoint(path, {**cfg.to_mapping(), "note": "fixture"},
                    model.state_dict())
    loaded, extra = DCSWin.load(path)
    assert loaded.cfg == cfg
    assert extra == {"note": "fixture"}
    for name, t in model.named_params().items():
        assert np.array_equal(t.data, loaded.named_params()[name].data), name


def test_checkpoint_load_skips_optimizer_tensors(tmp_path):
    cfg = ModelConfig.micro()
    model = DCSWin(cfg, seed=5)
    state = model.state_dict()
    state["opt.m.head.w"] = np.zeros((16, 4))
    path = tmp_path / "with_opt.dcsm"
    save_checkpoint(path, cfg.to_mapping(), state)
    loaded, _ = DCSWin.load(path)
    assert np.array_equal(loaded.named_params()["head.w"].data,
                          model.named_params()["head.w"].data)


def test_load_state_missing_and_mismatched(tmp_path):
    model = DCSWin(ModelConfig.micro(), seed=6)
    state = model.state_dict()
    state.pop("head.b")
    with pytest.raises(FormatError):
        model.load_state(state)
    state = model.state_dict()
    state["head.b"] = np.zeros(7)
    with pytest.raises(FormatError):
        model.load_state(state)
