"""Hierarchical windowed-attention classifier.

Pipeline: patch embedding -> stages of pre-norm transformer blocks whose
attention mixes candidate window sizes per the predicted scale mixture ->
patch merging between stages (2x2 concat, linear to double width) ->
cross-scale fusion of each stage's output with the previous stage's ->
global average pool -> linear head.

Feature maps are channels-last [B, H, W, C] from the patch embedding to
the global pool, so norms, MLPs and projections apply to them directly;
only the input image [B, 3, H, W] and the scale probabilities predicted
from it stay channels-first.

Both mechanisms sit behind independent config switches so ablations
(`dynamic_window=False`, `cross_scale=False`) degrade the model to a plain
hierarchical windowed transformer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from . import tensor as T
from .attention import (AttentionConfig, AttentionParams, WindowSpec,
                        cross_attention, windowed_mhsa)
from .dynamic_window import (dynamic_window_attention, pool_to_stage,
                             predict_scales)
from .errors import ConfigError, FormatError, NumericsError, ShapeError
from .rng import stream
from .serialization import (config_from_mapping, config_to_mapping,
                            load_checkpoint)
from .tensor import Tensor

INIT_STD = 0.02
# Largest accepted `param_count()`: 400 MB per float64 copy of the weights.
# The default config has 485,360 parameters.
MAX_PARAMS = 50_000_000
# Ablation arm -> (dynamic_window, cross_scale).
ARMS = {"full": (True, True), "no-dw": (False, True),
        "no-cs": (True, False), "baseline": (False, False)}


def _tuple_of_ints(value, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name} must be a sequence of ints, got {value!r}") from e


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; defaults are the desk-scale configuration."""
    image_size: int = 64
    patch_size: int = 4
    embed_dims: tuple[int, ...] = (32, 64, 128)
    depths: tuple[int, ...] = (2, 2, 2)
    num_heads: tuple[int, ...] = (2, 4, 8)
    candidates: tuple[int, ...] = (2, 4, 8)
    num_classes: int = 4
    mlp_ratio: float = 2.0
    selection: str = "soft"
    dynamic_window: bool = True
    cross_scale: bool = True
    fixed_window: int = 4
    cross_scale_stages: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "embed_dims", _tuple_of_ints(self.embed_dims, "embed_dims"))
        object.__setattr__(self, "depths", _tuple_of_ints(self.depths, "depths"))
        object.__setattr__(self, "num_heads", _tuple_of_ints(self.num_heads, "num_heads"))
        object.__setattr__(self, "candidates", _tuple_of_ints(self.candidates, "candidates"))
        if self.cross_scale_stages is not None:
            object.__setattr__(self, "cross_scale_stages",
                               _tuple_of_ints(self.cross_scale_stages,
                                              "cross_scale_stages"))
        if self.image_size < 1 or self.patch_size < 1:
            raise ConfigError(f"image_size {self.image_size} / patch_size "
                              f"{self.patch_size} must be positive")
        if self.image_size % self.patch_size:
            raise ConfigError(f"patch {self.patch_size} does not divide image "
                              f"{self.image_size}")
        n = len(self.embed_dims)
        if n == 0:
            raise ConfigError("need at least one stage")
        if len(self.depths) != n or len(self.num_heads) != n:
            raise ConfigError(f"embed_dims/depths/num_heads lengths differ: "
                              f"{n}/{len(self.depths)}/{len(self.num_heads)}")
        for dim, heads in zip(self.embed_dims, self.num_heads):
            if dim % heads:
                raise ConfigError(f"stage dim {dim} not divisible by {heads} heads")
        for i in range(1, n):
            if self.embed_dims[i] != 2 * self.embed_dims[i - 1]:
                raise ConfigError(f"stage widths must double at each merge, got "
                                  f"{self.embed_dims}")
        for d in self.depths:
            if d < 1:
                raise ConfigError(f"every stage needs >= 1 block, got {self.depths}")
        side = self.image_size // self.patch_size
        if side % (2 ** (n - 1)):
            raise ConfigError(f"grid side {side} cannot halve across {n} stages")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dynamic_window:
            if len(self.candidates) < 2:
                raise ConfigError(f"dynamic windows need >= 2 candidates, got "
                                  f"{self.candidates}")
            if any(c < 1 for c in self.candidates):
                raise ConfigError(f"candidates must be >= 1: {self.candidates}")
        if self.selection not in ("soft", "hard"):
            raise ConfigError(f"selection must be 'soft' or 'hard', got "
                              f"{self.selection!r}")
        if self.fixed_window < 1:
            raise ConfigError(f"fixed_window must be >= 1, got {self.fixed_window}")
        # widths double per stage, so the first stage has the narrowest MLP
        if not math.isfinite(self.mlp_ratio) or \
                self.mlp_hidden(self.embed_dims[0]) < 1:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} must be finite and "
                              f"give every stage an MLP width >= 1")
        if self.cross_scale_stages is not None:
            bad = [i for i in self.cross_scale_stages if not (1 <= i < n)]
            if bad:
                raise ConfigError(f"cross_scale_stages {bad} outside [1, {n})")
        if self.param_count() > MAX_PARAMS:
            raise ConfigError(f"config has {self.param_count()} parameters, "
                              f"more than the limit of {MAX_PARAMS}")

    # ---- geometry -------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.embed_dims)

    def stage_side(self, i: int) -> int:
        return (self.image_size // self.patch_size) >> i

    def stage_candidates(self, i: int) -> tuple[int, ...]:
        """Global candidate list clipped to this stage's spatial side."""
        side = self.stage_side(i)
        return tuple(min(c, side) for c in self.candidates)

    def stage_fixed_window(self, i: int) -> int:
        return min(self.fixed_window, self.stage_side(i))

    def fuse_at(self, i: int) -> bool:
        if not self.cross_scale or i < 1:
            return False
        if self.cross_scale_stages is None:
            return True
        return i in self.cross_scale_stages

    def mlp_hidden(self, dim: int) -> int:
        return int(dim * self.mlp_ratio)

    # ---- presets ----------------------------------------------------------
    @classmethod
    def micro(cls, **overrides) -> "ModelConfig":
        """Smallest config that exercises every mechanism; used by the
        end-to-end gradient check."""
        base = dict(image_size=16, patch_size=4, embed_dims=(8, 16),
                    depths=(1, 1), num_heads=(2, 2), candidates=(2, 4),
                    num_classes=4, fixed_window=2)
        base.update(overrides)
        return cls(**base)

    def ablated(self, arm: str) -> "ModelConfig":
        """This config on `arm` (full | no-dw | no-cs | baseline): both
        mechanism flags are set from the arm, whatever they were before."""
        if arm not in ARMS:
            raise ConfigError(f"unknown ablation arm {arm!r}")
        dynamic_window, cross_scale = ARMS[arm]
        if (dynamic_window, cross_scale) == (self.dynamic_window,
                                             self.cross_scale):
            return self
        return replace(self, dynamic_window=dynamic_window,
                       cross_scale=cross_scale)

    @property
    def arm(self) -> str:
        """The ablation arm that the two mechanism flags select."""
        flags = (self.dynamic_window, self.cross_scale)
        return next(arm for arm, f in ARMS.items() if f == flags)

    # ---- config text ------------------------------------------------------
    def to_mapping(self) -> dict[str, str]:
        return config_to_mapping(self)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "ModelConfig":
        """Inverse of `to_mapping`; a malformed value raises ConfigError."""
        return config_from_mapping(cls, mapping)

    # ---- closed-form parameter count ---------------------------------------
    def param_count(self) -> int:
        """Exact learned-parameter total.

        patch embed: 3 p^2 C0 + C0
        scale predictor (dynamic only): 3 S + S
        block at width C: 2C (norm) + 4(C^2+C) (attention) + 2C (norm)
                          + C h + h + h C + C where h = mlp hidden
        merge i -> i+1: 4 C_i C_{i+1} + C_{i+1}
        fusion at stage i: C_{i-1} C_i + C_i (align) + 4(C_i^2 + C_i)
        head: C_last K + K
        """
        p, dims, k = self.patch_size, self.embed_dims, self.num_classes
        total = 3 * p * p * dims[0] + dims[0]
        if self.dynamic_window:
            s = len(self.candidates)
            total += 3 * s + s
        for i, c in enumerate(dims):
            h = self.mlp_hidden(c)
            block = 2 * c + 4 * (c * c + c) + 2 * c + (c * h + h) + (h * c + c)
            total += self.depths[i] * block
        for i in range(self.num_stages - 1):
            total += 4 * dims[i] * dims[i + 1] + dims[i + 1]
        for i in range(1, self.num_stages):
            if self.fuse_at(i):
                total += dims[i - 1] * dims[i] + dims[i] + 4 * (dims[i] * dims[i] + dims[i])
        total += dims[-1] * k + k
        return total


# ---- layers ------------------------------------------------------------


class Linear:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 zero: bool = False):
        if zero:
            self.w = T.zeros((d_in, d_out), requires_grad=True)
        else:
            self.w = T.trunc_normal((d_in, d_out), rng, std=INIT_STD,
                                    requires_grad=True)
        self.b = T.zeros((d_out,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNorm:
    def __init__(self, dim: int):
        self.gamma = T.ones((dim,), requires_grad=True)
        self.beta = T.zeros((dim,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class Mlp:
    """Two-layer MLP with gelu; second projection starts at zero."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng, zero=True)

    def __call__(self, x: Tensor, norm: LayerNorm) -> Tensor:
        """The residual branch fc2(gelu(fc1(norm(x)))), as one op."""
        return T.mlp_branch(x, norm.gamma, norm.beta, self.fc1.w, self.fc1.b,
                            self.fc2.w, self.fc2.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.fc1.named(f"{prefix}.fc1"),
                **self.fc2.named(f"{prefix}.fc2")}


class PatchEmbed:
    """Non-overlapping p x p patches, linearly projected to the stage width."""

    def __init__(self, patch: int, dim: int, rng: np.random.Generator):
        self.patch = patch
        self.proj = Linear(3 * patch * patch, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        """Channels-first image [B,3,H,W] -> channels-last map [B,H/p,W/p,C]."""
        b, c, h, w = x.data.shape
        p = self.patch
        t = T.reshape(x, (b, c, h // p, p, w // p, p))
        t = T.permute(t, (0, 2, 4, 1, 3, 5))
        t = T.reshape(t, (b, h // p, w // p, c * p * p))
        return self.proj(t)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return self.proj.named(f"{prefix}.proj")


class PatchMerge:
    """2x2 neighborhood concat (4C) -> linear to the next stage width."""

    def __init__(self, dim_in: int, dim_out: int, rng: np.random.Generator):
        self.proj = Linear(4 * dim_in, dim_out, rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, h, w, c = x.data.shape
        if h % 2 or w % 2:
            raise ShapeError(f"patch merge needs even spatial dims, got {x.shape}")
        t = T.reshape(x, (b, h // 2, 2, w // 2, 2, c))
        t = T.permute(t, (0, 1, 3, 2, 4, 5))
        t = T.reshape(t, (b, h // 2, w // 2, 4 * c))
        return self.proj(t)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return self.proj.named(f"{prefix}.proj")


class Block:
    """Pre-norm transformer block; attention is either a dynamic mixture
    over candidate windows or a single fixed window."""

    def __init__(self, cfg: ModelConfig, stage: int, shifted: bool,
                 rng: np.random.Generator):
        dim = cfg.embed_dims[stage]
        self.attn_cfg = AttentionConfig(dim, cfg.num_heads[stage])
        self.side = cfg.stage_side(stage)
        self.dynamic = cfg.dynamic_window
        self.hard = cfg.selection == "hard"
        self.candidates = cfg.stage_candidates(stage)
        self.fixed_spec = WindowSpec.in_block(cfg.stage_fixed_window(stage),
                                              self.side, shifted)
        self.shifted = shifted
        self.ln1 = LayerNorm(dim)
        self.attn = AttentionParams.init(self.attn_cfg, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = Mlp(dim, cfg.mlp_hidden(dim), rng)

    def __call__(self, x: Tensor, mixture: Optional[Tensor]) -> Tensor:
        n1 = self.ln1(x)
        if self.dynamic:
            att = dynamic_window_attention(n1, mixture, self.candidates,
                                           self.attn, self.attn_cfg,
                                           shift=self.shifted, hard=self.hard)
        else:
            att = windowed_mhsa(n1, self.attn, self.attn_cfg, self.fixed_spec)
        x = T.add(x, att)
        return T.add(x, self.mlp(x, self.ln2))

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.ln1.named(f"{prefix}.ln1"),
                **self.attn.named(f"{prefix}.attn"),
                **self.ln2.named(f"{prefix}.ln2"),
                **self.mlp.named(f"{prefix}.mlp")}


class CrossScaleFuse:
    """Queries from the current stage attend into the previous stage's map
    (pooled to the current grid, channel-projected to the current width)."""

    def __init__(self, dim_prev: int, dim_cur: int, heads: int,
                 rng: np.random.Generator):
        self.align = Linear(dim_prev, dim_cur, rng)
        self.attn_cfg = AttentionConfig(dim_cur, heads)
        self.attn = AttentionParams.init(self.attn_cfg, rng)

    def __call__(self, current: Tensor, prev: Tensor) -> Tensor:
        _, h, w, _ = current.data.shape
        _, hp, wp, _ = prev.data.shape
        if hp % h or wp % w:
            raise ShapeError(f"previous grid ({hp},{wp}) must be a multiple of "
                             f"current ({h},{w})")
        aligned = self.align(T.avg_pool2d(prev, hp // h, wp // w))
        return cross_attention(current, aligned, self.attn, self.attn_cfg)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.align.named(f"{prefix}.align"),
                **self.attn.named(f"{prefix}.attn")}


class ScalePredictor:
    """1x1 conv over the raw image emitting one logit per candidate scale."""

    def __init__(self, num_scales: int, rng: np.random.Generator):
        self.w = T.trunc_normal((num_scales, 3), rng, std=INIT_STD,
                                requires_grad=True)
        self.b = T.zeros((num_scales,), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return predict_scales(x, self.w, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class DCSWin:
    """The full classifier; `seed` fixes the init stream."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = stream(seed, "init")
        self.patch_embed = PatchEmbed(cfg.patch_size, cfg.embed_dims[0], rng)
        self.predictor = (ScalePredictor(len(cfg.candidates), rng)
                          if cfg.dynamic_window else None)
        self.stages: list[list[Block]] = []
        self.fuses: dict[int, CrossScaleFuse] = {}
        self.merges: list[PatchMerge] = []
        for i in range(cfg.num_stages):
            blocks = [Block(cfg, i, shifted=(j % 2 == 1), rng=rng)
                      for j in range(cfg.depths[i])]
            self.stages.append(blocks)
            if cfg.fuse_at(i):
                self.fuses[i] = CrossScaleFuse(cfg.embed_dims[i - 1],
                                               cfg.embed_dims[i],
                                               cfg.num_heads[i], rng)
            if i < cfg.num_stages - 1:
                self.merges.append(PatchMerge(cfg.embed_dims[i],
                                              cfg.embed_dims[i + 1], rng))
        self.head = Linear(cfg.embed_dims[-1], cfg.num_classes, rng)

    # ---- forward -----------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """[B, 3, image_size, image_size] -> [B, num_classes] logits.

        The ops inside skip their own NaN/Inf screen and the logits are
        screened once. If they are not finite, the forward is replayed
        without a tape and with every op screened, so the `NumericsError`
        names the first op that went non-finite.
        """
        if x.data.ndim != 4 or x.data.shape[1] != 3:
            raise ShapeError(f"expected [B,3,H,W] input, got {x.data.shape}")
        if x.data.shape[2] != self.cfg.image_size or \
                x.data.shape[3] != self.cfg.image_size:
            raise ConfigError(f"input {x.data.shape[2]}x{x.data.shape[3]} does "
                              f"not match configured image_size "
                              f"{self.cfg.image_size}")
        try:
            with T._deferred_screening():
                logits = self._logits(x)
            T._screen(logits.data, "model logits")
            return logits
        except NumericsError as deferred:
            failure = deferred
        with T.no_grad():
            self._logits(x)
        raise failure

    def _logits(self, x: Tensor) -> Tensor:
        mixture = (pool_to_stage(self.predictor(x))
                   if self.predictor is not None else None)
        feat = self.patch_embed(x)
        prev: Optional[Tensor] = None
        for i, blocks in enumerate(self.stages):
            for block in blocks:
                feat = block(feat, mixture)
            if i in self.fuses and prev is not None:
                feat = self.fuses[i](feat, prev)
            prev = feat
            if i < len(self.merges):
                feat = self.merges[i](feat)
        pooled = T.mean_pool(feat, (1, 2))
        return self.head(pooled)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    # ---- parameters ----------------------------------------------------------
    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.patch_embed.named("patch_embed"))
        if self.predictor is not None:
            out.update(self.predictor.named("predictor"))
        for i, blocks in enumerate(self.stages):
            for j, block in enumerate(blocks):
                out.update(block.named(f"stages.{i}.blocks.{j}"))
            if i in self.fuses:
                out.update(self.fuses[i].named(f"stages.{i}.fuse"))
            if i < len(self.merges):
                out.update(self.merges[i].named(f"stages.{i}.merge"))
        out.update(self.head.named("head"))
        return out

    def zero_grad(self) -> None:
        for t in self.named_params().values():
            t.grad = None

    # ---- persistence -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_params().items()}

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        params = self.named_params()
        missing = sorted(set(params) - set(state))
        if missing:
            raise FormatError(f"checkpoint missing tensors: {missing[:5]}"
                              f"{'...' if len(missing) > 5 else ''}")
        arrays = {}
        for name, t in params.items():
            arr = np.array(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise FormatError(f"tensor {name!r}: checkpoint shape "
                                  f"{arr.shape} != model shape {t.data.shape}")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"tensor {name!r}: non-finite values")
            arrays[name] = arr
        for name, t in params.items():
            t.data = arrays[name]

    @classmethod
    def load(cls, path: Union[str, Path]) -> tuple["DCSWin", dict[str, str]]:
        """Rebuild a model from a checkpoint; returns (model, extra config)."""
        config, tensors = load_checkpoint(path)
        cfg = ModelConfig.from_mapping(config)
        model = cls(cfg, seed=0)
        model.load_state(tensors)
        arch_keys = set(cfg.to_mapping())
        extra = {k: v for k, v in config.items() if k not in arch_keys}
        return model, extra
