"""Forward Gaussian noising and a noise-consistency objective.

Each step draws x_t ~ N(sqrt(1-beta_t) x_{t-1}, beta_t I). With
alpha_t = 1 - beta_t and alpha_bar_t their cumulative product, the chain
collapses to the closed form x_t = sqrt(alpha_bar_t) x_0 +
sqrt(1 - alpha_bar_t) eps, which is what training uses.

The consistency term pushes the class distribution of a noised image
toward the (frozen) distribution of its clean version via KL divergence;
gradients flow only through the noisy branch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variances and their cumulative products.

    betas lie in [0, 1). A schedule of all zeros is the explicit "noise
    off" setting (x_t == x_0); whenever every beta is positive the
    cumulative products are strictly decreasing.
    """
    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ConfigError(f"betas must be a 1-d nonempty array, got shape "
                              f"{betas.shape}")
        # written so that a NaN beta fails the check
        if not np.all((betas >= 0.0) & (betas < 1.0)):
            raise ConfigError("every beta must lie in [0, 1)")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        if np.all(betas > 0.0):
            if not np.all(np.diff(alpha_bars) < 0.0):
                raise ConfigError("alpha_bar must strictly decrease for a "
                                  "noising schedule")
        elif np.any(np.diff(alpha_bars) > 0.0):
            raise ConfigError("alpha_bar must be non-increasing")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

    @property
    def num_steps(self) -> int:
        return int(self.betas.size)

    @classmethod
    def linear(cls, num_steps: int = 50, beta_start: float = 1e-4,
               beta_end: float = 0.02) -> "NoiseSchedule":
        if num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
        return cls(np.linspace(beta_start, beta_end, num_steps))

    @classmethod
    def noiseless(cls, num_steps: int = 50) -> "NoiseSchedule":
        return cls(np.zeros(num_steps))

    def _check_t(self, t: int) -> int:
        t = int(t)
        if not (1 <= t <= self.num_steps):
            raise ConfigError(f"t={t} outside [1, {self.num_steps}]")
        return t


def forward_diffuse(x0: np.ndarray, t: int, schedule: NoiseSchedule,
                    rng: np.random.Generator) -> np.ndarray:
    """Closed-form jump to step t: sqrt(ab_t) x0 + sqrt(1-ab_t) eps."""
    t = schedule._check_t(t)
    x0 = np.asarray(x0, dtype=np.float64)
    ab = schedule.alpha_bars[t - 1]
    eps = rng.standard_normal(x0.shape)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def sample_chain(x0: np.ndarray, t: int, schedule: NoiseSchedule,
                 rng: np.random.Generator) -> np.ndarray:
    """Step-by-step reference chain; distributionally equal to
    `forward_diffuse` (used as its oracle)."""
    t = schedule._check_t(t)
    x = np.asarray(x0, dtype=np.float64)
    for step in range(t):
        beta = schedule.betas[step]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.standard_normal(x.shape)
    return x


def diffuse_batch(x0: np.ndarray, t_max: int, schedule: NoiseSchedule,
                  rng: np.random.Generator) -> np.ndarray:
    """Noise each sample of [B, ...] to its own step. Every t is drawn
    uniformly from [1, t_max] first, then each sample takes one
    `forward_diffuse` jump, in batch order."""
    ts = rng.integers(1, t_max + 1, size=x0.shape[0])
    out = np.empty_like(x0)
    for i in range(x0.shape[0]):
        out[i] = forward_diffuse(x0[i], int(ts[i]), schedule, rng)
    return out


def consistency_loss(model, x0: np.ndarray, schedule: NoiseSchedule,
                     t_max: int, rng: np.random.Generator) -> Tensor:
    """Mean KL(p_clean || p_noisy) over the batch.

    The clean branch runs without recording and its distribution is a
    constant target; only the noisy branch carries gradients. When the
    schedule is noiseless the two branches see identical inputs and the
    loss is exactly zero.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 4:
        raise ConfigError(f"consistency_loss expects [B,3,H,W], got {x0.shape}")
    if not (1 <= t_max <= schedule.num_steps):
        raise ConfigError(f"t_max={t_max} outside [1, {schedule.num_steps}]")
    noisy = diffuse_batch(x0, t_max, schedule, rng)

    with T.no_grad():
        clean_logits = model.forward(Tensor(x0))
        logp_clean = T.log_softmax(clean_logits, axis=1).data
    p_clean = np.exp(logp_clean)

    logq_noisy = T.log_softmax(model.forward(Tensor(noisy)), axis=1)
    # KL(p||q) = sum p (log p - log q); p and log p are constants
    diff = T.sub(Tensor(logp_clean), logq_noisy)
    per_sample = T.reduce_sum(T.mul(Tensor(p_clean), diff), axis=1)
    return T.reduce_mean(per_sample)
