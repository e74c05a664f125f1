"""Noise schedule semantics and chain vs closed-form agreement.

The stochastic comparisons are Monte Carlo: 10^4 draws, asserted inside
3-sigma bands of the estimator, with fixed stream names so failures are
reproducible."""
import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.diffusion import (NoiseSchedule, consistency_loss, diffuse_batch,
                              forward_diffuse, sample_chain)
from dcswin.errors import ConfigError
from dcswin.model import DCSWin, ModelConfig
from dcswin.rng import stream
from dcswin.tensor import Tensor

N_DRAWS = 10_000


# ---- schedule ----------------------------------------------------------------

def test_linear_schedule_construction():
    s = NoiseSchedule.linear(50, 1e-4, 0.02)
    assert s.num_steps == 50
    assert s.betas[0] == pytest.approx(1e-4)
    assert s.betas[-1] == pytest.approx(0.02)
    assert np.allclose(s.alphas, 1.0 - s.betas)
    assert np.allclose(s.alpha_bars, np.cumprod(1.0 - s.betas))
    assert np.all(np.diff(s.alpha_bars) < 0.0)


def test_noiseless_schedule_is_identity():
    s = NoiseSchedule.noiseless(10)
    rng = stream(0, "t-diff")
    x0 = rng.standard_normal((3, 4, 4))
    for t in (1, 5, 10):
        assert np.array_equal(forward_diffuse(x0, t, s, rng), x0)
        assert np.array_equal(sample_chain(x0, t, s, rng), x0)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        NoiseSchedule(np.array([0.5, 1.0]))
    with pytest.raises(ConfigError):
        NoiseSchedule(np.array([-0.1]))
    with pytest.raises(ConfigError):
        NoiseSchedule(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        NoiseSchedule.linear(0)


@pytest.mark.parametrize("betas", [[float("nan")], [0.1, float("nan")],
                                   [float("inf")], [0.1, float("-inf")]])
def test_non_finite_betas_rejected(betas):
    with pytest.raises(ConfigError):
        NoiseSchedule(np.array(betas))


def test_diffuse_batch_draws_all_steps_then_one_jump_per_sample():
    s = NoiseSchedule.linear(10, 0.01, 0.1)
    x0 = stream(4, "t-batch").standard_normal((3, 2, 2, 2))
    got = diffuse_batch(x0, 6, s, stream(5, "t-batch"))
    rng = stream(5, "t-batch")
    ts = rng.integers(1, 7, size=3)
    want = np.stack([forward_diffuse(x0[i], int(ts[i]), s, rng)
                     for i in range(3)])
    assert np.array_equal(got, want)


def test_t_range_checked():
    s = NoiseSchedule.linear(5)
    rng = stream(1, "t-diff")
    x0 = np.zeros((2, 2))
    with pytest.raises(ConfigError):
        forward_diffuse(x0, 0, s, rng)
    with pytest.raises(ConfigError):
        forward_diffuse(x0, 6, s, rng)
    with pytest.raises(ConfigError):
        sample_chain(x0, 6, s, rng)


# ---- closed form vs chain ----------------------------------------------------

def mc_draws(fn, x0, t, s, rng):
    out = np.empty((N_DRAWS,) + x0.shape)
    for i in range(N_DRAWS):
        out[i] = fn(x0, t, s, rng)
    return out


@pytest.mark.parametrize("case", range(5))
def test_chain_matches_closed_form_moments(case):
    rng = stream(case, "t-diff-mc")
    s = NoiseSchedule.linear(20, 1e-3, 0.05)
    x0 = rng.standard_normal((2, 2))
    t = int(rng.integers(1, 21))
    ab = s.alpha_bars[t - 1]

    jump = mc_draws(forward_diffuse, x0, t, s, rng)
    chain = mc_draws(sample_chain, x0, t, s, rng)

    mean_target = np.sqrt(ab) * x0
    var_target = 1.0 - ab
    # standard error of the mean: sigma/sqrt(N); of the variance: ~ sigma^2 sqrt(2/N)
    se_mean = np.sqrt(var_target / N_DRAWS)
    se_var = var_target * np.sqrt(2.0 / N_DRAWS)
    for draws in (jump, chain):
        assert np.all(np.abs(draws.mean(axis=0) - mean_target) < 3 * se_mean + 1e-12)
        resid_var = (draws - mean_target).var(axis=0)
        assert np.all(np.abs(resid_var - var_target) < 3 * se_var + 1e-12)


def test_single_step_chain_mean():
    rng = stream(7, "t-diff-mc")
    s = NoiseSchedule.linear(5, 0.04, 0.04)
    x0 = np.full((3, 3), 2.0)
    draws = mc_draws(sample_chain, x0, 1, s, rng)
    target = np.sqrt(1.0 - 0.04) * x0
    se = np.sqrt(0.04 / N_DRAWS)
    assert np.all(np.abs(draws.mean(axis=0) - target) < 3 * se)


def test_forward_diffuse_promotes_dtype_and_shape():
    s = NoiseSchedule.linear(3)
    rng = stream(8, "t-diff")
    x0 = np.ones((2, 3, 4, 4), dtype=np.float32)
    out = forward_diffuse(x0, 2, s, rng)
    assert out.dtype == np.float64 and out.shape == x0.shape


# ---- consistency loss -----------------------------------------------------------

@pytest.fixture(scope="module")
def micro_model():
    return DCSWin(ModelConfig.micro(), seed=0)


def test_consistency_zero_when_noiseless(micro_model):
    rng = stream(9, "t-diff")
    x0 = rng.standard_normal((2, 3, 16, 16))
    loss = consistency_loss(micro_model, x0, NoiseSchedule.noiseless(10),
                            t_max=10, rng=rng)
    assert float(loss.data) == 0.0


def test_consistency_nonnegative_and_grads_only_noisy(micro_model):
    rng = stream(10, "t-diff")
    x0 = rng.standard_normal((2, 3, 16, 16))
    s = NoiseSchedule.linear(10, 0.01, 0.1)
    micro_model.zero_grad()
    loss = consistency_loss(micro_model, x0, s, t_max=10, rng=rng)
    assert float(loss.data) >= 0.0
    T.backward(loss)
    grads = [t.grad for t in micro_model.named_params().values()]
    assert all(g is None or np.all(np.isfinite(g)) for g in grads)
    assert any(g is not None and np.any(g != 0.0) for g in grads)
    micro_model.zero_grad()


def test_consistency_fixed_ts_reproducible(micro_model):
    s = NoiseSchedule.linear(10, 0.01, 0.1)
    x0 = stream(11, "t-diff").standard_normal((2, 3, 16, 16))
    a = consistency_loss(micro_model, x0, s, 10, stream(12, "t-diff"))
    b = consistency_loss(micro_model, x0, s, 10, stream(12, "t-diff"))
    assert float(a.data) == float(b.data)


def test_consistency_input_validation(micro_model):
    s = NoiseSchedule.linear(10)
    rng = stream(13, "t-diff")
    with pytest.raises(ConfigError):
        consistency_loss(micro_model, np.zeros((3, 16, 16)), s, 5, rng)
    with pytest.raises(ConfigError):
        consistency_loss(micro_model, np.zeros((1, 3, 16, 16)), s, 11, rng)
