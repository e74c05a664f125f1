"""Finite-difference verification of every differentiable operation.

Each op is checked on 20 seeded random shapes (central differences,
h=1e-5, 64-bit) against the < 1e-4 relative-error bar, plus a directional
check through the micro end-to-end model. A deliberately wrong backward
rule proves the harness actually catches errors.
"""
import numpy as np
import pytest

import dcswin.tensor as T
from dcswin.gradcheck import (_attention_cases, _dynamic_window_case,
                              check_elementwise, op_names, run_model_check,
                              run_op_check)
from dcswin.tensor import Tensor

SEEDS = tuple(range(20))


@pytest.mark.parametrize("name", op_names())
def test_op_gradcheck(name):
    result = run_op_check(name, seeds=SEEDS)
    assert result.passed, result.describe()


# the tape API, the constructors and the ops that record no graph
_NOT_DIFFERENTIABLE = {"Tensor", "Tape", "backward", "no_grad",
                       "checked_mode", "is_checked", "zeros", "ones",
                       "trunc_normal", "detach"}
_CASE_NAMES = {"slice_nd": "slice", "reduce_sum": "sum",
               "reduce_mean": "mean"}


def test_every_differentiable_op_has_a_case():
    ops = set(T.__all__) - _NOT_DIFFERENTIABLE
    missing = sorted(op for op in ops
                     if _CASE_NAMES.get(op, op) not in op_names())
    assert not missing, f"ops without a gradcheck case: {missing}"


@pytest.mark.parametrize("name", [
    "windowed_mhsa", "windowed_mhsa_padded", "window_attention",
    "dynamic_window_attention", "dynamic_window_attention_duplicates"])
def test_window_cases_check_the_window_op(name):
    """The windowed cases gradcheck `attention.window_attention`, not a
    chain of smaller ops."""
    cases = {**_attention_cases(0), **_dynamic_window_case(0)}
    f, _ = cases[name]
    with T.Tape() as tape:
        f()
    ops = [entry.bw.__qualname__.split(".")[0] for entry in tape._entries]
    assert "window_attention" in ops and "multihead_attention" not in ops


def test_micro_model_directional_gradcheck():
    result = run_model_check()
    assert result.passed, result.describe()


def test_harness_catches_wrong_backward():
    # mul with a broken rule: reports (g, g) instead of (g*b, g*a)
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)) + 2.0, requires_grad=True)

    def broken():
        out = T._finish(a.data * b.data, (a, b), lambda g: (g, g),
                        "broken_mul")
        return T.reduce_sum(out)

    result = check_elementwise("broken_mul", broken, {"a": a, "b": b})
    assert not result.passed


def test_gradcheck_reports_worst_error():
    result = run_op_check("softmax", seeds=(0, 1))
    assert result.worst_rel >= 0.0
    assert "softmax" in result.describe()
    assert result.per_tensor
