"""The names `perfbench/tracer.py` patches must exist in the package.

The benchmark's tracer wraps dcswin functions and methods by name from
outside the package. This fast check installs and uninstalls it, so a
refactor that deletes or renames a traced name fails here, not only in the
slow `perfbench` suite.
"""
import importlib
from pathlib import Path

import pytest

import dcswin.dynamic_window as dynamic_window
import dcswin.model as model
import dcswin.tensor as tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracer_mod(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_restores(tracer_mod):
    functions = [(tensor, op) for op in tracer_mod.TENSOR_OPS]
    functions += [(module, attr) for module, attr, *_ in tracer_mod._FUNCTIONS]
    originals = {(module, attr): getattr(module, attr)
                 for module, attr in functions}
    linear, block_call = tensor.linear, model.Block.__call__
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tensor.linear is not linear
        # names imported into other modules are swapped there too
        predict_scales = originals[(dynamic_window, "predict_scales")]
        assert dynamic_window.predict_scales is not predict_scales
        assert model.predict_scales is dynamic_window.predict_scales
        assert model.Block.__call__ is not block_call
    finally:
        tracer.uninstall()
    assert tensor.linear is linear
    assert model.Block.__call__ is block_call
    assert model.predict_scales is dynamic_window.predict_scales
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
