"""The digest half of `tools/parity.py`: the same code and weights give the
same digests, every case digests the inference, evaluation, pseudo-label
and checkpoint paths, one ulp in one parameter changes them, the files of
a small experiment and the gradient checks' errors of every named op and
the model are digested, and only a gradient check may be new or gone."""
import importlib
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture()
def parity(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("parity")


def micro_full(parity):
    """The micro config's full arm: soft and hard selection, fresh and
    perturbed weights."""
    cases = [c for c in parity.CASES if c.config == "micro"
             and c.arm == "full"]
    assert len(cases) == 4
    return cases


def test_digests_repeat_and_see_one_ulp(parity, monkeypatch):
    cases = micro_full(parity)
    first = parity.digests(cases)
    assert parity.digests(cases) == first
    for case in cases:
        for what in ("predict_probs", "evaluate_model.values",
                     "evaluate_model.confusion", "pseudo.ids",
                     "pseudo.labels", "pseudo.confidences",
                     "checkpoint.logits"):
            assert f"{case.name}/{what}" in first
    build = parity._model

    def nudged(cfg, weights):
        model = build(cfg, weights)
        wq = model.named_params()["stages.0.blocks.0.attn.wq"].data
        wq[0, 0] = np.nextafter(wq[0, 0], np.inf)
        return model

    monkeypatch.setattr(parity, "_model", nudged)
    moved = parity.digests(cases)
    assert moved.keys() == first.keys()
    for case in cases:
        prefix = f"{case.name}/"
        differ = [k for k in first
                  if k.startswith(prefix) and moved[k] != first[k]]
        # beyond the nudged weight itself: at a fresh init the attention
        # output projection is zero, so there only gradients and later
        # steps see it; perturbed weights carry it to the logits
        assert any(not k.endswith(".attn.wq") for k in differ), case.name
        if case.weights == "perturbed":
            assert prefix + "logits" in differ


def test_gradcheck_digests_repeat_and_cover_every_check(parity):
    from dcswin import gradcheck
    first = parity.gradcheck_digests()
    assert parity.gradcheck_digests() == first
    checks = {name.split("/")[1] for name in first}
    assert checks == set(gradcheck.op_names()) | {"model[micro]"}
    for check in checks:
        assert f"gradcheck/{check}/worst_rel" in first
    assert "gradcheck/model[micro]/input" in first


def test_cases_cover_every_config_arm_and_selection(parity):
    cases = parity.CASES
    assert {c.config for c in cases} == {"default", "semi-loop", "micro",
                                         "padded-micro"}
    assert {(c.arm, c.selection) for c in cases} == {
        ("full", "soft"), ("full", "hard"), ("no-cs", "soft"),
        ("no-cs", "hard"), ("no-dw", "soft"), ("baseline", "soft")}
    assert len(cases) == 4 * 6 * 2


def test_experiment_digests_repeat_and_cover_every_file(parity):
    first = parity.experiment_digests()
    assert parity.experiment_digests() == first
    assert sorted(first) == ["experiment/report.json"] + [
        f"experiment/seed{seed}/{what}" for seed in (0, 1)
        for what in ("epochs.jsonl", "metrics.json", "state.dcsm")]


def test_compare_lets_only_gradient_checks_come_and_go(parity, capsys):
    """A named gradient check is the package's own, so one tree may lack
    it; any other name, order or digest that differs fails."""
    base = [("micro/full/soft/fresh/logits", "a"),
            ("gradcheck/add/worst_rel", "b")]
    assert parity.compare(base, base, "rev") == 0
    grown = base + [("gradcheck/patch_embed/worst_rel", "c")]
    assert parity.compare(base, grown, "rev") == 0
    assert "new: 1 arrays of the gradient checks patch_embed" in \
        capsys.readouterr().out
    assert parity.compare(grown, base, "rev") == 0
    assert "gone: 1" in capsys.readouterr().out
    assert parity.compare(base, base[1:], "rev") == 1
    assert parity.compare(base, base[::-1], "rev") == 1
    assert parity.compare(base, [base[0], (base[1][0], "x")], "rev") == 1
