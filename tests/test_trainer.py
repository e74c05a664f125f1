"""Training loop tests: config and schedules, optimizers, pseudo-label
generation, warmup purity, supervised-arm equivalence, and resume."""
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dcswin.trainer as trainer_mod
from dcswin import tensor as T
from dcswin.data import ArrayDataset, DatasetSplit, stratified_split, synth_generate
from dcswin.errors import ConfigError, FormatError, NumericsError
from dcswin.model import ARMS, DCSWin, ModelConfig
from dcswin.rng import stream
from dcswin.serialization import load_checkpoint, save_checkpoint
from dcswin.tensor import Tensor, backward, cross_entropy
from dcswin.trainer import (
    Adam,
    SGD,
    PseudoLabel,
    PseudoLabelSet,
    TrainConfig,
    evaluate_model,
    generate_pseudo_labels,
    load_run_config,
    make_optimizer,
    predict_probs,
    run_experiment,
    train,
    write_run_config,
)


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    return synth_generate(root, num_classes=2, per_class=8, image_size=16,
                          seed=0)


@pytest.fixture()
def dataset(tiny_manifest):
    return ArrayDataset.from_manifest(tiny_manifest)


@pytest.fixture()
def split(tiny_manifest):
    # 8 per class: 6 train / 2 test, 2 labeled / 4 unlabeled per class
    return stratified_split(tiny_manifest, train_frac=0.75, labeled_frac=0.4,
                            seed=0)


def fast_cfg(**overrides):
    base = dict(epochs=3, initial_lr=3e-3, batch_size=3, tau=0.5,
                warmup_epochs=0, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---- config -------------------------------------------------------------------


class TestTrainConfig:
    def test_cosine_schedule_endpoints(self):
        cfg = TrainConfig(epochs=50, initial_lr=1e-4, min_lr_fraction=0.01)
        assert cfg.learning_rate(0) == pytest.approx(1e-4, rel=1e-12)
        assert cfg.learning_rate(50) == pytest.approx(1e-6, rel=1e-12)

    def test_cosine_schedule_monotone(self):
        cfg = TrainConfig(epochs=20, initial_lr=0.01)
        lrs = [cfg.learning_rate(e) for e in range(21)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_step_schedule(self):
        cfg = TrainConfig(epochs=60, initial_lr=0.01, scheduler="step",
                          step_size=20, step_gamma=0.5)
        assert cfg.learning_rate(0) == 0.01
        assert cfg.learning_rate(19) == 0.01
        assert cfg.learning_rate(20) == 0.005
        assert cfg.learning_rate(40) == 0.0025

    def test_boundary_values_allowed(self):
        # tau = 1.0 is the supervised arm; warmup = epochs degenerates to
        # fully-supervised; both are legal configurations
        TrainConfig(tau=1.0)
        TrainConfig(epochs=5, warmup_epochs=5)
        TrainConfig(pseudo_weight=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0},
        {"batch_size": 0},
        {"initial_lr": 0.0},
        {"tau": 0.0},
        {"tau": 1.0001},
        {"pseudo_weight": 0.0},
        {"pseudo_weight": 1.2},
        {"epochs": 5, "warmup_epochs": 6},
        {"warmup_epochs": -1},
        {"optimizer": "lion"},
        {"momentum": 1.0},
        {"scheduler": "linear"},
        {"min_lr_fraction": 0.0},
        {"step_size": 0},
        {"step_gamma": 0.0},
        {"consistency_weight": -0.1},
        {"diffusion_steps": 0},
        {"consistency_t_max": 0},
        {"consistency_t_max": 51},
        {"augment_t": -1},
        {"augment_t": 51},
        {"checkpoint_every": 0},
        {"num_runs": 0},
        {"initial_lr": float("nan")},
        {"initial_lr": float("inf")},
        {"consistency_weight": float("nan")},
        {"consistency_weight": float("inf")},
        {"beta_start": float("nan")},
        {"beta_start": float("inf")},
        {"beta_start": -0.1},
        {"beta_end": float("nan")},
        {"beta_end": 1.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_mapping_roundtrip(self):
        cfg = TrainConfig(epochs=7, initial_lr=2.5e-3, tau=0.95,
                          optimizer="sgd", scheduler="step",
                          consistency_weight=0.25, seed=11)
        assert TrainConfig.from_mapping(cfg.to_mapping()) == cfg

    def test_mapping_defaults(self):
        assert TrainConfig.from_mapping({}) == TrainConfig()

    @pytest.mark.parametrize("key,value", [
        ("epochs", "abc"),
        ("epochs", "5.0"),
        ("batch_size", ""),
        ("initial_lr", "fast"),
        ("tau", "nan"),
        ("beta_end", "inf"),
    ])
    def test_mapping_bad_value_is_config_error(self, key, value):
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({key: value})


# ---- optimizers -----------------------------------------------------------------


class TestOptimizers:
    def test_adam_zero_grad_exact_noop(self):
        w = Tensor(np.array([1.5, -2.25, 0.125]))
        before = w.data.copy()
        opt = Adam({"w": w})
        w.grad = np.zeros(3)
        opt.step(0.1)
        w.grad = None
        opt.step(0.1)
        assert np.array_equal(w.data, before)

    def test_adam_quadratic_convergence(self):
        # single 1-d parameter, loss (w - 3)^2
        w = Tensor(np.array([0.0]))
        opt = Adam({"w": w})
        for _ in range(500):
            w.grad = 2.0 * (w.data - 3.0)
            opt.step(0.05)
        assert abs(float(w.data[0]) - 3.0) < 1e-3

    def test_sgd_momentum_matches_reference(self):
        w = Tensor(np.array([1.0, 2.0]))
        opt = SGD({"w": w}, momentum=0.9)
        ref_w = w.data.copy()
        ref_v = np.zeros(2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            g = rng.standard_normal(2)
            w.grad = g.copy()
            opt.step(0.1)
            ref_v = 0.9 * ref_v + g
            ref_w = ref_w - 0.1 * ref_v
            assert np.array_equal(w.data, ref_w)

    @pytest.mark.parametrize("optimizer", [Adam, SGD],
                             ids=lambda cls: cls.__name__)
    def test_optimizer_state_roundtrip_continues_identically(self, optimizer):
        rng = np.random.default_rng(7)
        grads = [rng.standard_normal(3) for _ in range(6)]
        w1 = Tensor(np.array([0.5, -0.5, 1.0]))
        opt1 = optimizer({"w": w1})
        for g in grads[:3]:
            w1.grad = g.copy()
            opt1.step(0.01)
        w2 = Tensor(w1.data.copy())
        opt2 = optimizer({"w": w2})
        opt2.load_state_tensors(opt1.state_tensors(), opt1.step_count)
        for g in grads[3:]:
            w1.grad = g.copy()
            opt1.step(0.01)
            w2.grad = g.copy()
            opt2.step(0.01)
            assert np.array_equal(w1.data, w2.data)

    @pytest.mark.parametrize("optimizer", [Adam, SGD],
                             ids=lambda cls: cls.__name__)
    def test_missing_optimizer_state_rejected(self, optimizer):
        opt = optimizer({"w": Tensor(np.zeros(2))})
        with pytest.raises(FormatError, match="missing optimizer state"):
            opt.load_state_tensors({}, 1)

    def test_make_optimizer_dispatch(self):
        params = {"w": Tensor(np.zeros(1))}
        assert isinstance(make_optimizer(TrainConfig(), params), Adam)
        sgd = make_optimizer(TrainConfig(optimizer="sgd", momentum=0.7), params)
        assert isinstance(sgd, SGD)
        assert sgd.momentum == 0.7


class RefAdam:
    """Adam as it was written before the flat state: per parameter in
    sorted-name order, one dict entry per moment."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else 0.0
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2)
                                                 + self.eps)
            p.data = p.data - update

    def state_tensors(self):
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name].copy()
            out[f"opt.v.{name}"] = self.v[name].copy()
        return out


class RefSGD:
    """SGD with momentum as it was written before the flat state."""

    def __init__(self, params, momentum=0.9):
        self.params = dict(params)
        self.momentum = momentum
        self.step_count = 0
        self.vel = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.step_count += 1
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else 0.0
            self.vel[name] = self.momentum * self.vel[name] + g
            p.data = p.data - lr * self.vel[name]

    def state_tensors(self):
        return {f"opt.vel.{k}": v.copy() for k, v in self.vel.items()}


# insertion order (a model's `named_params` order) is not sorted order
SHAPES = {"stages.1.w": (3, 4), "head.b": (2,), "patch.w": (2, 3, 2),
          "alpha": (1,)}


def fresh_params(rng):
    return {k: Tensor(rng.standard_normal(s)) for k, s in SHAPES.items()}


def same_bytes(a, b):
    return list(a) == list(b) and all(
        a[k].tobytes() == b[k].tobytes() for k in a)


@pytest.mark.parametrize("flat_cls,ref_cls,lrs", [
    (Adam, RefAdam, (3e-3, 1e-2, 0.5)), (SGD, RefSGD, (0.1, 1e-3, 2.0))],
    ids=["Adam", "SGD"])
def test_flat_optimizer_matches_the_per_parameter_one(flat_cls, ref_cls, lrs):
    """Parameters, moments and state tensors are the same bytes as the
    per-parameter optimizer's over 9 steps, with absent gradients and a
    state round trip after the fourth."""
    rng = np.random.default_rng(11)
    params = fresh_params(rng)
    ref_params = {k: Tensor(p.data.copy()) for k, p in params.items()}
    opt, ref = flat_cls(params), ref_cls(ref_params)
    for k in range(9):
        for j, name in enumerate(SHAPES):
            g = None if (k + j) % 3 == 0 else \
                rng.standard_normal(SHAPES[name]) * 10.0 ** (j - 2)
            params[name].grad = None if g is None else g.copy()
            ref_params[name].grad = None if g is None else g.copy()
        opt.step(lrs[k % 3])
        ref.step(lrs[k % 3])
        assert opt.step_count == ref.step_count == k + 1
        assert same_bytes({n: p.data for n, p in params.items()},
                          {n: p.data for n, p in ref_params.items()})
        assert same_bytes(opt.state_tensors(), ref.state_tensors())
        if k == 3:
            params = {n: Tensor(p.data.copy()) for n, p in params.items()}
            resumed = flat_cls(params)
            resumed.load_state_tensors(opt.state_tensors(), opt.step_count)
            opt = resumed


@pytest.mark.parametrize("optimizer", [Adam, SGD],
                         ids=lambda cls: cls.__name__)
def test_non_finite_gradient_names_the_first_and_changes_nothing(optimizer):
    rng = np.random.default_rng(12)
    params = fresh_params(rng)
    opt = optimizer(params)
    for _ in range(2):
        for name, p in params.items():
            p.grad = rng.standard_normal(SHAPES[name])
        opt.step(0.01)
    before = ({n: p.data for n, p in params.items()}, opt.state_tensors())
    # "head.b" sorts before "stages.1.w"; `named_params` order puts it after
    params["stages.1.w"].grad[1, 2] = np.inf
    params["head.b"].grad[0] = np.nan
    with pytest.raises(NumericsError) as info:
        opt.step(0.01)
    assert str(info.value) == "non-finite values in gradient of stages.1.w"
    assert opt.step_count == 2
    assert same_bytes({n: p.data for n, p in params.items()}, before[0])
    assert same_bytes(opt.state_tensors(), before[1])


# ---- pseudo-labels ---------------------------------------------------------------


class TestPseudoLabels:
    def test_set_rejects_confidence_at_or_below_tau(self):
        ok = PseudoLabel("a/x", 1, 0.95)
        PseudoLabelSet((ok,), tau=0.9)
        with pytest.raises(ConfigError, match="<= tau"):
            PseudoLabelSet((PseudoLabel("a/x", 1, 0.9),), tau=0.9)
        with pytest.raises(ConfigError, match="<= tau"):
            PseudoLabelSet((PseudoLabel("a/x", 1, 0.85),), tau=0.9)

    def test_set_accessors(self):
        recs = (PseudoLabel("b/y", 2, 0.8), PseudoLabel("a/x", 0, 0.7))
        ps = PseudoLabelSet(recs, tau=0.6)
        assert len(ps) == 2
        assert ps.ids() == ["b/y", "a/x"]
        assert np.array_equal(ps.labels(), [2, 0])

    def test_generate_matches_manual_recompute(self, dataset, split):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=1)
        dataset.fit_normalization(sorted(split.labeled))
        ids = sorted(split.unlabeled)
        probs = predict_probs(model, dataset, ids)
        ps = generate_pseudo_labels(model, dataset, split.unlabeled, tau=0.5)
        expected = [(i, int(p.argmax()), float(p.max()))
                    for i, p in zip(ids, probs) if p.max() > 0.5]
        assert [(r.id, r.label, r.confidence) for r in ps.records] == expected

    def test_generate_strictness_at_exact_threshold(self, dataset, split):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=2)
        dataset.fit_normalization(sorted(split.labeled))
        ids = sorted(split.unlabeled)
        probs = predict_probs(model, dataset, ids)
        tau = float(probs.max(axis=1)[0])  # first sample's own confidence
        ps = generate_pseudo_labels(model, dataset, split.unlabeled, tau)
        assert ids[0] not in ps.ids()

    def test_generate_tau_one_is_empty(self, dataset, split, monkeypatch):
        # a softmax confidence never exceeds 1, so no inference is needed
        def no_inference(*args, **kwargs):
            raise AssertionError("predict_probs called with tau = 1.0")

        monkeypatch.setattr(trainer_mod, "predict_probs", no_inference)
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=3)
        dataset.fit_normalization(sorted(split.labeled))
        ps = generate_pseudo_labels(model, dataset, split.unlabeled, tau=1.0)
        assert len(ps) == 0
        assert ps.tau == 1.0


# ---- the loop --------------------------------------------------------------------


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


class TestTrainLoop:
    def test_tau_one_bit_identical_to_supervised_loop(self, dataset, split,
                                                      tiny_manifest):
        cfg = fast_cfg(tau=1.0)
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        records = train(model, dataset, split, cfg)

        # hand-written supervised loop over the labeled pool only
        ref_data = ArrayDataset.from_manifest(tiny_manifest)
        labeled = sorted(split.labeled)
        ref_data.fit_normalization(labeled)
        ref = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        opt = Adam(ref.named_params())
        rng = stream(cfg.seed, "shuffle-labeled")
        losses = []
        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate(epoch)
            order = [labeled[i] for i in rng.permutation(len(labeled))]
            total = 0.0
            for start in range(0, len(order), cfg.batch_size):
                chunk = order[start:start + cfg.batch_size]
                ref.zero_grad()
                loss = cross_entropy(ref(Tensor(ref_data.batch(chunk))),
                                     ref_data.labels_for(chunk))
                backward(loss)
                opt.step(lr)
                total += float(loss.data) * len(chunk)
            losses.append(total / len(order))

        assert [r["labeled_loss"] for r in records] == losses
        ref_params = ref.named_params()
        for name, p in model.named_params().items():
            assert np.array_equal(p.data, ref_params[name].data), name
        assert all(r["pseudo_count"] == 0 and r["pseudo_loss"] is None
                   for r in records)

    def test_same_seed_bit_identical_logs(self, dataset, split, tiny_manifest):
        cfg = fast_cfg(tau=0.5, warmup_epochs=1)
        a = train(DCSWin(ModelConfig.micro(num_classes=2), seed=0),
                  dataset, split, cfg)
        b = train(DCSWin(ModelConfig.micro(num_classes=2), seed=0),
                  ArrayDataset.from_manifest(tiny_manifest), split, cfg)
        assert strip_wall(a) == strip_wall(b)

    def test_warmup_purity_and_sample_provenance(self, dataset, split):
        # tau far below the 2-class softmax floor of 0.5, so the pseudo set
        # is the whole unlabeled pool once warmup ends
        cfg = fast_cfg(epochs=4, warmup_epochs=2, tau=0.05)
        events = []
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        records = train(model, dataset, split, cfg, step_listener=events.append)

        labeled, unlabeled = set(split.labeled), set(split.unlabeled)
        for ev in events:
            if ev["kind"] == "labeled":
                assert set(ev["ids"]) <= labeled
            elif ev["kind"] == "pseudo":
                assert ev["epoch"] >= 2
                assert set(ev["ids"]) <= unlabeled
        pseudo_epochs = {ev["epoch"] for ev in events if ev["kind"] == "pseudo"}
        assert pseudo_epochs == {2, 3}
        assert [r["pseudo_count"] for r in records] == \
            [0, 0, len(unlabeled), len(unlabeled)]
        assert all("pseudo_precision" in r for r in records[2:])

    def test_pseudo_labels_regenerated_every_epoch(self, dataset, split,
                                                   monkeypatch):
        calls = []
        real = trainer_mod.generate_pseudo_labels

        def counting(*args, **kwargs):
            calls.append(args[4:] + tuple(kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "generate_pseudo_labels", counting)
        cfg = fast_cfg(epochs=4, warmup_epochs=1, tau=0.3)
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg)
        # epochs 1, 2, 3, each in the default inference chunk, not in
        # cfg.batch_size
        assert calls == [(), (), ()]

    def test_weighted_loss_is_exact_multiple(self, dataset, split):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        dataset.fit_normalization(sorted(split.labeled))
        chunk = sorted(split.unlabeled)[:4]
        x = dataset.batch(chunk)
        y = dataset.labels_for(chunk)

        model.zero_grad()
        plain = cross_entropy(model(Tensor(x)), y)
        backward(plain)
        base_grads = {k: p.grad.copy() for k, p in model.named_params().items()}

        model.zero_grad()
        weighted = T.scale(cross_entropy(model(Tensor(x)), y), 0.8)
        backward(weighted)

        assert float(weighted.data) == 0.8 * float(plain.data)
        for name, p in model.named_params().items():
            assert np.allclose(p.grad, 0.8 * base_grads[name], rtol=1e-11,
                               atol=1e-18), name

    def test_warmup_equals_epochs_is_fully_supervised(self, dataset, split):
        cfg = fast_cfg(epochs=3, warmup_epochs=3, tau=0.5)
        events = []
        records = train(DCSWin(ModelConfig.micro(num_classes=2), seed=0),
                        dataset, split, cfg, step_listener=events.append)
        assert {ev["kind"] for ev in events} == {"labeled"}
        assert all(r["pseudo_loss"] is None for r in records)

    def test_empty_labeled_split_rejected(self, dataset, split):
        empty = DatasetSplit(labeled=(), unlabeled=split.unlabeled,
                             test=split.test, seed=0, train_frac=0.8,
                             labeled_frac=0.05)
        with pytest.raises(ConfigError, match="labeled split is empty"):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
                  empty, fast_cfg())

    def test_resume_matches_uninterrupted(self, dataset, split, tiny_manifest,
                                          tmp_path):
        cfg = fast_cfg(epochs=4, warmup_epochs=1, tau=0.4, checkpoint_every=10)
        full = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        train(full, dataset, split, cfg, run_dir=tmp_path / "full")

        part = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        data2 = ArrayDataset.from_manifest(tiny_manifest)
        train(part, data2, split, cfg, run_dir=tmp_path / "resumed",
              stop_after=2)
        resumed = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        train(resumed, data2, split, cfg, run_dir=tmp_path / "resumed")

        full_params = full.named_params()
        for name, p in resumed.named_params().items():
            assert np.array_equal(p.data, full_params[name].data), name
        read = lambda p: [json.loads(line) for line in
                          (p / "epochs.jsonl").read_text().splitlines()]
        assert strip_wall(read(tmp_path / "full")) == \
            strip_wall(read(tmp_path / "resumed"))

    def test_crash_before_checkpoint_lands_resumes_exactly(
            self, dataset, split, tiny_manifest, tmp_path, monkeypatch):
        cfg = fast_cfg(epochs=4, warmup_epochs=1, tau=0.4, checkpoint_every=1,
                       consistency_weight=0.1, consistency_t_max=5,
                       augment_t=3, diffusion_steps=10)

        def run(run_dir, data, events):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), data,
                  split, cfg, run_dir=run_dir,
                  step_listener=lambda e: events.append(
                      (e["kind"], e["epoch"], e["ids"], e["loss"])))

        full_events = []
        run(tmp_path / "full", dataset, full_events)

        # the third checkpoint's replace fails: epoch 2 is already in
        # epochs.jsonl, while state.dcsm still says epoch_next = 2
        real_replace = type(tmp_path).replace
        calls = []

        def crash_once(self, target):
            calls.append(target)
            if len(calls) == 3:
                raise OSError("injected crash before the checkpoint lands")
            return real_replace(self, target)

        monkeypatch.setattr(type(tmp_path), "replace", crash_once)
        data2 = ArrayDataset.from_manifest(tiny_manifest)
        crashed_events = []
        with pytest.raises(OSError, match="injected crash"):
            run(tmp_path / "crashed", data2, crashed_events)
        monkeypatch.undo()
        log = tmp_path / "crashed" / "epochs.jsonl"
        assert [json.loads(line)["epoch"]
                for line in log.read_text().splitlines()] == [0, 1, 2]

        resumed_events = []
        run(tmp_path / "crashed", data2, resumed_events)
        assert resumed_events[0][1] == 2
        assert [e for e in crashed_events if e[1] < 2] + resumed_events == \
            full_events
        read = lambda p: [json.loads(line) for line in
                          (p / "epochs.jsonl").read_text().splitlines()]
        assert strip_wall(read(tmp_path / "full")) == \
            strip_wall(read(tmp_path / "crashed"))
        assert (tmp_path / "full" / "state.dcsm").read_bytes() == \
            (tmp_path / "crashed" / "state.dcsm").read_bytes()

    def test_resume_rejects_config_mismatch(self, dataset, split, tmp_path):
        cfg = fast_cfg(epochs=3)
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg, run_dir=tmp_path, stop_after=1)
        other = replace(cfg, initial_lr=1e-4)
        with pytest.raises(FormatError, match="checkpoint/config mismatch"):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
                  split, other, run_dir=tmp_path)

    def test_resume_rejects_truncated_log(self, dataset, split, tmp_path):
        cfg = fast_cfg(epochs=3)
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg, run_dir=tmp_path, stop_after=2)
        (tmp_path / "epochs.jsonl").write_text("")
        with pytest.raises(FormatError, match="has 0 lines"):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
                  split, cfg, run_dir=tmp_path)

    @pytest.mark.parametrize("line,needle", [
        pytest.param('{"epoch": 1, "labeled_lo', "is not valid JSON",
                     id="garbled"),
        pytest.param("[1,2]", "must be a JSON object, got list",
                     id="json-list"),
    ])
    def test_resume_rejects_corrupt_log_line(self, dataset, split, tmp_path,
                                             line, needle):
        """A log line the checkpoint vouches for that is not a JSON object
        raises FormatError naming the file and line before anything is
        written."""
        cfg = fast_cfg(epochs=3)
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg, run_dir=tmp_path, stop_after=2)
        log_path = tmp_path / "epochs.jsonl"
        lines = log_path.read_text().splitlines()
        log_path.write_text(f"{lines[0]}\n{line}\n")
        log = log_path.read_bytes()
        state = (tmp_path / "state.dcsm").read_bytes()
        events = []
        with pytest.raises(FormatError,
                           match=re.escape(f"{log_path} line 2 {needle}")):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
                  split, cfg, run_dir=tmp_path, step_listener=events.append)
        assert events == []
        assert log_path.read_bytes() == log
        assert (tmp_path / "state.dcsm").read_bytes() == state

    @pytest.mark.parametrize("key,value", [
        pytest.param("opt.m.head.b", lambda a: np.zeros(1), id="moment-(1,)"),
        pytest.param("opt.m.head.b", lambda a: np.zeros(3), id="moment-(3,)"),
        pytest.param("opt.m.head.w", lambda a: np.full_like(a, np.nan),
                     id="moment-nan"),
        pytest.param("opt.v.head.b", lambda a: -np.ones_like(a),
                     id="second-moment-negative"),
        pytest.param("head.w", lambda a: np.full_like(a, np.inf),
                     id="param-inf"),
        pytest.param("progress.epoch_next", "-2", id="epoch-negative"),
        pytest.param("progress.epoch_next", "4", id="epoch-past-end"),
        pytest.param("progress.epoch_next", "abc", id="epoch-not-int"),
        pytest.param("opt.kind", "sgd", id="kind-other"),
        pytest.param("opt.step", "abc", id="step-not-int"),
        pytest.param("opt.step", "-7", id="step-negative"),
        pytest.param("rng.shuffle-labeled", "{}", id="rng-empty"),
        pytest.param("rng.diffusion-noise", "{", id="rng-not-json"),
        pytest.param("rng.augment-noise", "[" * 100000, id="rng-deep"),
        pytest.param("norm.mean", "[0.5, 0.5", id="norm-not-json"),
        pytest.param("norm.mean", '["0.5", "0.5", "0.5"]',
                     id="norm-strings"),
        pytest.param("norm.std", "[1.0, NaN, 1.0]", id="norm-nan"),
        pytest.param("norm.std", "[1e999, 1, 1]", id="norm-overflow"),
        pytest.param("norm.mean", None, id="norm-missing"),
        pytest.param("data.classes", None, id="classes-missing"),
    ])
    def test_corrupt_checkpoint_rejected_before_training(
            self, dataset, split, tmp_path, key, value):
        """A checkpoint field edited to a value `_save_state` never writes
        (None deletes the key) raises FormatError before any epoch runs."""
        cfg = fast_cfg(epochs=3)
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg, run_dir=tmp_path, stop_after=1)
        path = tmp_path / "state.dcsm"
        config, tensors = load_checkpoint(path)
        if key in tensors:
            tensors[key] = value(tensors[key])
        elif value is None:
            del config[key]
        else:
            config[key] = value
        save_checkpoint(path, config, tensors)
        log = (tmp_path / "epochs.jsonl").read_text()
        events = []
        with pytest.raises(FormatError):
            train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
                  split, cfg, run_dir=tmp_path, step_listener=events.append)
        assert events == []
        assert (tmp_path / "epochs.jsonl").read_text() == log

    def test_non_finite_gradient_stops_before_the_step(self, dataset, split,
                                                       monkeypatch):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        before = {k: p.data.copy() for k, p in model.named_params().items()}
        real_backward = trainer_mod.backward

        def poisoned(loss):
            real_backward(loss)
            model.head.w.grad[0, 0] = np.nan

        monkeypatch.setattr(trainer_mod, "backward", poisoned)
        with pytest.raises(NumericsError, match="gradient of head.w"):
            train(model, dataset, split, fast_cfg())
        for name, p in model.named_params().items():
            assert np.array_equal(p.data, before[name]), name

    def test_consistency_pass_runs_on_unlabeled(self, dataset, split):
        cfg = fast_cfg(epochs=1, warmup_epochs=1, consistency_weight=0.5,
                       consistency_t_max=5, diffusion_steps=10)
        events = []
        train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset,
              split, cfg, step_listener=events.append)
        cons = [ev for ev in events if ev["kind"] == "consistency"]
        assert cons
        assert set().union(*(set(ev["ids"]) for ev in cons)) == \
            set(split.unlabeled)
        assert all(np.isfinite(ev["loss"]) for ev in events)

    def test_diffusion_augmentation_changes_trajectory(self, dataset, split,
                                                       tiny_manifest):
        plain = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        train(plain, dataset, split, fast_cfg(epochs=1))
        noisy = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        train(noisy, ArrayDataset.from_manifest(tiny_manifest), split,
              fast_cfg(epochs=1, augment_t=5, diffusion_steps=10))
        diffs = [not np.array_equal(p.data, noisy.named_params()[k].data)
                 for k, p in plain.named_params().items()]
        assert any(diffs)


# ---- evaluation and experiment orchestration ----------------------------------

def probs_in_chunks(monkeypatch, chunk, model, dataset, ids):
    """`predict_probs` with requests run in chunks of `chunk` images."""
    monkeypatch.setattr(trainer_mod, "INFER_CHUNK", chunk)
    return predict_probs(model, dataset, ids)


class TestEvaluation:
    def test_predict_probs_rows_are_distributions(self, dataset, split):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        dataset.fit_normalization(sorted(split.labeled))
        ids = sorted(split.test)
        probs = predict_probs(model, dataset, ids)
        assert probs.shape == (len(ids), 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_predict_probs_of_no_ids_runs_no_forward(self, dataset, arm,
                                                     monkeypatch):
        model = DCSWin(ModelConfig.micro(num_classes=3).ablated(arm), seed=0)
        dataset.fit_normalization(sorted(dataset.index))
        monkeypatch.setattr(DCSWin, "forward", None)
        for ids in ([], ()):
            probs = predict_probs(model, dataset, ids)
            assert probs.shape == (0, 3) and probs.dtype == np.float64

    @pytest.mark.parametrize("selection", ["soft", "hard"])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_predict_probs_independent_of_batch_size(self, dataset, arm,
                                                     selection, monkeypatch):
        model = DCSWin(ModelConfig.micro(num_classes=2, selection=selection)
                       .ablated(arm), seed=0)
        # a fresh init zeroes the residual branches' output projections
        rng = np.random.default_rng(3)
        for p in model.named_params().values():
            p.data = p.data + rng.standard_normal(p.data.shape) * 0.05
        ids = sorted(dataset.index)
        dataset.fit_normalization(ids)
        # 9 and 16 ids leave a last chunk of one image at 8, 5 and 4
        chunks = (trainer_mod.INFER_CHUNK, 7, 5, 4)
        for n_ids in (9, 16):
            whole = probs_in_chunks(monkeypatch, n_ids, model, dataset,
                                    ids[:n_ids])
            for chunk in chunks:
                assert np.array_equal(probs_in_chunks(
                    monkeypatch, chunk, model, dataset, ids[:n_ids]), whole)

    @pytest.mark.parametrize("n_ids,chunk,sizes", [
        (64, None, [8] * 8),
        (17, None, [8, 9]),
        (9, None, [9]),
        (1, None, [1]),
        (9, 4, [4, 5]),
        (2, 1, [2]),
    ])
    def test_no_grad_request_chunks(self, dataset, monkeypatch, n_ids,
                                    chunk, sizes):
        """Requests run in chunks of INFER_CHUNK images, and a last chunk of
        one image joins the chunk before it."""
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        seen = []
        real = model.forward
        monkeypatch.setattr(model, "forward",
                            lambda x: (seen.append(x.shape[0]), real(x))[1])
        ids = (sorted(dataset.index) * 4)[:n_ids]
        dataset.fit_normalization(sorted(dataset.index))
        if chunk is not None:
            monkeypatch.setattr(trainer_mod, "INFER_CHUNK", chunk)
        probs = predict_probs(model, dataset, ids)
        assert seen == sizes and probs.shape == (n_ids, 2)

    @pytest.mark.parametrize("arm", ["baseline", "full"])
    def test_chunked_request_matches_one_forward_default_config(
            self, tmp_path_factory, arm, monkeypatch):
        """At the default config a one-image forward rounds differently
        from a wider batch (NumPy computes one-row products through gemv),
        so this is where a one-image chunk would show; at the micro config
        it does not."""
        manifest = synth_generate(tmp_path_factory.mktemp("default64"),
                                  num_classes=4, per_class=5, image_size=64,
                                  seed=0)
        data64 = ArrayDataset.from_manifest(manifest)
        ids = sorted(data64.index)[:17]
        data64.fit_normalization(ids)
        model = DCSWin(ModelConfig().ablated(arm), seed=0)
        rng = np.random.default_rng(3)
        for p in model.named_params().values():
            p.data = p.data + rng.standard_normal(p.data.shape) * 0.05
        chunks = (trainer_mod.INFER_CHUNK, 16, 4)
        whole = probs_in_chunks(monkeypatch, len(ids), model, data64, ids)
        for chunk in chunks:
            assert np.array_equal(
                probs_in_chunks(monkeypatch, chunk, model, data64, ids), whole)
        pair = probs_in_chunks(monkeypatch, 2, model, data64, ids[:2])
        assert np.array_equal(
            probs_in_chunks(monkeypatch, 1, model, data64, ids[:2]), pair)

    @staticmethod
    def _noisy_model(arm):
        model = DCSWin(ModelConfig.micro(num_classes=2).ablated(arm), seed=0)
        # a fresh init zeroes the residual branches' output projections
        rng = np.random.default_rng(3)
        for p in model.named_params().values():
            p.data = p.data + rng.standard_normal(p.data.shape) * 0.05
        return model

    @staticmethod
    def _unpooled(model, dataset, ids):
        """`predict_probs`' chunk loop without its request scope."""
        out = []
        with T.no_grad():
            for start, stop in trainer_mod._chunks(len(ids),
                                                   trainer_mod.INFER_CHUNK):
                logits = model(Tensor(dataset.batch(list(ids[start:stop]))))
                out.append(T.softmax(logits, axis=1).data)
        return np.concatenate(out, axis=0)

    @pytest.mark.parametrize("n_ids", [64, 17])
    @pytest.mark.parametrize("arm", sorted(ARMS))
    def test_request_buffers_leave_probs_bit_identical(self, dataset, arm,
                                                       n_ids):
        """With 17 ids the last chunk joins the one before it, so the pool
        serves a second, wider chunk after the first."""
        model = self._noisy_model(arm)
        ids = (sorted(dataset.index) * 4)[:n_ids]
        dataset.fit_normalization(sorted(dataset.index))
        probs = predict_probs(model, dataset, ids)
        assert probs.tobytes() == self._unpooled(model, dataset, ids).tobytes()

    def test_request_result_survives_the_next_request(self, dataset):
        model = self._noisy_model("full")
        ids = sorted(dataset.index) * 4
        dataset.fit_normalization(sorted(dataset.index))
        first = predict_probs(model, dataset, ids)
        kept = first.copy()
        second = predict_probs(model, dataset, ids[::-1])
        assert np.array_equal(first, kept)
        assert np.array_equal(second, kept[::-1])

    def test_request_buffers_do_not_grow_with_chunks(self, dataset):
        """The traced peak of a 64-image request (8 chunks) stays near that
        of a 16-image one (2 chunks), and every NumPy buffer of a request
        is freed once it returns."""
        model = self._noisy_model("full")
        ids = sorted(dataset.index) * 4
        dataset.fit_normalization(sorted(dataset.index))
        predict_probs(model, dataset, ids)  # warm any lazily built state

        def numpy_bytes():
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            return sum(trace.size for trace in snap.traces)

        peaks = {}
        tracemalloc.start()
        try:
            for n in (16, 64):
                before = numpy_bytes()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                probs = predict_probs(model, dataset, ids[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
                del probs
                assert numpy_bytes() == before
        finally:
            tracemalloc.stop()
        assert peaks[64] <= 1.25 * peaks[16]

    def test_evaluate_model_returns_all_metrics(self, dataset, split):
        model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
        dataset.fit_normalization(sorted(split.labeled))
        values, cm, probs = evaluate_model(model, dataset, sorted(split.test))
        assert set(values) == {"auc_roc", "balanced_accuracy", "f1",
                               "cohens_kappa"}
        assert cm.counts.sum() == len(split.test)
        assert probs.shape == (len(split.test), 2)


class TestExperiment:
    def test_run_config_roundtrip(self, tmp_path):
        model_cfg = ModelConfig.micro(num_classes=2)
        cfg = fast_cfg(epochs=2)
        write_run_config(tmp_path / "run.cfg", model_cfg, cfg, [0, 1],
                         extra={"note": "smoke"})
        m2, t2, rest = load_run_config(tmp_path / "run.cfg")
        assert m2 == model_cfg
        assert t2 == cfg
        assert rest["run.seeds"] == "0,1"
        assert rest["note"] == "smoke"

    @pytest.mark.parametrize("line", ["train.epoch = 5", "model.depth = 1",
                                      "train.epochs = abc"])
    def test_run_config_bad_model_or_train_key_rejected(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"{line}\nnote = kept\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_run_config_other_keys_pass_through(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.epochs = 5\nrun.whatever = 1\n")
        _, cfg, rest = load_run_config(path)
        assert cfg.epochs == 5
        assert rest == {"run.whatever": "1"}

    @pytest.mark.parametrize("pool,ids,match", [
        ("labeled", ("class0/nope",), "labeled pool names id 'class0/nope'"),
        ("unlabeled", ("nope",), "unlabeled pool names id 'nope'"),
        ("test", ("nope",), "test pool names id 'nope'"),
        ("test", ([1],), r"test pool names id \[1\]"),  # unhashable JSON
        ("labeled", (), "labeled pool is empty"),
        ("test", (), "test pool is empty"),
    ])
    def test_run_experiment_rejects_bad_split(self, dataset, split, tmp_path,
                                              pool, ids, match):
        bad = replace(split, **{pool: ids})
        with pytest.raises(ConfigError, match=match):
            run_experiment(dataset, bad, ModelConfig.micro(num_classes=2),
                           fast_cfg(epochs=1), tmp_path / "out", seeds=[0])
        assert not (tmp_path / "out").exists()

    def test_run_experiment_writes_artifacts(self, dataset, split, tmp_path):
        report = run_experiment(dataset, split, ModelConfig.micro(num_classes=2),
                                fast_cfg(epochs=2, warmup_epochs=1),
                                tmp_path, seeds=[0, 1])
        assert (tmp_path / "run_config.txt").is_file()
        assert (tmp_path / "report.json").is_file()
        for seed in (0, 1):
            seed_dir = tmp_path / f"seed{seed}"
            log = (seed_dir / "epochs.jsonl").read_text().splitlines()
            assert len(log) == 2
            assert (seed_dir / "state.dcsm").is_file()
            preds = (seed_dir / "predictions.jsonl").read_text().splitlines()
            assert len(preds) == len(split.test)
            assert (seed_dir / "metrics.json").is_file()
            assert (seed_dir / "confusion.csv").is_file()
        assert report.seeds == (0, 1)
        assert len(report.runs) == 2
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload["aggregate"]) == {"auc_roc", "balanced_accuracy",
                                             "f1", "cohens_kappa"}
