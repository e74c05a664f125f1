"""Semi-supervised training: warmup on labeled data, confidence-filtered
pseudo-labeling, weighted pseudo passes, optional noise-consistency term.

Epoch structure (0-indexed epoch e):
  (a) labeled mini-batch pass, unweighted cross-entropy;
  (b) if e >= warmup_epochs: regenerate pseudo-labels from the current
      model over the unlabeled pool, then a pseudo pass weighted by
      pseudo_weight (skipped silently when the set is empty). With
      tau >= 1 the set is empty by construction, so no inference runs;
  (c) if consistency_weight > 0: noise-consistency pass on unlabeled data;
  (d) scheduler step.

Every stochastic choice draws from a named per-seed stream, and streams
are only consumed by passes that actually run, so tau = 1.0 reproduces
the plain supervised loop bit for bit.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from . import tensor as T
from .data import ArrayDataset, DatasetSplit
from .diffusion import NoiseSchedule, consistency_loss, diffuse_batch
from .errors import ConfigError, FormatError
from .metrics import (ConfusionMatrix, MetricsReport, aggregate_runs,
                      evaluate_predictions, write_predictions_jsonl)
from .model import DCSWin, ModelConfig
from .rng import check_seed, restore, state_of, stream
from .serialization import (config_from_mapping, config_to_mapping,
                            config_to_text, load_checkpoint, load_config_file,
                            save_checkpoint)
from .tensor import Tensor, backward, cross_entropy, no_grad

OPTIMIZER_KINDS = ("adam", "sgd")
SCHEDULER_KINDS = ("cosine", "step")
_STREAM_NAMES = ("shuffle-labeled", "shuffle-pseudo", "shuffle-unlabeled",
                 "diffusion-noise", "augment-noise")
# What `_save_state` records besides the run mapping and the tensors.
_STATE_KEYS = ("progress.epoch_next", "opt.kind", "opt.step",
               *(f"rng.{name}" for name in _STREAM_NAMES),
               "norm.mean", "norm.std", "data.classes")
# Images per forward of a no-grad request (pseudo-labels, evaluation). A
# stage-0 MLP activation of 8 default-config images (256 tokens x 64
# channels, float64) is 1 MB, which stays in a 2 MB L2; at 64 images it
# is 8 MB. Outputs do not depend on the chunk (see `_chunks`).
INFER_CHUNK = 8
# Adam's moment decay rates and the epsilon added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    initial_lr: float = 1e-4
    batch_size: int = 16
    tau: float = 0.9
    pseudo_weight: float = 0.8
    warmup_epochs: int = 2
    optimizer: str = "adam"
    momentum: float = 0.9
    scheduler: str = "cosine"
    min_lr_fraction: float = 0.01
    step_size: int = 20
    step_gamma: float = 0.5
    consistency_weight: float = 0.0
    consistency_t_max: int = 10
    augment_t: int = 0
    diffusion_steps: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02
    checkpoint_every: int = 10
    num_runs: int = 4
    seed: int = 0

    def __post_init__(self):
        # range checks are written as `not (lo <= x <= hi)` so NaN fails them
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.initial_lr < math.inf):
            raise ConfigError(f"initial_lr must be positive and finite, got "
                              f"{self.initial_lr}")
        # tau = 1.0 is the supervised arm (set saturates empty), so the
        # closed upper end is allowed.
        if not (0.0 < self.tau <= 1.0):
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if not (0.0 < self.pseudo_weight <= 1.0):
            raise ConfigError(f"pseudo_weight must be in (0, 1], got "
                              f"{self.pseudo_weight}")
        # warmup_epochs = epochs degenerates to fully-supervised training.
        if not (0 <= self.warmup_epochs <= self.epochs):
            raise ConfigError(f"warmup_epochs must be in [0, epochs], got "
                              f"{self.warmup_epochs}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZER_KINDS}, "
                              f"got {self.optimizer!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.scheduler not in SCHEDULER_KINDS:
            raise ConfigError(f"scheduler must be one of {SCHEDULER_KINDS}, "
                              f"got {self.scheduler!r}")
        if not (0.0 < self.min_lr_fraction <= 1.0):
            raise ConfigError(f"min_lr_fraction must be in (0, 1], got "
                              f"{self.min_lr_fraction}")
        if self.step_size < 1:
            raise ConfigError(f"step_size must be >= 1, got {self.step_size}")
        if not (0.0 < self.step_gamma <= 1.0):
            raise ConfigError(f"step_gamma must be in (0, 1], got "
                              f"{self.step_gamma}")
        if not (0.0 <= self.consistency_weight < math.inf):
            raise ConfigError(f"consistency_weight must be >= 0 and finite, "
                              f"got {self.consistency_weight}")
        for name in ("beta_start", "beta_end"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must be in [0, 1), got "
                                  f"{getattr(self, name)}")
        if self.diffusion_steps < 1:
            raise ConfigError(f"diffusion_steps must be >= 1, got "
                              f"{self.diffusion_steps}")
        if not (1 <= self.consistency_t_max <= self.diffusion_steps):
            raise ConfigError(f"consistency_t_max must be in [1, "
                              f"{self.diffusion_steps}], got "
                              f"{self.consistency_t_max}")
        if not (0 <= self.augment_t <= self.diffusion_steps):
            raise ConfigError(f"augment_t must be in [0, "
                              f"{self.diffusion_steps}], got {self.augment_t}")
        if self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be >= 1, got "
                              f"{self.checkpoint_every}")
        if self.num_runs < 1:
            raise ConfigError(f"num_runs must be >= 1, got {self.num_runs}")

    def learning_rate(self, epoch: int) -> float:
        """lr as a function of epoch index; cosine runs from initial_lr at
        epoch 0 down to min_lr_fraction * initial_lr at epoch == epochs."""
        if self.scheduler == "cosine":
            lo = self.min_lr_fraction * self.initial_lr
            return lo + 0.5 * (self.initial_lr - lo) * \
                (1.0 + math.cos(math.pi * epoch / self.epochs))
        return self.initial_lr * self.step_gamma ** (epoch // self.step_size)

    def to_mapping(self) -> dict[str, str]:
        return config_to_mapping(self)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "TrainConfig":
        """Inverse of `to_mapping`; a malformed value raises ConfigError."""
        return config_from_mapping(cls, mapping)


# ---- optimizers -------------------------------------------------------------

def _state_tensor(tensors: Mapping[str, np.ndarray], key: str, param: Tensor,
                  nonnegative: bool = False) -> np.ndarray:
    """A copy of checkpointed optimizer state `key`, which must be finite,
    non-negative if asked, and shaped like its parameter."""
    if key not in tensors:
        raise FormatError(f"checkpoint missing optimizer state {key!r}")
    arr = np.array(tensors[key], dtype=np.float64)
    if arr.shape != param.data.shape:
        raise FormatError(f"optimizer state {key!r} has shape {arr.shape}, "
                          f"its parameter {param.data.shape}")
    if not np.all(np.isfinite(arr)) or (nonnegative and np.any(arr < 0.0)):
        raise FormatError(f"optimizer state {key!r} must be finite"
                          + (" and non-negative" if nonnegative else ""))
    return arr


class _FlatState:
    """The layout both optimizers share: each moment is one flat float64
    buffer with one slot per parameter, in sorted-name order.

    A step gathers every gradient into one buffer, screens it in one pass,
    updates the moments in place and gives each parameter a new array made
    by one subtraction. Writing the parameters in place instead would leave
    nothing allocated after backward frees the tape, and glibc would trim
    that memory from the heap only for the next forward to fault it back.
    """

    def __init__(self, params: Mapping[str, Tensor]):
        self.params = dict(params)
        self.step_count = 0
        self._slots: dict[str, slice] = {}
        start = 0
        for name in sorted(self.params):
            size = self.params[name].data.size
            self._slots[name] = slice(start, start + size)
            start += size
        self._size = start
        self._sorted = [self.params[name] for name in self._slots]

    def _gradients(self) -> np.ndarray:
        """Every gradient in slot order, an absent one as zeros. In checked
        mode a non-finite value raises NumericsError naming the first
        parameter in `params` order whose gradient holds one."""
        flat = np.concatenate([p.grad if p.grad is not None
                               else np.zeros(p.data.size)
                               for p in self._sorted], axis=None)
        if T.is_checked() and not np.isfinite(flat).all():
            for name, p in self.params.items():
                if p.grad is not None:
                    T._screen(p.grad, f"gradient of {name}")
        return flat

    def _subtract(self, update: np.ndarray) -> None:
        for p, slot in zip(self._sorted, self._slots.values()):
            p.data = p.data - update[slot].reshape(p.data.shape)

    def _copy(self, buf: np.ndarray, name: str) -> np.ndarray:
        """A copy of `name`'s slot of `buf`, shaped like the parameter."""
        return buf[self._slots[name]].reshape(self.params[name].data.shape)\
            .copy()

    def _read_state(self, tensors: Mapping[str, np.ndarray], prefix: str,
                    nonnegative: bool = False) -> np.ndarray:
        """A new flat buffer of the checkpointed `prefix + name` tensors."""
        buf = np.empty(self._size)
        for name, p in self.params.items():
            buf[self._slots[name]] = _state_tensor(
                tensors, prefix + name, p, nonnegative).reshape(-1)
        return buf


class Adam(_FlatState):
    """Adam with bias correction (`ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS`).

    A parameter whose moments are zero and whose gradient is zero (or
    absent) is left exactly unchanged.
    """
    kind = "adam"

    def __init__(self, params: Mapping[str, Tensor]):
        super().__init__(params)
        self.m = np.zeros(self._size)
        self.v = np.zeros(self._size)

    def step(self, lr: float) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        p -= lr (m / c1) / (sqrt(v / c2) + eps), each product and sum
        taken in that order."""
        g = self._gradients()
        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1 ** self.step_count
        c2 = 1.0 - ADAM_BETA2 ** self.step_count
        t = np.multiply(g, 1.0 - ADAM_BETA1)
        self.m *= ADAM_BETA1
        self.m += t
        np.multiply(g, 1.0 - ADAM_BETA2, out=t)
        t *= g
        self.v *= ADAM_BETA2
        self.v += t
        update = np.divide(self.m, c1, out=g)
        update *= lr
        np.divide(self.v, c2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        update /= t
        self._subtract(update)

    def state_tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out[f"opt.m.{name}"] = self._copy(self.m, name)
            out[f"opt.v.{name}"] = self._copy(self.v, name)
        return out

    def load_state_tensors(self, tensors: Mapping[str, np.ndarray],
                           step_count: int) -> None:
        m = self._read_state(tensors, "opt.m.")
        self.v = self._read_state(tensors, "opt.v.", nonnegative=True)
        self.m, self.step_count = m, step_count


class SGD(_FlatState):
    """SGD with classical momentum."""
    kind = "sgd"

    def __init__(self, params: Mapping[str, Tensor], momentum: float = 0.9):
        super().__init__(params)
        self.momentum = momentum
        self.vel = np.zeros(self._size)

    def step(self, lr: float) -> None:
        """vel = momentum vel + g, then p -= lr vel."""
        g = self._gradients()
        self.step_count += 1
        self.vel *= self.momentum
        self.vel += g
        self._subtract(np.multiply(self.vel, lr, out=g))

    def state_tensors(self) -> dict[str, np.ndarray]:
        return {f"opt.vel.{k}": self._copy(self.vel, k) for k in self.params}

    def load_state_tensors(self, tensors: Mapping[str, np.ndarray],
                           step_count: int) -> None:
        self.vel = self._read_state(tensors, "opt.vel.")
        self.step_count = step_count


def make_optimizer(cfg: TrainConfig, params: Mapping[str, Tensor]):
    if cfg.optimizer == "adam":
        return Adam(params)
    return SGD(params, momentum=cfg.momentum)


# ---- pseudo-labels ----------------------------------------------------------

@dataclass(frozen=True)
class PseudoLabel:
    id: str
    label: int
    confidence: float


@dataclass(frozen=True)
class PseudoLabelSet:
    records: tuple[PseudoLabel, ...]
    tau: float

    def __post_init__(self):
        for rec in self.records:
            if not rec.confidence > self.tau:
                raise ConfigError(f"pseudo-label {rec.id!r} has confidence "
                                  f"{rec.confidence} <= tau {self.tau}")

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def labels(self) -> np.ndarray:
        return np.array([rec.label for rec in self.records], dtype=np.int64)


def generate_pseudo_labels(model: DCSWin, dataset: ArrayDataset,
                           unlabeled_ids: Sequence[str],
                           tau: float) -> PseudoLabelSet:
    """Inference over the unlabeled pool in manifest (lexicographic) order;
    keep argmax labels whose max softmax probability is strictly above tau.
    A softmax probability never exceeds 1, so tau >= 1 skips inference."""
    ids = sorted(unlabeled_ids)
    if not ids or tau >= 1.0:
        return PseudoLabelSet((), tau)
    probs = predict_probs(model, dataset, ids)
    labels = probs.argmax(axis=1)
    confidences = probs.max(axis=1)
    return PseudoLabelSet(tuple(
        PseudoLabel(sample_id, int(labels[i]), float(confidences[i]))
        for i, sample_id in enumerate(ids) if confidences[i] > tau), tau)


# ---- checkpoint state -------------------------------------------------------

def _run_mapping(model_cfg: ModelConfig, cfg: TrainConfig,
                 model_prefix: str = "") -> dict[str, str]:
    """Both configs as one flat mapping; train keys carry `train.`."""
    out = {model_prefix + k: v for k, v in model_cfg.to_mapping().items()}
    out.update({f"train.{k}": v for k, v in cfg.to_mapping().items()})
    return out


def _checkpoint_config(model: DCSWin, cfg: TrainConfig, epoch_next: int,
                       opt, rngs: dict, dataset: ArrayDataset) -> dict[str, str]:
    config = _run_mapping(model.cfg, cfg)
    config["progress.epoch_next"] = str(epoch_next)
    config["opt.kind"] = opt.kind
    config["opt.step"] = str(opt.step_count)
    for name in _STREAM_NAMES:
        config[f"rng.{name}"] = json.dumps(state_of(rngs[name]))
    config["norm.mean"] = json.dumps([float(v) for v in dataset.norm_mean])
    config["norm.std"] = json.dumps([float(v) for v in dataset.norm_std])
    config["data.classes"] = json.dumps(list(dataset.class_names))
    return config


def _save_state(path: Path, model: DCSWin, cfg: TrainConfig, epoch_next: int,
                opt, rngs: dict, dataset: ArrayDataset) -> None:
    tensors = model.state_dict()
    tensors.update(opt.state_tensors())
    tmp = path.with_name(path.name + ".tmp")
    save_checkpoint(tmp, _checkpoint_config(model, cfg, epoch_next, opt, rngs,
                                            dataset), tensors)
    tmp.replace(path)


def _json_field(config: Mapping[str, str], key: str):
    if key not in config:
        raise FormatError(f"checkpoint lacks {key}")
    try:
        return json.loads(config[key])
    except (ValueError, RecursionError):
        raise FormatError(f"checkpoint {key} is not JSON: "
                          f"{config[key][:80]!r}") from None


def _int_field(config: Mapping[str, str], key: str, lo: int,
               hi: float = math.inf) -> int:
    try:
        value = int(config[key])
    except ValueError:
        value = None
    if value is None or not (lo <= value <= hi):
        raise FormatError(f"checkpoint {key} must be an integer in "
                          f"[{lo}, {hi}], got {config[key][:80]!r}")
    return value


def _norm_field(config: Mapping[str, str], key: str) -> np.ndarray:
    vals = _json_field(config, key)
    if not (isinstance(vals, list) and len(vals) == 3 and all(
            type(v) is float and math.isfinite(v) for v in vals)):
        raise FormatError(f"checkpoint {key} must hold 3 finite floats, "
                          f"got {config[key][:80]!r}")
    return np.array(vals)


def _classes_field(config: Mapping[str, str], key: str) -> list[str]:
    names = _json_field(config, key)
    if not (isinstance(names, list) and all(type(v) is str for v in names)):
        raise FormatError(f"checkpoint {key} must be a list of class names, "
                          f"got {config[key][:80]!r}")
    return names


def eval_metadata(config: Mapping[str, str]
                  ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The class names and normalization mean and std that a `_save_state`
    checkpoint records; a missing or malformed field, or a std that is not
    positive (`fit_normalization` floors it at 1e-6), raises FormatError."""
    classes = _classes_field(config, "data.classes")
    mean = _norm_field(config, "norm.mean")
    std = _norm_field(config, "norm.std")
    if not np.all(std > 0.0):
        raise FormatError(f"checkpoint norm.std must be positive, got "
                          f"{config['norm.std'][:80]!r}")
    return classes, mean, std


def _stream_field(config: Mapping[str, str], name: str) -> np.random.Generator:
    state = _json_field(config, f"rng.{name}")
    try:
        return restore(state)
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise FormatError(f"checkpoint rng.{name} is not a PCG64 state: "
                          f"{e}") from None


def _load_state(path: Path, model: DCSWin, cfg: TrainConfig, opt,
                dataset: ArrayDataset) -> tuple[int, dict]:
    """Restore model, optimizer and streams from a `_save_state` file and
    return (epoch to resume at, streams). Every field is checked before
    the model is changed, so a corrupt file raises FormatError."""
    config, tensors = load_checkpoint(path)
    for key, value in _run_mapping(model.cfg, cfg).items():
        if config.get(key) != value:
            raise FormatError(f"checkpoint/config mismatch: {key!r} is "
                              f"{config.get(key)!r} in checkpoint, {value!r} "
                              "in the requested run")
    missing = [key for key in _STATE_KEYS if key not in config]
    if missing:
        raise FormatError(f"checkpoint missing keys {missing}")
    epoch_next = _int_field(config, "progress.epoch_next", 0, cfg.epochs)
    step_count = _int_field(config, "opt.step", 0)
    if config["opt.kind"] != opt.kind:
        raise FormatError(f"checkpoint opt.kind {config['opt.kind'][:80]!r} "
                          f"!= {opt.kind!r} of the requested run")
    rngs = {name: _stream_field(config, name) for name in _STREAM_NAMES}
    _, stored_mean, _ = eval_metadata(config)
    if not np.array_equal(stored_mean, dataset.norm_mean):
        raise FormatError("checkpoint/config mismatch: normalization stats "
                          "differ from the current labeled pool")
    opt.load_state_tensors(tensors, step_count)
    model.load_state(tensors)
    return epoch_next, rngs


# ---- the loop ---------------------------------------------------------------

def train(model: DCSWin, dataset: ArrayDataset, split: DatasetSplit,
          cfg: TrainConfig, run_dir: Optional[Union[str, Path]] = None,
          *, resume: bool = True, stop_after: Optional[int] = None,
          step_listener: Optional[Callable[[dict], None]] = None
          ) -> list[dict]:
    """Run the loop; returns the per-epoch log records.

    With `run_dir` set, appends `epochs.jsonl` and checkpoints `state.dcsm`
    at the configured cadence; an existing state file resumes the run at
    its recorded epoch. `stop_after` ends the run early after that many
    epochs (checkpointing first), simulating an interruption.
    `step_listener` receives {kind, epoch, ids, loss} after every
    optimizer step.
    """
    labeled_ids = sorted(split.labeled)
    unlabeled_ids = sorted(split.unlabeled)
    if not labeled_ids:
        raise ConfigError("labeled split is empty")
    if dataset.norm_mean is None:
        dataset.fit_normalization(labeled_ids)

    opt = make_optimizer(cfg, model.named_params())
    rngs = {name: stream(cfg.seed, name) for name in _STREAM_NAMES}
    schedule = (NoiseSchedule.linear(cfg.diffusion_steps, cfg.beta_start,
                                     cfg.beta_end)
                if (cfg.consistency_weight > 0 or cfg.augment_t > 0)
                else None)

    def augment(batch: np.ndarray) -> np.ndarray:
        """Forward-diffusion jitter on a training batch; pseudo-label
        inference and evaluation always see clean inputs."""
        if cfg.augment_t == 0:
            return batch
        return diffuse_batch(batch, cfg.augment_t, schedule,
                             rngs["augment-noise"])

    run_dir = Path(run_dir) if run_dir is not None else None
    state_path = log_path = None
    start_epoch = 0
    records: list[dict] = []
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        state_path = run_dir / "state.dcsm"
        log_path = run_dir / "epochs.jsonl"
        if resume and state_path.exists():
            start_epoch, rngs = _load_state(state_path, model, cfg, opt, dataset)
        # keep only the log lines the checkpoint vouches for
        lines = (log_path.read_text(encoding="utf-8").splitlines()
                 if log_path.exists() else [])[:start_epoch]
        if len(lines) < start_epoch:
            raise FormatError(f"epoch log {log_path} has {len(lines)} lines "
                              f"but checkpoint resumes at epoch {start_epoch}")
        records = [_epoch_record(line, log_path, n)
                   for n, line in enumerate(lines, 1)]
        log_path.write_text("".join(line + "\n" for line in lines),
                            encoding="utf-8")

    def run_pass(kind: str, order: list[str],
                 loss_of: Callable[[list[str]], Tensor]) -> float:
        """One optimizer step per mini-batch of `order` at the current
        epoch's lr; returns the sample-weighted mean loss. A non-finite
        parameter gradient raises NumericsError before the step changes
        anything."""
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            model.zero_grad()
            loss = loss_of(chunk)
            backward(loss)
            opt.step(lr)
            value = float(loss.data)
            total += value * len(chunk)
            if step_listener is not None:
                step_listener({"kind": kind, "epoch": epoch,
                               "ids": tuple(chunk), "loss": value})
        return total / len(order)

    def shuffled(ids: Sequence[str], name: str) -> list[str]:
        return [ids[i] for i in rngs[name].permutation(len(ids))]

    truth_all = dataset.labels  # synthetic pools carry ground truth

    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.perf_counter()
        lr = cfg.learning_rate(epoch)

        labeled_loss = run_pass(
            "labeled", shuffled(labeled_ids, "shuffle-labeled"),
            lambda chunk: cross_entropy(
                model(Tensor(augment(dataset.batch(chunk)))),
                dataset.labels_for(chunk)))

        pseudo_loss: Optional[float] = None
        pseudo_count = 0
        pseudo_precision: Optional[float] = None
        if epoch >= cfg.warmup_epochs and unlabeled_ids:
            pseudo = generate_pseudo_labels(model, dataset, unlabeled_ids,
                                            cfg.tau)
            pseudo_count = len(pseudo)
            if pseudo_count > 0:
                p_ids, p_labels = pseudo.ids(), pseudo.labels()
                truth = truth_all[dataset.rows(p_ids)]
                pseudo_precision = float(np.mean(p_labels == truth))
                label_of = dict(zip(p_ids, p_labels))
                pseudo_loss = run_pass(
                    "pseudo", shuffled(p_ids, "shuffle-pseudo"),
                    lambda chunk: T.scale(cross_entropy(
                        model(Tensor(augment(dataset.batch(chunk)))),
                        np.array([label_of[i] for i in chunk])),
                        cfg.pseudo_weight))

        if cfg.consistency_weight > 0 and unlabeled_ids:
            run_pass(
                "consistency", shuffled(unlabeled_ids, "shuffle-unlabeled"),
                lambda chunk: T.scale(consistency_loss(
                    model, dataset.batch(chunk), schedule,
                    cfg.consistency_t_max, rngs["diffusion-noise"]),
                    cfg.consistency_weight))

        record = {
            "epoch": epoch,
            "labeled_loss": labeled_loss,
            "pseudo_loss": pseudo_loss,
            "pseudo_count": pseudo_count,
        }
        if pseudo_precision is not None:
            record["pseudo_precision"] = pseudo_precision
        record["lr"] = lr
        record["wall_ms"] = (time.perf_counter() - t0) * 1000.0
        records.append(record)

        done = epoch + 1
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
        if state_path is not None and (done % cfg.checkpoint_every == 0
                                       or done == cfg.epochs
                                       or done == stop_after):
            _save_state(state_path, model, cfg, done, opt, rngs, dataset)
        if stop_after is not None and done >= stop_after:
            break

    return records


def _epoch_record(line: str, log_path: Path, n: int) -> dict:
    """Line `n` of the epoch log, which must be one JSON object."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"epoch log {log_path} line {n} is not valid "
                          f"JSON: {e}") from e
    if not isinstance(record, dict):
        raise FormatError(f"epoch log {log_path} line {n} must be a JSON "
                          f"object, got {type(record).__name__}")
    return record


# ---- evaluation helpers -----------------------------------------------------

def _chunks(n: int, size: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of `size`-long chunks covering n items, where a
    last chunk of one item joins the one before it. NumPy computes a
    one-row product through gemv, which rounds differently from the gemm
    of a wider batch: at the default config a one-image chunk gives other
    bits than one whole-request forward, and chunks of 2 or more do not."""
    starts = list(range(0, n - 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def predict_probs(model: DCSWin, dataset: ArrayDataset,
                  ids: Sequence[str]) -> np.ndarray:
    """[n, num_classes] softmax probabilities, rows in id order, from
    forwards of `INFER_CHUNK` images. The chunks share one pool of op
    buffers (`tensor._request_buffers`). No ids give a [0, num_classes]
    array without a forward."""
    if len(ids) == 0:
        return np.empty((0, model.cfg.num_classes))
    out = []
    with no_grad(), T._request_buffers():
        for start, stop in _chunks(len(ids), INFER_CHUNK):
            logits = model(Tensor(dataset.batch(list(ids[start:stop]))))
            out.append(T.softmax(logits, axis=1).data)
    return np.concatenate(out, axis=0)


def evaluate_model(model: DCSWin, dataset: ArrayDataset, ids: Sequence[str]
                   ) -> tuple[dict[str, float], ConfusionMatrix, np.ndarray]:
    probs = predict_probs(model, dataset, ids)
    truth = dataset.labels_for(ids)
    values, cm = evaluate_predictions(truth, probs, len(dataset.class_names),
                                      dataset.class_names)
    return values, cm, probs


# ---- multi-seed orchestration -------------------------------------------------

def write_run_config(path: Union[str, Path], model_cfg: ModelConfig,
                     cfg: TrainConfig, seeds: Sequence[int],
                     extra: Optional[Mapping[str, str]] = None) -> None:
    mapping = _run_mapping(model_cfg, cfg, model_prefix="model.")
    mapping["run.seeds"] = ",".join(str(s) for s in seeds)
    for key, value in (extra or {}).items():
        mapping[str(key)] = str(value)
    Path(path).write_text(config_to_text(mapping), encoding="utf-8")


def load_run_config(path: Union[str, Path]
                    ) -> tuple[ModelConfig, TrainConfig, dict[str, str]]:
    """Parse a run config file of `model.*` / `train.*` keys; remaining keys
    are returned verbatim. A `model.*` / `train.*` key naming no field, or a
    malformed value, raises ConfigError."""
    mapping = load_config_file(path)

    def section(prefix: str, cls):
        sub = {k[len(prefix):]: v for k, v in mapping.items()
               if k.startswith(prefix)}
        unknown = sorted(set(sub) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown keys "
                              f"{[prefix + k for k in unknown]}")
        return cls.from_mapping(sub)

    rest = {k: v for k, v in mapping.items()
            if not k.startswith(("model.", "train."))}
    return section("model.", ModelConfig), section("train.", TrainConfig), rest


def check_ids(dataset: ArrayDataset, ids: Sequence[str], source: str) -> None:
    """Raise ConfigError naming `source` if an id is not in the dataset, so
    a request fails before its first forward rather than inside one."""
    missing = next((i for i in ids
                    if not isinstance(i, str) or i not in dataset.index), None)
    if missing is not None:
        raise ConfigError(f"{source} names id {missing!r}, which is not in "
                          "the dataset")


def _check_split(dataset: ArrayDataset, split: DatasetSplit) -> None:
    """Every pool's ids are in the dataset; labeled and test are non-empty."""
    for pool in ("labeled", "unlabeled", "test"):
        ids = getattr(split, pool)
        if not ids and pool != "unlabeled":
            raise ConfigError(f"split's {pool} pool is empty")
        check_ids(dataset, ids, f"split's {pool} pool")


def run_experiment(dataset: ArrayDataset, split: DatasetSplit,
                   model_cfg: ModelConfig, cfg: TrainConfig,
                   out_dir: Union[str, Path], seeds: Sequence[int],
                   *, resume: bool = True,
                   extra_config: Optional[Mapping[str, str]] = None
                   ) -> MetricsReport:
    """One training run per seed, each in `out_dir/seed<k>/` with its epoch
    log, checkpoint, test predictions, metrics, and confusion matrix; the
    aggregate report lands in `out_dir/report.json`. A split naming an id
    missing from the dataset, or with an empty labeled or test pool, raises
    ConfigError before anything is written, as does a negative seed."""
    _check_split(dataset, split)
    for seed in seeds:
        check_seed(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_config(out_dir / "run_config.txt", model_cfg, cfg, seeds,
                     extra_config)
    test_ids = sorted(split.test)
    run_values = []
    for seed in seeds:
        run_cfg = replace(cfg, seed=int(seed))
        model = DCSWin(model_cfg, seed=int(seed))
        seed_dir = out_dir / f"seed{seed}"
        train(model, dataset, split, run_cfg, run_dir=seed_dir, resume=resume)
        values, cm, probs = evaluate_model(model, dataset, test_ids)
        write_predictions_jsonl(seed_dir / "predictions.jsonl", test_ids,
                                dataset.labels_for(test_ids), probs)
        (seed_dir / "metrics.json").write_text(
            json.dumps(values, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        cm.to_csv(seed_dir / "confusion.csv")
        run_values.append(values)
    report = aggregate_runs(run_values, [int(s) for s in seeds])
    report.save(out_dir / "report.json")
    return report
