"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 6 trains twelve desk-scale models and dominates the runtime;
everything else completes in seconds. Log comparisons ignore the wall_ms
field, which records real elapsed time and cannot be bit-stable.
"""
import json
import time
from dataclasses import replace

import numpy as np
import pytest

import dcswin.trainer as trainer_mod
from dcswin import tensor as T
from dcswin.attention import (AttentionConfig, AttentionParams, WindowSpec,
                              attention_mask, map_to_tokens, tokens_to_map,
                              window_partition, window_reverse, windowed_mhsa)
from dcswin.data import (ArrayDataset, DatasetSplit, stratified_split,
                         synth_generate)
from dcswin.diffusion import (NoiseSchedule, consistency_loss, forward_diffuse,
                              sample_chain)
from dcswin.dynamic_window import dynamic_window_attention
from dcswin.gradcheck import op_names, run_model_check, run_op_check
from dcswin.metrics import (ConfusionMatrix, balanced_accuracy, binary_auc,
                            cohens_kappa, f1)
from dcswin.model import DCSWin, ModelConfig
from dcswin.rng import stream
from dcswin.tensor import Tensor, backward, cross_entropy
from dcswin.trainer import (Adam, TrainConfig, evaluate_model,
                            generate_pseudo_labels, predict_probs,
                            run_experiment, train)


def channels_last(a):
    """[B,C,H,W] draws as the contiguous [B,H,W,C] map the model uses."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def verdict(number: int, label: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {number} ({label}): {status}{detail}"
    print("\n" + line)
    assert not failures, line + " -- " + "; ".join(failures)


@pytest.fixture(scope="module")
def desk_manifest(tmp_path_factory):
    """4 classes x 100 images at 64x64, the desk-scale benchmark set."""
    root = tmp_path_factory.mktemp("deskdata")
    return synth_generate(root, num_classes=4, per_class=100, image_size=64,
                          seed=0)


@pytest.fixture(scope="module")
def mini_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("minidata")
    return synth_generate(root, num_classes=2, per_class=8, image_size=16,
                          seed=0)


def mini_setup(manifest):
    dataset = ArrayDataset.from_manifest(manifest)
    split = stratified_split(manifest, train_frac=0.75, labeled_frac=0.4,
                             seed=0)
    dataset.fit_normalization(sorted(split.labeled))
    return dataset, split


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


# ---- 1: gradient integrity ------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    results = [run_op_check(name) for name in op_names()]
    results.append(run_model_check())
    elapsed = time.perf_counter() - t0
    failures = [r.describe() for r in results if not r.passed]
    if elapsed >= 60.0:
        failures.append(f"suite took {elapsed:.1f}s (budget 60s)")
    worst = max(r.worst_rel for r in results)
    verdict(1, "gradient integrity", failures,
            f" (worst rel err {worst:.3e} over {len(results)} checks, "
            f"{elapsed:.1f}s)")


# ---- 2: metric oracle equivalence -------------------------------------------------
# references deliberately written the slow, obvious way


def bf_balanced_accuracy(counts):
    recalls = [row[i] / sum(row) for i, row in enumerate(counts)]
    return sum(recalls) / len(recalls)


def bf_f1_class(counts, k):
    tp = counts[k][k]
    fp = sum(counts[i][k] for i in range(len(counts))) - tp
    fn = sum(counts[k]) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def bf_f1(counts):
    if len(counts) == 2:
        return bf_f1_class(counts, 1)
    return sum(bf_f1_class(counts, k) for k in range(len(counts))) / len(counts)


def bf_kappa(counts):
    total = sum(sum(row) for row in counts)
    p_o = sum(counts[i][i] for i in range(len(counts))) / total
    p_e = sum(sum(counts[i]) * sum(row[i] for row in counts)
              for i in range(len(counts))) / (total * total)
    return (p_o - p_e) / (1.0 - p_e)


def bf_pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_2_metric_oracles():
    failures = []
    rng = np.random.default_rng(2024)

    worst_cm = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 5))
        counts = rng.integers(0, 51, size=(c, c)) + np.eye(c, dtype=np.int64)
        cm = ConfusionMatrix(counts)
        rows = counts.tolist()
        for name, got, want in (
                ("balanced_accuracy", balanced_accuracy(cm),
                 bf_balanced_accuracy(rows)),
                ("f1", f1(cm), bf_f1(rows)),
                ("cohens_kappa", cohens_kappa(cm), bf_kappa(rows))):
            err = abs(got - want)
            worst_cm = max(worst_cm, err)
            if err > 1e-12:
                failures.append(f"{name} off by {err:.2e} on {rows}")

    auc_exact = True
    for trial in range(200):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n).astype(bool)
        labels[0], labels[1] = True, False  # both classes present
        if trial % 2 == 0:
            scores = rng.integers(0, 5, size=n) / 4.0  # deliberate ties
        else:
            scores = rng.standard_normal(n)
        if binary_auc(scores, labels) != bf_pairwise_auc(scores.tolist(),
                                                         labels.tolist()):
            auc_exact = False
            failures.append(f"AUC mismatch on trial {trial}")

    fix = ConfusionMatrix(np.array([[40, 10], [5, 45]]))
    for name, got, want in (("kappa", cohens_kappa(fix), 0.7),
                            ("balanced accuracy", balanced_accuracy(fix), 0.85),
                            ("f1", f1(fix), 90.0 / 105.0)):
        if abs(got - want) > 1e-12:
            failures.append(f"worked fixture {name}: {got!r} != {want!r}")

    verdict(2, "metric oracle equivalence", failures,
            f" (1000 matrices worst err {worst_cm:.2e}, "
            f"200 AUC sets exact={auc_exact})")


# ---- 3: pseudo-labeling loop fidelity ----------------------------------------------


def test_criterion_3_training_loop_fidelity(mini_manifest, monkeypatch):
    failures = []
    cfg = TrainConfig(epochs=3, initial_lr=3e-3, batch_size=3, tau=1.0,
                      warmup_epochs=0, seed=0)

    # (a) tau = 1.0 trajectory is bit-identical to a plain supervised loop
    dataset, split = mini_setup(mini_manifest)
    model = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
    records = train(model, dataset, split, cfg)

    ref_data, _ = mini_setup(mini_manifest)
    labeled = sorted(split.labeled)
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
    ref_params = ref.named_params()
    if [r["labeled_loss"] for r in records] != losses:
        failures.append("tau=1.0 loss sequence differs from supervised loop")
    if not all(np.array_equal(p.data, ref_params[k].data)
               for k, p in model.named_params().items()):
        failures.append("tau=1.0 parameters differ from supervised loop")

    # (b) strictness: stored confidences are strictly above tau
    probe = DCSWin(ModelConfig.micro(num_classes=2), seed=1)
    ids = sorted(split.unlabeled)
    probs = predict_probs(probe, dataset, ids, batch_size=16)
    ps = generate_pseudo_labels(probe, dataset, ids, tau=0.5, batch_size=16)
    if not all(r.confidence > 0.5 for r in ps.records):
        failures.append("pseudo-label confidence at or below tau")
    boundary = float(probs.max(axis=1)[0])
    at_tau = generate_pseudo_labels(probe, dataset, ids, tau=boundary,
                                    batch_size=16)
    if ids[0] in at_tau.ids():
        failures.append("confidence exactly tau was accepted")

    # (c) the set is regenerated from the current model every epoch
    calls = []
    real = trainer_mod.generate_pseudo_labels
    monkeypatch.setattr(trainer_mod, "generate_pseudo_labels",
                        lambda *a, **k: (calls.append(1), real(*a, **k))[1])
    train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset, split,
          replace(cfg, epochs=4, warmup_epochs=1, tau=0.3))
    monkeypatch.setattr(trainer_mod, "generate_pseudo_labels", real)
    if len(calls) != 3:
        failures.append(f"pseudo set regenerated {len(calls)} times, want 3")

    # (d) weighted loss is exactly pseudo_weight x the unweighted loss
    chunk = ids[:4]
    x, y = dataset.batch(chunk), dataset.labels_for(chunk)
    lin = DCSWin(ModelConfig.micro(num_classes=2), seed=0)
    lin.zero_grad()
    plain = cross_entropy(lin(Tensor(x)), y)
    backward(plain)
    base_grads = {k: p.grad.copy() for k, p in lin.named_params().items()}
    lin.zero_grad()
    weighted = T.scale(cross_entropy(lin(Tensor(x)), y), 0.8)
    backward(weighted)
    if float(weighted.data) != 0.8 * float(plain.data):
        failures.append("weighted loss is not exactly 0.8x the plain loss")
    if not all(np.allclose(p.grad, 0.8 * base_grads[k], rtol=1e-11, atol=1e-18)
               for k, p in lin.named_params().items()):
        failures.append("weighted gradients deviate from 0.8x linearity")

    # (e) warmup purity: unlabeled samples touch nothing before warmup ends
    events = []
    train(DCSWin(ModelConfig.micro(num_classes=2), seed=0), dataset, split,
          replace(cfg, epochs=4, warmup_epochs=2, tau=0.05),
          step_listener=events.append)
    labeled_pool, unlabeled_pool = set(split.labeled), set(split.unlabeled)
    for ev in events:
        if ev["kind"] != "labeled" and ev["epoch"] < 2:
            failures.append(f"{ev['kind']} step before warmup ended")
        if ev["kind"] == "labeled" and not set(ev["ids"]) <= labeled_pool:
            failures.append("unlabeled sample in a labeled pass")
        if ev["kind"] == "pseudo" and not set(ev["ids"]) <= unlabeled_pool:
            failures.append("labeled sample in a pseudo pass")
    if not any(ev["kind"] == "pseudo" for ev in events):
        failures.append("no pseudo pass ran after warmup")

    verdict(3, "pseudo-labeling loop fidelity", failures)


# ---- 4: mechanism reductions --------------------------------------------------------


def plain_windowed_forward(model: DCSWin, x: Tensor) -> Tensor:
    """Independently wired plain windowed transformer over the model's own
    tensors: patch embed -> [LN, fixed-window attention, residual, LN, MLP,
    residual] with alternating shifts -> 2x2 merge -> mean pool -> head."""
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
            # the model's attention takes channels-last maps
            att = T.permute(windowed_mhsa(T.permute(n1, (0, 2, 3, 1)),
                                          model.stages[i][j].attn, acfg,
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


def test_criterion_4_mechanism_reductions():
    failures = []

    # one-hot scale mixture collapses to fixed-window attention
    rng = stream(40, "accept")
    acfg = AttentionConfig(4, 2)
    params = AttentionParams.init(acfg, rng, zero_out=False)
    x = Tensor(channels_last(rng.standard_normal((2, 4, 8, 8))))
    candidates = (2, 4)
    worst_onehot = 0.0
    for shift in (False, True):
        for k in (0, 1):
            weights = np.zeros((2, 2))
            weights[:, k] = 1.0
            out = dynamic_window_attention(x, Tensor(weights), candidates,
                                           params, acfg, shift=shift)
            cand = candidates[k]
            s = cand // 2 if (shift and cand < 8) else 0
            ref = windowed_mhsa(x, params, acfg, WindowSpec(cand, s))
            err = float(np.max(np.abs(out.data - ref.data)))
            worst_onehot = max(worst_onehot, err)
            if err > 1e-12:
                failures.append(f"one-hot k={k} shift={shift} err {err:.2e}")

    # disabling both mechanisms yields the plain windowed transformer
    cfg = ModelConfig.micro(dynamic_window=False, cross_scale=False)
    model = DCSWin(cfg, seed=2)
    xb = Tensor(stream(41, "accept").standard_normal((2, 3, 16, 16)))
    got = model(xb).data
    want = plain_windowed_forward(model, xb).data
    base_err = float(np.max(np.abs(got - want)))
    if base_err > 1e-12:
        failures.append(f"baseline arm deviates from plain transformer by "
                        f"{base_err:.2e}")

    # partition/reverse inverse pairs
    for h, w, win, shift in ((8, 8, 4, 2), (6, 10, 4, 3), (5, 7, 3, 1)):
        xm = Tensor(channels_last(
            np.random.default_rng(h + w).standard_normal((2, 3, h, w))))
        tokens, info = window_partition(xm, WindowSpec(win, shift))
        if not np.array_equal(window_reverse(tokens, info).data, xm.data):
            failures.append(f"partition/reverse not inverse at {(h, w, win, shift)}")

    # row-stochastic weights and shift-mask isolation
    p2 = AttentionParams.init(acfg, stream(42, "accept"), zero_out=False)
    xs = Tensor(channels_last(stream(43, "accept").standard_normal((1, 4, 8, 8))))
    _, weights, info = windowed_mhsa(xs, p2, acfg, WindowSpec(4, 2),
                                     return_weights=True)
    mask = attention_mask(info)
    blocked = mask < 0
    for wdx in range(mask.shape[0]):
        if not np.allclose(weights.data[wdx].sum(axis=-1), 1.0, atol=1e-9):
            failures.append("attention rows do not sum to 1")
        if not np.all(weights.data[wdx][:, blocked[wdx]] < 1e-12):
            failures.append("cross-seam attention leaked through the mask")

    verdict(4, "mechanism reductions", failures,
            f" (one-hot worst {worst_onehot:.2e}, baseline-arm worst "
            f"{base_err:.2e})")


# ---- 5: diffusion correctness --------------------------------------------------------


def test_criterion_5_diffusion_correctness():
    failures = []
    n_draws = 10_000

    # same seeded streams as the module-level MC test, so the band check is
    # deterministic rather than probabilistic
    for case in (0, 1):
        rng = stream(case, "t-diff-mc")
        sched = NoiseSchedule.linear(20, 1e-3, 0.05)
        x0 = rng.standard_normal((2, 2))
        t = int(rng.integers(1, 21))
        ab = sched.alpha_bars[t - 1]
        mean_target = np.sqrt(ab) * x0
        var_target = 1.0 - ab
        se_mean = np.sqrt(var_target / n_draws)
        se_var = var_target * np.sqrt(2.0 / n_draws)
        for fn in (forward_diffuse, sample_chain):
            draws = np.stack([fn(x0, t, sched, rng) for _ in range(n_draws)])
            if np.any(np.abs(draws.mean(axis=0) - mean_target)
                      >= 3 * se_mean + 1e-12):
                failures.append(f"{fn.__name__} mean outside 3 sigma (t={t})")
            resid_var = (draws - mean_target).var(axis=0)
            if np.any(np.abs(resid_var - var_target) >= 3 * se_var + 1e-12):
                failures.append(f"{fn.__name__} variance outside 3 sigma "
                                f"(t={t})")

    rng = stream(5, "accept")
    x0 = rng.standard_normal((3, 4, 4))
    noiseless = NoiseSchedule.noiseless(10)
    for t in (1, 5, 10):
        if not np.array_equal(forward_diffuse(x0, t, noiseless, rng), x0):
            failures.append(f"noiseless jump not identity at t={t}")
        if not np.array_equal(sample_chain(x0, t, noiseless, rng), x0):
            failures.append(f"noiseless chain not identity at t={t}")

    model = DCSWin(ModelConfig.micro(), seed=0)
    xb = rng.standard_normal((2, 3, 16, 16))
    loss = consistency_loss(model, xb, noiseless, t_max=10, rng=rng)
    if float(loss.data) != 0.0:
        failures.append(f"consistency loss {float(loss.data)!r} on identical "
                        "inputs")

    verdict(5, "diffusion correctness", failures)


# ---- 6: desk-scale learning behavior ---------------------------------------------------


def test_criterion_6_desk_scale_learning(desk_manifest):
    t0 = time.perf_counter()
    failures = []
    split = stratified_split(desk_manifest, train_frac=0.8, labeled_frac=0.05,
                             seed=0)

    # (a) micro model memorizes 32 samples (8 per class) within 200 epochs
    data16 = ArrayDataset.from_manifest(desk_manifest, image_size=16)
    by_class = {}
    for sample_id in sorted(split.labeled) + sorted(split.unlabeled):
        by_class.setdefault(sample_id.split("/")[0], []).append(sample_id)
    ids32 = [i for name in sorted(by_class) for i in by_class[name][:8]]
    assert len(ids32) == 32
    overfit_split = DatasetSplit(labeled=tuple(ids32), unlabeled=(), test=(),
                                 seed=0, train_frac=0.8, labeled_frac=1.0)
    micro = DCSWin(ModelConfig.micro(), seed=0)
    train(micro, data16, overfit_split,
          TrainConfig(epochs=200, initial_lr=3e-3, batch_size=8,
                      warmup_epochs=200, tau=1.0, seed=0))
    _, cm, _ = evaluate_model(micro, data16, ids32)
    overfit_acc = float(np.trace(cm.counts) / cm.counts.sum())
    if overfit_acc != 1.0:
        failures.append(f"micro overfit accuracy {overfit_acc:.4f} < 1.0")

    # (b)/(c) three arms x four seeds on the 5%/95% split
    dataset = ArrayDataset.from_manifest(desk_manifest)
    full_cfg = ModelConfig(image_size=64, patch_size=8, embed_dims=(16, 32),
                           depths=(1, 1), num_heads=(2, 4), candidates=(2, 4),
                           num_classes=4, fixed_window=4)
    base_cfg = full_cfg.ablated("baseline")
    semi_tc = TrainConfig(epochs=50, initial_lr=3e-3, batch_size=4,
                          warmup_epochs=30, tau=0.95, pseudo_weight=0.8,
                          seed=0)
    sup_tc = replace(semi_tc, warmup_epochs=2, tau=1.0)
    arms = {"semi": (full_cfg, semi_tc), "sup": (full_cfg, sup_tc),
            "baseline": (base_cfg, semi_tc)}
    bal = {name: [] for name in arms}
    auc = {name: [] for name in arms}
    precisions = []
    test_ids = sorted(split.test)
    for seed in range(4):
        for name, (mcfg, tc) in arms.items():
            model = DCSWin(mcfg, seed=seed)
            recs = train(model, dataset, split, replace(tc, seed=seed))
            values, _, _ = evaluate_model(model, dataset, test_ids)
            bal[name].append(values["balanced_accuracy"])
            auc[name].append(values["auc_roc"])
            if name == "semi":
                prec = recs[-1].get("pseudo_precision")
                if prec is None:
                    failures.append(f"seed {seed}: empty pseudo set at the "
                                    "final epoch")
                else:
                    precisions.append(prec)

    semi_bal = float(np.mean(bal["semi"]))
    sup_bal = float(np.mean(bal["sup"]))
    full_auc = float(np.mean(auc["semi"]))  # semi runs are the full arm
    base_auc = float(np.mean(auc["baseline"]))
    mean_prec = float(np.mean(precisions)) if precisions else 0.0
    if semi_bal < sup_bal - 0.02:
        failures.append(f"semi balanced accuracy {semi_bal:.4f} < supervised "
                        f"{sup_bal:.4f} - 0.02")
    if not mean_prec > 0.90:
        failures.append(f"final-epoch pseudo-label precision {mean_prec:.4f} "
                        "<= 0.90")
    if full_auc < base_auc - 0.02:
        failures.append(f"full-arm AUC {full_auc:.4f} < baseline "
                        f"{base_auc:.4f} - 0.02")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1800:
        failures.append(f"took {elapsed:.0f}s (budget 30 min)")

    # strict superiority is reported, not asserted: toy-scale gaps are noisy
    print(f"\nfull-arm AUC {full_auc:.4f} vs baseline {base_auc:.4f} "
          f"(strictly better: {full_auc > base_auc})")
    verdict(6, "desk-scale learning", failures,
            f" (overfit {overfit_acc:.2f}; bal sup {sup_bal:.4f} / semi "
            f"{semi_bal:.4f}; precision {mean_prec:.4f}; AUC full "
            f"{full_auc:.4f} / baseline {base_auc:.4f}; {elapsed / 60:.1f} min)")


# ---- 7: reproducibility ------------------------------------------------------------


def test_criterion_7_reproducibility(mini_manifest, tmp_path):
    failures = []
    model_cfg = ModelConfig.micro(num_classes=2)
    tc = TrainConfig(epochs=3, initial_lr=3e-3, batch_size=3, tau=0.5,
                     warmup_epochs=1, num_runs=1, seed=0)

    # identical seeds and config twice over
    dirs = []
    for run in ("a", "b"):
        dataset, split = mini_setup(mini_manifest)
        out = tmp_path / run
        run_experiment(dataset, split, model_cfg, tc, out, seeds=[0])
        dirs.append(out)
    a, b = dirs
    logs = []
    for d in dirs:
        lines = (d / "seed0" / "epochs.jsonl").read_text().splitlines()
        logs.append(strip_wall([json.loads(line) for line in lines]))
    if logs[0] != logs[1]:
        failures.append("epoch logs differ between identical runs")
    if (a / "seed0" / "state.dcsm").read_bytes() != \
            (b / "seed0" / "state.dcsm").read_bytes():
        failures.append("checkpoints differ between identical runs")
    for artifact in ("report.json", "run_config.txt"):
        if (a / artifact).read_bytes() != (b / artifact).read_bytes():
            failures.append(f"{artifact} differs between identical runs")
    if (a / "seed0" / "predictions.jsonl").read_bytes() != \
            (b / "seed0" / "predictions.jsonl").read_bytes():
        failures.append("predictions differ between identical runs")

    # interrupted + resumed run matches the uninterrupted one
    dataset, split = mini_setup(mini_manifest)
    whole = DCSWin(model_cfg, seed=0)
    train(whole, dataset, split, tc, run_dir=tmp_path / "whole")
    part = DCSWin(model_cfg, seed=0)
    train(part, dataset, split, tc, run_dir=tmp_path / "part", stop_after=2)
    resumed = DCSWin(model_cfg, seed=0)
    train(resumed, dataset, split, tc, run_dir=tmp_path / "part")
    whole_params = whole.named_params()
    if not all(np.array_equal(p.data, whole_params[k].data)
               for k, p in resumed.named_params().items()):
        failures.append("resumed parameters differ from uninterrupted run")
    read = lambda d: strip_wall([json.loads(line) for line in
                                 (d / "epochs.jsonl").read_text().splitlines()])
    if read(tmp_path / "whole") != read(tmp_path / "part"):
        failures.append("resumed epoch log differs from uninterrupted run")

    verdict(7, "reproducibility", failures)
