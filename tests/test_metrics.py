"""Metric correctness against independent brute-force references."""
import json
import warnings

import numpy as np
import pytest

from dcswin.errors import MetricUndefinedError, ShapeError
from dcswin.metrics import (ConfusionMatrix, MetricsReport, aggregate_runs,
                            auc_roc, balanced_accuracy, binary_auc,
                            cohens_kappa, evaluate_predictions, f1,
                            format_aggregate, write_predictions_jsonl)


# ---- brute-force references (deliberately written the slow, obvious way) ------

def bf_balanced_accuracy(counts):
    recalls = []
    for i, row in enumerate(counts):
        support = sum(row)
        recalls.append(row[i] / support)
    return sum(recalls) / len(recalls)


def bf_f1_class(counts, k):
    tp = counts[k][k]
    fp = sum(counts[i][k] for i in range(len(counts))) - tp
    fn = sum(counts[k]) - tp
    if tp == 0 and fp == 0 and fn == 0:
        return 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def bf_f1(counts):
    c = len(counts)
    if c == 2:
        return bf_f1_class(counts, 1)
    return sum(bf_f1_class(counts, k) for k in range(c)) / c


def bf_kappa(counts):
    total = sum(sum(row) for row in counts)
    p_o = sum(counts[i][i] for i in range(len(counts))) / total
    p_e = sum(sum(counts[i]) * sum(row[i] for row in counts)
              for i in range(len(counts))) / (total * total)
    return (p_o - p_e) / (1.0 - p_e)


def bf_pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---- worked fixtures -----------------------------------------------------------

FIX = ConfusionMatrix(np.array([[40, 10], [5, 45]]))


def test_fixture_balanced_accuracy():
    assert balanced_accuracy(FIX) == pytest.approx(0.85, abs=1e-15)


def test_fixture_f1_positive_class():
    assert f1(FIX) == pytest.approx(90.0 / 105.0, abs=1e-15)


def test_fixture_kappa():
    assert cohens_kappa(FIX) == pytest.approx(0.7, abs=1e-15)


def test_fixture_auc_two_pairs():
    scores = np.array([0.9, 0.4, 0.6, 0.1])
    labels = np.array([True, True, False, False])
    assert binary_auc(scores, labels) == 0.75


def test_perfect_separation_auc_is_one():
    assert binary_auc(np.array([0.8, 0.9, 0.1, 0.2]),
                      np.array([1, 1, 0, 0], dtype=bool)) == 1.0


def test_all_tied_scores_auc_half():
    assert binary_auc(np.full(6, 0.5),
                      np.array([1, 0, 1, 0, 1, 0], dtype=bool)) == 0.5


def test_diagonal_matrix_is_perfect():
    cm = ConfusionMatrix(np.diag([7, 3, 5]))
    assert balanced_accuracy(cm) == 1.0
    assert f1(cm) == 1.0
    assert cohens_kappa(cm) == 1.0


def test_product_marginal_matrix_kappa_zero():
    # rows 30/70, cols 30/70, chance-level agreement
    cm = ConfusionMatrix(np.array([[9, 21], [21, 49]]))
    assert cohens_kappa(cm) == pytest.approx(0.0, abs=1e-15)


def test_uniform_predictions_near_chance():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, 4000)
    pred = rng.integers(0, 4, 4000)
    cm = ConfusionMatrix.from_predictions(truth, pred, 4)
    assert balanced_accuracy(cm) == pytest.approx(0.25, abs=0.03)


# ---- oracle equivalence sweeps -----------------------------------------------------

def test_thousand_random_matrices_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        c = int(rng.integers(2, 5))
        counts = rng.integers(0, 51, size=(c, c))
        counts += np.eye(c, dtype=np.int64)  # guarantee every class support
        cm = ConfusionMatrix(counts)
        as_list = counts.tolist()
        assert abs(balanced_accuracy(cm) - bf_balanced_accuracy(as_list)) <= 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(f1(cm) - bf_f1(as_list)) <= 1e-12
        assert abs(cohens_kappa(cm) - bf_kappa(as_list)) <= 1e-12


def test_two_hundred_auc_sets_match_pairwise_exactly():
    rng = np.random.default_rng(43)
    for trial in range(200):
        n = int(rng.integers(3, 31))
        # quantized scores force plenty of ties
        scores = rng.integers(0, 6, n) / 5.0 if trial % 2 else rng.random(n)
        labels = np.zeros(n, dtype=bool)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        assert binary_auc(scores, labels) == bf_pairwise_auc(scores.tolist(),
                                                             labels.tolist())


def test_label_permutation_invariance():
    rng = np.random.default_rng(44)
    truth = rng.integers(0, 4, 120)
    probs = rng.dirichlet(np.ones(4), 120)
    base, _ = evaluate_predictions(truth, probs, 4)
    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    permuted, _ = evaluate_predictions(perm[truth], probs[:, inv], 4)
    for name, val in base.items():
        assert abs(permuted[name] - val) <= 1e-12, name


# ---- degenerate inputs --------------------------------------------------------------

def test_single_class_truth_auc_undefined():
    with pytest.raises(MetricUndefinedError):
        binary_auc(np.array([0.1, 0.9]), np.array([True, True]))
    with pytest.raises(MetricUndefinedError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            auc_roc(np.zeros(5, dtype=int), np.full((5, 3), 1 / 3))


def test_macro_auc_skips_absent_class_with_warning():
    truth = np.array([0, 0, 1, 1])  # class 2 never occurs
    probs = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1],
                      [0.2, 0.7, 0.1], [0.3, 0.6, 0.1]])
    with pytest.warns(UserWarning):
        val = auc_roc(truth, probs)
    assert val == 1.0


def test_empty_true_class_balanced_accuracy_undefined():
    cm = ConfusionMatrix(np.array([[5, 0], [0, 0]]))
    with pytest.raises(MetricUndefinedError):
        balanced_accuracy(cm)


def test_f1_zero_convention_warns():
    cm = ConfusionMatrix(np.array([[5, 0], [0, 0]]))
    with pytest.warns(UserWarning):
        assert f1(cm) == 0.0


def test_kappa_undefined_on_concentrated_matrix():
    with pytest.raises(MetricUndefinedError):
        cohens_kappa(ConfusionMatrix(np.array([[7]])))
    with pytest.raises(MetricUndefinedError):
        cohens_kappa(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


def test_confusion_matrix_validation():
    with pytest.raises(ShapeError):
        ConfusionMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ConfusionMatrix(np.array([[-1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        ConfusionMatrix(np.zeros((2, 2)), class_names=("a",))
    with pytest.raises(IndexError):
        ConfusionMatrix.from_predictions([0, 3], [0, 1], 2)
    with pytest.raises(ShapeError):
        ConfusionMatrix.from_predictions([0, 1], [0], 2)


# ---- aggregation & files ------------------------------------------------------------

def runs_of(values):
    return [{"auc_roc": v, "balanced_accuracy": v, "f1": v,
             "cohens_kappa": v} for v in values]


def test_aggregate_worked_example():
    report = aggregate_runs(runs_of([0.90, 0.92, 0.94, 0.92]), seeds=(0, 1, 2, 3))
    agg = report.aggregate["auc_roc"]
    assert agg["mean"] == pytest.approx(0.92, abs=1e-15)
    assert agg["std"] == pytest.approx(0.016329931618554522, abs=1e-12)
    assert format_aggregate(agg["mean"], agg["std"]) == "0.9200 ± 0.0163"


def test_aggregate_identical_runs_zero_std():
    report = aggregate_runs(runs_of([0.5, 0.5, 0.5]), seeds=(0, 1, 2))
    assert report.aggregate["f1"]["std"] == 0.0


def test_aggregate_single_run_omits_std():
    report = aggregate_runs(runs_of([0.7]), seeds=(9,))
    assert report.aggregate["f1"]["std"] is None
    assert "±" not in report.render()
    assert "0.7000" in report.render()


def test_aggregate_validation():
    with pytest.raises(MetricUndefinedError):
        aggregate_runs([], seeds=())
    with pytest.raises(ShapeError):
        aggregate_runs(runs_of([0.5]), seeds=(0, 1))


def report_from_json(text):
    """The `MetricsReport` that `to_json` wrote as `text`."""
    payload = json.loads(text)
    return MetricsReport(seeds=tuple(payload["seeds"]),
                         runs=tuple(payload["runs"]),
                         aggregate=payload["aggregate"])


def read_predictions_jsonl(path):
    """The ids, integer truths and probability rows of a predictions file."""
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    return ([r["id"] for r in recs], np.array([r["truth"] for r in recs]),
            np.array([r["probs"] for r in recs]))


def test_report_json_roundtrip(tmp_path):
    report = aggregate_runs(runs_of([0.90, 0.92]), seeds=(0, 1))
    path = tmp_path / "report.json"
    report.save(path)
    loaded = report_from_json(path.read_text())
    assert loaded.seeds == report.seeds
    assert loaded.runs == report.runs
    assert loaded.aggregate == report.aggregate
    # stable formatting: sorted keys, trailing newline
    assert path.read_text().endswith("\n")
    assert json.loads(path.read_text())["seeds"] == [0, 1]


def test_predictions_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(45)
    ids = [f"s{i}" for i in range(7)]
    truth = rng.integers(0, 3, 7)
    probs = rng.dirichlet(np.ones(3), 7)
    path = tmp_path / "preds.jsonl"
    write_predictions_jsonl(path, ids, truth, probs)
    rids, rtruth, rprobs = read_predictions_jsonl(path)
    assert rids == ids
    assert np.array_equal(rtruth, truth)
    assert np.array_equal(rprobs, probs)


def test_confusion_csv_layout(tmp_path):
    cm = ConfusionMatrix(np.array([[2, 1], [0, 3]]), class_names=("neg", "pos"))
    path = tmp_path / "cm.csv"
    cm.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "true\\pred,neg,pos"
    assert lines[1] == "neg,2,1"
    assert lines[2] == "pos,0,3"
