"""Command-line surface: data synthesis, splitting, training, evaluation,
and gradient verification.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 verification
failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import (ArrayDataset, DatasetManifest, DatasetSplit,
                   stratified_split, synth_generate)
from .errors import ConfigError, DcswinError
from .gradcheck import op_names, run_model_check, run_op_check
from .model import ARMS, DCSWin
from .serialization import read_utf8
from .trainer import (check_ids, eval_metadata, evaluate_model,
                      load_run_config, run_experiment)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcswin",
        description="Dynamic cross-scale window transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data",
                       help="generate a synthetic textured dataset")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("split",
                       help="stratified labeled/unlabeled/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--labeled-frac", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one arm across seeds")
    p.add_argument("--config", required=True,
                   help="key=value file with model.* and train.* entries")
    p.add_argument("--split", required=True)
    p.add_argument("--manifest",
                   help="dataset manifest (defaults to the one recorded "
                        "in the split file)")
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", choices=list(ARMS),
                   help="set both mechanism flags for this arm")
    p.add_argument("--supervised-only", action="store_true",
                   help="tau=1.0: no pseudo-labels, and no inference "
                        "over the unlabeled pool")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--no-resume", action="store_true",
                   help="ignore existing checkpoints in the output dir")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ids",
                       help="file with one sample id per line")
    group.add_argument("--split", help="split file to draw ids from")
    p.add_argument("--pool", choices=["labeled", "unlabeled", "test"],
                   default="test", help="pool to evaluate when using --split")
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("gradcheck", help="finite-difference verification")
    p.add_argument("--op", choices=op_names(),
                   help="check a single operation")
    p.add_argument("--model", choices=["micro"],
                   help="check the micro end-to-end model")

    return parser


def _cmd_synth_data(args) -> int:
    manifest = synth_generate(args.out, num_classes=args.classes,
                              per_class=args.per_class, image_size=args.size,
                              seed=args.seed, overlap=args.overlap)
    print(Path(args.out) / "manifest.json")
    print(f"{len(manifest.records)} images, {manifest.num_classes} classes")
    return EXIT_OK


def _cmd_split(args) -> int:
    manifest = DatasetManifest.load(args.manifest)
    split = stratified_split(manifest, train_frac=args.train_frac,
                             labeled_frac=args.labeled_frac, seed=args.seed)
    split.manifest = str(Path(args.manifest).resolve())
    split.save(args.out)
    header = f"{'class':>12} {'total':>6} {'labeled':>8} {'unlabeled':>10} {'test':>6}"
    print(header)
    for name, row in split.audit["per_class"].items():
        print(f"{name:>12} {row['total']:>6} {row['labeled']:>8} "
              f"{row['unlabeled']:>10} {row['test']:>6}")
    t = split.audit["totals"]
    total = t["labeled"] + t["unlabeled"] + t["test"]
    print(f"{'all':>12} {total:>6} {t['labeled']:>8} {t['unlabeled']:>10} "
          f"{t['test']:>6}")
    return EXIT_OK


def _seed_list(text: str, source: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"{source}: malformed seed list {text!r}") from None
    if not seeds:
        raise ConfigError(f"{source}: no seeds parsed from {text!r}")
    return seeds


def _cmd_train(args) -> int:
    model_cfg, train_cfg, extra = load_run_config(args.config)
    if args.ablation:
        model_cfg = model_cfg.ablated(args.ablation)
    if args.supervised_only:
        from dataclasses import replace
        train_cfg = replace(train_cfg, tau=1.0)
    split = DatasetSplit.load(args.split)
    manifest_path = args.manifest or split.manifest
    if not manifest_path:
        raise ConfigError("no manifest: pass --manifest or use a split file "
                          "that records one")
    manifest = DatasetManifest.load(manifest_path)
    dataset = ArrayDataset.from_manifest(manifest,
                                         image_size=model_cfg.image_size)
    if args.seeds:
        seeds = _seed_list(args.seeds, "--seeds")
    elif "run.seeds" in extra:
        seeds = _seed_list(extra["run.seeds"], "run.seeds")
    else:
        seeds = [train_cfg.seed + i for i in range(train_cfg.num_runs)]
    report = run_experiment(
        dataset, split, model_cfg, train_cfg, args.out, seeds,
        resume=not args.no_resume,
        extra_config={"data.manifest": str(manifest_path),
                      "data.split": str(Path(args.split).resolve()),
                      "run.arm": model_cfg.arm,
                      "run.supervised_only": str(train_cfg.tau >= 1.0)})
    print(f"report: {Path(args.out) / 'report.json'}")
    print(report.render())
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, extra = DCSWin.load(args.checkpoint)
    classes, mean, std = eval_metadata(extra)
    manifest = DatasetManifest.load(args.manifest)
    dataset = ArrayDataset.from_manifest(manifest,
                                         image_size=model.cfg.image_size)
    if classes != list(dataset.class_names):
        raise ConfigError(f"checkpoint classes {classes} do not match "
                          f"manifest classes {list(dataset.class_names)}")
    dataset.set_normalization(mean, std)
    if args.ids:
        ids = [line.strip() for line in
               read_utf8(args.ids, "ids file").splitlines() if line.strip()]
        source = f"ids file {args.ids}"
    else:
        split = DatasetSplit.load(args.split)
        ids = sorted(getattr(split, args.pool))
        source = f"split's {args.pool} pool"
    if not ids:
        raise ConfigError("no ids to evaluate")
    check_ids(dataset, ids, source)
    values, cm, probs = evaluate_model(model, dataset, ids)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    cm.to_csv(out.parent / "confusion.csv")
    from .metrics import write_predictions_jsonl
    write_predictions_jsonl(out.parent / "predictions.jsonl", ids,
                            dataset.labels_for(ids), probs)
    for name in sorted(values):
        print(f"{name:>18}: {values[name]:.4f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = []
    if args.op:
        results.append(run_op_check(args.op))
    elif args.model:
        results.append(run_model_check())
    else:
        for name in op_names():
            results.append(run_op_check(name))
        results.append(run_model_check())
    failed = False
    for res in results:
        print(res.describe())
        failed = failed or not res.passed
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth-data": _cmd_synth_data,
        "split": _cmd_split,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
    }
    # argument-shaped failures (bad ranges, malformed id lists) are usage
    # errors for the data commands; everything else is a runtime failure
    usage_errors = args.command in ("synth-data", "split")
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE if usage_errors else EXIT_RUNTIME
    except DcswinError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
