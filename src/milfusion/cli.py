"""Command-line entry point.

Commands:
    gen-data   synthesize a bag dataset directory
    train      supervised training -> checkpoint + per-epoch history CSV
    ssl        curriculum semi-supervised training -> checkpoint + rounds.jsonl
    eval       metrics report (balanced accuracy, screening AUROC/AUPR with
               bootstrap CIs, confusion matrix) from a checkpoint or a
               prediction CSV
    predict    write the prediction CSV for a dataset split

Every command takes --config (JSON file) with flags overriding file values,
requires --seed, and echoes the fully resolved configuration into the output
directory. Exit codes: 0 success, 1 usage/config error, 2 data/format error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .data import (
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    load_hidden_truth,
    save,
)
from .errors import MilError, UsageError, exit_code_for
from .metrics import (
    atomic_file,
    compute_report,
    confusion_matrix,
    load_predictions,
    save_confusion_csv,
    save_predictions,
    save_report,
)
from .model import ModelConfig, config_from_dict, load_model, save_model
from .training import (
    TrainConfig,
    predictions_for,
    run_curriculum,
    run_supervised_only,
    train_supervised,
    val_split,
)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _read_config_file(path):
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    bad = [key for key in ("dataset", "model", "train") if not isinstance(cfg.get(key, {}), dict)]
    if bad:
        raise UsageError(f"config sections must be JSON objects: {bad}")
    return cfg


def _save_config(resolved, path):
    with atomic_file(path) as f:
        json.dump(resolved, f, indent=1)


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"--{name} is required")
    return value


# ---------------------------------------------------------------------------
# config assembly


def _synthetic_config(file_cfg, args):
    section = {**file_cfg.get("dataset", file_cfg), "seed": args.seed}
    return config_from_dict(SyntheticConfig, section, UsageError, "dataset")


def _infer_input_dims(dataset):
    """(cine, doppler) encoder input sizes, read off each modality's first instance
    (the cine frame mean drops the leading axis)."""
    cine = next((b.cine_instances[0] for b in dataset.bags if b.cine_instances), None)
    doppler = next((b.doppler_instances[0] for b in dataset.bags if b.doppler_instances), None)
    return (math.prod(cine.shape[1:]) if cine and len(cine.shape) >= 2 else None,
            doppler.features.size if doppler else None)


# The flat ``model`` section sets these for both encoders.
_ENCODER_KEYS = ("hidden_sizes", "embed_dim", "activation")


def _model_config(file_cfg, args, dataset):
    section = dict(file_cfg.get("model", {}))
    nested = sorted(section.keys() & {"cine_encoder", "doppler_encoder"})
    if nested:
        raise UsageError(f"model: unknown keys {nested}")
    shared = {key: section.pop(key) for key in _ENCODER_KEYS if key in section}
    for modality, inferred in zip(("cine", "doppler"), _infer_input_dims(dataset)):
        input_dim = section.pop(f"{modality}_input_dim", inferred)
        if input_dim is None:
            raise UsageError(f"could not infer the {modality} input dim from the dataset; "
                             f"set model.{modality}_input_dim in the config file")
        section[f"{modality}_encoder"] = {"modality": modality, "input_dim": input_dim,
                                          **shared}
    if args.lambda_sa is not None:
        section["lambda_sa"] = args.lambda_sa
    if args.tau is not None:
        section["tau"] = args.tau
    if args.ablate_doppler:
        section["use_doppler"] = False
    return config_from_dict(ModelConfig, section, UsageError, "model")


def _train_config(file_cfg, args):
    section = {**file_cfg.get("train", {}), "seed": args.seed}
    if args.lr is not None:
        section["learning_rate"] = args.lr
    if args.weight_decay is not None:
        section["weight_decay"] = args.weight_decay
    return config_from_dict(TrainConfig, section, UsageError, "train")


def _run_inputs(args):
    """The dataset and the model and train configs of a ``train`` or ``ssl`` run."""
    file_cfg = _read_config_file(args.config)
    dataset = load(Path(_require(args, "data")))
    return dataset, _model_config(file_cfg, args, dataset), _train_config(file_cfg, args)


def _run_echo(args, model_config, train_config, **extra):
    """The resolved config of a ``train`` or ``ssl`` run, itself a valid ``--config``."""
    model = asdict(model_config)
    cine, doppler = model.pop("cine_encoder"), model.pop("doppler_encoder")
    model = {"cine_input_dim": cine["input_dim"], "doppler_input_dim": doppler["input_dim"],
             **{key: cine[key] for key in _ENCODER_KEYS}, **model}
    return {"command": args.command, "data": str(args.data), **extra,
            "model": model, "train": asdict(train_config)}


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_data(args):
    file_cfg = _read_config_file(args.config)
    out = Path(_require(args, "out"))
    config = _synthetic_config(file_cfg, args)
    dataset, hidden_truth = generate_synthetic(config)
    save(dataset, out, hidden_truth)
    _save_config({"command": "gen-data", "dataset": asdict(config)}, out / "config_used.json")
    counts = {}
    hist = {0: 0, 1: 0, 2: 0}
    for bag in dataset.bags:
        split = dataset.split_assignment[bag.id]
        counts[split] = counts.get(split, 0) + 1
        if bag.label is not None:
            hist[bag.label] += 1
    print(f"wrote dataset to {out}")
    print("bags per split: " + ", ".join(f"{s}={counts.get(s, 0)}" for s in ("train", "val", "test", "unlabeled")))
    print("labeled class histogram: " + ", ".join(f"{c}={hist[c]}" for c in (0, 1, 2)))
    return 0


def _write_history_csv(history, path):
    with atomic_file(path) as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_balanced_accuracy"])
        for row in history["epochs"]:
            writer.writerow([row["epoch"], repr(row["train_loss"]),
                             repr(row["val_balanced_accuracy"])])


def _write_rounds(report, path):
    with atomic_file(path) as f:
        for row in report:
            f.write(json.dumps(row) + "\n")


def _cmd_train(args):
    out = Path(_require(args, "out"))
    dataset, model_config, train_config = _run_inputs(args)
    model, history = train_supervised(
        train_config.seed + 1, iterate_split(dataset, "train"), val_split(dataset),
        model_config, train_config
    )
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "checkpoint")
    _write_history_csv(history, out / "history.csv")
    _save_config(_run_echo(args, model_config, train_config), out / "config_used.json")
    print(f"best validation balanced accuracy: {history['best_val_balanced_accuracy']:.4f} "
          f"(epoch {history['best_epoch']})")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def _cmd_ssl(args):
    out = Path(_require(args, "out"))
    dataset, model_config, train_config = _run_inputs(args)
    if args.ablate_ssl:
        logger.warning("--ablate-ssl: running supervised-only training")
        model, report = run_supervised_only(dataset, model_config, train_config)
    else:
        hidden_truth = load_hidden_truth(Path(args.data))
        model, report = run_curriculum(dataset, model_config, train_config, hidden_truth)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "checkpoint")
    _write_rounds(report, out / "rounds.jsonl")
    _save_config(_run_echo(args, model_config, train_config, ablate_ssl=bool(args.ablate_ssl)),
                 out / "config_used.json")
    best = max(report, key=lambda r: r["val_balanced_accuracy"])
    print(f"rounds: {len(report)}; best round {best['round']} "
          f"(val balanced accuracy {best['val_balanced_accuracy']:.4f})")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def _split_predictions(args):
    dataset = load(Path(_require(args, "data")))
    bags = iterate_split(dataset, args.split)
    if not bags:
        raise UsageError(f"split {args.split!r} is empty")
    if any(b.label is None for b in bags):
        raise UsageError(f"split {args.split!r} has unlabeled bags; cannot evaluate")
    model = load_model(Path(_require(args, "checkpoint")))
    return predictions_for(model, bags)


def _cmd_eval(args):
    out = Path(_require(args, "out"))
    if args.predictions is not None:
        preds = load_predictions(args.predictions)
        source = {"predictions": str(args.predictions)}
    else:
        preds = _split_predictions(args)
        source = {"checkpoint": str(args.checkpoint), "data": str(args.data),
                  "split": args.split}
    report = compute_report(preds, n_boot=args.n_boot, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_report(report, out / "report.json")
    save_confusion_csv(confusion_matrix(preds), out / "confusion_matrix.csv")
    _save_config({"command": "eval", "seed": args.seed, "n_boot": args.n_boot, **source},
                 out / "config_used.json")
    bacc = report["balanced_accuracy"]
    print(f"balanced accuracy: {bacc['point']:.4f} [{bacc['lo']:.4f}, {bacc['hi']:.4f}]")
    for key in ("no_vs_some_auroc", "early_vs_sig_auroc", "sig_vs_nosig_auroc"):
        block = report[key]
        print(f"{key}: {block['point']:.4f} [{block['lo']:.4f}, {block['hi']:.4f}]")
    print(f"report written to {out / 'report.json'}")
    return 0


def _cmd_predict(args):
    out = Path(_require(args, "out"))
    preds = _split_predictions(args)
    out.mkdir(parents=True, exist_ok=True)
    save_predictions(preds, out / "predictions.csv")
    _save_config({"command": "predict", "checkpoint": str(args.checkpoint),
                  "data": str(args.data), "split": args.split}, out / "config_used.json")
    print(f"wrote {len(preds)} predictions to {out / 'predictions.csv'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="milfusion",
                     description="multimodal multiple-instance bag classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_train_flags=False):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="seed (required)")
        p.add_argument("--out", help="output directory")
        if with_train_flags:
            p.add_argument("--data", help="dataset directory")
            p.add_argument("--lr", type=float, help="learning rate")
            p.add_argument("--weight-decay", type=float, help="weight decay")
            p.add_argument("--lambda", dest="lambda_sa", type=float,
                           help="attention supervision weight")
            p.add_argument("--tau", type=float, help="relevance temperature")
            p.add_argument("--ablate-doppler", action="store_true",
                           help="disable the doppler branch")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(p)

    p = sub.add_parser("train", help="supervised training")
    common(p, with_train_flags=True)

    p = sub.add_parser("ssl", help="curriculum semi-supervised training")
    common(p, with_train_flags=True)
    p.add_argument("--ablate-ssl", action="store_true",
                   help="skip the curriculum and train supervised-only")

    p = sub.add_parser("eval", help="evaluate a checkpoint or a prediction CSV")
    common(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--split", default="test", help="dataset split (default: test)")
    p.add_argument("--predictions", help="evaluate this prediction CSV instead")
    p.add_argument("--n-boot", type=int, default=5000,
                   help="bootstrap resamples (default: 5000)")

    p = sub.add_parser("predict", help="write a prediction CSV")
    common(p)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--split", default="test", help="dataset split (default: test)")

    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "ssl": _cmd_ssl,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            raise UsageError("--seed is required")
        return _COMMANDS[args.command](args)
    except MilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
