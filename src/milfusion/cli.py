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
from pathlib import Path

from .data import (
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    load_hidden_truth,
    save,
)
from .encoders import EncoderConfig
from .errors import MilError, UsageError, exit_code_for
from .metrics import (
    compute_report,
    confusion_matrix,
    load_predictions,
    save_confusion_csv,
    save_predictions,
    save_report,
)
from .model import ModelConfig, config_to_dict, load_model, save_model
from .training import (
    TrainConfig,
    predictions_for,
    run_curriculum,
    run_supervised_only,
    train_supervised,
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
    return cfg


def _echo_config(out_dir, resolved):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_used.json").write_text(json.dumps(resolved, indent=1))


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"--{name} is required")
    return value


# ---------------------------------------------------------------------------
# config assembly


def _synthetic_config(file_cfg, args):
    cfg = dict(file_cfg.get("dataset", file_cfg))
    cfg["seed"] = args.seed if args.seed is not None else cfg.get("seed")
    if cfg.get("seed") is None:
        raise UsageError("--seed is required")
    known = {f for f in SyntheticConfig.__dataclass_fields__}
    unknown = set(cfg) - known
    if unknown:
        raise UsageError(f"unknown dataset config keys: {sorted(unknown)}")
    for key in ("class_priors", "cine_bag_size", "doppler_bag_size",
                "cine_shape", "doppler_shape"):
        if key in cfg:
            cfg[key] = tuple(cfg[key])
    return SyntheticConfig(**cfg)


def _infer_input_dims(dataset):
    cine_dim = doppler_dim = None
    for bag in dataset.bags:
        if cine_dim is None and bag.cine_instances:
            shp = bag.cine_instances[0].shape
            if len(shp) >= 2:  # frame mean drops the leading axis
                cine_dim = int(math.prod(shp[1:]))
        if doppler_dim is None and bag.doppler_instances:
            doppler_dim = int(bag.doppler_instances[0].features.size)
        if cine_dim and doppler_dim:
            break
    return cine_dim, doppler_dim


_MODEL_KEYS = {"cine_input_dim", "doppler_input_dim", "hidden_sizes", "embed_dim",
               "activation", "attention_dim", "lambda_sa", "tau", "use_cine",
               "use_doppler"}


def _model_config(file_cfg, args, dataset):
    cfg = dict(file_cfg.get("model", {}))
    unknown = set(cfg) - _MODEL_KEYS
    if unknown:
        raise UsageError(f"unknown model config keys: {sorted(unknown)}")
    cine_dim, doppler_dim = _infer_input_dims(dataset)
    cine_kwargs = {
        "modality": "cine",
        "input_dim": cfg.get("cine_input_dim", cine_dim),
        "hidden_sizes": tuple(cfg.get("hidden_sizes", (64,))),
        "embed_dim": cfg.get("embed_dim", 32),
        "activation": cfg.get("activation", "tanh"),
    }
    doppler_kwargs = dict(cine_kwargs, modality="doppler",
                          input_dim=cfg.get("doppler_input_dim", doppler_dim))
    if cine_kwargs["input_dim"] is None or doppler_kwargs["input_dim"] is None:
        raise UsageError(
            "could not infer encoder input dims from the dataset; set "
            "model.cine_input_dim / model.doppler_input_dim in the config file"
        )
    lambda_sa = args.lambda_sa if args.lambda_sa is not None else cfg.get("lambda_sa", 10.0)
    tau = args.tau if args.tau is not None else cfg.get("tau", 0.5)
    use_doppler = cfg.get("use_doppler", True) and not args.ablate_doppler
    return ModelConfig(
        cine_encoder=EncoderConfig(**cine_kwargs),
        doppler_encoder=EncoderConfig(**doppler_kwargs),
        attention_dim=cfg.get("attention_dim", 32),
        lambda_sa=float(lambda_sa),
        tau=float(tau),
        use_cine=bool(cfg.get("use_cine", True)),
        use_doppler=bool(use_doppler),
    )


def _train_config(file_cfg, args):
    cfg = dict(file_cfg.get("train", {}))
    if args.lr is not None:
        cfg["learning_rate"] = args.lr
    if args.weight_decay is not None:
        cfg["weight_decay"] = args.weight_decay
    cfg["seed"] = args.seed if args.seed is not None else cfg.get("seed")
    if cfg.get("seed") is None:
        raise UsageError("--seed is required")
    known = {f for f in TrainConfig.__dataclass_fields__}
    unknown = set(cfg) - known
    if unknown:
        raise UsageError(f"unknown train config keys: {sorted(unknown)}")
    return TrainConfig(**cfg)


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_data(args):
    file_cfg = _read_config_file(args.config)
    out = Path(_require(args, "out"))
    config = _synthetic_config(file_cfg, args)
    dataset, hidden_truth = generate_synthetic(config)
    save(dataset, out, hidden_truth)
    resolved = {f: getattr(config, f) for f in SyntheticConfig.__dataclass_fields__}
    _echo_config(out, {"command": "gen-data", "dataset": resolved})
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_loss", "val_balanced_accuracy"])
        for row in history["epochs"]:
            writer.writerow([row["epoch"], repr(row["train_loss"]),
                             repr(row["val_balanced_accuracy"])])


def _cmd_train(args):
    file_cfg = _read_config_file(args.config)
    out = Path(_require(args, "out"))
    dataset = load(Path(_require(args, "data")))
    model_config = _model_config(file_cfg, args, dataset)
    train_config = _train_config(file_cfg, args)
    train_bags = iterate_split(dataset, "train")
    val_bags = iterate_split(dataset, "val")
    model, history = train_supervised(
        train_config.seed + 1, train_bags, val_bags, model_config, train_config
    )
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "checkpoint")
    _write_history_csv(history, out / "history.csv")
    _echo_config(out, {
        "command": "train",
        "data": str(args.data),
        "model": config_to_dict(model_config),
        "train": {f: getattr(train_config, f) for f in TrainConfig.__dataclass_fields__},
    })
    print(f"best validation balanced accuracy: {history['best_val_balanced_accuracy']:.4f} "
          f"(epoch {history['best_epoch']})")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def _cmd_ssl(args):
    file_cfg = _read_config_file(args.config)
    out = Path(_require(args, "out"))
    data_dir = Path(_require(args, "data"))
    dataset = load(data_dir)
    model_config = _model_config(file_cfg, args, dataset)
    train_config = _train_config(file_cfg, args)
    if args.ablate_ssl:
        logger.warning("--ablate-ssl: running supervised-only training")
        model, report = run_supervised_only(dataset, model_config, train_config)
    else:
        hidden_truth = load_hidden_truth(data_dir)
        model, report = run_curriculum(dataset, model_config, train_config, hidden_truth)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "checkpoint")
    with open(out / "rounds.jsonl", "w") as f:
        for row in report:
            f.write(json.dumps(row) + "\n")
    _echo_config(out, {
        "command": "ssl",
        "data": str(data_dir),
        "ablate_ssl": bool(args.ablate_ssl),
        "model": config_to_dict(model_config),
        "train": {f: getattr(train_config, f) for f in TrainConfig.__dataclass_fields__},
    })
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
    _echo_config(out, {"command": "eval", "seed": args.seed, "n_boot": args.n_boot,
                       **source})
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
    _echo_config(out, {"command": "predict", "checkpoint": str(args.checkpoint),
                       "data": str(args.data), "split": args.split})
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
