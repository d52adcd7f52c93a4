"""Command-line entry point.

Commands:
    gen-data   synthesize a bag dataset directory
    train      supervised training on the labeled bags (the no-SSL arm, which is
               also ssl's round 1) -> checkpoint + per-epoch history CSV
    ssl        curriculum semi-supervised training -> checkpoint + rounds.jsonl
    eval       metrics report (balanced accuracy, screening AUROC/AUPR with
               bootstrap CIs, confusion matrix) from a checkpoint or a
               prediction CSV
    predict    write the prediction CSV for a dataset split

predict and eval --checkpoint stream the split they score, a chunk of bags at
a time. Every command requires --seed and --out. main refuses the eval flags
that --predictions would ignore and checks --out before the command runs;
after it, main echoes the resolved configuration into config_used.json and
logs each degenerate bag of the splits the command read, once. gen-data, train
and ssl take --config (JSON file) with flags overriding file values.
Exit codes: 0 success, 1 usage/config error, out of memory or an OS error on
a path, 2 data/format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from .data import (
    MODALITIES,
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    load_hidden_truth,
    read_split,
    save,
)
from .errors import MilError, UsageError, exit_code_for
from .metrics import (
    atomic_file,
    compute_report,
    confusion_matrix,
    load_predictions,
    save_confusion_csv,
    save_json,
    save_predictions,
)
from .model import ModelConfig, config_from_dict, load_model, resolve_branches, save_model
from .training import (
    TrainConfig,
    predictions_for,
    run_curriculum,
    train_supervised,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


# The sections a command reads, plus the two extra keys of a config_used.json.
_CONFIG_KEYS = {"dataset", "model", "train", "command", "data"}


def _read_config_file(path):
    if path is None:
        return {}
    p = Path(path)
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"config file {p}: {exc.strerror}") from exc
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(cfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"config file: unknown keys {unknown}")
    bad = [key for key in ("dataset", "model", "train") if not isinstance(cfg.get(key, {}), dict)]
    if bad:
        raise UsageError(f"config sections must be JSON objects: {bad}")
    return cfg


def _require(args, name):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"--{name} is required")
    if not value:  # Path("") is the current directory
        raise UsageError(f"--{name} must not be empty")
    return value


def _out_dir(args):
    """``--out`` as a Path, refused unless it, or its first existing ancestor, is a
    directory, and unless the OS accepts the path (its length, its permissions).
    Nothing is created: a run that fails leaves no output directory."""
    out = Path(_require(args, "out"))
    for path in (out, *out.parents):
        try:
            os.lstat(path)
            break
        except (FileNotFoundError, NotADirectoryError):
            pass
        except OSError as exc:
            raise UsageError(f"--out {out}: {exc.strerror}") from exc
    if not path.is_dir():
        raise UsageError(f"--out {out}: {path} is not a directory")
    return out


# ---------------------------------------------------------------------------
# config assembly


def _synthetic_config(file_cfg, args):
    section = {**file_cfg.get("dataset", {}), "seed": args.seed}
    return config_from_dict(SyntheticConfig, section, UsageError, "dataset")


def _infer_input_dims(dataset):
    """(cine, doppler) encoder input sizes, read off each modality's first instance
    shape (the cine frame mean drops the leading axis)."""
    cine, doppler = (next((b.blocks[modality][0][1] for b in dataset.bags
                           if b.counts[modality]), None) for modality in MODALITIES)
    return (math.prod(cine[1:]) if cine is not None and len(cine) >= 2 else None,
            math.prod(doppler) if doppler is not None else None)


# The flat ``model`` section sets these for both encoders.
_ENCODER_KEYS = ("hidden_sizes", "embed_dim")


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
    data = Path(_require(args, "data"))
    file_cfg = _read_config_file(args.config)
    dataset = load(data)
    return dataset, _model_config(file_cfg, args, dataset), _train_config(file_cfg, args)


def _run_echo(args, model_config, train_config):
    """The resolved config of a ``train`` or ``ssl`` run, itself a valid ``--config``."""
    model = asdict(model_config)
    cine, doppler = model.pop("cine_encoder"), model.pop("doppler_encoder")
    model = {"cine_input_dim": cine["input_dim"], "doppler_input_dim": doppler["input_dim"],
             **{key: cine[key] for key in _ENCODER_KEYS}, **model}
    return {"command": args.command, "data": str(args.data),
            "model": model, "train": asdict(train_config)}


# ---------------------------------------------------------------------------
# commands: each writes its artifacts under ``out`` and returns the echo that
# ``main`` writes as ``config_used.json`` and the (model config, bags) it read


def _cmd_gen_data(args, out):
    config = _synthetic_config(_read_config_file(args.config), args)
    dataset, hidden_truth = generate_synthetic(config)
    save(dataset, out, hidden_truth)
    counts = Counter(dataset.split_assignment.values())
    hist = Counter(bag.label for bag in dataset.bags)
    print(f"wrote dataset to {out}")
    print("bags per split: " + ", ".join(f"{s}={counts[s]}" for s in ("train", "val", "test", "unlabeled")))
    print("labeled class histogram: " + ", ".join(f"{c}={hist[c]}" for c in (0, 1, 2)))
    return {"command": "gen-data", "dataset": asdict(config)}, ()


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


def _cmd_train(args, out):
    dataset, model_config, train_config = _run_inputs(args)
    train, val = iterate_split(dataset, "train"), iterate_split(dataset, "val")
    model, history = train_supervised(train_config.seed + 1, train, val, model_config, train_config)
    save_model(model, out / "checkpoint")
    _write_history_csv(history, out / "history.csv")
    print(f"best validation balanced accuracy: {history['best_val_balanced_accuracy']:.4f} "
          f"(epoch {history['best_epoch']})")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return _run_echo(args, model_config, train_config), [(model_config, train), (model_config, val)]


def _cmd_ssl(args, out):
    dataset, model_config, train_config = _run_inputs(args)
    hidden_truth = load_hidden_truth(Path(args.data))
    model, report = run_curriculum(dataset, model_config, train_config, hidden_truth)
    save_model(model, out / "checkpoint")
    _write_rounds(report, out / "rounds.jsonl")
    best = max(report, key=lambda r: r["val_balanced_accuracy"])
    print(f"rounds: {len(report)}; best round {best['round']} "
          f"(val balanced accuracy {best['val_balanced_accuracy']:.4f})")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return _run_echo(args, model_config, train_config), [
        (model_config, iterate_split(dataset, split)) for split in ("train", "val", "unlabeled")]


def _split_predictions(args):
    """The predictions of ``predict`` and ``eval --checkpoint``, and what ``main``
    reports on: the model config and the ``--split`` bags' records.

    The whole dataset and the split (known, not empty, labeled) are checked
    before the checkpoint loads. Then the split's bags are read and scored a
    chunk at a time, so a NaN or an infinity in one is refused when its chunk
    is read. The records hold each bag's id and counts, so the report reads no
    value again.
    """
    data, checkpoint = Path(_require(args, "data")), Path(_require(args, "checkpoint"))
    bags = read_split(data, args.split)
    if not bags:
        raise UsageError(f"split {args.split!r} is empty")
    if any(rec.label is None for rec in bags.records):
        raise UsageError(f"split {args.split!r} has unlabeled bags; cannot evaluate")
    model = load_model(checkpoint)
    return predictions_for(model, bags), [(model.config, bags.records)]


def _eval_source(args):
    """Refuse the ``eval`` flags that ``--predictions`` would ignore; without
    ``--predictions``, ``--split`` defaults to test."""
    if args.predictions is None:
        if args.split is None:
            args.split = "test"
        return
    for flag in ("checkpoint", "data", "split"):
        if getattr(args, flag) is not None:
            raise UsageError(f"--{flag} cannot be used with --predictions, which scores "
                             "the rows of its file")


def _cmd_eval(args, out):
    if args.predictions is not None:
        preds, read = load_predictions(args.predictions), ()
        source = {"predictions": str(args.predictions)}
    else:
        preds, read = _split_predictions(args)
        source = {"checkpoint": str(args.checkpoint), "data": str(args.data),
                  "split": args.split}
    report = compute_report(preds, n_boot=args.n_boot, seed=args.seed)
    save_json(report, out / "report.json")
    save_confusion_csv(confusion_matrix(preds), out / "confusion_matrix.csv")
    bacc = report["balanced_accuracy"]
    print(f"balanced accuracy: {bacc['point']:.4f} [{bacc['lo']:.4f}, {bacc['hi']:.4f}]")
    for key in ("no_vs_some_auroc", "early_vs_sig_auroc", "sig_vs_nosig_auroc"):
        block = report[key]
        print(f"{key}: {block['point']:.4f} [{block['lo']:.4f}, {block['hi']:.4f}]")
    print(f"report written to {out / 'report.json'}")
    return {"command": "eval", "seed": args.seed, "n_boot": args.n_boot, **source}, read


def _cmd_predict(args, out):
    preds, read = _split_predictions(args)
    save_predictions(preds, out / "predictions.csv")
    print(f"wrote {len(preds)} predictions to {out / 'predictions.csv'}")
    return {"command": "predict", "checkpoint": str(args.checkpoint),
            "data": str(args.data), "split": args.split}, read


# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves a parser as it was: one serves every call
def build_parser():
    parser = _Parser(prog="milfusion",
                     description="multimodal multiple-instance bag classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True, with_train_flags=False):
        if with_config:
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

    p = sub.add_parser("eval", help="evaluate a checkpoint or a prediction CSV")
    common(p, with_config=False)
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--split", help="dataset split (default: test)")
    p.add_argument("--predictions", help="evaluate this prediction CSV instead")
    p.add_argument("--n-boot", type=int, default=5000,
                   help="bootstrap resamples (default: 5000)")

    p = sub.add_parser("predict", help="write a prediction CSV")
    common(p, with_config=False)
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
        if args.command == "eval":
            _eval_source(args)
        out = _out_dir(args)
        echo, read = _COMMANDS[args.command](args, out)
        save_json(echo, out / "config_used.json")
        for model_config, bags in read:  # once per run, after its work succeeded
            resolve_branches(model_config, bags)
        return 0
    except MilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except MemoryError as exc:  # numpy names the allocation it refused
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the OS refused an output path or file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
