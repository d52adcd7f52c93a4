import copy
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from milfusion import cli, training
from milfusion.cli import main
from milfusion.data import Bag, iterate_split, load, load_hidden_truth, save
from milfusion.metrics import load_predictions
from milfusion.model import load_model, params_digest

from helpers import bag_value_ranges, write_feature_values

TINY_DATASET = {
    "n_labeled": 15,
    "n_val": 12,
    "n_test": 12,
    "n_unlabeled": 8,
    "cine_shape": [2, 3, 3],
    "doppler_shape": [3, 4],
    "cine_bag_size": [2, 4],
    "doppler_bag_size": [1, 3],
    "signal_strength": 4.0,
}

TINY_RUN = {
    "model": {"hidden_sizes": [8], "embed_dim": 4, "attention_dim": 4},
    "train": {"max_epochs": 2, "patience": 2},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "dataset.json"
    cfg.write_text(json.dumps({"dataset": TINY_DATASET}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(TINY_RUN))
    assert main(["gen-data", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "data")]) == 0
    return tmp_path


def read_bytes_map(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def edit_json(path, key_path, value):
    """Set one value, addressed by a path of keys and indices, in a JSON file."""
    doc = json.loads(path.read_text())
    node = doc
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value
    path.write_text(json.dumps(doc))


def error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_round_trips(workdir):
    dataset = load(workdir / "data")
    assert len(dataset.bags) == 47
    assert (workdir / "data" / "config_used.json").is_file()


def test_gen_data_deterministic(workdir, tmp_path):
    cfg = workdir / "dataset.json"
    assert main(["gen-data", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "again")]) == 0
    assert read_bytes_map(workdir / "data") == read_bytes_map(tmp_path / "again")


def test_gen_data_bad_priors(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dataset": {"class_priors": [0.9, 0.9, 0.9]}}))
    code = main(["gen-data", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_seed(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x")]) == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["gen-data", "--seed", "1", "--frobnicate"]) == 1


def test_consecutive_calls_parse_independently(tmp_path, monkeypatch, capsys):
    parsed = []
    monkeypatch.setitem(cli._COMMANDS, "eval", lambda args, out: (parsed.append(args) or {}, ()))
    out = ["--out", str(tmp_path / "out")]
    assert main(["eval", "--seed", "1", "--n-boot", "50", *out]) == 0
    assert main(["eval", "--seed", "2", *out]) == 0
    assert main(["eval", "--seed", "3", "--n-boot", "many", *out]) == 1  # usage error
    assert main(["eval", "--seed", "4", "--split", "val", *out]) == 0
    assert [(a.seed, a.n_boot, a.split) for a in parsed] == [
        (1, 50, "test"), (2, 5000, "test"), (4, 5000, "val")]
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["gen-data", "train", "ssl"])
def test_negative_seed_is_a_usage_error(workdir, capsys, command):
    args = [] if command == "gen-data" else ["--data", str(workdir / "data"),
                                             "--config", str(workdir / "run.json")]
    capsys.readouterr()
    code = main([command, *args, "--seed", "-1", "--out", str(workdir / "neg")])
    assert code == 1
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert not (workdir / "neg").exists()


@pytest.mark.parametrize("where", ["file", "under_file"])
@pytest.mark.parametrize("command", ["gen-data", "train", "ssl", "predict", "eval"])
def test_out_that_is_not_a_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                                command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("generate_synthetic", "load", "read_split", "load_predictions"):
        monkeypatch.setattr(cli, name, no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker if where == "file" else blocker / "sub"
    args = {"gen-data": [], "train": ["--data", str(tmp_path)], "ssl": ["--data", str(tmp_path)],
            "predict": ["--data", str(tmp_path), "--checkpoint", str(tmp_path)],
            "eval": ["--data", str(tmp_path), "--checkpoint", str(tmp_path)]}[command]
    capsys.readouterr()
    assert main([command, *args, "--seed", "1", "--out", str(out)]) == 1
    assert error_lines(capsys.readouterr().err) == [
        f"error: --out {out}: {blocker} is not a directory"]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command, flag", [
    ("gen-data", "--out"),
    *[(command, flag) for command in ("train", "ssl") for flag in ("--out", "--data")],
    *[(command, flag) for command in ("predict", "eval")
      for flag in ("--out", "--data", "--checkpoint")],
])
def test_an_empty_path_flag_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                       flag):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the path flags were checked")

    for name in ("generate_synthetic", "load", "read_split", "load_model", "save_json"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)  # where an empty path would read and write
    paths = {"--out": "o", "--data": "data", "--checkpoint": "checkpoint"}
    paths[flag] = ""
    used = {"gen-data": ["--out"], "train": ["--out", "--data"], "ssl": ["--out", "--data"]}
    args = [item for name in used.get(command, paths) for item in (name, paths[name])]
    capsys.readouterr()
    assert main([command, *args, "--seed", "1"]) == 1
    assert error_lines(capsys.readouterr().err) == [f"error: {flag} must not be empty"]
    assert os.listdir(tmp_path) == []


# one path component longer than any file system takes (NAME_MAX is 255 bytes)
LONG_NAME = "x" * 300


@pytest.mark.parametrize("command", ["gen-data", "train", "ssl", "predict", "eval"])
def test_out_path_the_os_refuses_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("generate_synthetic", "load", "read_split", "load_model", "load_predictions"):
        monkeypatch.setattr(cli, name, no_work)
    args = {"gen-data": [], "train": ["--data", str(tmp_path)], "ssl": ["--data", str(tmp_path)],
            "predict": ["--data", str(tmp_path), "--checkpoint", str(tmp_path)],
            "eval": ["--data", str(tmp_path), "--checkpoint", str(tmp_path)]}[command]
    out = tmp_path / LONG_NAME
    capsys.readouterr()
    assert main([command, *args, "--seed", "1", "--out", str(out)]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: --out {out}: ")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, flag", [("gen-data", "--config"), ("train", "--config"),
                                           ("eval", "--predictions")])
def test_input_path_the_os_refuses_is_one_error_line(workdir, capsys, command, flag):
    args = ["--data", str(workdir / "data")] if command == "train" else []
    capsys.readouterr()
    code = main([command, *args, flag, str(workdir / LONG_NAME), "--seed", "1",
                 "--out", str(workdir / "o")])
    assert code == 1
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("name, code", [(LONG_NAME, 1), ("absent", 2)], ids=["long", "absent"])
@pytest.mark.parametrize("flag", ["--data", "--checkpoint"])
def test_a_path_the_os_refuses_is_not_a_missing_dataset_or_checkpoint(workdir, capsys, flag,
                                                                      name, code):
    paths = {"--data": workdir / "data", "--checkpoint": workdir}
    paths[flag] = workdir / name
    capsys.readouterr()
    assert main(["predict", "--data", str(paths["--data"]), "--checkpoint",
                 str(paths["--checkpoint"]), "--seed", "1", "--out", str(workdir / "p")]) == code
    (line,) = error_lines(capsys.readouterr().err)
    missing = line.startswith(("error: no manifest", "error: no checkpoint manifest"))
    assert name in line and missing == (code == 2)
    assert not (workdir / "p").exists()


# ---------------------------------------------------------------------------
# config files


@pytest.mark.parametrize("command", ["gen-data", "train", "ssl"])
def test_config_used_json_reproduces_the_run(workdir, command):
    # flags given to the first run are recorded, so the second run needs none
    if command == "gen-data":
        args, flags = ["gen-data", "--seed", "7"], []
        config = workdir / "dataset.json"
    else:
        args = [command, "--data", str(workdir / "data"), "--seed", "3"]
        flags = ["--lr", "1e-3", "--tau", "0.05", "--ablate-doppler"]
        config = workdir / "run.json"
    first, again = workdir / "first", workdir / "again"
    assert main([*args, *flags, "--config", str(config), "--out", str(first)]) == 0
    assert main([*args, "--config", str(first / "config_used.json"), "--out", str(again)]) == 0
    assert (again / "config_used.json").read_bytes() == (first / "config_used.json").read_bytes()
    if command == "gen-data":
        assert read_bytes_map(again) == read_bytes_map(first)
    else:
        assert (params_digest(load_model(again / "checkpoint").params)
                == params_digest(load_model(first / "checkpoint").params))


def test_config_used_json_model_section_is_flat(workdir):
    out = workdir / "trained"
    assert main(["train", "--config", str(workdir / "run.json"), "--data", str(workdir / "data"),
                 "--seed", "3", "--out", str(out)]) == 0
    model = json.loads((out / "config_used.json").read_text())["model"]
    assert model == {"cine_input_dim": 9, "doppler_input_dim": 12, "hidden_sizes": [8],
                     "embed_dim": 4, "attention_dim": 4,
                     "lambda_sa": 10.0, "tau": 0.5, "use_cine": True, "use_doppler": True}


@pytest.mark.parametrize("section, key, value", [
    ("train", "learning_rate", "x"),
    ("model", "hidden_sizes", 8),
    ("dataset", "n_labeled", "12"),
    (None, "model", "x"),
    ("dataset", "signal_strength", "abc"),
    ("model", "use_cine", "false"),
    ("model", "cine_encoder", {"modality": "cine", "input_dim": 9}),
    ("train", "max_epochs", True),
    ("model", "activation", "tanh"),  # the encoders apply tanh; no key chooses it
])
def test_wrong_typed_config_value_is_a_usage_error(workdir, capsys, section, key, value):
    cfg = {"dataset": dict(TINY_DATASET), **copy.deepcopy(TINY_RUN)}
    (cfg[section] if section else cfg)[key] = value
    path = workdir / "bad.json"
    path.write_text(json.dumps(cfg))
    command = ["gen-data"] if section == "dataset" else ["train", "--data", str(workdir / "data")]
    capsys.readouterr()
    code = main([*command, "--config", str(path), "--seed", "3", "--out", str(workdir / "o")])
    assert code == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert key in line


@pytest.mark.parametrize("strength", ['1e999', '{"cine": NaN, "doppler": 1}',
                                      '{"cine": 1, "doppler": 2, "mri": 3}'])
def test_signal_strength_the_generator_cannot_use_is_refused(tmp_path, capsys, strength):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"dataset": {{"n_unlabeled": 0, "signal_strength": {strength}}}}}')
    capsys.readouterr()
    assert main(["gen-data", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith("error: dataset: signal_strength")
    assert not (tmp_path / "o").exists()


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    code = main(["gen-data", "--config", str(path), "--seed", "3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, unknown", [
    ({"modle": {"embed_dim": 8}, "train": {"max_epochs": 1}}, ["modle"]),
    ({"n_labeled": 30}, ["n_labeled"]),  # a dataset section must be nested
], ids=["misspelled", "flat"])
@pytest.mark.parametrize("command", ["gen-data", "train", "ssl"])
def test_unknown_config_keys_are_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                         command, cfg, unknown):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config file was checked")

    for name in ("generate_synthetic", "load"):
        monkeypatch.setattr(cli, name, no_work)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = [] if command == "gen-data" else ["--data", str(tmp_path)]
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([command, *args, "--config", str(path), "--seed", "1", "--out", str(out)]) == 1
    assert error_lines(capsys.readouterr().err) == [f"error: config file: unknown keys {unknown}"]
    assert not out.exists()


def test_gen_data_reads_only_the_dataset_section(workdir, tmp_path):
    # run.json holds only model and train: the dataset is the default one
    assert main(["gen-data", "--config", str(workdir / "run.json"), "--seed", "7",
                 "--out", str(tmp_path / "from_run")]) == 0
    assert main(["gen-data", "--seed", "7", "--out", str(tmp_path / "default")]) == 0
    assert read_bytes_map(tmp_path / "from_run") == read_bytes_map(tmp_path / "default")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_commands_that_read_no_config_refuse_the_flag(workdir, capsys, command):
    out = workdir / "o"
    capsys.readouterr()
    code = main([command, "--config", str(workdir / "run.json"), "--data", str(workdir / "data"),
                 "--checkpoint", str(workdir), "--seed", "1", "--out", str(out)])
    assert code == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert "--config" in line
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / ssl


def test_train_writes_artifacts(workdir):
    out = workdir / "trained"
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3", "--out", str(out)])
    assert code == 0
    model = load_model(out / "checkpoint")
    assert model.config.use_doppler is True
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_balanced_accuracy"
    assert len(history) >= 2
    assert json.loads((out / "config_used.json").read_text())["train"]["seed"] == 3


def test_train_flag_overrides(workdir):
    out = workdir / "trained_flags"
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3", "--out", str(out),
                 "--lr", "5e-5", "--weight-decay", "1e-5",
                 "--lambda", "0.5", "--tau", "0.05"])
    assert code == 0
    echoed = json.loads((out / "config_used.json").read_text())
    assert echoed["train"]["learning_rate"] == 5e-5
    assert echoed["train"]["weight_decay"] == 1e-5
    assert echoed["model"]["lambda_sa"] == 0.5
    assert echoed["model"]["tau"] == 0.05


def test_train_ablate_doppler(workdir):
    out = workdir / "nodop"
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3", "--out", str(out),
                 "--ablate-doppler"])
    assert code == 0
    model = load_model(out / "checkpoint")
    assert model.config.use_doppler is False


def test_train_missing_dataset(workdir):
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "nothere"), "--seed", "3",
                 "--out", str(workdir / "x")])
    assert code == 2  # data/format error


def test_ssl_with_unlabeled_writes_rounds(workdir):
    out = workdir / "ssl"
    code = main(["ssl", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3", "--out", str(out)])
    assert code == 0
    rounds = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    assert rounds[0]["round"] == 1
    assert {"round", "fraction", "selected_count", "val_balanced_accuracy",
            "pseudo_label_accuracy", "init_seed", "init_weights_sha256"} <= set(rounds[0])
    load_model(out / "checkpoint")


def test_ssl_without_unlabeled_matches_train(workdir, tmp_path, caplog):
    # a dataset with zero unlabeled bags degrades ssl to plain train, with one warning
    cfg = tmp_path / "nounlab.json"
    cfg.write_text(json.dumps({"dataset": dict(TINY_DATASET, n_unlabeled=0)}))
    assert main(["gen-data", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "data0")]) == 0
    t_out, s_out = tmp_path / "t", tmp_path / "s"
    args = ["--config", str(workdir / "run.json"), "--data", str(tmp_path / "data0"),
            "--seed", "3"]
    assert main(["train", *args, "--out", str(t_out)]) == 0
    caplog.clear()
    assert main(["ssl", *args, "--out", str(s_out)]) == 0
    assert [r.message for r in caplog.records if "unlabeled" in r.message] == [
        "no unlabeled bags: degrading to supervised-only training"]
    t_model = load_model(t_out / "checkpoint")
    s_model = load_model(s_out / "checkpoint")
    assert params_digest(t_model.params) == params_digest(s_model.params)


def test_ssl_round_1_is_train(workdir, monkeypatch):
    # round 1 of the curriculum is the no-SSL arm: the model ``train`` writes
    args = ["--config", str(workdir / "run.json"), "--data", str(workdir / "data"),
            "--seed", "3"]
    assert main(["train", *args, "--out", str(workdir / "t")]) == 0
    round_models = []
    train = training.train_supervised

    def recording(*train_args):
        model, history = train(*train_args)
        round_models.append(model)
        return model, history

    monkeypatch.setattr(training, "train_supervised", recording)
    assert main(["ssl", *args, "--out", str(workdir / "s")]) == 0
    assert len(round_models) > 1  # the dataset has unlabeled bags
    checkpoint = load_model(workdir / "t" / "checkpoint")
    assert params_digest(round_models[0].params) == params_digest(checkpoint.params)


@pytest.fixture()
def degenerate_data(workdir):
    """The tiny dataset with its first train bag doppler-empty and the first bag of
    each other split cine-empty: (its directory, {split: that bag's id})."""
    dataset = load(workdir / "data")
    stripped = {}
    for split in ("train", "val", "test", "unlabeled"):
        bag = iterate_split(dataset, split)[0]
        i = [b.id for b in dataset.bags].index(bag.id)
        dataset.bags[i] = (Bag(bag.id, bag.cine_instances, [], bag.label) if split == "train"
                           else Bag(bag.id, [], bag.doppler_instances, bag.label))
        stripped[split] = bag.id
    save(dataset, workdir / "degenerate", load_hidden_truth(workdir / "data"))
    return workdir / "degenerate", stripped


@pytest.mark.parametrize("ablate", [False, True], ids=["fallback", "skip"])
def test_each_degenerate_bag_is_logged_once_per_command(workdir, degenerate_data, tmp_path,
                                                        caplog, ablate):
    # ssl validates every epoch and pseudo-labels every round, yet reports each
    # degenerate bag of the splits it read once, as do train, predict and eval
    data, stripped = degenerate_data
    flags = ["--ablate-doppler"] if ablate else []

    def expected(*splits):
        lines = []
        for split in splits:
            bag_id = stripped[split]
            if split == "train":  # doppler-empty: a fallback only while doppler is on
                if not ablate:
                    lines.append(("INFO", f"bag {bag_id}: doppler empty, falling back to cine only"))
            elif ablate:  # cine-empty with doppler off: no enabled modality can run it
                lines.append(("WARNING", f"skipping bag: bag {bag_id!r}: "
                                         "no instances in any enabled modality"))
            else:
                lines.append(("INFO", f"bag {bag_id}: cine empty, falling back to doppler only"))
        return lines

    checkpoint = str(tmp_path / "train" / "checkpoint")
    runs = {
        "train": (["train", "--config", str(workdir / "run.json"), "--data", str(data), *flags],
                  ("train", "val")),
        "ssl": (["ssl", "--config", str(workdir / "run.json"), "--data", str(data), *flags],
                ("train", "val", "unlabeled")),
        "predict": (["predict", "--checkpoint", checkpoint, "--data", str(data)], ("test",)),
        "eval": (["eval", "--checkpoint", checkpoint, "--data", str(data), "--n-boot", "50"],
                 ("test",)),
    }
    caplog.set_level(logging.INFO)
    for command, (argv, splits) in runs.items():
        caplog.clear()
        assert main([*argv, "--seed", "7", "--out", str(tmp_path / command)]) == 0, command
        logged = [(r.levelname, r.getMessage()) for r in caplog.records
                  if r.name == "milfusion.model"]
        assert logged == expected(*splits), command


def test_a_model_too_large_to_allocate_is_one_error_line(workdir, capsys):
    # the first weight matrix needs 512 PiB, which no process can map
    path = workdir / "huge.json"
    path.write_text(json.dumps({"model": {"hidden_sizes": [2**50]}}))
    capsys.readouterr()
    code = main(["train", "--config", str(path), "--data", str(workdir / "data"),
                 "--seed", "3", "--out", str(workdir / "o")])
    assert code == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith("error: out of memory: ")
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("command", [["train"], ["ssl"]])
def test_empty_val_split_is_refused_before_training(workdir, capsys, command):
    manifest_path = workdir / "data" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for rec in manifest["bags"]:
        if rec["split"] == "val":
            rec["split"] = "test"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main([*command, "--config", str(workdir / "run.json"), "--data",
                 str(workdir / "data"), "--seed", "3", "--out", str(workdir / "noval")])
    assert code == 1
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert not (workdir / "noval").exists()


@pytest.mark.parametrize("command", ["train", "ssl"])
def test_val_split_missing_a_class_is_refused_before_training(tmp_path, capsys, caplog,
                                                              monkeypatch, command):
    cfg = tmp_path / "one_class.json"
    cfg.write_text(json.dumps({"dataset": {"class_priors": [1, 0, 0], "n_unlabeled": 0}}))
    assert main(["gen-data", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "data")]) == 0

    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "prepared_step", no_step)
    capsys.readouterr()
    code = main([command, "--data", str(tmp_path / "data"), "--seed", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert "val split" in line and "class 1" in line
    assert not (tmp_path / "out").exists()
    # ssl warns of the supervised-only schedule only once round 1 has trained
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_unlabeled_bag_without_relevance_is_refused_before_any_model(workdir, capsys,
                                                                     monkeypatch):
    # the last unlabeled bag is the one a round would select last, if ever
    dataset = load(workdir / "data")
    bad = iterate_split(dataset, "unlabeled")[-1]
    relevance = bad.relevance.copy()
    relevance[0] = np.nan
    dataset.bags[[b.id for b in dataset.bags].index(bad.id)] = Bag.from_blocks(
        bad.id, None, bad.blocks["cine"], bad.blocks["doppler"], relevance)
    save(dataset, workdir / "bad", load_hidden_truth(workdir / "data"))
    models = []
    init_model = training.init_model

    def recording(*args):
        models.append(init_model(*args))
        return models[-1]

    monkeypatch.setattr(training, "init_model", recording)
    capsys.readouterr()
    code = main(["ssl", "--config", str(workdir / "run.json"), "--data", str(workdir / "bad"),
                 "--seed", "7", "--out", str(workdir / "out")])
    assert code == 2
    assert error_lines(capsys.readouterr().err) == [
        f"error: bag {bad.id!r}: cine instance lacks a relevance score "
        "(required when lambda_sa > 0)"]
    assert models == []


def write_nan_into_train_000(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    start, end = bag_value_ranges(manifest)["train_000"]
    write_feature_values(data_dir, slice(start, end), np.nan)


def test_nan_features_exit_numeric(workdir, capsys):
    # corrupt one bag's features; the loader refuses them before training (a
    # non-finite loss inside training still exits 3, see tests/test_step.py)
    write_nan_into_train_000(workdir / "data")
    capsys.readouterr()
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3",
                 "--out", str(workdir / "nan")])
    assert code == 2
    (line,) = error_lines(capsys.readouterr().err)
    assert "'train_000'" in line and "non-finite" in line


# ---------------------------------------------------------------------------
# predict / eval


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_non_finite_features_are_refused_by_the_loader(workdir, trained, capsys, command):
    manifest = json.loads((workdir / "data" / "manifest.json").read_text())
    start, _ = bag_value_ranges(manifest)["test_000"]
    write_feature_values(workdir / "data", start + 1, np.inf)
    capsys.readouterr()
    code = main([command, "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--seed", "1", "--out", str(workdir / "out")])
    assert code == 2
    (line,) = error_lines(capsys.readouterr().err)
    assert "'features.bin'" in line and "'test_000'" in line  # the file and the bag
    assert "non-finite" in line


def test_predict_and_eval_read_only_the_split_they_score(workdir, trained):
    # NaN in a train bag: predict and eval of the test split never read its values
    outputs = {}
    for dataset in ("clean", "nan"):
        if dataset == "nan":
            write_nan_into_train_000(workdir / "data")
        out = workdir / dataset
        for command, extra in (("predict", []), ("eval", ["--n-boot", "30"])):
            assert main([command, "--checkpoint", str(trained), "--data", str(workdir / "data"),
                         "--seed", "1", *extra, "--out", str(out / command)]) == 0
        outputs[dataset] = ((out / "predict" / "predictions.csv").read_bytes(),
                            (out / "eval" / "report.json").read_bytes())
    assert outputs["nan"] == outputs["clean"]


def test_dataset_passed_as_checkpoint_is_named_a_dataset(workdir, capsys):
    capsys.readouterr()
    code = main(["predict", "--checkpoint", str(workdir / "data"), "--data",
                 str(workdir / "data"), "--seed", "1", "--out", str(workdir / "p")])
    assert code == 2
    (line,) = error_lines(capsys.readouterr().err)
    assert line.endswith("holds a dataset, not a checkpoint")
    assert not (workdir / "p").exists()


def test_corrupt_checkpoint_tensor_exits_2(workdir, trained, capsys):
    victim = sorted((trained / "tensors").glob("*.bin"))[0]
    raw = bytearray(victim.read_bytes())
    raw[3] ^= 0x01
    victim.write_bytes(bytes(raw))
    capsys.readouterr()
    code = main(["predict", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--seed", "1", "--out", str(workdir / "p")])
    assert code == 2
    (line,) = error_lines(capsys.readouterr().err)
    assert "params_digest" in line


@pytest.fixture()
def trained(workdir):
    out = workdir / "trained"
    assert main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3",
                 "--out", str(out)]) == 0
    return out / "checkpoint"


def test_predict_writes_csv(workdir, trained):
    out = workdir / "preds"
    code = main(["predict", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "test", "--seed", "1", "--out", str(out)])
    assert code == 0
    preds = load_predictions(out / "predictions.csv")
    assert len(preds) == TINY_DATASET["n_test"]


def test_eval_report_schema(workdir, trained):
    out = workdir / "eval"
    code = main(["eval", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "test", "--seed", "1", "--n-boot", "30",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("no_vs_some_auroc", "no_vs_some_aupr", "early_vs_sig_auroc",
                "early_vs_sig_aupr", "sig_vs_nosig_auroc", "sig_vs_nosig_aupr"):
        assert {"point", "lo", "hi"} == set(report[key])
    assert "balanced_accuracy" in report
    mat = np.array(report["confusion_matrix"])
    assert mat.shape == (3, 3) and mat.sum() == TINY_DATASET["n_test"]
    assert (out / "confusion_matrix.csv").is_file()


def test_eval_from_predictions_matches_in_process(workdir, trained):
    pred_out = workdir / "preds"
    assert main(["predict", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "test", "--seed", "1", "--out", str(pred_out)]) == 0
    e1, e2 = workdir / "eval_csv", workdir / "eval_live"
    assert main(["eval", "--predictions", str(pred_out / "predictions.csv"),
                 "--seed", "5", "--n-boot", "25", "--out", str(e1)]) == 0
    assert main(["eval", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "test", "--seed", "5", "--n-boot", "25",
                 "--out", str(e2)]) == 0
    r1 = json.loads((e1 / "report.json").read_text())
    r2 = json.loads((e2 / "report.json").read_text())
    assert r1 == r2  # probabilities round-trip the CSV bitwise


@pytest.mark.parametrize("source", ["checkpoint", "predictions"])
def test_eval_bytes_are_deterministic(workdir, trained, source):
    if source == "checkpoint":
        args = ["--checkpoint", str(trained), "--data", str(workdir / "data")]
    else:
        assert main(["predict", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                     "--seed", "1", "--out", str(workdir / "preds")]) == 0
        args = ["--predictions", str(workdir / "preds" / "predictions.csv")]
    outs = [workdir / "e1", workdir / "e2"]
    for out in outs:  # any integer seeds the bootstrap, a negative one too
        assert main(["eval", *args, "--seed", "-1", "--n-boot", "40", "--out", str(out)]) == 0
    for name in ("report.json", "confusion_matrix.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_and_predict_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the default model dims, whose products are wide enough for OpenBLAS to
    # split across threads; without threadpoolctl the test cannot show that a
    # second thread ran
    (tmp_path / "dataset.json").write_text(json.dumps({"dataset": {
        "n_labeled": 30, "n_val": 12, "n_test": 60, "n_unlabeled": 0}}))
    (tmp_path / "run.json").write_text(json.dumps({"train": {"max_epochs": 1}}))
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", str(tmp_path / "dataset.json"), "--seed", "7",
                 "--out", data]) == 0
    outcomes = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        for args in (["train", "--config", str(tmp_path / "run.json"), "--out", str(out)],
                     ["predict", "--checkpoint", str(out / "checkpoint"), "--split", "test",
                      "--out", str(out / "preds")]):
            subprocess.run([sys.executable, "-m", "milfusion.cli", *args, "--data", data,
                            "--seed", "7"], env=env, check=True, capture_output=True)
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        outcomes.append((manifest["params_digest"],
                         (out / "preds" / "predictions.csv").read_bytes()))
    assert outcomes[0] == outcomes[1]


def test_eval_missing_checkpoint(workdir):
    code = main(["eval", "--checkpoint", str(workdir / "ghost"),
                 "--data", str(workdir / "data"), "--seed", "1",
                 "--out", str(workdir / "e")])
    assert code == 2


def test_eval_float_label_exits_with_format_error(workdir, trained, capsys):
    manifest_path = workdir / "data" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    rec = next(b for b in manifest["bags"] if b["split"] == "test" and b["label"] == 1)
    rec["label"] = 1.0
    manifest_path.write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--seed", "1", "--n-boot", "5", "--out", str(workdir / "e")])
    assert code == 2
    assert rec["id"] in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["b1,1,nan,nan,nan", "b1,1,-0.5,0.5,1.0"])
def test_eval_refuses_bad_probabilities(tmp_path, capsys, bad_row):
    path = tmp_path / "predictions.csv"
    path.write_text("bag_id,true_label,p0,p1,p2\nb0,0,0.8,0.1,0.1\n"
                    f"{bad_row}\nb2,2,0.1,0.1,0.8\n")
    code = main(["eval", "--predictions", str(path), "--seed", "1", "--n-boot", "5",
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert "'b1'" in capsys.readouterr().err
    assert not (tmp_path / "e" / "report.json").exists()


def test_eval_refuses_an_n_boot_it_cannot_hold(tmp_path, capsys):
    path = tmp_path / "predictions.csv"
    path.write_text("bag_id,true_label,p0,p1,p2\nb0,0,0.8,0.1,0.1\n"
                    "b1,1,0.1,0.8,0.1\nb2,2,0.1,0.1,0.8\n")
    code = main(["eval", "--predictions", str(path), "--seed", "1",
                 "--n-boot", str(10**17), "--out", str(tmp_path / "e")])
    assert code == 1
    (line,) = error_lines(capsys.readouterr().err)
    assert line.startswith("error: out of memory: ")
    assert not (tmp_path / "e" / "report.json").exists()


def test_eval_refuses_a_prediction_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "predictions.csv"
    path.write_bytes(b"bag_id,true_label,p0,p1,p2\nb\xff0,0,0.8,0.1,0.1\n")
    code = main(["eval", "--predictions", str(path), "--seed", "1", "--n-boot", "5",
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert error_lines(capsys.readouterr().err)[0].startswith(f"error: {path}: not UTF-8 text")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("flag, value", [("--checkpoint", "ck"), ("--data", "d"),
                                         ("--split", "val")])
def test_eval_predictions_refuses_a_flag_it_would_ignore(tmp_path, capsys, monkeypatch, flag,
                                                         value):
    path = tmp_path / "predictions.csv"
    path.write_text("bag_id,true_label,p0,p1,p2\nb0,0,0.8,0.1,0.1\n"
                    "b1,1,0.1,0.8,0.1\nb2,2,0.1,0.1,0.8\n")
    read = []
    monkeypatch.setattr(cli, "load_predictions",
                        lambda *args: read.append(args) or load_predictions(*args))
    capsys.readouterr()
    code = main(["eval", "--predictions", str(path), flag, value, "--seed", "1",
                 "--n-boot", "5", "--out", str(tmp_path / "e")])
    assert code == 1
    assert error_lines(capsys.readouterr().err) == [
        f"error: {flag} cannot be used with --predictions, which scores the rows of its file"]
    assert read == [] and not (tmp_path / "e").exists()


@pytest.mark.parametrize("key_path, value", [
    (("config", "cine_encoder", "input_dim"), "abc"),
    (("config", "cine_encoder"), [1]),
    (("config", "use_doppler"), "false"),
    (("format_version",), 2),  # the format that recorded the encoders' activation
])
def test_bad_checkpoint_manifest_exits_2(workdir, trained, capsys, key_path, value):
    edit_json(trained / "manifest.json", key_path, value)
    for command in ("predict", "eval"):
        capsys.readouterr()
        code = main([command, "--checkpoint", str(trained), "--data", str(workdir / "data"),
                     "--seed", "1", "--out", str(workdir / "p")])
        assert code == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert key_path[-1] in line
        if key_path == ("format_version",):
            assert f"format_version {value};" in line


@pytest.mark.parametrize("slot, modality", [("cine_encoder", "doppler"),
                                            ("doppler_encoder", "cine")])
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_checkpoint_encoder_in_the_wrong_slot_exits_2(workdir, trained, capsys, command, slot,
                                                      modality):
    edit_json(trained / "manifest.json", ("config", slot, "modality"), modality)
    capsys.readouterr()
    code = main([command, "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--seed", "1", "--out", str(workdir / "p")])
    assert code == 2
    (line,) = error_lines(capsys.readouterr().err)
    assert f"{slot} has modality {modality!r}" in line


@pytest.mark.parametrize("key_path, value", [
    (("bags", 0, "cine_shapes", 0), ["a"]),
    (("bags", 0, "cine_shapes", 0), 5),
    (("bags", 0, "cine_shapes"), 5),
    (("bags",), 5),
    (("bags", 0), [1]),
    (("bags", 0, "cine_shapes", 0, 1), "abc"),  # a run's count
    (("bags", 0, "cine_shapes", 0, 1), 1.5),
    (("bags", 0, "cine_shapes", 0, 1), 0),
    (("bags", 0, "cine_shapes", 0, 0), 4),  # a run's shape
    (("bags", 0, "relevance"), [0.5]),  # relevance lives in features.bin
])
def test_bad_dataset_manifest_exits_2(workdir, capsys, key_path, value):
    edit_json(workdir / "data" / "manifest.json", key_path, value)
    lines = []
    # predict and eval check the whole dataset before they look at --split
    for command in (["train", "--config", str(workdir / "run.json")],
                    ["predict", "--checkpoint", str(workdir / "none"), "--split", "nosuch"],
                    ["eval", "--checkpoint", str(workdir / "none"), "--split", "nosuch"]):
        capsys.readouterr()
        code = main([*command, "--data", str(workdir / "data"), "--seed", "3",
                     "--out", str(workdir / "t")])
        assert code == 2
        err = capsys.readouterr().err
        lines += error_lines(err)
        assert "'train_" in err or "bags" in err  # names the bag, or the bag list
    assert len(lines) == 3 and len(set(lines)) == 1


def test_eval_unknown_split(workdir, trained):
    code = main(["eval", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "dev", "--seed", "1", "--out", str(workdir / "e2")])
    assert code == 1
