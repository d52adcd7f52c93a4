import copy
import json

import numpy as np
import pytest

from milfusion.cli import main
from milfusion.data import load
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


@pytest.mark.parametrize("command", ["gen-data", "train", "ssl"])
def test_negative_seed_is_a_usage_error(workdir, capsys, command):
    args = [] if command == "gen-data" else ["--data", str(workdir / "data"),
                                             "--config", str(workdir / "run.json")]
    capsys.readouterr()
    code = main([command, *args, "--seed", "-1", "--out", str(workdir / "neg")])
    assert code == 1
    assert len(error_lines(capsys.readouterr().err)) == 1
    assert not (workdir / "neg").exists()


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
                     "embed_dim": 4, "activation": "tanh", "attention_dim": 4,
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
    assert len(error_lines(capsys.readouterr().err)) == 1


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


def test_ssl_without_unlabeled_matches_train(workdir, tmp_path):
    # a dataset with zero unlabeled bags degrades ssl to plain train
    cfg = tmp_path / "nounlab.json"
    cfg.write_text(json.dumps({"dataset": dict(TINY_DATASET, n_unlabeled=0)}))
    assert main(["gen-data", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "data0")]) == 0
    t_out, s_out = tmp_path / "t", tmp_path / "s"
    args = ["--config", str(workdir / "run.json"), "--data", str(tmp_path / "data0"),
            "--seed", "3"]
    assert main(["train", *args, "--out", str(t_out)]) == 0
    assert main(["ssl", *args, "--out", str(s_out)]) == 0
    t_model = load_model(t_out / "checkpoint")
    s_model = load_model(s_out / "checkpoint")
    assert params_digest(t_model.params) == params_digest(s_model.params)


def test_ssl_ablate_flag_skips_curriculum(workdir):
    out = workdir / "ssl_ablated"
    code = main(["ssl", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3", "--out", str(out),
                 "--ablate-ssl"])
    assert code == 0
    rounds = (out / "rounds.jsonl").read_text().splitlines()
    assert len(rounds) == 1


@pytest.mark.parametrize("command", [["train"], ["ssl"], ["ssl", "--ablate-ssl"]])
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


def test_nan_features_exit_numeric(workdir):
    # corrupt one bag's features; the loader refuses them before training (a
    # non-finite loss inside training still exits 3, see tests/test_step.py)
    manifest = json.loads((workdir / "data" / "manifest.json").read_text())
    start, end = bag_value_ranges(manifest)["train_000"]
    write_feature_values(workdir / "data", slice(start, end), np.nan)
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--data", str(workdir / "data"), "--seed", "3",
                 "--out", str(workdir / "nan")])
    assert code == 2


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


@pytest.mark.parametrize("key_path, value", [
    (("config", "cine_encoder", "input_dim"), "abc"),
    (("config", "cine_encoder"), [1]),
    (("config", "use_doppler"), "false"),
])
def test_bad_checkpoint_manifest_exits_2(workdir, trained, capsys, key_path, value):
    edit_json(trained / "manifest.json", key_path, value)
    capsys.readouterr()
    code = main(["predict", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--seed", "1", "--out", str(workdir / "p")])
    assert code == 2
    assert len(error_lines(capsys.readouterr().err)) == 1


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
    capsys.readouterr()
    code = main(["train", "--config", str(workdir / "run.json"), "--data",
                 str(workdir / "data"), "--seed", "3", "--out", str(workdir / "t")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(error_lines(err)) == 1
    assert "'train_" in err or "bags" in err  # names the bag, or the bag list


def test_eval_unknown_split(workdir, trained):
    code = main(["eval", "--checkpoint", str(trained), "--data", str(workdir / "data"),
                 "--split", "dev", "--seed", "1", "--out", str(workdir / "e2")])
    assert code == 1
