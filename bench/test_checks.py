"""The benchmark's output checks accept the artifacts of a small real run and
reject each kind of broken artifact."""

import csv
import json
import logging
import shutil

import pytest

import checks
from milfusion.cli import main

TINY_DATASET = {"dataset": {
    "n_labeled": 15, "n_val": 12, "n_test": 12, "n_unlabeled": 8,
    "cine_shape": [2, 3, 3], "doppler_shape": [3, 4],
    "cine_bag_size": [2, 4], "doppler_bag_size": [1, 3], "signal_strength": 4.0,
}}
TINY_RUN = {
    "model": {"hidden_sizes": [8], "embed_dim": 4, "attention_dim": 4},
    "train": {"max_epochs": 2, "patience": 2},
}
N_TEST = TINY_DATASET["dataset"]["n_test"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Artifacts of a small real pipeline, and whether ssl logged its early abort."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "dataset.json").write_text(json.dumps(TINY_DATASET))
    (root / "run.json").write_text(json.dumps(TINY_RUN))
    data = str(root / "data")
    warnings = checks.WarningCapture()
    logging.getLogger("milfusion").addHandler(warnings)
    for argv in (
        ["gen-data", "--config", str(root / "dataset.json"), "--out", data],
        ["ssl", "--config", str(root / "run.json"), "--data", data, "--out", str(root / "ssl")],
        ["predict", "--checkpoint", str(root / "ssl" / "checkpoint"), "--data", data,
         "--out", str(root / "predict")],
        ["eval", "--predictions", str(root / "predict" / "predictions.csv"),
         "--n-boot", "20", "--out", str(root / "eval")],
    ):
        assert main(argv + ["--seed", "7"]) == 0
    logging.getLogger("milfusion").removeHandler(warnings)
    return root, warnings.early_abort_logged()


@pytest.fixture()
def run(pipeline, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(pipeline[0], copy)
    return copy


@pytest.fixture()
def aborted(pipeline):
    return pipeline[1]


def ids_of_test_split(run):
    manifest = json.loads((run / "data" / "manifest.json").read_text())
    return [b["id"] for b in manifest["bags"] if b["split"] == "test"]


def test_checks_accept_a_real_run(run, aborted):
    rounds = checks.check_rounds(run / "ssl" / "rounds.jsonl", aborted)
    assert len(rounds) == 6 or aborted
    checks.check_checkpoint(run / "ssl" / "checkpoint")
    checks.check_predictions(run / "predict" / "predictions.csv", ids_of_test_split(run))
    bacc, _ = checks.check_report(run / "eval" / "report.json", N_TEST)
    checks.check_accuracy(bacc)


def rewrite_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_rounds_missing_a_round_fail_unless_early_abort_logged(run):
    path = run / "ssl" / "rounds.jsonl"
    rewrite_lines(path, lambda lines: lines[:-1])
    with pytest.raises(checks.CheckError, match="rounds, expected 6"):
        checks.check_rounds(path, early_abort_logged=False)
    assert checks.check_rounds(path, early_abort_logged=True)


def test_rounds_out_of_order_fail(run, aborted):
    path = run / "ssl" / "rounds.jsonl"
    rewrite_lines(path, lambda lines: [lines[1], lines[0], *lines[2:]])
    with pytest.raises(checks.CheckError, match="not round 1"):
        checks.check_rounds(path, aborted)


def test_checkpoint_missing_tensor_fails(run):
    next((run / "ssl" / "checkpoint" / "tensors").glob("*.bin")).unlink()
    with pytest.raises(checks.CheckError, match="does not load"):
        checks.check_checkpoint(run / "ssl" / "checkpoint")


def test_predictions_missing_row_fails(run):
    path = run / "predict" / "predictions.csv"
    rewrite_lines(path, lambda lines: lines[:-1])
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_predictions(path, ids_of_test_split(run))


def test_predictions_not_summing_to_one_fail(run):
    path = run / "predict" / "predictions.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    rows[1][2] = repr(float(rows[1][2]) + 1e-6)
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    with pytest.raises(checks.CheckError, match="sum to"):
        checks.check_predictions(path, ids_of_test_split(run))


@pytest.mark.parametrize("block", checks.REPORT_BLOCKS)
def test_report_block_missing_fails(run, block):
    path = run / "eval" / "report.json"
    report = json.loads(path.read_text())
    del report[block]
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match=f"lacks the {block} block"):
        checks.check_report(path, N_TEST)


def test_report_interval_not_around_point_fails(run):
    path = run / "eval" / "report.json"
    report = json.loads(path.read_text())
    block = report["no_vs_some_auroc"]
    block["lo"] = block["point"] + 0.01
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="lo <= point <= hi"):
        checks.check_report(path, N_TEST)


def test_report_confusion_matrix_not_summing_to_n_fails(run):
    path = run / "eval" / "report.json"
    report = json.loads(path.read_text())
    report["confusion_matrix"][0][0] += 1
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="sums to"):
        checks.check_report(path, N_TEST)


def test_accuracy_at_chance_fails():
    with pytest.raises(checks.CheckError, match="chance"):
        checks.check_accuracy(1 / 3)
