"""Output checks for the benchmark's timed commands.

Each check reads the artifacts one CLI command wrote, raises ``CheckError``
when they are wrong, and returns the result fields the benchmark records next
to its timings (digests, per-round accuracies). The fields are recorded, not
gated: they make a speed-up that changes results visible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from pathlib import Path

from milfusion.errors import MilError
from milfusion.metrics import CSV_HEADER, N_CLASSES
from milfusion.model import load_model, params_digest
from milfusion.training import ROUND_FRACTIONS

REPORT_BLOCKS = (
    "balanced_accuracy",
    "no_vs_some_auroc", "no_vs_some_aupr",
    "early_vs_sig_auroc", "early_vs_sig_aupr",
    "sig_vs_nosig_auroc", "sig_vs_nosig_aupr",
)

# Balanced accuracy of a 3-class guesser is 1/3; a trained model at or below
# this floor has lost the planted signal (for example, a dataset generated
# with another seed than the checkpoint's).
CHANCE_FLOOR = 0.5

PROB_SUM_TOLERANCE = 1e-9


class CheckError(Exception):
    """An artifact of a timed command is missing or wrong."""


class WarningCapture(logging.Handler):
    """Keeps the warnings a command logs; ``ssl`` logs its early abort as one."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def early_abort_logged(self):
        return any(m.startswith("early abort") for m in self.messages)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckError(f"{what} is not a finite number: {value!r}")
    return float(value)


def check_rounds(path, early_abort_logged):
    """``rounds.jsonl`` of ``ssl``: one row per curriculum round, in order.

    Fewer than six rows are accepted only when the run logged its early abort.
    Returns the per-round validation accuracy and selected-bag count.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    try:
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not JSON lines: {exc}") from exc
    full = len(ROUND_FRACTIONS)
    if len(rows) != full and not (early_abort_logged and 1 <= len(rows) < full):
        raise CheckError(f"{path.name} has {len(rows)} rounds, expected {full} "
                         f"(early abort logged: {early_abort_logged})")
    fields = []
    for number, (row, fraction) in enumerate(zip(rows, ROUND_FRACTIONS), start=1):
        if not isinstance(row, dict) or row.get("round") != number:
            raise CheckError(f"{path.name} row {number} is not round {number}: {row!r}")
        if row.get("fraction") != fraction:
            raise CheckError(f"round {number}: fraction {row.get('fraction')!r} != {fraction}")
        bacc = _finite_number(row.get("val_balanced_accuracy"),
                              f"round {number} val_balanced_accuracy")
        if not 0.0 <= bacc <= 1.0:
            raise CheckError(f"round {number}: val_balanced_accuracy {bacc} outside [0, 1]")
        selected = row.get("selected_count")
        if isinstance(selected, bool) or not isinstance(selected, int) or selected < 0:
            raise CheckError(f"round {number}: bad selected_count {selected!r}")
        fields.append({"val_balanced_accuracy": bacc, "selected_count": selected})
    return fields


def check_checkpoint(path):
    """A checkpoint directory that ``load_model`` reads; returns (model, digest)."""
    try:
        model = load_model(Path(path))
    except MilError as exc:
        raise CheckError(f"checkpoint does not load: {exc}") from exc
    return model, params_digest(model.params)


def check_predictions(path, bag_ids):
    """``predictions.csv``: one row per bag of the split, probabilities summing to 1.

    Returns the file's sha256.
    """
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != CSV_HEADER:
        raise CheckError(f"{path.name}: bad header {rows[0] if rows else None!r}")
    seen = []
    for line in rows[1:]:
        if len(line) != len(CSV_HEADER):
            raise CheckError(f"{path.name}: malformed row {line!r}")
        try:
            probs = [float(v) for v in line[2:]]
        except ValueError as exc:
            raise CheckError(f"{path.name}: malformed row {line!r}") from exc
        if not all(math.isfinite(p) and p >= 0.0 for p in probs):
            raise CheckError(f"bag {line[0]}: probabilities {probs} are not all finite and >= 0")
        if abs(math.fsum(probs) - 1.0) > PROB_SUM_TOLERANCE:
            raise CheckError(f"bag {line[0]}: probabilities sum to {math.fsum(probs)!r}")
        seen.append(line[0])
    if len(seen) != len(bag_ids) or set(seen) != set(bag_ids):
        raise CheckError(f"{path.name}: {len(seen)} rows for {len(set(seen))} ids, "
                         f"but the split has {len(bag_ids)} bags")
    return sha256_file(path)


def check_report(path, n):
    """``report.json`` of ``eval``: seven {point, lo, hi} blocks with lo <= point <= hi
    and a 3x3 confusion matrix summing to ``n``.

    Returns (balanced accuracy point, the file's sha256).
    """
    path = Path(path)
    if not path.is_file():
        raise CheckError(f"missing {path.name}")
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise CheckError(f"{path.name} does not hold an object")
    for name in REPORT_BLOCKS:
        block = report.get(name)
        if not isinstance(block, dict):
            raise CheckError(f"{path.name} lacks the {name} block")
        point, lo, hi = (_finite_number(block.get(k), f"{name}.{k}") for k in ("point", "lo", "hi"))
        if not lo <= point <= hi:
            raise CheckError(f"{name}: not lo <= point <= hi ({lo}, {point}, {hi})")
    matrix = report.get("confusion_matrix")
    if (not isinstance(matrix, list) or len(matrix) != N_CLASSES
            or any(not isinstance(r, list) or len(r) != N_CLASSES for r in matrix)
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                   for r in matrix for v in r)):
        raise CheckError(f"{path.name}: confusion_matrix is not a 3x3 count matrix: {matrix!r}")
    total = sum(sum(r) for r in matrix)
    if total != n:
        raise CheckError(f"{path.name}: confusion matrix sums to {total}, expected {n}")
    return report["balanced_accuracy"]["point"], sha256_file(path)


def check_accuracy(value):
    """A scored split must be above chance level."""
    if not value > CHANCE_FLOOR:
        raise CheckError(f"balanced accuracy {value} is at chance level (floor {CHANCE_FLOOR})")
