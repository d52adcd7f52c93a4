"""Evaluation metrics: balanced accuracy, AUROC/AUPR screening tasks,
confusion matrix, and bootstrap percentile confidence intervals.

Conventions, fixed so an independent reimplementation can match bitwise:

  * probabilities must be finite and non-negative (and sum to 1 within
    1e-6); anything else is refused with FormatError, so NaN never enters as
    data;
  * predicted class = argmax of the probability row, ties -> lowest index;
  * balanced accuracy = (recall_0 + recall_1 + recall_2) / 3, in that order;
  * AUROC is the Mann-Whitney statistic: P(random positive outranks random
    negative), ties counting 1/2; computed via midranks;
  * AUPR is average precision: sum over distinct thresholds (descending) of
    (R_k - R_{k-1}) * P_k with R_k = TP_k / P computed as a float division
    before the subtraction;
  * bootstrap resampling draws row indices from SplitMix64: the i-th draw
    (i = 1, 2, ...) is mix64(seed + i * 0x9E3779B97F4A7C15) and the index is
    that 64-bit value modulo n; attempt k (k = 0, 1, ...) takes draws
    k*n + 1 .. k*n + n; the first n_boot attempts on which the metric is
    defined are kept, in stream order, and 101 undefined attempts in a row
    raise MetricError (a resample is redrawn at most 100 times);
  * interval bounds are the empirical 2.5th/97.5th percentiles with linear
    interpolation: pos = q * (n_boot - 1), v = v_lo + (v_hi - v_lo) * frac.

Screening tasks over 3-class probability rows (p0, p1, p2):

  * no_vs_some:   all rows; positive = label in {1, 2}; score = p1 + p2
  * early_vs_sig: rows with label in {1, 2}; positive = label 2;
                  score = p2 / (p1 + p2), and 0.5 where p1 + p2 == 0
  * sig_vs_nosig: all rows; positive = label 2; score = p2

Every metric is computed in weighted form: ``weights[a, i]`` is how many
times row i appears in resample a, and a metric maps a ``[A, n]`` count
matrix to ``[A]`` float64 values, NaN where it is undefined. The point
estimate is the same computation on one all-ones row. Counts, midrank sums
and the three recall divisions are exact, and the AUPR terms are added in
threshold order, so the weighted form equals the formulas above applied to
each resample's rows.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError, MetricError

N_CLASSES = 3
MAX_REDRAWS = 100  # undefined resamples redrawn in a row before giving up
# attempts x rows per bootstrap block; larger blocks raised eval's peak RSS
# without making it faster
BOOTSTRAP_BLOCK_ELEMENTS = 2 ** 14


@dataclass
class PredRow:
    bag_id: str
    true_label: int
    probs: np.ndarray  # [3]


class PredictionSet:
    """Rows of (bag_id, true_label, probability 3-vector); ids unique.

    ``labels`` [n] and ``probs`` [n, 3] hold the rows as arrays.
    """

    def __init__(self, rows):
        self.rows = list(rows)
        ids = set()
        for row in self.rows:
            if row.bag_id in ids:
                raise FormatError(f"duplicate bag id {row.bag_id!r} in predictions")
            ids.add(row.bag_id)
            row.probs = np.asarray(row.probs, dtype=np.float64).reshape(-1)
            if row.probs.size != N_CLASSES:
                raise FormatError(f"bag {row.bag_id!r}: needs 3 probabilities")
            if not (np.all(np.isfinite(row.probs)) and np.all(row.probs >= 0.0)):
                raise FormatError(f"bag {row.bag_id!r}: probabilities must be finite "
                                  f"and non-negative, got {row.probs.tolist()!r}")
            if abs(float(row.probs.sum()) - 1.0) > 1e-6:
                raise FormatError(
                    f"bag {row.bag_id!r}: probabilities sum to {row.probs.sum()!r}"
                )
            if row.true_label not in (0, 1, 2):
                raise FormatError(f"bag {row.bag_id!r}: bad label {row.true_label!r}")
        self.labels = np.array([row.true_label for row in self.rows], dtype=np.int64)
        self.probs = np.array([row.probs for row in self.rows],
                              dtype=np.float64).reshape(len(self.rows), N_CLASSES)

    def __len__(self):
        return len(self.rows)

    def subset(self, indices):
        """Resampled copy; duplicate rows get suffixed ids to keep ids unique."""
        rows = []
        for j, i in enumerate(indices):
            src = self.rows[i]
            rows.append(PredRow(f"{src.bag_id}#{j}", src.true_label, src.probs.copy()))
        return PredictionSet(rows)


def _ones(n):
    return np.ones((1, n), dtype=np.int64)


def _scalar(values, message):
    """The single value of a one-row weighted metric; NaN raises MetricError."""
    value = float(values[0])
    if value != value:
        raise MetricError(message)
    return value


def balanced_accuracy(preds, weights=None):
    """Mean of per-class recalls; every class must appear among true labels.

    With ``weights`` [A, n], one value per resample (NaN where a class is
    absent); without, a float for the rows themselves.
    """
    if weights is None:
        absent = np.flatnonzero(np.bincount(preds.labels, minlength=N_CLASSES) == 0)
        if absent.size:
            raise MetricError(f"class {absent[0]} absent from predictions")
        return float(balanced_accuracy(preds, _ones(len(preds)))[0])
    is_class = preds.labels[:, None] == np.arange(N_CLASSES)
    hit = (np.argmax(preds.probs, axis=1) == preds.labels)[:, None]
    counts = weights @ np.concatenate([is_class, is_class & hit], axis=1).astype(np.int64)
    seen, correct = counts[:, :N_CLASSES], counts[:, N_CLASSES:]
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = correct / seen  # 0/0 = NaN where a class is absent
    return (recall[:, 0] + recall[:, 1] + recall[:, 2]) / 3.0


class _Ranking:
    """Rows of one binary task grouped by tied score, in ascending order.

    ``columns`` are the rows' columns in the weight matrix, sorted by score;
    ``starts`` the first sorted position of each tie group.
    """

    def __init__(self, columns, scores, labels):
        if np.isnan(scores).any():
            raise ContractError("scores must not be NaN")
        if not np.isin(labels, (0, 1)).all():
            raise ContractError("labels must be 0 or 1")
        order = np.argsort(scores, kind="stable")
        ordered = scores[order]
        self.columns = columns[order]
        self.positive = labels[order]
        self.starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])

    @classmethod
    def of(cls, scores, labels):
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return cls(np.arange(scores.size), scores, labels)

    def group_counts(self, weights):
        """(positives, negatives), each [A, groups]: how often each tie group's
        positive and negative rows appear in each resample."""
        w = weights[:, self.columns]
        pos = np.add.reduceat(w * self.positive, self.starts, axis=1)
        neg = np.add.reduceat(w, self.starts, axis=1)
        neg -= pos
        return pos, neg


def _ranked_values(values_fn, ranking, weights):
    if ranking.columns.size == 0:
        return np.full(len(weights), np.nan)
    return values_fn(*ranking.group_counts(weights))


def _undefined(pos, neg):
    return (pos.sum(axis=1) == 0) | (neg.sum(axis=1) == 0)


def _auroc_values(pos, neg):
    """Mann-Whitney AUROC per resample from ascending tie-group counts."""
    n_pos = pos.sum(axis=1)
    n_neg = neg.sum(axis=1)
    # a group of c rows after b others has midrank (2 b + c + 1) / 2; the rank
    # sum is a half-integer, so its value does not depend on the order
    count = pos + neg
    before = np.cumsum(count, axis=1) - count
    rank_sum = (pos * (2 * before + count + 1)).sum(axis=1) / 2.0
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = u / (n_pos * n_neg)
    values[_undefined(pos, neg)] = np.nan
    return values


def _aupr_values(pos, neg):
    """Average precision per resample from ascending tie-group counts."""
    tp = np.cumsum(pos[:, ::-1], axis=1)  # descending thresholds
    fp = np.cumsum(neg[:, ::-1], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / (tp + fp)
        terms = np.diff(tp / tp[:, -1:], axis=1, prepend=0.0)  # R_k - R_{k-1}
        terms *= precision
    # a threshold absent from a resample adds exactly 0.0; cumsum adds in
    # threshold order, where np.sum would add pairwise
    terms[(pos + neg)[:, ::-1] == 0] = 0.0
    values = np.cumsum(terms, axis=1)[:, -1]
    values[_undefined(pos, neg)] = np.nan
    return values


def auroc(scores, labels):
    """Mann-Whitney AUROC with midranks (ties count 1/2)."""
    ranking = _Ranking.of(scores, labels)
    return _scalar(_ranked_values(_auroc_values, ranking, _ones(ranking.columns.size)),
                   "auroc needs both classes present")


def aupr(scores, labels):
    """Average precision over distinct descending thresholds (see module doc)."""
    ranking = _Ranking.of(scores, labels)
    return _scalar(_ranked_values(_aupr_values, ranking, _ones(ranking.columns.size)),
                   "aupr needs both classes present")


def confusion_matrix(preds):
    """3x3 counts, rows = true label, columns = predicted label."""
    flat = preds.labels * N_CLASSES + np.argmax(preds.probs, axis=1)
    return np.bincount(flat, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


# ---------------------------------------------------------------------------
# bootstrap


_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class SplitMix64:
    """The documented bootstrap index stream (see module docstring), one draw
    at a time; ``stream_indices`` computes a block of it at once."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def indices(self, n, count):
        return [self.next() % n for _ in range(count)]


def stream_indices(seed, start, count, n):
    """Draws start + 1 .. start + count of the stream for ``seed``, modulo n,
    as int64. uint64 array arithmetic wraps, which is the stream's mod 2^64.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z %= np.uint64(n)
    return z.view(np.int64)  # every index is below n < 2^63


def percentile_linear(sorted_values, q):
    """Linear-interpolation percentile on an ascending list, q in [0, 100]."""
    n = len(sorted_values)
    pos = (q / 100.0) * (n - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def _resample_counts(seed, first, attempts, n):
    """[attempts, n]: how often attempt first + a drew row i."""
    rows = stream_indices(seed, first * n, attempts * n, n).reshape(attempts, n)
    rows += (np.arange(attempts, dtype=np.int64) * n)[:, None]
    return np.bincount(rows.reshape(-1), minlength=attempts * n).reshape(attempts, n)


def bootstrap_ci(metric_fn, preds, n_boot=5000, seed=0):
    """(point, lo, hi): study-level bootstrap percentile interval.

    ``metric_fn(preds)`` gives the point estimate or raises MetricError;
    ``metric_fn(preds, weights)`` maps a ``[A, n]`` count matrix to ``[A]``
    values, NaN on a resample where it is undefined. Attempts run in blocks
    of at most BOOTSTRAP_BLOCK_ELEMENTS draws; see the module docstring for
    the stream and the retry rule.
    """
    if n_boot < 1:
        raise MetricError("n_boot must be >= 1")
    point = metric_fn(preds)
    n = len(preds)
    if n == 0:
        raise MetricError("bootstrap needs at least one prediction")
    per_block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    values = []
    attempted = 0
    undefined_run = 0
    while len(values) < n_boot:
        attempts = min(per_block, n_boot - len(values))
        weights = _resample_counts(seed, attempted, attempts, n)
        attempted += attempts
        for value in np.asarray(metric_fn(preds, weights), dtype=np.float64).tolist():
            if value != value:
                undefined_run += 1
                if undefined_run > MAX_REDRAWS:
                    raise MetricError(
                        "bootstrap kept drawing resamples on which the metric is undefined"
                    )
                continue
            undefined_run = 0
            values.append(value)
            if len(values) == n_boot:
                break
    values.sort()
    return point, percentile_linear(values, 2.5), percentile_linear(values, 97.5)


# ---------------------------------------------------------------------------
# screening tasks


@dataclass(frozen=True)
class ScreeningTask:
    name: str
    keep_labels: tuple
    positive_labels: tuple

    def rows(self, preds):
        return np.flatnonzero(np.isin(preds.labels, self.keep_labels))

    def scores_labels(self, preds):
        rows = self.rows(preds)
        p = preds.probs[rows]
        if self.name == "no_vs_some":
            scores = p[:, 1] + p[:, 2]
        elif self.name == "early_vs_sig":
            total = p[:, 1] + p[:, 2]
            scores = np.divide(p[:, 2], total, out=np.full(rows.size, 0.5), where=total != 0)
        else:  # sig_vs_nosig
            scores = p[:, 2]
        labels = np.isin(preds.labels[rows], self.positive_labels).astype(np.int64)
        return scores, labels

    def ranking(self, preds):
        """The task's rows of ``preds`` grouped by tied score."""
        return _Ranking(self.rows(preds), *self.scores_labels(preds))


SCREENING_TASKS = (
    ScreeningTask("no_vs_some", (0, 1, 2), (1, 2)),
    ScreeningTask("early_vs_sig", (1, 2), (2,)),
    ScreeningTask("sig_vs_nosig", (0, 1, 2), (2,)),
)


def task_metric(task, kind):
    """The task's AUROC or AUPR as a metric function (see ``bootstrap_ci``)."""
    values_fn = _auroc_values if kind == "auroc" else _aupr_values

    def metric(preds, weights=None):
        ranking = task.ranking(preds)
        if weights is not None:
            return _ranked_values(values_fn, ranking, weights)
        if ranking.columns.size == 0:
            raise MetricError(f"task {task.name}: no rows after filtering")
        return _scalar(_ranked_values(values_fn, ranking, _ones(len(preds))),
                       f"{kind} needs both classes present")
    return metric


def compute_report(preds, n_boot=5000, seed=0):
    """Full evaluation report: balanced accuracy, six screening blocks, confusion."""
    report = {}
    point, lo, hi = bootstrap_ci(balanced_accuracy, preds, n_boot, seed)
    report["balanced_accuracy"] = {"point": point, "lo": lo, "hi": hi}
    block = 1
    for task in SCREENING_TASKS:
        for kind in ("auroc", "aupr"):
            point, lo, hi = bootstrap_ci(task_metric(task, kind), preds, n_boot, seed + block)
            report[f"{task.name}_{kind}"] = {"point": point, "lo": lo, "hi": hi}
            block += 1
    report["confusion_matrix"] = confusion_matrix(preds).tolist()
    return report


# ---------------------------------------------------------------------------
# prediction file io

CSV_HEADER = ["bag_id", "true_label", "p0", "p1", "p2"]


@contextmanager
def atomic_file(path, binary=False):
    """A text (or binary) file that replaces ``path`` only once the block
    completes; if it raises, ``path`` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_predictions(preds, path):
    with atomic_file(path) as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for row in preds.rows:
            writer.writerow([row.bag_id, row.true_label,
                             repr(float(row.probs[0])), repr(float(row.probs[1])),
                             repr(float(row.probs[2]))])


def load_predictions(path):
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"no prediction file at {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty prediction file") from None
        if header != CSV_HEADER:
            raise FormatError(f"{path}: bad header {header!r}")
        rows = []
        for line in reader:
            if len(line) != 5:
                raise FormatError(f"{path}: malformed row {line!r}")
            try:
                rows.append(PredRow(line[0], int(line[1]),
                                    np.array([float(line[2]), float(line[3]), float(line[4])])))
            except ValueError as exc:
                raise FormatError(f"{path}: malformed row {line!r}") from exc
    return PredictionSet(rows)


def save_report(report, path):
    text = json.dumps(report, indent=1)
    with atomic_file(path) as f:
        f.write(text)


def save_confusion_csv(mat, path):
    with atomic_file(path) as f:
        writer = csv.writer(f)
        writer.writerow(["true\\pred", "0", "1", "2"])
        for c in range(N_CLASSES):
            writer.writerow([c, int(mat[c][0]), int(mat[c][1]), int(mat[c][2])])
