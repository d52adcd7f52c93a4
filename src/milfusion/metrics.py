"""Evaluation metrics: balanced accuracy, AUROC/AUPR screening tasks,
confusion matrix, and bootstrap percentile confidence intervals.

Conventions, fixed so an independent reimplementation can match bitwise:

  * a prediction row is checked against five rules in this order: a bag id
    no earlier row has, three probabilities (once flattened), all finite and
    non-negative, summing to 1 within 1e-6, and a label in {0, 1, 2}; the
    first row that breaks one raises FormatError for the first rule it
    breaks, so NaN never enters as data;
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
    defined are kept, in stream order, and 101 undefined attempts in a row,
    counted across the blocks of attempts computed at once, raise
    MetricError (a resample is redrawn at most 100 times);
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
estimate is the same computation on one all-ones row. Counts are float64:
they are integers far below 2^53, so float64 holds them, their sums and the
midrank sums exactly, in any order of addition, and no division converts
them first. The three recall divisions are exact, and the AUPR terms are
added in threshold order, so the weighted form equals the formulas above
applied to each resample's rows. A report ranks each screening task's rows
once, for both its metrics and every resample, and sums counts over tie
groups only when some group holds more than one row: a sum over one-row
groups is the rows' counts themselves.

A block of draws takes its remainders modulo n by floor division,
z - (z // n) n, which numpy computes faster than ``%``; the stream is the
one defined above.
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


# FormatError texts of a prediction row's rules, in the order they are checked
_ROW_FAULTS = ("duplicate bag id {0!r} in predictions",
               "bag {0!r}: needs 3 probabilities",
               "bag {0!r}: probabilities must be finite and non-negative, got {1!r}",
               "bag {0!r}: probabilities sum to {2!r}",
               "bag {0!r}: bad label {3!r}")


class PredictionSet:
    """Rows of (bag_id, true_label, probability 3-vector); ids unique.

    ``labels`` [n] and ``probs`` [n, 3] hold the rows as arrays, and each
    row's ``probs`` becomes its row of ``probs``; see the module docstring
    for the rules a row must keep.
    """

    def __init__(self, rows):
        self.rows = list(rows)
        n = len(self.rows)
        raw = [row.probs for row in self.rows]
        labels = [row.true_label for row in self.rows]
        ok = np.ones((5, n), dtype=bool)  # rule x row: the row keeps the rule
        ok[0] = False  # then True at each id's first row
        first = dict(zip(reversed([row.bag_id for row in self.rows]), range(n - 1, -1, -1)))
        ok[0, np.fromiter(first.values(), np.int64, len(first))] = True
        ndarray = np.ndarray  # whose .size costs a fraction of np.size
        ok[1] = np.array([p.size if type(p) is ndarray else np.size(p) for p in raw]) == N_CLASSES
        # the rows before the first one without three values flatten to
        # [m, 3] (float64 by the empty head); no later row is the first at fault
        m = n if ok[1].all() else int(np.argmin(ok[1]))
        probs = np.concatenate([np.empty(0), *raw[:m]], axis=None).reshape(m, N_CLASSES)
        ok[2, :m] = (np.isfinite(probs) & (probs >= 0.0)).all(axis=1)
        ok[3, :m] = np.abs(probs.sum(axis=1) - 1.0) <= 1e-6  # summed as the row alone is
        ok[4] = np.fromiter(map({0, 1, 2}.__contains__, labels), bool, n)
        faults = np.flatnonzero(~ok.all(axis=0))
        if faults.size:
            i = faults[0]
            row, p = self.rows[i], probs[i] if i < m else np.empty(0)
            raise FormatError(_ROW_FAULTS[np.argmin(ok[:, i])].format(
                row.bag_id, p.tolist(), p.sum(), row.true_label))
        for row, row_probs in zip(self.rows, probs):
            row.probs = row_probs
        self.labels = np.array(labels, dtype=np.int64)
        self.probs = probs

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
    return np.ones((1, n))


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
    counts = weights @ np.concatenate([is_class, is_class & hit], axis=1).astype(np.float64)
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
        self.positive = labels[order].astype(np.float64)
        self.starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])

    @classmethod
    def of(cls, scores, labels):
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        return cls(np.arange(scores.size), scores, labels)

    def group_counts(self, weights):
        """(positives, rows), each [A, groups] float64: how often each tie
        group's positive rows, and all its rows, appear in each resample."""
        # np.take gives C-contiguous rows, for the passes along them; [:, columns]
        # would give a column-major copy
        rows = np.take(np.asarray(weights, dtype=np.float64), self.columns, axis=1)
        pos = rows * self.positive
        if self.starts.size < self.columns.size:  # some group holds several rows
            pos = np.add.reduceat(pos, self.starts, axis=1)
            rows = np.add.reduceat(rows, self.starts, axis=1)
        return pos, rows


def _ranked_values(values_fn, ranking, weights):
    if ranking.columns.size == 0:
        return np.full(len(weights), np.nan)
    return values_fn(*ranking.group_counts(weights))


def _auroc_values(pos, rows):
    """Mann-Whitney AUROC per resample from ascending tie-group counts."""
    n_pos = pos.sum(axis=1)
    through = np.cumsum(rows, axis=1)  # rows up to and including each group
    pairs = n_pos * (through[:, -1] - n_pos)
    # a group of c rows after b others has midrank (2 b + c + 1) / 2; with
    # t = b + c, 2 U = sum(pos (2 t - c + 1)) - n_pos (n_pos + 1)
    # = 2 sum(pos t) - sum(pos c) - n_pos^2, integers all, so U is exact in
    # any order of addition
    twice_u = 2.0 * np.einsum("ij,ij->i", pos, through) - np.einsum("ij,ij->i", pos, rows)
    twice_u -= n_pos * n_pos
    return np.divide(twice_u / 2.0, pairs, out=np.full(len(pairs), np.nan), where=pairs > 0)


def _aupr_values(pos, rows):
    """Average precision per resample from ascending tie-group counts."""
    tp = np.cumsum(pos[:, ::-1], axis=1)  # descending thresholds
    ranked = np.cumsum(rows[:, ::-1], axis=1)  # tp + fp
    undefined = (tp[:, -1] == 0) | (tp[:, -1] == ranked[:, -1])
    # denominators clamped to at least 1 avoid 0/0 and change no defined
    # value: tp + fp is 0 only before a resample's first row, where tp = 0 and
    # so precision, recall and the term are 0; P is 0 only where the resample
    # is undefined. A threshold absent from a resample after its first row
    # adds exactly +0.0, its recall being that of the threshold before.
    precision = np.divide(tp, np.maximum(ranked, 1.0, out=ranked), out=ranked)
    recall = np.divide(tp, np.maximum(tp[:, -1:], 1.0), out=tp)
    # R_k - R_{k-1} over the flat rows, in one pass; each row's first term is R_1
    terms = np.empty(recall.shape)
    flat = recall.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=terms.reshape(-1)[1:])
    terms[:, 0] = recall[:, 0]
    terms *= precision
    # cumsum adds in threshold order, where np.sum would add pairwise
    values = np.cumsum(terms, axis=1, out=terms)[:, -1]
    values[undefined] = np.nan
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


def stream_indices(seed, start, count, n, attempts=1):
    """Draws start + 1 .. start + count of the stream for ``seed``, modulo n,
    as int64. uint64 array arithmetic wraps, which is the stream's mod 2^64.

    With ``attempts`` > 1 the draws are split into that many equal runs and
    run a's indices are offset by a * n: positions in a flat [attempts, n].
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # z - (z // n - a) n: numpy divides uint64 by a scalar faster than it
    # takes the remainder; the difference wraps back to z mod n + a n
    z = z.reshape(attempts, -1)
    q = z // np.uint64(n)
    q -= np.arange(attempts, dtype=np.uint64)[:, None]
    q *= np.uint64(n)
    z -= q
    return z.reshape(-1).view(np.int64)  # every index is below attempts * n < 2^63


def percentile_linear(sorted_values, q):
    """Linear-interpolation percentile on an ascending sequence, q in [0, 100]."""
    n = len(sorted_values)
    pos = (q / 100.0) * (n - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def _resample_counts(seed, first, attempts, n):
    """[attempts, n] float64: how often attempt first + a drew row i."""
    rows = stream_indices(seed, first * n, attempts * n, n, attempts)
    counts = np.bincount(rows, minlength=attempts * n).reshape(attempts, n)
    return counts.astype(np.float64)


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
    # reserved before the first resample: an n_boot no process can hold
    # raises MemoryError here instead of running until it is killed
    values = np.empty(n_boot)
    kept = 0
    per_block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    attempted = 0
    run = 0  # undefined resamples in a row, carried from block to block
    while kept < n_boot:
        attempts = min(per_block, n_boot - kept)
        weights = _resample_counts(seed, attempted, attempts, n)
        attempted += attempts
        block = np.asarray(metric_fn(preds, weights), dtype=np.float64)
        undefined = np.isnan(block)
        last = -1  # a run at position 0 continues the carried one
        for pos in undefined.nonzero()[0].tolist():
            run = run + 1 if pos == last + 1 else 1
            if run > MAX_REDRAWS:
                raise MetricError("bootstrap kept drawing resamples on which the "
                                  "metric is undefined")
            last = pos
        run = run if last == attempts - 1 else 0  # a defined resample ends a run
        defined = block[~undefined]
        values[kept:kept + defined.size] = defined
        kept += defined.size
    values.sort(kind="stable")
    return (point, float(percentile_linear(values, 2.5)),
            float(percentile_linear(values, 97.5)))


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


def _ranked_once(task):
    """``task.ranking`` of the PredictionSet last given, kept until another
    one is given; it lives as long as the returned function."""
    last = (None, None)

    def rank(preds):
        nonlocal last
        if last[0] is not preds:
            last = (preds, task.ranking(preds))
        return last[1]
    return rank


def task_metric(task, kind, rank=None):
    """The task's AUROC or AUPR as a metric function (see ``bootstrap_ci``).

    ``rank`` is a ``_ranked_once(task)`` to share with the task's other
    metric; by default the metric ranks the rows it is given once.
    """
    values_fn = _auroc_values if kind == "auroc" else _aupr_values
    rank = rank or _ranked_once(task)

    def metric(preds, weights=None):
        ranking = rank(preds)
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
        rank = _ranked_once(task)  # the task's AUROC and AUPR share one ranking
        for kind in ("auroc", "aupr"):
            point, lo, hi = bootstrap_ci(task_metric(task, kind, rank), preds, n_boot,
                                         seed + block)
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
    completes; if it raises, ``path`` keeps its previous content. The file's
    directory is made first, with any missing parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    try:
        with open(path, newline="", encoding="utf-8") as f:
            lines = list(csv.reader(f))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise FormatError(f"no prediction file at {path}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise FormatError(f"{path}: empty prediction file")
    if lines[0] != CSV_HEADER:
        raise FormatError(f"{path}: bad header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        if len(line) != 5:
            raise FormatError(f"{path}: malformed row {line!r}")
        try:
            rows.append(PredRow(line[0], int(line[1]),
                                np.array([float(line[2]), float(line[3]), float(line[4])])))
        except ValueError as exc:
            raise FormatError(f"{path}: malformed row {line!r}") from exc
    return PredictionSet(rows)


def save_json(obj, path):
    text = json.dumps(obj, indent=1)
    with atomic_file(path) as f:
        f.write(text)


def save_confusion_csv(mat, path):
    with atomic_file(path) as f:
        writer = csv.writer(f)
        writer.writerow(["true\\pred", "0", "1", "2"])
        for c in range(N_CLASSES):
            writer.writerow([c, int(mat[c][0]), int(mat[c][1]), int(mat[c][2])])
