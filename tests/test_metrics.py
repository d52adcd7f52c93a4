import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milfusion import metrics
from milfusion.cli import _save_config, _write_history_csv, _write_rounds
from milfusion.errors import ContractError, FormatError, MetricError
from milfusion.metrics import (
    PredictionSet,
    PredRow,
    SCREENING_TASKS,
    SplitMix64,
    aupr,
    auroc,
    balanced_accuracy,
    bootstrap_ci,
    compute_report,
    confusion_matrix,
    load_predictions,
    save_confusion_csv,
    save_predictions,
    save_report,
    stream_indices,
    task_metric,
)


def rows_from(labels, probs):
    return PredictionSet(
        [PredRow(f"b{i}", int(l), np.asarray(p, dtype=np.float64))
         for i, (l, p) in enumerate(zip(labels, probs))]
    )


def random_preds(rng, n):
    labels = rng.integers(0, 3, size=n)
    raw = rng.uniform(0.05, 1.0, size=(n, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    return rows_from(labels.tolist(), probs)


# ---------------------------------------------------------------------------
# brute-force oracles (independent reimplementations)


def bf_balanced_accuracy(preds):
    recalls = []
    for c in (0, 1, 2):
        rows = [r for r in preds.rows if r.true_label == c]
        if not rows:
            raise MetricError(f"class {c} missing")
        hits = sum(1 for r in rows if int(np.argmax(r.probs)) == c)
        recalls.append(hits / len(rows))
    return (recalls[0] + recalls[1] + recalls[2]) / 3.0


def bf_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        raise MetricError("single class")
    acc = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                acc += 1.0
            elif p == n:
                acc += 0.5
    return acc / (len(pos) * len(neg))


def bf_aupr(scores, labels):
    n_pos = sum(labels)
    if n_pos == 0 or n_pos == len(labels):
        raise MetricError("single class")
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


# ---------------------------------------------------------------------------
# balanced accuracy


def test_all_correct_is_one():
    preds = rows_from([0, 1, 2], [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    assert balanced_accuracy(preds) == 1.0


def test_mean_of_recalls():
    # recalls 0.9 / 0.8 / 0.7 by construction
    labels, probs = [], []
    onehot = lambda c: [1.0 if i == c else 0.0 for i in range(3)]
    for c, (n, hits) in enumerate(((10, 9), (10, 8), (10, 7))):
        for i in range(n):
            labels.append(c)
            probs.append(onehot(c) if i < hits else onehot((c + 1) % 3))
    assert balanced_accuracy(rows_from(labels, probs)) == pytest.approx(0.8, abs=1e-15)


def test_absent_class_names_it():
    preds = rows_from([0, 1], [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1]])
    with pytest.raises(MetricError, match="2"):
        balanced_accuracy(preds)


def test_argmax_tie_breaks_low():
    preds = rows_from([0, 1, 2], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.2, 0.2, 0.6]])
    # row 0: tie 0/1 -> predicts 0 (hit); row 1: tie -> predicts 0 (miss)
    assert balanced_accuracy(preds) == pytest.approx((1 + 0 + 1) / 3, abs=1e-15)


def test_duplicating_one_class_rows_is_invariant():
    rng = np.random.default_rng(0)
    preds = random_preds(rng, 30)
    base = balanced_accuracy(preds)
    dup_rows = list(preds.rows)
    extra = [PredRow(f"{r.bag_id}+dup{k}", r.true_label, r.probs.copy())
             for r in preds.rows if r.true_label == 1 for k in range(2)]
    assert balanced_accuracy(PredictionSet(dup_rows + extra)) == base


def test_balanced_accuracy_matches_oracle_exactly():
    rng = np.random.default_rng(1)
    for _ in range(200):
        preds = random_preds(rng, int(rng.integers(6, 40)))
        try:
            want = bf_balanced_accuracy(preds)
        except MetricError:
            with pytest.raises(MetricError):
                balanced_accuracy(preds)
            continue
        assert balanced_accuracy(preds) == want  # bitwise


# ---------------------------------------------------------------------------
# auroc / aupr


def test_auroc_perfect_separation():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auroc_all_ties_is_half():
    assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auroc_three_of_four_pairs():
    assert auroc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75


def test_auroc_single_class():
    with pytest.raises(MetricError):
        auroc([0.5, 0.6], [1, 1])


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(2)
    scores = np.round(rng.uniform(0, 1, size=30), 3)
    labels = rng.integers(0, 2, size=30)
    if labels.sum() in (0, len(labels)):
        labels[0] = 1 - labels[0]
    base = auroc(scores, labels)
    assert auroc(3.0 * scores + 2.0, labels) == base
    assert auroc(np.exp(scores), labels) == base


def test_aupr_all_equal_scores_is_prevalence():
    labels = [1, 0, 0, 1, 0]
    assert aupr([0.4] * 5, labels) == 2 / 5  # average-precision convention, exact


def test_roc_pr_match_oracles_exactly():
    rng = np.random.default_rng(3)
    for i in range(200):
        n = int(rng.integers(4, 30))
        # draw from a small grid so ties actually occur
        scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9], size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == bf_auroc(scores, labels)
        assert aupr(scores, labels) == bf_aupr(scores, labels)


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_diagonal_when_perfect():
    preds = rows_from([0, 1, 2, 2], [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                     [0.1, 0.1, 0.8], [0.0, 0.2, 0.8]])
    assert confusion_matrix(preds).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_confusion_conserves_rows():
    rng = np.random.default_rng(4)
    preds = random_preds(rng, 25)
    assert confusion_matrix(preds).sum() == 25


def test_confusion_hand_tally():
    labels = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
    pred_to = [0, 1, 0, 1, 1, 2, 2, 0, 2, 2]
    onehot = lambda c: [1.0 if i == c else 0.0 for i in range(3)]
    preds = rows_from(labels, [onehot(p) for p in pred_to])
    assert confusion_matrix(preds).tolist() == [[2, 1, 0], [0, 2, 1], [1, 0, 3]]


# ---------------------------------------------------------------------------
# bootstrap


def splitmix_draws(seed, count, n):
    """Independent inline reimplementation of the documented index stream."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) % n)
    return out


def bf_bootstrap(metric_rows_fn, preds, n_boot, seed):
    """Two-loop oracle: same documented stream, metric recomputed from scratch."""
    mask = (1 << 64) - 1
    state = seed & mask

    def draw():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    n = len(preds.rows)
    point = metric_rows_fn(preds.rows)
    values = []
    for _ in range(n_boot):
        for _attempt in range(101):
            rows = [preds.rows[draw() % n] for _ in range(n)]
            try:
                values.append(metric_rows_fn(rows))
                break
            except MetricError:
                continue
        else:
            raise MetricError("exhausted retries")
    values.sort()

    def pct(q):
        pos = (q / 100.0) * (len(values) - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return values[lo] + (values[hi] - values[lo]) * frac

    return point, pct(2.5), pct(97.5)


def test_bootstrap_constant_metric():
    preds = rows_from([0, 1, 2], [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    point, lo, hi = bootstrap_ci(balanced_accuracy, preds, n_boot=50, seed=5)
    assert (point, lo, hi) == (1.0, 1.0, 1.0)


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(6)
    preds = random_preds(rng, 20)
    a = bootstrap_ci(balanced_accuracy, preds, n_boot=100, seed=9)
    b = bootstrap_ci(balanced_accuracy, preds, n_boot=100, seed=9)
    assert a == b
    c = bootstrap_ci(balanced_accuracy, preds, n_boot=100, seed=10)
    assert a != c


def test_bootstrap_matches_two_loop_oracle_bitwise():
    rng = np.random.default_rng(7)
    preds = random_preds(rng, 20)
    got = bootstrap_ci(balanced_accuracy, preds, n_boot=200, seed=11)
    want = bf_bootstrap(lambda rows: bf_balanced_accuracy(PredictionSet(
        [PredRow(f"r{i}", r.true_label, r.probs) for i, r in enumerate(rows)])),
        preds, n_boot=200, seed=11)
    assert got == want  # same stream, same formulas -> bitwise equal
    assert want[1] <= want[0] <= want[2]  # interval brackets the point estimate


def test_bootstrap_retries_on_rare_class():
    # one class-2 row: many resamples lose it and must be redrawn
    preds = rows_from([0, 0, 1, 1, 1, 2],
                      [[0.8, 0.1, 0.1]] * 2 + [[0.1, 0.8, 0.1]] * 3 + [[0.1, 0.1, 0.8]])
    point, lo, hi = bootstrap_ci(balanced_accuracy, preds, n_boot=150, seed=12)
    assert lo <= point <= hi


def test_bootstrap_persistent_failure_raises():
    preds = rows_from([0, 1, 2], [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])

    def impossible(p, weights=None):
        if weights is None:
            return 1.0
        return np.full(len(weights), np.nan)  # undefined on every resample

    with pytest.raises(MetricError):
        bootstrap_ci(impossible, preds, n_boot=5, seed=0)


@pytest.mark.parametrize("seed", [0, 13, -5, 2**64 - 1])
def test_stream_indices_follow_documented_stream(seed):
    for n in (1, 7, 1000):
        want = splitmix_draws(seed, 60, n)
        assert stream_indices(seed, 0, 60, n).tolist() == want
        assert SplitMix64(seed).indices(n, 60) == want
    # a block that starts mid-stream continues it
    assert stream_indices(seed, 25, 35, 7).tolist() == splitmix_draws(seed, 60, 7)[25:]


def test_stream_indices_past_draw_2_to_the_32():
    # draw i of seed s is draw i - start of seed s + start * gamma (mod 2^64)
    start = 2**32 + 3
    want = splitmix_draws(13 + start * 0x9E3779B97F4A7C15, 50, 97)
    assert stream_indices(13, start, 50, 97).tolist() == want


RARE_CLASS = ([0, 0, 1, 1, 1, 2],
              [[0.8, 0.1, 0.1]] * 2 + [[0.1, 0.8, 0.1]] * 3 + [[0.1, 0.1, 0.8]])


@pytest.mark.parametrize("block_elements", [1, 12, 25])
def test_bootstrap_retries_cross_block_boundaries(monkeypatch, block_elements):
    # 1, 2 and 4 attempts per block on 6 rows; about 60% of attempts lose class 2
    monkeypatch.setattr(metrics, "BOOTSTRAP_BLOCK_ELEMENTS", block_elements)
    preds = rows_from(*RARE_CLASS)
    got = bootstrap_ci(balanced_accuracy, preds, n_boot=150, seed=12)
    want = bf_bootstrap(lambda rows: bf_balanced_accuracy(SimpleNamespace(rows=rows)),
                        preds, n_boot=150, seed=12)
    assert got == want


def undefined_on(undefined):
    """A metric that is 1.0 on the rows and NaN on attempt k if undefined(k)."""
    attempts = 0

    def metric(preds, weights=None):
        nonlocal attempts
        if weights is None:
            return 1.0
        k = np.arange(attempts, attempts + len(weights))
        attempts += len(weights)
        return np.where(undefined(k), np.nan, 1.0)
    return metric


@pytest.mark.parametrize("block_elements", [3, 6])
def test_bootstrap_redraws_exactly_100_times(monkeypatch, block_elements):
    monkeypatch.setattr(metrics, "BOOTSTRAP_BLOCK_ELEMENTS", block_elements)
    preds = rows_from([0, 1, 2], [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
    # one and two attempts per block; 100 undefined attempts before each of
    # the two resamples succeeds
    twice = undefined_on(lambda k: (k != 100) & (k != 201))
    assert bootstrap_ci(twice, preds, n_boot=2, seed=0) == (1.0, 1.0, 1.0)
    with pytest.raises(MetricError):
        bootstrap_ci(undefined_on(lambda k: k <= 100), preds, n_boot=1, seed=0)
    with pytest.raises(MetricError):  # the run of 101 starts after a defined resample
        bootstrap_ci(undefined_on(lambda k: (k >= 1) & (k <= 101)), preds, n_boot=2, seed=0)


def test_weighted_metrics_agree_with_point_estimates():
    rng = np.random.default_rng(14)
    preds = random_preds(rng, 30)
    weights = np.ones((2, 30), dtype=np.int64)
    weights[1] = 2  # every row twice: every metric here is invariant
    for fn in [balanced_accuracy] + [task_metric(t, k) for t in SCREENING_TASKS
                                     for k in ("auroc", "aupr")]:
        assert fn(preds, weights).tolist() == [fn(preds)] * 2


# ---------------------------------------------------------------------------
# screening tasks


def test_screening_task_definitions():
    probs = [
        [0.7, 0.2, 0.1],  # label 0
        [0.2, 0.5, 0.3],  # label 1
        [0.1, 0.3, 0.6],  # label 2
    ]
    preds = rows_from([0, 1, 2], probs)
    by_name = {t.name: t for t in SCREENING_TASKS}

    scores, labels = by_name["no_vs_some"].scores_labels(preds)
    assert labels.tolist() == [0, 1, 1]
    assert np.allclose(scores, [0.3, 0.8, 0.9])

    scores, labels = by_name["early_vs_sig"].scores_labels(preds)
    assert labels.tolist() == [0, 1]  # label-0 row filtered out
    assert np.allclose(scores, [0.3 / 0.8, 0.6 / 0.9])

    scores, labels = by_name["sig_vs_nosig"].scores_labels(preds)
    assert labels.tolist() == [0, 0, 1]
    assert np.allclose(scores, [0.1, 0.3, 0.6])


def test_task_metric_single_class_raises():
    preds = rows_from([0, 0, 1], [[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.2, 0.7, 0.1]])
    with pytest.raises(MetricError):
        task_metric(next(t for t in SCREENING_TASKS if t.name == "early_vs_sig"),
                    "auroc")(preds)


def test_compute_report_blocks():
    rng = np.random.default_rng(8)
    report = compute_report(random_preds(rng, 24), n_boot=25, seed=1)
    expected = {"balanced_accuracy", "confusion_matrix"} | {
        f"{t}_{k}" for t in ("no_vs_some", "early_vs_sig", "sig_vs_nosig")
        for k in ("auroc", "aupr")
    }
    assert set(report) == expected
    for key in expected - {"confusion_matrix"}:
        block = report[key]
        assert set(block) == {"point", "lo", "hi"}
        assert block["lo"] <= block["hi"]


def bf_score(task_name, p):
    if task_name == "no_vs_some":
        return p[1] + p[2]
    if task_name == "early_vs_sig":
        return 0.5 if p[1] + p[2] == 0 else p[2] / (p[1] + p[2])
    return p[2]


def bf_task_metric(task, curve):
    def metric(rows):
        kept = [r for r in rows if r.true_label in task.keep_labels]
        if not kept:
            raise MetricError("no rows")
        return curve([bf_score(task.name, r.probs) for r in kept],
                     [1 if r.true_label in task.positive_labels else 0 for r in kept])
    return metric


def bf_report(preds, n_boot, seed):
    """compute_report from the oracles: bf_bootstrap over every block."""
    report = {}
    point, lo, hi = bf_bootstrap(lambda rows: bf_balanced_accuracy(SimpleNamespace(rows=rows)),
                                 preds, n_boot, seed)
    report["balanced_accuracy"] = {"point": point, "lo": lo, "hi": hi}
    block = 1
    for task in SCREENING_TASKS:
        for kind, curve in (("auroc", bf_auroc), ("aupr", bf_aupr)):
            point, lo, hi = bf_bootstrap(bf_task_metric(task, curve), preds, n_boot, seed + block)
            report[f"{task.name}_{kind}"] = {"point": point, "lo": lo, "hi": hi}
            block += 1
    mat = [[0, 0, 0] for _ in range(3)]
    for r in preds.rows:
        mat[r.true_label][int(np.argmax(r.probs))] += 1
    report["confusion_matrix"] = mat
    return report


TIE_GRID = [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8], [0.6, 0.2, 0.2],
            [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]


def tied_rare_preds(rng, n):
    """Scores with many ties and a rare class 2, so resamples get redrawn."""
    labels = rng.choice([0, 1, 2], size=n, p=[0.55, 0.38, 0.07])
    labels[-1] = 2
    return rows_from(labels.tolist(), [TIE_GRID[i] for i in rng.integers(0, 6, size=n)])


@pytest.mark.parametrize("case, n, n_boot", [("tied", 20, 300), ("random", 30, 200),
                                             ("tied", 10, 5000)])
def test_compute_report_matches_oracle_bitwise(case, n, n_boot):
    rng = np.random.default_rng(n)
    preds = tied_rare_preds(rng, n) if case == "tied" else random_preds(rng, n)
    assert compute_report(preds, n_boot=n_boot, seed=21) == bf_report(preds, n_boot, 21)


def test_early_vs_sig_score_is_half_when_p1_p2_zero():
    labels = [1, 1, 2, 2, 0, 1]
    probs = [[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6], [0.3, 0.3, 0.4],
             [0.7, 0.2, 0.1], [0.5, 0.4, 0.1]]
    preds = rows_from(labels, probs)
    early = next(t for t in SCREENING_TASKS if t.name == "early_vs_sig")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, _ = early.scores_labels(preds)
        report = compute_report(preds, n_boot=300, seed=4)
    assert scores[0] == 0.5
    assert report == bf_report(preds, 300, 4)


probability_rows = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(
    lambda t: sum(t) > 0).map(lambda t: [k / sum(t) for k in t])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), probability_rows), min_size=1, max_size=9),
       st.integers(-2**63, 2**64 - 1), st.integers(1, 30))
def test_report_equals_oracle_or_both_raise(rows, seed, n_boot):
    preds = rows_from([label for label, _ in rows], [p for _, p in rows])
    try:
        want = bf_report(preds, n_boot, seed)
    except MetricError:
        with pytest.raises(MetricError):
            compute_report(preds, n_boot=n_boot, seed=seed)
    else:
        assert compute_report(preds, n_boot=n_boot, seed=seed) == want


# ---------------------------------------------------------------------------
# prediction csv


def test_prediction_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    preds = random_preds(rng, 17)
    path = tmp_path / "preds.csv"
    save_predictions(preds, path)
    loaded = load_predictions(path)
    assert len(loaded) == 17
    for a, b in zip(preds.rows, loaded.rows):
        assert a.bag_id == b.bag_id
        assert a.true_label == b.true_label
        assert np.array_equal(a.probs, b.probs)  # bitwise via repr round-trip


def test_failed_writes_keep_the_previous_file(tmp_path):
    rng = np.random.default_rng(10)
    broken = random_preds(rng, 6)
    broken.rows[4].probs = None  # the write fails after four rows
    epoch = {"epoch": 1, "train_loss": 0.5, "val_balanced_accuracy": 1.0}
    cases = [
        (save_predictions, random_preds(rng, 6), broken, "preds.csv"),
        (save_report, {"a": 1.0}, {"a": 1.0, "b": object()}, "report.json"),
        (save_confusion_csv, np.eye(3, dtype=int), [[1, 0, 0], [0, 1, 0], [0]],
         "confusion.csv"),
        (_save_config, {"a": 1}, {"a": 1, "b": object()}, "config_used.json"),
        (_write_history_csv, {"epochs": [epoch]}, {"epochs": [epoch, None]}, "history.csv"),
        (_write_rounds, [{"round": 1}], [{"round": 1}, {"round": object()}], "rounds.jsonl"),
    ]
    for save, good, bad, name in cases:
        path = tmp_path / name
        save(good, path)
        before = path.read_bytes()
        with pytest.raises((TypeError, IndexError)):
            save(bad, path)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config_used.json", "confusion.csv", "history.csv", "preds.csv", "report.json",
        "rounds.jsonl"]  # no temporary file left


def test_prediction_csv_bad_header(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,label,a,b,c\nx,0,0.3,0.3,0.4\n")
    with pytest.raises(FormatError):
        load_predictions(path)


def test_prediction_csv_malformed_row(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("bag_id,true_label,p0,p1,p2\nx,zero,0.3,0.3,0.4\n")
    with pytest.raises(FormatError):
        load_predictions(path)


@pytest.mark.parametrize("probs", [[np.nan] * 3, [-0.5, 0.5, 1.0], [0.5, np.nan, 0.5],
                                   [np.inf, 0.0, 0.0], [1.0, -0.0001, 0.0001]])
def test_prediction_set_refuses_non_finite_or_negative(probs):
    with pytest.raises(FormatError, match="finite and non-negative"):
        rows_from([0, 1], [[0.2, 0.3, 0.5], probs])


def test_prediction_csv_refuses_nan_row(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("bag_id,true_label,p0,p1,p2\nx,0,0.3,0.3,0.4\ny,1,nan,nan,nan\n")
    with pytest.raises(FormatError, match="'y'"):
        load_predictions(path)


def test_scalar_curves_refuse_nan_scores_and_non_binary_labels():
    with pytest.raises(ContractError):
        auroc([0.2, np.nan], [0, 1])
    with pytest.raises(ContractError):
        aupr([0.2, 0.4, 0.6], [0, 1, 2])


def test_prediction_set_validation():
    with pytest.raises(FormatError):
        rows_from([0, 0], [[0.5, 0.5, 0.5], [0.2, 0.4, 0.4]])
    with pytest.raises(FormatError):
        PredictionSet([PredRow("a", 0, np.array([1.0, 0.0, 0.0])),
                       PredRow("a", 1, np.array([0.0, 1.0, 0.0]))])
