import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from milfusion import autodiff as ad
from milfusion import model as model_module
from milfusion import training
from milfusion.data import (
    Bag,
    Instance,
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
)
from milfusion.encoders import EncoderConfig
from milfusion.errors import ConfigError, ContractError, DataError, NumericError, UsageError
from milfusion.metrics import balanced_accuracy
from milfusion.model import (
    MMILModel,
    ModelConfig,
    Plan,
    init_model,
    param_specs,
    param_views,
    params_digest,
    prepare_bag,
    prepared_step,
    resolve_branches,
    total_loss,
)
from milfusion.training import (
    ROUND_FRACTIONS,
    PseudoLabelRecord,
    TrainConfig,
    predictions_for,
    pseudo_label,
    run_curriculum,
    select_confident,
    train_supervised,
    validation_balanced_accuracy,
)

from helpers import make_bag, tiny_model_config


def tiny_dataset(seed=7, **overrides):
    kwargs = dict(
        seed=seed, n_labeled=18, n_val=18, n_test=12, n_unlabeled=30,
        cine_shape=(2, 3, 3), doppler_shape=(3, 4),
        cine_bag_size=(2, 5), doppler_bag_size=(1, 3),
        signal_strength=3.0, noise_std=1.0,
    )
    kwargs.update(overrides)
    return generate_synthetic(SyntheticConfig(**kwargs))


def tiny_train_config(**overrides):
    kwargs = dict(learning_rate=5e-4, weight_decay=1e-4, momentum=0.9,
                  max_epochs=6, patience=3, seed=5)
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def labeled_bags(rng, n, label_cycle=(0, 1, 2)):
    return [make_bag(rng, bag_id=f"t{i:02d}", n_cine=2, n_doppler=2,
                     label=label_cycle[i % len(label_cycle)]) for i in range(n)]


def one_val_bag_per_class(rng):
    """The smallest val split training accepts: one scorable bag of each class."""
    return [make_bag(rng, bag_id=f"v{c}", label=c) for c in range(3)]


# ---------------------------------------------------------------------------
# train_supervised


def test_zero_learning_rate_is_null_update():
    rng = np.random.default_rng(0)
    bags = labeled_bags(rng, 6)
    config = tiny_model_config()
    before = params_digest(init_model(config, 3).params)
    model, _ = train_supervised(3, bags, bags, config,
                                tiny_train_config(learning_rate=0.0, max_epochs=3))
    assert params_digest(model.params) == before


def test_single_bag_memorization():
    rng = np.random.default_rng(1)
    bag = make_bag(rng, bag_id="only", n_cine=2, n_doppler=2, label=2)
    config = tiny_model_config(lambda_sa=0.0)
    tc = tiny_train_config(learning_rate=1e-2, weight_decay=0.0,
                           max_epochs=400, patience=400)
    model, history = train_supervised(0, [bag], one_val_bag_per_class(rng), config, tc)
    final = history["epochs"][-1]["train_loss"]
    assert final < 1e-2


def test_training_deterministic_bitwise():
    ds, _ = tiny_dataset()
    train = iterate_split(ds, "train")
    val = iterate_split(ds, "val")
    config = tiny_model_config()
    tc = tiny_train_config(max_epochs=3)
    m1, h1 = train_supervised(4, train, val, config, tc)
    m2, h2 = train_supervised(4, train, val, config, tc)
    assert params_digest(m1.params) == params_digest(m2.params)
    assert h1 == h2


def test_sgd_momentum_weight_decay_update_rule():
    # one epoch over one bag: v = grad + wd * theta0; theta1 = theta0 - lr * v
    rng = np.random.default_rng(2)
    bag = make_bag(rng, bag_id="b", n_cine=1, n_doppler=1, label=0)
    config = tiny_model_config()
    lr, wd = 1e-3, 1e-2
    start = init_model(config, 9)
    loss, out = total_loss(start, bag, 0)
    ad.backward(out.tape, loss)
    expected = {}
    for name, leaf in out.param_leaves.items():
        grad = out.tape.gradients[leaf.node_id].data.reshape(start.params[name].shape)
        expected[name] = start.params[name] - lr * (grad + wd * start.params[name])

    trained, _ = train_supervised(
        9, [bag], one_val_bag_per_class(rng), config,
        tiny_train_config(learning_rate=lr, weight_decay=wd, max_epochs=1),
    )
    for name in expected:
        assert np.allclose(trained.params[name], expected[name], atol=1e-15), name


def test_returned_model_is_best_epoch():
    ds, _ = tiny_dataset()
    train = iterate_split(ds, "train")
    val = iterate_split(ds, "val")
    model, history = train_supervised(4, train, val, tiny_model_config(),
                                      tiny_train_config(max_epochs=5, patience=5))
    best = history["best_val_balanced_accuracy"]
    assert max(r["val_balanced_accuracy"] for r in history["epochs"]) == best
    recomputed = balanced_accuracy(predictions_for(model, val))
    assert recomputed == best


def test_empty_train_set_rejected():
    with pytest.raises(UsageError):
        train_supervised(0, [], [], tiny_model_config(), tiny_train_config())


def test_unlabeled_training_bag_rejected():
    rng = np.random.default_rng(3)
    bag = make_bag(rng, label=0)
    bag = Bag(bag.id, bag.cine_instances, bag.doppler_instances, label=None)
    with pytest.raises(UsageError):
        train_supervised(0, [bag], [], tiny_model_config(), tiny_train_config())


def test_nan_features_raise_numeric_error():
    rng = np.random.default_rng(4)
    bag = make_bag(rng, label=0)
    bag.cine_instances[0].features[0] = np.nan
    with pytest.raises(NumericError):
        train_supervised(0, [bag], one_val_bag_per_class(rng), tiny_model_config(),
                         tiny_train_config())


@pytest.mark.parametrize("case, missing", [("empty", 0), ("no_class_2", 2),
                                           ("class_2_skipped", 2)])
def test_val_split_that_cannot_score_every_class_is_refused_before_any_step(
        monkeypatch, case, missing):
    # a cine-empty bag is skipped once the doppler branch is off
    rng = np.random.default_rng(14)
    train = labeled_bags(rng, 3)
    val = {"empty": [],
           "no_class_2": one_val_bag_per_class(rng)[:2],
           "class_2_skipped": [*one_val_bag_per_class(rng)[:2],
                               make_bag(rng, "v2_nocine", n_cine=0, n_doppler=2, label=2)],
           }[case]
    config = tiny_model_config(use_doppler=case != "class_2_skipped")
    calls = Counter()
    counting(monkeypatch, calls, training, "init_model")
    counting(monkeypatch, calls, training, "prepared_step")
    with pytest.raises(UsageError, match=f"val split has no scorable bag of class {missing} "):
        train_supervised(0, train, val, config, tiny_train_config())
    assert calls == Counter()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    TrainConfig(learning_rate=0.0)  # null update is allowed


# ---------------------------------------------------------------------------
# the epoch loop: prepared bags against the tape, preparation and its checks


def taped_train_supervised(init_seed, train_bags, val_bags, config, tc):
    """``train_supervised`` with ``total_loss`` + ``backward`` for each step: the
    same bag order, the same update ops in the same order, the same history."""
    names = [name for name, _ in param_specs(config)]
    model = init_model(config, init_seed)
    history = {"init_seed": init_seed, "init_weights_sha256": params_digest(model.params),
               "epochs": []}
    theta = np.concatenate([model.params[name].reshape(-1) for name in names])
    model = MMILModel(config, param_views(config, theta))
    velocity = np.zeros_like(theta)
    rng = np.random.default_rng(tc.seed)
    best_bacc, best_theta, best_epoch, since_best = -np.inf, theta.copy(), 0, 0
    for epoch in range(1, tc.max_epochs + 1):
        epoch_loss = 0.0
        for i in rng.permutation(len(train_bags)):
            bag = train_bags[i]
            loss, out = total_loss(model, bag, bag.label)
            gradients = ad.backward(out.tape, loss)
            grad = np.concatenate([gradients[out.param_leaves[name].node_id].data
                                   for name in names])
            epoch_loss += float(loss.data[0])
            velocity *= tc.momentum
            velocity += theta * tc.weight_decay + grad
            theta -= velocity * tc.learning_rate
        val_bacc = validation_balanced_accuracy(model, val_bags)
        history["epochs"].append({"epoch": epoch, "train_loss": epoch_loss / len(train_bags),
                                  "val_balanced_accuracy": val_bacc})
        if val_bacc > best_bacc:
            best_bacc, best_theta, best_epoch, since_best = val_bacc, theta.copy(), epoch, 0
        else:
            since_best += 1
            if since_best >= tc.patience:
                break
    history["best_epoch"] = best_epoch
    history["best_val_balanced_accuracy"] = float(best_bacc)
    return MMILModel(config, param_views(config, best_theta)), history


def with_degenerate_bags(bags):
    """``bags`` with the first one's cine and the second one's doppler instances dropped."""
    return [Bag(bags[0].id, [], bags[0].doppler_instances, bags[0].label),
            Bag(bags[1].id, bags[1].cine_instances, [], bags[1].label), *bags[2:]]


@pytest.mark.parametrize("case", ["default", "lambda_0", "no_doppler", "degenerate_bags"])
def test_trainer_is_bitwise_the_taped_trainer(case):
    ds, _ = tiny_dataset()
    train, val = iterate_split(ds, "train"), iterate_split(ds, "val")
    overrides = {"lambda_0": {"lambda_sa": 0.0}, "no_doppler": {"use_doppler": False}}
    config = tiny_model_config(**overrides.get(case, {}))
    if case == "degenerate_bags":
        train = with_degenerate_bags(train)
    tc = tiny_train_config(max_epochs=3)
    model, history = train_supervised(4, train, val, config, tc)
    ref_model, ref_history = taped_train_supervised(4, train, val, config, tc)
    assert params_digest(model.params) == params_digest(ref_model.params)
    assert history == ref_history


def counting(monkeypatch, calls, owner, name, key=lambda *args: None):
    """Replace ``owner.name`` with a wrapper that counts calls in ``calls[name, key(args)]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name, key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_training_prepares_each_bag_once(monkeypatch):
    ds, _ = tiny_dataset()
    train = with_degenerate_bags(iterate_split(ds, "train"))
    calls = Counter()
    counting(monkeypatch, calls, model_module, "relevance_renormalize")
    counting(monkeypatch, calls, model_module, "preprocess_rows",
             key=lambda enc_cfg, instances: enc_cfg.modality)
    _, history = train_supervised(4, train, iterate_split(ds, "val"), tiny_model_config(),
                                  tiny_train_config(max_epochs=3))
    with_cine = sum(1 for bag in train if bag.cine_instances)
    with_doppler = sum(1 for bag in train if bag.doppler_instances)
    validations = len(history["epochs"])  # each scores the val split as one chunk
    assert calls["relevance_renormalize", None] == with_cine
    assert calls["preprocess_rows", "cine"] == with_cine + validations
    assert calls["preprocess_rows", "doppler"] <= with_doppler + validations


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 -- the point is to compare what is raised
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fault, error", [("missing_relevance", DataError),
                                          ("label_3", ContractError)])
def test_faulty_training_bag_is_refused_before_any_step(monkeypatch, fault, error):
    rng = np.random.default_rng(10)
    config = tiny_model_config()
    bad = make_bag(rng, "bad", with_relevance=fault != "missing_relevance")
    if fault == "label_3":
        bad.label = 3
    grad = np.empty(sum(int(np.prod(shape)) for _, shape in param_specs(config)))
    plan = Plan(init_model(config, 0), param_views(config, grad))
    expected = _raised(lambda: prepared_step(plan, prepare_bag(config, bad)))
    assert expected is not None and expected[0] is error
    calls = Counter()
    counting(monkeypatch, calls, training, "prepared_step")
    assert _raised(lambda: train_supervised(0, labeled_bags(rng, 5) + [bad], [], config,
                                            tiny_train_config())) == expected
    assert calls == Counter()


def test_training_logs_no_modality_fallback_of_a_train_bag(caplog):
    # the bag trains on doppler alone; only resolve_branches reports the fallback
    rng = np.random.default_rng(11)
    bags = labeled_bags(rng, 3) + [make_bag(rng, "no_cine", n_cine=0, n_doppler=2, label=1)]
    caplog.set_level(logging.INFO, logger="milfusion")
    _, history = train_supervised(0, bags, one_val_bag_per_class(rng), tiny_model_config(),
                                  tiny_train_config(max_epochs=3))
    assert len(history["epochs"]) == 3 and caplog.records == []
    resolve_branches(tiny_model_config(), bags)
    assert [r.getMessage() for r in caplog.records] == [
        "bag no_cine: cine empty, falling back to doppler only"]


def test_training_logs_no_modality_fallback_of_a_val_bag(caplog):
    # the bag is scored on doppler alone every epoch and logged by none of them
    rng = np.random.default_rng(12)
    val = labeled_bags(rng, 3) + [make_bag(rng, "v_nocine", n_cine=0, n_doppler=2, label=1)]
    caplog.set_level(logging.INFO, logger="milfusion")
    model, history = train_supervised(0, labeled_bags(rng, 3), val, tiny_model_config(),
                                      tiny_train_config(max_epochs=3, patience=3))
    assert len(history["epochs"]) == 3 and caplog.records == []
    assert [r.bag_id for r in predictions_for(model, val).rows] == [b.id for b in val]
    resolve_branches(tiny_model_config(), val)
    assert [r.getMessage() for r in caplog.records] == [
        "bag v_nocine: cine empty, falling back to doppler only"]


# ---------------------------------------------------------------------------
# pseudo_label


def test_pseudo_label_argmax_and_confidence():
    ds, _ = tiny_dataset()
    unlabeled = iterate_split(ds, "unlabeled")[:8]
    config = ModelConfig(
        cine_encoder=EncoderConfig("cine", input_dim=9, hidden_sizes=(8,), embed_dim=4),
        doppler_encoder=EncoderConfig("doppler", input_dim=12, hidden_sizes=(8,), embed_dim=4),
        attention_dim=4,
    )
    model, _ = train_supervised(1, iterate_split(ds, "train"),
                                iterate_split(ds, "val"), config,
                                tiny_train_config(max_epochs=2))
    records = pseudo_label(model, unlabeled)
    assert len(records) == len(unlabeled)
    preds = predictions_for(model, [Bag(b.id, b.cine_instances, b.doppler_instances, label=0)
                                    for b in unlabeled])
    for record, row in zip(records, preds.rows):
        assert record.bag_id == row.bag_id
        assert record.predicted_class == int(np.argmax(row.probs))
        assert record.confidence == float(row.probs.max())
        assert 0.0 < record.confidence <= 1.0


def test_pseudo_label_uniform_tie_breaks_to_class_zero():
    # all-zero parameters give exactly uniform probabilities
    config = tiny_model_config()
    from milfusion.model import param_specs

    zeros = {name: np.zeros(shape) for name, shape in param_specs(config)}
    model = MMILModel(config, zeros)
    bag = make_bag(np.random.default_rng(5), label=None)
    bag = Bag(bag.id, bag.cine_instances, bag.doppler_instances, label=None)
    records = pseudo_label(model, [bag])
    assert records[0].predicted_class == 0
    assert records[0].confidence == pytest.approx(1 / 3, abs=1e-15)


def test_pseudo_label_skips_degenerate_bags():
    rng = np.random.default_rng(6)
    config = tiny_model_config(use_doppler=False)
    model = init_model(config, 0)
    ok = make_bag(rng, bag_id="ok", n_cine=2, n_doppler=1, label=None)
    ok = Bag(ok.id, ok.cine_instances, ok.doppler_instances, label=None)
    bad = make_bag(rng, bag_id="bad", n_cine=0, n_doppler=2, label=None)
    bad = Bag(bad.id, bad.cine_instances, bad.doppler_instances, label=None)
    records = pseudo_label(model, [ok, bad])
    assert [r.bag_id for r in records] == ["ok"]


# ---------------------------------------------------------------------------
# select_confident


def brute_force_select(records, fraction):
    """Repeated max extraction: highest confidence, ties to the smaller id."""
    count = int(np.floor(fraction * len(records) + 1e-9))
    pool = list(records)
    chosen = set()
    for _ in range(count):
        best = None
        for r in pool:
            if best is None or r.confidence > best.confidence or (
                    r.confidence == best.confidence and r.bag_id < best.bag_id):
                best = r
        pool.remove(best)
        chosen.add(best.bag_id)
    return chosen


def test_select_confident_edges():
    records = [PseudoLabelRecord(f"b{i}", 0, (i + 1) / 10) for i in range(10)]
    assert select_confident(records, 0.0) == set()
    assert select_confident(records, 1.0) == {r.bag_id for r in records}
    assert select_confident(records, 0.2) == {"b9", "b8"}  # confidences 1.0 and 0.9


def test_select_confident_ties_break_by_id():
    records = [PseudoLabelRecord("z", 0, 0.5), PseudoLabelRecord("a", 1, 0.5),
               PseudoLabelRecord("m", 2, 0.5)]
    assert select_confident(records, 1 / 3) == {"a"}


def test_select_confident_permutation_invariant():
    rng = np.random.default_rng(7)
    records = [PseudoLabelRecord(f"b{i:03d}", 0, float(rng.choice([0.3, 0.6, 0.9])))
               for i in range(40)]
    base = select_confident(records, 0.35)
    for _ in range(10):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert select_confident(shuffled, 0.35) == base


def test_select_confident_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        records = [
            PseudoLabelRecord(f"b{i:03d}", int(rng.integers(0, 3)),
                              float(rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])))
            for i in range(n)
        ]
        fraction = float(rng.choice([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]))
        assert select_confident(records, fraction) == brute_force_select(records, fraction)


def test_select_confident_bad_fraction():
    with pytest.raises(UsageError):
        select_confident([], 1.5)


# ---------------------------------------------------------------------------
# run_curriculum


def test_curriculum_fractions_and_fresh_init():
    ds, hidden = tiny_dataset()
    config = tiny_model_config()
    tc = tiny_train_config(max_epochs=2, patience=2)
    model, report = run_curriculum(ds, config, tc, hidden, early_abort_drop=None)
    assert [row["fraction"] for row in report] == list(ROUND_FRACTIONS)
    assert [row["round"] for row in report] == [1, 2, 3, 4, 5, 6]
    n_unlabeled = len(iterate_split(ds, "unlabeled"))
    for row in report:
        expected = int(np.floor(row["fraction"] * n_unlabeled + 1e-9))
        assert row["selected_count"] == expected
        # fresh initialization: the round started from a seeded re-draw
        redraw = init_model(config, row["init_seed"])
        assert params_digest(redraw.params) == row["init_weights_sha256"]
    digests = {row["init_weights_sha256"] for row in report}
    assert len(digests) == len(report)  # every round re-initialized differently
    assert all(row["pseudo_label_accuracy"] is None or
               0.0 <= row["pseudo_label_accuracy"] <= 1.0 for row in report)


@pytest.mark.parametrize("shift", [0, 1])
def test_pseudo_label_accuracy_scores_the_labels_each_round_trains_on(monkeypatch, shift):
    # shift 1 trains each round on shifted pseudo-labels, which the report must score
    ds, hidden = tiny_dataset()
    pseudo_label = training.pseudo_label
    monkeypatch.setattr(training, "pseudo_label", lambda model, bags: [
        replace(r, predicted_class=(r.predicted_class + shift) % 3)
        for r in pseudo_label(model, bags)])
    trained_on = []
    train = training.train_supervised

    def recording(init_seed, train_bags, *args):
        trained_on.append([(b.id, b.label) for b in train_bags if b.id in hidden])
        return train(init_seed, train_bags, *args)

    monkeypatch.setattr(training, "train_supervised", recording)
    _, report = run_curriculum(ds, tiny_model_config(), tiny_train_config(max_epochs=2),
                               hidden, early_abort_drop=None)
    assert len(trained_on) == len(report) == 6
    for row, pseudo in zip(report, trained_on):
        assert row["selected_count"] == len(pseudo)
        want = float(np.mean([label == hidden[i] for i, label in pseudo])) if pseudo else None
        assert row["pseudo_label_accuracy"] == want, row["round"]
    assert any(trained_on[1:])


def test_each_round_trains_on_the_previous_rounds_pseudo_labels(monkeypatch):
    ds, hidden = tiny_dataset()
    models, trained_on, labelled = [], [], []
    train, pseudo_label = training.train_supervised, training.pseudo_label

    def recording_train(init_seed, train_bags, *args):
        trained_on.append({b.id: b.label for b in train_bags if b.id in hidden})
        model, history = train(init_seed, train_bags, *args)
        models.append(model)
        return model, history

    def recording_pseudo_label(model, bags):
        assert model is models[-1]  # the model of the round before
        records = pseudo_label(model, bags)
        labelled.append({r.bag_id: r.predicted_class for r in records})
        return records

    monkeypatch.setattr(training, "train_supervised", recording_train)
    monkeypatch.setattr(training, "pseudo_label", recording_pseudo_label)
    run_curriculum(ds, tiny_model_config(), tiny_train_config(max_epochs=1), hidden,
                   early_abort_drop=None)
    assert len(trained_on) == len(ROUND_FRACTIONS) == len(labelled) + 1
    assert trained_on[0] == {}
    for pseudo, selected in zip(labelled, trained_on[1:]):
        assert selected and selected == {i: pseudo[i] for i in selected}


@pytest.mark.parametrize("round_2, rounds_run, best_round", [(0.4, 2, 1), (0.85, 6, 3)])
def test_early_abort_fires_on_a_drop_beyond_its_threshold(monkeypatch, caplog, round_2,
                                                          rounds_run, best_round):
    # each round reports a chosen validation accuracy; the default threshold is 0.10
    accuracies = iter([0.9, round_2, 0.95, 0.95, 0.95, 0.95])
    models = []
    train = training.train_supervised

    def reporting(*args):
        model, history = train(*args)
        history["best_val_balanced_accuracy"] = next(accuracies)
        models.append(model)
        return model, history

    monkeypatch.setattr(training, "train_supervised", reporting)
    ds, hidden = tiny_dataset()
    with caplog.at_level(logging.WARNING, logger="milfusion.training"):
        model, report = run_curriculum(ds, tiny_model_config(),
                                       tiny_train_config(max_epochs=1), hidden)
    assert len(report) == len(models) == rounds_run
    aborts = [r for r in caplog.records if r.getMessage().startswith("early abort")]
    assert len(aborts) == (rounds_run < len(ROUND_FRACTIONS))
    assert params_digest(model.params) == params_digest(models[best_round - 1].params)


@pytest.mark.parametrize("ablate", [False, True], ids=["all_runnable", "one_skipped"])
def test_curriculum_prepares_each_bag_once(monkeypatch, ablate):
    # six rounds train on the labeled bags and pseudo-label every unlabeled one,
    # yet each is prepared once; an unlabeled bag no enabled modality can run
    # (cine-empty with doppler off) is skipped, not refused, and never prepared
    ds, hidden = tiny_dataset()
    unlabeled = iterate_split(ds, "unlabeled")
    skipped = unlabeled[3]
    if ablate:
        i = [b.id for b in ds.bags].index(skipped.id)
        ds.bags[i] = Bag(skipped.id, [], skipped.doppler_instances, skipped.label)
    config = tiny_model_config(use_doppler=not ablate)
    calls = Counter()
    counting(monkeypatch, calls, training, "prepare_bag", key=lambda cfg, bag: bag.id)
    _, report = run_curriculum(ds, config, tiny_train_config(max_epochs=1), hidden,
                               early_abort_drop=None)
    runnable = [b.id for b in unlabeled if not (ablate and b.id == skipped.id)]
    want = [b.id for b in iterate_split(ds, "train")] + runnable
    assert calls == Counter({("prepare_bag", bag_id): 1 for bag_id in want})
    assert len(report) == len(ROUND_FRACTIONS)
    assert report[-1]["selected_count"] == len(runnable)


def test_curriculum_without_unlabeled_equals_supervised():
    ds, _ = tiny_dataset(n_unlabeled=0)
    config = tiny_model_config()
    tc = tiny_train_config(max_epochs=3)
    curr_model, report = run_curriculum(ds, config, tc)
    sup_model, _ = train_supervised(tc.seed + 1, iterate_split(ds, "train"),
                                    iterate_split(ds, "val"), config, tc)
    assert len(report) == 1
    assert params_digest(curr_model.params) == params_digest(sup_model.params)


def test_pseudo_subset_disjoint_from_labeled_set():
    ds, hidden = tiny_dataset()
    unlabeled = iterate_split(ds, "unlabeled")
    for bag in unlabeled:
        assert bag.label is None  # enforced by the type; truth lives only in `hidden`
    labeled_ids = {b.id for b in iterate_split(ds, "train")}
    unlabeled_ids = {b.id for b in unlabeled}
    assert not labeled_ids & unlabeled_ids
    model = init_model(tiny_model_config(), 0)
    selected = select_confident(pseudo_label(model, unlabeled), 0.4)
    assert selected <= unlabeled_ids
    assert not selected & labeled_ids


def test_curriculum_deterministic():
    ds, hidden = tiny_dataset()
    tc = tiny_train_config(max_epochs=2, patience=2)
    m1, r1 = run_curriculum(ds, tiny_model_config(), tc, hidden)
    m2, r2 = run_curriculum(ds, tiny_model_config(), tc, hidden)
    assert params_digest(m1.params) == params_digest(m2.params)
    assert r1 == r2


def test_curriculum_not_worse_than_supervised():
    ds, hidden = tiny_dataset(n_labeled=30, n_unlabeled=40, signal_strength=6.0)
    config = tiny_model_config()
    tc = tiny_train_config(max_epochs=8, patience=4)
    test_bags = iterate_split(ds, "test")
    sup_model, _ = train_supervised(tc.seed + 1, iterate_split(ds, "train"),
                                    iterate_split(ds, "val"), config, tc)
    sup = balanced_accuracy(predictions_for(sup_model, test_bags))
    curr_model, _ = run_curriculum(ds, config, tc, hidden)
    curr = balanced_accuracy(predictions_for(curr_model, test_bags))
    assert curr >= sup - 0.02


def test_curriculum_requires_train_split():
    rng = np.random.default_rng(9)
    bag = make_bag(rng, bag_id="v0", label=0)
    from milfusion.data import Dataset

    ds = Dataset([bag], {"v0": "val"})
    with pytest.raises(UsageError):
        run_curriculum(ds, tiny_model_config(), tiny_train_config())


def test_curriculum_requires_val_split():
    ds, _ = tiny_dataset(n_val=1)
    val_id = iterate_split(ds, "val")[0].id
    ds.split_assignment[val_id] = "test"
    with pytest.raises(UsageError):
        run_curriculum(ds, tiny_model_config(), tiny_train_config())
