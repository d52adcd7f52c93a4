"""Supervised trainer (SGD with momentum, one bag per step) and the
curriculum-labeling semi-supervised controller.

Training step per bag: ``model.prepared_step`` writes the bag's loss gradient
into a flat buffer laid out like the parameters, without building a tape (it
is bitwise ``total_loss`` + ``backward``), and the trainer refuses a non-finite
loss with NumericError. A run prepares each bag once (``model.prepare_bag``:
its input rows, relevance target and checks; ``ssl`` makes 560 preparations on
the default dataset, not 1,860) and each ``train_supervised`` call resolves the
model's arrays once (``model.Plan``), so a faulty bag is refused before the
first update. Update rule per parameter: v <- momentum * v + grad +
weight_decay * theta; theta <- theta - lr * v.

Curriculum schedule: six rounds selecting the top 0%, 20%, 40%, 60%, 80% and
100% most-confident pseudo-labeled bags. Every round trains a fresh model from
a new random initialization (round r uses init seed = config.seed + r); the
returned model is the round with the best validation balanced accuracy. An
optional early abort fires when a round's validation balanced accuracy falls
more than 10 points below the best round so far.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import backward  # noqa: F401 -- bench/spans.py patches training.backward
from .data import iterate_split
from .errors import ConfigError, NumericError, UsageError
from .metrics import N_CLASSES, PredictionSet, PredRow, balanced_accuracy
from .model import (  # noqa: F401 -- bench/spans.py patches forward and total_loss here
    MMILModel,
    Plan,
    PreparedBag,
    bag_branches,
    forward,
    init_model,
    param_specs,
    param_views,
    params_digest,
    predict_probs,
    prepare_bag,
    prepared_step,
    total_loss,
)

logger = logging.getLogger(__name__)

ROUND_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    momentum: float = 0.9
    max_epochs: int = 30
    patience: int = 6
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is allowed (null update); everything else positive
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigError("learning_rate and weight_decay must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PseudoLabelRecord:
    bag_id: str
    predicted_class: int  # argmax of the probability vector, ties -> lowest index
    confidence: float  # max component of the probability vector


def predictions_for(model, bags):
    """Inference over bags, any iterable of them (a streamed split too), as a
    PredictionSet of each scored bag's id, label and probabilities; degenerate
    bags are skipped (see :func:`model.predict_probs`)."""
    kept, probs = predict_probs(model, bags)
    return PredictionSet([PredRow(bag.id, bag.label, p) for bag, p in zip(kept, probs)])


def validation_balanced_accuracy(model, bags):
    return balanced_accuracy(predictions_for(model, bags))


def _prepare_train_split(model_config, bags):
    """The train split's checks in order: not empty, every label, each ``Bag``'s preparation."""
    bags = list(bags)
    if not bags:
        raise UsageError("dataset has no labeled train split")
    for bag in bags:
        if bag.label is None:
            raise UsageError(f"training bag {bag.id!r} has no label")
    return [bag if isinstance(bag, PreparedBag) else prepare_bag(model_config, bag)
            for bag in bags]


def train_supervised(init_seed, train_bags, val_bags, model_config, train_config):
    """Train one model; returns (model at the best-validation epoch, history).

    ``train_bags`` holds ``Bag``s, ``PreparedBag``s prepared under
    ``model_config``, or both. Checks, before the model exists: a non-empty
    train split, its labels, each ``Bag``'s preparation, then a val split
    whose scorable bags (those ``bag_branches`` can run) hold every class, so
    every epoch is scored. History is a dict with per-epoch rows and the init
    fingerprint used by the fresh-initialization audit.
    """
    prepared = _prepare_train_split(model_config, train_bags)
    val_bags = list(val_bags)
    scorable = {bag.label for bag in val_bags if bag_branches(model_config, bag) is not None}
    missing = [c for c in range(N_CLASSES) if c not in scorable]
    if missing:
        raise UsageError(f"val split has no scorable bag of class {missing[0]} ({len(val_bags)} "
                         "val bags): validation balanced accuracy needs every class")

    model = init_model(model_config, init_seed)
    history = {
        "init_seed": init_seed,
        "init_weights_sha256": params_digest(model.params),
        "epochs": [],
    }
    # One flat buffer each for the parameters, the velocity and the gradient:
    # the update is elementwise, so a few whole-buffer numpy ops give bitwise
    # the same result as one update per named array. model.params are views
    # into ``theta`` and the step writes through views into ``grad``; ``plan``
    # holds both sets of views. The update writes into ``scratch`` instead of
    # allocating temporaries, which cost several times the arithmetic at this size.
    names = [name for name, _ in param_specs(model_config)]
    theta = np.concatenate([model.params[name].reshape(-1) for name in names])
    model = MMILModel(model_config, param_views(model_config, theta))
    velocity = np.zeros_like(theta)
    grad = np.empty_like(theta)
    plan = Plan(model, param_views(model_config, grad))
    scratch = np.empty_like(theta)
    rng = np.random.default_rng(train_config.seed)
    lr = train_config.learning_rate
    mom = train_config.momentum
    wd = train_config.weight_decay

    best_bacc, best_theta, best_epoch, since_best = -np.inf, None, 0, 0  # epoch 1 sets all
    for epoch in range(1, train_config.max_epochs + 1):
        order = rng.permutation(len(prepared))
        epoch_loss = 0.0
        for i in order:
            bag = prepared[i]
            loss_value = prepared_step(plan, bag)
            if not math.isfinite(loss_value):
                raise NumericError(f"non-finite loss on bag {bag.id!r}: {loss_value!r}")
            epoch_loss += loss_value
            velocity *= mom
            np.multiply(theta, wd, out=scratch)
            scratch += grad
            velocity += scratch  # v += grad + wd * theta
            np.multiply(velocity, lr, out=scratch)
            theta -= scratch  # theta -= lr * v
        val_bacc = validation_balanced_accuracy(model, val_bags)
        history["epochs"].append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / len(prepared),
                "val_balanced_accuracy": val_bacc,
            }
        )
        if val_bacc > best_bacc:
            best_bacc = val_bacc
            best_theta = theta.copy()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_config.patience:
                break
    history["best_epoch"] = best_epoch
    history["best_val_balanced_accuracy"] = float(best_bacc)
    return MMILModel(model_config, param_views(model_config, best_theta)), history


def pseudo_label(model, unlabeled_bags):
    """One (bag id, argmax class, max probability) record per non-skipped bag."""
    kept, probs = predict_probs(model, unlabeled_bags)
    classes = np.argmax(probs, axis=1)
    confidences = probs.max(axis=1)
    return [PseudoLabelRecord(bag.id, int(c), float(p))
            for bag, c, p in zip(kept, classes, confidences)]


def select_confident(records, fraction):
    """The floor(fraction * N) bag ids with the highest confidence.

    Ties are broken toward the lexicographically smaller bag id, so the result
    is independent of the input order.
    """
    if not 0.0 <= fraction <= 1.0:
        raise UsageError(f"fraction must be in [0, 1], got {fraction}")
    count = int(np.floor(fraction * len(records) + 1e-9))
    ranked = sorted(records, key=lambda r: (-r.confidence, r.bag_id))
    return {r.bag_id for r in ranked[:count]}


def run_curriculum(dataset, model_config, train_config, hidden_truth=None,
                   early_abort_drop=0.10):
    """Six curriculum rounds; returns (best model, per-round report rows).

    Round 1 trains on the labeled bags alone, exactly as ``train`` does (init
    seed ``config.seed + 1``). Before it, every train bag and every unlabeled
    bag the model can run is prepared once; a round relabels its selected ones.
    A dataset without unlabeled bags runs round 1 only, with a warning, and so
    returns ``train``'s model and one report row.

    ``hidden_truth`` is a diagnostics-only map of unlabeled bag id -> true
    label used solely for the pseudo_label_accuracy report field; no training
    path reads it. ``early_abort_drop`` stops the schedule when a round's
    validation balanced accuracy falls more than that far below the best
    round; pass None to always run all six rounds.
    """
    labeled = _prepare_train_split(model_config, iterate_split(dataset, "train"))
    unlabeled = iterate_split(dataset, "unlabeled")
    prepared = {bag.id: prepare_bag(model_config, bag) for bag in unlabeled
                if bag_branches(model_config, bag) is not None}
    val_bags = iterate_split(dataset, "val")
    fractions = ROUND_FRACTIONS if unlabeled else ROUND_FRACTIONS[:1]

    report = []
    best = None  # (bacc, round, model)
    prev_model = None
    for round_num, fraction in enumerate(fractions, start=1):
        extra, pl_accuracy = [], None
        if round_num > 1:
            records = pseudo_label(prev_model, unlabeled)
            selected = select_confident(records, fraction)
            by_id = {r.bag_id: r for r in records}
            extra = [replace(prepared[b.id], label=by_id[b.id].predicted_class)
                     for b in unlabeled if b.id in selected]
            if hidden_truth and extra:  # scores the labels this round trains on
                pl_accuracy = float(np.mean([b.label == hidden_truth.get(b.id) for b in extra]))

        model, history = train_supervised(train_config.seed + round_num, labeled + extra,
                                          val_bags, model_config, train_config)
        if not unlabeled:  # round 1 trained, so its input checks passed
            logger.warning("no unlabeled bags: degrading to supervised-only training")
        bacc = history["best_val_balanced_accuracy"]
        report.append({  # one rounds.jsonl record
            "round": round_num, "fraction": fraction, "selected_count": len(extra),
            "val_balanced_accuracy": bacc, "pseudo_label_accuracy": pl_accuracy,
            "init_seed": history["init_seed"],
            "init_weights_sha256": history["init_weights_sha256"]})
        logger.info(
            "curriculum round %d: %d pseudo-labeled bags, val balanced accuracy %.4f",
            round_num, len(extra), bacc,
        )
        if best is None or bacc > best[0]:
            best = (bacc, round_num, model)
        elif early_abort_drop is not None and bacc < best[0] - early_abort_drop:
            logger.warning(
                "early abort after round %d: validation balanced accuracy dropped "
                "%.0f points below the best round", round_num, 100 * early_abort_drop,
            )
            break
        prev_model = model
    return best[2], report
