"""The chunked tape-free inference path against the taped forward pass."""

import logging

import numpy as np
import pytest

from milfusion.data import generate_synthetic, iterate_split
from milfusion.errors import BagSkipError
from milfusion.model import INFERENCE_CHUNK, forward, init_model, predict_probs
from milfusion.training import (
    ROUND_FRACTIONS,
    PseudoLabelRecord,
    predictions_for,
    pseudo_label,
    select_confident,
)

from helpers import make_bag, random_model, tiny_model_config
from test_acceptance import REFERENCE_DATA, REFERENCE_MODEL


@pytest.fixture(scope="module")
def reference_bags():
    ds, _ = generate_synthetic(REFERENCE_DATA)
    return iterate_split(ds, "val") + iterate_split(ds, "unlabeled")


@pytest.mark.parametrize("init_seed", [1, 2, 3])
def test_chunked_inference_matches_taped_forward(reference_bags, init_seed):
    model = init_model(REFERENCE_MODEL, init_seed)
    kept, probs = predict_probs(model, reference_bags)
    assert [b.id for b in kept] == [b.id for b in reference_bags]
    taped = np.stack([forward(model, bag).probs.value() for bag in reference_bags])
    assert np.max(np.abs(probs - taped)) <= 1e-12
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(taped, axis=1))

    records = pseudo_label(model, reference_bags)
    taped_records = [PseudoLabelRecord(bag.id, int(np.argmax(p)), float(p.max()))
                     for bag, p in zip(reference_bags, taped)]
    assert [r.predicted_class for r in records] == [r.predicted_class for r in taped_records]
    for fraction in ROUND_FRACTIONS:
        assert select_confident(records, fraction) == select_confident(taped_records, fraction)


# (cine, doppler) instance counts cycled over the bags: both, no cine, no doppler
BAG_SHAPES = [(2, 2), (0, 3), (3, 0), (1, 1), (4, 2)]


@pytest.mark.parametrize("overrides", [{}, {"use_doppler": False}, {"use_cine": False}])
def test_degenerate_bags_over_several_chunks(overrides, caplog):
    model = random_model(tiny_model_config(**overrides), seed=3)
    rng = np.random.default_rng(5)
    bags = []
    for i in range(2 * INFERENCE_CHUNK + 7):
        n_cine, n_doppler = BAG_SHAPES[i % len(BAG_SHAPES)]
        bags.append(make_bag(rng, bag_id=f"b{i:03d}", n_cine=n_cine, n_doppler=n_doppler))
    expected = {}
    for bag in bags:
        try:
            expected[bag.id] = forward(model, bag).probs.value()
        except BagSkipError:
            pass
    skipped = [b.id for b in bags if b.id not in expected]
    assert bool(skipped) == bool(overrides)  # an ablated modality skips bags

    with caplog.at_level(logging.WARNING):
        kept, probs = predict_probs(model, bags)
    assert [b.id for b in kept] == [b.id for b in bags if b.id in expected]
    for bag, p in zip(kept, probs):
        assert np.max(np.abs(p - expected[bag.id])) <= 1e-12
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == len(skipped)
    assert all(any(bag_id in m for m in warned) for bag_id in skipped)

    assert [r.bag_id for r in predictions_for(model, bags).rows] == [b.id for b in kept]
    assert [r.bag_id for r in pseudo_label(model, bags)] == [b.id for b in kept]


def test_no_bag_to_score():
    model = random_model(tiny_model_config(use_doppler=False), seed=4)
    rng = np.random.default_rng(6)
    only_doppler = [make_bag(rng, bag_id=f"d{i}", n_cine=0, n_doppler=2)
                    for i in range(INFERENCE_CHUNK + 1)]
    for bags in ([], only_doppler):
        kept, probs = predict_probs(model, bags)
        assert kept == [] and probs.shape == (0, 3)
