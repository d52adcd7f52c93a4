"""The tape-free training step against the taped loss and gradient, bit for bit.

``model.bag_step`` must give the loss of ``total_loss`` and the gradient of
``backward`` gathered in ``param_specs`` order, byte for byte, and raise what
they raise. Each step writes into a gradient buffer filled with NaN first, so a
parameter the step forgets to write shows up as a mismatch.
"""

from dataclasses import replace

import numpy as np
import pytest

from milfusion.autodiff import backward
from milfusion.data import Instance, generate_synthetic, iterate_split, with_label
from milfusion.errors import NumericError
from milfusion.model import bag_step, init_model, param_specs, param_views, total_loss
from milfusion.training import TrainConfig, train_supervised

from helpers import TINY_CINE_SHAPE, make_bag, random_model, tiny_model_config
from test_acceptance import REFERENCE_DATA, REFERENCE_MODEL


def taped_step(model, bag):
    """(loss, gradient in ``param_specs`` order) of ``total_loss`` + ``backward``."""
    loss, out = total_loss(model, bag, bag.label)
    gradients = backward(out.tape, loss)
    flat = np.concatenate([gradients[out.param_leaves[name].node_id].data
                           for name, _ in param_specs(model.config)])
    return float(loss.data[0]), flat


def tape_free_step(model, bag):
    grad = np.full(sum(int(np.prod(shape)) for _, shape in param_specs(model.config)), np.nan)
    return bag_step(model, bag, param_views(model.config, grad)), grad


def mismatches(model, bags):
    """Ids of the bags whose loss or gradient differs from the tape's in any bit."""
    bad = []
    for bag in bags:
        loss, grad = tape_free_step(model, bag)
        ref_loss, ref_grad = taped_step(model, bag)
        if (np.float64(loss).tobytes() != np.float64(ref_loss).tobytes()
                or grad.tobytes() != ref_grad.tobytes()):
            bad.append(bag.id)
    return bad


@pytest.fixture(scope="module")
def reference_bags():
    """Every bag of the reference dataset that has a label, hidden ones included."""
    ds, hidden = generate_synthetic(REFERENCE_DATA)
    return (iterate_split(ds, "train") + iterate_split(ds, "val")
            + [with_label(b, hidden[b.id]) for b in iterate_split(ds, "unlabeled")])


def _encoders(**changes):
    return dict(cine_encoder=replace(REFERENCE_MODEL.cine_encoder, **changes),
                doppler_encoder=replace(REFERENCE_MODEL.doppler_encoder, **changes))


REFERENCE_CONFIGS = {
    "default": {},
    "no_cine": {"use_cine": False},
    "no_doppler": {"use_doppler": False},
    "lambda_0": {"lambda_sa": 0.0},
    "relu": _encoders(activation="relu"),
    "two_hidden": _encoders(hidden_sizes=(16, 8)),
}


@pytest.mark.parametrize("init_seed", [1, 2])
@pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
def test_step_is_bitwise_the_taped_step(reference_bags, config_name, init_seed):
    config = replace(REFERENCE_MODEL, **REFERENCE_CONFIGS[config_name])
    model = init_model(config, init_seed)
    assert len(reference_bags) == 620
    assert mismatches(model, reference_bags) == []


def _cine(rng, frames, relevance=0.5):
    shape = (frames, *TINY_CINE_SHAPE[1:])
    return Instance("cine", rng.uniform(-2, 2, size=shape).reshape(-1), shape, relevance)


@pytest.mark.parametrize("overrides", [{}, {"lambda_sa": 0.0}, {"activation": "relu"}])
def test_step_on_hand_built_bags(overrides):
    activation = overrides.pop("activation", "tanh")
    config = tiny_model_config(**overrides)
    config = replace(config,
                     cine_encoder=replace(config.cine_encoder, activation=activation),
                     doppler_encoder=replace(config.doppler_encoder, activation=activation))
    rng = np.random.default_rng(21)
    mixed = make_bag(rng, "mixed_frames", n_cine=0, n_doppler=2, label=2)
    mixed.cine_instances = [_cine(rng, 1), _cine(rng, 4, 0.9), _cine(rng, 2, 0.1)]
    bags = [
        make_bag(rng, "both", n_cine=3, n_doppler=2, label=0),
        make_bag(rng, "no_cine", n_cine=0, n_doppler=3, label=1),
        make_bag(rng, "no_doppler", n_cine=3, n_doppler=0, label=2),
        make_bag(rng, "one_each", n_cine=1, n_doppler=1, label=1),
        mixed,
    ]
    for seed in (3, 4):
        assert mismatches(random_model(config, seed), bags) == []


def test_step_zeroes_unreached_parameters():
    config = tiny_model_config()
    model = random_model(config, seed=5)
    rng = np.random.default_rng(6)
    for bag, unreached in [
        (make_bag(rng, "no_cine", n_cine=0, n_doppler=2),
         ("cine_encoder.", "att_a.", "att_b.", "att_fusion.")),
        (make_bag(rng, "no_doppler", n_cine=2, n_doppler=0),
         ("doppler_encoder.", "att_doppler.", "att_fusion.")),
    ]:
        _, grad = tape_free_step(model, bag)
        views = param_views(config, grad)
        for name, view in views.items():
            if name.startswith(unreached):
                assert view.tobytes() == np.zeros(view.size).tobytes(), name
            else:
                assert np.isfinite(view).all() and np.any(view != 0.0), name


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 -- the point is to compare what is raised
        return type(exc), str(exc)
    return None


def _bad_bags():
    rng = np.random.default_rng(8)
    config = tiny_model_config()
    model = random_model(config, seed=9)
    label_3 = make_bag(rng, "label_3")
    label_3.label = 3
    wrong_modality = make_bag(rng, "wrong_modality", n_cine=2, n_doppler=1)
    wrong_modality.cine_instances.append(wrong_modality.doppler_instances[0])
    flat_gate = random_model(config, seed=10)
    flat_gate.params["output.b"][1] = -1e5  # p[label] underflows to 0
    sharp = random_model(config, seed=11)
    sharp.params["att_a.w"] *= 1e4  # cine attention A underflows to 0 on some instance
    return [
        ("label_3", model, label_3),
        ("no_enabled_instances", random_model(tiny_model_config(use_doppler=False), seed=9),
         make_bag(rng, "only_doppler", n_cine=0, n_doppler=2)),
        ("missing_relevance", model, make_bag(rng, "no_relevance", with_relevance=False)),
        ("wrong_modality", model, wrong_modality),
        ("nll_domain", flat_gate, make_bag(rng, "b1", label=1)),
        ("kl_domain", sharp, make_bag(rng, "b2", n_cine=6)),
    ]


@pytest.mark.parametrize("case", _bad_bags(), ids=lambda case: case[0])
def test_step_raises_what_the_tape_raises(case):
    _, model, bag = case
    expected = _raised(lambda: taped_step(model, bag))
    assert expected is not None
    assert _raised(lambda: tape_free_step(model, bag)) == expected


def test_nan_features_in_memory_raise_numeric_error():
    rng = np.random.default_rng(12)
    bags = [make_bag(rng, f"b{i}", label=i % 3) for i in range(4)]
    bad = bags[2].doppler_instances[0]
    bags[2].doppler_instances[0] = Instance("doppler", np.full(bad.features.size, np.nan),
                                            bad.shape)
    with pytest.raises(NumericError, match="'b2'"):
        train_supervised(1, bags, bags[:1], tiny_model_config(), TrainConfig(max_epochs=1))
