"""Loaded bags against the same bags built by hand, bit for bit.

``data.load`` builds no ``Instance``: a loaded bag's row blocks are reshapes of
``features.bin``, and its instance tuples are views built on each read. Every
path the program runs on a bag (batched inference, preparing a training bag
and one training step) must give, byte for byte, what it gives on the bag
rebuilt as ``Bag(b.id, b.cine_instances, b.doppler_instances, label=b.label)``
and on the bag that was saved; and none of those paths may build views.
"""

import json

import numpy as np
import pytest

from milfusion import cli, training
from milfusion.data import (
    Bag,
    Dataset,
    Instance,
    generate_synthetic,
    iterate_split,
    load,
    save,
)
from milfusion.encoders import preprocess
from milfusion.errors import DataError, NumericError
from milfusion.model import (
    Plan,
    init_model,
    param_specs,
    param_views,
    predict_probs,
    prepare_bag,
    prepared_step,
    resolve_branches,
)
from milfusion.training import run_curriculum, train_supervised

from helpers import TINY_DOP_SHAPE, tiny_model_config, with_label
from test_acceptance import REFERENCE_DATA, REFERENCE_MODEL
from test_training import tiny_dataset, tiny_train_config


def hand_built_dataset():
    """Bags the generator never makes: mixed frame counts and doppler shapes within
    a bag, a cine-empty and a doppler-empty bag, and a cine instance without relevance."""
    rng = np.random.default_rng(11)

    def cine(frames, relevance=0.5):
        return Instance("cine", rng.standard_normal(9 * frames), (frames, 3, 3), relevance)

    def doppler(shape=TINY_DOP_SHAPE):
        return Instance("doppler", rng.standard_normal(12), shape)

    bags = [
        Bag("mixed", [cine(2), cine(2, 0.9), cine(3), cine(1, 0.1), cine(3)],
            [doppler(), doppler((4, 3)), doppler()], label=0),
        Bag("no_cine", [], [doppler(), doppler()], label=1),
        Bag("no_doppler", [cine(2), cine(2, 0.7), cine(2)], [], label=2),
        Bag("no_relevance", [cine(2), cine(2, None), cine(2)], [doppler()], label=1),
        *(Bag(f"plain_{i}", [cine(2, float(rng.uniform(0.05, 0.95))) for _ in range(3)],
              [doppler() for _ in range(2)], label=i % 3) for i in range(5)),
    ]
    return Dataset(bags, {bag.id: "train" for bag in bags})


CASES = {
    # dataset, model config, init seed of the scoring model
    "seed_7": (lambda: generate_synthetic(REFERENCE_DATA)[0], REFERENCE_MODEL, 1),
    "hand_built": (hand_built_dataset, tiny_model_config(lambda_sa=0.0), 2),
    "hand_built_lambda_10": (hand_built_dataset, tiny_model_config(), 3),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Per case: the dataset directory and the bags that were saved there."""
    out = {}
    for name in ("seed_7", "hand_built"):
        dataset = CASES[name][0]()
        path = tmp_path_factory.mktemp(name)
        save(dataset, path)
        out[name] = path, dataset.bags
    out["hand_built_lambda_10"] = out["hand_built"]
    return out


@pytest.fixture
def views(monkeypatch):
    """Each (bag id, modality) whose instance views are built while the test runs."""
    built = []
    build = Bag._views

    def recording(bag, modality):
        built.append((bag.id, modality))
        return build(bag, modality)

    monkeypatch.setattr(Bag, "_views", recording)
    return built


def rebuilt(bag):
    return Bag(bag.id, bag.cine_instances, bag.doppler_instances, label=bag.label)


def labeled(bags):
    return [bag if bag.label is not None else with_label(bag, 0) for bag in bags]


def three_ways(saved, case):
    """(freshly loaded bags, the bags that were saved), unlabeled ones labeled 0.

    A test computes on the loaded bags before ``rebuilt`` reads their views.
    """
    path, original = saved[case]
    loaded = labeled(load(path).bags)
    return loaded, labeled(original)


class Raised(tuple):
    """The type and text of an exception, as a comparable value."""


def outcome(fn, *args):
    """``fn(*args)``, or the :class:`Raised` of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the point is to compare what is raised
        return Raised((type(exc), str(exc)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_bags_predict_bitwise_as_rebuilt(saved, views, case):
    _, config, seed = CASES[case]
    model = init_model(config, seed)
    loaded, original = three_ways(saved, case)
    kept, probs = predict_probs(model, loaded)
    assert views == []
    for bags in ([rebuilt(bag) for bag in loaded], original):
        other_kept, other = predict_probs(model, bags)
        assert [b.id for b in other_kept] == [b.id for b in kept]
        assert other.tobytes() == probs.tobytes()


def prepared_bytes(config, bag):
    """The bytes of each field of ``prepare_bag``, or what it raises."""
    prepared = outcome(prepare_bag, config, bag)
    if isinstance(prepared, Raised):
        return prepared
    return {name: value.tobytes() if isinstance(value, np.ndarray | np.float64) else value
            for name, value in vars(prepared).items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_bags_prepare_bitwise_as_rebuilt(saved, views, case):
    _, config, _ = CASES[case]
    loaded, original = three_ways(saved, case)
    got = [prepared_bytes(config, bag) for bag in loaded]
    assert views == []
    assert [prepared_bytes(config, rebuilt(bag)) for bag in loaded] == got
    assert [prepared_bytes(config, bag) for bag in original] == got
    for bag, fields in zip(original, got):  # the rows are the per-instance spec's
        if not isinstance(fields, Raised) and fields["run_cine"]:
            want = np.stack([preprocess(config.cine_encoder, inst) for inst in bag.cine_instances])
            assert fields["cine_rows"] == want.tobytes(), bag.id
    refused = {bag.id: fields[0] for bag, fields in zip(loaded, got) if isinstance(fields, Raised)}
    assert refused == ({"no_relevance": DataError} if case == "hand_built_lambda_10" else {})


def step_bytes(model, bag):
    """The loss and gradient buffer of one ``prepared_step``, or what it raises."""
    grad = np.full(sum(int(np.prod(shape)) for _, shape in param_specs(model.config)), np.nan)
    prepared = outcome(prepare_bag, model.config, bag)
    if isinstance(prepared, Raised):
        return prepared
    loss = prepared_step(Plan(model, param_views(model.config, grad)), prepared)
    return np.float64(loss).tobytes(), grad.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_loaded_bag_steps_bitwise_as_rebuilt(saved, views, case):
    _, config, seed = CASES[case]
    model = init_model(config, seed)
    loaded, original = three_ways(saved, case)
    got = [step_bytes(model, bag) for bag in loaded]
    assert views == []
    assert [step_bytes(model, rebuilt(bag)) for bag in loaded] == got
    assert [step_bytes(model, bag) for bag in original] == got


def test_no_runtime_path_builds_an_instance_list(tmp_path, views):
    dataset, _ = tiny_dataset()
    save(dataset, tmp_path)
    dataset = load(tmp_path)
    config, train_config = tiny_model_config(), tiny_train_config(max_epochs=1)
    train, val = iterate_split(dataset, "train"), iterate_split(dataset, "val")
    test, unlabeled = iterate_split(dataset, "test"), iterate_split(dataset, "unlabeled")
    model = init_model(config, 0)

    resolve_branches(config, test)
    predict_probs(model, test + unlabeled)
    train_supervised(1, train, val, config, train_config)
    run_curriculum(dataset, config, train_config)
    assert cli._infer_input_dims(dataset) == (9, 12)
    assert views == []

    # a view's features are the bag's row: a NaN written there is what training sees
    bag = train[3]
    bag.doppler_instances[0].features[:] = np.nan
    assert views == [(bag.id, "doppler")]
    with pytest.raises(NumericError, match=f"non-finite loss on bag {bag.id!r}"):
        train_supervised(1, train, val, config, train_config)


def test_runs_split_in_the_manifest_load_as_the_hand_built_bag(tmp_path):
    original = hand_built_dataset()
    save(original, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][2]  # "no_doppler": one run of three cine instances
    assert rec["cine_shapes"] == [[[2, 3, 3], 3]]
    rec["cine_shapes"] = [[[2, 3, 3], 1], [[2, 3, 3], 2]]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    bag = load(tmp_path).bags[2]
    assert [len(rows) for _, _, rows in bag.blocks["cine"]] == [1, 2]
    assert bag == original.bags[2]
    config = tiny_model_config()
    assert prepared_bytes(config, bag) == prepared_bytes(config, original.bags[2])


def prepared_arrays(prepared):
    return {name: value.tobytes() for name, value in vars(prepared).items()
            if isinstance(value, np.ndarray)}


def test_training_writes_into_no_array_of_the_loaded_bags(tmp_path, monkeypatch):
    # the step writes in place only into arrays it made, never into the rows it reads
    dataset, _ = tiny_dataset()
    save(dataset, tmp_path)
    dataset = load(tmp_path)
    train, val = iterate_split(dataset, "train"), iterate_split(dataset, "val")
    features = train[0].blocks["doppler"][0][2]
    while features.base is not None:
        features = features.base
    snapshots = []

    def recording(config, bag):
        prepared = prepare_bag(config, bag)
        snapshots.append((prepared, prepared_arrays(prepared)))
        return prepared

    monkeypatch.setattr(training, "prepare_bag", recording)
    before = features.tobytes(), [bag.relevance.tobytes() for bag in train]
    train_supervised(1, train, val, tiny_model_config(), tiny_train_config(max_epochs=2))
    assert len(snapshots) == len(train)
    assert all(np.shares_memory(prepared.doppler_rows, features) for prepared, _ in snapshots)
    assert (features.tobytes(), [bag.relevance.tobytes() for bag in train]) == before
    assert [prepared_arrays(prepared) for prepared, _ in snapshots] == [
        arrays for _, arrays in snapshots]
