import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from milfusion.data import (
    Bag,
    Dataset,
    Instance,
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    load_hidden_truth,
    save,
)
from milfusion.errors import ConfigError, FormatError, MilError, UsageError
from milfusion.model import load_model, save_model

from helpers import random_model, tiny_model_config
from oracles import centroid_balanced_accuracy

SMALL = dict(n_labeled=24, n_val=18, n_test=18, n_unlabeled=10)


def small_config(seed=7, **overrides):
    kwargs = dict(SMALL, seed=seed)
    kwargs.update(overrides)
    return SyntheticConfig(**kwargs)


# ---------------------------------------------------------------------------
# generator


def test_generator_deterministic():
    d1, h1 = generate_synthetic(small_config())
    d2, h2 = generate_synthetic(small_config())
    assert d1 == d2
    assert h1 == h2
    for b1, b2 in zip(d1.bags, d2.bags):
        for i1, i2 in zip(b1.cine_instances + b1.doppler_instances,
                          b2.cine_instances + b2.doppler_instances):
            assert np.array_equal(i1.features, i2.features)  # bitwise


def test_generator_different_seeds_differ():
    d1, _ = generate_synthetic(small_config(seed=1))
    d2, _ = generate_synthetic(small_config(seed=2))
    assert d1 != d2


def test_no_signal_is_chance_level():
    ds, _ = generate_synthetic(small_config(signal_strength=0.0, n_labeled=60, n_val=60))
    bacc = centroid_balanced_accuracy(iterate_split(ds, "train"), iterate_split(ds, "val"))
    assert 0.15 < bacc < 0.52  # ~1/3 chance, wide tolerance for a 60-bag sample


def test_planted_signal_recoverable_by_centroid_oracle():
    # recorded oracle run: this exact config reaches 1.0 on the held-out split
    ds, _ = generate_synthetic(SyntheticConfig(seed=7, n_labeled=60, n_val=60, n_test=18,
                                               n_unlabeled=0, signal_strength=3.0,
                                               noise_std=1.0))
    bacc = centroid_balanced_accuracy(iterate_split(ds, "train"), iterate_split(ds, "val"))
    assert bacc >= 0.9


def test_class_conditional_doppler_means_differ():
    ds, _ = generate_synthetic(small_config(n_labeled=60))
    by_class = {0: [], 1: [], 2: []}
    for bag in iterate_split(ds, "train"):
        for inst in bag.doppler_instances:
            by_class[bag.label].append(inst.features)
    means = {c: np.mean(by_class[c], axis=0) for c in (0, 1, 2)}
    for a in (0, 1):
        for b in range(a + 1, 3):
            assert np.linalg.norm(means[a] - means[b]) > 1.0


def test_bag_sizes_independent_of_class_priors():
    d1, _ = generate_synthetic(small_config(class_priors=(1 / 3, 1 / 3, 1 / 3)))
    d2, _ = generate_synthetic(small_config(class_priors=(0.8, 0.1, 0.1)))
    sizes1 = [(len(b.cine_instances), len(b.doppler_instances)) for b in d1.bags]
    sizes2 = [(len(b.cine_instances), len(b.doppler_instances)) for b in d2.bags]
    assert sizes1 == sizes2
    labels1 = [b.label for b in d1.bags]
    labels2 = [b.label for b in d2.bags]
    assert labels1 != labels2  # priors did change the labels


def test_relevance_scores_mark_planted_instances():
    ds, _ = generate_synthetic(small_config(relevant_fraction=0.5))
    highs, lows = [], []
    for bag in ds.bags:
        for inst in bag.cine_instances:
            assert 0.0 <= inst.relevance <= 1.0
            (highs if inst.relevance > 0.5 else lows).append(inst.relevance)
        for inst in bag.doppler_instances:
            assert inst.relevance is None
    assert highs and lows
    assert min(highs) > 0.8 and max(lows) < 0.2


def test_unlabeled_bags_have_no_label_but_hidden_truth():
    ds, hidden = generate_synthetic(small_config())
    unlabeled = iterate_split(ds, "unlabeled")
    assert len(unlabeled) == SMALL["n_unlabeled"]
    for bag in unlabeled:
        assert bag.label is None
        assert hidden[bag.id] in (0, 1, 2)
    assert set(hidden) == {b.id for b in unlabeled}


def test_per_modality_signal_strength():
    cfg = small_config(signal_strength={"cine": 0.0, "doppler": 3.0})
    assert cfg.signal("cine") == 0.0
    assert cfg.signal("doppler") == 3.0
    ds, _ = generate_synthetic(cfg)
    assert len(ds.bags) == sum(SMALL.values())


@pytest.mark.parametrize(
    "overrides",
    [
        dict(class_priors=(0.5, 0.5, 0.5)),
        dict(class_priors=(1.0, 0.0)),
        dict(n_labeled=0),
        dict(n_unlabeled=-1),
        dict(cine_bag_size=(5, 2)),
        dict(cine_bag_size=(0, 3), doppler_bag_size=(0, 2)),
        dict(noise_std=-1.0),
        dict(relevant_fraction=1.5),
        dict(signal_strength={"cine": 1.0}),
        dict(seed=-1),
    ],
)
def test_invalid_generator_config(overrides):
    with pytest.raises(ConfigError):
        generate_synthetic(small_config(**overrides))


# ---------------------------------------------------------------------------
# on-disk format


def test_save_load_round_trip(tmp_path):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    loaded = load(tmp_path)
    assert loaded == ds  # field-for-field, features bitwise via Instance.__eq__
    assert loaded.split_assignment == ds.split_assignment
    assert load_hidden_truth(tmp_path) == hidden


def test_round_trip_without_unlabeled(tmp_path):
    ds, _ = generate_synthetic(small_config(n_unlabeled=0))
    save(ds, tmp_path)
    assert load(tmp_path) == ds
    assert load_hidden_truth(tmp_path) is None


def test_relevance_floats_survive_bitwise(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    loaded = load(tmp_path)
    for b1, b2 in zip(sorted(ds.bags, key=lambda b: b.id),
                      sorted(loaded.bags, key=lambda b: b.id)):
        for i1, i2 in zip(b1.cine_instances, b2.cine_instances):
            assert i1.relevance == i2.relevance


def test_missing_feature_file_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    victim = next((tmp_path / "features").iterdir())
    victim.unlink()
    with pytest.raises(FormatError, match=victim.name):
        load(tmp_path)


def test_unknown_modality_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["bags"][0]["instances"][0]["modality"] = "xray"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="xray"):
        load(tmp_path)


def test_shape_mismatch_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["bags"][0]["instances"][0]["shape"] = [1, 2, 3]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=manifest["bags"][0]["id"]):
        load(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_is_format_error(tmp_path, value):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][3]
    inst = rec["instances"][-1]
    path = tmp_path / inst["file"]
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[-1] = value
    path.write_bytes(values.tobytes())
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*'{inst['file']}'.*non-finite"):
        load(tmp_path)


@pytest.mark.parametrize("cut", [3, 8])
def test_truncated_feature_file_is_format_error(tmp_path, cut):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][1]
    path = tmp_path / rec["instances"][0]["file"]
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*bytes"):
        load(tmp_path)


@pytest.mark.parametrize("label", [1.0, True, "1"])
def test_non_integer_label_is_format_error(tmp_path, label):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = next(b for b in manifest["bags"] if b["label"] == 1)
    rec["label"] = label
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=rec["id"]):
        load(tmp_path)


@pytest.mark.parametrize("entry", ["../outside.bin", "features/../../outside.bin",
                                   "{root}/outside.bin", None])
def test_feature_file_outside_the_directory_is_format_error(tmp_path, entry):
    ds, _ = generate_synthetic(small_config())
    root = tmp_path / "data"
    save(ds, root)
    manifest = json.loads((root / "manifest.json").read_text())
    inst = manifest["bags"][0]["instances"][0]
    # a readable file of the right size, so only the path check can refuse it
    (tmp_path / "outside.bin").write_bytes((root / inst["file"]).read_bytes())
    inst["file"] = entry if entry is None else entry.format(root=tmp_path)
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=manifest["bags"][0]["id"]):
        load(root)


def test_malformed_manifest_json(tmp_path):
    tmp_path.joinpath("manifest.json").write_text("{not json")
    with pytest.raises(FormatError):
        load(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load(tmp_path / "nowhere")


def test_manifest_schema_keys(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"bags", "format_version"}
    assert manifest["format_version"] == 1
    rec = manifest["bags"][0]
    assert set(rec) == {"id", "label", "split", "instances"}
    assert set(rec["instances"][0]) == {"modality", "shape", "relevance", "file"}


# ---------------------------------------------------------------------------
# splits


def test_iterate_split_sorted_and_partition():
    ds, _ = generate_synthetic(small_config())
    seen = []
    for split in ("train", "val", "test", "unlabeled"):
        bags = iterate_split(ds, split)
        ids = [b.id for b in bags]
        assert ids == sorted(ids)
        seen.extend(ids)
    assert sorted(seen) == sorted(b.id for b in ds.bags)  # exact partition


def test_iterate_split_sort_contract():
    inst = Instance("doppler", np.zeros(4), (2, 2))
    bags = [Bag("b2", [], [inst], label=0), Bag("b1", [], [inst], label=1)]
    ds = Dataset(bags, {"b1": "train", "b2": "train"})
    assert [b.id for b in iterate_split(ds, "train")] == ["b1", "b2"]


def test_iterate_split_empty_and_unknown():
    ds, _ = generate_synthetic(small_config(n_unlabeled=0))
    assert iterate_split(ds, "unlabeled") == []
    with pytest.raises(UsageError):
        iterate_split(ds, "dev")


# ---------------------------------------------------------------------------
# type invariants


def test_dataset_rejects_labeled_unlabeled_bag():
    inst = Instance("doppler", np.zeros(4), (2, 2))
    with pytest.raises(FormatError):
        Dataset([Bag("u1", [], [inst], label=1)], {"u1": "unlabeled"})


def test_dataset_rejects_missing_label_in_train():
    inst = Instance("doppler", np.zeros(4), (2, 2))
    with pytest.raises(FormatError):
        Dataset([Bag("t1", [], [inst])], {"t1": "train"})


def test_empty_bag_rejected():
    with pytest.raises(FormatError):
        Bag("x", [], [], label=0)


def test_instance_invariants():
    with pytest.raises(FormatError):
        Instance("doppler", np.zeros(4), (2, 3))
    with pytest.raises(FormatError):
        Instance("doppler", np.zeros(4), (2, 2), relevance=0.5)
    with pytest.raises(FormatError):
        Instance("mri", np.zeros(4), (2, 2))


def test_hidden_truth_must_map_ids_to_integer_labels(tmp_path):
    for bad in ([1, 2], {"u0": 1.0}, {"u0": True}, {"u0": "1"}):
        (tmp_path / "hidden_truth.json").write_text(json.dumps(bad))
        with pytest.raises(FormatError, match="integer labels"):
            load_hidden_truth(tmp_path)


# ---------------------------------------------------------------------------
# loader fuzz: one manifest field swapped for a value of another JSON type

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)


def json_kind(value):
    """The JSON type of a parsed value; ints and floats are both numbers."""
    for kind in (bool, type(None), str, list, dict):
        if isinstance(value, kind):
            return kind
    return float


def json_paths(node, path=()):
    """Every key path into a parsed JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


@pytest.fixture(scope="module")
def saved_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    ds, hidden = generate_synthetic(SyntheticConfig(
        seed=5, n_labeled=1, n_val=1, n_test=1, n_unlabeled=1, cine_shape=(2, 2, 2),
        doppler_shape=(2, 3), cine_bag_size=(1, 2), doppler_bag_size=(1, 2)))
    save(ds, root / "data", hidden)
    save_model(random_model(tiny_model_config(), seed=2), root / "ckpt")
    return {"dataset": (root / "data", load), "checkpoint": (root / "ckpt", load_model)}


@pytest.mark.parametrize("artifact", ["dataset", "checkpoint"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loaders_raise_only_mil_error(saved_artifacts, artifact, data):
    root, loader = saved_artifacts[artifact]
    manifest_path = root / "manifest.json"
    original = json.loads(manifest_path.read_text())
    path = data.draw(st.sampled_from(list(json_paths(original))), label="path")
    node = original
    for key in path:
        node = node[key]
    value = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) is not json_kind(node)),
                      label="value")
    edited = value
    if path:
        edited = copy.deepcopy(original)
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    manifest_path.write_text(json.dumps(edited))
    try:
        loader(root)
    except MilError:
        pass
    finally:
        manifest_path.write_text(json.dumps(original))
