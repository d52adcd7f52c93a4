import copy
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

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
from milfusion.encoders import EncoderConfig
from milfusion.errors import ConfigError, FormatError, MilError, UsageError, exit_code_for
from milfusion.model import ModelConfig, load_model, save_model

from helpers import bag_value_ranges, random_model, tiny_model_config, write_feature_values
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
    victim = tmp_path / "features.bin"
    victim.unlink()
    with pytest.raises(FormatError, match=victim.name):
        load(tmp_path)


def test_unknown_modality_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["bags"][0]["xray_shapes"] = [[2, 2]]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="xray"):
        load(tmp_path)


def test_shape_mismatch_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["bags"][0]["cine_shapes"][0][0] = [1, 2, 3]  # the shape of bag 0's first run
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=manifest["bags"][0]["id"]):
        load(tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_is_format_error(tmp_path, value):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][3]  # a bag in the middle of the file
    write_feature_values(tmp_path, bag_value_ranges(manifest)[rec["id"]][1] - 1, value)
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*'features.bin'.*non-finite") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("cut", [3, 8])
def test_truncated_feature_file_is_format_error(tmp_path, cut):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][-1]  # the first bag whose values are cut
    path = tmp_path / "features.bin"
    _, end = bag_value_ranges(manifest)[rec["id"]]  # after it: relevance and the digest
    path.write_bytes(path.read_bytes()[:8 * end - cut])
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*bytes"):
        load(tmp_path)


def test_run_count_beyond_any_memory_is_format_error(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][0]
    rec["cine_shapes"][0][1] = 10 ** 15  # petabytes of values: the file is checked first
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*'features.bin' holds") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


def test_short_feature_file_names_the_first_bag_it_cuts(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][2]
    start, end = bag_value_ranges(manifest)[rec["id"]]
    path = tmp_path / "features.bin"
    path.write_bytes(path.read_bytes()[:4 * (start + end)])  # mid-way through the bag
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*'features.bin'.*bytes") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("extra", [3, 8])
def test_overlong_feature_file_is_format_error(tmp_path, extra):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    path = tmp_path / "features.bin"
    path.write_bytes(path.read_bytes() + bytes(extra))
    with pytest.raises(FormatError, match=f"'features.bin' holds {path.stat().st_size} bytes"
                       ) as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


def test_feature_values_without_bags_are_refused(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "bags": []}))
    with pytest.raises(FormatError, match="'features.bin' holds .* the 0 bags") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


def test_bag_without_instances_in_the_manifest_is_format_error(tmp_path):
    empty = hashlib.sha256(b"")  # no values, no relevance: the file is its digest
    (tmp_path / "manifest.json").write_text(json.dumps({
        "format_version": 4, "features_sha256": empty.hexdigest(),
        "bags": [{"id": "a", "label": 0, "split": "train", "cine_shapes": [],
                  "doppler_shapes": []}]}))
    (tmp_path / "features.bin").write_bytes(empty.digest())
    with pytest.raises(FormatError, match="'a' has no instances") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


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


def rewrite_features(root, values, relevance):
    """Write ``features.bin`` and the manifest's digest for these sections, as ``save`` would."""
    body = np.concatenate([values, relevance]).astype("<f8").tobytes()
    digest = hashlib.sha256(body)
    (root / "features.bin").write_bytes(body + digest.digest())
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["features_sha256"] = digest.hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def feature_sections(root):
    """The values and the relevance section of a dataset's ``features.bin``."""
    manifest = json.loads((root / "manifest.json").read_text())
    end = max(end for _, end in bag_value_ranges(manifest).values())
    data = np.frombuffer((root / "features.bin").read_bytes()[:-32], dtype="<f8")
    return data[:end], data[end:]


@pytest.mark.parametrize("shorter", [True, False])
def test_relevance_must_have_one_entry_per_cine_shape(tmp_path, shorter):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    values, relevance = feature_sections(tmp_path)
    n_cine = relevance.size
    # the digest matches, so only the size of the relevance section is wrong
    rewrite_features(tmp_path, values,
                     relevance[:-1] if shorter else np.append(relevance, 0.5))
    with pytest.raises(FormatError, match=f"'features.bin' holds .* {n_cine} relevance values"
                       ) as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("value", [1.5, -0.5, np.inf])
def test_relevance_outside_the_unit_interval_is_refused(tmp_path, value):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    values, relevance = feature_sections(tmp_path)
    bag = ds.bags[3]
    index = sum(len(b.cine_instances) for b in ds.bags[:3]) + 1  # bag 3's second cine instance
    relevance = relevance.copy()
    relevance[index] = value
    rewrite_features(tmp_path, values, relevance)
    with pytest.raises(FormatError, match=f"'{bag.id}'.*'features.bin'.*relevance") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


def test_relevance_nan_loads_as_none(tmp_path):
    inst = Instance("cine", np.arange(4.0), (1, 2, 2), relevance=0.25)
    save(Dataset([Bag("b0", [inst, replace(inst, relevance=None)], [], label=0)],
                 {"b0": "train"}), tmp_path)
    _, relevance = feature_sections(tmp_path)
    assert relevance[0] == 0.25 and np.isnan(relevance[1])
    assert [i.relevance for i in load(tmp_path).bags[0].cine_instances] == [0.25, None]


@pytest.mark.parametrize("shape", [[4.0, 1, 8], [4, True, 8], [4, 0, 8], [4, 1, "8"]])
def test_dimension_that_is_not_a_positive_integer_is_refused(tmp_path, shape):
    ds, _ = generate_synthetic(small_config(cine_shape=(4, 1, 8)))
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # bag 0 has shown [4, 1, 8] already, and 4.0 and true hash like 4 and 1
    rec = manifest["bags"][2]
    rec["cine_shapes"][0][0] = shape
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*positive integers") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("entry", ["../outside.bin", "features/../../outside.bin",
                                   "{root}/outside.bin"])
def test_feature_file_outside_the_directory_is_format_error(tmp_path, entry):
    ds, _ = generate_synthetic(small_config())
    root = tmp_path / "data"
    save(ds, root)
    rec = json.loads((root / "manifest.json").read_text())["bags"][0]
    # the dataset's own bytes, so only the path check can refuse them
    (root / "features.bin").rename(tmp_path / "outside.bin")
    (root / "features.bin").symlink_to(entry.format(root=tmp_path))
    with pytest.raises(FormatError, match=rec["id"]):
        load(root)


@pytest.mark.parametrize("link", ["file", "directory"])
def test_symlink_out_of_the_directory_is_format_error(tmp_path, link):
    ds, _ = generate_synthetic(small_config())
    root = tmp_path / "data"
    save(ds, root)
    rec = json.loads((root / "manifest.json").read_text())["bags"][0]
    # the link leads to the dataset's own bytes, so only the path check can refuse it
    if link == "file":
        (root / "features.bin").rename(tmp_path / "outside.bin")
        (root / "features.bin").symlink_to(tmp_path / "outside.bin")
    else:  # a link inside the directory, through a directory link that leads out
        (tmp_path / "elsewhere").mkdir()
        (root / "features.bin").rename(tmp_path / "elsewhere" / "features.bin")
        (root / "alias").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        (root / "features.bin").symlink_to(root / "alias" / "features.bin")
    with pytest.raises(FormatError, match=f"{rec['id']}.*outside the directory") as info:
        load(root)
    assert exit_code_for(info.value) == 2


def test_symlink_inside_the_directory_is_followed(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    (tmp_path / "features.bin").rename(tmp_path / "moved.bin")
    (tmp_path / "features.bin").symlink_to(tmp_path / "moved.bin")
    assert load(tmp_path) == ds


def test_symlinked_directory_inside_the_directory_is_followed(tmp_path):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    (tmp_path / "store").mkdir()
    (tmp_path / "features.bin").rename(tmp_path / "store" / "moved.bin")
    (tmp_path / "alias").symlink_to(tmp_path / "store", target_is_directory=True)
    (tmp_path / "features.bin").symlink_to("alias/moved.bin")
    assert load(tmp_path) == ds


@pytest.mark.parametrize("name", ["manifest.json", "hidden_truth.json"])
def test_dataset_json_symlinked_outside_is_format_error(tmp_path, name):
    ds, hidden = generate_synthetic(small_config())
    root = tmp_path / "data"
    save(ds, root, hidden)
    # the dataset's own file, so only the path check can refuse it
    (root / name).rename(tmp_path / name)
    (root / name).symlink_to(tmp_path / name)
    with pytest.raises(FormatError, match=f"'{name}' points outside the directory") as info:
        load(root) if name == "manifest.json" else load_hidden_truth(root)
    assert exit_code_for(info.value) == 2


def test_dataset_json_symlinked_inside_is_followed(tmp_path):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    for name in ("manifest.json", "hidden_truth.json"):
        (tmp_path / name).rename(tmp_path / f"real_{name}")
        (tmp_path / name).symlink_to(tmp_path / f"real_{name}")
    assert load(tmp_path) == ds
    assert load_hidden_truth(tmp_path) == hidden


def test_directory_part_leading_outside_is_format_error(tmp_path):
    save_model(random_model(tiny_model_config(), seed=2), tmp_path / "ckpt")
    tensors = tmp_path / "ckpt" / "tensors"
    # the checkpoint's own parameters, reached through a directory outside it
    tensors.rename(tmp_path / "elsewhere")
    tensors.symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    with pytest.raises(FormatError, match="'tensors/params.bin' points outside the directory"
                       ) as info:
        load_model(tmp_path / "ckpt")
    assert exit_code_for(info.value) == 2


def test_tensors_directory_symlinked_inside_is_followed(tmp_path):
    model = random_model(tiny_model_config(), seed=2)
    save_model(model, tmp_path)
    (tmp_path / "tensors").rename(tmp_path / "store")
    (tmp_path / "tensors").symlink_to("store", target_is_directory=True)
    loaded = load_model(tmp_path)
    assert all(np.array_equal(loaded.params[name], value)
               for name, value in model.params.items())


@pytest.mark.parametrize("target", ["inside", "outside"])
def test_dangling_symlink(tmp_path, target):
    ds, _ = generate_synthetic(small_config())
    root = tmp_path / "data"
    save(ds, root)
    rec = json.loads((root / "manifest.json").read_text())["bags"][0]
    (root / "features.bin").unlink()
    (root / "features.bin").symlink_to((root if target == "inside" else tmp_path) / "gone.bin")
    message = "missing feature file" if target == "inside" else "outside the directory"
    with pytest.raises(FormatError, match=f"{rec['id']}.*{message}") as info:
        load(root)
    assert exit_code_for(info.value) == 2


COUNT_OPENS = """
import json, os, sys
from milfusion.data import load
from milfusion.model import load_model

kind, root = sys.argv[1], os.path.realpath(sys.argv[2])
opened, resolved = [], []
sys.addaudithook(lambda event, args: event == "open" and opened.append(os.fspath(args[0])))
realpath = os.path.realpath
os.path.realpath = lambda *a, **k: resolved.append(a) or realpath(*a, **k)
if kind == "dataset":
    size = len(load(root).bags)
else:
    size = len(load_model(root).params)
print(json.dumps({"size": size, "opened": sorted(os.path.relpath(p, root) for p in opened),
                  "resolved": len(resolved)}))
"""


def count_opens(kind, root):
    """Files opened and paths resolved by one load of a dataset or checkpoint,
    and the number of bags or parameters it returned.

    Counted in a child process: an audit hook sees every open, and cannot be
    removed.
    """
    proc = subprocess.run([sys.executable, "-c", COUNT_OPENS, kind, str(root)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(proc.stdout)


def test_load_opens_one_feature_file(tmp_path):
    """Files opened and paths resolved during load do not grow with the bag count."""
    counts = {}
    for n in (5, 50):
        ds, _ = generate_synthetic(small_config(n_labeled=n - 3, n_val=1, n_test=1,
                                                n_unlabeled=1))
        save(ds, tmp_path / str(n))
        counts[n] = count_opens("dataset", tmp_path / str(n))
        assert counts[n].pop("size") == n
    assert counts[5] == counts[50]
    assert counts[5]["opened"] == ["features.bin", "manifest.json"]
    assert counts[5]["resolved"] <= 3


def test_load_pauses_garbage_collection(tmp_path):
    # about 1000 instances and their manifest entries: without the pause the
    # load sets off several collections at the default thresholds
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path / "good")
    save(ds, tmp_path / "bad")
    (tmp_path / "bad" / "features.bin").unlink()
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(count)
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            before = len(collections)
            loaded = load(tmp_path / "good")
            assert len(collections) == before
            assert gc.isenabled() is enabled
            assert loaded == ds
            with pytest.raises(FormatError):
                load(tmp_path / "bad")
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("config", [
    tiny_model_config(),
    ModelConfig(EncoderConfig("cine", 64), EncoderConfig("doppler", 192)),  # the default model
], ids=["tiny", "default"])
def test_checkpoint_is_two_files(tmp_path, config):
    model = random_model(config, seed=2)
    save_model(model, tmp_path)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if not p.is_dir())
    assert written == ["manifest.json", "tensors/params.bin"]
    counts = count_opens("checkpoint", tmp_path)
    assert counts["size"] == len(model.params)
    assert counts["opened"] == ["manifest.json", "tensors/params.bin"]
    assert counts["resolved"] <= 3


def test_failed_dataset_writes_keep_the_previous_files(tmp_path):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other, other_hidden = generate_synthetic(small_config(seed=8))
    # a bag without a split fails the save before any file is replaced
    broken = copy.copy(other)
    broken.split_assignment = dict(other.split_assignment)
    del broken.split_assignment[other.bags[3].id]
    with pytest.raises(KeyError):
        save(broken, tmp_path, other_hidden)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # the hidden truth is not JSON: the manifest is untouched
    with pytest.raises(TypeError):
        save(other, tmp_path, {**other_hidden, "x": object()})
    assert (tmp_path / "hidden_truth.json").read_bytes() == before["hidden_truth.json"]
    assert (tmp_path / "manifest.json").read_bytes() == before["manifest.json"]
    other.bags[0].label = object()  # the manifest is not JSON
    with pytest.raises(TypeError):
        save(other, tmp_path, other_hidden)
    assert (tmp_path / "manifest.json").read_bytes() == before["manifest.json"]
    assert sorted(before) == sorted(p.name for p in tmp_path.iterdir())  # no temporary file
    save(ds, tmp_path, hidden)
    assert load(tmp_path) == ds


def test_failed_save_leaves_features_and_manifest_of_one_dataset(tmp_path):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    # the same seed draws the same shapes, so the feature file's size cannot tell
    # the two datasets apart
    flat, flat_hidden = generate_synthetic(small_config(signal_strength=0.0))
    with pytest.raises(TypeError):  # the hidden truth is not JSON
        save(flat, tmp_path, {**flat_hidden, "x": object()})
    assert load(tmp_path) == ds


class Killed(Exception):
    """Stands for the end of a process that is killed mid-save."""


def test_save_killed_before_its_manifest_leaves_a_pair_that_load_refuses(tmp_path,
                                                                         monkeypatch):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    size = (tmp_path / "features.bin").stat().st_size
    # the same seed draws the same shapes, so only the digest tells the two saves apart
    flat, flat_hidden = generate_synthetic(small_config(signal_strength=0.0))
    replace_file = os.replace

    def killed_at_the_manifest(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise Killed
        replace_file(src, dst)

    monkeypatch.setattr(os, "replace", killed_at_the_manifest)
    with pytest.raises(Killed):
        save(flat, tmp_path, flat_hidden)
    monkeypatch.undo()
    assert (tmp_path / "features.bin").stat().st_size == size  # the new values are in place
    with pytest.raises(FormatError, match="'features.bin'.*features_sha256") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2
    save(flat, tmp_path, flat_hidden)  # a save that completes writes a pair that loads
    assert load(tmp_path) == flat


def test_malformed_manifest_json(tmp_path):
    tmp_path.joinpath("manifest.json").write_text("{not json")
    with pytest.raises(FormatError):
        load(tmp_path)


@pytest.mark.parametrize("name", ["manifest.json", "hidden_truth.json"])
def test_json_that_is_not_utf8_is_format_error(tmp_path, name):
    (tmp_path / name).write_bytes(b'{"train_000": "\xff"}')
    with pytest.raises(FormatError, match=f"{name} is not valid JSON") as info:
        load(tmp_path) if name == "manifest.json" else load_hidden_truth(tmp_path)
    assert exit_code_for(info.value) == 2


def test_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load(tmp_path / "nowhere")


def test_manifest_schema_keys(tmp_path):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"bags", "format_version", "features_sha256"}
    assert manifest["format_version"] == 4
    for rec, bag in zip(manifest["bags"], ds.bags):
        assert set(rec) == {"id", "label", "split", "cine_shapes", "doppler_shapes"}
        for field, instances in (("cine_shapes", bag.cine_instances),
                                 ("doppler_shapes", bag.doppler_instances)):
            # runs of one shape: the generator draws one shape per modality
            assert rec[field] == ([[list(instances[0].shape), len(instances)]]
                                  if instances else [])
    raw = (tmp_path / "features.bin").read_bytes()
    assert hashlib.sha256(raw[:-32]).digest() == raw[-32:]
    assert manifest["features_sha256"] == raw[-32:].hex()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "features.bin", "hidden_truth.json", "manifest.json"]


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


@pytest.mark.parametrize("relevance", [1.5, -0.5, math.nan, math.inf, True, np.bool_(False),
                                       "0.5", [0.5]])
def test_relevance_must_be_a_number_in_the_unit_interval(relevance):
    with pytest.raises(FormatError, match="relevance must be None or a number in \\[0, 1\\]"):
        Instance("cine", np.zeros(4), (1, 2, 2), relevance=relevance)


@pytest.mark.parametrize("relevance", [0, 1, np.int64(1), np.float32(0.5), -0.0])
def test_relevance_is_stored_as_a_float(relevance):
    inst = Instance("cine", np.zeros(4), (1, 2, 2), relevance=relevance)
    assert type(inst.relevance) is float and inst.relevance == relevance


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_refuses_non_finite_features_before_replacing_a_file(tmp_path, value):
    ds, hidden = generate_synthetic(small_config())
    save(ds, tmp_path, hidden)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    other, other_hidden = generate_synthetic(small_config(seed=8))
    bag = other.bags[3]
    bag.doppler_instances[-1].features[2] = value
    with pytest.raises(FormatError, match=f"'{bag.id}'.*non-finite") as info:
        save(other, tmp_path, other_hidden)
    assert exit_code_for(info.value) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("run", [[[4, 8, 8], 0], [[4, 8, 8], 2.0], [[4, 8, 8], True],
                                 [[4, 8, 8], "2"], [4, 8], [[4, 8, 8]], [[4, 8, 8], 1, 1],
                                 "x", [{"d": 4}, 1]])
def test_bad_run_is_refused_naming_the_bag(tmp_path, run):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rec = manifest["bags"][2]
    rec["cine_shapes"][0] = run
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"'{rec['id']}'.*cine_shapes run") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


def test_instance_invariants():
    with pytest.raises(FormatError):
        Instance("doppler", np.zeros(4), (2, 3))
    with pytest.raises(FormatError):
        Instance("doppler", np.zeros(4), (2, 2), relevance=0.5)
    with pytest.raises(FormatError):
        Instance("mri", np.zeros(4), (2, 2))


@pytest.mark.parametrize("bag_id", ["", ".", "..", "a/b", "../../escaped", "a\\b",
                                    "a\0b", 7])
def test_bag_id_must_be_a_plain_file_name(tmp_path, bag_id):
    inst = Instance("doppler", np.zeros(4), (2, 2))
    root = tmp_path / "deep" / "data"
    with pytest.raises(FormatError, match="plain file name"):
        save(Dataset([Bag(bag_id, [], [inst], label=0)], {bag_id: "train"}), root)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("bag_id", ["../../escaped", "a/b", ".."])
def test_manifest_bag_id_that_is_not_a_plain_file_name_is_refused(tmp_path, bag_id):
    ds, _ = generate_synthetic(small_config())
    save(ds, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["bags"][0]["id"] = bag_id  # its shapes still match the feature file
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="plain file name") as info:
        load(tmp_path)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("label", [5, 3, -1])
def test_hidden_truth_labels_must_be_classes(tmp_path, label):
    (tmp_path / "hidden_truth.json").write_text(json.dumps({"unlabeled_000": 0,
                                                            "unlabeled_001": label}))
    with pytest.raises(FormatError, match=f"'unlabeled_001'.*{label}"):
        load_hidden_truth(tmp_path)


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
