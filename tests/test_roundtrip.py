"""Property tests: ``load`` inverts ``save`` and ``load_model`` inverts ``save_model``, bitwise."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from milfusion.data import SPLITS, Bag, Dataset, Instance, load, save
from milfusion.encoders import EncoderConfig
from milfusion.errors import FormatError, exit_code_for
from milfusion.model import ModelConfig, load_model, params_digest, save_model

from helpers import random_model, tiny_model_config

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# every finite float64, -0.0 and subnormals included
FEATURE_VALUES = st.floats(allow_nan=False, allow_infinity=False)
RELEVANCE = st.none() | st.sampled_from([0, 1, 0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def instances(draw, modality):
    if modality == "cine":  # frame counts vary from instance to instance
        shape, relevance = (draw(st.integers(1, 4)), 2, 3), draw(RELEVANCE)
    else:
        shape, relevance = (3, 2), None
    values = draw(arrays(np.float64, math.prod(shape), elements=FEATURE_VALUES))
    return Instance(modality, values, shape, relevance)


@st.composite
def datasets(draw):
    bags, splits = [], {}
    for i in range(draw(st.integers(1, 5))):
        kinds = draw(st.sampled_from([("cine",), ("doppler",), ("cine", "doppler")]))
        cine, doppler = (draw(st.lists(instances(m), min_size=1, max_size=3)) if m in kinds
                         else [] for m in ("cine", "doppler"))
        split = draw(st.sampled_from(SPLITS))
        label = None if split == "unlabeled" else draw(st.integers(0, 2))
        bags.append(Bag(f"bag{i}", cine, doppler, label=label))
        splits[bags[-1].id] = split
    return Dataset(bags, splits)


def fields(dataset):
    """Everything a dataset holds, features as raw bytes and relevance with its type."""
    return [
        (bag.id, bag.label, dataset.split_assignment[bag.id],
         [(inst.modality, inst.shape, inst.relevance, type(inst.relevance),
           inst.features.dtype.str, inst.features.tobytes())
          for inst in bag.cine_instances + bag.doppler_instances])
        for bag in dataset.bags
    ]


@PROPERTY
@given(dataset=datasets())
def test_dataset_round_trip_is_bitwise(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        save(dataset, tmp)
        loaded = load(tmp)
        files = sorted(p.name for p in Path(tmp).iterdir())
    assert loaded == dataset
    assert fields(loaded) == fields(dataset)
    assert files == ["features.bin", "manifest.json"]  # one feature file for all bags


@st.composite
def model_configs(draw):
    embed_dim = draw(st.integers(1, 4))

    def encoder(modality, input_dim):
        hidden = draw(st.lists(st.integers(1, 5), max_size=2))
        return EncoderConfig(modality, input_dim, tuple(hidden), embed_dim)

    use_cine, use_doppler = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return ModelConfig(encoder("cine", 6), encoder("doppler", 6),
                       attention_dim=draw(st.integers(1, 4)),
                       lambda_sa=draw(st.floats(0.0, 20.0)), tau=draw(st.floats(0.01, 2.0)),
                       use_cine=use_cine, use_doppler=use_doppler)


@PROPERTY
@given(config=model_configs(), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bitwise(config, seed):
    model = random_model(config, seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, tmp)
        loaded = load_model(tmp)
        digest = json.loads((Path(tmp) / "manifest.json").read_text())["params_digest"]
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for name, value in model.params.items():
        assert loaded.params[name].shape == value.shape
        assert loaded.params[name].tobytes() == value.tobytes()
    assert params_digest(loaded.params) == params_digest(model.params) == digest


def saved_manifest(root):
    inst = Instance("doppler", np.arange(6.0), (3, 2))
    save(Dataset([Bag("b0", [], [inst], label=0)], {"b0": "train"}), root)
    return json.loads((root / "manifest.json").read_text())


def refused_with_exit_2(root, manifest, message):
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=message) as info:
        load(root)
    assert exit_code_for(info.value) == 2


def test_version_1_dataset_is_refused(tmp_path):
    manifest = saved_manifest(tmp_path)
    # the version-1 layout: one feature file per instance, named on the instance
    manifest["format_version"] = 1
    manifest["bags"][0] = {"id": "b0", "label": 0, "split": "train", "instances": [
        {"modality": "doppler", "shape": [3, 2], "relevance": None, "file": "features/b0_0.bin"}]}
    refused_with_exit_2(tmp_path, manifest, "format_version 1")


def test_version_2_dataset_is_refused(tmp_path):
    manifest = saved_manifest(tmp_path)
    # the version-2 layout: one feature file per bag, named on the bag
    manifest["format_version"] = 2
    manifest["bags"][0] = {"id": "b0", "label": 0, "split": "train", "file": "features/b0.bin",
                           "instances": [{"modality": "doppler", "shape": [3, 2],
                                          "relevance": None}]}
    (tmp_path / "features").mkdir()
    (tmp_path / "features.bin").rename(tmp_path / "features" / "b0.bin")
    refused_with_exit_2(tmp_path, manifest, "format_version 2")


def test_version_3_dataset_is_refused(tmp_path):
    manifest = saved_manifest(tmp_path)
    # the version-3 layout: a shape per instance, relevance in the manifest, no digest
    del manifest["features_sha256"]
    manifest["format_version"] = 3
    manifest["bags"][0] = {"id": "b0", "label": 0, "split": "train", "cine_shapes": [],
                           "relevance": [], "doppler_shapes": [[3, 2]]}
    (tmp_path / "features.bin").write_bytes(np.arange(6.0).astype("<f8").tobytes())
    refused_with_exit_2(tmp_path, manifest, "format_version 3")


def saved_checkpoint(root):
    model = random_model(tiny_model_config(), seed=3)
    save_model(model, root)
    return model, json.loads((root / "manifest.json").read_text())


def checkpoint_refused_with_exit_2(root, message):
    with pytest.raises(FormatError, match=message) as info:
        load_model(root)
    assert "'tensors/params.bin'" in str(info.value)
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("change", [8, 3, -8])
def test_parameter_file_of_another_size_is_refused(tmp_path, change):
    saved_checkpoint(tmp_path)
    path = tmp_path / "tensors" / "params.bin"
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(change) if change > 0 else raw[:change])
    checkpoint_refused_with_exit_2(tmp_path, f"holds {len(raw) + change} bytes, the config's "
                                             f"parameters need {len(raw)}")


def test_version_1_checkpoint_is_refused(tmp_path):
    model, manifest = saved_checkpoint(tmp_path)
    # the version-1 layout: one file per parameter, named in a manifest list
    manifest["format_version"] = 1
    manifest["tensors"] = []
    for name, value in sorted(model.params.items()):
        rel = f"tensors/{name.replace('.', '_')}.bin"
        (tmp_path / rel).write_bytes(value.astype("<f8").tobytes())
        manifest["tensors"].append({"name": name, "shape": list(value.shape), "file": rel})
    (tmp_path / "tensors" / "params.bin").unlink()
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    checkpoint_refused_with_exit_2(tmp_path, "format_version 1")
