"""``predict`` and ``eval --checkpoint`` stream the scored split a chunk at a time:
the same bytes as scoring the loaded split, memory for a chunk of bags, and the
refusals of a whole-split read."""

import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from milfusion.cli import main
from milfusion.data import (
    READ_CHUNK,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    iterate_split,
    load,
    read_split,
    save,
)
from milfusion.encoders import EncoderConfig
from milfusion.errors import FormatError
from milfusion.metrics import save_predictions
from milfusion.model import INFERENCE_CHUNK, ModelConfig, init_model, load_model, save_model
from milfusion.training import predictions_for

from helpers import (bag_value_ranges, make_bag, random_model, tiny_model_config,
                     write_feature_values)
from test_cli import error_lines

N_TEST = 2 * READ_CHUNK + 16  # three read chunks, the last one short
# sorted positions of degenerate test bags around the first chunk boundary
CINE_EMPTY = (READ_CHUNK - 3, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 2)
DOPPLER_EMPTY = (READ_CHUNK - 2, READ_CHUNK + 1)


@pytest.fixture(scope="module")
def hand_made(tmp_path_factory):
    """A dataset directory whose manifest order is not id order, with other splits'
    bags between the test bags and degenerate test bags on both sides of the first
    chunk boundary; and a checkpoint of a full and of a cine-only model."""
    assert INFERENCE_CHUNK == READ_CHUNK  # the boundary is one for reads and inference
    root = tmp_path_factory.mktemp("streamed")
    rng = np.random.default_rng(21)
    bags, splits = [], []
    for i in range(N_TEST):
        n_cine = 0 if i in CINE_EMPTY else 1 + i % 3
        n_doppler = 0 if i in DOPPLER_EMPTY else 1 + i % 2
        bags.append(make_bag(rng, bag_id=f"t{i:03d}", n_cine=n_cine, n_doppler=n_doppler,
                             label=i % 3))
        splits.append("test")
    for i, split in enumerate(["train", "val", "unlabeled"] * 6):
        bags.append(make_bag(rng, bag_id=f"o{i:02d}", label=None if split == "unlabeled"
                             else i % 3))
        splits.append(split)
    order = rng.permutation(len(bags))
    save(Dataset([bags[i] for i in order], {bag.id: split for bag, split in zip(bags, splits)}),
         root / "data")
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    ids = [rec["id"] for rec in manifest["bags"] if rec["split"] == "test"]
    assert ids != sorted(ids)
    for name, config in (("full", tiny_model_config()),
                         ("cine_only", tiny_model_config(use_doppler=False))):
        save_model(random_model(config, seed=4), root / name)
    return root


@pytest.mark.parametrize("checkpoint", ["full", "cine_only"])
def test_streamed_scoring_is_bitwise_the_loaded_splits(hand_made, tmp_path, checkpoint):
    data, ckpt = hand_made / "data", hand_made / checkpoint
    model = load_model(ckpt)
    reference = predictions_for(model, iterate_split(load(data), "test"))
    skipped = N_TEST - len(reference)
    assert skipped == (len(CINE_EMPTY) if checkpoint == "cine_only" else 0)
    save_predictions(reference, tmp_path / "reference.csv")

    for split in ([], ["--split", "test"]):
        out = tmp_path / f"predict{len(split)}"
        assert main(["predict", "--checkpoint", str(ckpt), "--data", str(data), *split,
                     "--seed", "1", "--out", str(out)]) == 0
        assert ((out / "predictions.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    reports = {}
    for source, flags in (("checkpoint", ["--checkpoint", str(ckpt), "--data", str(data)]),
                          ("csv", ["--predictions", str(tmp_path / "reference.csv")])):
        out = tmp_path / f"eval_{source}"
        assert main(["eval", *flags, "--seed", "3", "--n-boot", "20", "--out", str(out)]) == 0
        reports[source] = [(out / name).read_bytes()
                           for name in ("report.json", "confusion_matrix.csv")]
    assert reports["checkpoint"] == reports["csv"]


def test_streamed_bags_are_the_loaded_bags(hand_made):
    streamed = read_split(hand_made / "data", "test")
    loaded = iterate_split(load(hand_made / "data"), "test")
    assert len(streamed) == N_TEST and [rec.id for rec in streamed.records] == [
        bag.id for bag in loaded]
    for bag, other in zip(streamed, loaded, strict=True):
        assert bag == other
        assert bag.relevance.tobytes() == other.relevance.tobytes()


def test_predict_holds_a_chunk_of_bags_not_the_split(tmp_path):
    n_chunks = 20
    ds, _ = generate_synthetic(SyntheticConfig(seed=3, n_labeled=3, n_val=3,
                                               n_test=n_chunks * READ_CHUNK, n_unlabeled=0))
    save(ds, tmp_path / "data")
    split_bytes = 8 * sum(rows.size for bag in iterate_split(ds, "test")
                          for blocks in bag.blocks.values() for _, _, rows in blocks)
    del ds
    # the default model, for the default dataset's instance shapes
    config = ModelConfig(EncoderConfig("cine", 64), EncoderConfig("doppler", 192))
    save_model(init_model(config, 0), tmp_path / "checkpoint")
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["predict", "--checkpoint", str(tmp_path / "checkpoint"),
                     "--data", str(tmp_path / "data"), "--seed", "1",
                     "--out", str(tmp_path / "p")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < split_bytes / 4, (peak, split_bytes)


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_nan_in_the_last_chunk_is_refused_naming_its_bag(hand_made, tmp_path, capsys, command):
    data = tmp_path / "data"
    save(load(hand_made / "data"), data)
    last = f"t{N_TEST - 1:03d}"  # the last bag of the last chunk
    manifest = json.loads((data / "manifest.json").read_text())
    _, end = bag_value_ranges(manifest)[last]
    write_feature_values(data, end - 1, np.nan)
    capsys.readouterr()
    out = tmp_path / "out"
    code = main([command, "--checkpoint", str(hand_made / "full"), "--data", str(data),
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert error_lines(capsys.readouterr().err) == [
        f"error: bag {last!r}: file 'features.bin' holds non-finite feature values"]
    assert not out.exists()


def resource_warnings(action):
    """The ResourceWarnings raised while ``action()`` runs and its garbage is collected."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_a_stream_that_stops_early_closes_its_file(hand_made, tmp_path):
    split = read_split(hand_made / "data", "test")

    def dropped():
        bags = iter(split)
        next(bags)

    def closed():
        bags = iter(split)
        next(bags)
        bags.close()

    def broken_off():
        for _ in split:
            break

    for action in (dropped, closed, broken_off):
        assert resource_warnings(action) == [], action.__name__

    data = tmp_path / "data"
    save(load(hand_made / "data"), data)
    manifest = json.loads((data / "manifest.json").read_text())
    write_feature_values(data, bag_value_ranges(manifest)[f"t{READ_CHUNK:03d}"][0], np.inf)

    def refused():
        with pytest.raises(FormatError, match=f"'t{READ_CHUNK:03d}'"):
            list(read_split(data, "test"))

    assert resource_warnings(refused) == []


def test_a_feature_file_replaced_after_the_index_is_refused(hand_made, tmp_path):
    data = tmp_path / "data"
    dataset = load(hand_made / "data")
    save(dataset, data)
    split = read_split(data, "test")
    save(dataset, data)  # the same content, in a new file
    with pytest.raises(FormatError, match="'features.bin' changed after it was checked"):
        next(iter(split))
