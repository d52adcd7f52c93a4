import re
import tracemalloc

import numpy as np
import pytest

from milfusion import autodiff as ad
from milfusion.data import Instance, generate_synthetic
from milfusion.encoders import (
    EncoderConfig,
    encode_rows,
    glorot_bound,
    preprocess,
    preprocess_rows,
)
from milfusion.errors import ConfigError, ContractError
from milfusion.model import ModelConfig, config_from_dict, init_model

from oracles import max_rel_err, numeric_gradient
from test_acceptance import REFERENCE_DATA, REFERENCE_MODEL

CINE_CFG = EncoderConfig("cine", input_dim=4, hidden_sizes=(5,), embed_dim=3)
DOP_CFG = EncoderConfig("doppler", input_dim=6, hidden_sizes=(5,), embed_dim=3)


def cine_instance(frames):
    frames = np.asarray(frames, dtype=np.float64)
    return Instance("cine", frames.reshape(-1), frames.shape, relevance=0.5)


def const_weights(arrays):
    return {name: ad.Tensor.const(a) for name, a in arrays.items()}


def seeded_weights(config, seed):
    """The weights ``init_model`` draws for the ``config`` encoder of a model
    made of ``CINE_CFG`` and ``DOP_CFG``."""
    prefix = f"{config.modality}_encoder."
    params = init_model(ModelConfig(CINE_CFG, DOP_CFG), seed).params
    return const_weights({name.removeprefix(prefix): arr for name, arr in params.items()
                          if name.startswith(prefix)})


def rows_of(config, instances):
    """``preprocess_rows`` of hand-built instances: one [1, size] row block each."""
    return preprocess_rows(config, [(inst.modality, inst.shape, inst.features[None])
                                    for inst in instances])


def embedding(config, weights, instance):
    """The [1, M] embedding of one instance, as the model computes a bag's."""
    return encode_rows(config, weights, ad.Tensor.const(rows_of(config, [instance])))


def test_glorot_bound_fan3_fan3():
    assert glorot_bound(3, 3) == 1.0


def test_zero_weight_encoder_maps_to_zero():
    weights = const_weights({
        "layer0.W": np.zeros((4, 5)),
        "layer0.b": np.zeros(5),
        "layer1.W": np.zeros((5, 3)),
        "layer1.b": np.zeros(3),
    })
    out = embedding(CINE_CFG, weights, cine_instance(np.zeros((3, 2, 2))))
    assert out.value().tolist() == [[0.0, 0.0, 0.0]]


def test_frame_permutation_invariance():
    weights = seeded_weights(CINE_CFG, seed=1)
    frames = np.random.default_rng(0).normal(size=(4, 2, 2))
    a = embedding(CINE_CFG, weights, cine_instance(frames)).value()
    b = embedding(CINE_CFG, weights, cine_instance(frames[::-1])).value()
    assert np.allclose(a, b, atol=1e-15)


def test_single_layer_identity_weights_equal_activation():
    cfg = EncoderConfig("doppler", input_dim=2, hidden_sizes=(), embed_dim=2)
    weights = const_weights({"layer0.W": np.eye(2), "layer0.b": np.zeros(2)})
    x = np.array([0.3, -1.2])
    out = embedding(cfg, weights, Instance("doppler", x, (2, 1)))
    assert np.allclose(out.value(), np.tanh(x), atol=1e-15)


def test_encode_deterministic():
    weights = seeded_weights(DOP_CFG, seed=5)
    inst = Instance("doppler", np.arange(6.0), (2, 3))
    assert np.array_equal(embedding(DOP_CFG, weights, inst).value(),
                          embedding(DOP_CFG, weights, inst).value())


def test_modality_mismatch():
    with pytest.raises(ContractError, match="cine encoder got a doppler instance"):
        rows_of(CINE_CFG, [Instance("doppler", np.zeros(4), (2, 2))])


def test_wrong_input_dim():
    with pytest.raises(ContractError, match="flattens to 4 values, encoder expects 6"):
        rows_of(DOP_CFG, [Instance("doppler", np.zeros(4), (2, 2))])


def test_cine_needs_frame_axis():
    with pytest.raises(ContractError):
        preprocess(CINE_CFG, Instance("cine", np.zeros(4), (4,), relevance=0.1))


@pytest.mark.parametrize("prep", [preprocess, lambda cfg, inst: rows_of(cfg, [inst])])
@pytest.mark.parametrize("cfg, instance", [
    (CINE_CFG, Instance("cine", np.zeros(4), (4,), relevance=0.1)),  # no frame axis
    (CINE_CFG, Instance("doppler", np.zeros(4), (2, 2))),  # wrong modality
    (CINE_CFG, Instance("cine", np.zeros(6), (2, 3), relevance=0.1)),  # wrong input_dim
    (DOP_CFG, Instance("doppler", np.zeros(4), (2, 2))),  # wrong input_dim
])
def test_preprocess_refuses_an_instance_the_encoder_cannot_take(prep, cfg, instance):
    with pytest.raises(ContractError):
        prep(cfg, instance)


def test_batched_rows_name_the_first_instance_that_does_not_fit():
    good = cine_instance(np.zeros((2, 2, 2)))
    wrong_shape = Instance("cine", np.zeros(6), (1, 6), relevance=0.1)
    wrong_modality = Instance("doppler", np.zeros(4), (2, 2))
    with pytest.raises(ContractError, match="flattens to 6 values, encoder expects 4"):
        rows_of(CINE_CFG, [good, good, wrong_shape, wrong_modality, wrong_shape])
    with pytest.raises(ContractError, match="cine encoder got a doppler instance"):
        rows_of(CINE_CFG, [good, wrong_modality, wrong_shape])


def test_batched_rows_equal_the_per_instance_rows_on_the_reference_dataset():
    dataset, _ = generate_synthetic(REFERENCE_DATA)
    for bag in dataset.bags:
        for cfg, instances in ((REFERENCE_MODEL.cine_encoder, bag.cine_instances),
                               (REFERENCE_MODEL.doppler_encoder, bag.doppler_instances)):
            if instances:
                want = np.stack([preprocess(cfg, inst) for inst in instances])
                assert rows_of(cfg, instances).tobytes() == want.tobytes()


def test_batched_rows_of_instances_with_different_frame_counts():
    rng = np.random.default_rng(5)
    instances = [cine_instance(rng.standard_normal((n, 2, 2))) for n in (3, 5, 1, 5)]
    instances.append(cine_instance(np.full((2, 2, 2), -0.0)))
    want = np.stack([preprocess(CINE_CFG, inst) for inst in instances])
    assert rows_of(CINE_CFG, instances).tobytes() == want.tobytes()


def test_invalid_configs():
    with pytest.raises(ConfigError):
        EncoderConfig("mri", input_dim=4)
    with pytest.raises(ConfigError):
        EncoderConfig("cine", input_dim=0)
    with pytest.raises(ConfigError, match=re.escape("encoder: unknown keys ['activation']")):
        config_from_dict(EncoderConfig, {"modality": "cine", "input_dim": 4,
                                         "activation": "gelu"}, ConfigError, "encoder")


@pytest.mark.parametrize("seed", range(5))
def test_encoder_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    inst = Instance("doppler", rng.uniform(-2, 2, size=6), (2, 3))
    probe = rng.uniform(-1, 1, size=3)
    names = [("layer0.W", (6, 5)), ("layer0.b", (5,)), ("layer1.W", (5, 3)), ("layer1.b", (3,))]
    base = {n: rng.uniform(-0.8, 0.8, size=s) for n, s in names}

    def loss_at(flat_all):
        arrays, off = {}, 0
        for n, s in names:
            size = int(np.prod(s))
            arrays[n] = flat_all[off:off + size].reshape(s)
            off += size
        tape = ad.Tape()
        weights = {n: tape.leaf(arrays[n]) for n, _ in names}
        out = embedding(DOP_CFG, weights, inst)
        return tape, weights, ad.total(ad.mul(out, ad.Tensor.const(probe[None, :])))

    flat0 = np.concatenate([base[n].reshape(-1) for n, _ in names])
    tape, weights, loss = loss_at(flat0)
    ad.backward(tape, loss)
    got = np.concatenate([tape.grad(weights[n]).data for n, _ in names])
    want = numeric_gradient(lambda x: float(loss_at(x)[2].data[0]), flat0)
    assert max_rel_err(got, want) < 1e-4


def test_rows_of_multi_row_blocks_equal_the_per_instance_rows():
    rng = np.random.default_rng(6)
    blocks = [("cine", (n, 2, 2), rng.standard_normal((k, 4 * n))) for n, k in ((3, 2), (3, 1))]
    mixed = blocks + [("cine", (5, 2, 2), rng.standard_normal((2, 20)))]
    for chosen in (blocks, blocks[:1], mixed):
        want = np.stack([preprocess(CINE_CFG, Instance("cine", row, shape))
                         for _, shape, rows in chosen for row in rows])
        assert preprocess_rows(CINE_CFG, chosen).tobytes() == want.tobytes()
    doppler = [("doppler", (2, 3), rng.standard_normal((k, 6))) for k in (2, 1)]
    assert preprocess_rows(DOP_CFG, doppler).tobytes() == np.concatenate(
        [rows for _, _, rows in doppler]).tobytes()


def test_rows_of_mixed_frame_counts_hold_no_padded_frames():
    cfg = EncoderConfig("cine", input_dim=64)
    rng = np.random.default_rng(7)
    blocks = [("cine", (4, 8, 8), rng.standard_normal((300, 4 * 64))),
              ("cine", (400, 8, 8), rng.standard_normal((1, 400 * 64)))]
    tracemalloc.start()
    try:
        rows = preprocess_rows(cfg, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (301, 64)
    # the result is 0.15 MB; padding the 300 short rows to 400 frames takes 62 MB
    assert peak < 1_000_000
