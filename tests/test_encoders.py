import numpy as np
import pytest

from milfusion import autodiff as ad
from milfusion.data import Instance, generate_synthetic
from milfusion.encoders import (
    Encoder,
    EncoderConfig,
    encode,
    glorot_bound,
    init_weights,
    preprocess,
    preprocess_rows,
)
from milfusion.errors import ConfigError, ContractError

from oracles import max_rel_err, numeric_gradient
from test_acceptance import REFERENCE_DATA, REFERENCE_MODEL

CINE_CFG = EncoderConfig("cine", input_dim=4, hidden_sizes=(5,), embed_dim=3)
DOP_CFG = EncoderConfig("doppler", input_dim=6, hidden_sizes=(5,), embed_dim=3)


def cine_instance(frames):
    frames = np.asarray(frames, dtype=np.float64)
    return Instance("cine", frames.reshape(-1), frames.shape, relevance=0.5)


def test_init_deterministic_per_seed():
    e1 = init_weights(CINE_CFG, seed=3)
    e2 = init_weights(CINE_CFG, seed=3)
    for name in e1.weights:
        assert np.array_equal(e1.weights[name].value(), e2.weights[name].value())
    e3 = init_weights(CINE_CFG, seed=4)
    assert any(
        not np.array_equal(e1.weights[n].value(), e3.weights[n].value())
        for n in e1.weights
    )


def test_glorot_bound_fan3_fan3():
    assert glorot_bound(3, 3) == 1.0


def test_init_shapes_and_zero_biases():
    enc = init_weights(DOP_CFG, seed=0)
    assert enc.weights["layer0.W"].shape == (6, 5)
    assert enc.weights["layer0.b"].value().tolist() == [0.0] * 5
    assert enc.weights["layer1.W"].shape == (5, 3)
    assert enc.weights["layer1.b"].value().tolist() == [0.0] * 3
    bound = glorot_bound(6, 5)
    w = enc.weights["layer0.W"].value()
    assert np.all(np.abs(w) <= bound)


def test_zero_weight_encoder_maps_to_zero():
    zeros = {
        "layer0.W": ad.Tensor.const(np.zeros((4, 5))),
        "layer0.b": ad.Tensor.const(np.zeros(5)),
        "layer1.W": ad.Tensor.const(np.zeros((5, 3))),
        "layer1.b": ad.Tensor.const(np.zeros(3)),
    }
    enc = Encoder(CINE_CFG, zeros)
    out = encode(enc, cine_instance(np.zeros((3, 2, 2))))
    assert out.value().tolist() == [0.0, 0.0, 0.0]


def test_frame_permutation_invariance():
    enc = init_weights(CINE_CFG, seed=1)
    frames = np.random.default_rng(0).normal(size=(4, 2, 2))
    a = encode(enc, cine_instance(frames)).value()
    b = encode(enc, cine_instance(frames[::-1])).value()
    assert np.allclose(a, b, atol=1e-15)


def test_single_layer_identity_weights_equal_activation():
    cfg = EncoderConfig("doppler", input_dim=2, hidden_sizes=(), embed_dim=2)
    enc = Encoder(cfg, {
        "layer0.W": ad.Tensor.const(np.eye(2)),
        "layer0.b": ad.Tensor.const(np.zeros(2)),
    })
    x = np.array([0.3, -1.2])
    out = encode(enc, Instance("doppler", x, (2, 1)))
    assert np.allclose(out.value(), np.tanh(x), atol=1e-15)


def test_relu_activation_config():
    cfg = EncoderConfig("doppler", input_dim=2, hidden_sizes=(), embed_dim=2,
                        activation="relu")
    enc = Encoder(cfg, {
        "layer0.W": ad.Tensor.const(np.eye(2)),
        "layer0.b": ad.Tensor.const(np.zeros(2)),
    })
    out = encode(enc, Instance("doppler", np.array([0.3, -1.2]), (2, 1)))
    assert out.value().tolist() == [0.3, 0.0]


def test_encode_deterministic():
    enc = init_weights(DOP_CFG, seed=5)
    inst = Instance("doppler", np.arange(6.0), (2, 3))
    assert np.array_equal(encode(enc, inst).value(), encode(enc, inst).value())


def test_modality_mismatch():
    enc = init_weights(CINE_CFG, seed=0)
    with pytest.raises(ContractError):
        encode(enc, Instance("doppler", np.zeros(4), (2, 2)))


def test_wrong_input_dim():
    enc = init_weights(DOP_CFG, seed=0)
    with pytest.raises(ContractError):
        encode(enc, Instance("doppler", np.zeros(4), (2, 2)))


def test_cine_needs_frame_axis():
    with pytest.raises(ContractError):
        preprocess(CINE_CFG, Instance("cine", np.zeros(4), (4,), relevance=0.1))


@pytest.mark.parametrize("prep", [preprocess, lambda cfg, inst: preprocess_rows(cfg, [inst])])
@pytest.mark.parametrize("cfg, instance", [
    (CINE_CFG, Instance("cine", np.zeros(4), (4,), relevance=0.1)),  # no frame axis
    (CINE_CFG, Instance("doppler", np.zeros(4), (2, 2))),  # wrong modality
    (CINE_CFG, Instance("cine", np.zeros(6), (2, 3), relevance=0.1)),  # wrong input_dim
    (DOP_CFG, Instance("doppler", np.zeros(4), (2, 2))),  # wrong input_dim
])
def test_preprocess_refuses_an_instance_the_encoder_cannot_take(prep, cfg, instance):
    with pytest.raises(ContractError):
        prep(cfg, instance)


def test_batched_rows_equal_the_per_instance_rows_on_the_reference_dataset():
    dataset, _ = generate_synthetic(REFERENCE_DATA)
    for bag in dataset.bags:
        for cfg, instances in ((REFERENCE_MODEL.cine_encoder, bag.cine_instances),
                               (REFERENCE_MODEL.doppler_encoder, bag.doppler_instances)):
            if instances:
                want = np.stack([preprocess(cfg, inst) for inst in instances])
                assert preprocess_rows(cfg, instances).tobytes() == want.tobytes()


def test_batched_rows_of_instances_with_different_frame_counts():
    rng = np.random.default_rng(5)
    instances = [cine_instance(rng.standard_normal((n, 2, 2))) for n in (3, 5, 1, 5)]
    instances.append(cine_instance(np.full((2, 2, 2), -0.0)))
    want = np.stack([preprocess(CINE_CFG, inst) for inst in instances])
    assert preprocess_rows(CINE_CFG, instances).tobytes() == want.tobytes()


def test_invalid_configs():
    with pytest.raises(ConfigError):
        EncoderConfig("mri", input_dim=4)
    with pytest.raises(ConfigError):
        EncoderConfig("cine", input_dim=0)
    with pytest.raises(ConfigError):
        EncoderConfig("cine", input_dim=4, activation="gelu")


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
        enc = Encoder(DOP_CFG, {n: tape.leaf(arrays[n]) for n, _ in names})
        out = encode(enc, inst)
        return tape, enc, ad.total(ad.mul(out, ad.Tensor.const(probe)))

    flat0 = np.concatenate([base[n].reshape(-1) for n, _ in names])
    tape, enc, loss = loss_at(flat0)
    ad.backward(tape, loss)
    got = np.concatenate([tape.grad(enc.weights[n]).data for n, _ in names])
    want = numeric_gradient(lambda x: float(loss_at(x)[2].data[0]), flat0)
    assert max_rel_err(got, want) < 1e-4
