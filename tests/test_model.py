import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from milfusion import autodiff as ad
from milfusion.data import Bag, Instance, SyntheticConfig
from milfusion.encoders import EncoderConfig, glorot_bound
from milfusion.errors import (
    BagSkipError,
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    exit_code_for,
)
from milfusion.model import (
    MMILModel,
    ModelConfig,
    ablated,
    config_from_dict,
    forward,
    fuse,
    init_model,
    load_model,
    param_specs,
    params_digest,
    save_model,
    total_loss,
)
from milfusion.pooling import AttentionModule
from milfusion.training import TrainConfig

from helpers import (
    bag_arrays,
    flatten_params,
    make_bag,
    oracle_config,
    random_model,
    tiny_model_config,
    unflatten_params,
)
from oracles import max_rel_err, numeric_gradient, oracle_fuse, oracle_total_loss
from test_acceptance import REFERENCE_MODEL


# ---------------------------------------------------------------------------
# fuse


def test_fuse_identical_inputs_alpha_half():
    rng = np.random.default_rng(0)
    att = AttentionModule(ad.Tensor.const(rng.uniform(-1, 1, (3, 4))),
                          ad.Tensor.const(rng.uniform(-1, 1, 3)))
    z = ad.Tensor.const(rng.uniform(-1, 1, 4))
    s, alpha = fuse(z, ad.Tensor.const(z.value()), att)
    assert alpha == 0.5
    assert np.max(np.abs(s.value() - z.value())) < 1e-15


def test_fuse_zero_gate_weight_alpha_half():
    rng = np.random.default_rng(1)
    att = AttentionModule(ad.Tensor.const(rng.uniform(-1, 1, (3, 4))),
                          ad.Tensor.const(np.zeros(3)))
    z = ad.Tensor.const(rng.uniform(-1, 1, 4))
    zt = ad.Tensor.const(rng.uniform(-1, 1, 4))
    _, alpha = fuse(z, zt, att)
    assert alpha == 0.5


@pytest.mark.parametrize("seed", range(10))
def test_fuse_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    U = rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, 3)
    z = rng.uniform(-2, 2, 4)
    zt = rng.uniform(-2, 2, 4)
    att = AttentionModule(ad.Tensor.const(U), ad.Tensor.const(w))
    s, alpha = fuse(ad.Tensor.const(z), ad.Tensor.const(zt), att)
    s_oracle, alpha_oracle = oracle_fuse(U, w, z, zt)
    assert np.max(np.abs(s.value() - s_oracle)) < 1e-12
    assert abs(alpha - alpha_oracle) < 1e-12


def test_alpha_closed_form():
    # log(alpha / (1 - alpha)) == gate score difference
    rng = np.random.default_rng(7)
    for _ in range(20):
        U = rng.uniform(-1, 1, (3, 4))
        w = rng.uniform(-1, 1, 3)
        z = rng.uniform(-2, 2, 4)
        zt = rng.uniform(-2, 2, 4)
        att = AttentionModule(ad.Tensor.const(U), ad.Tensor.const(w))
        _, alpha = fuse(ad.Tensor.const(z), ad.Tensor.const(zt), att)
        score = lambda v: float(w @ np.tanh(U @ v))
        assert abs(np.log(alpha / (1 - alpha)) - (score(z) - score(zt))) < 1e-9


# ---------------------------------------------------------------------------
# forward


def test_forward_contract():
    rng = np.random.default_rng(2)
    model = random_model(tiny_model_config(), seed=0)
    bag = make_bag(rng, n_cine=1, n_doppler=1, label=1)
    out = forward(model, bag)
    probs = out.probs.value()
    assert abs(probs.sum() - 1.0) <= 1e-9
    assert np.all(probs > 0)
    assert 0.0 < out.alpha < 1.0
    assert out.cine_weights.shape == (1,)
    assert out.doppler_weights.shape == (1,)
    assert out.study_embedding.size == 4


def test_forward_permutation_invariance():
    rng = np.random.default_rng(3)
    model = random_model(tiny_model_config(), seed=1)
    bag = make_bag(rng, n_cine=5, n_doppler=4, label=0)
    base = forward(model, bag).probs.value()
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(5)
        shuffled = Bag(
            bag.id,
            [bag.cine_instances[i] for i in perm],
            list(reversed(bag.doppler_instances)),
            label=bag.label,
        )
        assert np.max(np.abs(forward(model, shuffled).probs.value() - base)) < 1e-12


def test_ablation_doppler_bitwise_independence():
    rng = np.random.default_rng(4)
    config = tiny_model_config(use_doppler=False)
    model = random_model(config, seed=2)
    bag = make_bag(rng, n_cine=3, n_doppler=2, label=0)
    base = forward(model, bag)
    # mutate / extend / drop doppler instances: output must be bitwise identical
    variants = [
        Bag(bag.id, bag.cine_instances, [], label=bag.label),
        Bag(bag.id, bag.cine_instances,
            [Instance("doppler", rng.normal(size=12), (3, 4)) for _ in range(6)],
            label=bag.label),
    ]
    for variant in variants:
        out = forward(model, variant)
        assert np.array_equal(out.probs.value(), base.probs.value())
    assert base.alpha == 1.0
    assert base.doppler_weights is None


def test_ablation_cine_only_path():
    rng = np.random.default_rng(5)
    model = random_model(tiny_model_config(use_cine=False), seed=3)
    bag = make_bag(rng, n_cine=2, n_doppler=3, label=2)
    out = forward(model, bag)
    assert out.alpha == 0.0
    assert out.cine_weights is None
    assert abs(out.probs.value().sum() - 1.0) <= 1e-9


def test_degenerate_bag_falls_back():
    rng = np.random.default_rng(6)
    model = random_model(tiny_model_config(), seed=4)
    no_cine = make_bag(rng, n_cine=0, n_doppler=2, label=0)
    out = forward(model, no_cine)
    assert out.alpha == 0.0 and out.cine_A is None
    no_dop = make_bag(rng, n_cine=2, n_doppler=0, label=0)
    out = forward(model, no_dop)
    assert out.alpha == 1.0 and out.doppler_weights is None


def test_bag_skip_when_enabled_modality_empty():
    rng = np.random.default_rng(7)
    model = random_model(tiny_model_config(use_doppler=False), seed=5)
    bag = make_bag(rng, n_cine=0, n_doppler=3, label=0)
    with pytest.raises(BagSkipError, match=bag.id):
        forward(model, bag)


# ---------------------------------------------------------------------------
# total_loss


def test_loss_vanishes_when_prediction_perfect_and_a_equals_r():
    rng = np.random.default_rng(8)
    bag = make_bag(rng, n_cine=1, n_doppler=1, label=1)
    # single cine instance: A == R == [1.0], so the supervision term is exactly 0
    model = random_model(tiny_model_config(), seed=6)
    loss, out = total_loss(model, bag, 1)
    assert float(loss.data[0]) == -np.log(out.probs.value()[1])
    # push rho to ~one-hot on the true class: whole objective goes to ~0
    model.params["output.b"][:] = np.array([0.0, 60.0, 0.0])
    loss, _ = total_loss(model, bag, 1)
    assert 0.0 <= float(loss.data[0]) < 1e-12


def test_lambda_zero_is_plain_cross_entropy():
    rng = np.random.default_rng(9)
    model = random_model(tiny_model_config(lambda_sa=0.0), seed=7)
    bag = make_bag(rng, n_cine=3, n_doppler=2, label=2)
    loss, out = total_loss(model, bag, 2)
    assert abs(float(loss.data[0]) + np.log(out.probs.value()[2])) < 1e-12


def test_missing_relevance_is_data_error():
    rng = np.random.default_rng(10)
    model = random_model(tiny_model_config(), seed=8)
    bag = make_bag(rng, n_cine=2, n_doppler=1, label=0, with_relevance=False)
    with pytest.raises(DataError, match=bag.id):
        total_loss(model, bag, 0)
    # ... but fine when the supervision term is off
    model0 = random_model(tiny_model_config(lambda_sa=0.0), seed=8)
    total_loss(model0, bag, 0)


def test_invalid_label():
    model = random_model(tiny_model_config(), seed=9)
    bag = make_bag(np.random.default_rng(11), label=0)
    with pytest.raises(ContractError):
        total_loss(model, bag, 3)


@pytest.mark.parametrize("seed", range(10))
def test_total_loss_matches_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    config = tiny_model_config()
    model = random_model(config, seed=seed)
    bag = make_bag(rng, n_cine=int(rng.integers(1, 4)), n_doppler=int(rng.integers(1, 4)),
                   label=int(rng.integers(0, 3)))
    loss, out = total_loss(model, bag, bag.label)
    want, rho = oracle_total_loss(model.params, oracle_config(config),
                                  bag_arrays(bag), bag.label)
    assert abs(float(loss.data[0]) - want) < 1e-10
    assert np.max(np.abs(out.probs.value() - rho)) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_full_model_gradient_check(seed):
    config = tiny_model_config()
    specs = param_specs(config)
    rng = np.random.default_rng(300 + seed)
    bag = make_bag(rng, n_cine=2, n_doppler=2, label=int(rng.integers(0, 3)))
    model = random_model(config, seed=seed)
    flat0 = flatten_params(model.params, specs)

    loss, out = total_loss(model, bag, bag.label)
    ad.backward(out.tape, loss)
    got = np.concatenate(
        [out.tape.grad(out.param_leaves[name]).data for name, _ in specs]
    )

    def f(flat):
        m = MMILModel(config, unflatten_params(flat, specs))
        return float(total_loss(m, bag, bag.label)[0].data[0])

    want = numeric_gradient(f, flat0)
    assert max_rel_err(got, want) < 1e-3


def test_forward_leaves_view_the_parameters_read_only():
    config = tiny_model_config()
    model = random_model(config, seed=1)
    out = forward(model, make_bag(np.random.default_rng(4)))
    assert set(out.param_leaves) == set(model.params)
    for name, leaf in out.param_leaves.items():
        assert np.shares_memory(leaf.data, model.params[name]), name
        with pytest.raises(ValueError):
            leaf.data[0] = 0.0


# ---------------------------------------------------------------------------
# init / checkpoints


def test_init_model_deterministic():
    config = tiny_model_config()
    m1 = init_model(config, seed=11)
    m2 = init_model(config, seed=11)
    assert params_digest(m1.params) == params_digest(m2.params)
    m3 = init_model(config, seed=12)
    assert params_digest(m1.params) != params_digest(m3.params)


def test_init_model_zero_biases():
    model = init_model(tiny_model_config(), seed=0)
    biases = [name for name, _ in param_specs(model.config) if name.endswith(".b")]
    assert len(biases) == 5  # two per encoder, one for the output layer
    for name in biases:
        assert np.all(model.params[name] == 0.0), name


# Init draws no BLAS, so these hold on any machine with numpy 2.4.6; a draw
# order or a bound that changes also changes every trained checkpoint.
@pytest.mark.parametrize("seed, digest", [
    (0, "bf121b1f323693061775bd2875707cdcc58fca5ade898be0f98f446fc385eafe"),
    (8, "db33f29c49c15a4ff2ff8f129ec444417fd0b5de66823ad0f15fe3eb188decb1"),
])
def test_init_model_values_are_pinned(seed, digest):
    assert params_digest(init_model(REFERENCE_MODEL, seed).params) == digest


def test_init_model_draws_each_weight_within_its_glorot_bound():
    params = init_model(REFERENCE_MODEL, seed=3).params  # 32 values or more per weight
    for name, shape in param_specs(REFERENCE_MODEL):
        if not name.endswith(".b"):
            values = np.abs(params[name])
            bound = glorot_bound(shape[0], shape[1] if len(shape) == 2 else 1)
            assert values.max() <= bound, name
            assert values.max() > bound / 2, name  # drawn over the whole range


def test_checkpoint_round_trip(tmp_path):
    model = random_model(tiny_model_config(tau=0.05, lambda_sa=2.5), seed=13)
    save_model(model, tmp_path / "ckpt")
    loaded = load_model(tmp_path / "ckpt")
    assert loaded.config == model.config
    assert params_digest(loaded.params) == params_digest(model.params)


def test_checkpoint_shape_mismatch(tmp_path):
    model = random_model(tiny_model_config(), seed=14)
    save_model(model, tmp_path / "ckpt")
    import json

    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["config"]["cine_encoder"]["embed_dim"] = 8
    manifest["config"]["doppler_encoder"]["embed_dim"] = 8
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_model(tmp_path / "ckpt")


def test_checkpoint_tensor_symlinked_outside_is_format_error(tmp_path):
    save_model(random_model(tiny_model_config(), seed=15), tmp_path / "ckpt")
    params = tmp_path / "ckpt" / "tensors" / "params.bin"
    # the checkpoint's own parameters, so only the path check can refuse them
    params.rename(tmp_path / "outside.bin")
    params.symlink_to(tmp_path / "outside.bin")
    with pytest.raises(FormatError, match="'tensors/params.bin' points outside the directory"
                       ) as info:
        load_model(tmp_path / "ckpt")
    assert exit_code_for(info.value) == 2


def test_checkpoint_manifest_symlinked_outside_is_format_error(tmp_path):
    save_model(random_model(tiny_model_config(), seed=15), tmp_path / "ckpt")
    manifest = tmp_path / "ckpt" / "manifest.json"
    # the checkpoint's own manifest, so only the path check can refuse it
    manifest.rename(tmp_path / "manifest.json")
    manifest.symlink_to(tmp_path / "manifest.json")
    with pytest.raises(FormatError, match="'manifest.json' points outside the directory") as info:
        load_model(tmp_path / "ckpt")
    assert exit_code_for(info.value) == 2


@pytest.mark.parametrize("version", [pytest.param(1, id="v1"), "1", None])
def test_checkpoint_format_version_is_checked(tmp_path, version):
    import json

    save_model(random_model(tiny_model_config(), seed=16), tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["format_version"] = version
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="format_version"):
        load_model(tmp_path / "ckpt")


def test_checkpoint_missing(tmp_path):
    with pytest.raises(FormatError):
        load_model(tmp_path / "nope")


@pytest.mark.parametrize("digest", [None, 5, "0" * 64, "missing"])
def test_checkpoint_digest_is_checked(tmp_path, digest):
    save_model(random_model(tiny_model_config(), seed=17), tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    if digest == "missing":
        del manifest["params_digest"]
    else:
        manifest["params_digest"] = digest
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="params_digest"):
        load_model(tmp_path / "ckpt")


def test_truncated_checkpoint_tensor_is_format_error(tmp_path):
    save_model(random_model(tiny_model_config(), seed=20), tmp_path / "ckpt")
    victim = sorted((tmp_path / "ckpt" / "tensors").glob("*.bin"))[0]
    victim.write_bytes(victim.read_bytes()[:-3])
    with pytest.raises(FormatError, match="file size does not match shape"):
        load_model(tmp_path / "ckpt")


def test_checkpoint_is_replaced_whole(tmp_path):
    first = random_model(tiny_model_config(), seed=18)
    second = random_model(tiny_model_config(), seed=19)
    save_model(first, tmp_path / "ckpt")
    save_model(second, tmp_path / "ckpt")
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert manifest["params_digest"] == params_digest(second.params)
    assert params_digest(load_model(tmp_path / "ckpt").params) == params_digest(second.params)
    leftovers = [p.name for p in (tmp_path / "ckpt").rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == []


def test_model_param_validation():
    config = tiny_model_config()
    good = init_model(config, 0).params
    bad = dict(good)
    bad.pop("output.b")
    with pytest.raises(ContractError):
        MMILModel(config, bad)
    bad = dict(good)
    bad["output.b"] = np.zeros(4)
    with pytest.raises(ContractError):
        MMILModel(config, bad)


def test_config_validation():
    enc = tiny_model_config().cine_encoder
    dop = tiny_model_config().doppler_encoder
    with pytest.raises(ConfigError):
        ModelConfig(enc, dop, use_cine=False, use_doppler=False)
    with pytest.raises(ConfigError):
        ModelConfig(enc, dop, lambda_sa=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig(enc, dop, tau=0.0)
    from milfusion.encoders import EncoderConfig

    with pytest.raises(ConfigError):
        ModelConfig(enc, EncoderConfig("doppler", input_dim=12, embed_dim=16))


@pytest.mark.parametrize("config", [
    tiny_model_config(use_doppler=False, tau=2),
    EncoderConfig("cine", input_dim=9, hidden_sizes=(5, 3)),
    TrainConfig(learning_rate=0.1, max_epochs=3, seed=4),
    SyntheticConfig(seed=3, class_priors=(0.5, 0.25, 0.25),
                    signal_strength={"cine": 1.0, "doppler": 2}),
], ids=lambda c: type(c).__name__)
def test_config_from_dict_reads_back_asdict(config):
    raw = json.loads(json.dumps(asdict(config)))
    assert config_from_dict(type(config), raw, FormatError, "config") == config


def test_config_from_dict_reads_ints_as_floats_and_lists_as_tuples():
    raw = asdict(tiny_model_config())
    raw.update(tau=1, lambda_sa=0)
    raw["cine_encoder"]["hidden_sizes"] = [8]
    config = config_from_dict(ModelConfig, raw, FormatError, "config")
    assert type(config.tau) is float and type(config.lambda_sa) is float
    assert config.cine_encoder.hidden_sizes == (8,)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(attention_dim=True), "config.attention_dim must be an integer"),
    (lambda raw: raw.update(attention_dim=4.0), "config.attention_dim must be an integer"),
    (lambda raw: raw.update(use_cine="false"), "config.use_cine must be true or false"),
    (lambda raw: raw.update(tau=float("nan")), "config.tau must be a finite number"),
    (lambda raw: raw.update(extra=1), "config: unknown keys ['extra']"),
    (lambda raw: raw.pop("cine_encoder"), "config: missing keys ['cine_encoder']"),
    (lambda raw: raw.update(cine_encoder=[1]), "config.cine_encoder must be a JSON object"),
    (lambda raw: raw["cine_encoder"].update(hidden_sizes=8),
     "config.cine_encoder.hidden_sizes must be a list"),
    (lambda raw: raw["cine_encoder"].update(hidden_sizes=[8.5]),
     "config.cine_encoder.hidden_sizes[0] must be an integer"),
    (lambda raw: raw["cine_encoder"].update(activation="gelu"),
     "config.cine_encoder: unknown keys ['activation']"),
    (lambda raw: raw.update(tau=-1.0), "config: tau must be > 0"),
])
def test_config_from_dict_refusals_raise_the_given_error(edit, message):
    raw = asdict(tiny_model_config())
    edit(raw)
    with pytest.raises(FormatError, match=re.escape(message)):
        config_from_dict(ModelConfig, raw, FormatError, "config")


def test_config_from_dict_refuses_a_non_object():
    with pytest.raises(FormatError, match="must be a JSON object, got list"):
        config_from_dict(TrainConfig, [1], FormatError, "train")


def test_ablated_helper():
    config = tiny_model_config()
    assert ablated(config, use_doppler=False).use_doppler is False
    assert ablated(config, use_doppler=False).use_cine is True
