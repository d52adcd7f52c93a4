"""Builders shared by the model / training / acceptance tests."""

import numpy as np

from milfusion.data import Bag, Instance
from milfusion.encoders import EncoderConfig
from milfusion.model import MMILModel, ModelConfig, param_specs

TINY_CINE_SHAPE = (2, 3, 3)
TINY_DOP_SHAPE = (3, 4)


def tiny_model_config(**overrides):
    """A model small enough for full finite-difference gradient checks."""
    kwargs = dict(
        cine_encoder=EncoderConfig("cine", input_dim=9, hidden_sizes=(8,), embed_dim=4),
        doppler_encoder=EncoderConfig("doppler", input_dim=12, hidden_sizes=(8,), embed_dim=4),
        attention_dim=4,
        lambda_sa=10.0,
        tau=0.5,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def random_params(config, rng, scale=0.8):
    return {name: rng.uniform(-scale, scale, size=shape)
            for name, shape in param_specs(config)}


def random_model(config, seed, scale=0.8):
    return MMILModel(config, random_params(config, np.random.default_rng(seed), scale))


def make_bag(rng, bag_id="b0", n_cine=2, n_doppler=2, label=0,
             cine_shape=TINY_CINE_SHAPE, dop_shape=TINY_DOP_SHAPE, with_relevance=True):
    cine = [
        Instance("cine", rng.uniform(-2, 2, size=cine_shape).reshape(-1), cine_shape,
                 relevance=float(rng.uniform(0.02, 0.98)) if with_relevance else None)
        for _ in range(n_cine)
    ]
    doppler = [
        Instance("doppler", rng.uniform(-2, 2, size=dop_shape).reshape(-1), dop_shape)
        for _ in range(n_doppler)
    ]
    return Bag(bag_id, cine, doppler, label=label)


def with_label(bag, label):
    """Copy of a bag with ``label`` attached; it shares the bag's row blocks."""
    return Bag.from_blocks(bag.id, label, bag.blocks["cine"], bag.blocks["doppler"],
                           bag.relevance)


def bag_arrays(bag):
    """Arrays-only view of a bag for the straight-line oracle."""
    return {
        "cine": [(inst.features.reshape(inst.shape), inst.relevance)
                 for inst in bag.cine_instances],
        "doppler": [inst.features.reshape(inst.shape) for inst in bag.doppler_instances],
    }


def oracle_config(config):
    return {
        "activation": "tanh",
        "n_cine_layers": len(config.cine_encoder.layer_dims),
        "n_doppler_layers": len(config.doppler_encoder.layer_dims),
        "use_cine": config.use_cine,
        "use_doppler": config.use_doppler,
        "lambda_sa": config.lambda_sa,
        "tau": config.tau,
    }


def flatten_params(params, specs):
    return np.concatenate([params[name].reshape(-1) for name, _ in specs])


def unflatten_params(flat, specs):
    params, off = {}, 0
    for name, shape in specs:
        size = int(np.prod(shape))
        params[name] = flat[off:off + size].reshape(shape).copy()
        off += size
    return params


def bag_value_ranges(manifest):
    """Each bag's ``(start, end)`` in the float64 values of a dataset's ``features.bin``."""
    ranges, end = {}, 0
    for rec in manifest["bags"]:
        start = end
        for shape, count in rec["cine_shapes"] + rec["doppler_shapes"]:  # runs of one shape
            end += count * int(np.prod(shape))
        ranges[rec["id"]] = (start, end)
    return ranges


def write_feature_values(data_dir, index, value):
    """Set the float64 values at ``index`` of a dataset's ``features.bin``."""
    path = data_dir / "features.bin"
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[index] = value
    path.write_bytes(values.tobytes())
