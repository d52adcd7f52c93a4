"""Per-modality instance encoders: small MLPs over flattened instances.

Cine instances (frames x H x W) are mean-pooled over the frame axis before
flattening, which makes the embedding invariant to frame order; doppler
instances are flattened directly. Every layer, including the last, applies the
configured activation. Weights are Glorot-uniform, biases start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class EncoderConfig:
    modality: str
    input_dim: int  # flattened size after preprocessing (cine: H*W, doppler: H*W)
    hidden_sizes: tuple[int, ...] = (64,)
    embed_dim: int = 32
    activation: str = "tanh"

    def __post_init__(self):
        if self.modality not in ("cine", "doppler"):
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        dims = (self.input_dim, *self.hidden_sizes, self.embed_dim)
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"encoder layer sizes must be positive, got {dims}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))

    @property
    def layer_dims(self):
        """Chained (in, out) pairs from input_dim through hiddens to embed_dim."""
        dims = (self.input_dim, *self.hidden_sizes, self.embed_dim)
        return tuple(zip(dims[:-1], dims[1:]))


@dataclass
class Encoder:
    """An EncoderConfig plus named weight tensors (layer{i}.W / layer{i}.b)."""

    config: EncoderConfig
    weights: dict


def glorot_bound(fan_in, fan_out):
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_encoder_arrays(config, rng):
    """Draw the encoder's parameter arrays from ``rng`` in a fixed order."""
    arrays = {}
    for i, (fan_in, fan_out) in enumerate(config.layer_dims):
        bound = glorot_bound(fan_in, fan_out)
        arrays[f"layer{i}.W"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        arrays[f"layer{i}.b"] = np.zeros(fan_out)
    return arrays


def init_weights(config, seed):
    """Deterministically initialized Encoder with constant weight tensors."""
    arrays = init_encoder_arrays(config, np.random.default_rng(seed))
    return Encoder(config, {name: ad.Tensor.const(a) for name, a in arrays.items()})


def preprocess(config, instance):
    """Flatten an instance to the encoder's input row (cine: frame mean first)."""
    if instance.modality != config.modality:
        raise ContractError(
            f"{config.modality} encoder got a {instance.modality} instance"
        )
    if instance.modality == "cine":
        if len(instance.shape) < 2:
            raise ContractError(
                f"cine instance needs a frame axis, got shape {list(instance.shape)}"
            )
        # the sum-then-divide of ndarray.mean, without its per-call overhead
        frames = instance.features.reshape(instance.shape)
        flat = np.add.reduce(frames, axis=0).reshape(-1) / instance.shape[0]
    else:
        flat = instance.features.reshape(-1)
    if flat.size != config.input_dim:
        raise ContractError(
            f"instance flattens to {flat.size} values, encoder expects {config.input_dim}"
        )
    return flat


def encode_rows(encoder, rows):
    """Run a [K, input_dim] tensor of preprocessed rows through the MLP -> [K, M]."""
    h = rows
    for i in range(len(encoder.config.layer_dims)):
        h = ad.linear(h, encoder.weights[f"layer{i}.W"], encoder.weights[f"layer{i}.b"],
                      encoder.config.activation)
    return h


def encode(encoder, instance):
    """Embed one instance as a Tensor[M], differentiable w.r.t. the weights."""
    row = ad.Tensor.const(preprocess(encoder.config, instance), (1, encoder.config.input_dim))
    out = encode_rows(encoder, row)
    return ad.reshape(out, (encoder.config.embed_dim,))
