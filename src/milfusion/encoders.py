"""Per-modality instance encoders: small MLPs over flattened instances.

Cine instances (frames x H x W) are mean-pooled over the frame axis before
flattening, which makes the embedding invariant to frame order; doppler
instances are flattened directly. Every layer, including the last, applies the
configured activation. Weights are Glorot-uniform, biases start at zero.
"""

from __future__ import annotations

import math
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


def _frame_count(config, instance):
    """Frames averaged into ``instance``'s input row (0 for doppler), after checking that
    the instance fits the encoder."""
    if instance.modality != config.modality:
        raise ContractError(
            f"{config.modality} encoder got a {instance.modality} instance"
        )
    frames, size = 0, instance.features.size
    if instance.modality == "cine":
        if len(instance.shape) < 2:
            raise ContractError(
                f"cine instance needs a frame axis, got shape {list(instance.shape)}"
            )
        frames, size = instance.shape[0], math.prod(instance.shape[1:])
    if size != config.input_dim:
        raise ContractError(
            f"instance flattens to {size} values, encoder expects {config.input_dim}"
        )
    return frames


def preprocess(config, instance):
    """Flatten an instance to the encoder's input row (cine: frame mean first)."""
    if _frame_count(config, instance) == 0:
        return instance.features.reshape(-1)
    # the sum-then-divide of ndarray.mean, without its per-call overhead
    frames = instance.features.reshape(instance.shape)
    return np.add.reduce(frames, axis=0).reshape(-1) / instance.shape[0]


def preprocess_rows(config, instances):
    """The [K, input_dim] input rows of K instances in one pass, bitwise ``preprocess``'s.

    The cine frames are summed by one ``np.add.reduce`` over the frame axis of
    a [K, frames, input_dim] stack, which adds frame by frame, in order and
    from 0.0, as ``preprocess`` does. Instances with fewer frames than the
    most are padded with zero frames at the end: the running sum is never
    -0.0, so adding 0.0 leaves it unchanged.
    """
    counts = [_frame_count(config, inst) for inst in instances]
    flat = np.concatenate([inst.features for inst in instances])
    if config.modality == "doppler":
        return flat.reshape(-1, config.input_dim)
    most = max(counts)
    if min(counts) == most:
        return np.add.reduce(flat.reshape(len(counts), most, config.input_dim), axis=1) / most
    frames = np.zeros((len(counts), most, config.input_dim))
    frames[np.arange(most) < np.array(counts)[:, None]] = flat.reshape(-1, config.input_dim)
    return np.add.reduce(frames, axis=1) / np.array(counts, dtype=np.float64)[:, None]


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
