"""Per-modality instance encoders: small MLPs over flattened instances.

Cine instances (frames x H x W) are mean-pooled over the frame axis before
flattening, which makes the embedding invariant to frame order; doppler
instances are flattened directly. Every layer, including the last, applies
tanh. Weights are Glorot-uniform, biases start at zero.
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

    def __post_init__(self):
        if self.modality not in ("cine", "doppler"):
            raise ConfigError(f"unknown modality {self.modality!r}")
        dims = (self.input_dim, *self.hidden_sizes, self.embed_dim)
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"encoder layer sizes must be positive, got {dims}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))

    @property
    def layer_dims(self):
        """Chained (in, out) pairs from input_dim through hiddens to embed_dim."""
        dims = (self.input_dim, *self.hidden_sizes, self.embed_dim)
        return tuple(zip(dims[:-1], dims[1:]))


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


def _frame_count(config, modality, shape):
    """Frames averaged into the input row of an instance of ``modality`` and ``shape``
    (0 for doppler), after checking that such an instance fits the encoder."""
    if modality != config.modality:
        raise ContractError(f"{config.modality} encoder got a {modality} instance")
    frames, size = 0, math.prod(shape)
    if modality == "cine":
        if len(shape) < 2:
            raise ContractError(f"cine instance needs a frame axis, got shape {list(shape)}")
        frames, size = shape[0], math.prod(shape[1:])
    if size != config.input_dim:
        raise ContractError(
            f"instance flattens to {size} values, encoder expects {config.input_dim}"
        )
    return frames


def preprocess(config, instance):
    """Flatten an instance to the encoder's input row (cine: frame mean first)."""
    if _frame_count(config, instance.modality, instance.shape) == 0:
        return instance.features.reshape(-1)
    # the sum-then-divide of ndarray.mean, without its per-call overhead
    frames = instance.features.reshape(instance.shape)
    return np.add.reduce(frames, axis=0).reshape(-1) / instance.shape[0]


def preprocess_rows(config, blocks):
    """The [K, input_dim] input rows of the K instances of the row ``blocks``
    (``Bag.blocks``) in one pass, bitwise ``preprocess``'s.

    Refuses the first instance that does not fit the encoder; whether one
    fits depends only on its modality and shape, so each distinct pair is
    checked once, in order of first occurrence.

    A single doppler block is returned where it lies. The cine frames are
    summed by one ``np.add.reduce`` over the frame axis of a [K, frames,
    input_dim] stack, which adds frame by frame, in order and from 0.0, as
    ``preprocess`` does; a single block is summed where it lies. Instances
    with fewer frames than the most are padded with zero frames at the end:
    the running sum is never -0.0, so adding 0.0 leaves it unchanged.
    """
    for modality, shape in dict.fromkeys([block[:2] for block in blocks]):
        _frame_count(config, modality, shape)
    arrays = [rows for _, _, rows in blocks]
    if config.modality == "doppler":
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    counts = [shape[0] for _, shape, _ in blocks]
    most = max(counts)
    if min(counts) == most:
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return np.add.reduce(stacked.reshape(-1, most, config.input_dim), axis=1) / most
    counts = np.repeat(counts, [len(rows) for rows in arrays])
    frames = np.zeros((len(counts), most, config.input_dim))
    frames[np.arange(most) < counts[:, None]] = np.concatenate(arrays, axis=None).reshape(
        -1, config.input_dim)
    return np.add.reduce(frames, axis=1) / counts.astype(np.float64)[:, None]


def encode_rows(config, weights, rows):
    """Run a [K, input_dim] tensor of preprocessed rows through the MLP -> [K, M].

    ``weights`` maps ``layer{i}.W`` and ``layer{i}.b`` to tensors.
    """
    h = rows
    for i in range(len(config.layer_dims)):
        h = ad.linear(h, weights[f"layer{i}.W"], weights[f"layer{i}.b"])
    return h
