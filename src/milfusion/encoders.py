"""Per-modality instance encoders: small MLPs over flattened instances.

Cine instances (frames x H x W) are mean-pooled over the frame axis before
flattening, which makes the embedding invariant to frame order; doppler
instances are flattened directly. Every layer, including the last, applies
tanh. ``model.init_model`` draws the parameters.
"""

from __future__ import annotations

import itertools
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

    A single doppler block is returned where it lies. Cine rows are written
    into one result a run at a time, a run being consecutive blocks with the
    same frame count: one ``np.add.reduce`` over the frame axis of the run's
    [k, frames, input_dim] stack (a lone block is summed where it lies) adds
    frame by frame, in order, as ``preprocess`` does; the rows are then
    divided in place by the frame count.
    """
    for modality, shape in dict.fromkeys([block[:2] for block in blocks]):
        _frame_count(config, modality, shape)
    if config.modality == "doppler":
        arrays = [rows for _, _, rows in blocks]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    out = np.empty((sum(len(rows) for _, _, rows in blocks), config.input_dim))
    start = 0
    for frames, run in itertools.groupby(blocks, key=lambda block: block[1][0]):
        arrays = [rows for _, _, rows in run]
        stacked = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        view = out[start:start + len(stacked)]
        np.add.reduce(stacked.reshape(-1, frames, config.input_dim), axis=1, out=view)
        view /= frames
        start += len(stacked)
    return out


def encode_rows(config, weights, rows):
    """Run a [K, input_dim] tensor of preprocessed rows through the MLP -> [K, M].

    ``weights`` maps ``layer{i}.W`` and ``layer{i}.b`` to tensors.
    """
    h = rows
    for i in range(len(config.layer_dims)):
        h = ad.linear(h, weights[f"layer{i}.W"], weights[f"layer{i}.b"])
    return h
