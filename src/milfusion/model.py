"""The full multimodal bag classifier: gated fusion, output layer, objective.

Forward pass per bag: encode instances per modality, pool (dual supervised
attention for cine, plain attention for doppler), fuse the two modality
representations through a learned gate, then map to 3-class probabilities.
The gate alpha = eta(z) / (eta(z) + eta(z~)) with eta(v) = exp(w' tanh(U v))
is computed in log space as sigmoid(score(z) - score(z~)), which is
algebraically identical and cannot overflow.

Training objective per labeled bag: cross-entropy of the predicted class
probabilities plus lambda times the attention supervision loss (skipped when
the cine branch is disabled, lambda is zero, or the bag has no cine
instances).

Three paths compute this model:
  * the specification, on the tape: ``forward`` and ``total_loss``, with
    ``autodiff.backward`` for the gradient. The acceptance tests check them
    against finite differences and straight-line oracles;
  * the training step, ``prepared_step``: the loss and the gradient of one bag
    in straight-line numpy, bitwise those of the taped path, written into the
    trainer's gradient buffer. Its rule: the tape's floating-point operations
    in the tape's order (``ndarray.dot`` for ``@``, Python floats for scalars
    alone), written in place only into temporaries the step made or, through
    ``out=``, into the gradient views. What no parameter changes is built once
    per run (``ssl``: 560 preparations on the default dataset, not 1,860):
    ``prepare_bag`` makes each bag's input rows and relevance target and runs
    its checks, and ``Plan`` resolves the parameter and gradient arrays;
  * batched inference, ``predict_probs``: the class probabilities of a chunk
    of bags at a time, one matmul per layer over the chunk's input rows and a
    per-bag (segment) softmax for attention, equal to ``forward``'s to
    rounding. It resolves a ``Plan`` once per call.

Every path reads a bag's row blocks, instance counts and relevance array
(``Bag.blocks``, ``counts`` and ``relevance``) and builds no ``Instance``: a
bag's or a chunk's input rows are one ``preprocess_rows`` over the row blocks:
one frame-axis sum per run of blocks with the same frame count.

Degenerate bags: when an enabled modality has no instances in a bag, the
forward pass falls back to the other enabled modality (alpha forced to 1 or
0); if no enabled modality has instances the bag is skipped via BagSkipError.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import checked_json, contained_file, read_json
from .encoders import (  # noqa: F401 -- preprocess stays bound here for bench/spans.py
    EncoderConfig,
    encode_rows,
    glorot_bound,
    preprocess,
    preprocess_rows,
)
from .errors import BagSkipError, ConfigError, ContractError, DataError, DomainError, FormatError
from .metrics import N_CLASSES, atomic_file
from .pooling import (
    AttentionModule,
    attention_pool,
    relevance_renormalize,
    sa_loss,
    supervised_attention_pool,
)

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 3
PARAMS = "tensors/params.bin"


@dataclass(frozen=True)
class ModelConfig:
    cine_encoder: EncoderConfig
    doppler_encoder: EncoderConfig
    attention_dim: int = 32
    lambda_sa: float = 10.0
    tau: float = 0.5
    use_cine: bool = True
    use_doppler: bool = True

    def __post_init__(self):
        if not (self.use_cine or self.use_doppler):
            raise ConfigError("at least one modality must be enabled")
        for slot, enc in (("cine", self.cine_encoder), ("doppler", self.doppler_encoder)):
            if enc.modality != slot:
                raise ConfigError(f"{slot}_encoder has modality {enc.modality!r}")
        if self.cine_encoder.embed_dim != self.doppler_encoder.embed_dim:
            raise ConfigError(
                "fusion requires a common embedding dim, got "
                f"{self.cine_encoder.embed_dim} and {self.doppler_encoder.embed_dim}"
            )
        if self.attention_dim < 1:
            raise ConfigError("attention_dim must be positive")
        if self.lambda_sa < 0:
            raise ConfigError("lambda_sa must be >= 0")
        if self.tau <= 0:
            raise ConfigError("tau must be > 0")

    @property
    def embed_dim(self):
        return self.cine_encoder.embed_dim


ATTENTION_NAMES = ("att_a", "att_b", "att_doppler", "att_fusion")


def param_specs(config):
    """Ordered (name, shape) pairs of every trainable parameter."""
    specs = []
    for prefix, enc in (("cine_encoder.", config.cine_encoder),
                        ("doppler_encoder.", config.doppler_encoder)):
        for i, (fan_in, fan_out) in enumerate(enc.layer_dims):
            specs.append((f"{prefix}layer{i}.W", (fan_in, fan_out)))
            specs.append((f"{prefix}layer{i}.b", (fan_out,)))
    m, l = config.embed_dim, config.attention_dim
    for name in ATTENTION_NAMES:
        specs.append((f"{name}.U", (l, m)))
        specs.append((f"{name}.w", (l,)))
    specs.append(("output.W", (N_CLASSES, m)))
    specs.append(("output.b", (N_CLASSES,)))
    return specs


def param_views(config, flat):
    """Named parameter views into one flat buffer laid out in ``param_specs`` order."""
    views, offset = {}, 0
    for name, shape in param_specs(config):
        size = int(np.prod(shape))
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


class MMILModel:
    """Model config plus named float64 parameter arrays."""

    def __init__(self, config, params):
        expected = dict(param_specs(config))
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ContractError(f"parameter names mismatch: missing {missing}, extra {extra}")
        for name, arr in params.items():
            if tuple(arr.shape) != expected[name]:
                raise ContractError(
                    f"parameter {name}: shape {list(arr.shape)} != expected {list(expected[name])}"
                )
        self.config = config
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}


def init_model(config, seed):
    """Deterministic initialization, drawn in ``param_specs`` order: biases are
    zero, every other array is Glorot-uniform (a vector's fan-out counts as 1)."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_specs(config):
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            bound = glorot_bound(shape[0], shape[1] if len(shape) == 2 else 1)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return MMILModel(config, params)


def params_digest(params):
    """sha256 over sorted parameter names and raw little-endian bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].astype("<f8").tobytes())
    return h.hexdigest()


@dataclass
class ForwardOutput:
    probs: ad.Tensor  # [3], sums to 1
    study_embedding: ad.Tensor  # [M]
    alpha: float  # cine share of the fused embedding; 1.0 / 0.0 on single-modality paths
    cine_weights: np.ndarray | None = None
    cine_A: ad.Tensor | None = None
    doppler_weights: np.ndarray | None = None
    tape: ad.Tape = None
    param_leaves: dict = field(default_factory=dict)


def _attention_view(leaves, name):
    return AttentionModule(U=leaves[f"{name}.U"], w=leaves[f"{name}.w"])


def fuse(z, z_dop, att_fusion):
    """Gated average s = alpha z + (1 - alpha) z~; returns (s, alpha as float)."""
    if z.shape != z_dop.shape or len(z.shape) != 1:
        raise ContractError(
            f"fuse needs two 1-D embeddings of equal dim, got "
            f"{list(z.shape)} and {list(z_dop.shape)}"
        )
    return ad.gated_blend(z, z_dop, att_fusion.U, att_fusion.w)


def _encode_modality(config, prefix, leaves, blocks):
    weights = {name.removeprefix(prefix): leaf for name, leaf in leaves.items()
               if name.startswith(prefix)}
    return encode_rows(config, weights, ad.Tensor.const(preprocess_rows(config, blocks)))


def bag_branches(cfg, bag):
    """(run cine, run doppler) for one bag, or None when no enabled modality has instances."""
    run_cine = cfg.use_cine and bag.counts["cine"] > 0
    run_doppler = cfg.use_doppler and bag.counts["doppler"] > 0
    return (run_cine, run_doppler) if run_cine or run_doppler else None


def _run_branches(cfg, bag):
    """:func:`bag_branches` of a bag that must run; raises BagSkipError if neither can."""
    branches = bag_branches(cfg, bag)
    if branches is None:
        raise BagSkipError(f"bag {bag.id!r}: no instances in any enabled modality")
    return branches


def forward(model, bag):
    """Full forward pass on one bag; see the module docstring for the policy."""
    cfg = model.config
    tape = ad.Tape()
    leaves = {name: tape.leaf(arr) for name, arr in model.params.items()}
    run_cine, run_doppler = _run_branches(cfg, bag)

    pooled_c = pooled_d = cine_a = None
    if run_cine:
        h = _encode_modality(cfg.cine_encoder, "cine_encoder.", leaves, bag.blocks["cine"])
        pooled_c, cine_a = supervised_attention_pool(
            _attention_view(leaves, "att_a"), _attention_view(leaves, "att_b"), h
        )
    if run_doppler:
        h = _encode_modality(cfg.doppler_encoder, "doppler_encoder.", leaves,
                             bag.blocks["doppler"])
        pooled_d = attention_pool(_attention_view(leaves, "att_doppler"), h)

    if run_cine and run_doppler:
        s, alpha = fuse(pooled_c.representation, pooled_d.representation,
                        _attention_view(leaves, "att_fusion"))
    elif run_cine:
        s, alpha = pooled_c.representation, 1.0
    else:
        s, alpha = pooled_d.representation, 0.0

    logits = ad.affine(leaves["output.W"], s, leaves["output.b"])
    return ForwardOutput(
        probs=ad.softmax(logits),
        study_embedding=s,
        alpha=alpha,
        cine_weights=pooled_c.weights.value() if pooled_c else None,
        cine_A=cine_a,
        doppler_weights=pooled_d.weights.value() if pooled_d else None,
        tape=tape,
        param_leaves=leaves,
    )


def total_loss(model, bag, label):
    """Cross-entropy plus lambda-weighted attention supervision; returns (loss, out)."""
    if label not in (0, 1, 2):
        raise ContractError(f"label must be in {{0,1,2}}, got {label!r}")
    out = forward(model, bag)
    loss = ad.nll(out.probs, label)
    cfg = model.config
    if cfg.use_cine and cfg.lambda_sa > 0 and out.cine_A is not None:
        r = _relevance_target(cfg, bag)
        loss = ad.add(loss, ad.scalar_mul(cfg.lambda_sa, sa_loss(r, out.cine_A)))
    return loss, out


def _relevance_target(cfg, bag):
    """The constant R of the bag's cine instances; refuses one without a relevance."""
    raw = bag.relevance
    if np.isnan(raw).any():
        raise DataError(
            f"bag {bag.id!r}: cine instance lacks a relevance score "
            "(required when lambda_sa > 0)"
        )
    return relevance_renormalize(raw, cfg.tau)


# ---------------------------------------------------------------------------
# tape-free training step


class Plan:
    """The model's arrays, resolved once for many tape-free steps or batched passes.

    Per encoder, one ``(W, b, gW, gb)`` per layer, each layer applying tanh;
    per attention module, ``(U, w, gU, gw)``; for the output layer, ``(W, b,
    gW, gb)``; the KL weight; and the gradient views that each fallback branch
    of a step zeroes. The arrays are the model's parameters and the views of
    ``grad_views`` themselves (the gradient entries are None without
    ``grad_views``), so a plan stays valid while the parameters are updated
    in place.
    """

    def __init__(self, model, grad_views=None):
        cfg, params, grads = model.config, model.params, grad_views or {}

        def arrays(*names):
            return (*(params[n] for n in names), *(grads.get(n) for n in names))

        def encoder(prefix, enc_cfg):
            return [arrays(f"{prefix}layer{i}.W", f"{prefix}layer{i}.b")
                    for i in range(len(enc_cfg.layer_dims))]

        def zeroed(*prefixes):
            return [view for name, view in grads.items() if name.startswith(prefixes)]

        self.cine = encoder("cine_encoder.", cfg.cine_encoder)
        self.doppler = encoder("doppler_encoder.", cfg.doppler_encoder)
        self.att_a, self.att_b, self.att_doppler, self.att_fusion = (
            arrays(f"{name}.U", f"{name}.w") for name in ATTENTION_NAMES)
        self.output = arrays("output.W", "output.b")
        self.lambda_sa = float(cfg.lambda_sa)
        self.zero_fusion = zeroed("att_fusion.")
        self.zero_cine = zeroed("cine_encoder.", "att_a.", "att_b.")
        self.zero_doppler = zeroed("doppler_encoder.", "att_doppler.")


@dataclass(frozen=True)
class PreparedBag:
    """What a training step reads of one bag: everything no parameter changes.

    ``label`` is None for an unlabeled bag (``dataclasses.replace`` sets one).
    ``r`` is the relevance target R and ``r_log_r`` the KL term's constant
    ``np.dot(r, np.log(r))``; both are None when the step has no KL term.
    ``doppler_rows`` views the bag's row block when it has one doppler shape,
    so the training set's doppler values are not held twice.
    """

    id: str
    label: int | None
    run_cine: bool
    run_doppler: bool
    cine_rows: np.ndarray | None
    r: np.ndarray | None
    r_log_r: np.float64 | None
    doppler_rows: np.ndarray | None


def prepare_bag(config, bag):
    """The :class:`PreparedBag` of ``bag``, labeled with its own label, under ``config``.

    Runs every check of ``total_loss`` that needs no parameter, in its order:
    the label (an unlabeled bag's None passes), the enabled modalities, the
    instances' shapes and modalities, a cine instance without relevance when
    the KL term is on, and a relevance target that is not strictly positive.
    """
    label = bag.label
    if label is not None and label not in (0, 1, 2):
        raise ContractError(f"label must be in {{0,1,2}}, got {label!r}")
    run_cine, run_doppler = _run_branches(config, bag)
    cine_rows = doppler_rows = r = r_log_r = None
    if run_cine:
        cine_rows = preprocess_rows(config.cine_encoder, bag.blocks["cine"])
    if run_doppler:
        doppler_rows = preprocess_rows(config.doppler_encoder, bag.blocks["doppler"])
    if run_cine and config.lambda_sa > 0:
        r = _relevance_target(config, bag).data
        if (r <= 0.0).any():
            raise DomainError("kl_divergence needs strictly positive reference weights")
        r_log_r = np.dot(r, np.log(r))
    return PreparedBag(bag.id, label, run_cine, run_doppler, cine_rows, r, r_log_r,
                       doppler_rows)


def _encoder_forward(layers, rows):
    """Each encoder layer's input rows and, last, the encoder's output [K, M]."""
    hs = [rows]
    for W, b, _, _ in layers:
        y = hs[-1].dot(W)
        hs.append(np.tanh(np.add(y, b, out=y), out=y))
    return hs


def _encoder_backward(layers, hs, G):
    """``linear``'s backward pass through every layer, last first; overwrites ``hs[1:]``."""
    for i in reversed(range(len(layers))):
        W, _, gW, gb = layers[i]
        y = hs[i + 1]
        G = _tanh_backward(y, G)
        hs[i].T.dot(G, out=gW)
        np.add.reduce(G, axis=0, out=gb)
        if i:  # the input rows are constants
            G = G.dot(W.T)


def _tanh_backward(y, g):
    """(1 - y y) g for y = tanh(x), written into ``y``."""
    return np.multiply(np.subtract(1.0, np.multiply(y, y, out=y), out=y), g, out=y)


def _scores_forward(att, H):
    """(tanh(H U'), the attention scores w' tanh(U h_k)) of the rows of H."""
    T = H.dot(att[0].T)
    np.tanh(T, out=T)
    return T, T.dot(att[1])


def _attention_backward(att, H, T, y, g):
    """``softmax``'s, then ``attention_scores``' backward pass from the gradient g of the
    weights y = softmax(w' T'), T = tanh(H U'); returns H's gradient, overwrites T and g."""
    U, w, gU, gw = att
    g = np.multiply(np.subtract(g, g.dot(y), out=g), y, out=g)  # y (g - g.y)
    T.T.dot(g, out=gw)
    gT = _tanh_backward(T, g[:, None] * w)
    gT.T.dot(H, out=gU)
    return gT.dot(U)


def prepared_step(plan, bag):
    """One training step's loss on the prepared ``bag``, without a tape.

    Writes the gradient of every parameter into the gradient views of
    ``plan`` and returns the loss as a float, bitwise those of
    ``total_loss`` + ``backward``: the forward pass and the fused ops'
    backward expressions are the same floating-point operations, run in the
    tape's reverse node order, and a node with several consumers sums their
    gradients in that order. A parameter the bag does not reach gets exact
    zeros. Raises the checks of ``total_loss`` that ``prepare_bag`` passes:
    an unlabeled bag's None label, then those that depend on the parameters:
    a dual-attention product that sums to zero, p[label] = 0, and an
    attention weight of 0 in the KL term.
    """
    if bag.label is None:
        raise ContractError("label must be in {0,1,2}, got None")
    if bag.run_cine:
        hc = _encoder_forward(plan.cine, bag.cine_rows)
        H = hc[-1]
        Ta, scores = _scores_forward(plan.att_a, H)
        a = ad.softmax_values(scores)
        Tb, scores = _scores_forward(plan.att_b, H)
        b = ad.softmax_values(scores)
        c = a * b
        total_p = np.add.reduce(c)
        if total_p == 0.0:
            raise DomainError("normalized_product: the products sum to zero")
        inv = 1.0 / total_p
        c *= inv
        z = c.dot(H)
    if bag.run_doppler:
        hd = _encoder_forward(plan.doppler, bag.doppler_rows)
        Hd = hd[-1]
        Td, scores = _scores_forward(plan.att_doppler, Hd)
        d = ad.softmax_values(scores)
        zt = d.dot(Hd)
    both = bag.run_cine and bag.run_doppler
    if both:
        Uf, wf, gUf, gwf = plan.att_fusion
        t, tt = (np.tanh(v, out=v) for v in (Uf.dot(z), Uf.dot(zt)))
        # the branch ad.logistic takes for this one value, its exp on a one-element array
        x = wf.dot(t) - wf.dot(tt)
        e = float(np.exp(np.array([-abs(x)]))[0])
        alpha = 1.0 / (1.0 + e) if x >= 0 else e / (1.0 + e)
        s = alpha * z + (1.0 - alpha) * zt
    else:
        s = z if bag.run_cine else zt
    Wo, bo, gWo, gbo = plan.output
    probs = ad.softmax_values(Wo.dot(s) + bo)
    py = float(probs[bag.label])
    if py <= 0.0:
        raise DomainError(f"log: non-positive input ({probs[bag.label]!r})")
    loss = -np.log(py)

    ga = None  # the KL term's gradient of a, which the tape sums first
    r = bag.r
    if r is not None:
        if np.minimum.reduce(a) <= 0.0:
            raise DomainError(f"log: non-positive input (min={a.min()!r})")
        lam = plan.lambda_sa
        loss = loss + lam * (bag.r_log_r - r.dot(np.log(a)))
        ga = (r * -lam) / a

    # softmax's backward pass of the one-hot nll gradient, whose dot with probs is gy * py
    gy = -1.0 / py
    g = np.multiply(probs, 0.0 - gy * py, out=gbo)
    g[bag.label] = py * (gy - gy * py)
    np.multiply(g[:, None], s, out=gWo)
    g = Wo.T.dot(g)
    if both:
        gd = (g.dot(z) - g.dot(zt)) * (alpha * (1.0 - alpha))
        np.multiply(gd, t - tt, out=gwf)
        gt = _tanh_backward(t, wf * gd)
        gtt = _tanh_backward(tt, wf * -gd)
        gz = alpha * g + Uf.T.dot(gt)
        gzt = (1.0 - alpha) * g + Uf.T.dot(gtt)
        np.add(gt[:, None] * z, gtt[:, None] * zt, out=gUf)
    else:
        gz = gzt = g
        for view in plan.zero_fusion:
            view.fill(0.0)

    if bag.run_cine:
        gc = H.dot(gz)
        gH = c[:, None] * gz
        gp = np.multiply(np.subtract(gc, gc.dot(c), out=gc), inv, out=gc)
        ga = gp * b if ga is None else np.add(ga, gp * b, out=ga)
        gH += _attention_backward(plan.att_b, H, Tb, b, gp * a)
        gH += _attention_backward(plan.att_a, H, Ta, a, ga)
        _encoder_backward(plan.cine, hc, gH)
    else:
        for view in plan.zero_cine:
            view.fill(0.0)
    if bag.run_doppler:
        gH = d[:, None] * gzt
        gH += _attention_backward(plan.att_doppler, Hd, Td, d, Hd.dot(gzt))
        _encoder_backward(plan.doppler, hd, gH)
    else:
        for view in plan.zero_doppler:
            view.fill(0.0)
    return float(loss)


# ---------------------------------------------------------------------------
# tape-free inference

# Bags per batched pass. Stacking all 500 unlabeled bags of the default dataset
# at once raised the peak memory of an ssl run by ~15 MB; chunks of 32 bags
# keep the stacked instance arrays small and still amortize the per-call cost.
INFERENCE_CHUNK = 32


def _segment_softmax(scores, starts, counts):
    """Max-subtracted softmax over each bag's run of ``scores``."""
    top = np.repeat(np.maximum.reduceat(scores, starts), counts)
    e = np.exp(scores - top)
    return e / np.repeat(np.add.reduceat(e, starts), counts)


def _pool_batch(layers, enc_cfg, bags, modality, atts):
    """Pooled [B, M] representations of B bags' instances of ``modality``.

    The input rows come from one ``preprocess_rows`` over the bags' row blocks.
    One attention module pools with its softmax weights; two combine their
    weights as c = a b / sum a b (the cine branch's dual attention).
    """
    counts = np.array([bag.counts[modality] for bag in bags])
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    blocks = [block for bag in bags for block in bag.blocks[modality]]
    H = _encoder_forward(layers, preprocess_rows(enc_cfg, blocks))[-1]
    weights = _segment_softmax(_scores_forward(atts[0], H)[1], starts, counts)
    if len(atts) == 2:
        prod = weights * _segment_softmax(_scores_forward(atts[1], H)[1], starts, counts)
        weights = np.repeat(1.0 / np.add.reduceat(prod, starts), counts) * prod
    return np.add.reduceat(weights[:, None] * H, starts, axis=0)


def _chunk_probs(plan, cfg, chunk):
    """[B, 3] class probabilities of (bag, run cine, run doppler) triples.

    Every bag is fused as alpha z + (1 - alpha) zt over zero-filled pools, with
    alpha 1 for a cine-only bag, 0 for a doppler-only one, the gate's otherwise.
    """
    run_c = np.array([rc for _, rc, _ in chunk])
    run_d = np.array([rd for _, _, rd in chunk])
    z = np.zeros((len(chunk), cfg.embed_dim))
    zt = np.zeros_like(z)
    alpha = run_c.astype(np.float64)
    if run_c.any():
        z[run_c] = _pool_batch(plan.cine, cfg.cine_encoder, [bag for bag, rc, _ in chunk if rc],
                               "cine", (plan.att_a, plan.att_b))
    if run_d.any():
        zt[run_d] = _pool_batch(plan.doppler, cfg.doppler_encoder,
                                [bag for bag, _, rd in chunk if rd], "doppler", (plan.att_doppler,))
    both = run_c & run_d
    alpha[both] = ad.logistic(_scores_forward(plan.att_fusion, z[both])[1]
                              - _scores_forward(plan.att_fusion, zt[both])[1])
    alpha = alpha[:, None]
    s = alpha * z + (1.0 - alpha) * zt
    Wo, bo = plan.output[:2]
    logits = s @ Wo.T + bo
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def resolve_branches(cfg, bags):
    """Report the bags' degenerate :func:`bag_branches`: the one place they are logged.

    Logs each modality fallback (INFO) and each bag that no enabled modality
    can run (WARNING). The CLI calls it once per split a command read, after
    the command's work; training and inference log none of these bags.
    """
    for bag in bags:
        branches = bag_branches(cfg, bag)
        if branches is None:
            logger.warning("skipping bag: bag %r: no instances in any enabled modality", bag.id)
        elif cfg.use_cine and not branches[0]:
            logger.info("bag %s: cine empty, falling back to doppler only", bag.id)
        elif cfg.use_doppler and not branches[1]:
            logger.info("bag %s: doppler empty, falling back to cine only", bag.id)


class ScoredBag(typing.NamedTuple):
    """What inference keeps of a bag it scored: its id and label, not its values."""

    id: str
    label: int | None


def predict_probs(model, bags):
    """Class probabilities of many bags without a tape, INFERENCE_CHUNK bags per pass.

    ``bags`` is any iterable of bags, a list or a streamed split
    (:func:`data.read_split`). The bags ``forward`` can run are scored in input
    order, INFERENCE_CHUNK at a time, so the probabilities do not depend on
    how the input was read; a bag ``forward`` would skip is left out, silently
    (see :func:`resolve_branches`). No bag is held past its chunk. Returns
    ``(scored, probs)``: a :class:`ScoredBag` per scored bag, in input order,
    and their [len(scored), 3] probabilities, equal to ``forward``'s to rounding.
    """
    cfg, plan = model.config, Plan(model)
    resolved = ((bag, bag_branches(cfg, bag)) for bag in bags)
    kept = ((bag, *branches) for bag, branches in resolved if branches is not None)
    scored, chunks = [], []
    while chunk := list(itertools.islice(kept, INFERENCE_CHUNK)):
        chunks.append(_chunk_probs(plan, cfg, chunk))
        scored += [ScoredBag(bag.id, bag.label) for bag, _, _ in chunk]
    return scored, np.concatenate(chunks) if chunks else np.empty((0, N_CLASSES))


# ---------------------------------------------------------------------------
# checkpoints (one parameter file in the trainer's flat layout + a manifest
# holding the config and the parameters' digest; the dataset's binary convention)


_JSON_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
                    str: "a string"}


def config_from_dict(cls, raw, error, where):
    """The config dataclass ``cls`` read from the JSON object ``raw`` found at ``where``.

    Refuses a non-object, unknown or missing keys and values of the wrong JSON
    type (a bool is not an int, ``"false"`` is not a bool) by raising ``error``,
    and re-raises what ``cls`` refuses as ``error``. An int is read as a float,
    a list as a tuple, and a field typed as a config dataclass recursively.
    """
    if not isinstance(raw, dict):
        raise error(f"{where} must be a JSON object, got {type(raw).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    missing = [name for name, f in known.items() if name not in raw and f.default is MISSING]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    types = typing.get_type_hints(cls)
    kwargs = {name: _read_value(types[name], value, f"{where}.{name}", error)
              for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise error(f"{where}: {exc}") from exc


def _read_value(tp, value, where, error):
    """One config value checked against its field type ``tp``."""
    if is_dataclass(tp):
        return config_from_dict(tp, value, error, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{where} must be a list, got {value!r}")
        item_type = typing.get_args(tp)[0]  # tuple[T, ...]
        return tuple(_read_value(item_type, v, f"{where}[{i}]", error)
                     for i, v in enumerate(value))
    if tp is object:
        return value
    if (type(value) not in ((int, float) if tp is float else (tp,))
            or (tp is float and not abs(value) <= sys.float_info.max)):  # NaN, inf, 1e400
        raise error(f"{where} must be {_JSON_TYPE_NAMES[tp]}, got {value!r}")
    return float(value) if tp is float else value


def save_model(model, dir_path):
    """Write a checkpoint: ``tensors/params.bin``, then ``manifest.json``.

    ``tensors/params.bin`` holds every parameter in ``param_specs`` order as
    raw little-endian float64 values, the trainer's flat layout. The manifest
    holds only ``format_version``, the config and the ``params_digest``. Each
    file replaces its previous version atomically, and the manifest goes
    last, so an interrupted save leaves either a complete checkpoint or
    parameters that do not match the manifest, which ``load_model`` refuses.
    """
    specs = param_specs(model.config)
    flat = np.concatenate([model.params[name].reshape(-1) for name, _ in specs], dtype="<f8")
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "params_digest": params_digest(model.params),
    }
    root = Path(dir_path)
    with atomic_file(root / PARAMS, binary=True) as f:
        f.write(flat)
    with atomic_file(root / "manifest.json") as f:
        f.write(json.dumps(manifest, indent=1))


def load_model(dir_path):
    """Read a checkpoint written by :func:`save_model`.

    One read fills a flat array whose size must be the one the config's
    parameters need; the parameters are ``param_views`` of it, and their
    digest must match the manifest's ``params_digest``.
    """
    root = Path(dir_path).resolve()
    path = contained_file(root, "manifest.json", "checkpoint")
    if path is None:
        raise FormatError(f"no checkpoint manifest under {root}")
    manifest = checked_json(read_json(path, "checkpoint manifest"), dict, "checkpoint manifest")
    if manifest.keys() & {"bags", "features_sha256"}:
        raise FormatError(f"{root} holds a dataset, not a checkpoint")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint format_version {version!r}; format_version "
                          f"{CHECKPOINT_FORMAT_VERSION} holds every parameter in {PARAMS!r}")
    config = config_from_dict(ModelConfig, manifest.get("config"), FormatError,
                              "checkpoint config")
    need = 8 * sum(math.prod(shape) for _, shape in param_specs(config))
    with open(contained_file(root, PARAMS, "checkpoint", "missing parameter file"), "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == need:  # the config sizes the array only once the file matches it
            flat = np.empty(need // 8, dtype="<f8")
            size = f.readinto(flat)
    if size != need:
        raise FormatError(f"checkpoint file {PARAMS!r}: file size does not match shape: it "
                          f"holds {size} bytes, the config's parameters need {need}")
    params = param_views(config, flat)
    digest = manifest.get("params_digest")
    if not isinstance(digest, str):
        raise FormatError(f"checkpoint manifest lacks a params_digest string, got {digest!r}")
    if params_digest(params) != digest:
        raise FormatError(f"checkpoint parameters in {root / PARAMS} do not match the "
                          "manifest's params_digest")
    return MMILModel(config, params)


def ablated(config, use_cine=None, use_doppler=None):
    """Copy of a model config with modality switches overridden."""
    kwargs = {}
    if use_cine is not None:
        kwargs["use_cine"] = use_cine
    if use_doppler is not None:
        kwargs["use_doppler"] = use_doppler
    return replace(config, **kwargs)
