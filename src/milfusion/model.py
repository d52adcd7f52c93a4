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
  * the training step, ``bag_step``: the loss and the gradient of one bag in
    straight-line numpy, bitwise those of the taped path, written into the
    trainer's gradient buffer;
  * batched inference, ``predict_probs``: the class probabilities of a chunk
    of bags at a time, one matmul per layer over the chunk's stacked
    instances and a per-bag (segment) softmax for attention, equal to
    ``forward``'s to rounding.

Degenerate bags: when an enabled modality has no instances in a bag, the
forward pass falls back to the other enabled modality (alpha forced to 1 or
0); if no enabled modality has instances the bag is skipped via BagSkipError.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import checked_json, checked_relative_path, checked_shape
from .encoders import (  # noqa: F401 -- preprocess stays bound here for bench/spans.py
    Encoder,
    EncoderConfig,
    encode_rows,
    init_encoder_arrays,
    preprocess,
    preprocess_rows,
)
from .errors import BagSkipError, ConfigError, ContractError, DataError, DomainError, FormatError
from .metrics import atomic_file
from .pooling import (
    AttentionModule,
    attention_pool,
    relevance_renormalize,
    sa_loss,
    supervised_attention_pool,
)

logger = logging.getLogger(__name__)

N_CLASSES = 3
CHECKPOINT_FORMAT_VERSION = 1


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
    """Deterministic Glorot-uniform initialization of all parameters."""
    rng = np.random.default_rng(seed)
    params = {}
    for prefix, enc in (("cine_encoder.", config.cine_encoder),
                        ("doppler_encoder.", config.doppler_encoder)):
        for name, arr in init_encoder_arrays(enc, rng).items():
            params[prefix + name] = arr
    m, l = config.embed_dim, config.attention_dim
    for name in ATTENTION_NAMES:
        bu = np.sqrt(6.0 / (m + l))
        bw = np.sqrt(6.0 / (l + 1))
        params[f"{name}.U"] = rng.uniform(-bu, bu, size=(l, m))
        params[f"{name}.w"] = rng.uniform(-bw, bw, size=(l,))
    bo = np.sqrt(6.0 / (m + N_CLASSES))
    params["output.W"] = rng.uniform(-bo, bo, size=(N_CLASSES, m))
    params["output.b"] = np.zeros(N_CLASSES)
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


def _encoder_view(config, prefix, leaves):
    weights = {}
    for i in range(len(config.layer_dims)):
        weights[f"layer{i}.W"] = leaves[f"{prefix}layer{i}.W"]
        weights[f"layer{i}.b"] = leaves[f"{prefix}layer{i}.b"]
    return Encoder(config, weights)


def fuse(z, z_dop, att_fusion):
    """Gated average s = alpha z + (1 - alpha) z~; returns (s, alpha as float)."""
    if z.shape != z_dop.shape or len(z.shape) != 1:
        raise ContractError(
            f"fuse needs two 1-D embeddings of equal dim, got "
            f"{list(z.shape)} and {list(z_dop.shape)}"
        )
    return ad.gated_blend(z, z_dop, att_fusion.U, att_fusion.w)


def _encode_modality(enc, instances):
    return encode_rows(enc, ad.Tensor.const(preprocess_rows(enc.config, instances)))


def _branches(cfg, bag):
    """(run cine, run doppler) for one bag; raises BagSkipError if neither can run."""
    run_cine = cfg.use_cine and len(bag.cine_instances) > 0
    run_doppler = cfg.use_doppler and len(bag.doppler_instances) > 0
    if not (run_cine or run_doppler):
        raise BagSkipError(f"bag {bag.id!r}: no instances in any enabled modality")
    if cfg.use_cine and not run_cine:
        logger.info("bag %s: cine empty, falling back to doppler only", bag.id)
    if cfg.use_doppler and not run_doppler:
        logger.info("bag %s: doppler empty, falling back to cine only", bag.id)
    return run_cine, run_doppler


def forward(model, bag):
    """Full forward pass on one bag; see the module docstring for the policy."""
    cfg = model.config
    tape = ad.Tape()
    leaves = {name: tape.leaf(arr) for name, arr in model.params.items()}
    run_cine, run_doppler = _branches(cfg, bag)

    pooled_c = pooled_d = cine_a = None
    if run_cine:
        h = _encode_modality(_encoder_view(cfg.cine_encoder, "cine_encoder.", leaves),
                             bag.cine_instances)
        pooled_c, cine_a = supervised_attention_pool(
            _attention_view(leaves, "att_a"), _attention_view(leaves, "att_b"), h
        )
    if run_doppler:
        h = _encode_modality(_encoder_view(cfg.doppler_encoder, "doppler_encoder.", leaves),
                             bag.doppler_instances)
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
        raw = [inst.relevance for inst in bag.cine_instances]
        if None in raw:
            raise DataError(
                f"bag {bag.id!r}: cine instance lacks a relevance score "
                "(required when lambda_sa > 0)"
            )
        r = relevance_renormalize(raw, cfg.tau)
        loss = ad.add(loss, ad.scalar_mul(cfg.lambda_sa, sa_loss(r, out.cine_A)))
    return loss, out


# ---------------------------------------------------------------------------
# tape-free training step


def _encoder_forward(params, enc_cfg, prefix, rows):
    """Each encoder layer's input rows and, last, the encoder's output [K, M]."""
    hs = [rows]
    for i in range(len(enc_cfg.layer_dims)):
        hs.append(ad.activate(hs[-1] @ params[f"{prefix}layer{i}.W"]
                              + params[f"{prefix}layer{i}.b"], enc_cfg.activation))
    return hs


def _encoder_backward(params, enc_cfg, prefix, hs, G, grads):
    """``linear``'s backward pass through every encoder layer, last layer first."""
    for i in reversed(range(len(enc_cfg.layer_dims))):
        y, W = hs[i + 1], params[f"{prefix}layer{i}.W"]
        G = (1.0 - y * y) * G if enc_cfg.activation == "tanh" else np.where(y > 0.0, G, 0.0)
        np.matmul(hs[i].T, G, out=grads[f"{prefix}layer{i}.W"])
        np.add.reduce(G, axis=0, out=grads[f"{prefix}layer{i}.b"])
        if i:  # the input rows are constants
            G = G @ W.T


def _scores_forward(params, name, H):
    """(tanh(H U'), the attention scores w' tanh(U h_k)) of the rows of H."""
    T = np.tanh(H @ params[f"{name}.U"].T)
    return T, T @ params[f"{name}.w"]


def _scores_backward(params, name, H, T, g, grads):
    """``attention_scores``' backward pass; returns the gradient of H."""
    gT = g[:, None] * params[f"{name}.w"] * (1.0 - T * T)
    np.matmul(gT.T, H, out=grads[f"{name}.U"])
    np.matmul(T.T, g, out=grads[f"{name}.w"])
    return gT @ params[f"{name}.U"]


def _softmax_backward(y, g):
    return y * (g - np.dot(g, y))


def _zero(grads, prefixes):
    for name, view in grads.items():
        if name.startswith(prefixes):
            view.fill(0.0)


def bag_step(model, bag, grad_views):
    """One training step's loss on ``bag`` (its own label), without a tape.

    Writes the gradient of every parameter into ``grad_views[name]`` (as
    made by ``param_views``) and returns the loss as a float. Loss and
    gradient are bitwise those of ``total_loss`` + ``backward``: the forward
    pass and the fused ops' backward expressions are the same numpy
    expressions, run in the tape's reverse node order, and a node with
    several consumers sums their gradients in that order. A parameter the bag
    does not reach gets exact zeros. Raises what ``total_loss`` raises.
    """
    label = bag.label
    if label not in (0, 1, 2):
        raise ContractError(f"label must be in {{0,1,2}}, got {label!r}")
    cfg, params, grads = model.config, model.params, grad_views
    run_cine, run_doppler = _branches(cfg, bag)

    if run_cine:
        hc = _encoder_forward(params, cfg.cine_encoder, "cine_encoder.",
                              preprocess_rows(cfg.cine_encoder, bag.cine_instances))
        H = hc[-1]
        Ta, scores = _scores_forward(params, "att_a", H)
        a = ad.softmax_values(scores)
        Tb, scores = _scores_forward(params, "att_b", H)
        b = ad.softmax_values(scores)
        p = a * b
        total_p = p.sum()
        if total_p == 0.0:
            raise DomainError("normalized_product: the products sum to zero")
        inv = 1.0 / total_p
        c = inv * p
        z = c @ H
    if run_doppler:
        hd = _encoder_forward(params, cfg.doppler_encoder, "doppler_encoder.",
                              preprocess_rows(cfg.doppler_encoder, bag.doppler_instances))
        Hd = hd[-1]
        Td, scores = _scores_forward(params, "att_doppler", Hd)
        d = ad.softmax_values(scores)
        zt = d @ Hd
    if run_cine and run_doppler:
        Uf, wf = params["att_fusion.U"], params["att_fusion.w"]
        t = np.tanh(Uf @ z)
        tt = np.tanh(Uf @ zt)
        alpha = float(ad.logistic(np.array([wf @ t - wf @ tt]))[0])
        s = alpha * z + (1.0 - alpha) * zt
    else:
        s = z if run_cine else zt
    Wo = params["output.W"]
    probs = ad.softmax_values(Wo @ s + params["output.b"])
    py = probs[label]
    if py <= 0.0:
        raise DomainError(f"log: non-positive input ({py!r})")
    loss = -np.log(py)

    ga = None  # the KL term's gradient of a, which the tape sums first
    if run_cine and cfg.lambda_sa > 0:
        raw = [inst.relevance for inst in bag.cine_instances]
        if None in raw:
            raise DataError(
                f"bag {bag.id!r}: cine instance lacks a relevance score "
                "(required when lambda_sa > 0)"
            )
        r = relevance_renormalize(raw, cfg.tau).data
        if (r <= 0.0).any():
            raise DomainError("kl_divergence needs strictly positive reference weights")
        if (a <= 0.0).any():
            raise DomainError(f"log: non-positive input (min={a.min()!r})")
        lam = float(cfg.lambda_sa)
        loss = loss + lam * (np.dot(r, np.log(r)) - np.dot(r, np.log(a)))
        ga = (r * -lam) / a

    g = np.zeros(N_CLASSES)
    g[label] = -1.0 / py
    g = _softmax_backward(probs, g)
    np.multiply(g[:, None], s, out=grads["output.W"])
    grads["output.b"][...] = g
    g = Wo.T @ g
    if run_cine and run_doppler:
        gd = (np.dot(g, z) - np.dot(g, zt)) * (alpha * (1.0 - alpha))
        gt = gd * wf * (1.0 - t * t)
        gtt = -gd * wf * (1.0 - tt * tt)
        gz = alpha * g + Uf.T @ gt
        gzt = (1.0 - alpha) * g + Uf.T @ gtt
        np.add(gt[:, None] * z, gtt[:, None] * zt, out=grads["att_fusion.U"])
        np.multiply(gd, t - tt, out=grads["att_fusion.w"])
    else:
        gz = gzt = g
        _zero(grads, ("att_fusion.",))

    if run_cine:
        gc = H @ gz
        gH = c[:, None] * gz
        gp = inv * (gc - np.dot(gc, c))
        ga = gp * b if ga is None else ga + gp * b
        gH = gH + _scores_backward(params, "att_b", H, Tb, _softmax_backward(b, gp * a), grads)
        gH = gH + _scores_backward(params, "att_a", H, Ta, _softmax_backward(a, ga), grads)
        _encoder_backward(params, cfg.cine_encoder, "cine_encoder.", hc, gH, grads)
    else:
        _zero(grads, ("cine_encoder.", "att_a.", "att_b."))
    if run_doppler:
        gH = d[:, None] * gzt
        gH = gH + _scores_backward(params, "att_doppler", Hd, Td,
                                   _softmax_backward(d, Hd @ gzt), grads)
        _encoder_backward(params, cfg.doppler_encoder, "doppler_encoder.", hd, gH, grads)
    else:
        _zero(grads, ("doppler_encoder.", "att_doppler."))
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


def _scores(params, name, H):
    """Attention scores w' tanh(U h) of the rows of H under module ``name``."""
    return np.tanh(H @ params[f"{name}.U"].T) @ params[f"{name}.w"]


def _pool_batch(params, enc_cfg, prefix, groups, att_names):
    """Pooled [B, M] representations of B bags' instance lists.

    One attention module pools with its softmax weights; two combine their
    weights as c = a b / sum a b (the cine branch's dual attention).
    """
    counts = np.array([len(g) for g in groups])
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    H = preprocess_rows(enc_cfg, [inst for g in groups for inst in g])
    for i in range(len(enc_cfg.layer_dims)):
        H = ad.activate(H @ params[f"{prefix}layer{i}.W"] + params[f"{prefix}layer{i}.b"],
                        enc_cfg.activation)
    weights = _segment_softmax(_scores(params, att_names[0], H), starts, counts)
    if len(att_names) == 2:
        prod = weights * _segment_softmax(_scores(params, att_names[1], H), starts, counts)
        weights = np.repeat(1.0 / np.add.reduceat(prod, starts), counts) * prod
    return np.add.reduceat(weights[:, None] * H, starts, axis=0)


def _chunk_probs(model, chunk):
    """[B, 3] class probabilities of (bag, run cine, run doppler) triples."""
    cfg, params = model.config, model.params
    run_c = np.array([rc for _, rc, _ in chunk])
    run_d = np.array([rd for _, _, rd in chunk])
    s = np.empty((len(chunk), cfg.embed_dim))
    if run_c.any():
        z = _pool_batch(params, cfg.cine_encoder, "cine_encoder.",
                        [bag.cine_instances for bag, rc, _ in chunk if rc], ("att_a", "att_b"))
        s[run_c] = z
    if run_d.any():
        zt = _pool_batch(params, cfg.doppler_encoder, "doppler_encoder.",
                         [bag.doppler_instances for bag, _, rd in chunk if rd], ("att_doppler",))
        s[run_d & ~run_c] = zt[~run_c[run_d]]
        both = run_c & run_d
        if both.any():
            zb, ztb = z[run_d[run_c]], zt[run_c[run_d]]
            diff = _scores(params, "att_fusion", zb) - _scores(params, "att_fusion", ztb)
            alpha = ad.logistic(diff)[:, None]
            s[both] = alpha * zb + (1.0 - alpha) * ztb
    logits = s @ params["output.W"].T + params["output.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_probs(model, bags):
    """Class probabilities of many bags without a tape, INFERENCE_CHUNK bags per pass.

    Returns ``(kept, probs)``: the scored bags in input order and their
    [len(kept), 3] probabilities, equal to ``forward``'s to rounding. A bag
    ``forward`` would skip is logged as a warning and left out.
    """
    bags = list(bags)
    kept, chunks = [], []
    for start in range(0, len(bags), INFERENCE_CHUNK):
        chunk = []
        for bag in bags[start:start + INFERENCE_CHUNK]:
            try:
                chunk.append((bag, *_branches(model.config, bag)))
            except BagSkipError as exc:
                logger.warning("skipping bag: %s", exc)
        if chunk:
            kept.extend(bag for bag, _, _ in chunk)
            chunks.append(_chunk_probs(model, chunk))
    return kept, (np.concatenate(chunks) if chunks else np.empty((0, N_CLASSES)))


# ---------------------------------------------------------------------------
# checkpoints (named-tensor manifest + config block, same binary convention
# as the dataset format)


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
    """Write a checkpoint: every tensor, then a manifest naming them with their digest.

    Each file replaces its previous version atomically, and the manifest goes
    last, so an interrupted save leaves either a complete checkpoint or
    tensors that do not match the manifest's ``params_digest``, which
    ``load_model`` refuses.
    """
    root = Path(dir_path)
    (root / "tensors").mkdir(parents=True, exist_ok=True)
    records = []
    for name in sorted(model.params):
        rel = f"tensors/{name.replace('.', '_')}.bin"
        with atomic_file(root / rel, binary=True) as f:
            f.write(model.params[name].astype("<f8").tobytes())
        records.append({"name": name, "shape": list(model.params[name].shape), "file": rel})
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "params_digest": params_digest(model.params),
        "tensors": records,
    }
    with atomic_file(root / "manifest.json") as f:
        f.write(json.dumps(manifest, indent=1))


def load_model(dir_path):
    root = Path(dir_path)
    path = root / "manifest.json"
    if not path.is_file():
        raise FormatError(f"no checkpoint manifest under {root}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"checkpoint manifest is not valid JSON: {exc}") from exc
    checked_json(manifest, dict, "checkpoint manifest")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(
            f"unsupported checkpoint format_version {manifest.get('format_version')!r}"
        )
    config = config_from_dict(ModelConfig, manifest.get("config"), FormatError,
                              "checkpoint config")
    expected = dict(param_specs(config))
    params = {}
    for index, rec in enumerate(checked_json(manifest.get("tensors", []), list,
                                             "checkpoint tensors")):
        name = checked_json(rec, dict, f"checkpoint tensors[{index}]").get("name")
        if not isinstance(name, str) or name not in expected:
            raise FormatError(f"checkpoint tensor {name!r} is not a model parameter")
        shape = checked_shape(rec.get("shape"), f"checkpoint tensor {name!r}")
        if shape != expected[name]:
            raise FormatError(
                f"checkpoint tensor {name!r}: shape {list(shape)} does not match "
                f"config ({list(expected[name])})"
            )
        fpath = root / checked_relative_path(rec.get("file"), f"checkpoint tensor {name!r}")
        if not fpath.is_file():
            raise FormatError(f"checkpoint tensor {name!r}: missing file {rec.get('file')!r}")
        raw = fpath.read_bytes()
        if len(raw) != 8 * math.prod(shape):
            raise FormatError(f"checkpoint tensor {name!r}: file size does not match shape")
        params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if set(params) != set(expected):
        raise FormatError(
            f"checkpoint lacks tensors: {sorted(set(expected) - set(params))}"
        )
    digest = manifest.get("params_digest")
    if not isinstance(digest, str):
        raise FormatError(f"checkpoint manifest lacks a params_digest string, got {digest!r}")
    if params_digest(params) != digest:
        raise FormatError(f"checkpoint tensors under {root} do not match the manifest's "
                          "params_digest")
    return MMILModel(config, params)


def ablated(config, use_cine=None, use_doppler=None):
    """Copy of a model config with modality switches overridden."""
    kwargs = {}
    if use_cine is not None:
        kwargs["use_cine"] = use_cine
    if use_doppler is not None:
        kwargs["use_doppler"] = use_doppler
    return replace(config, **kwargs)
