"""Attention pooling over instance embeddings.

Three mechanisms:
  * plain attention pooling: weights proportional to exp(w' tanh(U h_k));
  * supervised dual attention: two branches A and B, combined weights
    c_k = a_k b_k / sum_j a_j b_j, with A returned for the supervision loss;
  * the supervision loss itself: KL(R || A) in natural log, where R is a
    temperature-renormalized relevance distribution treated as a constant
    (no gradient flows back into the relevance provider).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .errors import ConfigError, ContractError, DimensionError


@dataclass
class AttentionModule:
    """Trainable pair (U: [L, M], w: [L]) scoring instance embeddings."""

    U: ad.Tensor
    w: ad.Tensor

    def __post_init__(self):
        if len(self.U.shape) != 2 or len(self.w.shape) != 1:
            raise ContractError(
                f"attention module needs U [L,M] and w [L], got "
                f"{list(self.U.shape)} and {list(self.w.shape)}"
            )
        if self.U.shape[0] != self.w.shape[0]:
            raise ContractError(
                f"attention dims disagree: U is {list(self.U.shape)}, w is {list(self.w.shape)}"
            )


@dataclass
class PooledResult:
    representation: ad.Tensor  # [M]
    weights: ad.Tensor  # [K], nonnegative, sums to 1


def _stack(embeddings):
    """Accept a list of [M] tensors or a single [K, M] tensor; return [K, M]."""
    if isinstance(embeddings, ad.Tensor):
        if len(embeddings.shape) != 2:
            raise DimensionError(
                f"embedding matrix must be 2-D, got {list(embeddings.shape)}"
            )
        return embeddings
    embeddings = list(embeddings)
    if not embeddings:
        raise ContractError("cannot pool an empty bag")
    m = embeddings[0].size
    for h in embeddings:
        if len(h.shape) != 1 or h.size != m:
            raise DimensionError("all embeddings must be 1-D with a common dim")
    return ad.reshape(ad.concat(embeddings), (len(embeddings), m))


def attention_pool(att, embeddings):
    """Softmax-attention pooling: representation = sum_k a_k h_k."""
    H = _stack(embeddings)
    weights = ad.softmax(ad.attention_scores(H, att.U, att.w))
    return PooledResult(ad.weighted_sum(weights, H), weights)


def supervised_attention_pool(att_a, att_b, embeddings):
    """Dual-branch pooling with product-combined weights.

    Returns ``(PooledResult, A)`` where A is the supervised branch's softmax
    weights, kept live so the supervision loss can differentiate through it.
    """
    H = _stack(embeddings)
    a = ad.softmax(ad.attention_scores(H, att_a.U, att_a.w))
    b = ad.softmax(ad.attention_scores(H, att_b.U, att_b.w))
    weights = ad.normalized_product(a, b)
    return PooledResult(ad.weighted_sum(weights, H), weights), a


def relevance_renormalize(raw, tau):
    """Temperature renormalization r_k proportional to exp(raw_k / tau), as a constant tensor."""
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if not isinstance(raw, ad.Tensor):
        raw = ad.Tensor.const(raw)
    if len(raw.shape) != 1:
        raise DimensionError(f"relevance vector must be 1-D, got {list(raw.shape)}")
    return ad.Tensor.const(ad.softmax_values((1.0 / tau) * raw.data))


def sa_loss(R, A):
    """KL(R || A) = sum_k r_k log(r_k / a_k), natural log.

    R is detached: its values enter as constants, so the gradient w.r.t. any
    tensor feeding R is identically zero; gradients flow only into A.
    """
    if R.size != A.size:
        raise ContractError(f"length mismatch: R has {R.size}, A has {A.size}")
    return ad.kl_divergence(R.data, A)
