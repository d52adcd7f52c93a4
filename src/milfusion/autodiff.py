"""Dense float64 tensors with a define-by-run reverse-mode tape.

Design choices, deliberately boring:
  * row-major flat storage, no strides and no broadcasting;
  * a tensor made from an array (a leaf or a constant) holds a read-only 1-D
    view of it, not a copy: a trainable parameter's leaf views the parameter
    array itself. Writing through a tensor's data raises, and the owner of the
    array must not change it while a tape that holds the view is in use
    (update parameters only after ``backward``);
  * ``backward`` hands out gradient arrays read-only and uncopied: one array
    may be the gradient of several nodes (``add`` passes its output gradient
    to both inputs), which read-only arrays keep invisible to callers;
  * a tape is rebuilt for every forward pass and is confined to one thread
    (distinct tapes may run concurrently);
  * softmax subtracts the max before exponentiating; log raises a DomainError
    instead of clamping, so silent NaN sources cannot appear;
  * the model's layers are fused ops, one node each with a hand-written
    backward pass (an encoder layer, attention scores, the attention-weighted
    sum, the dual-attention combine, the fusion gate, the output layer, the
    cross-entropy and the supervision KL), so one bag's ``total_loss`` records
    ~38 nodes. Training runs ``model.prepared_step``, which computes the same loss
    and gradient without a tape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, DomainError


def _flat(values, shape=None):
    """(read-only 1-D float64 view of ``values``, shape tuple), validating positive dims.

    A float64 array in row-major order is viewed, not copied; anything else is
    converted first.
    """
    arr = np.asarray(values, dtype=np.float64)
    shape = arr.shape if shape is None else tuple(int(d) for d in shape)
    if min(shape, default=1) <= 0:
        raise DimensionError(f"tensor dimensions must be positive, got {list(shape)}")
    n = math.prod(shape)
    if arr.size != n:
        raise DimensionError(
            f"{arr.size} values do not fill shape {list(shape)} (needs {n})"
        )
    data = arr.reshape(-1)
    data.setflags(write=False)
    return data, shape


class TapeNode:
    """One recorded operation.

    ``grad_fn`` maps the output gradient to one gradient per input (the saved
    forward values live in its closure); ``None`` marks a leaf.
    """

    __slots__ = ("kind", "input_ids", "shape", "grad_fn")

    def __init__(self, kind, input_ids, shape, grad_fn):
        self.kind = kind
        self.input_ids = input_ids
        self.shape = shape
        self.grad_fn = grad_fn


class Tape:
    """Append-only operation record; node ids are topologically ordered."""

    def __init__(self):
        self.nodes = []
        self.gradients = {}

    def leaf(self, values, shape=None):
        """Register a differentiable leaf (a trainable parameter) viewing ``values``."""
        data, shp = _flat(values, shape)
        self.nodes.append(TapeNode("leaf", (), shp, None))
        return Tensor(data, shp, self, len(self.nodes) - 1)

    def grad(self, tensor):
        """Gradient of the last backward() w.r.t. ``tensor`` (a leaf or op output)."""
        if tensor.tape is not self or tensor.node_id is None:
            raise ContractError("tensor was not recorded on this tape")
        if tensor.node_id not in self.gradients:
            raise ContractError("no gradient recorded; run backward() first")
        return self.gradients[tensor.node_id]


class Tensor:
    """Dense float64 tensor; shape is immutable; optionally attached to a tape."""

    __slots__ = ("data", "shape", "tape", "node_id")

    def __init__(self, data, shape, tape=None, node_id=None):
        self.data = data  # 1-D float64, row-major
        self.shape = shape
        self.tape = tape
        self.node_id = node_id

    @staticmethod
    def const(values, shape=None):
        """A constant (non-differentiable) tensor."""
        data, shp = _flat(values, shape)
        return Tensor(data, shp)

    @property
    def size(self):
        return self.data.size

    def value(self):
        """Shaped copy of the data."""
        return self.data.reshape(self.shape).copy()

    def __repr__(self):
        tag = "" if self.tape is None else f", node={self.node_id}"
        return f"Tensor(shape={list(self.shape)}{tag})"


def _emit(kind, data, shape, inputs, grad_fn):
    """The op's output: recorded on its operands' tape, or a constant if none has one."""
    tape, input_ids = None, []
    for t in inputs:
        input_ids.append(t.node_id)
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands were recorded on different tapes")
    if tape is None:
        return Tensor(data, shape)
    tape.nodes.append(TapeNode(kind, tuple(input_ids), shape, grad_fn))
    return Tensor(data, shape, tape, len(tape.nodes) - 1)


def _same_shape(kind, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{kind}: shapes {list(a.shape)} and {list(b.shape)} differ")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    _same_shape("add", a, b)
    return _emit("add", a.data + b.data, a.shape, (a, b), lambda g: (g, g))


def mul(a, b):
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, a.shape, (a, b), lambda g: (bd * g, ad * g))


def neg(x):
    return _emit("neg", -x.data, x.shape, (x,), lambda g: (-g,))


def tanh(x):
    y = np.tanh(x.data)
    return _emit("tanh", y, x.shape, (x,), lambda g: ((1.0 - y * y) * g,))


def exp(x):
    y = np.exp(x.data)
    return _emit("exp", y, x.shape, (x,), lambda g: (y * g,))


def log(x):
    if np.any(x.data <= 0.0):
        raise DomainError(f"log: non-positive input (min={x.data.min()!r})")
    xd = x.data
    return _emit("log", np.log(xd), x.shape, (x,), lambda g: (g / xd,))


def logistic(x):
    """Elementwise 1 / (1 + exp(-x)) of an array, evaluated without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x):
    y = logistic(x.data)
    return _emit("sigmoid", y, x.shape, (x,), lambda g: (y * (1.0 - y) * g,))


def recip(x):
    if np.any(x.data == 0.0):
        raise DomainError("recip: zero input")
    y = 1.0 / x.data
    return _emit("recip", y, x.shape, (x,), lambda g: (-(y * y) * g,))


def scalar_mul(c, x):
    """Multiply every element of ``x`` by a scalar.

    ``c`` may be a Python number (constant) or a size-1 Tensor, in which case
    the gradient flows into the scalar as well.
    """
    if isinstance(c, Tensor):
        if c.size != 1:
            raise DimensionError(f"scalar_mul: scalar has shape {list(c.shape)}")
        c0 = float(c.data[0])
        xd = x.data
        return _emit(
            "scalar_mul",
            c0 * xd,
            x.shape,
            (c, x),
            lambda g: (np.array([np.dot(g, xd)]), c0 * g),
        )
    c0 = float(c)
    return _emit("scalar_mul", c0 * x.data, x.shape, (x,), lambda g: (c0 * g,))


# ---------------------------------------------------------------------------
# structural ops


def matmul(a, b):
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul needs [m,k] x [k,n], got {list(a.shape)} x {list(b.shape)}"
        )
    m, k = a.shape
    n = b.shape[1]
    A = a.data.reshape(m, k)
    B = b.data.reshape(k, n)
    need_a = a.tape is not None
    need_b = b.tape is not None

    def grad_fn(g):
        G = g.reshape(m, n)
        ga = (G @ B.T).reshape(-1) if need_a else None
        gb = (A.T @ G).reshape(-1) if need_b else None
        return (ga, gb)

    return _emit("matmul", (A @ B).reshape(-1), (m, n), (a, b), grad_fn)


def reshape(x, shape):
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise DimensionError(f"reshape target has non-positive dims: {list(shape)}")
    n = 1
    for d in shape:
        n *= d
    if n != x.size:
        raise DimensionError(f"cannot reshape {list(x.shape)} into {list(shape)}")
    return _emit("reshape", x.data.copy(), shape, (x,), lambda g: (g.copy(),))


def concat(parts):
    """Concatenate 1-D tensors into one 1-D tensor."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of an empty sequence")
    for p in parts:
        if len(p.shape) != 1:
            raise DimensionError(f"concat needs 1-D tensors, got {list(p.shape)}")
    sizes = [p.size for p in parts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        return tuple(g[offsets[i]:offsets[i + 1]].copy() for i in range(len(sizes)))

    data = np.concatenate([p.data for p in parts])
    return _emit("concat", data, (int(offsets[-1]),), tuple(parts), grad_fn)


def total(x):
    """Sum of all elements, as a shape-[1] tensor."""
    n = x.size
    return _emit("sum", np.array([x.data.sum()]), (1,), (x,), lambda g: (np.full(n, g[0]),))


def pick(x, index):
    """Extract one element of a 1-D tensor as a shape-[1] tensor."""
    if len(x.shape) != 1:
        raise DimensionError(f"pick needs a 1-D tensor, got {list(x.shape)}")
    index = int(index)
    if not 0 <= index < x.shape[0]:
        raise ContractError(f"pick index {index} out of range for length {x.shape[0]}")
    n = x.size

    def grad_fn(g):
        out = np.zeros(n)
        out[index] = g[0]
        return (out,)

    return _emit("pick", np.array([x.data[index]]), (1,), (x,), grad_fn)


def softmax_values(x):
    """Softmax of a 1-D array, computed with max-subtraction."""
    e = x - np.maximum.reduce(x)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e), out=e)


def softmax(x):
    """Softmax over a 1-D tensor, computed with max-subtraction."""
    if len(x.shape) != 1:
        raise DimensionError(f"softmax needs a 1-D tensor, got {list(x.shape)}")
    y = softmax_values(x.data)
    return _emit("softmax", y, x.shape, (x,), lambda g: (y * (g - np.dot(g, y)),))


# ---------------------------------------------------------------------------
# fused ops: each records one node whose backward pass is written by hand and
# skips the gradients of constant inputs


def _check_operands(ok, signature, *operands):
    if not ok:
        shapes = ", ".join(str(list(t.shape)) for t in operands)
        raise DimensionError(f"{signature}: got {shapes}")


def linear(x, W, b):
    """tanh(x W + b) for rows x [K, n], W [n, m], b [m]."""
    _check_operands(len(x.shape) == 2 and len(W.shape) == 2 and x.shape[1] == W.shape[0]
                    and b.shape == W.shape[1:], "linear needs x [K,n], W [n,m], b [m]", x, W, b)
    k, n = x.shape
    m = W.shape[1]
    X = x.data.reshape(k, n)
    Wm = W.data.reshape(n, m)
    y = np.tanh(X @ Wm + b.data)
    need_x, need_w, need_b = x.tape is not None, W.tape is not None, b.tape is not None

    def grad_fn(g):
        G = (1.0 - y * y) * g.reshape(k, m)
        return (
            (G @ Wm.T).reshape(-1) if need_x else None,
            (X.T @ G).reshape(-1) if need_w else None,
            G.sum(axis=0) if need_b else None,
        )

    return _emit("linear", y.reshape(-1), (k, m), (x, W, b), grad_fn)


def attention_scores(H, U, w):
    """Scores s_k = w' tanh(U h_k) of the rows h_k of H [K, M]; U [L, M], w [L] -> [K]."""
    _check_operands(len(H.shape) == 2 and len(U.shape) == 2 and H.shape[1] == U.shape[1]
                    and w.shape == U.shape[:1], "attention_scores needs H [K,M], U [L,M], w [L]",
                    H, U, w)
    k, m = H.shape
    l = U.shape[0]
    Hm = H.data.reshape(k, m)
    Um = U.data.reshape(l, m)
    wd = w.data
    T = np.tanh(Hm @ Um.T)  # [K, L]
    need_h, need_u, need_w = H.tape is not None, U.tape is not None, w.tape is not None

    def grad_fn(g):
        gT = g[:, None] * wd * (1.0 - T * T)
        return (
            (gT @ Um).reshape(-1) if need_h else None,
            (gT.T @ Hm).reshape(-1) if need_u else None,
            T.T @ g if need_w else None,
        )

    return _emit("attention_scores", T @ wd, (k,), (H, U, w), grad_fn)


def weighted_sum(a, H):
    """sum_k a_k h_k for weights a [K] and rows H [K, M] -> [M]."""
    _check_operands(len(H.shape) == 2 and a.shape == H.shape[:1],
                    "weighted_sum needs a [K], H [K,M]", a, H)
    k, m = H.shape
    av = a.data
    Hm = H.data.reshape(k, m)
    need_a, need_h = a.tape is not None, H.tape is not None

    def grad_fn(g):
        return (Hm @ g if need_a else None, (av[:, None] * g).reshape(-1) if need_h else None)

    return _emit("weighted_sum", av @ Hm, (m,), (a, H), grad_fn)


def normalized_product(a, b):
    """c_k = a_k b_k / sum_j a_j b_j for 1-D a and b of one length."""
    _same_shape("normalized_product", a, b)
    av, bv = a.data, b.data
    p = av * bv
    total_p = p.sum()
    if total_p == 0.0:
        raise DomainError("normalized_product: the products sum to zero")
    inv = 1.0 / total_p
    c = inv * p
    need_a, need_b = a.tape is not None, b.tape is not None

    def grad_fn(g):
        gp = inv * (g - np.dot(g, c))
        return (gp * bv if need_a else None, gp * av if need_b else None)

    return _emit("normalized_product", c, a.shape, (a, b), grad_fn)


def gated_blend(z, zt, U, w):
    """Fusion gate: s = alpha z + (1 - alpha) zt, alpha = sigmoid(w' tanh(U z) - w' tanh(U zt)).

    z and zt are 1-D of dim M, U is [L, M], w is [L]. Returns (s, alpha as a
    float).
    """
    _check_operands(len(U.shape) == 2 and z.shape == zt.shape == U.shape[1:]
                    and w.shape == U.shape[:1], "gated_blend needs z [M], zt [M], U [L,M], w [L]",
                    z, zt, U, w)
    l, m = U.shape
    Um = U.data.reshape(l, m)
    wd, zd, ztd = w.data, z.data, zt.data
    t = np.tanh(Um @ zd)
    tt = np.tanh(Um @ ztd)
    alpha = float(logistic(np.array([wd @ t - wd @ tt]))[0])
    need_z, need_zt = z.tape is not None, zt.tape is not None
    need_u, need_w = U.tape is not None, w.tape is not None

    def grad_fn(g):
        gd = (np.dot(g, zd) - np.dot(g, ztd)) * (alpha * (1.0 - alpha))
        gt = gd * wd * (1.0 - t * t)
        gtt = -gd * wd * (1.0 - tt * tt)
        return (
            alpha * g + Um.T @ gt if need_z else None,
            (1.0 - alpha) * g + Um.T @ gtt if need_zt else None,
            (gt[:, None] * zd + gtt[:, None] * ztd).reshape(-1) if need_u else None,
            gd * (t - tt) if need_w else None,
        )

    s = alpha * zd + (1.0 - alpha) * ztd
    return _emit("gated_blend", s, z.shape, (z, zt, U, w), grad_fn), alpha


def affine(W, x, b):
    """W x + b for W [n, m], x [m], b [n] -> [n]."""
    _check_operands(len(W.shape) == 2 and x.shape == W.shape[1:] and b.shape == W.shape[:1],
                    "affine needs W [n,m], x [m], b [n]", W, x, b)
    n, m = W.shape
    Wm = W.data.reshape(n, m)
    xd = x.data
    need_w, need_x = W.tape is not None, x.tape is not None

    def grad_fn(g):
        return ((g[:, None] * xd).reshape(-1) if need_w else None,
                Wm.T @ g if need_x else None, g)

    return _emit("affine", Wm @ xd + b.data, (n,), (W, x, b), grad_fn)


def nll(p, index):
    """-log p[index] of a 1-D probability vector, as a shape-[1] tensor."""
    _check_operands(len(p.shape) == 1, "nll needs p [n]", p)
    index = int(index)
    if not 0 <= index < p.shape[0]:
        raise ContractError(f"nll index {index} out of range for length {p.shape[0]}")
    py = p.data[index]
    if py <= 0.0:
        raise DomainError(f"log: non-positive input ({py!r})")
    n = p.size

    def grad_fn(g):
        out = np.zeros(n)
        out[index] = -g[0] / py
        return (out,)

    return _emit("nll", np.array([-np.log(py)]), (1,), (p,), grad_fn)


def kl_divergence(r, A):
    """KL(r || A) = sum_k r_k log(r_k / A_k) for a constant positive array r and a tensor A.

    r enters as a constant: only A receives a gradient.
    """
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    _check_operands(A.shape == r.shape, f"kl_divergence needs A of shape {list(r.shape)}", A)
    if (r <= 0.0).any():
        raise DomainError("kl_divergence needs strictly positive reference weights")
    av = A.data
    if (av <= 0.0).any():
        raise DomainError(f"log: non-positive input (min={av.min()!r})")
    value = np.dot(r, np.log(r)) - np.dot(r, np.log(av))
    return _emit("kl_divergence", np.array([value]), (1,), (A,),
                 lambda g: ((r * -g[0]) / av,))


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape, loss):
    """Populate ``tape.gradients`` with d(loss)/d(node) for reachable nodes.

    Every leaf gets an entry (zeros when unreachable). The gradient arrays are
    read-only and may be shared between entries. Calling backward twice on the
    same tape recomputes the same gradients.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise ContractError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {list(loss.shape)}")

    nodes = tape.nodes
    adjoint = [None] * len(nodes)  # by node id: the gradient summed so far
    adjoint[loss.node_id] = np.ones(1)
    for nid in range(loss.node_id, -1, -1):
        g = adjoint[nid]
        if g is None:
            continue
        g.setflags(write=False)
        node = nodes[nid]
        if node.grad_fn is None:
            continue
        for iid, ig in zip(node.input_ids, node.grad_fn(g)):
            if iid is None or ig is None:
                continue
            acc = adjoint[iid]
            adjoint[iid] = ig if acc is None else acc + ig

    tape.gradients = {}
    for nid, (node, g) in enumerate(zip(nodes, adjoint)):
        if g is None:
            if node.grad_fn is not None:
                continue
            g = np.zeros(math.prod(node.shape))  # unreachable leaf
            g.setflags(write=False)
        tape.gradients[nid] = Tensor(g, node.shape)
    return tape.gradients
