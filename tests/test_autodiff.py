import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from milfusion import autodiff as ad
from milfusion.errors import ContractError, DimensionError, DomainError

from oracles import max_rel_err, numeric_gradient


def fd_check(build_loss, x0, shape=None, tol=1e-4, step=1e-5):
    """Gradient of build_loss(tape, leaf) at x0 vs central finite differences."""
    x0 = np.asarray(x0, dtype=np.float64)
    shape = shape or x0.shape

    def f(flat):
        tape = ad.Tape()
        leaf = tape.leaf(flat, shape)
        return float(build_loss(tape, leaf).data[0])

    tape = ad.Tape()
    leaf = tape.leaf(x0, shape)
    loss = build_loss(tape, leaf)
    ad.backward(tape, loss)
    got = tape.grad(leaf).data
    want = numeric_gradient(f, x0, step)
    assert max_rel_err(got, want) < tol, f"rel err {max_rel_err(got, want)}"


# ---------------------------------------------------------------------------
# construction


def test_const_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.Tensor.const([1.0, 2.0], shape=(3,))


def test_nonpositive_dims_rejected():
    with pytest.raises(DimensionError):
        ad.Tensor.const([], shape=(0,))


def test_value_is_a_copy():
    t = ad.Tensor.const([[1.0, 2.0]])
    v = t.value()
    v[0, 0] = 99.0
    assert t.data[0] == 1.0


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(ad.Tensor.const([[1.0, 0.0], [0.0, 1.0]]), ad.Tensor.const([[3.0], [4.0]]))
    assert out.value().tolist() == [[3.0], [4.0]]


def test_matmul_zero():
    out = ad.matmul(ad.Tensor.const([[2.0]]), ad.Tensor.const([[0.0]]))
    assert out.value().tolist() == [[0.0]]


def test_matmul_hand_expanded():
    out = ad.matmul(ad.Tensor.const([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor.const([[5.0], [6.0]]))
    assert out.value().tolist() == [[17.0], [39.0]]  # dot-product expansion by hand


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\[2, 2\].*\[3, 1\]"):
        ad.matmul(ad.Tensor.const(np.ones((2, 2))), ad.Tensor.const(np.ones((3, 1))))


# ---------------------------------------------------------------------------
# elementwise


def test_tanh_at_zero_and_one():
    assert ad.tanh(ad.Tensor.const([0.0])).data[0] == 0.0
    # reference series evaluation of tanh(1)
    assert abs(ad.tanh(ad.Tensor.const([1.0])).data[0] - 0.7615941559557649) < 1e-15


def test_exp_identity_case():
    assert ad.exp(ad.Tensor.const([0.0])).data[0] == 1.0


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(ad.Tensor.const([1.0, 0.0]))
    with pytest.raises(DomainError):
        ad.log(ad.Tensor.const([-1.0]))


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.add(ad.Tensor.const([1.0]), ad.Tensor.const([1.0, 2.0]))
    with pytest.raises(DimensionError):
        ad.mul(ad.Tensor.const([[1.0]]), ad.Tensor.const([1.0]))


def test_scalar_mul_constant_and_tensor_scalar():
    x = ad.Tensor.const([1.0, -2.0])
    assert ad.scalar_mul(3.0, x).value().tolist() == [3.0, -6.0]
    c = ad.Tensor.const([0.5])
    assert ad.scalar_mul(c, x).value().tolist() == [0.5, -1.0]
    with pytest.raises(DimensionError):
        ad.scalar_mul(ad.Tensor.const([1.0, 2.0]), x)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry_any_constant():
    for c in (-1000.0, 0.0, 3.7, 1e8):
        out = ad.softmax(ad.Tensor.const([c, c, c])).value()
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_single_element():
    assert ad.softmax(ad.Tensor.const([42.0])).value().tolist() == [1.0]


def test_softmax_direct_evaluation():
    out = ad.softmax(ad.Tensor.const([2.0, 0.0])).value()
    # e^2/(e^2+1), 1/(e^2+1)
    assert abs(out[0] - 0.8807970779778823) < 1e-15
    assert abs(out[1] - 0.11920292202211755) < 1e-15


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-50, 50, size=rng.integers(1, 9))
        y = ad.softmax(ad.Tensor.const(x)).value()
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y > 0)
        y_shift = ad.softmax(ad.Tensor.const(x + 123.456)).value()
        assert np.max(np.abs(y - y_shift)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)))
def test_softmax_values_is_bitwise_the_out_of_place_expression(x):
    # the in-place chain runs exp(x - max(x)) / sum(...) as the expression does
    with np.errstate(all="ignore"):
        e = np.exp(x - np.maximum.reduce(x))
        assert ad.softmax_values(x).tobytes() == (e / np.add.reduce(e)).tobytes()


def test_softmax_rejects_non_1d():
    with pytest.raises(DimensionError):
        ad.softmax(ad.Tensor.const(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    tape = ad.Tape()
    x = tape.leaf([5.0, -1.0, 2.0])
    ad.backward(tape, ad.total(x))
    assert tape.grad(x).value().tolist() == [1.0, 1.0, 1.0]


def test_backward_square():
    tape = ad.Tape()
    x = tape.leaf([3.0])
    ad.backward(tape, ad.mul(x, x))
    assert tape.grad(x).data[0] == 6.0


def test_backward_softmax_cross_entropy_analytic():
    # d(-log softmax(x)_y)/dx = softmax(x) - onehot(y)
    logits = np.array([1.0, 2.0, 3.0])
    tape = ad.Tape()
    x = tape.leaf(logits)
    loss = ad.neg(ad.log(ad.pick(ad.softmax(x), 2)))
    ad.backward(tape, loss)
    e = np.exp(logits - logits.max())
    want = e / e.sum() - np.array([0.0, 0.0, 1.0])
    assert np.max(np.abs(tape.grad(x).data - want)) < 1e-12
    # cross-checked against central differences
    fd_check(lambda t, leaf: ad.neg(ad.log(ad.pick(ad.softmax(leaf), 2))), logits)


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.backward(tape, ad.mul(x, x))


def test_backward_unreachable_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    y = tape.leaf([3.0])
    ad.backward(tape, ad.total(x))
    assert tape.grad(y).value().tolist() == [0.0]


def test_backward_idempotent():
    tape = ad.Tape()
    x = tape.leaf([0.3, -0.7, 1.1])
    loss = ad.total(ad.mul(ad.tanh(x), x))
    ad.backward(tape, loss)
    first = tape.grad(x).value().copy()
    ad.backward(tape, loss)
    assert np.array_equal(first, tape.grad(x).value())


def test_leaf_views_its_array_read_only():
    values = np.arange(1.0, 7.0).reshape(2, 3)
    tape = ad.Tape()
    x = tape.leaf(values)
    assert np.shares_memory(x.data, values)
    with pytest.raises(ValueError):
        x.data[0] = 5.0
    values[0, 0] = 9.0  # the owner of the array can still write it
    assert x.data[0] == 9.0


def test_gradients_are_read_only():
    tape = ad.Tape()
    x = tape.leaf([1.0])
    y = tape.leaf([2.0])
    unused = tape.leaf([3.0])
    ad.backward(tape, ad.add(x, y))
    gx, gy = tape.grad(x).data, tape.grad(y).data
    assert gx.tolist() == gy.tolist() == [1.0]
    for g in (gx, gy, tape.grad(unused).data):
        with pytest.raises(ValueError):
            g[0] = 5.0
    assert gx.tolist() == gy.tolist() == [1.0]


def test_mixed_tapes_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(ContractError):
        ad.add(t1.leaf([1.0]), t2.leaf([1.0]))


def test_constant_inputs_get_no_gradient_entry():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    c = ad.Tensor.const([3.0, 4.0])
    ad.backward(tape, ad.total(ad.mul(x, c)))
    assert tape.grad(x).value().tolist() == [3.0, 4.0]
    with pytest.raises(ContractError):
        tape.grad(c)


# ---------------------------------------------------------------------------
# finite-difference sweep over every op used by the model


def _rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    r3 = ad.Tensor.const(_rand(rng, 3))
    r4 = ad.Tensor.const(_rand(rng, 4))
    r23 = ad.Tensor.const(_rand(rng, 2, 3))
    r32 = ad.Tensor.const(_rand(rng, 3, 2))
    # constants of the fused-op cases, from their own stream so that the
    # inputs of the other cases do not move
    fused_rng = np.random.default_rng([seed, 1])
    r2 = ad.Tensor.const(_rand(fused_rng, 2))
    r33 = ad.Tensor.const(_rand(fused_rng, 3, 3))
    pos3 = ad.Tensor.const(np.abs(_rand(fused_rng, 3)) + 0.2)

    cases = {
        "matmul_left": (lambda t, x: ad.total(ad.mul(ad.reshape(ad.matmul(x, r32), (4,)), r4)), _rand(rng, 2, 3)),
        "matmul_right": (lambda t, x: ad.total(ad.mul(ad.reshape(ad.matmul(r23, x), (4,)), r4)), _rand(rng, 3, 2)),
        "add": (lambda t, x: ad.total(ad.mul(ad.add(x, r3), r3)), _rand(rng, 3)),
        "mul_both": (lambda t, x: ad.total(ad.mul(x, x)), _rand(rng, 3)),
        "neg": (lambda t, x: ad.total(ad.mul(ad.neg(x), r3)), _rand(rng, 3)),
        "tanh": (lambda t, x: ad.total(ad.mul(ad.tanh(x), r3)), _rand(rng, 3)),
        "exp": (lambda t, x: ad.total(ad.mul(ad.exp(x), r3)), _rand(rng, 3)),
        "log": (lambda t, x: ad.total(ad.mul(ad.log(x), r3)), np.abs(_rand(rng, 3)) + 0.5),
        "sigmoid": (lambda t, x: ad.total(ad.mul(ad.sigmoid(x), r3)), _rand(rng, 3)),
        "recip": (lambda t, x: ad.total(ad.mul(ad.recip(x), r3)), np.abs(_rand(rng, 3)) + 0.5),
        "scalar_mul_const": (lambda t, x: ad.total(ad.mul(ad.scalar_mul(1.7, x), r3)), _rand(rng, 3)),
        "scalar_mul_scalar": (
            lambda t, x: ad.total(ad.mul(ad.scalar_mul(ad.pick(x, 0), ad.reshape(x, (4,))), r4)),
            _rand(rng, 4),
        ),
        "softmax": (lambda t, x: ad.total(ad.mul(ad.softmax(x), r4)), _rand(rng, 4)),
        "concat_reshape": (
            lambda t, x: ad.total(ad.mul(ad.reshape(ad.concat([x, ad.neg(x)]), (6,)),
                                         ad.Tensor.const(np.arange(6.0)))),
            _rand(rng, 3),
        ),
        "pick": (lambda t, x: ad.mul(ad.pick(x, 1), ad.pick(x, 1)), _rand(rng, 3)),
        # fused ops, one case per differentiable input
        "linear_x_tanh": (lambda t, x: ad.total(ad.mul(
            ad.reshape(ad.linear(x, r32, r2), (4,)), r4)), _rand(rng, 2, 3)),
        "linear_W_tanh": (lambda t, x: ad.total(ad.mul(
            ad.reshape(ad.linear(r23, x, r2), (4,)), r4)), _rand(rng, 3, 2)),
        "linear_b_tanh": (lambda t, x: ad.total(ad.mul(
            ad.reshape(ad.linear(r23, r32, x), (4,)), r4)), _rand(rng, 2)),
        "attention_scores_H": (lambda t, x: ad.total(ad.mul(
            ad.attention_scores(x, r23, r2), r3)), _rand(rng, 3, 3)),
        "attention_scores_U": (lambda t, x: ad.total(ad.mul(
            ad.attention_scores(r33, x, r2), r3)), _rand(rng, 2, 3)),
        "attention_scores_w": (lambda t, x: ad.total(ad.mul(
            ad.attention_scores(r33, r23, x), r3)), _rand(rng, 2)),
        "weighted_sum_a": (lambda t, x: ad.total(ad.mul(ad.weighted_sum(x, r32), r2)),
                           _rand(rng, 3)),
        "weighted_sum_H": (lambda t, x: ad.total(ad.mul(ad.weighted_sum(r3, x), r2)),
                           _rand(rng, 3, 2)),
        "normalized_product_a": (lambda t, x: ad.total(ad.mul(
            ad.normalized_product(x, pos3), r3)), np.abs(_rand(rng, 3)) + 0.2),
        "normalized_product_b": (lambda t, x: ad.total(ad.mul(
            ad.normalized_product(pos3, x), r3)), np.abs(_rand(rng, 3)) + 0.2),
        "gated_blend_z": (lambda t, x: ad.total(ad.mul(
            ad.gated_blend(x, r3, r23, r2)[0], r3)), _rand(rng, 3)),
        "gated_blend_zt": (lambda t, x: ad.total(ad.mul(
            ad.gated_blend(r3, x, r23, r2)[0], r3)), _rand(rng, 3)),
        "gated_blend_U": (lambda t, x: ad.total(ad.mul(
            ad.gated_blend(r3, pos3, x, r2)[0], r3)), _rand(rng, 2, 3)),
        "gated_blend_w": (lambda t, x: ad.total(ad.mul(
            ad.gated_blend(r3, pos3, r23, x)[0], r3)), _rand(rng, 2)),
        "affine_W": (lambda t, x: ad.total(ad.mul(ad.affine(x, r3, r2), r2)), _rand(rng, 2, 3)),
        "affine_x": (lambda t, x: ad.total(ad.mul(ad.affine(r23, x, r2), r2)), _rand(rng, 3)),
        "affine_b": (lambda t, x: ad.total(ad.mul(ad.affine(r23, r3, x), r2)), _rand(rng, 2)),
        "nll": (lambda t, x: ad.nll(ad.softmax(x), 2), _rand(rng, 4)),
        "kl_divergence": (lambda t, x: ad.kl_divergence(pos3.data / pos3.data.sum(),
                                                        ad.softmax(x)), _rand(rng, 3)),
    }
    for name, (build, x0) in cases.items():
        try:
            fd_check(build, np.asarray(x0))
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None


def test_fused_ops_reject_mismatched_shapes():
    c = lambda *shape: ad.Tensor.const(np.ones(shape))
    calls = [
        lambda: ad.linear(c(2, 3), c(2, 3), c(3)),
        lambda: ad.linear(c(2, 3), c(3, 2), c(3)),
        lambda: ad.attention_scores(c(3), c(2, 3), c(2)),
        lambda: ad.attention_scores(c(4, 3), c(2, 3), c(3)),
        lambda: ad.weighted_sum(c(3), c(2, 4)),
        lambda: ad.normalized_product(c(3), c(2)),
        lambda: ad.gated_blend(c(3), c(2), c(2, 3), c(2)),
        lambda: ad.affine(c(2, 3), c(2), c(2)),
        lambda: ad.nll(c(2, 2), 0),
        lambda: ad.kl_divergence(np.full(2, 0.5), c(3)),
    ]
    for call in calls:
        with pytest.raises(DimensionError):
            call()


def test_logistic_bytes_match_the_two_branch_form():
    edges = np.array([0.0, 1e-320, 709.0, 745.0, 1e308, np.inf])
    x = np.concatenate([edges, -edges, np.random.default_rng(0).normal(0, 20, 500_000)])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    want[~pos] = e / (1.0 + e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's default: underflow is silent, overflow warns
        got = ad.logistic(x)
    assert got.tobytes() == want.tobytes()
