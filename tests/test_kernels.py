import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parconv.errors import ShapeError, ValidationError
from parconv.kernels import (
    ConvParams,
    SgdState,
    conv2d_backward,
    conv2d_forward,
    conv_output_size,
    fc_backward,
    fc_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sgd_step,
    softmax_xent,
    softmax_xent_scaled,
)

from oracles import central_difference, naive_conv2d, naive_matmul, naive_maxpool, relative_error

R = np.random.RandomState


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv_identity_kernel():
    x = np.array([[[[3.25]]]])
    p = ConvParams(weights=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
    assert conv2d_forward(x, p).item() == 3.25


def test_conv_sum_of_nine_ones():
    x = np.ones((1, 1, 3, 3))
    p = ConvParams(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1))
    out = conv2d_forward(x, p)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv_matches_naive_oracle():
    rs = R(0)
    x = rs.randn(1, 2, 5, 5)
    w = rs.randn(3, 2, 3, 3)
    b = rs.randn(3)
    got = conv2d_forward(x, ConvParams(w, b, stride=2, pad=1))
    want = naive_conv2d(x, w, b, stride=2, pad=1)
    assert got.shape == want.shape == (1, 3, 3, 3)
    assert relative_error(got, want, floor=1e-12) < 1e-12


def test_conv_shape_errors():
    p = ConvParams(weights=np.ones((1, 2, 3, 3)), bias=np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d_forward(np.ones((1, 3, 5, 5)), p)  # channel mismatch
    with pytest.raises(ValidationError):
        # (5 - 3) not divisible by stride 2 after padding 0 -> fractional extent
        conv2d_forward(np.ones((1, 2, 6, 6)), ConvParams(np.ones((1, 2, 3, 3)), np.zeros(1), stride=2))


@pytest.mark.parametrize(
    "kernel, stride, pad", [(0, 1, 0), (3, 0, 1), (2, 0, 0), (3, 1, -1), (-1, 1, 0)]
)
def test_conv_output_size_rejects_bad_window(kernel, stride, pad):
    with pytest.raises(ValidationError, match="kernel >= 1, stride >= 1 and pad >= 0"):
        conv_output_size(8, kernel, stride, pad)


@pytest.mark.parametrize("k, stride", [(2, 0), (0, 1), (-2, 2)])
def test_maxpool_rejects_bad_window(k, stride):
    x = np.ones((1, 1, 8, 8))
    with pytest.raises(ValidationError):
        maxpool_forward(x, k, stride)
    with pytest.raises(ValidationError):
        maxpool_backward(x, k, stride, np.ones((1, 1, 4, 4)), np.zeros((1, 1, 4, 4), dtype=int))


def test_conv_backward_zero_upstream():
    rs = R(1)
    x = rs.randn(2, 2, 4, 4)
    p = ConvParams(rs.randn(3, 2, 3, 3), rs.randn(3), stride=1, pad=1)
    gx, gw, gb = conv2d_backward(x, p, np.zeros((2, 3, 4, 4)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_1x1_closed_form():
    rs = R(2)
    x = rs.randn(2, 3, 4, 4)
    p = ConvParams(rs.randn(2, 3, 1, 1), np.zeros(2))
    g = rs.randn(2, 2, 4, 4)
    _, gw, _ = conv2d_backward(x, p, g)
    for n in range(2):
        for c in range(3):
            want = np.sum(x[:, c] * g[:, n])
            assert abs(gw[n, c, 0, 0] - want) < 1e-12


def test_conv_backward_finite_difference():
    rs = R(3)
    x = rs.randn(2, 2, 5, 5)
    w = rs.randn(3, 2, 3, 3)
    b = rs.randn(3)

    def loss():
        out = conv2d_forward(x, ConvParams(w, b, stride=2, pad=1))
        return 0.5 * float(np.sum(out * out))

    out = conv2d_forward(x, ConvParams(w, b, stride=2, pad=1))
    gx, gw, gb = conv2d_backward(x, ConvParams(w, b, stride=2, pad=1), out)
    assert relative_error(gx, central_difference(loss, x)) < 1e-4
    assert relative_error(gw, central_difference(loss, w)) < 1e-4
    assert relative_error(gb, central_difference(loss, b)) < 1e-4


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------


def test_fc_identity_and_constant():
    x = R(4).randn(3, 4)
    assert np.array_equal(fc_forward(x, np.eye(4), np.zeros(4)), x)
    b = np.array([1.0, -2.0])
    out = fc_forward(x, np.zeros((4, 2)), b)
    assert np.array_equal(out, np.tile(b, (3, 1)))


def test_fc_matches_naive_matmul():
    rs = R(5)
    x, w, b = rs.randn(3, 4), rs.randn(4, 2), rs.randn(2)
    got = fc_forward(x, w, b)
    want = naive_matmul(x, w) + b
    assert relative_error(got, want, floor=1e-12) < 1e-12


def test_fc_shape_error():
    with pytest.raises(ShapeError):
        fc_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))


def test_fc_backward_trivial_cases():
    rs = R(6)
    x, w = rs.randn(2, 3), rs.randn(3, 4)
    gx, gw, gb = fc_backward(x, w, np.zeros((2, 4)))
    assert not gx.any() and not gw.any() and not gb.any()
    # B = 1, U = 1: grad_weights is the input scaled by the single upstream value
    x1, w1 = rs.randn(1, 3), rs.randn(3, 1)
    g1 = rs.randn(1, 1)
    _, gw1, gb1 = fc_backward(x1, w1, g1)
    assert np.allclose(gw1[:, 0], x1[0] * g1[0, 0], atol=1e-15)
    assert gb1[0] == g1[0, 0]


def test_fc_backward_finite_difference():
    rs = R(7)
    x, w, b = rs.randn(3, 5), rs.randn(5, 4), rs.randn(4)

    def loss():
        out = fc_forward(x, w, b)
        return 0.5 * float(np.sum(out * out))

    out = fc_forward(x, w, b)
    gx, gw, gb = fc_backward(x, w, out)
    assert relative_error(gx, central_difference(loss, x)) < 1e-4
    assert relative_error(gw, central_difference(loss, w)) < 1e-4
    # bias gradient is column sums of grad_out
    assert np.allclose(gb, out.sum(axis=0), atol=1e-15)


# ---------------------------------------------------------------------------
# relu / maxpool
# ---------------------------------------------------------------------------


def test_relu_basics_and_tie_at_zero():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu_forward(x), [0.0, 0.0, 2.0])
    g = relu_backward(x, np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(g, [0.0, 0.0, 5.0])


def test_relu_finite_difference_away_from_kink():
    rs = R(8)
    x = rs.randn(2, 3, 4, 4)
    x = np.where(np.abs(x) < 1e-3, 0.5, x)  # keep clear of the kink

    def loss():
        out = relu_forward(x)
        return 0.5 * float(np.sum(out * out))

    g = relu_backward(x, relu_forward(x))
    assert relative_error(g, central_difference(loss, x)) < 1e-4


def test_maxpool_single_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, argmax = maxpool_forward(x, 2, 2)
    assert out.item() == 4.0
    assert argmax.item() == 3  # flat index within the window


def test_maxpool_tie_routes_to_first():
    x = np.full((1, 1, 2, 2), 7.0)
    out, argmax = maxpool_forward(x, 2, 2)
    assert argmax.item() == 0
    g = maxpool_backward(x, 2, 2, np.ones((1, 1, 1, 1)), argmax)
    assert np.array_equal(g[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_matches_naive_oracle():
    x = R(9).randn(1, 1, 6, 6)
    out, _ = maxpool_forward(x, 2, 2)
    assert np.array_equal(out, naive_maxpool(x, 2, 2))


def test_maxpool_backward_scatters_correctly():
    rs = R(10)
    x = rs.randn(2, 2, 6, 6)
    out, argmax = maxpool_forward(x, 2, 2)
    g = rs.randn(*out.shape)
    gx = maxpool_backward(x, 2, 2, g, argmax)
    assert gx.shape == x.shape
    assert abs(gx.sum() - g.sum()) < 1e-12  # every upstream unit lands exactly once
    # gradient sits only at window maxima
    mask = gx != 0
    assert mask.sum() == g.size


def test_maxpool_overlapping_windows_accumulate():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 5.0  # the max of all four overlapping 2x2 windows
    out, argmax = maxpool_forward(x, 2, 1)
    gx = maxpool_backward(x, 2, 1, np.ones_like(out), argmax)
    assert gx[0, 0, 1, 1] == 4.0


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------


def test_softmax_uniform_logits_loss_is_log_k():
    for k in (2, 5, 10):
        loss, _ = softmax_xent(np.zeros((3, k)), [0, 1, k - 1])
        assert abs(loss - np.log(k)) < 1e-12


def test_softmax_rows_sum_to_zero_and_shift_invariance():
    rs = R(11)
    logits = rs.randn(4, 6) * 3
    labels = rs.randint(0, 6, size=4)
    loss, grad = softmax_xent(logits, labels)
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-12
    shifted_loss, _ = softmax_xent(logits + 123.456, labels)
    assert abs(loss - shifted_loss) < 1e-12


def test_softmax_label_out_of_range():
    with pytest.raises(ValidationError):
        softmax_xent(np.zeros((2, 3)), [0, 3])
    with pytest.raises(ValidationError):
        softmax_xent(np.zeros((2, 3)), [-1, 0])


def test_softmax_finite_difference():
    rs = R(12)
    logits = rs.randn(4, 6)
    labels = rs.randint(0, 6, size=4)

    def loss():
        return softmax_xent(logits, labels)[0]

    _, grad = softmax_xent(logits, labels)
    assert relative_error(grad, central_difference(loss, logits)) < 1e-4


def test_softmax_scaled_matches_mean_form():
    rs = R(13)
    logits = rs.randn(8, 5)
    labels = rs.randint(0, 5, size=8)
    loss_a, grad_a = softmax_xent(logits, labels)
    loss_b, grad_b = softmax_xent_scaled(logits, labels, 1.0 / 8)
    assert loss_a == loss_b
    assert np.array_equal(grad_a, grad_b)


def test_softmax_extreme_logits_stay_finite():
    logits = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 5.0]])
    loss, grad = softmax_xent(logits, [0, 1])
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------


def test_sgd_zero_grad_keeps_params():
    p = [np.array([1.0, 2.0])]
    state = SgdState(learning_rate=0.1, momentum=0.0, weight_decay=0.0, velocity=[np.zeros(2)])
    new_p, _ = sgd_step(p, [np.zeros(2)], state)
    assert np.array_equal(new_p[0], p[0])


def test_sgd_plain_gradient_descent():
    p = [np.array([1.0, -1.0])]
    g = [np.array([0.5, 0.25])]
    state = SgdState(learning_rate=0.1, momentum=0.0, weight_decay=0.0, velocity=[np.zeros(2)])
    new_p, _ = sgd_step(p, g, state)
    assert np.allclose(new_p[0], p[0] - 0.1 * g[0], atol=1e-15)


def test_sgd_two_step_momentum_recurrence():
    # constant gradient g, lr 0.01, momentum 0.9, wd 0, v0 = 0:
    # v1 = -0.01 g                      p1 = p0 - 0.01 g
    # v2 = 0.9 v1 - 0.01 g = -0.019 g   p2 = p0 - 0.029 g
    g_val = 3.0
    p = [np.array([2.0])]
    g = [np.array([g_val])]
    state = SgdState(learning_rate=0.01, momentum=0.9, weight_decay=0.0, velocity=[np.zeros(1)])
    p, state = sgd_step(p, g, state)
    p, state = sgd_step(p, g, state)
    assert abs(state.velocity[0][0] + 0.019 * g_val) < 1e-15
    assert abs(p[0][0] - (2.0 - 0.029 * g_val)) < 1e-15


def test_sgd_pure_no_aliasing_and_deterministic():
    rs = R(14)
    p = [rs.randn(3, 3)]
    g = [rs.randn(3, 3)]
    state = SgdState(velocity=[rs.randn(3, 3)])
    p_copy, v_copy = p[0].copy(), state.velocity[0].copy()
    out1, s1 = sgd_step(p, g, state)
    out2, s2 = sgd_step(p, g, state)
    assert np.array_equal(p[0], p_copy) and np.array_equal(state.velocity[0], v_copy)
    assert out1[0] is not p[0]
    assert np.array_equal(out1[0], out2[0]) and np.array_equal(s1.velocity[0], s2.velocity[0])


def test_sgd_shape_mismatch():
    state = SgdState(velocity=[np.zeros(3)])
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(3)], [np.zeros(4)], state)


def test_sgd_hyper_validation():
    with pytest.raises(ValidationError):
        SgdState(momentum=1.0)
    with pytest.raises(ValidationError):
        SgdState(weight_decay=-0.1)
    SgdState(learning_rate=0.0)  # zero learning rate is a legal (frozen) optimiser


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
               elements=st.floats(-100, 100)),
)
@settings(max_examples=40, deadline=None)
def test_relu_idempotent_and_nonnegative(x):
    out = relu_forward(x)
    assert np.all(out >= 0)
    assert np.array_equal(relu_forward(out), out)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kernels_produce_finite_values(seed):
    rs = R(seed)
    x = rs.randn(2, 2, 6, 6)
    p = ConvParams(rs.randn(4, 2, 3, 3), rs.randn(4), stride=1, pad=1)
    out = conv2d_forward(x, p)
    gx, gw, gb = conv2d_backward(x, p, rs.randn(*out.shape))
    pooled, argmax = maxpool_forward(out, 2, 2)
    flat = pooled.reshape(2, -1)
    w2 = rs.randn(flat.shape[1], 5)
    logits = fc_forward(flat, w2, rs.randn(5))
    loss, grad = softmax_xent(logits, rs.randint(0, 5, size=2))
    for arr in (out, gx, gw, gb, pooled, logits, grad):
        assert np.all(np.isfinite(arr))
    assert np.isfinite(loss)


@given(
    hnp.arrays(np.float64, (3, 5), elements=st.floats(-50, 50)),
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_softmax_simplex_identities(logits, labels):
    loss, grad = softmax_xent(logits, labels)
    assert np.isfinite(loss) and loss >= 0.0
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-12
    shifted, _ = softmax_xent(logits + 7.5, labels)
    assert abs(loss - shifted) < 1e-9


def test_backward_kernels_random_shapes_100_trials():
    """Central finite differences across randomized shapes, 25 trials per kernel."""
    trials = 25
    for t in range(trials):
        rs = R(1000 + t)
        b, c, n = rs.randint(1, 3), rs.randint(1, 3), rs.randint(1, 4)
        k = rs.randint(1, 4)
        h = rs.randint(k, k + 4)
        stride = rs.randint(1, 3)
        pad = rs.randint(0, 2)
        span = h + 2 * pad - k
        h = h + (stride - span % stride) % stride  # keep the geometry integral
        x = rs.randn(b, c, h, h)
        w = rs.randn(n, c, k, k)
        bias = rs.randn(n)
        p = ConvParams(w, bias, stride, pad)

        def conv_loss():
            out = conv2d_forward(x, p)
            return 0.5 * float(np.sum(out * out))

        out = conv2d_forward(x, p)
        gx, gw, gb = conv2d_backward(x, p, out)
        assert relative_error(gx, central_difference(conv_loss, x)) < 1e-4
        assert relative_error(gw, central_difference(conv_loss, w)) < 1e-4
        assert relative_error(gb, central_difference(conv_loss, bias)) < 1e-4
