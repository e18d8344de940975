import ctypes
import math
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parconv import kernels, load_network
from parconv.errors import ShapeError, ValidationError
from parconv.kernels import (
    SgdState,
    _windows,
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
from parconv.schemes import ParallelPlan, plan_columnized

from oracles import (
    CONFIGS,
    central_difference,
    naive_col2im,
    naive_conv2d,
    naive_matmul,
    naive_maxpool,
    relative_error,
)

R = np.random.RandomState


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv_identity_kernel():
    x = np.array([[[[3.25]]]])
    assert conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1)).item() == 3.25


def test_conv_sum_of_nine_ones():
    x = np.ones((1, 1, 3, 3))
    out = conv2d_forward(x, np.ones((1, 1, 3, 3)), np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv_matches_naive_oracle():
    rs = R(0)
    x = rs.randn(1, 2, 5, 5)
    w = rs.randn(3, 2, 3, 3)
    b = rs.randn(3)
    got = conv2d_forward(x, w, b, stride=2, pad=1)
    want = naive_conv2d(x, w, b, stride=2, pad=1)
    assert got.shape == want.shape == (1, 3, 3, 3)
    assert relative_error(got, want, floor=1e-12) < 1e-12


def test_conv_shape_errors():
    w, b = np.ones((1, 2, 3, 3)), np.zeros(1)
    with pytest.raises(ShapeError):
        conv2d_forward(np.ones((1, 3, 5, 5)), w, b)  # channel mismatch
    with pytest.raises(ValidationError):
        # (5 - 3) not divisible by stride 2 after padding 0 -> fractional extent
        conv2d_forward(np.ones((1, 2, 6, 6)), w, b, stride=2)


X5 = np.ones((1, 2, 5, 5))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: conv2d_forward(X5, np.ones((1, 2, 3, 2)), np.zeros(1)), "weights must be"),
        (lambda: conv2d_backward(X5, np.ones((1, 2, 3, 2)), np.ones((1, 1, 3, 4))),
         "weights must be"),
        (lambda: conv2d_forward(X5, np.ones((1, 2, 3, 3)), np.zeros(2)), "bias shape"),
        (lambda: conv2d_forward(X5, np.ones((1, 2, 3, 3)), np.zeros((1, 1))), "bias shape"),
        (lambda: conv2d_forward(X5, np.ones((1, 3, 3, 3)), np.zeros(1)), "channels"),
        (lambda: conv2d_backward(X5, np.ones((1, 3, 3, 3)), np.ones((1, 1, 3, 3))), "channels"),
        (lambda: conv2d_backward(X5, np.ones((1, 2, 3, 3)), np.ones((1, 1, 2, 2))), "grad_out"),
        (lambda: conv2d_backward(X5, np.ones((1, 2, 3, 3)), np.ones((1, 2, 3, 3))), "grad_out"),
    ],
    ids=[
        "non-square-forward", "non-square-backward", "bias-length", "bias-2d",
        "channels-forward", "channels-backward", "grad-out-extent", "grad-out-channels",
    ],
)
def test_conv_rejects_bad_shapes(call, match):
    with pytest.raises(ShapeError, match=match):
        call()


@given(
    st.integers(1, 4), st.integers(1, 3), st.integers(0, 2), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@example(3, 2, 0, 3, 2, 0)  # overlapping 3/2 pooling windows
@example(3, 2, 1, 4, 3, 1)  # stride-2, pad-1 conv windows
@settings(max_examples=60, deadline=None)
def test_windows_match_sliding_window_view(k, stride, pad, ho, wo, seed):
    h, w = (ho - 1) * stride + k - 2 * pad, (wo - 1) * stride + k - 2 * pad
    assume(h >= 1 and w >= 1)
    x = R(seed).randn(2, 3, h, w)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    want = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    want = want[:, :, ::stride, ::stride]
    got = _windows(padded, k, stride)
    assert got.shape == want.shape == (2, 3, ho, wo, k, k)
    assert np.array_equal(got, want)
    assert not got.flags.writeable


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
    w = rs.randn(3, 2, 3, 3)
    gx, gw, gb = conv2d_backward(x, w, np.zeros((2, 3, 4, 4)), stride=1, pad=1)
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_1x1_closed_form():
    rs = R(2)
    x = rs.randn(2, 3, 4, 4)
    w = rs.randn(2, 3, 1, 1)
    g = rs.randn(2, 2, 4, 4)
    _, gw, _ = conv2d_backward(x, w, g)
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
        out = conv2d_forward(x, w, b, stride=2, pad=1)
        return 0.5 * float(np.sum(out * out))

    out = conv2d_forward(x, w, b, stride=2, pad=1)
    gx, gw, gb = conv2d_backward(x, w, out, stride=2, pad=1)
    assert relative_error(gx, central_difference(loss, x)) < 1e-4
    assert relative_error(gw, central_difference(loss, w)) < 1e-4
    assert relative_error(gb, central_difference(loss, b)) < 1e-4


@pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2), (4, 0)])
def test_conv_backward_paths_agree_on_float_data(stride, pad):
    """With the input gradient the weight gradient comes from grad_out's
    columns, without it from x's: the same products summed in another order, so
    on float data they agree to rounding, and the bias gradients bitwise."""
    rs = R(4)
    x = rs.randn(3, 4, 7, 7)
    w = rs.randn(5, 4, 3, 3)
    out = conv2d_forward(x, w, rs.randn(5), stride, pad)
    g = rs.randn(*out.shape)
    _, gw, gb = conv2d_backward(x, w, g, stride, pad)
    skipped, gw2, gb2 = conv2d_backward(x, w, g, stride, pad, input_grad=False)
    assert skipped is None
    assert gw2.shape == gw.shape
    assert np.max(np.abs(gw2 - gw)) <= 1e-14 * np.max(np.abs(gw))
    assert gb2.tobytes() == gb.tobytes() and gb2.shape == gb.shape


@pytest.fixture
def unfolds(monkeypatch):
    """Each kernels._unfolded call, as (array unfolded, channels-last?)."""
    calls, real = [], kernels._unfolded

    def spy(a, *args):
        calls.append((a, args[-1]))
        return real(a, *args)

    monkeypatch.setattr(kernels, "_unfolded", spy)
    return calls


def _one_unfold(unfolds, call):
    """call()'s result and the layout of the one array it unfolds."""
    unfolds.clear()
    result = call()
    assert len(unfolds) == 1
    return result, unfolds[0][1]


def _padded_windows(x, k, stride, pad):
    """(B, C, H', W', k, k) windows of x, by sliding_window_view."""
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


# (channels-last?, stride > 1): the forward's exact oracle draws all four; the
# transposed conv runs channels-last, the weight-only backward channels-first
CHANNELS_FIRST = {(False, False), (False, True)}
CHANNELS_LAST = {(True, False), (True, True)}
EVERY_LAYOUT = CHANNELS_FIRST | CHANNELS_LAST


def _integer_geometries():
    """80 random (k, stride, pad) with integer-valued x, weights and upstream
    gradient, as (k, stride, pad, x, weights, g): overlapping (stride < k),
    abutting and gapped (stride > k) windows, and pads as wide as the window.
    Every sum of their products is exact, so any summing order gives the same
    bits."""
    for t in range(80):
        rs = R(2000 + t)
        k, stride = rs.randint(1, 5), rs.randint(1, 5)
        pad = rs.randint(0, k + 2)
        ho, wo = rs.randint(1, 7), rs.randint(1, 7)
        h, w = stride * (ho - 1) + k - 2 * pad, stride * (wo - 1) + k - 2 * pad
        if min(h, w) < 1:
            continue
        n, c = rs.randint(1, 4), rs.randint(1, 4)
        x = rs.randint(-9, 10, size=(2, c, h, w)).astype(np.float64)
        weights = rs.randint(-9, 10, size=(n, c, k, k)).astype(np.float64)
        g = rs.randint(-9, 10, size=(2, n, ho, wo)).astype(np.float64)
        yield k, stride, pad, x, weights, g


def test_conv_input_gradient_matches_scatter_oracle(unfolds):
    """The transposed conv against scattering each window's gradient back onto the
    pixels it covers, bitwise on the integer-valued geometries, from
    channels-last rows of grad_out, spread or not."""
    kinds, wide_pads, layouts = set(), 0, set()
    for k, stride, pad, x, weights, g in _integer_geometries():
        kinds.add((stride > k) - (stride < k))
        wide_pads += pad >= k
        (got, _, _), last = _one_unfold(
            unfolds, lambda: conv2d_backward(x, weights, g, stride, pad)
        )
        layouts.add((last, stride > 1))
        want = naive_col2im(np.einsum("nckl,bnyx->bcklyx", weights, g), x.shape[2:], stride, pad)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert np.array_equal(got, want), (k, stride, pad, last)
    assert kinds == {-1, 0, 1}  # overlapping, abutting and gapped windows all drawn
    assert wide_pads > 0
    assert layouts == CHANNELS_LAST


def test_conv_forward_matches_exact_oracle(unfolds):
    """The forward against an einsum over x's windows, bitwise on the
    integer-valued geometries, from columns of both layouts, at stride 1 and
    larger."""
    layouts = set()
    for t, (k, stride, pad, x, weights, _) in enumerate(_integer_geometries()):
        b = np.arange(weights.shape[0], dtype=np.float64) - t % 3
        out, last = _one_unfold(unfolds, lambda: conv2d_forward(x, weights, b, stride, pad))
        layouts.add((last, stride > 1))
        win = _padded_windows(x, k, stride, pad)
        want = np.einsum("nckl,bcyxkl->bnyx", weights, win) + b[:, None, None]
        assert out.shape == want.shape and out.flags.c_contiguous
        assert np.array_equal(out, want), (k, stride, pad, last)
    assert layouts == EVERY_LAYOUT


def test_conv_weight_gradient_of_both_paths_matches_exact_oracle(unfolds):
    """The weight gradient from grad_out's columns (input_grad=True) and from
    x's (input_grad=False) both equal an einsum over x's windows, and the bias
    gradient equals grad_out's sum, bitwise on the integer-valued geometries,
    at stride 1 and larger: the first route from channels-last rows, the
    second from channels-first columns."""
    layouts = {True: set(), False: set()}
    for k, stride, pad, x, weights, g in _integer_geometries():
        win = _padded_windows(x, k, stride, pad)
        want_w, want_b = np.einsum("bnyx,bcyxkl->nckl", g, win), np.einsum("bnyx->n", g)
        for input_grad in (True, False):
            (_, gw, gb), last = _one_unfold(
                unfolds, lambda: conv2d_backward(x, weights, g, stride, pad, input_grad=input_grad)
            )
            layouts[input_grad].add((last, stride > 1))
            assert gw.shape == weights.shape and gw.flags.c_contiguous
            assert np.array_equal(gw, want_w), (k, stride, pad, input_grad, last)
            assert np.array_equal(gb, want_b), (k, stride, pad, input_grad, last)
    assert layouts[True] == CHANNELS_LAST
    assert layouts[False] == CHANNELS_FIRST


def test_conv_unfolds_one_array_per_call(unfolds):
    """The forward unfolds x; the backward unfolds grad_out when it computes the
    input gradient and x when it does not, once per call either way: the
    forward in the layout whose contiguous runs are longer, here
    channels-first (k*C 9 against W' 10), grad_out channels-last and x for
    the weight gradient alone channels-first."""
    rs = R(5)
    x, w, b, g = rs.randn(2, 3, 10, 10), rs.randn(4, 3, 3, 3), rs.randn(4), rs.randn(2, 4, 10, 10)
    calls = [
        (lambda: conv2d_forward(x, w, b, 1, 1), x, False),
        (lambda: conv2d_backward(x, w, g, 1, 1), g, True),
        (lambda: conv2d_backward(x, w, g, 1, 1, input_grad=False), x, False),
    ]
    for call, want, want_last in calls:
        _, last = _one_unfold(unfolds, call)
        assert unfolds[0][0] is want and last is want_last


def _conv_layouts(unfolds, net, columns, index):
    """Filters per column and the layouts of the forward's and the backward's
    unfolds at conv layer `index` of `net`, split `columns` ways crossing at
    layer 3 as the shipped plans do; the backward takes the input gradient
    except at layer 0, as the column engine does."""
    plan = ParallelPlan(1, columns, (3,) if columns > 1 else ())
    cl = plan_columnized(net, plan).col_layers[index]
    (stride, pad), rs = (cl.layer.stride, cl.layer.pad), R(index)
    x, w, g = rs.randn(1, *cl.in_shape), rs.randn(*cl.weight_shape), rs.randn(1, *cl.out_shape)
    _, fwd = _one_unfold(unfolds, lambda: conv2d_forward(x, w, rs.randn(w.shape[0]), stride, pad))
    _, bwd = _one_unfold(unfolds, lambda: conv2d_backward(x, w, g, stride, pad, index > 0))
    return w.shape[0], fwd, bwd


def test_conv_layout_rule_on_shipped_layers(unfolds):
    """midnet's layer 0 stays channels-first (k*C 15 against W' 24) in the
    forward and in the backward without the input gradient; its layer 3 goes
    channels-last in the forward (k*C 80 against W' 12) and the transposed
    conv at N = 32, 16 and 8. tinynet d1m4's layer 3 is channels-last both
    ways (k*C 24 against W' 8), its transposed conv although k*N is 6
    against W 8."""
    mid = load_network(CONFIGS.parent / "stepbench" / "configs" / "midnet.net")
    for columns, filters in ((1, 32), (2, 16), (4, 8)):
        assert _conv_layouts(unfolds, mid, columns, 0) == (16 // columns, False, False)
        assert _conv_layouts(unfolds, mid, columns, 3) == (filters, True, True)
    tiny = load_network(CONFIGS / "tinynet.net")
    assert _conv_layouts(unfolds, tiny, 4, 0) == (2, False, False)
    assert _conv_layouts(unfolds, tiny, 4, 3) == (2, True, True)


@pytest.mark.parametrize("batch", [1, 4, 7], ids=["batch1", "batch4", "batch7"])
@pytest.mark.parametrize("stride, pad", [(1, 2), (2, 1), (3, 0)])
def test_conv_per_sample_unfold_matches_oracles(batch, stride, pad):
    """One sample per unfold, through a frame and columns that every sample
    reuses: forward and all three gradients stay within 1e-12 of loop and
    einsum oracles, for one sample and for several. C = 3 unfolds x
    channels-first at stride 1 (k*C 9 against W' 11 at pad 2), the wide
    C = 8 channels-last (24 against 11); grad_out is always channels-last."""
    for c, n in ((3, 4), (8, 2)):
        rs = R(stride * 10 + pad + 100 * (c == 8))
        x = rs.randn(batch, c, 9, 9)
        w, b = rs.randn(n, c, 3, 3), rs.randn(n)
        out = conv2d_forward(x, w, b, stride, pad)
        g = rs.randn(*out.shape)
        gx, gw, gb = conv2d_backward(x, w, g, stride, pad)
        pairs = [
            (out, naive_conv2d(x, w, b, stride, pad)),
            (gx, naive_col2im(np.einsum("nckl,bnyx->bcklyx", w, g), (9, 9), stride, pad)),
            (gw, np.einsum("bnyx,bcyxkl->nckl", g, _padded_windows(x, 3, stride, pad))),
            (gb, np.einsum("bnyx->n", g)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (c, n)


def test_conv_batch_is_its_samples_bit_for_bit():
    """Midnet's layer 0 (no input gradient), layer 3 and a d1m2 column at layer
    3: each sample's forward and input gradient equal its slice of the batch
    call, and the batch weight gradient equals the running in-order sum of the
    single-sample ones, bit for bit."""
    rs = R(13)
    cases = [
        ((32, 3, 24, 24), (16, 3, 5, 5), False),
        ((32, 16, 12, 12), (32, 16, 5, 5), True),
        ((32, 16, 12, 12), (16, 16, 5, 5), True),
    ]
    for x_shape, w_shape, input_grad in cases:
        x, w, b = rs.randn(*x_shape), rs.randn(*w_shape), rs.randn(w_shape[0])
        out = conv2d_forward(x, w, b, 1, 2)
        g = rs.randn(*out.shape)
        gx, gw, _ = conv2d_backward(x, w, g, 1, 2, input_grad)
        running = np.zeros_like(gw)
        for s in range(32):
            one = conv2d_forward(x[s : s + 1], w, b, 1, 2)
            gx_one, gw_one, _ = conv2d_backward(x[s : s + 1], w, g[s : s + 1], 1, 2, input_grad)
            assert one.tobytes() == out[s : s + 1].tobytes()
            if input_grad:
                assert gx_one.tobytes() == gx[s : s + 1].tobytes()
            else:
                assert gx is None and gx_one is None
            running += gw_one
        assert running.tobytes() == gw.tobytes(), (w_shape, input_grad)


def test_row_blocks_on_shipped_layer_3():
    """midnet's layer 3 at N = 32 cuts its forward, (144, 400) @ (400, 32), and
    its transposed conv, (144, 800) @ (800, 16), into two 72-row products of
    0.92e6 multiply-adds; at N = 16 and 8, and on tinynet's layer 3 at every
    column count, each product stays whole."""
    two = [slice(0, 72), slice(72, 144)]
    assert kernels._row_blocks(144, 400, 32) == two
    assert kernels._row_blocks(144, 800, 16) == two
    for shape in ((144, 400, 16), (144, 800, 8)):
        assert kernels._row_blocks(*shape) == [slice(0, 144)]
    tiny = load_network(CONFIGS / "tinynet.net")
    for columns in (1, 2, 4):
        plan = ParallelPlan(1, columns, (3,) if columns > 1 else ())
        cl = plan_columnized(tiny, plan).col_layers[3]
        (n, c, k, _), (_, h, w), (_, ho, wo) = cl.weight_shape, cl.in_shape, cl.out_shape
        assert kernels._row_blocks(ho * wo, k * k * c, n) == [slice(0, ho * wo)]
        assert kernels._row_blocks(h * w, k * k * n, c) == [slice(0, h * w)]


def test_row_blocks_are_the_fewest_within_the_small_kernel():
    """Every block takes at most SMALL_GEMM multiply-adds and one block fewer
    could not; the blocks tile the rows in order, their row counts within
    one of each other; a single row above SMALL_GEMM leaves the product
    whole."""
    rs = R(21)
    for _ in range(200):
        m, inner, n = rs.randint(1, 600), rs.randint(1, 2000), rs.randint(1, 100)
        blocks = kernels._row_blocks(m, inner, n)
        sizes = [blk.stop - blk.start for blk in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == m and min(sizes) >= 1
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        if inner * n > kernels.SMALL_GEMM:
            assert blocks == [slice(0, m)]
            continue
        assert max(sizes) * inner * n <= kernels.SMALL_GEMM
        fewer = -(-m // (len(blocks) - 1)) if len(blocks) > 1 else None
        assert fewer is None or fewer * inner * n > kernels.SMALL_GEMM
    assert kernels._row_blocks(0, 400, 32) == [slice(0, 0)]


def test_conv_split_products_match_exact_oracles_at_midnet_layer_3(monkeypatch):
    """At midnet's layer-3 geometry with N = 32, where the forward's and the
    transposed conv's products each run as two row blocks, the forward, the
    input gradient and the weight gradient equal einsum and scatter oracles
    bit for bit on integer-valued data."""
    blocks, real = [], kernels._row_blocks

    def spy(*shape):
        blocks.append(real(*shape))
        return blocks[-1]

    monkeypatch.setattr(kernels, "_row_blocks", spy)
    rs = R(34)
    x = rs.randint(-9, 10, size=(2, 16, 12, 12)).astype(np.float64)
    w = rs.randint(-9, 10, size=(32, 16, 5, 5)).astype(np.float64)
    b = rs.randint(-9, 10, size=32).astype(np.float64)
    g = rs.randint(-9, 10, size=(2, 32, 12, 12)).astype(np.float64)
    out = conv2d_forward(x, w, b, 1, 2)
    gx, gw, gb = conv2d_backward(x, w, g, 1, 2)
    assert [len(split) for split in blocks] == [2, 2]
    win = _padded_windows(x, 5, 1, 2)
    want_out = np.einsum("nckl,bcyxkl->bnyx", w, win) + b[:, None, None]
    want_gx = naive_col2im(np.einsum("nckl,bnyx->bcklyx", w, g), (12, 12), 1, 2)
    want_gw = np.einsum("bnyx,bcyxkl->nckl", g, win)
    assert out.tobytes() == want_out.tobytes()
    assert gx.tobytes() == want_gx.tobytes()
    assert gw.tobytes() == want_gw.tobytes()
    assert gb.tobytes() == np.einsum("bnyx->n", g).tobytes()


def test_conv_empty_batch():
    x, w = np.ones((0, 2, 5, 5)), np.ones((3, 2, 3, 3))
    out = conv2d_forward(x, w, np.zeros(3), 1, 1)
    assert out.shape == (0, 3, 5, 5)
    gx, gw, gb = conv2d_backward(x, w, out, 1, 1)
    assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (3,)
    assert not gw.any() and not gb.any()


def _loaded_openblas_symbol(name):
    """The symbol `name` of an OpenBLAS library this process has loaded, found
    through /proc/self/maps as stepbench/run.py finds it, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS")
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        symbol = getattr(ctypes.CDLL(path), name, None)
        if symbol is not None:
            return symbol
    return None


def test_blas_pinned_to_one_thread():
    """numpy's OpenBLAS, asked through its C API as stepbench/run.py asks it."""
    getter = _loaded_openblas_symbol("scipy_openblas_get_num_threads64_")
    if getter is None:
        assert kernels.BLAS_THREADS is None
        pytest.skip("numpy's BLAS exports no scipy_openblas_get_num_threads64_")
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert getter() == 1
    assert kernels.BLAS_THREADS == 1


def test_blas_core_recorded():
    """BLAS_CORE is the core name numpy's OpenBLAS reports, or None when it
    exports no scipy_openblas_get_corename64_."""
    corename = _loaded_openblas_symbol("scipy_openblas_get_corename64_")
    if corename is None:
        assert kernels.BLAS_CORE is None
        pytest.skip("numpy's BLAS exports no scipy_openblas_get_corename64_")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    assert kernels.BLAS_CORE == corename().decode() and kernels.BLAS_CORE


def test_training_loads_no_scipy():
    """Only `calibrate` needs scipy, whose optimiser loads a second OpenBLAS:
    a process that imports parconv and takes a step never loads it."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from parconv import *\n"
        "net = load_network(sys.argv[1])\n"
        "plan = ParallelPlan(1, 2, (3,))\n"
        "cs = columnize(net, 2, (3,))\n"
        "fab = spawn(plan.workers)\n"
        "setup_workers(fab, plan, cs, init_dense_params(net, 0), SgdState())\n"
        "step = hybrid_step(fab, plan, cs, np.zeros((8,) + net.input_shape), np.arange(8))\n"
        "print(np.isfinite(step.loss), 'scipy' in sys.modules)\n"
    )
    repo = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", script, str(repo / "configs" / "tinynet.net")],
        cwd=repo / "src", capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True False\n"


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def test_malloc_pinned(capfd):
    """glibc's malloc, asked through its own reports: from a new thread, a
    31 MiB block comes from the heap (mmap threshold 32 MiB), freeing it gives
    nothing back to the system (trim threshold 64 MiB), and every thread
    shares one arena."""
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the C library is not glibc")
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("glibc older than 2.33 has no mallinfo2")
    libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None
    libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], _Mallinfo2
    libc.malloc_stats.argtypes, libc.malloc_stats.restype = [], None
    info = []

    def allocate():
        info.append(libc.mallinfo2())
        block = libc.malloc(31 * 2**20)
        info.append(libc.mallinfo2())
        libc.free(block)
        info.append(libc.mallinfo2())

    thread = threading.Thread(target=allocate)
    thread.start()
    thread.join()
    before, held, after = info
    assert kernels.MALLOC_PINNED is True
    assert held.hblks == before.hblks and held.arena >= 31 * 2**20
    assert after.arena == held.arena
    capfd.readouterr()
    libc.malloc_stats()
    assert capfd.readouterr().err.count("Arena ") == 1


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
    with pytest.raises(ShapeError, match="inner dimensions"):
        fc_backward(np.ones((2, 3)), np.ones((5, 4)), np.ones((2, 4)))


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


@pytest.mark.parametrize(
    "g_shape, argmax_shape", [((1, 1, 2, 1), (1, 1, 2, 2)), ((1, 1, 2, 2), (1, 1, 1, 1))]
)
def test_maxpool_backward_rejects_bad_shapes(g_shape, argmax_shape):
    g, argmax = np.ones(g_shape), np.zeros(argmax_shape, dtype=int)
    with pytest.raises(ShapeError, match="maxpool grad_out/argmax shape mismatch"):
        maxpool_backward(np.ones((1, 1, 4, 4)), 2, 2, g, argmax)


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


def _window_argmax(x, k, stride):
    """Today's reference: np.argmax over a copied (B, C, H', W', k*k) window array."""
    win = _windows(x, k, stride)
    return np.argmax(win.reshape(*win.shape[:4], k * k), axis=-1)


@pytest.mark.parametrize("k, stride", [(2, 2), (3, 2), (2, 1), (2, 3), (1, 1), (3, 3)])
def test_maxpool_argmax_bitwise_as_np_argmax_on_relu_outputs(k, stride):
    """ReLU outputs tie at zero in most windows; overlapping (3/2, 2/1) and gapped
    (2/3) windows too. The running max keeps np.argmax's first-max rule."""
    rs = R(20 + 10 * k + stride)
    x = relu_forward(rs.randn(3, 4, stride * 5 + k, stride * 4 + k) - 0.5)
    assert np.mean(x == 0.0) > 0.5
    out, argmax = maxpool_forward(x, k, stride)
    want = _window_argmax(x, k, stride)
    assert argmax.dtype == want.dtype and np.array_equal(argmax, want)
    assert np.array_equal(out, naive_maxpool(x, k, stride))


@pytest.mark.parametrize("k, stride", [(2, 2), (3, 2), (2, 3)])
def test_maxpool_out_is_the_entry_argmax_points_to_with_nan(k, stride):
    rs = R(30 + k + stride)
    values = np.array([np.nan, -np.inf, -1.0, -0.0, 0.0, 2.0, np.inf])
    x = rs.choice(values, size=(4, 3, stride * 6 + k, stride * 5 + k))
    out, argmax = maxpool_forward(x, k, stride)
    win = _windows(x, k, stride)
    picked = np.take_along_axis(win.reshape(*win.shape[:4], k * k), argmax[..., None], -1)[..., 0]
    assert np.isnan(out).any() and not np.isnan(out).all()
    assert np.array_equal(out, picked, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(picked))
    assert np.array_equal(argmax, _window_argmax(x, k, stride))


def test_relu_backward_masks_like_where():
    """grad_out * (x > 0) equals the masked select; masked entries may be -0.0."""
    rs = R(40)
    x = relu_forward(rs.randn(2, 3, 5, 5)) - rs.randint(0, 2, size=(2, 3, 5, 5))
    g = rs.randn(*x.shape)
    got = relu_backward(x, g)
    assert np.array_equal(got, np.where(x > 0.0, g, 0.0))
    masked_negative = (x <= 0.0) & (g < 0.0)
    assert masked_negative.any() and np.signbit(got[masked_negative]).all()


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


def test_softmax_rejects_non_integer_labels():
    """Labels are class indices: float labels are refused, not truncated."""
    for call in (
        lambda: softmax_xent(np.zeros((2, 3)), [0.9, 2.2]),
        lambda: softmax_xent(np.zeros((2, 3)), np.array([0.0, 2.0])),
        lambda: softmax_xent_scaled(np.zeros((2, 3)), np.array([True, False]), 0.5),
    ):
        with pytest.raises(ValidationError, match="labels of dtype"):
            call()
    for dtype in (np.int8, np.uint16, np.int64):
        loss, _ = softmax_xent(np.zeros((2, 3)), np.array([0, 2], dtype=dtype))
        assert loss == pytest.approx(math.log(3))


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
    p = np.array([1.0, 2.0])
    sgd = SgdState(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    sgd_step(p, np.zeros(2), np.zeros(2), sgd)
    assert np.array_equal(p, [1.0, 2.0])


def test_sgd_plain_gradient_descent():
    p = np.array([1.0, -1.0])
    g = np.array([0.5, 0.25])
    sgd_step(p, g, np.zeros(2), SgdState(learning_rate=0.1, momentum=0.0, weight_decay=0.0))
    assert np.allclose(p, np.array([1.0, -1.0]) - 0.1 * g, atol=1e-15)


def test_sgd_two_step_momentum_recurrence():
    # constant gradient g, lr 0.01, momentum 0.9, wd 0, v0 = 0:
    # v1 = -0.01 g                      p1 = p0 - 0.01 g
    # v2 = 0.9 v1 - 0.01 g = -0.019 g   p2 = p0 - 0.029 g
    g_val = 3.0
    p = np.array([2.0])
    g = np.array([g_val])
    v = np.zeros(1)
    sgd = SgdState(learning_rate=0.01, momentum=0.9, weight_decay=0.0)
    sgd_step(p, g, v, sgd)
    sgd_step(p, g, v, sgd)
    assert abs(v[0] + 0.019 * g_val) < 1e-15
    assert abs(p[0] - (2.0 - 0.029 * g_val)) < 1e-15


def test_sgd_in_place_and_deterministic():
    # updates exactly the arrays given, leaves the gradient alone, and matches
    # the out-of-place recurrence bit for bit from identical inputs
    rs = R(14)
    p, g, v = rs.randn(3, 3), rs.randn(3, 3), rs.randn(3, 3)
    sgd = SgdState()
    g_copy = g.copy()
    want_v = sgd.momentum * v - sgd.learning_rate * (g + sgd.weight_decay * p)
    want_p = p + want_v
    runs = []
    for _ in range(2):
        p2, v2 = p.copy(), v.copy()
        assert sgd_step(p2, g, v2, sgd) is None
        runs.append((p2, v2))
    assert np.array_equal(g, g_copy)
    for p2, v2 in runs:
        assert np.array_equal(p2, want_p) and np.array_equal(v2, want_v)


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(3), np.zeros(4), np.zeros(3), SgdState())
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(3), np.zeros(3), np.zeros(2), SgdState())


def test_sgd_hyper_validation():
    with pytest.raises(ValidationError):
        SgdState(momentum=1.0)
    with pytest.raises(ValidationError):
        SgdState(weight_decay=-0.1)
    for field in ("learning_rate", "momentum", "weight_decay"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=field):
                SgdState(**{field: bad})
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
    w, b = rs.randn(4, 2, 3, 3), rs.randn(4)
    out = conv2d_forward(x, w, b, stride=1, pad=1)
    gx, gw, gb = conv2d_backward(x, w, rs.randn(*out.shape), stride=1, pad=1)
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

        def conv_loss():
            out = conv2d_forward(x, w, bias, stride, pad)
            return 0.5 * float(np.sum(out * out))

        out = conv2d_forward(x, w, bias, stride, pad)
        gx, gw, gb = conv2d_backward(x, w, out, stride, pad)
        assert relative_error(gx, central_difference(conv_loss, x)) < 1e-4
        assert relative_error(gw, central_difference(conv_loss, w)) < 1e-4
        assert relative_error(gb, central_difference(conv_loss, bias)) < 1e-4
