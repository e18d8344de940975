"""Dense float64 forward/backward kernels and the SGD update rule.

Kernels take and return plain batch x channels x height x width arrays:
conv2d_forward(x, w, b, stride, pad) mirrors fc_forward(x, w, b), and
each backward takes the forward's input, weights and upstream gradient.
Windows are square (conv weights are (N, C, k, k)). One strided view,
_windows, serves conv and max-pooling and is the one check that a windowed
array is 4-d; conv_output_size is the one check that a window tiles its
input, and _conv_shapes gives both conv kernels their geometry.

Conv and FC are GEMMs (np.matmul) on the unfolded input, after Chellapilla,
Puri & Simard, "High Performance Convolutional Neural Networks for Document
Processing" (2006). Each conv call unfolds (im2col) exactly one array, in one
of two layouts. Channels-first, like the arrays, each sample's frame is
(C, H, W) and its columns (C*k*k, H'*W'); channels-last, the frame is
(H, W, C) and the columns are rows of (H'*W', k*k*C). An unfold copies its
windows one run at a time: channels-first, one output row of W' entries
(strided at a window stride above 1); channels-last, one window row across
every channel, k*C contiguous entries. The forward takes the layout with the
longer run, channels-last when k*C > W'. On midnet, layer 0 stays
channels-first (k*C = 15 against W' = 24), where channels-last ran its forward
1.2-1.3x slower, and layer 3 goes channels-last (80 against 12), where it runs
faster at every filter count from 8 to 64 (BENCH_layout.json); cuDNN's lowered
convolutions trade layouts the same way (Chetlur et al., "cuDNN: Efficient
Primitives for Deep Learning", 2014). Each backward route keeps the one layout
that all five midnet plans run it in (below). Every GEMM reads its operands
as stored (w @ rows^T ran 2x slower than rows @ w^T at N = 16): the forward
is one matmul per sample, w as (N, C*k*k) @ columns, or rows @ w as
(k*k*C, N) into an (H'*W', N) product that is then copied transposed into the
sample's output. Writing the product straight into a transposed view of the
output made midnet's layer 3 1.08x slower forward and 1.16x slower backward
at N = 32; at N = 8 and 16 the two were within 10% of each other, either way.

The backward unfolds grad_out when it computes the input gradient. That
gradient is a transposed convolution (Dumoulin & Visin, "A guide to
convolution arithmetic for deep learning", 2016): a stride-1 correlation of
grad_out, spread out by the stride and offset by k-1-pad, with w flipped and
transposed to (k*k*N, C). Its channels-last rows G, (H*W, k*k*N) per sample,
feed one matmul per sample, with no scatter back onto the input. Their runs
are k*N entries against W: 40-160 against 12 on midnet's layer 3, where
channels-last ran the backward 1.2-1.35x faster (BENCH_layout.json). Only
tinynet's layer 3 at four columns (d1m4) has k*N below W (6 against 8);
channels-last costs it 1.12x (0.189 against 0.169 ms per call at batch 8),
on a plan no benchmark runs. The same G gives the weight gradient, as
Mathieu, Henaff & LeCun ("Fast Training of Convolutional Networks through
FFTs", 2013) reuse one transform of each array across all three passes.
With spread(g)[n, y*s, x*s] = g[n, y, x] and zero elsewhere,

    grad_w[n,c,i,j] = sum_{y,x} g[n,y,x] * x[c, y*s+i-pad, x*s+j-pad]
                    = sum_{u,v} x[c,u,v] * spread(g)[n, u+pad-i, v+pad-j],

and column (i', j', n) of G holds spread(g)[n, u+i'-(k-1-pad), v+j'-(k-1-pad)]
in row (u, v), so column (k-1-i, k-1-j, n) is the one that tap (i, j) needs:
grad_w is sum_s x[s] @ G, a (C, k*k*N) array in sample order, with its taps
flipped back. A stride-s conv's input and weight gradients thus run about
s*s times the forward's multiply-adds, most of them on the zeros between
spread entries; no shipped network has such a layer, since alexnet's
stride-4 conv is its layer 0.

Without the input gradient (a network's first conv) the backward unfolds x
instead and sums grad_out @ columns^T over the samples in sample order; G
would have N/C times as many rows (5.3x on midnet's layer 0). The columns are
channels-first, as on midnet's layer 0 (k*C = 15 against W' = 24), where
channels-last ran this backward 1.03-1.2x slower (BENCH_layout.json). The two
routes sum the same products in different orders, so on float data their
weight gradients agree to rounding, not bit for bit, as do the forward's two
layouts.

Every unfold works one sample at a time, in one padded or spread frame and one
column buffer that each call allocates and reuses from sample to sample. A
sample's frame and columns are small (0.36-0.99 MB on midnet's layers, within
a 2 MiB L2 cache), so its columns are still cached when its GEMM reads them,
where blocks of several samples spill; and the per-sample GEMM is the one a
batched matmul runs anyway.

The size rule is on the GEMMs instead. The two channels-last products, the
forward's rows @ w and the transposed conv's rows @ wt, run in the fewest
row blocks of at most SMALL_GEMM = 100**3 multiply-adds each (_row_blocks):
OpenBLAS's SkylakeX DGEMM hands a product that small to a kernel that skips
packing its operands (Goto & van de Geijn, "Anatomy of High-Performance
Matrix Multiplication", 2008), and just past the limit the packed path took
1.4-2.2x as long. On midnet's layer 3 at N = 32 each product, 1.84e6
multiply-adds, runs as two 72-row blocks of 0.92e6; at N = 16 and below it
fits whole, so the d1m2 and d2m2 columns run as before. A block's rows are
summed by another kernel than the whole product's, so blocked results move
at rounding. Not blocked: the weight gradient's x[s] @ rows (16 x 144 @
144 x 800 on that layer), where halving its rows, its columns or its inner
dimension each ran slower than one product, and the channels-first products
w @ columns and go[s] @ columns^T, whose largest on midnet (layer 0) is
0.69e6. Where OpenBLAS picks a core without the small kernel (BLAS_CORE
names the core), the blocks cost 1-5% on those two products (Haswell).

Max-pooling stores no argmax. The forward keeps only each window's max, a
running np.maximum over the k*k strided views of the windows, through which
a NaN propagates. The backward is given x and those maxima again and finds
each window's winner tap by tap, in flat order: the first entry equal to the
max, or, in a window that pooled to NaN, the first NaN, which is the entry
np.argmax picks; the last tap takes every window left. It writes grad_out
times that hit mask into the tap's view of the input gradient, or adds it
where windows overlap, with no index array and no np.add.at scatter.
Krizhevsky's cuda-convnet, on which the paper builds, routes its pooling
gradient this way, and cuDNN's pooling backward likewise takes x, y and dy
(Chetlur et al., 2014). Evaluation, which runs no backward, thus builds
nothing beyond the maxima, and a training step finds each winner once, in
the backward (BENCH_pool.json). A ReLU directly before a pool can run on
the pool's output (max commutes with ReLU); the column engine does so
(schemes._layer).

Importing this module pins numpy's OpenBLAS to one thread, through the
`scipy_openblas_set_num_threads64_` symbol of the library numpy loaded: the
fabric's workers are the parallelism, and a single-threaded GEMM gives
bit-identical results whichever worker thread runs it, which the fabric's
determinism contract relies on. BLAS_THREADS records the outcome: the thread
count read back after pinning, or None when the symbol is absent and BLAS was
left as it was. BLAS_CORE names the core OpenBLAS picked for this CPU (such
as SkylakeX), read through `scipy_openblas_get_corename64_`, or None when that
symbol is absent: the GEMM blocks above pay off only on a core with the
small-matrix kernel.

Importing it also pins glibc's malloc, for the whole process, so that a step
reuses the memory the step before it freed rather than faulting it in again.
mallopt sets M_MMAP_THRESHOLD to 32 MiB, so a step's arrays (a few MB at
most) come from the heap and not from mappings of their own; M_TRIM_THRESHOLD
to 64 MiB, so the heap is not handed back between steps; and M_ARENA_MAX to 1,
so worker threads share that heap rather than each keeping free memory of its
own. MALLOC_PINNED records the outcome: True when all three settings took,
False when one was refused, or None when the C library has no mallopt and
malloc was left as it was.

Everything here is a pure function of its arguments, except sgd_step, which
updates the parameter and velocity it is given in place; nothing retains
state.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

FLOAT = np.float64


def _pin_blas() -> tuple[int | None, str | None]:
    """Set numpy's OpenBLAS to one thread; the thread count after and the name
    of the core OpenBLAS picked, each None if numpy's extension module does not
    link the scipy-openblas64 symbol it is read through."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None, None
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    threads = core = None
    if setter is not None and getter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        threads = getter()
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = (corename() or b"").decode() or None
    return threads, core


BLAS_THREADS, BLAS_CORE = _pin_blas()

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8  # glibc's malloc.h
MALLOC_SETTINGS = ((M_MMAP_THRESHOLD, 32 * 2**20), (M_TRIM_THRESHOLD, 64 * 2**20), (M_ARENA_MAX, 1))


def _pin_malloc() -> bool | None:
    """Apply MALLOC_SETTINGS through mallopt; whether all took, or None if the
    C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # a list, not a generator: a refused setting does not skip the others
    return all([mallopt(param, value) == 1 for param, value in MALLOC_SETTINGS])


MALLOC_PINNED = _pin_malloc()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


def conv_output_size(extent: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output extent of a conv or pooling window; raises ValidationError
    unless kernel >= 1, stride >= 1, pad >= 0 and the geometry tiles exactly."""
    if kernel < 1 or stride < 1 or pad < 0:
        raise ValidationError(
            f"window needs kernel >= 1, stride >= 1 and pad >= 0: "
            f"kernel {kernel}, stride {stride}, pad {pad}"
        )
    span = extent + 2 * pad - kernel
    if span < 0 or span % stride != 0:
        raise ValidationError(
            f"conv geometry does not produce an integer output extent: "
            f"input {extent}, kernel {kernel}, stride {stride}, pad {pad}"
        )
    return span // stride + 1


def _windows(x: np.ndarray, k: int, stride: int, writeable: bool = False) -> np.ndarray:
    """(B, C, H', W', k, k) view of every k x k window of x, read-only unless
    `writeable`; raises ShapeError unless x is 4-d."""
    _require(x.ndim == 4, f"window input must be 4-d (B, C, H, W), got {x.shape}")
    b, c, h, w = x.shape
    ho = conv_output_size(h, k, stride, 0)
    wo = conv_output_size(w, k, stride, 0)
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, ho, wo, k, k),
        strides=(sb, sc, stride * sh, stride * sw, sh, sw),
        writeable=writeable,
    )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _conv_shapes(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> tuple[int, ...]:
    """(N, C, k, H', W') of a conv of x by w, once their shapes agree."""
    _require(x.ndim == 4, f"conv input must be 4-d, got {x.shape}")
    _require(
        w.ndim == 4 and w.shape[2] == w.shape[3] and min(w.shape[:2]) >= 1,
        f"conv weights must be (N, C, k, k) with N, C >= 1, got {w.shape}",
    )
    _require(
        x.shape[1] == w.shape[1],
        f"conv input has {x.shape[1]} channels, weights expect {w.shape[1]}",
    )
    n, c, k, _ = w.shape
    ho, wo = (conv_output_size(extent, k, stride, pad) for extent in x.shape[2:])
    return n, c, k, ho, wo


def _placement(n: int, step: int, offset: int, size: int) -> tuple[slice, slice]:
    """(source, frame) slices that put source entries 0..n-1 at offset + i*step,
    keeping those that land inside a frame of extent size."""
    first = max(0, -(offset // step))
    stop = min(n, -((offset - size) // step))
    if stop <= first:
        return slice(0, 0), slice(0, 0)
    start = offset + first * step
    return slice(first, stop), slice(start, start + (stop - first - 1) * step + 1, step)


def _unfolded(a: np.ndarray, k: int, stride: int, offset: int, step: int, last: bool):
    """im2col of a (B, C, h, w) array, one sample at a time.

    Each sample is placed into a zeroed frame, entry (y, x) at
    (offset + y*step, offset + x*step), with `offset` zeros on every side (a
    negative offset crops): the padded input, H + 2*pad high, of a forward or
    the spread grad_out, H + k-1 high, of a transposed conv. The frame's
    k x k windows at `stride` are copied out as (C*k*k, H'*W') columns, or
    with `last` from an (H, W, C) frame as (H'*W', k*k*C) rows.
    Yields (s, columns) for sample s; one frame and one column buffer serve
    every sample, so each sample's columns are overwritten by the next.
    Every sample writes the same frame entries, so the rest stay zero.
    """
    batch, c, h, w = a.shape
    frame = ((h - 1) * step + 1 + 2 * offset, (w - 1) * step + 1 + 2 * offset)
    if last:  # an (H, W, C) frame, seen as (1, C, H, W); windows (H', W', k, k, C)
        framed = np.zeros((1, *frame, c), dtype=FLOAT).transpose(0, 3, 1, 2)
        windows = _windows(framed, k, stride)[0].transpose(1, 2, 3, 4, 0)
    else:  # windows (C, k, k, H', W')
        framed = np.zeros((1, c, *frame), dtype=FLOAT)
        windows = _windows(framed, k, stride)[0].transpose(0, 3, 4, 1, 2)
    cols = np.empty(windows.shape, dtype=FLOAT)
    flat = cols.reshape(-1, c * k * k) if last else cols.reshape(c * k * k, -1)
    ys, fy = _placement(h, step, offset, frame[0])
    xs, fx = _placement(w, step, offset, frame[1])
    for s in range(batch):
        framed[0, :, fy, fx] = a[s, :, ys, xs]
        np.copyto(cols, windows)
        yield s, flat


# OpenBLAS's SkylakeX DGEMM (the core numpy's OpenBLAS 0.3.31 picks on an
# AVX-512 Xeon) hands a product of at most 100**3 multiply-adds to a
# small-matrix kernel that skips packing its operands, the overhead Goto & van
# de Geijn analyse ("Anatomy of High-Performance Matrix Multiplication", 2008).
# Just past the limit the packed path took 1.4-2.2x as long (one thread,
# median of 301 calls, four sweeps in BENCH_smallgemm.json): (78, 800) @
# (800, 16) 41.7 us against (80, 800) @ (800, 16) 74.3 us, and (144, 400) @
# (400, 17) 51.8 us against (144, 400) @ (400, 18) 85.1 us, in the first.
SMALL_GEMM = 100**3


def _row_blocks(m: int, inner: int, n: int) -> list[slice]:
    """The fewest row blocks of an (m, inner) @ (inner, n) product that each
    take at most SMALL_GEMM multiply-adds, their row counts within one of each
    other; one block when inner*n alone exceeds that."""
    most = SMALL_GEMM // (inner * n)  # rows per block; 0 when one row is too many
    if most == 0 or m <= most:
        return [slice(0, m)]
    blocks = -(-m // most)
    size, extra = divmod(m, blocks)  # the first `extra` blocks take a row more
    bounds = [i * size + min(i, extra) for i in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """out[b,n,y,x] = b[n] + sum_{c,i,j} in[b,c,y*s+i-pad,x*s+j-pad] * w[n,c,i,j]."""
    n, c, k, ho, wo = _conv_shapes(x, w, stride, pad)
    _require(b.shape == (n,), f"conv bias shape {b.shape} does not match {n} output channels")
    batch = x.shape[0]
    out = np.empty((batch, n, ho * wo), dtype=FLOAT)
    if k * c > wo:  # channels-last runs are longer: rows @ w, copied transposed into out[s]
        wmat = np.ascontiguousarray(w.transpose(2, 3, 1, 0)).reshape(k * k * c, n)
        product = np.empty((ho * wo, n), dtype=FLOAT)
        blocks = _row_blocks(ho * wo, k * k * c, n)
        for s, rows in _unfolded(x, k, stride, pad, 1, True):
            for blk in blocks:
                np.matmul(rows[blk], wmat, out=product[blk])
            out[s] = product.T
    else:
        wmat = w.reshape(n, c * k * k)
        for s, cols in _unfolded(x, k, stride, pad, 1, False):
            np.matmul(wmat, cols, out=out[s])
    out += b[None, :, None]
    return out.reshape(batch, n, ho, wo)


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Analytic gradients of conv2d_forward w.r.t. input, weights, and bias.

    Unfolds one array: grad_out (channels-last), whose rows give the input and
    weight gradients, or, with input_grad=False, x (channels-first), for the
    weight gradient alone, returning None for the input gradient. The routes'
    weight gradients agree to rounding; their bias gradients are the same.
    """
    n, c, k, ho, wo = _conv_shapes(x, w, stride, pad)
    batch, _, h, wd = x.shape
    _require(
        grad_out.shape == (batch, n, ho, wo),
        f"conv grad_out shape {grad_out.shape} does not match forward output {(batch, n, ho, wo)}",
    )
    go = grad_out.reshape(batch, n, ho * wo)
    grad_bias = go.sum(axis=(0, 2))
    if not input_grad:  # channels-first columns of x: sum of go[s] @ columns^T
        grad_w = np.zeros((n, c * k * k), dtype=FLOAT)
        for s, cols in _unfolded(x, k, stride, pad, 1, False):
            grad_w += go[s] @ cols.T
        return None, grad_w.reshape(w.shape), grad_bias
    # the transposed conv: a stride-1 correlation of grad_out, spread by the stride
    # and offset by k-1-pad, with w flipped to (k*k*N, C); tap (i', j', n) of its
    # channels-last rows (H*W, k*k*N) pairs with weight tap (k-1-i', k-1-j')
    wt = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)).reshape(k * k * n, c)
    xs = x.reshape(batch, c, h * wd)
    grad_x = np.empty((batch, c, h * wd), dtype=FLOAT)
    grad_wt = np.zeros((c, k * k * n), dtype=FLOAT)
    product = np.empty((h * wd, c), dtype=FLOAT)
    blocks = _row_blocks(h * wd, k * k * n, c)
    for s, rows in _unfolded(grad_out, k, 1, k - 1 - pad, stride, True):
        for blk in blocks:
            np.matmul(rows[blk], wt, out=product[blk])
        grad_x[s] = product.T  # the product copied transposed
        grad_wt += xs[s] @ rows
    grad_w = grad_wt.reshape(c, k, k, n).transpose(3, 0, 1, 2)[:, :, ::-1, ::-1]
    return grad_x.reshape(batch, c, h, wd), np.ascontiguousarray(grad_w), grad_bias


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------


def _fc_shapes(x: np.ndarray, weights: np.ndarray) -> None:
    _require(x.ndim == 2 and weights.ndim == 2, "fc expects 2-d input and weights")
    _require(
        x.shape[1] == weights.shape[0],
        f"fc inner dimensions disagree: input {x.shape} vs weights {weights.shape}",
    )


def fc_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (B, D) @ weights (D, U) + bias (U)."""
    _fc_shapes(x, weights)
    _require(bias.shape == (weights.shape[1],), f"fc bias shape {bias.shape} invalid")
    return x @ weights + bias


def fc_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _fc_shapes(x, weights)
    _require(
        grad_out.shape == (x.shape[0], weights.shape[1]),
        f"fc grad_out shape {grad_out.shape} does not match output "
        f"{(x.shape[0], weights.shape[1])}",
    )
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


# ---------------------------------------------------------------------------
# ReLU / max-pooling
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * (x > 0): the subgradient at exactly 0 is 0.

    A masked entry is grad_out * 0.0, so it is -0.0 where grad_out is
    negative (equal to 0.0 under ==) and NaN where grad_out is not finite.
    """
    _require(x.shape == grad_out.shape, "relu grad_out shape mismatch")
    return grad_out * (x > 0.0)


def maxpool_forward(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Window max: a running np.maximum over the k*k strided views of the windows.

    A NaN propagates, so out is NaN wherever its window holds one; either
    way out equals the entry np.argmax picks in each window. No argmax is
    built: maxpool_backward finds it again from x and out.
    """
    win = _windows(x, k, stride)
    out = win[..., 0, 0].copy()
    for flat in range(1, k * k):
        np.maximum(win[..., flat // k, flat % k], out, out=out)
    return out


def maxpool_backward(
    x: np.ndarray, k: int, stride: int, grad_out: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Routes each upstream gradient to the first entry of its window equal to
    the window's max `out` (from maxpool_forward), the entry np.argmax picks.

    The taps are visited in flat order; a tap takes the gradient of each
    window whose max it equals (a NaN equals a NaN max) and whose gradient no
    earlier tap took; the last tap takes every window left without comparing,
    since a window's max is one of its entries. Each tap writes grad_out * hit
    into its strided view of grad_x, or adds it where windows overlap
    (k > stride), so there an entry sums, tap by tap, the gradients of every
    window it wins. Every other entry of a window receives grad_out * 0.0:
    -0.0 (equal to 0.0 under ==) where grad_out is negative, and NaN where
    grad_out is not finite, so a non-finite gradient spreads over its whole
    window. Entries no window covers stay 0.0. The mask multiply is
    branch-free: a masked copy (np.copyto with where=hit) took 2.7x as long
    per tap on midnet's first pool, whose ReLU-output masks branch
    unpredictably.
    """
    win = _windows(x, k, stride)
    _require(grad_out.shape == out.shape == win.shape[:4], "maxpool grad_out/out shape mismatch")
    # windows with k == stride tile x, so every entry is written
    grad_x = (np.empty if k == stride else np.zeros)(x.shape, dtype=FLOAT)
    grad_win = _windows(grad_x, k, stride, writeable=True)
    nan = np.isnan(out)
    if not nan.any():
        nan = None
    free = np.ones(out.shape, dtype=bool)  # windows whose gradient no tap has taken yet
    hit = np.empty(out.shape, dtype=bool)
    for flat in range(k * k):
        entry, target = win[..., flat // k, flat % k], grad_win[..., flat // k, flat % k]
        if flat == k * k - 1:
            hit = free
        else:
            np.equal(entry, out, out=hit)
            if nan is not None:  # NaN != NaN: a NaN entry hits a NaN max
                hit |= nan & np.isnan(entry)
            hit &= free
            free ^= hit
        if k > stride:
            target += grad_out * hit
        else:
            np.multiply(grad_out, hit, out=target)
    return grad_x


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------


def softmax_xent_scaled(
    logits: np.ndarray, labels: np.ndarray, scale: float
) -> tuple[float, np.ndarray]:
    """Loss = scale * sum_b -log softmax(logits)[b, label_b]; grad scaled to match.

    The public mean-reduced form is scale = 1/B. Parallel shards pass
    scale = 1/B_global so that summed shard gradients equal the full-batch
    mean gradient exactly.
    """
    _require(logits.ndim == 2, f"logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels)
    _require(labels.shape == (logits.shape[0],), "labels length must equal batch size")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels of dtype {labels.dtype}: class labels are integers")
    k = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValidationError(f"labels must lie in [0, {k})")

    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    rows = np.arange(logits.shape[0])
    loss = -float(logp[rows, labels].sum()) * scale
    grad = expz / denom
    grad[rows, labels] -= 1.0
    return loss, grad * scale


def softmax_xent(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient (softmax - onehot)/B."""
    _require(logits.shape[0] >= 1, "softmax_xent needs at least one row")
    return softmax_xent_scaled(logits, labels, 1.0 / logits.shape[0])


# ---------------------------------------------------------------------------
# SGD with momentum and weight decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdState:
    """SGD hyper-parameters; the velocity lives with whoever owns the parameters.

    Defaults follow the classic ImageNet ConvNet recipe: lr 0.01,
    momentum 0.9, weight decay 5e-4.
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005

    def __post_init__(self):
        limits = (("learning_rate", math.inf), ("momentum", 1.0), ("weight_decay", math.inf))
        for name, top in limits:
            value = getattr(self, name)
            if not 0.0 <= value < top:
                raise ValidationError(f"{name} must lie in [0, {top}), got {value}")


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray, sgd: SgdState) -> None:
    """v <- momentum*v - lr*(g + wd*p); p <- p + v, updating param and velocity in place."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeError(
            f"sgd_step shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"velocity {velocity.shape}"
        )
    step = sgd.weight_decay * param
    step += grad
    step *= sgd.learning_rate
    velocity *= sgd.momentum
    velocity -= step
    param += velocity
