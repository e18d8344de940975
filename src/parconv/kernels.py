"""Dense float64 forward/backward kernels and the SGD update rule.

Layout is batch x channels x height x width throughout. Kernels take plain
arrays: conv2d_forward(x, w, b, stride, pad) mirrors fc_forward(x, w, b), and
each backward takes the forward's input, weights and upstream gradient.
Windows are square (conv weights are (N, C, k, k)). One read-only strided
view, _windows, serves conv (im2col is one contiguous copy of it) and
max-pooling; conv_output_size is the one check that a window tiles its input.

Conv and FC are GEMMs (np.matmul) on the unfolded input, after Chellapilla,
Puri & Simard, "High Performance Convolutional Neural Networks for Document
Processing" (2006). The columns are laid out (B, C*k*k, H'*W'), so the conv
forward is one matmul per sample, and the gradient with respect to the columns
comes out as (B, C, k, k, H', W'): each of col2im's k*k adds reads a
contiguous slice.

Importing this module pins numpy's OpenBLAS to one thread, through the
`scipy_openblas_set_num_threads64_` symbol of the library numpy loaded: the
fabric's workers are the parallelism, and a single-threaded GEMM gives
bit-identical results whichever worker thread runs it, which the fabric's
determinism contract relies on. BLAS_THREADS records the outcome: the thread
count read back after pinning, or None when the symbol is absent and BLAS was
left as it was.

Everything here is a pure function of its arguments, except sgd_step, which
updates the parameter and velocity it is given in place; nothing retains state.
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


def _pin_blas() -> int | None:
    """Set numpy's OpenBLAS to one thread; the thread count after, or None if
    numpy's extension module does not link the scipy-openblas64 setter."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
        getter = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(1)
    return getter()


BLAS_THREADS = _pin_blas()


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


def _windows(x: np.ndarray, k: int, stride: int, pad: int = 0) -> np.ndarray:
    """Read-only (B, C, H', W', k, k) view of every k x k window of x, zero padded by pad."""
    b, c, h, w = x.shape
    ho = conv_output_size(h, k, stride, pad)
    wo = conv_output_size(w, k, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, ho, wo, k, k),
        strides=(sb, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def _conv_shapes(x: np.ndarray, w: np.ndarray) -> None:
    _require(x.ndim == 4, f"conv input must be 4-d, got {x.shape}")
    _require(
        w.ndim == 4 and w.shape[2] == w.shape[3] and min(w.shape[:2]) >= 1,
        f"conv weights must be (N, C, k, k) with N, C >= 1, got {w.shape}",
    )
    _require(
        x.shape[1] == w.shape[1],
        f"conv input has {x.shape[1]} channels, weights expect {w.shape[1]}",
    )


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Patches of x as a contiguous (B, C, k, k, H', W') array."""
    return np.ascontiguousarray(_windows(x, k, stride, pad).transpose(0, 1, 4, 5, 2, 3))


def _col2im(cols: np.ndarray, size: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: adds every (B, C, k, k, H', W') entry back onto the
    (B, C, H, W) input pixel it was copied from; size is (H, W)."""
    b, c, k, _, ho, wo = cols.shape
    h, w = size
    out = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=FLOAT)
    for i, j in np.ndindex(k, k):
        ys, xs = slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride)
        out[:, :, ys, xs] += cols[:, :, i, j]
    return np.ascontiguousarray(out[:, :, pad : pad + h, pad : pad + w])


def conv2d_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """out[b,n,y,x] = b[n] + sum_{c,i,j} in[b,c,y*s+i-pad,x*s+j-pad] * w[n,c,i,j]."""
    _conv_shapes(x, w)
    n = w.shape[0]
    _require(b.shape == (n,), f"conv bias shape {b.shape} does not match {n} output channels")
    cols = _im2col(x, w.shape[2], stride, pad)
    batch, ho, wo = x.shape[0], *cols.shape[4:]
    out = np.matmul(w.reshape(n, -1), cols.reshape(batch, -1, ho * wo))
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

    With input_grad=False the input gradient is not computed and comes back
    as None; the weight and bias gradients are the same either way.
    """
    _conv_shapes(x, w)
    n, c, k, _ = w.shape
    cols = _im2col(x, k, stride, pad)
    b, ho, wo = x.shape[0], *cols.shape[4:]
    _require(
        grad_out.shape == (b, n, ho, wo),
        f"conv grad_out shape {grad_out.shape} does not match forward output {(b, n, ho, wo)}",
    )
    go = grad_out.reshape(b, n, ho * wo)
    grad_bias = go.sum(axis=(0, 2))
    grad_w = np.matmul(go, cols.reshape(b, -1, ho * wo).transpose(0, 2, 1)).sum(axis=0)
    grad_w = grad_w.reshape(w.shape)
    if not input_grad:
        return None, grad_w, grad_bias
    grad_cols = np.matmul(w.reshape(n, -1).T, go).reshape(b, c, k, k, ho, wo)
    return _col2im(grad_cols, x.shape[2:], stride, pad), grad_w, grad_bias


# ---------------------------------------------------------------------------
# Fully connected
# ---------------------------------------------------------------------------


def fc_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x (B, D) @ weights (D, U) + bias (U)."""
    _require(x.ndim == 2 and weights.ndim == 2, "fc expects 2-d input and weights")
    _require(
        x.shape[1] == weights.shape[0],
        f"fc inner dimensions disagree: input {x.shape} vs weights {weights.shape}",
    )
    _require(bias.shape == (weights.shape[1],), f"fc bias shape {bias.shape} invalid")
    return x @ weights + bias


def fc_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    """Subgradient at exactly 0 is 0."""
    _require(x.shape == grad_out.shape, "relu grad_out shape mismatch")
    return np.where(x > 0.0, grad_out, 0.0)


def maxpool_forward(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Window max plus argmax (flat index within each k*k window, first max wins)."""
    _require(x.ndim == 4, f"maxpool input must be 4-d, got {x.shape}")
    win = _windows(x, k, stride)
    win = win.reshape(*win.shape[:4], k * k)
    argmax = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), argmax


def maxpool_backward(
    x: np.ndarray, k: int, stride: int, grad_out: np.ndarray, argmax: np.ndarray
) -> np.ndarray:
    """Routes each upstream gradient to its window's argmax position (from maxpool_forward)."""
    b, c, h, w = x.shape
    ho, wo = _windows(x, k, stride).shape[2:4]
    _require(
        grad_out.shape == argmax.shape == (b, c, ho, wo), "maxpool grad_out/argmax shape mismatch"
    )
    iy, ix = np.divmod(argmax, k)
    oy = np.arange(ho)[:, None] * stride
    ox = np.arange(wo) * stride
    bc = np.arange(b * c).reshape(b, c, 1, 1)
    flat = (bc * h + oy + iy) * w + ox + ix
    grad_x = np.zeros(b * c * h * w, dtype=FLOAT)
    np.add.at(grad_x, flat.ravel(), grad_out.ravel())
    return grad_x.reshape(b, c, h, w)


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
    labels = np.asarray(labels, dtype=np.int64)
    _require(labels.shape == (logits.shape[0],), "labels length must equal batch size")
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
    labels = np.asarray(labels, dtype=np.int64)
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
