"""Dense float64 forward/backward kernels and the SGD update rule.

Layout convention is batch x channels x height x width throughout. All
reductions go through np.einsum with optimize=False, which never dispatches
to a threaded BLAS: results are bit-identical no matter which thread runs
them, which the fabric's determinism contract relies on.

Everything here is a pure function of its arguments; nothing retains state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError

FLOAT = np.float64


def tensor(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=FLOAT)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ShapeError(message)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


@dataclass
class ConvParams:
    """Weights (out_channels, in_channels, kh, kw), bias (out_channels), stride, pad."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        self.weights = tensor(self.weights)
        self.bias = tensor(self.bias)
        if self.weights.ndim != 4:
            raise ShapeError(f"conv weights must be 4-d, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} does not match "
                f"{self.weights.shape[0]} output channels"
            )
        if min(self.weights.shape) < 1:
            raise ValidationError("conv extents must all be >= 1")
        if self.stride < 1:
            raise ValidationError(f"conv stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise ValidationError(f"conv pad must be >= 0, got {self.pad}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


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


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """Patches of x as (B, H'*W', C*kh*kw); returns (cols, H', W')."""
    b, c, h, w = x.shape
    ho = conv_output_size(h, kh, stride, pad)
    wo = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sb, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, ho, wo, c, kh, kw),
        strides=(sb, stride * sh, stride * sw, sc, sh, sw),
        writeable=False,
    )
    cols = patches.reshape(b, ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), ho, wo


def conv2d_forward(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """out[b,n,y,x] = bias[n] + sum_{c,i,j} in[b,c,y*s+i-pad,x*s+j-pad] * w[n,c,i,j]."""
    _require(x.ndim == 4, f"conv input must be 4-d, got {x.shape}")
    _require(
        x.shape[1] == p.in_channels,
        f"conv input has {x.shape[1]} channels, weights expect {p.in_channels}",
    )
    n, _, kh, kw = p.weights.shape
    cols, ho, wo = _im2col(x, kh, kw, p.stride, p.pad)
    wmat = p.weights.reshape(n, -1)
    out = np.einsum("bpk,nk->bnp", cols, wmat)
    out += p.bias[None, :, None]
    return np.ascontiguousarray(out.reshape(x.shape[0], n, ho, wo))


def conv2d_backward(
    x: np.ndarray, p: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of conv2d_forward w.r.t. input, weights, and bias."""
    _require(x.ndim == 4, f"conv input must be 4-d, got {x.shape}")
    n, c, kh, kw = p.weights.shape
    ho = conv_output_size(x.shape[2], kh, p.stride, p.pad)
    wo = conv_output_size(x.shape[3], kw, p.stride, p.pad)
    _require(
        grad_out.shape == (x.shape[0], n, ho, wo),
        f"conv grad_out shape {grad_out.shape} does not match forward output "
        f"{(x.shape[0], n, ho, wo)}",
    )
    b = x.shape[0]
    cols, _, _ = _im2col(x, kh, kw, p.stride, p.pad)
    go = grad_out.reshape(b, n, ho * wo)

    grad_bias = np.einsum("bnp->n", go)
    grad_w = np.einsum("bnp,bpk->nk", go, cols).reshape(p.weights.shape)

    wmat = p.weights.reshape(n, -1)
    grad_cols = np.einsum("bnp,nk->bpk", go, wmat)
    grad_cols = grad_cols.reshape(b, ho, wo, c, kh, kw)

    hp, wp = x.shape[2] + 2 * p.pad, x.shape[3] + 2 * p.pad
    grad_x = np.zeros((b, c, hp, wp), dtype=FLOAT)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, :, i : i + p.stride * ho : p.stride, j : j + p.stride * wo : p.stride] += (
                grad_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if p.pad > 0:
        grad_x = grad_x[:, :, p.pad : hp - p.pad, p.pad : wp - p.pad]
    return np.ascontiguousarray(grad_x), grad_w, grad_bias


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
    return np.einsum("bd,du->bu", x, weights) + bias[None, :]


def fc_backward(
    x: np.ndarray, weights: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _require(
        grad_out.shape == (x.shape[0], weights.shape[1]),
        f"fc grad_out shape {grad_out.shape} does not match output "
        f"{(x.shape[0], weights.shape[1])}",
    )
    grad_x = np.einsum("bu,du->bd", grad_out, weights)
    grad_w = np.einsum("bd,bu->du", x, grad_out)
    grad_b = np.einsum("bu->u", grad_out)
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# ReLU / max-pooling
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Subgradient at exactly 0 is 0."""
    _require(x.shape == grad_out.shape, "relu grad_out shape mismatch")
    return np.where(x > 0.0, grad_out, 0.0)


def _pool_windows(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, int, int]:
    b, c, h, w = x.shape
    ho = conv_output_size(h, k, stride, 0)
    wo = conv_output_size(w, k, stride, 0)
    sb, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, ho, wo, k, k),
        strides=(sb, sc, stride * sh, stride * sw, sh, sw),
        writeable=False,
    )
    return win.reshape(b, c, ho, wo, k * k), ho, wo


def maxpool_forward(x: np.ndarray, k: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Window max plus argmax (flat index within each k*k window, first max wins)."""
    _require(x.ndim == 4, f"maxpool input must be 4-d, got {x.shape}")
    win, _, _ = _pool_windows(x, k, stride)
    argmax = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, argmax[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), argmax


def maxpool_backward(
    x: np.ndarray, k: int, stride: int, grad_out: np.ndarray, argmax: np.ndarray
) -> np.ndarray:
    """Routes each upstream gradient to its window's argmax position (from maxpool_forward)."""
    b, c, h, w = x.shape
    ho = conv_output_size(h, k, stride, 0)
    wo = conv_output_size(w, k, stride, 0)
    _require(grad_out.shape == (b, c, ho, wo), "maxpool grad_out shape mismatch")

    iy, ix = np.divmod(argmax, k)
    oy = np.arange(ho)[None, None, :, None] * stride
    ox = np.arange(wo)[None, None, None, :] * stride
    rows = (oy + iy).ravel()
    cols = (ox + ix).ravel()
    bc = np.repeat(np.arange(b * c), ho * wo)
    flat = (bc * h + rows) * w + cols

    grad_x = np.zeros(b * c * h * w, dtype=FLOAT)
    np.add.at(grad_x, flat, grad_out.ravel())
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


@dataclass
class SgdState:
    """Hyper-parameters plus one velocity tensor per parameter tensor.

    Defaults follow the classic ImageNet ConvNet recipe: lr 0.01,
    momentum 0.9, weight decay 5e-4.
    """

    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    velocity: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be non-negative")


def sgd_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: SgdState
) -> tuple[list[np.ndarray], SgdState]:
    """v <- momentum*v - lr*(g + wd*p); p <- p + v. Returns fresh arrays."""
    if len(params) != len(grads) or len(params) != len(state.velocity):
        raise ShapeError("sgd_step: params, grads and velocity counts differ")
    new_params: list[np.ndarray] = []
    new_velocity: list[np.ndarray] = []
    for p, g, v in zip(params, grads, state.velocity):
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(
                f"sgd_step shape mismatch: param {p.shape}, grad {g.shape}, velocity {v.shape}"
            )
        v_new = state.momentum * v - state.learning_rate * (g + state.weight_decay * p)
        new_params.append(p + v_new)
        new_velocity.append(v_new)
    new_state = SgdState(
        learning_rate=state.learning_rate,
        momentum=state.momentum,
        weight_decay=state.weight_decay,
        velocity=new_velocity,
    )
    return new_params, new_state
