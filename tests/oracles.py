"""Independent test oracles: naive loop kernels and finite differences.

These deliberately avoid the library's vectorised code paths; they are the
slow, obviously-correct implementations the fast kernels are checked against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parent.parent / "configs"  # the repo's shipped configs


class MacCounter:
    def __init__(self):
        self.count = 0


def naive_conv2d(x, weights, bias, stride, pad, macs: MacCounter | None = None):
    """Direct six-loop convolution; out-of-range input treated as zero."""
    b, c, h, w = x.shape
    n, cw, kh, kw = weights.shape
    assert c == cw
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, n, ho, wo))
    for bi in range(b):
        for ni in range(n):
            for y in range(ho):
                for xo in range(wo):
                    acc = bias[ni]
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                yy = y * stride + i - pad
                                xx = xo * stride + j - pad
                                value = 0.0
                                if 0 <= yy < h and 0 <= xx < w:
                                    value = x[bi, ci, yy, xx]
                                acc += value * weights[ni, ci, i, j]
                                if macs is not None:
                                    macs.count += 1
                    out[bi, ni, y, xo] = acc
    return out


def naive_col2im(cols, size, stride, pad):
    """Scatter each (b, c, i, j, y, x) patch entry onto input pixel
    (y*stride + i - pad, x*stride + j - pad), dropping the padding."""
    b, c, kh, kw, ho, wo = cols.shape
    h, w = size
    out = np.zeros((b, c, h, w))
    for bi, ci, i, j, y, xo in np.ndindex(b, c, kh, kw, ho, wo):
        yy = y * stride + i - pad
        xx = xo * stride + j - pad
        if 0 <= yy < h and 0 <= xx < w:
            out[bi, ci, yy, xx] += cols[bi, ci, i, j, y, xo]
    return out


def naive_matmul(a, b, macs: MacCounter | None = None):
    """Triple-loop matrix multiply."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
                if macs is not None:
                    macs.count += 1
            out[i, j] = acc
    return out


def naive_maxpool(x, k, stride):
    b, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((b, c, ho, wo))
    for bi in range(b):
        for ci in range(c):
            for y in range(ho):
                for xo in range(wo):
                    window = x[bi, ci, y * stride : y * stride + k, xo * stride : xo * stride + k]
                    out[bi, ci, y, xo] = window.max()
    return out


def argmax_scatter(x, k, stride, grad_out):
    """Max-pool backward as an index scatter: np.add.at of each window's
    gradient onto the entry np.argmax picks in it (the first max, or the
    first NaN), over a zeroed input-shaped array."""
    b, c, h, w = x.shape
    ho, wo = grad_out.shape[2:]
    # entry (i, j) of every window, stacked in flat tap order
    taps = [x[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            for i in range(k) for j in range(k)]
    iy, ix = np.divmod(np.argmax(np.stack(taps, axis=-1), axis=-1), k)
    flat = (np.arange(b * c).reshape(b, c, 1, 1) * h + np.arange(ho)[:, None] * stride + iy) * w
    flat += np.arange(wo) * stride + ix
    grad_x = np.zeros(x.size)
    np.add.at(grad_x, flat.ravel(), grad_out.ravel())
    return grad_x.reshape(x.shape)


def central_difference(loss_fn, arr, step=1e-6):
    """Elementwise central finite differences of a scalar function."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = loss_fn()
        flat[i] = keep - step
        lo = loss_fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic, numeric, floor=1e-6):
    """Max elementwise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))
