"""Forward and backward kernels for every layer kind.

All kernels preserve the input dtype: training runs float32, the
gradient-check harness feeds float64 through the same code. Activations
are (B, T, F, C); dense layers operate on (B, D).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError

BN_EPS = 1e-5


def _pad_axis(n: int, k: int, s: int, padding: str) -> tuple[int, int]:
    if padding == "valid":
        return 0, 0
    out = -(-n // s)
    total = max((out - 1) * s + k - n, 0)
    return total // 2, total - total // 2


def _windows(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(B, Ho, Wo, kh, kw, C) sliding view over a padded input."""
    b, hp, wp, c = xp.shape
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    sb, sh_, sw_, sc = xp.strides
    shape = (b, ho, wo, kh, kw, c)
    strides = (sb, sh_ * sh, sw_ * sw, sh_, sw_, sc)
    return np.lib.stride_tricks.as_strided(xp, shape, strides)


def _scatter_windows(dwin: np.ndarray, xp_shape, sh: int, sw: int) -> np.ndarray:
    """Adjoint of _windows: accumulate window gradients into the padded input."""
    b, ho, wo, kh, kw, c = dwin.shape
    dxp = np.zeros(xp_shape, dtype=dwin.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :] += dwin[:, :, :, i, j, :]
    return dxp


def _conv_geometry(x_shape, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    _, h, w, _ = x_shape
    ph = _pad_axis(h, kh, sh, padding)
    pw = _pad_axis(w, kw, sw, padding)
    return kh, kw, sh, sw, ph, pw


def conv2d_forward(x, w, b, stride, padding):
    kh, kw, sh, sw, ph, pw = _conv_geometry(x.shape, w.shape[:2], stride, padding)
    xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    win = _windows(xp, kh, kw, sh, sw)
    cols = win.reshape(win.shape[0], win.shape[1], win.shape[2], -1)
    out = cols @ w.reshape(-1, w.shape[3])
    if b is not None:
        out = out + b
    cache = (cols, xp.shape, x.shape, (kh, kw, sh, sw, ph, pw), w.shape)
    return out, cache


def conv2d_backward(dout, w, cache):
    cols, xp_shape, x_shape, (kh, kw, sh, sw, ph, pw), w_shape = cache
    cout = w_shape[3]
    dw = cols.reshape(-1, cols.shape[-1]).T @ dout.reshape(-1, cout)
    dcols = dout @ w.reshape(-1, cout).T
    dwin = dcols.reshape(dout.shape[0], dout.shape[1], dout.shape[2], kh, kw, -1)
    dxp = _scatter_windows(dwin, xp_shape, sh, sw)
    dx = dxp[:, ph[0] : xp_shape[1] - ph[1], pw[0] : xp_shape[2] - pw[1], :]
    db = dout.sum(axis=(0, 1, 2))
    return dx, dw.reshape(w_shape), db


def depthwise_forward(x, w, b, stride, padding):
    kh, kw, sh, sw, ph, pw = _conv_geometry(x.shape, w.shape[:2], stride, padding)
    xp = np.pad(x, ((0, 0), ph, pw, (0, 0)))
    win = _windows(xp, kh, kw, sh, sw)
    out = np.einsum("bijpqc,pqcm->bijcm", win, w, optimize=True)
    bsz, ho, wo = out.shape[:3]
    out = out.reshape(bsz, ho, wo, -1)
    if b is not None:
        out = out + b
    cache = (np.ascontiguousarray(win), xp.shape, x.shape, (kh, kw, sh, sw, ph, pw), w.shape)
    return out, cache


def depthwise_backward(dout, w, cache):
    win, xp_shape, x_shape, (kh, kw, sh, sw, ph, pw), w_shape = cache
    mult = w_shape[3]
    dout5 = dout.reshape(dout.shape[0], dout.shape[1], dout.shape[2], -1, mult)
    dw = np.einsum("bijpqc,bijcm->pqcm", win, dout5, optimize=True)
    dwin = np.einsum("bijcm,pqcm->bijpqc", dout5, w, optimize=True)
    dxp = _scatter_windows(dwin, xp_shape, sh, sw)
    dx = dxp[:, ph[0] : xp_shape[1] - ph[1], pw[0] : xp_shape[2] - pw[1], :]
    db = dout.sum(axis=(0, 1, 2))
    return dx, dw, db


def batchnorm_forward(x, gamma, beta, running_mean, running_var, mode, momentum=0.9):
    axes = tuple(range(x.ndim - 1))
    if mode == "train":
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)  # biased, matching normalization
        new_rm = momentum * running_mean + (1.0 - momentum) * mean
        new_rv = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
        new_rm, new_rv = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (x - mean) * inv_std
    out = gamma * x_hat + beta
    cache = (x_hat, inv_std, gamma, mode, axes)
    return out, cache, new_rm.astype(running_mean.dtype), new_rv.astype(running_var.dtype)


def batchnorm_backward(dout, cache):
    x_hat, inv_std, gamma, mode, axes = cache
    dgamma = (dout * x_hat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    if mode == "eval":
        return dout * gamma * inv_std, dgamma, dbeta
    n = dout.size // dout.shape[-1]
    dx = (gamma * inv_std / n) * (
        n * dout - dbeta - x_hat * dgamma
    )
    return dx, dgamma, dbeta


def relu_forward(x):
    out = np.maximum(x, 0)
    return out, x > 0


def relu_backward(dout, mask):
    return dout * mask


def maxpool_forward(x, ph, pw):
    b, h, w, c = x.shape
    if h < ph or w < pw:
        raise GraphError(f"pool {ph}x{pw} exceeds map {h}x{w}")
    ho, wo = h // ph, w // pw
    # a tail smaller than one window contributes nothing
    xc = x[:, : ho * ph, : wo * pw, :]
    win = (
        xc.reshape(b, ho, ph, wo, pw, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(b, ho, wo, ph * pw, c)
    )
    idx = win.argmax(axis=3)
    out = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, (idx, x.shape, ph, pw)


def maxpool_backward(dout, cache):
    idx, x_shape, ph, pw = cache
    b, h, w, c = x_shape
    ho, wo = h // ph, w // pw
    dwin = np.zeros((b, ho, wo, ph * pw, c), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, : ho * ph, : wo * pw, :] = (
        dwin.reshape(b, ho, wo, ph, pw, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(b, ho * ph, wo * pw, c)
    )
    return dx


def global_avg_pool_forward(x):
    return x.mean(axis=(1, 2)), x.shape


def global_avg_pool_backward(dout, x_shape):
    scale = 1.0 / (x_shape[1] * x_shape[2])
    return np.broadcast_to(dout[:, None, None, :] * scale, x_shape).astype(dout.dtype)


def dense_forward(x, w, b):
    out = x @ w
    return (out if b is None else out + b), x


def dense_backward(dout, w, x):
    return dout @ w.T, x.T @ dout, dout.sum(axis=0)


def softmax_forward(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, p


def softmax_backward(dout, p):
    inner = (dout * p).sum(axis=-1, keepdims=True)
    return p * (dout - inner)


def dropout_forward(x, rate, mode, rng):
    if mode != "train" or rate == 0.0:
        return x, None
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def channel_attention_forward(x, w1, b1, w2, b2):
    """Squeeze-excitation: per-channel mean -> bottleneck -> sigmoid gate."""
    s = x.mean(axis=(1, 2))
    h_pre = s @ w1 + b1
    h = np.maximum(h_pre, 0)
    g = _sigmoid(h @ w2 + b2)
    out = x * g[:, None, None, :]
    return out, (x, s, h_pre, h, g)


def channel_attention_backward(dout, w1, w2, cache):
    x, s, h_pre, h, g = cache
    dg = (dout * x).sum(axis=(1, 2))
    dx = dout * g[:, None, None, :]
    dz2 = dg * g * (1.0 - g)
    dw2 = h.T @ dz2
    db2 = dz2.sum(axis=0)
    dh = (dz2 @ w2.T) * (h_pre > 0)
    dw1 = s.T @ dh
    db1 = dh.sum(axis=0)
    ds = dh @ w1.T
    dx = dx + ds[:, None, None, :] / (x.shape[1] * x.shape[2])
    return dx, dw1, db1, dw2, db2


def residual_add_forward(a, b):
    return a + b, None


def residual_add_backward(dout, cache):
    return [dout, dout]


def freq_split_forward(x, part):
    half = x.shape[2] // 2
    sl = slice(0, half) if part == 0 else slice(half, 2 * half)
    return x[:, :, sl, :], (x.shape, sl)


def freq_split_backward(dout, cache):
    x_shape, sl = cache
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, :, sl, :] = dout
    return dx


def concat_forward(inputs, axis_name):
    axis = 3 if axis_name == "channel" else 2
    sizes = [a.shape[axis] for a in inputs]
    return np.concatenate(inputs, axis=axis), (axis, sizes)


def concat_backward(dout, cache):
    axis, sizes = cache
    splits = np.cumsum(sizes[:-1])
    return list(np.split(dout, splits, axis=axis))
