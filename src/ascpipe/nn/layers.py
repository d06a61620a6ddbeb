"""Forward and backward kernels for every layer kind.

All kernels preserve the input dtype: training runs float32, the
gradient-check harness feeds float64 through the same code. Activations
are (B, T, F, C); dense layers operate on (B, D). Layer attributes are
resolved by ``nn.ops``: a kernel takes arrays and the numbers it needs,
such as a stride pair, ((top, bottom), (left, right)) pads or an axis.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5


# a depthwise band's output rows span about this many bytes of one item,
# so each tap's product and add stay in cache
BAND_BYTES = 1 << 18


def _bands(out):
    """Yield (n, rows) per item n of out, a (B, Ho, Wo, ...) array, and
    slice ``rows`` of about BAND_BYTES of its output rows."""
    ho = out.shape[1]
    step = max(1, BAND_BYTES * ho // out[0].nbytes)
    for n in range(out.shape[0]):
        for r0 in range(0, ho, step):
            yield n, slice(r0, min(r0 + step, ho))


def _span(outs, k, pad, stride, size):
    """(dst, src) of tap offset k along one axis, where output o reads input
    o*stride + k - pad of size: dst slices the outputs of range outs,
    counted from its start, whose input exists, and src the strided inputs
    they read. Both are empty when the tap reads only padding."""
    o0 = max(outs.start, (pad - k + stride - 1) // stride)
    o1 = max(o0, min(outs.stop, (size - 1 + pad - k) // stride + 1))
    c0 = o0 * stride + k - pad
    return slice(o0 - outs.start, o1 - outs.start), slice(c0, c0 + (o1 - o0) * stride, stride)


def _taps(x, w_shape, stride, pads, rows, wo):
    """Yield (i, j, dst, src) per kernel tap, row-major, for the output rows
    of one band: tap (i, j) of the outputs band[dst] reads x[n][src], the
    inputs that exist."""
    (sh, sw), ((t0, _), (f0, _)) = stride, pads
    for i in range(w_shape[0]):
        dst_rows, src_rows = _span(rows, i, t0, sh, x.shape[1])
        for j in range(w_shape[1]):
            dst_cols, src_cols = _span(range(wo), j, f0, sw, x.shape[2])
            yield i, j, (dst_rows, dst_cols), (src_rows, src_cols)


def _kernel_rows(x, pads, kh, kw, sh, sw):
    """Yield (n, i, rows) per item n and kernel row i of the convolution of
    x zero-padded by pads. Each item's kw column taps are copied once into
    an (Hp, Wo, kw*C) buffer, 3x the item for a 3x3 kernel where an im2col
    matrix is 9x; only the input columns that exist are copied, so the pads
    stay the buffer's zeros. rows is the (Ho, Wo, kw*C) view of it that
    kernel row i reads."""
    (t0, t1), (f0, f1) = pads
    h, width = x.shape[1:3]
    hp = h + t0 + t1
    ho, wo = (hp - kh) // sh + 1, (width + f0 + f1 - kw) // sw + 1
    cols = np.zeros((hp, wo, kw, x.shape[3]), dtype=x.dtype)
    flat = cols.reshape(hp, wo, -1)
    for n in range(x.shape[0]):
        for j in range(kw):
            dst, src = _span(range(wo), j, f0, sw, width)
            cols[t0 : t0 + h, dst, j] = x[n, :, src]
        for i in range(kh):
            yield n, i, flat[i : i + (ho - 1) * sh + 1 : sh]


def _conv(x, w, stride, pads):
    """(B, Ho, Wo, cout) convolution of x zero-padded by pads, one item at
    a time: out[n] is the sum over kernel rows i of rows @ w[i], each
    product written into one reused buffer."""
    kh, kw, _, cout = w.shape
    w_rows = w.reshape(kh, -1, cout)
    out = part = None
    for n, i, rows in _kernel_rows(x, pads, kh, kw, *stride):
        if out is None:
            out = np.empty((x.shape[0], *rows.shape[:2], cout), np.result_type(x, w))
            part = np.empty_like(out[0])
        if i:
            out[n] += np.matmul(rows, w_rows[i], out=part)
        else:
            np.matmul(rows, w_rows[0], out=out[n])
    return out


def _conv_weight_grad(x, dout, w_shape, stride, pads):
    """The gradient of _conv's weights, summed per item and kernel row from
    the rows that the forward multiplied."""
    kh, kw, _, cout = w_shape
    dw = np.zeros((kh, x.shape[3] * kw, cout), dtype=np.result_type(x, dout))
    part = np.empty_like(dw[0])
    for n, i, rows in _kernel_rows(x, pads, kh, kw, *stride):
        rows = rows.reshape(-1, rows.shape[-1])  # a copy only at row stride > 1
        dw[i] += np.matmul(rows.T, dout[n].reshape(-1, cout), out=part)
    return dw.reshape(w_shape)


def _biased(out, b, x, stride, pads, w_shape):
    """A convolution's output plus its bias, added in place, and the cache
    both conv backwards read."""
    if b is not None:
        out += b
    return out, (x, stride, pads, w_shape)


def conv2d_forward(x, w, b, stride, pads):
    if (*w.shape[:2], *stride) == (1, 1, 1, 1):
        out = x @ w.reshape(-1, w.shape[3])
    else:
        out = _conv(x, w, stride, pads)
    return _biased(out, b, x, stride, pads, w.shape)


def conv2d_backward(dout, w, cache, need_dx=True):
    """(dx, dw, db), dx None unless need_dx. The cache holds the unpadded
    input. A 1x1 stride-1 conv takes one matmul each for dx and dw. Every
    other conv accumulates dw per item and kernel row from the rows that
    its forward multiplied, and its dx is one transposed convolution: dout,
    its rows and columns spread stride apart, convolved with the flipped,
    channel-swapped kernel under the pads that give back x's shape."""
    x, (sh, sw), pads, w_shape = cache
    kh, kw, cin, cout = w_shape
    db = dout.sum(axis=(0, 1, 2))
    if (kh, kw, sh, sw) == (1, 1, 1, 1):
        dw = x.reshape(-1, cin).T @ dout.reshape(-1, cout)
        return (dout @ w.reshape(-1, cout).T if need_dx else None), dw.reshape(w_shape), db
    dw = _conv_weight_grad(x, dout, w_shape, (sh, sw), pads)
    if not need_dx:
        return None, dw, db
    spread = dout
    if (sh, sw) != (1, 1):
        bsz, ho, wo = dout.shape[:3]
        spread = np.zeros((bsz, (ho - 1) * sh + 1, (wo - 1) * sw + 1, cout), dtype=dout.dtype)
        spread[:, ::sh, ::sw] = dout
    (t0, t1), (f0, f1) = pads
    hp, wp = x.shape[1] + t0 + t1, x.shape[2] + f0 + f1
    full = ((kh - 1 - t0, hp - spread.shape[1] - t1), (kw - 1 - f0, wp - spread.shape[2] - f1))
    return _conv(spread, w[::-1, ::-1].transpose(0, 1, 3, 2), (1, 1), full), dw, db


def depthwise_forward(x, w, b, stride, pads):
    (kh, kw), (sh, sw), ((t0, t1), (f0, f1)) = w.shape[:2], stride, pads
    bsz, h, width = x.shape[:3]
    ho, wo = (h + t0 + t1 - kh) // sh + 1, (width + f0 + f1 - kw) // sw + 1
    # (B, Ho, Wo, C, multiplier): per item and band, one product per tap,
    # summed in tap order
    acc = np.zeros((bsz, ho, wo) + w.shape[2:], dtype=np.result_type(x, w))
    prod = None
    for n, rows in _bands(acc):
        band = acc[n, rows]
        if prod is None:
            prod = np.empty_like(band)  # the first band is the largest
        for i, j, dst, src in _taps(x, w.shape, stride, pads, rows, wo):
            band[dst] += np.multiply(x[n][src][..., None], w[i, j], out=prod[dst])
    return _biased(acc.reshape(bsz, ho, wo, -1), b, x, stride, pads, w.shape)


def depthwise_backward(dout, w, cache, need_dx=True):
    """(dx, dw, db), dx None unless need_dx, summed per item and band of
    output rows as the forward runs."""
    x, stride, pads, w_shape = cache
    bsz, ho, wo = dout.shape[:3]
    dout5 = dout.reshape(bsz, ho, wo, -1, w_shape[3])
    dw = np.zeros(w_shape, dtype=np.result_type(x, dout))
    dx = np.zeros(x.shape, dtype=np.result_type(dout, w)) if need_dx else None
    for n, rows in _bands(dout5):
        band = dout5[n, rows]
        for i, j, dst, src in _taps(x, w_shape, stride, pads, rows, wo):
            dw[i, j] += np.einsum("hwc,hwcm->cm", x[n][src], band[dst])
            if need_dx:
                dx[n][src] += np.einsum("hwcm,cm->hwc", band[dst], w[i, j])
    return dx, dw, dout.sum(axis=(0, 1, 2))


def batchnorm_forward(x, gamma, beta, running_mean, running_var, mode, momentum=0.9):
    axes = tuple(range(x.ndim - 1))
    if mode == "train":
        mean = x.mean(axis=axes)
        # x.var (biased, matching normalization) summed from the array that
        # then holds the output
        out = x - mean
        flat = out.reshape(-1, x.shape[-1])
        var = np.einsum("nc,nc->c", flat, flat) / len(flat)
        new_rm = momentum * running_mean + (1.0 - momentum) * mean
        new_rv = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
        new_rm, new_rv = running_mean, running_var
        out = x - mean
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    # one output array, the ops of gamma * ((x - mean) * inv_std) + beta
    out *= inv_std
    out *= gamma
    out += beta
    cache = (x, mean, inv_std, gamma, mode, axes)
    return out, cache, new_rm.astype(running_mean.dtype), new_rv.astype(running_var.dtype)


def batchnorm_backward(dout, cache):
    x, mean, inv_std, gamma, mode, axes = cache
    dbeta = dout.sum(axis=axes)
    if mode == "eval":
        x_hat = x - mean
        x_hat *= inv_std
        return dout * gamma * inv_std, (dout * x_hat).sum(axis=axes), dbeta
    # centred, so dgamma keeps its precision when the mean dwarfs the
    # spread: gamma*inv_std * (dout - dbeta/n - (x - mean)*inv_std*dgamma/n),
    # built in the one array that holds x - mean
    dx = x - mean
    flat = dx.reshape(-1, x.shape[-1])
    n = len(flat)
    dgamma = inv_std * np.einsum("nc,nc->c", dout.reshape(flat.shape), flat)
    dx *= -inv_std * dgamma / n
    dx -= dbeta / n
    dx += dout
    dx *= gamma * inv_std
    return dx, dgamma, dbeta


def relu_forward(x):
    out = np.maximum(x, 0)
    return out, x > 0


def relu_backward(dout, mask):
    return dout * mask


def maxpool_forward(x, ph, pw):
    b, h, w, c = x.shape
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
    """dx, written per window offset (p, q), index p*pw + q: each dout
    where its window's argmax picked that offset, else zero."""
    idx, x_shape, ph, pw = cache
    ho, wo = dout.shape[1:3]
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for p in range(ph):
        for q in range(pw):
            dx[:, p : ho * ph : ph, q : wo * pw : pw] = np.where(idx == p * pw + q, dout, 0)
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


def concat_forward(inputs, axis):
    sizes = [a.shape[axis] for a in inputs]
    return np.concatenate(inputs, axis=axis), (axis, sizes)


def concat_backward(dout, cache):
    axis, sizes = cache
    splits = np.cumsum(sizes[:-1])
    return list(np.split(dout, splits, axis=axis))
