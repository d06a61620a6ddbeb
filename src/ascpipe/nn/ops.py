"""The layer-kind table: one entry per kind, read by every graph consumer.

Each entry holds the kind's input arity, output-shape inference,
parameter shapes with their init rule, forward and backward; for the
kinds that quantize, the multiply-accumulates per output element; and for
the kinds whose cache gives their train-mode output back cheaply, a
replay. Graph validation, initialization, the executor and the int8 path
all look a layer up here and branch on nothing else.

This module alone reads layer attributes. An entry turns them into
numbers (stride, zero padding, pool size, concat axis) before it calls a
kernel, so the kernels take arrays and integers only.

Entries reach kernels as ``L.<name>`` at call time and never hold a
kernel object, so rebinding a name on ``ascpipe.nn.layers`` (to time or
count calls) reaches every caller.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GraphError
from . import layers as L


@dataclass(frozen=True)
class Op:
    arity: int | None  # exact input count; None means two or more
    infer: Callable  # (spec, input shapes) -> output shape
    forward: Callable  # (spec, params, inputs, mode, dropout seed) -> (output, cache)
    backward: Callable  # (spec, params, cache, dout, need_dx) -> (input grads, param grads)
    params: Callable | None = None  # (spec, input shape) -> {key: (shape, init)}
    macs: Callable | None = None  # (spec, input shape) -> MACs per output element
    # (spec, params, train-mode cache, x) -> the output the forward gave for
    # input x, by its own ops in their order; it may write into x unless the cache holds x
    replay: Callable | None = None


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _is_pair(v) -> bool:
    return isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_count, v))


def _is_rate(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and 0 <= v < 1


def _checked(spec, key: str, default, ok: Callable, want: str):
    """Attribute ``key`` of ``spec`` (or ``default``), which ``ok`` accepts."""
    v = spec.attr(key, default)
    if not ok(v):
        raise GraphError(f"layer {spec.name!r}: attribute {key!r} must be {want}, got {v!r}")
    return v


def _count(spec, key: str, default=None) -> int:
    return int(_checked(spec, key, default, _is_count, "a positive integer"))


def _pair(spec, key: str, default=None) -> tuple[int, int]:
    a, b = _checked(spec, key, default, _is_pair, "a pair of positive integers")
    return int(a), int(b)


def _rate(spec) -> float:
    return float(_checked(spec, "rate", 0.3, _is_rate, "a number in [0, 1)"))


def _rank(spec, x: tuple, r: int) -> tuple:
    if len(x) != r:
        raise GraphError(f"layer {spec.name!r} expects rank-{r} input, got {x}")
    return x


def _kernel(spec) -> tuple[int, int]:
    return _pair(spec, "kernel", (3, 3))


def _stride(spec) -> tuple[int, int]:
    return _pair(spec, "stride", (1, 1))


def _pads(spec, x: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
    """((top, bottom), (left, right)) zero padding of a convolution over
    rank-3 input x: none for ``valid``; for ``same`` the least that gives
    ceil(n / stride) outputs, the odd row or column at the end."""
    _rank(spec, x, 3)
    kernel, stride = _kernel(spec), _stride(spec)
    padding = spec.attr("padding", "same")
    if padding not in ("same", "valid"):
        raise GraphError(f"layer {spec.name!r}: unknown padding {padding!r}")
    pads = []
    for n, k, s in zip(x, kernel, stride):
        if padding == "valid" and n < k:
            raise GraphError(f"layer {spec.name!r}: input extent {n} smaller than kernel {k}")
        total = 0 if padding == "valid" else max((-(-n // s) - 1) * s + k - n, 0)
        pads.append((total // 2, total - total // 2))
    return tuple(pads)


def _window(spec, x: tuple) -> tuple[int, int]:
    """Output (time, freq) extent of a convolution over rank-3 input x."""
    pads, kernel, stride = _pads(spec, x), _kernel(spec), _stride(spec)
    return tuple((n + p0 + p1 - k) // s + 1 for n, (p0, p1), k, s in zip(x, pads, kernel, stride))


def _same(spec, shapes):
    return shapes[0]


def _he(fan_in: int) -> Callable:
    std = math.sqrt(2.0 / fan_in)
    return lambda rng, shape: (rng.standard_normal(shape) * std).astype(np.float32)


def _zeros(rng, shape):
    return np.zeros(shape, dtype=np.float32)


def _ones(rng, shape):
    return np.ones(shape, dtype=np.float32)


def _weights(spec, w_shape: tuple, fan_in: int, n_out: int) -> dict:
    """He-normal weights plus a zero bias when the layer asks for one."""
    shapes = {"w": (w_shape, _he(fan_in))}
    if spec.attr("use_bias", False):
        shapes["b"] = ((n_out,), _zeros)
    return shapes


def _weight_grads(p, dx, dw, db):
    return [dx], ({"w": dw, "b": db} if "b" in p else {"w": dw})


def _conv_params(spec, x):
    kh, kw = _kernel(spec)
    filters = _count(spec, "filters")
    return _weights(spec, (kh, kw, x[2], filters), kh * kw * x[2], filters)


def _depthwise_params(spec, x):
    kh, kw = _kernel(spec)
    mult = _count(spec, "multiplier", 1)
    return _weights(spec, (kh, kw, x[2], mult), kh * kw * x[2], x[2] * mult)


def _dense_params(spec, x):
    units = _count(spec, "units")
    return {"w": ((x[0], units), _he(x[0])), "b": ((units,), _zeros)}


def _batchnorm_params(spec, x):
    c = (x[-1],)
    return {
        "gamma": (c, _ones),
        "beta": (c, _zeros),
        "running_mean": (c, _zeros),
        "running_var": (c, _ones),
    }


def _attention_params(spec, x):
    c = x[2]
    hidden = max(c // _count(spec, "reduction", 4), 1)
    return {
        "w1": ((c, hidden), _he(c)),
        "b1": ((hidden,), _zeros),
        "w2": ((hidden, c), _he(hidden)),
        "b2": ((c,), _zeros),
    }


def _batchnorm_forward(spec, p, ins, mode, seed):
    out, cache, rm, rv = L.batchnorm_forward(
        ins[0], p["gamma"], p["beta"], p["running_mean"], p["running_var"], mode,
        spec.attr("momentum", 0.9),
    )
    if mode == "train":
        p["running_mean"], p["running_var"] = rm, rv
    return out, cache


def _batchnorm_backward(spec, p, cache, dout, need_dx):
    dx, dgamma, dbeta = L.batchnorm_backward(dout, cache)
    return [dx], {"gamma": dgamma, "beta": dbeta}


def _dropout_forward(spec, p, ins, mode, seed):
    rng = np.random.default_rng(seed) if mode == "train" else None
    return L.dropout_forward(ins[0], _rate(spec), mode, rng)


def _attention_backward(spec, p, cache, dout, need_dx):
    dx, dw1, db1, dw2, db2 = L.channel_attention_backward(dout, p["w1"], p["w2"], cache)
    return [dx], {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def _maxpool_infer(spec, shapes):
    x = _rank(spec, shapes[0], 3)
    ph, pw = _pair(spec, "pool")
    if x[0] < ph or x[1] < pw:
        raise GraphError(f"layer {spec.name!r}: pool {ph}x{pw} exceeds map {x[0]}x{x[1]}")
    # non-overlapping windows; a remainder that cannot fill one is dropped
    return (x[0] // ph, x[1] // pw, x[2])


def _dropout_infer(spec, shapes):
    _rate(spec)
    return shapes[0]


def _attention_infer(spec, shapes):
    _count(spec, "reduction", 4)
    return _rank(spec, shapes[0], 3)


def _dense_infer(spec, shapes):
    _rank(spec, shapes[0], 1)
    return (_count(spec, "units"),)


def _residual_infer(spec, shapes):
    if shapes[0] != shapes[1]:
        raise GraphError(
            f"layer {spec.name!r}: residual operands differ {shapes[0]} vs {shapes[1]}"
        )
    return shapes[0]


def _freq_split_infer(spec, shapes):
    x = _rank(spec, shapes[0], 3)
    if x[1] % 2:
        raise GraphError(f"layer {spec.name!r}: cannot halve odd frequency extent {x[1]}")
    if spec.attr("part") not in (0, 1):
        raise GraphError(f"layer {spec.name!r}: part must be 0 or 1")
    return (x[0], x[1] // 2, x[2])


def _concat_axis(spec) -> int:
    """Index of the concat axis in a (time, freq, channel) shape."""
    axis = spec.attr("axis", "channel")
    if axis not in ("channel", "freq"):
        raise GraphError(f"layer {spec.name!r}: concat axis must be channel or freq")
    return 2 if axis == "channel" else 1


def _concat_infer(spec, shapes):
    pos = _concat_axis(spec)
    base = list(shapes[0])
    total = 0
    for s in shapes:
        if len(s) != 3:
            raise GraphError(f"layer {spec.name!r}: concat needs rank-3 inputs")
        for d in range(3):
            if d != pos and s[d] != base[d]:
                raise GraphError(
                    f"layer {spec.name!r}: concat shapes disagree off-axis: {shapes}"
                )
        total += s[pos]
    base[pos] = total
    return tuple(base)


OPS: dict[str, Op] = {
    "conv2d": Op(
        1,
        lambda s, xs: (*_window(s, xs[0]), _count(s, "filters")),
        lambda s, p, ins, mode, seed: L.conv2d_forward(
            ins[0], p["w"], p.get("b"), _stride(s), _pads(s, ins[0].shape[1:])
        ),
        lambda s, p, cache, d, need_dx: _weight_grads(
            p, *L.conv2d_backward(d, p["w"], cache, need_dx)
        ),
        _conv_params,
        lambda s, x: math.prod(_kernel(s)) * x[2],
    ),
    "depthwise_conv2d": Op(
        1,
        lambda s, xs: (*_window(s, xs[0]), xs[0][2] * _count(s, "multiplier", 1)),
        lambda s, p, ins, mode, seed: L.depthwise_forward(
            ins[0], p["w"], p.get("b"), _stride(s), _pads(s, ins[0].shape[1:])
        ),
        lambda s, p, cache, d, need_dx: _weight_grads(
            p, *L.depthwise_backward(d, p["w"], cache, need_dx)
        ),
        _depthwise_params,
        lambda s, x: math.prod(_kernel(s)),
    ),
    "batchnorm": Op(
        1, _same, _batchnorm_forward, _batchnorm_backward, _batchnorm_params,
        replay=lambda s, p, cache, x: L.batchnorm_output(x, cache, p["beta"]),
    ),
    "relu": Op(
        1,
        _same,
        lambda s, p, ins, mode, seed: L.relu_forward(ins[0]),
        lambda s, p, cache, d, _: ([L.relu_backward(d, cache)], {}),
        replay=lambda s, p, cache, x: np.maximum(x, 0, out=x),
    ),
    "maxpool": Op(
        1,
        _maxpool_infer,
        lambda s, p, ins, mode, seed: L.maxpool_forward(ins[0], *_pair(s, "pool")),
        lambda s, p, cache, d, _: ([L.maxpool_backward(d, cache)], {}),
        replay=lambda s, p, cache, x: L.pool_max(x, *_pair(s, "pool")),
    ),
    "global_avg_pool": Op(
        1,
        lambda s, xs: (_rank(s, xs[0], 3)[2],),
        lambda s, p, ins, mode, seed: L.global_avg_pool_forward(ins[0]),
        lambda s, p, cache, d, _: ([L.global_avg_pool_backward(d, cache)], {}),
    ),
    "dense": Op(
        1,
        _dense_infer,
        lambda s, p, ins, mode, seed: L.dense_forward(ins[0], p["w"], p.get("b")),
        lambda s, p, cache, d, _: _weight_grads(p, *L.dense_backward(d, p["w"], cache)),
        _dense_params,
        lambda s, x: x[0],
    ),
    "softmax": Op(
        1,
        lambda s, xs: _rank(s, xs[0], 1),
        lambda s, p, ins, mode, seed: L.softmax_forward(ins[0]),
        lambda s, p, cache, d, _: ([L.softmax_backward(d, cache)], {}),
    ),
    "dropout": Op(
        1,
        _dropout_infer,
        _dropout_forward,
        lambda s, p, cache, d, _: ([L.dropout_backward(d, cache)], {}),
        replay=lambda s, p, cache, x: L.dropout_backward(x, cache),  # the forward's multiply
    ),
    "channel_attention": Op(
        1,
        _attention_infer,
        lambda s, p, ins, mode, seed: L.channel_attention_forward(
            ins[0], p["w1"], p["b1"], p["w2"], p["b2"]
        ),
        _attention_backward,
        _attention_params,
    ),
    "residual_add": Op(
        2,
        _residual_infer,
        lambda s, p, ins, mode, seed: L.residual_add_forward(ins[0], ins[1]),
        lambda s, p, cache, d, _: (L.residual_add_backward(d, cache), {}),
    ),
    "freq_split": Op(
        1,
        _freq_split_infer,
        lambda s, p, ins, mode, seed: L.freq_split_forward(ins[0], int(s.attr("part"))),
        lambda s, p, cache, d, _: ([L.freq_split_backward(d, cache)], {}),
    ),
    "concat": Op(
        None,
        _concat_infer,
        # the inputs carry a batch axis in front
        lambda s, p, ins, mode, seed: L.concat_forward(ins, _concat_axis(s) + 1),
        lambda s, p, cache, d, _: (L.concat_backward(d, cache), {}),
    ),
}
