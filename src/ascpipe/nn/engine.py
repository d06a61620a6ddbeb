"""Graph executor: forward pass, reverse-mode gradients, cross-entropy.

The backward walk visits layers in reverse order, so a layer's output
gradient is fully accumulated (across all of its consumers) before the
layer itself runs. Softmax + cross-entropy use the fused gradient
(p - t) / B seeded at the softmax input.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, GraphError, NumericError
from . import blas
from .graph import INPUT, ModelGraph
from .ops import OPS


@dataclass
class Tape:
    """What one ``run_forward`` call leaves for ``run_backward``.

    ``caches`` maps every layer name to what its backward reads, or to
    ``None`` where the ``layer_forward`` keeps no cache (``forward`` and
    the int8 path). ``acts`` maps the final layer's name to the graph
    output: every other activation was dropped once its last reader had
    run, and lives on only where a cache holds it.
    """

    acts: dict
    caches: dict
    mode: str


def check_finite(name: str, out: np.ndarray) -> None:
    """Raise NumericError naming layer ``name`` and the batch rows of its
    output that hold a non-finite value."""
    if np.isfinite(out).all():
        return
    rows = np.flatnonzero(~np.isfinite(out).reshape(len(out), -1).all(axis=1))
    raise NumericError(
        f"non-finite activation at layer {name!r} in batch rows {rows.tolist()}"
    )


def run_forward(graph: ModelGraph, x: np.ndarray, mode: str = "eval", drop_key=None,
                layer_forward=None):
    """Execute every layer; returns (output, Tape). NaN anywhere is an error.

    Each activation is dropped once the last layer that reads it has run,
    so at any point only the activations some later layer still reads are
    held, plus the caches. The returned tape holds the output and every
    layer's cache.

    ``layer_forward`` takes the op table's forward signature and replaces
    ``OPS[spec.kind].forward`` for every layer (``forward`` and the int8
    path use it to keep no caches).
    """
    if mode not in ("train", "eval"):
        raise GraphError(f"mode must be train or eval, not {mode!r}")
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1:] != graph.input_shape:
        raise GraphError(
            f"graph {graph.name!r} expects input (B,)+{graph.input_shape}, got {x.shape}"
        )
    last_reader = {src: idx for idx, spec in enumerate(graph.layers) for src in spec.inputs}
    acts = {INPUT: x}
    caches = {}
    # dropout seeds its mask from (drop_key..., layer index)
    seed = [] if drop_key is None else [int(k) for k in np.atleast_1d(drop_key)]
    for idx, spec in enumerate(graph.layers):
        ins = [acts[s] for s in spec.inputs]
        for src in spec.inputs:
            if last_reader[src] == idx:
                acts.pop(src, None)  # a layer may read one activation twice
        params = graph.params.get(spec.name, {})
        out, cache = (layer_forward or OPS[spec.kind].forward)(spec, params, ins, mode, [*seed, idx])
        check_finite(spec.name, out)
        acts[spec.name] = out
        caches[spec.name] = cache
    return out, Tape(acts, caches, mode)


def _output_only(spec, params, ins, mode, seed):
    return OPS[spec.kind].forward(spec, params, ins, mode, seed)[0], None


def forward(graph: ModelGraph, x: np.ndarray, mode: str = "eval", drop_key=None,
            layer_forward=_output_only):
    """The graph output, keeping no caches: besides the layer that runs,
    only the activations a later layer reads are held."""
    return run_forward(graph, x, mode, drop_key, layer_forward)[0]


def per_item(graph: ModelGraph, items, layer_forward=_output_only) -> np.ndarray:
    """``forward`` on each item of ``items`` as a float32 batch of one, the
    outputs concatenated in item order; a NumericError names the item.
    Float ``predict`` and the int8 path differ only in ``layer_forward``.

    Each item runs on one BLAS thread (``blas.one_thread``), so its output
    does not depend on the thread count, and as many items run at once as
    the BLAS had threads. ``items`` is read in order on the calling
    thread, the next item only once fewer than that many are in flight,
    so memory holds one item's working set per item in flight. The first
    failure in item order is raised, an item's or the iterable's own."""

    def score(i, item):
        try:
            item = np.asarray(item, dtype=np.float32)[None]
            return forward(graph, item, layer_forward=layer_forward)
        except NumericError as exc:
            raise NumericError(f"input item {i}: {exc}") from exc

    outs, window, failure = [], deque(), None
    with blas.one_thread() as n, ThreadPoolExecutor(n) as pool:
        reading = enumerate(items)
        while True:
            if len(window) == n:
                outs.append(window.popleft().result())
            try:
                i, item = next(reading)
            except StopIteration:
                break
            except Exception as exc:  # raised once the items read before it are scored
                failure = exc
                break
            window.append(pool.submit(score, i, item))
        outs += [f.result() for f in window]
    if failure is not None:
        raise failure
    if not outs:
        raise DataError("no items to score")
    return np.concatenate(outs)


def run_backward(graph: ModelGraph, tape: Tape, dout: np.ndarray, skip_last: bool = False,
                 input_grad: bool = True):
    """Backpropagate an arbitrary output gradient through the tape.

    With skip_last=True, dout is injected at the final layer's input
    (the fused softmax + cross-entropy path). With input_grad=False no
    gradient is computed for an activation with no parameterised layer at
    or upstream of it, the graph input's included, which comes back None.
    """
    layers = graph.layers
    wanted = {INPUT: input_grad}
    for spec in layers:
        wanted[spec.name] = spec.name in graph.params or any(wanted[s] for s in spec.inputs)
    grads_acts: dict[str, np.ndarray] = {}
    if skip_last:
        last = layers[-1]
        if len(last.inputs) != 1:
            raise GraphError("fused head requires a single-input final layer")
        grads_acts[last.inputs[0]] = dout
        layers = layers[:-1]
    else:
        grads_acts[layers[-1].name] = dout

    param_grads: dict[str, dict[str, np.ndarray]] = {}
    for spec in reversed(layers):
        if not wanted[spec.name]:
            continue
        if spec.name not in grads_acts:
            raise GraphError(f"layer {spec.name!r} received no output gradient")
        d = grads_acts.pop(spec.name)
        params = graph.params.get(spec.name, {})
        need_dx = any(wanted[s] for s in spec.inputs)
        dins, dparams = OPS[spec.kind].backward(spec, params, tape.caches[spec.name], d, need_dx)
        for src, dx in zip(spec.inputs, dins):
            if wanted[src]:
                grads_acts[src] = grads_acts[src] + dx if src in grads_acts else dx
        if dparams:
            param_grads[spec.name] = dparams
    return param_grads, grads_acts.get(INPUT)


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy against soft targets."""
    if probs.shape != targets.shape:
        raise GraphError(f"probs {probs.shape} vs targets {targets.shape}")
    losses = -(targets * np.log(probs + 1e-12)).sum(axis=-1)
    return float(losses.mean())


def backward(graph: ModelGraph, x: np.ndarray, targets: np.ndarray, drop_key=None):
    """Train-mode forward + fused softmax/cross-entropy backward.

    Returns (loss, parameter gradients, Tape).
    """
    if graph.layers[-1].kind != "softmax":
        raise GraphError("cross-entropy training requires a softmax output layer")
    probs, tape = run_forward(graph, x, "train", drop_key)
    targets = np.asarray(targets, dtype=probs.dtype)
    loss = cross_entropy(probs, targets)
    if not np.isfinite(loss):
        raise NumericError("training loss is not finite")
    seed = (probs - targets) / probs.shape[0]
    param_grads, _ = run_backward(graph, tape, seed, skip_last=True, input_grad=False)
    return loss, param_grads, tape
