"""Computation-graph description, validation, shape inference, init, and
the batchnorm fold that gives inference its graph.

A model is an ordered list of layers with explicit input edges, so the
parallel frequency-band branches used by the split architectures are
plain graph structure. Activations are laid out (batch, time, freq,
channels); after global pooling they are (batch, features).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..errors import DataError, GraphError
from .layers import BN_EPS
from .ops import OPS

INPUT = "input"

# parameter tensors that carry statistics, not gradients
NON_TRAINABLE = frozenset({"running_mean", "running_var"})


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    name: str
    inputs: tuple[str, ...]
    attrs: Mapping = field(default_factory=dict)

    def attr(self, key, default=None):
        if key in self.attrs:
            return self.attrs[key]
        if default is None:
            raise GraphError(f"layer {self.name!r} missing attribute {key!r}")
        return default


class ModelGraph:
    """Ordered layer list plus a parameter store keyed by layer name."""

    def __init__(self, name: str, input_shape: tuple[int, int, int], layers):
        self.name = str(name)
        self.input_shape = tuple(int(d) for d in input_shape)
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise GraphError(f"bad input shape {input_shape}")
        self.layers: tuple[LayerSpec, ...] = tuple(layers)
        if not self.layers:
            raise GraphError("graph has no layers")
        self.params: dict[str, dict[str, np.ndarray]] = {}
        self._validate()

    def _validate(self):
        seen: dict[str, LayerSpec] = {}
        consumed: set[str] = set()
        shapes: dict[str, tuple] = {INPUT: self.input_shape}
        for spec in self.layers:
            op = OPS.get(spec.kind)
            if op is None:
                raise GraphError(f"layer {spec.name!r}: unknown kind {spec.kind!r}")
            if not spec.name or spec.name == INPUT:
                raise GraphError(f"bad layer name {spec.name!r}")
            if spec.name in seen:
                raise GraphError(f"duplicate layer name {spec.name!r}")
            if op.arity is None:
                if len(spec.inputs) < 2:
                    raise GraphError(f"layer {spec.name!r}: {spec.kind} needs >= 2 inputs")
            elif len(spec.inputs) != op.arity:
                raise GraphError(
                    f"layer {spec.name!r}: {spec.kind} takes {op.arity} input(s), "
                    f"got {len(spec.inputs)}"
                )
            for src in spec.inputs:
                if src not in shapes:
                    raise GraphError(
                        f"layer {spec.name!r}: input {src!r} is not defined earlier"
                    )
                consumed.add(src)
            shapes[spec.name] = op.infer(spec, [shapes[s] for s in spec.inputs])
            seen[spec.name] = spec
        dangling = [s.name for s in self.layers[:-1] if s.name not in consumed]
        if dangling:
            raise GraphError(f"layers {dangling} feed nothing; single-output graphs only")
        if self.layers[-1].name in consumed:
            raise GraphError("final layer must be the graph output")
        self.shapes = shapes

    @property
    def output_shape(self) -> tuple:
        return self.shapes[self.layers[-1].name]

    def in_shape(self, spec: LayerSpec) -> tuple:
        return self.shapes[spec.inputs[0]]


def param_rules(graph: ModelGraph, spec: LayerSpec) -> dict[str, tuple]:
    """(shape, init rule) per parameter of one layer, from its input shape."""
    params = OPS[spec.kind].params
    return params(spec, graph.in_shape(spec)) if params else {}


def initialize(graph: ModelGraph, seed: int = 0) -> ModelGraph:
    """He-normal conv/dense weights, zero biases, identity batchnorm."""
    rng = np.random.default_rng(seed)
    graph.params = {}
    for spec in graph.layers:
        rules = param_rules(graph, spec)
        if rules:
            graph.params[spec.name] = {k: init(rng, shape) for k, (shape, init) in rules.items()}
    return graph


def fold_batchnorm(graph: ModelGraph) -> ModelGraph:
    """Fold every batchnorm into the conv / depthwise / dense before it.

    Uses the running statistics (inference behavior). The producing
    layer's weights are rescaled per output channel and it gains a bias,
    so the folded graph computes the same function as the original in
    eval mode. Returns a new graph; the input is left untouched. Float
    ``predict`` scores this graph and ``quant`` quantizes it.
    """
    if not graph.params:
        raise DataError(f"model {graph.name!r} has no parameters to fold")
    specs, params, producer = {}, {}, {}  # producer: batchnorm name -> the layer it folds into
    for spec in graph.layers:
        if spec.kind != "batchnorm":
            inputs = tuple(producer.get(i, i) for i in spec.inputs)
            specs[spec.name] = LayerSpec(spec.kind, spec.name, inputs, dict(spec.attrs))
            params[spec.name] = {k: v.copy() for k, v in graph.params.get(spec.name, {}).items()}
            continue
        src = spec.inputs[0]
        # the kinds with a MAC count carry a weight to absorb the scale
        if src not in specs or not OPS[specs[src].kind].macs:
            raise DataError(f"batchnorm {spec.name!r} does not follow a foldable layer")
        if sum(src in other.inputs for other in graph.layers) != 1:
            raise DataError(
                f"cannot fold batchnorm {spec.name!r}: its input {src!r} feeds other layers too"
            )
        producer[spec.name] = src
        bn, store = graph.params[spec.name], params[src]
        scale = bn["gamma"] / np.sqrt(bn["running_var"] + BN_EPS)
        w = store["w"]
        # every weight layout flattens to (inputs, output channels)
        store["w"] = (w.reshape(-1, scale.size) * scale).reshape(w.shape).astype(np.float32)
        bias = store.get("b", np.zeros(scale.size, dtype=np.float32))
        store["b"] = ((bias - bn["running_mean"]) * scale + bn["beta"]).astype(np.float32)
        specs[src] = replace(specs[src], attrs={**specs[src].attrs, "use_bias": True})
    out = ModelGraph(graph.name, graph.input_shape, specs.values())
    out.params = {name: store for name, store in params.items() if store}
    return out
