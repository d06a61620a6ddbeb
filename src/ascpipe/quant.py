"""Post-training 8-bit quantization and a quantized inference path.

Weights of conv / depthwise-conv / dense layers are mapped to signed
8-bit integers with one symmetric scale per tensor (zero-point 0).
They are taken from ``nn``'s batchnorm-folded graph, the one float
``predict`` scores, so the quantized graph carries no normalization
layers. Biases and channel-attention parameters stay float32. Inference
walks that graph item by item like ``predict`` and differs only in the
per-layer forward: activations feeding a quantized layer are quantized on
the fly with one scale per tensor (Jacob et al. 2018), so an item's scores
do not depend on the other items; multiply-accumulate runs on exact
integer values, and the result is rescaled by the product of the two
scales before the bias add.

Integer accumulation is exact by construction. Products are bounded by
127 * 127 = 16129, and float32 holds every integer up to 2**24 exactly, so a
float32 contraction of at most F32_EXACT_MACS = 2**24 // 127**2 = 1040
products per output gives the exact integer sum whatever order the BLAS
adds in. A layer within one such block keeps the op's float32 output as its
accumulator. A layer with more MACs per output contracts its input channels
in groups of at most 1040 MACs, and the float32 group sums are added in
float64. A validation check caps MACs per output at 2**23, so every
accumulator stays below 2**37, far inside the 2**53 range where float64
holds integers exactly: the accumulators are the integer dot products,
bit for bit.

Rounding to integers and the rescale run in float64, BLOCK_ELEMS elements
(or one row of channels) at a time through reused buffers, and each block
is stored as float32. So the group sums of a layer past one exact block
are the only float64 array that grows with the input.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, GraphError
from .nn.checkpoint import ContainerReader, encode_container
from .nn.engine import per_item
from .nn.graph import LayerSpec, ModelGraph, fold_batchnorm
from .nn.ops import OPS

MAGIC = b"ASCQ"
VERSION = 1

# the kinds with a MAC count carry the int8 weights and absorb batchnorm
QUANT_KINDS = tuple(kind for kind, op in OPS.items() if op.macs)

_QMAX = 127

# per-output MAC budget: every accumulator stays below 127**2 * 2**23 < 2**37,
# so adding the float32 block sums in float64 (exact below 2**53) is exact
MAX_MACS_PER_OUTPUT = 2**23

# most MACs per output in one float32 block: 1040 * 127**2 < 2**24, where
# float32 still holds every integer, so a block sum is exact in any order
F32_EXACT_MACS = 2**24 // _QMAX**2

# float64 elements rounded or rescaled at a time: 512 KiB, so a block's two
# buffers and the float32 it reads and writes fit a 2 MiB L2 cache. Scoring
# two items at once on a 2-core Xeon VM, blocks of 8192 ran 13 % slower than
# rounding whole arrays, and blocks of 65536 9-16 % faster.
BLOCK_ELEMS = 65536


@dataclass(frozen=True)
class QuantizedTensor:
    """Signed 8-bit values with one symmetric scale (zero-point 0)."""

    values: np.ndarray
    scale: float


@dataclass
class QuantizedModel:
    """Folded topology, float32 side parameters, int8 weight tensors.

    ``graph.params`` holds every float parameter (biases, attention
    weights); the quantized ``w`` of each conv / depthwise / dense layer
    lives in ``weights`` keyed by layer name.
    """

    graph: ModelGraph
    weights: dict[str, QuantizedTensor]


def _to_int(arr: np.ndarray, scale: float) -> np.ndarray:
    """arr / scale rounded half away from zero, as float32; ``scale`` is the
    tensor's one scale.

    Each block of BLOCK_ELEMS is divided in float64, and q + copysign(0.5, q)
    truncated: the bits of floor(|q| + 0.5) with q's sign, -0.0 kept, since
    under round-to-nearest fl(q - 0.5) = -fl(|q| + 0.5) for q < 0. Only a
    strided ``arr`` (a freq_split half) is copied whole, in its own dtype.
    """
    out = np.empty(arr.shape, np.float32)
    src, dst = np.ascontiguousarray(arr).reshape(-1), out.reshape(-1)
    bufs = np.empty((2, min(src.size, BLOCK_ELEMS)))
    for lo in range(0, src.size, BLOCK_ELEMS):
        block = slice(lo, lo + BLOCK_ELEMS)
        q, half = bufs[:, : len(dst[block])]
        np.divide(src[block], scale, out=q, dtype=np.float64)
        np.copysign(0.5, q, out=half)
        q += half
        np.trunc(q, out=dst[block])
    return out


def _quantize_activation(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Integer values of x as float32 and its one scale (max|x| maps to 127,
    so no value rounds past 127)."""
    amax = float(max(x.max(), -x.min()))
    scale = amax / _QMAX if amax > 0 else 1.0
    return _to_int(x, scale), scale


def quantize_tensor(w: np.ndarray) -> QuantizedTensor:
    """Symmetric per-tensor quantization: scale = max|w| / 127.

    An all-zero tensor takes scale 1 with all-zero values, so the round
    trip stays exact.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.size == 0:
        raise DataError("cannot quantize an empty tensor")
    if not np.isfinite(arr).all():
        raise DataError("cannot quantize non-finite values")
    # rounded to the float32 the file stores, so a reloaded model scores the same
    scale = float(np.float32(np.max(np.abs(arr)) / _QMAX)) or 1.0
    q = _to_int(arr, scale)
    # a subnormal float32 scale can lie below max|w| / 127 by more than half
    # a step, and that max then rounds past 127
    return QuantizedTensor(np.clip(q, -_QMAX, _QMAX, out=q).astype(np.int8), scale)


def _channel_macs(spec: LayerSpec, shape: tuple) -> int:
    """MACs one input channel adds to an output (a conv kernel's taps, 1 for
    dense): the smallest group the int8 forward can contract."""
    return OPS[spec.kind].macs(spec, (*shape[:-1], 1))


def check_mac_budget(graph: ModelGraph) -> None:
    """Reject graphs with more than MAX_MACS_PER_OUTPUT per output element,
    or a kernel whose one-channel group exceeds F32_EXACT_MACS."""
    for spec in graph.layers:
        count = OPS[spec.kind].macs
        if count is None:
            continue
        shape = graph.in_shape(spec)
        macs = count(spec, shape)
        if macs > MAX_MACS_PER_OUTPUT:
            raise GraphError(
                f"layer {spec.name!r}: {macs} multiply-accumulates per output "
                f"exceeds the {MAX_MACS_PER_OUTPUT} accumulator budget"
            )
        taps = _channel_macs(spec, shape)
        if taps > F32_EXACT_MACS:
            raise GraphError(
                f"layer {spec.name!r}: a kernel of {taps} taps exceeds the "
                f"{F32_EXACT_MACS} MACs of an exact float32 block"
            )


def quantize_model(graph: ModelGraph) -> QuantizedModel:
    """Fold batchnorm, then quantize every conv / depthwise / dense weight."""
    folded = fold_batchnorm(graph)
    check_mac_budget(folded)
    weights: dict[str, QuantizedTensor] = {}
    for spec in folded.layers:
        if spec.kind not in QUANT_KINDS:
            continue
        store = folded.params.get(spec.name)
        if store is None or "w" not in store:
            raise DataError(f"layer {spec.name!r} has no weights to quantize")
        weights[spec.name] = quantize_tensor(store.pop("w"))
    return QuantizedModel(folded, weights)


def _int_accumulate(spec: LayerSpec, w: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """The exact integer accumulators of a conv / depthwise / dense layer
    over integer-valued float32 weights ``w`` and activations ``qa``.

    Within F32_EXACT_MACS per output they are the op's own float32 forward.
    A layer with more runs it once per group of input channels
    (``qa[..., group]`` against ``w[..., group, :]``, the input-channel
    axis of conv and dense weights) and adds the group sums in float64.
    """
    op = OPS[spec.kind]
    shape = qa.shape[1:]
    if op.macs(spec, shape) <= F32_EXACT_MACS:
        return op.forward(spec, {"w": w}, [qa], "eval", None)[0]
    step = F32_EXACT_MACS // _channel_macs(spec, shape)
    for c0 in range(0, shape[-1], step):
        group = slice(c0, c0 + step)
        part = op.forward(spec, {"w": w[..., group, :]}, [qa[..., group]], "eval", None)[0]
        if c0:
            acc += part
        else:
            acc = part.astype(np.float64)
    return acc


def _rescaled(acc: np.ndarray, scale: float, b) -> np.ndarray:
    """float32(acc * scale + b), formed in float64 a block of rows of
    channels at a time, written over ``acc`` when it is float32."""
    out = acc if acc.dtype == np.float32 else np.empty(acc.shape, np.float32)
    src, dst = acc.reshape(-1, acc.shape[-1]), out.reshape(-1, acc.shape[-1])
    step = max(1, BLOCK_ELEMS // acc.shape[-1])
    buf = np.empty((min(step, len(src)), acc.shape[-1]))
    for r0 in range(0, len(src), step):
        rows = slice(r0, r0 + step)
        part = buf[: len(dst[rows])]
        # dtype: NumPy 2 would multiply float32 rows by a Python float in float32
        np.multiply(src[rows], scale, out=part, dtype=np.float64)
        if b is not None:
            part += b
        dst[rows] = part
    return out


def quantized_forward(qm: QuantizedModel, x: np.ndarray) -> np.ndarray:
    """Run inference with int8 weights and dynamically quantized activations,
    each item of ``x`` scored on its own.

    The integer products are accumulated exactly (float32 blocks of at most
    F32_EXACT_MACS, added in float64 past one block; see the module
    docstring); the accumulator is then rescaled by activation-scale times
    weight-scale and the float bias is added. The other kinds run the op
    table's eval forward. A wrong input shape or a non-finite layer output
    raises as in run_forward.
    """

    def layer(spec, params, ins, mode, seed):
        op = OPS[spec.kind]
        if not op.macs:
            return op.forward(spec, params, ins, mode, seed)[0], None
        qt = qm.weights[spec.name]
        qa, a_scale = _quantize_activation(ins[0])
        # converted per layer: a whole model's float32 weights, held through
        # the call, would outweigh a small item's activations
        acc = _int_accumulate(spec, qt.values.astype(np.float32), qa)
        return _rescaled(acc, a_scale * qt.scale, params.get("b")), None

    return per_item(qm.graph, x, layer)


@dataclass(frozen=True)
class QuantSizeReport:
    """Exact byte counts per section of a serialized quantized model."""

    header_bytes: int
    topology_bytes: int
    record_header_bytes: int
    scale_bytes: int
    int8_payload_bytes: int
    float_payload_bytes: int

    @property
    def total_bytes(self) -> int:
        return sum(astuple(self))


def weight_blob_ratio(qm: QuantizedModel) -> float:
    """Quantized weight-blob bytes over the float32 bytes of the same tensors."""
    if not qm.weights:
        raise DataError("model has no quantized weights")
    quant = sum(qt.values.size + 4 for qt in qm.weights.values())
    flat = sum(4 * qt.values.size for qt in qm.weights.values())
    return quant / flat


def save_quantized(path, qm: QuantizedModel) -> QuantSizeReport:
    """Write the container and return its byte counts; each record's format
    fields are a quantized flag byte and, when it is set, the float32 scale
    of the int8 data."""
    records = []
    scale_bytes = int8_bytes = float_bytes = 0
    for spec in qm.graph.layers:
        store = qm.graph.params.get(spec.name, {})
        qt = qm.weights.get(spec.name)
        for key in sorted(set(store) | ({"w"} if qt is not None else set())):
            name = f"{spec.name}/{key}"
            if key == "w" and qt is not None:
                records.append((name, struct.pack("<Bf", 1, qt.scale), qt.values, np.int8))
                scale_bytes += 4
                int8_bytes += qt.values.size
            else:
                records.append((name, b"\0", store[key], "<f4"))
                float_bytes += 4 * store[key].size
    blob = encode_container(MAGIC, VERSION, qm.graph, records)
    Path(path).write_bytes(blob)
    header_bytes = 16
    topology_bytes = struct.unpack_from("<I", blob, 8)[0]
    return QuantSizeReport(
        header_bytes=header_bytes,
        topology_bytes=topology_bytes,
        record_header_bytes=len(blob) - header_bytes - topology_bytes
        - scale_bytes - int8_bytes - float_bytes,
        scale_bytes=scale_bytes,
        int8_payload_bytes=int8_bytes,
        float_payload_bytes=float_bytes,
    )


def load_quantized(path) -> QuantizedModel:
    reader = ContainerReader(path, MAGIC, VERSION, "quantized model")
    graph = reader.graph
    weights: dict[str, QuantizedTensor] = {}
    for _ in range(reader.count):
        spec, key, shape = reader.name()
        name = f"{spec.name}/{key}"
        (quantized,) = reader.unpack("<B")
        if not quantized:
            graph.params.setdefault(spec.name, {})[key] = reader.array(name, shape, "<f4")
            continue
        if spec.kind not in QUANT_KINDS or key != "w":
            raise DataError(f"{path}: quantized record {name!r} on a non-quantizable slot")
        (scale,) = reader.unpack("<f")
        if not 0 < scale < math.inf:
            raise DataError(f"{path}: record {name!r} has scale {scale}")
        weights[spec.name] = QuantizedTensor(reader.array(name, shape, np.int8), float(scale))
    for spec in graph.layers:
        if spec.kind in QUANT_KINDS and spec.name not in weights:
            raise DataError(f"{path}: missing quantized weights for {spec.name!r}")
    reader.finish()
    check_mac_budget(graph)
    return QuantizedModel(graph, weights)
