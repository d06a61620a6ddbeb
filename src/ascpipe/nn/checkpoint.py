"""Model containers: topology as JSON text, then named array records.

Both model formats share one layout, all integers little-endian uint32:
  magic | version | topology length | topology JSON (utf-8) |
  record count | per record: name length | name "layer/param" (utf-8) |
  format fields | ndim | dims... | little-endian data

A checkpoint ("ASCM") has no format fields and float32 data; the int8
format in ``quant`` puts its own fields there. Records are written in
graph layer order with parameter keys sorted, so a save/load/save round
trip is byte-identical. Every read is bounds-checked, every record's
shape must match the one its topology gives, and every parameter of the
topology must come from exactly one record, so a damaged file raises
DataError.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError, GraphError
from .graph import LayerSpec, ModelGraph, param_rules

MAGIC = b"ASCM"
VERSION = 1


def graph_to_dict(graph: ModelGraph) -> dict:
    return {
        "name": graph.name,
        "input_shape": list(graph.input_shape),
        "layers": [dataclasses.asdict(spec) for spec in graph.layers],
    }


def graph_from_dict(d: dict) -> ModelGraph:
    layers = [
        LayerSpec(sp["kind"], sp["name"], tuple(sp["inputs"]), sp["attrs"])
        for sp in d["layers"]
    ]
    return ModelGraph(d["name"], tuple(d["input_shape"]), layers)


def encode_container(magic: bytes, version: int, graph: ModelGraph, records) -> bytes:
    """Container bytes; each record is (name, format fields, array, dtype)."""
    topo = json.dumps(graph_to_dict(graph), sort_keys=True).encode("utf-8")
    chunks = [magic, struct.pack("<II", version, len(topo)), topo]
    chunks.append(struct.pack("<I", len(records)))
    for name, fields, arr, dtype in records:
        raw = name.encode("utf-8")
        chunks += [
            struct.pack("<I", len(raw)),
            raw,
            fields,
            struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
            np.ascontiguousarray(arr, dtype=dtype).tobytes(),
        ]
    return b"".join(chunks)


class ContainerReader:
    """Bounds-checked cursor over a container; parses the header on open.

    After construction, ``graph`` holds the topology (without parameters)
    and ``count`` the number of records that follow.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        try:
            self.data = Path(path).read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {what} {path}: {exc}") from exc
        self.path, self.pos = path, len(magic)
        if self.data[: len(magic)] != magic:
            raise DataError(f"{path}: not a {what} file")
        (found,) = self.unpack("<I")
        if found != version:
            raise DataError(f"{path}: unsupported {what} version {found}")
        topo = self.take(self.unpack("<I")[0], "topology")
        try:
            self.graph = graph_from_dict(json.loads(topo.decode("utf-8")))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # ValueError covers bad utf-8 and bad JSON
            raise DataError(f"{path}: bad topology block: {exc!r}") from exc
        except GraphError as exc:
            raise GraphError(f"{path}: {exc}") from exc
        self.layers = {spec.name: spec for spec in self.graph.layers}
        self.seen: set[tuple[str, str]] = set()
        (self.count,) = self.unpack("<I")

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise DataError(f"{self.path}: truncated {what} at byte {self.pos}")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), "header"))

    def name(self) -> tuple[LayerSpec, str, tuple]:
        """Next record's layer and key, and the shape the topology gives it."""
        raw = self.take(self.unpack("<I")[0], "record name")
        layer, _, key = raw.decode("utf-8", errors="replace").partition("/")
        spec = self.layers.get(layer)
        rule = param_rules(self.graph, spec).get(key) if spec else None
        if rule is None:
            raise DataError(f"{self.path}: record {raw!r} names no parameter of the topology")
        if (layer, key) in self.seen:
            raise DataError(f"{self.path}: record {raw!r} appears twice")
        self.seen.add((layer, key))
        return spec, key, rule[0]

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Dims and data of the current record, which must have ``shape``."""
        (ndim,) = self.unpack("<I")
        if ndim != len(shape) or self.unpack(f"<{ndim}I") != shape:
            raise DataError(f"{self.path}: record {name!r} does not have shape {shape}")
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, f"data for {name!r}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise DataError(f"{self.path}: {len(self.data) - self.pos} trailing bytes")
        missing = [f"{s.name}/{k}" for s in self.graph.layers for k in param_rules(self.graph, s)
                   if (s.name, k) not in self.seen]
        if missing:
            raise DataError(f"{self.path}: no record for {', '.join(missing)}")


def save_checkpoint(path, graph: ModelGraph) -> None:
    records = [
        (f"{spec.name}/{key}", b"", store[key], "<f4")
        for spec in graph.layers
        for store in [graph.params.get(spec.name, {})]
        for key in sorted(store)
    ]
    Path(path).write_bytes(encode_container(MAGIC, VERSION, graph, records))


def load_checkpoint(path) -> ModelGraph:
    reader = ContainerReader(path, MAGIC, VERSION, "checkpoint")
    graph = reader.graph
    for _ in range(reader.count):
        spec, key, shape = reader.name()
        arr = reader.array(f"{spec.name}/{key}", shape, "<f4")
        graph.params.setdefault(spec.name, {})[key] = arr
    reader.finish()
    return graph
