"""Tab-separated dataset manifests: one audio item per row.

Required columns (located by header name, other columns pass through
untouched): filename, scene_label, source_label. An optional split
column tags rows as train / test / validation for commands that care.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, read_text

REQUIRED_COLUMNS = ("filename", "scene_label", "source_label")


@dataclass(frozen=True)
class ManifestRow:
    filename: str
    scene_label: str
    source_label: str
    split: str = ""


@dataclass(frozen=True)
class DatasetManifest:
    rows: tuple[ManifestRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DataError("empty manifest")

    def __len__(self) -> int:
        return len(self.rows)

    def scene_labels(self) -> tuple[str, ...]:
        return tuple(r.scene_label for r in self.rows)

    def label_indices(self, classes: Sequence[str]) -> np.ndarray:
        """Scene labels as indices into ``classes``."""
        lookup = {c: i for i, c in enumerate(classes)}
        unknown = sorted({r.scene_label for r in self.rows} - set(lookup))
        if unknown:
            raise DataError(f"scene labels not in the class list: {unknown}")
        return np.array([lookup[r.scene_label] for r in self.rows])

    def split_rows(self, tag: str) -> tuple[int, ...]:
        """Indices of rows whose split column equals ``tag``."""
        return tuple(i for i, r in enumerate(self.rows) if r.split == tag)


def read_manifest(path: str | Path) -> DatasetManifest:
    lines = read_text(path, DataError, "manifest").splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest")
    header = [h.strip() for h in lines[0].split("\t")]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"{path}: manifest header repeats columns {repeated}")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{path}: manifest header missing columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    has_split = "split" in col

    rows: list[ManifestRow] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} tab-separated "
                f"fields, got {len(fields)}"
            )
        fields = [f.strip() for f in fields]
        rows.append(
            ManifestRow(
                filename=fields[col["filename"]],
                scene_label=fields[col["scene_label"]],
                source_label=fields[col["source_label"]],
                split=fields[col["split"]] if has_split else "",
            )
        )
    if not rows:
        raise DataError(f"{path}: empty manifest")
    return DatasetManifest(tuple(rows))


def write_manifest(path: str | Path, rows: Iterable[ManifestRow]) -> None:
    rows = list(rows)
    has_split = any(r.split for r in rows)
    header = list(REQUIRED_COLUMNS) + (["split"] if has_split else [])
    lines = ["\t".join(header)]
    for r in rows:
        fields = [r.filename, r.scene_label, r.source_label]
        if has_split:
            fields.append(r.split)
        lines.append("\t".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")
