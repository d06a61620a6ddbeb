"""Two-stage score fusion over a class hierarchy, plus model ensembling.

A coarse classifier scores each superclass (indoor / outdoor /
transportation) and a fine classifier scores each scene class. The fused
score of a scene class is the product of its own fine score and its
parent's coarse score; the predicted class is the argmax of the fused
vector. Ensembling averages the outputs of several fine classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, read_text

# The default hierarchy. The canonical label orders used across the toolkit
# follow from it: class index = position, and superclasses come in order of
# first appearance.
_DEFAULT_PARENT = {
    "airport": "indoor",
    "shopping_mall": "indoor",
    "metro_station": "indoor",
    "street_pedestrian": "outdoor",
    "public_square": "outdoor",
    "street_traffic": "outdoor",
    "tram": "transportation",
    "bus": "transportation",
    "metro": "transportation",
    "park": "outdoor",
}
SCENE_LABELS = tuple(_DEFAULT_PARENT)
SUPERCLASS_LABELS = tuple(dict.fromkeys(_DEFAULT_PARENT.values()))


@dataclass(frozen=True)
class ClassHierarchy:
    """Assignment of every scene class to exactly one superclass: one
    ordered class -> superclass map. Classes are in map order, superclasses
    in order of first appearance. No name is both a class and a
    superclass, so a label names one level of the hierarchy."""

    parent: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.parent:
            raise DataError("hierarchy has no classes")
        both = [name for name in self.parent if name in self.parent.values()]
        if both:
            raise DataError(f"hierarchy names {both} both as classes and as superclasses")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.parent)

    @property
    def superclasses(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.parent.values()))

    @property
    def n_classes(self) -> int:
        return len(self.parent)

    @property
    def n_superclasses(self) -> int:
        return len(self.superclasses)

    def parent_indices(self) -> np.ndarray:
        """Superclass index of every class, in class-index order."""
        sup = {s: i for i, s in enumerate(self.superclasses)}
        return np.array([sup[p] for p in self.parent.values()])

    def label_set(self, labels) -> tuple[str, ...]:
        """The class list that covers ``labels``: the classes if they hold
        every label, else the superclasses if those do."""
        seen = set(labels)
        for names in (self.classes, self.superclasses):
            if seen <= set(names):
                return names
        strays = sorted(seen - set(self.classes) - set(self.superclasses))
        if strays:
            raise DataError(
                f"labels {strays} are neither classes nor superclasses of the hierarchy"
            )
        raise DataError(f"labels {sorted(seen)} mix classes and superclasses")

    @classmethod
    def default(cls) -> "ClassHierarchy":
        return cls(dict(_DEFAULT_PARENT))

    @classmethod
    def from_file(cls, path: str | Path) -> "ClassHierarchy":
        """Load a hierarchy from a text file.

        One class per line as two whitespace-separated tokens:
        ``<class> <superclass>``. Blank lines and lines starting with ``#``
        are skipped. Class order follows line order; superclass order
        follows first appearance.
        """
        text = read_text(path, DataError, "hierarchy file")
        parent: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise DataError(
                    f"{path}:{lineno}: expected '<class> <superclass>', "
                    f"got {line!r}"
                )
            name, sup = tokens
            if name in parent:
                raise DataError(f"{path}:{lineno}: duplicate class {name!r}")
            parent[name] = sup
        return cls(parent)


def two_stage_fuse(
    f1: np.ndarray, f2: np.ndarray, hierarchy: ClassHierarchy
) -> tuple[np.ndarray, int]:
    """Fuse coarse and fine score vectors for one item.

    fused[q] = f1[parent(q)] * f2[q]. The fused vector is returned as-is,
    not renormalized. The predicted class is its argmax; ties go to the
    lowest class index.
    """
    fused, preds = two_stage_fuse_batch(
        np.asarray(f1)[None], np.asarray(f2)[None], hierarchy
    )
    return fused[0], int(preds[0])


def two_stage_fuse_batch(
    f1: np.ndarray, f2: np.ndarray, hierarchy: ClassHierarchy
) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of two_stage_fuse over rows of (B, 3) and (B, 10)."""
    a1 = np.asarray(f1, dtype=np.float64)
    a2 = np.asarray(f2, dtype=np.float64)
    if a1.ndim != 2 or a1.shape[1] != hierarchy.n_superclasses:
        raise DataError(f"f1: expected (B, {hierarchy.n_superclasses}), got {a1.shape}")
    if a2.ndim != 2 or a2.shape[1] != hierarchy.n_classes:
        raise DataError(f"f2: expected (B, {hierarchy.n_classes}), got {a2.shape}")
    if a1.shape[0] != a2.shape[0]:
        raise DataError(
            f"batch mismatch: f1 has {a1.shape[0]} rows, f2 has {a2.shape[0]}"
        )
    if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise DataError("non-finite scores")
    if (a1 < 0).any() or (a2 < 0).any():
        raise DataError("negative scores")
    fused = a1[:, hierarchy.parent_indices()] * a2
    return fused, np.argmax(fused, axis=1)


def average_ensemble(outputs: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of member score arrays of identical shape."""
    if len(outputs) == 0:
        raise DataError("average_ensemble: no member outputs")
    arrs = [np.asarray(o, dtype=np.float64) for o in outputs]
    shape = arrs[0].shape
    for i, a in enumerate(arrs[1:], start=1):
        if a.shape != shape:
            raise DataError(
                f"average_ensemble: member 0 has shape {shape}, "
                f"member {i} has shape {a.shape}"
            )
    return np.mean(arrs, axis=0)
