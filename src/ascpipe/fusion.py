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

# Canonical label orders used across the toolkit. Class index = position.
SCENE_LABELS = (
    "airport",
    "shopping_mall",
    "metro_station",
    "street_pedestrian",
    "public_square",
    "street_traffic",
    "tram",
    "bus",
    "metro",
    "park",
)

SUPERCLASS_LABELS = ("indoor", "outdoor", "transportation")

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


@dataclass(frozen=True)
class ClassHierarchy:
    """Assignment of every scene class to exactly one superclass."""

    classes: tuple[str, ...]
    superclasses: tuple[str, ...]
    parent: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.classes:
            raise DataError("hierarchy has no classes")
        if not self.superclasses:
            raise DataError("hierarchy has no superclasses")
        if len(set(self.classes)) != len(self.classes):
            raise DataError("duplicate class labels in hierarchy")
        if len(set(self.superclasses)) != len(self.superclasses):
            raise DataError("duplicate superclass labels in hierarchy")
        missing = [c for c in self.classes if c not in self.parent]
        if missing:
            raise DataError(f"classes without a parent: {missing}")
        extra = [c for c in self.parent if c not in self.classes]
        if extra:
            raise DataError(f"parent entries for unknown classes: {extra}")
        bad = [
            (c, p) for c, p in self.parent.items() if p not in self.superclasses
        ]
        if bad:
            raise DataError(f"unknown superclass in parent map: {bad}")
        childless = [
            s for s in self.superclasses if s not in set(self.parent.values())
        ]
        if childless:
            raise DataError(f"superclasses with no members: {childless}")

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_superclasses(self) -> int:
        return len(self.superclasses)

    def parent_indices(self) -> np.ndarray:
        """Superclass index of every class, in class-index order."""
        sup = {s: i for i, s in enumerate(self.superclasses)}
        return np.array([sup[self.parent[c]] for c in self.classes])

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
        return cls(SCENE_LABELS, SUPERCLASS_LABELS, dict(_DEFAULT_PARENT))

    @classmethod
    def from_file(cls, path: str | Path) -> "ClassHierarchy":
        """Load a hierarchy from a text file.

        One class per line as two whitespace-separated tokens:
        ``<class> <superclass>``. Blank lines and lines starting with ``#``
        are skipped. Class order follows line order; superclass order
        follows first appearance.
        """
        text = read_text(path, DataError, "hierarchy file")
        classes: list[str] = []
        supers: list[str] = []
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
            classes.append(name)
            parent[name] = sup
            if sup not in supers:
                supers.append(sup)
        return cls(tuple(classes), tuple(supers), parent)


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
