"""Two-stage score fusion over a class hierarchy, plus model ensembling.

A coarse classifier scores each superclass (indoor / outdoor /
transportation) and a fine classifier scores each scene class. The fused
score of a scene class is the product of its own fine score and its
parent's coarse score; the predicted class is the argmax of the fused
vector. Ensembling combines the outputs of several fine classifiers,
either by plain averaging or by a logistic-regression stacker.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, read_text

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

    def group(self, superclass: str) -> tuple[str, ...]:
        """Classes belonging to the given superclass, in class order."""
        if superclass not in self.superclasses:
            raise DataError(f"unknown superclass {superclass!r}")
        return tuple(c for c in self.classes if self.parent[c] == superclass)

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


def to_super_labels(labels: np.ndarray, hierarchy: ClassHierarchy) -> np.ndarray:
    """Map class-index labels onto superclass indices."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= hierarchy.n_classes):
        raise DataError("class label out of range for hierarchy")
    return hierarchy.parent_indices()[labels]


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


def _stack_member_scores(member_scores) -> np.ndarray:
    """Concatenate per-member score arrays into one (N, D) design matrix."""
    if isinstance(member_scores, (list, tuple)):
        if not member_scores:
            raise DataError("no member scores")
        arrs = [np.asarray(m, dtype=np.float64) for m in member_scores]
        first = arrs[0].shape
        for i, a in enumerate(arrs[1:], start=1):
            if a.shape[: a.ndim - 1] != first[: len(first) - 1]:
                raise DataError(
                    f"member 0 has shape {first}, member {i} has shape {a.shape}"
                )
        x = np.concatenate(arrs, axis=-1)
    else:
        x = np.asarray(member_scores, dtype=np.float64)
    return x


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def logistic_ensemble_fit(
    member_scores,
    labels: np.ndarray,
    n_classes: int | None = None,
    l2: float = 1e-4,
    lr: float = 1.0,
    max_iters: int = 5000,
    tol: float = 1e-5,
) -> np.ndarray:
    """Fit a multinomial logistic-regression stacker on member scores.

    member_scores: either a list of per-member (N, K) arrays, concatenated
    along the feature axis, or a ready-made (N, D) matrix. Returns the
    weight matrix of shape (D + 1, n_classes); the final row is the
    intercept. Training is full-batch gradient descent (with backtracking
    on the step size) run until the gradient norm falls below ``tol`` or
    ``max_iters`` steps. The L2 penalty applies to weights only, not the
    intercept.
    """
    if l2 < 0:
        raise ConfigError(f"l2 penalty must be >= 0, got {l2}")
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be >= 1, got {max_iters}")
    x = _stack_member_scores(member_scores)
    if x.ndim != 2:
        raise DataError(f"expected a 2-D score matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("non-finite member scores")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise DataError(
            f"labels shape {y.shape} does not match {x.shape[0]} score rows"
        )
    if y.size == 0:
        raise DataError("empty training set")
    if not np.issubdtype(y.dtype, np.integer):
        raise DataError("labels must be integers")
    if y.min() < 0:
        raise DataError("negative class label")
    present, counts = np.unique(y, return_counts=True)
    if present.size < 2:
        raise DataError("training labels contain a single class")
    thin = present[counts < 2]
    if thin.size:
        raise DataError(f"classes with fewer than 2 training items: {thin.tolist()}")
    k = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if k <= int(y.max()):
        raise DataError(f"label {int(y.max())} out of range for {k} classes")

    n, d = x.shape
    xa = np.concatenate([x, np.ones((n, 1))], axis=1)
    targets = np.zeros((n, k))
    targets[np.arange(n), y] = 1.0

    def loss_of(w: np.ndarray) -> float:
        probs = _softmax_rows(xa @ w)
        ce = -np.mean(np.log(probs[np.arange(n), y] + 1e-300))
        return ce + 0.5 * l2 * float(np.sum(w[:-1] ** 2))

    w = np.zeros((d + 1, k))
    step = lr
    loss = loss_of(w)
    for _ in range(max_iters):
        probs = _softmax_rows(xa @ w)
        grad = xa.T @ (probs - targets) / n
        grad[:-1] += l2 * w[:-1]
        if np.linalg.norm(grad) < tol:
            break
        while step > 1e-12:
            cand = w - step * grad
            cand_loss = loss_of(cand)
            if cand_loss <= loss:
                break
            step *= 0.5
        w = w - step * grad
        loss = loss_of(w)
        step = min(step * 1.1, lr)
    return w


def logistic_ensemble_apply(weights: np.ndarray, member_scores) -> np.ndarray:
    """Apply a fitted stacker: softmax over the learned linear map."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise DataError(f"weight matrix must be 2-D, got shape {w.shape}")
    x = _stack_member_scores(member_scores)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2:
        raise DataError(f"expected 1-D or 2-D scores, got shape {x.shape}")
    if x.shape[1] != w.shape[0] - 1:
        raise DataError(
            f"scores have {x.shape[1]} features but weights expect "
            f"{w.shape[0] - 1}"
        )
    xa = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    probs = _softmax_rows(xa @ w)
    return probs[0] if single else probs
