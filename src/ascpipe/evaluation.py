"""Accuracy, loss and per-device breakdown of a model's predictions.

Test items are grouped by recording device: the reference device A, the
real devices B and C together, and two trios of simulated devices. Any
other source label lands in a catch-all "unknown" group row. Because
"average accuracy" is ambiguous between weighting items and weighting
device groups, the report carries both numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .manifest import DatasetManifest

DEVICE_GROUPS = (
    ("A", ("a",)),
    ("B&C", ("b", "c")),
    ("s1-s3", ("s1", "s2", "s3")),
    ("s4-s6", ("s4", "s5", "s6")),
)
UNKNOWN_GROUP = "unknown"

_LOG_EPS = 1e-12


@dataclass
class EvalReport:
    """What was measured; the summary accuracies follow from it."""

    classes: tuple[str, ...]
    group_counts: dict[str, int]  # items per group, in group order
    group_accuracy: dict[str, float]  # percent; nan for empty groups
    val_loss: float
    confusion: np.ndarray  # [true, predicted] counts

    @property
    def group_order(self) -> tuple[str, ...]:
        return tuple(self.group_counts)

    @property
    def avg_accuracy_items(self) -> float:
        """Percent over all items."""
        return float(np.trace(self.confusion) / self.confusion.sum() * 100.0)

    @property
    def avg_accuracy_groups(self) -> float:
        """Percent, the mean over non-empty groups."""
        return float(np.mean(
            [self.group_accuracy[name] for name, n in self.group_counts.items() if n]
        ))

    @property
    def per_class_accuracy(self) -> np.ndarray:
        """Percent per class; nan when the class is absent."""
        totals = self.confusion.sum(axis=1)
        return np.where(
            totals > 0, np.diag(self.confusion) / np.maximum(totals, 1) * 100.0, math.nan
        )


def _group_of(source_label: str) -> str:
    dev = source_label.strip().lower()
    for name, members in DEVICE_GROUPS:
        if dev in members:
            return name
    return UNKNOWN_GROUP


def evaluate(
    predictions: np.ndarray,
    manifest: DatasetManifest,
    classes: Sequence[str],
) -> EvalReport:
    """Score per-item prediction vectors against a manifest.

    ``predictions`` holds one score row per manifest row, in manifest
    order. Rows are normalized to sum 1 before the cross-entropy loss, so
    fused (unnormalized) score vectors are accepted; the argmax is taken
    on the raw rows. ``classes`` names the columns, in order.
    """
    classes = tuple(classes)
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] != len(manifest):
        raise DataError(
            f"expected one prediction row per manifest row "
            f"({len(manifest)}), got shape {preds.shape}"
        )
    if preds.shape[1] != len(classes):
        raise DataError(
            f"predictions have {preds.shape[1]} columns but there are "
            f"{len(classes)} classes"
        )
    if not np.isfinite(preds).all():
        raise DataError("non-finite prediction scores")
    if (preds < 0).any():
        raise DataError("negative prediction scores")
    row_sums = preds.sum(axis=1)
    dead = np.flatnonzero(row_sums <= 0)
    if dead.size:
        raise DataError(f"prediction rows with zero total score: {dead.tolist()}")

    true = manifest.label_indices(classes)
    top1 = np.argmax(preds, axis=1)
    hits = top1 == true

    probs = preds / row_sums[:, None]
    val_loss = float(np.mean(-np.log(probs[np.arange(len(true)), true] + _LOG_EPS)))

    groups = np.array([_group_of(r.source_label) for r in manifest.rows])
    order = [name for name, _ in DEVICE_GROUPS]
    if (groups == UNKNOWN_GROUP).any():
        order.append(UNKNOWN_GROUP)
    counts: dict[str, int] = {}
    accuracy: dict[str, float] = {}
    for name in order:
        mask = groups == name
        counts[name] = int(mask.sum())
        accuracy[name] = (
            float(hits[mask].mean() * 100.0) if counts[name] else math.nan
        )

    k = len(classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (true, top1), 1)
    return EvalReport(
        classes=classes,
        group_counts=counts,
        group_accuracy=accuracy,
        val_loss=val_loss,
        confusion=confusion,
    )


def _fmt(value: float, width: int) -> str:
    if math.isnan(value):
        return "-".rjust(width)
    return f"{value:.1f}".rjust(width)


def render_report(report: EvalReport) -> str:
    """Human-readable report table."""
    headers = [f"{name} acc. %" for name in report.group_order]
    headers += ["val loss", "Avg acc. %"]
    values = [report.group_accuracy[name] for name in report.group_order]
    widths = [max(len(h), 8) for h in headers]
    cells = [_fmt(v, w) for v, w in zip(values, widths)]
    cells.append(f"{report.val_loss:.3f}".rjust(widths[-2]))
    cells.append(_fmt(report.avg_accuracy_items, widths[-1]))
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join(cells),
        "",
        f"item-weighted average accuracy:  {report.avg_accuracy_items:.2f} %",
        f"group-weighted average accuracy: {report.avg_accuracy_groups:.2f} %",
        "",
        "per-class accuracy:",
    ]
    for cls, acc in zip(report.classes, report.per_class_accuracy):
        shown = "-" if math.isnan(acc) else f"{acc:.1f} %"
        lines.append(f"  {cls:<20} {shown}")
    lines.append("")
    lines.append("confusion matrix (rows true, columns predicted):")
    name_w = max(len(c) for c in report.classes)
    cell_w = max(len(str(int(report.confusion.max()))), 3)
    for i, cls in enumerate(report.classes):
        row = " ".join(str(int(n)).rjust(cell_w) for n in report.confusion[i])
        lines.append(f"  {cls:<{name_w}} {row}")
    return "\n".join(lines) + "\n"


def _none_for_nan(value: float):
    return None if math.isnan(value) else value


def report_to_json(report: EvalReport) -> str:
    """Machine-readable report; NaN accuracies become null."""
    payload = {
        "classes": list(report.classes),
        "groups": {
            name: {
                "count": report.group_counts[name],
                "accuracy": _none_for_nan(report.group_accuracy[name]),
            }
            for name in report.group_order
        },
        "group_order": list(report.group_order),
        "val_loss": report.val_loss,
        "avg_accuracy_items": report.avg_accuracy_items,
        "avg_accuracy_groups": report.avg_accuracy_groups,
        "per_class_accuracy": [
            _none_for_nan(v) for v in report.per_class_accuracy.tolist()
        ],
        "confusion": report.confusion.tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> EvalReport:
    """The measured fields of a report; the summaries are derived again."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad report JSON: {exc}") from exc
    try:
        classes = payload["classes"]
        if not (isinstance(classes, list) and classes
                and all(isinstance(c, str) for c in classes)):
            raise DataError("bad report JSON: classes must be a non-empty list of strings")
        k = len(classes)
        confusion = np.array(payload["confusion"])
        if not (confusion.shape == (k, k) and np.issubdtype(confusion.dtype, np.integer)
                and (confusion >= 0).all()):
            raise DataError(f"bad report JSON: confusion must be a {k}x{k} array of counts")
        # report_to_json sorts the keys, and evaluate's group order is sorted
        groups = payload["groups"]
        if not isinstance(groups, dict):
            raise DataError("bad report JSON: groups must be an object")
        counts = {name: int(g["count"]) for name, g in groups.items()}
        total = int(confusion.sum())
        if total <= 0 or sum(counts.values()) != total or min(counts.values()) < 0:
            raise DataError(
                f"bad report JSON: group counts {counts} must be non-negative and "
                f"add up to the confusion total ({total}), which must be above 0"
            )
        return EvalReport(
            classes=tuple(classes),
            group_counts=counts,
            group_accuracy={
                name: math.nan if g["accuracy"] is None else float(g["accuracy"])
                for name, g in groups.items()
            },
            val_loss=float(payload["val_loss"]),
            confusion=confusion.astype(np.int64),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad report JSON: {exc}") from exc
