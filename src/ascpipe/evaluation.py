"""Accuracy, loss and per-device breakdown of a model's predictions.

Test items are grouped by recording device: the reference device A, the
real devices B and C together, and two trios of simulated devices. Any
other source label lands in a catch-all "unknown" group row. Because
"average accuracy" is ambiguous between weighting items and weighting
device groups, the report carries both numbers. A report stores one
[true, predicted] count matrix per group; every accuracy follows from them.
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
    """What was measured; every accuracy follows from it."""

    classes: tuple[str, ...]
    val_loss: float
    # group -> k x k int64 [true, predicted] counts, in group order
    group_confusion: dict[str, np.ndarray]

    @property
    def group_order(self) -> tuple[str, ...]:
        return tuple(self.group_confusion)

    @property
    def group_counts(self) -> dict[str, int]:
        return {name: int(m.sum()) for name, m in self.group_confusion.items()}

    @property
    def group_accuracy(self) -> dict[str, float]:
        """Percent per group; nan for empty groups."""
        return {
            name: float(np.trace(m) / m.sum() * 100.0) if m.sum() else math.nan
            for name, m in self.group_confusion.items()
        }

    @property
    def confusion(self) -> np.ndarray:
        """[true, predicted] counts over all groups."""
        return sum(self.group_confusion.values())

    @property
    def avg_accuracy_items(self) -> float:
        """Percent over all items."""
        confusion = self.confusion
        return float(np.trace(confusion) / confusion.sum() * 100.0)

    @property
    def avg_accuracy_groups(self) -> float:
        """Percent, the mean over non-empty groups."""
        return float(np.mean(
            [acc for acc in self.group_accuracy.values() if not math.isnan(acc)]
        ))

    @property
    def per_class_accuracy(self) -> np.ndarray:
        """Percent per class; nan when the class is absent."""
        confusion = self.confusion
        totals = confusion.sum(axis=1)
        return np.where(totals > 0, np.diag(confusion) / np.maximum(totals, 1) * 100.0, math.nan)


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

    probs = preds / row_sums[:, None]
    # the eps keeps the log finite, but would put a loss whose every p is 1 below 0
    val_loss = max(
        float(np.mean(-np.log(probs[np.arange(len(true)), true] + _LOG_EPS))), 0.0
    )

    groups = [_group_of(r.source_label) for r in manifest.rows]
    order = [name for name, _ in DEVICE_GROUPS]
    if UNKNOWN_GROUP in groups:
        order.append(UNKNOWN_GROUP)
    counts = np.zeros((len(order), len(classes), len(classes)), dtype=np.int64)
    np.add.at(counts, ([order.index(g) for g in groups], true, top1), 1)
    return EvalReport(classes, val_loss, dict(zip(order, counts)))


def _fmt(value: float, width: int) -> str:
    if math.isnan(value):
        return "-".rjust(width)
    return f"{value:.1f}".rjust(width)


def render_report(report: EvalReport) -> str:
    """Human-readable report table."""
    headers = [f"{name} acc. %" for name in report.group_order]
    headers += ["val loss", "Avg acc. %"]
    values = list(report.group_accuracy.values())
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
    confusion = report.confusion
    name_w = max(len(c) for c in report.classes)
    cell_w = max(len(str(int(confusion.max()))), 3)
    for cls, counts in zip(report.classes, confusion):
        row = " ".join(str(int(n)).rjust(cell_w) for n in counts)
        lines.append(f"  {cls:<{name_w}} {row}")
    return "\n".join(lines) + "\n"


def _none_for_nan(value: float):
    return None if math.isnan(value) else value


def report_to_json(report: EvalReport) -> str:
    """Machine-readable report; NaN accuracies become null."""
    counts, accuracy = report.group_counts, report.group_accuracy
    payload = {
        "classes": list(report.classes),
        "group_confusion": {name: m.tolist() for name, m in report.group_confusion.items()},
        "groups": {
            name: {"count": counts[name], "accuracy": _none_for_nan(accuracy[name])}
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
    """The measured fields of a report; everything else is derived again."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad report JSON: {exc}") from exc
    try:
        classes = payload["classes"]
        if not (isinstance(classes, list) and classes and len(set(classes)) == len(classes)
                and all(isinstance(c, str) and c for c in classes)):
            raise DataError("bad report JSON: classes must be distinct non-empty strings")
        val_loss = payload["val_loss"]
        if not isinstance(val_loss, (int, float)) or isinstance(val_loss, bool):
            raise DataError(f"bad report JSON: val_loss {val_loss!r} must be a number")
        if not (math.isfinite(val_loss) and val_loss >= 0):
            raise DataError(f"bad report JSON: val_loss {val_loss} must be finite and >= 0")
        if "group_confusion" not in payload:
            raise DataError(
                "bad report JSON: no group_confusion; rerun evaluate to write this report again"
            )
        # report_to_json sorts the keys, and evaluate's group order is sorted
        groups = payload["group_confusion"]
        if not isinstance(groups, dict):
            raise DataError("bad report JSON: group_confusion must be an object")
        k = len(classes)
        stack = np.array(list(groups.values()))
        # a JSON true inside a list of integers would read as the count 1
        if not (stack.shape[1:] == (k, k) and stack.dtype == np.int64 and (stack >= 0).all()
                and all(type(n) is int for m in groups.values() for row in m for n in row)
                and 0 < sum(map(int, stack.flat)) < 2**63):
            raise DataError(
                f"bad report JSON: group_confusion must map groups to {k}x{k} arrays "
                f"of integer counts >= 0 whose int64 total is above 0"
            )
        return EvalReport(tuple(classes), float(val_loss), dict(zip(groups, stack)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad report JSON: {exc}") from exc
