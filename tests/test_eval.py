"""Tests for manifests, evaluation reports, and prediction overlap."""

import json
import math

import numpy as np
import pytest

from ascpipe.errors import DataError
from ascpipe.evaluation import (
    EvalReport,
    evaluate,
    render_report,
    report_from_json,
    report_to_json,
)
from ascpipe.fusion import SCENE_LABELS, SUPERCLASS_LABELS
from ascpipe.manifest import (
    DatasetManifest,
    ManifestRow,
    read_manifest,
    write_manifest,
)


def manifest_of(pairs):
    """pairs: (scene_label, source_label) tuples."""
    return DatasetManifest(
        tuple(
            ManifestRow(f"audio/clip{i:03d}.wav", scene, source)
            for i, (scene, source) in enumerate(pairs)
        )
    )


def scores_for(labels, classes, correct_mask, strength=0.7):
    """One score row per label; row i hits its label iff correct_mask[i]."""
    k = len(classes)
    idx = {c: i for i, c in enumerate(classes)}
    rows = np.full((len(labels), k), (1.0 - strength) / (k - 1))
    for i, (label, correct) in enumerate(zip(labels, correct_mask)):
        target = idx[label] if correct else (idx[label] + 1) % k
        rows[i, target] = strength
    return rows


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        rows = [
            ManifestRow("a/x.wav", "airport", "a", "train"),
            ManifestRow("a/y.wav", "park", "s2", "test"),
        ]
        path = tmp_path / "meta.tsv"
        write_manifest(path, rows)
        loaded = read_manifest(path)
        assert loaded.rows == tuple(rows)

    def test_split_column_optional(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text(
            "filename\tscene_label\tsource_label\n"
            "x.wav\tbus\ta\n"
            "y.wav\ttram\tb\n"
        )
        loaded = read_manifest(path)
        assert loaded.rows[0].split == ""
        assert loaded.scene_labels() == ("bus", "tram")
        assert tuple(r.source_label for r in loaded.rows) == ("a", "b")

    def test_header_order_free_with_extra_columns(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text(
            "identifier\tsource_label\tfilename\tscene_label\n"
            "id1\ts3\tx.wav\tmetro\n"
        )
        loaded = read_manifest(path)
        assert loaded.rows[0] == ManifestRow("x.wav", "metro", "s3")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("filename\tscene_label\nx.wav\tbus\n")
        with pytest.raises(DataError, match="missing columns"):
            read_manifest(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text(
            "filename\tscene_label\tsource_label\n" "x.wav\tbus\n"
        )
        with pytest.raises(DataError, match="meta.tsv:2"):
            read_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("filename\tscene_label\tsource_label\n")
        with pytest.raises(DataError, match="empty manifest"):
            read_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_manifest(tmp_path / "absent.tsv")

    def test_label_indices(self):
        m = manifest_of([("airport", "a"), ("park", "b"), ("tram", "c")])
        assert np.array_equal(m.label_indices(SCENE_LABELS), [0, 9, 6])

    def test_label_indices_unknown_label(self):
        m = manifest_of([("spaceship", "a")])
        with pytest.raises(DataError, match="spaceship"):
            m.label_indices(SCENE_LABELS)

    def test_split_rows(self):
        rows = (
            ManifestRow("x.wav", "bus", "a", "train"),
            ManifestRow("y.wav", "bus", "a", "test"),
            ManifestRow("z.wav", "tram", "b", "train"),
        )
        m = DatasetManifest(rows)
        assert m.split_rows("train") == (0, 2)
        assert m.split_rows("test") == (1,)


class TestEvaluate:
    def test_all_correct(self):
        labels = ["airport", "bus", "park", "metro", "tram", "public_square"]
        devices = ["a", "b", "c", "s1", "s4", "s6"]
        m = manifest_of(zip(labels, devices))
        preds = scores_for(labels, SCENE_LABELS, [True] * 6, strength=1.0 - 1e-9)
        report = evaluate(preds, m, SCENE_LABELS)
        for name in report.group_order:
            assert report.group_accuracy[name] == 100.0
        assert report.avg_accuracy_items == 100.0
        assert report.avg_accuracy_groups == 100.0
        assert report.val_loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_predictions_loss_is_log_k(self):
        labels = list(SCENE_LABELS)
        m = manifest_of((lab, "a") for lab in labels)
        preds = np.full((10, 10), 0.1)
        report = evaluate(preds, m, SCENE_LABELS)
        assert report.val_loss == pytest.approx(math.log(10), abs=1e-6)
        # argmax of a uniform row is class 0, so exactly one item matches
        assert report.avg_accuracy_items == pytest.approx(10.0)

    def test_hand_built_six_item_manifest(self):
        labels = ["airport", "bus", "park", "tram", "metro", "street_traffic"]
        devices = ["a", "a", "b", "c", "s2", "s5"]
        correct = [True, False, True, True, False, True]
        m = manifest_of(zip(labels, devices))
        report = evaluate(scores_for(labels, SCENE_LABELS, correct), m, SCENE_LABELS)
        assert report.group_accuracy["A"] == pytest.approx(50.0)
        assert report.group_accuracy["B&C"] == pytest.approx(100.0)
        assert report.group_accuracy["s1-s3"] == pytest.approx(0.0)
        assert report.group_accuracy["s4-s6"] == pytest.approx(100.0)
        assert report.avg_accuracy_items == pytest.approx(400.0 / 6)
        assert report.avg_accuracy_groups == pytest.approx(62.5)
        assert report.group_counts == {"A": 2, "B&C": 2, "s1-s3": 1, "s4-s6": 1}

    def test_item_average_is_count_weighted_group_mean(self, rng):
        devices = ["a", "b", "c", "s1", "s2", "s3", "s4", "s5", "s6"]
        pairs = []
        for _ in range(120):
            scene = SCENE_LABELS[rng.integers(0, 10)]
            pairs.append((scene, devices[rng.integers(0, len(devices))]))
        m = manifest_of(pairs)
        correct = rng.random(120) < 0.6
        report = evaluate(scores_for([p[0] for p in pairs], SCENE_LABELS,
                                     correct), m, SCENE_LABELS)
        weighted = sum(
            report.group_accuracy[g] * report.group_counts[g]
            for g in report.group_order
            if report.group_counts[g]
        ) / sum(report.group_counts.values())
        assert report.avg_accuracy_items == pytest.approx(weighted, abs=1e-9)

    def test_unknown_devices_get_their_own_row(self):
        labels = ["airport", "bus", "park"]
        m = manifest_of(zip(labels, ["a", "s9", "webcam"]))
        report = evaluate(scores_for(labels, SCENE_LABELS,
                                     [True, True, False]), m, SCENE_LABELS)
        assert report.group_order[-1] == "unknown"
        assert report.group_counts["unknown"] == 2
        assert report.group_accuracy["unknown"] == pytest.approx(50.0)

    def test_empty_groups_report_nan(self):
        labels = ["airport", "bus"]
        m = manifest_of(zip(labels, ["a", "a"]))
        report = evaluate(scores_for(labels, SCENE_LABELS, [True, True]), m, SCENE_LABELS)
        assert math.isnan(report.group_accuracy["s1-s3"])
        assert report.group_counts["s1-s3"] == 0
        assert report.avg_accuracy_groups == pytest.approx(100.0)

    def test_device_grouping_is_case_insensitive(self):
        labels = ["airport", "bus"]
        m = manifest_of(zip(labels, ["A", "S2"]))
        report = evaluate(scores_for(labels, SCENE_LABELS, [True, True]), m, SCENE_LABELS)
        assert report.group_counts["A"] == 1
        assert report.group_counts["s1-s3"] == 1
        assert "unknown" not in report.group_order

    def test_order_independence(self, rng):
        labels = ["airport", "bus", "park", "tram", "metro", "street_traffic"]
        devices = ["a", "b", "s1", "s4", "c", "a"]
        correct = [True, False, True, True, False, True]
        m = manifest_of(zip(labels, devices))
        preds = scores_for(labels, SCENE_LABELS, correct)
        base = evaluate(preds, m, SCENE_LABELS)

        perm = rng.permutation(6)
        shuffled = manifest_of(
            (labels[i], devices[i]) for i in perm
        )
        other = evaluate(preds[perm], shuffled, SCENE_LABELS)
        assert other.group_accuracy == base.group_accuracy
        assert other.avg_accuracy_items == pytest.approx(
            base.avg_accuracy_items
        )
        assert other.val_loss == pytest.approx(base.val_loss)
        assert np.array_equal(other.confusion, base.confusion)

    def test_confusion_rows_sum_to_class_counts(self, rng):
        pairs = [
            (SCENE_LABELS[rng.integers(0, 10)], "a") for _ in range(80)
        ]
        m = manifest_of(pairs)
        correct = rng.random(80) < 0.5
        report = evaluate(
            scores_for([p[0] for p in pairs], SCENE_LABELS, correct), m, SCENE_LABELS
        )
        true_idx = m.label_indices(SCENE_LABELS)
        expected = np.bincount(true_idx, minlength=10)
        assert np.array_equal(report.confusion.sum(axis=1), expected)
        assert report.confusion.sum() == 80

    def test_per_class_accuracy_diag(self):
        labels = ["airport", "airport", "bus"]
        m = manifest_of(zip(labels, ["a", "a", "a"]))
        report = evaluate(
            scores_for(labels, SCENE_LABELS, [True, False, True]), m, SCENE_LABELS
        )
        assert report.per_class_accuracy[0] == pytest.approx(50.0)
        assert report.per_class_accuracy[7] == pytest.approx(100.0)
        assert math.isnan(report.per_class_accuracy[9])

    def test_one_matrix_per_group_sums_to_the_confusion(self):
        labels = ["airport", "bus", "park", "tram", "metro", "airport"]
        devices = ["a", "a", "b", "s2", "webcam", "s5"]
        correct = [True, False, True, True, False, True]
        m = manifest_of(zip(labels, devices))
        report = evaluate(scores_for(labels, SCENE_LABELS, correct), m, SCENE_LABELS)
        assert report.group_order == ("A", "B&C", "s1-s3", "s4-s6", "unknown")
        a = report.group_confusion["A"]
        assert a.shape == (10, 10) and a.dtype == np.int64
        assert a.sum() == 2 and a[0, 0] == 1 and a[7, 8] == 1
        assert np.array_equal(report.confusion, sum(report.group_confusion.values()))
        assert report.group_counts == {"A": 2, "B&C": 1, "s1-s3": 1, "s4-s6": 1, "unknown": 1}

    def test_certain_hits_give_a_zero_loss_that_reads_back(self):
        # -log(1 + eps) is just below 0; a loss below 0 would not read back
        labels = ["airport", "bus"]
        m = manifest_of(zip(labels, ["a", "b"]))
        report = evaluate(scores_for(labels, SCENE_LABELS, [True, True], strength=1.0), m,
                          SCENE_LABELS)
        assert report.val_loss == 0.0
        assert report_from_json(report_to_json(report)).val_loss == 0.0

    def test_superclass_labels_score_against_superclass_columns(self):
        labels = ["indoor", "outdoor", "transportation", "indoor"]
        m = manifest_of(zip(labels, ["a", "b", "s1", "s9"]))
        preds = scores_for(labels, SUPERCLASS_LABELS, [True] * 4)
        report = evaluate(preds, m, SUPERCLASS_LABELS)
        assert report.classes == SUPERCLASS_LABELS
        assert report.avg_accuracy_items == 100.0

    def test_fused_unnormalized_rows_accepted(self):
        labels = ["airport", "bus"]
        m = manifest_of(zip(labels, ["a", "b"]))
        preds = scores_for(labels, SCENE_LABELS, [True, True]) * 0.2
        report = evaluate(preds, m, SCENE_LABELS)
        assert report.avg_accuracy_items == 100.0

    def test_prediction_count_mismatch(self):
        m = manifest_of([("airport", "a"), ("bus", "b")])
        with pytest.raises(DataError, match="one prediction row per"):
            evaluate(np.full((3, 10), 0.1), m, SCENE_LABELS)

    def test_class_count_mismatch(self):
        m = manifest_of([("airport", "a")])
        with pytest.raises(DataError, match="columns"):
            evaluate(np.full((1, 9), 1 / 9), m, SCENE_LABELS)

    def test_zero_score_row_rejected(self):
        m = manifest_of([("airport", "a")])
        with pytest.raises(DataError, match="zero total"):
            evaluate(np.zeros((1, 10)), m, SCENE_LABELS)

    def test_unknown_scene_label_needs_explicit_classes(self):
        m = manifest_of([("hallway", "a")])
        with pytest.raises(DataError, match="hallway"):
            evaluate(np.full((1, 10), 0.1), m, SCENE_LABELS)
        report = evaluate(
            np.array([[0.9, 0.1]]), m, classes=("hallway", "basement")
        )
        assert report.avg_accuracy_items == 100.0


class TestReportSerialization:
    def make_report(self):
        labels = ["airport", "bus", "park", "tram", "metro", "street_traffic"]
        devices = ["a", "a", "b", "c", "s2", "s7"]
        correct = [True, False, True, True, False, True]
        m = manifest_of(zip(labels, devices))
        return evaluate(scores_for(labels, SCENE_LABELS, correct), m, SCENE_LABELS)

    def test_json_round_trip(self):
        report = self.make_report()
        loaded = report_from_json(report_to_json(report))
        assert loaded.classes == report.classes
        assert loaded.group_order == report.group_order
        assert loaded.group_counts == report.group_counts
        for name in report.group_order:
            a, b = loaded.group_accuracy[name], report.group_accuracy[name]
            assert (math.isnan(a) and math.isnan(b)) or a == b
        assert loaded.val_loss == report.val_loss
        assert loaded.avg_accuracy_items == report.avg_accuracy_items
        assert loaded.avg_accuracy_groups == report.avg_accuracy_groups
        assert np.allclose(
            loaded.per_class_accuracy, report.per_class_accuracy,
            equal_nan=True,
        )
        assert np.array_equal(loaded.confusion, report.confusion)

    def test_json_is_deterministic(self):
        assert report_to_json(self.make_report()) == report_to_json(
            self.make_report()
        )

    def test_bad_json_rejected(self):
        with pytest.raises(DataError, match="bad report JSON"):
            report_from_json("{not json")
        with pytest.raises(DataError, match="bad report JSON"):
            report_from_json('{"classes": []}')

    def test_summaries_follow_from_the_counts(self):
        report = EvalReport(
            classes=("bus", "tram", "park"),
            val_loss=0.5,
            group_confusion={
                "A": np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]]),
                "B&C": np.zeros((3, 3), dtype=np.int64),
                "unknown": np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
            },
        )
        assert report.group_order == ("A", "B&C", "unknown")
        assert report.group_counts == {"A": 3, "B&C": 0, "unknown": 1}
        assert report.group_accuracy["A"] == pytest.approx(200 / 3)
        assert math.isnan(report.group_accuracy["B&C"])
        assert report.group_accuracy["unknown"] == 0.0
        assert np.array_equal(report.confusion, [[1, 1, 0], [0, 1, 1], [0, 0, 0]])
        assert report.avg_accuracy_items == 50.0
        assert report.avg_accuracy_groups == pytest.approx(100 / 3)
        assert np.array_equal(report.per_class_accuracy, [50.0, 50.0, math.nan], equal_nan=True)

    @pytest.mark.parametrize(
        "matrices",
        [
            {"A": [[1.0, 0], [0, 2]]},
            {"A": [["1", 0], [0, 2]]},
            {"A": [[1, 0], [0, 2]], "B&C": [[1]]},
            {"A": [[2**62, 0], [0, 2**62]]},
            {},
        ],
        ids=["float", "string", "ragged", "int64-overflow", "no-groups"],
    )
    def test_group_matrices_must_hold_counts_with_a_positive_total(self, matrices):
        payload = {"classes": ["bus", "tram"], "val_loss": 0.5, "group_confusion": matrices}
        with pytest.raises(DataError, match="bad report JSON"):
            report_from_json(json.dumps(payload))

    def test_render_is_unchanged(self):
        report = EvalReport(
            classes=("airport", "bus", "metro_station", "tram"),
            val_loss=1.2345,
            group_confusion={
                name: np.array(m, dtype=np.int64)
                for name, m in {
                    "A": [[3, 1, 0, 0], [0, 2, 0, 1], [1, 0, 4, 0], [0, 0, 0, 0]],
                    "B&C": [[0] * 4] * 4,
                    "s1-s3": [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 0]],
                    "s4-s6": [[0, 2, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                    "unknown": [[1000, 0, 0, 0], [0, 0, 1, 0], [0] * 4, [0] * 4],
                }.items()
            },
        )
        assert render_report(report) == (
            "A acc. %  B&C acc. %  s1-s3 acc. %  s4-s6 acc. %  unknown acc. %  val loss  Avg acc. %\n"
            "    75.0           -          60.0          25.0            99.9     1.234        99.1\n"
            "\n"
            "item-weighted average accuracy:  99.12 %\n"
            "group-weighted average accuracy: 64.98 %\n"
            "\n"
            "per-class accuracy:\n"
            "  airport              99.7 %\n"
            "  bus                  50.0 %\n"
            "  metro_station        66.7 %\n"
            "  tram                 -\n"
            "\n"
            "confusion matrix (rows true, columns predicted):\n"
            "  airport       1004    3    0    0\n"
            "  bus              1    3    1    1\n"
            "  metro_station    1    0    6    2\n"
            "  tram             0    0    0    0\n"
        )

    def test_render_contains_table_columns(self):
        text = render_report(self.make_report())
        for column in ["A acc. %", "B&C acc. %", "s1-s3 acc. %",
                       "s4-s6 acc. %", "val loss", "Avg acc. %"]:
            assert column in text
        assert "confusion matrix" in text
        assert "airport" in text

    def test_render_marks_empty_groups(self):
        labels = ["airport", "bus"]
        m = manifest_of(zip(labels, ["a", "a"]))
        report = evaluate(scores_for(labels, SCENE_LABELS, [True, True]), m, SCENE_LABELS)
        text = render_report(report)
        assert "-" in text
