"""Tests for hierarchical score fusion and ensembling."""

import numpy as np
import pytest

from ascpipe.errors import DataError
from ascpipe.fusion import (
    SCENE_LABELS,
    SUPERCLASS_LABELS,
    ClassHierarchy,
    average_ensemble,
    two_stage_fuse,
    two_stage_fuse_batch,
)


def fuse_oracle(f1, f2, hierarchy):
    """Exhaustive enumeration of f1[p] * f2[q] over parent-consistent pairs."""
    parent = hierarchy.parent_indices()
    best_q = None
    best_score = -1.0
    for q in range(hierarchy.n_classes):
        for p in range(hierarchy.n_superclasses):
            if parent[q] != p:
                continue
            score = f1[p] * f2[q]
            if score > best_score:
                best_score = score
                best_q = q
    return best_q


class TestHierarchy:
    def test_default_shape(self):
        h = ClassHierarchy.default()
        assert h.n_classes == 10
        assert h.n_superclasses == 3
        assert h.classes == SCENE_LABELS
        assert h.superclasses == SUPERCLASS_LABELS

    def test_default_memberships(self):
        h = ClassHierarchy.default()
        members = {s: [c for c in h.classes if h.parent[c] == s] for s in h.superclasses}
        assert members == {
            "indoor": ["airport", "shopping_mall", "metro_station"],
            "outdoor": ["street_pedestrian", "public_square", "street_traffic", "park"],
            "transportation": ["tram", "bus", "metro"],
        }

    def test_groups_partition_classes(self):
        h = ClassHierarchy.default()
        idx = h.parent_indices()
        assert idx.shape == (h.n_classes,)
        assert sorted(set(idx.tolist())) == list(range(h.n_superclasses))

    def test_parent_indices_match_parent_map(self):
        h = ClassHierarchy.default()
        idx = h.parent_indices()
        for i, cls in enumerate(h.classes):
            assert h.superclasses[idx[i]] == h.parent[cls]

    def test_from_file_round_trip(self, tmp_path):
        h = ClassHierarchy.default()
        lines = ["# class to superclass", ""]
        lines += [f"{c} {h.parent[c]}" for c in h.classes]
        path = tmp_path / "hier.txt"
        path.write_text("\n".join(lines) + "\n")
        loaded = ClassHierarchy.from_file(path)
        assert loaded.classes == h.classes
        assert dict(loaded.parent) == dict(h.parent)
        assert np.array_equal(loaded.parent_indices(), h.parent_indices())

    def test_from_file_superclass_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "hier.txt"
        path.write_text("tram moving\nbus moving\npark still\n")
        loaded = ClassHierarchy.from_file(path)
        assert loaded.superclasses == ("moving", "still")
        assert np.array_equal(loaded.parent_indices(), [0, 0, 1])

    def test_from_file_rejects_bad_line(self, tmp_path):
        path = tmp_path / "hier.txt"
        path.write_text("tram transportation extra_token\n")
        with pytest.raises(DataError, match="expected"):
            ClassHierarchy.from_file(path)

    def test_from_file_rejects_duplicate_class(self, tmp_path):
        path = tmp_path / "hier.txt"
        path.write_text("tram transportation\ntram indoor\nbus transportation\n")
        with pytest.raises(DataError, match="duplicate"):
            ClassHierarchy.from_file(path)

    @pytest.mark.parametrize(
        "parent, both",
        [({"airport": "indoor", "indoor": "outdoor"}, "indoor"), ({"a": "a", "b": "x"}, "a")],
    )
    def test_a_name_is_not_both_a_class_and_a_superclass(self, parent, both):
        with pytest.raises(DataError, match=rf"\['{both}'\] both as classes and as superclasses"):
            ClassHierarchy(parent)

    def test_from_file_rejects_a_class_that_is_also_a_superclass(self, tmp_path):
        path = tmp_path / "hier.txt"
        path.write_text("airport indoor\nindoor outdoor\n")
        with pytest.raises(DataError, match=r"hierarchy names \['indoor'\] both"):
            ClassHierarchy.from_file(path)

    def test_from_file_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ClassHierarchy.from_file(tmp_path / "absent.txt")

    def test_one_ordered_map_gives_classes_and_superclasses(self):
        h = ClassHierarchy({"b": "y", "a": "x", "c": "y"})
        assert h.classes == ("b", "a", "c")
        assert h.superclasses == ("y", "x")
        assert np.array_equal(h.parent_indices(), [0, 1, 0])

    def test_from_file_rejects_empty_file(self, tmp_path):
        path = tmp_path / "hier.txt"
        path.write_text("# nothing but a comment\n\n")
        with pytest.raises(DataError, match="no classes"):
            ClassHierarchy.from_file(path)

    def test_label_set_is_classes_or_superclasses(self):
        h = ClassHierarchy.default()
        assert h.label_set(["bus", "park", "bus"]) == SCENE_LABELS
        assert h.label_set(["transportation", "indoor"]) == SUPERCLASS_LABELS

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["bus", "beach"], r"\['beach'\] are neither classes nor superclasses"),
            (["airport", "indoor"], r"\['airport', 'indoor'\] mix classes and superclasses"),
        ],
    )
    def test_label_set_rejects_labels_outside_one_list(self, labels, message):
        with pytest.raises(DataError, match=message):
            ClassHierarchy.default().label_set(labels)


class TestTwoStageFuse:
    def test_uniform_coarse_keeps_fine_argmax(self, rng):
        h = ClassHierarchy.default()
        f1 = np.full(3, 1.0 / 3.0)
        for _ in range(20):
            f2 = rng.dirichlet(np.ones(10))
            _, pred = two_stage_fuse(f1, f2, h)
            assert pred == int(np.argmax(f2))

    def test_one_hot_coarse_masks_other_groups(self):
        h = ClassHierarchy.default()
        f1 = np.array([0.0, 0.0, 1.0])
        f2 = np.full(10, 0.3 / 8)
        f2[9] = 0.4  # park, outdoor: the flat argmax
        f2[6] = 0.3  # tram, transportation: the best surviving class
        fused, pred = two_stage_fuse(f1, f2, h)
        assert h.classes[pred] == "tram"
        assert fused[9] == 0.0

    def test_fused_is_elementwise_product(self):
        h = ClassHierarchy.default()
        f1 = np.array([0.5, 0.3, 0.2])
        f2 = np.linspace(0.01, 0.19, 10)
        fused, _ = two_stage_fuse(f1, f2, h)
        expected = f1[h.parent_indices()] * f2
        assert np.array_equal(fused, expected)

    def test_not_renormalized(self, rng):
        h = ClassHierarchy.default()
        f1 = rng.dirichlet(np.ones(3))
        f2 = rng.dirichlet(np.ones(10))
        fused, _ = two_stage_fuse(f1, f2, h)
        assert fused.sum() < 0.999

    def test_matches_brute_force_oracle_on_random_pairs(self, rng):
        h = ClassHierarchy.default()
        for _ in range(1000):
            f1 = rng.dirichlet(np.ones(3) * 0.7)
            f2 = rng.dirichlet(np.ones(10) * 0.7)
            _, pred = two_stage_fuse(f1, f2, h)
            assert pred == fuse_oracle(f1, f2, h)

    def test_ties_break_to_lowest_index(self):
        h = ClassHierarchy.default()
        f1 = np.array([1.0, 1.0, 1.0])
        f2 = np.zeros(10)
        f2[2] = 0.5  # metro_station
        f2[8] = 0.5  # metro, same fused score
        _, pred = two_stage_fuse(f1, f2, h)
        assert pred == 2

    def test_scaling_either_stage_keeps_argmax(self, rng):
        h = ClassHierarchy.default()
        for _ in range(50):
            f1 = rng.dirichlet(np.ones(3))
            f2 = rng.dirichlet(np.ones(10))
            _, base = two_stage_fuse(f1, f2, h)
            _, scaled_fine = two_stage_fuse(f1, 7.5 * f2, h)
            _, scaled_coarse = two_stage_fuse(0.01 * f1, f2, h)
            assert base == scaled_fine == scaled_coarse

    def test_probability_inputs_give_sub_probability_mass(self, rng):
        h = ClassHierarchy.default()
        for _ in range(200):
            f1 = rng.dirichlet(np.ones(3) * 0.5)
            f2 = rng.dirichlet(np.ones(10) * 0.5)
            fused, _ = two_stage_fuse(f1, f2, h)
            assert fused.sum() <= 1.0 + 1e-12

    def test_correct_flat_argmax_survives_oracle_coarse(self, rng):
        h = ClassHierarchy.default()
        parent = h.parent_indices()
        for _ in range(500):
            true = int(rng.integers(0, 10))
            f2 = rng.dirichlet(np.ones(10) * 0.4)
            f1 = np.zeros(3)
            f1[parent[true]] = 1.0
            _, pred = two_stage_fuse(f1, f2, h)
            if int(np.argmax(f2)) == true:
                assert pred == true

    def test_oracle_coarse_never_hurts_accuracy(self, rng):
        h = ClassHierarchy.default()
        parent = h.parent_indices()
        n = 1000
        flat_hits = 0
        fused_hits = 0
        for _ in range(n):
            true = int(rng.integers(0, 10))
            f2 = rng.dirichlet(np.ones(10) * 0.4)
            f1 = np.zeros(3)
            f1[parent[true]] = 1.0
            _, pred = two_stage_fuse(f1, f2, h)
            flat_hits += int(np.argmax(f2)) == true
            fused_hits += pred == true
        assert fused_hits >= flat_hits

    def test_negative_scores_rejected(self):
        h = ClassHierarchy.default()
        good1 = np.full(3, 1 / 3)
        good2 = np.full(10, 0.1)
        bad1 = good1.copy()
        bad1[0] = -0.1
        bad2 = good2.copy()
        bad2[4] = -0.01
        with pytest.raises(DataError, match="negative"):
            two_stage_fuse(bad1, good2, h)
        with pytest.raises(DataError, match="negative"):
            two_stage_fuse(good1, bad2, h)

    def test_wrong_lengths_rejected(self):
        h = ClassHierarchy.default()
        with pytest.raises(DataError, match="f1"):
            two_stage_fuse(np.ones(4) / 4, np.full(10, 0.1), h)
        with pytest.raises(DataError, match="f2"):
            two_stage_fuse(np.ones(3) / 3, np.full(9, 0.1), h)

    def test_non_finite_rejected(self):
        h = ClassHierarchy.default()
        f2 = np.full(10, 0.1)
        f2[3] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            two_stage_fuse(np.ones(3) / 3, f2, h)

    def test_batch_matches_per_item(self, rng):
        h = ClassHierarchy.default()
        f1 = rng.dirichlet(np.ones(3), size=32)
        f2 = rng.dirichlet(np.ones(10), size=32)
        fused, preds = two_stage_fuse_batch(f1, f2, h)
        for i in range(32):
            one_fused, one_pred = two_stage_fuse(f1[i], f2[i], h)
            assert np.array_equal(fused[i], one_fused)
            assert preds[i] == one_pred

    def test_batch_row_count_mismatch(self, rng):
        h = ClassHierarchy.default()
        with pytest.raises(DataError, match="batch mismatch"):
            two_stage_fuse_batch(
                rng.dirichlet(np.ones(3), size=4),
                rng.dirichlet(np.ones(10), size=5),
                h,
            )


class TestAverageEnsemble:
    def test_identical_members_identity(self, rng):
        member = rng.dirichlet(np.ones(10), size=8)
        out = average_ensemble([member, member.copy(), member.copy()])
        assert np.allclose(out, member)

    def test_two_one_hot_members(self):
        out = average_ensemble([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(out, [0.5, 0.5])

    def test_order_invariance(self, rng):
        members = [rng.dirichlet(np.ones(5), size=6) for _ in range(4)]
        forward = average_ensemble(members)
        backward = average_ensemble(members[::-1])
        assert np.allclose(forward, backward)

    def test_probabilities_stay_probabilities(self, rng):
        members = [rng.dirichlet(np.ones(10), size=16) for _ in range(3)]
        out = average_ensemble(members)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()

    def test_empty_list_rejected(self):
        with pytest.raises(DataError, match="no member"):
            average_ensemble([])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DataError, match="shape"):
            average_ensemble([np.zeros(10), np.zeros(9)])

