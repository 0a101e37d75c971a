"""Generators: hierarchical graphs, multi-modal joints, augmentation models."""
import numpy as np
import pytest

from mmspectral import (
    AugmentationModel,
    HierarchicalGraphSpec,
    InvalidSpec,
    MultiModalGenConfig,
    augmentation_joint,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
    hierarchical_probabilities,
    labeling_error,
    surrogate_labeling_error,
)


class TestHierarchicalProbabilities:
    def test_constraint_arithmetic_at_ph_tenth(self):
        """s_l=2, s_h=2 with p_h=0.1 forces p_l=0.025: 2*0.1 + 2*0.025 = 1/4."""
        p_l, p_h = hierarchical_probabilities(2, 2, separation=0.6)
        assert abs(p_h - 0.1) < 1e-15
        assert abs(p_l - 0.025) < 1e-15
        assert abs(2 * p_h + 2 * p_l - 0.25) < 1e-15

    def test_zero_separation_is_uniform(self):
        for s_l, s_h in ((2, 1), (3, 2), (6, 6)):
            p_l, p_h = hierarchical_probabilities(s_l, s_h, 0.0)
            assert p_h == pytest.approx(p_l, abs=1e-15)
            assert p_h == pytest.approx(1.0 / (s_l * s_h) ** 2, abs=1e-15)

    def test_full_separation_empties_cross_blocks(self):
        for s_l, s_h in ((2, 2), (4, 3)):
            p_l, p_h = hierarchical_probabilities(s_l, s_h, 1.0)
            assert p_l == 0.0
            assert p_h == pytest.approx(1.0 / (s_l * s_h * s_h), abs=1e-15)

    def test_gap_strictly_increasing_in_separation(self):
        gaps = [
            p_h - p_l
            for p_l, p_h in (hierarchical_probabilities(3, 2, d) for d in np.linspace(0, 1, 9))
        ]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_degenerate_branching(self):
        with pytest.raises(InvalidSpec):
            hierarchical_probabilities(1, 2, 0.5)


class TestHierarchicalGraphSpec:
    def test_rejects_inverted_probabilities(self):
        with pytest.raises(InvalidSpec):
            HierarchicalGraphSpec(2, 2, p_l=0.1, p_h=0.025)

    def test_rejects_broken_normalization(self):
        with pytest.raises(InvalidSpec):
            HierarchicalGraphSpec(2, 2, p_l=0.05, p_h=0.2)

    def test_from_separation_round_trip(self):
        spec = HierarchicalGraphSpec.from_separation(2, 2, 0.6)
        assert spec.p_h == pytest.approx(0.1, abs=1e-15)
        assert spec.p_l == pytest.approx(0.025, abs=1e-15)


class TestBuildHierarchicalMatrix:
    def test_explicit_4x4_construction(self):
        spec = HierarchicalGraphSpec(2, 2, p_l=0.025, p_h=0.1)
        expected = np.array([
            [0.100, 0.100, 0.025, 0.025],
            [0.100, 0.100, 0.025, 0.025],
            [0.025, 0.025, 0.100, 0.100],
            [0.025, 0.025, 0.100, 0.100],
        ])
        np.testing.assert_allclose(build_hierarchical_matrix(spec).matrix, expected, atol=1e-15)

    def test_zero_separation_is_constant(self):
        spec = HierarchicalGraphSpec.from_separation(3, 2, 0.0)
        m = build_hierarchical_matrix(spec).matrix
        np.testing.assert_allclose(m, m[0, 0], atol=1e-15)

    def test_unit_mass_for_all_shapes(self):
        for s_l in range(2, 7):
            for s_h in range(1, 7):
                spec = HierarchicalGraphSpec.from_separation(s_l, s_h, 0.37)
                assert build_hierarchical_matrix(spec).matrix.sum() == pytest.approx(1.0, abs=1e-12)

    def test_block_structure_survives_block_permutation(self):
        spec = HierarchicalGraphSpec.from_separation(3, 2, 0.5)
        m = build_hierarchical_matrix(spec).matrix
        # swap first-layer blocks 0 and 2
        perm = np.array([4, 5, 2, 3, 0, 1])
        np.testing.assert_allclose(m[np.ix_(perm, perm)], m, atol=1e-15)


class TestGenerateMultimodal:
    def test_zero_alpha_block_diagonal(self):
        cfg = MultiModalGenConfig(num_classes=3, visual_per_class=4,
                                  language_per_class=4, target_alpha=0.0, seed=1)
        joint, labels = generate_multimodal(cfg)
        assert labeling_error(joint, labels) == pytest.approx(0.0, abs=1e-15)

    def test_single_class_has_no_label_error(self):
        cfg = MultiModalGenConfig(num_classes=1, visual_per_class=5,
                                  language_per_class=3, target_alpha=0.0, seed=2)
        joint, labels = generate_multimodal(cfg)
        assert labeling_error(joint, labels) == 0.0

    def test_mean_realized_alpha_tracks_target(self):
        values = []
        for seed in range(20):
            cfg = MultiModalGenConfig(num_classes=4, visual_per_class=8,
                                      language_per_class=8, target_alpha=0.2, seed=seed)
            joint, labels = generate_multimodal(cfg)
            values.append(labeling_error(joint, labels))
        assert 0.18 <= float(np.mean(values)) <= 0.22

    def test_identical_seed_identical_matrix(self):
        cfg = MultiModalGenConfig(num_classes=2, visual_per_class=3,
                                  language_per_class=3, target_alpha=0.1, seed=9)
        a, _ = generate_multimodal(cfg)
        b, _ = generate_multimodal(cfg)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rejects_unreachable_alpha(self):
        with pytest.raises(InvalidSpec):
            MultiModalGenConfig(num_classes=2, visual_per_class=3,
                                language_per_class=3, target_alpha=0.6)


class TestGenerateAugmentationModel:
    def test_columns_sum_to_one(self):
        model = generate_augmentation_model(5, 3, leak=0.4, seed=0)
        np.testing.assert_allclose(model.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_no_leak_is_block_diagonal(self):
        model = generate_augmentation_model(3, 2, leak=0.0, seed=0)
        induced = augmentation_joint(model, np.full(3, 1.0 / 3))
        m = induced.matrix
        for i in range(6):
            for j in range(6):
                if i // 2 != j // 2:
                    assert m[i, j] == 0.0

    def test_full_leak_is_constant(self):
        model = generate_augmentation_model(3, 2, leak=1.0, seed=0)
        induced = augmentation_joint(model, np.full(3, 1.0 / 3))
        np.testing.assert_allclose(induced.matrix, induced.matrix[0, 0], atol=1e-12)

    def test_more_leak_means_more_surrogate_label_error(self):
        labels = np.array([0, 0, 1, 1])
        def mean_alpha(leak):
            vals = []
            for seed in range(10):
                model = generate_augmentation_model(4, 2, leak, seed=seed)
                induced = augmentation_joint(model, np.full(4, 0.25))
                vals.append(surrogate_labeling_error(induced, model.labels_for_augmented(labels)))
            return float(np.mean(vals))
        assert mean_alpha(0.3) > mean_alpha(0.1)

    def test_parent_map_orders_augmentations_by_natural(self):
        model = generate_augmentation_model(3, 2, leak=0.2, seed=4)
        np.testing.assert_array_equal(model.parent, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(
            model.labels_for_augmented(np.array([5, 6, 7])), [5, 5, 6, 6, 7, 7]
        )

    def test_rejects_invalid_conditional(self):
        with pytest.raises(InvalidSpec):
            AugmentationModel(np.array([[0.5, 0.2], [0.4, 0.8]]), augs_per_sample=1)
