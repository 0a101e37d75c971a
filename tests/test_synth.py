"""Generators: hierarchical graphs, multi-modal joints, augmentation models."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmspectral import (
    AugmentationModel,
    HierarchicalGraphSpec,
    InducedDistribution,
    InvalidSpec,
    MultiModalGenConfig,
    augmentation_joint,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
    labeling_error,
    surrogate_labeling_error,
)
from mmspectral.synth import _block_matrix
from oracles import block_matrix_oracle, hierarchical_oracle


class TestHierarchicalProbabilities:
    def test_constraint_arithmetic_at_ph_tenth(self):
        """s_l=2, s_h=2 at separation 0.6 gives p_h=0.1 and p_l=0.025: 2*0.1 + 2*0.025 = 1/4."""
        spec = HierarchicalGraphSpec(2, 2, separation=0.6)
        assert abs(spec.p_h - 0.1) < 1e-15
        assert abs(spec.p_l - 0.025) < 1e-15
        assert abs(2 * spec.p_h + 2 * spec.p_l - 0.25) < 1e-15

    def test_zero_separation_is_uniform(self):
        for s_l, s_h in ((2, 1), (3, 2), (6, 6)):
            spec = HierarchicalGraphSpec(s_l, s_h, 0.0)
            assert spec.p_h == pytest.approx(spec.p_l, abs=1e-15)
            assert spec.p_h == pytest.approx(1.0 / (s_l * s_h) ** 2, abs=1e-15)

    def test_full_separation_empties_cross_blocks(self):
        for s_l, s_h in ((2, 2), (4, 3)):
            spec = HierarchicalGraphSpec(s_l, s_h, 1.0)
            assert spec.p_l == 0.0
            assert spec.p_h == pytest.approx(1.0 / (s_l * s_h * s_h), abs=1e-15)

    def test_gap_strictly_increasing_in_separation(self):
        gaps = [spec.p_h - spec.p_l for spec in (HierarchicalGraphSpec(3, 2, d) for d in np.linspace(0, 1, 9))]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_degenerate_branching(self):
        with pytest.raises(InvalidSpec, match="need s_l >= 2"):
            HierarchicalGraphSpec(1, 2, 0.5)


class TestHierarchicalGraphSpec:
    def test_fields_are_the_sizes_and_the_separation(self):
        assert [f.name for f in dataclasses.fields(HierarchicalGraphSpec)] == ["s_l", "s_h", "separation"]

    @pytest.mark.parametrize("separation", [-0.1, 1.5])
    def test_rejects_separation_outside_the_unit_interval(self, separation):
        with pytest.raises(InvalidSpec, match=r"separation must lie in \[0, 1\]"):
            HierarchicalGraphSpec(2, 2, separation)

    @given(s_l=st.integers(2, 8), s_h=st.integers(1, 8),
           separation=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_probabilities_and_matrix_follow_the_separation(self, s_l, s_h, separation):
        """Bit for bit the closed forms and the entry-by-entry fill, read
        as an induced distribution (which rescales to mass 1); the mass
        constraint and p_h >= p_l >= 0 hold by construction."""
        spec = HierarchicalGraphSpec(s_l, s_h, separation)
        p_l, p_h, m = hierarchical_oracle(s_l, s_h, separation)
        assert (repr(spec.p_l), repr(spec.p_h)) == (repr(p_l), repr(p_h))
        induced = InducedDistribution(m, "hierarchical")
        assert build_hierarchical_matrix(spec).matrix.tobytes() == induced.matrix.tobytes()
        n = s_l * s_h
        assert abs(s_h * spec.p_h + (s_l - 1) * s_h * spec.p_l - 1.0 / n) <= 1e-12
        assert spec.p_h >= spec.p_l >= 0.0


@pytest.mark.parametrize("sizes", [(1,), (5,), (2, 3), (3, 1), (1, 4), (2, 2, 2), (2, 3, 2), (3, 1, 2)])
def test_block_matrix_matches_the_entrywise_fill(sizes):
    levels = np.random.default_rng(len(sizes)).uniform(size=len(sizes))
    m = _block_matrix(sizes, tuple(levels))
    expected = block_matrix_oracle(sizes, levels)
    assert m.dtype == expected.dtype and m.tobytes() == expected.tobytes()


class TestBuildHierarchicalMatrix:
    def test_explicit_4x4_construction(self):
        spec = HierarchicalGraphSpec(2, 2, separation=0.6)
        expected = np.array([
            [0.100, 0.100, 0.025, 0.025],
            [0.100, 0.100, 0.025, 0.025],
            [0.025, 0.025, 0.100, 0.100],
            [0.025, 0.025, 0.100, 0.100],
        ])
        np.testing.assert_allclose(build_hierarchical_matrix(spec).matrix, expected, atol=1e-15)

    def test_zero_separation_is_constant(self):
        spec = HierarchicalGraphSpec(3, 2, 0.0)
        m = build_hierarchical_matrix(spec).matrix
        np.testing.assert_allclose(m, m[0, 0], atol=1e-15)

    def test_unit_mass_for_all_shapes(self):
        for s_l in range(2, 7):
            for s_h in range(1, 7):
                spec = HierarchicalGraphSpec(s_l, s_h, 0.37)
                assert build_hierarchical_matrix(spec).matrix.sum() == pytest.approx(1.0, abs=1e-12)

    def test_block_structure_survives_block_permutation(self):
        spec = HierarchicalGraphSpec(3, 2, 0.5)
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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 8), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_splits_are_the_per_sample_dirichlet_draws(self, seed, nv, augs, leak):
        """One call draws every natural sample's split as a loop of single
        draws would, bit for bit, and leaves the generator where the loop
        leaves it."""
        loop = np.random.default_rng(seed)
        n_a = nv * augs
        want = np.full((n_a, nv), leak / n_a)
        for v in range(nv):
            want[v * augs:(v + 1) * augs, v] += (1.0 - leak) * loop.dirichlet(np.ones(augs))
        assert generate_augmentation_model(nv, augs, leak, seed=seed).matrix.tobytes() == want.tobytes()
        one = np.random.default_rng(seed)
        one.dirichlet(np.ones(augs), size=nv)
        assert one.random() == loop.random()

    def test_rejects_invalid_conditional(self):
        with pytest.raises(InvalidSpec):
            AugmentationModel(np.array([[0.5, 0.2], [0.4, 0.8]]), augs_per_sample=1)
