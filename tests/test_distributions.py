"""Distribution containers, marginals, normalization, and induced joints."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmspectral import (
    DegenerateDistribution,
    InducedDistribution,
    InvalidSpec,
    JointDistribution,
    LabelAssignment,
    augmentation_joint,
    generate_augmentation_model,
    normalize_cooccurrence,
    normalized_uni,
    text_induced,
)

from oracles import (
    augmentation_joint_oracle,
    marginals_oracle,
    normalize_oracle,
    random_joint,
    text_induced_oracle,
)

UNIFORM_2X2 = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
DIAG_HALF = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
TILTED = JointDistribution([[0.4, 0.1], [0.1, 0.4]])


class TestJointDistribution:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidSpec):
            JointDistribution([[0.6, -0.1], [0.3, 0.2]])

    def test_rejects_wrong_total_mass(self):
        with pytest.raises(InvalidSpec):
            JointDistribution([[0.4, 0.4], [0.4, 0.4]])

    def test_from_counts_renormalizes(self):
        joint = JointDistribution.from_counts([[4, 1], [1, 4]])
        np.testing.assert_allclose(joint.matrix, TILTED.matrix, atol=1e-15)

    def test_matrix_is_immutable(self):
        with pytest.raises(ValueError):
            UNIFORM_2X2.matrix[0, 0] = 1.0


class TestMarginals:
    def test_uniform(self):
        pv, pl = UNIFORM_2X2.marginal_visual, UNIFORM_2X2.marginal_language
        np.testing.assert_allclose(pv, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(pl, [0.5, 0.5], atol=1e-15)

    def test_diagonal(self):
        pv, pl = DIAG_HALF.marginal_visual, DIAG_HALF.marginal_language
        np.testing.assert_allclose(pv, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(pl, [0.5, 0.5], atol=1e-15)

    def test_tilted_matches_summation_oracle(self):
        pv, pl = TILTED.marginal_visual, TILTED.marginal_language
        opv, opl = marginals_oracle(TILTED.matrix)
        np.testing.assert_allclose(pv, opv, atol=1e-15)
        np.testing.assert_allclose(pl, opl, atol=1e-15)
        np.testing.assert_allclose(pv, [0.5, 0.5], atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_each_marginal_sums_to_one(self, seed):
        joint = JointDistribution(random_joint(np.random.default_rng(seed)))
        pv, pl = joint.marginal_visual, joint.marginal_language
        assert abs(pv.sum() - 1.0) < 1e-12
        assert abs(pl.sum() - 1.0) < 1e-12


class TestNormalizeCooccurrence:
    def test_uniform_gives_half_everywhere(self):
        norm = normalize_cooccurrence(UNIFORM_2X2)
        np.testing.assert_allclose(norm.matrix, 0.5, atol=1e-15)

    def test_diag_gives_identity(self):
        norm = normalize_cooccurrence(DIAG_HALF)
        np.testing.assert_allclose(norm.matrix, np.eye(2), atol=1e-15)

    def test_tilted_matches_formula_oracle(self):
        norm = normalize_cooccurrence(TILTED)
        np.testing.assert_allclose(norm.matrix, [[0.8, 0.2], [0.2, 0.8]], atol=1e-12)
        np.testing.assert_allclose(norm.matrix, normalize_oracle(TILTED.matrix), atol=1e-14)

    def test_zero_marginal_rows_are_pruned_with_index_map(self):
        joint = JointDistribution([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        norm = normalize_cooccurrence(joint)
        assert norm.matrix.shape == (2, 2)
        np.testing.assert_array_equal(norm.visual_index, [0, 1])
        np.testing.assert_array_equal(norm.language_index, [0, 2])

    def test_single_entry_mass_is_degenerate(self):
        joint = JointDistribution([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateDistribution):
            normalize_cooccurrence(joint)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_singular_values_never_exceed_one(self, seed):
        joint = JointDistribution(random_joint(np.random.default_rng(seed)))
        norm = normalize_cooccurrence(joint)
        top = np.linalg.svd(norm.matrix, compute_uv=False)[0]
        assert top <= 1.0 + 1e-9
        # positive entries everywhere means the bipartite graph is connected
        assert abs(top - 1.0) < 1e-9


class TestTextInduced:
    def test_diag_is_fixed_point(self):
        induced = text_induced(DIAG_HALF)
        np.testing.assert_allclose(induced.matrix, DIAG_HALF.matrix, atol=1e-15)
        assert induced.kind == "text"

    def test_uniform_matches_summation_oracle(self):
        induced = text_induced(UNIFORM_2X2)
        np.testing.assert_allclose(induced.matrix, 0.25, atol=1e-15)
        np.testing.assert_allclose(
            induced.matrix, text_induced_oracle(UNIFORM_2X2.matrix), atol=1e-15
        )

    def test_equivariant_under_visual_relabeling(self):
        rng = np.random.default_rng(5)
        p = random_joint(rng, 6, 6)
        perm = rng.permutation(p.shape[0])
        base = text_induced(JointDistribution(p)).matrix
        permuted = text_induced(JointDistribution(p[perm])).matrix
        np.testing.assert_allclose(permuted, base[np.ix_(perm, perm)], atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_unit_mass_and_matches_oracle(self, seed):
        p = random_joint(np.random.default_rng(seed))
        induced = text_induced(JointDistribution(p))
        assert np.array_equal(induced.matrix, induced.matrix.T)
        assert abs(induced.matrix.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(induced.matrix, text_induced_oracle(p), atol=1e-12)


class TestNormalizedUni:
    def test_identity_fixed_point(self):
        norm = normalize_cooccurrence(DIAG_HALF)
        out = normalized_uni(norm)
        np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-15)
        assert out.normalized

    def test_product_oracle(self):
        norm = normalize_cooccurrence(TILTED)
        out = normalized_uni(norm)
        np.testing.assert_allclose(out.matrix, [[0.68, 0.32], [0.32, 0.68]], atol=1e-12)

    def test_rank_one_preserved(self):
        u = np.array([0.6, 0.8])
        out = InducedDistribution(np.outer(u, u), kind="text", normalized=True)
        prod = out.matrix @ out.matrix.T
        assert np.linalg.matrix_rank(prod, tol=1e-10) == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_normalizing_the_induced_joint(self, seed):
        """Normalize-then-square equals square-then-normalize."""
        p = random_joint(np.random.default_rng(seed))
        norm = normalize_cooccurrence(JointDistribution(p))
        direct = normalized_uni(norm).matrix
        via_induced = normalize_oracle(text_induced_oracle(p))
        np.testing.assert_allclose(direct, via_induced, atol=1e-10)


class TestAugmentationJoint:
    def test_identity_conditional_gives_diagonal(self):
        pv = np.array([0.3, 0.7])
        induced = augmentation_joint(np.eye(2), pv)
        np.testing.assert_allclose(induced.matrix, np.diag(pv), atol=1e-15)
        assert induced.kind == "augmentation"

    def test_two_uniform_augmentations_per_natural(self):
        conditional = np.array([
            [0.5, 0.0],
            [0.5, 0.0],
            [0.0, 0.5],
            [0.0, 0.5],
        ])
        induced = augmentation_joint(conditional, [0.5, 0.5])
        block = np.full((2, 2), 0.125)
        expected = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        np.testing.assert_allclose(induced.matrix, expected, atol=1e-15)

    def test_rejects_bad_column_sums(self):
        with pytest.raises(InvalidSpec):
            augmentation_joint(np.array([[0.5, 0.0], [0.4, 1.0]]), [0.5, 0.5])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_and_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        model = generate_augmentation_model(4, 2, float(rng.uniform(0, 1)), seed=seed)
        pv = rng.dirichlet(np.ones(4))
        induced = augmentation_joint(model, pv)
        assert np.array_equal(induced.matrix, induced.matrix.T)
        np.testing.assert_allclose(
            induced.matrix, augmentation_joint_oracle(model.matrix, pv), atol=1e-12
        )


class TestLabelAssignment:
    def test_accepts_covering_labels(self):
        labels = LabelAssignment([0, 1, 0], [1, 0], 2)
        assert labels.num_classes == 2

    def test_rejects_visual_side_missing_a_class(self):
        with pytest.raises(InvalidSpec):
            LabelAssignment([0, 0, 0], [0, 1], 2)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(InvalidSpec):
            LabelAssignment([0, 2], [0, 1], 2)
