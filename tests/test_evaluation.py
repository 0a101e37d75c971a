"""Downstream metrics: probes, labeling errors, connectivity, estimation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import subspace_angles

from mmspectral import (
    ClassTooSmall,
    EncoderTable,
    HierarchicalGraphSpec,
    JointDistribution,
    LabelAssignment,
    RankDeficient,
    build_hierarchical_matrix,
    decompose,
    estimate_cooccurrence,
    fit_probe,
    intra_class_connectivity,
    labeling_error,
    normalize_cooccurrence,
    normalized_uni,
    optimal_encoders,
    probe_error,
    surrogate_labeling_error,
    text_induced,
)

from oracles import labeling_error_oracle, random_joint


class TestFitProbeAndError:
    def test_one_hot_features_are_perfectly_separable(self):
        features = np.eye(3)[[0, 0, 1, 1, 2, 2]]
        labels = np.array([0, 0, 1, 1, 2, 2])
        probe = fit_probe(features, labels)
        assert probe_error(probe, features, labels) == pytest.approx(0.0, abs=1e-15)

    def test_constant_features_hit_majority_rate(self):
        features = np.ones((4, 2))
        labels = np.array([0, 0, 1, 1])
        with pytest.warns(RankDeficient):
            probe = fit_probe(features, labels)
        assert probe_error(probe, features, labels) == pytest.approx(0.5, abs=1e-12)

    def test_constant_features_unbalanced_priors(self):
        features = np.ones((4, 1))
        labels = np.array([0, 0, 0, 1])
        probe = fit_probe(features, labels)
        assert probe_error(probe, features, labels) == pytest.approx(0.25, abs=1e-12)

    def test_block_eigenvector_features_separate_blocks(self):
        block = np.full((2, 2), 0.25 / 2)
        m = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        joint = JointDistribution(m / m.sum())
        induced = text_induced(joint)
        eigvals, eigvecs = np.linalg.eigh(induced.matrix)
        feats = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
        labels = np.array([0, 0, 1, 1])
        probe = fit_probe(feats, labels, joint.marginal_visual)
        assert probe_error(probe, feats, labels, joint.marginal_visual) == pytest.approx(0.0, abs=1e-15)

    def test_invariance_to_invertible_transforms(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((10, 3))
        labels = rng.integers(0, 3, 10)
        labels[:3] = [0, 1, 2]
        weights = rng.dirichlet(np.ones(10))
        transform = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        base = probe_error(fit_probe(feats, labels, weights), feats, labels, weights)
        moved = feats @ transform
        other = probe_error(fit_probe(moved, labels, weights), moved, labels, weights)
        assert other == pytest.approx(base, abs=1e-10)

    def test_tie_breaks_to_smallest_class(self):
        probe = fit_probe(np.eye(2)[[0, 0, 1, 1]], np.array([0, 0, 1, 1]))
        pred = probe.predict(np.zeros((1, 2)))
        assert pred[0] == 0


class TestLabelingError:
    def test_class_aligned_blocks_have_zero_error(self):
        block = np.full((2, 2), 0.125)
        m = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        joint = JointDistribution(m)
        labels = LabelAssignment([0, 0, 1, 1], [0, 0, 1, 1], 2)
        assert labeling_error(joint, labels) == 0.0

    def test_off_diagonal_mass_counts(self):
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        labels = LabelAssignment([0, 1], [0, 1], 2)
        assert labeling_error(joint, labels) == pytest.approx(0.2, abs=1e-15)

    def test_single_class_never_errs(self):
        joint = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        labels = LabelAssignment([0, 0], [0, 0], 1)
        assert labeling_error(joint, labels) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = random_joint(rng, 6, 6)
        nv, nl = p.shape
        lv = rng.integers(0, 2, nv)
        lv[:2] = [0, 1]
        ll = rng.integers(0, 2, nl)
        labels = LabelAssignment(lv, ll, 2)
        assert labeling_error(JointDistribution(p), labels) == pytest.approx(
            labeling_error_oracle(p, lv, ll), abs=1e-14
        )


class TestSurrogateLabelingError:
    def test_aligned_diagonal_is_zero(self):
        induced = text_induced(JointDistribution([[0.5, 0.0], [0.0, 0.5]]))
        assert surrogate_labeling_error(induced, np.array([0, 1])) == 0.0

    def test_uniform_with_distinct_labels(self):
        induced = text_induced(JointDistribution([[0.25, 0.25], [0.25, 0.25]]))
        assert surrogate_labeling_error(induced, np.array([0, 1])) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_alpha_at_least_half_surrogate(self, seed):
        """The pair error can never be less than half the induced error."""
        rng = np.random.default_rng(seed)
        p = random_joint(rng, 8, 8)
        nv, nl = p.shape
        lv = rng.integers(0, 2, nv)
        lv[:2] = [0, 1]
        ll = rng.integers(0, 2, nl)
        joint = JointDistribution(p)
        labels = LabelAssignment(lv, ll, 2)
        alpha = labeling_error(joint, labels)
        alpha_t = surrogate_labeling_error(text_induced(joint), lv)
        assert alpha - alpha_t / 2.0 >= -1e-12


class TestEstimateCooccurrence:
    def test_one_hot_features_give_uniform_diagonal(self):
        est = estimate_cooccurrence(np.eye(3))
        np.testing.assert_allclose(est.matrix, np.eye(3) / 3.0, atol=1e-12)
        assert est.kind == "estimated"

    def test_identical_features_give_constant_mass(self):
        est = estimate_cooccurrence(np.tile([0.6, 0.8], (4, 1)))
        np.testing.assert_allclose(est.matrix, 1.0 / 16.0, atol=1e-12)

    def test_optimal_features_recover_top_subspace(self):
        # Three equal uniform blocks: optimal-feature rows all share one
        # norm, so the unit-row cosine policy is exact and the estimate's
        # top eigenspace must match the normalized uni-modal one.
        p = np.zeros((9, 9))
        for b in range(3):
            p[3 * b:3 * b + 3, 3 * b:3 * b + 3] = 1.0 / 27.0
        joint = JointDistribution(p)
        norm = normalize_cooccurrence(joint)
        fv, _ = optimal_encoders(norm, decompose(norm), 3)
        est = estimate_cooccurrence(fv.matrix)
        truth = normalized_uni(norm).matrix
        est_vals, est_vecs = np.linalg.eigh(est.matrix)
        true_vals, true_vecs = np.linalg.eigh(truth)
        top_est = est_vecs[:, np.argsort(est_vals)[::-1][:3]]
        top_true = true_vecs[:, np.argsort(true_vals)[::-1][:3]]
        assert np.max(subspace_angles(top_est, top_true)) < 1e-6

    def test_recovery_on_connected_gapped_hierarchy(self):
        # Fully connected hierarchical instance with gap sigma_4 - sigma_5
        # = 0.5; uniform marginals keep the feature rows at equal norm, so
        # the estimate's top eigenspace matches exactly.
        spec = HierarchicalGraphSpec.from_separation(4, 3, 0.5)
        induced = build_hierarchical_matrix(spec)
        assert np.all(induced.matrix > 0)
        joint = JointDistribution(induced.matrix)
        norm = normalize_cooccurrence(joint)
        fv, _ = optimal_encoders(norm, decompose(norm), 4)
        est = estimate_cooccurrence(fv.matrix)
        truth = norm.matrix
        est_vals, est_vecs = np.linalg.eigh(est.matrix)
        true_vals, true_vecs = np.linalg.eigh(truth)
        top_est = est_vecs[:, np.argsort(est_vals)[::-1][:4]]
        top_true = true_vecs[:, np.argsort(true_vals)[::-1][:4]]
        assert np.max(subspace_angles(top_est, top_true)) < 1e-6


class TestIntraClassConnectivity:
    def test_identical_features_give_unit_ratio(self):
        feats = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        beta, per_class = intra_class_connectivity(feats, labels)
        assert beta == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(per_class, 1.0, atol=1e-12)

    def test_orthogonal_classes_exceed_one(self):
        feats = np.eye(2)[[0, 0, 0, 1, 1, 1]]
        labels = np.array([0, 0, 0, 1, 1, 1])
        beta, per_class = intra_class_connectivity(feats, labels)
        assert beta > 1.0
        assert np.all(per_class > 1.0)

    def test_shuffled_labels_sit_near_one(self):
        rng = np.random.default_rng(9)
        feats = np.eye(2)[[0] * 10 + [1] * 10] + 0.01 * rng.standard_normal((20, 2))
        values = []
        for seed in range(20):
            labels = np.random.default_rng(seed).permutation([0] * 10 + [1] * 10)
            beta, _ = intra_class_connectivity(feats, labels)
            values.append(beta)
        assert abs(float(np.mean(values)) - 1.0) < 0.1

    def test_rejects_singleton_class(self):
        with pytest.raises(ClassTooSmall):
            intra_class_connectivity(np.eye(3), np.array([0, 0, 1]))


class TestEncoderTableFactor:
    def test_factor_scales_rows_by_sqrt_marginal(self):
        table = EncoderTable(np.array([[1.0, 2.0], [3.0, 4.0]]))
        factor = table.factor(np.array([0.25, 0.81]))
        np.testing.assert_allclose(factor, [[0.5, 1.0], [2.7, 3.6]], atol=1e-12)
