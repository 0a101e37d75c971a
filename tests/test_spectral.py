"""SVD of normalized co-occurrence, closed-form optima, and bound terms."""
import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from mmspectral import (
    DegenerateGap,
    EncoderTable,
    HierarchicalGraphSpec,
    InvalidSpec,
    JointDistribution,
    LabelAssignment,
    SpectralGapZero,
    amf_loss,
    build_hierarchical_matrix,
    bound_report,
    decompose,
    fit_probe,
    hierarchical_eigenvalues,
    normalize_cooccurrence,
    normalized_uni,
    optimal_encoders,
    scl_loss,
)

from oracles import random_joint

TILTED = JointDistribution([[0.4, 0.1], [0.1, 0.4]])


class TestDecompose:
    def test_identity_has_unit_spectrum(self):
        norm = normalize_cooccurrence(JointDistribution([[0.5, 0.0], [0.0, 0.5]]))
        dec = decompose(norm)
        np.testing.assert_allclose(dec.singular_values, [1.0, 1.0], atol=1e-12)

    def test_tilted_two_by_two_by_hand(self):
        """Symmetric [[.8,.2],[.2,.8]] has eigenvalues .8 +- .2."""
        dec = decompose(normalize_cooccurrence(TILTED))
        np.testing.assert_allclose(dec.singular_values, [1.0, 0.6], atol=1e-12)

    def test_rank_one_second_value_vanishes(self):
        joint = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
        dec = decompose(normalize_cooccurrence(joint))
        assert dec.singular_values[1] <= 1e-10

    def test_orthonormal_factors_and_reconstruction(self):
        rng = np.random.default_rng(3)
        norm = normalize_cooccurrence(JointDistribution(random_joint(rng, 9, 7)))
        dec = decompose(norm)
        k = dec.singular_values.size
        np.testing.assert_allclose(dec.left.T @ dec.left, np.eye(k), atol=1e-9)
        np.testing.assert_allclose(dec.right.T @ dec.right, np.eye(k), atol=1e-9)
        recon = dec.left @ np.diag(dec.singular_values) @ dec.right.T
        assert np.linalg.norm(recon - norm.matrix) < 1e-9

    def test_left_factor_spans_top_eigenvectors_of_the_square(self):
        rng = np.random.default_rng(11)
        norm = normalize_cooccurrence(JointDistribution(random_joint(rng, 10, 8)))
        dec = decompose(norm)
        square = normalized_uni(norm).matrix
        eigvals, eigvecs = np.linalg.eigh(square)
        k = 3
        top = eigvecs[:, np.argsort(eigvals)[::-1][:k]]
        angles = subspace_angles(dec.left[:, :k], top)
        assert np.max(angles) < 1e-8


def closed_form(joint, k):
    norm = normalize_cooccurrence(joint)
    return optimal_encoders(norm, decompose(norm), k)


class TestOptimalEncoders:
    def test_diag_full_rank_reaches_minus_two(self):
        joint = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        fv, fl = closed_form(joint, 2)
        assert scl_loss(fv, fl, joint) == pytest.approx(-2.0, abs=1e-10)

    def test_full_rank_factorization_is_exact(self):
        rng = np.random.default_rng(7)
        joint = JointDistribution(random_joint(rng, 6, 5))
        norm = normalize_cooccurrence(joint)
        dec = decompose(norm)
        fv, fl = optimal_encoders(norm, dec, dec.rank_bound)
        residual = amf_loss(fv.factor(norm.marginal_visual),
                            fl.factor(norm.marginal_language), norm)
        assert residual <= 1e-10

    def test_loss_hits_negative_sum_of_squares(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            joint = JointDistribution(random_joint(rng, 40, 60))
            norm = normalize_cooccurrence(joint)
            dec = decompose(norm)
            k = int(rng.integers(1, min(4, dec.singular_values.size) + 1))
            fv, fl = optimal_encoders(norm, dec, k)
            expected = -float(np.sum(dec.singular_values[:k] ** 2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGap)
                assert scl_loss(fv, fl, joint) == pytest.approx(expected, abs=1e-8)

    def test_scaling_and_rotation_leave_probe_predictions_alone(self):
        """Every member U_k D R, V_k Sigma_k D^-1 R of the optimal family
        gives the same loss and the same probe predictions."""
        rng = np.random.default_rng(19)
        joint = JointDistribution(random_joint(rng, 8, 8))
        nv = joint.matrix.shape[0]
        labels = rng.integers(0, 2, nv)
        labels[:2] = [0, 1]
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        d = np.diag([2.0, 0.3])
        fv, fl = closed_form(joint, 2)
        fancy_v = EncoderTable(fv.matrix @ (d @ q), side="visual")
        fancy_l = EncoderTable(fl.matrix @ (np.linalg.inv(d) @ q), side="language")
        assert abs(scl_loss(fancy_v, fancy_l, joint) - scl_loss(fv, fl, joint)) <= 1e-12
        pv = joint.marginal_visual
        pred_base = fit_probe(fv.matrix, labels, pv).predict(fv.matrix)
        pred_fancy = fit_probe(fancy_v.matrix, labels, pv).predict(fancy_v.matrix)
        np.testing.assert_array_equal(pred_base, pred_fancy)

    def test_rejects_rank_exceeding_dimension(self):
        """k = 2, the rank bound, has no interior gap to be degenerate, so
        it passes without a warning though sigma_1 = sigma_2."""
        joint = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        fv, fl = closed_form(joint, 2)
        assert fv.dim == fl.dim == 2
        with pytest.raises(InvalidSpec, match="k=3 exceeds the rank bound 2"):
            closed_form(joint, 3)
        with pytest.raises(InvalidSpec, match="must be >= 1"):
            closed_form(joint, 0)

    def test_rejects_decomposition_of_another_matrix(self):
        rng = np.random.default_rng(5)
        small, large = (normalize_cooccurrence(JointDistribution(raw / raw.sum()))
                        for raw in (rng.uniform(0.5, 1.0, (5, 4)), rng.uniform(0.5, 1.0, (6, 4))))
        with pytest.raises(InvalidSpec, match=r"rows \(5, 4\) do not match the normalized joint \(6, 4\)"):
            optimal_encoders(large, decompose(small), 2)


class TestHierarchicalEigenvalues:
    def test_explicit_4x4_spectrum(self):
        spec = HierarchicalGraphSpec(2, 2, p_l=0.025, p_h=0.1)
        np.testing.assert_allclose(
            hierarchical_eigenvalues(spec), [0.25, 0.15, 0.0, 0.0], atol=1e-12
        )

    def test_zero_separation_is_rank_one(self):
        spec = HierarchicalGraphSpec.from_separation(3, 2, 0.0)
        eig = hierarchical_eigenvalues(spec)
        np.testing.assert_allclose(eig, [1 / 6, 0, 0, 0, 0, 0], atol=1e-12)

    def test_trivial_second_layer(self):
        spec = HierarchicalGraphSpec.from_separation(3, 1, 0.4)
        eig = hierarchical_eigenvalues(spec)
        gap = spec.p_h - spec.p_l
        np.testing.assert_allclose(eig, [1 / 3, gap, gap], atol=1e-12)

    def test_matches_numeric_eigendecomposition_everywhere(self):
        for s_l in range(2, 7):
            for s_h in range(1, 7):
                for sep in (0.0, 0.25, 0.5, 0.75, 1.0):
                    spec = HierarchicalGraphSpec.from_separation(s_l, s_h, sep)
                    closed = hierarchical_eigenvalues(spec)
                    numeric = np.linalg.eigvalsh(build_hierarchical_matrix(spec).matrix)[::-1]
                    np.testing.assert_allclose(closed, numeric, atol=1e-10)

    def test_monotone_in_separation(self):
        for d_small, d_big in ((0.0, 0.3), (0.3, 0.8), (0.8, 1.0)):
            a = hierarchical_eigenvalues(HierarchicalGraphSpec.from_separation(4, 3, d_small))
            b = hierarchical_eigenvalues(HierarchicalGraphSpec.from_separation(4, 3, d_big))
            assert np.all(a <= b + 1e-12)


class TestBoundReport:
    def test_aligned_block_diagonal_has_zero_alpha(self):
        block = np.full((2, 2), 0.125)
        m = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        joint = JointDistribution(m)
        labels = LabelAssignment([0, 0, 1, 1], [0, 0, 1, 1], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = bound_report(joint, labels, k=1)
        assert rep.alpha == pytest.approx(0.0, abs=1e-15)

    def test_disconnected_blocks_flag_zero_gap(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = 0.25
        joint = JointDistribution(m)
        labels = LabelAssignment([0, 1, 2, 3], [0, 1, 2, 3], 4)
        # four isolated pairs tie every singular value at 1, so the
        # ill-defined-subspace warning fires alongside the zero-gap one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = bound_report(joint, labels, k=2)
        raised = {type(w.message) for w in caught}
        assert SpectralGapZero in raised and DegenerateGap in raised
        assert rep.gap_zero
        assert rep.dominant_term == np.inf

    def test_hierarchical_alpha_and_sigma_compose(self):
        spec = HierarchicalGraphSpec.from_separation(2, 2, 0.5)
        induced = build_hierarchical_matrix(spec)
        joint = JointDistribution(induced.matrix)
        labels = LabelAssignment([0, 0, 1, 1], [0, 0, 1, 1], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = bound_report(joint, labels, k=1)
        # alpha is the cross-block mass; sigma_2 the scaled second eigenvalue
        expected_alpha = 8 * spec.p_l
        expected_sigma = hierarchical_eigenvalues(spec)[1] * 4
        assert rep.alpha == pytest.approx(expected_alpha, abs=1e-12)
        assert rep.sigma_next == pytest.approx(expected_sigma, abs=1e-12)
        assert rep.dominant_term >= rep.alpha
