"""Distribution containers, marginals, normalization, and induced joints."""
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmspectral
from mmspectral import (
    DegenerateDistribution,
    InducedDistribution,
    InvalidSpec,
    JointDistribution,
    LabelAssignment,
    NormalizedCooccurrence,
    TrainConfig,
    augmentation_joint,
    bound_report,
    generate_augmentation_model,
    normalize_cooccurrence,
    normalized_uni,
    scl_grad,
    scl_loss,
    surrogate_labeling_error,
    text_induced,
    train_sscl,
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
        assert isinstance(out, NormalizedCooccurrence)

    def test_product_oracle(self):
        norm = normalize_cooccurrence(TILTED)
        out = normalized_uni(norm)
        np.testing.assert_allclose(out.matrix, [[0.68, 0.32], [0.32, 0.68]], atol=1e-12)

    def test_is_the_normalized_text_induced_cooccurrence(self):
        counts = np.random.default_rng(8).gamma(2.0, size=(5, 4))
        counts[1] = 0.0  # a pruned visual sample, so the index map is not the identity
        norm = normalize_cooccurrence(JointDistribution.from_counts(counts))
        out = normalized_uni(norm)
        assert isinstance(out, NormalizedCooccurrence)
        for marginal in (out.marginal_visual, out.marginal_language):
            assert marginal.tobytes() == norm.marginal_visual.tobytes()
        for index in (out.visual_index, out.language_index):
            assert index.tolist() == norm.visual_index.tolist() == [0, 2, 3, 4]
        with pytest.raises(InvalidSpec):
            train_sscl(out, TrainConfig(dim=1))
        with pytest.raises(InvalidSpec):
            surrogate_labeling_error(out, np.arange(out.num_visual) % 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_normalizing_the_induced_joint(self, seed):
        """Normalize-then-square equals square-then-normalize."""
        p = random_joint(np.random.default_rng(seed))
        norm = normalize_cooccurrence(JointDistribution(p))
        direct = normalized_uni(norm).matrix
        via_induced = normalize_oracle(text_induced_oracle(p))
        np.testing.assert_allclose(direct, via_induced, atol=1e-10)


class TestInducedIsAJoint:
    """An induced distribution is a symmetric JointDistribution: every
    function of a joint reads it exactly as the joint of its matrix."""

    def test_is_a_joint_with_a_kind(self):
        induced = text_induced(TILTED)
        assert isinstance(induced, JointDistribution)
        assert [f.name for f in dataclasses.fields(InducedDistribution)] == ["matrix", "kind"]
        assert not induced.matrix.flags.writeable
        counts = InducedDistribution.from_counts([[2.0, 1.0], [1.0, 4.0]], kind="estimated")
        assert counts.matrix.tolist() == [[0.25, 0.125], [0.125, 0.5]] and counts.kind == "estimated"

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_reads_as_the_joint_of_its_matrix(self, seed, text):
        rng = np.random.default_rng(seed)
        if text:
            induced = text_induced(JointDistribution(random_joint(rng)))
        else:
            nv = int(rng.integers(2, 7))
            model = generate_augmentation_model(nv, int(rng.integers(1, 4)), float(rng.uniform(0.1, 1.0)),
                                                seed=seed)
            induced = augmentation_joint(model, rng.dirichlet(np.ones(nv)))
        joint = JointDistribution(induced.matrix)
        got, want = normalize_cooccurrence(induced), normalize_cooccurrence(joint)
        for field in dataclasses.fields(got):
            assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes()
        f = rng.standard_normal((induced.num_samples, 2))
        assert repr(scl_loss(f, f, induced)) == repr(scl_loss(f, f, joint))
        loss, gv, gl = scl_grad(f, f, induced)
        loss_ref, gv_ref, gl_ref = scl_grad(f, f, joint)
        assert repr(loss) == repr(loss_ref) and gv.tobytes() == gv_ref.tobytes() and gl.tobytes() == gl_ref.tobytes()
        labels = np.arange(induced.num_samples) % 2
        assignment = LabelAssignment(labels, labels, 2)

        def report(x):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return repr(bound_report(x, assignment, 1)), [str(w.message) for w in caught]
        assert report(induced) == report(joint)

    @pytest.mark.parametrize("matrix,kind", [
        ([[0.5, np.nan], [np.nan, 0.0]], "text"),
        ([[np.inf, 0.0], [0.0, 0.5]], "text"),
        ([[0.6, -0.1], [-0.1, 0.6]], "text"),
        ([[0.5, 0.5], [0.5, 0.5]], "text"),
        ([[0.5, 0.25], [0.0, 0.25]], "text"),
        ([[0.5, 0.5]], "text"),
        ([[0.5, 0.0], [0.0, 0.5]], "caption"),
    ], ids=["nan", "inf", "negative", "mass-two", "asymmetric", "not-square", "unknown-kind"])
    def test_refuses_what_is_not_a_symmetric_joint(self, matrix, kind):
        with pytest.raises(InvalidSpec):
            InducedDistribution(matrix, kind=kind)

    def test_round_off_is_repaired(self):
        """Negative round-off clips to 0 and the mass renormalizes to 1."""
        out = InducedDistribution([[0.5 + 1e-13, -1e-16], [-1e-16, 0.5]], kind="estimated")
        assert out.matrix[0, 1] == 0.0 and out.matrix.sum() == 1.0


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

    def test_names_the_conditional_for_negative_entries(self):
        """Columns that sum to 1 around a negative entry fail on the
        conditional the caller passed, not on the joint it would give."""
        with pytest.raises(InvalidSpec, match="^conditional entries must be non-negative$"):
            augmentation_joint([[1.5, -0.2], [-0.5, 1.2]], [0.5, 0.5])

    def test_the_model_is_defined_here_and_drawn_in_synth(self):
        assert mmspectral.synth.AugmentationModel is mmspectral.AugmentationModel
        assert mmspectral.AugmentationModel is mmspectral.distributions.AugmentationModel

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
