"""Population and sampled losses: values, identities, and the batch sampler."""
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmspectral import (
    Batch,
    BatchSampler,
    EncoderTable,
    InvalidBatchSize,
    InvalidSpec,
    JointDistribution,
    amf_loss,
    empirical_scl,
    empirical_scl_batches,
    empirical_scl_grad,
    equivalence_constant,
    normalize_cooccurrence,
    sample_batch,
    scl_grad,
    scl_loss,
    text_induced,
)

from mmspectral import losses
from oracles import (
    amf_oracle,
    empirical_scl_oracle,
    random_joint,
    scl_oracle,
    uni_scl_oracle,
)

DIAG_HALF = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
UNIFORM_2X2 = JointDistribution([[0.25, 0.25], [0.25, 0.25]])


def random_tables(rng, joint, k):
    nv, nl = joint.matrix.shape
    return rng.standard_normal((nv, k)), rng.standard_normal((nl, k))


class TestSclLoss:
    def test_zero_encoders_give_zero(self):
        fv, fl = np.zeros((2, 2)), np.zeros((2, 2))
        assert scl_loss(fv, fl, UNIFORM_2X2) == 0.0

    def test_reciprocal_scaling_invariance(self):
        rng = np.random.default_rng(2)
        joint = JointDistribution(random_joint(rng, 5, 7))
        fv, fl = random_tables(rng, joint, 3)
        base = scl_loss(fv, fl, joint)
        assert scl_loss(4.0 * fv, fl / 4.0, joint) == pytest.approx(base, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        joint = JointDistribution(random_joint(rng, 6, 6))
        fv, fl = random_tables(rng, joint, 2)
        assert scl_loss(fv, fl, joint) == pytest.approx(scl_oracle(fv, fl, joint.matrix), rel=1e-10)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_gradient_value_is_the_loss(self, seed, shared):
        rng = np.random.default_rng(seed)
        joint = JointDistribution(random_joint(rng, 6, 6))
        if shared:
            joint = JointDistribution(text_induced(joint).matrix)
        fv, fl = random_tables(rng, joint, 2)
        if shared:
            fl = fv
        assert repr(scl_grad(fv, fl, joint)[0]) == repr(scl_loss(fv, fl, joint))


class TestAmfLossAndConstant:
    def test_exact_factorization_residual_zero(self):
        norm = normalize_cooccurrence(DIAG_HALF)
        assert amf_loss(np.eye(2), np.eye(2), norm) == pytest.approx(0.0, abs=1e-15)

    def test_zero_factors_leave_full_norm(self):
        norm = normalize_cooccurrence(UNIFORM_2X2)
        assert amf_loss(np.zeros((2, 1)), np.zeros((2, 1)), norm) == pytest.approx(
            equivalence_constant(norm), abs=1e-15
        )

    def test_identity_with_first_axis_factors(self):
        factor = np.array([[1.0], [0.0]])
        assert amf_loss(factor, factor, np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_constant_is_one(self):
        assert equivalence_constant(normalize_cooccurrence(UNIFORM_2X2)) == pytest.approx(1.0, abs=1e-12)

    def test_diag_constant_is_two(self):
        assert equivalence_constant(normalize_cooccurrence(DIAG_HALF)) == pytest.approx(2.0, abs=1e-12)

    def test_constant_equals_sum_of_squared_singular_values(self):
        rng = np.random.default_rng(8)
        norm = normalize_cooccurrence(JointDistribution(random_joint(rng, 7, 9)))
        sigma = np.linalg.svd(norm.matrix, compute_uv=False)
        assert equivalence_constant(norm) == pytest.approx(float(np.sum(sigma**2)), abs=1e-10)


class TestEquivalenceIdentity:
    """amf residual - contrastive loss - squared norm of the target is 0."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_holds_for_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        joint = JointDistribution(random_joint(rng, 10, 10))
        norm = normalize_cooccurrence(joint)
        k = int(rng.integers(1, 5))
        fv, fl = random_tables(rng, joint, k)
        factor_v = EncoderTable(fv).factor(norm.marginal_visual)
        factor_l = EncoderTable(fl, side="language").factor(norm.marginal_language)
        lhs = amf_loss(factor_v, factor_l, norm)
        rhs = scl_loss(fv, fl, joint) + equivalence_constant(norm)
        assert abs(lhs - rhs) / (1.0 + abs(rhs)) < 1e-12

    def test_oracle_agreement_on_one_instance(self):
        rng = np.random.default_rng(123)
        joint = JointDistribution(random_joint(rng, 5, 4))
        norm = normalize_cooccurrence(joint)
        fv, fl = random_tables(rng, joint, 2)
        factor_v = fv * np.sqrt(norm.marginal_visual)[:, None]
        factor_l = fl * np.sqrt(norm.marginal_language)[:, None]
        assert amf_oracle(factor_v, factor_l, norm.matrix) == pytest.approx(
            scl_oracle(fv, fl, joint.matrix) + equivalence_constant(norm), rel=1e-10
        )


def uni_loss(f, induced):
    """The uni-modal spectral loss: one table on both sides of the induced
    joint."""
    return scl_loss(f, f, JointDistribution(induced.matrix))


def text_induced_with_zero_row(rng, zero_row: bool):
    """A text-induced graph of a random joint; with ``zero_row`` one visual
    sample carries no mass, so the induced matrix has a zero row and column."""
    raw = random_joint(rng, 6, 6)
    if zero_row:
        raw[int(rng.integers(0, raw.shape[0]))] = 0.0
    return text_induced(JointDistribution.from_counts(raw))


class TestUniSclLoss:
    """The uni-modal loss is the bimodal loss with a shared table."""

    def test_zero_encoder_gives_zero(self):
        induced = text_induced(UNIFORM_2X2)
        assert uni_loss(np.zeros((2, 2)), induced) == 0.0

    def test_text_induced_diag_with_identity_features(self):
        induced = text_induced(DIAG_HALF)
        assert uni_loss(np.eye(2), induced) == pytest.approx(-1.5, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed, zero_row):
        rng = np.random.default_rng(seed)
        induced = text_induced_with_zero_row(rng, zero_row)
        f = rng.standard_normal((induced.matrix.shape[0], 2))
        expected = uni_scl_oracle(f, induced.matrix, induced.marginal)
        assert uni_loss(f, induced) == pytest.approx(expected, rel=1e-10)

    def test_symmetric_factorization_identity(self):
        """Loss plus squared norm of the normalized square equals the
        symmetric residual when features carry the sqrt-marginal scaling."""
        rng = np.random.default_rng(21)
        joint = JointDistribution(random_joint(rng, 6, 6))
        norm = normalize_cooccurrence(joint)
        from mmspectral import normalized_uni
        square = normalized_uni(norm)
        induced = text_induced(joint)
        f = rng.standard_normal((induced.matrix.shape[0], 3))
        factor = f * np.sqrt(induced.marginal)[:, None]
        lhs = uni_loss(f, induced) + equivalence_constant(square.matrix)
        rhs = amf_loss(factor, factor, square.matrix)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSampleBatch:
    def test_smallest_batch_has_one_of_each(self):
        batch = sample_batch(UNIFORM_2X2, 3, seed=0)
        assert batch.num_positives == 1
        assert batch.neg_language.size == 1
        assert batch.neg_visual.size == 1

    def test_identical_seeds_identical_batches(self):
        a = sample_batch(UNIFORM_2X2, 12, seed=5)
        b = sample_batch(UNIFORM_2X2, 12, seed=5)
        assert np.array_equal(a.pos_visual, b.pos_visual)
        assert np.array_equal(a.permutation, b.permutation)
        assert np.array_equal(a.neg_visual, b.neg_visual)

    def test_identity_permutation_slices_by_draw_order(self):
        """Triple j takes draws 3j-2, 3j-1, 3j (1-based): positives from
        draws 1 and 4, negative texts from 2 and 5, negative images 3 and 6."""
        joint = JointDistribution([[0.05, 0.2], [0.3, 0.45]])
        n = 6
        rng = np.random.default_rng(17)
        cells = rng.choice(4, size=n, p=joint.matrix.ravel())
        v, l = cells // 2, cells % 2
        batch = sample_batch(joint, n, seed=17, permutation=np.arange(n))
        np.testing.assert_array_equal(batch.pos_visual, v[[0, 3]])
        np.testing.assert_array_equal(batch.pos_language, l[[0, 3]])
        np.testing.assert_array_equal(batch.neg_language, l[[1, 4]])
        np.testing.assert_array_equal(batch.neg_visual, v[[2, 5]])

    def test_rejects_non_multiple_of_three(self):
        with pytest.raises(InvalidBatchSize):
            sample_batch(UNIFORM_2X2, 4, seed=0)

    def test_rejects_bogus_permutation(self):
        with pytest.raises(InvalidSpec):
            sample_batch(UNIFORM_2X2, 3, seed=0, permutation=[0, 0, 2])


def sparse_joint(rng):
    """Random joint with some zero cells, including trailing ones."""
    nv, nl = (int(x) for x in rng.integers(1, 7, size=2))
    weights = rng.gamma(0.7, size=(nv, nl)) * (rng.random((nv, nl)) < 0.7)
    weights[int(rng.integers(nv)), int(rng.integers(nl))] += 0.5
    return JointDistribution.from_counts(weights)


class TestBatchSampler:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_draws_match_generator_choice_and_sample_batch(self, seed, triples):
        """The sampler consumes what Generator.choice(p=...) and
        Generator.permutation consume, in the same order."""
        joint = sparse_joint(np.random.default_rng(seed))
        n = 3 * triples
        reference = np.random.default_rng(seed)
        cells = reference.choice(joint.matrix.size, size=n, p=joint.matrix.ravel())
        perm = reference.permutation(n)
        v, l = cells // joint.num_language, cells % joint.num_language
        rng = np.random.default_rng(seed)
        batch = BatchSampler(joint, n).draw(rng)
        wrapped = sample_batch(joint, n, seed=seed)
        for got in (batch, wrapped):
            np.testing.assert_array_equal(got.permutation, perm)
            np.testing.assert_array_equal(got.pos_visual, v[perm[0::3]])
            np.testing.assert_array_equal(got.pos_language, l[perm[0::3]])
            np.testing.assert_array_equal(got.neg_language, l[perm[1::3]])
            np.testing.assert_array_equal(got.neg_language_anchor, v[perm[0::3]])
            np.testing.assert_array_equal(got.neg_visual, v[perm[2::3]])
            np.testing.assert_array_equal(got.neg_visual_anchor, l[perm[0::3]])
        assert rng.random() == reference.random()  # the streams stay in step
        assert wrapped.seed == seed and batch.seed is None

    def test_chunks_continue_the_stream_of_single_draws(self):
        joint = sparse_joint(np.random.default_rng(8))
        sampler = BatchSampler(joint, 9)
        one, many = np.random.default_rng(4), np.random.default_rng(4)
        singles = [sampler.draw(one) for _ in range(5)]
        pos_v, pos_l, neg_l, neg_v = sampler.draw_chunk(many, 5)
        for row, batch in enumerate(singles):
            np.testing.assert_array_equal(pos_v[row], batch.pos_visual)
            np.testing.assert_array_equal(pos_l[row], batch.pos_language)
            np.testing.assert_array_equal(neg_l[row], batch.neg_language)
            np.testing.assert_array_equal(neg_v[row], batch.neg_visual)
        assert one.random() == many.random()

    def test_trusted_batches_hold_what_validation_would_store(self):
        batch = BatchSampler(UNIFORM_2X2, 12).draw(np.random.default_rng(2))
        checked = Batch(**{f.name: getattr(batch, f.name) for f in fields(Batch)})
        for f in fields(Batch):
            mine, theirs = getattr(batch, f.name), getattr(checked, f.name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            np.testing.assert_array_equal(mine, theirs)

    def test_rejects_non_multiple_of_three(self):
        with pytest.raises(InvalidBatchSize):
            BatchSampler(UNIFORM_2X2, 0)


class TestEmpiricalScl:
    def test_zero_encoders_give_zero(self):
        batch = sample_batch(UNIFORM_2X2, 9, seed=1)
        assert empirical_scl(np.zeros((2, 2)), np.zeros((2, 2)), batch) == 0.0

    def test_single_aligned_triple_with_orthogonal_negatives(self):
        batch = Batch(pos_visual=[0], pos_language=[0], neg_language=[1],
                      neg_language_anchor=[0], neg_visual=[1], neg_visual_anchor=[0],
                      permutation=np.arange(3), n=3)
        assert empirical_scl(np.eye(2), np.eye(2), batch) == pytest.approx(-2.0, abs=1e-15)

    def test_batch_lists_cannot_outgrow_the_draw(self):
        with pytest.raises(InvalidSpec):
            Batch(pos_visual=[0, 1], pos_language=[0, 1], neg_language=[1],
                  neg_language_anchor=[0], neg_visual=[1], neg_visual_anchor=[0],
                  permutation=np.arange(3), n=3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        joint = JointDistribution(random_joint(rng, 5, 5))
        fv, fl = random_tables(rng, joint, 2)
        batch = sample_batch(joint, 15, seed=seed)
        assert empirical_scl(fv, fl, batch) == pytest.approx(
            empirical_scl_oracle(fv, fl, batch), rel=1e-10
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_chunked_loss_is_bit_equal_to_the_batch_loss(self, seed, k, count):
        """Chunks of 7 batches, so most counts end on a partial chunk."""
        rng = np.random.default_rng(seed)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, k)
        sampler = BatchSampler(joint, 3 * int(rng.integers(1, 12)))
        one, many = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        singles = [empirical_scl_grad(fv, fl, sampler.draw(one))[0] for _ in range(count)]
        with mock.patch.object(losses, "_MAX_CHUNK_BATCHES", 7):
            chunked = empirical_scl_batches(fv, fl, sampler, many, count)
        assert chunked.tobytes() == np.array(singles).tobytes()
        assert one.random() == many.random()

    def test_full_size_chunks_match_single_batches(self):
        rng = np.random.default_rng(21)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, 3)
        sampler = BatchSampler(joint, 30)
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = [empirical_scl(fv, fl, sampler.draw(one)) for _ in range(2345)]
        assert empirical_scl_batches(fv, fl, sampler, many, 2345).tobytes() == np.array(singles).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_loss_only_value_is_bit_equal_to_the_gradient_value(self, seed):
        """Dropped entries and extra positives included."""
        rng = np.random.default_rng(seed)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, int(rng.integers(1, 5)))
        batch = sample_batch(joint, 3 * int(rng.integers(1, 10)), seed=rng)
        extras = int(rng.integers(0, 4))
        keep = rng.random(batch.neg_visual.size) < 0.6
        batch = replace(
            batch, neg_visual=batch.neg_visual[keep], neg_visual_anchor=batch.neg_visual_anchor[keep],
            extra_pos_visual=rng.integers(0, joint.num_visual, size=extras),
            extra_pos_language=rng.integers(0, joint.num_language, size=extras),
            extra_pos_weight=rng.uniform(0.0, 2.0, size=extras),
        )
        assert repr(empirical_scl(fv, fl, batch)) == repr(empirical_scl_grad(fv, fl, batch)[0])
        assert empirical_scl(fv, fl, batch) == pytest.approx(
            empirical_scl_oracle(fv, fl, batch), rel=1e-10, abs=1e-12)

    def test_mean_over_many_batches_approaches_population_loss(self):
        rng = np.random.default_rng(33)
        joint = JointDistribution(random_joint(rng, 4, 4))
        fv, fl = random_tables(rng, joint, 2)
        population = scl_loss(fv, fl, joint)
        values = [
            empirical_scl(fv, fl, sample_batch(joint, 30, seed=[33, i]))
            for i in range(2000)
        ]
        se = float(np.std(values, ddof=1)) / np.sqrt(len(values))
        assert abs(float(np.mean(values)) - population) <= 3.0 * se


class TestAnalyticGradients:
    @staticmethod
    def _central_difference(fn, args, index, h=1e-6):
        grads = []
        base = [np.array(a, dtype=float) for a in args]
        target = base[index]
        grad = np.zeros_like(target)
        for pos in np.ndindex(*target.shape):
            target[pos] += h
            up = fn(*base)
            target[pos] -= 2 * h
            down = fn(*base)
            target[pos] += h
            grad[pos] = (up - down) / (2 * h)
        return grad

    def test_population_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        joint = JointDistribution(random_joint(rng, 4, 5))
        fv, fl = random_tables(rng, joint, 2)
        _, gv, gl = scl_grad(fv, fl, joint)
        num_v = self._central_difference(lambda a, b: scl_loss(a, b, joint), (fv, fl), 0)
        num_l = self._central_difference(lambda a, b: scl_loss(a, b, joint), (fv, fl), 1)
        np.testing.assert_allclose(gv, num_v, atol=1e-6)
        np.testing.assert_allclose(gl, num_l, atol=1e-6)

    def test_uni_gradient_matches_finite_differences(self):
        """A shared table's gradient is the sum of both sides' gradients."""
        rng = np.random.default_rng(13)
        for zero_row in (False, True):
            induced = text_induced_with_zero_row(rng, zero_row)
            f = rng.standard_normal((induced.matrix.shape[0], 2))
            _, gv, gl = scl_grad(f, f, JointDistribution(induced.matrix))
            numeric = self._central_difference(lambda a: uni_loss(a, induced), (f,), 0)
            np.testing.assert_allclose(gv + gl, numeric, atol=1e-6)

    def test_empirical_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        joint = JointDistribution(random_joint(rng, 4, 4))
        fv, fl = random_tables(rng, joint, 2)
        batch = sample_batch(joint, 12, seed=14)
        _, gv, gl = empirical_scl_grad(fv, fl, batch)
        num_v = self._central_difference(lambda a, b: empirical_scl(a, b, batch), (fv, fl), 0)
        num_l = self._central_difference(lambda a, b: empirical_scl(a, b, batch), (fv, fl), 1)
        np.testing.assert_allclose(gv, num_v, atol=1e-6)
        np.testing.assert_allclose(gl, num_l, atol=1e-6)
