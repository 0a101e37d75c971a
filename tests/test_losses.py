"""Population and sampled losses: values, identities, and the batch sampler."""
import tracemalloc
from dataclasses import replace
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
    cell_oracle,
    empirical_scl_oracle,
    mc_cells_oracle,
    random_joint,
    scl_oracle,
    uni_scl_oracle,
)

DIAG_HALF = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
UNIFORM_2X2 = JointDistribution([[0.25, 0.25], [0.25, 0.25]])


def random_tables(rng, joint, k):
    nv, nl = joint.matrix.shape
    return rng.standard_normal((nv, k)), rng.standard_normal((nl, k))


def mc_batches(joint, n, count, rng):
    """The Monte-Carlo stream's batches by the oracle: each row of
    :func:`mc_cells_oracle` sliced into triples as ``sample_batch`` slices
    its permuted draws."""
    batches = []
    for cells in mc_cells_oracle(joint.matrix, n, count, rng):
        v, l = np.divmod(cells, joint.num_language)
        batches.append(Batch(pos_visual=v[0::3], pos_language=l[0::3], neg_language=l[1::3],
                             neg_language_anchor=v[0::3], neg_visual=v[2::3], neg_visual_anchor=l[0::3], n=n))
    return batches


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
        assert np.array_equal(a.neg_visual, b.neg_visual)

    def test_rejects_non_multiple_of_three(self):
        with pytest.raises(InvalidBatchSize):
            sample_batch(UNIFORM_2X2, 4, seed=0)


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
            assert got.n == n
            np.testing.assert_array_equal(got.pos_visual, v[perm[0::3]])
            np.testing.assert_array_equal(got.pos_language, l[perm[0::3]])
            np.testing.assert_array_equal(got.neg_language, l[perm[1::3]])
            np.testing.assert_array_equal(got.neg_language_anchor, v[perm[0::3]])
            np.testing.assert_array_equal(got.neg_visual, v[perm[2::3]])
            np.testing.assert_array_equal(got.neg_visual_anchor, l[perm[0::3]])
        assert rng.random() == reference.random()  # the streams stay in step

    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_chunks_continue_the_stream_of_single_draws(self, seed, count, block):
        """Blocks of ``block`` batches, so most counts span several and
        end on a partial one."""
        joint = sparse_joint(np.random.default_rng(seed))
        sampler = BatchSampler(joint, 9)
        one, many = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 4])
        singles = [sampler.draw(one) for _ in range(count)]
        with mock.patch.object(losses, "_CHUNK_ENTRIES", block * sampler.n):
            drawn = sampler.draw_chunk(many, count)
        for got, name in zip(drawn, ("pos_visual", "pos_language", "neg_language", "neg_visual")):
            assert got.shape == (count, 3) and got.dtype == np.uint8 and not got.flags.writeable
            assert got.tolist() == [getattr(batch, name).tolist() for batch in singles]
        assert one.random() == many.random()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bin_table_cells_are_the_oracle_cells(self, seed):
        """Keys at every cdf entry below 1, at both its float neighbours,
        at every bin edge and at both ends of [0, 1); zero-mass cells
        repeat cdf entries, so some bins hold several edges."""
        sampler = BatchSampler(sparse_joint(np.random.default_rng(seed)), 3)
        cdf = sampler._cdf
        edges = np.arange(sampler._bins) / sampler._bins
        keys = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                               edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        assert sampler._table_cells(keys).tolist() == cell_oracle(cdf, keys).tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_a_run_through_the_bin_table_continues_the_stream_of_single_draws(self, seed):
        """Single draws search; 1,500 batches of 6 take the table, over
        two blocks of 1,365 batches."""
        joint = sparse_joint(np.random.default_rng(seed))
        sampler = BatchSampler(joint, 6)
        one, many = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
        singles = [sampler.draw(one) for _ in range(1500)]
        assert "_bin_table" not in vars(sampler)
        drawn = sampler.draw_chunk(many, 1500)
        assert "_bin_table" in vars(sampler)
        for got, name in zip(drawn, ("pos_visual", "pos_language", "neg_language", "neg_visual")):
            assert got.tobytes() == np.array([getattr(batch, name) for batch in singles], got.dtype).tobytes()
        assert one.bit_generator.state == many.bit_generator.state

    @pytest.mark.parametrize("budget", [255, 256, 1024])
    @pytest.mark.parametrize("count", [1, 42, 43, 200])
    def test_the_bin_table_is_used_exactly_when_it_fits_and_pays(self, budget, count):
        """A 3 x 4 joint has 256 bins; a table run searches only the bin
        edges, once, and the keys of open bins, never a block of draws."""

        class SearchSpy(np.ndarray):
            def searchsorted(self, v, side="left", sorter=None):
                searched.append(np.shape(v))
                return np.asarray(self).searchsorted(v, side, sorter)

        joint = JointDistribution.from_counts(np.arange(1.0, 13.0).reshape(3, 4))
        sampler, searched = BatchSampler(joint, 6), []
        assert sampler._bins == 256
        sampler._cdf = sampler._cdf.view(SearchSpy)
        with mock.patch.object(losses, "_CHUNK_ENTRIES", budget):
            drawn = sampler.draw_chunk(np.random.default_rng(count), count)
        if budget >= 256 and count * 6 >= 256:
            assert searched[:2] == [(256,), (256,)] and all(len(shape) == 1 for shape in searched[2:])
        else:
            block = budget // 6
            assert searched == [(min(block, count - start), 6) for start in range(0, count, block)]
        with mock.patch.object(losses, "_CHUNK_ENTRIES", 255):  # one bin short: searched
            searched_run = BatchSampler(joint, 6).draw_chunk(np.random.default_rng(count), count)
        assert all(d.tobytes() == e.tobytes() for d, e in zip(drawn, searched_run))

    def test_chunks_take_the_smallest_index_dtype(self):
        for size, dtype in ((255, np.uint8), (256, np.uint16), (70000, np.uint32)):
            joint = JointDistribution.from_counts(np.arange(1.0, size + 1.0)[None, :])
            drawn = BatchSampler(joint, 6).draw_chunk(np.random.default_rng(size), 4)
            assert all(d.dtype == dtype for d in drawn)

    def test_rejects_non_multiple_of_three(self):
        with pytest.raises(InvalidBatchSize):
            BatchSampler(UNIFORM_2X2, 0)

    def test_zero_batches_draw_nothing(self):
        sampler, rng = BatchSampler(UNIFORM_2X2, 6), np.random.default_rng(3)
        assert all(d.shape == (0, 2) for d in sampler.draw_chunk(rng, 0))
        assert empirical_scl_batches(np.eye(2), np.eye(2), sampler, rng, 0).shape == (0,)
        assert rng.random() == np.random.default_rng(3).random()


class TestEmpiricalScl:
    def test_zero_encoders_give_zero(self):
        batch = sample_batch(UNIFORM_2X2, 9, seed=1)
        assert empirical_scl(np.zeros((2, 2)), np.zeros((2, 2)), batch) == 0.0

    def test_single_aligned_triple_with_orthogonal_negatives(self):
        batch = Batch(pos_visual=[0], pos_language=[0], neg_language=[1],
                      neg_language_anchor=[0], neg_visual=[1], neg_visual_anchor=[0], n=3)
        assert empirical_scl(np.eye(2), np.eye(2), batch) == pytest.approx(-2.0, abs=1e-15)

    def test_batch_lists_cannot_outgrow_the_draw(self):
        with pytest.raises(InvalidSpec):
            Batch(pos_visual=[0, 1], pos_language=[0, 1], neg_language=[1],
                  neg_language_anchor=[0], neg_visual=[1], neg_visual_anchor=[0], n=3)

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
        """Plan chunks of 7 batches, so most counts end on a partial chunk;
        each batch is the oracle's, on the Monte-Carlo stream."""
        rng = np.random.default_rng(seed)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, k)
        sampler = BatchSampler(joint, 3 * int(rng.integers(1, 12)))
        one, many = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        singles = [empirical_scl_grad(fv, fl, batch)[0] for batch in mc_batches(joint, sampler.n, count, one)]
        with mock.patch.object(losses, "_CHUNK_ENTRIES", 7 * sampler.n):
            chunked = empirical_scl_batches(fv, fl, sampler, many, count)
        assert chunked.tobytes() == np.array(singles).tobytes()
        assert one.random() == many.random()

    def test_full_size_chunks_match_single_batches(self):
        rng = np.random.default_rng(21)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, 3)
        sampler = BatchSampler(joint, 30)
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = [empirical_scl(fv, fl, batch) for batch in mc_batches(joint, 30, 2345, one)]
        assert empirical_scl_batches(fv, fl, sampler, many, 2345).tobytes() == np.array(singles).tobytes()
        assert one.random() == many.random()

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 150))
    @settings(max_examples=30, deadline=None)
    def test_monte_carlo_losses_do_not_depend_on_the_budget(self, seed, small, count):
        """Budgets of one batch, of 7 batches and the default split the
        draws, the plan chunks and the score table differently. A joint of
        at most 36 cells takes the bin table at the default budget once a
        run draws a uniform per bin; one of 600 cells never does."""
        rng = np.random.default_rng(seed)
        joint = sparse_joint(rng) if small else JointDistribution.from_counts(rng.gamma(0.5, size=(24, 25)))
        fv, fl = random_tables(rng, joint, int(rng.integers(1, 6)))
        runs, states, tables = [], [], []
        for budget in (30, 7 * 30, losses._CHUNK_ENTRIES):
            sampler, many = BatchSampler(joint, 30), np.random.default_rng([seed, 6])
            with mock.patch.object(losses, "_CHUNK_ENTRIES", budget):
                runs.append(empirical_scl_batches(fv, fl, sampler, many, count).tobytes())
            states.append(many.bit_generator.state)
            tables.append("_bin_table" in vars(sampler))
        assert len(set(runs)) == 1 and all(state == states[0] for state in states)
        assert tables[-1] == (small and count * 30 >= sampler._bins)

    @pytest.mark.parametrize("shape, zero_share, table", [
        ((16, 32), 0.0, True),   # 512 cells: the largest bin table, 8,192 bins, its flag 512
        ((16, 32), 0.4, True),
        ((5, 6), 0.5, True),     # runs of zero-mass cells: repeated cdf entries
        ((24, 25), 0.3, False),  # 600 cells: every draw searched
    ])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_monte_carlo_edges_are_the_oracle_batch_losses(self, shape, zero_share, table, seed):
        """300 batches of 30, over two draw blocks. Zero-mass joints lose
        their first and last cells and a run of six."""
        rng = np.random.default_rng(seed)
        counts = rng.gamma(0.7, size=shape) * (rng.random(shape) >= zero_share)
        if zero_share:
            counts.flat[0] = counts.flat[-1] = 0.0
            counts.flat[3:9] = 0.0
        counts.flat[int(rng.integers(9, counts.size - 1))] += 0.5
        joint = JointDistribution.from_counts(counts)
        fv, fl = random_tables(rng, joint, int(rng.integers(1, 6)))
        sampler = BatchSampler(joint, 30)
        one, many = np.random.default_rng([seed, 8]), np.random.default_rng([seed, 8])
        singles = [empirical_scl(fv, fl, batch) for batch in mc_batches(joint, 30, 300, one)]
        assert empirical_scl_batches(fv, fl, sampler, many, 300).tobytes() == np.array(singles).tobytes()
        assert one.bit_generator.state == many.bit_generator.state
        assert ("_bin_table" in vars(sampler)) == table
        if table and joint.matrix.size == 512:
            assert sampler._bins == losses._CHUNK_ENTRIES and (sampler._bin_table == 512).any()

    @pytest.mark.parametrize("k", [3, 8])
    def test_loss_only_chunks_are_sized_by_their_score_lookups(self, k):
        """One score per pair, whatever k: 273 batches of 30 draws a block."""
        rng = np.random.default_rng(k)
        joint = sparse_joint(rng)
        fv, fl = random_tables(rng, joint, k)
        shapes, losses_of = [], losses._triple_losses

        def spy(scores, *columns):
            shapes.append(scores.shape)
            return losses_of(scores, *columns)

        with mock.patch.object(losses, "_triple_losses", spy):
            empirical_scl_batches(fv, fl, BatchSampler(joint, 30), rng, 600)
        assert shapes == [(273, 30), (273, 30), (54, 30)]

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
            empirical_scl(fv, fl, sample_batch(joint, 30, seed=np.random.default_rng([33, i])))
            for i in range(2000)
        ]
        se = float(np.std(values, ddof=1)) / np.sqrt(len(values))
        assert abs(float(np.mean(values)) - population) <= 3.0 * se


class TestCellScores:
    """The table every sampled batch loss looks its scores up in."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 8),
           st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_each_cell_is_its_pair_score_bit_for_bit(self, seed, nv, nl, k, budget):
        """Budgets from below one row's entries to the whole table, so most
        tables span several row blocks; zero and scaled rows included."""
        rng = np.random.default_rng(seed)
        fv, fl = rng.standard_normal((nv, k)), rng.standard_normal((nl, k))
        fv *= rng.choice([0.0, 1e-3, 1.0, 1e3], size=(nv, 1))
        with mock.patch.object(losses, "_CHUNK_ENTRIES", budget):
            table = losses._cell_scores(fv, fl)
        v, l = np.divmod(np.arange(nv * nl), nl)
        assert table.shape == (nv, nl)
        assert table.tobytes() == losses._row_dots(fv[v], fl[l]).tobytes()

    @staticmethod
    def large_instance():
        """k = 8 tables of a 150 x 200 joint with zero cells, and the joint."""
        rng = np.random.default_rng(23)
        counts = rng.gamma(0.5, size=(150, 200))
        counts[rng.random(counts.shape) < 0.3] = 0.0
        joint = JointDistribution.from_counts(counts)
        fv, fl = random_tables(rng, joint, 8)
        return fv, fl, joint

    def test_batches_of_a_large_joint_are_the_single_batch_losses(self):
        """A budget of 4 rows' products: 38 table blocks, and the draws and
        plans span several blocks and chunks too."""
        fv, fl, joint = self.large_instance()
        sampler = BatchSampler(joint, 30)
        one, many = np.random.default_rng(7), np.random.default_rng(7)
        singles = [empirical_scl(fv, fl, batch) for batch in mc_batches(joint, 30, 300, one)]
        with mock.patch.object(losses, "_CHUNK_ENTRIES", 4 * fl.size):
            chunked = empirical_scl_batches(fv, fl, sampler, many, 300)
        assert chunked.tobytes() == np.array(singles).tobytes()
        assert one.random() == many.random()

    def test_no_product_of_every_cell_is_allocated(self):
        """The table is built a block at a time: a run peaks below half the
        bytes of one (150, 200, 8) product."""
        fv, fl, joint = self.large_instance()
        sampler = BatchSampler(joint, 30)
        tracemalloc.start()
        try:
            empirical_scl_batches(fv, fl, sampler, np.random.default_rng(3), 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fv.shape[0] * fl.size * 8 / 2


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
