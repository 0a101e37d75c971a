"""Training loops and teacher-guided batch resampling."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmspectral import (
    AugmentationModel,
    Batch,
    DidNotConverge,
    EmptyCandidates,
    EncoderTable,
    InducedDistribution,
    InvalidSpec,
    JointDistribution,
    ResampleConfig,
    TeacherMissing,
    TrainConfig,
    amf_loss,
    apply_strategy,
    augmentation_joint,
    fit_probe,
    nearest_neighbor_positive,
    normalize_cooccurrence,
    normalized_uni,
    sample_batch,
    text_induced,
    train_mmcl,
    train_sscl,
)
from mmspectral.train import DEFAULT_RATIOS, STRATEGIES, _rewrite, _TeacherTables

TILTED = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
DIAG = JointDistribution([[0.5, 0.0], [0.0, 0.5]])


def make_batch(pos_v=(), pos_l=(), neg_l=(), neg_l_anchor=(), neg_v=(), neg_v_anchor=(), n=30):
    return Batch(
        pos_visual=np.asarray(pos_v, dtype=int),
        pos_language=np.asarray(pos_l, dtype=int),
        neg_language=np.asarray(neg_l, dtype=int),
        neg_language_anchor=np.asarray(neg_l_anchor, dtype=int),
        neg_visual=np.asarray(neg_v, dtype=int),
        neg_visual_anchor=np.asarray(neg_v_anchor, dtype=int),
        permutation=np.arange(n),
        n=n,
    )


class TestTrainConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(InvalidSpec):
            TrainConfig(dim=2, batch_mode="minibatch")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidSpec):
            TrainConfig(dim=2, learning_rate=0.0)

    def test_rejects_zero_dim(self):
        with pytest.raises(InvalidSpec):
            TrainConfig(dim=0)


class TestResampleConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidSpec):
            ResampleConfig("DropEverything")

    def test_default_ratios_filled_per_strategy(self):
        for strategy, ratio in DEFAULT_RATIOS.items():
            assert ResampleConfig(strategy).ratio == ratio

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(InvalidSpec):
            ResampleConfig("DropEasyNegative", ratio=1.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidSpec):
            ResampleConfig("AddNewPositive", mixing_weight=-0.1)


class TestTrainMMCL:
    def test_diagonal_reaches_known_optimum(self):
        """Two isolated pairs: both squared singular values are 1, so the
        best rank-2 loss is -2."""
        _, _, history = train_mmcl(DIAG, TrainConfig(dim=2, seed=0))
        assert history.converged
        assert history.final == pytest.approx(-2.0, abs=1e-4)

    def test_full_rank_residual_vanishes(self):
        fv, fl, history = train_mmcl(TILTED, TrainConfig(dim=2, seed=1))
        assert history.converged
        norm = normalize_cooccurrence(TILTED)
        resid = amf_loss(fv.factor(norm.marginal_visual), fl.factor(norm.marginal_language), norm)
        assert resid <= 1e-4

    def test_same_seed_reproduces_run(self):
        cfg = TrainConfig(dim=2, seed=6)
        fv1, fl1, h1 = train_mmcl(TILTED, cfg)
        fv2, fl2, h2 = train_mmcl(TILTED, cfg)
        np.testing.assert_array_equal(h1.losses, h2.losses)
        np.testing.assert_array_equal(fv1.matrix, fv2.matrix)
        np.testing.assert_array_equal(fl1.matrix, fl2.matrix)

    def test_history_never_increases(self):
        """Halve-on-increase step control only ever accepts improving
        steps, so the recorded trajectory is monotone."""
        _, _, history = train_mmcl(TILTED, TrainConfig(dim=2, seed=2))
        assert np.all(np.diff(history.losses) <= 0.0)
        assert len(history) == history.losses.size
        assert list(history)[-1] == history.final

    def test_dim_beyond_rank_rejected(self):
        with pytest.raises(InvalidSpec):
            train_mmcl(TILTED, TrainConfig(dim=3))

    def test_step_limit_warns(self):
        with pytest.warns(DidNotConverge):
            _, _, history = train_mmcl(TILTED, TrainConfig(dim=2, max_steps=1, seed=3))
        assert not history.converged

    def test_sampled_mode_runs_all_steps(self):
        cfg = TrainConfig(dim=2, batch_mode="sampled", batch_size=6,
                          max_steps=25, learning_rate=0.05, seed=4)
        _, _, history = train_mmcl(TILTED, cfg)
        assert len(history) == 25
        assert history.converged


class TestTrainSSCL:
    def test_resample_requires_teacher(self):
        with pytest.raises(TeacherMissing):
            train_sscl(text_induced(DIAG), cfg=TrainConfig(dim=2),
                       resample=ResampleConfig("DropEasyNegative"))

    def test_rejects_normalized_input(self):
        normalized = normalized_uni(normalize_cooccurrence(TILTED))
        with pytest.raises(InvalidSpec):
            train_sscl(normalized, cfg=TrainConfig(dim=2))

    def test_dim_beyond_rank_rejected(self):
        with pytest.raises(InvalidSpec):
            train_sscl(text_induced(DIAG), cfg=TrainConfig(dim=3))

    def test_diagonal_matches_bimodal_probe(self):
        """On two isolated pairs the text-induced graph separates the same
        classes as the bimodal joint: both encoders give a perfect probe."""
        f, history = train_sscl(text_induced(DIAG), cfg=TrainConfig(dim=2, seed=4))
        fv, _, _ = train_mmcl(DIAG, TrainConfig(dim=2, seed=5))
        assert history.converged
        assert history.final == pytest.approx(-2.0, abs=1e-4)
        labels = np.array([0, 1])
        np.testing.assert_array_equal(
            fit_probe(f.matrix, labels).predict(f.matrix),
            fit_probe(fv.matrix, labels).predict(fv.matrix),
        )

    def test_augmentation_kind_sets_side(self):
        model = AugmentationModel(np.eye(2), augs_per_sample=1)
        induced = augmentation_joint(model, np.array([0.5, 0.5]))
        f, _ = train_sscl(induced, cfg=TrainConfig(dim=2, seed=0))
        assert f.side == "augmented"

    def test_zero_weight_strategy_leaves_trajectory_alone(self):
        """AddNewPositive with mixing weight 0 appends loss terms that are
        identically zero, so the SGD run matches the unresampled one."""
        induced = text_induced(TILTED)
        cfg = TrainConfig(dim=2, batch_mode="sampled", batch_size=6,
                          max_steps=20, learning_rate=0.05, seed=7)
        base_f, base_h = train_sscl(induced, cfg=cfg)
        mixed_f, mixed_h = train_sscl(
            induced, cfg=cfg,
            resample=ResampleConfig("AddNewPositive", mixing_weight=0.0),
            teacher=EncoderTable(np.eye(2)),
        )
        np.testing.assert_array_equal(base_h.losses, mixed_h.losses)
        np.testing.assert_array_equal(base_f.matrix, mixed_f.matrix)

    def test_teacher_rows_must_match_samples(self):
        with pytest.raises(InvalidSpec):
            train_sscl(text_induced(TILTED), cfg=TrainConfig(dim=2, batch_mode="sampled", batch_size=6),
                       resample=ResampleConfig("DropEasyNegative"), teacher=EncoderTable(np.eye(3)))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pruned_sample_keeps_teacher_aligned(self, strategy):
        """Sample 2 has no mass, so batches index the four kept samples;
        the teacher must be read on that pruned axis. Dyadic masses keep
        every normalization exact, so the run equals one on a teacher and
        a matrix pruned by hand."""
        keep = [0, 1, 3, 4]
        small = np.array([[6, 3, 1, 2], [3, 8, 2, 1], [1, 2, 5, 4], [2, 1, 4, 19]]) / 64.0
        full = np.zeros((5, 5))
        full[np.ix_(keep, keep)] = small
        teacher = np.random.default_rng(3).standard_normal((5, 3))
        teacher[2] = teacher[4] * 2.0  # the dropped sample would be 4's nearest neighbor
        cfg = TrainConfig(dim=2, batch_mode="sampled", batch_size=12,
                          max_steps=40, learning_rate=0.05, seed=11)
        resample = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else 0.3)
        f, history = train_sscl(InducedDistribution(full, kind="augmentation"), cfg=cfg,
                                resample=resample, teacher=EncoderTable(teacher))
        f_ref, history_ref = train_sscl(InducedDistribution(small, kind="augmentation"), cfg=cfg,
                                        resample=resample, teacher=EncoderTable(teacher[keep]))
        assert f.num_samples == 4
        np.testing.assert_array_equal(history.losses, history_ref.losses)
        np.testing.assert_array_equal(f.matrix, f_ref.matrix)


class TestNearestNeighborPositive:
    def test_tie_breaks_to_smallest_index(self):
        teacher = EncoderTable(np.eye(6))
        assert nearest_neighbor_positive(2, [5, 3, 0, 4, 2, 1], teacher) == 0

    def test_unique_maximum_wins(self):
        rows = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]])
        assert nearest_neighbor_positive(0, [1, 2, 3], EncoderTable(rows)) == 1

    def test_anchor_alone_is_empty(self):
        with pytest.raises(EmptyCandidates):
            nearest_neighbor_positive(1, [1, 1], EncoderTable(np.eye(3)))

    def test_negative_candidate_is_invalid(self):
        """-1 would wrap to the last row and come back as a sample index."""
        with pytest.raises(InvalidSpec):
            nearest_neighbor_positive(0, [-1, 1], EncoderTable(np.eye(3)))

    def test_candidate_past_teacher_rows_is_invalid(self):
        with pytest.raises(InvalidSpec):
            nearest_neighbor_positive(0, [1, 9], EncoderTable(np.eye(3)))

    def test_anchor_outside_teacher_rows_is_invalid(self):
        for anchor in (-1, 3):
            with pytest.raises(InvalidSpec):
                nearest_neighbor_positive(anchor, [0, 1], EncoderTable(np.eye(3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((8, 3))
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        sims = unit @ unit[0]
        sims[0] = -np.inf
        assert nearest_neighbor_positive(0, np.arange(8), EncoderTable(rows)) == int(np.argmax(sims))


def tied_teacher(rng, n):
    """Random teacher whose rows repeat, so similarities tie exactly."""
    distinct = rng.standard_normal((int(rng.integers(1, n + 1)), int(rng.integers(1, 4))))
    return EncoderTable(distinct[rng.integers(0, distinct.shape[0], size=n)])


class TestTeacherTables:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_nearest_table_matches_reference(self, seed, n, tied):
        rng = np.random.default_rng(seed)
        teacher = tied_teacher(rng, n) if tied else EncoderTable(rng.standard_normal((n, 3)))
        table = _TeacherTables(teacher.matrix).nearest
        assert table.tolist() == [nearest_neighbor_positive(i, np.arange(n), teacher) for i in range(n)]

    def test_single_sample_has_no_neighbor(self):
        with pytest.raises(EmptyCandidates):
            _TeacherTables(np.ones((1, 2))).nearest

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_one_table_serves_every_batch_as_apply_strategy_would(self, seed, strategy, ratio):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        teacher = tied_teacher(rng, n)
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else ratio,
                             mixing_weight=float(rng.uniform(0.0, 2.0)))
        tables = _TeacherTables(teacher.matrix)
        for _ in range(4):
            batch = sample_batch(joint, 3 * int(rng.integers(1, 12)), seed=rng)
            got, want = _rewrite(batch, tables, cfg), apply_strategy(batch, teacher, cfg)
            for name in ("pos_visual", "pos_language", "neg_language", "neg_language_anchor",
                         "neg_visual", "neg_visual_anchor", "extra_pos_visual",
                         "extra_pos_language", "extra_pos_weight"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            if strategy == "AddNewPositive":
                assert got.extra_pos_language.tolist() == [
                    nearest_neighbor_positive(v, np.arange(n), teacher) for v in batch.pos_visual]


class TestApplyStrategy:
    ONE_HOT = EncoderTable(np.eye(8))

    @staticmethod
    def negatives_batch():
        """19 teacher-orthogonal negatives plus one (anchor 2, negative 5)
        pair the twin teacher scores at similarity 1."""
        rows = np.eye(8)
        rows[5] = rows[2]
        batch = make_batch(
            neg_l=[1, 2, 3, 4, 6, 7, 1, 2, 3, 4], neg_l_anchor=[0] * 10,
            neg_v=[1, 3, 4, 5, 6, 7, 1, 3, 4, 6], neg_v_anchor=[2] * 10,
        )
        return batch, EncoderTable(rows)

    def test_below_one_drop_is_identity(self):
        batch = make_batch(pos_v=np.arange(8), pos_l=np.arange(8), n=24)
        out = apply_strategy(batch, self.ONE_HOT, ResampleConfig("DropFalsePositive", ratio=0.1))
        assert out is batch

    def test_drop_false_positive_removes_least_similar(self):
        batch = make_batch(pos_v=[0, 1, 2, 3, 4, 5, 6, 7, 0, 1],
                           pos_l=[0, 1, 2, 3, 4, 5, 6, 7, 1, 1])
        out = apply_strategy(batch, self.ONE_HOT, ResampleConfig("DropFalsePositive", ratio=0.1))
        np.testing.assert_array_equal(out.pos_visual, [0, 1, 2, 3, 4, 5, 6, 7, 1])
        np.testing.assert_array_equal(out.pos_language, [0, 1, 2, 3, 4, 5, 6, 7, 1])
        assert out.n == batch.n
        assert out.extra_pos_visual.size == 0

    def test_drop_false_negative_removes_most_similar(self):
        batch, teacher = self.negatives_batch()
        out = apply_strategy(batch, teacher, ResampleConfig("DropFalseNegative", ratio=0.05))
        np.testing.assert_array_equal(out.neg_visual, [1, 3, 4, 6, 7, 1, 3, 4, 6])
        np.testing.assert_array_equal(out.neg_visual_anchor, [2] * 9)
        np.testing.assert_array_equal(out.neg_language, batch.neg_language)
        assert out.num_negatives == 19
        assert out.num_positives == batch.num_positives

    def test_drop_easy_negative_takes_earliest_on_ties(self):
        batch, teacher = self.negatives_batch()
        out = apply_strategy(batch, teacher, ResampleConfig("DropEasyNegative", ratio=0.05))
        np.testing.assert_array_equal(out.neg_language, [2, 3, 4, 6, 7, 1, 2, 3, 4])
        np.testing.assert_array_equal(out.neg_visual, batch.neg_visual)
        assert out.num_negatives == 19

    def test_add_new_positive_appends_teacher_neighbors(self):
        angles = np.deg2rad([0.0, 10.0, 80.0, 90.0])
        teacher = EncoderTable(np.column_stack([np.cos(angles), np.sin(angles)]))
        batch = make_batch(pos_v=[0, 3], pos_l=[1, 2], n=6)
        out = apply_strategy(batch, teacher, ResampleConfig("AddNewPositive", mixing_weight=0.25))
        np.testing.assert_array_equal(out.extra_pos_visual, [0, 3])
        np.testing.assert_array_equal(out.extra_pos_language, [1, 2])
        np.testing.assert_allclose(out.extra_pos_weight, 0.25)
        np.testing.assert_array_equal(out.pos_visual, batch.pos_visual)
        assert out.num_positives == 2

    def test_positive_past_teacher_rows_is_invalid(self):
        batch = make_batch(pos_v=[0], pos_l=[5], n=3)
        with pytest.raises(InvalidSpec):
            apply_strategy(batch, EncoderTable(np.eye(3)), ResampleConfig("DropFalsePositive", ratio=1.0))

    def test_add_new_positive_past_teacher_rows_is_invalid(self):
        batch = make_batch(pos_v=[7], pos_l=[0], n=3)
        with pytest.raises(InvalidSpec):
            apply_strategy(batch, EncoderTable(np.eye(3)), ResampleConfig("AddNewPositive"))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_batch_index_is_checked(self, strategy):
        """A negative, an anchor or an extra positive past the teacher's
        rows is rejected too, whether or not the strategy reads it."""
        fields = dict(pos_visual=[0], pos_language=[1], neg_language=[2], neg_language_anchor=[0],
                      neg_visual=[1], neg_visual_anchor=[2], extra_pos_visual=[0],
                      extra_pos_language=[1], extra_pos_weight=[1.0])
        teacher = EncoderTable(np.eye(3))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else 1.0)
        apply_strategy(Batch(permutation=np.arange(3), n=3, **fields), teacher, cfg)
        for name, value in fields.items():
            if name == "extra_pos_weight":
                continue
            bad = Batch(permutation=np.arange(3), n=3, **{**fields, name: [3]})
            with pytest.raises(InvalidSpec):
                apply_strategy(bad, teacher, cfg)

    def test_add_new_positive_on_empty_batch_is_identity(self):
        batch = make_batch(n=6)
        out = apply_strategy(batch, self.ONE_HOT, ResampleConfig("AddNewPositive"))
        assert out is batch

    @given(st.integers(0, 5000), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_drop_count_matches_floor_of_ratio(self, seed, ratio):
        rng = np.random.default_rng(seed)
        joint = JointDistribution(np.full((4, 4), 1.0 / 16.0))
        batch = sample_batch(joint, 30, seed=rng)
        teacher = EncoderTable(rng.standard_normal((4, 3)))
        for strategy in ("DropFalsePositive", "DropFalseNegative", "DropEasyNegative"):
            out = apply_strategy(batch, teacher, ResampleConfig(strategy, ratio=ratio))
            assert out.n == batch.n
            if strategy == "DropFalsePositive":
                assert out.num_positives == batch.num_positives - int(np.floor(ratio * batch.num_positives))
                assert out.num_negatives == batch.num_negatives
            else:
                assert out.num_negatives == batch.num_negatives - int(np.floor(ratio * batch.num_negatives))
                assert out.num_positives == batch.num_positives
