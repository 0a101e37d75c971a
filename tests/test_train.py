"""Training loops and teacher-guided batch resampling."""
import math
from unittest import mock

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
    LossHistory,
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
from mmspectral import BatchSampler, empirical_scl, empirical_scl_grad
from mmspectral import generate_augmentation_model
from mmspectral import train
from mmspectral.experiments import SUITES, _resample_instance
from mmspectral.losses import _CHUNK_ENTRIES, _Plan, _PlanGrads
from mmspectral.train import _LATEST_DRAWS, DEFAULT_RATIOS, STRATEGIES, _resample, _TeacherTables
from oracles import BATCH_INDEX_FIELDS, nearest_oracle, strategy_oracle

TILTED = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
DIAG = JointDistribution([[0.5, 0.0], [0.0, 0.5]])


def drawn_plan(sampler: BatchSampler, rng, count: int):
    """The plan of ``count`` batches drawn on the training stream, in one chunk."""
    (_, plan), = _Plan.chunks(sampler._draw_chunk(rng, count), 1)
    return plan


def make_batch(pos_v=(), pos_l=(), neg_l=(), neg_l_anchor=(), neg_v=(), neg_v_anchor=(), n=30):
    return Batch(
        pos_visual=np.asarray(pos_v, dtype=int),
        pos_language=np.asarray(pos_l, dtype=int),
        neg_language=np.asarray(neg_l, dtype=int),
        neg_language_anchor=np.asarray(neg_l_anchor, dtype=int),
        neg_visual=np.asarray(neg_v, dtype=int),
        neg_visual_anchor=np.asarray(neg_v_anchor, dtype=int),
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

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(InvalidSpec, match="learning rate must be finite"):
            TrainConfig(dim=2, learning_rate=rate)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
    def test_rejects_non_finite_or_zero_tolerance(self, tolerance):
        with pytest.raises(InvalidSpec, match="tolerance must be finite"):
            TrainConfig(dim=2, tolerance=tolerance)


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

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(InvalidSpec, match="mixing weight must be finite"):
            ResampleConfig("AddNewPositive", mixing_weight=weight)

    def test_zero_weight_accepted(self):
        assert ResampleConfig("AddNewPositive", mixing_weight=0.0).mixing_weight == 0.0


class TestLossHistory:
    def test_empty_losses_are_refused(self):
        """Training records at least one loss, and ``final`` reads the last."""
        with pytest.raises(InvalidSpec, match="^losses must hold at least one loss$"):
            LossHistory([], True)
        assert math.isnan(LossHistory([3.0, math.nan], False).final)  # a diverged run keeps its nan


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

    def test_resample_needs_sampled_batches(self):
        """Population descent has no batches to rewrite, so it would train
        as if no strategy were given."""
        with pytest.raises(InvalidSpec, match='need batch_mode="sampled"'):
            train_sscl(text_induced(TILTED), TrainConfig(dim=1), ResampleConfig("AddNewPositive"),
                       EncoderTable(np.eye(2)))

    @pytest.mark.parametrize("mode", ["population", "sampled"])
    def test_resample_must_be_a_resample_config(self, mode):
        cfg = TrainConfig(dim=1, batch_mode=mode, batch_size=6, max_steps=2)
        with pytest.raises(InvalidSpec, match="resample must be a ResampleConfig, got str"):
            train_sscl(text_induced(TILTED), cfg, "AddNewPositive", EncoderTable(np.eye(2)))

    @pytest.mark.parametrize("mode", ["population", "sampled"])
    def test_a_teacher_without_resample_trains_as_no_teacher(self, mode):
        cfg = TrainConfig(dim=1, batch_mode=mode, batch_size=6, max_steps=5 if mode == "sampled" else 20000)
        f, history = train_sscl(text_induced(TILTED), cfg, teacher=EncoderTable(np.eye(2)))
        f_ref, history_ref = train_sscl(text_induced(TILTED), cfg)
        assert f.matrix.tobytes() == f_ref.matrix.tobytes()
        assert history.losses.tobytes() == history_ref.losses.tobytes()

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

    def test_teacher_may_be_a_bare_array(self):
        assert nearest_neighbor_positive(0, [1, 2], np.eye(6)) == 1

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


def exact_teacher(rng, n):
    """Teacher of repeated one-hot rows, some scaled and some zero: its
    cosine similarities are exactly 0 or 1 in any arithmetic, so a
    ranking has no rounding to disagree on."""
    d = int(rng.integers(1, 4))
    rows = np.vstack([np.eye(d), np.zeros((1, d))])[rng.integers(0, d + 1, size=n)]
    return EncoderTable(rows * rng.choice([1.0, 0.5, 3.0], size=(n, 1)))


class TestTeacherTables:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_nearest_table_matches_reference(self, seed, n, tied):
        rng = np.random.default_rng(seed)
        teacher = tied_teacher(rng, n) if tied else EncoderTable(rng.standard_normal((n, 3)))
        rows = teacher.matrix.tolist()
        assert _TeacherTables(teacher.matrix).nearest.tolist() == [nearest_oracle(i, rows) for i in range(n)]

    def test_single_sample_has_no_neighbor(self):
        with pytest.raises(EmptyCandidates):
            _TeacherTables(np.ones((1, 2))).nearest

    @given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(1, 40), st.booleans(),
           st.booleans(), st.integers(1, 4000))
    @settings(max_examples=80, deadline=None)
    def test_similarity_lookup_is_the_row_product_sum(self, seed, n, k, scaled, duplicated, budget):
        """The cached table holds np.sum(rows[a] * rows[b], axis=-1) bit for
        bit, built in blocks of any size, for scaled, zero and repeated
        rows and for index arrays of any shape."""
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, k))
        if duplicated:
            features = features[rng.integers(0, max(1, n // 3), size=n)]
        if scaled:
            features *= rng.choice([0.0, 1e-3, 0.5, 3.0, 1e3], size=(n, 1))
        tables = _TeacherTables(features)
        every = np.arange(n)
        pairs = [(every[:, None], every[None, :]), (every, every[::-1])]
        for shape in ((int(rng.integers(1, 20)),), tuple(int(x) for x in rng.integers(1, 12, size=2))):
            pairs.append((rng.integers(0, n, size=shape), rng.integers(0, n, size=shape)))
        with mock.patch("mmspectral.losses._CHUNK_ENTRIES", budget):
            for a, b in pairs:
                want = np.sum(tables.rows[a] * tables.rows[b], axis=-1)
                got = tables.similarities[a, b]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_one_table_serves_every_batch_as_its_one_row_plan_would(self, seed, strategy, ratio):
        """One teacher table rewrites a plan of consecutive draws at once,
        each row as the one-row plan of that batch alone is rewritten with
        tables of its own, which gives the oracle's batch."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        teacher = exact_teacher(rng, n)
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else ratio,
                             mixing_weight=float(rng.uniform(0.0, 2.0)))
        sampler = BatchSampler(joint, 3 * int(rng.integers(1, 12)))
        count, draw_seed = int(rng.integers(1, 6)), int(rng.integers(2**32))
        single = np.random.default_rng(draw_seed)
        batches = [sampler.draw(single) for _ in range(count)]
        plan = _resample(drawn_plan(sampler, np.random.default_rng(draw_seed), count), _TeacherTables(teacher.matrix),
                         cfg)
        rows = teacher.matrix.tolist()
        for row, batch in enumerate(batches):
            want = _resample(_Plan.of_batch(batch), _TeacherTables(teacher.matrix), cfg)
            assert (plan.positives, plan.split[row], plan.negatives_end) == (
                want.positives, want.split[0], want.negatives_end)
            for name in ("visual", "language", "weight"):
                assert getattr(plan, name)[row].tobytes() == getattr(want, name)[0].tobytes()
            out, oracle = want.as_batch(), strategy_oracle(batch, rows, strategy, cfg.ratio, cfg.mixing_weight)
            for name in BATCH_INDEX_FIELDS:
                assert getattr(out, name).tolist() == oracle[name], name
            assert out.extra_pos_weight.tolist() == oracle["extra_pos_weight"]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_every_batch_is_a_plan_row(self, seed, strategy, ratio):
        """Drawn and rewritten batches carry the plan's n and come back
        from their one-row plan unchanged, extra positives included."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        teacher = tied_teacher(rng, n)
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else ratio)
        sampler = BatchSampler(joint, 3 * int(rng.integers(1, 12)))
        drawn = sampler.draw(rng)
        rewritten = apply_strategy(drawn, teacher, cfg)
        if strategy == "AddNewPositive":
            assert rewritten.extra_pos_visual.tolist() == drawn.pos_visual.tolist()
        for batch in (drawn, rewritten):
            again = _Plan.of_batch(batch).as_batch()
            assert batch.n == again.n == sampler.n
            for name in BATCH_INDEX_FIELDS + ("extra_pos_weight",):
                got, want = getattr(again, name), getattr(batch, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestStrategyOracle:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_apply_strategy_matches_oracle(self, seed, strategy, ratio, rewritten):
        """On one-hot teachers, apply_strategy gives the plain-Python
        oracle's lists, also on a batch an earlier strategy left uneven."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        teacher = exact_teacher(rng, n)
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        batch = sample_batch(joint, 3 * int(rng.integers(1, 12)), seed=rng)
        if rewritten:
            batch = apply_strategy(batch, teacher, ResampleConfig(
                STRATEGIES[int(rng.integers(4))], ratio=float(rng.uniform()), mixing_weight=0.5))
        weight = float(rng.uniform(0.0, 2.0))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else ratio,
                             mixing_weight=weight)
        out = apply_strategy(batch, teacher, cfg)
        want = strategy_oracle(batch, teacher.matrix.tolist(), strategy, cfg.ratio, weight)
        for name in BATCH_INDEX_FIELDS:
            assert getattr(out, name).dtype.kind == "i"
            assert getattr(out, name).tolist() == want[name], name
        assert out.extra_pos_weight.tolist() == want["extra_pos_weight"]
        assert out.n == batch.n

    def test_oracle_ties_keep_the_earliest(self):
        """Four positives at similarity 0 (two) and 1 (two): dropping half
        removes the two dissimilar ones, and DropFalseNegative on pooled
        negatives removes the earliest similar ones first."""
        teacher = EncoderTable(np.eye(3)[[0, 0, 1, 1]])
        batch = make_batch(pos_v=[0, 0, 2, 2], pos_l=[1, 2, 3, 0],
                           neg_l=[1, 2], neg_l_anchor=[0, 0], neg_v=[3, 1], neg_v_anchor=[2, 2], n=12)
        rows = teacher.matrix.tolist()
        for strategy, ratio, field, kept in (
                ("DropFalsePositive", 0.5, "pos_language", [1, 3]),
                ("DropFalseNegative", 0.5, "neg_language", [2]),
                ("DropEasyNegative", 0.5, "neg_visual", [3])):
            want = strategy_oracle(batch, rows, strategy, ratio, 1.0)
            assert want[field] == kept
            out = apply_strategy(batch, teacher, ResampleConfig(strategy, ratio=ratio))
            assert getattr(out, field).tolist() == kept


def sgd_reference(joint, cfg, tables, resample=None, teacher=None):
    """Sampled training as a loop over single batches: draw, rewrite as the
    batch's one-row plan with teacher tables of its own, step along
    empirical_scl_grad. Returns (feature matrices, per-step losses)."""
    norm = normalize_cooccurrence(joint)
    k = cfg.dim
    rng = np.random.default_rng(cfg.seed)
    init = [rng.standard_normal((n, k)) / np.sqrt(k) for n in norm.matrix.shape[:tables]]
    marginals = (norm.marginal_visual, norm.marginal_language)[:tables]
    factors = [f / np.sqrt(m)[:, None] for f, m in zip(init, marginals)]
    pruned = JointDistribution.from_counts(joint.matrix[np.ix_(norm.visual_index, norm.language_index)])
    sampler = BatchSampler(pruned, cfg.batch_size)
    batch_rng = np.random.default_rng(rng.integers(2**63))
    if resample is not None:
        rows = teacher.matrix[norm.visual_index]
    losses = []
    for _ in range(cfg.max_steps):
        batch = sampler.draw(batch_rng)
        if resample is not None:
            batch = _resample(_Plan.of_batch(batch), _TeacherTables(rows), resample).as_batch()
        loss, gv, gl = empirical_scl_grad(factors[0], factors[-1], batch)
        grads = [gv, gl] if tables == 2 else [gv + gl]
        factors = [f - cfg.learning_rate * g for f, g in zip(factors, grads)]
        losses.append(loss)
    return factors, np.array(losses)


def augmentation_instance(rng):
    nv = int(rng.integers(6, 10))
    model = generate_augmentation_model(nv, 2, 0.2, seed=int(rng.integers(2**32)))
    induced = augmentation_joint(model, np.full(nv, 1.0 / nv))
    return induced, tied_teacher(rng, induced.num_samples)


def sampled_config(rng, chunks=2, **changes):
    """A sampled run of more than ``chunks - 1`` plan chunks."""
    triples, k = int(rng.integers(15, 41)), int(rng.integers(2, 4))
    chunk = max(1, _CHUNK_ENTRIES // (3 * triples * k))
    steps = (chunks - 1) * chunk + int(rng.integers(1, chunk + 1))
    fields = dict(dim=k, learning_rate=0.005, max_steps=steps, batch_mode="sampled",
                  batch_size=3 * triples, seed=int(rng.integers(2**32)))
    return TrainConfig(**{**fields, **changes})


class TestSampledTrainingPlan:
    """Sampled training draws, rewrites and steps a plan chunk at a time;
    it must equal the loop over single batches bit for bit."""

    @pytest.mark.parametrize("strategy,ratio", [(None, None), ("AddNewPositive", None)] + [
        (s, r) for s in STRATEGIES[1:] for r in (0.0, None, 1.0)])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_sscl_equals_single_batch_loop(self, strategy, ratio, seed):
        rng = np.random.default_rng(seed)
        induced, teacher = augmentation_instance(rng)
        cfg = sampled_config(rng, chunks=3)
        resample = None if strategy is None else ResampleConfig(
            strategy, ratio=ratio, mixing_weight=float(rng.uniform(0.0, 2.0)))
        f, history = train_sscl(induced, cfg, resample, teacher)
        (f_ref,), losses = sgd_reference(JointDistribution(induced.matrix), cfg, 1, resample, teacher)
        assert history.losses.tobytes() == losses.tobytes()
        assert f.matrix.tobytes() == f_ref.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mmcl_equals_single_batch_loop(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.gamma(1.0, size=(int(rng.integers(4, 8)), int(rng.integers(4, 8))))
        counts[0] *= rng.integers(0, 2)  # sometimes a row to prune
        joint = JointDistribution.from_counts(counts)
        cfg = sampled_config(rng, chunks=3, dim=2)
        fv, fl, history = train_mmcl(joint, cfg)
        (fv_ref, fl_ref), losses = sgd_reference(joint, cfg, 2)
        assert history.losses.tobytes() == losses.tobytes()
        assert fv.matrix.tobytes() == fv_ref.tobytes() and fl.matrix.tobytes() == fl_ref.tobytes()

    def test_runs_share_draws_only_when_they_draw_alike(self):
        """Each variant runs right after the base run, whose draws a memo
        keyed too loosely would hand it: another seed, more steps, another
        batch size, another joint of the same shape. Repeated base runs
        are identical."""
        rng = np.random.default_rng(12)
        induced, teacher = augmentation_instance(rng)
        other, _ = augmentation_instance(np.random.default_rng(13))
        while other.matrix.shape != induced.matrix.shape:
            other, _ = augmentation_instance(rng)
        base = sampled_config(rng)
        variants = [(induced, TrainConfig(**{**vars(base), "seed": base.seed + 1})),
                    (induced, TrainConfig(**{**vars(base), "max_steps": 3 * base.max_steps})),
                    (induced, TrainConfig(**{**vars(base), "batch_size": base.batch_size + 3})),
                    (other, base)]
        resample = ResampleConfig("DropEasyNegative")
        results = []
        for joint, cfg in [run for variant in variants for run in ((induced, base), variant)] + [(induced, base)]:
            f, history = train_sscl(joint, cfg, resample, teacher)
            (f_ref,), losses = sgd_reference(JointDistribution(joint.matrix), cfg, 1, resample, teacher)
            assert history.losses.tobytes() == losses.tobytes()
            assert f.matrix.tobytes() == f_ref.tobytes()
            results.append((f.matrix.tobytes(), history.losses.tobytes()))
            assert not any(draws.flags.writeable for draws in _LATEST_DRAWS.values())
        assert len(set(results[::2])) == 1
        assert len(set(results)) == 1 + len(variants)

    def test_only_the_scatter_indices_outgrow_the_chunk_budget(self):
        """A resample-compare chunk (batch 120, k = 5) holds 13 steps. Its
        scatter indices, ``_PlanGrads.flat``, take 2k entries per scored
        pair and are exempt from the budget; every other array of the
        chunk stays within it, for the baseline and each strategy."""
        params = SUITES["resample-compare"].defaults
        induced, _, teacher, cfg = _resample_instance(params, 0)
        norm = normalize_cooccurrence(induced)
        pruned = JointDistribution.from_counts(induced.matrix[np.ix_(norm.visual_index, norm.language_index)])
        draws = BatchSampler(pruned, cfg.batch_size)._draw_chunk(np.random.default_rng(0), cfg.max_steps)
        steps, plan = next(_Plan.chunks(draws, cfg.dim))
        tables = _TeacherTables(teacher.matrix[norm.visual_index])
        flat = {}
        for name in ("baseline",) + STRATEGIES:
            chunk = plan if name == "baseline" else _resample(
                plan, tables, ResampleConfig(name, mixing_weight=params["mixing_weight"]))
            grads = _PlanGrads(chunk, cfg.dim, *norm.matrix.shape, shared=True)
            arrays = [d[steps] for d in draws] + [a for a in chunk if isinstance(a, np.ndarray)]
            arrays += [a for key, a in vars(grads).items() if isinstance(a, np.ndarray) and key != "flat"]
            assert max(a.size for a in arrays) <= _CHUNK_ENTRIES, name
            flat[name] = grads.flat.size
        assert plan.visual.shape == (13, 120)
        assert flat == {"baseline": 15600, "AddNewPositive": 20800, "DropFalsePositive": 15080,
                        "DropFalseNegative": 15080, "DropEasyNegative": 14560}


def plan_row_batch(plan, row):
    """Batch ``row`` of a plan, built from its one-row plan."""
    return plan._replace(visual=plan.visual[row:row + 1], language=plan.language[row:row + 1],
                         weight=plan.weight[row:row + 1], split=plan.split[row:row + 1]).as_batch()


class TestStackedSteps:
    """A plan chunk steps on one stacked table and scores its losses once
    per caption/image split; every row must equal empirical_scl and
    empirical_scl_grad on its single batch, bit for bit."""

    @pytest.mark.parametrize("shared", [False, True], ids=["two-tables", "shared"])
    @pytest.mark.parametrize("strategy,ratio", [
        (None, None), ("AddNewPositive", None), ("DropEasyNegative", 0.5), ("DropEasyNegative", 1.0),
        ("DropFalseNegative", 0.5), ("DropFalseNegative", 1.0)])
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_chunk_rows_equal_single_batches(self, shared, strategy, ratio, seed, k):
        rng = np.random.default_rng(seed)
        nv = int(rng.integers(2, 7))
        nl = nv if shared else nv + int(rng.integers(1, 4))  # the teacher's rows cover both sides
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(nv, nl)))
        sampler = BatchSampler(joint, 3 * int(rng.integers(2, 12)))
        plan = drawn_plan(sampler, rng, int(rng.integers(1, 9)))
        if strategy is not None:
            cfg = ResampleConfig(strategy, ratio=ratio, mixing_weight=float(rng.uniform(0.0, 2.0)))
            plan = _resample(plan, _TeacherTables(rng.standard_normal((nl, 2))), cfg)
        if strategy == "AddNewPositive":  # a weight per extra positive, not one per run
            plan = plan._replace(weight=rng.uniform(0.0, 2.0, size=plan.weight.shape))
        fv = rng.standard_normal((nv, k))
        fl = fv if shared else rng.standard_normal((nl, k))
        table = fv.copy() if shared else np.concatenate([fv, fl])
        rate = float(rng.uniform(0.01, 0.5))
        grads = _PlanGrads(plan, k, nv, nl, shared=shared)
        rows = plan.visual.shape[0]
        want_losses = []
        for row in range(rows):
            loss, gv, gl = empirical_scl_grad(fv, fl, plan_row_batch(plan, row))
            want_losses.append(loss)
            if not shared:
                assert grads(row, table).tobytes() == np.concatenate([gv, gl]).tobytes()
            stepped = table.copy()
            grads.step(row, stepped, rate)
            want = fv - rate * (gv + gl) if shared else np.concatenate([fv - rate * gv, fl - rate * gl])
            assert stepped.tobytes() == want.tobytes()
        losses = plan.losses(grads.scores)
        assert losses.tobytes() == np.array(want_losses).tobytes()
        singles = [empirical_scl(fv, fl, plan_row_batch(plan, row)) for row in range(rows)]
        assert losses.tobytes() == np.array(singles).tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, "DropFalseNegative", "DropEasyNegative"]),
           st.floats(0.0, 1.0), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_plan_losses_group_rows_by_split(self, seed, strategy, ratio, k):
        """A plan scores each row as empirical_scl scores its batch, bit for
        bit, when the negative drops leave its rows with different splits;
        and permuting the rows with their scores permutes the losses."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        sampler = BatchSampler(joint, 3 * int(rng.integers(2, 12)))
        plan = drawn_plan(sampler, rng, int(rng.integers(1, 12)))
        if strategy is not None:
            plan = _resample(plan, _TeacherTables(rng.standard_normal((n, 2))), ResampleConfig(strategy, ratio=ratio))
        fv, fl = rng.standard_normal((n, k)), rng.standard_normal((n, k))
        scores = np.sum(fv[plan.visual] * fl[plan.language], axis=-1)
        losses = plan.losses(scores)
        rows = plan.visual.shape[0]
        singles = [empirical_scl(fv, fl, plan_row_batch(plan, row)) for row in range(rows)]
        assert losses.tobytes() == np.array(singles).tobytes()
        order = rng.permutation(rows)
        shuffled = plan._replace(visual=plan.visual[order], language=plan.language[order],
                                 weight=plan.weight[order], split=plan.split[order])
        assert shuffled.losses(scores[order]).tobytes() == losses[order].tobytes()


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
        apply_strategy(Batch(n=3, **fields), teacher, cfg)
        for name, value in fields.items():
            if name == "extra_pos_weight":
                continue
            bad = Batch(n=3, **{**fields, name: [3]})
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
