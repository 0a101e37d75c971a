"""Training loops and teacher-guided batch resampling."""
import dataclasses
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmspectral import (
    AugmentationModel,
    Batch,
    DidNotConverge,
    EmptyCandidates,
    EncoderTable,
    InducedDistribution,
    InvalidBatchSize,
    InvalidSpec,
    JointDistribution,
    LabError,
    LabelAssignment,
    LinearProbe,
    NormalizedCooccurrence,
    ResampleConfig,
    SpectralDecomposition,
    TeacherMissing,
    TrainConfig,
    amf_loss,
    apply_strategy,
    augmentation_joint,
    bound_report,
    decompose,
    equivalence_constant,
    estimate_cooccurrence,
    fit_probe,
    intra_class_connectivity,
    nearest_neighbor_positive,
    normalize_cooccurrence,
    normalized_uni,
    optimal_encoders,
    probe_error,
    sample_batch,
    scl_grad,
    scl_loss,
    surrogate_labeling_error,
    text_induced,
    train_mmcl,
    train_sscl,
)
from mmspectral import BatchSampler, empirical_scl, empirical_scl_batches, empirical_scl_grad
from mmspectral import HierarchicalGraphSpec
from mmspectral import MultiModalGenConfig, generate_augmentation_model, generate_multimodal
from mmspectral import train
from mmspectral.losses import _CHUNK_ENTRIES, _Plan, _PlanGrads
from mmspectral.train import _LATEST_DRAWS, DEFAULT_RATIOS, STRATEGIES, _resample, _TeacherTables
from oracles import BATCH_INDEX_FIELDS, strategy_oracle

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


def closed_form_k(joint, k):
    norm = normalize_cooccurrence(joint)
    return optimal_encoders(norm, decompose(norm), k)


#: calls that once raised a raw IndexError, TypeError or ValueError, or
#: truncated silently, on a count or index that is not an integer, a rate,
#: ratio or weight that is not a number, or a negative seed or count; each
#: takes an induced and a 3 x 3 joint
NUMBER_REPRODUCERS = {
    "train-dim-2.5": (lambda ind, joint: train_sscl(ind, TrainConfig(dim=2.5)), InvalidSpec),
    "dim-string": (lambda ind, joint: TrainConfig(dim="2"), InvalidSpec),
    "rate-string": (lambda ind, joint: TrainConfig(dim=2, learning_rate="0.1"), InvalidSpec),
    "tolerance-string": (lambda ind, joint: TrainConfig(dim=2, tolerance="1e-6"), InvalidSpec),
    "train-seed-negative": (lambda ind, joint: train_sscl(ind, TrainConfig(dim=2, seed=-1)), InvalidSpec),
    "seed-1.5": (lambda ind, joint: TrainConfig(dim=2, seed=1.5), InvalidSpec),
    "max-steps-3.5": (lambda ind, joint: TrainConfig(dim=2, batch_mode="sampled", max_steps=3.5), InvalidSpec),
    "batch-size-6.0": (lambda ind, joint: TrainConfig(dim=2, batch_mode="sampled", batch_size=6.0), InvalidSpec),
    "optimal-encoders-k-2.0": (lambda ind, joint: closed_form_k(joint, 2.0), InvalidSpec),
    "bound-report-k-1.5": (lambda ind, joint: bound_report(joint, LabelAssignment([0, 1, 1], [0, 1, 0], 2), 1.5),
                           InvalidSpec),
    "sample-batch-6.0": (lambda ind, joint: sample_batch(joint, 6.0), InvalidBatchSize),
    "resample-weight-string": (lambda ind, joint: ResampleConfig("AddNewPositive", mixing_weight="1"), InvalidSpec),
    "resample-ratio-string": (lambda ind, joint: ResampleConfig("DropEasyNegative", ratio="x"), InvalidSpec),
    "draw-chunk-2.5": (lambda ind, joint: BatchSampler(joint, 6).draw_chunk(np.random.default_rng(0), 2.5),
                       InvalidSpec),
    "draw-chunk-string": (lambda ind, joint: BatchSampler(joint, 6).draw_chunk(np.random.default_rng(0), "3"),
                          InvalidSpec),
    "draw-chunk-negative": (lambda ind, joint: BatchSampler(joint, 6).draw_chunk(np.random.default_rng(0), -1),
                            InvalidSpec),
    "scl-batches-2.5": (lambda ind, joint: empirical_scl_batches(np.eye(3), np.eye(3), BatchSampler(joint, 6),
                                                                 np.random.default_rng(0), 2.5), InvalidSpec),
    "label-classes-2.5": (lambda ind, joint: LabelAssignment([0, 1], [0, 1], 2.5), InvalidSpec),
    "label-classes-string": (lambda ind, joint: LabelAssignment([0, 1], [0, 1], "2"), InvalidSpec),
    "multimodal-classes-2.5": (lambda ind, joint: generate_multimodal(MultiModalGenConfig(2.5, 2, 2)), InvalidSpec),
    "multimodal-seed-1.5": (lambda ind, joint: generate_multimodal(MultiModalGenConfig(2, 2, 2, seed=1.5)),
                            InvalidSpec),
    "multimodal-alpha-string": (lambda ind, joint: MultiModalGenConfig(2, 2, 2, target_alpha="0.1"), InvalidSpec),
    "augmentation-visual-2.5": (lambda ind, joint: generate_augmentation_model(2.5, 2, 0.1), InvalidSpec),
    "augmentation-copies-2.0": (lambda ind, joint: generate_augmentation_model(2, 2.0, 0.1), InvalidSpec),
    "augmentation-seed-negative": (lambda ind, joint: generate_augmentation_model(2, 2, 0.1, seed=-1), InvalidSpec),
    "augmentation-leak-string": (lambda ind, joint: generate_augmentation_model(2, 2, "0.1"), InvalidSpec),
    "nearest-anchor-1.5": (lambda ind, joint: nearest_neighbor_positive(1.5, [0, 2], EncoderTable(np.eye(3))),
                           InvalidSpec),
    "hierarchical-branches-nan": (lambda ind, joint: HierarchicalGraphSpec(math.nan, 2, 0.5), InvalidSpec),
    "hierarchical-branches-string": (lambda ind, joint: HierarchicalGraphSpec("2", 2, 0.5), InvalidSpec),
    "hierarchical-separation-string": (lambda ind, joint: HierarchicalGraphSpec(2, 2, "0.5"), InvalidSpec),
    "hierarchical-branches-2.5": (lambda ind, joint: HierarchicalGraphSpec(2.5, 2, 0.5), InvalidSpec),
    "augmentation-model-copies-string": (lambda ind, joint: AugmentationModel(np.full((4, 2), 0.25), "2"),
                                         InvalidSpec),
    "bound-report-k-true": (lambda ind, joint: bound_report(joint, LabelAssignment([0, 1, 1], [0, 1, 0], 2), True),
                            InvalidSpec),
    "nearest-anchor-true": (lambda ind, joint: nearest_neighbor_positive(True, [0, 2], EncoderTable(np.eye(3))),
                            InvalidSpec),
    "nearest-candidates-fractions": (
        lambda ind, joint: nearest_neighbor_positive(0, [1.5, 2.7], EncoderTable(np.eye(3))), InvalidSpec),
    "nearest-candidates-nan": (
        lambda ind, joint: nearest_neighbor_positive(0, [math.nan, 1], EncoderTable(np.eye(3))), InvalidSpec),
    "multimodal-concentration-inf": (
        lambda ind, joint: generate_multimodal(MultiModalGenConfig(2, 2, 2, concentration=math.inf)), InvalidSpec),
    "dim-true": (lambda ind, joint: TrainConfig(dim=True), InvalidSpec),
    "label-classes-true": (lambda ind, joint: LabelAssignment([0], [0], True), InvalidSpec),
    "batch-size-field-6.0": (lambda ind, joint: Batch([], [], [], [], [], [], n=6.0), InvalidBatchSize),
    "batch-indices-fractions": (lambda ind, joint: Batch([0.7, 1.9], [1.2, 0.5], [], [], [], [], n=6), InvalidSpec),
    "label-bools": (lambda ind, joint: LabelAssignment(np.array([False, True]), [0, 1], 2), InvalidSpec),
    "joint-strings": (lambda ind, joint: JointDistribution([["0.25"] * 2] * 2), InvalidSpec),
    "counts-strings": (lambda ind, joint: JointDistribution.from_counts([["1"] * 2] * 2), InvalidSpec),
    "encoder-bools": (lambda ind, joint: EncoderTable([[True, False]]), InvalidSpec),
    "augmentation-model-strings": (lambda ind, joint: AugmentationModel([["1"]], 1), InvalidSpec),
    "probe-strings": (lambda ind, joint: LinearProbe([["1"]]), InvalidSpec),
    "probe-weights-strings": (lambda ind, joint: fit_probe(np.eye(3), [0, 1, 1], ["1", "1", "1"]), InvalidSpec),
    "probe-weights-bools": (lambda ind, joint: fit_probe(np.eye(3), [0, 1, 1], [True] * 3), InvalidSpec),
    "factor-strings": (lambda ind, joint: EncoderTable(np.eye(2)).factor(["0.5", "0.5"]), InvalidSpec),
    "augmentation-marginal-strings": (lambda ind, joint: augmentation_joint(np.eye(2), ["0.5", "0.5"]), InvalidSpec),
    "extra-weight-nan": (lambda ind, joint: Batch([], [], [], [], [], [], n=3, extra_pos_visual=[0],
                                                  extra_pos_language=[0], extra_pos_weight=[math.nan]), InvalidSpec),
    "extra-weight-inf": (lambda ind, joint: Batch([], [], [], [], [], [], n=3, extra_pos_visual=[0],
                                                  extra_pos_language=[0], extra_pos_weight=[math.inf]), InvalidSpec),
    "singular-values-nan": (lambda ind, joint: SpectralDecomposition([[1.0]], [math.nan], [[1.0]]), InvalidSpec),
    "scl-loss-nan-features": (lambda ind, joint: scl_loss(np.full((3, 2), math.nan), np.ones((3, 2)), joint),
                              InvalidSpec),
    "empirical-scl-nan-features": (lambda ind, joint: empirical_scl(np.full((3, 2), math.nan), np.ones((3, 2)),
                                                                    sample_batch(joint, 6, seed=0)), InvalidSpec),
    "joint-complex": (lambda ind, joint: JointDistribution(np.full((2, 2), 0.25 + 0j)), InvalidSpec),
    "joint-ragged": (lambda ind, joint: JointDistribution([[0.5, 0.25], [0.25]]), InvalidSpec),
    "encoder-ragged": (lambda ind, joint: EncoderTable([[1.0, 2.0], [3.0]]), InvalidSpec),
    "index-map-fraction": (lambda ind, joint: NormalizedCooccurrence([[1.0]], [1.0], [1.0], [0.7], [0]), InvalidSpec),
    "index-map-negative": (lambda ind, joint: NormalizedCooccurrence([[1.0]], [1.0], [1.0], [-3], [0]), InvalidSpec),
    "index-map-bool": (lambda ind, joint: NormalizedCooccurrence([[1.0]], [1.0], [1.0], [True], [0]), InvalidSpec),
    "index-map-ragged": (lambda ind, joint: NormalizedCooccurrence([[1.0]], [1.0], [1.0], [[0], 1], [0]), InvalidSpec),
    "labels-ragged": (lambda ind, joint: LabelAssignment([[0], 1], [0, 0], 2), InvalidSpec),
    "batch-indices-ragged": (lambda ind, joint: Batch([[0], 1], [0, 0], [], [], [], [], n=6), InvalidSpec),
    "candidates-ragged": (lambda ind, joint: nearest_neighbor_positive(0, [[1], 2], EncoderTable(np.eye(3))),
                          InvalidSpec),
    "encoder-bool-among-floats": (lambda ind, joint: EncoderTable([[0.5, True]]), InvalidSpec),
    "joint-bool-among-floats": (lambda ind, joint: JointDistribution([[0.5, False], [0.5, False]]), InvalidSpec),
    "probe-bool-among-floats": (lambda ind, joint: LinearProbe([[1.0, True]]), InvalidSpec),
    "probe-weights-bool-among-floats": (lambda ind, joint: fit_probe(np.eye(3), [0, 1, 1], [1.0, True, 1.0]),
                                        InvalidSpec),
    "labels-bool-among-integers": (lambda ind, joint: LabelAssignment([0, True], [0, 1], 2), InvalidSpec),
    "augmentation-model-empty": (lambda ind, joint: AugmentationModel(np.zeros((0, 0)), 1), InvalidSpec),
    "probe-no-class-column": (lambda ind, joint: LinearProbe(np.ones((3, 0))), InvalidSpec),
}


@pytest.mark.parametrize("call,error", NUMBER_REPRODUCERS.values(), ids=NUMBER_REPRODUCERS)
def test_numbers_of_the_wrong_kind_raise_lab_errors(call, error):
    induced, _ = augmentation_instance(np.random.default_rng(0))
    joint = JointDistribution.from_counts(np.random.default_rng(1).gamma(1.0, size=(3, 3)))
    with pytest.raises(error):
        call(induced, joint)


JOINT3 = JointDistribution.from_counts(np.random.default_rng(1).gamma(1.0, size=(3, 3)))
LABELS3 = LabelAssignment([0, 1, 1], [0, 1, 0], 2)

#: one integer argument of every public constructor or function that reads
#: one, called with the given value and every other argument valid
INTEGER_SLOTS = {
    "TrainConfig.dim": lambda v: TrainConfig(dim=v),
    "TrainConfig.max_steps": lambda v: TrainConfig(dim=2, max_steps=v),
    "TrainConfig.batch_size": lambda v: TrainConfig(dim=2, batch_size=v),
    "TrainConfig.seed": lambda v: TrainConfig(dim=2, seed=v),
    "nearest_neighbor_positive.index": lambda v: nearest_neighbor_positive(v, [0, 1, 2], EncoderTable(np.eye(3))),
    "MultiModalGenConfig.num_classes": lambda v: MultiModalGenConfig(v, 2, 2),
    "MultiModalGenConfig.visual_per_class": lambda v: MultiModalGenConfig(2, v, 2),
    "MultiModalGenConfig.language_per_class": lambda v: MultiModalGenConfig(2, 2, v),
    "MultiModalGenConfig.seed": lambda v: MultiModalGenConfig(2, 2, 2, seed=v),
    "generate_augmentation_model.num_visual": lambda v: generate_augmentation_model(v, 2, 0.1),
    "generate_augmentation_model.augs_per_sample": lambda v: generate_augmentation_model(2, v, 0.1),
    "generate_augmentation_model.seed": lambda v: generate_augmentation_model(2, 2, 0.1, seed=v),
    "HierarchicalGraphSpec.s_l": lambda v: HierarchicalGraphSpec(v, 2, 0.5),
    "HierarchicalGraphSpec.s_h": lambda v: HierarchicalGraphSpec(2, v, 0.5),
    "AugmentationModel.augs_per_sample": lambda v: AugmentationModel(np.full((4, 2), 0.25), v),
    "LabelAssignment.num_classes": lambda v: LabelAssignment([0, 1], [0, 1], v),
    "Batch.n": lambda v: Batch([], [], [], [], [], [], n=v),
    "BatchSampler.n": lambda v: BatchSampler(JOINT3, v),
    "BatchSampler.draw_chunk.count": lambda v: BatchSampler(JOINT3, 6).draw_chunk(np.random.default_rng(0), v),
    "optimal_encoders.k": lambda v: closed_form_k(JOINT3, v),
    "bound_report.k": lambda v: bound_report(JOINT3, LABELS3, v),
}

#: the same for every rate, ratio, weight or probability argument
REAL_SLOTS = {
    "TrainConfig.learning_rate": lambda v: TrainConfig(dim=2, learning_rate=v),
    "TrainConfig.tolerance": lambda v: TrainConfig(dim=2, tolerance=v),
    "ResampleConfig.ratio": lambda v: ResampleConfig("DropEasyNegative", ratio=v),
    "ResampleConfig.mixing_weight": lambda v: ResampleConfig("AddNewPositive", mixing_weight=v),
    "MultiModalGenConfig.target_alpha": lambda v: generate_multimodal(MultiModalGenConfig(2, 2, 2, target_alpha=v)),
    "MultiModalGenConfig.concentration": lambda v: generate_multimodal(MultiModalGenConfig(2, 2, 2, concentration=v)),
    "generate_augmentation_model.leak": lambda v: generate_augmentation_model(2, 2, v),
    "HierarchicalGraphSpec.separation": lambda v: HierarchicalGraphSpec(2, 2, v),
}

EYE3 = np.eye(3)
FEATURES4 = np.random.default_rng(2).standard_normal((4, 3))
LABELS4 = [0, 0, 1, 1]
NORM3 = normalize_cooccurrence(JOINT3)
DEC3 = decompose(NORM3)
AUGMENT = generate_augmentation_model(2, 2, 0.1)
PROBE = LinearProbe(np.ones((3, 2)))
BATCH3 = sample_batch(JOINT3, 6, seed=0)
INDUCED3 = text_induced(JOINT3)
SAMPLED = TrainConfig(dim=1, batch_mode="sampled", batch_size=6, max_steps=2)


def extra_positives(weights):
    return Batch([], [], [], [], [], [], n=3, extra_pos_visual=[0, 1], extra_pos_language=[0, 1],
                 extra_pos_weight=weights)


#: one float-array argument of every public constructor or function that
#: reads one: (the name its InvalidSpec gives, a valid value, the call
#: with that value and every other argument valid)
ARRAY_SLOTS = {
    "JointDistribution.matrix": ("joint distribution", JOINT3.matrix, JointDistribution),
    "JointDistribution.from_counts": ("counts", [[1, 2], [3, 4]], JointDistribution.from_counts),
    "InducedDistribution.matrix": ("induced distribution", [[0.25, 0.25], [0.25, 0.25]],
                                   lambda v: InducedDistribution(v, kind="text")),
    "NormalizedCooccurrence.matrix": ("normalized matrix", NORM3.matrix, lambda v: replace(NORM3, matrix=v)),
    "NormalizedCooccurrence.marginal_visual": ("marginal_visual", NORM3.marginal_visual,
                                               lambda v: replace(NORM3, marginal_visual=v)),
    "NormalizedCooccurrence.marginal_language": ("marginal_language", NORM3.marginal_language,
                                                 lambda v: replace(NORM3, marginal_language=v)),
    "augmentation_joint.model": ("conditional matrix", AUGMENT.matrix, lambda v: augmentation_joint(v, [0.5, 0.5])),
    "augmentation_joint.marginal_visual": ("marginal_visual", [0.5, 0.5], lambda v: augmentation_joint(AUGMENT, v)),
    "EncoderTable.matrix": ("encoder table", EYE3, EncoderTable),
    "EncoderTable.factor": ("marginal", [0.2, 0.3, 0.5], lambda v: EncoderTable(EYE3).factor(v)),
    "Batch.extra_pos_weight": ("extra_pos_weight", [0.5, 0.25], extra_positives),
    "LinearProbe.weights": ("probe weights", np.ones((3, 2)), LinearProbe),
    "LinearProbe.scores": ("features", EYE3, PROBE.scores),
    "SpectralDecomposition.left": ("left", DEC3.left, lambda v: replace(DEC3, left=v)),
    "SpectralDecomposition.singular_values": ("singular_values", DEC3.singular_values,
                                              lambda v: replace(DEC3, singular_values=v)),
    "SpectralDecomposition.right": ("right", DEC3.right, lambda v: replace(DEC3, right=v)),
    "AugmentationModel.matrix": ("conditional matrix", AUGMENT.matrix, lambda v: AugmentationModel(v, 2)),
    "scl_loss.f_visual": ("f_visual", EYE3, lambda v: scl_loss(v, EYE3, JOINT3)),
    "scl_loss.f_language": ("f_language", EYE3, lambda v: scl_loss(EYE3, v, JOINT3)),
    "scl_grad.f_visual": ("f_visual", EYE3, lambda v: scl_grad(v, EYE3, JOINT3)),
    "scl_grad.f_language": ("f_language", EYE3, lambda v: scl_grad(EYE3, v, JOINT3)),
    "amf_loss.factor_visual": ("factor_visual", EYE3, lambda v: amf_loss(v, EYE3, NORM3)),
    "amf_loss.factor_language": ("factor_language", EYE3, lambda v: amf_loss(EYE3, v, NORM3)),
    "amf_loss.normalized": ("normalized", NORM3.matrix, lambda v: amf_loss(EYE3, EYE3, v)),
    "equivalence_constant.normalized": ("normalized", NORM3.matrix, equivalence_constant),
    "empirical_scl.f_visual": ("f_visual", EYE3, lambda v: empirical_scl(v, EYE3, BATCH3)),
    "empirical_scl.f_language": ("f_language", EYE3, lambda v: empirical_scl(EYE3, v, BATCH3)),
    "empirical_scl_grad.f_visual": ("f_visual", EYE3, lambda v: empirical_scl_grad(v, EYE3, BATCH3)),
    "empirical_scl_grad.f_language": ("f_language", EYE3, lambda v: empirical_scl_grad(EYE3, v, BATCH3)),
    "empirical_scl_batches.f_visual": ("f_visual", EYE3, lambda v: empirical_scl_batches(
        v, EYE3, BatchSampler(JOINT3, 6), np.random.default_rng(0), 2)),
    "empirical_scl_batches.f_language": ("f_language", EYE3, lambda v: empirical_scl_batches(
        EYE3, v, BatchSampler(JOINT3, 6), np.random.default_rng(0), 2)),
    "fit_probe.features": ("features", FEATURES4, lambda v: fit_probe(v, LABELS4)),
    "fit_probe.weights": ("weights", [1, 2, 3, 4], lambda v: fit_probe(FEATURES4, LABELS4, v)),
    "probe_error.features": ("features", FEATURES4, lambda v: probe_error(PROBE, v, LABELS4)),
    "probe_error.weights": ("weights", [1, 2, 3, 4], lambda v: probe_error(PROBE, FEATURES4, LABELS4, v)),
    "surrogate_labeling_error.induced": ("induced", [[0.25, 0.25], [0.25, 0.25]],
                                         lambda v: surrogate_labeling_error(v, [0, 1])),
    "estimate_cooccurrence.features": ("features", FEATURES4, estimate_cooccurrence),
    "intra_class_connectivity.features": ("features", FEATURES4, lambda v: intra_class_connectivity(v, LABELS4)),
    "decompose.norm": ("norm", NORM3.matrix, decompose),
    "nearest_neighbor_positive.teacher": ("teacher", EYE3, lambda v: nearest_neighbor_positive(0, [1, 2], v)),
    "apply_strategy.teacher": ("teacher", EYE3, lambda v: apply_strategy(BATCH3, v, ResampleConfig("AddNewPositive"))),
    "train_sscl.teacher": ("teacher", EYE3,
                           lambda v: train_sscl(INDUCED3, SAMPLED, ResampleConfig("AddNewPositive"), v)),
}

NEGATIVE = st.one_of(st.integers(max_value=-1), st.floats(max_value=-1e-9))
NON_NUMBERS = st.one_of(st.booleans(), st.text(max_size=3), st.sampled_from([math.nan, math.inf, -math.inf]))


@given(slot=st.sampled_from(sorted(INTEGER_SLOTS)), value=st.one_of(NON_NUMBERS, NEGATIVE, st.floats()))
@settings(max_examples=300, deadline=None)
def test_integer_arguments_refuse_bools_strings_floats_and_negatives(slot, value):
    """Integral floats too: the library takes integral types only."""
    with pytest.raises(LabError):
        INTEGER_SLOTS[slot](value)


@given(slot=st.sampled_from(sorted(REAL_SLOTS)), value=st.one_of(NON_NUMBERS, NEGATIVE))
@settings(max_examples=200, deadline=None)
def test_real_arguments_refuse_bools_strings_non_finite_and_negatives(slot, value):
    with pytest.raises(LabError):
        REAL_SLOTS[slot](value)


@given(slot=st.sampled_from(sorted(REAL_SLOTS)), value=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_real_arguments_take_fractions_or_raise_lab_errors(slot, value):
    try:
        REAL_SLOTS[slot](value)
    except LabError:
        pass


def test_array_slots_take_their_valid_value():
    for name, valid, call in ARRAY_SLOTS.values():
        call(valid)


def corrupted(valid, kind: str, at: int):
    """``valid`` as nested lists with one entry, or the whole array, made
    into a value no float-array argument takes."""
    array = np.asarray(valid)
    if kind == "bools":
        return array != 0
    if kind == "fewer axes":
        return array.tolist()[0]
    if kind == "more axes":
        return [array.tolist()]
    nested = array.tolist()
    index = np.unravel_index(at % array.size, array.shape)
    row = nested
    for i in index[:-1]:
        row = row[i]
    entry = row[index[-1]]
    row[index[-1]] = {"string": str(entry), "complex": complex(entry), "ragged": [entry, entry],
                      "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "bool among floats": True}[kind]
    return nested


#: the one wrapper type each matrix argument takes besides a bare array,
#: ``()`` where it takes none; a float-array argument not listed takes none
WRAPPED = {
    **{slot: EncoderTable for slot in (
        "LinearProbe.scores", "scl_loss.f_visual", "scl_loss.f_language", "scl_grad.f_visual",
        "scl_grad.f_language", "empirical_scl.f_visual", "empirical_scl.f_language", "empirical_scl_grad.f_visual",
        "empirical_scl_grad.f_language", "empirical_scl_batches.f_visual", "empirical_scl_batches.f_language",
        "fit_probe.features", "probe_error.features", "estimate_cooccurrence.features",
        "intra_class_connectivity.features", "nearest_neighbor_positive.teacher", "apply_strategy.teacher",
        "train_sscl.teacher")},
    "amf_loss.normalized": NormalizedCooccurrence,
    "decompose.norm": NormalizedCooccurrence,
    "equivalence_constant.normalized": NormalizedCooccurrence,
    "surrogate_labeling_error.induced": JointDistribution,
    "augmentation_joint.model": AugmentationModel,
    "amf_loss.factor_visual": (),
    "amf_loss.factor_language": (),
}


def wrappers_holding(valid) -> list:
    """One object of each type with a ``matrix`` that can hold ``valid``
    (as a 2-d array, of non-negative entries rescaled to mass 1 for a
    joint), so that reading its ``matrix`` would take the call."""
    m = np.atleast_2d(np.asarray(valid, dtype=float))
    rows, cols = m.shape
    builders = (
        EncoderTable,
        lambda m: JointDistribution.from_counts(np.abs(m)),
        lambda m: NormalizedCooccurrence(np.abs(m), np.ones(rows), np.ones(cols), np.arange(rows), np.arange(cols)),
        lambda m: AugmentationModel(m, rows // cols),
    )
    held = []
    for build in builders:
        try:
            held.append(build(m))
        except InvalidSpec:  # a conditional or joint that ``valid`` cannot be
            pass
    return held


def wrong_wrappers(slot: str) -> list:
    """The objects of :func:`wrappers_holding` of slot's valid value whose type the slot does not take."""
    return [w for w in wrappers_holding(ARRAY_SLOTS[slot][1]) if not isinstance(w, WRAPPED.get(slot, ()))]


@given(slot=st.sampled_from(sorted(ARRAY_SLOTS)), at=st.integers(0, 100),
       kind=st.sampled_from(["bools", "string", "complex", "nan", "inf", "-inf", "ragged", "fewer axes", "more axes",
                             "bool among floats", "wrong wrapper"]))
@settings(max_examples=400, deadline=None)
def test_array_arguments_refuse_bools_strings_complex_non_finite_ragged_and_other_shapes(slot, at, kind):
    """Also a bool among the numbers of a list, and an object with a
    ``matrix`` of a type the argument does not take."""
    name, valid, call = ARRAY_SLOTS[slot]
    if kind == "wrong wrapper":
        wrappers = wrong_wrappers(slot)
        value = wrappers[at % len(wrappers)]
    else:
        value = corrupted(valid, kind, at)
    with pytest.raises(InvalidSpec, match=f"^{re.escape(name)} must be a [12]-d array of finite real numbers"):
        call(value)


@pytest.mark.parametrize("slot", sorted(WRAPPED))
def test_matrix_arguments_refuse_a_wrapper_of_another_type(slot):
    """A joint as features or as a normalized matrix, a normalized matrix
    as an induced joint, a feature table as a conditional or as a factor:
    none is read as the matrix it holds."""
    name, _, call = ARRAY_SLOTS[slot]
    wrappers = wrong_wrappers(slot)
    assert len(wrappers) >= 2
    for wrapper in wrappers:
        with pytest.raises(InvalidSpec, match=f"^{re.escape(name)} must be a 2-d array of finite real numbers"):
            call(wrapper)


def same(a, b) -> bool:
    """Bit-identical: floats by repr, arrays by dtype, shape and bytes,
    dataclasses and tuples field by field."""
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_a_wrapper_and_its_matrix_give_bit_identical_results(seed):
    """Every function that takes a wrapper reads it as its bare ``matrix``."""
    rng = np.random.default_rng(seed)
    nv, nl, k = int(rng.integers(4, 9)), int(rng.integers(2, 9)), int(rng.integers(1, 4))
    joint = JointDistribution.from_counts(rng.gamma(1.0, size=(nv, nl)))
    norm = normalize_cooccurrence(joint)
    fv = EncoderTable(rng.standard_normal((nv, k)))
    fl = EncoderTable(rng.standard_normal((nl, k)), side="language")
    labels = np.arange(nv) % 2
    model = generate_augmentation_model(nv, 2, float(rng.uniform(0.0, 1.0)), seed=seed)
    batch = sample_batch(joint, 12, seed=seed)
    probe = fit_probe(fv, labels)
    induced = text_induced(joint)
    uni_batch = sample_batch(induced, 12, seed=seed)
    sampled = TrainConfig(dim=1, batch_mode="sampled", batch_size=6, max_steps=3, seed=seed)
    calls = {
        "scl_loss": lambda w: scl_loss(w(fv), w(fl), joint),
        "scl_grad": lambda w: scl_grad(w(fv), w(fl), joint),
        "empirical_scl": lambda w: empirical_scl(w(fv), w(fl), batch),
        "empirical_scl_grad": lambda w: empirical_scl_grad(w(fv), w(fl), batch),
        "empirical_scl_batches": lambda w: empirical_scl_batches(
            w(fv), w(fl), BatchSampler(joint, 6), np.random.default_rng(seed), 3),
        "amf_loss": lambda w: amf_loss(fv.factor(norm.marginal_visual), fl.factor(norm.marginal_language), w(norm)),
        "equivalence_constant": lambda w: equivalence_constant(w(norm)),
        "LinearProbe.scores": lambda w: probe.scores(w(fv)),
        "fit_probe": lambda w: fit_probe(w(fv), labels, joint.marginal_visual),
        "probe_error": lambda w: probe_error(probe, w(fv), labels, joint.marginal_visual),
        "estimate_cooccurrence": lambda w: estimate_cooccurrence(w(fv)),
        "intra_class_connectivity": lambda w: intra_class_connectivity(w(fv), labels),
        "surrogate_labeling_error": lambda w: surrogate_labeling_error(w(text_induced(joint)), labels),
        "augmentation_joint": lambda w: augmentation_joint(w(model), joint.marginal_visual),
        "decompose": lambda w: decompose(w(norm)),
        "nearest_neighbor_positive": lambda w: nearest_neighbor_positive(0, range(1, nv), w(fv)),
        "apply_strategy": lambda w: apply_strategy(uni_batch, w(fv), ResampleConfig("DropFalseNegative", ratio=0.5)),
        "train_sscl": lambda w: train_sscl(induced, sampled, ResampleConfig("AddNewPositive"), w(fv)),
    }
    for name, call in calls.items():
        assert same(call(lambda x: x), call(lambda x: x.matrix)), name


#: where a float array is stored as it was given: each takes any finite 2-d array
STORED_ARRAYS = {
    "EncoderTable.matrix": lambda x: EncoderTable(x).matrix,
    "LinearProbe.weights": lambda x: LinearProbe(x).weights,
}
SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=4)


@given(slot=st.sampled_from(sorted(STORED_ARRAYS)),
       x=st.one_of(hnp.arrays(st.sampled_from([np.int32, np.int64]), SHAPES),
                   hnp.arrays(st.sampled_from([np.float32, np.float64]), SHAPES,
                              elements=st.floats(allow_nan=False, allow_infinity=False, width=32))))
@settings(max_examples=200, deadline=None)
def test_valid_arrays_are_stored_as_read_only_float64_copies(slot, x):
    stored = STORED_ARRAYS[slot](x)
    assert stored.dtype == np.float64 and not stored.flags.writeable and x.flags.writeable
    assert stored.tobytes() == np.array(x, dtype=float).tobytes()


def test_index_arrays_are_stored_as_read_only_copies():
    pos_visual = np.array([0, 1])
    batch = Batch(pos_visual, [0, 1], [], [], [], [], n=6)
    pos_visual[0] = 2
    assert batch.pos_visual.tolist() == [0, 1] and not batch.pos_visual.flags.writeable


@pytest.mark.parametrize("call", [lambda x: fit_probe(x, [0, 1, 1]), estimate_cooccurrence],
                         ids=["fit_probe", "estimate_cooccurrence"])
def test_non_finite_features_are_reported_as_features(call):
    x = np.eye(3)
    x[0, 1] = math.nan
    with pytest.raises(InvalidSpec, match="^features must be a 2-d array of finite real numbers"):
        call(x)


def test_numpy_scalars_are_read_as_python_numbers():
    six, two = np.int64(6), np.int32(2)
    cfg = TrainConfig(dim=two, max_steps=six, batch_size=six, seed=np.uint8(0), learning_rate=np.float32(0.5))
    read = (cfg.dim, cfg.max_steps, cfg.batch_size, cfg.seed, cfg.learning_rate)
    assert read == (2, 6, 6, 0, 0.5) and [type(v) for v in read] == [int] * 4 + [float]
    assert sample_batch(JOINT3, six, seed=0).n == 6 and type(Batch([], [], [], [], [], [], n=six).n) is int
    assert type(LabelAssignment([0, 1], [0, 1], two).num_classes) is int
    assert bound_report(JOINT3, LABELS3, np.int64(2)) == bound_report(JOINT3, LABELS3, 2)
    spec = HierarchicalGraphSpec(two, two, np.float64(0.5))
    read = (spec.s_l, spec.s_h, spec.separation)
    assert read == (2, 2, 0.5) and [type(v) for v in read] == [int, int, float]
    np.testing.assert_array_equal(generate_augmentation_model(two, two, np.float64(0.1), seed=np.int64(3)).matrix,
                                  generate_augmentation_model(2, 2, 0.1, seed=3).matrix)


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
        with mock.patch.object(train, "_CHUNK_ENTRIES", budget):
            for a, b in pairs:
                want = np.sum(tables.rows[a] * tables.rows[b], axis=-1)
                got = tables.similarities[a, b]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(STRATEGIES), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_one_table_serves_every_batch_as_apply_strategy_would(self, seed, strategy, ratio):
        """One teacher table rewrites a plan of consecutive draws at once,
        each row as apply_strategy rewrites that batch alone."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        teacher = tied_teacher(rng, n)
        joint = JointDistribution.from_counts(rng.gamma(1.0, size=(n, n)))
        cfg = ResampleConfig(strategy, ratio=None if strategy == "AddNewPositive" else ratio,
                             mixing_weight=float(rng.uniform(0.0, 2.0)))
        sampler = BatchSampler(joint, 3 * int(rng.integers(1, 12)))
        count, draw_seed = int(rng.integers(1, 6)), int(rng.integers(2**32))
        single = np.random.default_rng(draw_seed)
        batches = [sampler.draw(single) for _ in range(count)]
        drawn = sampler.draw_chunk(np.random.default_rng(draw_seed), count)
        plan = _resample(_Plan.of_triples(*drawn), _TeacherTables(teacher.matrix), cfg)
        for row, batch in enumerate(batches):
            want = _Plan.of_batch(apply_strategy(batch, teacher, cfg))
            assert (plan.positives, plan.split[row], plan.negatives_end) == (
                want.positives, want.split[0], want.negatives_end)
            for name in ("visual", "language", "weight"):
                assert getattr(plan, name)[row].tobytes() == getattr(want, name)[0].tobytes()
            if strategy == "AddNewPositive":
                assert plan.language[row, plan.negatives_end:].tolist() == [
                    nearest_neighbor_positive(v, np.arange(n), teacher) for v in batch.pos_visual]

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


def exact_teacher(rng, n):
    """Teacher of repeated one-hot rows, some scaled and some zero: its
    cosine similarities are exactly 0 or 1 in any arithmetic, so a
    ranking has no rounding to disagree on."""
    d = int(rng.integers(1, 4))
    rows = np.vstack([np.eye(d), np.zeros((1, d))])[rng.integers(0, d + 1, size=n)]
    return EncoderTable(rows * rng.choice([1.0, 0.5, 3.0], size=(n, 1)))


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
    """Sampled training as a loop over single batches: draw, rewrite with
    apply_strategy, step along empirical_scl_grad. Returns (feature
    matrices, per-step losses)."""
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
        teacher = EncoderTable(teacher.matrix[norm.visual_index])
    losses = []
    for _ in range(cfg.max_steps):
        batch = sampler.draw(batch_rng)
        if resample is not None:
            batch = apply_strategy(batch, teacher, resample)
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
            assert not any(d.flags.writeable for draws in _LATEST_DRAWS.values() for d in draws)
        assert len(set(results[::2])) == 1
        assert len(set(results)) == 1 + len(variants)


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
        plan = _Plan.of_triples(*sampler.draw_chunk(rng, int(rng.integers(1, 9))))
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
        plan = _Plan.of_triples(*sampler.draw_chunk(rng, int(rng.integers(1, 12))))
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
