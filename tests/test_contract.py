"""The library-wide input contract: every parameter of the public API has
one row, keyed ``<callable>.<parameter>``, in one table of what it takes,
and each table's test feeds its rows values of the wrong kind.

A callable is a function ``mmspectral`` exports, a class it exports (its
constructor), or a method or classmethod such a class defines. A refused
value raises a ``LabError`` naming the argument, never a raw error.
:func:`test_every_public_parameter_has_exactly_one_row` walks the exports
and fails on a parameter without a row, a row without a parameter and a
parameter with two rows.
"""
import dataclasses
import inspect
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mmspectral
from mmspectral import (
    AugmentationModel,
    Batch,
    BatchSampler,
    BoundReport,
    CheckResult,
    ConfigParseError,
    EncoderTable,
    ExperimentConfig,
    HierarchicalGraphSpec,
    InducedDistribution,
    InvalidBatchSize,
    InvalidSpec,
    JointDistribution,
    LabError,
    LabelAssignment,
    LinearProbe,
    LossHistory,
    MultiModalGenConfig,
    NormalizedCooccurrence,
    ResampleConfig,
    RunReport,
    SUITES,
    SpectralDecomposition,
    TrainConfig,
    amf_loss,
    apply_strategy,
    augmentation_joint,
    bound_report,
    build_hierarchical_matrix,
    decompose,
    empirical_scl,
    empirical_scl_batches,
    empirical_scl_grad,
    equivalence_constant,
    estimate_cooccurrence,
    fit_probe,
    generate_augmentation_model,
    generate_multimodal,
    hierarchical_eigenvalues,
    intra_class_connectivity,
    labeling_error,
    load_json_config,
    nearest_neighbor_positive,
    normalize_cooccurrence,
    normalized_uni,
    optimal_encoders,
    probe_error,
    report_summary,
    run,
    sample_batch,
    scl_grad,
    scl_loss,
    surrogate_labeling_error,
    text_induced,
    train_mmcl,
    train_sscl,
)

JOINT3 = JointDistribution.from_counts(np.random.default_rng(1).gamma(1.0, size=(3, 3)))
LABELS3 = LabelAssignment([0, 1, 1], [0, 1, 0], 2)
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
HRG_PARAMS = dict(SUITES["hrg-spectrum"].defaults)
#: a run that every row refuses before it starts, so nothing is written
HRG = ExperimentConfig.build("hrg-spectrum", out=Path(tempfile.gettempdir()) / "mmspectral-contract-unwritten")
#: a config file that sets the base seed of any kind
CONFIG_FILE = Path(__file__).with_name("contract-config.json")


def induced_instance(rng):
    """The augmentation-induced joint of a few equally likely samples."""
    nv = int(rng.integers(6, 10))
    model = generate_augmentation_model(nv, 2, 0.2, seed=int(rng.integers(2**32)))
    return augmentation_joint(model, np.full(nv, 1.0 / nv))


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
    induced = induced_instance(np.random.default_rng(0))
    joint = JointDistribution.from_counts(np.random.default_rng(1).gamma(1.0, size=(3, 3)))
    with pytest.raises(error):
        call(induced, joint)


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
    "sample_batch.n": lambda v: sample_batch(JOINT3, v),
    "sample_batch.seed": lambda v: sample_batch(JOINT3, 6, seed=v),
    "empirical_scl_batches.count": lambda v: empirical_scl_batches(EYE3, EYE3, BatchSampler(JOINT3, 6),
                                                                   np.random.default_rng(0), v),
    "run.workers": lambda v: run(HRG, v),
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


def extra_positives(weights):
    return Batch([], [], [], [], [], [], n=3, extra_pos_visual=[0, 1], extra_pos_language=[0, 1],
                 extra_pos_weight=weights)


#: one float-array argument of every public constructor or function that
#: reads one: (the name its InvalidSpec gives, a valid value, the call
#: with that value and every other argument valid)
ARRAY_SLOTS = {
    "JointDistribution.matrix": ("joint distribution", JOINT3.matrix, JointDistribution),
    "JointDistribution.from_counts.counts": ("counts", [[1, 2], [3, 4]], JointDistribution.from_counts),
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
    "EncoderTable.factor.marginal": ("marginal", [0.2, 0.3, 0.5], lambda v: EncoderTable(EYE3).factor(v)),
    "Batch.extra_pos_weight": ("extra_pos_weight", [0.5, 0.25], extra_positives),
    "LinearProbe.weights": ("probe weights", np.ones((3, 2)), LinearProbe),
    "LinearProbe.scores.features": ("features", EYE3, PROBE.scores),
    "LinearProbe.predict.features": ("features", EYE3, PROBE.predict),
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
    into a value no float-array argument takes; a fraction or a negative
    entry is a value no index-array argument takes."""
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
    row[index[-1]] = {"fraction": entry + 0.5, "negative": -1 - entry,
                      "string": str(entry), "complex": complex(entry), "ragged": [entry, entry],
                      "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "bool among floats": True}[kind]
    return nested


#: the one wrapper type each matrix argument takes besides a bare array,
#: ``()`` where it takes none; a float-array argument not listed takes none
WRAPPED = {
    **{slot: EncoderTable for slot in (
        "LinearProbe.scores.features", "LinearProbe.predict.features", "scl_loss.f_visual", "scl_loss.f_language", "scl_grad.f_visual",
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
    assert same(sample_batch(JOINT3, 6, seed=np.int64(4)), sample_batch(JOINT3, 6, seed=np.random.default_rng(4)))
    assert type(LabelAssignment([0, 1], [0, 1], two).num_classes) is int
    assert bound_report(JOINT3, LABELS3, np.int64(2)) == bound_report(JOINT3, LABELS3, 2)
    spec = HierarchicalGraphSpec(two, two, np.float64(0.5))
    read = (spec.s_l, spec.s_h, spec.separation)
    assert read == (2, 2, 0.5) and [type(v) for v in read] == [int, int, float]
    np.testing.assert_array_equal(generate_augmentation_model(two, two, np.float64(0.1), seed=np.int64(3)).matrix,
                                  generate_augmentation_model(2, 2, 0.1, seed=3).matrix)


#: a valid batch whose every index list has two entries
BATCH_FIELDS = dict(pos_visual=[0, 1], pos_language=[0, 1], neg_language=[0, 1], neg_language_anchor=[0, 1],
                    neg_visual=[0, 1], neg_visual_anchor=[0, 1], n=6, extra_pos_visual=[0, 1],
                    extra_pos_language=[0, 1], extra_pos_weight=[0.5, 0.5])

#: one index-array argument of every public constructor or function that
#: reads one: (the name its InvalidSpec gives, a valid value, the call
#: with that value and every other argument valid)
INDEX_SLOTS = {
    **{f"Batch.{field}": (field, [0, 1], lambda v, field=field: Batch(**{**BATCH_FIELDS, field: v}))
       for field in BATCH_FIELDS if field not in ("n", "extra_pos_weight")},
    "LabelAssignment.visual": ("labels", [0, 1], lambda v: LabelAssignment(v, [0, 1], 2)),
    "LabelAssignment.language": ("labels", [0, 1], lambda v: LabelAssignment([0, 1], v, 2)),
    "NormalizedCooccurrence.visual_index": ("visual_index", NORM3.visual_index,
                                            lambda v: replace(NORM3, visual_index=v)),
    "NormalizedCooccurrence.language_index": ("language_index", NORM3.language_index,
                                              lambda v: replace(NORM3, language_index=v)),
    "AugmentationModel.labels_for_augmented.labels_visual": ("labels", [0, 1], AUGMENT.labels_for_augmented),
    "fit_probe.labels": ("labels", LABELS4, lambda v: fit_probe(FEATURES4, v)),
    "probe_error.labels": ("labels", LABELS4, lambda v: probe_error(PROBE, FEATURES4, v)),
    "intra_class_connectivity.labels": ("labels", LABELS4, lambda v: intra_class_connectivity(FEATURES4, v)),
    "surrogate_labeling_error.labels_visual": ("labels", [0, 1, 1], lambda v: surrogate_labeling_error(INDUCED3, v)),
    "nearest_neighbor_positive.candidates": ("candidates", [1, 2], lambda v: nearest_neighbor_positive(0, v, EYE3)),
}


def test_index_slots_take_their_valid_value():
    for _, valid, call in INDEX_SLOTS.values():
        call(valid)


@given(slot=st.sampled_from(sorted(INDEX_SLOTS)), at=st.integers(0, 100),
       kind=st.sampled_from(["fraction", "negative", "bools", "string", "complex", "nan", "inf", "-inf", "ragged",
                             "fewer axes", "more axes", "bool among floats"]))
@settings(max_examples=300, deadline=None)
def test_index_arrays_refuse_fractions_negatives_bools_strings_non_finite_ragged_and_other_shapes(slot, at, kind):
    name, valid, call = INDEX_SLOTS[slot]
    with pytest.raises(InvalidSpec, match=f"^{re.escape(name)} must be class indices >= 0"):
        call(corrupted(valid, kind, at))


#: one instance of each type the library exports, and of numpy's Generator
LIBRARY = (
    JOINT3, INDUCED3, NORM3, DEC3, LABELS3, AUGMENT, EncoderTable(EYE3), BATCH3, BatchSampler(JOINT3, 6), PROBE,
    HierarchicalGraphSpec(2, 2, 0.5), MultiModalGenConfig(2, 2, 2), SAMPLED, ResampleConfig("AddNewPositive"), HRG,
    np.random.default_rng(0), CheckResult("a", True, 0.0, 1.0),
    RunReport("x", "", (0,), (CheckResult("a", True, 0.0, 1.0),), 0.0, ()),
    BoundReport(0.0, 0.5, 0.0, 0.0, 1.0, 1.0), LossHistory([0.0], True),
)

#: one object argument of every public constructor or function that takes
#: one: (the type it must be, the call with that value and every other
#: argument valid)
OBJECT_SLOTS = {
    "normalize_cooccurrence.joint": (JointDistribution, normalize_cooccurrence),
    "text_induced.joint": (JointDistribution, text_induced),
    "scl_loss.joint": (JointDistribution, lambda v: scl_loss(EYE3, EYE3, v)),
    "scl_grad.joint": (JointDistribution, lambda v: scl_grad(EYE3, EYE3, v)),
    "BatchSampler.joint": (JointDistribution, lambda v: BatchSampler(v, 6)),
    "sample_batch.joint": (JointDistribution, lambda v: sample_batch(v, 6)),
    "labeling_error.joint": (JointDistribution, lambda v: labeling_error(v, LABELS3)),
    "bound_report.joint": (JointDistribution, lambda v: bound_report(v, LABELS3, 1)),
    "train_mmcl.joint": (JointDistribution, lambda v: train_mmcl(v, TrainConfig(dim=1))),
    "train_sscl.induced": (InducedDistribution, lambda v: train_sscl(v, SAMPLED)),
    "normalized_uni.norm": (NormalizedCooccurrence, normalized_uni),
    "optimal_encoders.norm": (NormalizedCooccurrence, lambda v: optimal_encoders(v, DEC3, 1)),
    "optimal_encoders.dec": (SpectralDecomposition, lambda v: optimal_encoders(NORM3, v, 1)),
    "labeling_error.labels": (LabelAssignment, lambda v: labeling_error(JOINT3, v)),
    "bound_report.labels": (LabelAssignment, lambda v: bound_report(JOINT3, v, 1)),
    "empirical_scl.batch": (Batch, lambda v: empirical_scl(EYE3, EYE3, v)),
    "empirical_scl_grad.batch": (Batch, lambda v: empirical_scl_grad(EYE3, EYE3, v)),
    "apply_strategy.batch": (Batch, lambda v: apply_strategy(v, EYE3, ResampleConfig("AddNewPositive"))),
    "empirical_scl_batches.sampler": (BatchSampler, lambda v: empirical_scl_batches(
        EYE3, EYE3, v, np.random.default_rng(0), 2)),
    "BatchSampler.draw.rng": (np.random.Generator, BatchSampler(JOINT3, 6).draw),
    "BatchSampler.draw_chunk.rng": (np.random.Generator, lambda v: BatchSampler(JOINT3, 6).draw_chunk(v, 2)),
    "empirical_scl_batches.rng": (np.random.Generator, lambda v: empirical_scl_batches(
        EYE3, EYE3, BatchSampler(JOINT3, 6), v, 2)),
    "train_mmcl.cfg": (TrainConfig, lambda v: train_mmcl(JOINT3, v)),
    "train_sscl.cfg": (TrainConfig, lambda v: train_sscl(INDUCED3, v)),
    "train_sscl.resample": (ResampleConfig, lambda v: train_sscl(INDUCED3, SAMPLED, v, EYE3)),
    "apply_strategy.cfg": (ResampleConfig, lambda v: apply_strategy(BATCH3, EYE3, v)),
    "generate_multimodal.cfg": (MultiModalGenConfig, generate_multimodal),
    "hierarchical_eigenvalues.spec": (HierarchicalGraphSpec, hierarchical_eigenvalues),
    "build_hierarchical_matrix.spec": (HierarchicalGraphSpec, build_hierarchical_matrix),
    "probe_error.probe": (LinearProbe, lambda v: probe_error(v, FEATURES4, LABELS4)),
    "run.config": (ExperimentConfig, run),
}
#: object arguments where None means "not given"
OPTIONAL = {"train_sscl.resample"}


def object_refusal(slot: str, value):
    """The InvalidSpec message pattern of ``value`` at object argument ``slot``."""
    kind = OBJECT_SLOTS[slot][0]
    return f"^{slot.rsplit('.', 1)[1]} must be an? {kind.__name__}, got {type(value).__name__}$"


@given(slot=st.sampled_from(sorted(OBJECT_SLOTS)),
       value=st.one_of(st.integers(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                       hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)), st.none(),
                       st.sampled_from(LIBRARY)))
@settings(max_examples=500, deadline=None)
def test_object_arguments_refuse_every_other_type(slot, value):
    """An int, a str, a dict, a bare array, None (where it does not mean
    "not given") and every library type but the argument's own."""
    kind, call = OBJECT_SLOTS[slot]
    assume(not isinstance(value, kind) and not (value is None and slot in OPTIONAL))
    with pytest.raises(InvalidSpec, match=object_refusal(slot, value)):
        call(value)


def test_the_object_pool_holds_every_library_type():
    exported = {obj for name, obj in vars(mmspectral).items()
                if inspect.isclass(obj) and not name.startswith("_") and not issubclass(obj, BaseException)}
    assert sorted(type(x).__name__ for x in LIBRARY) == sorted(t.__name__ for t in exported | {np.random.Generator})


#: one wrong value at each object argument that once raised a raw
#: AttributeError, TypeError or KeyError, or (a normalized joint as the
#: joint of ``scl_grad`` or ``sample_batch``) was read without a word
OBJECT_REPRODUCERS = {
    "normalize_cooccurrence.joint": np.full((3, 3), 1 / 9),
    "text_induced.joint": np.full((3, 3), 1 / 9),
    "scl_loss.joint": np.full((3, 3), 1 / 9),
    "scl_grad.joint": NORM3,
    "BatchSampler.joint": np.full((3, 3), 1 / 9),
    "sample_batch.joint": NORM3,
    "labeling_error.joint": np.full((3, 3), 1 / 9),
    "bound_report.joint": np.full((3, 3), 1 / 9),
    "train_mmcl.joint": np.full((3, 3), 1 / 9),
    "normalized_uni.norm": NORM3.matrix,
    "labeling_error.labels": [0, 1, 1],
    "bound_report.labels": ([0, 1, 1], [0, 1, 0]),
    "empirical_scl.batch": {"n": 6},
    "empirical_scl_grad.batch": BATCH3.pos_visual,
    "apply_strategy.batch": None,
    "empirical_scl_batches.sampler": JOINT3,
    "BatchSampler.draw.rng": 0,
    "BatchSampler.draw_chunk.rng": 0,
    "empirical_scl_batches.rng": 0,
    "train_mmcl.cfg": {"dim": 1},
    "train_sscl.cfg": {"dim": 1},
    "apply_strategy.cfg": "AddNewPositive",
    "generate_multimodal.cfg": {"num_classes": 2},
    "hierarchical_eigenvalues.spec": (2, 2, 0.5),
    "build_hierarchical_matrix.spec": (2, 2, 0.5),
    "probe_error.probe": np.ones((3, 2)),
}


@pytest.mark.parametrize("slot", sorted(OBJECT_REPRODUCERS))
def test_objects_of_the_wrong_type_raise_lab_errors(slot):
    value = OBJECT_REPRODUCERS[slot]
    with pytest.raises(InvalidSpec, match=object_refusal(slot, value)):
        OBJECT_SLOTS[slot][1](value)


#: one string argument of every public constructor that names one of a
#: fixed set of options: (the name its InvalidSpec gives, the options, the
#: call with that value and every other argument valid)
CHOICE_SLOTS = {
    "EncoderTable.side": ("side", ("visual", "language", "augmented"), lambda v: EncoderTable(EYE3, side=v)),
    "InducedDistribution.kind": ("kind", ("text", "augmentation", "estimated", "hierarchical"),
                                 lambda v: InducedDistribution(INDUCED3.matrix, kind=v)),
    "TrainConfig.batch_mode": ("batch_mode", ("population", "sampled"), lambda v: TrainConfig(dim=1, batch_mode=v)),
    "ResampleConfig.strategy": ("strategy", ("AddNewPositive", "DropFalsePositive", "DropFalseNegative",
                                             "DropEasyNegative"), ResampleConfig),
}
OPTIONS = sorted({option for _, options, _ in CHOICE_SLOTS.values() for option in options})


@pytest.mark.parametrize("slot", sorted(CHOICE_SLOTS))
def test_choice_arguments_take_each_option(slot):
    _, options, call = CHOICE_SLOTS[slot]
    for option in options:
        call(option)


@given(slot=st.sampled_from(sorted(CHOICE_SLOTS)),
       value=st.one_of(st.text(max_size=12), st.sampled_from(OPTIONS).map(str.upper), st.integers(), st.none(),
                       st.dictionaries(st.sampled_from(OPTIONS), st.integers(), max_size=2),
                       st.lists(st.sampled_from(OPTIONS), min_size=1, max_size=3).map(np.array),
                       st.lists(st.sampled_from(OPTIONS), max_size=3)))
@settings(max_examples=300, deadline=None)
def test_choice_arguments_refuse_anything_but_an_option(slot, value):
    """Also a list or an array of options, and an option in capitals."""
    name, options, call = CHOICE_SLOTS[slot]
    assume(not (isinstance(value, str) and value in options))
    with pytest.raises(InvalidSpec, match=f"^{name} must be one of"):
        call(value)


HRG_REPORT = RunReport("hrg-spectrum", "", (0,), (CheckResult("a", True, 0.0, 1.0),), 0.0, ()).to_json_dict()

#: one argument of every public constructor or function of the config and
#: report layer: (a valid value, the call with that value and every other
#: argument valid); each refuses a value of the wrong kind with a
#: ConfigParseError. A config path is a str or an os.PathLike. A report
#: summary reads each entry of its list (a list or a tuple; anything else
#: is refused as a whole, see VALUE_REPRODUCERS).
CONFIG_SLOTS = {
    "ExperimentConfig.kind": ("hrg-spectrum", lambda v: ExperimentConfig(v, HRG_PARAMS, (0,), "o")),
    "ExperimentConfig.params": (HRG_PARAMS, lambda v: ExperimentConfig("hrg-spectrum", v, (0,), "o")),
    "ExperimentConfig.seeds": ((0, 5), lambda v: ExperimentConfig("hrg-spectrum", HRG_PARAMS, v, "o")),
    "ExperimentConfig.out": ("o", lambda v: ExperimentConfig("hrg-spectrum", HRG_PARAMS, (0,), v)),
    "ExperimentConfig.build.kind": ("hrg-spectrum", ExperimentConfig.build),
    "ExperimentConfig.build.config_path": (CONFIG_FILE, lambda v: ExperimentConfig.build("hrg-spectrum",
                                                                                         config_path=v)),
    "ExperimentConfig.build.seed": (3, lambda v: ExperimentConfig.build("hrg-spectrum", seed=v)),
    "ExperimentConfig.build.out": ("o", lambda v: ExperimentConfig.build("hrg-spectrum", out=v)),
    "ExperimentConfig.build.tolerance": (0.5, lambda v: ExperimentConfig.build("hrg-spectrum", tolerance=v)),
    "report_summary.reports": (HRG_REPORT, lambda v: report_summary([v])),
    "load_json_config.path": (str(CONFIG_FILE), load_json_config),
}


def test_config_slots_take_their_valid_value():
    for valid, call in CONFIG_SLOTS.values():
        call(valid)


@given(slot=st.sampled_from(sorted(CONFIG_SLOTS)),
       value=st.one_of(st.booleans(), st.complex_numbers(), st.dictionaries(st.text(max_size=3), st.integers()),
                       st.frozensets(st.text(max_size=3))))
@settings(max_examples=200, deadline=None)
def test_config_arguments_refuse_values_of_the_wrong_kind(slot, value):
    with pytest.raises(ConfigParseError):
        CONFIG_SLOTS[slot][1](value)


#: calls that once raised a raw TypeError, ValueError or KeyError on a
#: seed, an experiment kind, experiment parameters, a config path, a report
#: list or a report entry of the wrong kind: (the call, its error, the
#: start of its message)
VALUE_REPRODUCERS = {
    "sample-batch-seed-negative": (lambda: sample_batch(JOINT3, 6, seed=-1), InvalidSpec, "seed must be >= 0"),
    "sample-batch-seed-1.5": (lambda: sample_batch(JOINT3, 6, seed=1.5), InvalidSpec, "seed must be >= 0"),
    "sample-batch-seed-string": (lambda: sample_batch(JOINT3, 6, seed="x"), InvalidSpec, "seed must be >= 0"),
    "build-kind-list": (lambda: ExperimentConfig.build(["hrg-spectrum"]), ConfigParseError,
                        re.escape("unknown experiment kind ['hrg-spectrum']")),
    "config-kind-list": (lambda: ExperimentConfig(["x"], {}, (0,), "o"), ConfigParseError,
                         re.escape("unknown experiment kind ['x']")),
    "config-params-list": (lambda: ExperimentConfig("hrg-spectrum", list(HRG_PARAMS), (0,), "o"), ConfigParseError,
                           "bad value for 'params'"),
    "summary-entry-without-checks": (lambda: report_summary([{"experiment": "x"}]), ConfigParseError,
                                     re.escape("reports[0] is not a run report")),
    "summary-entry-string": (lambda: report_summary([HRG_REPORT, "x"]), ConfigParseError,
                             re.escape("reports[1] is not a run report")),
    "config-path-none": (lambda: load_json_config(None), ConfigParseError,
                         re.escape("config path must be a str or os.PathLike, got NoneType")),
    "build-config-path-int": (lambda: ExperimentConfig.build("hrg-spectrum", config_path=3), ConfigParseError,
                              re.escape("config path must be a str or os.PathLike, got int")),
    "summary-bool": (lambda: report_summary(True), ConfigParseError,
                     re.escape("reports must be a list or tuple of run reports, got bool")),
    "summary-int": (lambda: report_summary(5), ConfigParseError,
                    re.escape("reports must be a list or tuple of run reports, got int")),
}


@pytest.mark.parametrize("call,error,message", VALUE_REPRODUCERS.values(), ids=VALUE_REPRODUCERS)
def test_values_of_the_wrong_kind_raise_lab_errors_naming_them(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


#: parameters the library hands on as they are, and where they go
PASSED_THROUGH = {
    "JointDistribution.from_counts.fields": "the constructor of the class, as its other fields (an induced kind)",
    "canonical_json.obj": "json.dumps, with sorted keys",
    "config_hash.config": "canonical_json",
    "save_csv.path": "pathlib.Path, opened for writing",
    "save_csv.rows": "np.asarray(dtype=object), one CSV row per row",
    "save_csv.header": "csv.writer, as the first row",
}

#: every table of rows, one row per public parameter
ROW_TABLES = {
    "INTEGER_SLOTS": INTEGER_SLOTS, "REAL_SLOTS": REAL_SLOTS, "INDEX_SLOTS": INDEX_SLOTS, "ARRAY_SLOTS": ARRAY_SLOTS,
    "OBJECT_SLOTS": OBJECT_SLOTS, "CHOICE_SLOTS": CHOICE_SLOTS, "CONFIG_SLOTS": CONFIG_SLOTS,
    "PASSED_THROUGH": PASSED_THROUGH,
}

#: result records: the library builds them from values it computed, so
#: their constructors take no outside input
RESULT_RECORDS = {CheckResult, RunReport, BoundReport, LossHistory}


def public_parameters() -> set:
    """``<callable>.<parameter>`` for every parameter of every public
    function, input-type constructor, method and classmethod that
    ``mmspectral`` exports; ``self`` and ``cls`` aside."""
    def keys(prefix: str, fn) -> set:
        return {f"{prefix}.{p}" for p in inspect.signature(fn).parameters if p not in ("self", "cls")}

    found = set()
    for name, obj in vars(mmspectral).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if not inspect.isclass(obj):
            found |= keys(name, obj)
        elif not issubclass(obj, BaseException) and obj not in RESULT_RECORDS:
            found |= keys(name, obj)
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)  # a classmethod's function
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found |= keys(f"{name}.{attr}", fn)
    return found


def test_every_public_parameter_has_exactly_one_row():
    rows = Counter(key for table in ROW_TABLES.values() for key in table)
    walked = public_parameters()
    assert sorted(walked - set(rows)) == [], "parameters without a row"
    assert sorted(set(rows) - walked) == [], "rows of no public parameter"
    assert sorted(key for key, count in rows.items() if count > 1) == [], "parameters with two rows"
