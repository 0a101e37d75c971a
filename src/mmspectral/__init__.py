"""Numerical laboratory for the spectral view of multi-modal contrastive
learning: explicit finite distributions, exact losses, closed-form optima,
and seeded experiment suites that verify the theory end to end."""

from .distributions import (
    InducedDistribution,
    JointDistribution,
    LabelAssignment,
    NormalizedCooccurrence,
    augmentation_joint,
    normalize_cooccurrence,
    normalized_uni,
    text_induced,
)
from .errors import (
    ClassTooSmall,
    ConfigParseError,
    DegenerateDistribution,
    DegenerateGap,
    DidNotConverge,
    EmptyCandidates,
    InvalidBatchSize,
    InvalidSpec,
    LabError,
    LabWarning,
    NumericalFailure,
    RankDeficient,
    SpectralGapZero,
    TeacherMissing,
)
from .evaluation import (
    LinearProbe,
    estimate_cooccurrence,
    fit_probe,
    intra_class_connectivity,
    labeling_error,
    probe_error,
    surrogate_labeling_error,
)
from .experiments import (
    SUITES,
    CheckResult,
    ExperimentConfig,
    RunReport,
    report_summary,
    run,
)
from .losses import (
    Batch,
    BatchSampler,
    EncoderTable,
    amf_loss,
    empirical_scl,
    empirical_scl_batches,
    empirical_scl_grad,
    equivalence_constant,
    sample_batch,
    scl_grad,
    scl_loss,
)
from .serialize import (
    canonical_json,
    config_hash,
    load_json_config,
    save_csv,
)
from .spectral import (
    BoundReport,
    SpectralDecomposition,
    bound_report,
    decompose,
    hierarchical_eigenvalues,
    optimal_encoders,
)
from .synth import (
    AugmentationModel,
    HierarchicalGraphSpec,
    MultiModalGenConfig,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
    hierarchical_probabilities,
)
from .train import (
    LossHistory,
    ResampleConfig,
    TrainConfig,
    apply_strategy,
    nearest_neighbor_positive,
    train_mmcl,
    train_sscl,
)

__version__ = "0.1.0"
