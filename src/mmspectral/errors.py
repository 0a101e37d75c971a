"""Shared exception and warning types.

Errors signal contract violations the caller must handle. Warnings are
non-fatal diagnostics: the operation still returns a result, usually with
a flag set on it.
"""


class LabError(Exception):
    """Base class for all library-specific errors."""


class DegenerateDistribution(LabError):
    """Distribution has too little support left to operate on."""


class InvalidSpec(LabError):
    """Arguments violate a documented invariant of a type or operation."""


class NumericalFailure(LabError):
    """A numeric routine produced results outside its accuracy contract."""


class TeacherMissing(LabError):
    """A resampling strategy was requested without teacher features."""


class EmptyCandidates(LabError):
    """Nearest-neighbor search received an empty candidate set."""


class InvalidBatchSize(LabError):
    """Batch sampling needs a positive size divisible by 3."""


class ClassTooSmall(LabError):
    """Per-class statistics need >= 2 classes with >= 2 samples each."""


class ConfigParseError(LabError):
    """Experiment configuration could not be parsed or validated."""


class LabWarning(UserWarning):
    """Base class for non-fatal diagnostics."""


class SpectralGapZero(LabWarning):
    """sigma_{k+1} equals 1 within tolerance: the graph is disconnected and
    the dominant bound term is infinite."""


class DegenerateGap(LabWarning):
    """sigma_k equals sigma_{k+1} within tolerance: the top-k subspace is
    not well defined."""


class DidNotConverge(LabWarning):
    """Training did not converge. Population mode stopped (step limit or a
    step size at machine precision) with the loss still more than the
    tolerance above the closed-form optimum, and returns the best-so-far
    parameters; sampled mode produced non-finite batch losses."""


class RankDeficient(LabWarning):
    """Probe Gram matrix is singular beyond what the ridge term repairs."""
