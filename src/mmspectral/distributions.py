"""Finite joint distributions and the uni-modal distributions they induce.

Every probability object here is a dense float64 matrix validated at
construction: a joint distribution over visual x language pairs, its
two-side normalized form, and the visual-visual distributions obtained by
marginalizing over a shared text pivot or over an augmentation model.
Instances are immutable after construction and all operations are pure
functions, so everything is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDistribution, InvalidSpec

if TYPE_CHECKING:  # import only for annotations, synth imports this module
    from .synth import AugmentationModel

#: tolerance on total-mass and marginal-sum checks
MASS_TOL = 1e-12
#: largest asymmetry accepted before an induced matrix is symmetrized
SYMMETRY_TOL = 1e-12

#: recognized origins of an induced visual-visual matrix
INDUCED_KINDS = ("text", "augmentation", "estimated", "hierarchical")


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _matrix_of(x) -> np.ndarray:
    """Accept either a wrapper type with a .matrix field or a bare array."""
    return x.matrix if hasattr(x, "matrix") else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class JointDistribution:
    """Explicit co-occurrence mass over all visual-language sample pairs.

    The matrix has one row per visual sample and one column per language
    sample; entries are non-negative and sum to 1 within ``MASS_TOL``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise InvalidSpec(f"joint distribution must be a 2-d matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidSpec("joint distribution entries must be finite")
        if np.any(m < 0.0):
            raise InvalidSpec("joint distribution entries must be non-negative")
        total = float(m.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidSpec(f"joint distribution mass must be 1, got {total!r}")
        object.__setattr__(self, "matrix", _readonly(m))

    @classmethod
    def from_counts(cls, counts) -> "JointDistribution":
        """Build a joint distribution from non-negative weights, renormalized
        exactly so the sum-to-1 invariant holds by construction."""
        c = np.asarray(counts, dtype=float)
        total = c.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InvalidSpec("counts must have positive finite total mass")
        return cls(c / total)

    @property
    def num_visual(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_language(self) -> int:
        return self.matrix.shape[1]

    @property
    def marginal_visual(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @property
    def marginal_language(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True)
class LabelAssignment:
    """Ground-truth class labels for both sides of a joint distribution.

    Labels are integers in ``[0, num_classes)``; every class must appear at
    least once on the visual side.
    """

    visual: np.ndarray
    language: np.ndarray
    num_classes: int

    def __post_init__(self):
        v = np.asarray(self.visual, dtype=int)
        l = np.asarray(self.language, dtype=int)
        if v.ndim != 1 or l.ndim != 1:
            raise InvalidSpec("label vectors must be 1-d")
        r = int(self.num_classes)
        if r < 1:
            raise InvalidSpec("need at least one class")
        for name, arr in (("visual", v), ("language", l)):
            if arr.size and (arr.min() < 0 or arr.max() >= r):
                raise InvalidSpec(f"{name} labels must lie in [0, {r})")
        if not np.array_equal(np.unique(v), np.arange(r)):
            raise InvalidSpec("every class must appear at least once on the visual side")
        object.__setattr__(self, "visual", _readonly(v, dtype=int))
        object.__setattr__(self, "language", _readonly(l, dtype=int))
        object.__setattr__(self, "num_classes", r)


@dataclass(frozen=True)
class NormalizedCooccurrence:
    """Two-side normalized co-occurrence matrix together with its marginals.

    Entry (v, l) is ``P(v, l) / sqrt(P_V(v) * P_L(l))``. Rows/columns with
    zero marginal are pruned before the division; ``visual_index`` and
    ``language_index`` map the pruned axes back to the original samples so
    labels and feature tables stay aligned.
    """

    matrix: np.ndarray
    marginal_visual: np.ndarray
    marginal_language: np.ndarray
    visual_index: np.ndarray
    language_index: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        pv = np.asarray(self.marginal_visual, dtype=float)
        pl = np.asarray(self.marginal_language, dtype=float)
        vi = np.asarray(self.visual_index, dtype=int)
        li = np.asarray(self.language_index, dtype=int)
        if m.ndim != 2 or m.shape != (pv.size, pl.size):
            raise InvalidSpec("normalized matrix and marginals have mismatched shapes")
        if vi.size != pv.size or li.size != pl.size:
            raise InvalidSpec("index maps must match the pruned axes")
        if not np.all(np.isfinite(m)) or np.any(m < 0.0):
            raise InvalidSpec("normalized entries must be finite and non-negative")
        if np.any(pv <= 0.0) or np.any(pl <= 0.0):
            raise InvalidSpec("marginals must be strictly positive after pruning")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "marginal_visual", _readonly(pv))
        object.__setattr__(self, "marginal_language", _readonly(pl))
        object.__setattr__(self, "visual_index", _readonly(vi, dtype=int))
        object.__setattr__(self, "language_index", _readonly(li, dtype=int))

    @property
    def num_visual(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_language(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class InducedDistribution:
    """Symmetric visual-visual matrix induced from a joint distribution.

    ``kind`` names the origin: "text" (shared-caption pivot),
    "augmentation" (shared natural image), "estimated" (from features), or
    "hierarchical" (block-structured generator). Plain induced matrices are
    probability masses and sum to 1; ``normalized=True`` marks the two-side
    normalized product form, which does not.
    """

    matrix: np.ndarray
    kind: str
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in INDUCED_KINDS:
            raise InvalidSpec(f"unknown induced kind {self.kind!r}, expected one of {INDUCED_KINDS}")
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidSpec("induced distribution must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidSpec("induced entries must be finite")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if asym > SYMMETRY_TOL:
            raise InvalidSpec(f"induced matrix asymmetry {asym!r} exceeds {SYMMETRY_TOL}")
        m = (m + m.T) / 2.0  # keep eigendecompositions exactly real
        if np.any(m < -1e-15):
            raise InvalidSpec("induced entries must be non-negative")
        m = np.maximum(m, 0.0)
        if not self.normalized:
            total = float(m.sum())
            if abs(total - 1.0) > MASS_TOL:
                raise InvalidSpec(f"induced mass must be 1, got {total!r}")
            m = m / total
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def num_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


def normalize_cooccurrence(joint: JointDistribution) -> NormalizedCooccurrence:
    """Two-side normalization: divide each entry by sqrt of its marginals.

    Zero-marginal rows/columns carry no mass and would divide by zero, so
    they are pruned first; the returned object records the index maps.

    Raises
    ------
    DegenerateDistribution
        if pruning leaves fewer than 2 samples on either side.
    """
    pv, pl = joint.marginal_visual, joint.marginal_language
    keep_v = np.flatnonzero(pv > 0.0)
    keep_l = np.flatnonzero(pl > 0.0)
    if keep_v.size < 2 or keep_l.size < 2:
        raise DegenerateDistribution(
            f"normalization needs >= 2 samples per side after pruning, "
            f"got {keep_v.size} visual and {keep_l.size} language"
        )
    sub = joint.matrix[np.ix_(keep_v, keep_l)]
    pv2, pl2 = pv[keep_v], pl[keep_l]
    norm = sub / np.sqrt(pv2)[:, None] / np.sqrt(pl2)[None, :]
    return NormalizedCooccurrence(norm, pv2, pl2, keep_v, keep_l)


def text_induced(joint: JointDistribution) -> InducedDistribution:
    """Visual-visual distribution obtained through a shared caption:
    ``P_T(v, v') = sum_l P_L(l) P(v|l) P(v'|l)``.

    Zero-mass language columns are pruned before conditioning. The result
    keeps the full visual axis (zero-marginal rows stay as zero rows), is
    exactly symmetric and sums to 1.
    """
    pl = joint.marginal_language
    cols = np.flatnonzero(pl > 0.0)
    m = joint.matrix[:, cols]
    induced = (m / pl[cols][None, :]) @ m.T
    asym = float(np.max(np.abs(induced - induced.T)))
    if asym > SYMMETRY_TOL:
        raise InvalidSpec(f"text-induced asymmetry {asym!r} exceeds {SYMMETRY_TOL}")
    return InducedDistribution((induced + induced.T) / 2.0, kind="text")


def normalized_uni(norm: NormalizedCooccurrence) -> InducedDistribution:
    """Normalized uni-modal matrix: the product of the normalized
    co-occurrence matrix with its transpose. Equals two-side normalization
    applied directly to the text-induced distribution."""
    product = norm.matrix @ norm.matrix.T
    return InducedDistribution((product + product.T) / 2.0, kind="text", normalized=True)


def augmentation_joint(model: "AugmentationModel | np.ndarray", marginal_visual) -> InducedDistribution:
    """Joint distribution over augmented samples sharing a natural parent:
    ``P_A(a, a') = sum_v P_V(v) A(a|v) A(a'|v)``.

    ``model`` is an AugmentationModel or a bare conditional matrix whose
    columns A(.|v) each sum to 1.
    """
    a = _matrix_of(model)
    pv = np.asarray(marginal_visual, dtype=float)
    if a.ndim != 2 or a.shape[1] != pv.size:
        raise InvalidSpec("conditional matrix columns must match the visual marginal")
    if np.any(pv < 0.0) or abs(float(pv.sum()) - 1.0) > MASS_TOL:
        raise InvalidSpec("visual marginal must be a probability vector")
    col_sums = a.sum(axis=0)
    if np.max(np.abs(col_sums - 1.0)) > 1e-9:
        raise InvalidSpec("each conditional column A(.|v) must sum to 1")
    induced = (a * pv[None, :]) @ a.T
    return InducedDistribution((induced + induced.T) / 2.0, kind="augmentation")
