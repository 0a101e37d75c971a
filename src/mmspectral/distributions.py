"""Finite joint distributions and the uni-modal distributions they induce.

Every probability object here is a dense float64 matrix validated at
construction: a joint distribution over visual x language pairs and its
two-side normalized form. A visual-visual distribution obtained by
marginalizing over a shared text pivot or over an augmentation model is
itself a joint distribution, a symmetric one over sample pairs
(:class:`InducedDistribution`), so every function of a joint takes it
as it is. The augmentation conditional behind one lives here too
(:class:`AugmentationModel`; ``synth`` draws it). Numbers are read here,
and only here: index arrays by :func:`_class_indices`, counts, seeds and
indices by :func:`_integer`, rates and ratios by :func:`_real`, and float
arrays by :func:`_reals`. A matrix argument takes its one wrapper type or
a bare array, read once (:func:`_matrix_of`); any other object argument
takes its one documented type (:func:`_instance`), and a string naming
one of a fixed set of options is read by :func:`_choice`. Instances are
immutable after construction and all operations are pure functions, so
everything is safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateDistribution, InvalidSpec

#: tolerance on total-mass and marginal-sum checks
MASS_TOL = 1e-12
#: largest asymmetry accepted before an induced matrix is symmetrized
SYMMETRY_TOL = 1e-12

#: recognized origins of an induced visual-visual matrix
INDUCED_KINDS = ("text", "augmentation", "estimated", "hierarchical")


def _readonly(a) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def _instance(name: str, x, kind: type):
    """``x`` if it is a ``kind`` (a subclass is one); anything else is an
    InvalidSpec naming ``name``, the type it must be and the type it has."""
    if isinstance(x, kind):
        return x
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    raise InvalidSpec(f"{name} must be {article} {kind.__name__}, got {type(x).__name__}")


def _choice(name: str, value, options: tuple) -> str:
    """``value`` if it is one of the strings ``options``; anything else is
    an InvalidSpec naming ``name``."""
    if isinstance(value, str) and value in options:
        return value
    raise InvalidSpec(f"{name} must be one of {options}, got {value!r}")


def _matrix_of(name: str, x, kind: type, rule=None) -> np.ndarray:
    """``x.matrix`` when ``x`` is a ``kind``, whose construction checked it;
    anything else read once as the 2-d float array ``name``, so an object
    of another type is refused, and held to the kind's ``rule``, if given."""
    if isinstance(x, kind):
        return x.matrix
    m = _reals(name, x, 2)
    return m if rule is None else rule(m)


def _array(value, ndim: int, rule: str) -> np.ndarray:
    """``np.asarray(value)`` if it is an ``ndim``-d array of an integer or
    float dtype; bools (one in a list of numbers too), strings, objects,
    complex numbers, ragged nesting and other shapes raise InvalidSpec(``rule``)."""
    try:
        a = np.asarray(value)
    except ValueError:
        raise InvalidSpec(f"{rule}, got ragged nesting") from None
    if a.dtype.kind not in "iuf" or a.ndim != ndim:
        raise InvalidSpec(f"{rule}, got dtype {a.dtype} and shape {a.shape}")
    if not isinstance(value, np.ndarray) and any(
            isinstance(e, (bool, np.bool_)) for e in np.array(value, dtype=object).flat):
        raise InvalidSpec(f"{rule}, got a bool among the numbers")
    return a


def _class_indices(name: str, values, size=None) -> np.ndarray:
    """``values`` as a read-only 1-d int copy of indices >= 0, of ``size``
    entries when given. Integral floats such as ``1.0`` pass; bools,
    fractions, negatives, non-finite values and other shapes are refused,
    never truncated, with an InvalidSpec naming ``name``."""
    rule = f"{name} must be class indices >= 0"
    y = _array(values, 1, rule)
    if size is not None and y.size != size:
        raise InvalidSpec(f"{rule}, {size} in a 1-d array; got shape {y.shape}")
    if y.dtype.kind in "iu" and np.can_cast(y.dtype, int):  # integers that fit
        indices = not (y < 0).any()
    else:  # floats, and unsigned integers that may not fit
        indices = np.all((y >= 0) & (y < 2.0**63) & (np.floor(y) == y))
    if not indices:
        raise InvalidSpec(f"{rule}, finite integral numbers; got {y!r}")
    return _readonly(y.astype(int, copy=False))


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int: an integral number, not a bool, of at least
    ``least``; anything else is an InvalidSpec naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise InvalidSpec(f"{name} must be >= {least} and integral, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float: a finite real number, not a bool or a string;
    anything else is an InvalidSpec naming ``name``."""
    try:
        if not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise InvalidSpec(f"{name} must be finite and real, got {value!r}")


def _reals(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as a read-only float64 copy of an :func:`_array` with
    finite entries; anything else is an InvalidSpec naming ``name``."""
    rule = f"{name} must be a {ndim}-d array of finite real numbers"
    a = _array(value, ndim, rule)
    if not np.isfinite(a).all():
        raise InvalidSpec(f"{rule}, got non-finite entries")
    return _readonly(np.asarray(a, dtype=float))


def _probabilities(name: str, m: np.ndarray) -> np.ndarray:
    """``m``, a float array already read, if its entries are non-negative
    and sum to 1 within ``MASS_TOL``; else an InvalidSpec naming ``name``."""
    if np.any(m < 0.0):
        raise InvalidSpec(f"{name} entries must be non-negative")
    total = float(m.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise InvalidSpec(f"{name} mass must be 1, got {total!r}")
    return m


def _column_stochastic(a: np.ndarray) -> np.ndarray:
    """``a``, a conditional already read, if non-negative with columns A(.|v) summing to 1 within 1e-9."""
    if np.any(a < 0.0):
        raise InvalidSpec("conditional entries must be non-negative")
    if a.shape[1] < 1 or np.any(np.abs(a.sum(axis=0) - 1.0) > 1e-9):
        raise InvalidSpec("conditional needs one or more columns A(.|v), each summing to 1")
    return a


@dataclass(frozen=True)
class JointDistribution:
    """Explicit co-occurrence mass over all visual-language sample pairs.

    The matrix has one row per visual sample and one column per language
    sample; entries are non-negative and sum to 1 within ``MASS_TOL``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _probabilities("joint distribution", _reals("joint distribution", self.matrix, 2)))

    @classmethod
    def from_counts(cls, counts, **fields) -> "JointDistribution":
        """Build a joint distribution from non-negative weights, renormalized
        exactly so the sum-to-1 invariant holds by construction; ``fields``
        are a subclass's other fields, such as an induced ``kind``."""
        c = _reals("counts", counts, 2)
        total = c.sum()  # inf if the sum overflows
        if not 0.0 < total < np.inf:
            raise InvalidSpec("counts must have positive finite total mass")
        return cls(c / total, **fields)

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

    Labels lie in ``[0, num_classes)``, and every class must appear at
    least once on the visual side.
    """

    visual: np.ndarray
    language: np.ndarray
    num_classes: int

    def __post_init__(self):
        v = _class_indices("labels", self.visual)
        l = _class_indices("labels", self.language)
        r = _integer("num_classes", self.num_classes, 1)
        for name, arr in (("visual", v), ("language", l)):
            if arr.size and arr.max() >= r:
                raise InvalidSpec(f"{name} labels must lie in [0, {r})")
        if not np.array_equal(np.unique(v), np.arange(r)):
            raise InvalidSpec("every class must appear at least once on the visual side")
        object.__setattr__(self, "visual", v)
        object.__setattr__(self, "language", l)
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
        m = _reals("normalized matrix", self.matrix, 2)
        pv = _reals("marginal_visual", self.marginal_visual, 1)
        pl = _reals("marginal_language", self.marginal_language, 1)
        if m.shape != (pv.size, pl.size):
            raise InvalidSpec("normalized matrix and marginals have mismatched shapes")
        vi = _class_indices("visual_index", self.visual_index, pv.size)
        li = _class_indices("language_index", self.language_index, pl.size)
        if np.any(m < 0.0):
            raise InvalidSpec("normalized entries must be non-negative")
        if np.any(pv <= 0.0) or np.any(pl <= 0.0):
            raise InvalidSpec("marginals must be strictly positive after pruning")
        for name, value in (("matrix", m), ("marginal_visual", pv), ("marginal_language", pl),
                            ("visual_index", vi), ("language_index", li)):
            object.__setattr__(self, name, value)

    @property
    def num_visual(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_language(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class InducedDistribution(JointDistribution):
    """Symmetric visual-visual joint distribution induced from a joint.

    ``kind`` names the origin: "text" (shared-caption pivot),
    "augmentation" (shared natural image), "estimated" (from features), or
    "hierarchical" (block-structured generator). Both axes index the same
    samples, so every function of a :class:`JointDistribution` reads it as
    the symmetric joint of the uni-modal loss. Asymmetry up to
    ``SYMMETRY_TOL`` and negative round-off down to -1e-15 are repaired,
    and the mass is renormalized to 1 exactly.
    """

    kind: str

    def __post_init__(self):
        _choice("kind", self.kind, INDUCED_KINDS)
        m = _reals("induced distribution", self.matrix, 2)
        if m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidSpec("induced distribution must be a square matrix")
        asym = float(np.max(np.abs(m - m.T)))
        if asym > SYMMETRY_TOL:
            raise InvalidSpec(f"induced matrix asymmetry {asym!r} exceeds {SYMMETRY_TOL}")
        m = (m + m.T) / 2.0  # keep eigendecompositions exactly real
        np.maximum(m, 0.0, out=m, where=m >= -1e-15)  # larger negatives fail below
        object.__setattr__(self, "matrix", _readonly(_probabilities("induced distribution", m) / m.sum()))

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
    joint = _instance("joint", joint, JointDistribution)
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
    pl = _instance("joint", joint, JointDistribution).marginal_language
    cols = np.flatnonzero(pl > 0.0)
    m = joint.matrix[:, cols]
    return InducedDistribution((m / pl[cols][None, :]) @ m.T, kind="text")


def normalized_uni(norm: NormalizedCooccurrence) -> NormalizedCooccurrence:
    """Normalized uni-modal matrix: the product of the normalized
    co-occurrence matrix with its transpose, which is the two-side
    normalization of the text-induced distribution. Both axes carry the
    visual marginal and index map of ``norm``."""
    norm = _instance("norm", norm, NormalizedCooccurrence)
    product = norm.matrix @ norm.matrix.T
    return NormalizedCooccurrence((product + product.T) / 2.0, norm.marginal_visual, norm.marginal_visual,
                                  norm.visual_index, norm.visual_index)


@dataclass(frozen=True)
class AugmentationModel:
    """Conditional distribution of augmented samples given naturals.

    ``matrix`` has shape (N_A, N_V) and is read columnwise: column v is
    A(.|v), non-negative and summing to 1. Augmented samples are laid out
    in parent-major order, so augmented index ``v * augs_per_sample + j``
    descends from natural sample v.
    """

    matrix: np.ndarray
    augs_per_sample: int

    def __post_init__(self):
        a = _reals("conditional matrix", self.matrix, 2)
        object.__setattr__(self, "augs_per_sample", _integer("augs_per_sample", self.augs_per_sample, 1))
        if a.shape[0] != self.augs_per_sample * a.shape[1]:
            raise InvalidSpec("expected N_A == augs_per_sample * N_V")
        object.__setattr__(self, "matrix", _column_stochastic(a))

    @property
    def num_visual(self) -> int:
        return self.matrix.shape[1]

    @property
    def parent(self) -> np.ndarray:
        """Natural-sample index of each augmented sample."""
        return np.repeat(np.arange(self.num_visual), self.augs_per_sample)

    def labels_for_augmented(self, labels_visual) -> np.ndarray:
        """Lift natural-sample labels to the augmented samples."""
        return _class_indices("labels", labels_visual, self.num_visual)[self.parent]


def augmentation_joint(model: AugmentationModel | np.ndarray, marginal_visual) -> InducedDistribution:
    """Joint distribution over augmented samples sharing a natural parent:
    ``P_A(a, a') = sum_v P_V(v) A(a|v) A(a'|v)``.

    ``model`` is an AugmentationModel or a bare conditional matrix held to
    its rule: non-negative, each column A(.|v) summing to 1.
    """
    a = _matrix_of("conditional matrix", model, AugmentationModel, _column_stochastic)
    pv = _reals("marginal_visual", marginal_visual, 1)
    if a.shape[1] != pv.size:
        raise InvalidSpec("conditional matrix columns must match the visual marginal")
    _probabilities("marginal_visual", pv)
    return InducedDistribution((a * pv[None, :]) @ a.T, kind="augmentation")
