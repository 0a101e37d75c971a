"""Seeded generators for synthetic instances.

Three families: two-hidden-layer hierarchical random graphs with a single
separation knob, bipartite multi-modal joints with a controllable labeling
error, and augmentation models (mostly self-connections plus a uniform
leak). All randomness goes through numpy's default_rng (PCG64), so
identical seeds give bit-identical outputs across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .distributions import InducedDistribution, JointDistribution, LabelAssignment, _readonly
from .errors import InvalidSpec

CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class HierarchicalGraphSpec:
    """Two-hidden-layer random graph over ``s_l * s_h`` visual samples.

    The first layer has ``s_l`` branches; each branch has ``s_h`` leaves.
    Pairs sharing a first-layer branch co-occur with probability ``p_h``,
    all other pairs with ``p_l``. The normalization constraint
    ``s_h*p_h + (s_l-1)*s_h*p_l = 1/(s_l*s_h)`` makes total mass 1.
    ``p_h == p_l`` is allowed: it is the zero-separation uniform graph.
    """

    s_l: int
    s_h: int
    p_l: float
    p_h: float

    def __post_init__(self):
        if int(self.s_l) != self.s_l or int(self.s_h) != self.s_h:
            raise InvalidSpec("branch counts must be integers")
        if self.s_l < 1 or self.s_h < 1:
            raise InvalidSpec("branch counts must be positive")
        if not (self.p_h >= self.p_l >= 0.0):
            raise InvalidSpec("need p_h >= p_l >= 0")
        n = self.s_l * self.s_h
        resid = self.s_h * self.p_h + (self.s_l - 1) * self.s_h * self.p_l - 1.0 / n
        if abs(resid) > CONSTRAINT_TOL:
            raise InvalidSpec(f"normalization constraint violated by {resid!r}")
        object.__setattr__(self, "s_l", int(self.s_l))
        object.__setattr__(self, "s_h", int(self.s_h))

    @property
    def num_samples(self) -> int:
        return self.s_l * self.s_h

    @classmethod
    def from_separation(cls, s_l: int, s_h: int, separation: float) -> "HierarchicalGraphSpec":
        p_l, p_h = hierarchical_probabilities(s_l, s_h, separation)
        return cls(s_l=s_l, s_h=s_h, p_l=p_l, p_h=p_h)


def hierarchical_probabilities(s_l: int, s_h: int, separation: float) -> tuple[float, float]:
    """Map a separation knob in [0, 1] to (p_l, p_h) under the mass constraint.

    Linear interpolation between the uniform graph (separation 0, p_h = p_l)
    and the disconnected graph (separation 1, p_l = 0):
    ``p_l = (1 - separation) / n^2`` with ``n = s_l*s_h``, and
    ``p_h = (1 + (s_l - 1)*separation) / n^2``, the value the mass
    constraint forces. ``p_h - p_l = s_l * separation / n^2`` is strictly
    increasing in the separation. The p_h form is chosen so that
    p_h >= p_l holds exactly in floats, without cancellation.
    """
    if s_l < 2 or s_h < 1:
        raise InvalidSpec("need s_l >= 2 and s_h >= 1")
    if not 0.0 <= separation <= 1.0:
        raise InvalidSpec("separation must lie in [0, 1]")
    n = s_l * s_h
    p_l = (1.0 - separation) / n**2
    p_h = (1.0 + (s_l - 1) * separation) / n**2
    return p_l, p_h


def build_hierarchical_matrix(spec: HierarchicalGraphSpec) -> InducedDistribution:
    """Materialize the explicit co-occurrence matrix of the graph: entry
    p_h when the two samples share a first-layer branch, else p_l."""
    n = spec.num_samples
    m = np.full((n, n), spec.p_l)
    for b in range(spec.s_l):
        lo, hi = b * spec.s_h, (b + 1) * spec.s_h
        m[lo:hi, lo:hi] = spec.p_h
    return InducedDistribution(m, kind="hierarchical")


@dataclass(frozen=True)
class MultiModalGenConfig:
    """Configuration for the synthetic captioned-dataset generator.

    ``target_alpha`` is the requested labeling error, the probability that
    a positive pair straddles two classes. It must stay below the
    uninformative ceiling (r-1)/r; for a single class it must be 0.
    """

    num_classes: int
    visual_per_class: int
    language_per_class: int
    target_alpha: float = 0.0
    concentration: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.visual_per_class < 1 or self.language_per_class < 1:
            raise InvalidSpec("all counts must be >= 1")
        if not 0.0 <= self.target_alpha < 1.0:
            raise InvalidSpec("target_alpha must lie in [0, 1)")
        r = self.num_classes
        if r == 1:
            # the (r-1)/r bound degenerates to 0; only a zero target is coherent
            if self.target_alpha != 0.0:
                raise InvalidSpec("target_alpha must be 0 when there is a single class")
        elif self.target_alpha >= (r - 1) / r:
            raise InvalidSpec(f"target_alpha must be < {(r - 1) / r} for r={r}")
        if self.concentration <= 0.0:
            raise InvalidSpec("concentration must be positive")


def generate_multimodal(cfg: MultiModalGenConfig) -> tuple[JointDistribution, LabelAssignment]:
    """Draw a synthetic multi-modal joint with labeling error target_alpha.

    Within-class blocks get Dirichlet-like mass (gamma draws with the
    configured concentration, normalized per block, equal mass per class);
    a uniform floor over all off-class cells carries mass target_alpha.
    The realized labeling error is then exactly target_alpha, and the
    output is bit-for-bit reproducible from the seed.
    """
    rng = default_rng(cfg.seed)
    r, vpc, lpc = cfg.num_classes, cfg.visual_per_class, cfg.language_per_class
    nv, nl = r * vpc, r * lpc
    labels_v = np.repeat(np.arange(r), vpc)
    labels_l = np.repeat(np.arange(r), lpc)
    t = cfg.target_alpha

    p = np.zeros((nv, nl))
    for c in range(r):
        block = rng.gamma(cfg.concentration, size=(vpc, lpc))
        # guard against underflow to an empty row/column at tiny concentration
        if np.any(block.sum(axis=0) == 0.0) or np.any(block.sum(axis=1) == 0.0):
            block = block + 1e-12
        block /= block.sum()
        p[c * vpc:(c + 1) * vpc, c * lpc:(c + 1) * lpc] = block * ((1.0 - t) / r)
    if t > 0.0:
        off = labels_v[:, None] != labels_l[None, :]
        p[off] = t / off.sum()

    return JointDistribution.from_counts(p), LabelAssignment(labels_v, labels_l, r)


@dataclass(frozen=True)
class AugmentationModel:
    """Conditional distribution of augmented samples given naturals.

    ``matrix`` has shape (N_A, N_V) and is read columnwise: column v is
    A(.|v) and sums to 1. Augmented samples are laid out in parent-major
    order, so augmented index ``v * augs_per_sample + j`` descends from
    natural sample v.
    """

    matrix: np.ndarray
    augs_per_sample: int

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2:
            raise InvalidSpec("conditional matrix must be 2-d")
        if self.augs_per_sample < 1:
            raise InvalidSpec("need augs_per_sample >= 1")
        if a.shape[0] != self.augs_per_sample * a.shape[1]:
            raise InvalidSpec("expected N_A == augs_per_sample * N_V")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise InvalidSpec("conditional entries must be finite and non-negative")
        col = a.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > 1e-9:
            raise InvalidSpec("each column A(.|v) must sum to 1")
        object.__setattr__(self, "matrix", _readonly(a))

    @property
    def num_visual(self) -> int:
        return self.matrix.shape[1]

    @property
    def parent(self) -> np.ndarray:
        """Natural-sample index of each augmented sample."""
        return np.repeat(np.arange(self.num_visual), self.augs_per_sample)

    def labels_for_augmented(self, labels_visual) -> np.ndarray:
        """Lift natural-sample labels to the augmented samples."""
        lv = np.asarray(labels_visual, dtype=int)
        if lv.size != self.num_visual:
            raise InvalidSpec("labels must cover every natural sample")
        return lv[self.parent]


def generate_augmentation_model(num_visual: int, augs_per_sample: int, leak: float,
                                seed: int = 0) -> AugmentationModel:
    """Augmentation model: each natural sample splits mass 1 - leak over its
    own augmented copies (seeded Dirichlet split), plus a uniform leak over
    all augmented samples. leak=0 keeps every column on its own block;
    leak=1 is the fully uniform conditional. The leak is class-agnostic
    by construction.
    """
    if num_visual < 1 or augs_per_sample < 1:
        raise InvalidSpec("need num_visual >= 1 and augs_per_sample >= 1")
    if not 0.0 <= leak <= 1.0:
        raise InvalidSpec("leak must lie in [0, 1]")
    rng = default_rng(seed)
    n_a = num_visual * augs_per_sample
    a = np.full((n_a, num_visual), leak / n_a)
    for v in range(num_visual):
        split = rng.dirichlet(np.ones(augs_per_sample))
        a[v * augs_per_sample:(v + 1) * augs_per_sample, v] += (1.0 - leak) * split
    return AugmentationModel(a, augs_per_sample)
