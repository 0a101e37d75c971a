"""Seeded generators for synthetic instances.

Three families: two-hidden-layer hierarchical random graphs given by
their separation (one nested block generator fills every block-constant
graph), bipartite multi-modal joints with a controllable labeling error,
and augmentation models (mostly self-connections plus a uniform leak).
An augmentation model is drawn as the conditional
:class:`~mmspectral.distributions.AugmentationModel`, which lives in
``distributions`` and is re-exported here. All randomness goes through
numpy's default_rng (PCG64), so identical seeds give bit-identical
outputs across platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .distributions import (AugmentationModel, InducedDistribution, JointDistribution, LabelAssignment, _instance,
                            _integer, _real)
from .errors import InvalidSpec


@dataclass(frozen=True)
class HierarchicalGraphSpec:
    """Two-hidden-layer random graph over ``n = s_l * s_h`` visual samples:
    ``s_l >= 2`` first-layer branches of ``s_h`` leaves each. Pairs sharing
    a branch co-occur with probability ``p_h``, all other pairs with ``p_l``.

    The separation in [0, 1] interpolates linearly between the uniform
    graph (0: p_h = p_l) and the disconnected graph (1: p_l = 0):
    ``p_l = (1 - separation) / n^2``, and ``p_h = (1 + (s_l - 1)*separation)
    / n^2`` is the value the mass constraint ``s_h*p_h + (s_l-1)*s_h*p_l =
    1/n`` forces. ``p_h - p_l = s_l * separation / n^2`` is strictly
    increasing in the separation; the p_h form keeps p_h >= p_l exact in
    floats, without cancellation.
    """

    s_l: int
    s_h: int
    separation: float

    def __post_init__(self):
        for name in ("s_l", "s_h"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        object.__setattr__(self, "separation", _real("separation", self.separation))
        if self.s_l < 2:
            raise InvalidSpec("need s_l >= 2 and s_h >= 1")
        if not 0.0 <= self.separation <= 1.0:
            raise InvalidSpec("separation must lie in [0, 1]")

    @property
    def num_samples(self) -> int:
        return self.s_l * self.s_h

    @property
    def p_l(self) -> float:
        return (1.0 - self.separation) / self.num_samples**2

    @property
    def p_h(self) -> float:
        return (1.0 + (self.s_l - 1) * self.separation) / self.num_samples**2


def _block_matrix(sizes, levels) -> np.ndarray:
    """Symmetric matrix over ``prod(sizes)`` samples split into ``sizes[0]``
    blocks, each split into ``sizes[1]``, and so on down to single samples:
    entry ``levels[d]`` where two samples share their blocks down to depth
    ``d`` (depth 0: every pair)."""
    n = math.prod(sizes)
    m = np.full((n, n), levels[0])
    for depth in range(1, len(sizes)):
        size = math.prod(sizes[depth:])
        for lo in range(0, n, size):
            m[lo:lo + size, lo:lo + size] = levels[depth]
    return m


def build_hierarchical_matrix(spec: HierarchicalGraphSpec) -> InducedDistribution:
    """Materialize the explicit co-occurrence matrix of the graph: entry
    p_h when the two samples share a first-layer branch, else p_l."""
    spec = _instance("spec", spec, HierarchicalGraphSpec)
    return InducedDistribution(_block_matrix((spec.s_l, spec.s_h), (spec.p_l, spec.p_h)), kind="hierarchical")


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
        for name, least in (("num_classes", 1), ("visual_per_class", 1), ("language_per_class", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name in ("target_alpha", "concentration"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
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
    cfg = _instance("cfg", cfg, MultiModalGenConfig)
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


def generate_augmentation_model(num_visual: int, augs_per_sample: int, leak: float,
                                seed: int = 0) -> AugmentationModel:
    """Augmentation model: each natural sample splits mass 1 - leak over its
    own augmented copies (seeded Dirichlet split), plus a uniform leak over
    all augmented samples. leak=0 keeps every column on its own block;
    leak=1 is the fully uniform conditional. The leak is class-agnostic
    by construction.
    """
    num_visual = _integer("num_visual", num_visual, 1)
    augs_per_sample = _integer("augs_per_sample", augs_per_sample, 1)
    seed, leak = _integer("seed", seed, 0), _real("leak", leak)
    if not 0.0 <= leak <= 1.0:
        raise InvalidSpec("leak must lie in [0, 1]")
    rng = default_rng(seed)
    n_a = num_visual * augs_per_sample
    a = np.full((n_a, num_visual), leak / n_a)
    # one split per natural sample, row v drawn as the v-th single draw would be
    splits = rng.dirichlet(np.ones(augs_per_sample), size=num_visual)
    a[np.arange(n_a), np.arange(n_a) // augs_per_sample] += (1.0 - leak) * splits.ravel()
    return AugmentationModel(a, augs_per_sample)
