"""Downstream metrics.

Linear probing error (closed-form weighted least squares with an argmax
readout, a deterministic and transform-invariant surrogate for the
intractable best 0-1 classifier), labeling error and its uni-modal
surrogate, co-occurrence estimation from features, and intra-class
connectivity.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .distributions import InducedDistribution, JointDistribution, LabelAssignment, _matrix_of
from .errors import ClassTooSmall, DegenerateDistribution, InvalidSpec, RankDeficient

PROBE_RIDGE = 1e-10


def _unit_rows(features: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(features, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return features / safe[:, None]


@dataclass(frozen=True)
class LinearProbe:
    """Fitted linear classifier head: feature row @ weights -> class scores.

    Prediction is the argmax over class scores; exact ties resolve to the
    smallest class index.
    """

    weights: np.ndarray
    feature_dim: int
    num_classes: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.feature_dim, self.num_classes):
            raise InvalidSpec("probe weights must have shape (feature_dim, num_classes)")
        if not np.all(np.isfinite(w)):
            raise InvalidSpec("probe weights must be finite")
        frozen = w.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "weights", frozen)

    def scores(self, features) -> np.ndarray:
        return _matrix_of(features) @ self.weights

    def predict(self, features) -> np.ndarray:
        # np.argmax returns the first maximal index, which is the tie rule
        return np.argmax(self.scores(features), axis=1)


def fit_probe(features, labels, weights=None) -> LinearProbe:
    """Weighted least-squares fit of one-hot targets, closed form.

    Solves (X^T W X + ridge I) B = X^T W Y with ridge 1e-10. Deterministic;
    warns RankDeficient when the Gram matrix is singular beyond what the
    ridge repairs.
    """
    x = _matrix_of(features)
    y = np.asarray(labels, dtype=int)
    if x.shape[0] != y.size:
        raise InvalidSpec("features and labels must align")
    r = int(y.max()) + 1 if y.size else 0
    if r < 2:
        raise InvalidSpec("probe fitting needs at least 2 classes")
    w = np.full(y.size, 1.0 / y.size) if weights is None else np.asarray(weights, dtype=float)
    if w.size != y.size or np.any(w < 0.0) or w.sum() <= 0.0:
        raise InvalidSpec("weights must be non-negative with positive total")
    w = w / w.sum()

    onehot = np.zeros((y.size, r))
    onehot[np.arange(y.size), y] = 1.0
    xw = x * w[:, None]
    gram = x.T @ xw
    eigs = np.linalg.eigvalsh(gram)
    if eigs[-1] <= 0.0 or eigs[0] < eigs[-1] * 1e-12:
        warnings.warn("probe Gram matrix is numerically singular", RankDeficient)
    b = np.linalg.solve(gram + PROBE_RIDGE * np.eye(x.shape[1]), xw.T @ onehot)
    return LinearProbe(weights=b, feature_dim=x.shape[1], num_classes=r)


def probe_error(probe: LinearProbe, features, labels, weights=None) -> float:
    """Weighted 0-1 error of the probe's argmax predictions."""
    y = np.asarray(labels, dtype=int)
    w = np.full(y.size, 1.0 / y.size) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    wrong = probe.predict(features) != y
    return float(np.sum(w[wrong]))


def labeling_error(joint: JointDistribution, labels: LabelAssignment) -> float:
    """Probability that a positive pair straddles two classes:
    ``sum_{v,l} P(v,l) 1[y(v) != y(l)]``."""
    if labels.visual.size != joint.num_visual or labels.language.size != joint.num_language:
        raise InvalidSpec("labels must cover both sides of the joint")
    mismatch = labels.visual[:, None] != labels.language[None, :]
    return float(joint.matrix[mismatch].sum())


def surrogate_labeling_error(induced, labels_visual) -> float:
    """Labeling error measured on a visual-visual induced distribution:
    ``sum_{v,v'} P(v,v') 1[y(v) != y(v')]``."""
    m = _matrix_of(induced)
    if isinstance(induced, InducedDistribution) and induced.normalized:
        raise InvalidSpec("surrogate labeling error needs a mass-1 matrix, not a normalized one")
    y = np.asarray(labels_visual, dtype=int)
    if y.size != m.shape[0] or m.shape[0] != m.shape[1]:
        raise InvalidSpec("labels must cover the induced matrix")
    if abs(float(m.sum()) - 1.0) > 1e-9:
        raise InvalidSpec("induced matrix must be mass-normalized")
    mismatch = y[:, None] != y[None, :]
    return float(m[mismatch].sum())


def estimate_cooccurrence(features) -> InducedDistribution:
    """Estimate a visual-visual co-occurrence matrix from features:
    row-normalize features to unit norm, take the Gram matrix, clamp
    negatives at 0, and scale to total mass 1.
    """
    gram = _unit_rows(_matrix_of(features))
    gram = gram @ gram.T
    gram = np.maximum((gram + gram.T) / 2.0, 0.0)
    total = float(gram.sum())
    if total <= 0.0:
        raise DegenerateDistribution("features produced an all-zero similarity matrix")
    return InducedDistribution(gram / total, kind="estimated")


def intra_class_connectivity(features, labels, seed: int = 0, max_reference: int = 1000):
    """Mean within-class similarity relative to a random-sample reference.

    Similarity is the clamped cosine (consistent with
    :func:`estimate_cooccurrence`), diagonals included. The reference matrix
    uses min(max_reference, N) samples drawn without replacement with the
    given seed. Returns (beta, per-class beta array, one per class in label
    order).
    """
    x = _matrix_of(features)
    y = np.asarray(labels, dtype=int)
    if x.shape[0] != y.size:
        raise InvalidSpec("features and labels must align")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2 or np.any(counts < 2):
        raise ClassTooSmall("need >= 2 classes with >= 2 samples each")

    sim = _unit_rows(x)
    sim = np.maximum(sim @ sim.T, 0.0)
    rng = default_rng(seed)
    n = y.size
    ref_idx = np.sort(rng.choice(n, size=min(max_reference, n), replace=False))
    mean_out = float(sim[np.ix_(ref_idx, ref_idx)].mean())

    betas = []
    for c in classes:
        members = np.flatnonzero(y == c)
        mean_in = float(sim[np.ix_(members, members)].mean())
        betas.append(mean_in / mean_out if mean_out > 0.0 else np.inf)
    betas = np.asarray(betas)
    return float(betas.mean()), betas
