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
from functools import partial

import numpy as np

from .distributions import (InducedDistribution, JointDistribution, LabelAssignment, _class_indices, _instance,
                            _matrix_of, _probabilities, _reals)
from .errors import ClassTooSmall, DegenerateDistribution, InvalidSpec, RankDeficient
from .losses import EncoderTable

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

    def __post_init__(self):
        object.__setattr__(self, "weights", _reals("probe weights", self.weights, 2))
        if self.weights.shape[1] == 0:
            raise InvalidSpec("probe weights need at least one class column")

    def scores(self, features) -> np.ndarray:
        x = _matrix_of("features", features, EncoderTable)
        if x.shape[1] != self.weights.shape[0]:
            raise InvalidSpec(f"features must have {self.weights.shape[0]} columns to match the probe, got {x.shape}")
        return x @ self.weights

    def predict(self, features) -> np.ndarray:
        # np.argmax returns the first maximal index, which is the tie rule
        return np.argmax(self.scores(features), axis=1)


def _labels_and_weights(labels, rows: int, weights):
    """(labels, weights of mass 1) for ``rows`` feature rows: one class
    index >= 0 per row, and weights that are uniform when None, else
    finite and non-negative with a positive total."""
    y = _class_indices("labels", labels, rows)
    if rows == 0:
        raise InvalidSpec("features and labels must align, one label per feature row")
    w = np.full(rows, 1.0 / rows) if weights is None else _reals("weights", weights, 1)
    total = w.sum()  # inf if the sum overflows
    if w.shape != y.shape or not (w >= 0.0).all() or not 0.0 < total < np.inf:
        raise InvalidSpec("weights must be finite and non-negative with positive total")
    return y, w / total


def fit_probe(features, labels, weights=None) -> LinearProbe:
    """Weighted least-squares fit of one-hot targets, closed form.

    Solves (X^T W X + ridge I) B = X^T W Y with ridge 1e-10. Deterministic;
    warns RankDeficient when the Gram matrix is singular beyond what the
    ridge repairs.
    """
    x = _matrix_of("features", features, EncoderTable)
    y, w = _labels_and_weights(labels, x.shape[0], weights)
    r = int(y.max()) + 1
    if r < 2:
        raise InvalidSpec("probe fitting needs at least 2 classes")

    onehot = np.zeros((y.size, r))
    onehot[np.arange(y.size), y] = 1.0
    xw = x * w[:, None]
    gram = x.T @ xw
    eigs = np.linalg.eigvalsh(gram)
    if eigs[-1] <= 0.0 or eigs[0] < eigs[-1] * 1e-12:
        warnings.warn("probe Gram matrix is numerically singular", RankDeficient)
    b = np.linalg.solve(gram + PROBE_RIDGE * np.eye(x.shape[1]), xw.T @ onehot)
    return LinearProbe(weights=b)


def probe_error(probe: LinearProbe, features, labels, weights=None) -> float:
    """Weighted 0-1 error of the probe's argmax predictions."""
    predicted = _instance("probe", probe, LinearProbe).predict(features)
    y, w = _labels_and_weights(labels, predicted.size, weights)
    return float(np.sum(w[predicted != y]))


def labeling_error(joint: JointDistribution, labels: LabelAssignment) -> float:
    """Probability that a positive pair straddles two classes:
    ``sum_{v,l} P(v,l) 1[y(v) != y(l)]``."""
    joint, labels = _instance("joint", joint, JointDistribution), _instance("labels", labels, LabelAssignment)
    if labels.visual.size != joint.num_visual or labels.language.size != joint.num_language:
        raise InvalidSpec("labels must cover both sides of the joint")
    mismatch = labels.visual[:, None] != labels.language[None, :]
    return float(joint.matrix[mismatch].sum())


def surrogate_labeling_error(induced, labels_visual) -> float:
    """Labeling error measured on a visual-visual induced distribution:
    ``sum_{v,v'} P(v,v') 1[y(v) != y(v')]``. ``induced`` is a joint, or a
    bare matrix held to the joint's rule."""
    m = _matrix_of("induced", induced, JointDistribution, partial(_probabilities, "induced"))
    if m.shape[0] != m.shape[1]:
        raise InvalidSpec("surrogate labeling error needs a square induced matrix")
    y = _class_indices("labels", labels_visual, m.shape[0])
    mismatch = y[:, None] != y[None, :]
    return float(m[mismatch].sum())


def estimate_cooccurrence(features) -> InducedDistribution:
    """Estimate a visual-visual co-occurrence matrix from features:
    row-normalize features to unit norm, take the Gram matrix, clamp
    negatives at 0, and scale to total mass 1.
    """
    gram = _unit_rows(_matrix_of("features", features, EncoderTable))
    gram = gram @ gram.T
    gram = np.maximum((gram + gram.T) / 2.0, 0.0)
    total = float(gram.sum())
    if total <= 0.0:
        raise DegenerateDistribution("features produced an all-zero similarity matrix")
    return InducedDistribution(gram / total, kind="estimated")


def intra_class_connectivity(features, labels):
    """Mean within-class similarity relative to the mean similarity over
    all samples.

    Similarity is the clamped cosine (consistent with
    :func:`estimate_cooccurrence`), diagonals included. Returns (beta,
    per-class beta array, one per class in label order).
    """
    x = _matrix_of("features", features, EncoderTable)
    y = _class_indices("labels", labels, x.shape[0])
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2 or np.any(counts < 2):
        raise ClassTooSmall("need >= 2 classes with >= 2 samples each")

    sim = _unit_rows(x)
    sim = np.maximum(sim @ sim.T, 0.0)
    mean_out = float(sim.mean())

    betas = []
    for c in classes:
        members = np.flatnonzero(y == c)
        mean_in = float(sim[np.ix_(members, members)].mean())
        betas.append(mean_in / mean_out if mean_out > 0.0 else np.inf)
    betas = np.asarray(betas)
    return float(betas.mean()), betas
