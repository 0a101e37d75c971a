"""Contrastive losses, exact and sampled.

Population losses are computed as exact weighted sums over the finite
sample sets, never by Monte-Carlo. The batch sampler and the empirical
loss are the one intentionally stochastic pair: the sampler draws i.i.d.
positive pairs and splits a permutation of them into positive /
negative-caption / negative-image triples, and the empirical loss averages
the two quadratic negative sums so that its expectation over batches is
exactly the population loss.

Every sampled path draws through one :class:`BatchSampler` and evaluates
the loss with one piece of arithmetic, so the single-batch loss, its
gradient form and the many-batch loss agree bit for bit.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .distributions import InducedDistribution, JointDistribution, NormalizedCooccurrence, _matrix_of
from .errors import InvalidBatchSize, InvalidSpec

ENCODER_SIDES = ("visual", "language", "augmented")


@dataclass(frozen=True)
class EncoderTable:
    """Per-sample feature rows: the tabular realization of an encoder.

    Row x holds f(x) in R^k. The factor-matrix form used by the
    factorization identities scales each row by sqrt of its marginal, see
    :meth:`factor`.
    """

    matrix: np.ndarray
    side: str = "visual"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] < 1:
            raise InvalidSpec("encoder table must be 2-d with k >= 1")
        if not np.all(np.isfinite(m)):
            raise InvalidSpec("encoder entries must be finite")
        if self.side not in ENCODER_SIDES:
            raise InvalidSpec(f"side must be one of {ENCODER_SIDES}")
        frozen = m.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "matrix", frozen)

    @property
    def num_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def factor(self, marginal) -> np.ndarray:
        """Rows scaled by sqrt(marginal): F(x) = sqrt(p(x)) * f(x)."""
        p = np.asarray(marginal, dtype=float)
        if p.size != self.num_samples or np.any(p < 0.0):
            raise InvalidSpec("marginal must be a non-negative vector matching the table")
        return self.matrix * np.sqrt(p)[:, None]


def _features(f) -> np.ndarray:
    return f.matrix if isinstance(f, EncoderTable) else np.asarray(f, dtype=float)


def sce_loss(f_visual, f_language, joint: JointDistribution) -> float:
    """Symmetric cross entropy loss, exact population value.

    Both directional terms use expectations over the finite sets: the
    denominator of each softmax is a marginal-weighted expectation of
    exponentiated scores, evaluated with a stabilized logsumexp.
    """
    from scipy.special import logsumexp  # slow to import; only this loss needs it

    fv, fl = _features(f_visual), _features(f_language)
    p = joint.matrix
    pv, pl = joint.marginal_visual, joint.marginal_language
    scores = fv @ fl.T
    # log E_{l'~P_L} exp(s(v, l')) per visual row, and the transpose direction
    lse_rows = logsumexp(scores, axis=1, b=pl[None, :])
    lse_cols = logsumexp(scores, axis=0, b=pv[:, None])
    to_language = float(np.sum(p * (scores - lse_rows[:, None])))
    to_visual = float(np.sum(p * (scores - lse_cols[None, :])))
    return -(to_language + to_visual)


def scl_loss(f_visual, f_language, joint: JointDistribution) -> float:
    """Multi-modal spectral contrastive loss, exact population value:
    -2 E_pos[f_V.f_L] + E_{independent}[(f_V.f_L)^2]."""
    fv, fl = _features(f_visual), _features(f_language)
    p = joint.matrix
    pv, pl = joint.marginal_visual, joint.marginal_language
    scores = fv @ fl.T
    positive = float(np.sum(p * scores))
    negative = float(pv @ (scores**2) @ pl)
    return -2.0 * positive + negative


def amf_loss(factor_visual, factor_language, normalized) -> float:
    """Squared Frobenius residual of the asymmetric factorization:
    ``|| P_norm - F_V F_L^T ||_F^2``."""
    fv = _features(factor_visual)
    fl = _features(factor_language)
    target = normalized.matrix if isinstance(normalized, NormalizedCooccurrence) else np.asarray(normalized, dtype=float)
    resid = target - fv @ fl.T
    return float(np.sum(resid * resid))


def equivalence_constant(normalized) -> float:
    """Squared Frobenius norm of the normalized co-occurrence matrix: the
    constant separating the factorization residual from the contrastive
    loss. Equals the sum of squared singular values."""
    target = normalized.matrix if isinstance(normalized, NormalizedCooccurrence) else np.asarray(normalized, dtype=float)
    return float(np.sum(target * target))


def uni_scl_loss(f, induced, marginal_visual=None) -> float:
    """Uni-modal spectral contrastive loss against a symmetric joint over
    visual samples: -2 E_{(v,v')~P}[f.f'] + E_{v,v'~P_V x P_V}[(f.f')^2].

    ``marginal_visual`` defaults to the row sums of the induced matrix.
    """
    feats = _features(f)
    m = _matrix_of(induced)
    if isinstance(induced, InducedDistribution) and induced.normalized:
        raise InvalidSpec("uni-modal loss needs a mass-1 induced distribution, not a normalized one")
    if m.shape[0] != m.shape[1]:
        raise InvalidSpec("induced matrix must be square")
    pv = m.sum(axis=1) if marginal_visual is None else np.asarray(marginal_visual, dtype=float)
    scores = feats @ feats.T
    positive = float(np.sum(m * scores))
    negative = float(pv @ (scores**2) @ pv)
    return -2.0 * positive + negative


@dataclass(frozen=True)
class Batch:
    """One draw of the three-way batch sampler.

    ``n`` i.i.d. pairs are drawn from the joint and permuted; each
    consecutive permuted triple contributes one positive pair, one negative
    language sample, and one negative visual sample. Anchor arrays record
    which positive each negative is scored against, so resampling can drop
    entries without losing the pairing. ``extra_pos_*`` hold appended
    weighted positive pairs (empty until a resampling strategy adds some).

    ``n`` stays fixed under resampling; the loss always averages over the
    original n/3 triples, so dropped entries contribute zero instead of
    reweighting the survivors.
    """

    pos_visual: np.ndarray
    pos_language: np.ndarray
    neg_language: np.ndarray
    neg_language_anchor: np.ndarray
    neg_visual: np.ndarray
    neg_visual_anchor: np.ndarray
    permutation: np.ndarray
    n: int
    seed: int | None = None
    extra_pos_visual: np.ndarray = None
    extra_pos_language: np.ndarray = None
    extra_pos_weight: np.ndarray = None

    def __post_init__(self):
        def intarr(name, value):
            a = np.asarray(value if value is not None else [], dtype=int)
            if a.ndim != 1 or (a.size and a.min() < 0):
                raise InvalidSpec(f"{name} must be a 1-d array of non-negative indices")
            object.__setattr__(self, name, a)
            return a

        pv = intarr("pos_visual", self.pos_visual)
        pl = intarr("pos_language", self.pos_language)
        nl = intarr("neg_language", self.neg_language)
        nla = intarr("neg_language_anchor", self.neg_language_anchor)
        nv = intarr("neg_visual", self.neg_visual)
        nva = intarr("neg_visual_anchor", self.neg_visual_anchor)
        ev = intarr("extra_pos_visual", self.extra_pos_visual)
        el = intarr("extra_pos_language", self.extra_pos_language)
        ew = np.asarray(self.extra_pos_weight if self.extra_pos_weight is not None else [], dtype=float)
        if pv.size != pl.size or nl.size != nla.size or nv.size != nva.size:
            raise InvalidSpec("paired batch arrays must have equal lengths")
        if ev.size != el.size or ev.size != ew.size or (ew.size and ew.min() < 0.0):
            raise InvalidSpec("extra positives need matching indices and non-negative weights")
        if self.n <= 0 or self.n % 3 != 0:
            raise InvalidBatchSize(f"batch size must be a positive multiple of 3, got {self.n}")
        if max(pv.size, nl.size, nv.size) > self.n // 3:
            raise InvalidSpec("batch lists cannot exceed the n/3 sampled triples")
        object.__setattr__(self, "extra_pos_weight", ew)
        object.__setattr__(self, "permutation", np.asarray(self.permutation, dtype=int))

    @classmethod
    def _trusted(cls, **fields) -> "Batch":
        """Build from arrays the library made itself, skipping validation:
        every field must be given with the types ``__post_init__`` would
        store."""
        batch = object.__new__(cls)
        batch.__dict__.update(fields)
        return batch

    def _replace(self, **changes) -> "Batch":
        """Trusted counterpart of ``dataclasses.replace``."""
        return Batch._trusted(**{**self.__dict__, **changes})

    @property
    def num_positives(self) -> int:
        return self.pos_visual.size

    @property
    def num_negatives(self) -> int:
        return self.neg_language.size + self.neg_visual.size


_NO_INDICES = np.zeros(0, dtype=int)
_NO_WEIGHTS = np.zeros(0)

#: largest number of float64 entries one stacked array of a chunk holds (1 MiB)
_CHUNK_ENTRIES = 2**17
_MAX_CHUNK_BATCHES = 1000


class BatchSampler:
    """The three-way batch sampler of one joint distribution and batch size.

    The cumulative distribution over the joint's cells is built once. Each
    batch then takes ``n`` uniforms and, unless one is forced, a
    permutation of ``range(n)`` from the caller's generator: the same
    stream ``Generator.choice(size=n, p=...)`` followed by
    ``Generator.permutation(n)`` consumes, so equal generator states give
    identical batches to :func:`sample_batch`.
    """

    def __init__(self, joint: JointDistribution, n: int):
        if n <= 0 or n % 3 != 0:
            raise InvalidBatchSize(f"batch size must be a positive multiple of 3, got {n}")
        cdf = joint.matrix.ravel().cumsum()
        cdf /= cdf[-1]
        self.n = n
        self._cdf = cdf
        self._num_language = joint.num_language

    def _triples(self, cells):
        """(pos_visual, pos_language, neg_language, neg_visual) from permuted
        cells; leading batch axes carry through."""
        nl = self._num_language
        pos = cells[..., 0::3]
        return pos // nl, pos % nl, cells[..., 1::3] % nl, cells[..., 2::3] // nl

    def draw(self, rng, permutation=None) -> Batch:
        """One batch; ``permutation`` (trusted to permute ``range(n)``)
        replaces the drawn one."""
        cells = self._cdf.searchsorted(rng.random(self.n), side="right")
        perm = rng.permutation(self.n) if permutation is None else permutation
        pos_v, pos_l, neg_l, neg_v = self._triples(cells[perm])
        return Batch._trusted(
            pos_visual=pos_v, pos_language=pos_l,
            neg_language=neg_l, neg_language_anchor=pos_v.copy(),
            neg_visual=neg_v, neg_visual_anchor=pos_l.copy(),
            permutation=perm, n=self.n, seed=None,
            extra_pos_visual=_NO_INDICES, extra_pos_language=_NO_INDICES,
            extra_pos_weight=_NO_WEIGHTS,
        )

    def draw_chunk(self, rng, count: int):
        """The triple lists of ``count`` consecutive batches as
        ``(count, n/3)`` arrays, in the order ``draw`` would make them."""
        uniforms = np.empty((count, self.n))
        perms = np.empty((count, self.n), dtype=int)
        for row in range(count):
            rng.random(out=uniforms[row])
            perms[row] = rng.permutation(self.n)
        cells = self._cdf.searchsorted(uniforms, side="right")
        return self._triples(np.take_along_axis(cells, perms, axis=1))


def sample_batch(joint: JointDistribution, n: int, seed=None, permutation=None) -> Batch:
    """Draw ``n`` i.i.d. pairs from the joint, permute, and slice into
    positives / negative-language / negative-visual triples.

    1-based draw i of triple j is: positive pair from permuted slot 3j-2,
    negative language from 3j-1, negative visual from 3j. ``permutation``
    can be forced for tests; by default it is drawn from the same seeded
    generator as the pairs. Loops over many batches should build one
    :class:`BatchSampler` instead.
    """
    sampler = BatchSampler(joint, n)
    if permutation is not None:
        permutation = np.asarray(permutation, dtype=int)
        if not np.array_equal(np.sort(permutation), np.arange(n)):
            raise InvalidSpec("permutation must be a rearrangement of range(n)")
    batch = sampler.draw(default_rng(seed), permutation)
    return batch._replace(seed=seed if isinstance(seed, (int, np.integer)) else None)


def _row_dots(a, b):
    """Row-wise dot products, summed along the last axis so that leading
    batch axes leave each product's arithmetic unchanged."""
    return (a * b).sum(axis=-1)


def _spectral_terms(s_pos, s_neg_language, s_neg_visual, triples: int):
    """Positive and negative terms of the sampled loss from the three score
    lists, reduced along the last axis: one value per batch."""
    loss = -2.0 * s_pos.sum(axis=-1) / triples
    loss = loss + 0.5 * (s_neg_language**2).sum(axis=-1) / triples
    return loss + 0.5 * (s_neg_visual**2).sum(axis=-1) / triples


def _scored_pairs(batch: Batch):
    """Visual and language indices of every pair a batch scores, in four
    segments: positives, negative captions, negative images, extra
    positives."""
    visual = np.concatenate([batch.pos_visual, batch.neg_language_anchor,
                             batch.neg_visual, batch.extra_pos_visual])
    language = np.concatenate([batch.pos_language, batch.neg_language,
                               batch.neg_visual_anchor, batch.extra_pos_language])
    return visual, language


def _segments(values, batch: Batch):
    i = batch.pos_visual.size
    j = i + batch.neg_language.size
    k = j + batch.neg_visual.size
    return values[:i], values[i:j], values[j:k], values[k:]


def _batch_loss(batch: Batch, s_pos, s_neg_language, s_neg_visual, s_extra) -> float:
    loss = _spectral_terms(s_pos, s_neg_language, s_neg_visual, batch.n // 3)
    if s_extra.size:
        loss += -2.0 * (batch.extra_pos_weight * s_extra).sum() / s_extra.size
    return float(loss)


def empirical_scl(f_visual, f_language, batch: Batch) -> float:
    """Sampled spectral contrastive loss on one batch.

    The positive term is -2 times the mean positive score; the two
    quadratic negative sums are averaged (weight 1/2 each) so that the
    expectation over batches equals ``scl_loss`` exactly. All three terms
    divide by the original triple count n/3, never by the current list
    sizes, so entries removed by a resampling strategy contribute zero.
    Appended extra positives contribute their own weighted
    -2 * mean(score) term.
    """
    fv, fl = _features(f_visual), _features(f_language)
    visual, language = _scored_pairs(batch)
    return _batch_loss(batch, *_segments(_row_dots(fv[visual], fl[language]), batch))


def empirical_scl_batches(f_visual, f_language, sampler: BatchSampler, rng, count: int) -> np.ndarray:
    """:func:`empirical_scl` of ``count`` consecutive batches drawn from
    ``sampler`` with ``rng``, bit for bit, evaluated a chunk of batches at a
    time without building any ``Batch``."""
    fv, fl = _features(f_visual), _features(f_language)
    losses = np.empty(count)
    chunk = max(1, min(_MAX_CHUNK_BATCHES, _CHUNK_ENTRIES // (sampler.n * max(fv.shape[1], 1))))
    for start in range(0, count, chunk):
        pos_v, pos_l, neg_l, neg_v = sampler.draw_chunk(rng, min(chunk, count - start))
        losses[start:start + pos_v.shape[0]] = _spectral_terms(
            _row_dots(fv[pos_v], fl[pos_l]), _row_dots(fv[pos_v], fl[neg_l]),
            _row_dots(fv[neg_v], fl[pos_l]), sampler.n // 3)
    return losses


def empirical_scl_grad(f_visual, f_language, batch: Batch):
    """Value and analytic gradients of :func:`empirical_scl` with respect
    to both feature tables. Returns (loss, grad_visual, grad_language)."""
    fv, fl = _features(f_visual), _features(f_language)
    visual, language = _scored_pairs(batch)
    rows_v, rows_l = fv[visual], fl[language]
    scores = _segments(_row_dots(rows_v, rows_l), batch)
    s_pos, s_neg_language, s_neg_visual, s_extra = scores
    triples = batch.n // 3
    # d loss / d score of each scored pair; the pair (v, l) then moves row v
    # of the visual table along fl[l] and row l of the language table along
    # fv[v]. np.add.at accumulates in pair order.
    slope = np.concatenate([
        np.full(s_pos.size, -2.0 / triples), s_neg_language / triples, s_neg_visual / triples,
        -2.0 * batch.extra_pos_weight / max(s_extra.size, 1),
    ])[:, None]
    gv, gl = np.zeros_like(fv), np.zeros_like(fl)
    np.add.at(gv, visual, slope * rows_l)
    np.add.at(gl, language, slope * rows_v)
    return _batch_loss(batch, *scores), gv, gl


def scl_grad(f_visual, f_language, joint: JointDistribution):
    """Analytic gradients of :func:`scl_loss` with respect to both feature
    tables. Returns (loss, grad_visual, grad_language)."""
    fv, fl = _features(f_visual), _features(f_language)
    p = joint.matrix
    pv, pl = joint.marginal_visual, joint.marginal_language
    scores = fv @ fl.T
    loss = -2.0 * float(np.sum(p * scores)) + float(pv @ (scores**2) @ pl)
    weighted = pv[:, None] * scores * pl[None, :]
    gv = -2.0 * (p @ fl) + 2.0 * (weighted @ fl)
    gl = -2.0 * (p.T @ fv) + 2.0 * (weighted.T @ fv)
    return loss, gv, gl


def uni_scl_grad(f, induced, marginal_visual=None):
    """Analytic gradient of :func:`uni_scl_loss` for a shared feature
    table. Returns (loss, grad)."""
    feats = _features(f)
    m = _matrix_of(induced)
    pv = m.sum(axis=1) if marginal_visual is None else np.asarray(marginal_visual, dtype=float)
    scores = feats @ feats.T
    loss = -2.0 * float(np.sum(m * scores)) + float(pv @ (scores**2) @ pv)
    weighted = pv[:, None] * scores * pv[None, :]
    grad = -4.0 * (m @ feats) + 4.0 * (weighted @ feats)
    return loss, grad


def append_loss_record(path, instance_id: str, loss_name: str, value: float, seed=None) -> None:
    """Append one loss evaluation to a CSV log, writing the header first if
    the file does not exist yet."""
    path = Path(path)
    fresh = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["instance_id", "loss_name", "value", "seed"])
        writer.writerow([instance_id, loss_name, repr(float(value)), "" if seed is None else seed])


__all__ = [
    "EncoderTable", "Batch", "BatchSampler", "sce_loss", "scl_loss", "amf_loss",
    "equivalence_constant", "uni_scl_loss", "sample_batch", "empirical_scl",
    "empirical_scl_batches", "empirical_scl_grad", "scl_grad", "uni_scl_grad", "append_loss_record",
]
