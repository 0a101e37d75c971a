"""Contrastive losses, exact and sampled.

Population losses are computed as exact weighted sums over the finite
sample sets, never by Monte-Carlo. The batch sampler and the empirical
loss are the one intentionally stochastic pair: the sampler draws i.i.d.
positive pairs and splits a permutation of them into positive /
negative-caption / negative-image triples, and the empirical loss averages
the two quadratic negative sums so that its expectation over batches is
exactly the population loss.

Every sampled path draws through the one draw loop of ``BatchSampler``
and scores its batches with one loss helper (``_triple_losses``) within
one ``_CHUNK_ENTRIES`` budget, so the single-batch loss, its gradient
form and the many-batch loss of the same batches agree bit for bit. The
loop has two streams. On the training stream
(``BatchSampler.draw_chunk``, ``sample_batch`` and every training run) a
batch's draw is its ``n`` uniforms, shuffled in place: the permutation
``Generator.permutation(n)`` would draw, with no index array. Training
keeps it: the gates pass on their seeds with these draws, and without
the shuffle resample-compare fails criterion 09 at base seed 0. The
loss-only Monte Carlo (``empirical_scl_batches``) takes a block's
uniforms in one call and shuffles none: a batch's ``n`` draws are
i.i.d., so reordering them changes no loss's distribution. A uniform's
cell is the count of cdf entries at or below it: found in an exact bin
table by a run of at least one draw per bin on a joint of at most
``_CHUNK_ENTRIES / 16`` cells, by a search of the cdf otherwise, with
the same cells either way (see :class:`BatchSampler`). Batches that are
scored one at a time or trained on are laid out as ``_Plan`` rows (a
``Batch`` is one row); a plan scores itself from its own splits, weights
and batch size, once per distinct caption/image split. The many-batch
loss builds no plan: it scores each draw block straight from its cells,
looking each pair's score up in one flat table of every cell's score
(``_cell_scores``) by cell arithmetic. That table is built a block of
rows at a time in the arithmetic of a batch's gather (``_row_dots``);
the teacher similarity table of ``train`` is the same helper's.
Gradients (``_PlanGrads``) work on one stacked table, the language rows
after the visual rows or one table shared by both sides: a batch is one
gather and one ``np.bincount`` scatter, and keeps its scores for
``_Plan.losses``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, default_rng

from .distributions import (JointDistribution, NormalizedCooccurrence, _choice, _class_indices, _instance, _integer,
                            _matrix_of, _reals)
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
        m = _reals("encoder table", self.matrix, 2)
        if m.shape[1] < 1:
            raise InvalidSpec("encoder table must be 2-d with k >= 1")
        _choice("side", self.side, ENCODER_SIDES)
        object.__setattr__(self, "matrix", m)

    @property
    def num_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def factor(self, marginal) -> np.ndarray:
        """Rows scaled by sqrt(marginal): F(x) = sqrt(p(x)) * f(x)."""
        p = _reals("marginal", marginal, 1)
        if p.shape != (self.num_samples,) or np.any(p < 0.0):
            raise InvalidSpec("marginal must be a finite non-negative vector matching the table")
        return self.matrix * np.sqrt(p)[:, None]


def scl_loss(f_visual, f_language, joint: JointDistribution) -> float:
    """Multi-modal spectral contrastive loss, exact population value:
    -2 E_pos[f_V.f_L] + E_{independent}[(f_V.f_L)^2].

    With one table on both sides of a symmetric joint, such as an
    :class:`~mmspectral.distributions.InducedDistribution`, this is the
    uni-modal spectral contrastive loss."""
    fv, fl = _matrix_of("f_visual", f_visual, EncoderTable), _matrix_of("f_language", f_language, EncoderTable)
    joint = _instance("joint", joint, JointDistribution)
    p = joint.matrix
    pv, pl = joint.marginal_visual, joint.marginal_language
    scores = fv @ fl.T
    positive = float(np.sum(p * scores))
    negative = float(pv @ (scores**2) @ pl)
    return -2.0 * positive + negative


def amf_loss(factor_visual, factor_language, normalized) -> float:
    """Squared Frobenius residual of the asymmetric factorization:
    ``|| P_norm - F_V F_L^T ||_F^2``, on bare factors (:meth:`EncoderTable.factor`)."""
    resid = (_matrix_of("normalized", normalized, NormalizedCooccurrence)
             - _reals("factor_visual", factor_visual, 2) @ _reals("factor_language", factor_language, 2).T)
    return float(np.sum(resid * resid))


def equivalence_constant(normalized) -> float:
    """Squared Frobenius norm of the normalized co-occurrence matrix: the
    constant separating the factorization residual from the contrastive
    loss. Equals the sum of squared singular values."""
    target = _matrix_of("normalized", normalized, NormalizedCooccurrence)
    return float(np.sum(target * target))


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
    n: int
    extra_pos_visual: np.ndarray = None
    extra_pos_language: np.ndarray = None
    extra_pos_weight: np.ndarray = None

    def __post_init__(self):
        def intarr(name, value):
            a = _class_indices(name, value if value is not None else [])
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
        ew = _reals("extra_pos_weight", self.extra_pos_weight if self.extra_pos_weight is not None else [], 1)
        if pv.size != pl.size or nl.size != nla.size or nv.size != nva.size:
            raise InvalidSpec("paired batch arrays must have equal lengths")
        if ev.size != el.size or ev.size != ew.size or (ew.size and ew.min() < 0.0):
            raise InvalidSpec("extra positives need matching indices and non-negative weights")
        object.__setattr__(self, "n", _batch_size(self.n))
        if max(pv.size, nl.size, nv.size) > self.n // 3:
            raise InvalidSpec("batch lists cannot exceed the n/3 sampled triples")
        object.__setattr__(self, "extra_pos_weight", ew)

    @property
    def num_positives(self) -> int:
        return self.pos_visual.size

    @property
    def num_negatives(self) -> int:
        return self.neg_language.size + self.neg_visual.size


def _batch_size(n) -> int:
    """``n`` as an int under the one batch-size rule: a positive multiple
    of 3; anything else is an InvalidBatchSize."""
    try:
        if (size := _integer("batch size", n, 1)) % 3 == 0:
            return size
    except InvalidSpec:
        pass
    raise InvalidBatchSize(f"batch size must be a positive multiple of 3, got {n!r}")


#: largest number of entries one array of a draw block or a Monte-Carlo
#: score block (``// n`` batches), a bin table or a training plan chunk
#: (``// (n * k)`` batches) holds, but for ``_PlanGrads.flat``: 2k entries per scored pair, so 15,600 in a
#: resample-compare chunk and 20,800 with AddNewPositive's extra positives
_CHUNK_ENTRIES = 2**13


class BatchSampler:
    """The three-way batch sampler of one joint distribution and batch size.

    The cumulative distribution over the joint's cells is built once. On
    the training stream (:meth:`draw_chunk`) each batch then takes ``n``
    uniforms from the caller's generator and shuffles them in place: the
    same stream ``Generator.choice(size=n, p=...)`` followed by
    ``Generator.permutation(n)`` consumes, so equal generator states give
    identical batches to :func:`sample_batch`. Training draws on it, so
    its runs, and the gates they pass, keep their draws. On the
    Monte-Carlo stream (:func:`empirical_scl_batches`) a block of batches
    takes its uniforms in one call, unshuffled: the cells of
    ``Generator.choice(size=(count, n), p=...)``. A batch's draws are
    i.i.d., so the shuffle changes no loss's distribution there.

    A uniform's cell is the number of cdf entries at or below it. A run of
    at least one draw per bin on a joint whose bin table fits the chunk
    budget finds it in a bin table, built on first use: ``bins``, the power
    of two at or above 16 per cell, splits [0, 1) into equal bins, so
    ``u * bins`` is exact and its integer part is the bin holding ``u``.
    Each bin stores the cell of its left edge or, when a cdf entry lies
    strictly between its edges, the cell count as a flag, so a lookup is
    one ``take`` and one compare. A uniform in a bin with no entry has its
    bin's cell, as no entry lies between the left edge and it; only the
    uniforms of flagged bins (at most one bin in 16) are searched. Every
    cell is the search's, so the choice changes no draw.

    Both streams come out of one draw loop, :meth:`_cell_blocks`, as blocks
    of ``_CHUNK_ENTRIES // n`` batches' cells: :meth:`draw_chunk` splits
    each block into its triple lists, :func:`empirical_scl_batches` scores
    it by cell arithmetic (:meth:`_pair_cells`).
    """

    def __init__(self, joint: JointDistribution, n: int):
        self.n = _batch_size(n)
        joint = _instance("joint", joint, JointDistribution)
        cdf = joint.matrix.ravel().cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._bins = 1 << (16 * cdf.size - 1).bit_length()
        self._num_language = joint.num_language
        self._dtype = np.min_scalar_type(max(joint.matrix.shape))  # small: a run holds them all

    @cached_property
    def _bin_table(self):
        """Per bin ``[b, b + 1) / bins``: the cell of its left edge, or the
        cell count, a flag, when a cdf entry lies strictly between its
        edges. Index-sized, so the cells it gives index without a cast."""
        edges = np.arange(self._bins + 1) / self._bins
        left = self._cdf.searchsorted(edges[:-1], side="right")
        left[left != self._cdf.searchsorted(edges[1:], side="left")] = self._cdf.size
        return left

    @cached_property
    def _cell_rows(self):
        """Per cell ``c = v * nl + l``, in the smallest dtype: ``vis(c) =
        v * nl``, its visual row's first cell, and ``lang(c) = l``."""
        nl = self._num_language
        dtype = np.min_scalar_type(self._cdf.size - 1)
        nv = self._cdf.size // nl
        return (np.repeat((np.arange(nv) * nl).astype(dtype), nl),
                np.tile(np.arange(nl).astype(dtype), nv))

    def _pair_cells(self, cells):
        """The cells of the pairs a ``(rows, n)`` block of draws scores, in
        place of its ``cells``. With ``lang(c) = c % nl`` and ``vis(c) = c -
        lang(c)``, triple (c0, c1, c2) scores its positive at c0, its
        caption negative at ``vis(c0) + lang(c1)`` and its image negative
        at ``vis(c2) + lang(c0)``, in columns ``_TRIPLE_COLUMNS``."""
        vis, lang = self._cell_rows
        v, l = vis.take(cells), lang.take(cells)
        np.add(v[:, 0::3], l[:, 1::3], out=cells[:, 1::3])
        np.add(v[:, 2::3], l[:, 0::3], out=cells[:, 2::3])
        return cells

    def _table_cells(self, uniforms):
        """The cell of each uniform in [0, 1) from the bin table: a lookup,
        then a search of the uniforms whose bin holds a cdf entry."""
        cells = self._bin_table.take((uniforms * self._bins).astype(np.intp))
        searched = np.flatnonzero(cells == self._cdf.size)
        cells.put(searched, self._cdf.searchsorted(uniforms.take(searched), side="right"))
        return cells

    def draw(self, rng) -> Batch:
        """One batch: the one-row case of :meth:`draw_chunk`."""
        return _Plan.of_triples(*self.draw_chunk(rng, 1)).as_batch()

    def draw_chunk(self, rng, count: int):
        """The (pos_visual, pos_language, neg_language, neg_visual) lists of
        ``count`` consecutive batches, in read-only ``(count, n/3)`` arrays
        of the smallest index dtype, on the training stream: the slot
        rule of :func:`sample_batch`, each batch's uniforms shuffled."""
        count = _integer("batch count", count, 0)
        rng = _instance("rng", rng, Generator)
        nl = self._num_language
        draws = tuple(np.empty((count, self.n // 3), dtype=self._dtype) for _ in range(4))
        for batches, cells in self._cell_blocks(rng, count, shuffled=True):
            pos = cells[:, 0::3]
            for out, part in zip(draws, (pos // nl, pos % nl, cells[:, 1::3] % nl, cells[:, 2::3] // nl)):
                out[batches] = part
        for out in draws:
            out.setflags(write=False)
        return draws

    def _cell_blocks(self, rng: Generator, count: int, shuffled: bool):
        """Yield ``(batches, cells)``, a slice of ``count`` consecutive
        batches and their ``(rows, n)`` cells, ``_CHUNK_ENTRIES // n``
        batches at a time: through the bin table when it holds at most
        ``_CHUNK_ENTRIES`` bins and the run draws at least one uniform per
        bin, by a search otherwise. Shuffled, each batch's uniforms are
        drawn and shuffled in place (the training stream); unshuffled, a
        block's uniforms come in one call, so batch b takes uniforms
        ``[b*n, (b+1)*n)`` whatever the block size (the Monte-Carlo
        stream)."""
        table = self._bins <= _CHUNK_ENTRIES and count * self.n >= self._bins
        block = max(1, _CHUNK_ENTRIES // self.n)
        uniforms = np.empty((min(block, count), self.n))
        random, shuffle = rng.random, rng.shuffle
        for start in range(0, count, block):
            u = uniforms[:count - start]
            if shuffled:
                for row in u:
                    random(out=row)
                    shuffle(row)  # swaps that depend on n and the stream alone
            else:
                random(out=u)
            cells = self._table_cells(u) if table else self._cdf.searchsorted(u, side="right")
            yield slice(start, start + block), cells


def sample_batch(joint: JointDistribution, n: int, seed=None) -> Batch:
    """Draw ``n`` i.i.d. pairs from the joint, permute, and slice into
    positives / negative-language / negative-visual triples.

    1-based draw i of triple j is: positive pair from permuted slot 3j-2,
    negative language from 3j-1, negative visual from 3j, the permutation
    being drawn from the same seeded generator as the pairs. This is
    ``BatchSampler(joint, n).draw(default_rng(seed))``; loops over many
    batches should build one :class:`BatchSampler` instead. ``seed`` is
    None, an integer >= 0 or a ``Generator``, which the draw advances.
    """
    if not (seed is None or isinstance(seed, Generator)):
        seed = _integer("seed", seed, 0)
    return BatchSampler(joint, n).draw(default_rng(seed))


def _row_dots(a, b, out=None):
    """Row-wise dot products, summed along the last axis so that leading
    batch axes leave each product's arithmetic unchanged."""
    return np.add.reduce(a * b, axis=-1, out=out)


def _cell_scores(f_visual: np.ndarray, f_language: np.ndarray) -> np.ndarray:
    """The ``(num_visual, num_language)`` table of every cell's score,
    ``_row_dots(f_visual[v], f_language[l])`` bit for bit, built a block
    of visual rows at a time so that no product holds more than
    ``_CHUNK_ENTRIES`` entries (one row's at least)."""
    (num_visual, k), num_language = f_visual.shape, f_language.shape[0]
    table = np.empty((num_visual, num_language))
    block = max(1, _CHUNK_ENTRIES // max(num_language * k, 1))
    for start in range(0, num_visual, block):
        rows = slice(start, start + block)
        _row_dots(f_visual[rows, None], f_language, out=table[rows])
    return table


class _Plan(NamedTuple):
    """Consecutive batches as rectangular arrays, one row per batch.

    Row s lists every pair batch s scores, ``visual[s]`` against
    ``language[s]``: positives in columns ``[0, positives)``, caption
    negatives (anchor image, negative caption) in ``[positives,
    split[s])``, image negatives (negative image, anchor caption) in
    ``[split[s], negatives_end)`` and extra positives, weighted by
    ``weight[s]``, in the rest. Only the caption/image split varies between
    rows: a resampling strategy drops the same number of entries from
    every batch of a run.
    """

    visual: np.ndarray
    language: np.ndarray
    weight: np.ndarray
    positives: int
    split: np.ndarray
    negatives_end: int
    n: int

    @classmethod
    def of_batch(cls, batch: Batch) -> "_Plan":
        """The one-row plan of a batch."""
        batch = _instance("batch", batch, Batch)
        split = batch.pos_visual.size + batch.neg_language.size
        visual = np.concatenate([batch.pos_visual, batch.neg_language_anchor,
                                 batch.neg_visual, batch.extra_pos_visual])
        language = np.concatenate([batch.pos_language, batch.neg_language,
                                   batch.neg_visual_anchor, batch.extra_pos_language])
        return cls(visual[None], language[None], batch.extra_pos_weight[None],
                   batch.pos_visual.size, np.array([split]), split + batch.neg_visual.size, batch.n)

    @classmethod
    def of_triples(cls, pos_visual, pos_language, neg_language, neg_visual) -> "_Plan":
        """The plan of freshly drawn batches, from their ``(rows, n/3)``
        triple lists as :meth:`BatchSampler.draw_chunk` returns them."""
        rows, triples = pos_visual.shape
        return cls(np.concatenate([pos_visual, pos_visual, neg_visual], axis=1, dtype=int),
                   np.concatenate([pos_language, neg_language, pos_language], axis=1, dtype=int),
                   np.zeros((rows, 0)), triples, np.full(rows, 2 * triples), 3 * triples, 3 * triples)

    @classmethod
    def chunks(cls, draws, width: int):
        """Yield ``(batches, plan)``, a slice of the batches ``draws`` holds
        and its plan, ``_CHUNK_ENTRIES // (n * width)`` batches of ``n``
        draws at a time: the chunk rule of every training run, ``width``
        being the entries per draw of the caller's widest per-chunk array
        (``k`` for training's scatter indices)."""
        chunk = max(1, _CHUNK_ENTRIES // (3 * draws[0].shape[1] * max(width, 1)))
        for start in range(0, draws[0].shape[0], chunk):
            batches = slice(start, start + chunk)
            yield batches, cls.of_triples(*(d[batches] for d in draws))

    def as_batch(self) -> Batch:
        """The batch of row 0: the inverse of :meth:`of_batch`."""
        p, j, q = self.positives, self.split[0], self.negatives_end
        visual, language = self.visual[0], self.language[0]
        return Batch(
            pos_visual=visual[:p], pos_language=language[:p],
            neg_language=language[p:j], neg_language_anchor=visual[p:j],
            neg_visual=visual[j:q], neg_visual_anchor=language[j:q], n=self.n,
            extra_pos_visual=visual[q:], extra_pos_language=language[q:],
            extra_pos_weight=self.weight[0],
        )

    def losses(self, scores) -> np.ndarray:
        """:func:`empirical_scl` of every batch from its pairs' ``scores``,
        one row per plan row: evaluated once per distinct caption/image
        split, on the whole array when all rows share one."""
        p, q, triples, width = self.positives, self.negatives_end, self.n // 3, scores.shape[1]
        out = np.empty(scores.shape[0])
        splits = set(self.split.tolist())
        for split in splits:
            rows = self.split == split if len(splits) > 1 else slice(None)
            s = scores[rows]
            loss = _triple_losses(s, slice(p), slice(p, split), slice(split, q), triples)
            if width > q:
                loss = loss - 2.0 * (self.weight[rows] * s[:, q:]).sum(axis=-1) / (width - q)
            out[rows] = loss
        return out


#: the column slices of a draw block's positives, caption negatives and
#: image negatives: a triple's draws are consecutive
_TRIPLE_COLUMNS = (slice(0, None, 3), slice(1, None, 3), slice(2, None, 3))


def _triple_losses(scores, positive, caption, image, triples: int) -> np.ndarray:
    """The positive and negative terms of :func:`empirical_scl`, one per
    row of ``scores``, whose column slices ``positive``, ``caption`` and
    ``image`` hold the scores of its positives, caption negatives and
    image negatives; ``triples`` is the batch's n/3."""
    loss = -2.0 * scores[:, positive].sum(axis=-1) / triples
    loss = loss + 0.5 * (scores[:, caption]**2).sum(axis=-1) / triples
    return loss + 0.5 * (scores[:, image]**2).sum(axis=-1) / triples


class _PlanGrads:
    """:func:`empirical_scl_grad` of each batch of a plan on one stacked
    table, with the gather and scatter indices and the constant slopes of
    every batch prepared at once.

    The table holds ``num_visual`` visual rows, then ``num_language``
    language rows, or is one table ``shared`` by both sides. The pair
    (v, l) moves visual row v along fl[l] and language row l along fv[v],
    scaled by d loss / d score. A batch gathers its pairs' visual rows,
    then their language rows, with one ``take``, scales both by the
    slopes with one multiply and sums every move with one ``np.bincount``
    over flat entry indices, gathered out of an ``arange`` table. The
    bincount adds each entry's moves to zero one at a time in pair order;
    its output holds the visual gradient, then the language gradient.
    Each batch keeps its scores in ``scores``, for :meth:`_Plan.losses`.
    """

    def __init__(self, plan: _Plan, k: int, num_visual: int, num_language: int, shared: bool = False):
        rows, width = plan.visual.shape
        self.plan, self.width, self.k, self.shared = plan, width, k, shared
        self.gather = np.concatenate([plan.visual, plan.language + (0 if shared else num_visual)], axis=1)
        # a gathered visual row moves its pair's language row, and the other way round
        targets = np.concatenate([plan.language + num_visual, plan.visual], axis=1)
        entries = np.arange((num_visual + num_language) * k).reshape(-1, k)
        self.flat = entries.take(targets, axis=0).reshape(rows, 2 * width * k)
        self.size = entries.size
        # positives and extra positives have constant slopes; each batch
        # writes the slopes of its negatives, score / (n/3), in between
        self.slope = np.zeros((rows, width))
        self.slope[:, :plan.positives] = -2.0 / (plan.n // 3)
        if width > plan.negatives_end:
            self.slope[:, plan.negatives_end:] = -2.0 * plan.weight / (width - plan.negatives_end)
        self.scores = np.empty((rows, width))

    def __call__(self, row: int, table):
        """The gradient of batch ``row`` on ``table``, flat: the visual
        gradient's entries, then the language gradient's."""
        width, plan = self.width, self.plan
        if not width:  # bincount gives integer zeros for no input
            return np.zeros(self.size)
        pairs = table.take(self.gather[row], axis=0)
        scores = _row_dots(pairs[:width], pairs[width:], out=self.scores[row])
        slope = self.slope[row]
        p, q = plan.positives, plan.negatives_end
        np.divide(scores[p:q], plan.n // 3, out=slope[p:q])
        moves = pairs.reshape(2, width, self.k) * slope[:, None]
        return np.bincount(self.flat[row], moves.ravel(), self.size)

    def step(self, row: int, table, rate: float) -> None:
        """One SGD step along batch ``row``'s gradient, on ``table`` in place."""
        grad = self(row, table)
        if self.shared:  # a shared table takes both sides, gv + gl
            grad = grad[:table.size] + grad[table.size:]
        grad *= rate
        table -= grad.reshape(table.shape)


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
    fv, fl = _matrix_of("f_visual", f_visual, EncoderTable), _matrix_of("f_language", f_language, EncoderTable)
    plan = _Plan.of_batch(batch)
    return float(plan.losses(_row_dots(fv[plan.visual], fl[plan.language]))[0])


def empirical_scl_batches(f_visual, f_language, sampler: BatchSampler, rng, count: int) -> np.ndarray:
    """:func:`empirical_scl` of ``count`` consecutive batches drawn from
    ``sampler`` with ``rng``, bit for bit, scored a draw block at a time
    without building any ``Batch`` or plan: every cell's score is computed
    once (:func:`_cell_scores`) and each scored pair's is looked up by cell
    arithmetic (:meth:`BatchSampler._pair_cells`).

    The batches are the Monte-Carlo stream's, unshuffled: batch b's cells
    are row b of ``rng.choice(cells, size=(count, n), p=...)``, sliced
    into triples as :func:`sample_batch` slices its permuted draws. A
    batch's draws are i.i.d., so their order changes no loss's
    distribution; the training stream keeps its shuffle (see
    :class:`BatchSampler`)."""
    fv, fl = _matrix_of("f_visual", f_visual, EncoderTable), _matrix_of("f_language", f_language, EncoderTable)
    sampler = _instance("sampler", sampler, BatchSampler)
    count = _integer("batch count", count, 0)
    rng = _instance("rng", rng, Generator)
    table = _cell_scores(fv, fl).ravel()
    losses = np.empty(count)
    for batches, cells in sampler._cell_blocks(rng, count, shuffled=False):
        losses[batches] = _triple_losses(table.take(sampler._pair_cells(cells)), *_TRIPLE_COLUMNS, sampler.n // 3)
    return losses


def empirical_scl_grad(f_visual, f_language, batch: Batch):
    """Value and analytic gradients of :func:`empirical_scl` with respect
    to both feature tables. Returns (loss, grad_visual, grad_language)."""
    fv, fl = _matrix_of("f_visual", f_visual, EncoderTable), _matrix_of("f_language", f_language, EncoderTable)
    plan = _Plan.of_batch(batch)
    grads = _PlanGrads(plan, fv.shape[1], fv.shape[0], fl.shape[0])
    flat = grads(0, np.concatenate([fv, fl]))
    return float(plan.losses(grads.scores)[0]), flat[:fv.size].reshape(fv.shape), flat[fv.size:].reshape(fl.shape)


def scl_grad(f_visual, f_language, joint: JointDistribution):
    """Analytic gradients of :func:`scl_loss` with respect to both feature
    tables. Returns (loss, grad_visual, grad_language). For one table
    shared by both sides, its gradient is ``grad_visual + grad_language``."""
    fv, fl = _matrix_of("f_visual", f_visual, EncoderTable), _matrix_of("f_language", f_language, EncoderTable)
    joint = _instance("joint", joint, JointDistribution)
    p = joint.matrix
    pv, pl = joint.marginal_visual, joint.marginal_language
    scores = fv @ fl.T
    weighted = pv[:, None] * scores * pl[None, :]
    gv = -2.0 * (p @ fl) + 2.0 * (weighted @ fl)
    gl = -2.0 * (p.T @ fv) + 2.0 * (weighted.T @ fv)
    return scl_loss(f_visual, f_language, joint), gv, gl


__all__ = [
    "EncoderTable", "Batch", "BatchSampler", "scl_loss", "amf_loss",
    "equivalence_constant", "sample_batch", "empirical_scl",
    "empirical_scl_batches", "empirical_scl_grad", "scl_grad",
]
