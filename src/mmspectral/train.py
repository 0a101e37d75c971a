"""Gradient-descent training of tabular encoders on the spectral losses,
and the four teacher-guided batch resampling strategies.

Population mode optimizes the factor matrices (sqrt-marginal scaled
features) by full-batch gradient descent with a halve-on-increase step
rule, so accepted loss histories are monotone after the first step.
Sampled mode runs SGD over three-way batches; resampling strategies, when
configured, rewrite each batch before its gradient step. One core trains
both encoder kinds: SSCL is its one-table case, a single encoder shared by
both sides of the symmetric induced joint.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .distributions import InducedDistribution, JointDistribution, normalize_cooccurrence
from .errors import DidNotConverge, EmptyCandidates, InvalidSpec, TeacherMissing
from .evaluation import _unit_rows
from .losses import Batch, BatchSampler, EncoderTable, _scored_pairs, empirical_scl_grad
from .losses import sample_batch  # noqa: F401  (perfbench's tracer test looks it up here)
from .spectral import _warn_if_degenerate, decompose

STRATEGIES = ("AddNewPositive", "DropFalsePositive", "DropFalseNegative", "DropEasyNegative")

#: spec'd default ratios: drop 10% falsest positives, 5% likeliest false
#: negatives, 10% easiest negatives; AddNewPositive is governed by weight
DEFAULT_RATIOS = {
    "AddNewPositive": 0.0,
    "DropFalsePositive": 0.10,
    "DropFalseNegative": 0.05,
    "DropEasyNegative": 0.10,
}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    ``batch_mode`` is "population" (full-gradient on the exact loss) or
    "sampled" (SGD over batches of ``batch_size`` draws). In population
    mode the optimum of the loss is known in closed form, and ``tolerance``
    is the accepted gap to it: training stops converged once
    loss <= optimum + tolerance. Sampled mode always runs ``max_steps``.
    """

    dim: int
    learning_rate: float = 0.2
    max_steps: int = 20000
    tolerance: float = 1e-6
    batch_mode: str = "population"
    batch_size: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidSpec("embedding dimension must be >= 1")
        if self.learning_rate <= 0.0:
            raise InvalidSpec("learning rate must be positive")
        if self.tolerance <= 0.0:
            raise InvalidSpec("tolerance must be positive")
        if self.max_steps < 1:
            raise InvalidSpec("max_steps must be >= 1")
        if self.batch_mode not in ("population", "sampled"):
            raise InvalidSpec('batch_mode must be "population" or "sampled"')


@dataclass(frozen=True)
class ResampleConfig:
    """One teacher-guided strategy with its ratio and mixing weight.

    ``ratio`` is the dropped fraction for the three drop strategies
    (defaults follow DEFAULT_RATIOS); ``mixing_weight`` scales the loss
    term of positives appended by AddNewPositive.
    """

    strategy: str
    ratio: float = None
    mixing_weight: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidSpec(f"strategy must be one of {STRATEGIES}")
        ratio = DEFAULT_RATIOS[self.strategy] if self.ratio is None else float(self.ratio)
        if not 0.0 <= ratio <= 1.0:
            raise InvalidSpec("ratio must lie in [0, 1]")
        if self.mixing_weight < 0.0:
            raise InvalidSpec("mixing weight must be >= 0")
        object.__setattr__(self, "ratio", ratio)


@dataclass(frozen=True)
class LossHistory:
    """Loss trajectory of a run plus the convergence flag."""

    losses: np.ndarray
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))

    @property
    def final(self) -> float:
        return float(self.losses[-1])

    def __len__(self):
        return self.losses.size

    def __iter__(self):
        return iter(self.losses)


def _population_descent(init_factors, loss_and_grads, cfg: TrainConfig, optimum: float):
    """Full-batch descent with halve-on-increase step control.

    ``loss_and_grads(factors)`` returns (loss, [gradients]). Steps that
    would raise the loss are rejected and retried with half the rate, so
    the recorded history never increases after the initial point. Stops
    converged when the loss is within cfg.tolerance of ``optimum``; a
    DidNotConverge warning flags runs that stall above it, and the
    best-so-far factors are returned either way.
    """
    factors = [f.copy() for f in init_factors]
    loss, grads = loss_and_grads(factors)
    history = [loss]
    rate = cfg.learning_rate
    converged = loss <= optimum + cfg.tolerance
    steps = 0
    while not converged and steps < cfg.max_steps:
        steps += 1
        candidate = [f - rate * g for f, g in zip(factors, grads)]
        new_loss, new_grads = loss_and_grads(candidate)
        if not np.isfinite(new_loss) or new_loss > loss:
            rate *= 0.5
            if rate < 1e-300:
                break  # stalled at machine precision
            continue
        factors, grads, loss = candidate, new_grads, new_loss
        history.append(loss)
        converged = loss <= optimum + cfg.tolerance
    if not converged:
        warnings.warn(
            f"stopped {loss - optimum!r} above the optimum (tolerance {cfg.tolerance!r})",
            DidNotConverge,
        )
    return factors, LossHistory(np.array(history), converged)


def _sgd(init_factors, batch_grads, cfg: TrainConfig):
    """Plain SGD; history records per-batch losses (noisy by nature)."""
    factors = [f.copy() for f in init_factors]
    history = []
    for step in range(cfg.max_steps):
        loss, grads = batch_grads(factors, step)
        factors = [f - cfg.learning_rate * g for f, g in zip(factors, grads)]
        history.append(loss)
    converged = bool(np.all(np.isfinite(history)))
    if not converged:
        warnings.warn("sampled-mode training produced non-finite losses", DidNotConverge)
    return factors, LossHistory(np.array(history), converged)


def _train(joint: JointDistribution, cfg: TrainConfig, tables: int,
           resample: ResampleConfig = None, teacher: EncoderTable = None):
    """The training core behind :func:`train_mmcl` (``tables=2``: a visual
    and a language table) and :func:`train_sscl` (``tables=1``: one table
    shared by both sides of a symmetric joint).

    Population mode descends on the factorization form of the loss (exact
    gradients); sampled mode runs SGD on three-way batches of the pruned
    support, each rewritten by ``resample`` with ``teacher`` when given.
    Returns (feature matrices on the pruned support, LossHistory).
    """
    norm = normalize_cooccurrence(joint)
    target = norm.matrix
    constant = float(np.sum(target * target))
    dec = decompose(norm)
    k = cfg.dim
    if k > dec.rank_bound:
        raise InvalidSpec(f"k={k} exceeds the rank bound {dec.rank_bound}")
    _warn_if_degenerate(dec.singular_values, k)

    rng = default_rng(cfg.seed)
    init = [rng.standard_normal((n, k)) / np.sqrt(k) for n in target.shape[:tables]]
    scales = [np.sqrt(m)[:, None] for m in (norm.marginal_visual, norm.marginal_language)[:tables]]

    if cfg.batch_mode == "population":
        if tables == 2:
            optimum = -float(np.sum(dec.singular_values[:k] ** 2))
        else:
            # FF^T is PSD, so only positive eigenvalues of the target are reachable
            eigs = np.linalg.eigvalsh(target)[::-1]
            optimum = -float(np.sum(np.clip(eigs[:k], 0.0, None) ** 2))

        def loss_and_grads(factors):
            fv, fl = factors[0], factors[-1]
            resid = fv @ fl.T - target
            loss = float(np.sum(resid * resid)) - constant
            if tables == 2:
                return loss, [2.0 * (resid @ fl), 2.0 * (resid.T @ fv)]
            return loss, [4.0 * (resid @ fv)]

        factors, history = _population_descent(init, loss_and_grads, cfg, optimum)
        # same stationary points either way; report features, not factors
        return [f / scale for f, scale in zip(factors, scales)], history

    pruned = JointDistribution.from_counts(joint.matrix[np.ix_(norm.visual_index, norm.language_index)])
    sampler = BatchSampler(pruned, cfg.batch_size)
    batch_rng = default_rng(rng.integers(2**63))
    f_init = [f / scale for f, scale in zip(init, scales)]
    # batches index the pruned support, so the teacher must too
    teacher_tables = None if resample is None else _TeacherTables(teacher.matrix[norm.visual_index])

    def batch_grads(factors, step):
        batch = sampler.draw(batch_rng)
        if teacher_tables is not None:
            batch = _rewrite(batch, teacher_tables, resample)
        loss, gv, gl = empirical_scl_grad(factors[0], factors[-1], batch)
        return loss, [gv, gl] if tables == 2 else [gv + gl]  # a shared table takes both sides

    return _sgd(f_init, batch_grads, cfg)


def train_mmcl(joint: JointDistribution, cfg: TrainConfig):
    """Train a visual/language encoder pair on the multi-modal spectral loss.

    Population mode descends on the factorization form of the loss (exact
    gradients); the optimum is -(sum of the top-k squared singular values).
    Returns (visual EncoderTable, language EncoderTable, LossHistory); the
    tables cover the pruned support, see the normalization index maps.
    """
    (f_visual, f_language), history = _train(joint, cfg, 2)
    return EncoderTable(f_visual, side="visual"), EncoderTable(f_language, side="language"), history


def train_sscl(induced: InducedDistribution, cfg: TrainConfig,
               resample: ResampleConfig = None, teacher: EncoderTable = None):
    """Train a single encoder on the uni-modal spectral loss over a
    symmetric induced distribution: the multi-modal loss with one table on
    both sides of ``JointDistribution(induced.matrix)``.

    Population mode descends on the symmetric factorization residual of
    the two-side normalized matrix. Sampled mode draws three-way batches
    from the induced joint; when ``resample`` is set, ``teacher`` features
    (one row per sample of the induced matrix) rewrite every batch before
    its step. Returns (EncoderTable, LossHistory); the table covers the
    pruned support, see the normalization index maps, and so does the
    teacher as the strategies see it.
    """
    if resample is not None and teacher is None:
        raise TeacherMissing("resampling strategies need teacher features")
    if resample is not None and teacher.num_samples != induced.num_samples:
        raise InvalidSpec(f"teacher has {teacher.num_samples} rows for {induced.num_samples} samples")
    if induced.normalized:
        raise InvalidSpec("training needs a mass-1 induced distribution")
    side = "augmented" if induced.kind == "augmentation" else "visual"

    (features,), history = _train(JointDistribution(induced.matrix), cfg, 1, resample, teacher)
    return EncoderTable(features, side=side), history


def _nearest(rows: np.ndarray, index: int, cand: np.ndarray) -> int:
    sims = rows[cand] @ rows[index]
    return int(cand[np.argmax(sims)])  # argmax takes the first = smallest index


def nearest_neighbor_positive(index: int, candidates, teacher: EncoderTable) -> int:
    """Teacher-space nearest neighbor of a sample among candidate indices.

    Similarity is cosine on row-normalized teacher features; the anchor
    itself is excluded; exact ties break to the smallest sample index.
    The anchor and every candidate must index a row of the teacher.
    """
    cand = np.unique(np.asarray(candidates, dtype=int))
    _check_rows(np.append(cand, index), teacher)
    cand = cand[cand != index]
    if cand.size == 0:
        raise EmptyCandidates("no candidates besides the anchor itself")
    return _nearest(_unit_rows(teacher.matrix), index, cand)


class _TeacherTables:
    """What the strategies read of a fixed teacher, computed once: its unit
    rows and, on first use, every sample's nearest neighbor among all
    samples, as :func:`nearest_neighbor_positive` finds it."""

    def __init__(self, features: np.ndarray):
        self.rows = _unit_rows(features)

    @cached_property
    def nearest(self) -> np.ndarray:
        everyone = np.arange(self.rows.shape[0])
        if everyone.size < 2:
            raise EmptyCandidates("no candidates besides the anchor itself")
        return np.array([_nearest(self.rows, i, everyone[everyone != i]) for i in everyone])

    def similarity(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.sum(self.rows[a] * self.rows[b], axis=1)


def apply_strategy(batch: Batch, teacher: EncoderTable, cfg: ResampleConfig) -> Batch:
    """Rewrite one batch according to a teacher-guided strategy.

    Assumes a shared sample space (uni-modal batches), since teacher
    similarities compare both members of a pair. Drop counts are
    floor(ratio * count) over the relevant pool, 0 on tiny batches; drops
    are stable (ties keep the earliest entry candidates first). Every
    index of the batch must index a row of the teacher.
    """
    _check_rows(np.concatenate(_scored_pairs(batch)), teacher)
    return _rewrite(batch, _TeacherTables(teacher.matrix), cfg)


def _check_rows(indices: np.ndarray, teacher: EncoderTable) -> None:
    rows = teacher.num_samples
    if indices.size and (indices.min() < 0 or indices.max() >= rows):
        raise InvalidSpec(f"sample indices must lie in [0, {rows}) for a teacher with {rows} rows")


def _rewrite(batch: Batch, tables: _TeacherTables, cfg: ResampleConfig) -> Batch:
    """:func:`apply_strategy` on a teacher's precomputed tables."""
    if cfg.strategy == "AddNewPositive":
        if batch.num_positives == 0:
            return batch
        partners = tables.nearest[batch.pos_visual]
        return batch._replace(
            extra_pos_visual=np.concatenate([batch.extra_pos_visual, batch.pos_visual]),
            extra_pos_language=np.concatenate([batch.extra_pos_language, partners]),
            extra_pos_weight=np.concatenate([
                batch.extra_pos_weight, np.full(partners.size, cfg.mixing_weight),
            ]),
        )

    if cfg.strategy == "DropFalsePositive":
        m = batch.num_positives
        drop = int(np.floor(cfg.ratio * m))
        if drop == 0:
            return batch
        sims = tables.similarity(batch.pos_visual, batch.pos_language)
        order = np.argsort(sims, kind="stable")  # most dissimilar first
        keep = np.ones(m, dtype=bool)
        keep[order[:drop]] = False
        return batch._replace(pos_visual=batch.pos_visual[keep], pos_language=batch.pos_language[keep])

    # the two negative drops rank the pooled negatives from both lists
    n1, n2 = batch.neg_language.size, batch.neg_visual.size
    drop = int(np.floor(cfg.ratio * (n1 + n2)))
    if drop == 0:
        return batch
    sims = np.concatenate([
        tables.similarity(batch.neg_language_anchor, batch.neg_language),
        tables.similarity(batch.neg_visual_anchor, batch.neg_visual),
    ])
    if cfg.strategy == "DropFalseNegative":
        order = np.argsort(-sims, kind="stable")  # largest similarity first
    else:  # DropEasyNegative
        order = np.argsort(sims, kind="stable")  # smallest similarity first
    dropped = order[:drop]
    keep_mask = np.ones(n1 + n2, dtype=bool)
    keep_mask[dropped] = False
    return batch._replace(
        neg_language=batch.neg_language[keep_mask[:n1]],
        neg_language_anchor=batch.neg_language_anchor[keep_mask[:n1]],
        neg_visual=batch.neg_visual[keep_mask[n1:]],
        neg_visual_anchor=batch.neg_visual_anchor[keep_mask[n1:]],
    )
