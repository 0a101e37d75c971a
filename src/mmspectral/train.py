"""Gradient-descent training of tabular encoders on the spectral losses,
and the four teacher-guided batch resampling strategies.

Population mode optimizes the factor matrices (sqrt-marginal scaled
features) by full-batch gradient descent with a halve-on-increase step
rule, so accepted loss histories are monotone after the first step.
Sampled mode runs SGD over three-way batches; resampling strategies, when
configured, rewrite each batch before its gradient step. One core trains
both encoder kinds: SSCL is its one-table case, a single encoder shared by
both sides of the symmetric induced joint.

Batches do not depend on the features, so a sampled run draws all of
them first, as the pairs each batch scores in plan column order, and
keeps the latest run's draws for a run that would draw the same. It then
steps through a plan (``losses._Plan.chunks``) a chunk of
``_CHUNK_ENTRIES // (n * k)`` steps at a time, on one stacked table
(``losses._PlanGrads``): the strategy rewrites every batch of the chunk
at once from teacher similarities cached for the run, each step is one
gather, one ``np.bincount`` scatter and an in-place update, and after
its last step the chunk's plan scores its losses from the scores the
steps kept (``_Plan.losses``).
:func:`apply_strategy` and :func:`empirical_scl_grad` are the
one-row case of the same code, so a run equals the loop over single
batches bit for bit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .distributions import (InducedDistribution, JointDistribution, _choice, _class_indices, _instance, _integer,
                            _matrix_of, _real, normalize_cooccurrence)
from .errors import DidNotConverge, EmptyCandidates, InvalidSpec, TeacherMissing
from .evaluation import _unit_rows
from .losses import (Batch, BatchSampler, EncoderTable, _feature_tables, _Plan, _PlanGrads, _cell_scores, _row_dots,
                     equivalence_constant)
from .losses import sample_batch  # noqa: F401  (perfbench's tracer test looks it up here)
from .spectral import _check_top_k, decompose

STRATEGIES = ("AddNewPositive", "DropFalsePositive", "DropFalseNegative", "DropEasyNegative")

#: spec'd default ratios: drop 10% falsest positives, 5% likeliest false
#: negatives, 10% easiest negatives; AddNewPositive is governed by weight
DEFAULT_RATIOS = {
    "AddNewPositive": 0.0,
    "DropFalsePositive": 0.10,
    "DropFalseNegative": 0.05,
    "DropEasyNegative": 0.10,
}

#: {draw key: plan columns} of the latest sampled run, see _run_draws
_LATEST_DRAWS = {}


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
        for name, least in (("dim", 1), ("max_steps", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        object.__setattr__(self, "learning_rate", _real("learning rate", self.learning_rate))
        object.__setattr__(self, "tolerance", _real("tolerance", self.tolerance))
        if self.learning_rate <= 0.0:
            raise InvalidSpec(f"learning rate must be finite and positive, got {self.learning_rate!r}")
        if self.tolerance <= 0.0:
            raise InvalidSpec(f"tolerance must be finite and positive, got {self.tolerance!r}")
        _choice("batch_mode", self.batch_mode, ("population", "sampled"))


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
        _choice("strategy", self.strategy, STRATEGIES)
        ratio = _real("ratio", DEFAULT_RATIOS[self.strategy] if self.ratio is None else self.ratio)
        if not 0.0 <= ratio <= 1.0:
            raise InvalidSpec("ratio must lie in [0, 1]")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "mixing_weight", _real("mixing weight", self.mixing_weight))
        if self.mixing_weight < 0.0:
            raise InvalidSpec(f"mixing weight must be finite and >= 0, got {self.mixing_weight!r}")


@dataclass(frozen=True)
class LossHistory:
    """Loss trajectory of a run plus the convergence flag."""

    losses: np.ndarray
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))  # not _reals: diverged runs log nan
        if self.losses.size == 0:
            raise InvalidSpec("losses must hold at least one loss")

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


def _train(joint: JointDistribution, cfg: TrainConfig, tables: int,
           resample: ResampleConfig = None, teacher: np.ndarray = None):
    """The training core behind :func:`train_mmcl` (``tables=2``: a visual
    and a language table) and :func:`train_sscl` (``tables=1``: one table
    shared by both sides of a symmetric joint).

    Population mode descends on the factorization form of the loss (exact
    gradients); sampled mode runs plain SGD on three-way batches of the
    pruned support, each rewritten by ``resample`` with the ``teacher``
    feature matrix when given. Returns (feature matrices on the pruned
    support, LossHistory).
    """
    norm = normalize_cooccurrence(joint)
    target = norm.matrix
    dec = decompose(norm)
    k = cfg.dim
    _check_top_k(dec, k)

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
        constant = equivalence_constant(norm)

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
    batch_seed = int(rng.integers(2**63))
    # one table: the language rows after the visual rows, or the shared table
    table = np.concatenate([f / scale for f, scale in zip(init, scales)])
    # batches index the pruned support, so the teacher must too
    teacher_tables = None if resample is None else _TeacherTables(teacher[norm.visual_index])
    draws = _run_draws(pruned, cfg.batch_size, batch_seed, cfg.max_steps)
    num_visual, num_language = target.shape
    history = np.empty(cfg.max_steps)
    for steps, plan in _Plan.chunks(draws, k):
        if teacher_tables is not None:
            plan = _resample(plan, teacher_tables, resample)
        grads = _PlanGrads(plan, k, num_visual, num_language, shared=tables == 1)
        for row in range(plan.visual.shape[0]):
            grads.step(row, table, cfg.learning_rate)
        history[steps] = plan.losses(grads.scores)
    converged = bool(np.all(np.isfinite(history)))
    if not converged:
        warnings.warn("sampled-mode training produced non-finite losses", DidNotConverge)
    return [table] if tables == 1 else np.split(table, [num_visual]), LossHistory(history, converged)


def _run_draws(pruned: JointDistribution, n: int, seed: int, steps: int):
    """The plan columns (``BatchSampler._draw_chunk``) of the ``steps``
    batches a sampled run draws from ``pruned`` with the generator seeded
    by ``seed``.

    The latest run's draws are kept: the runs of one resample-compare
    work unit differ only in strategy, so they draw the same batches.
    """
    key = (pruned.matrix.shape, pruned.matrix.tobytes(), n, seed, steps)
    if key not in _LATEST_DRAWS:
        draws = BatchSampler(pruned, n)._draw_chunk(default_rng(seed), steps)
        _LATEST_DRAWS.clear()
        _LATEST_DRAWS[key] = draws
    return _LATEST_DRAWS[key]


def train_mmcl(joint: JointDistribution, cfg: TrainConfig):
    """Train a visual/language encoder pair on the multi-modal spectral loss.

    Population mode descends on the factorization form of the loss (exact
    gradients); the optimum is -(sum of the top-k squared singular values).
    Returns (visual EncoderTable, language EncoderTable, LossHistory); the
    tables cover the pruned support, see the normalization index maps.
    """
    (f_visual, f_language), history = _train(joint, _instance("cfg", cfg, TrainConfig), 2)
    return EncoderTable(f_visual, side="visual"), EncoderTable(f_language, side="language"), history


def train_sscl(induced: InducedDistribution, cfg: TrainConfig,
               resample: ResampleConfig = None, teacher: EncoderTable = None):
    """Train a single encoder on the uni-modal spectral loss over a
    symmetric induced distribution: the multi-modal loss with one table on
    both sides of that joint.

    Population mode descends on the symmetric factorization residual of
    the two-side normalized matrix. Sampled mode draws three-way batches
    from the induced joint; when ``resample`` is set, ``teacher`` features
    (one row per sample of the induced matrix) rewrite every batch before
    its step; population mode has no batches and takes no ``resample``.
    Returns (EncoderTable, LossHistory); the table covers the pruned
    support, see the normalization index maps, and so does the teacher as
    the strategies see it.
    """
    induced, cfg = _instance("induced", induced, InducedDistribution), _instance("cfg", cfg, TrainConfig)
    if resample is not None:
        resample = _instance("resample", resample, ResampleConfig)
        if teacher is None:
            raise TeacherMissing("resampling strategies need teacher features")
        if cfg.batch_mode != "sampled":
            raise InvalidSpec('resampling strategies rewrite sampled batches; they need batch_mode="sampled"')
        teacher = _matrix_of("teacher", teacher, EncoderTable)
        if teacher.shape[0] != induced.num_samples:
            raise InvalidSpec(f"teacher has {teacher.shape[0]} rows for {induced.num_samples} samples")
    side = "augmented" if induced.kind == "augmentation" else "visual"

    (features,), history = _train(induced, cfg, 1, resample, teacher)
    return EncoderTable(features, side=side), history


def nearest_neighbor_positive(index: int, candidates, teacher: EncoderTable) -> int:
    """Teacher-space nearest neighbor of a sample among candidate indices.

    Similarity is cosine on row-normalized teacher features; the anchor
    itself is excluded; exact ties break to the smallest sample index.
    The anchor and every candidate must index a row of the teacher.
    """
    index = _integer("anchor index", index, 0)
    cand = np.unique(_class_indices("candidates", candidates))
    features, _ = _feature_tables(teacher, teacher, pairs=(np.array([index]), cand), names=("teacher", "teacher"))
    cand = cand[cand != index]
    if cand.size == 0:
        raise EmptyCandidates("no candidates besides the anchor itself")
    rows = _unit_rows(features)
    return int(cand[np.argmax(_row_dots(rows[cand], rows[index]))])


class _TeacherTables:
    """What the strategies read of a fixed teacher, computed once: its unit
    rows and, on first use, the cosine similarity of every pair of samples
    and every sample's nearest neighbor among all the others, as
    :func:`nearest_neighbor_positive` finds it."""

    def __init__(self, features: np.ndarray):
        self.rows = _unit_rows(features)

    @cached_property
    def nearest(self) -> np.ndarray:
        """The most similar other sample of each sample, ties to the
        smallest index (``np.argmax`` takes the first maximum)."""
        if self.rows.shape[0] < 2:
            raise EmptyCandidates("no candidates besides the anchor itself")
        others = self.similarities.copy()
        np.fill_diagonal(others, -np.inf)
        return np.argmax(others, axis=1)

    @cached_property
    def similarities(self) -> np.ndarray:
        """The N x N table of cosine similarities, in the arithmetic
        ``_row_dots(rows[a], rows[b])``: the cell scores of the unit rows on
        both sides."""
        return _cell_scores(self.rows, self.rows)


def apply_strategy(batch: Batch, teacher: EncoderTable, cfg: ResampleConfig) -> Batch:
    """Rewrite one batch according to a teacher-guided strategy.

    Assumes a shared sample space (uni-modal batches), since teacher
    similarities compare both members of a pair. Drop counts are
    floor(ratio * count) over the relevant pool, 0 on tiny batches; drops
    are stable (ties keep the earliest entry candidates first). Every
    index of the batch must index a row of the teacher.
    """
    plan = _Plan.of_batch(batch)
    features, _ = _feature_tables(teacher, teacher, pairs=(plan.visual, plan.language), names=("teacher", "teacher"))
    out = _resample(plan, _TeacherTables(features), _instance("cfg", cfg, ResampleConfig))
    return batch if out is plan else out.as_batch()


def _resample(plan: _Plan, tables: _TeacherTables, cfg: ResampleConfig) -> _Plan:
    """:func:`apply_strategy` on every batch of a plan at once, with a
    teacher's precomputed tables. Returns ``plan`` itself when the
    strategy leaves the batches as they are."""
    p, q = plan.positives, plan.negatives_end
    if cfg.strategy == "AddNewPositive":
        if p == 0:
            return plan
        positives = plan.visual[:, :p]
        return plan._replace(
            visual=np.concatenate([plan.visual, positives], axis=1),
            language=np.concatenate([plan.language, tables.nearest[positives]], axis=1),
            weight=np.concatenate([plan.weight, np.full(positives.shape, cfg.mixing_weight)], axis=1),
        )

    # DropFalsePositive ranks the positives; the two negative drops rank
    # the pooled negatives from both lists
    drops_positives = cfg.strategy == "DropFalsePositive"
    lo, hi = (0, p) if drops_positives else (p, q)
    drop = int(np.floor(cfg.ratio * (hi - lo)))
    if drop == 0:
        return plan
    sims = tables.similarities[plan.visual[:, lo:hi], plan.language[:, lo:hi]]
    if cfg.strategy == "DropFalseNegative":
        sims = -sims  # largest similarity first
    # otherwise smallest similarity first: most dissimilar positives, easiest negatives
    order = np.argsort(sims, axis=1, kind="stable")
    keep = np.ones(plan.visual.shape, dtype=bool)
    np.put_along_axis(keep[:, lo:hi], order[:, :drop], False, axis=1)
    rows, width = keep.shape
    kept_before_split = keep & (np.arange(width) < plan.split[:, None])
    return plan._replace(
        visual=plan.visual[keep].reshape(rows, width - drop),
        language=plan.language[keep].reshape(rows, width - drop),
        positives=p - drop if drops_positives else p,
        split=kept_before_split.sum(axis=1),
        negatives_end=q - drop,
    )
