"""Experiment harness: builds instances, runs the verification suites and
sweeps, and emits machine-readable reports.

Each experiment kind is a :class:`Suite` in ``SUITES``, and its work is
data. ``units(params, seeds)`` lists the work units of a run as
``(fn, tasks)`` groups and computes nothing; every unit is a top-level
``fn(params, task)``, a pure function of its arguments, and every task is
plain data: ints, floats, strings and tuples of them. ``reduce(params,
seeds, *results)`` turns each group's results, in task order, into the
checks and the artifact tables. :func:`run` alone maps the units, in one
map over all of them, sequentially or over one worker pool, so fanning
out cannot change a result; and it alone writes the tables, so the same
configuration gives byte-identical CSV artifacts and an identical report
up to the wall-clock field.
"""
from __future__ import annotations

import math
import operator
import os
import time
import warnings
from dataclasses import dataclass, replace as dc_replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.random import default_rng

from .distributions import (
    JointDistribution,
    LabelAssignment,
    NormalizedCooccurrence,
    _choice,
    _instance,
    _integer,
    _real,
    augmentation_joint,
    normalize_cooccurrence,
    normalized_uni,
    text_induced,
)
from .errors import ConfigParseError, DegenerateGap, InvalidSpec, NumericalFailure
from .evaluation import (
    estimate_cooccurrence,
    fit_probe,
    intra_class_connectivity,
    labeling_error,
    probe_error,
    surrogate_labeling_error,
)
from .losses import (
    BatchSampler,
    EncoderTable,
    amf_loss,
    empirical_scl,
    empirical_scl_batches,
    empirical_scl_grad,
    equivalence_constant,
    sample_batch,
    scl_grad,
    scl_loss,
)
from .serialize import canonical_json, config_hash, load_json_config, save_csv
from .spectral import _check_rank, bound_report, decompose, hierarchical_eigenvalues, optimal_encoders
from .synth import (
    HierarchicalGraphSpec,
    MultiModalGenConfig,
    _block_matrix,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
)
from .train import STRATEGIES, ResampleConfig, TrainConfig, train_mmcl, train_sscl

#: array parameters that hold exactly two numbers; each entry of a nested
#: array parameter has the length of the default's entries
_PAIR_KEYS = ("s_low", "s_high", "csv_pair")


def _count(value, least: int = 1) -> int:
    """An integer of at least ``least``: every integer parameter is a
    count, so at least 1; a seed (:data:`_seed`) is at least 0. A JSON
    number with an integral value such as ``3.0`` reads as ``3``, so it
    hashes as ``3`` does."""
    return _integer("value", int(value) if isinstance(value, float) and value.is_integer() else value, least)


_seed = partial(_count, least=0)


def _seeds(value) -> tuple:
    """A list of seeds as a tuple of integers >= 0."""
    return tuple(map(_seed, value))


def _path(value) -> str:
    """An output directory: a string or path-like, as a string."""
    if not isinstance(value, (str, os.PathLike)):
        raise TypeError("not a path")
    return str(value)


def _typed(default, value, length=None):
    """``value`` in the default's shape and entry type: a count where the
    default is an int, a finite float where it is a float, and a non-empty
    tuple (of ``length`` entries, if given) of such entries where it is a
    tuple; the entries of a nested tuple have the length of the default's."""
    if not isinstance(default, tuple):
        return _count(value) if isinstance(default, int) else _real("value", value)
    value = tuple(value)
    if not value:
        raise ValueError("must not be empty")
    if length is not None and len(value) != length:
        raise ValueError(f"must hold {length} values")
    inner = len(default[0]) if isinstance(default[0], tuple) else None
    return tuple(_typed(default[0], v, inner) for v in value)


def _parsed(key: str, convert, value):
    """``convert(value)``; a value of the wrong type or shape is a
    ConfigParseError naming its key."""
    try:
        return convert(value)
    except (TypeError, ValueError, InvalidSpec) as exc:
        raise ConfigParseError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def _require(key: str, value, holds: bool, need: str) -> None:
    """A value that parses but that its suite cannot measure is a
    ConfigParseError naming its key, as a malformed value is."""
    if not holds:
        raise ConfigParseError(f"bad value for {key!r}: {value!r} (need {need})")


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail check with its measured value and tolerance."""

    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


def _check(name: str, value, limit, detail: str, ok=operator.le) -> CheckResult:
    """The one way a suite builds a check: its verdict is ``ok(value,
    limit)``, so it cannot disagree with the value and tolerance it
    records."""
    return CheckResult(name=name, passed=ok(value, limit), value=value, tolerance=limit, detail=detail)


def _suite(kind) -> Suite:
    """The suite of experiment ``kind``; anything but the name of one is a
    ConfigParseError."""
    try:
        return SUITES[_choice("kind", kind, tuple(SUITES))]
    except InvalidSpec:
        raise ConfigParseError(f"unknown experiment kind {kind!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one experiment run: the one place where
    its values are typed and checked. Every parameter is converted to its
    default's shape and entry type, the seeds to integers >= 0 and ``out``
    to a path string; a value that does not convert is a ConfigParseError
    naming its key."""

    kind: str
    params: dict
    seeds: tuple
    out: str

    def __post_init__(self):
        defaults = _suite(self.kind).defaults
        _parsed("params", partial(_instance, "params", kind=dict), self.params)
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigParseError(f"unknown parameters for {self.kind}: {sorted(unknown)}")
        missing = set(defaults) - set(self.params)
        if missing:
            raise ConfigParseError(f"missing parameters for {self.kind}: {sorted(missing)}")
        params = {key: _parsed(key, partial(_typed, default, length=2 if key in _PAIR_KEYS else None),
                               self.params[key])
                  for key, default in defaults.items()}
        seeds = _parsed("seeds", _seeds, self.seeds)
        if not seeds:
            raise ConfigParseError("seed list must be non-empty")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "out", _parsed("out", _path, self.out))

    @classmethod
    def build(cls, kind: str, config_path=None, seed=None, out=None,
              tolerance=None) -> "ExperimentConfig":
        """Resolve defaults <- config file <- command-line overrides. A
        ``seed`` shifts the seed list to start at it. Every meta key the
        file gives is checked, also where ``seeds`` or a flag overrides it."""
        suite = _suite(kind)
        params = dict(suite.defaults)
        file_cfg = load_json_config(config_path) if config_path is not None else {}
        checks = {"seed": _seed, "num_seeds": _count, "seeds": _seeds, "out": _path,
                  "tolerance": partial(_typed, suite.defaults[suite.tolerance_key])}
        unknown = set(file_cfg) - set(params) - set(checks)
        if unknown:
            raise ConfigParseError(f"unknown config keys for {kind}: {sorted(unknown)}")
        params.update((key, file_cfg[key]) for key in set(file_cfg) & set(params))
        meta = {key: _parsed(suite.tolerance_key if key == "tolerance" else key, check, file_cfg[key])
                for key, check in checks.items() if key in file_cfg}
        if "tolerance" in meta:
            params[suite.tolerance_key] = meta["tolerance"]
        if tolerance is not None:
            params[suite.tolerance_key] = tolerance

        if "seeds" in meta:
            seeds = meta["seeds"]
            base = seeds[0] if seeds else 0
        else:
            seeds = range(meta.get("num_seeds", suite.num_seeds))
            base = meta.get("seed", 0)
        base = _parsed("seed", _seed, seed if seed is not None else base)
        seeds = tuple(base + s - seeds[0] for s in seeds)
        out = out if out is not None else meta.get("out", Path("runs") / kind)
        return cls(kind=kind, params=params, seeds=seeds, out=out)

    def hash(self) -> str:
        return config_hash({"kind": self.kind, "params": self.params, "seeds": self.seeds})


@dataclass(frozen=True)
class RunReport:
    """Everything one invocation produced: resolved config hash, checks,
    artifact file names (relative to the output directory), wall clock.
    The wall clock is the one field exempt from bit-identical
    reproducibility."""

    experiment: str
    config_hash: str
    seeds: tuple
    checks: tuple
    wall_clock_seconds: float
    artifacts: tuple

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if not names:
            raise InvalidSpec("a run report needs at least one check")
        if len(names) != len(set(names)):
            raise InvalidSpec("check names must be unique within a report")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "checks": [c.to_json_dict() for c in self.checks],
            "wall_clock_seconds": float(self.wall_clock_seconds),
            "artifacts": list(self.artifacts),
            "all_passed": self.all_passed,
        }


def _map_tasks(fn, tasks, workers: int):
    """The one map of a run: order-preserving, optionally fanned over a
    process pool of at most one worker per task and per CPU, joined before
    it returns. ``fn`` must pickle: a top-level function, or a
    ``functools.partial`` of one."""
    tasks = list(tasks)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: a sequential run never loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _rank_correlation(a, b) -> float:
    """Spearman rank correlation, ties taking the mean of the ranks they
    span; nan for fewer than two points, constant input or nan input.

    Exact: on twice the ranks, integers, rho = C / sqrt(V_a V_b) in Python
    integers, rounded once. Without ties V_a = V_b and the root is exact;
    otherwise ``math.isqrt`` takes it 64 bits past the point."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)  # not _reals: nan is documented input
    if a.size < 2 or np.all(a == a[0]) or np.all(b == b[0]) or np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    twice = []
    for x in (a, b):
        _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
        twice.append((2 * np.cumsum(counts) - counts + 1)[group].astype(object))
    (ra, rb), n = twice, a.size
    c, va, vb = (n * (x @ y) - x.sum() * y.sum() for x, y in ((ra, rb), (ra, ra), (rb, rb)))
    return (c << 64) / math.isqrt(va * vb << 128)


def _random_joint(rng, nv: int, nl: int) -> JointDistribution:
    return JointDistribution.from_counts(rng.gamma(2.0, size=(nv, nl)))


def _random_case(rng, visual, language, dim):
    """(sizes, joint, visual table, language table) drawn from ``rng`` in this
    order: the sizes from their ``[low, high)`` ranges, the joint, the two normal tables."""
    nv, nl, k = sizes = tuple(int(rng.integers(*bounds)) for bounds in (visual, language, dim))
    joint = _random_joint(rng, nv, nl)
    return sizes, joint, rng.standard_normal((nv, k)), rng.standard_normal((nl, k))


def _covering_labels(rng, n: int, r: int) -> np.ndarray:
    """Random labels over r classes, each class guaranteed to appear."""
    labels = np.concatenate([np.arange(r), rng.integers(0, r, size=n - r)])
    return labels[rng.permutation(n)]


def _uni_encoder(norm: NormalizedCooccurrence, k: int):
    """(top-k eigenvectors of the symmetric ``norm``; the uni-modal closed-form encoder they give).
    Refuses k past the support, as the SVD closed forms do, but warns of no
    degenerate gap: the sampled estimates of bound-sweep tie often."""
    _check_rank(k, norm.matrix.shape[0])
    _, vecs = np.linalg.eigh(norm.matrix)
    top = vecs[:, ::-1][:, :k]
    return top, EncoderTable(top / np.sqrt(norm.marginal_visual)[:, None])


def _multimodal_instance(params, seed: int):
    """(joint, labels, normalized joint) of a synthetic captioned instance."""
    joint, labels = generate_multimodal(MultiModalGenConfig(
        params["classes"], params["visual_per_class"], params["language_per_class"], params["target_alpha"],
        params["concentration"], seed=seed))
    return joint, labels, normalize_cooccurrence(joint)


def _augmentation_instance(params, labels_visual: np.ndarray, seed: int):
    """(induced joint, augmented labels) of a leaky augmentation of equally likely naturals."""
    nv = labels_visual.size
    model = generate_augmentation_model(nv, params["augmentations"], params["leak"], seed=seed)
    return augmentation_joint(model, np.full(nv, 1.0 / nv)), model.labels_for_augmented(labels_visual)


def _gapped_multimodal(params, seed: int):
    """(joint, labels, normalized joint, decomposition) of the first
    synthetic instance with sigma_k - sigma_{k+1} >= min_gap.

    Re-draws keep determinism (attempt index folds into the seed); the
    generator's class structure makes the gap large with high probability,
    so this rarely loops.
    """
    k, min_gap = params["dim"], params["min_gap"]
    for attempt in range(64):
        joint, labels, norm = _multimodal_instance(params, seed * 1009 + attempt)
        dec = decompose(norm)
        s = dec.singular_values
        if k >= s.size or s[k - 1] - s[k] >= min_gap:
            return joint, labels, norm, dec
    raise NumericalFailure(f"no instance with spectral gap >= {min_gap} in 64 draws for seed {seed}")


# ---------------------------------------------------------------------------
# verify-equivalence: loss identity on random instances + sampled-loss
# unbiasedness and Monte-Carlo rate


def _equivalence_case(params, seed):
    (nv, nl, k), joint, fv, fl = _random_case(default_rng([seed, 10]), (2, params["max_visual"] + 1),
                                              (2, params["max_language"] + 1), (1, params["max_dim"] + 1))
    norm = normalize_cooccurrence(joint)
    scl = scl_loss(fv, fl, joint)
    amf = amf_loss(
        EncoderTable(fv).factor(joint.marginal_visual),
        EncoderTable(fl, side="language").factor(joint.marginal_language),
        norm,
    )
    constant = equivalence_constant(norm)
    residual = abs(amf - scl - constant) / (1.0 + abs(scl))
    return nv, nl, k, residual, scl, amf


def _empirical_case(params, task):
    """The Monte-Carlo work unit: for ``task = (seed, count, stream)``, the
    population loss of the seed's random instance and the sampled losses
    of ``count`` batches drawn from it with the generator ``[seed, *stream]``."""
    seed, count, stream = task
    rng = default_rng([seed, 70])
    joint = _random_joint(rng, 6, 8)
    k = 3
    fv = rng.standard_normal((6, k)) / math.sqrt(k)
    fl = rng.standard_normal((8, k)) / math.sqrt(k)
    sampler = BatchSampler(joint, params["batch_size"])
    return scl_loss(fv, fl, joint), empirical_scl_batches(fv, fl, sampler, default_rng([seed, *stream]), count)


def _verify_equivalence_units(params, seeds):
    batches, counts = params["mean_batches"], params["rate_batch_counts"]
    _require("mean_batches", batches, batches >= 2, "at least 2 batches for a standard error")
    _require("rate_batch_counts", counts, len(set(counts)) >= 2, "two distinct counts to fit a rate slope")
    return [(_equivalence_case, seeds),
            (_empirical_case, [(seeds[0], batches, (71,))]),
            (_empirical_case, [(seeds[0], max(counts), (72, rep))
                               for rep in range(params["rate_repeats"])])]


def _verify_equivalence_reduce(params, seeds, cases, mean_run, rate_runs):
    checks, rows, log = [], [], []
    for i, (seed, (nv, nl, k, residual, scl, amf)) in enumerate(zip(seeds, cases)):
        checks.append(_check(f"equivalence-{i + 1:02d}", residual, params["tolerance"],
                             f"N_V={nv} N_L={nl} k={k}"))
        rows.append((i + 1, nv, nl, k, float(residual)))
        log += [(f"instance-{i + 1:02d}", "scl", scl, seed), (f"instance-{i + 1:02d}", "amf", amf, seed)]

    batches, counts = params["mean_batches"], sorted(params["rate_batch_counts"])
    ((population, values),) = mean_run
    mean, stderr = float(values.mean()), float(values.std(ddof=1)) / math.sqrt(batches)
    checks.append(_check("empirical-mean-z", abs(mean - population) / stderr, params["z_limit"],
                         f"mean={mean!r} population={population!r} stderr={stderr!r}"))

    running = (np.cumsum(values) for _, values in rate_runs)  # sequential, as a running sum is
    deviations = np.array([[float(run[c - 1] / c - population) for c in counts] for run in running])
    rmse = np.sqrt(np.mean(deviations**2, axis=0))
    slope = float(np.polyfit(np.log(counts), np.log(rmse), 1)[0])
    checks.append(_check("empirical-rate-slope", slope, params["slope_limit"],
                         f"rmse={list(map(float, rmse))!r} at counts={list(counts)!r}",
                         ok=lambda v, t: abs(v + 0.5) <= t))
    return checks, {
        "equivalence.csv": (["instance", "n_visual", "n_language", "dim", "relative_residual"], rows),
        "loss_log.csv": (["instance_id", "loss_name", "value", "seed"], log),
        "mc_rate.csv": (["num_batches", "rmse"], list(zip(counts, map(float, rmse)))),
    }


# ---------------------------------------------------------------------------
# verify-optimum: population training reaches the truncated-decomposition
# optimum, trained and closed-form encoders probe identically, and analytic
# gradients match central finite differences


def _optimum_case(params, seed):
    dim = params["dim"]
    joint, labels, norm, dec = _gapped_multimodal(params, seed)
    target = -float(np.sum(dec.singular_values[:dim] ** 2))
    cfg = TrainConfig(dim=dim, learning_rate=params["learning_rate"], max_steps=params["max_steps"],
                      tolerance=params["tolerance"], seed=seed)
    fv, fl, history = train_mmcl(joint, cfg)
    final = scl_loss(fv, fl, joint)
    closed_v, _ = optimal_encoders(norm, dec, dim)
    trained_pred = fit_probe(fv, labels.visual, joint.marginal_visual).predict(fv)
    closed_pred = fit_probe(closed_v, labels.visual, joint.marginal_visual).predict(closed_v)
    mismatches = int(np.sum(trained_pred != closed_pred))
    return final - target, mismatches, final, target, len(history)


def _central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros(x.shape)
    flat = grad.ravel()
    for i in range(x.size):
        bump = np.zeros(x.shape)
        bump.ravel()[i] = h
        flat[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * h)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - numeric) /
                 max(1.0, float(np.linalg.norm(analytic))))


def _grad_case(params, seed):
    rng = default_rng([seed, 80])
    (nv, nl, k), joint, fv, fl = _random_case(rng, (3, 8), (3, 8), (1, 4))
    fv, fl = EncoderTable(fv), EncoderTable(fl, side="language")

    _, gv, gl = scl_grad(fv, fl, joint)
    num_v = _central_difference(lambda m: scl_loss(m, fl, joint), fv.matrix)
    num_l = _central_difference(lambda m: scl_loss(fv, m, joint), fl.matrix)
    population = _relative_error(np.concatenate([gv.ravel(), gl.ravel()]),
                                 np.concatenate([num_v.ravel(), num_l.ravel()]))

    # the uni-modal loss: one table on both sides of the text-induced joint
    induced = text_induced(joint)
    f = EncoderTable(rng.standard_normal((nv, k)))
    _, gv_uni, gl_uni = scl_grad(f, f, induced)
    uni = _relative_error(gv_uni + gl_uni, _central_difference(lambda m: scl_loss(m, m, induced), f.matrix))

    batch = sample_batch(joint, 12, seed=rng)
    extras = int(rng.integers(1, 4))
    batch = dc_replace(
        batch,
        extra_pos_visual=rng.integers(0, nv, size=extras),
        extra_pos_language=rng.integers(0, nl, size=extras),
        extra_pos_weight=rng.uniform(0.2, 2.0, size=extras),
    )
    _, bv, bl = empirical_scl_grad(fv, fl, batch)
    num_bv = _central_difference(lambda m: empirical_scl(m, fl, batch), fv.matrix)
    num_bl = _central_difference(lambda m: empirical_scl(fv, m, batch), fl.matrix)
    empirical = _relative_error(np.concatenate([bv.ravel(), bl.ravel()]),
                                np.concatenate([num_bv.ravel(), num_bl.ravel()]))
    return population, uni, empirical


def _verify_optimum_reduce(params, seeds, optima, grads):
    checks, rows = [], []
    for index, (gap, mismatches, final, target, steps) in enumerate(optima):
        checks.append(_check(f"optimum-gap-{index + 1:02d}", gap, params["tolerance"],
                             f"final={final!r} optimum={target!r} accepted_steps={steps}",
                             ok=lambda v, t: abs(v) <= t))
        checks.append(_check(f"probe-match-{index + 1:02d}", float(mismatches), 0.0,
                             "trained vs closed-form probe predictions"))
        rows.append((index + 1, float(final), float(target), float(gap), mismatches))

    grads = np.asarray(grads)
    for column, name in enumerate(("population", "uni", "empirical")):
        checks.append(_check(f"grad-{name}", float(grads[:, column].max()), params["grad_tolerance"],
                             f"max relative error over {len(seeds)} instances"))
    return checks, {"optimum.csv": (["instance", "final_loss", "optimum", "gap", "probe_mismatches"], rows)}


# ---------------------------------------------------------------------------
# hrg-spectrum: closed-form eigenvalues against dense eigendecomposition


def _hrg_case(params, pair):
    s_l, s_h = pair
    worst = 0.0
    for sep in params["separations"]:
        spec = HierarchicalGraphSpec(s_l, s_h, sep)
        closed_raw = hierarchical_eigenvalues(spec)
        induced = build_hierarchical_matrix(spec)
        numeric_raw = np.linalg.eigvalsh(induced.matrix)[::-1]
        worst = max(worst, float(np.max(np.abs(closed_raw - numeric_raw))))
        norm = normalize_cooccurrence(induced)
        numeric_norm = decompose(norm).singular_values
        closed_norm = spec.num_samples * closed_raw
        worst = max(worst, float(np.max(np.abs(closed_norm - numeric_norm))))
    return worst


def _hrg_pairs(params):
    (lo, lo_end), (hi, hi_end) = params["s_low"], params["s_high"]
    return [(s_l, s_h) for s_l in range(lo, lo_end + 1) for s_h in range(hi, hi_end + 1)]


def _hrg_spectrum_units(params, seeds):
    return [(_hrg_case, _hrg_pairs(params))]


def _hrg_spectrum_reduce(params, seeds, worsts):
    separations = params["separations"]
    checks = [_check(f"hrg-sl{s_l}-sh{s_h}", worst, params["tolerance"],
                     f"max |closed - numeric| over {len(separations)} separations")
              for (s_l, s_h), worst in zip(_hrg_pairs(params), worsts)]

    s_l, s_h = params["csv_pair"]
    rows = []
    for sep in separations:
        spec = HierarchicalGraphSpec(s_l, s_h, sep)
        svals = spec.num_samples * hierarchical_eigenvalues(spec)
        rows.append((sep, *[float(v) for v in svals]))
    header = ["separation"] + [f"sigma_{t + 1}" for t in range(s_l * s_h)]
    return checks, {f"hrg_sl{s_l}_sh{s_h}.csv": (header, rows)}


# ---------------------------------------------------------------------------
# bound-sweep: singular-value monotonicity in the separation, bound terms,
# and the probe-error vs sigma_{k+1} correlation at fixed labeling error


def _monotone_case(params, pair):
    s_l, s_h = pair
    spectra = []
    for sep in sorted(params["separations"]):
        induced = build_hierarchical_matrix(HierarchicalGraphSpec(s_l, s_h, sep))
        norm = normalize_cooccurrence(induced)
        spectra.append(decompose(norm).singular_values)
    worst = -math.inf
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            worst = max(worst, float(np.max(spectra[i] - spectra[j])))
    return worst


def _sweep_masses(point: int, points: int, classes: int, groups: int,
                  group_size: int, cross_mass: float):
    """Mass levels of sweep point ``point``'s three-tier joint, outermost
    first: ``cross`` across classes, ``mid`` across groups of one class,
    ``within`` inside a group. The cross-class mass is pinned (fixed
    labeling error); the mid level climbs from its degenerate floor
    (mid = cross) toward the ceiling where the group tier vanishes."""
    n = classes * groups * group_size
    cross = cross_mass / (n * (classes - 1) * groups * group_size)
    mid_max = (1.0 - cross_mass) / (n * group_size * groups)
    tau = (point + 1) / (points + 1)
    mid = cross + tau * (mid_max - cross)
    within = (1.0 - cross_mass - n * (groups - 1) * group_size * mid) / (n * group_size)
    return cross, mid, within


def _bound_case(params, sep):
    """The bound-term row at separation ``sep`` of the first pair's graph."""
    s_l, s_h = params["pairs"][0]
    labels = np.repeat(np.arange(s_l), s_h)
    induced = build_hierarchical_matrix(HierarchicalGraphSpec(s_l, s_h, sep))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGap)  # sigma_k = sigma_{k+1} at separation 0
        report = bound_report(induced, LabelAssignment(labels, labels, s_l), s_l)
    return (sep, report.alpha, report.sigma_next, report.dominant_term, report.sigma_gap,
            report.kappa, report.constant_proxy)


def _point_case(params, task):
    """For ``task = (point, seeds)``: the labeling error and sigma_{k+1} of
    sweep point ``point``'s clean joint, from its bound report, which
    refuses a k without a sigma_{k+1}; and for each seed in order the
    probe error of top-k features fitted to a sampled estimate of that
    joint, drawn with the generator ``[seed, 40, point]``."""
    point, seeds = task
    classes, groups, group_size, dim = (params[key] for key in ("classes", "groups", "group_size", "dim"))
    masses = _sweep_masses(point, params["sweep_points"], classes, groups, group_size, params["cross_mass"])
    clean = JointDistribution(_block_matrix((classes, groups, group_size), masses))
    labels = np.repeat(np.arange(classes), groups * group_size)
    terms = bound_report(clean, LabelAssignment(labels, labels, classes), dim)
    flat = clean.matrix.ravel()
    mass = flat / flat.sum()
    errors = []
    for seed in seeds:
        counts = default_rng([seed, 40, point]).multinomial(params["sample_pairs"], mass)
        counts = counts.reshape(clean.matrix.shape).astype(float)
        norm = normalize_cooccurrence(JointDistribution.from_counts((counts + counts.T) / 2.0))
        _, features = _uni_encoder(norm, dim)
        kept, weights = labels[norm.visual_index], norm.marginal_visual
        errors.append(probe_error(fit_probe(features, kept, weights), features, kept, weights))
    return terms.alpha, terms.sigma_next, errors


def _bound_sweep_units(params, seeds):
    """The monotonicity pairs; the bound terms along the separation sweep
    for the first pair, where its graph has more blocks than classes; and
    the sweep points, each probing every seed."""
    _require("classes", params["classes"], params["classes"] >= 2, "at least 2 classes for a cross-class mass")
    _require("sweep_points", params["sweep_points"], params["sweep_points"] >= 2, "two points to rank")
    points, cross_mass = params["sweep_points"], params["cross_mass"]
    sizes = tuple(params[key] for key in ("classes", "groups", "group_size"))
    tiers = [_sweep_masses(point, points, *sizes, cross_mass) for point in range(points)]
    _require("cross_mass", cross_mass, cross_mass > 0 and all(cross <= mid <= within for cross, mid, within in tiers),
             "0 < cross <= mid <= within at every sweep point")
    s_l, s_h = params["pairs"][0]
    return [(_monotone_case, params["pairs"]),
            (_bound_case, params["separations"] if s_l * s_h >= s_l + 1 else ()),
            (_point_case, [(point, tuple(seeds)) for point in range(params["sweep_points"])])]


def _bound_sweep_reduce(params, seeds, worsts, bound_rows, sweep):
    checks = [_check(f"monotone-sl{s_l}-sh{s_h}", worst, params["tolerance"],
                     "max over t, d<d' of sigma_t(d) - sigma_t(d')")
              for (s_l, s_h), worst in zip(params["pairs"], worsts)]
    alphas, sigma_next, errors = (np.array(column) for column in zip(*sweep))
    checks.append(_check("alpha-fixed", float(np.max(np.abs(alphas - params["cross_mass"]))), 1e-12,
                         "labeling error is pinned by the cross-class mass across the sweep"))
    mean_errors = errors.mean(axis=1)
    checks.append(_check("probe-sigma-spearman", _rank_correlation(mean_errors, sigma_next),
                         params["spearman_min"],
                         f"mean probe error per point: {list(map(float, mean_errors))!r}", ok=operator.ge))
    return checks, {
        "bound_terms.csv": (["separation", "alpha", "sigma_next", "dominant_term",
                             "sigma_gap", "kappa", "constant_proxy"], bound_rows),
        "probe_sweep.csv": (["point", "sigma_next_clean", "alpha", "probe_error_mean"],
                            [(p, float(sigma_next[p]), float(alphas[p]), float(mean_errors[p]))
                             for p in range(params["sweep_points"])]),
    }


# ---------------------------------------------------------------------------
# uni-equivalence: multi-modal closed form vs uni-modal top-k features


def _uni_case(params, seed):
    dim = params["dim"]
    joint, labels, norm, dec = _gapped_multimodal(params, seed)
    closed_v, _ = optimal_encoders(norm, dec, dim)
    top, features = _uni_encoder(normalized_uni(norm), dim)
    pred_multi = fit_probe(closed_v, labels.visual, norm.marginal_visual).predict(closed_v)
    pred_uni = fit_probe(features, labels.visual, norm.marginal_visual).predict(features)
    mismatches = int(np.sum(pred_multi != pred_uni))
    return mismatches, _max_principal_angle(dec.left[:, :dim], top)


def _max_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the spans of two orthonormal bases
    of one width, by Knyazev & Argentati's algorithm (2002, SIAM J. Sci.
    Comput. 23(6)) step for step as the tests' oracle ``subspace_angles``
    takes it: cosines are the singular values of ``qa.T @ qb``; once a
    squared cosine reaches 1/2, sines come from the residual
    ``qb - qa @ (qa.T @ qb)``."""
    qa = np.linalg.svd(a, full_matrices=False)[0]
    qb = np.linalg.svd(b, full_matrices=False)[0]
    cross = qa.T @ qb
    cosines = np.linalg.svd(cross, compute_uv=False)
    mask = cosines**2 >= 0.5
    sines = np.linalg.svd(qb - qa @ cross, compute_uv=False) if mask.any() else 0.0
    angles = np.where(mask, np.arcsin(np.clip(sines, -1.0, 1.0)),
                      np.arccos(np.clip(cosines[::-1], -1.0, 1.0)))
    return float(np.max(angles))


def _uni_equivalence_reduce(params, seeds, results):
    checks, rows = [], []
    for index, (mismatches, angle) in enumerate(results):
        checks.append(_check(f"probe-identical-{index + 1:02d}", float(mismatches), 0.0,
                             "multi-modal vs uni-modal probe predictions"))
        checks.append(_check(f"subspace-angle-{index + 1:02d}", angle, params["tolerance"],
                             "largest principal angle, left singular vs uni-modal eigenvectors",
                             ok=operator.lt))
        rows.append((index + 1, mismatches, angle))
    return checks, {"uni_equivalence.csv": (["instance", "probe_mismatches", "max_principal_angle"], rows)}


# ---------------------------------------------------------------------------
# estimators: the labeling-error lower bound, and graph comparison between a
# teacher-feature estimate and a leaky augmentation model


def _alpha_case(params, seed):
    rng = default_rng([seed, 60])
    r = int(rng.integers(2, 5))
    nv = int(rng.integers(max(r, 4), 21))
    nl = int(rng.integers(4, 26))
    joint = _random_joint(rng, nv, nl)
    labels_v = _covering_labels(rng, nv, r)
    labels_l = rng.integers(0, r, size=nl)
    labels = LabelAssignment(labels_v, labels_l, r)
    alpha = labeling_error(joint, labels)
    alpha_t = surrogate_labeling_error(text_induced(joint), labels_v)
    return alpha - alpha_t / 2.0


def _estimator_case(params, seed):
    _, labels, norm = _multimodal_instance(params, seed)
    teacher_v, _ = optimal_encoders(norm, decompose(norm), params["dim"])
    alpha_teacher = surrogate_labeling_error(estimate_cooccurrence(teacher_v), labels.visual)
    beta_teacher, _ = intra_class_connectivity(teacher_v, labels.visual)

    induced, labels_aug = _augmentation_instance(params, labels.visual, seed)
    alpha_aug = surrogate_labeling_error(induced, labels_aug)
    norm = normalize_cooccurrence(induced)
    _, features = _uni_encoder(norm, params["dim"])
    beta_aug, _ = intra_class_connectivity(features, labels_aug[norm.visual_index])
    return alpha_teacher, beta_teacher, alpha_aug, beta_aug


def _estimators_units(params, seeds):
    return [(_alpha_case, [seeds[0] + i for i in range(params["bound_instances"])]), (_estimator_case, seeds)]


def _estimators_reduce(params, seeds, margins, results):
    margins, results = np.asarray(margins), np.asarray(results)
    alpha_teacher, beta_teacher, alpha_aug, beta_aug = (float(x) for x in results.mean(axis=0))
    checks = [
        _check("alpha-halves-bound", float(margins.min()), params["bound_tolerance"],
               f"min of alpha - alpha_T/2 over {params['bound_instances']} instances",
               ok=lambda v, t: v >= -t),
        _check("alpha-direction", float(alpha_aug - alpha_teacher), 0.0,
               f"mean alpha_T: teacher={alpha_teacher!r} augmentation={alpha_aug!r}", ok=operator.gt),
        _check("beta-direction", float(beta_teacher - beta_aug), 0.0,
               f"mean beta: teacher={beta_teacher!r} augmentation={beta_aug!r}", ok=operator.gt),
    ]
    rows = [row for a_t, b_t, a_a, b_a in results
            for row in (("teacher", float(a_t), float(b_t)), ("augmentation", float(a_a), float(b_a)))]
    return checks, {"estimators.csv": (["graph", "alpha_T", "beta"], rows)}


# ---------------------------------------------------------------------------
# resample-compare: seed-paired comparison of the four strategies against a
# plain SGD baseline on a leaky augmentation instance with an ideal teacher


def _resample_instance(params, seed: int):
    """(induced joint, augmented labels, one-hot class teacher, sampled training config) of one seed."""
    classes, parents = params["classes"], params["parents_per_class"]
    induced, labels_aug = _augmentation_instance(params, np.repeat(np.arange(classes), parents), seed)
    teacher = EncoderTable(np.eye(classes)[labels_aug], side="augmented")
    cfg = TrainConfig(dim=params["dim"], learning_rate=params["learning_rate"], max_steps=params["steps"],
                      batch_mode="sampled", batch_size=params["batch_size"], seed=seed)
    return induced, labels_aug, teacher, cfg


def _resample_case(params, seed):
    induced, labels_aug, teacher, cfg = _resample_instance(params, seed)
    resamples = [None] + [ResampleConfig(name, mixing_weight=params["mixing_weight"]) for name in STRATEGIES]
    accuracies = []
    for resample in resamples:  # the baseline, then each strategy
        encoder, _ = train_sscl(induced, cfg=cfg, resample=resample, teacher=teacher)
        probe = fit_probe(encoder, labels_aug, induced.marginal)
        accuracies.append(1.0 - probe_error(probe, encoder, labels_aug, induced.marginal))
    return accuracies


def _resample_compare_reduce(params, seeds, table):
    table = np.asarray(table)
    baseline = table[:, 0]
    margins = {name: float(np.mean(table[:, i + 1] - baseline)) for i, name in enumerate(STRATEGIES)}

    best_other = max(v for k, v in margins.items() if k != "AddNewPositive")
    checks = [_check("addnew-largest-margin", margins["AddNewPositive"] - best_other, 0.0,
                     f"paired mean accuracy margins over baseline: {margins!r}", ok=operator.gt)]
    for i, name in enumerate(STRATEGIES):
        checks.append(_check(f"nonharm-{name}", margins[name], params["harm_limit"],
                             f"mean accuracy {float(np.mean(table[:, i + 1]))!r} "
                             f"vs baseline {float(np.mean(baseline))!r}",
                             ok=lambda v, t: v >= -t))
    rows = [(seed, *[float(x) for x in row]) for seed, row in zip(seeds, table)]
    return checks, {"resample.csv": (["seed", "baseline", *STRATEGIES], rows)}


@dataclass(frozen=True)
class Suite:
    """One experiment kind. ``units(params, seeds)`` lists the run's work
    as ``(fn, tasks)`` groups, each unit a top-level ``fn(params, task)``;
    ``reduce(params, seeds, *results)`` gets each group's results in task
    order and returns the checks and the artifact tables, ``{file name:
    (header, rows)}``; ``defaults`` are the instance parameters a config
    file or CLI flags override (the resolved values are recorded in the
    RunReport); ``num_seeds`` is the seed count when none is configured;
    and ``--tolerance`` sets ``params[tolerance_key]``."""

    units: Callable
    reduce: Callable
    defaults: dict
    num_seeds: int
    tolerance_key: str = "tolerance"


def _over_seeds(*fns):
    """The ``units`` of a suite whose groups each map one ``fn(params, seed)`` over the seeds."""
    return lambda params, seeds: [(fn, seeds) for fn in fns]


#: every experiment kind, in CLI order
SUITES = {
    "verify-equivalence": Suite(_verify_equivalence_units, _verify_equivalence_reduce, {
        "max_visual": 40,
        "max_language": 60,
        "max_dim": 8,
        "tolerance": 1e-9,
        "mean_batches": 20000,
        "batch_size": 30,
        "z_limit": 3.0,
        "rate_batch_counts": (50, 200, 800, 3200),
        "rate_repeats": 24,
        "slope_limit": 0.15,
    }, num_seeds=50),
    "verify-optimum": Suite(_over_seeds(_optimum_case, _grad_case), _verify_optimum_reduce, {
        "classes": 3,
        "visual_per_class": 4,
        "language_per_class": 5,
        "target_alpha": 0.05,
        "concentration": 5.0,
        "dim": 3,
        "min_gap": 0.05,
        "tolerance": 1e-4,
        "learning_rate": 0.2,
        "max_steps": 40000,
        "grad_tolerance": 1e-6,
    }, num_seeds=10),
    "hrg-spectrum": Suite(_hrg_spectrum_units, _hrg_spectrum_reduce, {
        "s_low": (2, 6),
        "s_high": (1, 6),
        "separations": (0.0, 0.25, 0.5, 0.75, 1.0),
        "tolerance": 1e-10,
        "csv_pair": (2, 2),
    }, num_seeds=1),
    "bound-sweep": Suite(_bound_sweep_units, _bound_sweep_reduce, {
        "pairs": ((2, 2), (3, 2), (4, 3)),
        "separations": (0.0, 0.25, 0.5, 0.75, 1.0),
        "tolerance": 1e-12,
        "classes": 3,
        "groups": 3,
        "group_size": 4,
        "cross_mass": 0.15,
        "sweep_points": 9,
        "sample_pairs": 250,
        "dim": 3,
        "spearman_min": 0.8,
    }, num_seeds=8),
    "uni-equivalence": Suite(_over_seeds(_uni_case), _uni_equivalence_reduce, {
        "classes": 3,
        "visual_per_class": 4,
        "language_per_class": 5,
        "target_alpha": 0.05,
        "concentration": 5.0,
        "dim": 3,
        "min_gap": 0.05,
        "tolerance": 1e-8,
    }, num_seeds=10),
    "resample-compare": Suite(_over_seeds(_resample_case), _resample_compare_reduce, {
        "classes": 5,
        "parents_per_class": 4,
        "augmentations": 3,
        "leak": 0.15,
        "dim": 5,
        "batch_size": 120,
        "steps": 600,
        "learning_rate": 0.05,
        "mixing_weight": 1.0,
        "harm_limit": 0.005,
    }, num_seeds=10, tolerance_key="harm_limit"),
    "estimators": Suite(_estimators_units, _estimators_reduce, {
        "bound_instances": 100,
        "bound_tolerance": 1e-12,
        "classes": 3,
        "visual_per_class": 8,
        "language_per_class": 8,
        "target_alpha": 0.05,
        "concentration": 4.0,
        "dim": 3,
        "augmentations": 2,
        "leak": 0.35,
    }, num_seeds=10, tolerance_key="bound_tolerance"),
}


def _unit(params, unit):
    """One work unit ``(fn, task)``, run as ``fn(params, task)``."""
    fn, task = unit
    return fn(params, task)


def run(config: ExperimentConfig, workers: int = 1) -> RunReport:
    """Execute one experiment: every work unit of the suite in one map,
    over one pool of at most ``workers`` processes that is joined before
    the suite reduces the results; all checks evaluated (no fail-fast),
    CSV artifacts and the JSON report written under the output directory.
    This is the only code that writes there, and only after the suite
    succeeds: a failed run leaves no directory behind."""
    config = _instance("config", config, ExperimentConfig)
    workers = _integer("workers", workers, 1)
    start = time.perf_counter()
    suite, params, seeds = SUITES[config.kind], config.params, list(config.seeds)
    groups = suite.units(params, seeds)
    units = [(fn, task) for fn, tasks in groups for task in tasks]
    results = iter(_map_tasks(partial(_unit, params), units, workers))
    checks, tables = suite.reduce(params, seeds, *(list(islice(results, len(tasks))) for _, tasks in groups))
    if not checks:
        raise ConfigParseError(f"the {config.kind} configuration selects nothing to check")
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigParseError(f"output directory {out} is not writable: {exc}") from exc
    for name, (header, rows) in tables.items():
        save_csv(out / name, rows, header=header)
    report = RunReport(
        experiment=config.kind,
        config_hash=config.hash(),
        seeds=config.seeds,
        checks=tuple(checks),
        wall_clock_seconds=time.perf_counter() - start,
        artifacts=tuple(tables),
    )
    (out / f"{config.kind}-report.json").write_text(canonical_json(report.to_json_dict()) + "\n")
    return report


def _is_check(data) -> bool:
    return (isinstance(data, dict) and isinstance(data.get("name"), str)
            and isinstance(data.get("passed"), bool) and isinstance(data.get("detail"), str)
            and all(isinstance(data.get(k), (int, float)) and not isinstance(data.get(k), bool)
                    for k in ("value", "tolerance")))


def _report_dict(data, name: str) -> dict:
    """``data`` if it is the JSON form of a run report, as far as
    :func:`report_summary` reads one: an experiment name, a non-empty list
    of uniquely named checks, each with a number (not a bool) as its value
    and tolerance, and a pass flag that is true exactly when every check
    passed; anything else is a ConfigParseError naming ``name``."""
    if not (isinstance(data, dict) and isinstance(data.get("experiment"), str)
            and isinstance(data.get("all_passed"), bool) and isinstance(data.get("checks"), list)
            and data["checks"] and all(_is_check(c) for c in data["checks"])):
        raise ConfigParseError(f"{name} is not a run report")
    names = [c["name"] for c in data["checks"]]
    if len(names) != len(set(names)):
        raise ConfigParseError(f"{name} is not a run report: check names must be unique within a report")
    if data["all_passed"] != all(c["passed"] for c in data["checks"]):
        raise ConfigParseError(f"{name} is not a run report: all_passed disagrees with its checks")
    return data


def report_summary(reports) -> str:
    """Fixed-width pass/fail table over run reports, failures first.

    Accepts a list or tuple of RunReport objects or their JSON dict form
    (:func:`_report_dict`). The headline column shows the first failing
    check, or the total check count when all pass.
    """
    if not isinstance(reports, (list, tuple)):
        raise ConfigParseError(f"reports must be a list or tuple of run reports, got {type(reports).__name__}")
    if not reports:
        raise ConfigParseError("report summary needs at least one report")
    entries = []
    for index, report in enumerate(reports):
        data = report.to_json_dict() if isinstance(report, RunReport) else _report_dict(report, f"reports[{index}]")
        checks = data["checks"]
        failed = [c for c in checks if not c["passed"]]
        status = "FAIL" if failed else "PASS"
        if failed:
            first = failed[0]
            headline = f"{first['name']}={first['value']:.6g} (tolerance {first['tolerance']:g})"
        else:
            headline = f"all {len(checks)} checks passed"
        entries.append((status, data["experiment"], len(checks) - len(failed), len(checks), headline, data))
    entries.sort(key=lambda e: (e[0] != "FAIL", e[1]))

    width = max(max(len(e[1]) for e in entries), len("experiment"))
    lines = [f"{'status':6} {'experiment':{width}} {'checks':>7}  headline"]
    for status, kind, passed, total, headline, data in entries:
        lines.append(f"{status:6} {kind:{width}} {passed:>3}/{total:<3}  {headline}")
        if kind == "resample-compare":
            for check in data["checks"]:
                if check["name"].startswith("nonharm-"):
                    lines.append(f"{'':6} {'':{width}}   {check['name'][8:]}: "
                                 f"paired diff {check['value']:+.4f} ({check['detail']})")
    return "\n".join(lines)


__all__ = ["SUITES", "CheckResult", "ExperimentConfig", "RunReport", "run", "report_summary"]
