"""Experiment harness: builds instances, runs the verification suites and
sweeps, and emits machine-readable reports.

Each experiment kind is a :class:`Suite` in ``SUITES``. Its runner is a
pure function of (params, seeds) that returns the checks and the artifact
tables; :func:`run` alone writes them, so the same configuration gives
byte-identical CSV artifacts and an identical report up to the wall-clock
field. Work units are top-level functions of
``(params, seed)`` (or of ``(params, task)`` where a kind sweeps more than
seeds); runners map ``functools.partial(fn, params)`` over the tasks, so a
worker pool fans them out without changing results; merging is by task
order.
"""
from __future__ import annotations

import math
import operator
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.random import default_rng
from scipy.linalg import subspace_angles

from .distributions import (
    JointDistribution,
    LabelAssignment,
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
from .spectral import bound_report, decompose, hierarchical_eigenvalues, optimal_encoders
from .synth import (
    HierarchicalGraphSpec,
    MultiModalGenConfig,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
)
from .train import STRATEGIES, ResampleConfig, TrainConfig, train_mmcl, train_sscl

_META_KEYS = ("seed", "num_seeds", "seeds", "out", "tolerance")


#: array parameters that hold exactly two numbers; each entry of a nested
#: array parameter has the length of the default's entries
_PAIR_KEYS = ("s_low", "s_high", "csv_pair")


def _integer(value) -> int:
    """``int(value)``, refusing to truncate a non-integral number."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _count(value) -> int:
    """An integer parameter: every one is a count, so at least 1."""
    if _integer(value) < 1:
        raise ValueError(f"{value!r} is not >= 1")
    return int(value)


def _coerce_param(default, value, pair=False):
    """Coerce a config-file value to the default's shape (JSON arrays come
    back as lists, numbers sometimes cross int/float). An array must not be
    empty, every entry must convert to the type of the default's entries,
    as the runners convert it, and a pair must have two entries. Integers
    are counts, so at least 1."""
    if isinstance(default, tuple):
        if isinstance(default[0], tuple):
            value = tuple(tuple(v) for v in value)
            if any(len(v) != len(default[0]) for v in value):
                raise ValueError(f"every entry must hold {len(default[0])} values")
            entries, kind = [x for v in value for x in v], type(default[0][0])
        else:
            value = tuple(value)
            if pair and len(value) != 2:
                raise ValueError("must hold 2 values")
            entries, kind = value, type(default[0])
        if not value:
            raise ValueError("must not be empty")
        for x in entries:
            (_count if kind is int else kind)(x)
        return value
    if isinstance(default, float):
        return float(value)
    if isinstance(default, int):
        return _count(value)
    return value


def _parsed(key: str, convert, value):
    """``convert(value)``; a value of the wrong type or shape is a
    ConfigParseError naming its key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad value for {key!r}: {value!r} ({exc})") from exc


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one experiment run."""

    kind: str
    params: dict
    seeds: tuple
    out: str

    def __post_init__(self):
        if self.kind not in SUITES:
            raise ConfigParseError(f"unknown experiment kind {self.kind!r}")
        if not self.seeds:
            raise ConfigParseError("seed list must be non-empty")
        defaults = SUITES[self.kind].defaults
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigParseError(f"unknown parameters for {self.kind}: {sorted(unknown)}")
        missing = set(defaults) - set(self.params)
        if missing:
            raise ConfigParseError(f"missing parameters for {self.kind}: {sorted(missing)}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @classmethod
    def build(cls, kind: str, config_path=None, seed=None, out=None,
              tolerance=None) -> "ExperimentConfig":
        """Resolve defaults <- config file <- command-line overrides."""
        if kind not in SUITES:
            raise ConfigParseError(f"unknown experiment kind {kind!r}")
        suite = SUITES[kind]
        params = dict(suite.defaults)
        file_cfg = load_json_config(config_path) if config_path is not None else {}
        unknown = set(file_cfg) - set(params) - set(_META_KEYS)
        if unknown:
            raise ConfigParseError(f"unknown config keys for {kind}: {sorted(unknown)}")
        for key in sorted(set(file_cfg) & set(params)):
            params[key] = _parsed(key, partial(_coerce_param, params[key], pair=key in _PAIR_KEYS),
                                  file_cfg[key])

        if "seeds" in file_cfg:
            seeds = _parsed("seeds", lambda v: tuple(_integer(s) for s in v), file_cfg["seeds"])
        else:
            base = _parsed("seed", _integer, seed if seed is not None else file_cfg.get("seed", 0))
            count = _parsed("num_seeds", _integer, file_cfg.get("num_seeds", suite.num_seeds))
            if count < 1:
                raise ConfigParseError("num_seeds must be >= 1")
            seeds = tuple(range(base, base + count))
        if seed is not None and "seeds" in file_cfg:
            seeds = tuple(int(seed) + (s - seeds[0]) for s in seeds)

        if tolerance is not None:
            params[suite.tolerance_key] = float(tolerance)
        elif "tolerance" in file_cfg and "tolerance" not in suite.defaults:
            params[suite.tolerance_key] = _parsed("tolerance", float, file_cfg["tolerance"])
        out_dir = str(out if out is not None else file_cfg.get("out", Path("runs") / kind))
        return cls(kind=kind, params=params, seeds=seeds, out=out_dir)

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
    """Order-preserving map, optionally fanned over a process pool of at
    most one worker per task and per CPU. ``fn`` must pickle: a top-level
    function, or a ``functools.partial`` of one."""
    tasks = list(tasks)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _rank_correlation(a, b) -> float:
    """Spearman rank correlation, ties taking the mean of the ranks they
    span; nan for fewer than two points, constant input or nan input.

    Exact: on twice the ranks, integers, rho = C / sqrt(V_a V_b) in Python
    integers, rounded once. Without ties V_a = V_b and the root is exact;
    otherwise ``math.isqrt`` takes it 64 bits past the point."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
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


def _covering_labels(rng, n: int, r: int) -> np.ndarray:
    """Random labels over r classes, each class guaranteed to appear."""
    labels = np.concatenate([np.arange(r), rng.integers(0, r, size=n - r)])
    return labels[rng.permutation(n)]


def _one_hot(labels: np.ndarray, r: int) -> np.ndarray:
    out = np.zeros((labels.size, r))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _top_eigvecs(matrix: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of a symmetric matrix, largest eigenvalue first.
    Divided per row by sqrt of the marginal they are the uni-modal
    closed-form encoder."""
    _, vecs = np.linalg.eigh(matrix)
    return vecs[:, ::-1][:, :k]


def _gapped_multimodal(params, seed: int):
    """(joint, labels, normalized joint, decomposition) of the first
    synthetic instance with sigma_k - sigma_{k+1} >= min_gap.

    Re-draws keep determinism (attempt index folds into the seed); the
    generator's class structure makes the gap large with high probability,
    so this rarely loops.
    """
    k, min_gap = params["dim"], params["min_gap"]
    for attempt in range(64):
        cfg = MultiModalGenConfig(params["classes"], params["visual_per_class"],
                                  params["language_per_class"], params["target_alpha"],
                                  params["concentration"], seed=seed * 1009 + attempt)
        joint, labels = generate_multimodal(cfg)
        norm = normalize_cooccurrence(joint)
        dec = decompose(norm)
        s = dec.singular_values
        if k >= s.size or s[k - 1] - s[k] >= min_gap:
            return joint, labels, norm, dec
    raise NumericalFailure(
        f"no instance with spectral gap >= {min_gap} in 64 draws for seed {seed}")


# ---------------------------------------------------------------------------
# verify-equivalence: loss identity on random instances + sampled-loss
# unbiasedness and Monte-Carlo rate


def _equivalence_case(params, seed):
    rng = default_rng([seed, 10])
    nv = int(rng.integers(2, params["max_visual"] + 1))
    nl = int(rng.integers(2, params["max_language"] + 1))
    k = int(rng.integers(1, params["max_dim"] + 1))
    joint = _random_joint(rng, nv, nl)
    fv = rng.standard_normal((nv, k))
    fl = rng.standard_normal((nl, k))
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


def _empirical_instance(seed: int):
    rng = default_rng([seed, 70])
    joint = _random_joint(rng, 6, 8)
    k = 3
    fv = rng.standard_normal((6, k)) / math.sqrt(k)
    fl = rng.standard_normal((8, k)) / math.sqrt(k)
    return joint, fv, fl


def _empirical_mean_case(params, seed):
    batches = params["mean_batches"]
    joint, fv, fl = _empirical_instance(seed)
    population = scl_loss(fv, fl, joint)
    sampler = BatchSampler(joint, params["batch_size"])
    values = empirical_scl_batches(fv, fl, sampler, default_rng([seed, 71]), batches)
    stderr = float(values.std(ddof=1)) / math.sqrt(batches)
    return float(values.mean()), population, stderr


def _rate_counts(params) -> tuple:
    return tuple(sorted(int(c) for c in params["rate_batch_counts"]))


def _empirical_rate_case(params, seed, rep):
    counts = _rate_counts(params)
    joint, fv, fl = _empirical_instance(seed)
    population = scl_loss(fv, fl, joint)
    sampler = BatchSampler(joint, params["batch_size"])
    values = empirical_scl_batches(fv, fl, sampler, default_rng([seed, 72, rep]), max(counts))
    running = np.cumsum(values)  # sequential, as a running sum is
    return [float(running[c - 1] / c - population) for c in counts]


def _run_verify_equivalence(params, seeds, workers: int):
    checks, rows, log = [], [], []
    results = _map_tasks(partial(_equivalence_case, params), seeds, workers)
    for i, (seed, (nv, nl, k, residual, scl, amf)) in enumerate(zip(seeds, results)):
        checks.append(_check(f"equivalence-{i + 1:02d}", residual, params["tolerance"],
                             f"N_V={nv} N_L={nl} k={k}"))
        rows.append((i + 1, nv, nl, k, float(residual)))
        log += [(f"instance-{i + 1:02d}", "scl", scl, seed), (f"instance-{i + 1:02d}", "amf", amf, seed)]

    mean, population, stderr = _empirical_mean_case(params, seeds[0])
    checks.append(_check("empirical-mean-z", abs(mean - population) / stderr, params["z_limit"],
                         f"mean={mean!r} population={population!r} stderr={stderr!r}"))

    counts = _rate_counts(params)
    deviations = np.asarray(_map_tasks(partial(_empirical_rate_case, params, seeds[0]),
                                       range(params["rate_repeats"]), workers))
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
    pv = joint.marginal_visual
    trained_pred = fit_probe(fv.matrix, labels.visual, pv).predict(fv.matrix)
    closed_pred = fit_probe(closed_v.matrix, labels.visual, pv).predict(closed_v.matrix)
    mismatches = int(np.sum(trained_pred != closed_pred))
    return final - target, mismatches, final, target, len(history)


def _central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(x, dtype=float)
    flat = grad.ravel()
    for i in range(x.size):
        bump = np.zeros_like(x, dtype=float)
        bump.ravel()[i] = h
        flat[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * h)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.linalg.norm(analytic - numeric) /
                 max(1.0, float(np.linalg.norm(analytic))))


def _grad_case(seed):
    rng = default_rng([seed, 80])
    nv = int(rng.integers(3, 8))
    nl = int(rng.integers(3, 8))
    k = int(rng.integers(1, 4))
    joint = _random_joint(rng, nv, nl)
    fv = rng.standard_normal((nv, k))
    fl = rng.standard_normal((nl, k))

    _, gv, gl = scl_grad(fv, fl, joint)
    num_v = _central_difference(lambda m: scl_loss(m, fl, joint), fv)
    num_l = _central_difference(lambda m: scl_loss(fv, m, joint), fl)
    population = _relative_error(np.concatenate([gv.ravel(), gl.ravel()]),
                                 np.concatenate([num_v.ravel(), num_l.ravel()]))

    # the uni-modal loss: one table on both sides of the text-induced joint
    induced = JointDistribution(text_induced(joint).matrix)
    f = rng.standard_normal((nv, k))
    _, gv_uni, gl_uni = scl_grad(f, f, induced)
    uni = _relative_error(gv_uni + gl_uni, _central_difference(lambda m: scl_loss(m, m, induced), f))

    batch = sample_batch(joint, 12, seed=rng)
    extras = int(rng.integers(1, 4))
    batch = dc_replace(
        batch,
        extra_pos_visual=rng.integers(0, nv, size=extras),
        extra_pos_language=rng.integers(0, nl, size=extras),
        extra_pos_weight=rng.uniform(0.2, 2.0, size=extras),
    )
    _, bv, bl = empirical_scl_grad(fv, fl, batch)
    num_bv = _central_difference(lambda m: empirical_scl(m, fl, batch), fv)
    num_bl = _central_difference(lambda m: empirical_scl(fv, m, batch), fl)
    empirical = _relative_error(np.concatenate([bv.ravel(), bl.ravel()]),
                                np.concatenate([num_bv.ravel(), num_bl.ravel()]))
    return population, uni, empirical


def _run_verify_optimum(params, seeds, workers: int):
    checks, rows = [], []
    results = _map_tasks(partial(_optimum_case, params), seeds, workers)
    for index, (gap, mismatches, final, target, steps) in enumerate(results):
        checks.append(_check(f"optimum-gap-{index + 1:02d}", gap, params["tolerance"],
                             f"final={final!r} optimum={target!r} accepted_steps={steps}",
                             ok=lambda v, t: abs(v) <= t))
        checks.append(_check(f"probe-match-{index + 1:02d}", float(mismatches), 0.0,
                             "trained vs closed-form probe predictions"))
        rows.append((index + 1, float(final), float(target), float(gap), mismatches))

    grads = np.asarray(_map_tasks(_grad_case, seeds, workers))
    for column, name in enumerate(("population", "uni", "empirical")):
        checks.append(_check(f"grad-{name}", float(grads[:, column].max()), params["grad_tolerance"],
                             f"max relative error over {len(seeds)} instances"))
    return checks, {"optimum.csv": (["instance", "final_loss", "optimum", "gap", "probe_mismatches"], rows)}


# ---------------------------------------------------------------------------
# hrg-spectrum: closed-form eigenvalues against dense eigendecomposition


def _separations(params) -> tuple:
    return tuple(float(x) for x in params["separations"])


def _hrg_case(params, pair):
    s_l, s_h = pair
    worst = 0.0
    for sep in _separations(params):
        spec = HierarchicalGraphSpec.from_separation(s_l, s_h, sep)
        closed_raw = hierarchical_eigenvalues(spec)
        induced = build_hierarchical_matrix(spec)
        numeric_raw = np.sort(np.linalg.eigvalsh(induced.matrix))[::-1]
        worst = max(worst, float(np.max(np.abs(closed_raw - numeric_raw))))
        norm = normalize_cooccurrence(JointDistribution(induced.matrix))
        numeric_norm = decompose(norm).singular_values
        closed_norm = spec.num_samples * closed_raw
        worst = max(worst, float(np.max(np.abs(closed_norm - numeric_norm))))
    return worst


def _run_hrg_spectrum(params, seeds, workers: int):
    lo = tuple(int(x) for x in params["s_low"])
    hi = tuple(int(x) for x in params["s_high"])
    separations = _separations(params)
    pairs = [(s_l, s_h) for s_l in range(lo[0], lo[1] + 1) for s_h in range(hi[0], hi[1] + 1)]
    checks = [_check(f"hrg-sl{s_l}-sh{s_h}", worst, params["tolerance"],
                     f"max |closed - numeric| over {len(separations)} separations")
              for (s_l, s_h), worst in zip(pairs, _map_tasks(partial(_hrg_case, params), pairs, workers))]

    s_l, s_h = (int(x) for x in params["csv_pair"])
    rows = []
    for sep in separations:
        spec = HierarchicalGraphSpec.from_separation(s_l, s_h, sep)
        svals = spec.num_samples * hierarchical_eigenvalues(spec)
        rows.append((float(sep), *[float(v) for v in svals]))
    header = ["separation"] + [f"sigma_{t + 1}" for t in range(s_l * s_h)]
    return checks, {f"hrg_sl{s_l}_sh{s_h}.csv": (header, rows)}


# ---------------------------------------------------------------------------
# bound-sweep: singular-value monotonicity in the separation, bound terms,
# and the probe-error vs sigma_{k+1} correlation at fixed labeling error


def _monotone_case(params, pair):
    s_l, s_h = pair
    spectra = []
    for sep in sorted(_separations(params)):
        induced = build_hierarchical_matrix(HierarchicalGraphSpec.from_separation(s_l, s_h, sep))
        norm = normalize_cooccurrence(JointDistribution(induced.matrix))
        spectra.append(decompose(norm).singular_values)
    worst = -math.inf
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            worst = max(worst, float(np.max(spectra[i] - spectra[j])))
    return worst


def _nested_block_matrix(classes: int, groups: int, group_size: int,
                         within: float, mid: float, cross: float) -> np.ndarray:
    """Three-tier block-constant symmetric joint: ``within`` inside a
    group, ``mid`` across groups of one class, ``cross`` across classes."""
    n = classes * groups * group_size
    m = np.full((n, n), cross)
    block = groups * group_size
    for c in range(classes):
        sl = slice(c * block, (c + 1) * block)
        m[sl, sl] = mid
    for g in range(classes * groups):
        sl = slice(g * group_size, (g + 1) * group_size)
        m[sl, sl] = within
    return m


def _sweep_masses(point: int, points: int, classes: int, groups: int,
                  group_size: int, cross_mass: float):
    """Mass levels for sweep point ``point``: cross-class mass is pinned
    (fixed labeling error), the mid level climbs from its degenerate floor
    (mid = cross) toward the ceiling where the group tier vanishes."""
    n = classes * groups * group_size
    cross = cross_mass / (n * (classes - 1) * groups * group_size)
    mid_max = (1.0 - cross_mass) / (n * group_size * groups)
    tau = (point + 1) / (points + 1)
    mid = cross + tau * (mid_max - cross)
    within = (1.0 - cross_mass - n * (groups - 1) * group_size * mid) / (n * group_size)
    return within, mid, cross


def _sweep_case(params, task):
    """Probe error of top-k features fitted to a sampled estimate of one
    sweep point's clean joint ``matrix``."""
    matrix, point, seed = task
    dim = params["dim"]
    labels = np.repeat(np.arange(params["classes"]), params["groups"] * params["group_size"])
    rng = default_rng([seed, 40, point])
    flat = matrix.ravel()
    counts = rng.multinomial(params["sample_pairs"], flat / flat.sum()).reshape(matrix.shape).astype(float)
    counts = (counts + counts.T) / 2.0
    estimated = JointDistribution.from_counts(counts)
    norm = normalize_cooccurrence(estimated)
    features = _top_eigvecs(norm.matrix, dim) / np.sqrt(norm.marginal_visual)[:, None]
    kept = labels[norm.visual_index]
    probe = fit_probe(features, kept, norm.marginal_visual)
    return float(probe_error(probe, features, kept, norm.marginal_visual))


def _run_bound_sweep(params, seeds, workers: int):
    separations = _separations(params)
    pairs = [(int(a), int(b)) for a, b in params["pairs"]]
    checks = [_check(f"monotone-sl{s_l}-sh{s_h}", worst, params["tolerance"],
                     "max over t, d<d' of sigma_t(d) - sigma_t(d')")
              for (s_l, s_h), worst in zip(pairs, _map_tasks(partial(_monotone_case, params), pairs, workers))]

    # bound terms along the separation sweep for the first pair
    s_l, s_h = (int(x) for x in params["pairs"][0])
    bound_rows = []
    if s_l * s_h >= s_l + 1:
        labels = np.repeat(np.arange(s_l), s_h)
        assignment = LabelAssignment(labels, labels, s_l)
        for sep in separations:
            induced = build_hierarchical_matrix(HierarchicalGraphSpec.from_separation(s_l, s_h, sep))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateGap)  # sigma_k = sigma_{k+1} at separation 0
                report = bound_report(JointDistribution(induced.matrix), assignment, s_l)
            bound_rows.append((float(sep), report.alpha, report.sigma_next,
                               report.dominant_term, report.sigma_gap,
                               report.kappa, report.constant_proxy))

    # each sweep point's clean joint, labeling error and sigma_{k+1}, once;
    # the seeds then only resample it
    classes, groups, group_size = params["classes"], params["groups"], params["group_size"]
    points = int(params["sweep_points"])
    labels = np.repeat(np.arange(classes), groups * group_size)
    matrices, sigma_next, alphas = [], np.zeros(points), np.zeros(points)
    for point in range(points):
        masses = _sweep_masses(point, points, classes, groups, group_size, params["cross_mass"])
        clean = JointDistribution(_nested_block_matrix(classes, groups, group_size, *masses))
        matrices.append(clean.matrix)
        alphas[point] = labeling_error(clean, LabelAssignment(labels, labels, classes))
        sigma_next[point] = decompose(normalize_cooccurrence(clean)).singular_values[params["dim"]]
    tasks = [(matrices[point], point, seed) for point in range(points) for seed in seeds]
    errors = np.array(_map_tasks(partial(_sweep_case, params), tasks, workers)).reshape(points, len(seeds))

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
                             for p in range(points)]),
    }


# ---------------------------------------------------------------------------
# uni-equivalence: multi-modal closed form vs uni-modal top-k features


def _uni_case(params, seed):
    dim = params["dim"]
    joint, labels, norm, dec = _gapped_multimodal(params, seed)
    closed_v, _ = optimal_encoders(norm, dec, dim)

    pv = norm.marginal_visual
    top = _top_eigvecs(normalized_uni(norm).matrix, dim)
    features = top / np.sqrt(pv)[:, None]

    pred_multi = fit_probe(closed_v.matrix, labels.visual, pv).predict(closed_v.matrix)
    pred_uni = fit_probe(features, labels.visual, pv).predict(features)
    mismatches = int(np.sum(pred_multi != pred_uni))
    angles = subspace_angles(dec.left[:, :dim], top)
    return mismatches, float(np.max(angles)) if angles.size else 0.0


def _run_uni_equivalence(params, seeds, workers: int):
    checks, rows = [], []
    results = _map_tasks(partial(_uni_case, params), seeds, workers)
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


def _alpha_case(seed):
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
    classes, vpc, dim = params["classes"], params["visual_per_class"], params["dim"]
    cfg = MultiModalGenConfig(classes, vpc, params["language_per_class"], params["target_alpha"],
                              params["concentration"], seed=seed)
    joint, labels = generate_multimodal(cfg)
    norm = normalize_cooccurrence(joint)
    teacher_v, _ = optimal_encoders(norm, decompose(norm), dim)
    estimated = estimate_cooccurrence(teacher_v.matrix)
    alpha_teacher = surrogate_labeling_error(estimated, labels.visual)
    beta_teacher, _ = intra_class_connectivity(teacher_v.matrix, labels.visual)

    nv = classes * vpc
    model = generate_augmentation_model(nv, params["augmentations"], params["leak"], seed=seed)
    induced = augmentation_joint(model, np.full(nv, 1.0 / nv))
    labels_aug = model.labels_for_augmented(labels.visual)
    alpha_aug = surrogate_labeling_error(induced, labels_aug)
    norm = normalize_cooccurrence(JointDistribution(induced.matrix))
    features = _top_eigvecs(norm.matrix, dim) / np.sqrt(norm.marginal_visual)[:, None]
    beta_aug, _ = intra_class_connectivity(features, labels_aug[norm.visual_index])
    return alpha_teacher, beta_teacher, alpha_aug, beta_aug


def _run_estimators(params, seeds, workers: int):
    instance_seeds = [seeds[0] + i for i in range(params["bound_instances"])]
    margins = np.asarray(_map_tasks(_alpha_case, instance_seeds, workers))
    results = np.asarray(_map_tasks(partial(_estimator_case, params), seeds, workers))
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
    rows = []
    for case in results:
        rows.append(("teacher", float(case[0]), float(case[1])))
        rows.append(("augmentation", float(case[2]), float(case[3])))
    return checks, {"estimators.csv": (["graph", "alpha_T", "beta"], rows)}


# ---------------------------------------------------------------------------
# resample-compare: seed-paired comparison of the four strategies against a
# plain SGD baseline on a leaky augmentation instance with an ideal teacher


def _resample_case(params, seed):
    classes, ppc = params["classes"], params["parents_per_class"]
    nv = classes * ppc
    labels_v = np.repeat(np.arange(classes), ppc)
    model = generate_augmentation_model(nv, params["augmentations"], params["leak"], seed=seed)
    induced = augmentation_joint(model, np.full(nv, 1.0 / nv))
    labels_aug = model.labels_for_augmented(labels_v)
    marginal = induced.marginal
    teacher = EncoderTable(_one_hot(labels_aug, classes), side="augmented")

    cfg = TrainConfig(dim=params["dim"], learning_rate=params["learning_rate"], max_steps=params["steps"],
                      batch_mode="sampled", batch_size=params["batch_size"], seed=seed)
    accuracies = []
    for name in ("baseline",) + STRATEGIES:
        resample = None if name == "baseline" else ResampleConfig(name, mixing_weight=params["mixing_weight"])
        encoder, _ = train_sscl(induced, cfg=cfg, resample=resample, teacher=teacher)
        probe = fit_probe(encoder.matrix, labels_aug, marginal)
        accuracies.append(1.0 - probe_error(probe, encoder.matrix, labels_aug, marginal))
    return accuracies


def _run_resample_compare(params, seeds, workers: int):
    table = np.asarray(_map_tasks(partial(_resample_case, params), seeds, workers))
    baseline = table[:, 0]
    margins = {name: float(np.mean(table[:, i + 1] - baseline))
               for i, name in enumerate(STRATEGIES)}

    best_other = max(v for k, v in margins.items() if k != "AddNewPositive")
    checks = [_check("addnew-largest-margin", margins["AddNewPositive"] - best_other, 0.0,
                     f"paired mean accuracy margins over baseline: {margins!r}", ok=operator.gt)]
    for i, name in enumerate(STRATEGIES):
        checks.append(_check(f"nonharm-{name}", margins[name], params["harm_limit"],
                             f"mean accuracy {float(np.mean(table[:, i + 1]))!r} "
                             f"vs baseline {float(np.mean(baseline))!r}",
                             ok=lambda v, t: v >= -t))
    rows = [(int(seed), *[float(x) for x in row]) for seed, row in zip(seeds, table)]
    return checks, {"resample.csv": (["seed", "baseline", *STRATEGIES], rows)}


@dataclass(frozen=True)
class Suite:
    """One experiment kind. ``runner(params, seeds, workers)`` returns the
    checks and the artifact tables, ``{file name: (header, rows)}``;
    ``defaults`` are the instance parameters a config file or CLI flags
    override (the resolved values are recorded in the RunReport);
    ``num_seeds`` is the seed count when none is configured; and
    ``--tolerance`` sets ``params[tolerance_key]``."""

    runner: Callable
    defaults: dict
    num_seeds: int
    tolerance_key: str = "tolerance"


#: every experiment kind, in CLI order
SUITES = {
    "verify-equivalence": Suite(_run_verify_equivalence, {
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
    "verify-optimum": Suite(_run_verify_optimum, {
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
    "hrg-spectrum": Suite(_run_hrg_spectrum, {
        "s_low": (2, 6),
        "s_high": (1, 6),
        "separations": (0.0, 0.25, 0.5, 0.75, 1.0),
        "tolerance": 1e-10,
        "csv_pair": (2, 2),
    }, num_seeds=1),
    "bound-sweep": Suite(_run_bound_sweep, {
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
    "uni-equivalence": Suite(_run_uni_equivalence, {
        "classes": 3,
        "visual_per_class": 4,
        "language_per_class": 5,
        "target_alpha": 0.05,
        "concentration": 5.0,
        "dim": 3,
        "min_gap": 0.05,
        "tolerance": 1e-8,
    }, num_seeds=10),
    "resample-compare": Suite(_run_resample_compare, {
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
    "estimators": Suite(_run_estimators, {
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


def run(config: ExperimentConfig, workers: int = 1) -> RunReport:
    """Execute one experiment: all checks evaluated (no fail-fast), CSV
    artifacts and the JSON report written under the output directory.
    This is the only code that writes there, and only after the runner
    succeeds: a failed run leaves no directory behind."""
    start = time.perf_counter()
    checks, tables = SUITES[config.kind].runner(config.params, list(config.seeds), max(1, int(workers)))
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


def report_summary(reports) -> str:
    """Fixed-width pass/fail table over run reports, failures first.

    Accepts RunReport objects or their JSON dict form. The headline column
    shows the first failing check, or the total check count when all pass.
    """
    if not reports:
        raise ConfigParseError("report summary needs at least one report")
    entries = []
    for report in reports:
        data = report.to_json_dict() if isinstance(report, RunReport) else report
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
