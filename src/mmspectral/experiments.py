"""Experiment harness: builds instances, runs the verification suites and
sweeps, and emits machine-readable reports.

Each experiment kind is a pure function of (params, seeds): given the same
configuration it writes byte-identical CSV artifacts and an identical
report up to the wall-clock field. Per-seed work units are top-level
functions taking one picklable task tuple, so a worker pool fans them out
without changing results; merging is by task order.
"""
from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

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
from .errors import ConfigParseError, InvalidSpec, NumericalFailure
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
    append_loss_record,
    empirical_scl,
    empirical_scl_batches,
    empirical_scl_grad,
    equivalence_constant,
    sample_batch,
    scl_grad,
    scl_loss,
    uni_scl_grad,
    uni_scl_loss,
)
from .serialize import canonical_json, config_hash, load_json_config, save_csv
from .spectral import OptimalEncoderParams, bound_report, decompose, hierarchical_eigenvalues, optimal_encoders
from .synth import (
    HierarchicalGraphSpec,
    MultiModalGenConfig,
    build_hierarchical_matrix,
    generate_augmentation_model,
    generate_multimodal,
)
from .train import STRATEGIES, ResampleConfig, TrainConfig, train_mmcl, train_sscl

KINDS = (
    "verify-equivalence",
    "verify-optimum",
    "hrg-spectrum",
    "bound-sweep",
    "uni-equivalence",
    "resample-compare",
    "estimators",
)

#: instance parameters per experiment kind; a config file or CLI flags
#: override these, and the resolved values are recorded in the RunReport
DEFAULTS = {
    "verify-equivalence": {
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
    },
    "verify-optimum": {
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
    },
    "hrg-spectrum": {
        "s_low": (2, 6),
        "s_high": (1, 6),
        "separations": (0.0, 0.25, 0.5, 0.75, 1.0),
        "tolerance": 1e-10,
        "csv_pair": (2, 2),
    },
    "bound-sweep": {
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
    },
    "uni-equivalence": {
        "classes": 3,
        "visual_per_class": 4,
        "language_per_class": 5,
        "target_alpha": 0.05,
        "concentration": 5.0,
        "dim": 3,
        "min_gap": 0.05,
        "tolerance": 1e-8,
    },
    "estimators": {
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
    },
    "resample-compare": {
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
    },
}

#: number of seeds (instances / repetitions) per kind when not configured
NUM_SEEDS = {
    "verify-equivalence": 50,
    "verify-optimum": 10,
    "hrg-spectrum": 1,
    "bound-sweep": 8,
    "uni-equivalence": 10,
    "resample-compare": 10,
    "estimators": 10,
}

#: param key the --tolerance flag overrides, per kind
TOLERANCE_KEY = {kind: "tolerance" for kind in KINDS}
TOLERANCE_KEY["estimators"] = "bound_tolerance"
TOLERANCE_KEY["resample-compare"] = "harm_limit"

_META_KEYS = ("seed", "num_seeds", "seeds", "out", "tolerance")


def _coerce_param(default, value):
    """Coerce a config-file value to the default's shape (JSON arrays come
    back as lists, numbers sometimes cross int/float)."""
    if isinstance(default, tuple):
        if default and isinstance(default[0], tuple):
            return tuple(tuple(v) for v in value)
        return tuple(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, int):
        return int(value)
    return value


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one experiment run."""

    kind: str
    params: dict
    seeds: tuple
    out: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigParseError(f"unknown experiment kind {self.kind!r}")
        if not self.seeds:
            raise ConfigParseError("seed list must be non-empty")
        unknown = set(self.params) - set(DEFAULTS[self.kind])
        if unknown:
            raise ConfigParseError(f"unknown parameters for {self.kind}: {sorted(unknown)}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @classmethod
    def build(cls, kind: str, config_path=None, seed=None, out=None,
              tolerance=None) -> "ExperimentConfig":
        """Resolve defaults <- config file <- command-line overrides."""
        if kind not in KINDS:
            raise ConfigParseError(f"unknown experiment kind {kind!r}")
        params = dict(DEFAULTS[kind])
        file_cfg = load_json_config(config_path) if config_path is not None else {}
        unknown = set(file_cfg) - set(params) - set(_META_KEYS)
        if unknown:
            raise ConfigParseError(f"unknown config keys for {kind}: {sorted(unknown)}")
        for key in sorted(set(file_cfg) & set(params)):
            params[key] = _coerce_param(params[key], file_cfg[key])

        if "seeds" in file_cfg:
            seeds = tuple(int(s) for s in file_cfg["seeds"])
        else:
            base = int(seed if seed is not None else file_cfg.get("seed", 0))
            count = int(file_cfg.get("num_seeds", NUM_SEEDS[kind]))
            if count < 1:
                raise ConfigParseError("num_seeds must be >= 1")
            seeds = tuple(range(base, base + count))
        if seed is not None and "seeds" in file_cfg:
            seeds = tuple(int(seed) + (s - seeds[0]) for s in seeds)

        if tolerance is not None:
            params[TOLERANCE_KEY[kind]] = float(tolerance)
        elif "tolerance" in file_cfg and "tolerance" not in DEFAULTS[kind]:
            params[TOLERANCE_KEY[kind]] = float(file_cfg["tolerance"])
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
    most one worker per task and per CPU."""
    tasks = list(tasks)
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _rank_correlation(a, b) -> float:
    """Spearman rank correlation, ties taking the mean of the ranks they
    span; nan for fewer than two points, constant input or nan input.
    Equal to ``scipy.stats.spearmanr(a, b).statistic``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size < 2 or np.all(a == a[0]) or np.all(b == b[0]) or np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    ranks = []
    for x in (a, b):
        _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2.0)[group])
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


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


def _top_eigvec_features(matrix: np.ndarray, marginal: np.ndarray, k: int) -> np.ndarray:
    """Top-k eigenvectors of a symmetric matrix, scaled per row by
    1/sqrt(marginal): the uni-modal closed-form encoder."""
    _, vecs = np.linalg.eigh(matrix)
    top = vecs[:, ::-1][:, :k]
    return top / np.sqrt(marginal)[:, None]


def _gapped_multimodal(seed: int, classes: int, vpc: int, lpc: int, alpha: float,
                       concentration: float, k: int, min_gap: float):
    """Draw synthetic instances until sigma_k - sigma_{k+1} >= min_gap.

    Re-draws keep determinism (attempt index folds into the seed); the
    generator's class structure makes the gap large with high probability,
    so this rarely loops.
    """
    for attempt in range(64):
        cfg = MultiModalGenConfig(classes, vpc, lpc, alpha, concentration,
                                  seed=seed * 1009 + attempt)
        joint, labels = generate_multimodal(cfg)
        s = decompose(normalize_cooccurrence(joint)).singular_values
        if k >= s.size or s[k - 1] - s[k] >= min_gap:
            return joint, labels
    raise NumericalFailure(
        f"no instance with spectral gap >= {min_gap} in 64 draws for seed {seed}")


# ---------------------------------------------------------------------------
# verify-equivalence: loss identity on random instances + sampled-loss
# unbiasedness and Monte-Carlo rate


def _equivalence_case(task):
    seed, max_v, max_l, max_k = task
    rng = default_rng([seed, 10])
    nv = int(rng.integers(2, max_v + 1))
    nl = int(rng.integers(2, max_l + 1))
    k = int(rng.integers(1, max_k + 1))
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
    return seed, nv, nl, k, residual, scl, amf


def _empirical_instance(seed: int):
    rng = default_rng([seed, 70])
    joint = _random_joint(rng, 6, 8)
    k = 3
    fv = rng.standard_normal((6, k)) / math.sqrt(k)
    fl = rng.standard_normal((8, k)) / math.sqrt(k)
    return joint, fv, fl


def _empirical_mean_case(task):
    seed, batches, n = task
    joint, fv, fl = _empirical_instance(seed)
    population = scl_loss(fv, fl, joint)
    values = empirical_scl_batches(fv, fl, BatchSampler(joint, n), default_rng([seed, 71]), batches)
    stderr = float(values.std(ddof=1)) / math.sqrt(batches)
    return float(values.mean()), population, stderr


def _empirical_rate_case(task):
    seed, rep, counts, n = task
    joint, fv, fl = _empirical_instance(seed)
    population = scl_loss(fv, fl, joint)
    values = empirical_scl_batches(fv, fl, BatchSampler(joint, n), default_rng([seed, 72, rep]), max(counts))
    running = np.cumsum(values)  # sequential, as a running sum is
    return [float(running[c - 1] / c - population) for c in counts]


def _run_verify_equivalence(params, seeds, out: Path, workers: int):
    checks, rows = [], []
    log = out / "loss_log.csv"
    log.unlink(missing_ok=True)
    tasks = [(s, params["max_visual"], params["max_language"], params["max_dim"]) for s in seeds]
    for i, (seed, nv, nl, k, residual, scl, amf) in enumerate(
            _map_tasks(_equivalence_case, tasks, workers)):
        checks.append(CheckResult(
            name=f"equivalence-{i + 1:02d}",
            passed=residual <= params["tolerance"],
            value=residual,
            tolerance=params["tolerance"],
            detail=f"N_V={nv} N_L={nl} k={k}",
        ))
        rows.append((i + 1, nv, nl, k, float(residual)))
        append_loss_record(log, f"instance-{i + 1:02d}", "scl", scl, seed=seed)
        append_loss_record(log, f"instance-{i + 1:02d}", "amf", amf, seed=seed)
    save_csv(out / "equivalence.csv", rows,
             header=["instance", "n_visual", "n_language", "dim", "relative_residual"])

    mean, population, stderr = _empirical_mean_case(
        (seeds[0], params["mean_batches"], params["batch_size"]))
    z = abs(mean - population) / stderr
    checks.append(CheckResult(
        name="empirical-mean-z",
        passed=z <= params["z_limit"],
        value=z,
        tolerance=params["z_limit"],
        detail=f"mean={mean!r} population={population!r} stderr={stderr!r}",
    ))

    counts = tuple(sorted(int(c) for c in params["rate_batch_counts"]))
    rate_tasks = [(seeds[0], rep, counts, params["batch_size"])
                  for rep in range(params["rate_repeats"])]
    deviations = np.asarray(_map_tasks(_empirical_rate_case, rate_tasks, workers))
    rmse = np.sqrt(np.mean(deviations**2, axis=0))
    slope = float(np.polyfit(np.log(counts), np.log(rmse), 1)[0])
    checks.append(CheckResult(
        name="empirical-rate-slope",
        passed=abs(slope + 0.5) <= params["slope_limit"],
        value=slope,
        tolerance=params["slope_limit"],
        detail=f"rmse={list(map(float, rmse))!r} at counts={list(counts)!r}",
    ))
    save_csv(out / "mc_rate.csv", list(zip(counts, map(float, rmse))),
             header=["num_batches", "rmse"])
    return checks, [out / "equivalence.csv", out / "loss_log.csv", out / "mc_rate.csv"]


# ---------------------------------------------------------------------------
# verify-optimum: population training reaches the truncated-decomposition
# optimum, trained and closed-form encoders probe identically, and analytic
# gradients match central finite differences


def _optimum_case(task):
    (index, seed, classes, vpc, lpc, alpha, conc, dim, min_gap, lr, max_steps, tol) = task
    joint, labels = _gapped_multimodal(seed, classes, vpc, lpc, alpha, conc, dim, min_gap)
    dec = decompose(normalize_cooccurrence(joint))
    target = -float(np.sum(dec.singular_values[:dim] ** 2))
    cfg = TrainConfig(dim=dim, learning_rate=lr, max_steps=max_steps, tolerance=tol, seed=seed)
    fv, fl, history = train_mmcl(joint, cfg)
    final = scl_loss(fv, fl, joint)
    closed_v, _ = optimal_encoders(joint, OptimalEncoderParams.identity(dim))
    pv = joint.marginal_visual
    trained_pred = fit_probe(fv.matrix, labels.visual, pv).predict(fv.matrix)
    closed_pred = fit_probe(closed_v.matrix, labels.visual, pv).predict(closed_v.matrix)
    mismatches = int(np.sum(trained_pred != closed_pred))
    return index, final - target, mismatches, final, target, len(history)


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


def _grad_case(task):
    seed = task
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

    induced = text_induced(joint)
    f = rng.standard_normal((nv, k))
    _, g = uni_scl_grad(f, induced)
    uni = _relative_error(g, _central_difference(lambda m: uni_scl_loss(m, induced), f))

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


def _run_verify_optimum(params, seeds, out: Path, workers: int):
    checks, rows = [], []
    tasks = [
        (i, seed, params["classes"], params["visual_per_class"], params["language_per_class"],
         params["target_alpha"], params["concentration"], params["dim"], params["min_gap"],
         params["learning_rate"], params["max_steps"], params["tolerance"])
        for i, seed in enumerate(seeds)
    ]
    for index, gap, mismatches, final, target, steps in _map_tasks(_optimum_case, tasks, workers):
        checks.append(CheckResult(
            name=f"optimum-gap-{index + 1:02d}",
            passed=abs(gap) <= params["tolerance"],
            value=gap,
            tolerance=params["tolerance"],
            detail=f"final={final!r} optimum={target!r} accepted_steps={steps}",
        ))
        checks.append(CheckResult(
            name=f"probe-match-{index + 1:02d}",
            passed=mismatches == 0,
            value=float(mismatches),
            tolerance=0.0,
            detail="trained vs closed-form probe predictions",
        ))
        rows.append((index + 1, float(final), float(target), float(gap), mismatches))
    save_csv(out / "optimum.csv", rows,
             header=["instance", "final_loss", "optimum", "gap", "probe_mismatches"])

    grads = np.asarray(_map_tasks(_grad_case, list(seeds), workers))
    for column, name in enumerate(("population", "uni", "empirical")):
        worst = float(grads[:, column].max())
        checks.append(CheckResult(
            name=f"grad-{name}",
            passed=worst <= params["grad_tolerance"],
            value=worst,
            tolerance=params["grad_tolerance"],
            detail=f"max relative error over {len(seeds)} instances",
        ))
    return checks, [out / "optimum.csv"]


# ---------------------------------------------------------------------------
# hrg-spectrum: closed-form eigenvalues against dense eigendecomposition


def _hrg_case(task):
    s_l, s_h, separations = task
    worst = 0.0
    for sep in separations:
        spec = HierarchicalGraphSpec.from_separation(s_l, s_h, sep)
        closed_raw = hierarchical_eigenvalues(spec)
        induced = build_hierarchical_matrix(spec)
        numeric_raw = np.sort(np.linalg.eigvalsh(induced.matrix))[::-1]
        worst = max(worst, float(np.max(np.abs(closed_raw - numeric_raw))))
        norm = normalize_cooccurrence(JointDistribution(induced.matrix))
        numeric_norm = decompose(norm).singular_values
        closed_norm = spec.num_samples * closed_raw
        worst = max(worst, float(np.max(np.abs(closed_norm - numeric_norm))))
    return s_l, s_h, worst


def _run_hrg_spectrum(params, seeds, out: Path, workers: int):
    lo = tuple(int(x) for x in params["s_low"])
    hi = tuple(int(x) for x in params["s_high"])
    separations = tuple(float(x) for x in params["separations"])
    tasks = [(s_l, s_h, separations)
             for s_l in range(lo[0], lo[1] + 1)
             for s_h in range(hi[0], hi[1] + 1)]
    checks = []
    for s_l, s_h, worst in _map_tasks(_hrg_case, tasks, workers):
        checks.append(CheckResult(
            name=f"hrg-sl{s_l}-sh{s_h}",
            passed=worst <= params["tolerance"],
            value=worst,
            tolerance=params["tolerance"],
            detail=f"max |closed - numeric| over {len(separations)} separations",
        ))

    s_l, s_h = (int(x) for x in params["csv_pair"])
    rows = []
    for sep in separations:
        spec = HierarchicalGraphSpec.from_separation(s_l, s_h, sep)
        svals = spec.num_samples * hierarchical_eigenvalues(spec)
        rows.append((float(sep), *[float(v) for v in svals]))
    header = ["separation"] + [f"sigma_{t + 1}" for t in range(s_l * s_h)]
    path = out / f"hrg_sl{s_l}_sh{s_h}.csv"
    save_csv(path, rows, header=header)
    return checks, [path]


# ---------------------------------------------------------------------------
# bound-sweep: singular-value monotonicity in the separation, bound terms,
# and the probe-error vs sigma_{k+1} correlation at fixed labeling error


def _monotone_case(task):
    s_l, s_h, separations = task
    spectra = []
    for sep in sorted(separations):
        induced = build_hierarchical_matrix(HierarchicalGraphSpec.from_separation(s_l, s_h, sep))
        norm = normalize_cooccurrence(JointDistribution(induced.matrix))
        spectra.append(decompose(norm).singular_values)
    worst = -math.inf
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            worst = max(worst, float(np.max(spectra[i] - spectra[j])))
    return s_l, s_h, worst


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


def _sweep_case(task):
    point, points, seed, classes, groups, group_size, cross_mass, sample_pairs, dim = task
    within, mid, cross = _sweep_masses(point, points, classes, groups, group_size, cross_mass)
    matrix = _nested_block_matrix(classes, groups, group_size, within, mid, cross)
    labels = np.repeat(np.arange(classes), groups * group_size)

    clean = JointDistribution(matrix)
    alpha = labeling_error(clean, LabelAssignment(labels, labels, classes))
    sigma_next = float(decompose(normalize_cooccurrence(clean)).singular_values[dim])

    rng = default_rng([seed, 40, point])
    flat = matrix.ravel()
    counts = rng.multinomial(sample_pairs, flat / flat.sum()).reshape(matrix.shape).astype(float)
    counts = (counts + counts.T) / 2.0
    estimated = JointDistribution.from_counts(counts)
    norm = normalize_cooccurrence(estimated)
    features = _top_eigvec_features(norm.matrix, norm.marginal_visual, dim)
    kept = labels[norm.visual_index]
    probe = fit_probe(features, kept, norm.marginal_visual)
    error = probe_error(probe, features, kept, norm.marginal_visual)
    return point, seed, float(error), sigma_next, float(alpha)


def _run_bound_sweep(params, seeds, out: Path, workers: int):
    checks = []
    separations = tuple(float(x) for x in params["separations"])
    pair_tasks = [(int(a), int(b), separations) for a, b in params["pairs"]]
    for s_l, s_h, worst in _map_tasks(_monotone_case, pair_tasks, workers):
        checks.append(CheckResult(
            name=f"monotone-sl{s_l}-sh{s_h}",
            passed=worst <= params["tolerance"],
            value=worst,
            tolerance=params["tolerance"],
            detail="max over t, d<d' of sigma_t(d) - sigma_t(d')",
        ))

    # bound terms along the separation sweep for the first pair
    s_l, s_h = (int(x) for x in params["pairs"][0])
    bound_rows = []
    if s_l * s_h >= s_l + 1:
        labels = np.repeat(np.arange(s_l), s_h)
        assignment = LabelAssignment(labels, labels, s_l)
        for sep in separations:
            induced = build_hierarchical_matrix(HierarchicalGraphSpec.from_separation(s_l, s_h, sep))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = bound_report(JointDistribution(induced.matrix), assignment, s_l)
            bound_rows.append((float(sep), report.alpha, report.sigma_next,
                               report.dominant_term, report.sigma_gap,
                               report.kappa, report.constant_proxy))
    save_csv(out / "bound_terms.csv", bound_rows,
             header=["separation", "alpha", "sigma_next", "dominant_term",
                     "sigma_gap", "kappa", "constant_proxy"])

    points = int(params["sweep_points"])
    sweep_tasks = [
        (point, points, seed, params["classes"], params["groups"], params["group_size"],
         params["cross_mass"], params["sample_pairs"], params["dim"])
        for point in range(points) for seed in seeds
    ]
    results = _map_tasks(_sweep_case, sweep_tasks, workers)
    seed_column = {seed: j for j, seed in enumerate(seeds)}
    errors = np.zeros((points, len(seeds)))
    sigma_next = np.zeros(points)
    alphas = np.zeros(points)
    for point, seed, error, sigma, alpha in results:
        errors[point, seed_column[seed]] = error
        sigma_next[point] = sigma
        alphas[point] = alpha

    checks.append(CheckResult(
        name="alpha-fixed",
        passed=float(np.max(np.abs(alphas - params["cross_mass"]))) <= 1e-12,
        value=float(np.max(np.abs(alphas - params["cross_mass"]))),
        tolerance=1e-12,
        detail="labeling error is pinned by the cross-class mass across the sweep",
    ))
    mean_errors = errors.mean(axis=1)
    rho = _rank_correlation(mean_errors, sigma_next)
    checks.append(CheckResult(
        name="probe-sigma-spearman",
        passed=rho >= params["spearman_min"],
        value=rho,
        tolerance=params["spearman_min"],
        detail=f"mean probe error per point: {list(map(float, mean_errors))!r}",
    ))
    save_csv(out / "probe_sweep.csv",
             [(p, float(sigma_next[p]), float(alphas[p]), float(mean_errors[p]))
              for p in range(points)],
             header=["point", "sigma_next_clean", "alpha", "probe_error_mean"])
    return checks, [out / "bound_terms.csv", out / "probe_sweep.csv"]


# ---------------------------------------------------------------------------
# uni-equivalence: multi-modal closed form vs uni-modal top-k features


def _uni_case(task):
    index, seed, classes, vpc, lpc, alpha, conc, dim, min_gap = task
    joint, labels = _gapped_multimodal(seed, classes, vpc, lpc, alpha, conc, dim, min_gap)
    norm = normalize_cooccurrence(joint)
    dec = decompose(norm)
    closed_v, _ = optimal_encoders(joint, OptimalEncoderParams.identity(dim))

    uni = normalized_uni(norm)
    _, vecs = np.linalg.eigh(uni.matrix)
    top = vecs[:, ::-1][:, :dim]
    features = top / np.sqrt(norm.marginal_visual)[:, None]

    pv = norm.marginal_visual
    pred_multi = fit_probe(closed_v.matrix, labels.visual, pv).predict(closed_v.matrix)
    pred_uni = fit_probe(features, labels.visual, pv).predict(features)
    mismatches = int(np.sum(pred_multi != pred_uni))
    angles = subspace_angles(dec.left[:, :dim], top)
    return index, mismatches, float(np.max(angles)) if angles.size else 0.0


def _run_uni_equivalence(params, seeds, out: Path, workers: int):
    tasks = [
        (i, seed, params["classes"], params["visual_per_class"], params["language_per_class"],
         params["target_alpha"], params["concentration"], params["dim"], params["min_gap"])
        for i, seed in enumerate(seeds)
    ]
    checks, rows = [], []
    for index, mismatches, angle in _map_tasks(_uni_case, tasks, workers):
        checks.append(CheckResult(
            name=f"probe-identical-{index + 1:02d}",
            passed=mismatches == 0,
            value=float(mismatches),
            tolerance=0.0,
            detail="multi-modal vs uni-modal probe predictions",
        ))
        checks.append(CheckResult(
            name=f"subspace-angle-{index + 1:02d}",
            passed=angle < params["tolerance"],
            value=angle,
            tolerance=params["tolerance"],
            detail="largest principal angle, left singular vs uni-modal eigenvectors",
        ))
        rows.append((index + 1, mismatches, angle))
    save_csv(out / "uni_equivalence.csv", rows,
             header=["instance", "probe_mismatches", "max_principal_angle"])
    return checks, [out / "uni_equivalence.csv"]


# ---------------------------------------------------------------------------
# estimators: the labeling-error lower bound, and graph comparison between a
# teacher-feature estimate and a leaky augmentation model


def _alpha_case(task):
    seed = task
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


def _estimator_case(task):
    seed, classes, vpc, lpc, alpha, conc, dim, augs, leak = task
    cfg = MultiModalGenConfig(classes, vpc, lpc, alpha, conc, seed=seed)
    joint, labels = generate_multimodal(cfg)
    teacher_v, _ = optimal_encoders(joint, OptimalEncoderParams.identity(dim))
    estimated = estimate_cooccurrence(teacher_v.matrix)
    alpha_teacher = surrogate_labeling_error(estimated, labels.visual)
    beta_teacher, _ = intra_class_connectivity(teacher_v.matrix, labels.visual, seed=seed)

    nv = classes * vpc
    model = generate_augmentation_model(nv, augs, leak, seed=seed)
    induced = augmentation_joint(model, np.full(nv, 1.0 / nv))
    labels_aug = model.labels_for_augmented(labels.visual)
    alpha_aug = surrogate_labeling_error(induced, labels_aug)
    norm = normalize_cooccurrence(JointDistribution(induced.matrix))
    features = _top_eigvec_features(norm.matrix, norm.marginal_visual, dim)
    beta_aug, _ = intra_class_connectivity(features, labels_aug[norm.visual_index], seed=seed)
    return alpha_teacher, beta_teacher, alpha_aug, beta_aug


def _run_estimators(params, seeds, out: Path, workers: int):
    checks = []
    instance_seeds = [seeds[0] + i for i in range(params["bound_instances"])]
    margins = np.asarray(_map_tasks(_alpha_case, instance_seeds, workers))
    checks.append(CheckResult(
        name="alpha-halves-bound",
        passed=float(margins.min()) >= -params["bound_tolerance"],
        value=float(margins.min()),
        tolerance=params["bound_tolerance"],
        detail=f"min of alpha - alpha_T/2 over {params['bound_instances']} instances",
    ))

    tasks = [
        (seed, params["classes"], params["visual_per_class"], params["language_per_class"],
         params["target_alpha"], params["concentration"], params["dim"],
         params["augmentations"], params["leak"])
        for seed in seeds
    ]
    results = np.asarray(_map_tasks(_estimator_case, tasks, workers))
    alpha_teacher, beta_teacher, alpha_aug, beta_aug = (float(x) for x in results.mean(axis=0))
    checks.append(CheckResult(
        name="alpha-direction",
        passed=alpha_teacher < alpha_aug,
        value=float(alpha_aug - alpha_teacher),
        tolerance=0.0,
        detail=f"mean alpha_T: teacher={alpha_teacher!r} augmentation={alpha_aug!r}",
    ))
    checks.append(CheckResult(
        name="beta-direction",
        passed=beta_teacher > beta_aug,
        value=float(beta_teacher - beta_aug),
        tolerance=0.0,
        detail=f"mean beta: teacher={beta_teacher!r} augmentation={beta_aug!r}",
    ))

    rows = []
    for case in results:
        rows.append(("teacher", float(case[0]), float(case[1])))
        rows.append(("augmentation", float(case[2]), float(case[3])))
    save_csv(out / "estimators.csv", rows, header=["graph", "alpha_T", "beta"])
    return checks, [out / "estimators.csv"]


# ---------------------------------------------------------------------------
# resample-compare: seed-paired comparison of the four strategies against a
# plain SGD baseline on a leaky augmentation instance with an ideal teacher


def _resample_case(task):
    (seed, classes, ppc, augs, leak, dim, batch_size, steps, lr, mixing) = task
    nv = classes * ppc
    labels_v = np.repeat(np.arange(classes), ppc)
    model = generate_augmentation_model(nv, augs, leak, seed=seed)
    induced = augmentation_joint(model, np.full(nv, 1.0 / nv))
    labels_aug = model.labels_for_augmented(labels_v)
    marginal = induced.marginal
    teacher = EncoderTable(_one_hot(labels_aug, classes), side="augmented")

    cfg = TrainConfig(dim=dim, learning_rate=lr, max_steps=steps,
                      batch_mode="sampled", batch_size=batch_size, seed=seed)
    accuracies = []
    for name in ("baseline",) + STRATEGIES:
        resample = None if name == "baseline" else ResampleConfig(name, mixing_weight=mixing)
        encoder, _ = train_sscl(induced, cfg=cfg, resample=resample, teacher=teacher)
        probe = fit_probe(encoder.matrix, labels_aug, marginal)
        accuracies.append(1.0 - probe_error(probe, encoder.matrix, labels_aug, marginal))
    return (seed, *accuracies)


def _run_resample_compare(params, seeds, out: Path, workers: int):
    tasks = [
        (seed, params["classes"], params["parents_per_class"], params["augmentations"],
         params["leak"], params["dim"], params["batch_size"], params["steps"],
         params["learning_rate"], params["mixing_weight"])
        for seed in seeds
    ]
    rows = _map_tasks(_resample_case, tasks, workers)
    table = np.asarray([row[1:] for row in rows])
    baseline = table[:, 0]
    margins = {name: float(np.mean(table[:, i + 1] - baseline))
               for i, name in enumerate(STRATEGIES)}

    checks = []
    best_other = max(v for k, v in margins.items() if k != "AddNewPositive")
    checks.append(CheckResult(
        name="addnew-largest-margin",
        passed=margins["AddNewPositive"] > best_other,
        value=margins["AddNewPositive"] - best_other,
        tolerance=0.0,
        detail=f"paired mean accuracy margins over baseline: {margins!r}",
    ))
    for i, name in enumerate(STRATEGIES):
        checks.append(CheckResult(
            name=f"nonharm-{name}",
            passed=margins[name] >= -params["harm_limit"],
            value=margins[name],
            tolerance=params["harm_limit"],
            detail=f"mean accuracy {float(np.mean(table[:, i + 1]))!r} "
                   f"vs baseline {float(np.mean(baseline))!r}",
        ))
    save_csv(out / "resample.csv",
             [(int(r[0]), *[float(x) for x in r[1:]]) for r in rows],
             header=["seed", "baseline", *STRATEGIES])
    return checks, [out / "resample.csv"]


_RUNNERS = {
    "verify-equivalence": _run_verify_equivalence,
    "verify-optimum": _run_verify_optimum,
    "hrg-spectrum": _run_hrg_spectrum,
    "bound-sweep": _run_bound_sweep,
    "uni-equivalence": _run_uni_equivalence,
    "resample-compare": _run_resample_compare,
    "estimators": _run_estimators,
}


def run(config: ExperimentConfig, workers: int = 1) -> RunReport:
    """Execute one experiment: all checks evaluated (no fail-fast), CSV
    artifacts and the JSON report written under the output directory."""
    start = time.perf_counter()
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigParseError(f"output directory {out} is not writable: {exc}") from exc
    checks, artifacts = _RUNNERS[config.kind](config.params, list(config.seeds), out, max(1, int(workers)))
    report = RunReport(
        experiment=config.kind,
        config_hash=config.hash(),
        seeds=config.seeds,
        checks=tuple(checks),
        wall_clock_seconds=time.perf_counter() - start,
        artifacts=tuple(Path(p).name for p in artifacts),
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


__all__ = [
    "KINDS", "DEFAULTS", "NUM_SEEDS", "CheckResult", "ExperimentConfig",
    "RunReport", "run", "report_summary",
]
