"""Workloads of the mmspectral benchmark and their output checks.

A workload is a list of suites, each run through the public API the CLI
uses (``ExperimentConfig.build`` then ``experiments.run``) with the
workload seed as the base seed. One round runs every suite once. The
checks below read the artifacts a round wrote and test them against
properties and oracles of the benchmark's own; they do not rest on the
suites' verdicts and compare against no stored copy of earlier output.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from numpy.random import default_rng

from mmspectral import experiments
from mmspectral.distributions import JointDistribution
from mmspectral.experiments import ExperimentConfig
from mmspectral.losses import scl_loss
from mmspectral.train import STRATEGIES

CONFIGS = Path(__file__).resolve().parent / "configs"

#: suite checks that pass or fail with the seed alone, as (kind, check name
#: prefix). A run cannot count them without its failed share depending on
#: the seed, so they still run and their verdicts are printed, but they are
#: not operations. Found by scanning base seeds:
#: - empirical-mean-z and empirical-rate-slope are statistical tests at
#:   about three standard errors; over base seeds 0-21 the slope came within
#:   0.031 of the edge of its band;
#: - optimum-gap fails for instance seed 286, whose descent stops 1.0e-3
#:   above the optimum after 39,996 accepted steps;
#: - the probe/sigma Spearman correlation fails for 11 of the base seeds
#:   0-59 at the default 8 seeds per sweep point;
#: - the two negative-drop non-harm margins fail for about a third of the
#:   base seeds 0-171.
SEED_DEPENDENT = (
    ("verify-equivalence", "empirical-mean-z"),
    ("verify-equivalence", "empirical-rate-slope"),
    ("verify-optimum", "optimum-gap-"),
    ("bound-sweep", "probe-sigma-spearman"),
    ("resample-compare", "nonharm-DropFalseNegative"),
    ("resample-compare", "nonharm-DropEasyNegative"),
)


def seed_dependent(kind: str, name: str) -> bool:
    return any(kind == k and name.startswith(prefix) for k, prefix in SEED_DEPENDENT)


@dataclass(frozen=True)
class Check:
    """One operation's outcome. ``counted`` is False for a verdict that
    depends on the seed alone (see SEED_DEPENDENT)."""

    name: str
    passed: bool
    detail: str = ""
    counted: bool = True


@dataclass(frozen=True)
class Suite:
    kind: str
    config: str | None = None  # file under configs/ with the widened sweep
    workers: int = 1

    def build(self, seed: int, out: Path) -> ExperimentConfig:
        path = CONFIGS / self.config if self.config else None
        return ExperimentConfig.build(self.kind, config_path=path, seed=seed,
                                      out=out / self.kind)


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple
    check: object  # (seed, rounds, out) -> list[Check]
    probes: dict = field(default_factory=dict)  # traced-run oracles, see tracer.Tracer
    min_rounds: int = 1


def build_configs(workload: "Workload", seed: int, out: Path) -> list:
    return [suite.build(seed, out) for suite in workload.suites]


# ---------------------------------------------------------------------------
# helpers


def _table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(path: Path, name: str) -> list:
    header, rows = _table(path)
    col = header.index(name)
    return [float(r[col]) for r in rows]


def _check_value(report, name: str) -> float:
    return next(c.value for c in report.checks if c.name == name)


def suite_checks(cfg: ExperimentConfig, report) -> list:
    """The suite's own checks, as operations of the round."""
    return [Check(f"{cfg.kind}/{c.name}", bool(c.passed), f"value={c.value!r}",
                  counted=not seed_dependent(cfg.kind, c.name))
            for c in report.checks]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# mc-loss: verify-equivalence


def _loop_scl(p, fv, fl) -> float:
    """Population spectral loss as plain double loops over the pairs."""
    pv = [sum(row) for row in p]
    pl = [sum(p[v][l] for v in range(len(p))) for l in range(len(p[0]))]
    loss = 0.0
    for v in range(len(p)):
        for l in range(len(p[0])):
            s = sum(a * b for a, b in zip(fv[v], fl[l]))
            loss += -2.0 * p[v][l] * s + pv[v] * pl[l] * s * s
    return loss


def _slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_mc_loss(seed, rounds, out):
    rng = default_rng([seed, 0x6D63])
    cases = []
    for _ in range(5):
        nv, nl, k = (int(x) for x in rng.integers((2, 2, 1), (9, 9, 5)))
        weights = rng.gamma(2.0, size=(nv, nl))
        cases.append((weights / weights.sum(), rng.standard_normal((nv, k)),
                      rng.standard_normal((nl, k))))
    checks = []
    for [(cfg, report)] in rounds:
        for i, (p, fv, fl) in enumerate(cases):
            got = scl_loss(fv, fl, JointDistribution(p))
            want = _loop_scl(p.tolist(), fv.tolist(), fl.tolist())
            checks.append(Check(f"scl-loss-loop-{i}", _close(got, want, 1e-9),
                                f"library={got!r} loop={want!r}"))
        out_dir = Path(cfg.out)
        checks += suite_checks(cfg, report)
        tol = cfg.params["tolerance"]
        residuals = _column(out_dir / "equivalence.csv", "relative_residual")
        checks.append(Check(
            "equivalence-residuals",
            len(residuals) == len(cfg.seeds) and all(r <= tol for r in residuals),
            f"{len(residuals)} rows, max {max(residuals)!r} vs {tol!r}"))

        counts = _column(out_dir / "mc_rate.csv", "num_batches")
        rmse = _column(out_dir / "mc_rate.csv", "rmse")
        checks.append(Check(
            "mc-rate-rows",
            counts == sorted(float(c) for c in cfg.params["rate_batch_counts"])
            and all(r > 0.0 for r in rmse),
            f"counts={counts} rmse={rmse}"))
        slope = _slope([math.log(c) for c in counts], [math.log(r) for r in rmse])
        reported = _check_value(report, "empirical-rate-slope")
        checks.append(Check("mc-slope-refit", _close(slope, reported, 1e-9),
                            f"refit={slope!r} reported={reported!r}"))
        checks.append(Check("mc-slope-band", abs(slope + 0.5) <= cfg.params["slope_limit"],
                            f"refit slope {slope!r}", counted=False))
        # Wide enough that no seed fails by chance (about five standard
        # deviations of the slope over seeds), tight enough to catch a
        # sampler or batch loss that no longer converges at rate n^-1/2.
        checks.append(Check("mc-slope-loose", abs(slope + 0.5) <= 0.3, f"refit slope {slope!r}"))
        detail = next(c.detail for c in report.checks if c.name == "empirical-mean-z")
        mean, population, stderr = (float(v) for v in re.findall(r"=(\S+)", detail))
        z = abs(mean - population) / stderr
        checks.append(Check("mc-mean-z-loose", z <= 5.0, f"z={z!r} from {detail}"))
    return checks


# ---------------------------------------------------------------------------
# resample-sgd / resample-fanout: resample-compare


def _resample_checks(cfg, report) -> list:
    path = Path(cfg.out) / "resample.csv"
    header, rows = _table(path)
    checks = suite_checks(cfg, report)
    checks.append(Check("resample-rows",
                        header == ["seed", "baseline", *STRATEGIES]
                        and [int(r[0]) for r in rows] == list(cfg.seeds),
                        f"header={header} seeds={[r[0] for r in rows]}"))
    table = [[float(x) for x in r[1:]] for r in rows]
    flat = [x for r in table for x in r]
    checks.append(Check("accuracy-in-unit-interval", all(0.0 <= x <= 1.0 for x in flat),
                        f"min={min(flat)!r} max={max(flat)!r}"))
    margins = {name: sum(r[i + 1] - r[0] for r in table) / len(table)
               for i, name in enumerate(STRATEGIES)}
    for name, margin in margins.items():
        reported = _check_value(report, f"nonharm-{name}")
        checks.append(Check(f"margin-{name}", _close(margin, reported, 1e-12),
                            f"recomputed={margin!r} reported={reported!r}"))
    lead = margins["AddNewPositive"] - max(v for k, v in margins.items() if k != "AddNewPositive")
    reported = _check_value(report, "addnew-largest-margin")
    checks.append(Check("margin-addnew-lead", _close(lead, reported, 1e-12),
                        f"recomputed={lead!r} reported={reported!r}"))
    limit = cfg.params["harm_limit"]
    verdicts = {c.name: c.passed for c in report.checks}
    agree = verdicts["addnew-largest-margin"] == (lead > 0.0) and all(
        verdicts[f"nonharm-{n}"] == (m >= -limit) for n, m in margins.items())
    checks.append(Check("verdicts-match-margins", agree, f"margins={margins!r}"))
    return checks


def check_resample(seed, rounds, out):
    checks = []
    for [(cfg, report)] in rounds:
        checks += _resample_checks(cfg, report)
    return checks


def _report_without_clock(path: Path) -> dict:
    data = json.loads(path.read_text())
    data.pop("wall_clock_seconds")
    return data


def check_fanout(seed, rounds, out):
    """The resample checks, plus byte identity with a sequential run of
    the same configuration made here, outside the timed rounds."""
    [(cfg, _)] = rounds[0]
    reference = ExperimentConfig.build(cfg.kind, seed=seed, out=out / "sequential")
    experiments.run(reference, workers=1)
    ref_dir = Path(reference.out)
    checks = []
    for [(cfg, report)] in rounds:
        checks += _resample_checks(cfg, report)
        out_dir = Path(cfg.out)
        name = f"{cfg.kind}-report.json"
        checks.append(Check("fanout-report-identical",
                            _report_without_clock(out_dir / name) == _report_without_clock(ref_dir / name),
                            "report without wall_clock_seconds vs sequential run"))
        checks.append(Check("fanout-csv-identical",
                            (out_dir / "resample.csv").read_bytes() == (ref_dir / "resample.csv").read_bytes(),
                            "resample.csv vs sequential run"))
    return checks


def _unit(row):
    norm = math.sqrt(sum(x * x for x in row))
    return [x / norm for x in row] if norm > 0.0 else list(row)


def probe_nearest_neighbor(args, kwargs, result) -> bool:
    """Argmax-cosine oracle: anchor excluded, ties to the smallest index."""
    index = args[0] if args else kwargs["index"]
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    teacher = args[2] if len(args) > 2 else kwargs["teacher"]
    rows = teacher.matrix.tolist()
    anchor = _unit(rows[int(index)])
    sims = {}
    for c in sorted({int(c) for c in candidates} - {int(index)}):
        sims[c] = sum(a * b for a, b in zip(_unit(rows[c]), anchor))
    best = max(sims.values())
    return result == min(c for c, s in sims.items() if s >= best - 1e-12)


def probe_strategy(args, kwargs, result) -> bool:
    """Drop counts are floor(ratio * pool); AddNewPositive appends one
    extra positive per positive."""
    batch, _, cfg = args if len(args) == 3 else (kwargs["batch"], kwargs["teacher"], kwargs["cfg"])
    pos, neg = batch.num_positives, batch.num_negatives
    extras = batch.extra_pos_visual.size
    if cfg.strategy == "AddNewPositive":
        return (result.num_positives, result.num_negatives, result.extra_pos_visual.size) == (
            pos, neg, extras + pos)
    if cfg.strategy == "DropFalsePositive":
        expect = (pos - math.floor(cfg.ratio * pos), neg)
    else:
        expect = (pos, neg - math.floor(cfg.ratio * neg))
    return (result.num_positives, result.num_negatives, result.extra_pos_visual.size) == (
        *expect, extras)


RESAMPLE_PROBES = {
    "train.nearest_neighbor_positive": (500, probe_nearest_neighbor),
    "train.apply_strategy": (50, probe_strategy),
}


# ---------------------------------------------------------------------------
# exact-spectral: the five exact suites in one process


def check_exact(seed, rounds, out):
    checks = []
    for results in rounds:
        by_kind = {cfg.kind: (cfg, report) for cfg, report in results}
        for cfg, report in results:
            checks += suite_checks(cfg, report)

        cfg, _ = by_kind["hrg-spectrum"]
        s_l, s_h = cfg.params["csv_pair"]
        header, rows = _table(Path(cfg.out) / f"hrg_sl{s_l}_sh{s_h}.csv")
        spectra = [[float(x) for x in r[1:]] for r in rows]
        checks.append(Check("hrg-sigma1-is-one", all(abs(s[0] - 1.0) <= 1e-12 for s in spectra),
                            f"sigma_1 = {[s[0] for s in spectra]}"))
        checks.append(Check("hrg-spectra-sorted",
                            all(a >= b - 1e-12 for s in spectra for a, b in zip(s, s[1:])),
                            f"{len(spectra)} spectra"))
        checks.append(Check("hrg-spectra-in-unit-interval",
                            all(-1e-12 <= x <= 1.0 + 1e-12 for s in spectra for x in s),
                            f"{len(spectra)} spectra"))

        cfg, _ = by_kind["verify-optimum"]
        optimum = _column(Path(cfg.out) / "optimum.csv", "optimum")
        mismatches = _column(Path(cfg.out) / "optimum.csv", "probe_mismatches")
        k = cfg.params["dim"]
        checks.append(Check("optimum-in-range",
                            len(optimum) == len(cfg.seeds) and all(-k <= o <= 0.0 for o in optimum),
                            f"min={min(optimum)!r} max={max(optimum)!r} k={k}"))
        checks.append(Check("optimum-probe-mismatches-zero", all(m == 0 for m in mismatches),
                            f"max={max(mismatches)}"))

        cfg, _ = by_kind["uni-equivalence"]
        mismatches = _column(Path(cfg.out) / "uni_equivalence.csv", "probe_mismatches")
        checks.append(Check("uni-probe-mismatches-zero",
                            len(mismatches) == len(cfg.seeds) and all(m == 0 for m in mismatches),
                            f"max={max(mismatches)}"))

        cfg, _ = by_kind["bound-sweep"]
        alphas = _column(Path(cfg.out) / "probe_sweep.csv", "alpha")
        sigmas = _column(Path(cfg.out) / "probe_sweep.csv", "sigma_next_clean")
        cross = cfg.params["cross_mass"]
        checks.append(Check("sweep-alpha-pinned", all(abs(a - cross) <= 1e-12 for a in alphas),
                            f"alpha={alphas} cross_mass={cross!r}"))
        checks.append(Check("sweep-sigma-in-unit-interval",
                            all(-1e-12 <= s <= 1.0 + 1e-12 for s in sigmas), f"sigma={sigmas}"))

        cfg, _ = by_kind["estimators"]
        alpha_t = _column(Path(cfg.out) / "estimators.csv", "alpha_T")
        checks.append(Check("estimators-alpha-in-unit-interval",
                            len(alpha_t) == 2 * len(cfg.seeds) and all(0.0 <= a <= 1.0 for a in alpha_t),
                            f"min={min(alpha_t)!r} max={max(alpha_t)!r}"))
    return checks


WORKLOADS = {w.name: w for w in (
    # a mc-loss round spreads about twice as much from run to run as a
    # resample-sgd round on a shared machine, so a run averages two
    Workload("mc-loss", (Suite("verify-equivalence"),), check_mc_loss, min_rounds=2),
    Workload("resample-sgd", (Suite("resample-compare"),), check_resample, RESAMPLE_PROBES),
    Workload("exact-spectral", (
        Suite("verify-optimum"),
        Suite("hrg-spectrum"),
        Suite("bound-sweep", "bound-sweep.json"),
        Suite("uni-equivalence", "uni-equivalence.json"),
        Suite("estimators", "estimators.json"),
    ), check_exact),
    Workload("resample-fanout", (Suite("resample-compare", workers=2),), check_fanout,
             RESAMPLE_PROBES),
)}
