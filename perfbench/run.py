"""Run one workload of the mmspectral benchmark and print its metrics.

    python3 perfbench/run.py --workload mc-loss --seed 3 --seconds 8 --trace 0

Run from anywhere inside a source checkout; nothing needs installing. The
package is imported from the checkout's ``src`` and everything the run
writes goes under ``perfbench/out``. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` operations and
the ``metrics``. Operations are the suites' checks and the benchmark's own
output checks (see ``workloads.py``). Exit code 0 means every operation
passed, 1 that at least one failed, 2 that the run could not start.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median of
fresh interpreters importing the package and building the configs),
``wall_s`` and ``cpu_s`` (median over rounds of the time and the CPU of
this process and its workers spent in ``experiments.run``) and
``peak_rss_mb``. With ``--trace 1`` every public package function is
wrapped (see ``tracer.py``) and the metrics are per layer.
"""
import os

# One BLAS/OpenMP thread per process, fixed before numpy loads: at default
# threading the SVD of a 60 x 60 rank-deficient matrix takes anywhere from
# 0.5 ms to about 100 ms on a busy two-core machine, and the thread pools
# burn extra CPU, so unpinned figures measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3

#: a fresh interpreter that imports the package and builds the workload's
#: configs; argv: src dir, benchmark dir, workload, seed, output dir
SETUP_CODE = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_configs(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5]))"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

#: traced functions reported as ``<name>.calls`` and ``<name>.self_s``
LAYER_FUNCTIONS = (
    "losses.sample_batch", "losses.empirical_scl_grad", "losses.empirical_scl",
    "losses.Batch", "losses.scl_loss", "losses.append_loss_record",
    "train.apply_strategy", "train.nearest_neighbor_positive", "train.train_mmcl",
    "train.train_sscl",
    "spectral.decompose", "spectral.optimal_encoders",
    "evaluation.fit_probe", "evaluation.probe_error", "evaluation.intra_class_connectivity",
    "distributions.normalize_cooccurrence", "distributions.text_induced",
    "distributions.augmentation_joint",
    "synth.generate_multimodal", "synth.generate_augmentation_model",
    "synth.build_hierarchical_matrix",
    "serialize.save_csv", "serialize.canonical_json",
    "experiments.run",
)

#: modules whose cumulative import time ``python -X importtime`` reports
SETUP_MODULES = (
    "mmspectral", "mmspectral.errors", "mmspectral.distributions", "mmspectral.losses",
    "mmspectral.evaluation", "mmspectral.synth", "mmspectral.spectral", "mmspectral.train",
    "mmspectral.serialize", "mmspectral.experiments", "scipy.special", "scipy.stats",
)


def layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["losses.empirical_scl.loss_only_share"] = "ratio"
    units["train.nearest_neighbor_positive.calls_per_anchor"] = "ratio"
    units["spectral.decompose.calls_per_matrix"] = "ratio"
    units["experiments.fanout.busy_share"] = "ratio"
    for module in SETUP_MODULES:
        units[f"setup.{module}.import_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _setup_command(workload: str, seed: int, out: Path, *flags) -> list:
    return [sys.executable, *flags, "-c", SETUP_CODE, str(SRC), str(BENCH),
            workload, str(seed), str(out / "setup")]


def measure_setup(workload: str, seed: int, out: Path) -> float:
    """Median wall time of fresh interpreters getting ready to run."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(_setup_command(workload, seed, out), check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_imports(workload: str, seed: int, out: Path) -> dict:
    """Median cumulative import time per module, from ``-X importtime``."""
    samples = {module: [] for module in SETUP_MODULES}
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(_setup_command(workload, seed, out, "-X", "importtime"),
                              check=True, capture_output=True, text=True)
        seen = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) * 1e-6
        for module in SETUP_MODULES:
            samples[module].append(seen.get(module, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def run_rounds(workloads, workload, seed: int, seconds: float, out: Path, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least the
    workload's ``min_rounds`` are done."""
    from mmspectral import experiments

    rounds, walls, cpus, worker_cpus = [], [], [], []
    begin = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - begin < seconds:
        configs = workloads.build_configs(workload, seed, out / f"round-{len(rounds)}")
        if tracer is not None:
            tracer.round = len(rounds)
        own0, kids0 = _cpu_seconds()
        start = time.perf_counter()
        reports = [experiments.run(cfg, workers=suite.workers)
                   for cfg, suite in zip(configs, workload.suites)]
        walls.append(time.perf_counter() - start)
        own1, kids1 = _cpu_seconds()
        cpus.append(own1 - own0 + kids1 - kids0)
        worker_cpus.append(kids1 - kids0)
        rounds.append(list(zip(configs, reports)))
    return rounds, walls, cpus, worker_cpus


def layer_metrics(totals: dict, rounds: int, walls, worker_cpus, workers: int) -> dict:
    calls, self_s = totals["calls"], totals["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in LAYER_FUNCTIONS:
        values[f"{name}.calls"] = calls[name] / rounds
        values[f"{name}.self_s"] = self_s[name] / rounds
    values["losses.empirical_scl.loss_only_share"] = ratio(
        totals["edges"][("losses.empirical_scl", "losses.empirical_scl_grad")],
        calls["losses.empirical_scl_grad"])
    values["train.nearest_neighbor_positive.calls_per_anchor"] = ratio(
        calls["train.nearest_neighbor_positive"],
        len(totals["distinct"]["train.nearest_neighbor_positive"]))
    values["spectral.decompose.calls_per_matrix"] = ratio(
        calls["spectral.decompose"], len(totals["distinct"]["spectral.decompose"]))
    values["experiments.fanout.busy_share"] = (
        statistics.median(c / (workers * w) for c, w in zip(worker_cpus, walls))
        if workers > 1 else 0.0)
    values["trace.wall_s"] = statistics.median(walls)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (SRC / "mmspectral" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'mmspectral'}; run inside a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]

    import mmspectral
    if Path(mmspectral.__file__).resolve().parent != (SRC / "mmspectral").resolve():
        _fail(f"imported mmspectral from {mmspectral.__file__}, not from {SRC}")
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workers = max(suite.workers for suite in workload.suites)

    tracer = None
    if args.trace:
        imports = measure_imports(workload.name, args.seed, out)
        tracer = tracing.Tracer(out / "trace", probes=workload.probes)
        tracer.install()
    else:
        setup_s = measure_setup(workload.name, args.seed, out)
    try:
        rounds, walls, cpus, worker_cpus = run_rounds(
            workloads, workload, args.seed, args.seconds, out, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    checks = workload.check(args.seed, rounds, out)
    if tracer is not None:
        tracer.dump()
        totals = tracing.collect(out / "trace")
        for name, attempted in sorted(totals["probe_attempted"].items()):
            wrong = totals["probe_failed"][name]
            checks += [workloads.Check(f"probe-{name}", True)] * (attempted - wrong)
            checks += [workloads.Check(f"probe-{name}", False, "oracle disagrees")] * wrong
        values = layer_metrics(totals, len(rounds), walls, worker_cpus, workers)
        for module, seconds in imports.items():
            values[f"setup.{module}.import_s"] = seconds
        units = layer_units()
        (out / "layers.json").write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
             "metrics": values}, indent=1))
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END_UNITS

    counted = [c for c in checks if c.counted]
    failed = [c for c in counted if not c.passed]
    uncounted = [c for c in checks if not c.counted]
    print(f"{workload.name} seed={args.seed} rounds={len(rounds)} "
          f"wall={[round(w, 3) for w in walls]} seed-dependent verdicts (not counted): "
          f"{sum(c.passed for c in uncounted)}/{len(uncounted)} passed", file=sys.stderr)
    for c in uncounted:
        if not c.passed:
            print(f"  seed-dependent FAIL {c.name}: {c.detail}", file=sys.stderr)
    for c in failed:
        print(f"  FAILED {c.name}: {c.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
