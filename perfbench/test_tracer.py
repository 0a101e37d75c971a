"""Tests of the benchmark's tracer and metric lists.

    python3 -m pytest perfbench/test_tracer.py

Tracing must not change what the package computes, must put every
wrapped function back, and must account self time consistently; the
metric names ``run.py`` prints must be the ones ``BENCHMARK.json`` lists.
"""
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mmspectral  # noqa: E402
from mmspectral import experiments  # noqa: E402
from mmspectral.experiments import ExperimentConfig  # noqa: E402

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: small versions of every suite the workloads run, so the test is quick
SMALL = {
    "verify-equivalence": {"num_seeds": 3, "mean_batches": 300, "rate_repeats": 4,
                           "rate_batch_counts": [5, 20]},
    "resample-compare": {"num_seeds": 2, "steps": 15},
    "verify-optimum": {"num_seeds": 2},
    "hrg-spectrum": {"s_low": [2, 3], "s_high": [1, 2]},
    "bound-sweep": {"num_seeds": 2},
    "uni-equivalence": {"num_seeds": 2},
    "estimators": {"num_seeds": 2, "bound_instances": 5},
}


def _run_all(tmp: Path, out: Path, workers: int):
    for kind, overrides in SMALL.items():
        path = tmp / f"{kind}.json"
        path.write_text(json.dumps(overrides))
        cfg = ExperimentConfig.build(kind, config_path=path, seed=4, out=out / kind)
        experiments.run(cfg, workers=workers)


def _artifacts(out: Path) -> dict:
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("-report.json"):
            report = json.loads(data)
            report.pop("wall_clock_seconds")
            data = json.dumps(report, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def _bindings() -> dict:
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "mmspectral" or n.startswith("mmspectral."))]
    table = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    table[("Batch", "__post_init__")] = mmspectral.Batch.__post_init__
    return table


def _traced(tmp: Path, name: str, workers: int):
    tracer = tracing.Tracer(tmp / f"trace-{name}")
    tracer.install()
    try:
        assert mmspectral.train.sample_batch is mmspectral.losses.sample_batch
        assert mmspectral.losses.sample_batch.__wrapped__ is not None
        _run_all(tmp, tmp / name, workers)
    finally:
        tracer.uninstall()
    tracer.dump()
    return tracing.collect(tmp / f"trace-{name}")


def test_tracing_keeps_artifacts_and_restores_functions(tmp_path):
    _run_all(tmp_path, tmp_path / "plain", 1)
    before = _bindings()
    sequential = _traced(tmp_path, "traced", 1)
    fanout = _traced(tmp_path, "traced-fanout", 2)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    plain = _artifacts(tmp_path / "plain")
    assert _artifacts(tmp_path / "traced") == plain
    assert _artifacts(tmp_path / "traced-fanout") == plain
    # every worker's spans reach the merged totals
    assert sequential["processes"] == 1 and fanout["processes"] > 1
    assert fanout["calls"] == sequential["calls"]
    assert sequential["calls"]["experiments.run"] == len(SMALL)
    assert sequential["calls"]["train.train_sscl"] == 2 * 5


def test_self_time_matches_spans(tmp_path):
    tracer = tracing.Tracer(tmp_path / "trace")
    tracer.install()
    try:
        _run_all(tmp_path, tmp_path / "traced", 1)
    finally:
        tracer.uninstall()
    tracer.dump()
    (summary_path,) = (tmp_path / "trace").glob("summary-*.json")
    summary = json.loads(summary_path.read_text())
    ids, parents, names, starts, ends = tracing.read_spans(
        summary_path.with_name(summary_path.name.replace("summary-", "spans-").replace(".json", ".bin")))
    assert len(ids) == summary["spans"] == sum(summary["calls"].values())
    child = Counter()
    for parent, start, end in zip(parents, starts, ends):
        child[parent] += end - start
    self_s = Counter()
    for sid, nid, start, end in zip(ids, names, starts, ends):
        self_s[summary["names"][nid]] += end - start - child[sid]
    for name, value in summary["self_s"].items():
        assert value == pytest.approx(self_s[name], abs=1e-9)


def test_probes_accept_library_results():
    import numpy as np
    from mmspectral import EncoderTable, JointDistribution, ResampleConfig, sample_batch
    from mmspectral.train import STRATEGIES, apply_strategy, nearest_neighbor_positive

    rng = np.random.default_rng(3)
    teacher = EncoderTable(rng.standard_normal((9, 3)), side="augmented")
    joint = JointDistribution.from_counts(rng.gamma(2.0, size=(9, 9)) + rng.gamma(2.0, size=(9, 9)).T)
    for index in range(9):
        args = (index, np.arange(9), teacher)
        assert workloads.probe_nearest_neighbor(args, {}, nearest_neighbor_positive(*args))
        assert not workloads.probe_nearest_neighbor(args, {}, index)
    batch = sample_batch(joint, 60, seed=rng)
    for name in STRATEGIES:
        args = (batch, teacher, ResampleConfig(name, ratio=0.3 if name != "AddNewPositive" else None))
        assert workloads.probe_strategy(args, {}, apply_strategy(*args))
        assert name == "DropFalsePositive" or not workloads.probe_strategy(
            args, {}, apply_strategy(batch, teacher, ResampleConfig("DropFalsePositive", ratio=0.3)))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
