"""Experiment harness: config resolution, reports, and reproducible runs."""
import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmspectral import (
    SUITES,
    CheckResult,
    ConfigParseError,
    ExperimentConfig,
    HierarchicalGraphSpec,
    InvalidSpec,
    JointDistribution,
    LabelAssignment,
    RunReport,
    bound_report,
    build_hierarchical_matrix,
    report_summary,
    run,
)
from mmspectral import experiments, spectral
from mmspectral.experiments import _map_tasks, _rank_correlation
from oracles import spearman_oracle


def check(name, passed=True, value=0.0, tolerance=1e-9, detail=""):
    return CheckResult(name=name, passed=passed, value=value, tolerance=tolerance, detail=detail)


def report(kind="hrg-spectrum", checks=(), **kw):
    fields = dict(experiment=kind, config_hash="0" * 64, seeds=(0,),
                  checks=tuple(checks), wall_clock_seconds=0.0, artifacts=())
    fields.update(kw)
    return RunReport(**fields)


class TestExperimentConfigBuild:
    def test_defaults(self):
        cfg = ExperimentConfig.build("hrg-spectrum")
        assert cfg.params == SUITES["hrg-spectrum"].defaults
        assert cfg.seeds == tuple(range(SUITES["hrg-spectrum"].num_seeds))
        assert Path(cfg.out) == Path("runs") / "hrg-spectrum"

    def test_seed_flag_shifts_base(self):
        cfg = ExperimentConfig.build("estimators", seed=5)
        assert cfg.seeds == tuple(range(5, 5 + SUITES["estimators"].num_seeds))

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 4, "separations": [0.0, 0.5]}))
        cfg = ExperimentConfig.build("bound-sweep", config_path=path)
        assert cfg.params["dim"] == 4
        assert cfg.params["separations"] == (0.0, 0.5)

    def test_file_nested_tuples_coerced(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pairs": [[2, 2], [3, 3]]}))
        cfg = ExperimentConfig.build("bound-sweep", config_path=path)
        assert cfg.params["pairs"] == ((2, 2), (3, 3))

    def test_file_seed_list_wins_over_count(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [3, 4]}))
        assert ExperimentConfig.build("estimators", config_path=path).seeds == (3, 4)

    def test_seed_flag_shifts_file_seed_list(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [3, 4]}))
        assert ExperimentConfig.build("estimators", config_path=path, seed=10).seeds == (10, 11)

    def test_file_num_seeds(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5, "num_seeds": 2}))
        assert ExperimentConfig.build("estimators", config_path=path).seeds == (5, 6)

    def test_integral_floats_resolve_as_integers(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 3.0, "num_seeds": 8.0, "seed": 0.0}))
        cfg = ExperimentConfig.build("bound-sweep", config_path=path)
        default = ExperimentConfig.build("bound-sweep")
        assert cfg.params == default.params and cfg.seeds == default.seeds
        assert cfg.hash() == default.hash()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigParseError):
            ExperimentConfig.build("verify-everything")

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus_knob": 1}))
        with pytest.raises(ConfigParseError):
            ExperimentConfig.build("estimators", config_path=path)

    def test_unknown_param_rejected_by_constructor(self):
        with pytest.raises(ConfigParseError):
            ExperimentConfig(kind="estimators", params={"bogus_knob": 1}, seeds=(0,), out="x")

    def test_missing_params_rejected_by_constructor(self):
        with pytest.raises(ConfigParseError, match="missing parameters for estimators: .*'bound_instances'"):
            ExperimentConfig(kind="estimators", params={}, seeds=(0,), out="x")

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigParseError):
            ExperimentConfig(kind="estimators", params={}, seeds=(), out="x")

    def test_tolerance_flag_maps_per_kind(self):
        """Each kind names its headline tolerance differently; the flag
        lands on the right parameter."""
        for kind, suite in SUITES.items():
            cfg = ExperimentConfig.build(kind, tolerance=0.5)
            assert cfg.params[suite.tolerance_key] == 0.5

    def test_file_tolerance_maps_when_key_differs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tolerance": 1e-10}))
        cfg = ExperimentConfig.build("estimators", config_path=path)
        assert cfg.params["bound_tolerance"] == 1e-10

    def test_hash_ignores_output_directory(self):
        a = ExperimentConfig.build("estimators", out="first")
        b = ExperimentConfig.build("estimators", out="second")
        assert a.hash() == b.hash()
        assert a.hash() != ExperimentConfig.build("estimators", seed=1).hash()


class TestRunReport:
    def test_duplicate_check_names_rejected(self):
        with pytest.raises(InvalidSpec):
            report(checks=[check("same"), check("same")])

    def test_all_passed_tracks_checks(self):
        assert report(checks=[check("a"), check("b")]).all_passed
        assert not report(checks=[check("a"), check("b", passed=False)]).all_passed

    def test_json_dict_shape(self):
        data = report(checks=[check("a", value=0.25, detail="why")]).to_json_dict()
        assert set(data) == {"experiment", "config_hash", "seeds", "checks",
                             "wall_clock_seconds", "artifacts", "all_passed"}
        assert data["checks"][0] == {"name": "a", "passed": True, "value": 0.25,
                                     "tolerance": 1e-9, "detail": "why"}


class TestReportSummary:
    def test_empty_list_rejected(self):
        with pytest.raises(ConfigParseError):
            report_summary([])

    def test_single_pass_row(self):
        text = report_summary([report(checks=[check("a"), check("b")])])
        lines = text.splitlines()
        assert lines[0].startswith("status")
        assert lines[1].startswith("PASS")
        assert "all 2 checks passed" in lines[1]

    def test_failures_sort_first_and_show_headline(self):
        passing = report(kind="estimators", checks=[check("a")])
        failing = report(kind="verify-optimum",
                         checks=[check("gap", passed=False, value=0.125, tolerance=1e-4)])
        lines = report_summary([passing, failing]).splitlines()
        assert lines[1].startswith("FAIL")
        assert "gap=0.125" in lines[1]
        assert lines[2].startswith("PASS")

    def test_accepts_json_dict_form(self):
        data = report(checks=[check("a")]).to_json_dict()
        assert "PASS" in report_summary([data])

    def test_resample_rows_get_per_strategy_sublines(self):
        rep = report(kind="resample-compare", checks=[
            check("nonharm-AddNewPositive", value=0.48, tolerance=0.005, detail="10 seeds"),
            check("improves-any", value=1.0, tolerance=0.0),
        ])
        text = report_summary([rep])
        assert "AddNewPositive: paired diff +0.4800 (10 seeds)" in text


class TestRun:
    def test_run_writes_report_and_artifacts(self, tmp_path):
        cfg = ExperimentConfig.build("hrg-spectrum", out=tmp_path / "hrg")
        rep = run(cfg)
        assert rep.all_passed
        assert rep.config_hash == cfg.hash()
        for name in rep.artifacts:
            assert name == Path(name).name  # bare file names, no directories
            assert (tmp_path / "hrg" / name).is_file()
        on_disk = json.loads((tmp_path / "hrg" / "hrg-spectrum-report.json").read_text())
        assert on_disk["all_passed"] is True

    def test_bound_sweep_gives_a_repeated_seed_its_own_column(self, tmp_path):
        """Each entry of the seed list fills its own column of the probe
        sweep, so listing a seed twice leaves every per-point mean as is."""
        means = []
        for seeds in ([3], [3, 3]):
            name = f"seeds{len(seeds)}"
            (tmp_path / f"{name}.json").write_text(json.dumps({"seeds": seeds}))
            run(ExperimentConfig.build("bound-sweep", config_path=tmp_path / f"{name}.json",
                                       out=tmp_path / name))
            rows = (tmp_path / name / "probe_sweep.csv").read_text().splitlines()[1:]
            means.append([row.split(",")[3] for row in rows])
        assert means[0] == means[1]

    def test_loss_log_lists_both_losses_per_instance_in_seed_order(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [7, 3, 5], "mean_batches": 50, "rate_repeats": 3,
                                    "rate_batch_counts": [5, 20]}))
        cfg = ExperimentConfig.build("verify-equivalence", config_path=path, out=tmp_path / "eq")
        assert "loss_log.csv" in run(cfg).artifacts
        with (tmp_path / "eq" / "loss_log.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance_id", "loss_name", "value", "seed"]
        expect = []
        for i, seed in enumerate((7, 3, 5)):
            *_, scl, amf = experiments._equivalence_case(cfg.params, seed)
            expect += [[f"instance-{i + 1:02d}", "scl", repr(scl), str(seed)],
                       [f"instance-{i + 1:02d}", "amf", repr(amf), str(seed)]]
        assert rows[1:] == expect

    def test_rerun_is_byte_identical_up_to_wall_clock(self, tmp_path):
        """Same config, same bytes: only the wall-clock field may move, also
        between a sequential and a two-worker run. Every kind at its
        defaults, except a shortened resample-compare."""
        reduced = tmp_path / "resample.json"
        reduced.write_text(json.dumps({"num_seeds": 3, "steps": 40}))
        for kind in SUITES:
            path = reduced if kind == "resample-compare" else None
            cfg_a = ExperimentConfig.build(kind, config_path=path, out=tmp_path / kind / "a")
            cfg_b = ExperimentConfig.build(kind, config_path=path, out=tmp_path / kind / "b")
            rep_a = run(cfg_a, workers=1)
            rep_b = run(cfg_b, workers=2)
            for name in rep_a.artifacts:
                assert (tmp_path / kind / "a" / name).read_bytes() == (tmp_path / kind / "b" / name).read_bytes()
            dict_a, dict_b = rep_a.to_json_dict(), rep_b.to_json_dict()
            dict_a.pop("wall_clock_seconds")
            dict_b.pop("wall_clock_seconds")
            assert dict_a == dict_b


class TestOneDecompositionPerMatrix:
    """Each normalized matrix is decomposed once; the closed-form encoders
    read the decomposition their caller already holds."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        calls, original = [], spectral.decompose

        def counting(norm):
            calls.append(norm.matrix.shape)
            return original(norm)

        monkeypatch.setattr(spectral, "decompose", counting)
        monkeypatch.setattr(experiments, "decompose", counting)
        return calls

    def test_bound_report(self, shapes):
        joint = JointDistribution(build_hierarchical_matrix(HierarchicalGraphSpec.from_separation(2, 2, 0.5)).matrix)
        bound_report(joint, LabelAssignment([0, 0, 1, 1], [0, 0, 1, 1], 2), k=1)
        assert shapes == [(4, 4)]

    def test_uni_equivalence_unit(self, shapes):
        experiments._uni_case(SUITES["uni-equivalence"].defaults, 0)
        assert len(shapes) == 1

    def test_estimators_unit(self, shapes):
        experiments._estimator_case(SUITES["estimators"].defaults, 0)
        assert len(shapes) == 1


class TestMapTasks:
    class RecordingPool:
        """Stands in for ProcessPoolExecutor without starting processes."""

        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    @pytest.mark.parametrize("workers, tasks, cpus, expect", [
        (8, 3, 16, 3),     # one worker per task at most
        (8, 20, 2, 2),     # one worker per CPU at most
        (2, 20, None, None),  # unknown CPU count counts as one: no pool
        (4, 1, 16, None),  # a single task needs no pool
        (1, 20, 16, None),
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, tasks, cpus, expect):
        self.RecordingPool.sizes = []
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _map_tasks(abs, [-t for t in range(tasks)], workers) == list(range(tasks))
        assert self.RecordingPool.sizes == ([] if expect is None else [expect])


class TestRankCorrelation:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.floats(-1e3, 1e3)), min_size=2, max_size=30),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_is_exact_rho_rounded_once(self, pairs, tied):
        """Small integers force ties; floats mostly do not. The result is
        the float nearest the exact rho: rho lies within half a unit in the
        last place of it on either side."""
        a = np.array([p[0] for p in pairs], dtype=float)
        b = np.array([p[0] if tied else p[1] for p in pairs], dtype=float)[::-1]
        got = _rank_correlation(a, b)
        exact = spearman_oracle(a.tolist(), b.tolist())
        if exact is None:
            assert math.isnan(got)
            return
        sign, square = exact
        assert math.copysign(1.0, got) == sign or got == sign == 0
        size = abs(got)
        below = (Fraction(size) + Fraction(math.nextafter(size, 0.0))) / 2
        above = (Fraction(size) + Fraction(math.nextafter(size, 2.0))) / 2
        assert below**2 <= square <= above**2

    def test_exact_four_fifths(self):
        """A rho of exactly 4/5 that correlating float ranks rounds to
        0.7999999999999999, below a spearman_min of 0.8."""
        assert _rank_correlation([9, 8, 7, 6, 2, 3, 5, 1, 4], [9, 8, 7, 6, 5, 4, 3, 2, 1]) == 0.8

    def test_constant_input_is_nan(self):
        assert np.isnan(_rank_correlation([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))
        assert np.isnan(_rank_correlation([0.0, 1.0, 2.0], [4.0, 4.0, 4.0]))

    def test_exact_agreement_is_one(self):
        assert _rank_correlation([0.1, 0.5, 0.3], [1.0, 9.0, 2.0]) == 1.0


def test_package_import_leaves_out_slow_scipy_modules():
    src = str(Path(experiments.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mmspectral; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
