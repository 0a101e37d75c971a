"""Experiment harness: config resolution, reports, and reproducible runs."""
import ast
import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import subspace_angles

from mmspectral import (
    SUITES,
    CheckResult,
    ConfigParseError,
    ExperimentConfig,
    HierarchicalGraphSpec,
    InvalidSpec,
    JointDistribution,
    LabelAssignment,
    LinearProbe,
    RunReport,
    bound_report,
    build_hierarchical_matrix,
    fit_probe,
    probe_error,
    report_summary,
    run,
)
from mmspectral import experiments, spectral
from mmspectral.experiments import _map_tasks, _rank_correlation
from oracles import marginals_oracle, spearman_oracle


PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def three_tier_fill(classes, groups, group_size, within, mid, cross):
    """bound-sweep's clean joint filled tier by tier: ``cross`` everywhere,
    then ``mid`` on each class's diagonal block, then ``within`` on each
    group's."""
    n = classes * groups * group_size
    m = np.full((n, n), cross)
    block = groups * group_size
    for c in range(classes):
        m[c * block:(c + 1) * block, c * block:(c + 1) * block] = mid
    for g in range(classes * groups):
        m[g * group_size:(g + 1) * group_size, g * group_size:(g + 1) * group_size] = within
    return m


def check(name, passed=True, value=0.0, tolerance=1e-9, detail=""):
    return CheckResult(name=name, passed=passed, value=value, tolerance=tolerance, detail=detail)


def report(checks, kind="hrg-spectrum", **kw):
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

    @pytest.mark.parametrize("kind", SUITES)
    def test_defaults_written_back_as_floats_resolve_to_the_defaults(self, tmp_path, kind):
        """Every parameter written back to a file, integers as 3.0-style
        floats and arrays included, resolves to the default's types, so
        the config hash is the default's."""
        def floats(value):
            return [floats(v) for v in value] if isinstance(value, tuple) else float(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: floats(v) for key, v in SUITES[kind].defaults.items()}))
        cfg, default = ExperimentConfig.build(kind, config_path=path), ExperimentConfig.build(kind)
        assert repr(cfg.params) == repr(default.params) == repr(SUITES[kind].defaults)
        assert cfg.hash() == default.hash()

    def test_constructor_types_every_value(self):
        params = dict(SUITES["hrg-spectrum"].defaults, csv_pair=[2.0, np.int64(2)], tolerance=np.float64(1.0))
        cfg = ExperimentConfig(kind="hrg-spectrum", params=params, seeds=[np.int64(4), 5.0], out=Path("x"))
        assert repr(cfg.params["csv_pair"]) == "(2, 2)" and repr(cfg.params["tolerance"]) == "1.0"
        assert repr(cfg.seeds) == "(4, 5)" and cfg.out == "x"

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

    @pytest.mark.parametrize("payload,flags,key", [
        ({"seeds": [3], "num_seeds": -4}, {}, "num_seeds"),
        ({"seeds": [3], "seed": "x"}, {}, "seed"),
        ({"seed": -1}, {"seed": 2}, "seed"),
        ({"out": None}, {"out": "x"}, "out"),
        ({"tolerance": "x"}, {"tolerance": 0.5}, "harm_limit"),
    ], ids=["count-beside-list", "seed-beside-list", "seed-beside-flag", "out-beside-flag",
            "tolerance-beside-flag"])
    def test_overridden_meta_keys_are_checked(self, tmp_path, payload, flags, key):
        """A meta key the file gives is checked also where ``seeds`` or a
        flag takes its place."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigParseError, match=f"bad value for '{key}'"):
            ExperimentConfig.build("resample-compare", config_path=path, **flags)

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

    @pytest.mark.parametrize("kind, digest", [
        ("verify-equivalence", "43b8f5da3f63159dad33fe187e2efb108d5f3d7987e0d39cd838810846dc544f"),
        ("verify-optimum", "e8b3bf8633318c34c95993672ced83a142e3f521840a19520eadc187f8dfc280"),
        ("hrg-spectrum", "fb27d1e842a3e7516e9f9b4e24730a135693e765f65a6a02d545a6531e613823"),
        ("bound-sweep", "e256d42e2a54536cfef148fe7774bc5180835e5ab6cf6fa221d2cf1f604ee52c"),
        ("uni-equivalence", "7d333eecae0c063c86a1f3bd2b2bb05b93214ebeda5220e0b54dec986118904c"),
        ("resample-compare", "e4d211856aad7fea82afb3ada66f2038bf13b00dff0fb9a9bab85a9600e15686"),
        ("estimators", "c2f3156e6fdce5c084fc7a390b063a7775bcdf7c172fd323491cba907aa1a0ef"),
    ])
    def test_default_config_hashes_are_pinned(self, kind, digest):
        """A report names its configuration by this hash, so a change that
        moves a default, a parameter name or the hashing moves it too."""
        assert ExperimentConfig.build(kind).hash() == digest

    def test_hash_ignores_output_directory(self):
        a = ExperimentConfig.build("estimators", out="first")
        b = ExperimentConfig.build("estimators", out="second")
        assert a.hash() == b.hash()
        assert a.hash() != ExperimentConfig.build("estimators", seed=1).hash()


class TestRunReport:
    def test_duplicate_check_names_rejected(self):
        with pytest.raises(InvalidSpec):
            report(checks=[check("same"), check("same")])

    def test_a_report_without_checks_is_refused(self):
        with pytest.raises(InvalidSpec, match="at least one check"):
            report(checks=[])

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

    def test_a_report_without_checks_is_refused(self):
        """run refuses a configuration that selects no checks, so no run
        writes such a file, and it would read as a pass."""
        data = {"experiment": "hrg-spectrum", "all_passed": True, "checks": []}
        with pytest.raises(ConfigParseError, match=r"reports\[0\] is not a run report"):
            report_summary([data])

    @pytest.mark.parametrize("flag, passed", [(True, False), (False, True)])
    def test_a_pass_flag_that_disagrees_with_the_checks_is_refused(self, flag, passed):
        """A hand-edited report whose all_passed says otherwise than its
        checks would print one verdict and exit with the other."""
        data = dict(report(checks=[check("a", passed=passed)]).to_json_dict(), all_passed=flag)
        with pytest.raises(ConfigParseError, match=r"reports\[0\] is not a run report: all_passed disagrees"):
            report_summary([data])

    @pytest.mark.parametrize("checks, why", [
        ([check("a").to_json_dict()] * 2, ": check names must be unique within a report"),
        ([dict(check("a").to_json_dict(), value=True)], ""),
        ([dict(check("a").to_json_dict(), tolerance=False)], ""),
    ], ids=["repeated-name", "bool-value", "bool-tolerance"])
    def test_what_run_report_refuses_is_refused(self, checks, why):
        """RunReport refuses repeated check names, and no library number
        is a bool; a hand-written report is held to the same rules."""
        data = dict(report(checks=[check("a")]).to_json_dict(), checks=checks)
        with pytest.raises(ConfigParseError, match=rf"^reports\[0\] is not a run report{why}$"):
            report_summary([data])

    def test_a_nan_value_is_a_check_value(self):
        """A Spearman of constant input is nan, and its check a failure to show."""
        data = report(checks=[check("rho", passed=False, value=math.nan)]).to_json_dict()
        assert report_summary([data]).splitlines()[1].startswith("FAIL   hrg-spectrum   0/1    rho=nan")

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

    def test_a_config_of_another_type_is_refused_before_running(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidSpec, match="config must be an ExperimentConfig, got dict"):
            run({"kind": "hrg-spectrum"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_workers_below_one_or_not_integers_are_refused_before_running(self, tmp_path, workers):
        with pytest.raises(InvalidSpec, match="workers must be >= 1"):
            run(ExperimentConfig.build("hrg-spectrum", out=tmp_path / "hrg"), workers)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("config", [None, PERFBENCH_CONFIGS / "bound-sweep.json"], ids=["default", "perfbench"])
    def test_bound_sweep_clean_joints_keep_the_three_tier_fill(self, config, monkeypatch):
        """The suite hands each sweep point every seed, and the point's unit
        builds its clean joint with the bytes of the explicit three-tier
        fill and reads alpha and sigma_{k+1} off that joint."""
        cfg = ExperimentConfig.build("bound-sweep", config_path=config)
        params = cfg.params
        classes, groups, group_size, points = (params[key] for key in ("classes", "groups", "group_size",
                                                                        "sweep_points"))
        tasks = dict(SUITES["bound-sweep"].units(params, list(cfg.seeds)))[experiments._point_case]
        assert tasks == [(point, cfg.seeds) for point in range(points)]
        labeling, terms, cleans = experiments.labeling_error, experiments.bound_report, []

        def recording(joint, labels, k):
            cleans.append(joint)
            return terms(joint, labels, k)

        monkeypatch.setattr(experiments, "bound_report", recording)
        labels = np.repeat(np.arange(classes), groups * group_size)
        for point, _ in tasks:
            cleans.clear()
            alpha, sigma_next, _ = experiments._point_case(params, (point, ()))
            (clean,) = cleans
            cross, mid, within = experiments._sweep_masses(point, points, classes, groups, group_size,
                                                           params["cross_mass"])
            fill = JointDistribution(three_tier_fill(classes, groups, group_size, within, mid, cross))
            assert clean.matrix.dtype == fill.matrix.dtype and clean.matrix.tobytes() == fill.matrix.tobytes()
            assert alpha == labeling(fill, LabelAssignment(labels, labels, classes))
            assert sigma_next == spectral.decompose(
                experiments.normalize_cooccurrence(fill)).singular_values[params["dim"]]

    def test_bound_sweep_units_probe_the_labels_of_the_kept_samples(self, monkeypatch):
        """At 60 sampled pairs a seed's estimate leaves some visual samples
        unseen, and normalization prunes them; each probe error of a sweep
        point is the one fitted to the labels of the rows its estimate
        keeps, chosen here by a loop over the estimate's row sums."""
        params = dict(SUITES["bound-sweep"].defaults, sample_pairs=60)
        block = params["groups"] * params["group_size"]
        normalize, estimates = experiments.normalize_cooccurrence, []

        def recording(joint):  # each seed's estimate; bound_report normalizes the clean joint in spectral
            estimates.append(joint)
            return normalize(joint)

        monkeypatch.setattr(experiments, "normalize_cooccurrence", recording)
        tasks = dict(SUITES["bound-sweep"].units(params, list(range(8))))[experiments._point_case]
        pruned = 0
        for task in tasks:
            estimates.clear()
            _, _, errors = experiments._point_case(params, task)
            assert len(errors) == len(estimates) == len(task[1])
            for error, joint in zip(errors, estimates):
                row_mass, _ = marginals_oracle(joint.matrix)
                kept = [v for v in range(len(row_mass)) if row_mass[v] > 0]
                pruned += len(kept) < len(row_mass)
                norm = normalize(joint)
                _, features = experiments._uni_encoder(norm, params["dim"])
                labels = [v // block for v in kept]
                weights = norm.marginal_visual
                assert error == probe_error(fit_probe(features, labels, weights), features, labels, weights)
        assert pruned

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

    def test_rerun_is_byte_identical_up_to_wall_clock(self, tmp_path, monkeypatch):
        """Same config, same bytes: only the wall-clock field may move, also
        between a sequential and a two-worker run. Every kind at its
        defaults, except a shortened resample-compare. A sequential run
        opens no worker pool; a two-worker run opens one, of at most two
        processes, on a machine with two CPUs or more, and joins it before
        it returns."""
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        reduced = tmp_path / "resample.json"
        reduced.write_text(json.dumps({"num_seeds": 3, "steps": 40}))
        for kind in SUITES:
            path = reduced if kind == "resample-compare" else None
            cfg_a = ExperimentConfig.build(kind, config_path=path, out=tmp_path / kind / "a")
            cfg_b = ExperimentConfig.build(kind, config_path=path, out=tmp_path / kind / "b")
            rep_a = run(cfg_a, workers=1)
            assert pools == [], kind
            rep_b = run(cfg_b, workers=2)
            assert pools == ([2] if (os.cpu_count() or 1) >= 2 else []), kind
            assert multiprocessing.active_children() == [], kind
            pools.clear()
            for name in rep_a.artifacts:
                assert (tmp_path / kind / "a" / name).read_bytes() == (tmp_path / kind / "b" / name).read_bytes()
            dict_a, dict_b = rep_a.to_json_dict(), rep_b.to_json_dict()
            dict_a.pop("wall_clock_seconds")
            dict_b.pop("wall_clock_seconds")
            assert dict_a == dict_b


def plain(task) -> bool:
    """Whether ``task`` is built only from ints, floats, strings and tuples of them."""
    if isinstance(task, tuple):
        return all(map(plain, task))
    return type(task) in (int, float, str)


class TestUnitsAreData:
    """A suite's ``units`` lists plain-data tasks and computes nothing: the
    units build their own matrices."""

    CONFIGS = [(kind, config) for kind in SUITES
               for config in (None, PERFBENCH_CONFIGS / f"{kind}.json")
               if config is None or config.is_file()]

    @pytest.mark.parametrize("kind, config", CONFIGS,
                             ids=[f"{kind}-{'perfbench' if config else 'default'}" for kind, config in CONFIGS])
    def test_every_task_is_plain_data_listed_without_numerics(self, kind, config, monkeypatch):
        cfg = ExperimentConfig.build(kind, config_path=config)

        def refuse(*args, **kwargs):
            raise AssertionError("units computed a matrix")

        for name in ("_block_matrix", "JointDistribution", "normalize_cooccurrence", "decompose"):
            monkeypatch.setattr(experiments, name, refuse)
        groups = SUITES[kind].units(cfg.params, list(cfg.seeds))
        assert groups and all(isinstance(tasks, (list, tuple)) for _, tasks in groups)
        for fn, tasks in groups:
            assert getattr(experiments, fn.__name__) is fn
            assert all(plain(task) for task in tasks), fn.__name__


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
        joint = JointDistribution(build_hierarchical_matrix(HierarchicalGraphSpec(2, 2, 0.5)).matrix)
        bound_report(joint, LabelAssignment([0, 0, 1, 1], [0, 0, 1, 1], 2), k=1)
        assert shapes == [(4, 4)]

    def test_uni_equivalence_unit(self, shapes):
        experiments._uni_case(SUITES["uni-equivalence"].defaults, 0)
        assert len(shapes) == 1

    def test_estimators_unit(self, shapes):
        experiments._estimator_case(SUITES["estimators"].defaults, 0)
        assert len(shapes) == 1


class TestOneProbePerFeatureTable:
    """A unit fits one probe per feature table and reads it once: the
    units that compare predictions predict, the units that report an
    error take probe_error, which predicts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, fit, error, predict = [], experiments.fit_probe, experiments.probe_error, LinearProbe.predict

        def fitting(features, labels, weights=None):
            calls.append(("fit", features))
            return fit(features, labels, weights)

        def erring(probe, features, labels, weights=None):
            calls.append(("error", features))
            return error(probe, features, labels, weights)

        def predicting(probe, features):
            calls.append(("predict", features))
            return predict(probe, features)

        monkeypatch.setattr(experiments, "fit_probe", fitting)
        monkeypatch.setattr(experiments, "probe_error", erring)
        monkeypatch.setattr(LinearProbe, "predict", predicting)
        return calls

    @pytest.mark.parametrize("case, kind, overrides, task, fits, reads", [
        (experiments._optimum_case, "verify-optimum", {}, 0, 2, ["predict"]),
        (experiments._uni_case, "uni-equivalence", {}, 0, 2, ["predict"]),
        (experiments._point_case, "bound-sweep", {}, (0, (0, 1, 2)), 3, ["error", "predict"]),
        (experiments._resample_case, "resample-compare", {"steps": 30}, 0, 5, ["error", "predict"]),
    ], ids=["verify-optimum", "uni-equivalence", "bound-sweep", "resample-compare"])
    def test_unit(self, calls, case, kind, overrides, task, fits, reads):
        case(dict(SUITES[kind].defaults, **overrides), task)
        width = 1 + len(reads)
        assert [name for name, _ in calls] == ["fit", *reads] * fits
        groups = [calls[i:i + width] for i in range(0, len(calls), width)]
        assert all(features is group[0][1] for group in groups for _, features in group)
        assert len({id(group[0][1]) for group in groups}) == fits


@pytest.mark.parametrize("seed", [0, 5, 602])
@pytest.mark.parametrize("case, stream, bounds", [
    (experiments._equivalence_case, 10, lambda p: ((2, p["max_visual"] + 1), (2, p["max_language"] + 1),
                                                   (1, p["max_dim"] + 1))),
    (experiments._grad_case, 80, lambda p: ((3, 8), (3, 8), (1, 4))),
], ids=["verify-equivalence", "gradient"])
def test_random_cases_draw_sizes_then_joint_then_tables(case, stream, bounds, seed, monkeypatch):
    """The random cases draw through ``_random_case`` exactly what they
    drew inline: the three sizes, the gamma joint, the visual table, the
    language table, leaving their generator where the inline draws did."""
    params = SUITES["verify-equivalence"].defaults
    drawn, random_case = [], experiments._random_case

    def recording(rng, *ranges):
        drawn.append((random_case(rng, *ranges), rng.bit_generator.state))
        return drawn[-1][0]

    monkeypatch.setattr(experiments, "_random_case", recording)
    case(params, seed)
    (((nv, nl, k), joint, fv, fl), state), = drawn

    rng = np.random.default_rng([seed, stream])
    (v_lo, v_hi), (l_lo, l_hi), (k_lo, k_hi) = bounds(params)
    assert (nv, nl, k) == (int(rng.integers(v_lo, v_hi)), int(rng.integers(l_lo, l_hi)),
                           int(rng.integers(k_lo, k_hi)))
    expect = JointDistribution.from_counts(rng.gamma(2.0, size=(nv, nl)))
    assert joint.matrix.tobytes() == expect.matrix.tobytes()
    assert fv.shape == (nv, k) and fv.tobytes() == rng.standard_normal((nv, k)).tobytes()
    assert fl.shape == (nl, k) and fl.tobytes() == rng.standard_normal((nl, k)).tobytes()
    assert state == rng.bit_generator.state


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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.RecordingPool)
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


class TestMaxPrincipalAngle:
    """The numpy port against the oracle it follows step for step. numpy
    and scipy bundle different LAPACK builds, so a tolerance, not bits;
    bit identity on the suite's own instances is what ``tools/identity.py``
    compares."""

    @staticmethod
    def pair(rng, rows, width, angles):
        """Orthonormal bases of two width-``width`` subspaces of R^rows at
        the given principal angles, each basis mixed by a random rotation."""
        q = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        a = q[:, :width]
        b = a * np.cos(angles) + q[:, width:2 * width] * np.sin(angles)
        mix = [np.linalg.qr(rng.standard_normal((width, width)))[0] for _ in range(2)]
        return a @ mix[0], b @ mix[1]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(6, 40),
           st.sampled_from(["near", "far", "mixed"]))
    @settings(max_examples=90, deadline=None)
    def test_matches_scipy(self, seed, width, rows, regime):
        """Small rotations (1e-9 to 1e-3 rad, where an arccos would lose
        digits) take the arcsine path; angles between pi/4 and up to 1e-8
        rad short of pi/2 (where an arcsine would) leave every squared
        cosine below 1/2, so the arccos path runs; mixed angles take both."""
        rng = np.random.default_rng(seed)
        rows = max(rows, 2 * width)
        angles = {"near": lambda: 10.0 ** rng.uniform(-9, -3, width),
                  "far": lambda: np.pi / 2 - (np.pi / 4 - 1e-3) * 10.0 ** rng.uniform(-8, 0, width),
                  "mixed": lambda: rng.uniform(0.0, np.pi / 2, width)}[regime]()
        a, b = self.pair(rng, rows, width, angles)
        if regime != "mixed":
            arcsine_path = np.any(np.linalg.svd(a.T @ b, compute_uv=False)**2 >= 0.5)
            assert arcsine_path == (regime == "near")
        got = experiments._max_principal_angle(a, b)
        assert got == pytest.approx(np.max(subspace_angles(a, b)), abs=1e-12)
        assert got == pytest.approx(np.max(angles), abs=1e-9)


#: the directory ``import mmspectral`` finds the package in
SRC = str(Path(experiments.__file__).resolve().parents[1])


def test_package_import_leaves_out_slow_scipy_modules():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mmspectral; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_package_import_leaves_out_the_process_pool():
    """Only a run over several workers loads ``concurrent.futures.process``
    and ``multiprocessing``."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mmspectral; "
            "print(sorted(m for m in sys.modules if m in ('concurrent.futures.process', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


#: small configurations of every kind, for runs that only need to finish
SMALL_CONFIGS = {
    "verify-equivalence": {"num_seeds": 3, "mean_batches": 300, "rate_repeats": 4,
                           "rate_batch_counts": [5, 20]},
    "resample-compare": {"num_seeds": 2, "steps": 15},
    "verify-optimum": {"num_seeds": 2},
    "hrg-spectrum": {"s_low": [2, 3], "s_high": [1, 2]},
    "bound-sweep": {"num_seeds": 2},
    "uni-equivalence": {"num_seeds": 2},
    "estimators": {"num_seeds": 2, "bound_instances": 5},
}


def test_every_kind_runs_without_scipy(tmp_path):
    """The command line of every kind, in an interpreter where importing
    scipy fails."""
    assert set(SMALL_CONFIGS) == set(SUITES)
    for kind, overrides in SMALL_CONFIGS.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(overrides))
    code = ("import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "from mmspectral.cli import main; "
            "codes = {k: main([k, '--config', f'{sys.argv[2]}/{k}.json', '--out', f'{sys.argv[2]}/{k}']) "
            "for k in sys.argv[3:]}; print(json.dumps(codes))")
    done = subprocess.run([sys.executable, "-c", code, SRC, str(tmp_path), *SMALL_CONFIGS],
                          capture_output=True, text=True, check=True)
    codes = json.loads(done.stdout.splitlines()[-1])
    assert set(codes) == set(SMALL_CONFIGS) and 2 not in codes.values(), done.stdout
    for kind in SMALL_CONFIGS:
        assert json.loads((tmp_path / kind / f"{kind}-report.json").read_text())["experiment"] == kind


def test_runtime_dependencies_are_numpy_alone():
    """scipy is a test oracle only."""
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]

    def names(specs):
        return sorted(re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in specs)

    assert names(project["dependencies"]) == ["numpy"]
    assert names(project["optional-dependencies"]["test"]) == ["hypothesis", "pytest", "scipy"]


def test_only_the_readers_module_imports_numbers():
    """Every count, seed, index, rate and ratio is read by the readers in
    ``distributions``; no other module decides what a number is."""
    def imported(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module

    modules = sorted(Path(SRC, "mmspectral").glob("*.py"))
    assert modules and [path.name for path in modules if "numbers" in set(imported(path))] == ["distributions.py"]
