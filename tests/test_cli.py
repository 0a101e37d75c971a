"""Exit codes and output of the command-line interface."""
import json
import math

import pytest

from mmspectral.cli import main


def assert_refused(tmp_path, capsys, monkeypatch, argv, key):
    """Run ``argv`` in ``tmp_path``: exit code 2, the one line ``error: bad
    value for '<key>' ...`` and nothing written next to the config file."""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad value for {key!r}") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


def run_hrg(tmp_path, *extra):
    out = tmp_path / "hrg"
    code = main(["hrg-spectrum", "--out", str(out), *extra])
    return code, out


class TestExperimentCommands:
    def test_passing_suite_exits_zero(self, tmp_path, capsys):
        code, out = run_hrg(tmp_path)
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert (out / "hrg-spectrum-report.json").is_file()

    def test_failing_suite_exits_one(self, tmp_path, capsys):
        """A negative tolerance cannot be met, so every check line flips to
        FAIL and the exit code follows."""
        code, out = run_hrg(tmp_path, "--tolerance", "-1.0")
        assert code == 1
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout
        assert "FAILED" in stdout  # per-check diagnostics after the table
        report = json.loads((out / "hrg-spectrum-report.json").read_text())
        assert report["all_passed"] is False

    def test_unknown_kind_exits_two_without_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify-everything"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus_knob": 1}')
        code = main(["estimators", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("payload", [
        {"dim": "x"},
        {"pairs": 5},
        {"seeds": ["a"]},
        {"num_seeds": "two"},
        {"separations": [0.0, "a"]},
        {"dim": 2.7},
        {"num_seeds": 1.9},
        {"pairs": [[2.5, 2]]},
        {"pairs": [[2, 2, 2]]},
        {"s_low": [2]},
        {"s_high": [1, 2, 3]},
        {"csv_pair": [2]},
        {"pairs": []},
        {"separations": []},
        {"rate_batch_counts": []},
        {"sweep_points": 0},
        {"dim": 0},
        {"steps": 0},
        {"bound_instances": 0},
        # (kind, payload[, the key the message names where it is not the payload's])
        pytest.param(("verify-optimum", {"learning_rate": math.nan}), id="nan-rate"),
        pytest.param(("verify-optimum", {"tolerance": math.nan}), id="nan-tolerance"),
        pytest.param(("resample-compare", {"learning_rate": math.nan}), id="nan-sgd-rate"),
        pytest.param(("resample-compare", {"learning_rate": math.inf}), id="inf-sgd-rate"),
        pytest.param(("resample-compare", {"mixing_weight": math.inf}), id="inf-weight"),
        pytest.param(("resample-compare", {"mixing_weight": math.nan}), id="nan-weight"),
        pytest.param(("resample-compare", {"tolerance": math.nan}, "harm_limit"), id="nan-file-tolerance"),
        pytest.param(("estimators", {"out": None}), id="null-out"),
        pytest.param(("estimators", {"dim": True}), id="bool-dim"),
        pytest.param(("estimators", {"leak": "0.35"}), id="string-leak"),
        pytest.param(("estimators", {"leak": math.inf}), id="inf-leak"),
        pytest.param(("estimators", {"seeds": [3, -1]}), id="negative-seed-list"),
        pytest.param(("bound-sweep", {"separations": ["0.5", "1"]}), id="string-separations"),
        pytest.param(("hrg-spectrum", {"seeds": [3], "seed": "x", "num_seeds": -4}, "seed"),
                     id="meta-keys-beside-seed-list"),
        # values that parse but that the suite cannot measure, refused before any work
        pytest.param(("verify-equivalence", {"rate_batch_counts": [50], "num_seeds": 2, "mean_batches": 300,
                                             "rate_repeats": 3}), id="one-rate-count"),
        pytest.param(("verify-equivalence", {"rate_batch_counts": [50, 50], "num_seeds": 2, "mean_batches": 300,
                                             "rate_repeats": 3}), id="repeated-rate-count"),
        pytest.param(("verify-equivalence", {"mean_batches": 1, "num_seeds": 2, "rate_repeats": 3,
                                             "rate_batch_counts": [5, 20]}), id="one-mean-batch"),
        pytest.param(("bound-sweep", {"classes": 1, "num_seeds": 1}), id="one-class"),
        pytest.param(("bound-sweep", {"sweep_points": 1, "num_seeds": 1}), id="one-sweep-point"),
        # cross_mass past its measurable range: disconnected classes, inverted tiers, negative masses
        pytest.param(("bound-sweep", {"cross_mass": 0.0, "num_seeds": 1}), id="no-cross-mass"),
        pytest.param(("bound-sweep", {"cross_mass": 0.7, "num_seeds": 1}), id="cross-mass-above-mid"),
        pytest.param(("bound-sweep", {"cross_mass": 0.9, "num_seeds": 1}), id="cross-mass-0.9"),
        pytest.param(("bound-sweep", {"cross_mass": 1.0, "num_seeds": 1}), id="all-mass-across"),
        pytest.param(("bound-sweep", {"cross_mass": -0.5, "num_seeds": 1}), id="negative-cross-mass"),
    ])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, monkeypatch, payload):
        kind, payload, *named = payload if isinstance(payload, tuple) else (None, payload)
        key = next(iter(payload))
        kind = kind or {"s_low": "hrg-spectrum", "s_high": "hrg-spectrum", "csv_pair": "hrg-spectrum",
                        "rate_batch_counts": "verify-equivalence", "steps": "resample-compare",
                        "bound_instances": "estimators"}.get(key, "bound-sweep")
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        flags = [] if key == "out" else ["--out", "b"]
        assert_refused(tmp_path, capsys, monkeypatch, [kind, "--config", "cfg.json", *flags], *named or [key])

    @pytest.mark.parametrize("kind,flags,key", [
        ("verify-equivalence", ["--seed", "-5"], "seed"),
        ("hrg-spectrum", ["--seed", "-5"], "seed"),
        ("resample-compare", ["--tolerance", "nan"], "harm_limit"),
    ], ids=["negative-seed", "negative-seed-seedless-kind", "nan-tolerance"])
    def test_malformed_flag_value_exits_two(self, tmp_path, capsys, monkeypatch, kind, flags, key):
        assert_refused(tmp_path, capsys, monkeypatch, [kind, *flags, "--out", "b"], key)

    @pytest.mark.parametrize("kind,payload,message", [
        ("hrg-spectrum", {"s_low": [6, 2]}, "selects nothing to check"),
        ("resample-compare", {"batch_size": 10}, "batch size must be a positive multiple of 3"),
        ("hrg-spectrum", {"s_low": [1, 2]}, "need s_l >= 2"),
        ("bound-sweep", {"separations": [2.0]}, "separation must lie in [0, 1]"),
        ("bound-sweep", {"dim": 36}, "need k+1 <= 36, got k=36"),
        ("bound-sweep", {"dim": 9, "num_seeds": 1, "sample_pairs": 4}, "k=9 exceeds the rank bound 8"),
    ], ids=["empty-range", "batch-size", "s-low", "separation", "dim-past-clean-rank", "dim-past-estimate-support"])
    def test_values_the_library_refuses_exit_two(self, tmp_path, capsys, kind, payload, message):
        """These surface in the suite's work, before the output directory is
        made: one error line, exit code 2 and nothing written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "passed" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_seed_flag_reaches_report(self, tmp_path):
        code, out = run_hrg(tmp_path, "--seed", "9")
        assert code == 0
        report = json.loads((out / "hrg-spectrum-report.json").read_text())
        assert report["seeds"] == [9]

    def test_parallel_flag_accepted(self, tmp_path):
        out = tmp_path / "est"
        assert main(["estimators", "--out", str(out), "--parallel", "2"]) == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one_exits_two(self, tmp_path, capsys, workers):
        assert main(["hrg-spectrum", "--out", str(tmp_path / "o"), "--parallel", workers]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: workers must be >= 1") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def test_explicit_paths(self, tmp_path, capsys):
        _, out = run_hrg(tmp_path)
        capsys.readouterr()
        code = main(["report", str(out / "hrg-spectrum-report.json")])
        assert code == 0
        assert "all 30 checks passed" in capsys.readouterr().out

    def test_out_glob_discovers_nested_reports(self, tmp_path, capsys):
        run_hrg(tmp_path)
        capsys.readouterr()
        code = main(["report", "--out", str(tmp_path)])
        assert code == 0
        assert "hrg-spectrum" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--seed", "5"], ["--tolerance", "0.1"],
                                      ["--parallel", "3"]])
    def test_experiment_flags_are_refused(self, tmp_path, capsys, flag):
        """report reads only its paths and --out; the experiment flags would be ignored."""
        run_hrg(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report", "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_no_reports_exits_two(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        '{"experiment": "x", "all_passed": true, "checks": [{"name": "a"}]}',
        '{"experiment": "hrg-spectrum", "all_passed": true, "checks": []}',
        '{"experiment": "x", "all_passed": true, "checks": ['
        '{"name": "a", "passed": true, "value": 0.0, "tolerance": 1.0, "detail": ""}, '
        '{"name": "a", "passed": true, "value": 0.0, "tolerance": 1.0, "detail": ""}]}',
        '{"experiment": "x", "all_passed": true, "checks": ['
        '{"name": "a", "passed": true, "value": true, "tolerance": false, "detail": ""}]}',
    ], ids=["object", "list", "bare-check", "no-checks", "repeated-name", "bool-numbers"])
    def test_json_that_is_not_a_report_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        assert "is not a run report" in capsys.readouterr().err

    @pytest.mark.parametrize("passing", [True, False])
    def test_a_pass_flag_that_disagrees_with_the_checks_exits_two(self, tmp_path, capsys, passing):
        """The printed rows and the exit code come from one verdict: a
        report whose all_passed contradicts its checks is refused."""
        _, out = run_hrg(tmp_path, *([] if passing else ["--tolerance", "-1.0"]))
        path = out / "hrg-spectrum-report.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), all_passed=not passing)))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "all_passed disagrees with its checks" in captured.err and captured.out == ""

    def test_any_failure_exits_one(self, tmp_path, capsys):
        run_hrg(tmp_path / "good")
        run_hrg(tmp_path / "bad", "--tolerance", "-1.0")
        capsys.readouterr()
        code = main(["report", "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("FAIL")  # failures sort to the top
