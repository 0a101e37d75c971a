"""Exit codes and output of the command-line interface."""
import json

import pytest

from mmspectral.cli import main


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
    ])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main(["bound-sweep", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == 2
        (key,) = payload
        assert f"error: bad value for {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_seed_flag_reaches_report(self, tmp_path):
        code, out = run_hrg(tmp_path, "--seed", "9")
        assert code == 0
        report = json.loads((out / "hrg-spectrum-report.json").read_text())
        assert report["seeds"] == [9]

    def test_parallel_flag_accepted(self, tmp_path):
        out = tmp_path / "est"
        assert main(["estimators", "--out", str(out), "--parallel", "2"]) == 0


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

    def test_no_reports_exits_two(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        '{"experiment": "x", "all_passed": true, "checks": [{"name": "a"}]}',
    ])
    def test_json_that_is_not_a_report_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        assert "is not a run report" in capsys.readouterr().err

    def test_any_failure_exits_one(self, tmp_path, capsys):
        run_hrg(tmp_path / "good")
        run_hrg(tmp_path / "bad", "--tolerance", "-1.0")
        capsys.readouterr()
        code = main(["report", "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("FAIL")  # failures sort to the top
