"""The scripts under tools/ still run against the package.

Each runs in a subprocess, so that microbench's BLAS thread settings stay
out of the test process.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)


def test_identity_without_an_output_directory_prints_its_usage():
    done = run_python(str(TOOLS / "identity.py"))
    assert done.returncode == 2
    assert done.stderr.startswith("Write every suite's artifacts") and "identity.py OUT" in done.stderr
    assert done.stdout == ""


def test_identity_digest_checks_one_kind(tmp_path):
    """A digest of hrg-spectrum's files checks clean; a changed digest and a
    file it does not list are named, exit 1; a digest from another platform
    gets no verdict, exit 2. The full digest stays outside the test suite."""
    digest = tmp_path / "IDENTITY.json"
    code = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("identity", sys.argv[1])
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)
identity.write_digest(identity.Path(sys.argv[2]), "write one kind", kinds=["hrg-spectrum"])
"""
    done = run_python("-c", code, str(TOOLS / "identity.py"), str(digest))
    assert done.returncode == 0, done.stderr
    record = json.loads(digest.read_text())
    assert record["command"] == "write one kind" and set(record["platform"]) == {"numpy", "openblas", "openblas_core"}
    files = sorted(record["files"])
    assert len(files) == 8 and all(name.startswith("hrg-spectrum/seed") for name in files)  # 2 seeds x 2 worker counts x 2 files

    def check():
        return run_python(str(TOOLS / "identity.py"), "--check", str(digest))

    done = check()
    assert (done.returncode, done.stdout, done.stderr) == (0, f"all 8 files match {digest}\n", "")
    record["files"][files[0]] = "0" * 64
    del record["files"][files[-1]]
    digest.write_text(json.dumps(record))
    done = check()
    assert (done.returncode, done.stdout) == (1, f"differs: {files[0]}\nnew: {files[-1]}\n")
    record["platform"]["numpy"] = "0.0"
    digest.write_text(json.dumps(record))
    done = check()
    assert done.returncode == 2 and done.stdout == "" and done.stderr.startswith("platform differs, no verdict")
    assert "numpy: " in done.stderr and "openblas" not in done.stderr  # the one field that differs


def test_identity_check_tells_a_crash_from_a_moved_file(tmp_path):
    """A suite that raises exits 3 and names the run and its exception,
    where moved files exit 1."""
    digest = tmp_path / "IDENTITY.json"
    code = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("identity", sys.argv[1])
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)
path = identity.Path(sys.argv[2])
record = {"command": "one file", "platform": identity.platform(), "files": {"hrg-spectrum/seed0-workers1/x": "0" * 64}}
path.write_text(json.dumps(record))

def run(cfg, workers):
    raise ValueError("no draw")

identity.run = run
sys.exit(identity.main(["--check", str(path)]))
"""
    done = run_python("-c", code, str(TOOLS / "identity.py"), str(digest))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == ("a suite raised, no verdict: hrg-spectrum at base seed 0 over 1 worker(s) "
                           "raised ValueError('no draw')\n")


def test_every_artifact_matches_the_committed_digest():
    """Every suite's artifacts, at both seeds, sequentially and over 2
    workers, against ``IDENTITY.json``: moved files fail the test by name
    (exit 1), a suite that raises fails it naming the run (exit 3), and a
    digest made on another platform skips it, naming the fields."""
    done = run_python(str(TOOLS / "identity.py"), "--check", str(ROOT / "IDENTITY.json"))
    if done.returncode == 2:
        pytest.skip(done.stderr.strip())
    assert done.returncode == 0, f"identity check exit {done.returncode}:\n{done.stdout}{done.stderr}"


def test_microbench_cases_build_and_run_once():
    code = """
import importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("microbench", sys.argv[1])
microbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(microbench)
cases = list(microbench.single_batch_cases())
for name, fn in cases:
    fn()
induced, teacher, cfg, weight = microbench.resample_compare_instance()
assert teacher.num_samples == induced.num_samples and cfg.batch_mode == "sampled"
(draw, draw_fn, draws), (mc_draw, mc_draw_fn, mc_draws), (loss, loss_fn, losses) = microbench.mc_loss_cases()
assert (draw, mc_draw, loss) == ("_draw_chunk", "cell blocks unshuffled", "empirical_scl_batches")
assert draw_fn().shape == (2, draws, 30) and loss_fn().shape == (losses,)
assert sum(cells.shape[0] for _, cells in mc_draw_fn()) == mc_draws
parts = list(microbench.mc_block_parts(blocks=2))
assert [name for name, _ in parts] == ["block uniforms", "block cells", "block score lookups", "block losses"]
assert [np.shape(fn()) for _, fn in parts * 2] == [(273, 30)] * 3 + [(273,)] + [(273, 30)] * 3 + [(273,)]
(name, resample_fn, count), (plans, plans_fn, plan_count) = microbench.resample_draw_cases()
assert (name, plans) == ("_draw_chunk resample-compare", "plan chunks resample-compare")
assert count == plan_count == cfg.max_steps and resample_fn().shape == (2, count, cfg.batch_size)
assert sum(plan.visual.shape[0] for _, plan in plans_fn()) == count
print(len(cases))
"""
    done = run_python("-c", code, str(TOOLS / "microbench.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "7"  # sample_batch, the two losses and the four strategies
