"""The scripts under tools/ still run against the package.

Each runs in a subprocess, so that microbench's BLAS thread settings stay
out of the test process.
"""
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120)


def test_identity_without_an_output_directory_prints_its_usage():
    done = run_python(str(TOOLS / "identity.py"))
    assert done.returncode == 2
    assert done.stderr.startswith("Write every suite's artifacts") and "identity.py OUT" in done.stderr
    assert done.stdout == ""


def test_microbench_cases_build_and_run_once():
    code = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("microbench", sys.argv[1])
microbench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(microbench)
cases = list(microbench.single_batch_cases())
for name, fn in cases:
    fn()
induced, teacher, cfg, weight = microbench.resample_compare_instance()
assert teacher.num_samples == induced.num_samples and cfg.batch_mode == "sampled"
(draw, draw_fn, draws), (loss, loss_fn, losses) = microbench.mc_loss_cases()
assert (draw, loss) == ("draw_chunk", "empirical_scl_batches")
assert draw_fn()[0].shape[0] == draws and loss_fn().shape == (losses,)
print(len(cases))
"""
    done = run_python("-c", code, str(TOOLS / "microbench.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "7"  # sample_batch, the two losses and the four strategies
