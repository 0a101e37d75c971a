"""The test gate itself: a failing test is reported, and the tests after it
still run, under the repository's warning filters."""
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_after_it_passes():
    pass
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    filters = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_demo.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_demo.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
