"""The repository's pytest settings let a run go on past a failing
hypothesis test: every test is still run and reported."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# a failing @given test, whose report makes hypothesis import more of
# itself, then a passing test that must still run
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
    run = subprocess.run(
        [*argv, str(probe)], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
