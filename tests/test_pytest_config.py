import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    pass
"""


def test_failing_property_test_is_reported_under_the_warning_filters(tmp_path):
    # The project's filterwarnings (warnings as errors) must not turn hypothesis' failure report into an
    # INTERNALERROR that hides the FAILED line and stops the run.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_property.py::test_property_fails" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
    assert done.returncode == 1
