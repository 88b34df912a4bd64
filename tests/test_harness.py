"""The test harness itself: a failing property test is reported as a
failure, with the rest of the session, under ``filterwarnings = ["error"]``."""

import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
ROOT = TESTS_DIR.parent

THROWAWAY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def _run_throwaway(tmp_path, extra_path=()):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY, encoding="utf-8")
    path = [
        *extra_path, str(TESTS_DIR), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")
    ]
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(tmp_path),
            "-p", "conftest",  # this suite's conftest.py, as the suite loads it
            str(tmp_path / "test_throwaway.py"),
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # with libcst installed, and where it is missing (hypothesis's codemods
    # extra is optional): a stand-in module that fails to import hides it
    hidden = tmp_path / "hide-libcst"
    hidden.mkdir()
    (hidden / "libcst.py").write_text(
        'raise ModuleNotFoundError("No module named \'libcst\'", name="libcst")\n',
        encoding="utf-8",
    )
    for case, extra_path in (("installed", ()), ("missing", (str(hidden),))):
        run_dir = tmp_path / case
        run_dir.mkdir()
        result = _run_throwaway(run_dir, extra_path)
        output = result.stdout + result.stderr
        assert result.returncode == 1, (case, output)
        assert "1 failed, 1 passed" in result.stdout, (case, output)
        assert "INTERNALERROR" not in output, (case, output)
