"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # The demos write into tempfile directories, under an empty TMPDIR of
    # their own, and must remove them before they exit.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=child_env(TMPDIR=str(tmpdir)), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmpdir.iterdir()) == []
