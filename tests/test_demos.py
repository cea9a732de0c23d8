"""Every script under demos/ runs to completion against the source tree,
raises no RuntimeWarning and leaves nothing in the temp directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    # pytest's filterwarnings setting does not reach a subprocess
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert not list(tmp.iterdir())
