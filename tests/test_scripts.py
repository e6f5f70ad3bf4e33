import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["worked_examples.py"], ["channel_sweep.py", "--trials", "1"], ["memo_report.py", "--rounds", "1"],
        ["decode_sweep.py", "--rounds", "1"],
    ],
    ids=lambda a: a[0],
)
def test_script_runs(argv):
    """The shipped scripts call the ball forms and the decoders end to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
