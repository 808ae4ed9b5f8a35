"""Each demo's stdout, byte for byte, against its recorded golden.

The goldens live in tests/data/demos/<name>.out. A change that moves a
demo's output on purpose re-records the file and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden(name):
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         cwd=ROOT, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{name}.out").read_bytes()
