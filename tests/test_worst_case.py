"""Inputs inside every cap must cost bounded time and memory.

Each case writes its generated input to a temporary directory and runs the
command-line front end on it in a child process whose address space is
capped at 1 GB, under a wall-clock timeout. The child must end with exit 0,
or with a one-line "error:" and exit 2: no traceback and no MemoryError.
"""

import os
import subprocess
import sys

import pytest

from socodes.designs import INCIDENCE_CAP

_LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from socodes.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_limited(*argv, timeout=10):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is tested on Linux only")
def test_search_on_a_regular_cyclic_group(tmp_path):
    # a trivial stabilizer: all 2^16 - 2 subsets of the 16 points are orbit
    # unions, and 766 of them develop into designs with a constant parity
    grp = tmp_path / "c16.grp"
    grp.write_text("degree 16\n(" + ",".join(map(str, range(1, 17))) + ")\n")
    proc = _run_limited("design", "search", str(grp))
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 766
    assert all(line.startswith("Case") for line in lines)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is tested on Linux only")
def test_design_build_on_a_regular_cyclic_group_stops_at_the_incidence_cap(tmp_path):
    # the union of the trivial stabilizer's orbits {0} and {1} develops into
    # 2000 blocks on 2000 points, whose incidence the cap refuses
    grp = tmp_path / "c2000.grp"
    grp.write_text("degree 2000\n(" + ",".join(map(str, range(1, 2001))) + ")\n")
    proc = _run_limited("design", "build", str(grp), "0,1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: ValueError: 2000 blocks on 2000 points: "
                           f"b * max(b, v) exceeds {INCIDENCE_CAP}\n")
