"""Record golden.json: the checked facts of every item's output.

Run from the repository root on a tree whose outputs are trusted:

    python3 perfbench/record_golden.py

The degree-165 union items are the hits of one full ``wso_search`` on the
degree-165 action (about a minute), so that search runs here once and the
benchmark then replays its hits one by one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from socodes import designs, m11  # noqa: E402


def record(workload: str, keys) -> dict:
    workloads.setup(workload)
    return {key: workloads.summary(key, workloads.run(key)) for key in keys}


def main() -> None:
    hits165 = designs.wso_search(m11.m11_degree(165), 0, 2)
    unions = ["union165:" + ",".join(map(str, h.orbit_choice)) for h in hits165]
    golden = {
        "tables": record("tables", workloads.TABLE_IDS),
        "search": record("search", [f"wso:{d}" for d in
                                    workloads.SEARCH_DEGREES] + unions),
        "oddq": record("oddq", workloads.items("oddq", {})),
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
