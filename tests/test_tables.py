"""The table harness: the witnesses of the codes its pipelines certify, and
``check_table``'s rule of certifying a produced code only while some
expected row of its (n, k) is unmatched."""

import hashlib
import json
from pathlib import Path

import pytest

from socodes import tables
from socodes.analysis import Exact, min_distance
from socodes.tables import TABLES, check_table

# sha256 of each witness's to_text(), per table in produced order, for every
# produced code whose (n, k) is that of an expected row; recorded when
# check_table still certified every such code
WITNESSES = Path(__file__).resolve().parent / "data" / "gf2_witnesses.json"


@pytest.fixture(scope="module")
def certified() -> dict:
    """Per table, (report, d) of every produced code whose (n, k) is that
    of an expected row, each certified by min_distance, in produced order."""
    out = {}
    for table_id, tab in TABLES.items():
        wanted = {(n, k) for n, k, _ in tab.rows}
        out[table_id] = [(rep, min_distance(rep.code, tab.budget))
                         for rep in tab.pipeline()
                         if (rep.code.n, rep.code.k) in wanted and rep.code.k > 0]
    return out


def test_gf2_witnesses_pinned(certified):
    got = {tid: [[rep.code.n, rep.code.k, d.value,
                  hashlib.sha256(rep.code.witness.to_text().encode()).hexdigest()]
                 for rep, d in reports]
           for tid, reports in certified.items()}
    assert got == json.loads(WITNESSES.read_text())
    assert sum(map(len, got.values())) == 24


def test_check_table_certifies_only_while_a_row_of_its_nk_is_unmatched(certified, monkeypatch):
    """Each row is realized by the same report as in a scan that certifies
    every code of an expected (n, k): 18 of those 24 distances are still
    needed."""
    calls = {}

    def counted(C, budget):
        calls[table_id] = calls.get(table_id, 0) + 1
        return min_distance(C, budget)

    monkeypatch.setattr(tables, "min_distance", counted)
    for table_id in TABLES:
        matches, missing = check_table(table_id)
        full = {}
        for rep, d in certified[table_id]:
            row = (rep.code.n, rep.code.k, d.value)
            if isinstance(d, Exact) and row in TABLES[table_id].rows:
                full.setdefault(row, rep)
        assert missing == []
        assert ({row: (rep.theorem, rep.source) for row, rep in matches.items()}
                == {row: (rep.theorem, rep.source) for row, rep in full.items()})
    assert calls == {"t1-small": 4, "t8": 3, "t12": 3, "t13": 3, "t16": 5}
