"""Replay the CLI golden corpus (see cli_corpus.py): every recorded argv must
give the same exit code, the same stdout bytes and the same first line of
stderr."""

import json

from cli_corpus import GOLDEN, corpus, run, write_fixtures


def test_cli_golden_corpus_replays(tmp_path):
    entries = json.loads(GOLDEN.read_text())
    assert [e["argv"] for e in entries] == corpus()
    write_fixtures(tmp_path)
    diffs = []
    for e in entries:
        got = run(e["argv"], tmp_path)
        if got != (e["exit"], e["stdout_sha256"], e["stderr"]):
            diffs.append((" ".join(e["argv"]), got[0], got[2]))
    assert not diffs, diffs
