"""The line syntax shared by the group, design and matrix file formats.

A file is one record per line. ``#`` starts a comment anywhere on a line,
and a line that is blank once its comment is cut is skipped. The first
record is a header of a fixed form: ``degree n`` for groups, ``v b`` for
designs, ``rows cols q`` for matrices.
"""

from __future__ import annotations


def read_records(text: str, form: str, keyword: str = "") -> tuple:
    """(header integers, the other records as stripped lines) of text.

    The header is keyword, when given, then one integer for each word of
    form; any other first record is a ValueError naming that shape.
    """
    records = [r for r in (ln.split("#", 1)[0].strip() for ln in text.splitlines()) if r]
    head = records[0].split() if records else []
    kw = keyword.split()
    words = kw + form.split()
    if len(head) == len(words) and head[:len(kw)] == kw:
        try:
            return [int(t) for t in head[len(kw):]], records[1:]
        except ValueError:
            pass
    raise ValueError(f"header must be '{' '.join(words)}'")


def format_records(records) -> str:
    """One line per record, its values joined by single spaces.

    An empty record is a ValueError: its blank line would read back as no
    record at all.
    """
    lines = [" ".join(map(str, r)) for r in records]
    for i, line in enumerate(lines):
        if not line.strip():
            raise ValueError(f"record {i} is empty and would be skipped on reading")
    return "".join(line + "\n" for line in lines)
