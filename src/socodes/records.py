"""Integer arguments, the self-check error, and the line syntax of the
group, design and matrix files.

A file is one record per line. ``#`` starts a comment anywhere on a line,
and a line that is blank once its comment is cut is skipped. The first
record is a header of a fixed form: ``degree n`` for groups, ``v b`` for
designs, ``rows cols q`` for matrices.
"""

from __future__ import annotations

import operator

import numpy as np


class SelfCheckFailed(AssertionError):
    """A result failed a check that the theory behind it guarantees, so the
    program is at fault, not its input: a report's Gram, rank or
    self-duality, a searched design's predicted profile, an orbit matrix's
    counts, or a distance witness. The CLI exits with its own code for
    it."""


def _integers(x, what: str, count: int | None = None):
    """x as exact integers, else TypeError "<what> must be integral": a value by
    operator.index (PEP 357) as an int, an ndarray by dtype kind as int64, and given
    a count (-1: unknown) an iterable by one np.fromiter pass, ValueError past int64."""
    try:
        if count is not None:
            return np.fromiter(map(operator.index, x), dtype=np.int64, count=count)
        if not isinstance(x, np.ndarray):
            return operator.index(x)
        if x.size and x.dtype.kind not in "iub":
            raise TypeError(f"dtype {x.dtype}")
        return x.astype(np.int64, copy=False)
    except TypeError as e:
        raise TypeError(f"{what} must be integral") from e
    except OverflowError as e:
        raise ValueError(f"{what} must lie within int64") from e


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
