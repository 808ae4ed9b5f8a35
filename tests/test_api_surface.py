"""Every public name in socodes has a use outside the tests.

Public means a module-level function or class, or a method of such a class,
whose name has no leading underscore. Each must appear as a whole word in
a Python file under src, demos, scripts or perfbench on a line other than
its own def or class line. API that only the tests call is deleted or put
to real use; the allowlist names the exceptions and why each stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLACES = ("src", "demos", "scripts", "perfbench")

ALLOWED = {
    "LowerBound": "ROADMAP item 4B makes the over-budget result a proven "
                  "lower bound, its first constructor",
    "Perm.cycle_type": "ROADMAP item 10 compares the cycle types of the "
                       "degree-110 action with a coset action",
}


def public_definitions():
    """(qualified name, name, path, line) of every public definition."""
    for path in sorted((ROOT / "src" / "socodes").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield node.name, node.name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{node.name}.{item.name}", item.name, path,
                               item.lineno)


def unused_names():
    lines = {path: path.read_text(encoding="utf-8").splitlines()
             for place in PLACES for path in sorted((ROOT / place).rglob("*.py"))}
    unused = []
    for qual, name, path, lineno in public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for p, text in lines.items()
                   for i, line in enumerate(text, 1)
                   if (p, i) != (path, lineno)):
            unused.append(qual)
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert sorted(set(unused_names()) - set(ALLOWED)) == []


def test_allowlist_holds_only_unused_names():
    # an allowed name that gained a caller leaves the allowlist
    assert sorted(set(ALLOWED) - set(unused_names())) == []
