"""Count the code and docstring lines of each module in src/socodes.

A code line is a line that is not blank, not a comment (its first
non-blank character is ``#``) and not part of a docstring. A docstring is
the string statement that opens a module, class or function body; its
lines are counted apart. The counts are a report of the package's size,
not a gate. Only the standard library is used (``ast``).

Run from anywhere:  python scripts/loc.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "socodes"


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers (1-based) of every docstring in the module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(code lines, docstring lines, all lines) of one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))
    return code, len(docs), len(lines)


def main() -> None:
    rows = [(path.stem, *count(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    print(f"{'module':<14}{'code':>6}{'docstring':>11}{'lines':>7}")
    for name, code, docs, total in rows:
        print(f"{name:<14}{code:>6}{docs:>11}{total:>7}")


if __name__ == "__main__":
    main()
