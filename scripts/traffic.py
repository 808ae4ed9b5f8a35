"""Print the statements of src/socodes that no workload, CLI run or demo
executes.

One line tracer (``sys.settrace``) watches, in this one process:

- every item of the three benchmark workloads, ``tables``, ``search`` and
  ``oddq``, set up and run through ``perfbench/workloads.py``, each item's
  output checked against ``perfbench/golden.json``;
- every run of the CLI golden corpus (``tests/cli_corpus.py``), on its
  fixtures written to a temporary directory;
- the demos, each run as ``__main__``.

A statement is one of the module's syntax tree; it is reported when none of
its own lines that hold code (the lines of the module's compiled code
objects, less those of the statements nested in it) ran. The list is a
report of what only the tests reach, not a gate. Only the standard library
is used, besides the programs it runs.

Run from anywhere:  python scripts/traffic.py
"""

import ast
import contextlib
import io
import json
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "socodes"


def code_lines(code) -> set:
    """Every line that holds an instruction of code or of a nested code object."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path, executed: set) -> list:
    """(first line, source line) of each statement none of whose own code
    lines is in executed."""
    text = path.read_text(encoding="utf-8")
    owner = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                # the innermost statement owns a line: it starts last
                if line not in owner or owner[line].lineno <= node.lineno:
                    owner[line] = node
    own = {}
    for line in code_lines(compile(text, str(path), "exec")):
        if line in owner:
            own.setdefault(owner[line], []).append(line)
    source = text.splitlines()
    return sorted((node.lineno, source[node.lineno - 1].strip())
                  for node, lines in own.items() if executed.isdisjoint(lines))


def run_everything() -> int:
    """Run the workloads, the CLI corpus and the demos; the number of
    workload items whose output differs from the golden file."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import cli_corpus
    import workloads

    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    wrong = 0
    for workload in ("tables", "search", "oddq"):
        workloads.setup(workload)
        for key in workloads.items(workload, golden[workload]):
            out = workloads.run(key)
            wrong += workloads.summary(key, out) != golden[workload][key]
    with tempfile.TemporaryDirectory() as tmp:
        cli_corpus.write_fixtures(tmp)
        for argv in cli_corpus.corpus():
            cli_corpus.run(argv, tmp)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    return wrong


def main() -> None:
    src = str(SRC)
    executed = set()

    def lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(src) else None

    start = time.perf_counter()
    sys.settrace(calls)
    try:
        wrong = run_everything()
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start
    total = 0
    for path in sorted(SRC.glob("*.py")):
        unrun = statements(path, {line for name, line in executed if name == str(path)})
        total += len(unrun)
        print(f"{path.stem}: {len(unrun)} statements not executed")
        for line, text in unrun:
            print(f"  {line:>4}  {text}")
    print(f"total {total} statements not executed; traced run {seconds:.1f} s, "
          f"{wrong} workload items differ from golden")


if __name__ == "__main__":
    main()
