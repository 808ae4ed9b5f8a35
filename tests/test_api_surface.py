"""Every public name in socodes has a use outside the tests.

Public means a module-level function or class, or a method of such a class,
whose name has no leading underscore. Uses are read from the syntax trees of
the Python files under src, demos, scripts and perfbench, so a docstring or
a builtin call of the same name (``enumerate``, ``order``) is no use:

- a method is used when some attribute access loads its name (``x.name``);
- a module-level function or class is used when a name loads it, a
  ``from ... import`` names it, or an attribute access loads it.

A method that overrides one of a base class from outside socodes is used by
that base's own code (argparse calls ``_Parser.error``). API that only the
tests call is deleted or put to real use; the allowlist names the exceptions
and why each stays.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLACES = ("src", "demos", "scripts", "perfbench")

ALLOWED = {
    "LowerBound": "ROADMAP item 4B makes the over-budget result a proven "
                  "lower bound, its first constructor",
    "Perm.cycle_type": "ROADMAP item 10 compares the cycle types of the "
                       "degree-110 action with a coset action",
}


def overrides_outside(module: str, cls: str, name: str) -> bool:
    """Whether a base class of cls from outside socodes defines name."""
    bases = getattr(importlib.import_module(f"socodes.{module}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases
               if not base.__module__.startswith("socodes"))


def public_definitions():
    """(qualified name, name, is a method) of every public definition that
    overrides nothing outside socodes."""
    for path in sorted((ROOT / "src" / "socodes").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not overrides_outside(path.stem, node.name, item.name)):
                        yield f"{node.name}.{item.name}", item.name, True


def loaded_names():
    """(names loaded by attribute access, names loaded or imported bare)."""
    attributes, names = set(), set()
    for place in PLACES:
        for path in sorted((ROOT / place).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return attributes, names


def unused_names():
    attributes, names = loaded_names()
    return [qual for qual, name, method in public_definitions()
            if name not in attributes and (method or name not in names)]


def test_every_public_name_is_used_outside_the_tests():
    assert sorted(set(unused_names()) - set(ALLOWED)) == []


def test_allowlist_holds_only_unused_names():
    # an allowed name that gained a caller leaves the allowlist
    assert sorted(set(ALLOWED) - set(unused_names())) == []
