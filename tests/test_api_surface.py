"""Every public name in socodes has a use outside the tests.

Public means a module-level function or class, or a method of such a class,
whose name has no leading underscore. Uses are read from the syntax trees of
the Python files under src, demos, scripts and perfbench, so a docstring or
a builtin call of the same name (``enumerate``, ``order``) is no use:

- a method is used when some attribute access loads its name (``x.name``),
  unless x is a name that every assignment in the same function binds to a
  set, dict or list (a display, a comprehension, or a ``set()``,
  ``dict()`` or ``list()`` call), or a ``setdefault`` call with such a
  default: ``seen.add(key)`` on a set and
  ``own.setdefault(k, set()).add(x)`` are no use of a method ``add``;
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


CONTAINERS = (ast.Set, ast.Dict, ast.List, ast.SetComp, ast.DictComp, ast.ListComp)


def is_container(value) -> bool:
    """Whether an expression builds a set, dict or list."""
    return isinstance(value, CONTAINERS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "dict", "list"))


def is_container_default(value) -> bool:
    """Whether an expression is a call d.setdefault(key, default) whose
    default builds a set, dict or list."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
            and value.func.attr == "setdefault" and len(value.args) == 2
            and is_container(value.args[1]))


def container_loads(tree) -> set:
    """The attribute loads x.name, as nodes, whose x is a name that every
    binding in the enclosing function binds to a set, dict or list, or a
    ``setdefault`` call with such a default; a tuple assignment pairs its
    targets with the values of a tuple display."""
    skipped = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(scope))
        built = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    else:
                        pairs = [(target, node.value)]
                    built.update(t for t, v in pairs if is_container(v))
        stores = {}
        for node in nodes:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                stores.setdefault(node.id, []).append(node in built)
            elif isinstance(node, ast.arg):
                stores.setdefault(node.arg, []).append(False)
        local = {name for name, flags in stores.items() if all(flags)}
        skipped.update(node for node in nodes if isinstance(node, ast.Attribute)
                       and (isinstance(node.value, ast.Name) and node.value.id in local
                            or is_container_default(node.value)))
    return skipped


def loaded_names():
    """(names loaded by attribute access, names loaded or imported bare)."""
    attributes, names = set(), set()
    for place in PLACES:
        for path in sorted((ROOT / place).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = container_loads(tree)
            for node in ast.walk(tree):
                if node in skipped:
                    continue
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


def test_a_load_on_a_local_container_is_no_use():
    tree = ast.parse("def f(field, keys, own):\n"
                     "    seen, width = set(keys), 1\n"
                     "    seen.add(width)\n"
                     "    field.add(width, 1)\n"
                     "    own.setdefault(width, set()).add(1)\n"
                     "    own.setdefault(width, field).add(1)\n")
    assert sorted(ast.unparse(node.value) for node in container_loads(tree)) == [
        "own.setdefault(width, set())", "seen"]
