"""Command-line front end: group -> design -> orbit matrix -> code -> analysis.

Every command is deterministic and prints one record per line, so the
output can be diffed or fed back in. Group arguments accept either a path
to a generator file or ``m11:<degree>`` for the shipped M11 actions.

Exit codes: 0 ok, 1 usage or input-file problem, 2 mathematical
precondition failure (wrong orbit profile, non-constant intersection
residues, forced theorem mismatch, budget exceeded, ...), 3 table
reproduction mismatch, 4 failed self-check (a result contradicts the theory
it rests on, so the program is at fault: a report's Gram, rank or
self-duality, a searched design's predicted profile, an orbit matrix's
counts, a distance witness; one ``self-check failed:`` line on stderr), 141
stdout closed before the output was written (``socodes ... | head -1``;
128 + SIGPIPE, as a shell reports a process a broken pipe ended), with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .analysis import LinearCode, display, is_self_dual, is_self_orthogonal
from .analysis import DEFAULT_BUDGET, min_distance
from .constructions import (
    from_fixed_split_binary,
    from_fixed_split_q,
    from_incidence_binary,
    from_incidence_q,
    from_orbitmatrix_binary,
    from_orbitmatrix_q,
)
from .designs import (
    from_group_action,
    intersection_profile,
    format_design_text,
    parameters,
    parse_design_text,
    wso_search,
    stabilizer_orbits,
)
from .fields import prime_power
from .groups import PermGroup, format_group_text, parse_group_text
from .m11 import DEGREES, m11_degree
from .matrices import GFMatrix
from .orbitmat import build, fixed_split, format_orbit_matrix_text
from .records import SelfCheckFailed, format_records
from .tables import TABLES, check_table


class UsageError(Exception):
    """Bad flags, unreadable files, unknown ids: exit code 1."""


class CaseMismatch(ValueError):
    """The profile selects another theorem than --theorem names: exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bool(x) -> str:
    return "true" if x else "false"


def _load_group_arg(spec: str) -> PermGroup:
    if spec.startswith("m11:"):
        try:
            degree = int(spec[4:])
        except ValueError:
            raise UsageError(f"bad m11 degree in {spec!r}") from None
        if degree not in DEGREES:
            raise UsageError(f"no built-in M11 action of degree {degree}; "
                             f"available: {DEGREES}")
        return m11_degree(degree)
    return _read(spec, parse_group_text, "group")


def _read(path: str, parse, kind: str):
    """parse() of the UTF-8 text of a file; an unreadable or malformed file
    is a usage error naming its kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read {kind} file {path!r}: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad {kind} file {path!r}: {e}") from None


def _emit(text: str, out: str | None) -> None:
    """Artifact body to --out when given, stdout otherwise."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _parse_orbit_choice(s: str) -> tuple:
    try:
        return tuple(int(t) for t in s.split(",") if t != "")
    except ValueError:
        raise UsageError(f"orbit choice must look like 0,1 - got {s!r}") from None


# ------------------------------------------------------------------ commands


def cmd_group(args) -> int:
    G = _load_group_arg(args.group)
    if args.action == "info":
        print(f"degree {G.degree}")
        print(f"order {G.order}")
        print(f"transitive {_bool(G.is_transitive())}")
        sizes = " ".join(str(len(o)) for o in stabilizer_orbits(G, 0))
        print(f"stabilizer-orbits {sizes}")
        return 0
    if args.action == "orbits":
        for i, orb in enumerate(stabilizer_orbits(G, 0)):
            pts = " ".join(str(p) for p in orb)
            print(f"orbit {i} size {len(orb)}: {pts}")
        return 0
    if args.action == "subsets":
        try:
            k = int(args.arg)
        except (TypeError, ValueError):
            raise UsageError("group subsets needs an integer subset size") from None
        G2 = G.action_on_ksubsets(k)
        print(f"degree {G2.degree}")
        _emit(format_group_text(G2, comment=f"{k}-subset action"), args.out)
        return 0
    # coset-action
    if args.arg is None:
        raise UsageError("group coset-action needs a subgroup file")
    H = _load_group_arg(args.arg)
    G2 = G.coset_action(H)
    print(f"degree {G2.degree}")
    _emit(format_group_text(G2, comment="coset action"), args.out)
    return 0


def cmd_design(args) -> int:
    p = prime_power(args.q)[0]
    if args.action == "search":
        G = _load_group_arg(args.group)
        for hit in wso_search(G, 0, p):
            D, prof = hit.design, hit.profile
            orbits = ",".join(str(i) for i in hit.orbit_choice)
            print(f"Case{prof.dispatch_case()} {parameters(D)} "
                  f"b={D.b} orbits={orbits}")
        return 0
    if args.action == "build":
        G = _load_group_arg(args.group)
        if args.orbits is None:
            raise UsageError("design build needs an orbit choice like 0,1")
        choice = _parse_orbit_choice(args.orbits)
        count = len(stabilizer_orbits(G, 0))
        if not choice or any(not 0 <= i < count for i in choice):
            raise UsageError(f"orbit indices must lie in 0..{count - 1}")
        D = from_group_action(G, 0, choice)
        print(f"{parameters(D)} b={D.b}")
        _emit(format_design_text(D), args.out)
        return 0
    # classify
    D = _read(args.group, parse_design_text, "design")
    params = parameters(D)
    prof = intersection_profile(D, p)
    if not prof.constant:
        kind = "parity" if p == 2 else f"residues mod {p}"
        print(f"{params} non-constant {kind}")
        return 0
    print(f"{params} p={prof.p} a={prof.a} d={prof.d} "
          f"case={prof.dispatch_case()}")
    return 0


def _alpha_for(H: PermGroup, p: int) -> int:
    """Smallest alpha with every moving point orbit of length p^alpha; the
    split itself re-checks, so a wrong guess still errors cleanly."""
    moving = sorted({len(o) for o in H.point_orbits()} - {1})
    if not moving:
        return 1
    length, alpha = moving[0], 0
    while length % p == 0:
        length //= p
        alpha += 1
    return max(alpha, 1)


def cmd_orbitmat(args) -> int:
    D = _read(args.design, parse_design_text, "design")
    H = _load_group_arg(args.group)
    if args.action == "build":
        OM = build(D, H)
        print(f"orbit-matrix {OM.m}x{OM.n}")
        _emit(format_orbit_matrix_text(OM), args.out)
        return 0
    # split
    p = prime_power(args.q)[0]
    alpha = _alpha_for(H, p)
    om1, om2 = fixed_split(D, H, p, alpha)
    (f2, f1), (m, n) = om1.shape, om2.shape
    # a part with no columns is its header alone: its rows would be blank
    _emit(format_records([
        (f"fixed-split p={p} alpha={alpha} f1={f1} f2={f2} n={n} m={m}",),
        ("OM1", f2, f1), *(om1.tolist() if f1 else ()),
        ("OM2", m, n), *(om2.tolist() if n else ())]), args.out)
    return 0


def _summarize(prefix: str, rep, budget: int) -> str:
    # SO=true: a report exists only once _finish has found its Gram zero
    C = rep.code
    if C.k > 0:
        min_distance(C, budget)
    return (f"{prefix}{display(C)} SO=true "
            f"SD={_bool(rep.self_dual)} theorem={rep.theorem} "
            f"field={rep.field.q}")


def cmd_code(args) -> int:
    D = _read(args.design, parse_design_text, "design")
    q = args.q
    if args.action == "from-design":
        if q == 2:
            reps = [from_incidence_binary(D)]
        else:
            reps = [from_incidence_q(D, q)]
    else:
        H = _load_group_arg(args.group)
        if args.action == "from-orbitmat":
            if q == 2:
                reps = [from_orbitmatrix_binary(D, H)]
            else:
                reps = [from_orbitmatrix_q(D, H, q)]
        elif q == 2:
            reps = list(from_fixed_split_binary(D, H))
        else:
            alpha = _alpha_for(H, prime_power(q)[0])
            reps = list(from_fixed_split_q(D, H, q, alpha))
    tag = reps[0].theorem  # both reports of a fixed split carry the same tag
    if args.theorem is not None and args.theorem != tag:
        raise CaseMismatch(f"profile dispatches to {tag}, not {args.theorem}")
    prefixes = [""] if len(reps) == 1 else ["OM1 ", "OM2 "]
    for prefix, rep in zip(prefixes, reps):
        print(_summarize(prefix, rep, args.budget))
    _emit("\n\n".join(rep.to_text().rstrip("\n") for rep in reps) + "\n",
          args.out)
    return 0


def cmd_analyze(args) -> int:
    M = _read(args.matrix, GFMatrix.from_text, "matrix")
    C = LinearCode(M)
    if C.k > 0:
        min_distance(C, args.budget)
    print(f"{display(C)} SO={_bool(is_self_orthogonal(C))} "
          f"SD={_bool(is_self_dual(C))}")
    return 0


def cmd_reproduce(args) -> int:
    if args.table not in TABLES:
        raise UsageError(f"unknown table id {args.table!r}; "
                         f"known: {', '.join(sorted(TABLES))}")
    matches, missing = check_table(args.table)
    for row in TABLES[args.table].rows:
        n, k, d = row
        if row in matches:
            rep = matches[row]
            print(f"ok [{n},{k},{d}]_2 via {rep.theorem} from {rep.source}")
        else:
            print(f"MISSING [{n},{k},{d}]_2")
    if missing:
        print(f"FAIL {args.table}")
        return 3
    print(f"PASS {args.table}")
    return 0


# -------------------------------------------------------------------- parser

# actions that only print, so --out has nothing to write
_NO_ARTIFACT = {"group": ("info", "orbits"), "design": ("search", "classify")}


@cache
def _build_parser() -> _Parser:
    """The one parser of a process; parse_args keeps no state between calls."""
    top = _Parser(prog="socodes", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=False, theorem=False, out=True, q=False):
        if q:
            p.add_argument("--q", type=int, default=2,
                           help="field order (prime power), default 2")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="distances are exact only if q^k is at most this")
        if theorem:
            p.add_argument("--theorem", default=None,
                           help="require this construction tag, else error")
        if out:
            p.add_argument("--out", default=None,
                           help="write the produced artifact to this path")

    g = sub.add_parser("group", help="inspect or derive permutation groups")
    g.add_argument("action", choices=("info", "orbits", "subsets",
                                      "coset-action"))
    g.add_argument("group", help="group file or m11:<degree>")
    g.add_argument("arg", nargs="?", default=None,
                   help="subset size (subsets) or subgroup file (coset-action)")
    common(g)
    g.set_defaults(func=cmd_group)

    d = sub.add_parser("design", help="search, build, or classify designs")
    d.add_argument("action", choices=("search", "build", "classify"))
    d.add_argument("group", help="group file / m11:<degree>; "
                                 "a design file for classify")
    d.add_argument("orbits", nargs="?", default=None,
                   help="comma-separated stabilizer orbit indices (build)")
    common(d, q=True)
    d.set_defaults(func=cmd_design)

    o = sub.add_parser("orbitmat", help="orbit matrices and fixed splits")
    o.add_argument("action", choices=("build", "split"))
    o.add_argument("design", help="design file")
    o.add_argument("group", help="automorphism subgroup file or m11:<degree>")
    common(o, q=True)
    o.set_defaults(func=cmd_orbitmat)

    c = sub.add_parser("code", help="run a construction, print the report")
    c.add_argument("action", choices=("from-design", "from-orbitmat",
                                      "from-fixedsplit"))
    c.add_argument("design", help="design file")
    c.add_argument("group", nargs="?", default=None,
                   help="subgroup file (orbit matrix / fixed split)")
    common(c, q=True, budget=True, theorem=True)
    c.set_defaults(func=cmd_code)

    a = sub.add_parser("analyze", help="parameters of a stored generator")
    a.add_argument("matrix", help="matrix file (rows cols q header)")
    common(a, budget=True, out=False)
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("reproduce", help="re-derive an embedded code table")
    r.add_argument("table", help=f"one of: {', '.join(sorted(TABLES))}")
    common(r, out=False)
    r.set_defaults(func=cmd_reproduce)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "q", None) is not None and args.q < 2:
            raise UsageError("--q must be at least 2")
        if (getattr(args, "func", None) is cmd_code
                and args.action != "from-design" and args.group is None):
            raise UsageError(f"code {args.action} needs a subgroup argument")
        if getattr(args, "out", None) and args.action in _NO_ARTIFACT.get(args.command, ()):
            raise UsageError(f"{args.command} {args.action} writes no artifact for --out")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early: stdout goes to devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SelfCheckFailed as e:
        print(f"self-check failed: {e}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
