"""Command-line front end: group -> design -> orbit matrix -> code -> analysis.

Every command is deterministic and prints one record per line, so the
output can be diffed or fed back in. Group arguments accept either a path
to a generator file or ``m11:<degree>`` for the shipped M11 actions.

Exit codes: 0 ok, 1 usage or input-file problem, 2 mathematical
precondition failure (wrong orbit profile, non-constant intersection
residues, forced theorem mismatch, budget exceeded, ...), 3 table
reproduction mismatch.
"""

from __future__ import annotations

import argparse
import sys

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
    Design,
    from_group_action,
    intersection_profile,
    load_design,
    format_design_text,
    validate,
    wso_search,
    stabilizer_orbits,
)
from .fields import field_for_order
from .groups import PermGroup, format_group_text, load_group
from .m11 import DEGREES, m11_degree
from .matrices import GFMatrix
from .orbitmat import build, fixed_split, format_orbit_matrix_text
from .tables import TABLES, check_table


class UsageError(Exception):
    """Bad flags, unreadable files, unknown ids: exit code 1."""


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
    try:
        return load_group(spec)
    except OSError as e:
        raise UsageError(f"cannot read group file {spec!r}: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad group file {spec!r}: {e}") from None


def _load_design_arg(path: str) -> Design:
    try:
        return load_design(path)
    except OSError as e:
        raise UsageError(f"cannot read design file {path!r}: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad design file {path!r}: {e}") from None


def _read_matrix(path: str) -> GFMatrix:
    try:
        with open(path) as fh:
            return GFMatrix.from_text(fh.read())
    except OSError as e:
        raise UsageError(f"cannot read matrix file {path!r}: {e}") from None
    except ValueError as e:
        raise UsageError(f"bad matrix file {path!r}: {e}") from None


def _emit(text: str, out: str | None) -> None:
    """Artifact body to --out when given, stdout otherwise."""
    if out:
        with open(out, "w") as fh:
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
    p = field_for_order(args.q).p
    if args.action == "search":
        G = _load_group_arg(args.group)
        for hit in wso_search(G, 0, p):
            D, prof = hit.design, hit.profile
            orbits = ",".join(str(i) for i in hit.orbit_choice)
            print(f"Case{prof.dispatch_case()} 1-({D.v},{D.k},{D.r}) "
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
        print(f"1-({D.v},{D.k},{D.r}) b={D.b}")
        _emit(format_design_text(D), args.out)
        return 0
    # classify
    D = _load_design_arg(args.group)
    validate(D)
    prof = intersection_profile(D, p)
    if not prof.constant:
        kind = "parity" if p == 2 else f"residues mod {p}"
        print(f"1-({D.v},{D.k},{D.r}) non-constant {kind}")
        return 0
    print(f"1-({D.v},{D.k},{D.r}) p={prof.p} a={prof.a} d={prof.d} "
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
    D = _load_design_arg(args.design)
    H = _load_group_arg(args.group)
    if args.action == "build":
        OM = build(D, H)
        OM.verify_counts()
        print(f"orbit-matrix {OM.m}x{OM.n}")
        _emit(format_orbit_matrix_text(OM), args.out)
        return 0
    # split
    p = field_for_order(args.q).p
    alpha = _alpha_for(H, p)
    fs = fixed_split(D, H, p, alpha)
    lines = [f"fixed-split p={p} alpha={alpha} f1={fs.f1} f2={fs.f2} "
             f"n={fs.n} m={fs.m}",
             f"OM1 {fs.f2} {fs.f1}"]
    lines += [" ".join(str(x) for x in row) for row in fs.om1.tolist()]
    lines.append(f"OM2 {fs.m} {fs.n}")
    lines += [" ".join(str(x) for x in row) for row in fs.om2.tolist()]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _summarize(prefix: str, rep, budget: int) -> str:
    C = rep.code
    if C.k > 0:
        min_distance(C, budget)
    return (f"{prefix}{display(C)} SO={_bool(is_self_orthogonal(C))} "
            f"SD={_bool(rep.self_dual)} theorem={rep.theorem} "
            f"field={rep.field.q}")


def cmd_code(args) -> int:
    D = _load_design_arg(args.design)
    q = args.q
    if args.action == "from-design":
        if q == 2:
            reps = [from_incidence_binary(D, theorem=args.theorem)]
        else:
            reps = [from_incidence_q(D, q, theorem=args.theorem)]
    else:
        H = _load_group_arg(args.group)
        if args.action == "from-orbitmat":
            if q == 2:
                reps = [from_orbitmatrix_binary(D, H, theorem=args.theorem)]
            else:
                reps = [from_orbitmatrix_q(D, H, q, theorem=args.theorem)]
        elif q == 2:
            reps = list(from_fixed_split_binary(D, H, theorem=args.theorem))
        else:
            alpha = _alpha_for(H, field_for_order(q).p)
            reps = list(from_fixed_split_q(D, H, q, alpha,
                                           theorem=args.theorem))
    prefixes = [""] if len(reps) == 1 else ["OM1 ", "OM2 "]
    for prefix, rep in zip(prefixes, reps):
        print(_summarize(prefix, rep, args.budget))
    _emit("\n\n".join(rep.to_text().rstrip("\n") for rep in reps) + "\n",
          args.out)
    return 0


def cmd_analyze(args) -> int:
    M = _read_matrix(args.matrix)
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


def _build_parser() -> _Parser:
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
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
