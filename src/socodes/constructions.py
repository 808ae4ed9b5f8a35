"""Self-orthogonal codes from designs, orbit matrices, and fixed splits.

Every construction here has the same shape: take an integer matrix attached
to a 1-design (the incidence matrix, an orbit matrix under an automorphism
group, or the fixed/moving corners of one), choose a field, and border it
with a scalar identity block on the left and/or a scalar all-ones column on
the right. Which borders appear, and with which scalars, is dispatched from
the residues (a, d) of the intersection profile -- and, for orbit matrices,
from the common orbit length w.

One border rule, ``_borders``, serves every entry point. When each row
of the base matrix has weight a + (w-1)d and any two rows meet in w*d
(mod p) -- the incidence matrix and OM1 with w = 1, an orbit matrix with
its common orbit length w, OM2 with w = p^alpha -- the generator
[c I | M | e 1] is self-orthogonal exactly when c = sqrt(d - a) and
e = sqrt(-w*d); a zero residue drops its border. The theorem tags only
name the case of (a, d) the profile falls in. Each report carries the tag
its profile selected as ``theorem``; no entry point takes one, and
requiring a particular tag is the caller's check (the CLI's
``--theorem``). The binary entry points are
the GF(2) instances of the GF(q) ones (every residue is then 1 and the
field never extends); the binary orbit-matrix theorems also accept block
orbits of smaller 2-adic valuation o < u than the point orbits, and those
take no border at all.

Over GF(q) the border scalars are square roots of prime-subfield residues;
when a needed residue is not a square the construction settles in GF(q^2)
instead, and the report says which scalar needed the move. Characteristic 2
never extends, since squaring is a bijection there.

Reports are hard-checked on the way out: the generator's gram matrix must
vanish, identity-bordered generators must have full row rank, and claimed
self-dualities must actually hold. Those are consequences of the theorems,
so a failure raises SelfCheckFailed rather than returning a bad code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import LinearCode, display
from .designs import Design, intersection_profile, parameters
from .fields import Field, field_for_order
from .groups import PermGroup
from .matrices import GFMatrix, bordered
from .orbitmat import BadOrbitProfile, build, fixed_split
from .records import SelfCheckFailed, _integers


class NotWSO(ValueError):
    """Binary construction on a design whose intersections have mixed parity."""


class NonConstantProfile(ValueError):
    """GF(q) construction on a design whose intersections vary mod p."""


@dataclass(frozen=True)
class ConstructionReport:
    """One constructed code plus the context needed to audit it.

    c_left / c_right are element codes of the scalars placed on the identity
    border and the all-ones border, None when the recipe has no such border.
    self_dual records the computed fact, not the theorem's claim.
    extension_reason says why the field grew to GF(q^2), or is None.
    """

    source: str
    theorem: str
    field: Field
    c_left: int | None
    c_right: int | None
    code: LinearCode
    self_dual: bool
    extension_reason: str | None

    def to_text(self) -> str:
        def scal(c):
            return "-" if c is None else str(c)

        head = [
            f"theorem {self.theorem}",
            f"field {self.field.q}",
            f"scalars {scal(self.c_left)} {scal(self.c_right)}",
            f"code {display(self.code)}",
        ]
        return "\n".join(head) + "\n" + self.code.generator.to_text()


def _settle_field(F: Field, needed) -> tuple[Field, str | None]:
    """F if every needed residue is a square there, else F's quadratic
    extension.

    needed: (label, residue) pairs. In characteristic 2 the base field
    always suffices.
    """
    if F.p != 2 and needed:
        bad = [lab for lab, r in needed if not F.is_square(F.from_int(r))]
        if bad:
            reason = ", ".join(bad) + f" not square in GF({F.q})"
            return F.extend_quadratic(), reason
    return F, None


def _finish(source: str, tag: str, F: Field, left, right,
            base) -> ConstructionReport:
    """Border, check, and wrap one generator matrix.

    left / right are (label, residue) pairs of prime-subfield residues, or
    None for no border; their square roots become the placed scalars, in F
    or in its quadratic extension when one is not a square in F. The gram,
    rank, and self-duality checks are theorem consequences, so failing them
    means a bug, not bad input. A left border with no right border on a
    square base claims self-duality.
    """
    F, reason = _settle_field(F, [b for b in (left, right) if b is not None])
    c_left = None if left is None else int(F.sqrt(F.from_int(left[1])))
    c_right = None if right is None else int(F.sqrt(F.from_int(right[1])))
    gen = bordered(GFMatrix.from_int(F, base), left=c_left, right=c_right)
    if not gen.gram().is_zero():
        raise SelfCheckFailed(f"{tag}: generator rows are not self-orthogonal")
    code = LinearCode(gen)
    if c_left is not None and code.k != gen.rows:
        raise SelfCheckFailed(f"{tag}: identity-bordered generator lost rank")
    sd = 2 * code.k == gen.cols
    claim = left is not None and right is None and base.shape[0] == base.shape[1]
    if claim and not sd:
        raise SelfCheckFailed(f"{tag}: claimed self-duality does not hold")
    return ConstructionReport(source, tag, F, c_left, c_right, code, sd, reason)


def _constant_profile(D: Design, p: int, binary: bool):
    """(intersection profile, "1-(v,k,r) design") of a design validated by
    that one ``parameters`` call; rejected unless the profile is constant."""
    name = f"{parameters(D)} design"
    prof = intersection_profile(D, p)
    if not prof.constant:
        if binary:
            raise NotWSO("pairwise intersection sizes have mixed parity")
        raise NonConstantProfile(f"intersection sizes vary mod {p}")
    return prof, name


def _borders(a: int, d: int, w: int, p: int):
    """Labelled (left, right) border residues (d - a, -w*d) mod p for a base
    whose rows have weight a + (w-1)d and meet in w*d mod p; a zero residue
    gives None, no border. The labels name the scalars in extension_reason."""
    left = ("d" if a == 0 else "-a" if d == 0 else "d-a", (d - a) % p)
    right = ("-d" if w == 1 else "-wd", (-w * d) % p)
    return tuple(None if b[1] == 0 else b for b in (left, right))


# ---------------------------------------------------------------- incidence


def _incidence(D: Design, q: int, binary: bool) -> ConstructionReport:
    F = field_for_order(q)
    prof, name = _constant_profile(D, F.p, binary)
    case = prof.dispatch_case()
    sub = "" if binary or case < 4 else "a" if prof.a == prof.d else "b"
    tag = f"T2.{1 if binary else 2}.{case}{sub}"
    left, right = _borders(prof.a, prof.d, 1, F.p)
    return _finish(f"{name}, {D.b} blocks", tag, F, left, right, D.incidence)


def from_incidence_binary(D: Design) -> ConstructionReport:
    """Code of the incidence matrix over GF(2), bordered by parity case:
    (a,d) = (0,0) -> M; (0,1) -> [I_b, M, 1]; (1,0) -> [I_b, M];
    (1,1) -> [M, 1]."""
    return _incidence(D, 2, binary=True)


def from_incidence_q(D: Design, q: int) -> ConstructionReport:
    """Bordered incidence code over GF(q), or GF(q^2) when a needed square
    root is missing, dispatched on the residues (a, d) mod p."""
    return _incidence(D, q, binary=False)


# ------------------------------------------------------------ orbit matrices


def _val2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _om_profile_binary(point_sizes, block_sizes) -> tuple[int, int, int]:
    """Common point-orbit length w = 2^u w' and the uniform 2-adic valuation
    o of the block-orbit lengths; the binary theorems need o <= u."""
    ws = {int(s) for s in point_sizes}
    if len(ws) != 1:
        raise BadOrbitProfile(f"point orbit lengths {sorted(ws)} differ")
    w = ws.pop()
    u = _val2(w)
    os_ = {_val2(int(s)) for s in block_sizes}
    if len(os_) != 1:
        raise BadOrbitProfile("block orbit lengths have mixed 2-adic valuation")
    o = os_.pop()
    if o > u:
        raise BadOrbitProfile(f"block valuation {o} exceeds point valuation {u}")
    return w, o, u


def _om_tag_binary(case: int, o: int, u: int) -> str:
    """Binary orbit-matrix theorem; cases 2-4 split on the valuations."""
    if case == 1:
        return "T3.1.bin"
    if case == 2:
        return "T3.2.bin" + ("a" if o == u == 0 else "b" if o == u else "c")
    if case == 3:
        return "T3.3.bin" + ("a" if o == u else "b")
    return "T3.4.bin" + ("a" if o == u == 0 else "b")


def _om_tag_q(case: int, w: int, p: int) -> str:
    """GF(q) orbit-matrix theorem; case 2 splits on w = 0, 1, other mod p."""
    return f"T3.{case}.q" + ("abc"[min(w % p, 2)] if case == 2 else "")


def from_orbitmatrix_binary(D: Design, H: PermGroup) -> ConstructionReport:
    """Code of the orbit matrix over GF(2). Point orbits must share one
    length w = 2^u w'; block orbit lengths must share one 2-adic valuation
    o <= u. When o = u the borders follow the rule for w; when o < u the
    orbit matrix stands unbordered."""
    prof, name = _constant_profile(D, 2, binary=True)
    OM = build(D, H)
    w, o, u = _om_profile_binary(OM.point_orbit_sizes, OM.block_orbit_sizes)
    tag = _om_tag_binary(prof.dispatch_case(), o, u)
    left, right = _borders(prof.a, prof.d, w, 2) if o == u else (None, None)
    src = f"{name}, orbit matrix {OM.m}x{OM.n}, w={w}"
    return _finish(src, tag, field_for_order(2), left, right, OM.entries)


def from_orbitmatrix_q(D: Design, H: PermGroup, q: int) -> ConstructionReport:
    """Bordered orbit-matrix code over GF(q)/GF(q^2); every point and block
    orbit must share one length w, which enters the right border -w*d."""
    F = field_for_order(q)
    prof, name = _constant_profile(D, F.p, binary=False)
    OM = build(D, H)
    if not (w := OM.w):
        sizes = {*OM.point_orbit_sizes.tolist(), *OM.block_orbit_sizes.tolist()}
        raise BadOrbitProfile(f"orbit lengths {sorted(sizes)} are not uniform")
    tag = _om_tag_q(prof.dispatch_case(), w, F.p)
    left, right = _borders(prof.a, prof.d, w, F.p)
    src = f"{name}, orbit matrix {OM.m}x{OM.n}, w={w}"
    return _finish(src, tag, F, left, right, OM.entries)


# -------------------------------------------------------------- fixed splits


def _fixed(D: Design, H: PermGroup, q: int, alpha: int, binary: bool):
    F = field_for_order(q)
    p = F.p
    if not 1 <= (alpha := _integers(alpha, "alpha")) <= F.l:
        raise ValueError(f"alpha must lie in 1..{F.l} for GF({q})")
    prof, name = _constant_profile(D, p, binary)
    om1, om2 = fixed_split(D, H, p, alpha)
    tag = f"T3.{prof.dispatch_case()}.fix" + ("" if binary else ".q")
    base = f"{name}, fixed split"
    rep1 = _finish(f"{base}, OM1 {om1.shape[0]}x{om1.shape[1]}", tag, F,
                   *_borders(prof.a, prof.d, 1, p), om1)
    rep2 = _finish(f"{base}, OM2 {om2.shape[0]}x{om2.shape[1]}", tag, F,
                   *_borders(prof.a, prof.d, p ** alpha, p), om2)
    return rep1, rep2


def from_fixed_split_binary(D: Design, H: PermGroup):
    """Two codes from the fixed/moving split of an orbit matrix under a
    subgroup with orbit lengths {1, 2}: one on the f1 fixed points from OM1,
    one on the n moving point orbits from OM2."""
    return _fixed(D, H, 2, 1, binary=True)


def from_fixed_split_q(D: Design, H: PermGroup, q: int, alpha: int):
    """Fixed/moving split over GF(q) for orbit lengths {1, p^alpha}.

    OM1 is bordered as an incidence matrix (w = 1) and OM2 as an orbit
    matrix with w = p^alpha, whose all-ones border always drops out. The two
    reports settle their fields independently: each extends to GF(q^2) only
    for its own scalars.
    """
    return _fixed(D, H, q, alpha, binary=False)
