"""Self-orthogonal codes from designs, orbit matrices, and fixed splits.

Every construction here has the same shape: take an integer matrix attached
to a 1-design (the incidence matrix, an orbit matrix under an automorphism
group, or the fixed/moving corners of one), choose a field, and border it
with a scalar identity block on the left and/or a scalar all-ones column on
the right. Which borders appear, and with which scalars, is dispatched from
the residues (a, d) of the intersection profile -- and, for orbit matrices,
from the common orbit length w.

One border table, ``_borders``, maps (a, d) mod p to the incidence
theorems' sub-case and their labelled border residues; it serves both the
incidence codes and OM1 of the fixed split. The binary entry points are
the GF(2) instances of the GF(q) ones (every residue is then 1 and the
field never extends): ``binary`` chooses only the theorem tags and the
rejection class (NotWSO rather than NonConstantProfile). The binary
orbit-matrix theorems keep their own 2-adic orbit-length rule.

Over GF(q) the border scalars are square roots of prime-subfield residues;
when a needed residue is not a square the construction settles in GF(q^2)
instead, and the report says which scalar forced the move. Characteristic 2
never extends, since squaring is a bijection there.

Reports are hard-checked on the way out: the generator's gram matrix must
vanish, identity-bordered generators must have full row rank, and claimed
self-dualities must actually hold. Those are consequences of the theorems,
so a failure raises ArithmeticError rather than returning a bad code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import LinearCode, display, is_self_dual
from .designs import Design, intersection_profile, validate
from .fields import Field, field_for_order
from .groups import PermGroup
from .matrices import GFMatrix, bordered
from .orbitmat import BadOrbitProfile, build, fixed_split


class NotWSO(ValueError):
    """Binary construction on a design whose intersections have mixed parity."""


class NonConstantProfile(ValueError):
    """GF(q) construction on a design whose intersections vary mod p."""


class CaseMismatch(ValueError):
    """The theorem named by the caller is not the one the profile selects."""


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


def _finish(source: str, tag: str, F: Field, left, right, base,
            sd_claim: bool, forced) -> ConstructionReport:
    """Border, check, and wrap one generator matrix.

    left / right are (label, residue) pairs of prime-subfield residues, or
    None for no border; their square roots become the placed scalars, in F
    or in its quadratic extension when one is not a square in F. The gram,
    rank, and self-duality checks are theorem consequences, so failing them
    means a bug, not bad input.
    """
    if forced is not None and forced != tag:
        raise CaseMismatch(f"profile dispatches to {tag}, not {forced}")
    F, reason = _settle_field(F, [b for b in (left, right) if b is not None])
    c_left = None if left is None else int(F.sqrt(F.from_int(left[1])))
    c_right = None if right is None else int(F.sqrt(F.from_int(right[1])))
    gen = bordered(GFMatrix.from_int(F, base), left=c_left, right=c_right)
    if not gen.gram().is_zero():
        raise ArithmeticError(f"{tag}: generator rows are not self-orthogonal")
    code = LinearCode(gen)
    if c_left is not None and code.k != gen.rows:
        raise ArithmeticError(f"{tag}: identity-bordered generator lost rank")
    sd = is_self_dual(code)
    if sd_claim and not sd:
        raise ArithmeticError(f"{tag}: claimed self-duality does not hold")
    return ConstructionReport(source, tag, F, c_left, c_right, code, sd, reason)


def _constant_profile(D: Design, p: int, binary: bool):
    """Intersection profile of a valid design, rejected unless constant."""
    validate(D)
    prof = intersection_profile(D, p)
    if not prof.constant:
        if binary:
            raise NotWSO("pairwise intersection sizes have mixed parity")
        raise NonConstantProfile(f"intersection sizes vary mod {p}")
    return prof


def _borders(a: int, d: int, p: int):
    """Sub-case and labelled (left, right) border residues of the incidence
    theorems for the residues (a, d) mod p; None means no border."""
    if a == 0 and d == 0:
        return "1", None, None
    if a == 0:
        return "2", ("d", d), ("-d", -d % p)
    if d == 0:
        return "3", ("-a", -a % p), None
    if a == d:
        return "4a", None, ("-a", -a % p)
    return "4b", ("d-a", (d - a) % p), ("-d", -d % p)


def _design_name(D: Design) -> str:
    return f"1-({D.v},{D.k},{D.r}) design"


# ---------------------------------------------------------------- incidence


def _incidence(D: Design, q: int, theorem, binary: bool) -> ConstructionReport:
    F = field_for_order(q)
    prof = _constant_profile(D, F.p, binary)
    sub, left, right = _borders(prof.a, prof.d, F.p)
    tag = f"T2.1.{sub[0]}" if binary else f"T2.2.{sub}"
    return _finish(f"{_design_name(D)}, {D.b} blocks", tag, F, left, right,
                   D.incidence_array(), sub == "3" and D.b == D.v, theorem)


def from_incidence_binary(D: Design,
                          theorem: str | None = None) -> ConstructionReport:
    """Code of the incidence matrix over GF(2), bordered by parity case:
    (a,d) = (0,0) -> M; (0,1) -> [I_b, M, 1]; (1,0) -> [I_b, M];
    (1,1) -> [M, 1]."""
    return _incidence(D, 2, theorem, binary=True)


def from_incidence_q(D: Design, q: int,
                     theorem: str | None = None) -> ConstructionReport:
    """Bordered incidence code over GF(q), or GF(q^2) when a needed square
    root is missing, dispatched on the residues (a, d) mod p."""
    return _incidence(D, q, theorem, binary=False)


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


def _branch_binary_om(case: int, o: int, u: int):
    """Tag, border flags (1 = unit scalar), and self-dual claim template for
    the binary orbit-matrix theorems. The claim applies only when m = n."""
    if case == 1:
        return "T3.1.bin", None, None, False
    if case == 2:
        if o == u == 0:
            return "T3.2.bina", 1, 1, False
        if o == u:
            return "T3.2.binb", 1, None, True
        return "T3.2.binc", None, None, False
    if case == 3:
        if o == u:
            return "T3.3.bina", 1, None, True
        return "T3.3.binb", None, None, False
    if o == u == 0:
        return "T3.4.bina", None, 1, False
    return "T3.4.binb", None, None, False


def from_orbitmatrix_binary(D: Design, H: PermGroup,
                            theorem: str | None = None) -> ConstructionReport:
    """Code of the orbit matrix over GF(2). Point orbits must share one
    length w = 2^u w'; block orbit lengths must share one 2-adic valuation
    o <= u. The (case, o, u) combination picks the border."""
    prof = _constant_profile(D, 2, binary=True)
    OM = build(D, H)
    w, o, u = _om_profile_binary(OM.point_orbit_sizes, OM.block_orbit_sizes)
    tag, left, right, claim = _branch_binary_om(prof.dispatch_case(), o, u)
    left, right = (None if f is None else ("1", f) for f in (left, right))
    src = f"{_design_name(D)}, orbit matrix {OM.m}x{OM.n}, w={w}"
    return _finish(src, tag, field_for_order(2), left, right, OM.entries,
                   claim and OM.m == OM.n, theorem)


def _om_profile_q(point_sizes, block_sizes) -> int:
    """The single orbit length w shared by every point and block orbit."""
    sizes = {int(s) for s in point_sizes} | {int(s) for s in block_sizes}
    if len(sizes) != 1:
        raise BadOrbitProfile(f"orbit lengths {sorted(sizes)} are not uniform")
    return sizes.pop()


def _branch_q_om(a: int, d: int, w: int, p: int):
    """Tag, labelled (left, right) border residues, and self-dual claim
    template for the GF(q) orbit-matrix theorems. Residues are mod-p
    integers; the caller takes square roots. The claim applies only when
    m = n."""
    a %= p
    d %= p
    wr = w % p
    wd = ("wd", (w * d) % p)
    mwd = ("-wd", (-w * d) % p)
    if a == 0 and d == 0:
        return "T3.1.q", None, None, False
    if a == 0:
        if wr == 0:
            return "T3.2.qa", ("d", d), None, True
        if wr == 1:
            return "T3.2.qb", wd, mwd, False
        return "T3.2.qc", ("d", d), mwd, False
    if d == 0:
        return "T3.3.q", ("-a", -a % p), None, True
    if a == d:
        return "T3.4.q", None, None if wr == 0 else mwd, False
    if wr == 0:
        return "T3.4.q", ("d-a", (d - a) % p), None, True
    if wr == 1:
        return "T3.4.q", ("wd-a", (w * d - a) % p), mwd, False
    return "T3.4.q", ("d-a", (d - a) % p), mwd, False


def from_orbitmatrix_q(D: Design, H: PermGroup, q: int,
                       theorem: str | None = None) -> ConstructionReport:
    """Bordered orbit-matrix code over GF(q)/GF(q^2); every point and block
    orbit must share one length w, and the branch depends on (a, d) and
    w mod p."""
    F = field_for_order(q)
    prof = _constant_profile(D, F.p, binary=False)
    OM = build(D, H)
    w = _om_profile_q(OM.point_orbit_sizes, OM.block_orbit_sizes)
    tag, left, right, claim = _branch_q_om(prof.a, prof.d, w, F.p)
    src = f"{_design_name(D)}, orbit matrix {OM.m}x{OM.n}, w={w}"
    return _finish(src, tag, F, left, right, OM.entries,
                   claim and OM.m == OM.n, theorem)


# -------------------------------------------------------------- fixed splits


def _fixed(D: Design, H: PermGroup, q: int, alpha: int, theorem,
           binary: bool):
    F = field_for_order(q)
    p = F.p
    if not 1 <= alpha <= F.l:
        raise ValueError(f"alpha must lie in 1..{F.l} for GF({q})")
    prof = _constant_profile(D, p, binary)
    fs = fixed_split(D, H, p, alpha)
    a, d = prof.a, prof.d
    sub, left1, right1 = _borders(a, d, p)
    left2 = None if a == d else ("d" if a == 0 else "d-a", (d - a) % p)
    tag = f"T3.{sub[0]}.fix" + ("" if binary else ".q")
    base = f"{_design_name(D)}, fixed split"
    rep1 = _finish(f"{base}, OM1 {fs.f2}x{fs.f1}", tag, F, left1, right1,
                   fs.om1, False, theorem)
    rep2 = _finish(f"{base}, OM2 {fs.m}x{fs.n}", tag, F, left2, None, fs.om2,
                   left2 is not None and fs.m == fs.n, theorem)
    return rep1, rep2


def from_fixed_split_binary(D: Design, H: PermGroup,
                            theorem: str | None = None):
    """Two codes from the fixed/moving split of an orbit matrix under a
    subgroup with orbit lengths {1, 2}: one on the f1 fixed points from OM1,
    one on the n moving point orbits from OM2."""
    return _fixed(D, H, 2, 1, theorem, binary=True)


def from_fixed_split_q(D: Design, H: PermGroup, q: int, alpha: int,
                       theorem: str | None = None):
    """Fixed/moving split over GF(q) for orbit lengths {1, p^alpha}.

    OM1 takes the incidence-style borders of its case; OM2 is plain when
    a = d and [sqrt(d-a) I_m, OM2] otherwise. The two reports settle their
    fields independently: each extends to GF(q^2) only for its own scalars.
    """
    return _fixed(D, H, q, alpha, theorem, binary=False)
