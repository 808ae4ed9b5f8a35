"""1-designs: validation, intersection profiles, and developments of base
blocks under transitive group actions.

A 1-(v,k,r) design here is a point count plus an ordered sequence of blocks
(sorted point tuples). Blocks may repeat; a repeated pair intersects in k
points. The four-residue profile (k mod p, common intersection residue)
drives every construction theorem downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import NotTransitive, PermGroup


class NonConstantBlockSize(ValueError):
    pass


class NotOneDesign(ValueError):
    pass


class DeltaIsOmega(ValueError):
    pass


class DeltaEmpty(ValueError):
    pass


class TooManyOrbitCombinations(RuntimeError):
    pass


MAX_ORBIT_COMBINATIONS = 2 ** 20

# p = 2 case labels, keyed by (k mod 2, intersection mod 2)
CASE_NAMES = {
    (0, 0): "SO",
    (0, 1): "EvenK-OddInt",
    (1, 0): "OddK-EvenInt",
    (1, 1): "OddK-OddInt",
}


class Design:
    """Point count v plus an ordered block sequence (sorted index tuples)."""

    __slots__ = ("v", "blocks", "_kr")

    def __init__(self, v: int, blocks):
        norm = []
        for blk in blocks:
            t = tuple(sorted(int(x) for x in blk))
            if t and not 0 <= t[0] <= t[-1] < v:
                raise ValueError(f"block {t} outside point range [0,{v})")
            if len(set(t)) != len(t):
                raise ValueError(f"block {t} repeats a point")
            norm.append(t)
        self.v = int(v)
        self.blocks = tuple(norm)
        self._kr = None

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def k(self) -> int:
        return validate(self)[0]

    @property
    def r(self) -> int:
        return validate(self)[1]

    def incidence_array(self) -> np.ndarray:
        """Plain 0/1 integer incidence, for counting work outside any field."""
        M = np.zeros((self.b, self.v), dtype=np.int64)
        for i, blk in enumerate(self.blocks):
            M[i, list(blk)] = 1
        return M

    def __eq__(self, other):
        return (isinstance(other, Design) and self.v == other.v
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.v, self.blocks))

    def __repr__(self):
        try:
            k, r = validate(self)
            return f"Design(1-({self.v},{k},{r}), b={self.b})"
        except ValueError:
            return f"Design(v={self.v}, b={self.b})"


def validate(D: Design) -> tuple:
    """Confirm constant block size and constant replication; return (k, r)."""
    if D._kr is not None:
        return D._kr
    if not D.blocks:
        raise NotOneDesign("design has no blocks")
    sizes = {len(blk) for blk in D.blocks}
    if len(sizes) != 1:
        raise NonConstantBlockSize(f"block sizes {sorted(sizes)}")
    counts = np.zeros(D.v, dtype=np.int64)
    for blk in D.blocks:
        counts[list(blk)] += 1
    rs = set(counts.tolist())
    if len(rs) != 1:
        raise NotOneDesign(f"replication counts {sorted(rs)}")
    k, r = sizes.pop(), rs.pop()
    if r == 0:
        raise NotOneDesign("isolated points")
    D._kr = (k, r)
    return D._kr


@dataclass(frozen=True)
class WSOProfile:
    """Residues of block size and pairwise intersections mod p.

    d is None when the intersection residues are not constant; `case` names
    the four p=2 cases and is None for odd p or non-constant profiles.
    """

    p: int
    a: int
    d: int | None
    case: str | None = field(default=None)

    @property
    def constant(self) -> bool:
        return self.d is not None

    def dispatch_case(self) -> int:
        """1..4 from (a, d) zero/nonzero, the split the theorems branch on."""
        if self.d is None:
            raise ValueError("profile is not constant")
        return {(True, True): 1, (True, False): 2,
                (False, True): 3, (False, False): 4}[(self.a == 0, self.d == 0)]


def intersection_profile(D: Design, p: int) -> WSOProfile:
    """Classify all C(b,2) pairwise intersection sizes mod p.

    The Gram matrix M M^T is formed in float64 (BLAS; exact, since every
    count is at most v).
    """
    if D.b < 2:
        raise ValueError("need at least two blocks for an intersection profile")
    sizes = {len(blk) for blk in D.blocks}
    if len(sizes) != 1:
        raise NonConstantBlockSize(f"block sizes {sorted(sizes)}")
    k = sizes.pop()
    M = D.incidence_array().astype(np.float64)
    off = np.remainder(M @ M.T, p)[~np.eye(D.b, dtype=bool)]
    resid = np.unique(off)
    a = k % p
    if resid.size != 1:
        return WSOProfile(p, a, None, None)
    d = int(resid[0])
    case = CASE_NAMES[(a, d)] if p == 2 else None
    return WSOProfile(p, a, d, case)


# ---------------------------------------------------------------------------
# developments of orbit unions


def stabilizer_orbits(G: PermGroup, alpha: int) -> list:
    """Point orbits of the stabilizer G_alpha; orbit unions are indexed by
    positions in this list."""
    return G.stabilizer(alpha).point_orbits()


def _delta_from_choice(orbits, orbit_choice) -> tuple:
    """Sorted distinct points of the chosen orbits; an index outside
    0..len(orbits)-1 is a ValueError."""
    pts = set()
    for i in map(int, orbit_choice):
        if not 0 <= i < len(orbits):
            raise ValueError(
                f"orbit indices must lie in 0..{len(orbits) - 1}, got {i}")
        pts.update(orbits[i])
    return tuple(sorted(pts))


def from_group_action(G: PermGroup, alpha: int, orbit_choice) -> Design:
    """Develop Delta = union of chosen stabilizer orbits into {Delta g}."""
    if not G.is_transitive():
        raise NotTransitive("construction needs a transitive action")
    orbits = stabilizer_orbits(G, alpha)
    delta = _delta_from_choice(orbits, orbit_choice)
    if not delta:
        raise DeltaEmpty("empty base block")
    if len(delta) == G.degree:
        raise DeltaIsOmega("base block is the whole point set")
    D = Design(G.degree, G.set_orbit(delta))
    validate(D)
    return D


@dataclass(frozen=True)
class SearchHit:
    orbit_choice: tuple
    design: Design
    profile: WSOProfile


def wso_search(G: PermGroup, alpha: int, p: int = 2) -> list:
    """All proper nonempty orbit unions whose development has a constant
    intersection residue mod p, in ascending bitmask order."""
    if not G.is_transitive():
        raise NotTransitive("search needs a transitive action")
    orbits = stabilizer_orbits(G, alpha)
    if 2 ** len(orbits) > MAX_ORBIT_COMBINATIONS:
        raise TooManyOrbitCombinations(
            f"2^{len(orbits)} orbit unions exceed the cap {MAX_ORBIT_COMBINATIONS}")
    hits = []
    for mask in range(1, 2 ** len(orbits) - 1):
        choice = tuple(i for i in range(len(orbits)) if mask >> i & 1)
        delta = _delta_from_choice(orbits, choice)
        if len(delta) == G.degree:
            continue
        D = Design(G.degree, G.set_orbit(delta))
        validate(D)
        prof = intersection_profile(D, p)
        if prof.constant:
            hits.append(SearchHit(choice, D, prof))
    return hits


# ---------------------------------------------------------------------------
# serialization: line 1 "v b", then b sorted index rows


def format_design_text(D: Design) -> str:
    lines = [f"{D.v} {D.b}"]
    for blk in D.blocks:
        lines.append(" ".join(str(x) for x in blk))
    return "\n".join(lines) + "\n"


def parse_design_text(text: str) -> Design:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty design file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'v b'")
    v, b = int(head[0]), int(head[1])
    if len(lines) - 1 != b:
        raise ValueError(f"expected {b} block rows, found {len(lines) - 1}")
    blocks = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    return Design(v, blocks)


def load_design(path) -> Design:
    with open(path) as fh:
        return parse_design_text(fh.read())
