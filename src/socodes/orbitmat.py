"""Orbit matrices of 1-designs under automorphism subgroups.

The orbit matrix records a[s][j] = number of points of point orbit j on a
block of block orbit s. Every row of an orbit matrix sums to k, and a
double-counting identity ties the entries back to raw block intersections;
verify_counts replays that identity exactly over rationals, so a passing
orbit matrix is a certificate, not an assumption.

fixed_split carves the orbit matrix of a group with orbit lengths in
{1, p^alpha} into the fixed part OM1 (fixed blocks x fixed points) and the
moving part OM2. The text format writes an orbit matrix with its orbit
lengths for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Design, validate
from .groups import Perm, PermGroup


class NotAnAutomorphismGroup(ValueError):
    pass


class IllDefinedEntry(ArithmeticError):
    """Orbit counts disagree inside one block orbit. Impossible for a true
    automorphism group; raised only on internal inconsistency."""


class BadOrbitProfile(ValueError):
    pass


def _orbit_sort_key(orb):
    # fixed orbits first, then by least element
    return (len(orb) > 1, orb[0])


class OrbitMatrix:
    """Integer matrix a[s][j] = |rep-block-of-orbit-s ∩ point-orbit-j|."""

    __slots__ = ("design", "entries", "point_orbits", "block_orbits")

    def __init__(self, design: Design, entries, point_orbits, block_orbits):
        self.design = design
        self.entries = np.asarray(entries, dtype=np.int64)
        self.point_orbits = tuple(tuple(o) for o in point_orbits)
        self.block_orbits = tuple(tuple(o) for o in block_orbits)

    @property
    def m(self) -> int:
        return len(self.block_orbits)

    @property
    def n(self) -> int:
        return len(self.point_orbits)

    @property
    def point_orbit_sizes(self) -> np.ndarray:
        return np.array([len(o) for o in self.point_orbits], dtype=np.int64)

    @property
    def block_orbit_sizes(self) -> np.ndarray:
        return np.array([len(o) for o in self.block_orbits], dtype=np.int64)

    def verify_counts(self) -> None:
        """Check, for every pair (s,t) of block orbits, that

            sum_j (b_t / v_j) * a[s][j] * a[t][j]
              = sum over blocks x' in orbit t of |x ∩ x'|,   x = rep of s,

        computing the left side over exact rationals. Raises IllDefinedEntry
        on a non-integral term or a mismatch.
        """
        M = self.design.incidence_array()
        reps = [orb[0] for orb in self.block_orbits]
        S = np.zeros((self.m, self.design.v), dtype=np.int64)
        for t, orb in enumerate(self.block_orbits):
            S[t] = M[list(orb)].sum(axis=0)
        lhs = M[reps] @ S.T
        bs = self.block_orbit_sizes
        vs = self.point_orbit_sizes
        a = self.entries
        for s in range(self.m):
            for t in range(self.m):
                tot = Fraction(0)
                for j in range(self.n):
                    tot += Fraction(int(bs[t]), int(vs[j])) * int(a[s, j]) * int(a[t, j])
                if tot.denominator != 1 or tot != lhs[s, t]:
                    raise IllDefinedEntry(
                        f"count identity fails at block orbit pair ({s},{t}): "
                        f"{tot} != {lhs[s, t]}")

    def __repr__(self):
        return f"OrbitMatrix(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class FixedSplit:
    """Orbit matrix of an orbit-length-{1, p^alpha} action, cut into the
    fixed-by-fixed corner OM1 and the moving-by-moving corner OM2."""

    om1: np.ndarray  # f2 x f1, entries in {0,1}
    om2: np.ndarray  # m x n, entries in [0, p^alpha]
    f1: int
    f2: int
    n: int
    m: int
    plength: int  # p^alpha
    full: OrbitMatrix


def _induced_block_perm(blocks, g: Perm) -> Perm:
    """Permutation of block indices induced by g, or None if some image is
    not a block. Repeated blocks are matched to repeated images in index
    order, which fixes one deterministic choice."""
    slots: dict = {}
    for i, blk in enumerate(blocks):
        slots.setdefault(blk, []).append(i)
    queues = {blk: iter(idxs) for blk, idxs in slots.items()}
    images = [0] * len(blocks)
    for i, blk in enumerate(blocks):
        it = queues.get(g.apply_set(blk))
        if it is None:
            return None
        target = next(it, None)
        if target is None:
            return None
        images[i] = target
    return Perm(images)


def build(D: Design, H: PermGroup) -> OrbitMatrix:
    """Orbit matrix of D under H. H must act on D's points and map blocks
    to blocks (checked per generator); orbits are sorted fixed-first, then
    by least element."""
    validate(D)
    if H.degree != D.v:
        raise NotAnAutomorphismGroup(
            f"group degree {H.degree} != point count {D.v}")
    induced = []
    for g in H.generators:
        pg = _induced_block_perm(D.blocks, g)
        if pg is None:
            raise NotAnAutomorphismGroup(
                f"generator {g!r} does not map blocks to blocks")
        induced.append(pg)

    point_orbits = sorted(H.point_orbits(), key=_orbit_sort_key)
    block_group = PermGroup(D.b, induced)
    block_orbits = sorted(block_group.point_orbits(), key=_orbit_sort_key)

    M = D.incidence_array()
    P = np.zeros((D.v, len(point_orbits)), dtype=np.int64)
    for j, orb in enumerate(point_orbits):
        P[list(orb), j] = 1
    counts = M @ P  # per-block orbit counts, b x n
    entries = counts[[orb[0] for orb in block_orbits]]
    for s, orb in enumerate(block_orbits):
        if not (counts[list(orb)] == entries[s]).all():
            raise IllDefinedEntry(
                f"block orbit {s} has non-constant point-orbit counts")
    return OrbitMatrix(D, entries, point_orbits, block_orbits)


def fixed_split(D: Design, H: PermGroup, p: int, alpha: int) -> FixedSplit:
    """Split the orbit matrix of an action whose point and block orbits all
    have length 1 or p^alpha into OM1 (fixed x fixed) and OM2 (moving x
    moving)."""
    plength = p ** alpha
    OM = build(D, H)
    for kind, sizes in (("point", OM.point_orbit_sizes),
                        ("block", OM.block_orbit_sizes)):
        bad = set(sizes.tolist()) - {1, plength}
        if bad:
            raise BadOrbitProfile(
                f"{kind} orbit lengths {sorted(bad)} outside {{1, {plength}}}")
    f1 = int((OM.point_orbit_sizes == 1).sum())
    f2 = int((OM.block_orbit_sizes == 1).sum())
    n = OM.n - f1
    m = OM.m - f2
    return FixedSplit(
        om1=OM.entries[:f2, :f1].copy(),
        om2=OM.entries[f2:, f1:].copy(),
        f1=f1, f2=f2, n=n, m=m, plength=plength, full=OM)


# ---------------------------------------------------------------------------
# text format: header "m n w | b-sizes | v-sizes", then integer rows;
# w is the orbit length shared by all point and block orbits, 0 if mixed


def format_orbit_matrix_text(OM: OrbitMatrix) -> str:
    sizes = set(OM.point_orbit_sizes.tolist()) | set(OM.block_orbit_sizes.tolist())
    w = sizes.pop() if len(sizes) == 1 else 0
    head = "{} {} {} | {} | {}".format(
        OM.m, OM.n, w,
        " ".join(map(str, OM.block_orbit_sizes.tolist())),
        " ".join(map(str, OM.point_orbit_sizes.tolist())))
    rows = [" ".join(map(str, row)) for row in OM.entries.tolist()]
    return "\n".join([head] + rows) + "\n"
