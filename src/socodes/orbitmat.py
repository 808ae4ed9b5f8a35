"""Orbit matrices of 1-designs under automorphism subgroups.

The orbit matrix records a[s][j] = number of points of point orbit j on a
block of block orbit s. Every row of an orbit matrix sums to k, and a
double-counting identity ties the entries back to raw block intersections;
build checks that identity before it returns, so every orbit matrix is a
certificate, not an assumption.

build reads only the incidence, and a design keeps the orbit matrix it
built for each tuple of generators. Each generator's block action comes from
the incidence's columns gathered by its inverse, packed to bytes and
matched to the design's packed rows by stable sorts, so the c-th copy of a
repeated block goes to the c-th copy of its image. The counts, their
constancy on each block orbit and the certificate are float64 products
with orbit-indicator matrices, exact because every value is at most
b * k <= INCIDENCE_CAP.

OrbitMatrix.w is the one rule for the common orbit length: the length every
point and block orbit shares, else 0. fixed_split checks that a group's
orbit lengths lie in {1, p^alpha} and returns two corners of the orbit
matrix: OM1 (fixed blocks x fixed points) and OM2 (moving blocks x moving
point orbits); their shapes are the counts f2 x f1 and m x n. The text
format writes an orbit matrix with its orbit lengths and w for the CLI.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .designs import Design, validate
from .groups import Perm, PermGroup
from .records import SelfCheckFailed, _integers, format_records


class NotAnAutomorphismGroup(ValueError):
    pass


class IllDefinedEntry(SelfCheckFailed):
    """Orbit counts disagree inside one block orbit or fail the double count.
    Impossible for a true automorphism group; internal inconsistency only."""


class BadOrbitProfile(ValueError):
    pass


def _orbit_sort_key(orb):
    # fixed orbits first, then by least element
    return (len(orb) > 1, orb[0])


class OrbitMatrix:
    """Integer matrix a[s][j] = |rep-block-of-orbit-s ∩ point-orbit-j|."""

    __slots__ = ("entries", "point_orbits", "block_orbits")

    def __init__(self, entries, point_orbits, block_orbits):
        self.entries = np.array(entries, dtype=np.int64)
        self.entries.setflags(write=False)
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

    @property
    def w(self) -> int:
        """The length every point and block orbit shares, else 0."""
        sizes = {len(o) for o in self.point_orbits + self.block_orbits}
        return sizes.pop() if len(sizes) == 1 else 0

    def __repr__(self):
        return f"OrbitMatrix(m={self.m}, n={self.n})"


def _block_action(D: Design, H: PermGroup) -> list:
    """One int array per generator of H: block i goes to block images[i].

    The image of each block is its incidence row gathered by the
    generator's inverse; the rows are packed to bytes and each image is
    looked up among the design's packed rows by sorting both stably, so the
    c-th copy of a repeated block goes to the c-th copy of its image.
    Raises NotAnAutomorphismGroup naming the first generator with an image
    that is not a block, or not one with as many copies.
    """
    M = D.incidence != 0
    rows = np.packbits(M, axis=1)
    order = np.lexsort(rows.T[::-1])
    out = []
    for g in H.generators:
        images = np.packbits(M[:, np.argsort(g.images)], axis=1)
        image_order = np.lexsort(images.T[::-1])
        if not np.array_equal(images[image_order], rows[order]):
            raise NotAnAutomorphismGroup(
                f"generator {g!r} does not map blocks to blocks")
        perm = np.empty(D.b, dtype=np.int64)
        perm[image_order] = order
        out.append(perm)
    return out


def _indicator(orbits, size: int) -> np.ndarray:
    """The float64 0/1 matrix, len(orbits) x size, of orbit membership."""
    Q = np.zeros((len(orbits), size))
    Q[np.repeat(np.arange(len(orbits)), [len(orb) for orb in orbits]),
      list(chain.from_iterable(orbits))] = 1
    return Q


def build(D: Design, H: PermGroup) -> OrbitMatrix:
    """Orbit matrix of D under H. H must act on D's points and map blocks
    to blocks (checked per generator); orbits are sorted fixed-first, then
    by least element. The design keeps the orbit matrix of each generator
    tuple it was built for, so a second call returns the same object."""
    validate(D)
    if H.degree != D.v:
        raise NotAnAutomorphismGroup(
            f"group degree {H.degree} != point count {D.v}")
    if (OM := D._orbit_matrices.get(H.generators)) is not None:
        return OM
    block_group = PermGroup(D.b, [Perm(p.tolist()) for p in _block_action(D, H)])
    point_orbits = sorted(H.point_orbits(), key=_orbit_sort_key)
    block_orbits = sorted(block_group.point_orbits(), key=_orbit_sort_key)

    # float64 products are exact: every count is at most b * k <= 2^20
    M = D.incidence.astype(np.float64)
    counts = M @ _indicator(point_orbits, D.v).T  # per-block orbit counts, b x n
    entries = counts[[orb[0] for orb in block_orbits]]
    Q = _indicator(block_orbits, D.b)
    bad = (Q.T @ entries != counts).any(axis=1)
    if bad.any():
        raise IllDefinedEntry(
            f"block orbit {(Q @ bad).argmax()} has non-constant point-orbit counts")
    OM = OrbitMatrix(entries, point_orbits, block_orbits)
    _certify(M, OM)
    D._orbit_matrices[H.generators] = OM
    return OM


def _certify(M: np.ndarray, OM: OrbitMatrix) -> None:
    """Raise IllDefinedEntry unless sum_j (b_t/v_j) a[s][j] a[t][j] = sum
    over the blocks x' of orbit t of |x ∩ x'|, x the rep of s, for all (s,t).
    On the incidence M (values at most b*k, exact in float64):
    r[t][j] = b_t a[t][j] / v_j, the blocks of orbit t through a point of
    orbit j, must be integral; then a r^T = M[reps] S^T, S = Q M the
    block-orbit sums of M's rows, Q the block-orbit indicator."""
    M = np.asarray(M, dtype=np.float64)
    S = _indicator(OM.block_orbits, len(M)) @ M
    num, sizes = OM.block_orbit_sizes[:, None] * OM.entries, OM.point_orbit_sizes
    r, rem = np.divmod(num, sizes)
    if rem.any():
        t, j = np.argwhere(rem)[0]
        raise IllDefinedEntry(
            f"replication b_t*a[t][j]/v_j = {num[t, j]}/{sizes[j]} is not "
            f"an integer at ({t},{j})")
    lhs = (OM.entries.astype(np.float64) @ r.T).astype(np.int64)
    rhs = (M[[orb[0] for orb in OM.block_orbits]] @ S.T).astype(np.int64)
    if (lhs != rhs).any():
        s, t = np.argwhere(lhs != rhs)[0]
        raise IllDefinedEntry(
            f"count identity fails at block orbit pair ({s},{t}): "
            f"{lhs[s, t]} != {rhs[s, t]}")


def fixed_split(D: Design, H: PermGroup, p: int, alpha: int) -> tuple:
    """(OM1, OM2): the fixed-by-fixed and moving-by-moving corners of the
    orbit matrix of an action whose point and block orbits all have length
    1 or p^alpha, p at least 2 and alpha at least 1; fixed orbits sort
    first, so OM1 leads and OM2 trails."""
    if (p := _integers(p, "p")) < 2:
        raise ValueError(f"p={p} must be at least 2")
    if (alpha := _integers(alpha, "alpha")) < 1:
        raise ValueError(f"alpha={alpha} must be at least 1")
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
    return OM.entries[:f2, :f1], OM.entries[f2:, f1:]


# ---------------------------------------------------------------------------
# text format: header "m n w | b-sizes | v-sizes", then integer rows;
# w is the orbit length shared by all point and block orbits, 0 if mixed


def format_orbit_matrix_text(OM: OrbitMatrix) -> str:
    return format_records([(OM.m, OM.n, OM.w, "|", *OM.block_orbit_sizes.tolist(),
                             "|", *OM.point_orbit_sizes.tolist()),
                           *OM.entries.tolist()])
