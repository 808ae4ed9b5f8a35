"""1-designs: validation, parameters, intersection profiles, and
developments of base blocks under transitive group actions.

A 1-(v,k,r) design here is a point count and the read-only b x v 0/1
incidence matrix of an ordered block sequence: everything that counts on a
design reads that matrix, and its blocks (sorted point tuples) are read
back from it. A design is built from its blocks, or from a 2-D array of
equal-size blocks such as a set orbit, as one flat int64 array of points:
a sort within blocks only when one is out of order, the range and repeat
checks as array tests, one fancy-indexed store for the incidence. Blocks
may repeat; a repeated pair intersects in k points.
``validate`` returns (k, r) and ``parameters`` names the design
"1-(v,k,r)" from it; every printed design name comes from ``parameters``.
A design is immutable, so it keeps its (k, r) and one intersection profile
per p: ``validate`` and ``intersection_profile`` do their work once per
design, and a failed validation is never kept.
``from_group_action`` and ``wso_search`` develop an orbit union through
one routine, ``_develop``: the constructor on its set orbit, then validate.
``wso_search`` counts before it develops: the intersection numbers of the
stabilizer orbits give every union's intersection sizes with its images,
so only the unions with one residue mod p are developed, and each hit's
profile is checked against the counted one.
The four-residue profile (k mod p, common intersection residue) drives
every construction theorem downstream; it reduces the Gram mod p by floor
division (``fields._mod``) and tests the off-diagonal residues by min and
max, with the diagonal set to one pair's residue. Constant block sizes and
replication are min-max tests too; ``np.unique`` only builds an error
text, since its first call in a process imports ``numpy.ma``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .fields import _mod
from .groups import DEGREE_CAP, NotTransitive, PermGroup
from .records import SelfCheckFailed, _integers, format_records, read_records


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
# orbit unions whose intersection numbers wso_search counts in one product
UNION_CHUNK = 2 ** 11

# the most entries b * max(b, v) a design may hold: its b x v incidence and
# the b x b Gram of its intersection profile (1024 blocks on 1024 points)
INCIDENCE_CAP = 2 ** 20

# p = 2 case labels, keyed by (k mod 2, intersection mod 2)
CASE_NAMES = {
    (0, 0): "SO",
    (0, 1): "EvenK-OddInt",
    (1, 0): "OddK-EvenInt",
    (1, 1): "OddK-OddInt",
}


class Design:
    """Point count v and the read-only 0/1 int64 incidence matrix, b x v, of
    blocks given as point collections or as the rows of a 2-D integer array;
    blocks reads them back as sorted tuples."""

    def __init__(self, v: int, blocks):
        v = _integers(v, "point count")
        if v < 0:
            raise ValueError(f"negative point count {v}")
        if isinstance(blocks, np.ndarray) and blocks.ndim == 2:
            sizes = np.full(len(blocks), blocks.shape[1])
            points = _integers(blocks, "points").ravel()
        else:
            blocks = [tuple(blk) for blk in blocks]
            sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
            points = _points(blocks, v, int(sizes.sum()))
        b = len(blocks)
        block_of = np.repeat(np.arange(b), sizes)
        same = block_of[1:] == block_of[:-1]
        if (points[1:] < points[:-1])[same].any():
            points = points[np.lexsort((points, block_of))]
        # block_of is ascending, so the first hit of each test is its first block
        outside = block_of[(points < 0) | (points >= v)]
        repeats = block_of[1:][(points[1:] == points[:-1]) & same]
        if outside.size or repeats.size:
            i = min(outside[:1].tolist() + repeats[:1].tolist())
            t = tuple(sorted(map(int, blocks[i])))
            if outside.size and outside[0] == i:
                raise ValueError(f"block {t} outside point range [0,{v})")
            raise ValueError(f"block {t} repeats a point")
        if b * max(b, v) > INCIDENCE_CAP:
            raise ValueError(f"{b} blocks on {v} points: b * max(b, v) "
                             f"exceeds {INCIDENCE_CAP}")
        self.v = v
        self.incidence = np.zeros((b, v), dtype=np.int64)
        self.incidence[block_of, points] = 1
        self.incidence.setflags(write=False)
        # the design is immutable: validate's (k, r), one profile per p and
        # orbitmat.build's orbit matrix per tuple of group generators
        self._kr = None
        self._profiles = {}
        self._orbit_matrices = {}

    @cached_property
    def blocks(self) -> tuple:
        """Sorted tuples of Python ints, read back from the incidence once."""
        points = iter(np.nonzero(self.incidence)[1].tolist())
        return tuple(tuple(islice(points, k)) for k in self.incidence.sum(axis=1).tolist())

    @property
    def b(self) -> int:
        return self.incidence.shape[0]

    def __eq__(self, other):
        return (isinstance(other, Design) and self.v == other.v
                and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.v, self.blocks))

    def __repr__(self):
        try:
            return f"Design({parameters(self)}, b={self.b})"
        except ValueError:
            return f"Design(v={self.v}, b={self.b})"


def _points(blocks: list, v: int, count: int) -> np.ndarray:
    """Every point of every block, in order, as int64."""
    try:
        return _integers(chain.from_iterable(blocks), "points", count)
    except ValueError:
        # a point past int64 is outside [0, v) for every v below 2^63;
        # -1 stands for each outside point
        return _integers((x if 0 <= x < v else -1 for x in map(
            operator.index, chain.from_iterable(blocks))), "points", count)


def _block_size(D: Design) -> int:
    """The one block size of a design with blocks, from the row sums."""
    sizes = D.incidence.sum(axis=1)
    if sizes.min() != sizes.max():
        raise NonConstantBlockSize(f"block sizes {np.unique(sizes).tolist()}")
    return int(sizes[0])


def validate(D: Design) -> tuple:
    """Confirm constant block size and constant replication; return (k, r).
    The design keeps (k, r) after the first success; a failure raises on
    every call."""
    if D._kr is None:
        if not D.b:
            raise NotOneDesign("design has no blocks")
        k = _block_size(D)
        rs = D.incidence.sum(axis=0)
        if not rs.size or rs.min() != rs.max():
            raise NotOneDesign(f"replication counts {np.unique(rs).tolist()}")
        if rs[0] == 0:
            raise NotOneDesign("isolated points")
        D._kr = k, int(rs[0])
    return D._kr


def parameters(D: Design) -> str:
    """"1-(v,k,r)", from one validate call; raises as validate does."""
    k, r = validate(D)
    return f"1-({D.v},{k},{r})"


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
    count is at most v) and reduced as int64. p is at least 2. The design
    keeps the profile for each p.
    """
    if (p := _integers(p, "p")) < 2:
        raise ValueError(f"p={p} must be at least 2")
    if D.b < 2:
        raise ValueError("need at least two blocks for an intersection profile")
    if p in D._profiles:
        return D._profiles[p]
    k = _block_size(D)
    M = D.incidence.astype(np.float64)
    R = _mod((M @ M.T).astype(np.int64), p)
    # the diagonal holds k, not an intersection: give it one pair's residue
    np.fill_diagonal(R, R[0, 1])
    a = k % p
    if R.min() != R.max():
        prof = WSOProfile(p, a, None, None)
    else:
        d = int(R[0, 1])
        prof = WSOProfile(p, a, d, CASE_NAMES[(a, d)] if p == 2 else None)
    D._profiles[p] = prof
    return prof


# ---------------------------------------------------------------------------
# developments of orbit unions


def stabilizer_orbits(G: PermGroup, alpha: int) -> list:
    """Point orbits of the stabilizer G_alpha; orbit unions are indexed by
    positions in this list."""
    return G.stabilizer(alpha).point_orbits()


def _develop(G: PermGroup, orbits, orbit_choice) -> Design:
    """The validated development {Delta g} of Delta, the union of the chosen
    orbits; an index outside 0..len(orbits)-1 is a ValueError."""
    pts = set()
    for i in _integers(orbit_choice, "orbit indices", -1).tolist():
        if not 0 <= i < len(orbits):
            raise ValueError(
                f"orbit indices must lie in 0..{len(orbits) - 1}, got {i}")
        pts.update(orbits[i])
    if not pts:
        raise DeltaEmpty("empty base block")
    if len(pts) == G.degree:
        raise DeltaIsOmega("base block is the whole point set")
    D = Design(G.degree, G.set_orbit(tuple(sorted(pts))))
    validate(D)
    return D


def from_group_action(G: PermGroup, alpha: int, orbit_choice) -> Design:
    """Develop Delta = union of chosen stabilizer orbits into {Delta g}."""
    if not G.is_transitive():
        raise NotTransitive("construction needs a transitive action")
    return _develop(G, stabilizer_orbits(G, alpha), orbit_choice)


@dataclass(frozen=True)
class SearchHit:
    orbit_choice: tuple
    design: Design
    profile: WSOProfile


def wso_search(G: PermGroup, alpha: int, p: int = 2) -> list:
    """All proper nonempty orbit unions whose development has a constant
    intersection residue mod p, in ascending bitmask order.

    The unions are counted before any is developed. Let x_s be the least
    point of stabilizer orbit O_s and t_s a group element taking alpha to
    x_s; T[s, i, j] = |O_i ∩ O_j^{t_s}| are intersection numbers of the
    group's coherent configuration (Higman 1970). A union Delta with
    indicator m meets its image under t_s in lambda_s = m^T T[s] m points,
    and every pair of blocks of its development meets as Delta meets some
    Delta^{t_s}: t_s fixes Delta exactly when lambda_s = |Delta|, and the
    union is a hit when the other lambda_s agree mod p. The lambda_s of
    UNION_CHUNK unions at a time are one float64 product and one einsum,
    exact since every value is at most v. Only the hits are developed, and
    each developed profile must be the predicted (|Delta| mod p, residue).
    """
    if (p := _integers(p, "p")) < 2:
        raise ValueError(f"p={p} must be at least 2")
    if not G.is_transitive():
        raise NotTransitive("search needs a transitive action")
    orbits = stabilizer_orbits(G, alpha)
    r, n = len(orbits), G.degree
    if 2 ** r > MAX_ORBIT_COMBINATIONS:
        raise TooManyOrbitCombinations(
            f"2^{r} orbit unions exceed the cap {MAX_ORBIT_COMBINATIONS}")
    label = np.empty(n, dtype=np.int64)
    for i, orb in enumerate(orbits):
        label[list(orb)] = i
    # any t_s serves: two elements taking alpha to x_s differ by an element
    # of G_alpha, which fixes every O_j
    reps = G._transversal(alpha, [orb[0] for orb in orbits])
    # T[s, i, j] counts the y with label[t_s(y)] = i and label[y] = j;
    # laid out as [i, s * r + j] so that M @ T sums over i
    T = np.stack([np.bincount(label[t] * r + label, minlength=r * r) for t in reps])
    T = T.reshape(r, r, r).transpose(1, 0, 2).reshape(r, r * r).astype(np.float64)
    sizes = np.array([len(orb) for orb in orbits], dtype=np.float64)
    bits = 1 << np.arange(r)
    hits = []
    for start in range(1, 2 ** r - 1, UNION_CHUNK):
        masks = np.arange(start, min(start + UNION_CHUNK, 2 ** r - 1))
        M = ((masks[:, None] & bits) != 0).astype(np.float64)
        lam = np.einsum("nsj,nj->ns", (M @ T).reshape(-1, r, r), M).astype(np.int64)
        k = (M @ sizes).astype(np.int64)
        moved = lam != k[:, None]
        resid = lam % p
        lo = resid.min(axis=1, where=moved, initial=np.iinfo(np.int64).max)
        hi = resid.max(axis=1, where=moved, initial=-1)
        for u in np.flatnonzero(lo == hi).tolist():
            choice = tuple(np.flatnonzero(M[u]).tolist())
            D = _develop(G, orbits, choice)
            prof = intersection_profile(D, p)
            want = (int(k[u]) % p, int(lo[u]))
            if (prof.a, prof.d) != want:
                raise SelfCheckFailed(
                    f"orbit union {choice}: developed profile (a, d) = "
                    f"{(prof.a, prof.d)}, predicted {want}")
            hits.append(SearchHit(choice, D, prof))
    return hits


# ---------------------------------------------------------------------------
# serialization: header "v b", then b records of sorted point indices


def format_design_text(D: Design) -> str:
    return format_records([(D.v, D.b), *D.blocks])


def parse_design_text(text: str) -> Design:
    (v, b), lines = read_records(text, "v b")
    if v > DEGREE_CAP:
        raise ValueError(f"{v} points exceed {DEGREE_CAP}")
    if len(lines) != b:
        raise ValueError(f"expected {b} block rows, found {len(lines)}")
    return Design(v, [map(int, line.split()) for line in lines])
