"""Finite permutation groups given by generators.

Point and set orbits, a stabilizer chain, element enumeration, stabilizers,
derived actions, and elements of a given order. Three routines carry
everything:

- ``_closure``, one breadth-first search over the generators, gives a
  point orbit, the orbit lengths the chain checks against its cap, and the
  coset representatives, from the generators alone. Set orbits, the one
  search whose objects are large, run the same search in numpy instead
  (``PermGroup.set_orbit``): each layer is a 0/1 array of sets, and its
  images under every generator are one gather.
- ``_schreier_sims``, incremental Schreier-Sims, gives a base and, per
  level, strong generators and one representative per orbit point. The
  order is the product of the orbit lengths, membership is sifting, a point
  stabilizer is generated by the first level of a chain whose base starts
  at that point, and the elements are the products of the transversals,
  built level by level in numpy (every group in scope has order <= 7920,
  and DEFAULT_CAP is checked before any transversal is made).
- ``PermGroup.induced(objects, act)`` gives the generators acting on the
  positions of a list of objects they permute: the action on k-subsets, and
  that of an automorphism group on a design's blocks (``orbitmat``).

Only ``enumerate``, ``element_of_order`` and ``squares_subgroup`` list
elements; orbits, order, membership, stabilizers and coset labels read a chain.

Points are 0-based everywhere internally; the group file format uses the
1-based convention of the literature and is converted at the I/O boundary.
All orderings (elements, orbits, cosets, set orbits) are deterministic so
that every downstream matrix is byte-reproducible.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb, lcm, prod

import numpy as np

from .records import _integers, format_records, read_records


class OrderExceedsCap(RuntimeError):
    pass


class DegreeTooLarge(ValueError):
    pass


class NotASubgroup(ValueError):
    pass


class IndexTooLarge(ValueError):
    pass


class NotTransitive(ValueError):
    pass


class NotInvariant(ValueError):
    """A generator maps one of the objects of an induced action to
    something outside the list; ``generator`` is the first such one."""

    def __init__(self, generator: "Perm"):
        super().__init__(f"generator {generator!r} maps an object outside the list")
        self.generator = generator


DEFAULT_CAP = 10 ** 6
KSUBSET_CAP = 10 ** 5
INDEX_CAP = 10 ** 4
# the largest degree a group file may declare, and the most points a design
# file may: every k-subset or coset action the caps above allow reads back
DEGREE_CAP = KSUBSET_CAP


class Perm:
    """A permutation of {0..n-1}; images[i] is the integer image of i.

    Composition is the right action: (g * h)(i) = h(g(i)), matching the
    "first apply g, then h" convention of block developments.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(_integers(images, "images", -1).tolist())
        if sorted(images) != list(range(len(images))):
            raise ValueError("images is not a bijection")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        images = list(range(n))
        for cyc in [_integers(cyc, "images", -1).tolist() for cyc in cycles]:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 0 <= a < n:
                    raise ValueError(f"point {a} is not within 0..{n - 1}")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        # a composition of two bijections of equal degree is a bijection,
        # so the constructor's check is skipped
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return _perm(_mul(self.images, other.images))

    def apply_set(self, points) -> tuple:
        return tuple(sorted(self.images[p] for p in points))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Sorted (length, count) pairs including fixed points."""
        counts = Counter(map(len, self.cycles()))
        fixed = len(self.fixed_points())
        if fixed:
            counts[1] = fixed
        return tuple(sorted(counts.items()))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def fixed_points(self) -> tuple:
        return tuple(i for i, x in enumerate(self.images) if i == x)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id/{self.degree})"
        return "Perm" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def _closure(start, gens, act) -> set:
    """Everything reached from start by repeated x -> act(x, g), g in gens,
    breadth-first."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _perm(images: tuple) -> Perm:
    """A Perm of images already known to be a bijection, unchecked."""
    g = Perm.__new__(Perm)
    g.images = images
    return g


def _mul(g: tuple, h: tuple) -> tuple:
    return tuple([h[x] for x in g])


def _inv(g: tuple) -> tuple:
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def _schreier_sims(n: int, gens, base=()) -> list:
    """Stabilizer chain of the group the image tuples gens generate, by
    incremental Schreier-Sims (Sims 1970; Seress 2003, ch. 4).

    Level i is (b_i, S_i, U_i): S_i generates G_i, the pointwise stabilizer
    of b_0..b_{i-1}, and U_i maps each point x of the orbit of b_i under G_i
    to one u in G_i with b_i^u = x. Every element is one product
    u_{k-1}...u_1 u_0, one u_i from each U_i, so the order is the product of
    the |U_i|. The base starts with the points of base, then takes the first
    point the next new level's generator moves.

    add(i, g) puts g in S_i, rebuilds U_i, and sends every Schreier
    generator u s (u')^-1 of level i, u' the representative of x^s, that
    does not sift through the deeper levels to add(i + 1, residue). When
    u s = u', as on every edge of U_i's BFS tree, that generator is the
    identity and is skipped unsifted. The product of the orbit lengths is a
    lower bound on the order, so OrderExceedsCap is raised as soon as it
    passes DEFAULT_CAP, before that orbit's transversal is made.
    """
    cap = DEFAULT_CAP
    ident = tuple(range(n))
    levels = []

    def add(i, g):
        if i == len(levels):
            b = base[i] if i < len(base) else next(x for x in range(n) if g[x] != x)
            levels.append((b, [], {}))
        b, S, _ = levels[i]
        S.append(g)
        others = prod(len(U) for j, (_, _, U) in enumerate(levels) if j != i)
        if others * len(_closure(b, S, lambda x, s: s[x])) > cap:
            raise OrderExceedsCap(f"group order exceeds cap {cap}")
        U = {b: ident}
        queue = [b]
        for x in queue:
            for s in S:
                y = s[x]
                if y not in U:
                    U[y] = _mul(U[x], s)
                    queue.append(y)
        levels[i] = (b, S, U)
        for x, u in U.items():
            for s in S:
                us, v = _mul(u, s), U[s[x]]
                if us == v:
                    continue
                h, _ = _sift(levels, _mul(us, _inv(v)), i + 1)
                if h != ident:
                    add(i + 1, h)

    for g in dict.fromkeys(gens):
        if g != ident:
            add(0, g)
    if prod(len(U) for _, _, U in levels) > cap:
        # the trivial group, against a cap of 0
        raise OrderExceedsCap(f"group order exceeds cap {cap}")
    return levels


def _sift(levels, g: tuple, start: int = 0):
    """(residue, level): g divided by transversal elements from level start
    on, stopping at the first level whose orbit misses the base image. g is
    in the group iff the residue is the identity with level len(levels)."""
    for i in range(start, len(levels)):
        b, _, U = levels[i]
        x = g[b]
        if x not in U:
            return g, i
        g = _mul(g, _inv(U[x]))
    return g, len(levels)


def _element_rows(n: int, levels) -> np.ndarray:
    """All products of the transversals, one row of images per element,
    sorted lexicographically.

    Rows take the smallest unsigned type that holds n - 1, one byte per
    image up to degree 256, so that listing the elements costs little more
    memory than the Perm objects it makes. The sort keys are the shortest
    column prefix that tells every row apart: the first p columns do so
    exactly when no row but the identity fixes points 0..p-1.
    """
    dtype = np.min_scalar_type(max(n - 1, 0))
    rows = np.arange(n, dtype=dtype)[None, :]
    for _, _, U in reversed(levels):
        # rows of G_{i+1} times U_i: (r u)[x] = u[r[x]]
        rows = np.array(list(U.values()), dtype=dtype)[:, rows].reshape(-1, n)
    fixes, p = np.ones(len(rows), dtype=bool), 0
    while np.count_nonzero(fixes) > 1:
        fixes &= rows[:, p] == p
        p += 1
    if p:
        rows = rows[np.lexsort(rows[:, :p].T[::-1])]
    return rows


class PermGroup:
    """Group generated by a list of permutations of common degree."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        gens = tuple(g if isinstance(g, Perm) else Perm(g) for g in generators)
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        self.generators = gens
        self._elements = None
        self._chain = None

    # -- enumeration --------------------------------------------------------

    def _stabilizer_chain(self, point: int = 0) -> list:
        """A ``_schreier_sims`` chain whose base starts at point; the one
        for point 0 is built once and kept."""
        if point == 0 and self._chain is not None:
            return self._chain
        chain = _schreier_sims(self.degree, [g.images for g in self.generators], (point,))
        if point == 0:
            self._chain = chain
        return chain

    def enumerate(self) -> tuple:
        """Every element, sorted by image tuple, listed as the products of
        the chain's transversals.

        Raises OrderExceedsCap above DEFAULT_CAP elements."""
        if self._elements is None:
            rows = _element_rows(self.degree, self._stabilizer_chain())
            # 512 rows at a time: a whole-array tolist() would hold a second
            # copy of every image as a Python list while the Perms are made
            self._elements = tuple(_perm(tuple(images))
                                   for start in range(0, len(rows), 512)
                                   for images in rows[start:start + 512].tolist())
        return self._elements

    @property
    def elements(self) -> tuple:
        return self.enumerate()

    @property
    def order(self) -> int:
        """The number of elements, the product of the chain's orbit lengths;
        like ``stabilizer``, it lists no element.

        Raises OrderExceedsCap above DEFAULT_CAP."""
        return prod(len(U) for _, _, U in self._stabilizer_chain())

    def __contains__(self, g: Perm) -> bool:
        """Membership by sifting through the chain; a permutation of
        another degree is not a member."""
        if g.degree != self.degree:
            return False
        levels = self._stabilizer_chain()
        h, i = _sift(levels, g.images)
        return i == len(levels) and h == tuple(range(self.degree))

    # -- orbits and stabilizers --------------------------------------------

    def orbit_of(self, point: int) -> tuple:
        return tuple(sorted(_closure(point, self.generators,
                                     lambda x, g: g.images[x])))

    def point_orbits(self) -> list:
        done = set()
        orbits = []
        for x in range(self.degree):
            if x in done:
                continue
            orb = self.orbit_of(x)
            done.update(orb)
            orbits.append(orb)
        return orbits

    def is_transitive(self) -> bool:
        return len(self.orbit_of(0)) == self.degree if self.degree else True

    def stabilizer(self, point: int) -> "PermGroup":
        """G_point, generated by level 1 of a stabilizer chain whose base
        starts at point: the kept chain for point 0, a new one otherwise.
        Nothing is listed (only ``enumerate``, ``element_of_order`` and
        ``squares_subgroup`` list elements)."""
        levels = self._stabilizer_chain(point)
        strong = levels[1][1] if len(levels) > 1 else []
        return PermGroup(self.degree, map(_perm, strong))

    def set_orbit(self, delta) -> list:
        """Distinct images of the set delta of integer points under the group,
        as a sorted list of sorted tuples, found from the generators alone.

        A breadth-first search by layers on 0/1 indicator rows: the image
        of a set under g is its row gathered by g's inverse, one gather for
        the whole frontier and every generator; a row is new unless its
        packed bytes were seen. The orbit is sorted by one lexsort of its
        rows' point indices.
        """
        n = self.degree
        points = _integers(delta, "points", -1)
        if not points.size:
            return [()]
        if not 0 <= points.min() <= points.max() < n:
            raise ValueError(f"set {sorted(points.tolist())} is not within 0..{n - 1}")
        start = np.zeros((1, n), dtype=bool)
        start[0, points] = True
        gens = self.generators
        inverses = np.argsort(np.reshape([g.images for g in gens], (len(gens), n)))
        seen = {np.packbits(start).tobytes()}
        layers = [start]
        while len(layers[-1]):
            images = layers[-1][:, inverses].reshape(-1, n)
            fresh = []
            for i, key in enumerate(map(bytes, np.packbits(images, axis=1))):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            layers.append(images[fresh])
        sets = np.nonzero(np.concatenate(layers))[1].reshape(-1, np.count_nonzero(start))
        return list(map(tuple, sets[np.lexsort(sets.T[::-1])].tolist()))

    # -- derived actions ----------------------------------------------------

    def induced(self, objects, act) -> "PermGroup":
        """Action of the generators on the positions of objects, where
        act(g, x) is the image of x under g.

        The copies of a repeated object go to the copies of its image in
        index order. Raises NotInvariant naming the first generator that
        maps an object outside the list (or onto more copies than it has).
        """
        objects = list(objects)
        slots: dict = {}
        for i, x in enumerate(objects):
            slots.setdefault(x, []).append(i)
        gens = []
        exhausted = iter(())
        for g in self.generators:
            # each object's queue hands out its copies in index order; None
            # marks an image that is not in the list or has no copy left
            queues = {x: iter(idxs) for x, idxs in slots.items()}
            images = [next(queues.get(act(g, x), exhausted), None) for x in objects]
            if None in images:
                raise NotInvariant(g)
            gens.append(Perm(images))
        return PermGroup(len(objects), gens)

    def action_on_ksubsets(self, k: int) -> "PermGroup":
        """Action on the sorted list of all k-subsets of the points."""
        n = self.degree
        if not 0 <= k <= n:
            # no k-subsets at all: the action would have degree 0
            raise ValueError(f"subset size {k} outside 0..{n}")
        if comb(n, k) > KSUBSET_CAP:
            raise DegreeTooLarge(f"C({n},{k}) exceeds {KSUBSET_CAP}")
        return self.induced(combinations(range(n), k), Perm.apply_set)

    def coset_action(self, H: "PermGroup") -> "PermGroup":
        """Action of this group on right cosets of H, degree [G:H].

        Cosets are numbered by their lexicographically least element, sorted.
        That of Hg is one descent of the chain of H built below: each level
        sends the product p to the u p that puts its base point lowest.
        """
        if H.degree != self.degree or any(h not in self for h in H.generators):
            raise NotASubgroup("H is not contained in G")
        levels, hgens = [], [h.images for h in H.generators if h.cycles()]
        while hgens:
            # b is the least point H_i moves, so H_i fixes every point below b
            b = min(next(x for x, y in enumerate(h) if x != y) for h in hgens)
            chain = _schreier_sims(self.degree, hgens, (b,))
            levels.append(chain[0])
            hgens = chain[1][1] if len(chain) > 1 else []
        if (index := self.order // prod(len(U) for _, _, U in levels)) > INDEX_CAP:
            raise IndexTooLarge(f"index {index} exceeds {INDEX_CAP}")
        images = {}

        def canon(rep: tuple, s: Perm) -> tuple:
            p = _mul(rep, s.images)
            for _, _, U in levels:
                p = _mul(U[min(U, key=p.__getitem__)], p)
            return images.setdefault((rep, s), p)

        reps = sorted(_closure(tuple(range(self.degree)), self.generators, canon))
        number = {rep: i for i, rep in enumerate(reps)}
        return PermGroup(len(reps), [Perm([number[images[rep, s]] for rep in reps])
                                     for s in self.generators])

    def element_of_order(self, t: int):
        """First element of order t in sorted element order, or None."""
        for g in self.elements:
            if g.order() == t:
                return g
        return None

    def squares_subgroup(self) -> "PermGroup":
        """Subgroup generated by the squares of all elements.

        A square joins the generators only if those kept so far do not
        already generate it.

        For a group with a unique subgroup of index 2 this is that subgroup
        (squares die in any C2 quotient, and what they generate is normal).
        """
        gens, generated = [], PermGroup(self.degree, [])
        for s in sorted({g * g for g in self.elements}):
            if s not in generated:
                gens.append(s)
                generated = PermGroup(self.degree, gens)
        return generated

    def __repr__(self):
        n = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)}, order={n})"


# ---------------------------------------------------------------------------
# group file format (record syntax in ``records``): header "degree n"
# (n >= 1), then one generator per record, either 1-based cycle notation
# "(1,2,3)(4,5)" ("()" is the identity) or "img: i1 i2 ... in"
# ---------------------------------------------------------------------------

def _parse_cycles(line: str, degree: int) -> Perm:
    body = line.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle line: {line!r}")
    if not body[1:-1].strip():
        return Perm.identity(degree)
    cycles = []
    for chunk in body[1:-1].split(")("):
        pts = [int(t) - 1 for t in chunk.replace(",", " ").split()]
        if not pts:
            raise ValueError(f"empty cycle in {line!r}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"cycle repeats a point in {line!r}")
        if any(not 0 <= p < degree for p in pts):
            raise ValueError(f"point out of range in {line!r}")
        cycles.append(tuple(pts))
    return Perm.from_cycles(degree, cycles)


def parse_group_text(text: str) -> PermGroup:
    (degree,), lines = read_records(text, "n", keyword="degree")
    if degree < 1:
        raise ValueError(f"degree {degree} is below 1")
    if degree > DEGREE_CAP:
        raise DegreeTooLarge(f"degree {degree} exceeds {DEGREE_CAP}")
    return PermGroup(degree, [
        Perm(int(t) - 1 for t in line[4:].split()) if line.startswith("img:")
        else _parse_cycles(line, degree) for line in lines])


def format_group_text(G: PermGroup, comment: str = "") -> str:
    head = [(f"# {line}",) for line in comment.splitlines()]
    return format_records(head + [("degree", G.degree)]
                          + [("img:", *(i + 1 for i in g.images)) for g in G.generators])
