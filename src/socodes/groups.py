"""Finite permutation groups given by generators.

Point and set orbits, a stabilizer chain, element enumeration, stabilizers,
derived actions, and elements of a given order. Three routines carry
everything:

- ``_closure``, one breadth-first search over the generators, gives a
  point orbit and the coset representatives, from the generators alone;
  ``point_orbits`` runs the same search as one pass over all the points,
  on their images in the generators' tuples. Set orbits, the one search
  whose objects are large, run the same search in numpy instead
  (``PermGroup.set_orbit``): each layer is a 0/1 array of sets, its
  images under every generator are one gather, and the orbit is a point
  array, one ascending row per set, as ``Design`` takes it. The sets of
  one orbit have one size, so their ascending point tuples sort in the
  reverse order of their packed big-endian indicator bytes, the keys the
  search already keeps: the orbit's order is one sort of those keys.
  ``_transversal`` runs it once from a point with a Schreier vector and
  multiplies out only the elements that reach the points asked for.
- ``_schreier_sims``, incremental Schreier-Sims, gives a base and, per
  level, strong generators and one representative per orbit point. A group
  keeps one chain, based at each level at the least point it moves: the
  order is the product of its orbit lengths, membership is sifting, coset
  labels descend it once, and the elements are the transversal products,
  built in numpy. Level 1 gives point stabilizers, other points relabelled.
- ``PermGroup.induced(objects, act)`` gives the generators acting on the
  positions of a list of distinct objects they permute: the action on
  k-subsets.

Only ``enumerate`` and ``element_of_order`` list elements; orbits, order,
membership, stabilizers, coset labels and the derived subgroup read a chain.
The listing is one sorted array of images, order x degree bytes up to
degree 256, and a ``Perm`` is made only for an element that is read.
``element_of_order`` walks each row's cycles only until one has a length
that does not divide the order asked for.

Points are 0-based everywhere internally; the group file format uses the
1-based convention of the literature and is converted at the I/O boundary.
All orderings (elements, orbits, cosets, set orbits) are deterministic so
that every downstream matrix is byte-reproducible.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
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


def _point(n: int, x) -> int:
    """x as an int within 0..n-1: ValueError outside, TypeError for a non-integer."""
    if not 0 <= (x := operator.index(x)) < n:
        raise ValueError(f"point {x} is not within 0..{n - 1}")
    return x


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
                images[_point(n, a)] = b
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


def _transversal(n: int, gens, alpha: int, targets) -> np.ndarray:
    """One element per target x that maps alpha to x, as a row of images.

    One breadth-first search from alpha over the image tuples gens keeps a
    Schreier vector: the parent point and generator index of each point
    reached. Only the targets' elements are multiplied out, each along its
    path back to alpha; every target must lie in alpha's orbit.
    """
    parent, via = {alpha: alpha}, {}
    frontier = [alpha]
    while frontier:
        new = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = g[x]
                if y not in parent:
                    parent[y], via[y] = x, i
                    new.append(y)
        frontier = new
    table = np.array(gens, dtype=np.int64).reshape(len(gens), n)
    out = np.empty((len(targets), n), dtype=np.int64)
    for row, x in zip(out, targets):
        path = []
        while x != alpha:
            path.append(via[x])
            x = parent[x]
        t = np.arange(n)
        for i in reversed(path):
            # first t, then the generator: (t g)[y] = g[t[y]]
            t = table[i][t]
        row[:] = t
    return out


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


def _has_order(g: tuple, t: int) -> bool:
    """Whether the permutation g has order t, the lcm of its cycle lengths;
    the scan stops at the first cycle whose length does not divide t."""
    seen = bytearray(len(g))
    order = 1
    for start in range(len(g)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = g[x]
            length += 1
        if t % length:
            return False
        order = lcm(order, length)
    return order == t


def _least_moved(n: int, gens) -> int:
    return next(x for x in range(n) if any(g[x] != x for g in gens))


def _schreier_sims(n: int, gens) -> list:
    """Stabilizer chain of the group the image tuples gens generate, by
    incremental Schreier-Sims (Sims 1970; Seress 2003, ch. 4).

    Level i is (b_i, S_i, U_i): S_i generates G_i, the pointwise stabilizer
    of b_0..b_{i-1}, and U_i maps each point x of the orbit of b_i under G_i
    to one u in G_i with b_i^u = x. Every element is one product
    u_{k-1}...u_1 u_0, one u_i from each U_i, so the order is the product of
    the |U_i|. Each b_i is the least point G_i moves, so the b_i increase,
    every orbit has 2 points or more and the recursion is at most
    1 + log2(DEFAULT_CAP) levels deep.

    add(i, g) opens a new level i at b, the least point g moves, if there is
    no level i or b < b_i; it starts with the old S_i, whose level fixes b
    and so stays a level of a subgroup of the new G_{i+1}. Then g joins S_i,
    U_i is rebuilt, and every Schreier generator u s (u')^-1 of level i, u'
    the representative of x^s, that does not sift through the deeper levels
    goes to add(i + 1, residue); when u s = u', as on every edge of U_i's
    BFS tree, it is the identity and is skipped unsifted. The product of the
    orbit lengths is a lower bound on the order, so U_i's search raises
    OrderExceedsCap before the representative that takes it past
    DEFAULT_CAP is made.
    """
    cap = DEFAULT_CAP
    ident = tuple(range(n))
    levels = []

    def add(i, g):
        b = _least_moved(n, [g])
        if i == len(levels) or b < levels[i][0]:
            levels.insert(i, (b, list(levels[i][1]) if i < len(levels) else [], {}))
        b, S, _ = levels[i]
        S.append(g)
        others = prod(len(U) for j, (_, _, U) in enumerate(levels) if j != i)
        U = {b: ident}
        queue = [b]
        for x in queue:
            for s in S:
                y = s[x]
                if y not in U:
                    if others * (len(U) + 1) > cap:
                        raise OrderExceedsCap(f"group order exceeds cap {cap}")
                    U[y] = _mul(U[x], s)
                    queue.append(y)
        levels[i] = (b, S, U)
        for x, u in U.items():
            for s in S:
                us, v = _mul(u, s), U[s[x]]
                if us == v:
                    continue
                h = _sift(levels, _mul(us, _inv(v)), i + 1)
                if h != ident:
                    add(i + 1, h)

    for g in dict.fromkeys(gens):
        if g != ident:
            add(0, g)
    if prod(len(U) for _, _, U in levels) > cap:
        # the trivial group, against a cap of 0
        raise OrderExceedsCap(f"group order exceeds cap {cap}")
    return levels


def _sift(levels, g: tuple, start: int = 0) -> tuple:
    """The residue of g divided by transversal elements from level start on,
    stopping at the first level whose orbit misses the base image (which g
    then moves); g is in the group iff the residue is the identity."""
    for i in range(start, len(levels)):
        b, _, U = levels[i]
        x = g[b]
        if x not in U:
            return g
        g = _mul(g, _inv(U[x]))
    return g


def _element_rows(n: int, levels) -> np.ndarray:
    """All products of the transversals, one row of images per element,
    sorted lexicographically.

    This array is the listing ``enumerate`` keeps. Rows take the smallest
    unsigned type that holds n - 1, one byte per image up to degree 256,
    so the listing costs order x degree bytes. On a kept chain, columns
    0..b of its last base point b tell every row apart, and no fewer do
    (the last level fixes every point below b), so they are the sort keys.
    """
    dtype = np.min_scalar_type(max(n - 1, 0))
    rows = np.arange(n, dtype=dtype)[None, :]
    for _, _, U in reversed(levels):
        # rows of G_{i+1} times U_i: (r u)[x] = u[r[x]]
        rows = np.array(list(U.values()), dtype=dtype)[:, rows].reshape(-1, n)
    if levels:
        rows = rows[np.lexsort(rows[:, :levels[-1][0] + 1].T[::-1])]
    return rows


def _row_lists(rows: np.ndarray, size: int):
    """The rows of a 2-D array as lists of Python ints, converted size rows
    at a time, so that no second copy of the whole array is held."""
    for start in range(0, len(rows), size):
        yield from rows[start:start + size].tolist()


class _Elements(Sequence):
    """A group's elements, read-only, over the sorted array of image rows
    ``_element_rows`` builds; an element becomes a Perm when it is read."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i) -> Perm:
        # numpy raises the IndexError past either end
        return _perm(tuple(self.rows[operator.index(i)].tolist()))

    def __iter__(self):
        # 512 rows at a time: a whole-array tolist() would hold a second
        # copy of every image as a Python list while the Perms are made
        return (_perm(tuple(images)) for images in _row_lists(self.rows, 512))


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

    def _stabilizer_chain(self) -> list:
        """The one chain a group keeps, built by one ``_schreier_sims`` pass:
        each base point is the least point its level moves."""
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, [g.images for g in self.generators])
        return self._chain

    def enumerate(self) -> Sequence:
        """Every element, sorted by image tuple: the products of the kept
        chain's transversals, kept as one array of order x degree bytes (up
        to degree 256). The same read-only sequence is returned on every
        call; each Perm is made when it is read. Raises OrderExceedsCap
        above DEFAULT_CAP before anything is listed."""
        if self._elements is None:
            self._elements = _Elements(_element_rows(self.degree, self._stabilizer_chain()))
        return self._elements

    @property
    def order(self) -> int:
        """The product of the kept chain's orbit lengths; nothing is listed.
        Raises OrderExceedsCap above DEFAULT_CAP."""
        return prod(len(U) for _, _, U in self._stabilizer_chain())

    def __contains__(self, g: Perm) -> bool:
        """Membership by sifting through the chain; a permutation of
        another degree is not a member."""
        return (g.degree == self.degree
                and _sift(self._stabilizer_chain(), g.images) == tuple(range(self.degree)))

    # -- orbits and stabilizers --------------------------------------------

    def orbit_of(self, point: int) -> tuple:
        return tuple(sorted(_closure(_point(self.degree, point), self.generators,
                                     lambda x, g: g.images[x])))

    def point_orbits(self) -> list:
        """Sorted point tuples of every orbit, ordered by least point: one
        breadth-first pass over all points."""
        gens = [g.images for g in self.generators]
        seen = bytearray(self.degree)
        orbits = []
        for x in range(self.degree):
            if seen[x]:
                continue
            seen[x] = 1
            orb = [x]
            for y in orb:
                for g in gens:
                    if not seen[z := g[y]]:
                        seen[z] = 1
                        orb.append(z)
            orbits.append(tuple(sorted(orb)))
        return orbits

    def is_transitive(self) -> bool:
        return len(self.orbit_of(0)) == self.degree if self.degree else True

    def stabilizer(self, point: int) -> "PermGroup":
        """G_point without listing: level 1 of the kept chain for b_0, the
        least point the group moves; for any other moved point, the same for
        the group relabelled by the transposition (0 point), relabelled
        back; for a fixed point, the group itself. A point outside
        0..degree-1 is a ValueError, a non-integer a TypeError."""
        n, point = self.degree, _point(self.degree, point)
        if all(g.images[point] == point for g in self.generators):
            return self
        if point > _least_moved(n, [g.images for g in self.generators]):
            t = Perm.from_cycles(n, [(0, point)])
            G0 = PermGroup(n, [t * g * t for g in self.generators]).stabilizer(0)
            return PermGroup(n, [t * h * t for h in G0.generators])
        levels = self._stabilizer_chain()
        return PermGroup(n, map(_perm, levels[1][1] if len(levels) > 1 else []))

    def set_orbit(self, delta) -> np.ndarray:
        """Distinct images of the set delta of integer points under the group,
        found from the generators alone, as an int64 array: one ascending row
        per image, rows in lexicographic order; the empty set gives [[]].

        A breadth-first search by layers on 0/1 indicator rows: the image
        of a set under g is its row gathered by g's inverse, one gather for
        the whole frontier and every generator; a row is new unless its
        packed bytes, a slice of the layer's one ``packbits``, were seen.

        Every set of the orbit has |delta| points, so sorting by the packed
        keys, descending, sorts the point tuples ascending: at the first
        point where two sets differ, the one that holds it has the smaller
        tuple and, with that bit set, the larger big-endian key. The points
        are read once from the stacked layers and reordered by those keys;
        the n-wide rows are never reordered.
        """
        n = self.degree
        points = _integers(delta, "points", -1)
        if not points.size:
            return np.zeros((1, 0), dtype=np.int64)
        if not 0 <= points.min() <= points.max() < n:
            raise ValueError(f"set {sorted(points.tolist())} is not within 0..{n - 1}")
        start = np.zeros((1, n), dtype=bool)
        start[0, points] = True
        gens = self.generators
        inverses = np.argsort(np.reshape([g.images for g in gens], (len(gens), n)))
        keys = [np.packbits(start).tobytes()]
        seen, width = set(keys), len(keys[0])
        layers = [start]
        while len(layers[-1]):
            images = layers[-1][:, inverses].reshape(-1, n)
            packed = np.packbits(images, axis=1).tobytes()
            fresh = []
            for i in range(len(images)):
                if (key := packed[i * width:(i + 1) * width]) not in seen:
                    seen.add(key)
                    keys.append(key)
                    fresh.append(i)
            layers.append(images[fresh])
        points = np.flatnonzero(np.concatenate(layers)) % n
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        return points.reshape(len(keys), -1)[order]

    # -- derived actions ----------------------------------------------------

    def induced(self, objects, act) -> "PermGroup":
        """Action of the generators on the positions of distinct objects,
        where act(g, x) is the image of x under g.

        A repeated object is a ValueError. Raises NotInvariant naming the
        first generator that maps an object outside the list.
        """
        objects = list(objects)
        position: dict = {}
        for i, x in enumerate(objects):
            if position.setdefault(x, i) != i:
                raise ValueError(f"object {x!r} is repeated")
        gens = []
        for g in self.generators:
            images = [position.get(act(g, x)) for x in objects]
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
        That of Hg is one descent of H's kept chain: each level sends the
        product p to the u p that puts its base point lowest.
        """
        if H.degree != self.degree or any(h not in self for h in H.generators):
            raise NotASubgroup("H is not contained in G")
        if (index := self.order // H.order) > INDEX_CAP:
            raise IndexTooLarge(f"index {index} exceeds {INDEX_CAP}")
        levels, images = H._stabilizer_chain(), {}

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
        """The least element of order t in sorted element order, or None.

        The listing's rows are read 8 at a time, since the first hit comes
        early; only the element returned is made a Perm."""
        for images in _row_lists(self.enumerate().rows, 8):
            if _has_order(images, t):
                return _perm(tuple(images))
        return None

    def derived_subgroup(self) -> "PermGroup":
        """G', the normal closure of the commutators a^-1 b^-1 a b of pairs
        of generators (Butler 1991; Holt, Eick and O'Brien 2005, ch. 4).

        A commutator, or a conjugate s^-1 c s of a kept c by a generator s,
        is kept only if the chain of those kept so far does not sift it, so
        each kept element enlarges the subgroup; nothing is listed."""
        gens, D = [g.images for g in self.generators], PermGroup(self.degree, [])
        queue = [_mul(_inv(_mul(b, a)), _mul(a, b)) for a, b in combinations(gens, 2)]
        for c in map(_perm, queue):
            if c not in D:
                D = PermGroup(self.degree, D.generators + (c,))
                queue += [_mul(_mul(_inv(s), c.images), s) for s in gens]
        return D

    def __repr__(self):
        n = self.order if self._chain is not None else "?"
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
