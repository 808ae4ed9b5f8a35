"""Finite permutation groups given by generators.

Point and set orbits, a stabilizer chain, element enumeration, stabilizers,
derived actions, and elements of a given order. Three routines carry
everything:

- ``_search``, one breadth-first search over the generators under any
  action, keeps a Schreier vector: each object reached maps to the object
  and the generator it was reached from. Its trees are the chain's orbits
  and, under the action on right cosets, ``coset_action``'s cosets.
  ``point_orbits`` runs the same search over all the points at once, on a
  bytearray. Set orbits, the one search whose objects are large, run it in
  numpy (``PermGroup.set_orbit``): each layer is a 0/1 array of sets, its
  images under every generator are one gather, and the orbit is ordered by
  one sort of the packed indicator bytes the search keeps.
- ``_schreier_sims``, incremental Schreier-Sims, gives a base and, per
  level, strong generators and one representative per orbit point, built
  along that level's ``_search`` tree. A group keeps one chain, based at
  each level at the least point it moves: the order is the product of its
  orbit lengths, membership is sifting, coset labels descend it once, the
  elements are the transversal products, built in numpy, and level 0 gives
  elements that map one point to others (``PermGroup._transversal``).
  Level 1 gives point stabilizers, other points relabelled.
- ``PermGroup.induced(objects, act)`` gives the generators acting on the
  positions of a list of distinct objects they permute: the action on
  k-subsets.

Only ``enumerate`` and ``element_of_order`` list elements; orbits read the
generators, and order, membership, stabilizers, coset labels and the
derived subgroup read the chain. The listing is one sorted, read-only
array of images, order x degree bytes up to degree 256; there is no
``Perm`` view of it, and ``element_of_order`` makes a ``Perm`` only of the
element it returns.

Points are 0-based everywhere internally; the group file format uses the
1-based convention of the literature and is converted at the I/O boundary.
All orderings (elements, orbits, cosets, set orbits) are deterministic so
that every downstream matrix is byte-reproducible.
"""

from __future__ import annotations

import operator
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


def _search(start, gens, act) -> dict:
    """Breadth-first search from start over x -> act(x, g), g in gens, with
    a Schreier vector: each object reached maps to (the object it was
    reached from, the index of that generator), start to (start, -1), in
    the order the objects were reached."""
    tree = {start: (start, -1)}
    queue = [start]
    for x in queue:
        for i, g in enumerate(gens):
            if (y := act(x, g)) not in tree:
                tree[y] = (x, i)
                queue.append(y)
    return tree


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
    BFS tree, it is the identity and is skipped unsifted. U_i is built from
    one ``_search`` tree, in its order. The product of the orbit lengths is
    a lower bound on the order, so a tree that takes it past DEFAULT_CAP
    raises OrderExceedsCap before any representative is made.
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
        tree = _search(b, S, lambda x, s: s[x])
        if others * len(tree) > cap:
            raise OrderExceedsCap(f"group order exceeds cap {cap}")
        U = {}
        for y, (x, k) in tree.items():
            U[y] = _mul(U[x], S[k]) if k >= 0 else ident
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
        self._of_order = {}

    # -- enumeration --------------------------------------------------------

    def _stabilizer_chain(self) -> list:
        """The one chain a group keeps, built by one ``_schreier_sims`` pass:
        each base point is the least point its level moves."""
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, [g.images for g in self.generators])
        return self._chain

    def enumerate(self) -> np.ndarray:
        """Every element as one row of images, rows sorted: the products of
        the kept chain's transversals, one (order x degree) array of one
        byte per image up to degree 256. The same read-only array is
        returned on every call. Raises OrderExceedsCap above DEFAULT_CAP
        before anything is listed."""
        if self._elements is None:
            self._elements = _element_rows(self.degree, self._stabilizer_chain())
            self._elements.setflags(write=False)
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
        return len(self.point_orbits()) <= 1

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

    def _transversal(self, alpha: int, targets) -> np.ndarray:
        """One element per target x that maps alpha to x, as an int64 row of
        images: u_alpha^-1 u_x from level 0 of the kept chain, whose orbit
        must hold alpha and every target; the trivial group gives the
        identity."""
        levels = self._stabilizer_chain()
        U = levels[0][2] if levels else {alpha: tuple(range(self.degree))}
        back = _inv(U[alpha])
        return np.array([_mul(back, U[x]) for x in targets], dtype=np.int64)

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

        reps = sorted(_search(tuple(range(self.degree)), self.generators, canon))
        return self.induced(reps, lambda s, rep: images[rep, s])

    def element_of_order(self, t: int):
        """The least element of order t in sorted element order, or None,
        kept per t.

        The listing's rows are read 8 at a time, since the first hit comes
        early; only the element returned is made a Perm."""
        if t not in self._of_order:
            rows = self.enumerate()
            found = (g for i in range(0, len(rows), 8) for g in rows[i:i + 8].tolist()
                     if _has_order(g, t))
            self._of_order[t] = next((_perm(tuple(g)) for g in found), None)
        return self._of_order[t]

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
