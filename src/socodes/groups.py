"""Finite permutation groups given by generators.

Point and set orbits, a stabilizer chain, element enumeration, stabilizers,
derived actions, and elements of a given order. Three routines carry
everything:

- ``_closure``, one breadth-first search over the generators, gives a
  point orbit, a set orbit and the coset representatives, from the
  generators alone.
- ``_schreier_sims``, deterministic Schreier-Sims, gives a base and one
  transversal per level. The order is the product of the transversal
  lengths, membership is sifting, and the elements are the products of the
  transversals, built level by level in numpy (every group in scope has
  order <= 7920, and DEFAULT_CAP is checked before any element is listed).
- ``PermGroup.induced(objects, act)`` gives every derived action: the
  generators acting on the positions of a list of objects they permute.
  The action on k-subsets, the action on the cosets of a subgroup and the
  action of an automorphism group on a design's blocks (``orbitmat``) are
  its three uses.

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

from .records import format_records, read_records


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
    """A permutation of {0..n-1}; images[i] is the image of i.

    Composition is the right action: (g * h)(i) = h(g(i)), matching the
    "first apply g, then h" convention of block developments.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images is not a bijection")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        images = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
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


def _schreier_sims(n: int, gens) -> list:
    """Stabilizer chain of the group the image tuples gens generate, by
    deterministic Schreier-Sims (Sims 1970; Seress 2003, ch. 4).

    Level i is (b_i, U_i): U_i maps each point x of the orbit of b_i under
    G_i, the pointwise stabilizer of b_0..b_{i-1}, to a pair (u, u^-1) with
    u in G_i and b_i^u = x. Every element is one product u_{k-1}...u_1 u_0,
    one u_i from each U_i, so the order is the product of the |U_i|.

    While the chain grows, the product of its orbit lengths is a lower bound
    on the order, so OrderExceedsCap is raised as soon as it passes
    DEFAULT_CAP, before that orbit's transversal is made.
    """
    cap = DEFAULT_CAP
    ident = tuple(range(n))
    gens = [g for g in dict.fromkeys(gens) if g != ident]
    base, strong, lengths, levels = [], [], [], []

    def new_level(g):
        # the first point g moves becomes the next base point
        b = next(x for x in range(n) if g[x] != x)
        base.append(b)
        strong.append([])
        lengths.append(1)
        levels.append((b, {b: (ident, ident)}))

    def orbit(i):
        b = base[i]
        lengths[i] = len(_closure(b, strong[i], lambda x, s: s[x]))
        if prod(lengths) > cap:
            raise OrderExceedsCap(f"group order exceeds cap {cap}")
        U = {b: (ident, ident)}
        queue = [b]
        for x in queue:
            u = U[x][0]
            for s in strong[i]:
                y = s[x]
                if y not in U:
                    v = _mul(u, s)
                    U[y] = (v, _inv(v))
                    queue.append(y)
        levels[i] = (b, U)

    for g in gens:
        if all(g[b] == b for b in base):
            new_level(g)
    for i in range(len(base)):
        strong[i] = [g for g in gens if all(g[b] == b for b in base[:i])]
        orbit(i)

    def unsifted(i):
        # the first Schreier generator u s (u')^-1 of level i, u' the
        # representative of x^s, that does not sift through levels i+1 on,
        # as (residue, level it stopped at); None once all of them sift
        _, U = levels[i]
        for x, (u, _) in U.items():
            for s in strong[i]:
                h, j = _sift(levels, _mul(_mul(u, s), U[s[x]][1]), i + 1)
                if h != ident:
                    return h, j
        return None

    i = len(base) - 1
    while i >= 0:
        found = unsifted(i)
        if found is None:
            i -= 1
            continue
        h, j = found
        if j == len(base):
            new_level(h)
        for m in range(i + 1, j + 1):
            strong[m].append(h)
            orbit(m)
        i = j
    if prod(lengths) > cap:
        # the trivial group, against a cap of 0
        raise OrderExceedsCap(f"group order exceeds cap {cap}")
    return levels


def _sift(levels, g: tuple, start: int = 0):
    """(residue, level): g divided by transversal elements from level start
    on, stopping at the first level whose orbit misses the base image. g is
    in the group iff the residue is the identity with level len(levels)."""
    for i in range(start, len(levels)):
        b, U = levels[i]
        x = g[b]
        if x not in U:
            return g, i
        g = _mul(g, U[x][1])
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
    for _, U in reversed(levels):
        # rows of G_{i+1} times U_i: (r u)[x] = u[r[x]]
        rows = np.array([u for u, _ in U.values()], dtype=dtype)[:, rows].reshape(-1, n)
    fixes, p = np.ones(len(rows), dtype=bool), 0
    while np.count_nonzero(fixes) > 1:
        fixes &= rows[:, p] == p
        p += 1
    if p:
        rows = rows[np.lexsort(rows[:, :p].T[::-1])]
    return rows


class PermGroup:
    """Group generated by a list of permutations of common degree."""

    def __init__(self, degree: int, generators, _elements=None):
        self.degree = degree
        gens = tuple(g if isinstance(g, Perm) else Perm(g) for g in generators)
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        self.generators = gens
        self._elements = _elements
        self._chain = None

    # -- enumeration --------------------------------------------------------

    def _stabilizer_chain(self) -> list:
        """The stabilizer chain of ``_schreier_sims``, built once."""
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, [g.images for g in self.generators])
        return self._chain

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
        """The number of elements, from the chain when they are not listed.

        Raises OrderExceedsCap above DEFAULT_CAP."""
        if self._elements is not None:
            return len(self._elements)
        return prod(len(U) for _, U in self._stabilizer_chain())

    def __contains__(self, g: Perm) -> bool:
        """Membership by sifting through the chain."""
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
        els = tuple(g for g in self.elements if g.images[point] == point)
        return PermGroup(self.degree, els, _elements=els)

    def set_orbit(self, delta) -> list:
        """Distinct images of the point set delta under the group, as a
        sorted list of sorted tuples, found from the generators alone."""
        seen = _closure(frozenset(int(x) for x in delta),
                        [g.images for g in self.generators],
                        lambda s, img: frozenset([img[x] for x in s]))
        return sorted(tuple(sorted(s)) for s in seen)

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
        """
        if H.degree != self.degree or any(h not in self for h in H.generators):
            raise NotASubgroup("H is not contained in G")
        if self.order // H.order > INDEX_CAP:
            raise IndexTooLarge(f"index {self.order // H.order} exceeds {INDEX_CAP}")
        hels = H.elements

        def canon(g: Perm) -> Perm:
            return min(h * g for h in hels)

        ordered = sorted(_closure(canon(Perm.identity(self.degree)),
                                  self.generators,
                                  lambda rep, s: canon(rep * s)))
        return self.induced(ordered, lambda s, rep: canon(rep * s))

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
