"""Finite permutation groups given by generators.

Full element enumeration (no stabilizer chains: every group in scope has
order <= 7920), point and set orbits, stabilizers, induced actions on
k-subsets, coset actions, and elements of a given order. Every closure
(the elements, a point orbit, a set orbit, the coset representatives) is
one breadth-first search over the generators, ``_closure``. Point and set
orbits need the generators alone; the enumerated elements are needed only
for group orders, stabilizers and cosets.

Points are 0-based everywhere internally; the group file format uses the
1-based convention of the literature and is converted at the I/O boundary.
All orderings (elements, orbits, cosets, set orbits) are deterministic so
that every downstream matrix is byte-reproducible.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd


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


DEFAULT_CAP = 10 ** 6
KSUBSET_CAP = 10 ** 5
INDEX_CAP = 10 ** 4


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
        h = Perm.__new__(Perm)
        h.images = tuple([other.images[x] for x in self.images])
        return h

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
        counts = {}
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            length = 1
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                length += 1
                x = self.images[x]
            counts[length] = counts.get(length, 0) + 1
        return tuple(sorted(counts.items()))

    def order(self) -> int:
        o = 1
        for length, _ in self.cycle_type():
            o = o * length // gcd(o, length)
        return o

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


def _closure(start, gens, act, cap=None) -> set:
    """Everything reached from start by repeated x -> act(x, g), g in gens.

    Breadth-first; raises OrderExceedsCap once more than cap are found,
    start included.
    """
    if cap is not None and cap < 1:
        raise OrderExceedsCap(f"group order exceeds cap {cap}")
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
                    if cap is not None and len(seen) > cap:
                        raise OrderExceedsCap(f"group order exceeds cap {cap}")
        frontier = new
    return seen


class PermGroup:
    """Group generated by a list of permutations of common degree."""

    def __init__(self, degree: int, generators, _elements=None):
        self.degree = degree
        gens = tuple(g if isinstance(g, Perm) else Perm(g) for g in generators)
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree mismatch")
        self.generators = gens
        self._elements = _elements

    # -- enumeration --------------------------------------------------------

    def enumerate(self, cap: int = DEFAULT_CAP) -> tuple:
        """Breadth-first closure of the generators; sorted by image tuple."""
        if self._elements is None:
            self._elements = tuple(sorted(_closure(
                Perm.identity(self.degree), self.generators, Perm.__mul__, cap)))
        return self._elements

    @property
    def elements(self) -> tuple:
        return self.enumerate()

    @property
    def order(self) -> int:
        return len(self.elements)

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

    def induced_on_ksubsets(self, k: int):
        """Map Perm -> Perm on the sorted list of all k-subsets."""
        n = self.degree
        if comb(n, k) > KSUBSET_CAP:
            raise DegreeTooLarge(f"C({n},{k}) exceeds {KSUBSET_CAP}")
        subsets = list(combinations(range(n), k))
        index = {s: i for i, s in enumerate(subsets)}

        def phi(g: Perm) -> Perm:
            return Perm(tuple(index[tuple(sorted(g.images[p] for p in s))]
                              for s in subsets))
        return phi

    def action_on_ksubsets(self, k: int) -> "PermGroup":
        phi = self.induced_on_ksubsets(k)
        return PermGroup(comb(self.degree, k), [phi(g) for g in self.generators])

    def coset_action(self, H: "PermGroup") -> "PermGroup":
        """Action of this group on right cosets of H, degree [G:H].

        Cosets are numbered by their lexicographically least element, sorted.
        """
        gset = set(self.elements)
        if H.degree != self.degree or any(h not in gset for h in H.generators):
            raise NotASubgroup("H is not contained in G")
        if self.order // H.order > INDEX_CAP:
            raise IndexTooLarge(f"index {self.order // H.order} exceeds {INDEX_CAP}")
        hels = H.elements

        def canon(g: Perm) -> Perm:
            return min(h * g for h in hels)

        ordered = sorted(_closure(canon(Perm.identity(self.degree)),
                                  self.generators,
                                  lambda rep, s: canon(rep * s)))
        index = {rep: i for i, rep in enumerate(ordered)}
        gens = [Perm(tuple(index[canon(rep * s)] for rep in ordered))
                for s in self.generators]
        return PermGroup(len(ordered), gens)

    def element_of_order(self, t: int):
        """First element of order t in sorted element order, or None."""
        for g in self.elements:
            if g.order() == t:
                return g
        return None

    def squares_subgroup(self) -> "PermGroup":
        """Subgroup generated by the squares of all elements.

        For a group with a unique subgroup of index 2 this is that subgroup
        (squares die in any C2 quotient, and what they generate is normal).
        """
        return PermGroup(self.degree, sorted({g * g for g in self.elements}))

    def __repr__(self):
        n = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)}, order={n})"


# ---------------------------------------------------------------------------
# group file format: "degree n", then one generator per non-comment line,
# either 1-based cycle notation "(1,2,3)(4,5)" or "img: i1 i2 ... in"
# ---------------------------------------------------------------------------

def _parse_cycles(line: str, degree: int) -> Perm:
    cycles = []
    body = line.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle line: {line!r}")
    for chunk in body[1:-1].split(")("):
        pts = [int(t) - 1 for t in chunk.replace(",", " ").split()]
        if any(not 0 <= p < degree for p in pts):
            raise ValueError(f"point out of range in {line!r}")
        cycles.append(tuple(pts))
    return Perm.from_cycles(degree, cycles)


def parse_group_text(text: str) -> PermGroup:
    degree = None
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            head, val = line.split()
            if head != "degree":
                raise ValueError("group file must start with 'degree n'")
            degree = int(val)
        elif line.startswith("img:"):
            images = [int(t) - 1 for t in line[4:].split()]
            gens.append(Perm(images))
        else:
            gens.append(_parse_cycles(line, degree))
    if degree is None:
        raise ValueError("empty group file")
    return PermGroup(degree, gens)


def format_group_text(G: PermGroup, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"degree {G.degree}")
    for g in G.generators:
        lines.append("img: " + " ".join(str(i + 1) for i in g.images))
    return "\n".join(lines) + "\n"


def load_group(path) -> PermGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read())
