"""Independent naive reference implementations used to cross-check the library.

Everything here is deliberately written in plain Python with no numpy and no
imports from socodes, so that agreement between the two codebases is meaningful.
"""

from functools import cache
from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), coefficients ascending degree
# ---------------------------------------------------------------------------

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return poly_trim((x + y) % p for x, y in zip(a, b))


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod(a, m, p):
    a = list(poly_trim(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = list(poly_trim(a))
    return poly_trim(a)


def poly_is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly_trim(coeffs)) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            m = tuple(tail) + (1,)
            if not poly_mod(coeffs, m, p):
                return False
    return True


def lex_least_irreducible(p, l):
    if l == 1:
        return (0, 1)
    for tail in product(range(p), repeat=l):
        cand = tuple(tail) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")


# element codes: value = sum coeffs[i] * p^i, coeffs reduced mod p

def code_to_poly(code, p, l):
    out = []
    for _ in range(l):
        out.append(code % p)
        code //= p
    return poly_trim(out)


def poly_to_code(poly, p):
    return sum(c * p ** i for i, c in enumerate(poly))


def field_mul_naive(a, b, p, l, modulus):
    prod = poly_mod(poly_mul(code_to_poly(a, p, l), code_to_poly(b, p, l), p), modulus, p)
    return poly_to_code(prod, p)


def field_add_naive(a, b, p, l):
    return poly_to_code(poly_add(code_to_poly(a, p, l), code_to_poly(b, p, l), p), p)


def field_neg_naive(a, p, l):
    return poly_to_code(poly_trim((-c) % p for c in code_to_poly(a, p, l)), p)


def field_sub_naive(a, b, p, l):
    return field_add_naive(a, field_neg_naive(b, p, l), p, l)


# ---------------------------------------------------------------------------
# rank and kernel over GF(p^l) by naive elimination on element codes
# ---------------------------------------------------------------------------

def rref_naive(rows, p, l, modulus):
    """Row-reduce a list of lists of element codes; returns the nonzero rows
    of the reduced row echelon form and their pivot columns.

    Uses only the naive polynomial helpers above, each product and
    difference of two codes computed once per call.
    """
    q = p ** l
    mul = cache(lambda a, b: field_mul_naive(a, b, p, l, modulus))
    sub = cache(lambda a, b: field_sub_naive(a, b, p, l))

    def inv(a):
        for y in range(1, q):
            if mul(a, y) == 1:
                return y
        raise ZeroDivisionError

    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rix = 0
    for col in range(ncols):
        piv = None
        for i in range(rix, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rix], rows[piv] = rows[piv], rows[rix]
        pin = inv(rows[rix][col])
        rows[rix] = [mul(x, pin) for x in rows[rix]]
        for i in range(len(rows)):
            if i != rix and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[rix])]
        pivots.append(col)
        rix += 1
    return rows[:rix], pivots


def rank_naive(rows, p, l, modulus):
    return len(rref_naive(rows, p, l, modulus)[1])


def null_space_naive(rows, p, l, modulus):
    """Basis of {x : x . r = 0 for every row r}, one vector per non-pivot
    column: that column is 1 and each pivot column holds minus the reduced
    row's entry there."""
    R, pivots = rref_naive(rows, p, l, modulus)
    out = []
    for free in range(len(rows[0])):
        if free in pivots:
            continue
        x = [0] * len(rows[0])
        x[free] = 1
        for r, pc in zip(R, pivots):
            x[pc] = field_neg_naive(r[free], p, l)
        out.append(x)
    return out


def gram_naive(rows, p, l, modulus):
    """Pairwise inner products sum_i x_i y_i of rows of element codes, from
    q x q product and sum tables filled by the naive helpers above."""
    q = p ** l
    mul = [[field_mul_naive(a, b, p, l, modulus) for b in range(q)]
           for a in range(q)]
    add = [[field_add_naive(a, b, p, l) for b in range(q)] for a in range(q)]
    out = []
    for x in rows:
        out.append([])
        for y in rows:
            s = 0
            for a, b in zip(x, y):
                s = add[s][mul[a][b]]
            out[-1].append(s)
    return out


def matmul_naive(rows, cols, p, l, modulus):
    """Product of a matrix given by its rows and one given by its columns,
    each entry summed term by term with the naive field helpers; so an empty
    inner dimension gives zeros, and no rows or no columns an empty result."""
    out = []
    for x in rows:
        out.append([])
        for y in cols:
            s = 0
            for a, b in zip(x, y):
                s = field_add_naive(s, field_mul_naive(a, b, p, l, modulus), p, l)
            out[-1].append(s)
    return out


# ---------------------------------------------------------------------------
# exhaustive minimum distance by message enumeration
# ---------------------------------------------------------------------------

def min_distance_naive(gen_rows, p, l, modulus):
    """Exact minimum weight over all q^k messages, pure Python."""
    q = p ** l
    k = len(gen_rows)
    n = len(gen_rows[0]) if k else 0
    best = None
    for msg in product(range(q), repeat=k):
        if not any(msg):
            continue
        word = [0] * n
        for m, row in zip(msg, gen_rows):
            if m == 0:
                continue
            for j in range(n):
                if row[j]:
                    word[j] = field_add_naive(word[j], field_mul_naive(m, row[j], p, l, modulus), p, l)
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best


# ---------------------------------------------------------------------------
# orbits and cosets by applying every element of the plain group closure;
# a permutation is its image tuple and products act on the right
# (first g, then h), as in the library
# ---------------------------------------------------------------------------

def group_closure_naive(gens, n):
    """All image tuples of the group generated by `gens` on n points."""
    ident = tuple(range(n))
    seen = {ident}
    todo = [ident]
    while todo:
        g = todo.pop()
        for s in gens:
            h = tuple(s[x] for x in g)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return seen


def derived_subgroup_naive(gens, n):
    """All image tuples of <[x, s] : x in G, s in gens>, G = <gens>, with
    [x, s] = x^-1 s^-1 x s. It is normal, as [x, s]^y = [xy, s][y, s]^-1,
    and s and t commute modulo it, so it is G'. A commutator joins the
    generators of the closure only when the closure so far misses it."""
    kept, closure = [], {tuple(range(n))}
    for x in sorted(group_closure_naive(gens, n)):
        for s in gens:
            xs = tuple(s[y] for y in x)
            sx = tuple(x[y] for y in s)
            inverse = [0] * n
            for i, y in enumerate(sx):
                inverse[y] = i
            c = tuple(xs[y] for y in inverse)
            if c not in closure:
                kept.append(c)
                closure = group_closure_naive(kept, n)
    return closure


def set_orbit_naive(gens, n, delta):
    """Sorted distinct images of the point set delta under every element."""
    return sorted({tuple(sorted(g[x] for x in delta))
                   for g in group_closure_naive(gens, n)})


def wso_search_naive(gens, n, p):
    """(orbit choice, blocks, a, d) for every proper nonempty union Delta of
    the orbits of the stabilizer of point 0 whose development has one
    pairwise intersection residue d mod p; a = |Delta| mod p. Orbits are
    ordered by least point, choices by ascending bitmask."""
    stab = [g for g in group_closure_naive(gens, n) if g[0] == 0]
    orbits = []
    for x in range(n):
        if not any(x in orb for orb in orbits):
            orbits.append({g[x] for g in stab})
    hits = []
    for mask in range(1, 2 ** len(orbits) - 1):
        choice = tuple(i for i in range(len(orbits)) if mask >> i & 1)
        delta = set().union(*(orbits[i] for i in choice))
        blocks = set_orbit_naive(gens, n, delta)
        resid = {len(set(x) & set(y)) % p for x, y in combinations(blocks, 2)}
        if len(resid) == 1:
            hits.append((choice, blocks, len(delta) % p, resid.pop()))
    return hits


def coset_action_naive(gens, n, hgens):
    """Action of G = <gens> on the right cosets of H = <hgens>.

    Each coset Hg is the set {h g : h in H}; cosets are numbered by their
    lexicographically least elements in sorted order, and a generator s
    sends Hg to Hgs. Returns the image tuple of every generator.

    The elements of G are walked in sorted order, so each one that no coset
    found so far holds is the least element of a new coset.
    """
    def mul(g, h):
        return tuple(h[x] for x in g)

    H = group_closure_naive(hgens, n)
    label, reps = {}, []
    for g in sorted(group_closure_naive(gens, n)):
        if g not in label:
            for h in H:
                label[mul(h, g)] = len(reps)
            reps.append(g)
    return [tuple(label[mul(rep, s)] for rep in reps) for s in gens]


# ---------------------------------------------------------------------------
# single permutations (image tuples) and the actions they induce
# ---------------------------------------------------------------------------

def induced_naive(gens, objects):
    """Action of each generator on the positions of a list of point sets.

    Position i holds the c-th copy of its set x (c = copies of x before i)
    and goes to the c-th position holding the image of x. A generator that
    sends some copy nowhere gets None instead of an image tuple.
    """
    out = []
    for g in gens:
        images = []
        for i, x in enumerate(objects):
            y = tuple(sorted(g[p] for p in x))
            where = [j for j, z in enumerate(objects) if z == y]
            c = objects[:i].count(x)
            if c >= len(where):
                images = None
                break
            images.append(where[c])
        out.append(None if images is None else tuple(images))
    return out


def perm_order_naive(g):
    """Least m >= 1 with g^m the identity."""
    ident = tuple(range(len(g)))
    h, m = g, 1
    while h != ident:
        h = tuple(g[x] for x in h)
        m += 1
    return m


def cycle_type_naive(g):
    """Sorted (length, count) pairs, fixed points included: a point on a
    cycle of length L first returns to itself after L steps."""
    lengths = []
    for x in range(len(g)):
        y, steps = g[x], 1
        while y != x:
            y, steps = g[y], steps + 1
        lengths.append(steps)
    return tuple(sorted((L, lengths.count(L) // L) for L in set(lengths)))


# ---------------------------------------------------------------------------
# 1-designs: a design is a point count v and a list of point sets
# ---------------------------------------------------------------------------

def validate_naive(v, blocks):
    """(None, (k, r)) when the blocks form a 1-(v,k,r) design; otherwise
    (error class name, message) for the first check that fails, in this
    order: no blocks, block sizes, replication counts, isolated points."""
    blocks = [set(blk) for blk in blocks]
    if not blocks:
        return "NotOneDesign", "design has no blocks"
    sizes = sorted({len(blk) for blk in blocks})
    if len(sizes) != 1:
        return "NonConstantBlockSize", f"block sizes {sizes}"
    counts = sorted({sum(x in blk for blk in blocks) for x in range(v)})
    if len(counts) != 1:
        return "NotOneDesign", f"replication counts {counts}"
    if counts[0] == 0:
        return "NotOneDesign", "isolated points"
    return None, (sizes[0], counts[0])


# ---------------------------------------------------------------------------
# orbit matrices: orbits are sorted point lists, fixed orbits first, then by
# least element; the least block of a block orbit stands for it
# ---------------------------------------------------------------------------

def _orbits_naive(gens, n):
    orbits, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        orb, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for g in gens:
                if g[y] not in orb:
                    orb.add(g[y])
                    todo.append(g[y])
        seen |= orb
        orbits.append(sorted(orb))
    return sorted(orbits, key=lambda o: (len(o) > 1, o[0]))


def orbit_matrix_naive(v, blocks, gens):
    """(entries, point orbits, block orbits) of the blocks under <gens>,
    which must map blocks to blocks: entries[s][j] counts the points of
    point orbit j on the least block of block orbit s."""
    point_orbits = _orbits_naive(gens, v)
    block_orbits = _orbits_naive(induced_naive(gens, blocks), len(blocks))
    entries = [[len(set(blocks[orb[0]]) & set(pj)) for pj in point_orbits]
               for orb in block_orbits]
    return entries, point_orbits, block_orbits


def count_identity_naive(blocks, entries, point_orbits, block_orbits):
    """True when, for every pair (s,t) of block orbits,

        sum_j (b_t / v_j) * a[s][j] * a[t][j]
          = sum over blocks x' in orbit t of |x ∩ x'|,   x = least of s,

    with the left side over exact rationals."""
    for s, orb_s in enumerate(block_orbits):
        x = set(blocks[orb_s[0]])
        for t, orb_t in enumerate(block_orbits):
            tot = sum(Fraction(len(orb_t), len(pj)) * entries[s][j] * entries[t][j]
                      for j, pj in enumerate(point_orbits))
            if tot != sum(len(x & set(blocks[y])) for y in orb_t):
                return False
    return True
