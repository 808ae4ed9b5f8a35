"""Independent naive reference implementations used to cross-check the library.

Everything here is deliberately written in plain Python with no numpy and no
imports from socodes, so that agreement between the two codebases is meaningful.
"""

from itertools import product


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
# rank over GF(p^l) by naive fraction-free elimination on element codes
# ---------------------------------------------------------------------------

def rank_naive(rows, p, l, modulus):
    """Row-reduce a list of lists of element codes; returns the rank.

    Uses only the naive polynomial helpers above.
    """
    q = p ** l

    def inv(a):
        for y in range(1, q):
            if field_mul_naive(a, y, p, l, modulus) == 1:
                return y
        raise ZeroDivisionError

    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
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
        rows[rix] = [field_mul_naive(x, pin, p, l, modulus) for x in rows[rix]]
        for i in range(len(rows)):
            if i != rix and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [field_sub_naive(x, field_mul_naive(f, y, p, l, modulus), p, l)
                           for x, y in zip(rows[i], rows[rix])]
        rix += 1
        rank += 1
    return rank


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


# ---------------------------------------------------------------------------
# exhaustive minimum distance / weight spectrum by message enumeration
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


def weight_spectrum_naive(gen_rows, p, l, modulus):
    q = p ** l
    k = len(gen_rows)
    n = len(gen_rows[0]) if k else 0
    hist = {}
    for msg in product(range(q), repeat=k):
        word = [0] * n
        for m, row in zip(msg, gen_rows):
            if m == 0:
                continue
            for j in range(n):
                if row[j]:
                    word[j] = field_add_naive(word[j], field_mul_naive(m, row[j], p, l, modulus), p, l)
        w = sum(1 for x in word if x)
        hist[w] = hist.get(w, 0) + 1
    return hist


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


def set_orbit_naive(gens, n, delta):
    """Sorted distinct images of the point set delta under every element."""
    return sorted({tuple(sorted(g[x] for x in delta))
                   for g in group_closure_naive(gens, n)})


def coset_action_naive(gens, n, hgens):
    """Action of G = <gens> on the right cosets of H = <hgens>.

    Each coset Hg is the set {h g : h in H}; cosets are numbered by their
    lexicographically least elements in sorted order, and a generator s
    sends Hg to Hgs. Returns the image tuple of every generator.
    """
    def mul(g, h):
        return tuple(h[x] for x in g)

    H = group_closure_naive(hgens, n)
    cosets = {frozenset(mul(h, g) for h in H) for g in group_closure_naive(gens, n)}
    reps = sorted(min(c) for c in cosets)
    number = {rep: i for i, rep in enumerate(reps)}
    label = {g: number[min(c)] for c in cosets for g in c}
    return [tuple(label[mul(rep, s)] for rep in reps) for s in gens]
