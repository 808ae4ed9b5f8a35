"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from socodes.groups import Perm, PermGroup

# values that are not integers: each must raise TypeError wherever the
# library reads an integer, never be truncated to one
NON_INTEGERS = (0.5, 1.0, np.float64(1.0), np.float32(2.5), "1", None)


@st.composite
def small_transitive_groups(draw):
    """Transitive groups on <= 12 points whose order is at most 24 by
    construction (cyclic, dihedral, C_k wr C_m, regular C_a x C_b), with
    the points relabelled at random."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "wreath", "product"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 12))
        gens = [[tuple(range(n))]]
    elif kind == "dihedral":
        n = draw(st.integers(3, 12))
        gens = [[tuple(range(n))], [(i, n - 1 - i) for i in range(n // 2)]]
    elif kind == "wreath":
        # rotate m blocks of size k and cycle the first block: order k^m m
        k, m = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
        n = k * m
        gens = [[tuple(range(j, n, k)) for j in range(k)], [tuple(range(k))]]
    else:
        # C_a x C_b on the points i*b + j, each factor cycling one index
        a, b = draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (2, 6), (3, 4)]))
        n = a * b
        gens = [[tuple(i * b + j for i in range(a)) for j in range(b)],
                [tuple(i * b + j for j in range(b)) for i in range(a)]]
    lab = draw(st.permutations(range(n)))
    return PermGroup(n, [Perm.from_cycles(n, [tuple(lab[x] for x in c)
                                              for c in cycles])
                         for cycles in gens])
