"""Invariants that hold whatever the data: relabelling the points.

Conjugating the generators of an M11 action by a point permutation pi
gives the same group acting on pi's labels. Its weakly self-orthogonal
search at pi(0) finds the same designs, perhaps under other orbit
indices, and each of its set orbits is the old one relabelled.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socodes.designs import parameters, wso_search
from socodes.groups import Perm, PermGroup
from socodes.m11 import m11_degree


def relabelled(G, pi) -> PermGroup:
    """G with every point x renamed pi[x]: each generator g becomes
    pi^-1 g pi, which maps pi[x] to pi[g[x]]."""
    return PermGroup(G.degree, [Perm(np.argsort(pi)) * g * Perm(pi) for g in G.generators])


def search(G, alpha, p) -> Counter:
    """The multiset of (design parameters, profile, b) of the search's hits."""
    return Counter((parameters(hit.design), hit.profile, hit.design.b)
                   for hit in wso_search(G, alpha, p))


@pytest.mark.parametrize("degree", [11, 12, 22, 55, 66])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_relabelling_the_points_relabels_the_search_and_the_set_orbits(degree, data):
    pi = data.draw(st.permutations(range(degree)))
    delta = sorted(data.draw(st.sets(st.integers(0, degree - 1), min_size=1, max_size=4)))
    G = m11_degree(degree)
    H = relabelled(G, pi)
    for p in (2, 3, 5):
        assert search(H, pi[0], p) == search(G, 0, p), p
    want = sorted(map(sorted, np.array(pi)[G.set_orbit(delta)].tolist()))
    assert H.set_orbit([pi[x] for x in delta]).tolist() == want
