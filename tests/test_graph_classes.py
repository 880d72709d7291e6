"""The graph-class census against the orbit flood and the per-orbit and
per-pair sums it replaced, which are kept here as oracles."""

from itertools import permutations
from math import factorial

import pytest

from jacktop import maps
from jacktop.exact import KLPoly, Laurent, gamma_power_A
from jacktop.functionals import (_cumulant_pairs, free_cumulant,
                                 free_cumulant_pair_count, kl_evaluate)
from jacktop.maps import (compose, cycles, full_cycle, graph_census,
                          graph_classes, graph_of_pair, inverse,
                          normalized_embeddings, orbit_reps)
from jacktop.topdegree import (ch_top_eval, expander_weights, kl_top,
                               map_formula_collection)
from jacktop.young import z_factor


def kl_top_per_orbit(n):
    total = KLPoly.zero()
    for s1, s2 in orbit_reps(n):
        g = graph_of_pair(s1, s2)
        gexp = n + 1 - g.whites - g.blacks
        for weight in expander_weights(g):
            mu = tuple(sorted(weight.values(), reverse=True))
            total = total + KLPoly.term(gexp, mu)
    return total


def ch_top_per_orbit(n, lam):
    total = Laurent.zero()
    for s1, s2 in orbit_reps(n):
        gexp = n + 1 - len(cycles(s1)) - len(cycles(s2))
        total = total + gamma_power_A(gexp) * normalized_embeddings(s1, s2, lam)
    return -total


def free_cumulant_per_pair(k, lam):
    cyc = full_cycle(k - 1)
    total = Laurent.zero()
    for s1 in permutations(range(k - 1)):
        s2 = compose(inverse(s1), cyc)
        if len(cycles(s1)) + len(cycles(s2)) == k:
            total = total + normalized_embeddings(s1, s2, lam)
    return -total


def test_class_counts_sum_to_orbits():
    sizes = {}
    for n in range(1, 7):
        classes = graph_classes(orbit_reps(n))
        assert sum(count for _, count in classes) == len(orbit_reps(n))
        keys = [g.canonical_key() for g, _ in classes]
        assert keys == sorted(set(keys))
        sizes[n] = len(classes)
    assert (sizes[4], sizes[5], sizes[6]) == (13, 25, 57)


def test_collection_multiplicities():
    for n in range(1, 7):
        total = 0
        for g, mult in map_formula_collection(n):
            [(gexp, coeff)] = mult.items()
            assert gexp == n + 1 - g.whites - g.blacks
            total -= coeff
        assert total == len(orbit_reps(n))


def test_kl_top_matches_per_orbit_sum():
    for n in range(1, 7):
        assert kl_top(n) == kl_top_per_orbit(n), n


def test_ch_top_eval_matches_per_orbit_sum():
    diagrams = [(), (1,), (3, 1), (2, 2, 1), (4, 2, 1), (3, 3, 2)]
    for n in range(1, 7):
        for lam in diagrams:
            assert ch_top_eval(n, lam) == ch_top_per_orbit(n, lam), (n, lam)


def test_free_cumulant_matches_per_pair_sum():
    diagrams = [(), (1,), (2, 1), (2, 2), (4, 1), (5, 3, 1), (3, 3, 3)]
    for k in range(2, 9):
        for lam in diagrams:
            assert free_cumulant(k, lam) == free_cumulant_per_pair(k, lam), (k, lam)


def test_free_cumulant_classes():
    assert free_cumulant_pair_count(7) == 132
    assert len(_cumulant_pairs(7)) == 22


def indecomposable_permutations(m):
    """OEIS A003319: a(m) = m! - sum_{k<m} k! a(m-k)."""
    a = [1]
    for j in range(1, m + 1):
        a.append(factorial(j) - sum(factorial(k) * a[j - k]
                                    for k in range(1, j)))
    return a[m]


def test_graph_census_matches_flood():
    for n in range(1, 7):
        census = [(g.canonical_key(), count) for g, count in graph_census(n)]
        flood = [(g.canonical_key(), count)
                 for g, count in graph_classes(orbit_reps(n))]
        assert census == flood, n
        assert sum(count for _, count in census) == \
            indecomposable_permutations(n + 1)


def test_graph_census_rejects_partial_orbits(monkeypatch):
    # Half the class size of the 3-cycles leaves 3/2 orbits of the graph
    # with one white and two blacks.
    monkeypatch.setattr(maps, "z_factor",
                        lambda lam: z_factor(lam) * (2 if lam == (3,) else 1))
    with pytest.raises(AssertionError):
        graph_census(3)


def test_kl_top_7():
    census = graph_census(7)
    assert len(census) == 124
    assert sum(count for _, count in census) == \
        indecomposable_permutations(8) == 29093
    table = kl_top(7, budget=7)
    for _, coeff in table.items():
        assert coeff.denominator == 1 and coeff >= 0
    for lam in [(1,), (3, 1), (2, 2, 2), (4, 2, 1), (5, 3, 1)]:
        assert ch_top_eval(7, lam, budget=7) == kl_evaluate(table, lam), lam
