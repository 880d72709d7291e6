"""The graph-class census against the per-orbit and per-pair sums it
replaced, which are kept here as oracles."""

from itertools import permutations

from jacktop.exact import KLPoly, Laurent, gamma_power_A
from jacktop.functionals import (_cumulant_pairs, free_cumulant,
                                 free_cumulant_pair_count)
from jacktop.maps import (compose, cycles, full_cycle, graph_classes,
                          graph_of_pair, inverse, normalized_embeddings,
                          orbit_reps)
from jacktop.topdegree import (ch_top_eval, expander_weights, kl_top,
                               map_formula_collection)


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
