from math import comb

import pytest

from jacktop import topdegree
from jacktop.exact import GAMMA_A, KLPoly, Laurent
from jacktop.functionals import kl_evaluate
from jacktop.maps import BicoloredGraph, count_embeddings, perm_from_cycle_type
from jacktop.topdegree import (DomainMismatch, _census, _step_sequences,
                               ch_top_eval, ch_top_eval_labeled, cumulant_K,
                               expander_weights, is_expander, kl_top,
                               moment_M, restricted_perm, set_partitions_above)
from jacktop.young import enumerate_partitions, partitions_of, size


def test_ch_top_n1_is_size():
    for lam in enumerate_partitions(4):
        assert ch_top_eval(1, lam) == Laurent.const(size(lam))


def test_ch_top_examples():
    assert ch_top_eval(2, (1,)).is_zero()
    assert ch_top_eval(2, (2,)) == Laurent({1: 2})


def ch_top_by_class(n, lam):
    """The class-by-class sum of -count_G * g**(n+1-w-b) * A**(w-b) *
    (-1)**b * count_embeddings(G, lam) over the census."""
    by_shape = {}
    for g, count in _census(n):
        shape = (g.whites, g.blacks)
        by_shape[shape] = by_shape.get(shape, 0) + \
            count * count_embeddings(g, lam)
    total = Laurent.zero()
    for (w, b), value in by_shape.items():
        sign = -1 if b % 2 == 0 else 1
        total = total + (GAMMA_A ** (n + 1 - w - b) *
                         Laurent({w - b: sign * value}))
    return total


def test_chain_route_matches_class_sum():
    for n in range(1, 8):
        for lam in enumerate_partitions(10):
            assert ch_top_eval(n, lam) == ch_top_by_class(n, lam), (n, lam)


# n = 8: one to five levels, a rectangle, a row, a column, the staircase
# and the empty diagram.
N8_DIAGRAMS = [(), (9,), (1,) * 7, (3, 3, 3), (4, 4, 1, 1), (5, 3, 3, 1),
               (6, 4, 2, 1), (5, 4, 3, 2, 1), (7, 5, 4, 2, 2, 1)]


@pytest.mark.parametrize("lam", N8_DIAGRAMS)
def test_chain_route_matches_class_sum_n8(lam):
    assert ch_top_eval(8, lam) == ch_top_by_class(8, lam)


def test_chain_counts_are_ordered_set_partitions():
    # Each class has one chain per ordered set partition of its smaller
    # side, and a step sequence's a_i add up to that side's size.
    fubini = [1]
    for k in range(1, 6):
        fubini.append(sum(comb(k, i) * fubini[k - i] for i in range(1, k + 1)))
    for g, _ in _census(6):
        covered = g.whites >= g.blacks
        small = g.blacks if covered else g.whites
        sets = g.adjacency if covered else g.black_neighbors()
        chains = _step_sequences(small, sets, covered)
        assert sum(chains.values()) == fubini[small]
        for seq in chains:
            assert sum(a for a, _ in seq) == small
            assert sum(c for _, c in seq) == len(sets)


def test_ch_top_eval_memo(monkeypatch):
    monkeypatch.setattr(topdegree, "_CH_TOP_CACHE",
                        {(0, (1,)): Laurent.const(7), (-1, ()): Laurent.zero()})
    for n, lam in ((0, (1,)), (-1, ())):
        with pytest.raises(ValueError, match="n must be >= 1"):
            ch_top_eval(n, lam)
    lam = (4, 2, 1)
    hit = ch_top_eval(5, lam)
    assert ch_top_eval(5, lam) is hit
    topdegree._CH_TOP_CACHE.clear()
    topdegree._chain_expansion.cache_clear()
    assert ch_top_eval(5, lam) is not hit
    assert ch_top_eval(5, lam) == hit == ch_top_by_class(5, lam)


def test_labeled_sum_matches_orbit_sum():
    for n in range(1, 5):
        for lam in [(), (1,), (2, 1), (3, 1), (2, 2)]:
            assert ch_top_eval(n, lam) == ch_top_eval_labeled(n, lam), (n, lam)


def test_is_expander_examples():
    # one black adjacent to all whites, weight = whites + 1
    for w in range(1, 4):
        star = BicoloredGraph(w, 1, [{0}] * w)
        assert is_expander(star, {0: w + 1})
    # two blacks, one white: no weight can satisfy the excess count
    vee = BicoloredGraph(1, 2, [{0, 1}])
    assert list(expander_weights(vee)) == []
    # single edge with weight 2
    edge = BicoloredGraph(1, 1, [{0}])
    assert is_expander(edge, {0: 2})
    with pytest.raises(DomainMismatch):
        is_expander(edge, {0: 2, 1: 2})


def test_expander_hall_condition():
    # three whites, two blacks; black 0 sees two whites, black 1 sees all
    # three, so only the weight with the heavy black on the full side works
    g = BicoloredGraph(3, 2, [{0, 1}, {0, 1}, {1}])
    assert is_expander(g, {0: 2, 1: 3})
    assert not is_expander(g, {0: 3, 1: 2})
    # a black with fewer neighbors than its weight fails the singleton set
    v = BicoloredGraph(3, 2, [{0}, {0}, {0, 1}])
    assert list(expander_weights(v)) == []


def test_kl_top_tables():
    assert kl_top(1) == KLPoly({(0, (2,)): 1})
    assert kl_top(2) == KLPoly({(0, (3,)): 1, (1, (2,)): 1})
    assert kl_top(3) == KLPoly({(0, (4,)): 1, (1, (3,)): 3, (2, (2,)): 2})
    assert kl_top(4) == KLPoly({(0, (5,)): 1, (1, (4,)): 6, (1, (2, 2)): 1,
                                (2, (3,)): 11, (3, (2,)): 6})


def test_kl_top_grading():
    for n in range(1, 6):
        assert kl_top(n).gradings() == {n + 1}


def test_formula_equivalence_small():
    for n in range(1, 5):
        table = kl_top(n)
        for lam in enumerate_partitions(5):
            assert kl_evaluate(table, lam) == ch_top_eval(n, lam), (n, lam)


def test_moment_cumulant_n1():
    one = (0,)
    for lam in enumerate_partitions(3):
        assert moment_M(one, lam) == Laurent.const(size(lam))
        assert cumulant_K(one, lam) == Laurent.const(size(lam))


def test_moment_empty_diagram():
    perm = perm_from_cycle_type((2, 1))
    assert moment_M(perm, ()).is_zero()
    assert cumulant_K(perm, ()).is_zero()


def test_moment_cumulant_conjugation_invariance():
    from itertools import permutations
    from jacktop.maps import conjugate
    for n in range(1, 5):
        for ct in partitions_of(n):
            perm = perm_from_cycle_type(ct)
            base_m = moment_M(perm, (2, 1))
            base_k = cumulant_K(perm, (2, 1))
            for pi in list(permutations(range(n)))[:6]:
                conj = conjugate(tuple(pi), perm)
                assert moment_M(conj, (2, 1)) == base_m
                assert cumulant_K(conj, (2, 1)) == base_k


def test_moment_cumulant_relation():
    from jacktop.maps import cycles
    for n in range(1, 5):
        for ct in partitions_of(n):
            perm = perm_from_cycle_type(ct)
            blocks = cycles(perm)
            for lam in enumerate_partitions(4):
                expected = Laurent.zero()
                for grouping in set_partitions_above(blocks):
                    term = Laurent.const(1)
                    for block in grouping:
                        term = term * cumulant_K(restricted_perm(perm, block), lam)
                    expected = expected + term
                assert moment_M(perm, lam) == expected, (ct, lam)


def test_positivity_small():
    for n in range(1, 6):
        for (_, _), coeff in kl_top(n).items():
            assert coeff.denominator == 1 and coeff >= 0
