import pytest

from jacktop.exact import KLPoly, Laurent
from jacktop.functionals import kl_evaluate
from jacktop.maps import BicoloredGraph, perm_from_cycle_type
from jacktop.topdegree import (DomainMismatch, ch_top_eval, ch_top_eval_labeled,
                               cumulant_K, expander_weights, is_expander,
                               kl_top, moment_M, restricted_perm,
                               set_partitions_above)
from jacktop.young import enumerate_partitions, partitions_of, size


def test_ch_top_n1_is_size():
    for lam in enumerate_partitions(4):
        assert ch_top_eval(1, lam) == Laurent.const(size(lam))


def test_ch_top_examples():
    assert ch_top_eval(2, (1,)).is_zero()
    assert ch_top_eval(2, (2,)) == Laurent({1: 2})


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
