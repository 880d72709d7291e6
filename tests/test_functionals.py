from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacktop import functionals
from jacktop.analysis import kl_expand_full
from jacktop.exact import GammaPoly, KLPoly, Laurent, subst_gamma
from jacktop.functionals import (BadIndex, conversion_P, conversion_Q,
                                 free_cumulant, free_cumulant_pair_count,
                                 kl_evaluate, kl_values, s_functional,
                                 t_functional)
from jacktop.maps import normalized_embeddings_graph
from jacktop.topdegree import kl_top
from jacktop.young import enumerate_partitions, partitions_of, size, transpose
from tests_support_graphs import tree_pair_classes

GAMMA = subst_gamma(GammaPoly.var())
A = Laurent.monomial(1)
AINV = Laurent.monomial(-1)


def test_t_functional_examples():
    # T_3((2)) = 2[(A - 1/A) + (2A - 1/A)] = 6A - 4/A
    assert t_functional(3, (2,)) == Laurent({1: 6, -1: -4})
    for lam in [(3, 1), (2, 2, 1), ()]:
        assert t_functional(2, lam) == Laurent.const(size(lam))
    assert t_functional(5, ()).is_zero()
    with pytest.raises(BadIndex):
        t_functional(1, (2,))


def test_s_functional_rectangle_formula():
    # closed form for the one-row diagram (2)
    for n in range(2, 7):
        want = ((A.scale(2) - AINV) ** n - (-AINV) ** n
                - A.scale(2) ** n).scale(Fraction(-1, n))
        assert s_functional(n, (2,)) == want
    assert s_functional(2, (2,)) == Laurent.const(2) == t_functional(2, (2,))
    assert s_functional(4, ()).is_zero()


def test_s_functional_multirect_form():
    # independent route: the telescoped multirectangular sums with unit row
    # counts p_i = 1/A and anisotropic rows q_i = A * lam_i
    for lam in [(2, 1), (3, 2, 2), (4,), (1, 1, 1)]:
        for n in range(2, 7):
            total = Laurent.zero()
            for i in range(1, len(lam) + 1):
                prev, cur = i - 1, i
                q = lam[i - 1]
                term = (Laurent({-1: -prev}) ** n
                        - Laurent({-1: -cur}) ** n
                        - Laurent({1: q, -1: -prev}) ** n
                        + Laurent({1: q, -1: -cur}) ** n)
                total = total + term
            assert s_functional(n, lam) == total.scale(Fraction(-1, n))


def test_conversion_tables():
    assert conversion_P(3) == {2: GammaPoly.var(), 3: GammaPoly.const(1)}
    assert conversion_P(4) == {2: GammaPoly({2: 1, 0: Fraction(1, 2)}),
                               3: GammaPoly({1: Fraction(3, 2)}),
                               4: GammaPoly.const(1)}
    assert conversion_Q(4) == {2: GammaPoly({2: Fraction(1, 2), 0: Fraction(-1, 2)}),
                               3: GammaPoly({1: Fraction(-3, 2)}),
                               4: GammaPoly.const(1)}


def test_conversion_identities_by_evaluation():
    diagrams = [(), (1,), (2,), (2, 1), (3, 1, 1), (2, 2, 2), (4, 3)]
    for n in range(2, 7):
        p_table = conversion_P(n)
        q_table = conversion_Q(n)
        for lam in diagrams:
            s_via_t = Laurent.zero()
            for k, poly in p_table.items():
                s_via_t = s_via_t + subst_gamma(poly) * t_functional(k, lam)
            assert s_via_t == s_functional(n, lam), (n, lam)
            t_via_s = Laurent.zero()
            for k, poly in q_table.items():
                t_via_s = t_via_s + subst_gamma(poly) * s_functional(k, lam)
            assert t_via_s == t_functional(n, lam), (n, lam)


def test_conversion_composition_is_identity():
    # substituting Q into P gives the Kronecker pattern
    for n in range(2, 7):
        p_table = conversion_P(n)
        for j in range(2, n + 1):
            acc = GammaPoly.zero()
            for k, p_poly in p_table.items():
                q_poly = conversion_Q(k).get(j)
                if q_poly is not None:
                    acc = acc + p_poly * q_poly
            expected = GammaPoly.const(1) if j == n else GammaPoly.zero()
            assert acc == expected, (n, j)


def test_free_cumulant_r2_is_size():
    for lam in enumerate_partitions(5):
        assert free_cumulant(2, lam) == Laurent.const(size(lam))


def test_free_cumulant_r3_single_box():
    assert free_cumulant(3, (1,)) == Laurent({1: 1, -1: -1})


def test_free_cumulant_empty_and_errors():
    for k in range(2, 6):
        assert free_cumulant(k, ()).is_zero()
    with pytest.raises(BadIndex):
        free_cumulant(1, (2,))


def test_catalan_pair_counts():
    for k in range(2, 8):
        m = k - 1
        catalan = factorial(2 * m) // (factorial(m) * factorial(m + 1))
        assert free_cumulant_pair_count(k) == catalan


def free_cumulant_graph_sum(k, lam):
    """Reference R_k: minus the normalized embedding counts of the tree
    pairs, one term per graph class times its number of pairs."""
    total = Laurent.zero()
    for g, count in tree_pair_classes(k):
        total = total + normalized_embeddings_graph(g, lam).scale(count)
    return -total


def test_free_cumulant_matches_graph_sum():
    for lam in enumerate_partitions(9):
        for k in range(2, 9):
            assert free_cumulant(k, lam) == free_cumulant_graph_sum(k, lam), \
                (k, lam)


diagrams_up_to_12 = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n))))


@given(diagrams_up_to_12, st.integers(2, 10))
@settings(max_examples=200, deadline=None)
def test_free_cumulant_properties(lam, k):
    value = free_cumulant(k, lam)
    assert free_cumulant(k, transpose(lam)) == value.s_involution()
    assert all(v.denominator == 1 for _, v in value.items())
    if k == 2:
        assert value == Laurent.const(size(lam))


def test_free_cumulant_laurent_degree_bound():
    for k in range(2, 11):
        for lam in enumerate_partitions(12):
            value = free_cumulant(k, lam)
            if not value.is_zero():
                assert value.degree() <= k - 2


def test_kl_evaluate():
    assert kl_evaluate(KLPoly({(0, (2,)): 1}), (3, 1)) == Laurent.const(4)
    assert kl_evaluate(KLPoly({(1, (2,)): 1}), (1,)) == GAMMA
    assert kl_evaluate(KLPoly.zero(), (2, 1)).is_zero()
    # Ch_2 = R_3 + R_2 g vanishes on the one-box diagram
    ch2 = KLPoly({(0, (3,)): 1, (1, (2,)): 1})
    assert kl_evaluate(ch2, (1,)).is_zero()


def laurent_kl_evaluate(p, lam):
    """Reference evaluation of a g/R-polynomial: each term multiplied out
    as a product of Fraction Laurent polynomials, without kl_values."""
    total = Laurent.zero()
    for (g, mu), coeff in p.items():
        term = (GAMMA ** g).scale(coeff)
        for m in mu:
            term = term * free_cumulant(m, lam)
        total = total + term
    return total


def test_kl_evaluate_matches_laurent_products_on_tables():
    tables = [kl_top(n) for n in range(1, 8)]
    tables += [kl_expand_full(n) for n in range(1, 7)]
    for lam in enumerate_partitions(9):
        for i, table in enumerate(tables):
            assert kl_evaluate(table, lam) == laurent_kl_evaluate(table, lam), \
                (i, lam)


def test_kl_evaluate_matches_laurent_products_on_hand_inputs():
    # kl_evaluate adds ints over the common denominator of the
    # coefficients: 1/2 + R2/3 - 5 R2**2/6 is (3 + 2s - 5s**2)/6 on a
    # diagram of size s, zero on one box, -13/6 on two and -6 on three.
    cancel = KLPoly({(0, ()): Fraction(1, 2), (0, (2,)): Fraction(1, 3),
                     (0, (2, 2)): Fraction(-5, 6)})
    polys = [
        KLPoly({(0, (3, 2)): Fraction(-5, 6), (2, ()): Fraction(1, 3)}),
        KLPoly({(1, (4, 3)): 1, (0, (5, 5, 2)): 2}),  # prefixes absent
        KLPoly({(3, ()): 7}),  # a pure g power
        KLPoly({(0, ()): 1}),
        KLPoly.zero(),
        cancel,
        KLPoly({(2, ()): Fraction(1, 2), (0, (3,)): Fraction(1, 3),
                (1, (2,)): Fraction(-5, 6)}),
        KLPoly({(1, (3, 2)): Fraction(-5, 6), (3, ()): Fraction(1, 2),
                (0, (4,)): Fraction(1, 3), (0, (2,)): 4}),
    ]
    for lam in [(), (1,), (2,)] + list(partitions_of(5)) + [(4, 4, 1)]:
        for p in polys:
            assert kl_evaluate(p, lam) == laurent_kl_evaluate(p, lam), (p, lam)
    assert kl_evaluate(KLPoly({(3, ()): 7}), ()) == (GAMMA ** 3).scale(7)
    assert kl_evaluate(KLPoly.zero(), ()).is_zero()
    assert kl_evaluate(cancel, (1,)).is_zero()
    assert kl_evaluate(cancel, (2,)) == Laurent.const(Fraction(-13, 6))
    assert kl_evaluate(cancel, (2, 1)) == Laurent.const(-6)


def test_kl_values_on_one_diagram_expand_the_cumulants_once(monkeypatch):
    # The first call fills functionals._FREE_CUMULANT_CACHE for every R_k.
    calls = []
    real = functionals._free_cumulants
    monkeypatch.setattr(functionals, "_FREE_CUMULANT_CACHE", {})
    monkeypatch.setattr(functionals, "_free_cumulants",
                        lambda k, lam: calls.append(k) or real(k, lam))
    keys = [key for key, _ in kl_top(4).items()]
    lam = (4, 2, 1)
    first = kl_values(keys, lam)
    assert kl_values(keys, lam) == first
    assert calls == [5]
