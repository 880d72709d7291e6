from math import comb

import pytest

from jacktop import exact, maps, topdegree
from jacktop.exact import (GAMMA_A, KLPoly, Laurent, gamma_power_A,
                           int_coeffs)
from jacktop.functionals import kl_evaluate
from jacktop.maps import BicoloredGraph, perm_from_cycle_type
from jacktop.topdegree import (DomainMismatch, _chain_expansion, ch_top_eval,
                               ch_top_eval_labeled, cumulant_K,
                               expander_weights, is_expander, kl_top,
                               moment_M, restricted_perm, set_partitions_above)
from jacktop.young import enumerate_partitions, partitions_of, size
from tests_support_graphs import (chain_signature, count_embeddings_level_sum,
                                  full_census, sequence_tree, step_sequences)


def test_ch_top_n1_is_size():
    for lam in enumerate_partitions(4):
        assert ch_top_eval(1, lam) == Laurent.const(size(lam))


def test_ch_top_examples():
    assert ch_top_eval(2, (1,)).is_zero()
    assert ch_top_eval(2, (2,)) == Laurent({1: 2})


def ch_top_by_class(n, lam):
    """The class-by-class sum of -count_G * g**(n+1-w-b) * A**(w-b) *
    (-1)**b * N_G(lam) over every class, with N_G(lam) from the variable
    elimination that shares no code with the chain sums."""
    by_shape = {}
    for g, count in full_census(n):
        shape = (g.whites, g.blacks)
        by_shape[shape] = by_shape.get(shape, 0) + \
            count * count_embeddings_level_sum(g, lam)
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


def step_sequences_first_met(small, sets):
    """The number of strict chains {} < U_1 < ... < U_j = range(small) of
    each step sequence ((a_i, c_i)): a_i vertices join at step i, and c_i
    of the sets first meet U_i.  step_sequences counts the sets first
    covered instead; the complements of a chain, in reverse order, turn
    one into the other with the sequence reversed."""
    full = (1 << small) - 1
    masks = [sum(1 << v for v in s) for s in sets]
    reached = [sum(1 for m in masks if m & u) for u in range(full + 1)]
    ending = [{} for _ in range(full + 1)]
    ending[0][()] = 1
    for u in range(full):
        rest = full ^ u
        step = rest
        while step:
            v = u | step
            key = (step.bit_count(), reached[v] - reached[u])
            into = ending[v]
            for seq, chains in ending[u].items():
                seq += (key,)
                into[seq] = into.get(seq, 0) + chains
            step = (step - 1) & rest
    return ending[full]


def chain_sequences(g):
    """The smaller side of a class, its larger side's neighborhoods in it,
    and their step sequences: first covered when whites >= blacks, first
    met otherwise."""
    if g.whites >= g.blacks:
        return g.blacks, g.adjacency, step_sequences(g.blacks, g.adjacency)
    sets = g.black_neighbors()
    return g.whites, sets, step_sequences_first_met(g.whites, sets)


def test_chain_counts_are_ordered_set_partitions():
    # Each class has one chain per ordered set partition of its smaller
    # side, and a step sequence's a_i add up to that side's size.
    fubini = [1]
    for k in range(1, 6):
        fubini.append(sum(comb(k, i) * fubini[k - i] for i in range(1, k + 1)))
    for g, _ in full_census(6):
        small, sets, chains = chain_sequences(g)
        assert sum(chains.values()) == fubini[small]
        for seq in chains:
            assert sum(a for a, _ in seq) == small
            assert sum(c for _, c in seq) == len(sets)


def test_chain_expansion_matches_both_sides_of_every_class():
    # The two reference trees from the tuple-keyed sequences of every
    # class on its own smaller side: first covered for whites >= blacks,
    # first met for whites < blacks.  _chain_expansion walks the blacks of
    # the census classes only: first covered for the first tree, first met
    # at the swapped shape for the second.  Node and term order follow the
    # walk, so the trees are compared by their node paths, ends and terms,
    # sorted.
    for n in range(1, 9):
        sides = ({}, {})
        for g, count in full_census(n):
            side = sides[g.whites < g.blacks]
            for seq, chains in chain_sequences(g)[2].items():
                by_shape = side.setdefault(seq, {})
                shape = (g.whites, g.blacks)
                by_shape[shape] = by_shape.get(shape, 0) + count * chains
        *trees, _ = _chain_expansion(n)
        assert [chain_signature(t) for t in trees] == \
            [chain_signature(sequence_tree(side)) for side in sides], n


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


def test_cold_query_expands_no_power_of_g(monkeypatch):
    # After the first query at n, a cold query adds its integer shape
    # totals times the weights of _chain_expansion(n): it expands no power
    # of g and converts no Laurent polynomial to ints.
    monkeypatch.setattr(topdegree, "_CH_TOP_CACHE", {})
    calls = []
    for module, name in ((exact, "gamma_power_A"), (exact, "int_coeffs"),
                         (topdegree, "gamma_power_A")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    for n in range(1, 8):
        ch_top_eval(n, (1,))
        calls.clear()
        for lam in [(), (2,), (3, 3), (4, 2, 1), (5, 3, 3, 1)]:
            topdegree._CH_TOP_CACHE.clear()
            value = ch_top_eval(n, lam)
            assert calls == [], (n, lam)
            assert value == ch_top_by_class(n, lam), (n, lam)


def test_shape_weights_are_the_powers_of_g():
    # The weight of a shape (w, b) is -(-1)**b * A**(w-b) * g**(n+1-w-b)
    # with g = -A + 1/A, as ints; _chain_expansion(n) holds one for each
    # shape of its two trees.
    for n in range(1, 10):
        by_blacks, by_whites, weights = _chain_expansion(n)
        assert set(weights) == {shape for tree in (by_blacks, by_whites)
                                for _, shape, _ in tree[-1]}, n
        for (w, b), weight in weights.items():
            expected = gamma_power_A(n + 1 - w - b) * \
                Laurent({w - b: (-1) ** (b + 1)})
            assert weight == int_coeffs(expected), (n, w, b)
            assert all(type(v) is int and v for v in weight.values())


def test_kl_top_and_ch_top_eval_build_one_census(monkeypatch):
    # Both top-degree routes read the census memo _census(n).
    calls = []
    real = topdegree.graph_census
    monkeypatch.setattr(topdegree, "graph_census",
                        lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(topdegree, "_CH_TOP_CACHE", {})
    topdegree._census.cache_clear()
    topdegree._chain_expansion.cache_clear()
    kl_top(5)
    ch_top_eval(5, (3, 2, 1))
    assert calls == [5]


def test_repeated_moment_counts_no_embedding_again(monkeypatch):
    # Embedding counts are memoised per (class, diagram) in maps._EMBED_CACHE:
    # a miss builds one chain tree, of one class on its smaller side.
    calls = []
    real = maps._chain_tree
    monkeypatch.setattr(maps, "_EMBED_CACHE", {})
    monkeypatch.setattr(maps, "_chain_tree",
                        lambda classes: calls.append([c[0] for c in classes])
                        or real(classes))
    perm, lam = perm_from_cycle_type((3, 1)), (3, 2)
    first = moment_M(perm, lam)
    assert calls
    assert calls == [[min(w, b)] for (w, b, _), _ in maps._EMBED_CACHE]
    count = len(calls)
    assert moment_M(perm, lam) == first
    assert len(calls) == count


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
