"""The graph-class census against the orbit census, the scan of S_n by cycle
type, the census over unpruned vector partitions, and the per-orbit and
per-pair sums it replaced, which are kept here as oracles."""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import pytest

from jacktop import maps
from jacktop.exact import KLPoly, Laurent, gamma_power_A
from jacktop.functionals import (free_cumulant, free_cumulant_pair_count,
                                 kl_evaluate)
from jacktop.maps import (BicoloredGraph, _by_class, _vector_partitions,
                          cycles, graph_census, graph_classes, graph_of_pair,
                          normalized_embeddings, orbit_reps,
                          perm_from_cycle_type)
from jacktop.topdegree import ch_top_eval, expander_weights, kl_top
from jacktop.young import (enumerate_partitions, multiplicities,
                           partitions_of, z_factor)
from tests_support_graphs import (color_swap, full_census, spans,
                                  tree_pair_classes, tree_pairs,
                                  vector_partitions)


def graph_census_scan(n):
    """The census by a scan of S_n: s1 is one permutation per cycle type
    lam, weighted by n!/z_lam, and s2 runs over all of S_n.  A labeled graph
    is the white count and the sorted white masks of the cycles of s2."""
    labeled = {}
    for lam in partitions_of(n):
        white_bit = [0] * n
        for w, cyc in enumerate(cycles(perm_from_cycle_type(lam))):
            for x in cyc:
                white_bit[x] = 1 << w
        weight = factorial(n) // z_factor(lam)
        for s2 in permutations(range(n)):
            masks = [sum({white_bit[x] for x in cyc}) for cyc in cycles(s2)]
            if spans(masks):
                key = (len(lam), tuple(sorted(masks)))
                labeled[key] = labeled.get(key, 0) + weight
    graphs = ((BicoloredGraph(whites, len(masks),
                              [[b for b, m in enumerate(masks) if m >> w & 1]
                               for w in range(whites)]), pairs)
              for (whites, masks), pairs in labeled.items())
    orbit = factorial(n - 1)
    out = []
    for g, pairs in _by_class(graphs):
        assert pairs % orbit == 0, (g, pairs)
        out.append((g, pairs // orbit))
    return out


def graph_census_unpruned(n):
    """The census over every vector partition, spanning or not, each kept
    only when its masks span: maps.graph_census before its enumerator was
    pruned."""
    labeled = {}
    for lam in partitions_of(n):
        base = factorial(n) // z_factor(lam) * prod(map(factorial, lam))
        terms = {}
        for parts in vector_partitions(lam):
            for v in parts:
                if v not in terms:
                    terms[v] = (sum(1 << w for w, x in enumerate(v) if x),
                                factorial(sum(v) - 1), prod(map(factorial, v)))
            masks = [terms[v][0] for v in parts]
            if not spans(masks):
                continue
            num, den, run = base, 1, 1
            for b, v in enumerate(parts):
                _, cyclic, shares = terms[v]
                run = run + 1 if b and parts[b - 1] == v else 1
                num *= cyclic
                den *= shares * run
            assert num % den == 0, (lam, parts)
            key = (len(lam), tuple(sorted(masks)))
            labeled[key] = labeled.get(key, 0) + num // den
    graphs = ((BicoloredGraph(whites, len(masks),
                              [[b for b, m in enumerate(masks) if m >> w & 1]
                               for w in range(whites)]), pairs)
              for (whites, masks), pairs in labeled.items())
    orbit = factorial(n - 1)
    out = []
    for g, pairs in _by_class(graphs):
        assert pairs % orbit == 0, (g, pairs)
        out.append((g, pairs // orbit))
    return out


def block_count_vectors(lam, s2):
    """The sorted block-count vectors of the cycles of s2 against the cycles
    of perm_from_cycle_type(lam): entry w counts the elements the cycle
    takes from the w-th cycle."""
    white = {x: w for w, cyc in enumerate(cycles(perm_from_cycle_type(lam)))
             for x in cyc}
    vectors = []
    for cyc in cycles(s2):
        v = [0] * len(lam)
        for x in cyc:
            v[white[x]] += 1
        vectors.append(tuple(v))
    return tuple(sorted(vectors))


def vector_multiplicity(lam, vectors):
    """prod_w lam_w! prod_b (|c_b| - 1)! / (prod_{b,w} c_{b,w}! prod_v r_v!):
    the number of s2 whose cycles have the block-count vectors c_b."""
    num = prod(map(factorial, lam)) * \
        prod(factorial(sum(v) - 1) for v in vectors)
    den = prod(factorial(x) for v in vectors for x in v) * \
        prod(map(factorial, Counter(vectors).values()))
    assert num % den == 0, (lam, vectors)
    return num // den


def kl_top_per_orbit(n):
    total = KLPoly.zero()
    for s1, s2 in orbit_reps(n):
        g = graph_of_pair(s1, s2)
        gexp = n + 1 - g.whites - g.blacks
        for weight in expander_weights(g):
            mu = tuple(sorted(weight.values(), reverse=True))
            total = total + KLPoly.term(gexp, mu)
    return total


@lru_cache(maxsize=None)
def orbit_terms(n):
    """(spanned graph G, g**(n+1-|whites|-|blacks|) * A**|whites| *
    (-1/A)**|blacks| as a Laurent polynomial) of each orbit representative."""
    out = []
    for s1, s2 in orbit_reps(n):
        g = graph_of_pair(s1, s2)
        sign = -1 if g.blacks % 2 else 1
        out.append((g, gamma_power_A(n + 1 - g.whites - g.blacks)
                    * Laurent({g.whites - g.blacks: sign})))
    return out


def ch_top_per_orbit(n, lam):
    """The top-degree part as a Laurent sum, one term per orbit."""
    total = Laurent.zero()
    for g, weight in orbit_terms(n):
        total = total + weight.scale(maps.count_embeddings(g, lam))
    return -total


def free_cumulant_per_pair(k, lam):
    total = Laurent.zero()
    for s1, s2 in tree_pairs(k):
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


def test_kl_top_matches_per_orbit_sum():
    for n in range(1, 7):
        assert kl_top(n) == kl_top_per_orbit(n), n


def test_ch_top_eval_matches_per_orbit_sum():
    for n in range(1, 7):
        for lam in enumerate_partitions(8):
            assert ch_top_eval(n, lam).to_json() == \
                ch_top_per_orbit(n, lam).to_json(), (n, lam)


def test_free_cumulant_matches_per_pair_sum():
    diagrams = [(), (1,), (2, 1), (2, 2), (4, 1), (5, 3, 1), (3, 3, 3)]
    for k in range(2, 9):
        for lam in diagrams:
            assert free_cumulant(k, lam) == free_cumulant_per_pair(k, lam), (k, lam)


def test_free_cumulant_classes():
    assert free_cumulant_pair_count(7) == 132
    classes = tree_pair_classes(7)
    assert sum(count for _, count in classes) == 132
    assert len(classes) == 22


def indecomposable_permutations(m):
    """OEIS A003319: a(m) = m! - sum_{k<m} k! a(m-k)."""
    a = [1]
    for j in range(1, m + 1):
        a.append(factorial(j) - sum(factorial(k) * a[j - k]
                                    for k in range(1, j)))
    return a[m]


def test_graph_census_matches_flood():
    for n in range(1, 8):
        census = [(g.canonical_key(), count) for g, count in full_census(n)]
        orbits = [(g.canonical_key(), count)
                  for g, count in graph_classes(orbit_reps(n))]
        assert census == orbits, n
        assert sum(count for _, count in census) == \
            indecomposable_permutations(n + 1)


def test_graph_census_matches_cycle_type_scan():
    for n in range(1, 8):
        census = [(g.canonical_key(), count) for g, count in full_census(n)]
        scan = [(g.canonical_key(), count)
                for g, count in graph_census_scan(n)]
        assert census == scan, n


def test_vector_partitions_count_permutations():
    # Every multiset of block-count vectors is enumerated exactly once, and
    # the closed form counts the s2 that produce it.
    for n in range(1, 7):
        for lam in partitions_of(n):
            seen = Counter(block_count_vectors(lam, s2)
                           for s2 in permutations(range(n)))
            listed = [tuple(sorted(parts)) for parts in vector_partitions(lam)]
            assert len(listed) == len(set(listed)) == len(seen), lam
            for vectors in listed:
                assert seen[vectors] == vector_multiplicity(lam, vectors), \
                    (lam, vectors)


def test_census_enumerator_yields_the_spanning_partitions():
    # Each spanning vector partition with at least len(lam) parts (whites
    # >= blacks) once, in the reference's part order, and no other.  There
    # are none when lam is all ones and n > 1.
    for n in range(1, 9):
        for lam in partitions_of(n):
            listed = Counter(_vector_partitions(lam))
            assert set(listed.values()) <= {1}, lam
            reference = [parts for parts in vector_partitions(lam)
                         if len(parts) >= len(lam)
                         and spans([sum(1 << w for w, x in enumerate(v) if x)
                                    for v in parts])]
            assert listed == Counter(reference), lam


def test_unpruned_census_is_closed_under_color_swap():
    # Swapping s1 and s2 swaps whites and blacks: every class has its color
    # swap in the census, with the same orbit count.  graph_census keeps
    # only the classes with whites >= blacks because of this.
    for n in range(1, 9):
        classes = graph_census_unpruned(n)
        census = {g.canonical_key(): count for g, count in classes}
        swapped = {color_swap(g).canonical_key(): count
                   for g, count in classes}
        assert census == swapped, n
        assert any(w > b for w, b, _ in census) == (n > 1), n
        for g, _ in classes:
            h = color_swap(g)
            assert (h.whites, h.blacks) == (g.blacks, g.whites), g
            assert color_swap(h) == g, g


def test_graph_census_is_the_half_with_whites_at_least_blacks():
    sizes = {}
    for n in range(1, 9):
        census = [(g.canonical_key(), count) for g, count in graph_census(n)]
        full = [(g.canonical_key(), count) for g, count in full_census(n)]
        assert census == [(key, count) for key, count in full
                          if key[0] >= key[1]], n
        sizes[n] = (len(census), len(full))
    assert (sizes[6], sizes[7]) == ((34, 57), (76, 124))


def test_graph_census_matches_unpruned():
    for n in range(1, 9):
        census = [(g.canonical_key(), count) for g, count in full_census(n)]
        unpruned = [(g.canonical_key(), count)
                    for g, count in graph_census_unpruned(n)]
        assert census == unpruned, n


def test_graph_census_totals_through_9():
    for n in range(1, 10):
        census = full_census(n)
        assert sum(count for _, count in census) == \
            indecomposable_permutations(n + 1), n
        for g, _ in census:
            assert g.is_connected() and not g.has_isolated_vertex(), (n, g)


def test_graph_census_rejects_partial_orbits(monkeypatch):
    # Half the class size of the 3-cycles leaves 3/2 orbits of the graph
    # with two whites and one black.
    monkeypatch.setattr(maps, "z_factor",
                        lambda lam: z_factor(lam) * (2 if lam == (3,) else 1))
    with pytest.raises(AssertionError):
        graph_census(3)


def test_kl_top_7():
    census = full_census(7)
    assert len(census) == 124
    assert sum(count for _, count in census) == \
        indecomposable_permutations(8) == 29093
    table = kl_top(7)
    for _, coeff in table.items():
        assert coeff.denominator == 1 and coeff >= 0
    for lam in [(1,), (3, 1), (2, 2, 2), (4, 2, 1), (5, 3, 1)]:
        assert ch_top_eval(7, lam) == kl_evaluate(table, lam), lam


def test_kl_top_9():
    table = kl_top(9)
    terms = list(table.items())
    assert len(terms) == 30
    for _, coeff in terms:
        assert coeff.denominator == 1 and coeff > 0


def stirling_first(n, k):
    """Unsigned Stirling number of the first kind c(n, k), by the recurrence
    c(m + 1, k) = m c(m, k) + c(m, k - 1)."""
    row = [1]
    for m in range(n):
        row = [m * (row[j] if j < len(row) else 0) + (row[j - 1] if j else 0)
               for j in range(m + 2)]
    return row[k]


def test_kl_top_closed_form_anchors():
    # For n <= 9: the support of kl_top(n) is g^0 R_{n+1} and every g^k R_mu
    # with k >= 1, mu nonempty with parts >= 2 and k + |mu| = n + 1, p(n)
    # terms with positive integer coefficients; the column g^(n-k) R_(k+1)
    # holds the Stirling numbers c(n, k); and the row g^1 R_mu, |mu| = n,
    # is n (l - 1)! prod (mu_i - 1) / (2 prod_j m_j(mu)!).
    for n in range(1, 10):
        table = kl_top(n)
        terms = dict(table.items())
        support = {(0, (n + 1,))} | {(k, mu) for k in range(1, n)
                                     for mu in partitions_of(n + 1 - k)
                                     if min(mu) >= 2}
        assert set(terms) == support, n
        assert len(terms) == len(list(partitions_of(n))), n
        assert all(c.denominator == 1 and c > 0 for c in terms.values()), n
        for k in range(1, n + 1):
            assert table.coeff(n - k, (k + 1,)) == stirling_first(n, k), (n, k)
        for mu in partitions_of(n):
            if min(mu) >= 2:
                want = Fraction(
                    n * factorial(len(mu) - 1) * prod(m - 1 for m in mu),
                    2 * prod(map(factorial, multiplicities(mu).values())))
                assert table.coeff(1, mu) == want, (n, mu)
