import random
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacktop import maps
from jacktop.exact import Laurent
from jacktop.maps import (BicoloredGraph, IsolatedVertex, NotTransitive,
                          SizeMismatch, _chain_sums, _chain_tree,
                          canonical_orbit_rep, compose, count_embeddings,
                          count_embeddings_naive, cycles, cycle_type,
                          enumerate_transitive_pairs, full_cycle,
                          graph_of_pair, identity, inverse, is_transitive_pair,
                          normalized_embeddings, orbit_census, pair_orbit,
                          parse_perm, perm_from_cycle_type)
from jacktop.young import (conjugate_levels, enumerate_partitions, levels,
                           transpose)


def test_cycles_and_compose():
    assert cycles(identity(3)) == [(0,), (1,), (2,)]
    assert len(cycles(full_cycle(3))) == 1
    swap = (1, 0)
    assert compose(swap, swap) == identity(2)
    with pytest.raises(SizeMismatch):
        compose(identity(2), identity(3))


def test_parse_perm():
    assert parse_perm("2,1,3") == (1, 0, 2)
    with pytest.raises(ValueError):
        parse_perm("2,2,3")


def test_cycle_type_and_from():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type(perm_from_cycle_type((3, 2))) == (3, 2)


def test_transitivity_basics():
    n = 4
    assert is_transitive_pair(identity(n), full_cycle(n))
    assert not is_transitive_pair(identity(2), identity(2))
    with pytest.raises(SizeMismatch):
        is_transitive_pair(identity(2), identity(3))


def _group_closure_transitive(a, b):
    """Independent oracle: orbit of 0 under the generated group via BFS."""
    n = len(a)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in (a, b, inverse(a), inverse(b)):
            y = p[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


def test_transitive_count_n2():
    pairs = list(enumerate_transitive_pairs(2))
    assert len(pairs) == 3
    assert ((0, 1), (0, 1)) not in pairs


def test_transitive_pairs_vs_group_closure_n3():
    expected = [(tuple(a), tuple(b))
                for a in permutations(range(3)) for b in permutations(range(3))
                if _group_closure_transitive(tuple(a), tuple(b))]
    assert list(enumerate_transitive_pairs(3)) == expected


def test_orbit_census_small():
    census2 = orbit_census(2)
    assert len(census2) == 3 and all(s == 1 for _, s in census2)
    census3 = orbit_census(3)
    assert len(census3) == 13 and all(s == 2 for _, s in census3)
    total = sum(s for _, s in census3)
    assert total == len(list(enumerate_transitive_pairs(3)))


def test_orbit_sizes_factorial_n_le_5():
    from math import factorial
    for n in range(1, 6):
        assert all(s == factorial(n - 1) for _, s in orbit_census(n))


def orbit_census_flood(n):
    """The census by flooding: the least pair and the size of the orbit of
    every transitive pair, sorted."""
    orbits = (pair_orbit(a, b) for a, b in enumerate_transitive_pairs(n))
    return sorted({(min(orbit), len(orbit)) for orbit in orbits})


def test_orbit_census_matches_flood():
    for n in range(1, 6):
        assert orbit_census(n) == orbit_census_flood(n), n


def test_canonical_rep_idempotent():
    for a, b in enumerate_transitive_pairs(3):
        rep = canonical_orbit_rep(a, b)
        assert canonical_orbit_rep(*rep) == rep
        assert rep in pair_orbit(a, b)
    with pytest.raises(NotTransitive):
        canonical_orbit_rep(identity(2), identity(2))


def test_census_reps_are_canonical():
    for rep, _ in orbit_census(4):
        assert canonical_orbit_rep(*rep) == rep


def test_graph_of_pair():
    g = graph_of_pair(identity(2), (1, 0))
    assert (g.whites, g.blacks) == (2, 1)
    assert all(s == frozenset({0}) for s in g.adjacency)
    g = graph_of_pair((1, 0), (1, 0))
    assert (g.whites, g.blacks) == (1, 1)
    g = graph_of_pair(identity(1), identity(1))
    assert (g.whites, g.blacks) == (1, 1)


def test_transitive_pair_gives_connected_graph():
    for a, b in enumerate_transitive_pairs(4):
        assert graph_of_pair(a, b).is_connected()


def test_count_embeddings_examples():
    edge = BicoloredGraph(1, 1, [{0}])
    assert count_embeddings(edge, (2, 1)) == 3
    assert count_embeddings(edge, ()) == 0
    path = BicoloredGraph(2, 1, [{0}, {0}])
    assert count_embeddings(path, (1,)) == 1


def test_count_embeddings_isolated():
    lonely = BicoloredGraph(2, 1, [{0}, set()])
    with pytest.raises(IsolatedVertex):
        count_embeddings(lonely, (1,))


def test_isolated_vertex_raises_with_a_warm_cache():
    # The cache is read before the isolated-vertex test; no key of a graph
    # with an isolated vertex may be served from it.
    for g in (BicoloredGraph(2, 1, [{0}, {0}]), BicoloredGraph(1, 2, [{0, 1}]),
              BicoloredGraph(2, 2, [{0, 1}, {0, 1}])):
        for lam in [(1,), (2, 1), (3, 3, 1)]:
            count_embeddings(g, lam)
    for lonely in (BicoloredGraph(2, 1, [{0}, set()]),
                   BicoloredGraph(1, 2, [{0}]),
                   BicoloredGraph(2, 2, [{0}, {0}]),
                   BicoloredGraph(0, 1, [])):
        for lam in [(1,), (2, 1), (3, 3, 1)]:
            with pytest.raises(IsolatedVertex):
                count_embeddings(lonely, lam)


def test_embeddings_match_naive_oracle():
    from tests_support_graphs import all_small_graphs
    graphs = all_small_graphs()
    diagrams = list(enumerate_partitions(4))
    # (w,b) in {(1,1),(1,2),(1,3),(2,1),(3,1)} give one covering graph each,
    # (2,2) gives 7, for 12 ordered-white graphs in total.
    assert len(graphs) == 12
    for g in graphs:
        for lam in diagrams:
            assert count_embeddings(g, lam) == count_embeddings_naive(g, lam), \
                (g, lam)


def test_census_embeddings_match_black_side_reference(monkeypatch):
    # Every graph class of the census for n <= 6, counted afresh on every
    # diagram with at most ten boxes, against the black-side recursion the
    # smaller-side count replaced, and against the raw enumeration up to
    # five boxes.  Each count builds one chain tree, of one class on its
    # smaller side, on the empty diagram too.
    from tests_support_graphs import count_embeddings_black_side, full_census
    sizes = []
    real = maps._chain_tree
    monkeypatch.setattr(maps, "_EMBED_CACHE", {})
    monkeypatch.setattr(maps, "_chain_tree",
                        lambda classes: sizes.append([c[0] for c in classes])
                        or real(classes))
    classes = {g.canonical_key(): g for n in range(1, 7)
               for g, _ in full_census(n)}
    shapes = {(g.whites > g.blacks) - (g.whites < g.blacks)
              for g in classes.values()}
    assert shapes == {-1, 0, 1}
    for g in classes.values():
        for lam in enumerate_partitions(10):
            sizes.clear()
            got = count_embeddings(g, lam)
            assert sizes == [[min(g.whites, g.blacks)]]
            assert got == count_embeddings_black_side(g, lam), (g, lam)
            if sum(lam) <= 5:
                assert got == count_embeddings_naive(g, lam), (g, lam)


def test_embeddings_of_color_swap_on_conjugate(monkeypatch):
    # N_G(lam) = N_{swap G}(lam'): exchanging whites and blacks exchanges
    # columns and rows.  count_embeddings uses it when whites < blacks.
    from tests_support_graphs import color_swap, full_census
    monkeypatch.setattr(maps, "_EMBED_CACHE", {})
    for n in range(1, 7):
        for g, _ in full_census(n):
            for lam in enumerate_partitions(5):
                got = count_embeddings(g, lam)
                assert got == count_embeddings(color_swap(g), transpose(lam)) \
                    == count_embeddings_naive(g, lam), (g, lam)


# One row of a million boxes, a column of a thousand and the 12-row
# staircase: one level each for the first two, twelve for the last.
LONG_DIAGRAMS = [(10 ** 6,), (1,) * 1000, tuple(range(12, 0, -1))]


def test_census_embeddings_match_level_sum_reference(monkeypatch):
    # The chain sums against the variable elimination they replaced, which
    # shares no code with them, on every class for n <= 7 (both sides of
    # the whites/blacks split) and every diagram with at most ten boxes,
    # then on a long row, a long column and a staircase.
    from tests_support_graphs import count_embeddings_level_sum, full_census
    monkeypatch.setattr(maps, "_EMBED_CACHE", {})
    classes = [g for n in range(1, 8) for g, _ in full_census(n)]
    assert {(g.whites > g.blacks) - (g.whites < g.blacks)
            for g in classes} == {-1, 0, 1}
    for lam in list(enumerate_partitions(10)) + LONG_DIAGRAMS:
        for g in classes:
            assert count_embeddings(g, lam) == \
                count_embeddings_level_sum(g, lam), (g, lam[:12])


def brute_chain_sum(seq, x, y):
    """sum over l_1 < ... < l_j of prod_i x[l_i]**a_i * y[l_i]**c_i, one
    increasing tuple of levels at a time."""
    return sum(prod(x[l] ** a * y[l] ** c for l, (a, c) in zip(ls, seq))
               for ls in combinations(range(len(x)), len(seq)))


def random_sequences(rng):
    """{sequence: {shape: coefficient}} over a few steps, so that prefixes
    are shared, with the empty sequence now and then."""
    steps = [(1, 0), (1, 2), (2, 1), (3, 0)]
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        seq = tuple(rng.choice(steps) for _ in range(rng.randint(0, 4)))
        for shape in rng.sample([(1, 1), (2, 1), (3, 2)], rng.randint(1, 2)):
            coeffs.setdefault(seq, {})[shape] = rng.choice([-3, -1, 1, 2, 5])
    return coeffs


CHAIN_DIAGRAMS = [(), (4,), (3, 3, 3), (2, 2, 1), (5, 3, 3, 1), (6, 4, 2, 1),
                  (7, 5, 4, 2, 2, 1)]


def test_chain_tree_of_one_class_matches_reference():
    # The trie of one class of size n <= 7 on its smaller side, weighted by
    # its orbit count, against the reference tree of that side's
    # tuple-keyed first met sequences, on either side of the whites/blacks
    # split.  Nodes are numbered by depth with each parent first, and each
    # step is listed once.
    from tests_support_graphs import (chain_paths, chain_signature,
                                      full_census, sequence_tree,
                                      smaller_side, step_sequences)
    for n in range(1, 8):
        for g, count in full_census(n):
            shape = (g.whites, g.blacks)
            small, sets = smaller_side(g)
            seqs = step_sequences(small, sets)
            tree = _chain_tree([(small, sets, shape, count)])
            reference = sequence_tree({seq: {shape: count * chains}
                                       for seq, chains in seqs.items()})
            assert chain_signature(tree) == chain_signature(reference), g
            parent, _, steps, _, _ = tree
            assert len(set(steps)) == len(steps)
            assert all(parent[i] < i for i in range(1, len(parent)))
            depths = list(map(len, chain_paths(tree)))
            assert depths == sorted(depths)


def test_first_met_sequences_are_first_covered_reversed():
    # A chain U_1 < ... < U_j and the chain of the complements of its sets,
    # in reverse order, pair up the two readings: a set first met by U_i is
    # first covered by the complement of U_{i-1}.  So the first met
    # sequences of a side are its first covered ones reversed, with the
    # same chain counts, on every class of size n <= 7.
    from tests_support_graphs import (full_census, smaller_side,
                                      step_sequences)
    for n in range(1, 8):
        for g, _ in full_census(n):
            small, sets = smaller_side(g)
            covered = step_sequences(small, sets, covered=True)
            assert step_sequences(small, sets) == \
                {seq[::-1]: chains for seq, chains in covered.items()}, g


def test_chain_sums_match_brute_force():
    # The reference tree holds one node per distinct prefix, numbered by
    # depth with each parent first, ends[d] one past the last node of depth
    # <= d, and a term per (sequence, shape, coefficient) at the node whose
    # path is the sequence.  Its chain sums equal the sums over increasing
    # level tuples: on the levels of the empty diagram, of one-level
    # diagrams, of lam and of lam' (young.conjugate_levels), and on random
    # level lists.
    from tests_support_graphs import chain_paths, sequence_tree
    rng = random.Random(28)
    level_lists = [f(lam) for lam in CHAIN_DIAGRAMS
                   for f in (levels, conjugate_levels)]
    level_lists += [([rng.randint(-2, 4) for _ in range(t)],
                     [rng.randint(-2, 4) for _ in range(t)])
                    for t in range(6) for _ in range(3)]
    for _ in range(60):
        coeffs = random_sequences(rng)
        tree = sequence_tree(coeffs)
        parent, step, steps, ends, terms = tree
        assert len(set(steps)) == len(steps)
        assert all(parent[i] < i for i in range(1, len(parent)))
        paths = chain_paths(tree)
        assert sorted(paths) == sorted({seq[:k] for seq in coeffs
                                        for k in range(len(seq) + 1)})
        depths = list(map(len, paths))
        assert depths == sorted(depths)
        assert list(ends) == [sum(x <= d for x in depths)
                              for d in range(depths[-1] + 1)]
        assert sorted((paths[i], shape, c) for i, shape, c in terms) == \
            sorted((seq, shape, c) for seq, by_shape in coeffs.items()
                   for shape, c in by_shape.items())
        for values, mult in level_lists:
            expected = {}
            for seq, by_shape in coeffs.items():
                chain = brute_chain_sum(seq, mult, values)
                for shape, coeff in by_shape.items():
                    expected[shape] = expected.get(shape, 0) + coeff * chain
            shapes = {}
            _chain_sums(tree, mult, values, shapes)
            assert {k: v for k, v in shapes.items() if v} == \
                {k: v for k, v in expected.items() if v}, (coeffs, mult)


def test_empty_graph_and_empty_diagram(monkeypatch):
    # The empty graph has one embedding in every diagram, the empty one
    # too; a graph with an edge has none in the empty diagram.  A graph
    # with an isolated vertex raises, on a miss and on the empty diagram.
    monkeypatch.setattr(maps, "_EMBED_CACHE", {})
    empty = BicoloredGraph(0, 0, [])
    for lam in [(), (1,), (2, 1), (10 ** 6,), (1,) * 1000]:
        assert count_embeddings(empty, lam) == 1, lam
    for g in (BicoloredGraph(1, 1, [{0}]), BicoloredGraph(2, 1, [{0}, {0}]),
              BicoloredGraph(1, 2, [{0, 1}])):
        assert count_embeddings(g, ()) == 0, g
    for lonely in (BicoloredGraph(2, 1, [{0}, set()]),
                   BicoloredGraph(1, 2, [{0}]), BicoloredGraph(1, 0, [set()]),
                   BicoloredGraph(0, 1, [])):
        for lam in [(), (1,), (3, 1)]:
            with pytest.raises(IsolatedVertex):
                count_embeddings(lonely, lam)


@st.composite
def covering_graphs(draw):
    whites = draw(st.integers(1, 4))
    blacks = draw(st.integers(1, 4))
    masks = draw(st.lists(st.integers(1, (1 << blacks) - 1),
                          min_size=whites, max_size=whites))
    extra = draw(st.lists(st.integers(0, whites - 1), min_size=blacks,
                          max_size=blacks))
    for b, w in enumerate(extra):  # every black gets a neighbor
        masks[w] |= 1 << b
    return BicoloredGraph(whites, blacks,
                          [{b for b in range(blacks) if m >> b & 1}
                           for m in masks])


repeated_diagrams = st.lists(st.integers(1, 4), max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(covering_graphs(), repeated_diagrams)
@settings(max_examples=200, deadline=None)
def test_embeddings_match_black_side_reference(g, lam):
    from tests_support_graphs import count_embeddings_black_side
    maps._EMBED_CACHE.pop((g.canonical_key(), lam), None)
    assert count_embeddings(g, lam) == count_embeddings_black_side(g, lam)


def test_normalized_embeddings_examples():
    assert normalized_embeddings(identity(2), (1, 0), (1,)) == Laurent({1: -1})
    assert normalized_embeddings((1, 0), identity(2), (1,)) == Laurent({-1: 1})
    assert normalized_embeddings((1, 0), (1, 0), ()).is_zero()


def test_normalized_embeddings_orbit_invariant():
    for lam in [(2, 1), (3,), (1, 1, 1)]:
        for a, b in enumerate_transitive_pairs(3):
            base = normalized_embeddings(a, b, lam)
            for pa, pb in pair_orbit(a, b):
                assert normalized_embeddings(pa, pb, lam) == base


perm_strategy = st.permutations(list(range(4))).map(tuple)


@given(perm_strategy, perm_strategy)
@settings(max_examples=30)
def test_transitivity_matches_group_closure(a, b):
    assert is_transitive_pair(a, b) == _group_closure_transitive(a, b)


@given(perm_strategy)
def test_cycles_partition_ground_set(p):
    cs = cycles(p)
    seen = sorted(x for c in cs for x in c)
    assert seen == list(range(4))


def test_canonical_graph_key_is_isomorphism_invariant():
    from itertools import permutations as _perms
    g = BicoloredGraph(3, 2, [{0, 1}, {0}, {1}])
    base = g.canonical_key()
    for bp in _perms(range(2)):
        for wp in _perms(range(3)):
            relabeled = BicoloredGraph(
                3, 2, [{bp[b] for b in g.adjacency[wp[w]]} for w in range(3)])
            assert relabeled.canonical_key() == base


@pytest.mark.parametrize("whites,blacks,adjacency", [
    (2, 4, [{0, 1, 2}, {2, 3}]),               # whites < blacks
    (3, 3, [{0, 1}, {1, 2}, {2}]),             # whites = blacks
    (4, 2, [{0, 1}, {0}, {1}, {1}]),           # whites > blacks
    # Degree ties on the relabeled side.
    (3, 3, [{0, 1}, {1, 2}, {2, 0}]),          # the six-cycle, all degree 2
    (3, 4, [{0, 1}, {1, 2}, {2, 3}]),          # whites < blacks, all 2
])
def test_canonical_graph_key_under_every_relabeling(whites, blacks, adjacency):
    g = BicoloredGraph(whites, blacks, adjacency)
    base = g.canonical_key()
    assert base[:2] == (whites, blacks)
    for bp in permutations(range(blacks)):
        for wp in permutations(range(whites)):
            relabeled = BicoloredGraph(
                whites, blacks,
                [{bp[b] for b in g.adjacency[wp[w]]} for w in range(whites)])
            assert relabeled.canonical_key() == base


def test_canonical_graph_key_is_complete():
    # Equal keys exactly on isomorphic graphs: the brute-force invariant is
    # the least adjacency over all relabelings of both sides.
    from tests_support_graphs import all_small_graphs

    def brute(g):
        return (g.whites, g.blacks, min(
            tuple(sorted(tuple(sorted(bp[b] for b in g.adjacency[wp[w]]))
                         for w in range(g.whites)))
            for bp in permutations(range(g.blacks))
            for wp in permutations(range(g.whites))))

    graphs = all_small_graphs(6)
    assert {(g.whites > g.blacks) - (g.whites < g.blacks)
            for g in graphs} == {-1, 0, 1}
    classes = {}
    for g in graphs:
        classes.setdefault(g.canonical_key(), set()).add(brute(g))
    assert all(len(found) == 1 for found in classes.values())
    assert len(classes) == len({brute(g) for g in graphs})


def test_canonical_graph_key_separates():
    from tests_support_graphs import all_small_graphs
    from jacktop.young import enumerate_partitions
    graphs = all_small_graphs()
    fingerprints = {}
    for g in graphs:
        fp = tuple(count_embeddings(g, lam) for lam in enumerate_partitions(4))
        fingerprints.setdefault(g.canonical_key(), set()).add(fp)
    # a shared memo key must never mix graphs with different counts
    for key, fps in fingerprints.items():
        assert len(fps) == 1, key
