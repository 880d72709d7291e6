"""Shared test helpers: brute enumeration of small bicolored graphs, the
black-side embedding count that production replaced, as a reference, and
the tree pairs of the free cumulants with their graph classes."""

from functools import lru_cache
from itertools import permutations

from jacktop.maps import (BicoloredGraph, IsolatedVertex, compose, cycles,
                          full_cycle, graph_classes, inverse)


def _nonempty_subsets(b):
    for mask in range(1, 1 << b):
        yield frozenset(i for i in range(b) if mask >> i & 1)


def all_small_graphs(max_vertices: int = 4) -> list[BicoloredGraph]:
    """All bicolored graphs without isolated vertices and at most
    max_vertices vertices, with ordered white sides."""
    out = []
    for w in range(1, max_vertices):
        for b in range(1, max_vertices - w + 1):
            subsets = list(_nonempty_subsets(b))

            def rec(i, adj):
                if i == w:
                    covered = set().union(*adj)
                    if len(covered) == b:
                        out.append(BicoloredGraph(w, b, list(adj)))
                    return
                for s in subsets:
                    rec(i + 1, adj + [s])

            rec(0, [])
    return out


def count_embeddings_black_side(g: BicoloredGraph, lam) -> int:
    """Reference embedding count by the black-side min-product recursion:
    the sum over row assignments of the blacks, grouped by row length, of
    the product over whites of the shortest row among their neighbors.
    Uncached; raises IsolatedVertex as the production count does."""
    if g.has_isolated_vertex():
        raise IsolatedVertex(repr(g))
    if g.blacks == 0:
        return 1
    if not lam:
        return 0
    values: list[int] = []
    mult: list[int] = []
    for row in lam:
        if values and values[-1] == row:
            mult[-1] += 1
        else:
            values.append(row)
            mult.append(1)
    t = len(values)
    masks = [sum(1 << b for b in s) for s in g.adjacency]
    total = 0
    assign = [0] * g.blacks

    def rec(b: int, weight: int):
        nonlocal total
        if b == g.blacks:
            prod = weight
            for mask in masks:
                m = mask
                best = None
                while m:
                    low = (m & -m).bit_length() - 1
                    v = values[assign[low]]
                    if best is None or v < best:
                        best = v
                    m &= m - 1
                prod *= best
                if prod == 0:
                    break
            total += prod
            return
        for i in range(t):
            assign[b] = i
            rec(b + 1, weight * mult[i])

    rec(0, 1)
    return total


def tree_pairs(k: int) -> list[tuple]:
    """The tree pairs of R_k: (s1, s2) in S_(k-1) with s1*s2 the full cycle
    and k cycles in total."""
    cyc = full_cycle(k - 1)
    found = []
    for s1 in permutations(range(k - 1)):
        s2 = compose(inverse(s1), cyc)
        if len(cycles(s1)) + len(cycles(s2)) == k:
            found.append((s1, s2))
    return found


@lru_cache(maxsize=None)
def tree_pair_classes(k: int) -> tuple:
    """The tree pairs of R_k grouped by spanned graph, with their counts."""
    return tuple(graph_classes(tree_pairs(k)))
