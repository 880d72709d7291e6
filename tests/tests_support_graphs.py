"""Shared test helpers: brute enumeration of small bicolored graphs, the
black-side embedding count that production replaced, as a reference, the
color swap and the full class list of the census, the tree pairs of the
free cumulants with their graph classes, and the unpruned vector
partitions with the connectivity test that the census enumerator
replaced."""

from functools import lru_cache
from itertools import permutations, product

from jacktop.maps import (BicoloredGraph, IsolatedVertex, compose, cycles,
                          full_cycle, graph_census, graph_classes, inverse)


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


def color_swap(g: BicoloredGraph) -> BicoloredGraph:
    """The same graph with its blacks as whites and whites as blacks."""
    return BicoloredGraph(g.blacks, g.whites, g.black_neighbors())


def full_census(n: int) -> list[tuple[BicoloredGraph, int]]:
    """Every graph class of transitive pairs of size n with its orbit
    count, in canonical-key order.  (s1, s2) -> (s2, s1) maps the pairs of
    a class one to one onto those of its color swap, and graph_census(n)
    keeps the classes with whites >= blacks; the others are the color
    swaps of those with whites > blacks, at the same orbit count."""
    census = graph_census(n)
    swaps = [(color_swap(g), count) for g, count in census
             if g.whites > g.blacks]
    return sorted(census + swaps, key=lambda entry: entry[0].canonical_key())


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


def spans(masks: list[int]) -> bool:
    """Whether the blacks, given as white bitmasks that together cover all
    whites, form a connected bicolored graph."""
    reach, rest = masks[0], masks[1:]
    while rest:
        left = []
        for m in rest:
            if m & reach:
                reach |= m
            else:
                left.append(m)
        if len(left) == len(rest):
            return False
        rest = left
    return True


def vector_partitions(lam):
    """All multisets of nonzero vectors in N**len(lam) that sum to lam,
    spanning or not, each once, as its parts in one fixed order.

    A part's leading index is the first nonzero coordinate of what remains,
    and parts with the same leading index come in non-increasing
    lexicographic order; so equal parts are adjacent, and every part chosen
    leaves a remainder that can be finished (by unit vectors at least)."""
    ell = len(lam)
    parts = []

    def rec(rem, lead, prev):
        while lead < ell and not rem[lead]:
            lead, prev = lead + 1, None
        if lead == ell:
            yield tuple(parts)
            return
        top = rem[lead] if prev is None else min(rem[lead], prev[lead])
        tails = [range(rem[j], -1, -1) for j in range(lead + 1, ell)]
        for first in range(top, 0, -1):
            for tail in product(*tails):
                v = (0,) * lead + (first,) + tail
                if prev is not None and v > prev:
                    continue
                parts.append(v)
                yield from rec(tuple(map(int.__sub__, rem, v)), lead, v)
                parts.pop()

    yield from rec(tuple(lam), 0, None)
