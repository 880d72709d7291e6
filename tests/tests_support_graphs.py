"""Shared test helpers: brute enumeration of small bicolored graphs, and
the black-side embedding count that production replaced, as a reference."""

from jacktop.maps import BicoloredGraph, IsolatedVertex


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
