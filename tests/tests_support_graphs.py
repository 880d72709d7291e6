"""Shared test helpers: brute enumeration of small bicolored graphs, two
embedding counts that production replaced (the black-side recursion and
the smaller-side variable elimination), as references, the color swap,
the full class list of the census and the smaller side of a class, the
tuple-keyed step sequences (first met, as production reads them, or first
covered) and the tree built from them that the chain-tree trie replaced,
as references, the node paths of a chain-sum tree and its signature up to
node order, the tree pairs of the free cumulants with their graph
classes, and the unpruned vector partitions with the connectivity test
that the census enumerator replaced."""

from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Sequence

from jacktop.maps import (BicoloredGraph, IsolatedVertex, compose, cycles,
                          full_cycle, graph_census, graph_classes, inverse)
from jacktop.young import conjugate_levels, levels


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


def count_embeddings_level_sum(g: BicoloredGraph, lam) -> int:
    """Reference embedding count by variable elimination over the smaller
    side: _level_sum over the blacks on the levels of lam when whites >=
    blacks, else over the whites on the levels of lam'.  Uncached; raises
    IsolatedVertex as the production count does."""
    if g.has_isolated_vertex():
        raise IsolatedVertex(repr(g))
    if g.blacks == 0:
        return 1  # vacuous graph
    if not lam:
        return 0
    if g.whites >= g.blacks:
        return _level_sum(g.blacks, g.adjacency, *levels(lam))
    return _level_sum(g.whites, g.black_neighbors(), *conjugate_levels(lam))


def _level_sum(size: int, nbrs: Sequence[Iterable[int]],
               value: list[int], weight: list[int]) -> int:
    """The sum over f: range(size) -> levels of prod_s weight[f(s)] times,
    for each neighborhood in nbrs, the least value[f(s)] over its s.

    f is assigned one s at a time, and partial assignments are merged by
    the running minimum of every neighborhood (variable elimination): a
    neighborhood's minimum is multiplied in at its largest s, after which,
    like one not yet met, it holds max(value)."""
    nbrs = [tuple(nb) for nb in nbrs]
    last = [max(nb) for nb in nbrs]
    hi = max(value)
    states = {(hi,) * len(nbrs): 1}
    for s in range(size):
        inner = [o for o, nb in enumerate(nbrs) if s in nb and s < last[o]]
        final = [o for o, end in enumerate(last) if end == s]
        merged: dict[tuple[int, ...], int] = {}
        for state, acc in states.items():
            for w, v in zip(weight, value):
                least = list(state)
                term = acc * w
                for o in inner:
                    if v < least[o]:
                        least[o] = v
                for o in final:
                    term *= min(least[o], v)
                    least[o] = hi
                key = tuple(least)
                merged[key] = merged.get(key, 0) + term
        states = merged
    return sum(states.values())


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


def smaller_side(g: BicoloredGraph) -> tuple[int, Sequence[Iterable[int]]]:
    """The smaller side of a class and its larger side's neighborhoods in
    it: the blacks when whites >= blacks, else the whites."""
    if g.whites >= g.blacks:
        return g.blacks, g.adjacency
    return g.whites, g.black_neighbors()


def step_sequences(small: int, sets: Sequence[Iterable[int]],
                   covered: bool = False
                   ) -> dict[tuple[tuple[int, int], ...], int]:
    """Reference: the number of strict chains {} < U_1 < ... < U_j =
    range(small) of each step sequence ((a_i, c_i)): a_i vertices join at
    step i, and c_i of the sets first meet U_i, or are first covered by
    U_i if covered (the complements of the chains, in reverse order, turn
    one reading into the other with the sequences reversed).  One pass
    over the pairs U < U' of subsets, each sequence a tuple."""
    full = (1 << small) - 1
    masks = [sum(1 << v for v in s) for s in sets]
    reached = [sum(1 for m in masks if (not m & ~u if covered else m & u))
               for u in range(full + 1)]
    ending: list[dict] = [{} for _ in range(full + 1)]
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


def sequence_tree(coeffs: dict[tuple, dict[tuple[int, int], int]]) -> tuple:
    """Reference: the maps._Chains of {sequence: {shape: coefficient}}, one
    node per distinct prefix, built one depth at a time: the sequences
    longer than the depth move to the child of their node for their next
    step, made the first time it is asked for."""
    seqs = list(coeffs)
    at = [0] * len(seqs)
    parent, step, ends = [0], [0], [1]
    steps: dict[tuple[int, int], int] = {}
    live = [i for i, seq in enumerate(seqs) if seq]
    depth = 0
    while live:
        children: dict[tuple[int, int], int] = {}
        for i in live:
            key = (at[i], steps.setdefault(seqs[i][depth], len(steps)))
            child = children.get(key)
            if child is None:
                child = children[key] = len(parent)
                parent.append(key[0])
                step.append(key[1])
            at[i] = child
        depth += 1
        ends.append(len(parent))
        live = [i for i in live if len(seqs[i]) > depth]
    terms = tuple((node, shape, coeff)
                  for node, by_shape in zip(at, coeffs.values())
                  for shape, coeff in by_shape.items())
    return parent, step, tuple(steps), tuple(ends), terms


def chain_paths(tree) -> list[tuple]:
    """The step sequence of each node of a maps._chain_tree, read off the
    path from the root."""
    parent, step, steps, _, _ = tree
    paths = [()]
    for i in range(1, len(parent)):
        paths.append(paths[parent[i]] + (steps[step[i]],))
    return paths


def chain_signature(tree) -> tuple:
    """A chain-sum tree up to the order of its nodes, steps and terms: its
    node paths sorted, its ends, and its terms by node path, sorted."""
    paths = chain_paths(tree)
    return (sorted(paths), tuple(tree[3]),
            sorted((paths[i], shape, c) for i, shape, c in tree[4]))


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
