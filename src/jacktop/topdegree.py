"""Top-degree part of the one-row character, via map enumeration.

Both top-degree routes read one graph-class census, _census(n): the
bicolored graphs spanned by the conjugation orbits of transitive
permutation pairs, grouped up to isomorphism, each with its orbit count
(counting orbits cancels the (n-1)! division exactly).  The census
(maps.graph_census) fixes one first permutation per cycle type, weighted
by its class size, and enumerates the block-count vector partitions of
the second instead of the permutations themselves.  It keeps the classes
with whites >= blacks; the others are their color swaps (s1 and s2
exchanged), at the same orbit count.
Direct evaluation on a diagram reads the chain expansion of the census,
built once per n on the first query: per shape (whites, blacks), the
integer coefficients of the step sequences of its classes, weighted by
their orbit counts (maps._chain_tree).  A step sequence stands for a sum
over increasing levels of the diagram, from the shortest row, of a product
of level factors, and the embedding counts of a class are such chain sums
(maps.count_embeddings takes them one class at a time); its color swap's
are the same sums on the conjugate diagram.  The same memo holds the
integer weight of each shape, its sign, power of A and power of g = -A +
1/A expanded.  A query evaluates the sequences in one pass over the
levels, adds each shape total times its weight as ints, builds one Laurent
polynomial, and is memoised per (n, diagram); the class-by-class sum of a
test-side embedding count is its oracle.  The symbolic expansion in the
g/R ring adds up orbit counts as ints, one total per power of g and sorted
expander weight.  The labeled pair sum is kept as an oracle.  The moment
and cumulant functions over permutations, related by the set-partition
formula, live here as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms
from math import comb, factorial
from typing import Iterator, Sequence

from . import cache
from .exact import KLPoly, Laurent, gamma_power_A
from .maps import (BicoloredGraph, Perm, _chain_sums, _Chains, _chain_tree,
                   compose, cycles, graph_census, inverse, is_transitive_pair,
                   normalized_embeddings)
from .young import Partition, conjugate_levels, levels


class DomainMismatch(ValueError):
    """Expander weight not defined exactly on the black vertices."""


# Hit by the warm queries of a top-map round: 13 of its 26 lookups.
_CH_TOP_CACHE: dict[tuple[int, Partition], Laurent] = {}


def ch_top_eval(n: int, lam: Partition) -> Laurent:
    """Evaluate the top-degree character part on a diagram: the sum of
    -count_G * g**(n+1-w-b) * (normalized embeddings of G) over the graph
    classes G of size n.

    The summand of a class is count_G * N_G(lam) times the weight of its
    shape (w, b), (-1)**(b+1) * A**(w-b) * (-A + 1/A)**(n+1-w-b), with
    count_G its number of orbits and N_G(lam) its embedding count.  The
    shape totals of count_G * N_G(lam) are read off _chain_expansion(n):
    each step sequence ((a_1, c_1), ..., (a_j, c_j)) of a shape contributes
    its coefficient times the sum over levels l_1 < ... < l_j of
    prod_i x[l_i]**a_i * y[l_i]**c_i, with (y, x) the row lengths and
    multiplicities from the shortest row: those of lam (young.levels) on
    the first tree, and those of lam' (young.conjugate_levels) on the
    second, the color swaps, as in maps.count_embeddings.  Each shape total
    times its integer weight, from the same memo, is added into one
    exponent -> int dict, and the Laurent polynomial is built from it once.
    Values are memoised per (n, lam); n < 1 is a ValueError before the
    memo is read."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hit = _CH_TOP_CACHE.get((n, lam))
    if hit is not None:
        return hit
    shapes: dict[tuple[int, int], int] = {}
    by_blacks, by_whites, weights = _chain_expansion(n)
    values, mult = levels(lam)
    _chain_sums(by_blacks, mult, values, shapes)
    values, mult = conjugate_levels(lam)
    _chain_sums(by_whites, mult, values, shapes)
    total: dict[int, int] = {}
    for shape, value in shapes.items():
        for e, v in weights[shape].items():
            total[e] = total.get(e, 0) + value * v
    result = Laurent._of({e: Fraction(v) for e, v in total.items() if v})
    _CH_TOP_CACHE[(n, lam)] = result
    return result


# Hit by every cold top-map query after the first: 12 per round.
@lru_cache(maxsize=None)
def _chain_expansion(n: int
                     ) -> tuple[_Chains, _Chains, dict[tuple[int, int], dict]]:
    """The embedding counts of every class of size n as level polynomials:
    a maps._chain_tree for _census(n), whose classes have whites >= blacks,
    and one for their color swaps; and the weight of each of their shapes.

    A class of shape (w, b) counts sum over its step sequences of their
    chain counts times sum_{l_1 < ... < l_j} prod_i x[l_i]**a_i *
    y[l_i]**c_i (maps.count_embeddings), and a shape's coefficient of a
    sequence is the sum of count_G times chain count over its classes.  A
    color swap counts what its class counts on the conjugate diagram, so
    the second tree walks the same blacks at the swapped shape, and holds
    the classes with whites > blacks only: a sub-trie of the first."""
    census = _census(n)
    weights = {shape: _shape_weight(n, *shape) for g, _ in census
               for shape in ((g.whites, g.blacks), (g.blacks, g.whites))}
    stored = _chain_tree((g.blacks, g.adjacency, (g.whites, g.blacks), count)
                         for g, count in census)
    swaps = _chain_tree((g.blacks, g.adjacency, (g.blacks, g.whites), count)
                        for g, count in census if g.whites > g.blacks)
    return stored, swaps, weights


def _shape_weight(n: int, w: int, b: int) -> dict[int, int]:
    """(-1)**(b+1) * A**(w-b) * (-A + 1/A)**k, k = n+1-w-b, as an exponent
    -> int dict: the binomial expansion puts (-1)**(b+1+i) * C(k, i) at
    A**(w-b-k+2i)."""
    k = n + 1 - w - b
    return {w - b - k + 2 * i: (-1) ** (b + 1 + i) * comb(k, i)
            for i in range(k + 1)}


def ch_top_eval_labeled(n: int, lam: Partition) -> Laurent:
    """Oracle route: sum over all labeled transitive pairs, divided by (n-1)!."""
    total = Laurent.zero()
    for s1 in _itperms(range(n)):
        s1 = tuple(s1)
        for s2 in _itperms(range(n)):
            s2 = tuple(s2)
            if not is_transitive_pair(s1, s2):
                continue
            c1 = len(cycles(s1))
            c2 = len(cycles(s2))
            emb = normalized_embeddings(s1, s2, lam)
            if emb:
                total = total + gamma_power_A(n + 1 - c1 - c2) * emb
    return -total.scale(Fraction(1, factorial(n - 1)))


def is_expander(g: BicoloredGraph, weight: dict[int, int]) -> bool:
    """Whether (g, weight) satisfies the expander conditions.

    The weight maps each black vertex to an integer >= 2; the white count
    must equal the total weight excess, and every proper nonempty black
    subset must see strictly more whites than its own excess.
    """
    if set(weight) != set(range(g.blacks)):
        raise DomainMismatch(
            f"weight domain {sorted(weight)} != blacks 0..{g.blacks - 1}")
    if any(q < 2 for q in weight.values()):
        raise ValueError("expander weights must be >= 2")
    excess = sum(q - 1 for q in weight.values())
    if g.whites != excess:
        return False
    if g.blacks >= 2:
        masks = [sum(1 << b for b in s) for s in g.adjacency]
        for subset in range(1, (1 << g.blacks) - 1):
            seen = sum(1 for mask in masks if mask & subset)
            need = sum(weight[b] - 1 for b in range(g.blacks)
                       if subset >> b & 1)
            if seen <= need:
                return False
    return True


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of `total` into `parts` positive parts, colexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for last in range(1, total - parts + 2):
        for rest in _compositions(total - last, parts - 1):
            yield rest + (last,)


def expander_weights(g: BicoloredGraph) -> Iterator[dict[int, int]]:
    """All expander weights of a graph, in colexicographic order."""
    for comp in _compositions(g.whites, g.blacks):
        weight = {b: comp[b] + 1 for b in range(g.blacks)}
        if is_expander(g, weight):
            yield weight


def kl_top(n: int) -> KLPoly:
    """The g/R expansion of the top-degree character part: the int sum of
    count_G * g**(n+1-w-b) * prod R_q over the classes G of _census(n) and
    their expander weights q; the g power records the genus-like defect,
    the R indices are the weights.  n < 1 is a ValueError before any cache
    is read."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    disk = cache.ACTIVE
    if disk is not None:
        stored = disk.load_kl_top(n)
        if stored is not None:
            return stored

    coeffs: dict[tuple[int, tuple[int, ...]], int] = {}
    for g, count in _census(n):
        gexp = n + 1 - g.whites - g.blacks
        for weight in expander_weights(g):
            key = (gexp, tuple(sorted(weight.values(), reverse=True)))
            coeffs[key] = coeffs.get(key, 0) + count
    total = KLPoly(coeffs)
    if disk is not None:
        disk.store_kl_top(n, total)
    return total


# Hit once per top-map round and 5 times over the verify suites.
@lru_cache(maxsize=None)
def _census(n: int) -> tuple[tuple[BicoloredGraph, int], ...]:
    """The graph classes of size n with whites >= blacks and their orbit
    counts; both routes read it."""
    return tuple(graph_census(n))


def moment_M(perm: Perm, lam: Partition) -> Laurent:
    """(-1)**|C(pi)| times the embedding sum over all factorizations of pi."""
    return _moment_or_cumulant(perm, lam, transitive_only=False)


def cumulant_K(perm: Perm, lam: Partition) -> Laurent:
    """Same as the moment, restricted to transitive factorizations."""
    return _moment_or_cumulant(perm, lam, transitive_only=True)


def _moment_or_cumulant(perm: Perm, lam: Partition, transitive_only: bool) -> Laurent:
    n = len(perm)
    total = Laurent.zero()
    for s1 in _itperms(range(n)):
        s1 = tuple(s1)
        s2 = compose(inverse(s1), perm)
        if transitive_only and not is_transitive_pair(s1, s2):
            continue
        total = total + normalized_embeddings(s1, s2, lam)
    sign = -1 if len(cycles(perm)) % 2 else 1
    return total.scale(sign)


def set_partitions_above(blocks: Sequence[tuple[int, ...]]) -> Iterator[list[list[int]]]:
    """Set partitions of the ground set that are coarser than the given blocks."""
    items = list(blocks)

    def rec(rest: list, current: list[list]):
        if not rest:
            yield [sorted(x for blk in group for x in blk) for group in current]
            return
        head, tail = rest[0], rest[1:]
        for group in current:
            group.append(head)
            yield from rec(tail, current)
            group.pop()
        current.append([head])
        yield from rec(tail, current)
        current.pop()

    yield from rec(items, [])


def restricted_perm(perm: Perm, block: Sequence[int]) -> Perm:
    """Restriction of perm to an invariant subset, relabeled to 0..len-1."""
    order = sorted(block)
    pos = {x: i for i, x in enumerate(order)}
    return tuple(pos[perm[x]] for x in order)
