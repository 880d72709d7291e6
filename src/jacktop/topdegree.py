"""Top-degree part of the one-row character, via map enumeration.

Both top-degree routes read one graph-class census, _census(n): the
bicolored graphs spanned by the conjugation orbits of transitive
permutation pairs, grouped up to isomorphism, each with its orbit count
(counting orbits cancels the (n-1)! division exactly).  The census
(maps.graph_census) fixes one first permutation per cycle type, weighted
by its class size, and enumerates the block-count vector partitions of
the second instead of the permutations themselves.
Direct evaluation on a diagram adds up orbit counts times embedding counts
as ints, one total per shape (whites, blacks), and expands each power of g
once; the embedding counts enumerate the smaller side of each graph.  The
symbolic expansion in the g/R ring adds up orbit counts as ints, one total
per power of g and sorted expander weight.  The labeled pair sum is kept
as an oracle.  The moment and cumulant functions over permutations,
related by the set-partition formula, live here as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms
from math import factorial
from typing import Iterator, Sequence

from . import cache
from .exact import KLPoly, Laurent, addmul_ints, gamma_power_A, int_coeffs
from .maps import (BicoloredGraph, Perm, compose, count_embeddings, cycles,
                   graph_census, inverse, is_transitive_pair,
                   normalized_embeddings)
from .young import Partition


class DomainMismatch(ValueError):
    """Expander weight not defined exactly on the black vertices."""


def ch_top_eval(n: int, lam: Partition) -> Laurent:
    """Evaluate the top-degree character part on a diagram: the sum of
    -count_G * g**(n+1-w-b) * (normalized embeddings of G) over _census(n).

    The summand of a class is -count_G * N_G(lam) * g**(n+1-w-b) *
    A**(w-b) * (-1)**b, with count_G its number of orbits, N_G(lam) its
    embedding count and (w, b) its shape (whites, blacks).  So the ints
    -count_G * N_G(lam) are added up per shape over the census, and the
    nonzero shape totals of each power of g are expanded once, on the
    integer coefficients of (-A + 1/A)**(n+1-w-b)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    shapes: dict[tuple[int, int], int] = {}
    for g, count in _census(n):
        embeddings = count_embeddings(g, lam)
        if embeddings:
            shape = (g.whites, g.blacks)
            shapes[shape] = shapes.get(shape, 0) - count * embeddings
    by_power: dict[int, dict[int, int]] = {}
    for (w, b), value in shapes.items():
        if value:
            by_power.setdefault(n + 1 - w - b, {})[w - b] = \
                -value if b % 2 else value
    total: dict[int, int] = {}
    for e, part in by_power.items():
        addmul_ints(total, int_coeffs(gamma_power_A(e)), part)
    return Laurent(total)


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


_KL_TOP_CACHE: dict[int, KLPoly] = {}


def kl_top(n: int) -> KLPoly:
    """The g/R expansion of the top-degree character part: the int sum of
    count_G * g**(n+1-w-b) * prod R_q over the classes G of _census(n) and
    their expander weights q; the g power records the genus-like defect,
    the R indices are the weights.  n < 1 is a ValueError before any cache
    is read."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hit = _KL_TOP_CACHE.get(n)
    if hit is not None:
        return hit
    disk = cache.ACTIVE
    if disk is not None:
        stored = disk.load_kl_top(n)
        if stored is not None:
            _KL_TOP_CACHE[n] = stored
            return stored

    coeffs: dict[tuple[int, tuple[int, ...]], int] = {}
    for g, count in _census(n):
        gexp = n + 1 - g.whites - g.blacks
        for weight in expander_weights(g):
            key = (gexp, tuple(sorted(weight.values(), reverse=True)))
            coeffs[key] = coeffs.get(key, 0) + count
    total = KLPoly(coeffs)
    _KL_TOP_CACHE[n] = total
    if disk is not None:
        disk.store_kl_top(n, total)
    return total


@lru_cache(maxsize=None)
def _census(n: int) -> tuple[tuple[BicoloredGraph, int], ...]:
    """Graph classes of size n with orbit counts; both routes read it."""
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
