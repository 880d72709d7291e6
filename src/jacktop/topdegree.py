"""Top-degree part of the one-row character, via map enumeration.

Both top-degree routes read one graph-class census, _census(n): the
bicolored graphs spanned by the conjugation orbits of transitive
permutation pairs, grouped up to isomorphism, each with its orbit count
(counting orbits cancels the (n-1)! division exactly).  The census
(maps.graph_census) fixes one first permutation per cycle type, weighted
by its class size, and enumerates the block-count vector partitions of
the second instead of the permutations themselves.
Direct evaluation on a diagram reads the chain expansion of the census,
built once per n on the first query: per shape (whites, blacks), integer
coefficients of step sequences, each standing for a sum over increasing
row levels of the diagram of a product of level factors; the embedding
counts of a class are such sums over the chains of level sets of its
smaller side.  A query evaluates the sequences in one pass over the levels,
expands each power of g once, and is memoised per (n, diagram);
maps.count_embeddings, class by class, is its test oracle.  The
symbolic expansion in the g/R ring adds up orbit counts as ints, one total
per power of g and sorted expander weight.  The labeled pair sum is kept
as an oracle.  The moment and cumulant functions over permutations,
related by the set-partition formula, live here as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations as _itperms
from math import factorial
from typing import Iterable, Iterator, Sequence

from . import cache
from .exact import KLPoly, Laurent, addmul_ints, gamma_power_A, int_coeffs
from .maps import (BicoloredGraph, Perm, compose, cycles, graph_census,
                   inverse, is_transitive_pair, normalized_embeddings)
from .young import Partition, levels


class DomainMismatch(ValueError):
    """Expander weight not defined exactly on the black vertices."""


_CH_TOP_CACHE: dict[tuple[int, Partition], Laurent] = {}


def ch_top_eval(n: int, lam: Partition) -> Laurent:
    """Evaluate the top-degree character part on a diagram: the sum of
    -count_G * g**(n+1-w-b) * (normalized embeddings of G) over _census(n).

    The summand of a class is -count_G * N_G(lam) * g**(n+1-w-b) *
    A**(w-b) * (-1)**b, with count_G its number of orbits, N_G(lam) its
    embedding count and (w, b) its shape (whites, blacks).  The shape
    totals of count_G * N_G(lam) are read off _chain_expansion(n): each
    step sequence ((a_1, c_1), ..., (a_j, c_j)) of a shape contributes its
    coefficient times the sum over levels l_1 < ... < l_j of lam of
    prod_i x[l_i]**a_i * y[l_i]**c_i, with (x, y) = (m, v) when w >= b and
    (v_l - v_{l+1}, M_l) when w < b (see maps.count_embeddings).  The nonzero
    shape totals of each power of g are expanded once, on the integer
    coefficients of (-A + 1/A)**(n+1-w-b).  Values are memoised per
    (n, lam); n < 1 is a ValueError before the memo is read."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hit = _CH_TOP_CACHE.get((n, lam))
    if hit is not None:
        return hit
    values, mult = levels(lam)
    widths = [v - w for v, w in zip(values, values[1:] + [0])]
    shapes: dict[tuple[int, int], int] = {}
    by_blacks, by_whites = _chain_expansion(n)
    _chain_sums(by_blacks, mult, values, shapes)
    _chain_sums(by_whites, widths, list(accumulate(mult)), shapes)
    by_power: dict[int, dict[int, int]] = {}
    for (w, b), value in shapes.items():
        if value:
            by_power.setdefault(n + 1 - w - b, {})[w - b] = \
                value if b % 2 else -value
    total: dict[int, int] = {}
    for e, part in by_power.items():
        addmul_ints(total, int_coeffs(gamma_power_A(e)), part)
    result = Laurent(total)
    _CH_TOP_CACHE[(n, lam)] = result
    return result


# The step sequences of one side of _chain_expansion(n) as a prefix tree,
# (parent, a, c, ends, terms): node 0 is the empty sequence, nodes are
# ordered by depth, and node i > 0 appends the step (a[i], c[i]) to node
# parent[i]; ends[d] is one past the last node of depth <= d; terms lists
# (node, shape, coefficient) for each sequence of a shape.
_Chains = tuple


def _chain_sums(chains: _Chains, x: list[int], y: list[int],
                shapes: dict[tuple[int, int], int]) -> None:
    """Add each term's coefficient times the sum over l_1 < ... < l_j of
    prod_i x[l_i]**a_i * y[l_i]**c_i to shapes[shape], in one pass over the
    levels: at level l every node (deepest first) adds its parent's sum over
    the levels before l times the level-l factor of its own step."""
    parent, a, c, ends, terms = chains
    sums = [1] + [0] * (len(parent) - 1)
    top_a, top_c = max(a), max(c)
    for level, (xl, yl) in enumerate(zip(x, y)):
        xp = [xl ** k for k in range(top_a + 1)]
        yp = [yl ** k for k in range(top_c + 1)]
        for i in range(ends[min(level + 1, len(ends) - 1)] - 1, 0, -1):
            sums[i] += sums[parent[i]] * xp[a[i]] * yp[c[i]]
    for i, shape, coeff in terms:
        if sums[i]:
            shapes[shape] = shapes.get(shape, 0) + coeff * sums[i]


@lru_cache(maxsize=None)
def _chain_expansion(n: int) -> tuple[_Chains, _Chains]:
    """The embedding counts of _census(n) as level polynomials, for the
    classes with whites >= blacks and for those with whites < blacks.

    A map f from the smaller side to the levels of a diagram, with used
    levels l_1 < ... < l_j, is a strict chain U_1 < ... < U_j of the
    smaller side's level sets U_i = f^-1{l_1..l_i}.  It takes a_i =
    |U_i| - |U_{i-1}| vertices to level l_i, and in maps.count_embeddings'
    product the larger-side vertices whose neighborhood is first covered
    (w >= b: N is a subset of U_i) or first met (w < b: N meets U_i) at
    step i take level l_i; c_i counts them.  So a class is the sum over
    its step sequences ((a_i, c_i)) of their chain counts times
    sum_{l_1 < ... < l_j} prod_i x[l_i]**a_i * y[l_i]**c_i, and a shape's
    coefficient of a sequence is the sum of count_G times chain count over
    its classes."""
    coeffs: tuple[dict, dict] = ({}, {})
    for g, count in _census(n):
        covered = g.whites >= g.blacks
        if covered:
            small, sets = g.blacks, g.adjacency
        else:
            small, sets = g.whites, g.black_neighbors()
        shape = (g.whites, g.blacks)
        side = coeffs[0 if covered else 1]
        for seq, chains in _step_sequences(small, sets, covered).items():
            by_shape = side.setdefault(seq, {})
            by_shape[shape] = by_shape.get(shape, 0) + count * chains
    return _prefix_tree(coeffs[0]), _prefix_tree(coeffs[1])


def _step_sequences(small: int, sets: Sequence[Iterable[int]],
                    covered: bool) -> dict[tuple[tuple[int, int], ...], int]:
    """The number of strict chains {} < U_1 < ... < U_j = range(small) of
    each step sequence ((a_i, c_i)): a_i vertices join at step i, and c_i
    of the sets are first covered by U_i (covered) or first meet U_i (not
    covered).  One pass over the pairs U < U' of subsets."""
    full = (1 << small) - 1
    masks = [sum(1 << v for v in s) for s in sets]
    if covered:
        reached = [sum(1 for m in masks if not m & ~u) for u in range(full + 1)]
    else:
        reached = [sum(1 for m in masks if m & u) for u in range(full + 1)]
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


def _prefix_tree(coeffs: dict[tuple, dict[tuple[int, int], int]]) -> _Chains:
    """The _Chains of {sequence: {shape: coefficient}}."""
    prefixes = sorted({()} | {seq[:k] for seq in coeffs
                              for k in range(len(seq) + 1)},
                      key=lambda seq: (len(seq), seq))
    node = {seq: i for i, seq in enumerate(prefixes)}
    depth = len(prefixes[-1])
    parent = (0,) + tuple(node[seq[:-1]] for seq in prefixes[1:])
    a = (0,) + tuple(seq[-1][0] for seq in prefixes[1:])
    c = (0,) + tuple(seq[-1][1] for seq in prefixes[1:])
    ends = tuple(sum(1 for seq in prefixes if len(seq) <= d)
                 for d in range(depth + 1))
    terms = tuple((node[seq], shape, coeff)
                  for seq, by_shape in coeffs.items()
                  for shape, coeff in by_shape.items())
    return parent, a, c, ends, terms


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
