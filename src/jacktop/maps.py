"""Permutations, transitive pairs, their conjugation orbits, and the
bicolored graphs they span, together with exact embedding counts.

A permutation on [n] is a tuple of images on 0..n-1 (0-indexed internally;
the text form '2,1,3' is 1-indexed).  A pair (s1, s2) is transitive when
the group it generates acts transitively on the ground set; such pairs are
connected labeled bicolored oriented maps with n edges, and the orbits of
simultaneous conjugation by the stabilizer of the last point are the
unlabeled rooted maps.  Every such orbit has exactly (n-1)! elements.
graph_classes groups pairs by the isomorphism class of the bicolored graph
they span, which is all that the embedding sums depend on.

graph_census counts the orbits of each graph class without listing pairs:
s1 is fixed to one permutation per cycle type, weighted by the size of its
conjugacy class, and s2 enters only through the block-count vectors of its
cycles, a vector partition of the cycle type, weighted by the number of s2
that give it.  Exchanging s1 and s2 swaps the colors of a class at the same
orbit count, so the census keeps the classes with whites >= blacks: the
cycles of s2 are its whites, and only the spanning vector partitions
(connected graphs) with at least as many parts as the cycle type are
built.  Graphs are grouped by a canonical key that relabels the smaller
side only within blocks of equal degree.  orbit_census lists
the orbits by their least pairs, for the census command and as
graph_census's oracle; a test-side flood of every pair's orbit is its own
oracle.

The embedding count of a graph in a diagram is a chain sum: the step
sequences of the smaller side, each weighted by its number of chains of
level sets, summed over the levels of the diagram from the shortest row
in one pass over a tree of the sequences that shares their prefixes
(_chain_sums).  _chain_tree grows that tree as a trie during one walk
over the pairs of nested subsets of each class, counting the sets each
level set first meets: of one class for count_embeddings, of a whole
census for topdegree.ch_top_eval.  A color swap is read the same way on
the levels of the conjugate diagram.
"""

from __future__ import annotations

from itertools import permutations as _itperms, product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .exact import Laurent
from .young import Partition, conjugate_levels, levels, partitions_of, z_factor

Perm = tuple  # tuple[int, ...], images of 0..n-1


class SizeMismatch(ValueError):
    """Permutations act on ground sets of different sizes."""


class NotTransitive(ValueError):
    """Pair does not generate a transitive group."""


class IsolatedVertex(ValueError):
    """Graph has a vertex with no neighbors; embedding count is infinite."""


def identity(n: int) -> Perm:
    return tuple(range(n))


def full_cycle(n: int) -> Perm:
    """The cycle (1, 2, ..., n) in 0-indexed form."""
    return tuple((i + 1) % n for i in range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """(a b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise SizeMismatch(f"{len(a)} vs {len(b)}")
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def conjugate(pi: Perm, a: Perm) -> Perm:
    """pi a pi**-1."""
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[pi[i]] = pi[j]
    return tuple(out)


def cycles(a: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles covering the ground set, each starting at its minimum."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = a[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = a[j]
        out.append(tuple(cyc))
    return out


def cycle_type(a: Perm) -> Partition:
    return tuple(sorted((len(c) for c in cycles(a)), reverse=True))


def perm_from_cycle_type(ct: Sequence[int]) -> Perm:
    """A concrete permutation with the given cycle type."""
    out: list[int] = []
    base = 0
    for k in ct:
        out.extend([base + (i + 1) % k for i in range(k)])
        base += k
    return tuple(out)


def parse_perm(text: str) -> Perm:
    """One-line 1-indexed image list, e.g. '2,1,3'."""
    images = [int(x) - 1 for x in text.strip().split(",")]
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation: {text}")
    return tuple(images)


def format_perm(a: Perm) -> str:
    return ",".join(str(i + 1) for i in a)


def is_transitive_pair(a: Perm, b: Perm) -> bool:
    """True iff the cycles of a and b merge the ground set into one class."""
    n = len(a)
    if len(b) != n:
        raise SizeMismatch(f"{n} vs {len(b)}")
    if n == 0:
        return False
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = n
    for p in (a, b):
        for i in range(n):
            ri, rj = find(i), find(p[i])
            if ri != rj:
                parent[ri] = rj
                merged -= 1
    return merged == 1


_JOBS = 1


def set_jobs(jobs: int) -> None:
    """Worker count for the enumeration scans (results are order-stable)."""
    global _JOBS
    _JOBS = max(1, int(jobs))


def _transitive_chunk(args: tuple[int, Perm]) -> list[Perm]:
    n, s1 = args
    return [tuple(s2) for s2 in _itperms(range(n)) if is_transitive_pair(s1, s2)]


def enumerate_transitive_pairs(n: int, firsts: Sequence[Perm] | None = None
                               ) -> Iterator[tuple[Perm, Perm]]:
    """The transitive pairs whose s1 is in firsts (all of S_n by default),
    in the order of firsts, then of s2.  Worker processes (see set_jobs)
    scan the s2 of each s1 in parallel without changing the order."""
    if firsts is None:
        firsts = list(_itperms(range(n)))
    if _JOBS > 1:
        from multiprocessing import Pool
        with Pool(_JOBS) as pool:
            work = ((n, s1) for s1 in firsts)
            for s1, chunk in zip(firsts, pool.imap(_transitive_chunk, work,
                                                   chunksize=16)):
                for s2 in chunk:
                    yield (s1, s2)
        return
    for s1 in firsts:
        for s2 in _itperms(range(n)):
            if is_transitive_pair(s1, s2):
                yield (s1, tuple(s2))


def stabilizer_perms(n: int) -> list[Perm]:
    """All permutations fixing the last point, lexicographically."""
    return [tuple(p) + (n - 1,) for p in _itperms(range(n - 1))]


def pair_orbit(a: Perm, b: Perm) -> set[tuple[Perm, Perm]]:
    return {(conjugate(pi, a), conjugate(pi, b))
            for pi in stabilizer_perms(len(a))}


def canonical_orbit_rep(a: Perm, b: Perm) -> tuple[Perm, Perm]:
    """Lexicographically minimal pair in the conjugation orbit of (a, b)."""
    if not is_transitive_pair(a, b):
        raise NotTransitive(f"({format_perm(a)}, {format_perm(b)})")
    return min(pair_orbit(a, b))


def orbit_census(n: int) -> list[tuple[tuple[Perm, Perm], int]]:
    """All orbits of transitive pairs as (least pair, orbit size), sorted.

    The least pair (a, b) of an orbit has a least among its conjugates by
    the stabilizer and b least among its conjugates by C(a), the
    centralizer of a there, so only such a are scanned, in order.  The
    orbit size is |stabilizer| / |{pi in C(a) : pi b pi**-1 = b}|.
    """
    stab = stabilizer_perms(n)
    firsts = [a for a in _itperms(range(n))
              if all(conjugate(pi, a) >= a for pi in stab)]
    centralizer = {a: [pi for pi in stab if conjugate(pi, a) == a]
                   for a in firsts}
    out = []
    for a, b in enumerate_transitive_pairs(n, firsts):
        fixers = centralizer[a]
        if all(conjugate(pi, b) >= b for pi in fixers):
            fixing = sum(conjugate(pi, b) == b for pi in fixers)
            out.append(((a, b), len(stab) // fixing))
    return out


def orbit_reps(n: int) -> list[tuple[Perm, Perm]]:
    census = orbit_census(n)
    expected = factorial(n - 1)
    for rep, orbit_size in census:
        if orbit_size != expected:
            raise AssertionError(
                f"orbit of {rep} has size {orbit_size}, expected {expected}")
    return [rep for rep, _ in census]


# ---------------------------------------------------------------------------
# Bicolored graphs.  Whites and blacks are 0-indexed; adjacency holds, for
# each white vertex, the set of adjacent black vertices.

class BicoloredGraph:
    """Bipartite graph with colored sides, as white -> {black} adjacency."""

    __slots__ = ("whites", "blacks", "adjacency")

    def __init__(self, whites: int, blacks: int,
                 adjacency: Sequence[frozenset | set]):
        if len(adjacency) != whites:
            raise ValueError("adjacency must list one black-set per white")
        self.whites = whites
        self.blacks = blacks
        self.adjacency = tuple(frozenset(s) for s in adjacency)
        for s in self.adjacency:
            for v in s:
                if not 0 <= v < blacks:
                    raise ValueError(f"black index {v} out of range")

    def black_neighbors(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.blacks)]
        for w, s in enumerate(self.adjacency):
            for b in s:
                out[b].add(w)
        return out

    def has_isolated_vertex(self) -> bool:
        if any(not s for s in self.adjacency):
            return True
        covered = set()
        for s in self.adjacency:
            covered |= s
        return len(covered) < self.blacks

    def is_connected(self) -> bool:
        if self.whites + self.blacks == 0:
            return True
        nbrs = self.black_neighbors()
        todo = [("w", 0)] if self.whites else [("b", 0)]
        seen = {todo[0]}
        while todo:
            color, v = todo.pop()
            nxt = (("b", b) for b in self.adjacency[v]) if color == "w" \
                else (("w", w) for w in nbrs[v])
            for node in nxt:
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
        return len(seen) == self.whites + self.blacks

    def canonical_key(self) -> tuple:
        """Complete isomorphism invariant: the minimal sorted mask tuple of
        the larger side over the degree-preserving relabelings of the
        smaller side (the blacks when whites > blacks, else the whites);
        see _least_masks.  The side is fixed by (whites, blacks), so keys
        of one shape compare like with like."""
        if self.whites > self.blacks:
            best = _least_masks(self.blacks, self.adjacency)
        else:
            best = _least_masks(self.whites, self.black_neighbors())
        return (self.whites, self.blacks, best)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BicoloredGraph):
            return NotImplemented
        return (self.whites, self.blacks, self.adjacency) == \
            (other.whites, other.blacks, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.whites, self.blacks, self.adjacency))

    def __repr__(self) -> str:
        adj = ",".join("{" + ",".join(map(str, sorted(s))) + "}"
                       for s in self.adjacency)
        return f"BicoloredGraph(w={self.whites}, b={self.blacks}, adj=[{adj}])"


def _least_masks(small: int, sets: Sequence[Iterable[int]]
                 ) -> tuple[int, ...]:
    """The least sorted tuple of the bitmasks of sets, subsets of
    range(small), over the relabelings of range(small) that keep degrees
    (the number of sets holding a vertex).

    The vertices take their bits in blocks by degree, lowest degree on the
    lowest bits, and only relabelings within a block are tried.  An
    isomorphism preserves degrees, so isomorphic graphs try the same
    relabelings and the result is a complete invariant.  A census graph
    has whites + blacks <= n + 1, so the smaller side gives at most
    ((n+1)//2)! relabelings, and one when the degrees are distinct."""
    degree = [0] * small
    for s in sets:
        for v in s:
            degree[v] += 1
    order = sorted(range(small), key=degree.__getitem__)
    # Position i in order takes bit 1 << i, and a relabeling permutes the
    # bits within each block of equal degree.
    at = [0] * small
    blocks: list[list[int]] = []
    for i, v in enumerate(order):
        at[v] = i
        if i and degree[v] == degree[order[i - 1]]:
            blocks[-1].append(1 << i)
        else:
            blocks.append([1 << i])
    relabelings: list[tuple[int, ...]] = [()]
    for block in blocks:
        relabelings = [r + p for r in relabelings for p in _itperms(block)]
    sets = [[at[v] for v in s] for s in sets]
    return min(tuple(sorted([sum(map(bits.__getitem__, s)) for s in sets]))
               for bits in relabelings)


def graph_of_pair(a: Perm, b: Perm) -> BicoloredGraph:
    """Whites = cycles of a, blacks = cycles of b, edge iff cycles intersect."""
    if len(a) != len(b):
        raise SizeMismatch(f"{len(a)} vs {len(b)}")
    ca = cycles(a)
    cb = cycles(b)
    black_of = {}
    for j, cyc in enumerate(cb):
        for x in cyc:
            black_of[x] = j
    adjacency = [frozenset(black_of[x] for x in cyc) for cyc in ca]
    return BicoloredGraph(len(ca), len(cb), adjacency)


# Hit 516 times per cli-session pass, all by `verify moment-cumulant 3`.
_EMBED_CACHE: dict[tuple, int] = {}


def count_embeddings(g: BicoloredGraph, lam: Partition) -> int:
    """Number of embeddings of g into lam: a column c_w <= lam[0] for each
    white and a row r_b for each black, with c_w <= lam[r_b] on every edge.

    Equal rows form levels: v_1 < ... < v_t are the distinct row lengths,
    from the shortest row, and m_i rows have length v_i (young.levels).
    When whites >= blacks the count is the sum over f: blacks -> levels of

        prod_b m[f(b)] * prod_w v[min f(N(w))],

    since a white may take exactly the columns of the shortest row among
    its neighbors.  An f with used levels l_1 < ... < l_j is a strict chain
    U_1 < ... < U_j of the level sets U_i = f^-1{l_1..l_i}: a_i = |U_i| -
    |U_{i-1}| blacks take level l_i, and so do the c_i whites whose
    neighborhood U_i first meets.  So the count is the sum over the step
    sequences ((a_i, c_i)) of the blacks of their chain counts times
    sum_{l_1 < ... < l_j} prod_i m[l_i]**a_i * v[l_i]**c_i, which one
    _chain_sums pass over the _chain_tree of the class adds up.  Exchanging
    whites and blacks exchanges columns and rows, so when whites < blacks
    the graph is the color swap of one with whites > blacks, and the count
    is that graph's on lam': the same sum over the whites' sequences on
    young.conjugate_levels(lam), the levels of lam', as for the color swaps
    of topdegree._chain_expansion.  Either way only the smaller side is
    walked.  Counts are cached per (class, lam).

    These counts serve moment_M and cumulant_K, through
    normalized_embeddings, and the labeled oracle; topdegree.ch_top_eval
    reads the same chain sums for a whole census at once.
    """
    key = (g.canonical_key(), lam)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        # canonical_key is complete, so a hit is a class that passed the
        # isolated-vertex test below.
        return hit
    if g.has_isolated_vertex():
        raise IsolatedVertex(repr(g))

    shape = (g.whites, g.blacks)
    if g.whites >= g.blacks:
        side = (g.blacks, g.adjacency, shape, 1)
        values, mult = levels(lam)
    else:
        side = (g.whites, g.black_neighbors(), shape, 1)
        values, mult = conjugate_levels(lam)
    total: dict[tuple[int, int], int] = {}
    _chain_sums(_chain_tree([side]), mult, values, total)
    result = total.get(shape, 0)

    _EMBED_CACHE[key] = result
    return result


# Step sequences as a tree, (parent, step, steps, ends, terms): node 0 is
# the empty sequence, and node i > 0 appends the step steps[step[i]] =
# (a, c) to node parent[i] < i; nodes are numbered by depth, and ends[d] is
# one past the last node of depth <= d; terms lists (node, shape,
# coefficient) for each sequence of a shape.
_Chains = tuple


def _chain_tree(classes: Iterable[tuple[int, Sequence[Iterable[int]],
                                         tuple[int, int], int]]) -> _Chains:
    """The _Chains of the classes (small, sets, shape, weight): weight times
    the number of strict chains {} < U_1 < ... < U_j = range(small) of a
    step sequence ((a_i, c_i)) is its coefficient of shape, where a_i
    vertices join at step i and c_i of the sets first meet U_i.  One pass
    over the pairs U < U' of subsets per class keeps the chains that end at
    U per node of one trie that all classes share, so a step is a child
    lookup; nodes are numbered by depth at the end."""
    parent, step, depth = [0], [None], [0]
    children: dict[tuple[int, int], dict[int, int]] = {}
    coeffs: dict[tuple[int, tuple[int, int]], int] = {}
    for small, sets, shape, weight in classes:
        full = (1 << small) - 1
        masks = [sum(1 << v for v in s) for s in sets]
        reached = [sum(1 for m in masks if m & u) for u in range(full + 1)]
        ending: list[dict[int, int]] = [{} for _ in range(full + 1)]
        ending[0][0] = 1
        for u in range(full):
            rest = full ^ u
            sub = rest
            while sub:
                v = u | sub
                key = (sub.bit_count(), reached[v] - reached[u])
                kids = children.get(key)
                if kids is None:
                    kids = children[key] = {}
                into = ending[v]
                for node, chains in ending[u].items():
                    child = kids.get(node)
                    if child is None:
                        child = kids[node] = len(parent)
                        parent.append(node)
                        step.append(key)
                        depth.append(depth[node] + 1)
                    into[child] = into.get(child, 0) + chains
                sub = (sub - 1) & rest
        for node, chains in ending[full].items():
            key = (node, shape)
            coeffs[key] = coeffs.get(key, 0) + weight * chains
    ids = {key: i for i, key in enumerate(children)}
    order = sorted(range(len(parent)), key=depth.__getitem__)
    new = [0] * len(order)
    ends = [0] * (depth[order[-1]] + 1)
    for i, node in enumerate(order):
        new[node] = i
        ends[depth[node]] = i + 1
    return ([new[parent[node]] for node in order],
            [ids.get(step[node], 0) for node in order], tuple(children),
            tuple(ends), tuple((new[node], shape, coeff)
                               for (node, shape), coeff in coeffs.items()))


def _chain_sums(chains: _Chains, x: list[int], y: list[int],
                shapes: dict[tuple[int, int], int]) -> None:
    """Add each term's coefficient times the sum over l_1 < ... < l_j of
    prod_i x[l_i]**a_i * y[l_i]**c_i to shapes[shape], in one pass over the
    levels: at level l each distinct step (a, c) gets its factor x[l]**a *
    y[l]**c once, and every node (last first, so after its children) adds
    its parent's sum over the levels before l times the factor of its own
    step."""
    parent, step, steps, ends, terms = chains
    sums = [1] + [0] * (len(parent) - 1)
    last = len(ends) - 1
    for level, (xl, yl) in enumerate(zip(x, y)):
        factor = [xl ** a * yl ** c for a, c in steps]
        for i in range(ends[min(level + 1, last)] - 1, 0, -1):
            sums[i] += sums[parent[i]] * factor[step[i]]
    for i, shape, coeff in terms:
        if sums[i]:
            shapes[shape] = shapes.get(shape, 0) + coeff * sums[i]


def count_embeddings_naive(g: BicoloredGraph, lam: Partition) -> int:
    """Oracle: raw enumeration of (f1, f2) over the bounding box."""
    if g.has_isolated_vertex():
        raise IsolatedVertex(repr(g))
    if not lam:
        return 0 if (g.whites or g.blacks) else 1
    rows = len(lam)
    cols = lam[0]
    nbrs = g.black_neighbors()
    count = 0
    for f1 in product(range(1, cols + 1), repeat=g.whites):
        for f2 in product(range(1, rows + 1), repeat=g.blacks):
            ok = True
            for w in range(g.whites):
                for b in g.adjacency[w]:
                    if f1[w] > lam[f2[b] - 1]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def _by_class(weighted: Iterable[tuple[BicoloredGraph, int]]
              ) -> list[tuple[BicoloredGraph, int]]:
    """(first graph seen, summed weight) per isomorphism class, in
    canonical-key order."""
    classes: dict[tuple, list] = {}
    for g, weight in weighted:
        entry = classes.setdefault(g.canonical_key(), [g, 0])
        entry[1] += weight
    return [(g, total) for _, (g, total) in sorted(classes.items())]


def graph_classes(pairs: Iterable[tuple[Perm, Perm]]
                  ) -> list[tuple[BicoloredGraph, int]]:
    """The bicolored graphs spanned by the pairs, up to isomorphism, as
    (first graph seen, number of pairs), in canonical-key order."""
    return _by_class((graph_of_pair(a, b), 1) for a, b in pairs)


def _vector_partitions(lam: Partition) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The multisets of at least len(lam) nonzero vectors in N**len(lam)
    that sum to lam and span: with one black per entry of lam and one white
    per vector, joined where the vector is nonzero, the bicolored graph is
    connected and has whites >= blacks.  Each multiset comes once, as its
    parts in one fixed order.

    A part's leading index is the first nonzero coordinate of what remains,
    and parts with the same leading index come in non-increasing
    lexicographic order; so equal parts are adjacent, and every part chosen
    leaves a remainder that can be finished (by unit vectors at least).
    The parts placed so far join their blacks into components.  A later
    part only takes from blacks with something left, so a component short
    of all blacks with nothing left on any of its blacks can never be
    joined to the rest: its branch is cut as the component forms.  Nothing
    is left at a leaf, so every leaf that is reached spans.  Every part
    takes at least one from what remains, so at most sum(rem) parts are
    still to come: a part after which the parts placed and that bound fall
    short of len(lam) is dropped with its branch."""
    ell = len(lam)
    full = (1 << ell) - 1
    # (lead, rem[lead + 1:]) -> the tails (coordinates after lead) in
    # decreasing lexicographic order, each with its black mask and the mask
    # of the blacks it empties.
    tails_of: dict[tuple, list[tuple[tuple[int, ...], int, int]]] = {}

    def branch(rem: tuple[int, ...], left: int, lead: int,
               prev: tuple[int, ...] | None, comps: list[int]):
        """The parts that may follow prev, each with the remainder, the
        blacks with something left and the components after it."""
        while not rem[lead]:
            lead, prev = lead + 1, None
        bit = 1 << lead
        tails = tails_of.get((lead, rem[lead + 1:]))
        if tails is None:
            tails = [((), 0, 0)]
            for w in range(lead + 1, ell):
                r, b = rem[w], 1 << w
                tails = [(t + (x,), m | b if x else m, e | b if x == r else e)
                         for t, m, e in tails for x in range(r, -1, -1)]
            tails_of[lead, rem[lead + 1:]] = tails
        pad = (0,) * lead
        top = rem[lead]
        cut = 0
        if prev is not None and prev[lead] <= top:
            top = prev[lead]
            below = prev[lead + 1:]
            # The tails at or below prev's come last.
            cut = next(i for i, t in enumerate(tails) if t[0] <= below)
        for first in range(top, 0, -1):
            head = bit if first == rem[lead] else 0
            for tail, mask, empty in tails[cut:] if first == top else tails:
                mask |= bit
                joined, rest = mask, []
                for c in comps:
                    if c & mask:
                        joined |= c
                    else:
                        rest.append(c)
                still = left & ~(empty | head)
                if joined != full and not joined & still:
                    continue
                rest.append(joined)
                v = pad + (first,) + tail
                yield v, tuple(map(int.__sub__, rem, v)), still, lead, rest

    # A depth-first walk with one branch generator per placed part; parts
    # are the parts on the path to the top branch.
    parts: list[tuple[int, ...]] = []
    stack = [branch(tuple(lam), full, 0, None, [])]
    while stack:
        for v, rem, left, lead, comps in stack[-1]:
            if len(stack) + sum(rem) < ell:
                continue
            del parts[len(stack) - 1:]
            parts.append(v)
            if not left:
                yield tuple(parts)
                continue
            stack.append(branch(rem, left, lead, v, comps))
            break
        else:
            stack.pop()


def graph_census(n: int) -> list[tuple[BicoloredGraph, int]]:
    """The graph classes of transitive pairs with whites >= blacks, each
    with its number of orbits, in canonical-key order: (s1, s2) -> (s2, s1)
    maps the pairs of a class one to one onto those of its color swap, so
    the others of graph_classes(orbit_reps(n)) are left out.

    The graph of a pair only depends on the pair up to conjugation, so s1 is
    one permutation per cycle type lam, weighted by its class size n!/z_lam.
    The census takes the cycles of s1 as blacks and those of s2 as whites,
    each white a block-count vector whose entry b counts the elements the
    cycle takes from the b-th cycle of s1.  These vectors form a vector
    partition of lam, and
    prod_b lam_b! * prod_w (|c_w| - 1)! / (prod_{w,b} c_{w,b}! * prod_v r_v!)
    permutations s2 share a multiset of vectors c_w, where r_v counts the
    repeats of the vector v.  The pair is transitive exactly when its graph
    is connected, so only spanning vector partitions with at least len(lam)
    parts (whites >= blacks) are enumerated; a branch that cannot span or
    reach len(lam) parts any more is cut as it is built.  A labeled graph
    is the black count and the sorted masks of the whites (the supports of
    the vectors).  Labeled graphs are grouped by canonical_key, which
    relabels the smaller side only within blocks of equal degree.  Each
    class total counts labeled pairs; it must divide exactly by the orbit
    size (n-1)!, and a remainder raises.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labeled: dict[tuple, int] = {}
    for lam in partitions_of(n):
        base = factorial(n) // z_factor(lam) * prod(map(factorial, lam))
        # vector -> (black mask, (|v| - 1)!, prod of v_b!)
        terms: dict[tuple[int, ...], tuple[int, int, int]] = {}
        for parts in _vector_partitions(lam):
            for v in parts:
                if v not in terms:
                    terms[v] = (sum(1 << b for b, x in enumerate(v) if x),
                                factorial(sum(v) - 1), prod(map(factorial, v)))
            masks = [terms[v][0] for v in parts]
            num, den, run = base, 1, 1
            for w, v in enumerate(parts):
                _, cyclic, shares = terms[v]
                run = run + 1 if w and parts[w - 1] == v else 1
                num *= cyclic
                den *= shares * run
            pairs, rest = divmod(num, den)
            if rest:
                raise AssertionError(
                    f"{lam}: {parts} weighs {num}/{den}, not a whole number "
                    f"of pairs")
            key = (len(lam), tuple(sorted(masks)))
            labeled[key] = labeled.get(key, 0) + pairs

    graphs = ((BicoloredGraph(len(masks), blacks,
                              [[b for b in range(blacks) if m >> b & 1]
                               for m in masks]), pairs)
              for (blacks, masks), pairs in labeled.items())
    orbit = factorial(n - 1)
    out = []
    for g, pairs in _by_class(graphs):
        count, rest = divmod(pairs, orbit)
        if rest:
            raise AssertionError(
                f"{g!r}: {pairs} labeled pairs is not a whole number of "
                f"orbits of size {orbit}")
        out.append((g, count))
    return out


def normalized_embeddings(a: Perm, b: Perm, lam: Partition) -> Laurent:
    """Normalized embeddings of G = graph_of_pair(a, b)."""
    return normalized_embeddings_graph(graph_of_pair(a, b), lam)


def normalized_embeddings_graph(g: BicoloredGraph, lam: Partition) -> Laurent:
    """A**|whites| * (-1/A)**|blacks| * N_G(lam)."""
    n = count_embeddings(g, lam)
    sign = -1 if g.blacks % 2 else 1
    return Laurent({g.whites - g.blacks: sign * n})
