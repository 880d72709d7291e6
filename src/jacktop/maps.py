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
that give it.  Only the spanning vector partitions (connected graphs) are
built, and graphs are grouped by a canonical key that relabels the smaller
side only within blocks of equal degree.  orbit_census lists the orbits
by their least pairs, for the census command and as graph_census's
oracle; a test-side flood of every pair's orbit is its own oracle.
"""

from __future__ import annotations

from itertools import accumulate, permutations as _itperms, product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .exact import Laurent
from .young import Partition, levels, partitions_of, z_factor

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


_CENSUS_CACHE: dict[int, list] = {}


def orbit_census(n: int) -> list[tuple[tuple[Perm, Perm], int]]:
    """All orbits of transitive pairs as (least pair, orbit size), sorted.

    The least pair (a, b) of an orbit has a least among its conjugates by
    the stabilizer and b least among its conjugates by C(a), the
    centralizer of a there, so only such a are scanned, in order.  The
    orbit size is |stabilizer| / |{pi in C(a) : pi b pi**-1 = b}|.
    """
    hit = _CENSUS_CACHE.get(n)
    if hit is not None:
        return hit
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
    _CENSUS_CACHE[n] = out
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

    __slots__ = ("whites", "blacks", "adjacency", "_key")

    def __init__(self, whites: int, blacks: int,
                 adjacency: Sequence[frozenset | set]):
        if len(adjacency) != whites:
            raise ValueError("adjacency must list one black-set per white")
        self.whites = whites
        self.blacks = blacks
        self.adjacency = tuple(frozenset(s) for s in adjacency)
        self._key = None
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
        of one shape compare like with like.  It is computed once per
        graph."""
        if self._key is None:
            if self.whites > self.blacks:
                best = _least_masks(self.blacks, self.adjacency)
            else:
                best = _least_masks(self.whites, self.black_neighbors())
            self._key = (self.whites, self.blacks, best)
        return self._key

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


_EMBED_CACHE: dict[tuple, int] = {}


def count_embeddings(g: BicoloredGraph, lam: Partition) -> int:
    """Number of embeddings of g into lam: a column c_w <= lam[0] for each
    white and a row r_b for each black, with c_w <= lam[r_b] on every edge.

    Equal rows form levels: v_1 > ... > v_t are the distinct row lengths,
    m_i rows have length v_i, M_i = m_1 + ... + m_i rows have length at
    least v_i, and v_{t+1} = 0.  Only the smaller side is enumerated.  When
    whites >= blacks the count is the sum over f: blacks -> levels of

        prod_b m[f(b)] * prod_w v[max f(N(w))],

    since a white may take exactly the columns of the shortest row among
    its neighbors.  When whites < blacks it is the column-level dual, the
    sum over h: whites -> levels of

        prod_w (v[h(w)] - v[h(w) + 1]) * prod_b M[min h(N(b))],

    since a column c with v_{i+1} < c <= v_i fits in exactly the first M_i
    rows.  Both take the least neighbor value (v falls and M rises with
    the level), which _level_sum sums.  Counts are cached per (class, lam).

    These counts serve moment_M and cumulant_K, through
    normalized_embeddings, and the labeled oracle.  topdegree.ch_top_eval
    reads the same sums from its chain expansion of the census, and this
    function, class by class, is that route's test oracle.
    """
    key = (g.canonical_key(), lam)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        # canonical_key is complete, so a hit is a class that passed the
        # isolated-vertex test below.
        return hit
    if g.has_isolated_vertex():
        raise IsolatedVertex(repr(g))

    if g.blacks == 0:
        result = 1  # vacuous graph
    elif not lam:
        result = 0
    else:
        values, mult = levels(lam)
        if g.whites >= g.blacks:
            result = _level_sum(g.blacks, g.adjacency, mult, values)
        else:
            widths = [v - w for v, w in zip(values, values[1:] + [0])]
            result = _level_sum(g.whites, g.black_neighbors(), widths,
                                list(accumulate(mult)))

    _EMBED_CACHE[key] = result
    return result


def _level_sum(size: int, nbrs: Sequence[Iterable[int]],
               weight: list[int], value: list[int]) -> int:
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
    """The multisets of nonzero vectors in N**len(lam) that sum to lam and
    span: with one white per entry of lam and one black per vector, joined
    where the vector is nonzero, the bicolored graph is connected.  Each
    multiset comes once, as its parts in one fixed order.

    A part's leading index is the first nonzero coordinate of what remains,
    and parts with the same leading index come in non-increasing
    lexicographic order; so equal parts are adjacent, and every part chosen
    leaves a remainder that can be finished (by unit vectors at least).
    The parts placed so far join their whites into components.  A later
    part only takes from whites with something left, so a component short
    of all whites with nothing left on any of its whites can never be
    joined to the rest: its branch is cut as the component forms.  Nothing
    is left at a leaf, so every leaf that is reached spans."""
    ell = len(lam)
    full = (1 << ell) - 1
    # (lead, rem[lead + 1:]) -> the tails (coordinates after lead) in
    # decreasing lexicographic order, each with its white mask and the mask
    # of the whites it empties.
    tails_of: dict[tuple, list[tuple[tuple[int, ...], int, int]]] = {}

    def branch(rem: tuple[int, ...], left: int, lead: int,
               prev: tuple[int, ...] | None, comps: list[int]):
        """The parts that may follow prev, each with the remainder, the
        whites with something left and the components after it."""
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
    """graph_classes(orbit_reps(n)) without listing pairs: each graph class
    of transitive pairs with its number of orbits, in canonical-key order.

    The graph of a pair only depends on the pair up to conjugation, so s1 is
    one permutation per cycle type lam, weighted by its class size n!/z_lam.
    The graph then depends on s2 only through the block-count vector of
    each cycle b of s2, whose entry w counts the elements b takes from the
    w-th cycle of s1.  These vectors form a vector partition of lam, and
    prod_w lam_w! * prod_b (|c_b| - 1)! / (prod_{b,w} c_{b,w}! * prod_v r_v!)
    permutations s2 share a multiset of vectors c_b, where r_v counts the
    repeats of the vector v.  The pair is transitive exactly when its graph
    is connected, so only spanning vector partitions are enumerated; a
    branch that cannot span any more is cut as it is built.  A labeled
    graph is the white count (the cycles of s1) and the sorted white masks
    (the supports of the vectors).  Labeled graphs are grouped by
    canonical_key, which relabels the smaller side only within blocks of
    equal degree.  Each class total counts labeled pairs; it must divide
    exactly by the orbit size (n-1)!, and a remainder raises.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labeled: dict[tuple, int] = {}
    for lam in partitions_of(n):
        base = factorial(n) // z_factor(lam) * prod(map(factorial, lam))
        # vector -> (white mask, (|v| - 1)!, prod of v_w!)
        terms: dict[tuple[int, ...], tuple[int, int, int]] = {}
        for parts in _vector_partitions(lam):
            for v in parts:
                if v not in terms:
                    terms[v] = (sum(1 << w for w, x in enumerate(v) if x),
                                factorial(sum(v) - 1), prod(map(factorial, v)))
            masks = [terms[v][0] for v in parts]
            num, den, run = base, 1, 1
            for b, v in enumerate(parts):
                _, cyclic, shares = terms[v]
                run = run + 1 if b and parts[b - 1] == v else 1
                num *= cyclic
                den *= shares * run
            pairs, rest = divmod(num, den)
            if rest:
                raise AssertionError(
                    f"{lam}: {parts} weighs {num}/{den}, not a whole number "
                    f"of pairs")
            key = (len(lam), tuple(sorted(masks)))
            labeled[key] = labeled.get(key, 0) + pairs

    graphs = ((BicoloredGraph(whites, len(masks),
                              [[b for b, m in enumerate(masks) if m >> w & 1]
                               for w in range(whites)]), pairs)
              for (whites, masks), pairs in labeled.items())
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
