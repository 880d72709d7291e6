"""Partitions, Young diagrams and multirectangular coordinates.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty diagram.  Boxes are 1-indexed pairs (x, y) in the
French convention: x is the column, y the row, and (x, y) belongs to lam
iff x <= lam[y-1].
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial
from typing import Iterator

from .exact import Laurent

Partition = tuple  # tuple[int, ...], weakly decreasing, positive entries


class NotDecreasing(ValueError):
    """Sequence violates the weakly-decreasing requirement."""


def partition(parts) -> Partition:
    """Validate and canonicalize an iterable of parts into a Partition.

    The parts must weakly decrease; trailing zeros are dropped, and a zero
    followed by a positive part is NotDecreasing."""
    p = tuple(int(x) for x in parts)
    for a, b in zip(p, p[1:]):
        if a < b:
            raise NotDecreasing(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part: {p}")
    return p[:p.index(0)] if 0 in p else p


def parse_partition(text: str) -> Partition:
    """Parse the text syntax '4,2,2'; '0' or '' is the empty diagram.

    Each part is ASCII digits, with optional surrounding spaces; any other
    part is a ValueError worded as int()'s for a non-numeric string."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    parts = [x.strip() for x in text.split(",")]
    for x in parts:
        if not (x.isascii() and x.isdigit()):
            raise ValueError(f"invalid literal for int() with base 10: {x!r}")
    return partition(int(x) for x in parts)


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p) if p else "0"


def levels(p: Partition) -> tuple[list[int], list[int]]:
    """The distinct row lengths v_1 > ... > v_t of p and their
    multiplicities m_1, ..., m_t."""
    values: list[int] = []
    mult: list[int] = []
    for row in p:
        if values and values[-1] == row:
            mult[-1] += 1
        else:
            values.append(row)
            mult.append(1)
    return values, mult


def conjugate_levels(p: Partition) -> tuple[list[int], list[int]]:
    """levels(p') in the reverse order, read off levels(p) = (v, m): rows
    of length M_l = m_1 + ... + m_l, v_l - v_{l+1} of each (v_{t+1} = 0)."""
    values, mult = levels(p)
    return (list(accumulate(mult)),
            [v - w for v, w in zip(values, values[1:] + [0])])


def size(p: Partition) -> int:
    return sum(p)


def length(p: Partition) -> int:
    return len(p)


def multiplicities(p: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for x in p:
        m[x] = m.get(x, 0) + 1
    return m


def z_factor(p: Partition) -> int:
    """The numerical factor prod_i i**m_i * m_i!."""
    z = 1
    for i, m in multiplicities(p).items():
        z *= i ** m * factorial(m)
    return z


def boxes(p: Partition) -> Iterator[tuple[int, int]]:
    """Boxes (x, y) in row-major order."""
    for y, row in enumerate(p, start=1):
        for x in range(1, row + 1):
            yield (x, y)


def content(box: tuple[int, int]) -> Laurent:
    """The deformed content A*x - (1/A)*y of the box (x, y)."""
    x, y = box
    return Laurent({1: x, -1: -y})


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    out = [0] * p[0]
    for row in p:
        for i in range(row):
            out[i] += 1
    return tuple(out)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of exactly n, in lexicographically decreasing order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int, prefix: tuple):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """All partitions of size 0..max_size, by size then lex decreasing."""
    for n in range(max_size + 1):
        yield from partitions_of(n)


def to_partition(p_prime, q_prime) -> Partition:
    """The multirectangular diagram: q'_i repeated p'_i times."""
    p_prime = tuple(int(x) for x in p_prime)
    q_prime = tuple(int(x) for x in q_prime)
    if len(p_prime) != len(q_prime):
        raise ValueError("P' and Q' must have equal length")
    if any(x < 0 for x in p_prime) or any(x < 0 for x in q_prime):
        raise ValueError("multirectangular coordinates must be nonnegative")
    for a, b in zip(q_prime, q_prime[1:]):
        if a < b:
            raise NotDecreasing(f"Q' not weakly decreasing: {q_prime}")
    rows: list[int] = []
    for reps, row in zip(p_prime, q_prime):
        if row > 0:
            rows.extend([row] * reps)
    return tuple(rows)
