"""Independent reference oracle for Jack characters.

The Jack polynomial of a diagram is built in the monomial basis as the
eigenvector of the deformed Laplace-Beltrami operator

    D = (alpha/2) * sum_i x_i**2 d_i**2 + sum_{i != j} x_i**2/(x_i - x_j) d_i

restricted to symmetric polynomials of degree n in n variables, where the
operator matrix is dominance-triangular and the eigenvalues separate along
dominance, so a back-substitution per diagram suffices.  That matrix, and
the power-sum to monomial matrix, are generated per degree from their
nonzero entries: U moves one pair of exponents at a time, and p_k raises
one part by k.  The back-substitution runs in the J normalization from
the start: the top entry is the known leading coefficient
c_lambda(alpha) = prod over boxes of (alpha*arm + leg + 1), and
by Knop-Sahi integrality every later entry is a polynomial in alpha with
integer coefficients.  U is stored by rows, so each entry sums its row's
products into one list of Python ints and divides it exactly in Z[alpha],
from the top, by the integer linear eigenvalue difference.  No step needs
a rational function or a gcd; a remainder, or a bottom coefficient other
than n!, raises.  The vector, a list of integer coefficient lists, is read
in the power-sum basis through the inverse of the power-sum to monomial
matrix.  That matrix is triangular, and each column of its inverse is
found when first read, by forward substitution on ints, as integer
numerators over one reduced denominator; so a power-sum coefficient is
one column against the vector, summed on ints and divided once.  These
coefficients are the unnormalized characters, which the normalized
character wraps per the classical
binomial/z-factor prescription: an integer factor, and alpha**e carried to
A**(2e).  A character reads only the one column it needs, against the
diagram's vector (kept in `M_VECTORS`, and with a disk cache stored as
`jack_*.json`), and builds its Laurent polynomial from the
integer numerators; the whole expansion, as AlphaPoly polynomials in
alpha, is built only by `jack_powersum`, the reference for that column.

A Gram-Schmidt construction against the deformed power-sum inner product
is provided as an independent cross-check of the same polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd

from . import cache
from .exact import AlphaPoly, Laurent, RatFunc
from .young import (Partition, length, partition, partitions_of, size,
                    transpose, z_factor)

DEFAULT_SIZE_BOUND = 8

# The Jack vectors in the monomial basis read so far, by diagram; hit 36
# times by the character queries of an oracle-full round.  cli.main empties
# it after each call, so the next call's --cache-dir sees every vector.
M_VECTORS: dict[Partition, list[list[int]]] = {}


class BoundExceeded(ValueError):
    """Requested diagram is larger than the configured oracle bound."""


# ---------------------------------------------------------------------------
# Dense-exponent machinery: a symmetric polynomial of degree n in n
# variables is a dict {exponent tuple: int}.  The coefficient of
# the monomial symmetric function m_mu is the entry at mu padded with zeros.

def _distinct_perms(values: tuple):
    """Distinct permutations of a tuple (multiset permutations)."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    keys = sorted(counts, reverse=True)
    n = len(values)
    slot = [0] * n

    def rec(pos: int):
        if pos == n:
            yield tuple(slot)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                slot[pos] = k
                yield from rec(pos + 1)
                counts[k] += 1

    yield from rec(0)


def _m_expand(mu: Partition, nvars: int) -> dict[tuple, int]:
    """Full monomial dict of m_mu in nvars variables."""
    padded = tuple(mu) + (0,) * (nvars - len(mu))
    return {a: 1 for a in _distinct_perms(padded)}


def _mul_power_sum(f: dict[tuple, int], k: int) -> dict[tuple, int]:
    """Multiply a full dict by p_k = sum_i x_i**k (the dense oracle for
    `_p_row`)."""
    out: dict[tuple, int] = {}
    for a, c in f.items():
        for i in range(len(a)):
            key = a[:i] + (a[i] + k,) + a[i + 1:]
            out[key] = out.get(key, 0) + c
    return out


def _collect_m(f: dict[tuple, int], parts: list[Partition], nvars: int) -> dict[Partition, int]:
    out = {}
    for mu in parts:
        c = f.get(tuple(mu) + (0,) * (nvars - len(mu)), 0)
        if c:
            out[mu] = c
    return out


def _diff_term(f: dict[tuple, int], i: int) -> dict[tuple, int]:
    """x_i**2 * d/dx_i applied to f."""
    out: dict[tuple, int] = {}
    for a, c in f.items():
        if a[i]:
            key = a[:i] + (a[i] + 1,) + a[i + 1:]
            out[key] = out.get(key, 0) + c * a[i]
    return out


def _div_xi_minus_xj(h: dict[tuple, int], i: int, j: int) -> dict[tuple, int]:
    """Exact division by (x_i - x_j) via synthetic division in x_i."""
    if not h:
        return {}
    buckets: dict[int, dict[tuple, int]] = {}
    top = 0
    for a, c in h.items():
        d = a[i]
        buckets.setdefault(d, {})[a] = buckets.get(d, {}).get(a, 0) + c
        if d > top:
            top = d
    quo: dict[tuple, int] = {}
    for d in range(top, 0, -1):
        for a, c in buckets.get(d, {}).items():
            if not c:
                continue
            qa = a[:i] + (d - 1,) + a[i + 1:]
            quo[qa] = quo.get(qa, 0) + c
            ra = qa[:j] + (qa[j] + 1,) + qa[j + 1:]
            lower = buckets.setdefault(d - 1, {})
            lower[ra] = lower.get(ra, 0) + c
    if any(c for c in buckets.get(0, {}).values()):
        raise AssertionError("division by (x_i - x_j) left a remainder")
    return {a: c for a, c in quo.items() if c}


def _apply_U(f: dict[tuple, int], nvars: int) -> dict[tuple, int]:
    """The non-diagonal operator part sum_{i != j} x_i**2/(x_i-x_j) d_i.

    Brute-force route over the full monomial expansion; retained as the
    validation oracle for the entries `_u_col` generates.
    """
    out: dict[tuple, int] = {}
    for i in range(nvars):
        di = _diff_term(f, i)
        for j in range(i + 1, nvars):
            dj = _diff_term(f, j)
            h = dict(di)
            for a, c in dj.items():
                h[a] = h.get(a, 0) - c
            for a, c in _div_xi_minus_xj(h, i, j).items():
                s = out.get(a, 0) + c
                if s:
                    out[a] = s
                else:
                    del out[a]
    return out


def _p_row(pi: Partition) -> dict[Partition, int]:
    """The m-expansion of the power sum p_pi, one factor p_k at a time:
    p_k m_mu is the sum of m_nu over the nu that raise one part value v of
    mu (or a new part, v = 0) to v + k, each with coefficient the
    multiplicity of v + k in nu."""
    row: dict[Partition, int] = {(): 1}
    for k in pi:
        nxt: dict[Partition, int] = {}
        for mu, c in row.items():
            for v in set(mu) | {0}:
                i = mu.index(v) if v else len(mu)
                nu = tuple(sorted(mu[:i] + (v + k,) + mu[i + 1:], reverse=True))
                nxt[nu] = nxt.get(nu, 0) + c * nu.count(v + k)
        row = nxt
    return row


def _u_col(nu: Partition, nvars: int) -> dict[Partition, int]:
    """The m-expansion of U(m_nu) in nvars variables.

    U acts on a pair of exponents at a time: on the symmetrized pair
    x0**p x1**q + x0**q x1**p (p >= q) the two-variable image
    [x0**2 d0 - x1**2 d1] (...) / (x0 - x1) telescopes to coefficient p at
    (p, q) and p - q at every interior (p - s, q + s), 0 < s <= (p - q)/2.
    So each value pair {p, q} of nu padded with zeros (p = q needs two
    copies) and each such s give the image mu, nu with {p, q} replaced by
    {p - s, q + s}, once for every slot pair of mu that carries it."""
    padded = nu + (0,) * (nvars - len(nu))
    values = sorted(set(padded), reverse=True)
    out: dict[Partition, int] = {}
    for i, p in enumerate(values):
        for q in values[i:]:
            if p == q and (not p or padded.count(p) < 2):
                continue
            rest = list(padded)
            rest.remove(p)
            rest.remove(q)
            for s in range((p - q) // 2 + 1):
                a, b = p - s, q + s
                img = sorted(rest + [a, b], reverse=True)
                ca = img.count(a)
                slots = ca * (ca - 1) // 2 if a == b else ca * img.count(b)
                mu = tuple(x for x in img if x)
                out[mu] = out.get(mu, 0) + (p - q if s else p) * slots
    return out


class _Basis:
    """Per-degree data: partitions in a dominance-compatible order, the
    operator matrix in the monomial basis, and the power-sum transition."""

    def __init__(self, n: int):
        self.n = n
        self.parts: list[Partition] = sorted(partitions_of(n), reverse=True)
        self.index = {mu: i for i, mu in enumerate(self.parts)}
        # U matrix by rows, from the m-expansion of each U(m_nu): row mu
        # holds (nu, coefficient) for its entries left of the diagonal, by
        # increasing column, and `u_diag` the diagonal.  The operator lowers
        # dominance, which the stored (lex-descending) order refines, so
        # entries live at row >= column; any other entry raises.
        self.u_rows: list[list[tuple[int, int]]] = [[] for _ in self.parts]
        self.u_diag = [0] * len(self.parts)
        for ci, nu in enumerate(self.parts):
            for mu, c in _u_col(nu, n).items():
                ri = self.index[mu]
                if ri < ci:
                    raise AssertionError(
                        f"U(m_{nu}) has an entry above the diagonal")
                if ri == ci:
                    self.u_diag[ci] = c
                else:
                    self.u_rows[ri].append((ci, c))
        # Diagonal alpha coefficient of (alpha/2) sum x**2 d**2 on m_nu; an
        # integer, since sum x(x - 1) is even.
        self.alpha_diag = [sum(x * (x - 1) for x in nu) // 2
                           for nu in self.parts]
        # Power sums in the monomial basis: row pi of `p_in_m`, generated
        # from its nonzero entries, and those left of its diagonal.  Its
        # inverse is kept by column, each built when first read
        # (`inverse_column`), so the power-sum conversion runs on ints.
        self.p_in_m = []
        for pi in self.parts:
            row = _p_row(pi)
            self.p_in_m.append([row.get(mu, 0) for mu in self.parts])
        self._p_below = [[(m, x) for m, x in enumerate(row[:i]) if x]
                         for i, row in enumerate(self.p_in_m)]
        self._inverse_columns: dict[int, tuple[list[tuple[int, int]], int]] = {}

    @cached_property
    def m_in_p(self) -> list[list[Fraction]]:
        """The inverse of `p_in_m` as Fractions, built when first read (by
        Gram-Schmidt and the tests): row mu is m_mu in the power-sum basis."""
        cols = [(dict(entries), den) for entries, den
                in map(self.inverse_column, range(len(self.parts)))]
        return [[Fraction(col.get(mu, 0), den) for col, den in cols]
                for mu in range(len(cols))]

    def inverse_column(self, col: int) -> tuple[list[tuple[int, int]], int]:
        """Column col of the inverse of `p_in_m`, built when first read, as
        (row, integer numerator) pairs over one reduced denominator."""
        hit = self._inverse_columns.get(col)
        if hit is None:
            hit = self._inverse_columns[col] = _lower_inverse_column(
                self.p_in_m, self._p_below, col)
        return hit

    def m_vector(self, lam: Partition) -> list[list[int]]:
        """`_jack_m_vector(lam)`, once per diagram of this degree: from
        `M_VECTORS`, else from the disk cache (`cache.ACTIVE`, if set) when it
        holds a plausible vector, else computed and stored there."""
        v = M_VECTORS.get(lam)
        if v is not None:
            return v
        disk = cache.ACTIVE
        if disk is not None:
            v = disk.load_jack(lam, self.check_vector)
        if v is None:
            v = _jack_m_vector(lam)
            if disk is not None:
                disk.store_jack(lam, v)
        M_VECTORS[lam] = v
        return v

    def check_vector(self, lam: Partition, v: list[list[int]]) -> None:
        """Raise ValueError unless v, a list of integer coefficient lists,
        can be lam's vector: one entry per partition, none before lam's,
        c_lambda(alpha) at lam and n! at 1^n (the last)."""
        li = self.index[lam]
        if (len(v) != len(self.parts) or any(v[:li])
                or v[li] != list(_j_leading(lam))
                or v[-1] != [factorial(self.n)]):
            raise ValueError(f"not the Jack vector of {lam}")

    def theta_column(self, rhs: list[list[int]], col: int
                     ) -> tuple[list[int], int]:
        """The power-sum coefficient at parts[col] of a monomial-basis
        vector (one integer coefficient list per partition): sum over mu of
        m_in_p[mu][col] * rhs[mu], as the integer numerators of its alpha
        coefficients (trimmed) over their one denominator."""
        entries, den = self.inverse_column(col)
        acc: list[int] = []
        for mu, c in entries:
            _add_scaled(acc, c, rhs[mu])
        return acc, den

    def theta_from_m(self, rhs: list[list[int]]) -> list[AlphaPoly]:
        """Convert a monomial-basis vector, one integer coefficient list (a
        polynomial in alpha, [] for zero) per partition, to power-sum
        coefficients, one `theta_column` each.  Raises ValueError on an
        entry that is not a list of ints."""
        for value in rhs:
            if type(value) is not list or any(type(x) is not int
                                              for x in value):
                raise ValueError(
                    f"not an integer coefficient list: {value!r}")
        out = []
        for col in range(len(self.parts)):
            acc, den = self.theta_column(rhs, col)
            out.append(AlphaPoly({e: Fraction(x, den)
                                  for e, x in enumerate(acc) if x}))
        return out


def _lower_inverse_column(low: list[list[int]],
                          below: list[list[tuple[int, int]]], j: int
                          ) -> tuple[list[tuple[int, int]], int]:
    """Column j of the inverse of an integer lower-triangular matrix, as
    (row, integer numerator) pairs over one reduced denominator (positive,
    coprime to the numerators), by forward substitution on ints; `below`
    holds the nonzero entries of `low` left of the diagonal, row by row.

    `p_in_m` is one: p_pi expands into the m_mu whose parts are unions of
    parts of pi, which come no later in `parts` order, and its diagonal
    entry is prod m_i(pi)!."""
    # The column is num / den, from num[j] = 1 over den = low[j][j]; each
    # later entry is -sum_m low[i][m] num[m] / low[i][i], and den widens
    # when that division is not exact.
    den, num = low[j][j], {j: 1}
    for i in range(j + 1, len(low)):
        acc = -sum(x * num[m] for m, x in below[i] if m in num)
        if acc:
            g = gcd(acc, low[i][i])
            if low[i][i] > g:
                num = {m: x * (low[i][i] // g) for m, x in num.items()}
                den *= low[i][i] // g
            num[i] = acc // g
    g = gcd(den, *num.values())
    return [(m, x // g) for m, x in num.items()], den // g


def _add_scaled(acc: list[int], c: int, poly: list[int]) -> None:
    """acc += c * poly on integer coefficient lists; acc stays trimmed."""
    if len(poly) > len(acc):
        acc.extend([0] * (len(poly) - len(acc)))
    for e, x in enumerate(poly):
        acc[e] += c * x
    while acc and not acc[-1]:
        acc.pop()


# Hit 144 times per oracle-full round; called 73 times in a cold and 56 in a
# warm cli-session pass (seed 1, one interpreter per command).
@lru_cache(maxsize=None)
def _basis(n: int) -> _Basis:
    return _Basis(n)


def _j_leading(lam: Partition) -> tuple[int, ...]:
    """c_lambda(alpha) = prod over boxes of (alpha*arm + leg + 1): the
    coefficient of m_lambda in the J-normalized Jack polynomial, as its
    integer coefficients in increasing degree."""
    cols = transpose(lam)
    out = [1]
    for y, row in enumerate(lam):
        for x in range(row):
            arm, leg = row - x - 1, cols[x] - y - 1
            nxt = [0] * (len(out) + 1)
            for e, c in enumerate(out):
                nxt[e] += (leg + 1) * c
                nxt[e + 1] += arm * c
            out = nxt
    while not out[-1]:
        out.pop()
    return tuple(out)


def _jack_m_vector(lam: Partition) -> list[list[int]]:
    """J-normalized Jack polynomial of lam in the monomial basis, by
    back-substitution in Z[alpha] with exact division: the integer
    coefficient list of each entry, in `parts` order ([] for zero)."""
    n = size(lam)
    basis = _basis(n)
    li = basis.index[lam]
    u_rows, u_diag, alpha_diag = basis.u_rows, basis.u_diag, basis.alpha_diag
    e0, e1 = u_diag[li], alpha_diag[li]
    v: list[list[int]] = [[] for _ in basis.parts]
    v[li] = list(_j_leading(lam))
    for idx in range(li + 1, len(v)):
        # acc = sum of c * v[nu] over the row's entries at columns nu >= li.
        acc: list[int] = []
        for nu_idx, c in u_rows[idx]:
            if nu_idx >= li and v[nu_idx]:
                poly = v[nu_idx]
                if not acc:
                    acc = [c * x for x in poly]
                    continue
                if len(poly) > len(acc):
                    acc += [0] * (len(poly) - len(acc))
                for e, x in enumerate(poly):
                    acc[e] += c * x
        while acc and not acc[-1]:
            acc.pop()
        if not acc:
            continue
        d0, d1 = e0 - u_diag[idx], e1 - alpha_diag[idx]
        if not (d0 or d1):
            raise AssertionError(
                f"eigenvalue collision below {lam}: {basis.parts[idx]}")
        # acc / (d0 + d1*alpha), from the top: acc[e] = d0*quo[e] +
        # d1*quo[e-1]; r is the first remainder, or what is left at alpha^0.
        if d1:
            quo, q, r = [0] * (len(acc) - 1), 0, 0
            for e in range(len(acc) - 1, 0, -1):
                q, r = divmod(acc[e] - d0 * q, d1)
                if r:
                    break
                quo[e - 1] = q
            r = r or acc[0] - d0 * q
        else:
            quo = [x // d0 for x in acc]
            r = any(x % d0 for x in acc)
        if r:
            raise AssertionError(
                f"non-polynomial coefficient at {basis.parts[idx]} in {lam}")
        v[idx] = quo
    if v[basis.index[tuple([1] * n)]] != [factorial(n)]:
        raise AssertionError(f"bottom coefficient of {lam} is not {n}!")
    return v


def _check_bound(n: int, bound: int | None) -> None:
    """Raise BoundExceeded when a diagram of size n is over the bound."""
    limit = DEFAULT_SIZE_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceeded(f"|lambda| = {n} exceeds bound {limit}")


def jack_powersum(lam: Partition, bound: int | None = None) -> dict[Partition, AlphaPoly]:
    """Power-sum expansion of the J-normalized Jack polynomial of lam.

    Returns a map from power-sum index partitions to coefficients in alpha;
    these coefficients are the unnormalized characters.  Every column
    converted, with no memo: the reference for `jack_character`'s one.
    """
    lam = partition(lam)
    _check_bound(size(lam), bound)
    basis = _basis(size(lam))
    theta = basis.theta_from_m(basis.m_vector(lam))
    return {pi: c for pi, c in zip(basis.parts, theta) if not c.is_zero()}


def jack_m_expansion(lam: Partition) -> dict[Partition, AlphaPoly]:
    """Monomial-basis expansion (exposed for the cross-validation tests)."""
    lam = partition(lam)
    if size(lam) == 0:
        return {(): AlphaPoly.const(1)}
    v = _jack_m_vector(lam)
    return {mu: AlphaPoly(dict(enumerate(v[i])))
            for i, mu in enumerate(_basis(size(lam)).parts) if v[i]}


def jack_m_expansion_gram_schmidt(lam: Partition) -> dict[Partition, RatFunc]:
    """Independent construction: orthogonalize the monomial basis against
    <p_mu, p_nu> = delta * z_mu * alpha**len(mu), then J-normalize."""
    lam = partition(lam)
    n = size(lam)
    if n == 0:
        return {(): RatFunc(1)}
    basis = _basis(n)
    parts = basis.parts
    k = len(parts)

    def inner(u: list[RatFunc], v: list[RatFunc]) -> RatFunc:
        acc = RatFunc(0)
        for idx, pi in enumerate(parts):
            if u[idx].is_zero() or v[idx].is_zero():
                continue
            weight = RatFunc(AlphaPoly.monomial(length(pi), z_factor(pi)))
            acc = acc + u[idx] * v[idx] * weight
        return acc

    # Gram-Schmidt in increasing order (reverse of the stored ordering).
    order = list(range(k - 1, -1, -1))
    built: dict[int, list[RatFunc]] = {}
    for idx in order:
        vec = [RatFunc(c) for c in basis.m_in_p[idx]]
        for prev in order:
            if prev == idx:
                break
            p_vec = built[prev]
            coeff = inner(vec, p_vec) / inner(p_vec, p_vec)
            if not coeff.is_zero():
                vec = [a - coeff * b for a, b in zip(vec, p_vec)]
        built[idx] = vec
        if idx == basis.index[lam]:
            break

    target = built[basis.index[lam]]
    # Back to the monomial basis for the comparison and J-scaling.
    mvec = [RatFunc(0)] * k
    for j in range(k):
        if target[j].is_zero():
            continue
        for r in range(k):
            c = basis.p_in_m[j][r]
            if c:
                mvec[r] = mvec[r] + Fraction(c) * target[j]
    bottom = mvec[basis.index[tuple([1] * n)]]
    scale = RatFunc(factorial(n)) / bottom
    return {mu: mvec[i] * scale for i, mu in enumerate(parts)
            if not mvec[i].is_zero()}


def jack_character(pi: Partition, lam: Partition, bound: int | None = None) -> Laurent:
    """The normalized character Ch_pi(lam), a Laurent polynomial in A.

    Zero when the diagram is smaller than pi; otherwise the power-sum
    coefficient at pi padded with fixed points, times the binomial and
    z-factor normalizations, carried to A via alpha = A**2.  Only that one
    coefficient is computed, from the diagram's monomial-basis vector.
    """
    pi = partition(pi)
    lam = partition(lam)
    s, n = size(pi), size(lam)
    if n < s:
        return Laurent.zero()
    _check_bound(n, bound)
    # pi is decreasing, so padding it with fixed points keeps it sorted.
    padded = pi + (1,) * (n - s)
    m1 = pi.count(1)
    factor = comb(n - s + m1, m1) * z_factor(pi)
    shift = s - len(pi)
    basis = _basis(n)
    nums, den = basis.theta_column(basis.m_vector(lam), basis.index[padded])
    return Laurent._of({2 * e - shift: Fraction(x * factor, den)
                        for e, x in enumerate(nums) if x})
