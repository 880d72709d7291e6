"""Shape functionals on Young diagrams.

T_n is the discrete functional (n-1) * sum of content**(n-2) over boxes;
S_n is its smooth counterpart, the integral of the same power over the
diagram as a plane region, computed from the per-box closed form.  The two
families generate the same algebra, related by triangular conversions with
polynomial coefficients in g.  Free cumulants R_k come in closed form from
Kerov's transition measure of the anisotropic diagram (boxes A wide and 1/A
tall): its moments are the power series of prod(1 - y w) / prod(1 - x w)
over the minima x and maxima y of the profile, and R_2..R_k follow from the
moment-cumulant recursion, all on integer Laurent coefficients.  kl_values
evaluates g/R monomials through them, for kl_evaluate and the oracle fit.
The tree pairs (minimal two-factorizations of a full cycle) remain for
their Catalan counts; their signed embedding sum, the combinatorial form of
R_k, is the test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms
from math import comb, lcm

from .exact import (GammaPoly, KLPoly, Laurent, addmul_ints, gamma_power_A,
                    gamma_recover, int_coeffs)
from .maps import compose, cycles, full_cycle, inverse
from .young import Partition, boxes, content


class BadIndex(ValueError):
    """Functional index out of range (needs n >= 2 or k >= 2)."""


def t_functional(n: int, lam: Partition) -> Laurent:
    """(n-1) * sum over boxes of content**(n-2)."""
    if n < 2:
        raise BadIndex(f"t_functional needs n >= 2, got {n}")
    total = Laurent.zero()
    for box in boxes(lam):
        total = total + content(box) ** (n - 2)
    return total.scale(n - 1)


def s_functional(n: int, lam: Partition) -> Laurent:
    """Integral of (n-1) * content**(n-2) over the diagram as a region.

    Per box with lower-left corner content c (the content of the box shifted
    by one column and one row), the integral equals
    -(1/n) * [(c+A-1/A)**n - (c+A)**n - (c-1/A)**n + c**n].
    """
    if n < 2:
        raise BadIndex(f"s_functional needs n >= 2, got {n}")
    a_pos = Laurent.monomial(1)
    a_neg = Laurent.monomial(-1)
    total = Laurent.zero()
    for (x, y) in boxes(lam):
        c = Laurent({1: x - 1, -1: -(y - 1)})
        term = ((c + a_pos - a_neg) ** n - (c + a_pos) ** n
                - (c - a_neg) ** n + c ** n)
        total = total + term
    return total.scale(Fraction(-1, n))


# Hit only by the verify suites: 8 times over all 14 at their defaults.
@lru_cache(maxsize=None)
def conversion_P(n: int) -> dict[int, GammaPoly]:
    """Coefficients P_2..P_n with S_n = sum of P_k(g) * T_k.

    Obtained by expanding the per-box integral in powers of the box content:
    the coefficient of (k-1) * c**(k-2) is an invariant Laurent polynomial,
    pulled back through the g-substitution.
    """
    if n < 2:
        raise BadIndex(f"conversion_P needs n >= 2, got {n}")
    out: dict[int, GammaPoly] = {}
    for k in range(2, n + 1):
        j = n + 2 - k
        a_inv_j = Laurent.monomial(-j)
        neg_a_j = Laurent.monomial(j, (-1) ** j)
        bracket = a_inv_j + neg_a_j - gamma_power_A(j)
        if j == 0:
            bracket = bracket - Laurent.const(1)
        d_k = bracket.scale(Fraction(comb(n, k - 2), n * (k - 1)))
        p_k = gamma_recover(d_k)
        if p_k:
            out[k] = p_k
    return out


# Hit only by the verify suites: 13 times over all 14 at their defaults.
@lru_cache(maxsize=None)
def conversion_Q(n: int) -> dict[int, GammaPoly]:
    """Coefficients Q_2..Q_n with T_n = sum of Q_k(g) * S_k.

    Triangular inversion of conversion_P: T_n = S_n - sum_{k<n} P_k T_k,
    with each T_k replaced by its own S-expansion.
    """
    if n < 2:
        raise BadIndex(f"conversion_Q needs n >= 2, got {n}")
    out: dict[int, GammaPoly] = {n: GammaPoly.const(1)}
    p_table = conversion_P(n)
    for k in range(n - 1, 1, -1):
        p_k = p_table.get(k, GammaPoly.zero())
        q_sub = conversion_Q(k)
        for j, q in q_sub.items():
            term = -(p_k * q)
            acc = out.get(j, GammaPoly.zero()) + term
            if acc:
                out[j] = acc
            else:
                out.pop(j, None)
    return out


def _profile(lam: Partition) -> tuple[list[dict], list[dict]]:
    """Minima x = A(c-1) - (r-1)/A of the profile, one per addable box
    (r, c), and maxima y = A*c - r/A, one per removable box, as
    exponent -> int dicts."""
    def linear(a: int, b: int) -> dict[int, int]:
        return {e: v for e, v in ((1, a), (-1, b)) if v}

    rows = tuple(lam) + (0,)
    xs = [linear(part, 1 - r) for r, part in enumerate(rows, start=1)
          if r == 1 or rows[r - 2] > part]
    ys = [linear(part, -r) for r, part in enumerate(rows[:-1], start=1)
          if part > rows[r]]
    return xs, ys


def _free_cumulants(k: int, lam: Partition) -> list[dict[int, int]]:
    """R_2..R_k of lam as exponent -> int dicts.

    The moments M_j are the coefficients of prod(1 - y w) / prod(1 - x w);
    then M_n = sum_s R_s [w^(n-s)] M(w)**s is solved for R_n in increasing
    s, subtracting R_s times the powers of M as soon as R_s is known.
    """
    moments = [{0: 1}] + [{} for _ in range(k)]
    xs, ys = _profile(lam)
    for x in xs:  # times 1/(1 - x w)
        for j in range(1, k + 1):
            addmul_ints(moments[j], x, moments[j - 1])
    for y in ys:  # times 1 - y w
        for j in range(k, 0, -1):
            addmul_ints(moments[j], y, moments[j - 1], -1)
    r = [{}] + [dict(m) for m in moments[1:]]
    power = moments  # [w^j] M**s for j <= k - s
    for s in range(1, k):
        if r[s]:
            for j in range(1, k - s + 1):
                addmul_ints(r[s + j], r[s], power[j], -1)
        power = [_coefficient(power, moments, j) for j in range(k - s)]
    return r[2:]


def _coefficient(p: list[dict], q: list[dict], j: int) -> dict[int, int]:
    """[w^j] of the product of the series p and q."""
    acc: dict[int, int] = {}
    for i in range(j + 1):
        if p[i] and q[j - i]:
            addmul_ints(acc, p[i], q[j - i])
    return acc


# Hit 220 times per oracle-full round, by kl_values in kl_expand_full.
_FREE_CUMULANT_CACHE: dict[tuple[int, Partition], Laurent] = {}


def free_cumulant(k: int, lam: Partition) -> Laurent:
    """R_k of lam; a miss fills the cache for every R_j with j <= k."""
    if k < 2:
        raise BadIndex(f"free_cumulant needs k >= 2, got {k}")
    key = (k, lam)
    hit = _FREE_CUMULANT_CACHE.get(key)
    if hit is not None:
        return hit
    for j, value in enumerate(_free_cumulants(k, lam), start=2):
        _FREE_CUMULANT_CACHE.setdefault((j, lam), Laurent(value))
    return _FREE_CUMULANT_CACHE[key]


def free_cumulant_pair_count(k: int) -> int:
    """Number of tree pairs of R_k, the Catalan number of k - 1."""
    cyc = full_cycle(k - 1)
    count = 0
    for s1 in _itperms(range(k - 1)):
        s2 = compose(inverse(s1), cyc)
        if len(cycles(s1)) + len(cycles(s2)) == k:
            count += 1
    return count


def kl_values(keys, lam: Partition) -> list[dict[int, int]]:
    """Values of the g/R monomials (g, mu) on lam as exponent -> int dicts:
    (g, mu) is (g, mu[:-1]) times R_mu[-1], and each prefix is computed once,
    key or not.  The largest R_k, asked for first, fills the others."""
    top = max((m for _, mu in keys for m in mu), default=1)
    cumulants = {m: int_coeffs(free_cumulant(m, lam))
                 for m in range(top, 1, -1)}
    values: dict = {}

    def value(g, mu):
        v = values.get((g, mu))
        if v is None:
            v = values[g, mu] = (
                addmul_ints({}, value(g, mu[:-1]), cumulants[mu[-1]])
                if mu else int_coeffs(gamma_power_A(g)))
        return v

    return [value(g, mu) for g, mu in keys]


def kl_evaluate(p: KLPoly, lam: Partition) -> Laurent:
    """A g/R-polynomial on a diagram: the sum of coefficient x kl_values,
    added up as ints over the common denominator of the coefficients and
    divided by it once per exponent at the end."""
    terms = list(p.items())
    den = lcm(*(c.denominator for _, c in terms))
    total: dict[int, int] = {}
    for (_, c), value in zip(terms, kl_values([k for k, _ in terms], lam)):
        c = c.numerator * (den // c.denominator)
        for e, v in value.items():
            total[e] = total.get(e, 0) + c * v
    return Laurent._of({e: Fraction(v, den) for e, v in total.items() if v})
