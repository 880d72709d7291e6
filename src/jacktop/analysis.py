"""Verification layer: difference operators, characterization suites, row
polynomial fitting, and the full g/R expansion of the one-row character by
exact interpolation against the oracle, on the g/R values of
functionals.kl_values.

Evaluators are plain callables from partitions to Laurent values; their
symmetrized extensions sort the arguments decreasingly before evaluating,
so iterated differences make sense on arbitrary integer tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import (chain, combinations_with_replacement,
                       product as _itproduct)
from math import gcd, lcm
from typing import Callable, Sequence

from .exact import KLPoly, Laurent
from .functionals import kl_evaluate, kl_values
from .jackref import jack_character
from .young import (Partition, enumerate_partitions, partition,
                    partitions_of, size, transpose)

Evaluator = Callable[[Partition], Laurent]


class RankDeficient(ValueError):
    """Interpolation system is rank-deficient or inconsistent."""


def sym_eval(f: Evaluator, xi: Sequence[int]) -> Laurent:
    """Evaluate f on the weakly decreasing sort of xi, zeros dropped."""
    return f(partition(sorted(xi, reverse=True)))


def iterated_delta(f: Evaluator, k: int, lam: Sequence[int]) -> Laurent:
    """k-fold first difference of the symmetrized extension of f.

    The inclusion-exclusion form: sum over subsets S of the k slots of
    (-1)**(k-|S|) * f_sym(lam + indicator(S)).
    """
    lam = tuple(lam)
    if len(lam) != k:
        raise ValueError(f"need {k} coordinates, got {len(lam)}")
    total = Laurent.zero()
    for bits in _itproduct((0, 1), repeat=k):
        shifted = tuple(x + b for x, b in zip(lam, bits))
        value = sym_eval(f, shifted)
        if (k - sum(bits)) % 2:
            value = -value
        total = total + value
    return total


def t3_cases(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """The exact (k, lambda) list of the top-degree vanishing suite:
    k = 0 on the empty diagram; k = 1 on single rows of size <= n-2;
    k >= 2 on diagrams with at most k rows and size <= n+1-2k."""
    cases: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    for lam1 in range(0, n - 1):
        cases.append((1, (lam1,)))
    k = 2
    while n + 1 - 2 * k >= 0:
        for s in range(0, n + 2 - 2 * k):
            for lam in partitions_of(s):
                if len(lam) <= k:
                    cases.append((k, tuple(lam) + (0,) * (k - len(lam))))
        k += 1
    return cases


def check_T3(n: int, f: Evaluator) -> list[tuple[int, tuple[int, ...], Laurent]]:
    """Nonzero instances of [A**(n+1-2k)] Delta^k f_sym on the t3 case list."""
    violations = []
    for k, lam in t3_cases(n):
        value = iterated_delta(f, k, lam)
        c = value.coeff(n + 1 - 2 * k)
        if c:
            violations.append((k, lam, value))
    return violations


# ---------------------------------------------------------------------------

class RowPolynomial:
    """Polynomial in row lengths with Laurent coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple, Laurent]):
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def top_part(self) -> dict[tuple, Laurent]:
        d = self.degree()
        return {e: c for e, c in self.coeffs.items() if sum(e) == d}

    def evaluate(self, xs: Sequence[int]) -> Laurent:
        total = Laurent.zero()
        for e, c in self.coeffs.items():
            total = total + c.scale(_mono_value(e, xs))
        return total

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}: {c.text()}" for e, c in sorted(self.coeffs.items()))
        return f"RowPolynomial({{{inner}}})"


def fit_row_polynomial(f: Evaluator, m: int, degree_bound: int) -> RowPolynomial:
    """Interpolate the row polynomial of f on m-row diagrams.

    Solves for monomial coefficients of total degree <= degree_bound on the
    grid of weakly decreasing tuples with entries <= degree_bound + m, then
    validates the fit on extra points beyond the grid.
    """
    monomials = [e for e in _itproduct(range(degree_bound + 1), repeat=m)
                 if sum(e) <= degree_bound]
    nodes = list(combinations_with_replacement(range(degree_bound + m, -1, -1),
                                               m))
    rows = [[_mono_value(e, node) for e in monomials] for node in nodes]
    values = [sym_eval(f, node) for node in nodes]
    # One system per power of A; at least one, so that the rank is checked
    # when every value is zero.
    exps = sorted({e for v in values for e, _ in v.items()}) or [0]
    columns = {e: _solve_rational_system(rows, [v.coeff(e) for v in values],
                                         len(monomials)) for e in exps}
    poly = RowPolynomial({mono: Laurent({e: x[j] for e, x in columns.items()})
                          for j, mono in enumerate(monomials)})
    for node in _extra_nodes(m, degree_bound + m):
        if poly.evaluate(node) != sym_eval(f, node):
            raise RankDeficient(
                f"fit fails at {node}: not a polynomial of degree <= {degree_bound}")
    return poly


def _mono_value(e: tuple, node: tuple) -> int:
    v = 1
    for x, p in zip(node, e):
        v *= x ** p
    return v


def _extra_nodes(m: int, grid_max: int) -> list[tuple]:
    """Check points beyond the grid; kept slim in total size so evaluators
    with a size bound (the oracle) stay within reach."""
    out = []
    for bump in (1, 2):
        top = grid_max + bump
        out.append((top,) + (0,) * (m - 1))
        if m >= 2:
            out.append((top, 1) + (0,) * (m - 2))
    return sorted(set(out), reverse=True)


def _solve_rational_system(rows: list[list[Fraction]], rhs: list[Fraction],
                           unknowns: int) -> list[Fraction]:
    """Unique solution of an overdetermined system over Q, by one
    fraction-free elimination and an integer verify.

    Each rational right-hand side is appended to its row, and the row is
    scaled once to primitive integers.  Rows are
    reduced in input order by Bareiss's integer-preserving elimination, and
    a row whose coefficient part does not reduce to zero is picked, until
    `unknowns` rows are.  The last pivot D is the determinant of the picked
    system, so back-substitution gives integer numerators N = D * x.
    Verify: every row, picked or not, must hold as the integer identity
    sum_j a_ij * N_j == b_i * D.  Only the returned values are Fractions.
    Raises RankDeficient when the rank is below `unknowns` or a row does
    not hold (the first such row, in input order).
    """
    def scaled(row, v) -> dict[int, int]:
        """The row as sparse {column: int}; the right-hand side is column
        `unknowns`."""
        aug = {j: x for j, x in enumerate([*row, v]) if x}
        den = lcm(*(x.denominator for x in aug.values()))
        aug = {j: x.numerator * (den // x.denominator)
               for j, x in aug.items()}
        g = gcd(*aug.values())
        return {j: x // g for j, x in aug.items()} if g > 1 else aug

    # Bareiss, one row at a time: a row last updated at level s (after
    # pivot s) goes to the level of pivot k by r <- (p_k r - r[c_k] e_k) / p_s;
    # the levels it skips had zero multipliers and only scale it.  Rows
    # after the last picked one are scaled only when verified.
    pairs = zip(rows, rhs)
    read: list[dict[int, int]] = []
    picked: list[tuple[int, dict[int, int]]] = []  # (pivot column, row)
    pivots = [1]
    while len(picked) < unknowns:
        pair = next(pairs, None)
        if pair is None:
            raise RankDeficient(f"rank {len(picked)} < {unknowns} unknowns")
        r = scaled(*pair)
        read.append(r)
        level = 0
        for k, (col, e) in enumerate(picked, 1):
            m = r.get(col)
            if m:
                p, q = pivots[k], pivots[level]
                out = {j: p * x for j, x in r.items()}
                for j, y in e.items():
                    out[j] = out.get(j, 0) - m * y
                r = {j: x // q for j, x in out.items() if x}
                level = k
        col = min((j for j in r if j < unknowns), default=None)
        if col is None:
            continue
        if level < len(picked):
            r = {j: pivots[-1] * x // pivots[level] for j, x in r.items()}
        picked.append((col, r))
        pivots.append(r[col])

    # num[j] = D * x_j, from the last picked row up.
    d = pivots[-1]
    num = [0] * unknowns
    for col, e in reversed(picked):
        acc = d * e.get(unknowns, 0)
        for j, x in e.items():
            if j < unknowns and j != col:
                acc -= x * num[j]
        num[col] = acc // e[col]

    for i, r in enumerate(chain(read, (scaled(*pair) for pair in pairs))):
        if sum(x * num[j] for j, x in r.items() if j < unknowns) \
                != r.get(unknowns, 0) * d:
            raise RankDeficient(f"inconsistent row {i}")
    return [Fraction(x, d) for x in num]


# ---------------------------------------------------------------------------

def _partitions_min_part(s: int, min_part: int) -> list[Partition]:
    return [mu for mu in partitions_of(s) if not mu or mu[-1] >= min_part]


def kl_expansion_keys(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (g, mu) keys with grading g + |mu| <= n + 1 and parts >= 2."""
    keys = []
    for s in range(n + 2):
        for mu in _partitions_min_part(s, 2):
            for g in range(n + 2 - s):
                keys.append((g, mu))
    keys.sort(key=lambda k: (k[0] + sum(k[1]), k[0], tuple(-m for m in k[1])))
    return keys


def kl_expand_full(n: int) -> KLPoly:
    """Expand the one-row character of index n in the g/R ring.

    Fits the g/R keys to the oracle on one diagram of each transpose pair
    of size <= n+2 (see _kl_fit), then insists that kl_evaluate of the
    result equals the oracle on held-out diagrams: the first three of size
    n+3 and their transposes, so the side of the duality the fit does not
    read is checked too.
    RankDeficient if either fails.  The solution is unique by the linear
    independence of the g/R monomials.
    """
    keys = kl_expansion_keys(n)
    coeffs = _kl_fit(keys, n)
    result = KLPoly({k: c for k, c in zip(keys, coeffs) if c})

    held_out = list(partitions_of(n + 3))[:3]
    for lam in dict.fromkeys(held_out + [transpose(lam) for lam in held_out]):
        if kl_evaluate(result, lam) != jack_character((n,), lam, bound=n + 3):
            raise RankDeficient(f"held-out residual nonzero at {lam}")
    return result


def _kl_fit(keys, n: int) -> list[Fraction]:
    """The key coefficients, fitted on the diagrams lam of size <= n+2 with
    lam >= transpose(lam): one row per diagram and power A**d, the integer
    kl_values coefficients of the keys against the oracle's coefficient.

    A -> -1/A maps the oracle and every key value at lam to their values at
    transpose(lam), so the row (lam', -d) is (-1)**d times the row (lam, d)
    and is not read.  A key g**k R_mu takes only exponents of the parity of
    its grading k + |mu| (AssertionError otherwise), so the rows fall into
    two blocks by the parity of d.  The main block, d of the parity of
    n + 1, is solved exactly.  The other block's right-hand sides are the
    oracle's coefficients of the other parity, all zero unless the oracle
    is wrong; then a full rank modulo a prime proves that block's solution
    is 0, as a nonzero minor mod p is nonzero over Z.  Otherwise it is
    solved exactly too, so the outcome, coefficients or RankDeficient, is
    that of one fit of all keys on the rows read.
    """
    parities = [(g + sum(mu)) % 2 for g, mu in keys]
    columns = ([], [])  # key indices per parity
    for i, b in enumerate(parities):
        columns[b].append(i)
    rows: tuple[list[list[int]], ...] = ([], [])
    rhs: tuple[list[Fraction], ...] = ([], [])
    for lam in enumerate_partitions(n + 2):
        if lam < transpose(lam):
            continue
        values = kl_values(keys, lam)
        for key, b, value in zip(keys, parities, values):
            if any((e - b) % 2 for e in value):
                raise AssertionError(
                    f"key {key} at {lam} has an exponent of the wrong parity")
        target = jack_character((n,), lam, bound=n + 3)
        exponents = {e for v in values for e in v}
        exponents.update(e for e, _ in target.items())
        for d in sorted(exponents):
            b = d % 2
            rows[b].append([values[i].get(d, 0) for i in columns[b]])
            rhs[b].append(target.coeff(d))

    other = n % 2
    unknowns = len(columns[other])
    blocks = [1 - other]
    if any(rhs[other]) or _rank_mod_p(rows[other], unknowns) < unknowns:
        blocks.append(other)
    coeffs = [Fraction(0)] * len(keys)
    for b in blocks:
        solution = _solve_rational_system(rows[b], rhs[b], len(columns[b]))
        for i, x in zip(columns[b], solution):
            coeffs[i] = x
    return coeffs


#: The prime of _rank_mod_p, 2**61 - 1.
_PRIME = (1 << 61) - 1


def _rank_mod_p(rows: list[list[int]], unknowns: int) -> int:
    """Rank modulo _PRIME of the integer rows of `unknowns` columns, by
    elimination in input order; stops once it reaches `unknowns`."""
    pivots: dict[int, list[int]] = {}  # pivot column -> row, pivot entry 1
    for row in rows:
        if len(pivots) == unknowns:
            break
        r = [x % _PRIME for x in row]
        for col in range(unknowns):
            x = r[col]
            if not x:
                continue
            e = pivots.get(col)
            if e is None:
                inv = pow(x, -1, _PRIME)
                pivots[col] = [y * inv % _PRIME for y in r]
                break
            r = [(y - x * z) % _PRIME for y, z in zip(r, e)]
    return len(pivots)


# ---------------------------------------------------------------------------

def power_sum_monomials(pi: Partition, m: int) -> dict[tuple, int]:
    """p_pi(x_1..x_m) = prod_r sum_i x_i**pi_r, as exponent -> coefficient."""
    out: dict[tuple, int] = {(0,) * m: 1}
    for part in pi:
        nxt: dict[tuple, int] = {}
        for e, c in out.items():
            for i in range(m):
                key = e[:i] + (e[i] + part,) + e[i + 1:]
                nxt[key] = nxt.get(key, 0) + c
        out = nxt
    return out


def check_K_conditions(pi: Partition, size_limit: int = 6) -> dict[str, dict]:
    """Report on the characterization conditions for the character of pi."""
    pi = partition(pi)
    n, ell = size(pi), len(pi)
    # Fit grids reach two-row diagrams of size 2*(n+2); extras add n+5.
    bound = max(8, size_limit, 2 * (n + 2), n + 5)
    f: Evaluator = lambda lam: jack_character(pi, lam, bound=bound)
    report: dict[str, dict] = {}

    # K2: row polynomial of degree |pi| with top part A**(|pi|-l) * p_pi.
    witnesses = []
    for m in (1, 2):
        try:
            w = fit_row_polynomial(f, m, n)
        except RankDeficient as exc:
            witnesses.append((m, f"fit failed: {exc}"))
            continue
        if n > 0 and w.degree() != n:
            witnesses.append((m, f"degree {w.degree()} != {n}"))
            continue
        expected_top = {e: Laurent.monomial(n - ell, c)
                        for e, c in power_sum_monomials(pi, m).items()
                        if sum(e) == n}
        if w.top_part() != expected_top:
            witnesses.append((m, "top part mismatch"))
    report["K2"] = {"pass": not witnesses, "witnesses": witnesses}

    # K3: vanishing below |pi|.
    witnesses = []
    for lam in enumerate_partitions(max(n - 1, 0)):
        if size(lam) < n and not f(lam).is_zero():
            witnesses.append(lam)
    report["K3"] = {"pass": not witnesses, "witnesses": witnesses}

    # K4: Laurent degree bound for multi-row pi.
    witnesses = []
    if ell >= 2:
        for lam in enumerate_partitions(size_limit):
            value = f(lam)
            if not value.is_zero() and value.degree() > n - ell:
                witnesses.append((lam, value.degree()))
    report["K4"] = {"pass": not witnesses, "witnesses": witnesses,
                    "checked": ell >= 2}

    # K1: the filtration bound, certified through the g/R grading when pi
    # has a single part; vacuous otherwise.
    witnesses = []
    if ell == 1:
        expansion = kl_expand_full(n)
        for grading in expansion.gradings():
            if grading > n + ell:
                witnesses.append(grading)
    report["K1"] = {"pass": not witnesses, "witnesses": witnesses,
                    "checked": ell == 1}
    return report


def check_p1top(n: int) -> bool:
    """Single-row functional identity for the top-degree part.

    [A**(n-1)] of the first difference of Ch_n on one row equals
    n * prod_{j=1..n-1} (lam1 + 1 - j) for 0 <= lam1 <= n+2.
    """
    if n < 2:
        raise ValueError(f"check_p1top needs n >= 2, got {n}")
    f: Evaluator = lambda lam: jack_character((n,), lam, bound=n + 3)
    for lam1 in range(0, n + 3):
        lhs = iterated_delta(f, 1, (lam1,)).coeff(n - 1)
        rhs = n
        for j in range(1, n):
            rhs *= lam1 + 1 - j
        if lhs != Fraction(rhs):
            return False
    return True
