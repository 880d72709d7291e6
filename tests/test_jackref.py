import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import pytest

from jacktop import cache, jackref
from jacktop.exact import AlphaPoly, Laurent, RatFunc, alpha_to_A
from jacktop.jackref import (BoundExceeded, _add_scaled, _apply_U, _basis,
                             _collect_m, _j_leading, _jack_m_vector,
                             _m_expand, _mul_power_sum, _p_row,
                             jack_character, jack_m_expansion,
                             jack_m_expansion_gram_schmidt, jack_powersum)
from jacktop.young import (enumerate_partitions, length, multiplicities,
                           partitions_of, size, z_factor)

ALPHA = AlphaPoly.var()
ONE = AlphaPoly.const(1)


def invert_rational(matrix):
    """Reference inverse of a rational matrix by Gauss-Jordan elimination."""
    k = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(matrix)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col])
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[k:] for row in m]


def u_columns(basis):
    """U by columns, read off the stored rows and diagonal: column nu as
    {row: coefficient}, the m-expansion of U(m_nu)."""
    cols = [{ci: c} if c else {} for ci, c in enumerate(basis.u_diag)]
    for ri, row in enumerate(basis.u_rows):
        for ci, c in row:
            cols[ci][ri] = c
    return cols


def eigenvalue(basis, i):
    """The eigenvalue on m_nu, nu = basis.parts[i], as the integer pair
    (d0, d1) of d0 + d1*alpha."""
    return basis.u_diag[i], basis.alpha_diag[i]


def div_exact(acc, div):
    """acc / div in Z[alpha] by synthetic division from the top (div
    trimmed), or None when some step leaves a remainder."""
    top = len(div) - 1
    rem = acc[:]
    quo = [0] * (len(acc) - top)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[i + top], div[top])
        if r:
            return None
        quo[i] = q
        for j in range(top):
            rem[i + j] -= q * div[j]
    return None if any(rem[:top]) else quo


def lookup_m_vector(lam):
    """Reference back-substitution in Z[alpha], as `_jack_m_vector` did it
    before U was stored by rows: one column lookup per (row, column) pair,
    each product added by `_add_scaled`, each quotient taken by
    `div_exact`."""
    n = size(lam)
    basis = _basis(n)
    cols = u_columns(basis)
    li = basis.index[lam]
    e0, e1 = eigenvalue(basis, li)
    k = len(basis.parts)
    v = [[] for _ in range(k)]
    v[li] = list(_j_leading(lam))
    for idx in range(li + 1, k):
        acc = []
        for nu_idx in range(li, idx):
            c = cols[nu_idx].get(idx, 0)
            if c and v[nu_idx]:
                _add_scaled(acc, c, v[nu_idx])
        if not acc:
            continue
        f0, f1 = eigenvalue(basis, idx)
        assert (e0, e1) != (f0, f1), (lam, idx)
        quo = div_exact(acc, [e0 - f0, e1 - f1] if e1 != f1 else [e0 - f0])
        assert quo is not None, (lam, idx)
        v[idx] = quo
    assert v[basis.index[tuple([1] * n)]] == [factorial(n)], lam
    return v


def test_row_kernel_matches_column_lookups():
    rng = random.Random(11)
    lams = [lam for s in range(1, 11) for lam in partitions_of(s)]
    lams += rng.sample(list(partitions_of(11)), 12)
    lams += rng.sample(list(partitions_of(12)), 12)
    for lam in lams:
        assert _jack_m_vector(lam) == lookup_m_vector(lam), lam


def ratfunc_m_vector(lam):
    """Reference back-substitution in Q(alpha): P-normalized (coefficient 1
    at m_lambda), every entry a reduced RatFunc quotient, then scaled so the
    bottom monomial has coefficient n!."""
    n = size(lam)
    basis = _basis(n)
    li = basis.index[lam]
    cols = u_columns(basis)

    def rat_eigenvalue(i):
        return RatFunc(AlphaPoly({0: cols[i].get(i, 0),
                                  1: basis.alpha_diag[i]}))

    k = len(basis.parts)
    v = [RatFunc(0)] * k
    v[li] = RatFunc(1)
    for idx in range(li + 1, k):
        acc = RatFunc(0)
        for nu_idx in range(li, idx):
            c = cols[nu_idx].get(idx, 0)
            if c and v[nu_idx]:
                acc = acc + Fraction(c) * v[nu_idx]
        if acc:
            v[idx] = acc / (rat_eigenvalue(li) - rat_eigenvalue(idx))
    scale = RatFunc(factorial(n)) / v[basis.index[tuple([1] * n)]]
    return {mu: v[i] * scale for i, mu in enumerate(basis.parts) if v[i]}


def ratfunc_powersum(lam):
    """Reference power-sum conversion: the inverse of the power-sum to
    monomial matrix applied to the reference vector in RatFunc arithmetic."""
    basis = _basis(size(lam))
    k = len(basis.parts)
    inv = invert_rational([[basis.p_in_m[c][r] for c in range(k)]
                           for r in range(k)])
    mvec = ratfunc_m_vector(lam)
    rhs = [mvec.get(mu, RatFunc(0)) for mu in basis.parts]
    out = {}
    for pi, row in zip(basis.parts, inv):
        acc = RatFunc(0)
        for coeff, value in zip(row, rhs):
            if coeff and value:
                acc = acc + coeff * value
        if acc:
            out[pi] = acc
    return out


def test_polynomial_oracle_matches_ratfunc_reference():
    for lam in enumerate_partitions(8):
        if lam == ():
            continue
        assert jack_m_expansion(lam) == ratfunc_m_vector(lam), lam
        assert jack_powersum(lam) == ratfunc_powersum(lam), lam
        assert all(type(c) is AlphaPoly
                   for c in jack_powersum(lam).values()), lam


def test_j_leading_hand_values():
    one = Fraction(1)
    assert _j_leading((2,)) == (one, one)
    assert _j_leading((1, 1)) == (Fraction(2),)
    assert _j_leading((3,)) == (one, Fraction(3), Fraction(2))
    for lam in enumerate_partitions(6):
        if lam:
            assert jack_m_expansion(lam)[lam] == \
                AlphaPoly(dict(enumerate(_j_leading(lam))))


def test_wrong_leading_coefficient_fails_bottom_check(monkeypatch):
    leading = jackref._j_leading
    monkeypatch.setattr(jackref, "_j_leading",
                        lambda lam: tuple(2 * c for c in leading(lam)))
    with pytest.raises(AssertionError, match="bottom coefficient"):
        jack_m_expansion((2, 1))


def patch_entry(monkeypatch, basis, name, i, value):
    """Entry i of the list basis.<name> reads value, for one test."""
    seq = list(getattr(basis, name))
    seq[i] = value
    monkeypatch.setattr(basis, name, seq)


def test_remainder_fails_exact_division(monkeypatch):
    # (4) -> (2,2) is 4 in U; 5 leaves a remainder at (2,2).
    basis = _basis(4)
    top, row = basis.index[(4,)], basis.index[(2, 2)]
    assert (top, 4) in basis.u_rows[row]
    patch_entry(monkeypatch, basis, "u_rows", row,
                [(ci, 5 if ci == top else c) for ci, c in basis.u_rows[row]])
    with pytest.raises(AssertionError,
                       match=r"non-polynomial coefficient at \(2, 2\)"):
        jack_m_expansion((4,))


def test_remainder_at_constant_term_fails(monkeypatch):
    # J_(2) = (1 + alpha) m_2 + 2 m_11: the entry at (1,1) is U's 2 times
    # 1 + alpha, over the eigenvalue difference 1 + alpha.
    basis = _basis(2)
    assert basis.u_rows[1] == [(0, 2)]
    assert (eigenvalue(basis, 0), eigenvalue(basis, 1)) == ((2, 1), (1, 0))
    # Over 2 + alpha the alpha coefficient divides (by 1) and 2 - 2*2 is
    # left at alpha^0.
    patch_entry(monkeypatch, basis, "u_diag", 1, 0)
    with pytest.raises(AssertionError,
                       match=r"non-polynomial coefficient at \(1, 1\)"):
        jack_m_expansion((2,))


def test_remainder_at_top_fails(monkeypatch):
    # J_(3) starts 1 + 3*alpha + 2*alpha^2.  With U's 3 at (2,1) made 1 and
    # the divisor 1 + 3*alpha, the top step (2 over 3) leaves a remainder,
    # while floor quotients would pass every later step.
    basis = _basis(3)
    assert basis.u_rows[1] == [(0, 3)] and _j_leading((3,)) == (1, 3, 2)
    patch_entry(monkeypatch, basis, "u_rows", 1, [(0, 1)])
    patch_entry(monkeypatch, basis, "alpha_diag", 1, 0)
    assert basis.u_diag[0] - basis.u_diag[1] == 1
    with pytest.raises(AssertionError,
                       match=r"non-polynomial coefficient at \(2, 1\)"):
        jack_m_expansion((3,))


def test_remainder_without_alpha_fails(monkeypatch):
    # With the alpha diagonals equal, the divisor is the integer d0 alone;
    # 3 does not divide 2 + 2*alpha.
    basis = _basis(2)
    patch_entry(monkeypatch, basis, "alpha_diag", 1, basis.alpha_diag[0])
    patch_entry(monkeypatch, basis, "u_diag", 1, basis.u_diag[0] - 3)
    with pytest.raises(AssertionError,
                       match=r"non-polynomial coefficient at \(1, 1\)"):
        jack_m_expansion((2,))
    # Over 1 (d0 = 1) it divides, and the bottom check catches 2 + 2*alpha.
    patch_entry(monkeypatch, basis, "u_diag", 1, basis.u_diag[0] - 1)
    with pytest.raises(AssertionError, match="bottom coefficient"):
        jack_m_expansion((2,))


def test_eigenvalue_collision_raises(monkeypatch):
    basis = _basis(2)
    patch_entry(monkeypatch, basis, "u_diag", 1, basis.u_diag[0])
    patch_entry(monkeypatch, basis, "alpha_diag", 1, basis.alpha_diag[0])
    with pytest.raises(AssertionError,
                       match=r"eigenvalue collision below \(2,\): \(1, 1\)"):
        jack_m_expansion((2,))


def test_p_in_m_is_lower_triangular_with_factorial_diagonal():
    for n in range(1, 11):
        basis = _basis(n)
        for i, pi in enumerate(basis.parts):
            row = basis.p_in_m[i]
            assert not any(row[i + 1:]), (n, pi)
            diag = 1
            for m in multiplicities(pi).values():
                diag *= factorial(m)
            assert row[i] == diag, (n, pi)


def test_triangular_inverse_matches_gauss_jordan():
    for n in range(1, 11):
        basis = _basis(n)
        k = len(basis.parts)
        ref = invert_rational(basis.p_in_m)
        # The integer columns: reduced, and equal to the Gauss-Jordan inverse.
        for pi in range(k):
            entries, den = basis.inverse_column(pi)
            nums = [x for _, x in entries]
            assert den > 0 and gcd(den, *nums) == 1, (n, pi)
            assert all(type(x) is int and x for x in nums), (n, pi)
            col = dict(entries)
            assert [Fraction(col.get(mu, 0), den) for mu in range(k)] == \
                [row[pi] for row in ref], (n, pi)
        inv = basis.m_in_p
        for i in range(k):
            for j in range(k):
                assert sum(basis.p_in_m[i][m] * inv[m][j]
                           for m in range(k)) == int(i == j), (n, i, j)
        assert inv == ref, n


def test_alpha_diagonal_is_integral():
    for n in range(1, 11):
        basis = _basis(n)
        for nu, a in zip(basis.parts, basis.alpha_diag):
            assert type(a) is int
            assert 2 * a == sum(x * (x - 1) for x in nu), nu


def test_theta_from_m_rejects_denominators():
    # The input is one integer coefficient list per partition, as for
    # J_(2) = (1 + alpha) m_2 + 2 m_11 = alpha p_2 + p_1^2; a rational
    # function, here 1/(1 + alpha), is none.
    basis = _basis(2)
    assert basis.theta_from_m([[1, 1], [2]]) == [ALPHA, ONE]
    with pytest.raises(ValueError):
        basis.theta_from_m([[1], RatFunc(1, AlphaPoly({0: 1, 1: 1}))])


def test_theta_from_m_rejects_fractional_coefficients():
    basis = _basis(2)
    for bad in ([Fraction(1, 2)], [Fraction(1)], [1.0], [True],
                RatFunc(Fraction(1, 2)), (1,)):
        with pytest.raises(ValueError):
            basis.theta_from_m([[1], bad])


def test_u_matrix_matches_dense_oracle():
    # Dual route: the generated entries against the full monomial
    # expansion with synthetic division.
    for n in range(1, 8):
        basis = _basis(n)
        for ci, nu in enumerate(basis.parts):
            img = _apply_U(_m_expand(nu, n), n)
            dense = {basis.index[mu]: c
                     for mu, c in _collect_m(img, basis.parts, n).items()}
            assert dense == u_columns(basis)[ci], (n, nu)


def test_p_in_m_matches_dense_oracle():
    # p_pi as the full monomial dict, one factor p_k at a time.
    for n in range(1, 8):
        basis = _basis(n)
        for pi, row in zip(basis.parts, basis.p_in_m):
            f = {(0,) * n: 1}
            for k in pi:
                f = _mul_power_sum(f, k)
            dense = _collect_m(f, basis.parts, n)
            assert [dense.get(mu, 0) for mu in basis.parts] == row, (n, pi)


def t_coeff(p, q, a, b):
    """Ordered-monomial coefficient of x0**a x1**b in the two-variable image

        [x0**2 d0 - x1**2 d1] (x0**p x1**q + x0**q x1**p) / (x0 - x1)

    for p >= q and a >= b: p on the endpoints (p, q) and (q, p), and p - q
    on every interior pair (p-s, q+s)."""
    if a + b != p + q:
        return 0
    if p == q:
        return p if a == p else 0
    if a == p:
        return p
    if b > q and a < p:
        return p - q
    return 0


def u_matrix_entry(mu, nu, nvars):
    """Reference coefficient of m_nu in U(m_mu), tested pair by pair: for
    each position pair (i < j) of the sorted representative of nu, the rest
    of the exponents must use up all of mu except a value pair {p, q}; the
    contribution is then the two-variable coefficient."""
    mu_count = {}
    for v in tuple(mu) + (0,) * (nvars - len(mu)):
        mu_count[v] = mu_count.get(v, 0) + 1
    nu_star = tuple(nu) + (0,) * (nvars - len(nu))
    delta = dict(mu_count)
    for v in nu_star:
        delta[v] = delta.get(v, 0) - 1
    if sum(-c for c in delta.values() if c < 0) > 2:
        return 0
    total = 0
    for i in range(nvars):
        for j in range(i + 1, nvars):
            a, b = nu_star[i], nu_star[j]
            e = dict(delta)
            e[a] = e.get(a, 0) + 1
            e[b] = e.get(b, 0) + 1
            if any(c < 0 for c in e.values()):
                continue
            pair = [v for v, c in e.items() for _ in range(c)]
            total += t_coeff(max(pair), min(pair), a, b)
    return total


def count_assignments(parts, caps):
    """Reference monomial coefficient of the power sum p_parts at m_caps:
    the ways to place the parts, in order, onto distinguishable rows with
    the given capacities so that every row is filled exactly."""
    memo = {}

    def rec(idx, caps_sorted):
        if idx == len(parts):
            return 1 if not any(caps_sorted) else 0
        key = (idx, caps_sorted)
        if key not in memo:
            total, prev = 0, None
            for pos, c in enumerate(caps_sorted):
                if c == prev or c < parts[idx]:
                    continue
                prev = c
                nxt = tuple(sorted(caps_sorted[:pos] + (c - parts[idx],)
                                   + caps_sorted[pos + 1:], reverse=True))
                total += caps_sorted.count(c) * rec(idx + 1, nxt)
            memo[key] = total
        return memo[key]

    return rec(0, tuple(caps))


def test_basis_matches_pairwise_reference():
    # The closed forms tested on every pair of partitions, the way the
    # basis was once built, against the generated entries.
    for n in range(1, 11):
        basis = _basis(n)
        cols = u_columns(basis)
        for ci, nu in enumerate(basis.parts):
            col = {ri: c for ri, mu in enumerate(basis.parts)
                   if (c := u_matrix_entry(nu, mu, n))}
            assert col == cols[ci], (n, nu)
        # Each row: its entries left of the diagonal, by increasing column.
        for ri, row in enumerate(basis.u_rows):
            columns = [ci for ci, _ in row]
            assert columns == sorted(set(columns)) and \
                all(ci < ri for ci in columns), (n, ri)
        assert basis.p_in_m == [[count_assignments(pi, mu)
                                 for mu in basis.parts]
                                for pi in basis.parts], n


def test_power_sum_monomial_counts():
    # p_1^2 = m_2 + 2 m_11, p_2 = m_2
    assert _p_row((1, 1)) == {(2,): 1, (1, 1): 2}
    assert _p_row((2,)) == {(2,): 1}
    assert _p_row(()) == {(): 1}


def test_u_entry_above_diagonal_raises(monkeypatch):
    # Back-substitution reads only rows below the column, so an entry
    # above it would be dropped silently; building the basis refuses it.
    u_col = jackref._u_col

    def with_stray_entry(nu, nvars):
        col = dict(u_col(nu, nvars))
        if nu == (2, 2):
            col[(3, 1)] = 1
        return col

    monkeypatch.setattr(jackref, "_u_col", with_stray_entry)
    with pytest.raises(AssertionError, match="above the diagonal"):
        jackref._Basis(4)


def test_small_jack_tables():
    # classical J tables: J_(1) = p_1, J_(2) = p_1^2 + a p_2,
    # J_(11) = p_1^2 - p_2
    assert jack_powersum((1,)) == {(1,): ONE}
    assert jack_powersum((2,)) == {(1, 1): ONE, (2,): ALPHA}
    assert jack_powersum((1, 1)) == {(1, 1): ONE, (2,): -ONE}


def test_bottom_coefficients():
    for n in range(1, 6):
        for lam in partitions_of(n):
            # the power-sum coefficient at 1^n is 1 ...
            theta = jack_powersum(lam)
            assert theta[tuple([1] * n)] == ONE, lam
            # ... while the monomial coefficient at 1^n is n!
            mvec = jack_m_expansion(lam)
            assert mvec[tuple([1] * n)] == AlphaPoly.const(factorial(n)), lam


def test_gram_schmidt_cross_validation():
    for lam in enumerate_partitions(5):
        if lam == ():
            continue
        assert jack_m_expansion(lam) == jack_m_expansion_gram_schmidt(lam), lam


def ratfunc_character(pi, lam):
    """Reference normalization over RatFunc: alpha_to_A(theta * factor),
    shifted by |pi| - l(pi)."""
    extra = size(lam) - size(pi)
    if extra < 0:
        return Laurent.zero()
    padded = tuple(sorted(pi + (1,) * extra, reverse=True))
    theta = RatFunc(jack_powersum(lam, bound=9).get(padded, 0))
    m1 = multiplicities(pi).get(1, 0)
    value = alpha_to_A(theta * (comb(extra + m1, m1) * z_factor(pi)))
    shift = size(pi) - length(pi)
    return Laurent({e - shift: c for e, c in value.items()})


def test_character_matches_ratfunc_normalization():
    pis = [pi for s in range(5) for pi in partitions_of(s)]
    for lam in enumerate_partitions(9):
        for pi in pis:
            assert jack_character(pi, lam, bound=9) == \
                ratfunc_character(pi, lam), (pi, lam)


def whole_expansion_character(pi, lam):
    """The character as the whole-expansion route computes it: the
    jack_powersum coefficient at pi padded with fixed points, normalized by
    at_A_squared."""
    extra = size(lam) - size(pi)
    padded = tuple(sorted(pi + (1,) * extra, reverse=True))
    theta = jack_powersum(lam).get(padded)
    m1 = multiplicities(pi).get(1, 0)
    factor = comb(extra + m1, m1) * z_factor(pi)
    shift = size(pi) - length(pi)
    return theta.at_A_squared(-shift, factor) if theta else Laurent.zero()


# Every pi with |pi| <= |lam|, for every lam with |lam| <= 8.
ROUTE_PAIRS = [(pi, lam) for lam in enumerate_partitions(8)
               for s in range(size(lam) + 1) for pi in partitions_of(s)]

# SHA-256 of the jack_*.json files (each diagram's vector) that the
# characters of ROUTE_PAIRS write, hashed as in `cache_digest`.
JACK_FILES_DIGEST = \
    "18be509d8906361b3b12efec53cded0674b1b5d2930f7378f60fdb8ba9e711fa"


def cache_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def whole_expansion_characters():
    return {pair: whole_expansion_character(*pair) for pair in ROUTE_PAIRS}


def test_one_column_route_matches_whole_expansion(forget_jack_vectors,
                                                  whole_expansion_characters):
    for pi, lam in ROUTE_PAIRS:
        assert jack_character(pi, lam) == \
            whole_expansion_characters[pi, lam], (pi, lam)


def test_character_after_jack_powersum(forget_jack_vectors,
                                       whole_expansion_characters):
    for pi, lam in ROUTE_PAIRS:
        jack_powersum(lam)
        assert jack_character(pi, lam) == \
            whole_expansion_characters[pi, lam], (pi, lam)


def test_character_with_disk_cache_writes_jack_vectors(
        forget_jack_vectors, whole_expansion_characters, tmp_path,
        monkeypatch):
    monkeypatch.setattr(cache, "ACTIVE", cache.Cache(str(tmp_path)))
    for pi, lam in ROUTE_PAIRS:
        assert jack_character(pi, lam) == \
            whole_expansion_characters[pi, lam], (pi, lam)
    assert cache_digest(tmp_path) == JACK_FILES_DIGEST
    for lam in {lam for _, lam in ROUTE_PAIRS}:
        assert cache.ACTIVE.load_jack(lam, _basis(size(lam)).check_vector) \
            == _jack_m_vector(lam)


def test_cold_character_never_converts_whole_expansion(
        forget_jack_vectors, whole_expansion_characters, tmp_path,
        monkeypatch):
    # Without a disk cache, and with a cold and a warm one alike.
    def whole_conversion(self, rhs):
        raise AssertionError("theta_from_m called")

    monkeypatch.setattr(jackref._Basis, "theta_from_m", whole_conversion)
    for disk in [None, cache.Cache(str(tmp_path)), cache.Cache(str(tmp_path))]:
        monkeypatch.setattr(cache, "ACTIVE", disk)
        forget_jack_vectors()
        for pi, lam in ROUTE_PAIRS:
            assert jack_character(pi, lam) == \
                whole_expansion_characters[pi, lam], (pi, lam)


def test_cold_character_builds_only_its_column(monkeypatch):
    # Each column of the power-sum inverse is built when first read.
    built = []
    real = jackref._lower_inverse_column
    monkeypatch.setattr(jackref, "_lower_inverse_column",
                        lambda low, below, j: built.append(j)
                        or real(low, below, j))
    monkeypatch.setattr(jackref, "_basis", lru_cache(jackref._Basis))
    monkeypatch.setattr(cache, "ACTIVE", None)
    values = [jack_character((2,), lam) for lam in [(3, 2, 1), (4, 2)]]
    # One column for both diagrams: (2,1,1,1,1) of degree 6.
    assert built == [jackref._basis(6).index[(2, 1, 1, 1, 1)]]
    # The whole expansion reads every column.
    assert values == [whole_expansion_character((2,), lam)
                      for lam in [(3, 2, 1), (4, 2)]]
    assert sorted(built) == list(range(len(jackref._basis(6).parts)))


def test_second_pi_reuses_the_m_vector(forget_jack_vectors, monkeypatch):
    calls = []
    real = jackref._jack_m_vector
    monkeypatch.setattr(jackref, "_jack_m_vector",
                        lambda lam: calls.append(lam) or real(lam))
    lam = (3, 2, 1)
    jack_character((2,), lam)
    jack_character((3, 1), lam)
    assert calls == [lam]


def test_disk_cache_is_read_once_per_diagram(forget_jack_vectors, tmp_path,
                                             monkeypatch):
    # With a disk cache the vector is kept on the basis as well.
    loads = []
    real = cache.Cache.load_jack
    monkeypatch.setattr(cache.Cache, "load_jack",
                        lambda self, lam, check: loads.append(lam)
                        or real(self, lam, check))
    monkeypatch.setattr(cache, "ACTIVE", cache.Cache(str(tmp_path)))
    lam = (3, 2, 1)
    for pi in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        jack_character(pi, lam)
    assert loads == [lam]


def test_character_closed_forms_small():
    # Ch_empty = 1, Ch_1 = |lambda|
    for lam in enumerate_partitions(5):
        assert jack_character((), lam) == Laurent.const(1)
        assert jack_character((1,), lam) == Laurent.const(size(lam))


def test_character_examples():
    assert jack_character((2,), (2,)) == Laurent({1: 2})
    assert jack_character((3,), (1,)).is_zero()
    assert jack_character((1, 1), (2,)) == Laurent.const(2)


def test_character_vanishing():
    for s in range(1, 6):
        for pi in partitions_of(s):
            for lam in enumerate_partitions(s - 1):
                assert jack_character(pi, lam).is_zero(), (pi, lam)


def test_character_laurent_degree_bound():
    for s in range(6):
        for pi in partitions_of(s):
            bound = size(pi) - len(pi)
            for lam in enumerate_partitions(5):
                value = jack_character(pi, lam)
                if not value.is_zero():
                    assert value.degree() <= bound, (pi, lam)


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        jack_powersum((9,))
    with pytest.raises(BoundExceeded):
        jack_character((2,), (5, 4), bound=6)
    assert jack_powersum((3, 3, 3), bound=9)


def test_bound_is_checked_on_a_cache_hit():
    jack_character((2,), (5, 3), bound=8)
    with pytest.raises(BoundExceeded):
        jack_character((2,), (5, 3), bound=7)


def test_character_at_unit_alpha_single_part():
    # At A := 1 the one-part characters on one-row diagrams reduce to the
    # falling factorial |lam| * (|lam|-1) * ... (trivial representation).
    for n in range(1, 5):
        for q in range(n, 8):
            value = jack_character((n,), (q,))
            at_one = sum(c for _, c in value.items())
            expected = 1
            for j in range(n):
                expected *= q - j
            assert at_one == expected
