from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacktop import analysis
from jacktop.analysis import (RankDeficient, _kl_fit, _solve_rational_system,
                              check_K_conditions, check_p1top, check_T3,
                              fit_row_polynomial, iterated_delta,
                              kl_expand_full, kl_expansion_keys, sym_eval,
                              t3_cases)
from jacktop.exact import KLPoly, Laurent
from jacktop.functionals import free_cumulant, kl_values
from jacktop.jackref import jack_character
from jacktop.topdegree import ch_top_eval, kl_top
from jacktop.verify import PROLOGUE_REMAINDERS, PROLOGUE_TABLES
from jacktop.young import enumerate_partitions, size, transpose


def size_eval(lam):
    return Laurent.const(size(lam))


def test_sym_eval_sorts_arguments():
    assert sym_eval(size_eval, (1, 3, 2)) == Laurent.const(6)
    assert sym_eval(size_eval, (0, 0, 0)) == Laurent.const(0)
    assert sym_eval(lambda lam: jack_character((2,), lam), (2, 0)) == \
        Laurent({1: 2})


def test_iterated_delta_basics():
    assert iterated_delta(size_eval, 1, (3,)) == Laurent.const(1)
    assert iterated_delta(size_eval, 2, (2, 1)).is_zero()
    const = lambda lam: Laurent.const(7)
    for k in (1, 2, 3):
        assert iterated_delta(const, k, (1,) * k).is_zero()
    assert iterated_delta(const, 0, ()) == Laurent.const(7)


def test_t3_case_list():
    cases = t3_cases(3)
    assert (0, ()) in cases
    assert (1, (0,)) in cases and (1, (1,)) in cases
    assert (1, (2,)) not in cases  # k=1 bound is n-2
    assert (2, (0, 0)) in cases
    assert all(k != 3 for k, _ in cases)


def test_check_t3_constant():
    const = lambda lam: Laurent.const(1)
    assert check_T3(1, const) == []


def test_check_t3_top_and_character():
    for n in range(1, 4):
        assert check_T3(n, lambda lam: ch_top_eval(n, lam)) == []
        assert check_T3(n, lambda lam: jack_character((n,), lam)) == []


def test_check_t3_detects_violation():
    # constant A^2 fails the k=0 window at n=1
    assert check_T3(1, lambda lam: Laurent.monomial(2))
    # A^2 * |lam| fails the k=1 windows at n=3
    bad = lambda lam: Laurent.monomial(2, size(lam))
    violations = check_T3(3, bad)
    assert any(k == 1 for k, _, _ in violations)


def test_fit_row_polynomial_ch1():
    w = fit_row_polynomial(lambda lam: jack_character((1,), lam), 1, 1)
    assert w.coeffs == {(1,): Laurent.const(1)}


def test_fit_row_polynomial_ch2():
    w = fit_row_polynomial(lambda lam: jack_character((2,), lam), 1, 2)
    # Ch_2 on a single row is A * q * (q - 1)
    assert w.coeffs == {(2,): Laurent.monomial(1), (1,): Laurent.monomial(1, -1)}
    assert w.degree() == 2
    assert w.top_part() == {(2,): Laurent.monomial(1)}


def test_fit_row_polynomial_constant():
    w = fit_row_polynomial(lambda lam: Laurent.const(Fraction(5, 3)), 2, 0)
    assert w.coeffs == {(0, 0): Laurent.const(Fraction(5, 3))}


def test_fit_row_polynomial_zero():
    w = fit_row_polynomial(lambda lam: Laurent.zero(), 2, 1)
    assert w.coeffs == {}


def test_fit_row_polynomial_detects_non_polynomial():
    with pytest.raises(RankDeficient):
        fit_row_polynomial(lambda lam: Laurent.const(2 ** size(lam)), 1, 3)


def test_kl_expansion_keys_grading_bound():
    for n in (1, 3):
        for g, mu in kl_expansion_keys(n):
            assert g + sum(mu) <= n + 1
            assert all(m >= 2 for m in mu)


def test_kl_expand_full_tables():
    for n in range(1, 5):
        assert kl_expand_full(n) == \
            PROLOGUE_TABLES[n] + PROLOGUE_REMAINDERS[n], n


def test_kl_expand_full_top_and_gap():
    for n in range(1, 8):
        full = kl_expand_full(n)
        assert full.graded_part(n + 1) == kl_top(n), n
        assert full.graded_part(n).is_zero(), n


def test_kl_expand_full_top_and_gap_8():
    full = kl_expand_full(8)
    assert full.graded_part(9) == kl_top(8)
    assert full.graded_part(8).is_zero()


def gauss_jordan_all_rows(rows, rhs, unknowns):
    """Reference solver: Gauss-Jordan over Q on every row at once, then the
    rows left below the pivots must have zero right-hand sides.  Rows may
    hold ints or Fractions."""
    m = [row[:] for row in rows]
    b = rhs[:]
    nrows = len(m)
    r = 0
    for col in range(unknowns):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            raise RankDeficient(f"rank-deficient at column {col}")
        m[r], m[piv] = m[piv], m[r]
        b[r], b[piv] = b[piv], b[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        b[r] = b[r] * inv
        for i in range(nrows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y if y else x
                        for x, y in zip(m[i], m[r])]
                b[i] = b[i] - factor * b[r]
        r += 1
    for i in range(r, nrows):
        if b[i]:
            raise RankDeficient(f"inconsistent row {i}")
    return b[:unknowns]


def outcome(solver, rows, rhs, unknowns):
    try:
        return solver(rows, rhs, unknowns)
    except RankDeficient:
        return RankDeficient


small_ints = st.integers(-3, 3)
small_fracs = st.builds(Fraction, small_ints, st.integers(1, 3))


@st.composite
def linear_systems(draw):
    """Small systems with int or Fraction entries (the g/R fit passes
    ints) and Fraction right-hand sides: either consistent by construction
    (right-hand side = rows times a drawn solution) or drawn freely (mostly
    inconsistent), over full-rank and rank-deficient matrices alike."""
    unknowns = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, unknowns + 3))
    entries = draw(st.sampled_from([small_ints, small_fracs]))
    rows = draw(st.lists(st.lists(entries, min_size=unknowns,
                                  max_size=unknowns),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        x = draw(st.lists(small_fracs, min_size=unknowns, max_size=unknowns))
        rhs = [sum((a * y for a, y in zip(row, x)), Fraction(0))
               for row in rows]
    else:
        rhs = draw(st.lists(small_fracs, min_size=nrows, max_size=nrows))
    return rows, rhs, unknowns


@given(linear_systems())
@settings(max_examples=300)
def test_solver_matches_all_rows_gauss_jordan(system):
    rows, rhs, unknowns = system
    expected = outcome(gauss_jordan_all_rows, rows, rhs, unknowns)
    got = outcome(_solve_rational_system, rows, rhs, unknowns)
    assert got == expected
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    assert outcome(_solve_rational_system, as_fractions, rhs, unknowns) == \
        expected
    if got is not RankDeficient:
        assert all(type(x) is Fraction for x in got), got


def test_solver_reports_first_inconsistent_row_in_input_order():
    # Rows 1 and 4 fix x = 2, y = 1; row 2 is a multiple of row 1, row 3
    # contradicts row 1 before row 4 is even read, and row 5 fails too.
    rows = [[0, 0], [1, 1], [2, 2], [1, 1], [1, -1], [1, 0]]
    rhs = [Fraction(0), Fraction(3), Fraction(6), Fraction(4), Fraction(1),
           Fraction(7)]
    with pytest.raises(RankDeficient, match=r"^inconsistent row 3$"):
        _solve_rational_system(rows, rhs, 2)
    rhs[3] = Fraction(3)
    rhs[5] = Fraction(2)
    assert _solve_rational_system(rows, rhs, 2) == [2, 1]


def test_solver_matches_all_rows_gauss_jordan_on_kl_fits(monkeypatch):
    systems = []

    def record(rows, rhs, unknowns):
        systems.append((rows, rhs, unknowns))
        return _solve_rational_system(rows, rhs, unknowns)

    monkeypatch.setattr(analysis, "_solve_rational_system", record)
    for n in range(1, 8):
        kl_expand_full(n)
    assert len(systems) == 7
    for rows, rhs, unknowns in systems:
        got = _solve_rational_system(rows, rhs, unknowns)
        assert got == gauss_jordan_all_rows(rows, rhs, unknowns)
        assert all(type(x) is Fraction for x in got)


def s_image(value: dict[int, int]) -> dict[int, int]:
    """A -> -1/A on an exponent -> int dict."""
    return {-e: -v if e % 2 else v for e, v in value.items()}


def test_oracle_and_key_values_dual_under_transpose():
    # The fit reads one diagram of each transpose pair on the strength of
    # this duality; the held-out transposes check it only at size n+3.
    for n in range(1, 8):
        keys = kl_expansion_keys(n)
        for lam in enumerate_partitions(n + 2):
            dual = transpose(lam)
            assert jack_character((n,), dual, bound=n + 3) == \
                jack_character((n,), lam, bound=n + 3).s_involution(), (n, lam)
            assert kl_values(keys, dual) == \
                [s_image(v) for v in kl_values(keys, lam)], (n, lam)


def test_free_cumulants_dual_under_transpose():
    for lam in enumerate_partitions(9):
        for k in range(2, 10):
            assert free_cumulant(k, transpose(lam)) == \
                free_cumulant(k, lam).s_involution(), (k, lam)


def test_key_values_have_the_parity_of_their_grading():
    for n in range(1, 9):
        keys = kl_expansion_keys(n)
        for lam in enumerate_partitions(n + 2):
            for (g, mu), value in zip(keys, kl_values(keys, lam)):
                assert all((e - g - sum(mu)) % 2 == 0 for e in value), \
                    (n, lam, g, mu)


def unsplit_kl_system(n):
    """The fit as one system: every diagram of size <= n+2, every power of
    A, every key."""
    keys = kl_expansion_keys(n)
    rows, rhs = [], []
    for lam in enumerate_partitions(n + 2):
        values = kl_values(keys, lam)
        target = jack_character((n,), lam, bound=n + 3)
        exponents = {e for v in values for e in v}
        exponents.update(e for e, _ in target.items())
        for d in sorted(exponents):
            rows.append([v.get(d, 0) for v in values])
            rhs.append(target.coeff(d))
    return keys, rows, rhs


def test_kl_expand_full_matches_unsplit_gauss_jordan():
    for n in range(1, 8):
        keys, rows, rhs = unsplit_kl_system(n)
        coeffs = gauss_jordan_all_rows(rows, rhs, len(keys))
        expected = KLPoly({k: c for k, c in zip(keys, coeffs) if c})
        assert kl_expand_full(n) == expected, n


def test_short_mod_p_rank_falls_back_to_exact_solve(monkeypatch):
    expected = {n: kl_expand_full(n) for n in range(1, 7)}
    calls = []

    def record(rows, rhs, unknowns):
        calls.append(unknowns)
        return _solve_rational_system(rows, rhs, unknowns)

    monkeypatch.setattr(analysis, "_solve_rational_system", record)
    monkeypatch.setattr(analysis, "_rank_mod_p", lambda rows, unknowns: 0)
    for n, want in expected.items():
        calls.clear()
        assert kl_expand_full(n) == want, n
        assert len(calls) == 2, n  # both blocks solved exactly


def test_rank_mod_p():
    assert analysis._rank_mod_p([], 0) == 0
    assert analysis._rank_mod_p([[1, 2], [2, 4], [0, 3]], 2) == 2
    assert analysis._rank_mod_p([[1, 2], [2, 4], [3, 6]], 2) == 1
    # A multiple of the prime is zero modulo it.
    assert analysis._rank_mod_p([[analysis._PRIME, 0], [0, 1]], 2) == 1


def test_duplicated_other_parity_key_is_rank_deficient():
    for n in (3, 6):
        keys = kl_expansion_keys(n)
        dup = next(k for k in keys if (k[0] + sum(k[1]) - n) % 2 == 0)
        with pytest.raises(RankDeficient):
            _kl_fit(keys + [dup], n)


def perturb_oracle(monkeypatch, bad, term: Laurent):
    """Add term to the oracle's value on the diagram bad, as the fit sees
    it."""
    real = analysis.jack_character

    def perturbed(pi, lam, bound=None):
        value = real(pi, lam, bound=bound)
        return value + term if lam == bad else value

    monkeypatch.setattr(analysis, "jack_character", perturbed)


def test_wrong_parity_oracle_term_is_rank_deficient(monkeypatch):
    n, bad = 5, (4, 2, 1)
    assert bad > transpose(bad)  # a diagram the fit reads
    perturb_oracle(monkeypatch, bad, Laurent.monomial(n, 1))
    with pytest.raises(RankDeficient):
        _kl_fit(kl_expansion_keys(n), n)


def test_held_out_transpose_is_checked(monkeypatch):
    n = 4
    # A term of the right parity on the transpose of the held-out (7).
    perturb_oracle(monkeypatch, (1,) * 7, Laurent.monomial(n + 1, 1))
    with pytest.raises(RankDeficient,
                       match=r"^held-out residual nonzero at \(1, 1, 1"):
        kl_expand_full(n)


def test_wrong_parity_key_value_raises(monkeypatch):
    real = analysis.kl_values

    def perturbed(keys, lam):
        values = real(keys, lam)
        g, mu = keys[-1]
        values[-1] = {**values[-1], g + sum(mu) + 1: 1}
        return values

    monkeypatch.setattr(analysis, "kl_values", perturbed)
    for n in (3, 4):
        with pytest.raises(AssertionError, match="wrong parity"):
            kl_expand_full(n)


def test_check_k_conditions():
    for pi in [(), (3,), (1, 1), (2, 1)]:
        report = check_K_conditions(pi)
        assert all(entry["pass"] for entry in report.values()), (pi, report)


def test_check_p1top_hand_values():
    # n=2: lhs at lam1=1 is [A](Ch_2((2)) - Ch_2((1))) = 2, rhs = 2*1
    f = lambda lam: jack_character((2,), lam)
    assert iterated_delta(f, 1, (1,)).coeff(1) == 2
    assert iterated_delta(f, 1, (0,)).coeff(1) == 0
    assert check_p1top(2) and check_p1top(3)
