"""Named verification suites behind the CLI and the acceptance tests.

Each suite returns a report dict {check, params, pass, witnesses} where the
witnesses list the failing instances (empty on success).  Every check is an
exact identity; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .analysis import check_p1top, check_T3, kl_expand_full
from .exact import GAMMA_A, GammaPoly, KLPoly, Laurent, subst_gamma
from .functionals import (conversion_P, conversion_Q,
                          free_cumulant_pair_count, kl_evaluate, s_functional,
                          t_functional)
from .jackref import jack_character
from .maps import cycles, orbit_census, perm_from_cycle_type
from .topdegree import (ch_top_eval, cumulant_K, kl_top, moment_M,
                        restricted_perm, set_partitions_above)
from .young import (Partition, boxes, content, enumerate_partitions,
                    partitions_of, size, to_partition)

#: The g/R tables of the one-row characters with index 1..4, exactly as in
#: the source tables; index n maps to the pairs ((g, mu), coefficient).
PROLOGUE_TABLES: dict[int, KLPoly] = {
    1: KLPoly({(0, (2,)): 1}),
    2: KLPoly({(0, (3,)): 1, (1, (2,)): 1}),
    3: KLPoly({(0, (4,)): 1, (1, (3,)): 3, (2, (2,)): 2}),
    4: KLPoly({(0, (5,)): 1, (1, (4,)): 6, (1, (2, 2)): 1,
               (2, (3,)): 11, (3, (2,)): 6}),
}

#: Degree-n gap corrections: the full characters minus their top part.
PROLOGUE_REMAINDERS: dict[int, KLPoly] = {
    1: KLPoly(),
    2: KLPoly(),
    3: KLPoly({(0, (2,)): 1}),
    4: KLPoly({(0, (3,)): 5, (1, (2,)): 7}),
}

#: Printed conversion tables between the discrete and smooth functionals.
P_TABLES: dict[int, dict[int, GammaPoly]] = {
    2: {2: GammaPoly.const(1)},
    3: {2: GammaPoly.var(), 3: GammaPoly.const(1)},
    4: {2: GammaPoly({2: 1, 0: Fraction(1, 2)}),
        3: GammaPoly({1: Fraction(3, 2)}),
        4: GammaPoly.const(1)},
}

Q_TABLES: dict[int, dict[int, GammaPoly]] = {
    2: {2: GammaPoly.const(1)},
    3: {2: GammaPoly({1: -1}), 3: GammaPoly.const(1)},
    4: {2: GammaPoly({2: Fraction(1, 2), 0: Fraction(-1, 2)}),
        3: GammaPoly({1: Fraction(-3, 2)}),
        4: GammaPoly.const(1)},
}


def _report(check: str, params, witnesses: list) -> dict:
    return {"check": check, "params": params, "pass": not witnesses,
            "witnesses": witnesses}


def suite_prologue_tables(n: int) -> dict:
    witnesses = []
    for k in range(1, n + 1):
        got = kl_top(k)
        if got != PROLOGUE_TABLES[k]:
            witnesses.append({"n": k, "got": got.to_json()})
    return _report("prologue-tables", {"n": n}, witnesses)


def closed_form_character(pi: Partition, lam: Partition) -> Laurent:
    """The printed content-sum formulas for pi in {(), (1), (2), (3), (1,1)}."""
    n = size(lam)
    if pi == ():
        return Laurent.const(1)
    if pi == (1,):
        return Laurent.const(n)
    if pi == (2,):
        total = Laurent.zero()
        for box in boxes(lam):
            total = total + (content(box) + GAMMA_A).scale(2)
        return total
    if pi == (3,):
        total = Laurent.const(Fraction(3, 2) * n - Fraction(3, 2) * n * n)
        for box in boxes(lam):
            c = content(box)
            total = total + ((c + GAMMA_A) * (c + GAMMA_A + GAMMA_A)).scale(3)
        return total
    if pi == (1, 1):
        return Laurent.const(n * n - n)
    raise ValueError(f"no closed form for {pi}")


def suite_jack_examples(max_size: int) -> dict:
    witnesses = []
    for pi in ((), (1,), (2,), (3,), (1, 1)):
        for lam in enumerate_partitions(max_size):
            got = jack_character(pi, lam, bound=max_size)
            want = closed_form_character(pi, lam)
            if got != want:
                witnesses.append({"pi": pi, "lambda": lam,
                                  "got": got.to_json(), "want": want.to_json()})
    return _report("jack-examples", {"max_size": max_size}, witnesses)


def _stanley_coordinates(p_prime: Sequence[int], q_prime: Sequence[int]):
    ps = [Laurent.monomial(-1, x) for x in p_prime]
    qs = [Laurent.monomial(1, x) for x in q_prime]
    return ps, qs


def stanley_ch1(p_prime, q_prime) -> Laurent:
    ps, qs = _stanley_coordinates(p_prime, q_prime)
    total = Laurent.zero()
    for p, q in zip(ps, qs):
        total = total + p * q
    return total


def stanley_ch2(p_prime, q_prime) -> Laurent:
    ps, qs = _stanley_coordinates(p_prime, q_prime)
    total = Laurent.zero()
    for i in range(len(ps)):
        total = total + ps[i] * qs[i] * (qs[i] - ps[i] + GAMMA_A)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            total = total - (ps[i] * ps[j] * qs[j]).scale(2)
    return total


def stanley_ch3(p_prime, q_prime) -> Laurent:
    ps, qs = _stanley_coordinates(p_prime, q_prime)
    one = Laurent.const(1)
    total = Laurent.zero()
    for i in range(len(ps)):
        p, q = ps[i], qs[i]
        bracket = (q * q - (p * q).scale(3) + p * p
                   + GAMMA_A * ((q - p).scale(3) + GAMMA_A.scale(2)) + one)
        total = total + p * q * bracket
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            pi_, pj, qi, qj = ps[i], ps[j], qs[i], qs[j]
            bracket = (qi - pi_ + GAMMA_A) + (qj - pj + GAMMA_A)
            total = total - (pi_ * pj * qj * bracket).scale(3)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            for k in range(j + 1, len(ps)):
                total = total + (ps[i] * ps[j] * ps[k] * qs[k]).scale(6)
    return total


def stanley_test_diagrams(max_entry: int) -> list[tuple[tuple, tuple]]:
    """Multirectangular pairs of at most 3 rectangles, of size 1..8."""
    out = []
    rng = range(1, max_entry + 1)
    for ell in range(1, 4):
        def rec(idx, p_acc, q_acc, last_q):
            if idx == ell:
                lam = to_partition(p_acc, q_acc)
                if 0 < size(lam) <= 8:
                    out.append((tuple(p_acc), tuple(q_acc)))
                return
            for q in range(min(last_q, max_entry), 0, -1):
                for p in rng:
                    rec(idx + 1, p_acc + [p], q_acc + [q], q)
        rec(0, [], [], max_entry)
    return out


def suite_stanley(max_entry: int) -> dict:
    witnesses = []
    cases = stanley_test_diagrams(max_entry)
    for p_prime, q_prime in cases:
        lam = to_partition(p_prime, q_prime)
        for k, formula in ((1, stanley_ch1), (2, stanley_ch2), (3, stanley_ch3)):
            got = jack_character((k,), lam)
            want = formula(p_prime, q_prime)
            if got != want:
                witnesses.append({"P'": p_prime, "Q'": q_prime, "k": k,
                                  "got": got.to_json(), "want": want.to_json()})
    return _report("stanley", {"max_entry": max_entry, "cases": len(cases)},
                   witnesses)


def suite_vanishing(pi_max: int) -> dict:
    witnesses = []
    for s in range(1, pi_max + 1):
        for pi in partitions_of(s):
            for lam in enumerate_partitions(s - 1):
                value = jack_character(pi, lam)
                if not value.is_zero():
                    witnesses.append({"pi": pi, "lambda": lam,
                                      "got": value.to_json()})
    return _report("vanishing", {"pi_max": pi_max}, witnesses)


def suite_laurent_degree(pi_max: int) -> dict:
    lam_max = 6
    witnesses = []
    for s in range(0, pi_max + 1):
        for pi in partitions_of(s):
            bound = size(pi) - len(pi)
            for lam in enumerate_partitions(lam_max):
                value = jack_character(pi, lam)
                if not value.is_zero() and value.degree() > bound:
                    witnesses.append({"pi": pi, "lambda": lam,
                                      "degree": value.degree(), "bound": bound})
    return _report("laurent-degree", {"pi_max": pi_max, "lam_max": lam_max},
                   witnesses)


def suite_st_conversion(n_max: int) -> dict:
    lam_max = 8
    witnesses = []
    for n in range(2, min(n_max, 4) + 1):
        if conversion_P(n) != P_TABLES[n]:
            witnesses.append({"table": "P", "n": n})
        if conversion_Q(n) != Q_TABLES[n]:
            witnesses.append({"table": "Q", "n": n})
    diagrams = list(enumerate_partitions(lam_max))
    for n in range(2, n_max + 1):
        p_table = conversion_P(n)
        q_table = conversion_Q(n)
        for lam in diagrams:
            s_direct = s_functional(n, lam)
            s_from_t = Laurent.zero()
            for k, poly in p_table.items():
                s_from_t = s_from_t + subst_gamma(poly) * t_functional(k, lam)
            if s_direct != s_from_t:
                witnesses.append({"identity": "S", "n": n, "lambda": lam})
            t_direct = t_functional(n, lam)
            t_from_s = Laurent.zero()
            for k, poly in q_table.items():
                t_from_s = t_from_s + subst_gamma(poly) * s_functional(k, lam)
            if t_direct != t_from_s:
                witnesses.append({"identity": "T", "n": n, "lambda": lam})
    return _report("st-conversion", {"n_max": n_max, "lam_max": lam_max},
                   witnesses)


def suite_equivalence(n_max: int) -> dict:
    lam_max = 6
    witnesses = []
    for n in range(1, n_max + 1):
        table = kl_top(n)
        for lam in enumerate_partitions(lam_max):
            via_kl = kl_evaluate(table, lam)
            direct = ch_top_eval(n, lam)
            if via_kl != direct:
                witnesses.append({"n": n, "lambda": lam,
                                  "kl": via_kl.to_json(),
                                  "map": direct.to_json()})
    return _report("equivalence", {"n_max": n_max, "lam_max": lam_max},
                   witnesses)


def suite_top_vs_full(n_max: int) -> dict:
    witnesses = []
    for n in range(1, n_max + 1):
        full = kl_expand_full(n)
        top = full.graded_part(n + 1)
        gap = full.graded_part(n)
        if top != kl_top(n):
            witnesses.append({"n": n, "part": "top", "got": top.to_json()})
        if not gap.is_zero():
            witnesses.append({"n": n, "part": "gap", "got": gap.to_json()})
    return _report("top-vs-full", {"n_max": n_max}, witnesses)


def suite_positivity(n_max: int) -> dict:
    """Nonnegative integer g/R coefficients: of kl_top(n), which holds by
    construction, and of the whole character from the oracle fit
    kl_expand_full(n), Lassalle's integrality and positivity conjecture."""
    witnesses = []
    for n in range(1, n_max + 1):
        for expansion, poly in (("top", kl_top(n)), ("full", kl_expand_full(n))):
            for (g, mu), coeff in poly.items():
                if coeff.denominator != 1 or coeff < 0:
                    witnesses.append({"n": n, "expansion": expansion,
                                      "gamma": g, "mu": mu,
                                      "coeff": str(coeff)})
    return _report("positivity", {"n_max": n_max}, witnesses)


def suite_t3(n_max: int) -> dict:
    witnesses = []
    for n in range(1, n_max + 1):
        for name, fn in (("chtop", lambda lam, n=n: ch_top_eval(n, lam)),
                         ("jack", lambda lam, n=n: jack_character((n,), lam, bound=n + 3))):
            for k, lam, value in check_T3(n, fn):
                witnesses.append({"function": name, "n": n, "k": k,
                                  "lambda": lam, "value": value.to_json()})
    return _report("t3", {"n_max": n_max}, witnesses)


def suite_p1top(n_max: int) -> dict:
    witnesses = []
    for n in range(2, n_max + 1):
        if not check_p1top(n):
            witnesses.append({"n": n})
    return _report("p1top", {"n_max": n_max}, witnesses)


def suite_orbits(n_max: int) -> dict:
    witnesses = []
    for n in range(1, n_max + 1):
        expected = factorial(n - 1)
        census = orbit_census(n)
        total = 0
        for rep, orbit_size in census:
            total += orbit_size
            if orbit_size != expected:
                witnesses.append({"n": n, "rep": rep, "size": orbit_size})
        if total % expected:
            witnesses.append({"n": n, "total": total})
    return _report("orbits", {"n_max": n_max}, witnesses)


def suite_moment_cumulant(n_max: int) -> dict:
    lam_max = 4
    witnesses = []
    diagrams = list(enumerate_partitions(lam_max))
    for n in range(1, n_max + 1):
        for ct in partitions_of(n):
            perm = perm_from_cycle_type(ct)
            blocks = cycles(perm)
            for lam in diagrams:
                direct = moment_M(perm, lam)
                via_cumulants = Laurent.zero()
                for grouping in set_partitions_above(blocks):
                    term = Laurent.const(1)
                    for block in grouping:
                        term = term * cumulant_K(restricted_perm(perm, block), lam)
                    via_cumulants = via_cumulants + term
                if direct != via_cumulants:
                    witnesses.append({"cycle_type": ct, "lambda": lam})
    return _report("moment-cumulant", {"n_max": n_max, "lam_max": lam_max},
                   witnesses)


def suite_catalan(k_max: int) -> dict:
    witnesses = []
    for k in range(2, k_max + 1):
        m = k - 1
        catalan = factorial(2 * m) // (factorial(m) * factorial(m + 1))
        got = free_cumulant_pair_count(k)
        if got != catalan:
            witnesses.append({"k": k, "got": got, "catalan": catalan})
    return _report("catalan", {"k_max": k_max}, witnesses)


SUITES: dict[str, tuple[Callable[[int], dict], int, int, int | None]] = {
    # name -> (runner of one parameter, its default, its least and its
    # greatest meaningful, None for no greatest)
    "prologue-tables": (suite_prologue_tables, 4, 1, 4),
    "jack-examples": (suite_jack_examples, 6, 1, None),
    "stanley": (suite_stanley, 3, 2, None),
    "vanishing": (suite_vanishing, 5, 1, None),
    "laurent-degree": (suite_laurent_degree, 5, 1, None),
    "st-conversion": (suite_st_conversion, 6, 2, None),
    "equivalence": (suite_equivalence, 5, 1, None),
    "top-vs-full": (suite_top_vs_full, 5, 1, None),
    "positivity": (suite_positivity, 6, 1, None),
    "t3": (suite_t3, 4, 1, None),
    "p1top": (suite_p1top, 6, 2, None),
    "orbits": (suite_orbits, 6, 1, None),
    "moment-cumulant": (suite_moment_cumulant, 4, 1, None),
    "catalan": (suite_catalan, 7, 2, None),
}


def run_suite(name: str, param: int | None = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runner, default, least, greatest = SUITES[name]
    if param is None:
        param = default
    elif param < least:
        # Below its least parameter a suite checks nothing (and would pass)
        # or too few cases to mean anything.
        raise ValueError(f"{name} parameter must be >= {least}, got {param}")
    elif greatest is not None and param > greatest:
        # Above its greatest it would report a range it does not check.
        raise ValueError(f"{name} parameter must be <= {greatest}, got {param}")
    return runner(param)
