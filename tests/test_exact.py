from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacktop.exact import (GAMMA_A, AlphaPoly, GammaPoly, KLPoly, Laurent,
                           NoPreimage, NotInvariant, NotLaurent, RatFunc,
                           alpha_to_A, gamma_recover, subst_gamma)


def L(d):
    return Laurent(d)


def test_laurent_mul_monomials():
    assert L({1: 1}) * L({1: 1}) == L({2: 1})


def test_laurent_additive_inverse():
    a = L({1: 1, -1: -1})
    b = L({1: -1, -1: 1})
    assert (a + b).is_zero()


def test_laurent_schoolbook_square():
    # (2A - 1/A)^2 expanded by hand: 4A^2 - 4 + A^-2
    a = L({1: 2, -1: -1})
    assert a * a == L({2: 4, 0: -4, -2: 1})


def test_laurent_degree_and_coeff():
    f = L({2: 3, -1: Fraction(-1, 2)})
    assert f.degree() == 2
    assert f.coeff(2) == 3
    assert f.coeff(0) == 0
    assert Laurent.zero().degree() is None


def test_subst_gamma_basics():
    assert subst_gamma(GammaPoly.var()) == GAMMA_A == L({1: -1, -1: 1})
    assert subst_gamma(GammaPoly.const(1)) == L({0: 1})
    assert subst_gamma(GammaPoly({2: 1})) == L({2: 1, 0: -2, -2: 1})


def test_coeff_of_gamma_square_image():
    assert subst_gamma(GammaPoly({2: 1})).coeff(-2) == 1


def test_s_involution_values():
    assert L({1: 1}).s_involution() == L({-1: -1})
    assert GAMMA_A.s_involution() == GAMMA_A
    assert L({0: 1}).s_involution() == L({0: 1})


def test_gamma_recover_examples():
    assert gamma_recover(L({1: -1, -1: 1})) == GammaPoly.var()
    assert gamma_recover(Laurent.zero()) == GammaPoly.zero()
    assert gamma_recover(L({2: 1, 0: -2, -2: 1})) == GammaPoly({2: 1})


def test_gamma_recover_not_invariant():
    with pytest.raises(NotInvariant):
        gamma_recover(L({1: 1}))


def test_gamma_recover_no_preimage():
    # Invariant under the substitution but with a negative-only top degree.
    with pytest.raises((NotInvariant, NoPreimage)):
        gamma_recover(L({-2: 1}))


def test_ratfunc_basics():
    alpha = RatFunc.alpha()
    assert alpha_to_A(alpha) == L({2: 1})
    assert alpha_to_A(alpha - RatFunc(1)) == L({2: 1, 0: -1})
    assert alpha_to_A(RatFunc(1) / alpha) == L({-2: 1})


def test_ratfunc_normalization():
    # gcd-reduced with monic denominator after every operation
    a = RatFunc(AlphaPoly({1: 2}), AlphaPoly({2: 4}))
    assert a == RatFunc(Fraction(1, 2)) / RatFunc.alpha()
    assert a.den.coeff(a.den.degree()) == 1


def test_alpha_to_A_not_laurent():
    # 1/(alpha+1) does not become a Laurent polynomial.
    bad = RatFunc(1) / (RatFunc.alpha() + 1)
    with pytest.raises(NotLaurent):
        alpha_to_A(bad)


def test_kl_graded_part():
    p = KLPoly({(0, (3,)): 1, (1, (2,)): 1, (0, (2,)): 5})
    assert p.graded_part(3) == KLPoly({(0, (3,)): 1, (1, (2,)): 1})
    assert p.graded_part(0).is_zero()


def test_kl_add_disjoint():
    a = KLPoly({(0, (3,)): 1})
    b = KLPoly({(1, (2,)): 2})
    assert a + b == KLPoly({(0, (3,)): 1, (1, (2,)): 2})


def test_kl_json_order():
    p = KLPoly({(3, (2,)): 6, (0, (5,)): 1, (1, (2, 2)): 1, (1, (4,)): 6,
                (2, (3,)): 11})
    arr = p.to_json()
    assert [o["gamma"] for o in arr] == [0, 1, 1, 2, 3]
    assert arr[1]["mu"] == [4] and arr[2]["mu"] == [2, 2]
    assert KLPoly.from_json(arr) == p


def test_laurent_json_form():
    assert L({1: 2, -1: -1}).to_json() == {"-1": "-1", "1": "2"}
    assert Laurent.from_json({"-1": "-1", "1": "2"}) == L({1: 2, -1: -1})


# "1e10000000" would take Fraction seconds and a 4 MB integer to read.
NOT_WRITTEN = ["1e3", "7.0", "+7", " 7", "-3/6", "1e10000000", "-0", "1/0", 7]


@pytest.mark.parametrize("coeff", NOT_WRITTEN)
def test_kl_from_json_takes_written_coefficients_only(coeff):
    with pytest.raises(ValueError):
        KLPoly.from_json([{"gamma": 0, "mu": [2], "coeff": coeff}])


@pytest.mark.parametrize("coeff", NOT_WRITTEN)
def test_laurent_from_json_takes_written_coefficients_only(coeff):
    with pytest.raises(ValueError):
        Laurent.from_json({"1": coeff})


small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
laurents = st.dictionaries(st.integers(-6, 6), small_fracs, max_size=5).map(Laurent)
gamma_polys = st.dictionaries(st.integers(0, 5), small_fracs, max_size=4).map(GammaPoly)


@given(laurents)
def test_s_involution_is_involution(f):
    assert f.s_involution().s_involution() == f


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@given(gamma_polys)
def test_gamma_roundtrip(p):
    assert gamma_recover(subst_gamma(p)) == p


@given(gamma_polys)
def test_gamma_degree_preserved(p):
    image = subst_gamma(p)
    if p.is_zero():
        assert image.is_zero()
    else:
        assert image.degree() == p.degree()


monomial_ratfuncs = st.tuples(
    st.lists(small_fracs, max_size=4).map(
        lambda c: AlphaPoly(dict(enumerate(c)))),
    st.integers(0, 3),
).filter(lambda t: t[0]).map(
    lambda t: RatFunc(t[0], AlphaPoly.monomial(t[1])))


@given(monomial_ratfuncs, monomial_ratfuncs)
@settings(max_examples=40)
def test_alpha_to_A_multiplicative(a, b):
    assert alpha_to_A(a * b) == alpha_to_A(a) * alpha_to_A(b)


def test_kl_scale():
    p = KLPoly({(0, (3,)): 1, (1, (2,)): 2})
    assert p.scale(Fraction(1, 2)) == KLPoly({(0, (3,)): Fraction(1, 2),
                                              (1, (2,)): 1})
    assert p.scale(0).is_zero()


@given(gamma_polys)
def test_gamma_images_are_involution_invariant(p):
    image = subst_gamma(p)
    assert image.s_involution() == image


# Text forms: one printer serves all four value spaces, and RatFunc.text is
# what the disk cache stores, so these strings must not drift.
@pytest.mark.parametrize("value, text", [
    (L({1: 1, -1: -1}), "A - A^-1"),
    (L({0: 3}), "3"),
    (L({2: -1, 0: Fraction(1, 2)}), "-A^2 + 1/2"),
    (L({-2: Fraction(-3, 2)}), "-3/2*A^-2"),
    (Laurent.zero(), "0"),
    (GammaPoly({2: 1, 1: -2, 0: 1}), "g^2 - 2*g + 1"),
    (GammaPoly({1: -1}), "-g"),
    (GammaPoly({0: Fraction(-2, 3)}), "-2/3"),
    (GammaPoly.zero(), "0"),
    (KLPoly({(0, ()): 1}), "1"),
    (KLPoly({(0, ()): Fraction(-7, 2), (0, (2,)): 1}), "-7/2 + R2"),
    (KLPoly({(2, ()): 1, (1, ()): -3}), "-3*g + g^2"),
    (KLPoly({(0, (2, 2)): Fraction(-5, 2), (2, (3,)): 1, (1, (3,)): 6}),
     "-5/2*R2*R2 + 6*R3*g + R3*g^2"),
    (KLPoly.zero(), "0"),
    ((RatFunc.alpha() * 3 - RatFunc(Fraction(1, 2))) / (RatFunc.alpha() + 2),
     "(3*a - 1/2)/(a + 2)"),
    (RatFunc(-1), "-1"),
    (RatFunc(AlphaPoly({2: -1})), "-a^2"),
    (RatFunc(1) / RatFunc.alpha(), "(1)/(a)"),
    (RatFunc(0), "0"),
    (AlphaPoly({2: -1, 0: Fraction(1, 2)}), "-a^2 + 1/2"),
    (AlphaPoly({1: 3}), "3*a"),
    (AlphaPoly.zero(), "0"),
])
def test_text_goldens(value, text):
    assert value.text() == text
    assert repr(value) == f"{type(value).__name__}({text})"


def test_equality_is_strict_on_type():
    assert Laurent({0: 1}) != GammaPoly({0: 1})
    assert GammaPoly({1: 2}) != KLPoly({(1, ()): 2})


@pytest.mark.parametrize("make", [
    lambda: GammaPoly({-1: 1}),
    lambda: AlphaPoly({-1: 1}),
    lambda: KLPoly({(0, (1,)): 1}),
    lambda: KLPoly({(0, (3, 0)): 1}),
    lambda: KLPoly({(-1, (2,)): 1}),
    lambda: KLPoly.term(0, (2,)).coeff(0, (1,)),
])
def test_invalid_keys_raise(make):
    with pytest.raises(ValueError):
        make()


kl_keys = st.tuples(st.integers(0, 3),
                    st.lists(st.integers(2, 5), max_size=3).map(tuple))
kl_polys = st.dictionaries(kl_keys, small_fracs, max_size=4).map(KLPoly)
sparse_triples = (st.tuples(gamma_polys, gamma_polys, gamma_polys)
                  | st.tuples(kl_polys, kl_polys, kl_polys))


@given(sparse_triples, small_fracs, small_fracs)
def test_additive_group_and_scale_laws(abc, x, y):
    a, b, c = abc
    zero = type(a).zero()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and (a - a) == zero and -(-a) == a
    assert a - b == a + (-b)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a.scale(x).scale(y) == a.scale(x * y)
    assert (a + b).scale(x) == a.scale(x) + b.scale(x)
    assert a.scale(x + y) == a.scale(x) + a.scale(y)
    assert a.scale(1) == a and a.scale(0) == zero


@given(gamma_polys, gamma_polys, st.integers(0, 3))
@settings(max_examples=40)
def test_subst_gamma_is_multiplicative(p, q, k):
    assert subst_gamma(p * q) == subst_gamma(p) * subst_gamma(q)
    assert subst_gamma(p ** k) == subst_gamma(p) ** k


alpha_polys = st.dictionaries(st.integers(0, 5), small_fracs, max_size=4).map(AlphaPoly)


@given(st.tuples(laurents, laurents) | st.tuples(alpha_polys, alpha_polys))
def test_divmod_is_long_division(ab):
    a, b = ab
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()


def test_ratfunc_equals_its_alpha_polynomial():
    p = AlphaPoly({0: 1, 2: Fraction(-1, 3)})
    r = RatFunc(p * AlphaPoly({0: 1, 1: 1}), AlphaPoly({0: 1, 1: 1}))
    assert r == p and p == r and hash(r) == hash(p)
    assert RatFunc(p, 2) != p and RatFunc.alpha() != AlphaPoly.const(1)
