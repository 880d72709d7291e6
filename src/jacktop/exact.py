"""Exact coefficient arithmetic.

Five value spaces, all over the rationals:

  * ``Laurent``   -- Laurent polynomials in the indeterminate A,
  * ``GammaPoly`` -- polynomials in g, where g stands for -A + 1/A,
  * ``AlphaPoly`` -- polynomials in alpha, where alpha = A**2: the values of
                    the Jack oracle,
  * ``KLPoly``    -- elements of the graded ring Q[g; R2, R3, ...] with
                    deg g = 1 and deg R_k = k,
  * ``RatFunc``   -- reduced rational functions in alpha, the field of the
                    Gram-Schmidt oracle and of the tests' references.

The first four share one sparse core, with no zero coefficients stored (the
empty map is the canonical zero): ``_Sparse`` (key -> nonzero Fraction, with
add, neg, sub, scale, eq and hash) and, for the three univariate ones,
``_Univariate`` (mul, pow, degree, coeff, long division and the parser of
its text form); ``_Polynomial`` keeps the exponents of g and alpha
nonnegative.  ``RatFunc`` is a numerator and a monic denominator in
``AlphaPoly``, reduced by a gcd from the same long division.  One printer,
``_signed_sum``, writes every text form.

Plus the substitution calculus between them: g -> -A + 1/A, its inverse on
(A <-> -1/A)-invariant Laurent polynomials, and alpha -> A**2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class NotInvariant(ValueError):
    """Input is not fixed by the A -> -1/A substitution."""


class NoPreimage(ValueError):
    """Triangular elimination left a nonzero residual."""


class NotLaurent(ValueError):
    """alpha -> A**2 substitution did not divide exactly."""


_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _power(name: str, e: int) -> list[str]:
    """The factors of name**e as printed: none for e = 0."""
    if e == 0:
        return []
    return [name if e == 1 else f"{name}^{e}"]


#: An unsigned integer or fraction as ``str(Fraction)`` prints it.
_UNSIGNED = r"\d+(?:/\d*[1-9]\d*)?"
_SIGNED = re.compile(rf"-?{_UNSIGNED}")


def _written_fraction(s) -> Fraction:
    """The Fraction that ``str`` prints as s; ValueError for any other text.
    The grammar is checked before Fraction reads s, so exponent notation
    such as 1e10000000 never builds its integer."""
    if not isinstance(s, str) or _SIGNED.fullmatch(s) is None:
        raise ValueError(f"not a written fraction: {s!r}")
    v = Fraction(s)
    if str(v) != s:
        raise ValueError(f"not a fraction in lowest terms: {s!r}")
    return v


def _signed_sum(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Print nonzero (coefficient, factors) terms in the given order as
    "c*x^2*y + x - c": a unit coefficient is left out before factors, a term
    without factors is a constant, and no terms print as 0."""
    out = ""
    for v, factors in terms:
        a = abs(v)
        mon = "*".join(factors)
        if not mon:
            mon = str(a)
        elif a != 1:
            mon = f"{a}*{mon}"
        if out:
            out += (" - " if v < 0 else " + ") + mon
        else:
            out = "-" + mon if v < 0 else mon
    return out or "0"


class _Sparse:
    """Map from key to nonzero Fraction, with its additive group and scaling.

    Subclasses define ``_key``, which validates and normalizes each key given
    to the public constructor, and ``_order``, the sort key of ``items``.
    Arithmetic builds its results with ``_of``, which takes a dict of valid
    keys and nonzero values as it is.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping | None = None):
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                k = self._key(k)
                v = _frac(v)
                if v:
                    c[k] = v
        self._c = c

    @classmethod
    def _of(cls, c: dict):
        r = cls.__new__(cls)
        r._c = c
        return r

    @classmethod
    def zero(cls):
        return cls._of({})

    def items(self) -> Iterator[tuple]:
        return iter(sorted(self._c.items(), key=self._order))

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        out = dict(self._c)
        for k, v in other._c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return self._of(out)

    def __neg__(self):
        return self._of({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, v):
        v = _frac(v)
        return self._of({k: c * v for k, c in self._c.items()} if v else {})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"


class _Univariate(_Sparse):
    """Sparse polynomial in the one variable named by ``_VAR``, keyed by
    exponent."""

    __slots__ = ()
    _order = None

    @staticmethod
    def _key(e) -> int:
        return int(e)

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def monomial(cls, exp: int, coeff=1):
        return cls({exp: coeff})

    @classmethod
    def var(cls):
        """The indeterminate itself."""
        return cls({1: 1})

    def coeff(self, d: int) -> Fraction:
        """Coefficient of the d-th power (zero if absent)."""
        return self._c.get(d, _ZERO)

    def degree(self) -> int | None:
        """Largest stored exponent, or None for the zero polynomial."""
        return max(self._c) if self._c else None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = out.get(e, 0) + v1 * v2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return self._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        """Long division from the top: (q, r) with self = q*other + r and r
        zero or of lower degree than other."""
        if not other._c:
            raise ZeroDivisionError(
                f"division by the zero {type(self).__name__}")
        d = other.degree()
        lead = other._c[d]
        quo: dict[int, Fraction] = {}
        rem = dict(self._c)
        while rem and (top := max(rem)) >= d:
            c = rem[top] / lead
            quo[top - d] = c
            for e, v in other._c.items():
                e += top - d
                s = rem.get(e, 0) - c * v
                if s:
                    rem[e] = s
                else:
                    del rem[e]
        return self._of(quo), self._of(rem)

    def text(self) -> str:
        return _signed_sum((v, _power(self._VAR, e))
                           for e, v in sorted(self._c.items(), reverse=True))

    @classmethod
    def parse(cls, s: str):
        """Inverse of text(); raises ValueError on other forms and on an
        exponent that ``_key`` refuses."""
        x = re.escape(cls._VAR)
        term = re.compile(
            rf"(-?)(?:(?:({_UNSIGNED})\*)?{x}(?:\^(-?\d+))?|({_UNSIGNED}))")
        out: dict[int, Fraction] = {}
        for piece in s.replace(" - ", " + -").split(" + "):
            m = term.fullmatch(piece)
            if m is None:
                raise ValueError(f"not a term of {cls.__name__}: {piece!r}")
            sign, coeff, exp, const = m.groups()
            e, v = ((0, Fraction(const)) if const
                    else (int(exp or 1), Fraction(coeff or 1)))
            out[e] = out.get(e, 0) + (-v if sign else v)
        return cls(out)


class Laurent(_Univariate):
    """Sparse Laurent polynomial in A with Fraction coefficients."""

    __slots__ = ()
    _VAR = "A"

    # Own-namespace aliases: the benchmark's tracer wraps each arithmetic
    # method through the class's own __dict__.
    __add__ = _Sparse.__add__
    __neg__ = _Sparse.__neg__
    __sub__ = _Sparse.__sub__
    __mul__ = _Univariate.__mul__
    __rmul__ = _Univariate.__rmul__
    scale = _Sparse.scale
    __pow__ = _Univariate.__pow__

    def s_involution(self) -> "Laurent":
        """Substitute A := -1/A, mapping c*A**k to c*(-A)**(-k)."""
        return self._of({-e: (v if e % 2 == 0 else -v) for e, v in self._c.items()})

    def to_json(self) -> dict[str, str]:
        return {str(e): str(v) for e, v in sorted(self._c.items())}

    @staticmethod
    def from_json(obj: Mapping[str, str]) -> "Laurent":
        """Inverse of to_json; a coefficient must be written as to_json
        writes it (ValueError otherwise)."""
        return Laurent({int(e): _written_fraction(v) for e, v in obj.items()})


#: The substitution image of g, i.e. -A + 1/A.
GAMMA_A = Laurent({1: -1, -1: 1})


class _Polynomial(_Univariate):
    """A _Univariate with nonnegative exponents only."""

    __slots__ = ()

    @classmethod
    def _key(cls, e) -> int:
        e = int(e)
        if e < 0:
            raise ValueError(f"negative exponent of {cls._VAR}")
        return e


class GammaPoly(_Polynomial):
    """Sparse polynomial in g."""

    __slots__ = ()
    _VAR = "g"


class AlphaPoly(_Polynomial):
    """Sparse polynomial in alpha, printed as a: the values of the Jack
    oracle, whose power-sum coefficients lie in Z[alpha]."""

    __slots__ = ()
    _VAR = "a"

    def at_A_squared(self, shift: int = 0, factor=1) -> Laurent:
        """factor * A**shift times the image under alpha -> A**2."""
        return Laurent({2 * e + shift: v * factor for e, v in self._c.items()})


def subst_gamma(p: GammaPoly) -> Laurent:
    """Image of p under g -> -A + 1/A."""
    out = Laurent.zero()
    for e, v in p.items():
        out = out + gamma_power_A(e).scale(v)
    return out


_GAMMA_POWERS: list[Laurent] = [Laurent.const(1)]


def gamma_power_A(e: int) -> Laurent:
    """Cached (-A + 1/A)**e."""
    while len(_GAMMA_POWERS) <= e:
        _GAMMA_POWERS.append(_GAMMA_POWERS[-1] * GAMMA_A)
    return _GAMMA_POWERS[e]


def addmul_ints(acc: dict[int, int], a: dict[int, int], b: dict[int, int],
                sign: int = 1) -> dict[int, int]:
    """acc + sign * a * b for Laurent polynomials in A held as exponent ->
    nonzero int dicts; acc is updated in place and returned."""
    for e1, v1 in a.items():
        v1 *= sign
        for e2, v2 in b.items():
            e = e1 + e2
            v = acc.get(e, 0) + v1 * v2
            if v:
                acc[e] = v
            else:
                del acc[e]
    return acc


def int_coeffs(p: Laurent) -> dict[int, int]:
    """The exponent -> int dict of a Laurent polynomial with integer
    coefficients, the form addmul_ints takes; raises ValueError on a
    fractional coefficient."""
    out = {}
    for e, v in p._c.items():
        if v.denominator != 1:
            raise ValueError(f"not an integer coefficient: {v}")
        out[e] = v.numerator
    return out


def gamma_recover(f: Laurent) -> GammaPoly:
    """The unique p with subst_gamma(p) = f, for s-involution-invariant f.

    Triangular elimination against the images of 1, g, g**2, ...: the image
    of g**j has top coefficient (-1)**j at A**j, so coefficients are peeled
    off from the top degree downward.
    """
    if f.s_involution() != f:
        raise NotInvariant(f"not invariant under A -> -1/A: {f!r}")
    residual = f
    coeffs: dict[int, Fraction] = {}
    while not residual.is_zero():
        d = residual.degree()
        if d < 0:
            break
        a = residual.coeff(d) / ((-1) ** d)
        coeffs[d] = a
        residual = residual - gamma_power_A(d).scale(a)
    if not residual.is_zero():
        raise NoPreimage(f"nonzero residual {residual!r}")
    return GammaPoly(coeffs)


class RatFunc:
    """Reduced ratio of polynomials in alpha, with monic denominator: the
    field of the Gram-Schmidt oracle and of the tests' references.  An
    AlphaPoly, int or Fraction stands for itself over 1, also in ``==``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = (v if isinstance(v, AlphaPoly) else AlphaPoly.const(v)
                    for v in (num, den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        g, r = den, num
        while r:
            g, r = r, g.divmod(r)[1]
        if g.degree():
            num, den = num.divmod(g)[0], den.divmod(g)[0]
        lead = den.coeff(den.degree())
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num, self.den = num, den

    @staticmethod
    def alpha() -> "RatFunc":
        return RatFunc(AlphaPoly.var())

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, AlphaPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # Over 1 it equals its numerator, so it hashes alike.
        return hash((self.num, self.den) if self.den.degree() else self.num)

    def __add__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other) -> "RatFunc":
        return self + (-_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def text(self) -> str:
        if not self.den.degree():
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    @staticmethod
    def parse(s: str) -> "RatFunc":
        """Inverse of text()."""
        if s.startswith("(") and ")/(" in s:
            n, d = s[1:-1].split(")/(", 1)
            return RatFunc(AlphaPoly.parse(n), AlphaPoly.parse(d))
        return RatFunc(AlphaPoly.parse(s))

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


def _ratfunc(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)


def alpha_to_A(r: RatFunc) -> Laurent:
    """Substitute alpha := A**2 and perform the exact division num/den.

    The numerator is first raised by the top power of the denominator, so
    that a Laurent quotient becomes a polynomial one, which long division
    finds; raises NotLaurent on a remainder."""
    k = 2 * r.den.degree()
    quo, rem = r.num.at_A_squared(k).divmod(r.den.at_A_squared())
    if rem:
        raise NotLaurent("alpha -> A**2 image does not divide exactly")
    return quo * Laurent.monomial(-k)


# ---------------------------------------------------------------------------

KLKey = tuple[int, tuple[int, ...]]  # (gamma exponent, mu weakly decreasing)


class KLPoly(_Sparse):
    """Element of Q[g; R2, R3, ...], stored as a map (g, mu) -> coefficient."""

    __slots__ = ()

    # Own-namespace aliases, as in Laurent.
    __add__ = _Sparse.__add__
    __neg__ = _Sparse.__neg__
    __sub__ = _Sparse.__sub__
    scale = _Sparse.scale

    @staticmethod
    def _key(key) -> KLKey:
        g, mu = key
        mu = tuple(sorted(mu, reverse=True))
        if any(m < 2 for m in mu):
            raise ValueError(f"mu parts must be >= 2: {mu}")
        if g < 0:
            raise ValueError("negative gamma exponent")
        return (g, mu)

    @staticmethod
    def _order(item):
        """Graded order: by g + |mu|, then by g, then by mu decreasing."""
        (g, mu), _ = item
        return (g + sum(mu), g, tuple(-m for m in mu))

    @staticmethod
    def term(g: int, mu: Iterable[int], coeff=1) -> "KLPoly":
        return KLPoly({(g, tuple(mu)): coeff})

    def coeff(self, g: int, mu: Iterable[int]) -> Fraction:
        return self._c.get(self._key((g, mu)), _ZERO)

    def graded_part(self, d: int) -> "KLPoly":
        """Keep exactly the keys with g + |mu| = d."""
        return self._of({(g, mu): v for (g, mu), v in self._c.items()
                         if g + sum(mu) == d})

    def gradings(self) -> set[int]:
        return {g + sum(mu) for (g, mu) in self._c}

    def to_json(self) -> list[dict]:
        return [{"gamma": g, "mu": list(mu), "coeff": str(v)}
                for (g, mu), v in self.items()]

    @staticmethod
    def from_json(arr: Iterable[Mapping]) -> "KLPoly":
        """Inverse of to_json; a coefficient must be written as to_json
        writes it (ValueError otherwise)."""
        return KLPoly({(int(o["gamma"]), tuple(int(m) for m in o["mu"])):
                       _written_fraction(o["coeff"]) for o in arr})

    def text(self) -> str:
        """Terms in graded order, each as R-factors then the g power."""
        return _signed_sum((v, [f"R{m}" for m in mu] + _power("g", g))
                           for (g, mu), v in self.items())
