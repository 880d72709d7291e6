"""Exact coefficient arithmetic.

Four value spaces, all over the rationals and all stored sparsely with no
zero coefficients (the empty map is the canonical zero):

  * ``Laurent``   -- Laurent polynomials in the indeterminate A,
  * ``GammaPoly`` -- polynomials in g, where g stands for -A + 1/A,
  * ``RatFunc``   -- reduced rational functions in alpha, where alpha = A**2,
  * ``KLPoly``    -- elements of the graded ring Q[g; R2, R3, ...] with
                    deg g = 1 and deg R_k = k.

``Laurent``, ``GammaPoly`` and ``KLPoly`` share one sparse core: ``_Sparse``
(key -> nonzero Fraction, with add, neg, sub, scale, eq and hash) and, for the
first two, ``_Univariate`` (mul, pow, degree, coeff).  One printer,
``_signed_sum``, writes all four text forms, ``RatFunc`` via ``p_text``.

Plus the substitution calculus between them: g -> -A + 1/A, its inverse on
(A <-> -1/A)-invariant Laurent polynomials, and alpha -> A**2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class NotInvariant(ValueError):
    """Input is not fixed by the A -> -1/A substitution."""


class NoPreimage(ValueError):
    """Triangular elimination left a nonzero residual."""


class NotLaurent(ValueError):
    """alpha -> A**2 substitution did not divide exactly."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _power(name: str, e: int) -> list[str]:
    """The factors of name**e as printed: none for e = 0."""
    if e == 0:
        return []
    return [name if e == 1 else f"{name}^{e}"]


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
        return self._c.get(d, Fraction(0))

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

    def text(self) -> str:
        return _signed_sum((v, _power(self._VAR, e))
                           for e, v in sorted(self._c.items(), reverse=True))


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
        return Laurent({int(e): Fraction(v) for e, v in obj.items()})


#: The substitution image of g, i.e. -A + 1/A.
GAMMA_A = Laurent({1: -1, -1: 1})


class GammaPoly(_Univariate):
    """Sparse polynomial in g (nonnegative exponents only)."""

    __slots__ = ()
    _VAR = "g"

    @staticmethod
    def _key(e) -> int:
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent of g")
        return e


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


# ---------------------------------------------------------------------------
# Dense polynomial helpers over Q, used for the alpha coefficient field.
# A polynomial is a tuple of Fractions, index = exponent, no trailing zeros.

Poly = tuple  # tuple[Fraction, ...]

P_ZERO: Poly = ()
P_ONE: Poly = (Fraction(1),)


def p_trim(c: list) -> Poly:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def p_neg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return P_ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return p_trim(out)


def p_scale(a: Poly, v) -> Poly:
    v = _frac(v)
    return tuple(x * v for x in a) if v else P_ZERO


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return p_trim(quo), p_trim(rem)


def p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, p_divmod(a, b)[1]
    if a:
        a = p_scale(a, 1 / a[-1])  # monic
    return a


def p_text(a: Poly, name: str = "a") -> str:
    return _signed_sum((a[e], _power(name, e))
                       for e in range(len(a) - 1, -1, -1) if a[e])


def p_parse(s: str, name: str = "a") -> Poly:
    """Inverse of p_text, for the cache files."""
    s = s.strip()
    if s == "0":
        return P_ZERO
    out: dict[int, Fraction] = {}
    s = s.replace("- ", "+ -").replace("+ ", "+")
    for term in s.split("+"):
        term = term.strip()
        if not term:
            continue
        if "*" in term:
            cs, xs = term.split("*", 1)
            coeff = Fraction(cs)
        elif term.startswith(name) or term.startswith("-" + name):
            coeff = Fraction(-1 if term.startswith("-") else 1)
            xs = term.lstrip("-")
        else:
            coeff, xs = Fraction(term), ""
        if not xs:
            e = 0
        elif "^" in xs:
            e = int(xs.split("^", 1)[1])
        else:
            e = 1
        out[e] = out.get(e, Fraction(0)) + coeff
    c = [Fraction(0)] * (max(out) + 1 if out else 0)
    for e, v in out.items():
        c[e] = v
    return p_trim(c)


class RatFunc:
    """Reduced ratio of polynomials in alpha; the denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE, *, reduced: bool = False):
        if isinstance(num, (int, Fraction)):
            num = (_frac(num),) if num else P_ZERO
        if isinstance(den, (int, Fraction)):
            den = (_frac(den),) if den else P_ZERO
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not reduced:
            g = p_gcd(num, den)
            if g and g != P_ONE:
                num = p_divmod(num, g)[0]
                den = p_divmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = p_scale(num, 1 / lead)
                den = p_scale(den, 1 / lead)
        self.num = num
        self.den = den

    @staticmethod
    def const(v) -> "RatFunc":
        return RatFunc(v)

    @staticmethod
    def alpha() -> "RatFunc":
        return RatFunc((Fraction(0), Fraction(1)))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return RatFunc(p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
                       p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num = p_neg(self.num)
        r.den = self.den
        return r

    def __sub__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return RatFunc(p_mul(self.num, other.num), p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def text(self) -> str:
        n = p_text(self.num, "a")
        if self.den == P_ONE:
            return n
        return f"({n})/({p_text(self.den, 'a')})"

    @staticmethod
    def parse(s: str) -> "RatFunc":
        s = s.strip()
        if s.startswith("(") and ")/(" in s:
            n, d = s[1:-1].split(")/(", 1)
            return RatFunc(p_parse(n), p_parse(d))
        return RatFunc(p_parse(s))

    def __repr__(self) -> str:
        return f"RatFunc({self.text()})"


def _laurent_div(num: Laurent, den: Laurent) -> Laurent:
    """Exact division of Laurent polynomials; raises NotLaurent on remainder."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return Laurent.zero()
    # Shift both to ordinary polynomials in A.
    nlo = min(e for e, _ in num.items())
    dlo = min(e for e, _ in den.items())
    nd = {e - nlo: v for e, v in num.items()}
    dd = {e - dlo: v for e, v in den.items()}
    a = [Fraction(0)] * (max(nd) + 1)
    for e, v in nd.items():
        a[e] = v
    b = [Fraction(0)] * (max(dd) + 1)
    for e, v in dd.items():
        b[e] = v
    quo, rem = p_divmod(tuple(a), tuple(b))
    if rem:
        raise NotLaurent("alpha -> A**2 image does not divide exactly")
    return Laurent({e + nlo - dlo: v for e, v in enumerate(quo) if v})


def alpha_to_A(r: RatFunc) -> Laurent:
    """Substitute alpha := A**2 and perform the exact division num/den."""
    num = Laurent({2 * e: v for e, v in enumerate(r.num) if v})
    den = Laurent({2 * e: v for e, v in enumerate(r.den) if v})
    return _laurent_div(num, den)


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
        return self._c.get(self._key((g, mu)), Fraction(0))

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
        return KLPoly({(int(o["gamma"]), tuple(int(m) for m in o["mu"])):
                       Fraction(o["coeff"]) for o in arr})

    def text(self) -> str:
        """Terms in graded order, each as R-factors then the g power."""
        return _signed_sum((v, [f"R{m}" for m in mu] + _power("g", g))
                           for (g, mu), v in self.items())
