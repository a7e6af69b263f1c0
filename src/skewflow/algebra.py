"""Exact rational scalars and dense univariate polynomials.

The scalar type is ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator.  ``Rational`` is an alias so call
sites read like the rest of the library.  A polynomial stores one integer
form: a dense tuple of int numerators, constant term first with no
trailing zero, over one positive denominator coprime to them all.  Its
arithmetic, evaluation and exact division run in Python ints, and a
``Fraction`` is built only for a value handed out.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import NotDivisible

Rational = Fraction

RationalLike = Union[Rational, int, str]


def rat(value: RationalLike) -> Rational:
    """Coerce an int, "num/den" string or Fraction to a Rational.

    A string with a zero denominator raises ValueError, like any other
    malformed rational.  Floats and bools raise ValueError too: a float is
    not an exact rational (0.1 would become 3602879701896397/2**55), and a
    JSON true/false is not a number.  So does a string with an exponent
    ("1e3") or a decimal point ("0.5"): ``Fraction`` expands 10**k for k
    exponent or fraction digits before any digit limit applies, so
    "1e10000000" would take seconds and a million-digit decimal costs
    time quadratic in its length.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent spelling not accepted: {value[:40]!r}")
        if "." in value:
            raise ValueError(f"decimal spelling not accepted: {value[:40]!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


# The spelling rat_str writes: ASCII digits, an optional minus, one slash.
_CANONICAL = re.compile(r"-?[0-9]+/[0-9]+")


def rat_parts(value: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of ``rat(value)`` without building a Fraction.

    A string spelled as :func:`rat_str` writes it with a nonzero denominator
    costs two ``int()`` calls and one gcd; every other input goes through
    :func:`rat`, so both accept and reject the same values.
    """
    if type(value) is str and _CANONICAL.fullmatch(value):
        num, _, den = value.partition("/")
        p, q = int(num), int(den)
        if q:
            g = gcd(p, q)
            return p // g, q // g
    v = rat(value)
    return v.numerator, v.denominator


def rat_str(value: Rational) -> str:
    """Serialize a Rational as "num/den" (denominator always present)."""
    return f"{value.numerator}/{value.denominator}"


def ratio_str(num: int, den: int) -> str:
    """``rat_str(Fraction(num, den))`` for den > 0, by one gcd."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def form_json(num: Sequence[int], den: int) -> list[str]:
    """The coefficient list :meth:`Polynomial.to_json` writes for the
    polynomial num/den, den > 0, from any integer form of it, reduced or
    not: trailing zeros dropped, each coefficient reduced by one gcd."""
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    out = []
    for c in num[:end]:
        g = gcd(c, den)
        out.append(f"{c // g}/{den // g}")
    return out


def clear_denominators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integers a and the least d > 0 with values[k] = a[k]/d."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def convolve(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer coefficient lists,
    constant first."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, c in enumerate(y, i):
                out[j] += a * c
    return out


class Polynomial:
    """Dense univariate polynomial over exact rationals.

    Stored as ``num``, a tuple of ints with no trailing zero (coefficient
    ``k`` multiplies ``z**k``), over ``den > 0`` with gcd(den, *num) = 1, so
    ``den`` is the lcm of the coefficient denominators and equal values have
    equal forms.  The zero polynomial is ``((), 1)``.  Every method works
    on the ints and reduces its result by one gcd.  Instances are
    immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        num, den = clear_denominators(cs)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num: list[int], den: int) -> "Polynomial":
        """num/den with den > 0, stripped of trailing zeros and reduced."""
        while num and not num[-1]:
            num.pop()
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "num", tuple(num))
        object.__setattr__(poly, "den", den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        return Polynomial((rat(c),))

    @staticmethod
    def monomial(k: int, c: RationalLike = 1) -> "Polynomial":
        return Polynomial([0] * k + [rat(c)])

    @staticmethod
    def variable() -> "Polynomial":
        return Polynomial((0, 1))

    # -- inspection ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """Coefficients as Rationals, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def coefficient(self, k: int) -> Rational:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    @property
    def leading(self) -> Rational:
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[-1], self.den)

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other over lcm(den, other.den)."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a = [fa * c for c in self.num]
        b = [fb * c for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial._reduced(a, den)

    @classmethod
    def combination(
        cls, terms: Iterable[tuple[RationalLike, "Polynomial"]]
    ) -> "Polynomial":
        """sum_k c_k p_k over one common denominator, reduced once.

        With c_k = a_k/b_k the sum is formed on the int numerators over
        lcm(b_k * p_k.den), so a sum of many terms pays one gcd rather
        than one per term.
        """
        terms = [(c, p) for c, p in ((rat(c), p) for c, p in terms) if c and p.num]
        den = lcm(*(c.denominator * p.den for c, p in terms))
        out = [0] * max((len(p.num) for _, p in terms), default=0)
        for c, p in terms:
            f = c.numerator * (den // (c.denominator * p.den))
            for i, a in enumerate(p.num):
                out[i] += f * a
        return cls._reduced(out, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._reduced([-c for c in self.num], self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.num or not other.num:
            return Polynomial()
        return Polynomial._reduced(convolve(self.num, other.num), self.den * other.den)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = rat(c)
        p = c.numerator
        return Polynomial._reduced([p * a for a in self.num], c.denominator * self.den)

    def __call__(self, x: RationalLike) -> Rational:
        return self.eval(x)

    def eval(self, x: RationalLike) -> Rational:
        """Exact value at x = p/q by homogeneous Horner:
        sum_i num_i p^i q^(d-i) over q^d den."""
        x = rat(x)
        if not self.num:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc = 0
        qk = 1  # q^(d-i) when num_i is added
        for c in reversed(self.num):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, q ** self.degree * self.den)

    def div_by_linear(self, root: RationalLike) -> "Polynomial":
        """Exact division by (z - root).

        With root = p/q the integer numerator is divided by q*z - p; by
        Gauss's lemma the quotient has integer coefficients exactly when
        ``root`` is a root.  Raises NotDivisible otherwise; a failure
        signals a genericity violation or a caller bug upstream.
        """
        root = rat(root)
        num = self.num
        if not num:
            return Polynomial()
        p, q = root.numerator, root.denominator
        quotient = [0] * (len(num) - 1)
        carry = 0
        for k in range(len(num) - 1, 0, -1):
            carry, rest = divmod(num[k] + p * carry, q)
            if rest:
                break
            quotient[k - 1] = carry
        else:
            if num[0] + p * carry == 0:
                # f/den = (q z - p) g/den, so f/(den (z - p/q)) = q g/den
                return Polynomial._reduced([q * c for c in quotient], self.den)
        raise NotDivisible(
            f"polynomial does not vanish at {rat_str(root)} "
            f"(remainder {rat_str(self.eval(root))})"
        )

    # -- comparison / misc -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if not self.num:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}*z^{k}" if k else f"{c}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficient list, constant term first, rationals as strings."""
        return form_json(self.num, self.den)

    @staticmethod
    def from_json(data: list[str]) -> "Polynomial":
        """The polynomial a :meth:`to_json` list describes; ValueError for
        anything but a list of rationals."""
        if not isinstance(data, list):
            raise ValueError(f"a polynomial must be a list of coefficients, got {data!r:.40}")
        parts = [rat_parts(c) for c in data]
        den = lcm(*(q for _, q in parts))
        # each p/q is reduced, so gcd(den, *num) = 1 already
        return Polynomial._reduced([p * (den // q) for p, q in parts], den)
