"""Exact rational scalars and dense univariate polynomials.

The scalar type is ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator.  ``Rational`` is an alias so call
sites read like the rest of the library.  A polynomial stores one integer
form: a dense tuple of int numerators, constant term first with no
trailing zero, over one positive denominator coprime to them all.  Its
arithmetic and evaluation run in Python ints, and a ``Fraction`` is built
only for a value handed out.

The transforms and the lattice keep integer forms that are never reduced
and work on them with the free functions here: :func:`convolve` for a
product, :func:`horner` for a value at a point, :func:`linear_quotient`
for the exact division by z - root, and :func:`sums_to_zero`, the one
rule by which every polynomial identity of the library is checked: a sum
of integer terms brought over one denominator, with no reduction.
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


def sums_to_zero(terms: Sequence[tuple[int, Sequence[int], Sequence[int], int]]) -> bool:
    """Whether the sum of k * f * v / d over the terms (k, f, v, d) is the
    zero polynomial, where k and d != 0 are ints of either sign and f and v
    integer coefficient lists, constant first.

    The one integer-identity rule of the library: the lattice relations
    and the transforms' row, rebuild and factorization identities all
    check through it.  Every term is brought over the product P of all
    denominators: the convolution f * v is scaled by k * (P // d), an
    exact quotient (f, the short factor, is scaled first), and the scaled
    terms are added.  No Fraction is formed and nothing is reduced.
    """
    total, size = 1, 0
    for _, f, v, d in terms:
        total *= d
        if len(f) + len(v) > size:
            size = len(f) + len(v)
    out = [0] * (size - 1)
    for k, f, v, d in terms:
        k *= total // d
        for i, a in enumerate(f):
            if a:
                a *= k
                for j, c in enumerate(v, i):
                    out[j] += a * c
    return not any(out)


def horner(num: Sequence[int], p: int, q: int) -> int:
    """sum_i num[i] p^i q^(d-i) with d = len(num) - 1, by one homogeneous
    Horner pass: the value at p/q, q > 0, of the polynomial with integer
    coefficients num (constant first), times q^d."""
    acc = 0
    qk = 1  # q^(d-i) when num[i] is added
    for c in reversed(num):
        acc = acc * p + c * qk
        qk *= q
    return acc


def linear_quotient(num: Sequence[int], p: int, q: int) -> list[int]:
    """The integer coefficients g with num = (q z - p) g, for integer
    coefficients num (constant first), q > 0 and gcd(p, q) = 1.

    By Gauss's lemma g is integral exactly when p/q is a root of num.
    Raises NotDivisible otherwise, which signals a genericity violation
    or a caller bug upstream.
    """
    if not num:
        return []
    quotient = [0] * (len(num) - 1)
    carry = 0
    for k in range(len(num) - 1, 0, -1):
        carry, rest = divmod(num[k] + p * carry, q)
        if rest:
            break
        quotient[k - 1] = carry
    else:
        if num[0] + p * carry == 0:
            return quotient
    raise NotDivisible(f"polynomial does not vanish at {ratio_str(p, q)}")


class Record:
    """A class whose fields are its ``__slots__``, in order.  Two records
    of one class are equal when their fields are, the repr reads
    ``Name(field=value, ...)``, and a record is unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable, hashable :class:`Record`.  ``Frozen.__init__`` sets
    the fields once, from values in slot order; any later assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # copy and pickle rebuild an instance through __setstate__, since the
    # default restores slots by setattr
    def __reduce__(self) -> tuple:
        return object.__new__, (type(self),), self._values()

    def __setstate__(self, values: tuple) -> None:
        Frozen.__init__(self, *values)


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
        """num/den for an int den != 0 of either sign, stripped of trailing
        zeros and reduced to a positive denominator.  ``num`` may be
        modified."""
        while num and not num[-1]:
            num.pop()
        g = -gcd(den, *num) if den < 0 else gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "num", tuple(num))
        object.__setattr__(poly, "den", den)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._reduced([-c for c in self.num], self.den)

    # Only the tests and tests/oracles.py read scale now.
    def scale(self, c: RationalLike) -> "Polynomial":
        c = rat(c)
        p = c.numerator
        return Polynomial._reduced([p * a for a in self.num], c.denominator * self.den)

    def eval(self, x: RationalLike) -> Rational:
        """Exact value at x = p/q by one homogeneous Horner pass
        (:func:`horner`) over q^d den."""
        x = rat(x)
        if not self.num:
            return Fraction(0)
        q = x.denominator
        return Fraction(horner(self.num, x.numerator, q), q ** self.degree * self.den)

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
