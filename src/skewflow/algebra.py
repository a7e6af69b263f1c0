"""Exact rational scalars and dense univariate polynomials.

The scalar type is ``fractions.Fraction``: arbitrary precision, always in
lowest terms with positive denominator.  ``Rational`` is an alias so call
sites read like the rest of the library.  Polynomials are dense coefficient
tuples over that scalar, constant term first, with no trailing zeros.
The module also holds the deterministic sample-point pool that every
pointwise verifier draws from.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import NotDivisible

Rational = Fraction

RationalLike = Union[Rational, int, str]


def rat(value: RationalLike) -> Rational:
    """Coerce an int, "num/den" string or Fraction to a Rational.

    A string with a zero denominator raises ValueError, like any other
    malformed rational.  Floats and bools raise ValueError too: a float is
    not an exact rational (0.1 would become 3602879701896397/2**55), and a
    JSON true/false is not a number.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def rat_str(value: Rational) -> str:
    """Serialize a Rational as "num/den" (denominator always present)."""
    return f"{value.numerator}/{value.denominator}"


def clear_denominators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integers a and the least d > 0 with values[k] = a[k]/d."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def sample_points(
    count: int, exclude: Sequence[RationalLike] = ()
) -> list[Rational]:
    """Deterministic rational sample pool for pointwise verifications."""
    banned = {rat(x) for x in exclude}
    pool: list[Rational] = [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(-2),
        Fraction(1, 2),
        Fraction(-1, 3),
    ]
    odd = 3
    while len(pool) < count + len(banned):
        pool.append(Fraction(odd))
        odd += 2
    out = [x for x in pool if x not in banned]
    return out[:count]


class Polynomial:
    """Dense univariate polynomial over exact rationals.

    Coefficient ``k`` multiplies ``z**k``.  The zero polynomial stores an
    empty tuple; every other value has a nonzero leading coefficient.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Rational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading(self) -> Rational:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = rat(c)
        return Polynomial([c * a for a in self.coeffs])

    def __call__(self, x: RationalLike) -> Rational:
        return self.eval(x)

    def eval(self, x: RationalLike) -> Rational:
        """Horner evaluation; exact."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def div_by_linear(self, root: RationalLike) -> "Polynomial":
        """Exact synthetic division by (z - root).

        Raises NotDivisible unless ``root`` is an exact root; a failure
        signals a genericity violation or a caller bug upstream.
        """
        root = rat(root)
        if not self.coeffs:
            return Polynomial()
        quotient = [Fraction(0)] * (len(self.coeffs) - 1)
        carry = Fraction(0)
        for k in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[k] + carry * root
            quotient[k - 1] = carry
        remainder = self.coeffs[0] + carry * root
        if remainder != 0:
            raise NotDivisible(
                f"polynomial does not vanish at {rat_str(root)} "
                f"(remainder {rat_str(remainder)})"
            )
        return Polynomial(quotient)

    # -- comparison / misc -------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
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
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Polynomial":
        return Polynomial([rat(c) for c in data])
