"""Exact Pfaffians of skew-symmetric rational matrices.

Every Pfaffian the library computes goes through one engine,
:func:`pfaffian`: row denominators are cleared, then a fraction-free skew
elimination runs in Python integers, O(m^3) integer operations.
:func:`numeric_pfaffian` and :func:`augmented_pfaffian` only build the
matrix for an index list.  In an augmented list mu and lambda are numeric
border rows, and z is removed by a single expansion along its row, one
:func:`pfaffian` call per moment index in the list.  The memoized recursive expansion
:func:`pfaffian_expand` is an independent algorithm kept as the test oracle;
nothing in the library calls it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Callable, Protocol, Sequence, Union

from .algebra import Polynomial, Rational, RationalLike, rat
from .errors import IndexOutOfBudget


class Special(enum.Enum):
    """Non-monomial Pfaffian indices."""

    MU = "mu"
    LAMBDA = "lambda"
    ZVAR = "z"


MU = Special.MU
LAMBDA = Special.LAMBDA
ZVAR = Special.ZVAR

AugmentedIndex = Union[int, Special]


class SkewMatrix:
    """Even-dimensional skew-symmetric matrix; only the upper triangle is free.

    The lower triangle and diagonal are implied, so skew-symmetry is
    structural rather than a runtime invariant.
    """

    __slots__ = ("dimension", "_upper")

    def __init__(self, dimension: int, upper: Callable[[int, int], RationalLike]):
        if dimension % 2 != 0 or dimension < 0:
            raise ValueError("SkewMatrix dimension must be even and nonnegative")
        self.dimension = dimension
        self._upper = tuple(
            tuple(rat(upper(i, j)) for j in range(i + 1, dimension))
            for i in range(dimension)
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "SkewMatrix":
        """Build from a full square array; only the upper triangle is read."""
        return SkewMatrix(len(rows), lambda i, j: rows[i][j])

    def entry(self, i: int, j: int) -> Rational:
        if i == j:
            return Fraction(0)
        if i < j:
            return self._upper[i][j - i - 1]
        return -self._upper[j][i - j - 1]

    def to_rows(self) -> list[list[Rational]]:
        m = self.dimension
        return [[self.entry(i, j) for j in range(m)] for i in range(m)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewMatrix)
            and self.dimension == other.dimension
            and self._upper == other._upper
        )

    def __hash__(self) -> int:
        return hash((self.dimension, self._upper))


def pfaffian(matrix: SkewMatrix) -> Rational:
    """Pfaffian by fraction-free skew elimination in integers.

    Row and column i are first scaled by D_i, the lcm of the denominators of
    A_ij for j > i; the result is an integer matrix B = D*A*D with
    Pf(B) = det(D)*Pf(A).  Step r of the elimination then replaces every
    remaining entry by the bordered minor Pf(0..2r+1, i, j), computed from
    the previous step's minors by

        M'_ij = (p*M_ij - M_ki*M_{k+1,j} + M_kj*M_{k+1,i}) / p_prev

    with k = 2r, p = M_{k,k+1} and p_prev the previous pivot (1 at the first
    step).  The division is exact by the Pfaffian form of Sylvester's
    identity (Tanner), so every entry stays an integer and the last pivot is
    Pf(B).  The pivot is the nonzero entry of row k of least absolute value;
    each swap that brings it next to row k flips the sign, and a zero row
    gives 0.  Dimension 0 gives 1.
    """
    m = matrix.dimension
    upper = matrix._upper
    # D_i clears the stored (upper) part of row i, so every D_i*A_ij*D_j with
    # i < j is an integer
    scale = [lcm(*(q.denominator for q in row)) for row in upper]
    # upper triangle only: a[i][j] is read and written for j > i
    a = [
        [0] * (i + 1)
        + [
            q.numerator * (scale[i] // q.denominator) * scale[j]
            for j, q in enumerate(row, i + 1)
        ]
        for i, row in enumerate(upper)
    ]
    sign = 1
    prev = 1
    for k in range(0, m, 2):
        row = a[k]
        best = -1
        for j in range(k + 1, m):
            if row[j] and (best < 0 or abs(row[j]) < abs(row[best])):
                best = j
        if best < 0:
            return Fraction(0)
        if best != k + 1:
            _swap(a, k, best)
            sign = -sign
        pivot = row[k + 1]
        nxt = a[k + 1]
        for i in range(k + 2, m):
            ri, si = row[i], nxt[i]
            a[i][i + 1 :] = [
                (pivot * x - ri * y + z * si) // prev
                for x, y, z in zip(a[i][i + 1 :], nxt[i + 1 :], row[i + 1 :])
            ]
        prev = pivot
    return Fraction(sign * prev, prod(scale))


def _swap(a: list[list[int]], k: int, q: int) -> None:
    """Exchange indices k+1 and q > k+1 in the upper-triangle store ``a``.

    Rows before k are finished and left alone.  An entry whose index pair
    changes order under the exchange changes sign.
    """
    u = k + 1
    a[k][u], a[k][q] = a[k][q], a[k][u]
    for r in range(u + 1, q):
        a[u][r], a[r][q] = -a[r][q], -a[u][r]
    a[u][q] = -a[u][q]
    for r in range(q + 1, len(a)):
        a[u][r], a[q][r] = a[q][r], a[u][r]


def pfaffian_expand(matrix: SkewMatrix) -> Rational:
    """Pfaffian by recursive last-index expansion with memoized minors.

    Independent of :func:`pfaffian`; kept as the cross-check oracle.
    """

    entry = matrix.entry

    @lru_cache(maxsize=None)
    def rec(indices: tuple[int, ...]) -> Rational:
        if not indices:
            return Fraction(1)
        if len(indices) == 2:
            return entry(indices[0], indices[1])
        last = indices[-1]
        rest = indices[:-1]
        total = Fraction(0)
        for k, idx in enumerate(rest):
            coeff = entry(idx, last)
            if coeff == 0:
                continue
            minor = rest[:k] + rest[k + 1 :]
            total += (-1) ** k * coeff * rec(minor)
        return total

    return rec(tuple(range(matrix.dimension)))


class MomentTable(Protocol):
    """Anything exposing skew moments s_{ij}; satisfied by SkewMoments."""

    max_index: int

    def entry(self, i: int, j: int) -> Rational: ...


def numeric_pfaffian(moments: MomentTable, indices: Sequence[int]) -> Rational:
    """Pfaffian of the skew matrix picked out by an ordered monomial index list."""
    for i in indices:
        if i > moments.max_index:
            raise IndexOutOfBudget(
                f"moment index {i} exceeds table budget {moments.max_index}"
            )
    if len(indices) % 2 != 0:
        raise ValueError("index list must have even length")
    idx = tuple(indices)
    return pfaffian(SkewMatrix(len(idx), lambda u, v: moments.entry(idx[u], idx[v])))


def augmented_pfaffian(
    moments: MomentTable,
    indices: Sequence[AugmentedIndex],
    mu: RationalLike = 0,
    lam: RationalLike = 0,
) -> Polynomial:
    """Pfaffian over indices mixing moments with the special symbols z, lambda, mu.

    Element rules: Pf(i,j)=s_ij, Pf(i,z)=z^i, Pf(i,lambda)=lambda^i,
    Pf(i,mu)=mu^i, and any pairing of two special symbols is 0.  The result
    is a Polynomial in z (constant when z is absent).  Each special symbol
    may appear at most once.

    mu and lambda are numeric border rows of the matrix handed to
    :func:`pfaffian`.  The Pfaffian is linear in the z row, so z is removed
    by one expansion along it: the coefficient of z^i is the signed Pfaffian
    of the list without z and i.
    """
    border = {MU: rat(mu), LAMBDA: rat(lam)}
    idx = list(indices)
    if len(idx) % 2 != 0:
        raise ValueError("index list must have even length")
    specials = [i for i in idx if isinstance(i, Special)]
    if len(specials) != len(set(specials)):
        raise ValueError("each special index may appear at most once")
    for i in idx:
        if isinstance(i, int) and i > moments.max_index:
            raise IndexOutOfBudget(
                f"moment index {i} exceeds table budget {moments.max_index}"
            )

    def element(x: AugmentedIndex, y: AugmentedIndex) -> RationalLike:
        if isinstance(x, Special):
            return 0 if isinstance(y, Special) else -(border[x] ** y)
        if isinstance(y, Special):
            return border[y] ** x
        return moments.entry(x, y)

    # z is linear, so the rest of the matrix is evaluated once and every
    # Pfaffian below picks its rows out of it
    items = [i for i in idx if i is not ZVAR]
    upper = [[element(x, y) for y in items[a + 1 :]] for a, x in enumerate(items)]

    def bordered(keep: Sequence[int]) -> Rational:
        """Pfaffian of the rows ``keep`` (increasing positions in items)."""
        return pfaffian(
            SkewMatrix(len(keep), lambda u, v: upper[keep[u]][keep[v] - keep[u] - 1])
        )

    if ZVAR not in specials:
        return Polynomial.constant(bordered(range(len(items))))
    pos = idx.index(ZVAR)
    # moving z from pos to the end costs (-1)^(len(items)-pos); expanding along
    # the last row gives Pf(items, z) = sum_k (-1)^k z^items[k] Pf(items without k)
    sign = (-1) ** (len(items) - pos)
    coeffs: dict[int, Rational] = {}
    for k, i in enumerate(items):
        if isinstance(i, Special):
            continue
        term = bordered([u for u in range(len(items)) if u != k])
        coeffs[i] = coeffs.get(i, 0) + (sign if k % 2 == 0 else -sign) * term
    return Polynomial([coeffs.get(d, 0) for d in range(max(coeffs, default=-1) + 1)])
