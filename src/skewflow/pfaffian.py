"""Exact Pfaffians of skew-symmetric rational matrices, in two layers that
share one fraction-free elimination step (:func:`_step`, Python integers,
O(m^3) integer operations).

The engine the program runs.  Every Pfaffian a family or a lattice site
needs is read off one integer store (:func:`_store`: N = D*S, optional mu
and lambda border rows, a z border column of integer polynomials).  One
routine, :func:`_prefix_pass`, eliminates a store once without pivoting,
and after n steps every later entry (i, j) is the bordered minor
Pf(0..2n-1, i, j), by Tanner's Pfaffian form of Sylvester's identity.
:func:`prefix_pfaffians` runs it with no border rows and reads every
leading and z-bordered Pfaffian of an SOP family or a lattice site off it,
as integer forms it leaves unreduced; :func:`prefix_tails` runs it with mu
and lambda border rows and reads the lattice crosscheck's short tails
Pf(0..2n-1, tail) for every n off it, each in closed form.

The reference the tests check the engine against.  :func:`pfaffian`
eliminates a bare rational :class:`SkewMatrix` with pivoting
(:func:`_eliminate`), with no store and no z column.
:func:`numeric_pfaffian` applies it to the entries s_ij of an index list,
and outside the tests answers only the random table's draw check;
:func:`augmented_pfaffian` builds any index list mixing moment indices
with mu, lambda and z from its element rules on it.  The tests check
:func:`pfaffian` in turn against a recursive expansion of their own.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Sequence, Union

from .algebra import Polynomial, Rational, RationalLike, rat
from .errors import DegreeBudgetExceeded

if TYPE_CHECKING:
    from .moments import SkewMoments


class Special(enum.Enum):
    """Non-monomial Pfaffian indices."""

    MU = "mu"
    LAMBDA = "lambda"
    ZVAR = "z"


MU = Special.MU
LAMBDA = Special.LAMBDA
ZVAR = Special.ZVAR

AugmentedIndex = Union[int, Special]

# A value as an integer form, not reduced: a scalar as (num, den), a
# polynomial as (coefficients, den), coefficients constant first.
ScalarForm = tuple[int, int]
PolyForm = tuple[list[int], int]


class SkewMatrix:
    """Even-dimensional skew-symmetric matrix; only the upper triangle is free.

    ``upper(i, j)`` gives the entry for i < j.  The lower triangle and
    diagonal are implied, so skew-symmetry is structural rather than a
    runtime invariant.
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

    def entry(self, i: int, j: int) -> Rational:
        if i == j:
            return Fraction(0)
        if i < j:
            return self._upper[i][j - i - 1]
        return -self._upper[j][i - j - 1]


def pfaffian(matrix: SkewMatrix) -> Rational:
    """Pfaffian by fraction-free skew elimination in integers.

    Row and column i are first scaled by D_i, the lcm of the denominators of
    A_ij for j > i; the result is an integer matrix B = D*A*D with
    Pf(B) = det(D)*Pf(A), stored as its upper triangle (only a[i][j] with
    j > i is ever read or written).  :func:`_eliminate` then reduces B to
    its last pivot, which is Pf(B).  Dimension 0 gives 1.
    """
    upper = matrix._upper
    scale = [lcm(*(q.denominator for q in row)) for row in upper]
    a = [
        [0] * (i + 1)
        + [
            q.numerator * (scale[i] // q.denominator) * scale[j]
            for j, q in enumerate(row, i + 1)
        ]
        for i, row in enumerate(upper)
    ]
    sign, pivot = _eliminate(a)
    return Fraction(sign * pivot, prod(scale))


def _step(
    a: list[list[int]], k: int, prev: int, zc: list[list[int]] | None = None
) -> int:
    """One fraction-free step, in place: eliminate indices k and k+1.

    Every later entry becomes

        M'_ij = (p*M_ij - M_ki*M_{k+1,j} + M_kj*M_{k+1,i}) / prev

    with p = M_{k,k+1}, the returned pivot, and ``prev`` the pivot of the
    previous step (1 at the first).  The prefix pass's z column ``zc`` (one
    int polynomial per row, all of one length, standing for an index after
    every row of ``a``) is updated by the same rule, coefficient by
    coefficient; the pivoted :func:`_eliminate` passes none.  The
    division is exact by the Pfaffian form of Sylvester's identity
    (Tanner): after r steps entry (i, j) is the bordered minor
    Pf(0..2r-1, i, j), so every entry stays an integer.
    """
    row, nxt = a[k], a[k + 1]
    pivot = row[k + 1]
    for i in range(k + 2, len(a)):
        ri, si = row[i], nxt[i]
        a[i][i + 1 :] = [
            (pivot * x - ri * y + z * si) // prev
            for x, y, z in zip(a[i][i + 1 :], nxt[i + 1 :], row[i + 1 :])
        ]
        if zc is not None:
            zc[i] = [
                (pivot * x - ri * y + z * si) // prev
                for x, y, z in zip(zc[i], zc[k + 1], zc[k])
            ]
    return pivot


def _eliminate(a: list[list[int]]) -> tuple[int, int]:
    """Run every :func:`_step` on the even-dimensional store ``a``, with
    pivoting; sign*pivot of the returned (sign, pivot) is Pf(a).

    The pivot of step k is the nonzero entry of row k of least absolute
    value, and the exchange that brings it next to row k flips the sign.
    A row with nothing nonzero left makes the reduced matrix, and so the
    Pfaffian, vanish: that step returns (0, prev).
    """
    sign = 1
    prev = 1
    for k in range(0, len(a) - 1, 2):
        best = _pivot_column(a[k], k)
        if best < 0:
            return 0, prev
        if best != k + 1:
            _swap(a, k, best)
            sign = -sign
        prev = _step(a, k, prev)
    return sign, prev


def _pivot_column(row: list[int], k: int) -> int:
    """Column j > k of the nonzero row[j] of least absolute value, or -1."""
    best = -1
    for j in range(k + 1, len(row)):
        if row[j] and (best < 0 or abs(row[j]) < abs(row[best])):
            best = j
    return best


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


def _check_budget(moments: SkewMoments, ints: Collection[int]) -> None:
    """Raise DegreeBudgetExceeded for a moment index outside 0..max_index."""
    if ints:
        low, high = min(ints), max(ints)
        if low < 0 or high > moments.max_index:
            raise DegreeBudgetExceeded(
                f"moment index {low if low < 0 else high} outside table budget "
                f"{moments.max_index}"
            )


def numeric_pfaffian(moments: SkewMoments, indices: Sequence[int]) -> Rational:
    """Pfaffian of the skew matrix picked out by an ordered monomial index
    list: :func:`pfaffian` of its entries s_ij."""
    idx = list(indices)
    _check_budget(moments, idx)
    if len(idx) % 2 != 0:
        raise ValueError("index list must have even length")
    return _sub_pfaffians(moments, idx, {})(range(len(idx)))


def augmented_pfaffian(
    moments: SkewMoments,
    indices: Sequence[AugmentedIndex],
    mu: RationalLike = 0,
    lam: RationalLike = 0,
) -> Polynomial:
    """Pfaffian over indices mixing moments with the special symbols z, lambda, mu.

    Element rules: Pf(i,j)=s_ij, Pf(i,z)=z^i, Pf(i,lambda)=lambda^i,
    Pf(i,mu)=mu^i, and any pairing of two special symbols is 0.  The result
    is a Polynomial in z (constant when z is absent).  Each special symbol
    may appear at most once; a moment index may repeat, which gives 0.  A
    moment index outside 0..max_index raises DegreeBudgetExceeded.

    Without z the value is :func:`pfaffian` of the list's rational matrix
    under those rules.  With z at position p it is the expansion along z's
    row: with ``rest`` the list without z, Pf = (-1)^(p+1) times the sum
    over the positions k of the moment indices i = rest[k] of
    (-1)^k z^i Pf(rest without k), since z pairs with a special as 0.
    """
    idx = list(indices)
    if len(idx) % 2 != 0:
        raise ValueError("index list must have even length")
    specials = [i for i in idx if isinstance(i, Special)]
    if len(specials) != len(set(specials)):
        raise ValueError("each special index may appear at most once")
    ints = [x for x in idx if type(x) is int]
    _check_budget(moments, ints)
    rest = [x for x in idx if x is not ZVAR]
    pf = _sub_pfaffians(moments, rest, {MU: rat(mu), LAMBDA: rat(lam)})
    if len(rest) == len(idx):
        return Polynomial((pf(range(len(rest))),))
    p = idx.index(ZVAR)
    coeffs = [Fraction(0)] * (max(ints, default=-1) + 1)
    for k, i in enumerate(rest):
        if type(i) is int:
            term = pf([*range(k), *range(k + 1, len(rest))])
            coeffs[i] += term if (p + k) % 2 else -term
    return Polynomial(coeffs)


def _sub_pfaffians(
    moments: SkewMoments,
    items: Sequence[AugmentedIndex],
    values: dict[Special, Rational],
) -> Callable[[Sequence[int]], Rational]:
    """pf(keep): :func:`pfaffian` of the rational matrix on the items at the
    ascending positions ``keep``, by the element rules: s_ij between moment
    indices i and j, x^i between index i and a special of value x in
    ``values``, 0 between two specials.  Every entry is formed once."""

    def element(x: AugmentedIndex, y: AugmentedIndex) -> RationalLike:
        if type(x) is int:
            return moments.entry(x, y) if type(y) is int else values[y] ** x
        return -(values[x] ** y) if type(y) is int else 0

    rows = [
        [0] * (u + 1) + [element(x, y) for y in items[u + 1 :]]
        for u, x in enumerate(items)
    ]
    return lambda keep: pfaffian(
        SkewMatrix(len(keep), lambda u, v: rows[keep[u]][keep[v]])
    )


def _store(
    moments: SkewMoments, size: int, border: Sequence[Rational] = ()
) -> tuple[list[list[int]], int, list[list[int]]]:
    """The integer store that :func:`_prefix_pass` eliminates: (a, D, zc).

    ``a`` is N = D*S on the indices 0..size-1, followed by one border row
    per x = p/q in ``border`` whose entry at index i is D*q^(size-1)*x^i,
    and zc is the z column: row i < size starts as D*z^i, a border row as 0.
    """
    a, d = moments.integer_rows(size)
    for x in border:
        p, q = x.numerator, x.denominator
        for i, row in enumerate(a):
            row.append(d * p**i * q ** (size - 1 - i))
    a += [[0] * (size + len(border)) for _ in border]
    zc = [[0] * size for _ in a]
    for i in range(size):
        zc[i][i] = d
    return a, d, zc


def _prefix_pass(
    store: tuple[list[list[int]], int, list[list[int]]], steps: int
) -> Iterator[tuple[int, int]]:
    """Eliminate a :func:`_store` in place, one :func:`_step` at a time,
    without pivoting.

    Yields (pivot, D^n) after n = 0..steps steps: the pivot is the scaled
    leading Pfaffian Pf(0..2n-1) of the store, D^n*tau_n (1 at n = 0), and
    by Tanner's identity every later entry (i, j), z entries included, is
    the bordered minor Pf(0..2n-1, i, j) of the store.  Step n divides by
    the pivot, so the pass stops after yielding a vanishing one.
    """
    a, d, zc = store
    pivot, dn = 1, 1
    for n in range(steps):
        yield pivot, dn
        if not pivot:
            return
        pivot = _step(a, 2 * n, pivot, zc)
        dn *= d
    yield pivot, dn


def prefix_pfaffians(
    moments: SkewMoments, pairs: int, offset: tuple[int, int] = (0, 1)
) -> Iterator[tuple[ScalarForm, ScalarForm, PolyForm, PolyForm]]:
    """Every leading and z-bordered Pfaffian of a table from one pass, as
    integer forms that are not reduced.

    Yields, for n = 0..pairs+1 in turn, (tau_n, sigma_n, tauhat_n, sighat_n):

        tau_n    = Pf(0..2n-1)
        sigma_n  = Pf(0..2n-2, 2n) + offset * tau_n
        tauhat_n = Pf(0..2n, z)
        sighat_n = Pf(0..2n-1, 2n+1, z) + offset * tauhat_n

    with Pf(0..-2, 0) = 0 at n = 0 and ``offset`` the int pair (p, q),
    q > 0, standing for p/q.  A scalar comes as (num, den), a polynomial as
    (coefficients, den) with its coefficients constant first, 2n+1 of them
    for tauhat_n and 2n+2 for sighat_n; every den is positive.

    The pass (:func:`_prefix_pass`) runs on N = D*S over the indices
    0..2*pairs+3, with no border rows and z as a border column whose row i
    starts as D*z^i.  A bordered minor of N of dimension 2n is D^n times
    that of S, so after n steps the pivot P is D^n*tau_n, entry (2n-2, 2n)
    still holds D^n times the sigma core from step n-1, and the z rows 2n
    and 2n+1 are D^(n+1) times the two z-bordered Pfaffians.  So

        tau_n = (P, D^n)                  sigma_n  = (q*core + p*P, q*D^n)
        tauhat_n = (row 2n, D^(n+1))      sighat_n = (q*row 2n+1 + p*row 2n, q*D^(n+1))

    with no Fraction and no gcd; a zero offset is taken as (0, 1).  The
    pass stops after yielding a vanishing tau_n.
    """
    a, d, zc = store = _store(moments, 2 * pairs + 4)
    p, q = offset
    if not p:
        q = 1
    for n, (pivot, dn) in enumerate(_prefix_pass(store, pairs + 1)):
        core = a[2 * n - 2][2 * n] if n else 0
        hat, odd = zc[2 * n], zc[2 * n + 1][: 2 * n + 2]
        if p:
            # row 2n has degree 2n, so zip pairs its zero at z^(2n+1) too
            odd = [q * c + p * h for c, h in zip(odd, hat)]
        yield (
            (pivot, dn),
            (q * core + p * pivot, q * dn),
            (hat[: 2 * n + 1], dn * d),
            (odd, q * dn * d),
        )


def prefix_tails(
    moments: SkewMoments,
    pairs: int,
    mu: Rational,
    lam: Rational,
    tails: Sequence[Sequence[AugmentedIndex]],
) -> list[list[tuple[list[int], int]]]:
    """Pf(0..2n-1, *tail at 2n) for every tail and n = 0..pairs, off one
    bordered prefix pass.

    A tail lists, in this order, ascending offsets r >= 0 that stand for
    the moment indices 2n + r, then MU and/or LAMBDA, then optionally ZVAR;
    its length is even.  Element (n, k) of the result is the Pfaffian for
    tails[k] at n as (num, den): num holds the integer coefficients of z,
    constant first (one entry for a tail without z), over den, a nonzero
    integer that may be negative.  The list stops before the first n >= 1
    whose tau_n = Pf(0..2n-1) vanishes, so it has that n entries; else
    pairs + 1.

    The store (:func:`_store`) covers the indices 0..size-1 up to the
    largest offset at n = pairs, with a mu and a lambda border row, which
    the tails name by position (MU, LAMBDA), and a z column.  After n steps
    of :func:`_prefix_pass` with pivot P = D^n*tau_n, Tanner's identity
    makes the Pfaffian of the reduced store on a tail of length 2h equal to
    P^(h-1) times the Pfaffian of the store bordered by it, which is
    D^(n+h) * q^(size-1) (once per border row x = p/q present) times the
    Pfaffian of the table.  That reduced Pfaffian is read in closed form
    (:func:`_tail`), and den is the product of those factors.
    """
    offsets = [x for tail in tails for x in tail if type(x) is int]
    size = 2 * pairs + 1 + max(offsets, default=-1)
    a, d, zc = store = _store(moments, size, (mu, lam))
    qm, ql = mu.denominator ** (size - 1), lam.denominator ** (size - 1)
    scales = (1, qm, ql, qm * ql)  # by the border rows present: 1 mu, 2 lambda
    shapes = []
    for tail in tails:
        ints, rows, present = [], [], 0
        for x in tail:
            if type(x) is int:
                ints.append(x)
            elif x is MU:
                rows.append(size)
                present |= 1
            elif x is LAMBDA:
                rows.append(size + 1)
                present |= 2
        shapes.append((ints, rows, tail[-1] is ZVAR, len(tail) // 2 - 1, scales[present]))
    top = max((shape[3] for shape in shapes), default=0)
    out = []
    for n, (pivot, dn) in enumerate(_prefix_pass(store, pairs)):
        if not pivot:
            break
        dens = [dn * d]  # D^(n+h) * pivot^(h-1) for h = 1, 2, ...
        for _ in range(top):
            dens.append(dens[-1] * d * pivot)
        out.append([
            (_tail(a, zc, [2 * n + r for r in ints] + rows, with_z), dens[h] * scale)
            for ints, rows, with_z, h, scale in shapes
        ])
    return out


def _tail(
    a: list[list[int]], zc: list[list[int]], rows: list[int], with_z: bool
) -> list[int]:
    """Pf of the store ``a`` on the ascending ``rows``, followed by z when
    ``with_z``, as z coefficients, constant first.

    With z it is the expansion along z, sum_k (-1)^k zc[rows[k]] times the
    Pfaffian of the other rows (:func:`_minor`); without it, one value.
    """
    if not with_z:
        return [_minor(a, rows)]
    cs, zs = [], []
    for k, r in enumerate(rows):
        c = _minor(a, rows[:k] + rows[k + 1 :])
        cs.append(-c if k % 2 else c)
        zs.append(zc[r])
    return [sum(map(mul, cs, column)) for column in zip(*zs)]


def _minor(a: list[list[int]], rows: list[int]) -> int:
    """Pf of the upper-triangle store ``a`` on the ascending ``rows``: 1, 3
    or 15 products for 2, 4 or 6 rows, by expansion along the first."""
    if len(rows) == 2:
        return a[rows[0]][rows[1]]
    if len(rows) == 4:
        i, j, k, m = rows
        return a[i][j] * a[k][m] - a[i][k] * a[j][m] + a[i][m] * a[j][k]
    if not rows:
        return 1
    u = rows[0]
    total = 0
    for k in range(1, len(rows)):
        term = a[u][rows[k]] * _minor(a, rows[1:k] + rows[k + 1 :])
        total += term if k % 2 else -term
    return total
