"""Exact Pfaffians of skew-symmetric rational matrices.

Every Pfaffian comes from fraction-free skew elimination in Python integers
(:func:`_step`), O(m^3) integer operations.  Every Pfaffian of a moment
table is read off one integer store (:func:`_store`: N = D*S, optional mu
and lambda border rows, a z border column of integer polynomials).
:func:`prefix_pfaffians` eliminates it once without pivoting and reads
every leading and z-bordered Pfaffian of an SOP family or a lattice site
off that pass.  :func:`bordered_pfaffians` eliminates a leading block
0..2n-1 once and reads the Pfaffian of that block bordered by any tail of
indices, mu, lambda and z off the reduced block, by Tanner's Pfaffian form
of Sylvester's identity; :func:`augmented_pfaffian` is that read with an
empty leading block, and serves only the tests (the per-member SOP
formula, and the reference for reads with a leading block).
:func:`pfaffian` eliminates a bare rational :class:`SkewMatrix` with
pivoting; :func:`numeric_pfaffian` applies it to an index slice of N, and
outside the tests answers only the random table's draw check.  The
memoized recursive expansion :func:`pfaffian_expand` is an independent
algorithm kept as the test oracle; nothing in the library calls it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Sequence, Union

from .algebra import Polynomial, Rational, RationalLike, rat
from .errors import DegreeBudgetExceeded, SingularConfiguration

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
    previous step (1 at the first).  A z column ``zc`` (one int polynomial
    per row, all of one length, standing for an index after every row of
    ``a``) is updated by the same rule, coefficient by coefficient.  The
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


def _eliminate(
    a: list[list[int]], zc: list[list[int]] | None = None
) -> tuple[int, int]:
    """Run every :func:`_step` on the store ``a``, with pivoting.

    Returns (sign, pivot): the sign of the index exchanges made, 0 when the
    Pfaffian vanishes, and the last pivot.  Without ``zc``, ``a`` has even
    dimension and sign*pivot is Pf(a).  With a z column ``a`` has odd
    dimension m and the Pfaffian of a bordered by z is sign*zc[m-1].

    The pivot of step k is the nonzero entry of row k of least absolute
    value, taken from the numeric columns only; each exchange that brings
    it next to row k flips the sign.  A row with no nonzero numeric entry
    is exchanged for the first later row that has one (one more sign
    flip), since with a z column it may still pair with z; 0 comes only
    when no later row has one, that is, when the numeric block left is
    zero.  Without z such a row makes the Pfaffian 0 anyway, and the
    exchange only defers that verdict to a later step.
    """
    m = len(a)
    sign = 1
    prev = 1
    for k in range(0, m - 1, 2):
        best = _pivot_column(a[k], k)
        if best < 0:
            u = next((u for u in range(k + 1, m) if any(a[u][u + 1 :])), -1)
            if u < 0:
                return 0, prev
            _swap(a, zc, k, k, u)
            sign = -sign
            best = _pivot_column(a[k], k)
        if best != k + 1:
            _swap(a, zc, k, k + 1, best)
            sign = -sign
        prev = _step(a, k, prev, zc)
    return sign, prev


def _pivot_column(row: list[int], k: int) -> int:
    """Column j > k of the nonzero row[j] of least absolute value, or -1."""
    best = -1
    for j in range(k + 1, len(row)):
        if row[j] and (best < 0 or abs(row[j]) < abs(row[best])):
            best = j
    return best


def _swap(
    a: list[list[int]], zc: list[list[int]] | None, k: int, u: int, q: int
) -> None:
    """Exchange indices u and q > u in the upper-triangle store ``a``, and
    their z entries.

    Rows before k <= u are finished and left alone.  An entry whose index
    pair changes order under the exchange changes sign.
    """
    for r in range(k, u):
        a[r][u], a[r][q] = a[r][q], a[r][u]
    for r in range(u + 1, q):
        a[u][r], a[r][q] = -a[r][q], -a[u][r]
    a[u][q] = -a[u][q]
    for r in range(q + 1, len(a)):
        a[u][r], a[q][r] = a[q][r], a[u][r]
    if zc is not None:
        zc[u], zc[q] = zc[q], zc[u]


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
    """Pfaffian of the skew matrix picked out by an ordered monomial index list.

    The entries are the index slice of N = D*S, so :func:`pfaffian` returns
    D^(k/2) times the value for a list of length k.
    """
    idx = list(indices)
    _check_budget(moments, idx)
    if len(idx) % 2 != 0:
        raise ValueError("index list must have even length")
    rows, d = moments.integer_rows(max(idx, default=-1) + 1)
    value = pfaffian(SkewMatrix(len(idx), lambda u, v: rows[idx[u]][idx[v]]))
    return value / d ** (len(idx) // 2)


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
    may appear at most once.

    This is :func:`bordered_pfaffians` with an empty leading block and the
    whole list as its one tail, z moved to the end (a sign flip when that
    passes an odd number of indices).
    """
    idx = list(indices)
    if len(idx) % 2 != 0:
        raise ValueError("index list must have even length")
    specials = [i for i in idx if isinstance(i, Special)]
    if len(specials) != len(set(specials)):
        raise ValueError("each special index may appear at most once")
    if not idx:
        return Polynomial.one()
    # moving z to the end passes every index after it
    sign = (-1) ** (len(idx) - 1 - idx.index(ZVAR)) if ZVAR in specials else 1
    idx.sort(key=lambda x: x is ZVAR)
    return bordered_pfaffians(moments, 0, mu, lam, [idx])[0].scale(sign)


def _store(
    moments: SkewMoments, size: int, border: Sequence[Rational] = ()
) -> tuple[list[list[int]], int, list[list[int]]]:
    """The integer store that :func:`prefix_pfaffians` and
    :func:`bordered_pfaffians` eliminate: (a, D, zc).

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


def prefix_pfaffians(
    moments: SkewMoments, pairs: int, offset: Rational = Fraction(0)
) -> Iterator[tuple[Rational, Rational, Polynomial, Polynomial]]:
    """Every leading and z-bordered Pfaffian of a table from one pass.

    Yields, for n = 0..pairs+1 in turn, (tau_n, sigma_n, tauhat_n, sighat_n):

        tau_n    = Pf(0..2n-1)
        sigma_n  = Pf(0..2n-2, 2n) + offset * tau_n
        tauhat_n = Pf(0..2n, z)
        sighat_n = Pf(0..2n-1, 2n+1, z) + offset * tauhat_n

    with Pf(0..-2, 0) = 0 at n = 0.  The pass is :func:`_step` without
    pivoting on N = D*S over the indices 0..2*pairs+3, with z as a border
    column whose row i starts as D*z^i.  A bordered minor of N of dimension
    2n is D^n times that of S, so after n steps the pivot is D^n*tau_n,
    entry (2n-2, 2n) still holds D^n times the sigma core from step n-1,
    and the z entries of rows 2n and 2n+1 are D^(n+1) times the two
    z-bordered Pfaffians.  With offset = p/q each sigma is therefore
    (q*core + p*pivot) / (q*D^n), and each sighat the same combination of
    the two z rows over q*D^(n+1): one reduction per value.  Step n divides
    by D^n*tau_n, so the pass stops after yielding a vanishing tau_n.
    """
    a, d, zc = _store(moments, 2 * pairs + 4)
    p, q = offset.numerator, offset.denominator
    pivot, dn = 1, 1  # pivot after n steps, and D^n
    for n in range(pairs + 2):
        core = a[2 * n - 2][2 * n] if n else 0
        hat = zc[2 * n]
        # _reduced strips trailing zeros in place, so the z rows are copied
        core_hat = [q * c + p * h for c, h in zip(zc[2 * n + 1], hat)] if p else zc[2 * n + 1][:]
        yield (
            Fraction(pivot, dn),
            Fraction(q * core + p * pivot, q * dn),
            Polynomial._reduced(hat[:], dn * d),
            Polynomial._reduced(core_hat, q * dn * d),
        )
        if not pivot or n > pairs:
            return
        pivot = _step(a, 2 * n, pivot, zc)
        dn *= d


def bordered_pfaffians(
    moments: SkewMoments,
    n: int,
    mu: RationalLike,
    lam: RationalLike,
    tails: Sequence[Sequence[AugmentedIndex]],
) -> list[Polynomial]:
    """Pf(0..2n-1, *tail) for each tail, from one elimination of 0..2n-1.

    A tail is a nonempty list of even length of moment indices in
    0..max_index (repeats allowed), MU and LAMBDA, with ZVAR allowed as its
    last entry; the element rules are those of :func:`augmented_pfaffian`,
    which is this read with n = 0.  A moment index outside the table raises
    DegreeBudgetExceeded.

    The store (:func:`_store`) is N = D*S on the indices 0..size-1, with
    size = max(2n, largest tail index + 1, 1), bordered by a mu and a
    lambda row and a z column: the augmented matrix with every index scaled
    by sqrt(D), and mu and lambda further by q^(size-1) for x = p/q.
    n :func:`_step`s without pivoting leave P = Pf(0..2n-1) as the last
    pivot and the bordered minor Pf(0..2n-1, i, j) in every later entry
    (i, j).  By Tanner's identity the Pfaffian of that reduced block
    restricted to a tail of length 2h is P^(h-1) * Pf(0..2n-1, *tail);
    :func:`_eliminate` computes it, and dividing by P^(h-1) and the scales
    gives the value.  A tail that repeats an index of 0..2n-1 gives 0.

    Raises SingularConfiguration naming tau_k when a leading Pfaffian
    Pf(0..2k-1), 1 <= k <= n, vanishes.
    """
    ints = {x for tail in tails for x in tail if type(x) is int}
    _check_budget(moments, ints)
    size = max(2 * n, max(ints, default=-1) + 1, 1)
    border = [rat(mu), rat(lam)]
    a, d, zc = _store(moments, size, border)
    pivot = 1
    for k in range(n):
        pivot = _step(a, 2 * k, pivot, zc)
        if not pivot:
            raise SingularConfiguration(f"tau_{k + 1} vanishes")
    index = {i: i for i in ints}
    index.update({MU: size, LAMBDA: size + 1})
    # a tail index below 2n repeats a leading index: that Pfaffian is 0
    repeats = min(ints, default=size) < 2 * n
    values = []
    for tail in tails:
        if not tail or len(tail) % 2:
            raise ValueError("a tail must have even, nonzero length")
        with_z = tail[-1] is ZVAR
        rows = [index[x] for x in (tail[:-1] if with_z else tail)]
        if repeats and min(rows) < 2 * n:
            values.append(Polynomial.zero())
            continue
        block = [
            [0] * (r + 1) + [a[u][v] if u < v else -a[v][u] for v in rows[r + 1 :]]
            for r, u in enumerate(rows)
        ]
        if with_z:
            column = [zc[u] for u in rows]
            sign, _ = _eliminate(block, column)
            num = [sign * c for c in column[-1]]
        else:
            sign, last = _eliminate(block)
            num = [sign * last]
        half = len(tail) // 2
        den = d ** (n + half) * pivot ** (half - 1)
        for x, special in zip(border, (MU, LAMBDA)):
            if special in tail:
                den *= x.denominator ** (size - 1)
        if den < 0:
            num, den = [-c for c in num], -den
        values.append(Polynomial._reduced(num, den))
    return values
