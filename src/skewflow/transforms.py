"""Skew-Christoffel transformation, its Geronimus-type inverse, the banded
Lax pair of the iterated chain, and the skew Christoffel-Darboux kernel.

The transformation maps SOPs for <.|.> to SOPs for <(z-lambda).|(z-lambda).>.
A step and its inverse are the two factors of the discrete Lax pair, and
each stores its factor's rows: row i of :class:`ChristoffelData` writes
(z - lambda) q*_i in the pre-transform family (an L row), row i of
:class:`GeronimusData` writes q_i in the transformed family (an R row).
A transformed member is its L row's sum divided by z - lambda; the sum
vanishes at lambda, so the division is exact.

Polynomial work runs on the integer forms underneath: an L row's sum is
one :meth:`Polynomial.combination` over one denominator, an R entry is one
integer dot product with S*q* on the shifted table, a Lax-pair row is
checked as one polynomial identity, and an L*R product multiplies two
integer matrices.  ``Fraction`` arithmetic is left for the scalar
coefficients of a step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .algebra import Polynomial, Rational, RationalLike, clear_denominators, rat, rat_str
from .errors import SingularConfiguration, TruncationTooLarge
from .moments import SkewMoments
from .report import Report
from .sops import CHRISTOFFEL_GAUGE, SOPFamily, verify_skew_orthogonality


def _values_at(
    family: SOPFamily, y: Rational, pairs: int
) -> tuple[list[Rational], list[Rational]]:
    """q_2k(y) and q_{2k+1}(y) for k = 0..pairs, each evaluated once."""
    return (
        [family.even(k).eval(y) for k in range(pairs + 1)],
        [family.odd(k).eval(y) for k in range(pairs + 1)],
    )


def _kernel_row(
    family: SOPFamily,
    even_at: Sequence[Rational],
    odd_at: Sequence[Rational],
    n: int,
    factor: Rational,
) -> tuple[Rational, ...]:
    """The coefficients of factor * sum_{k<=n} (q_2k(y) q_{2k+1} -
    q_{2k+1}(y) q_2k) / r_k in the family, given the values at y."""
    row = [Fraction(0)] * len(family.polys)
    for k in range(n + 1):
        c = factor / family.norms[k]
        row[2 * k] = -c * odd_at[k]
        row[2 * k + 1] = c * even_at[k]
    return tuple(row)


@dataclass(frozen=True)
class ChristoffelData:
    """The L factor of one transformation step at parameter lam.

    Row i writes (z - lam) q*_i = sum_j rows[i][j] q_j in the pre-transform
    family q_0..q_{2N+1}: row 2n is the kernel sum of order n scaled by
    r_n/q_2n(lam), row 2n+1 is q_{2n+2} - (q_{2n+2}(lam)/q_2n(lam)) q_2n.
    Row 2N, the kernel sum of order N, has no member in the transformed
    family, which is one pair shorter; the rows stop there.
    """

    lam: Rational
    rows: tuple[tuple[Rational, ...], ...]


def christoffel(
    family: SOPFamily, moments: SkewMoments, lam: RationalLike
) -> tuple[SOPFamily, SkewMoments, ChristoffelData]:
    """One skew-Christoffel step at lam.

    Returns the transformed family (one pair shorter, alpha_n = 0 gauge),
    the shifted moment table, and the L rows of the step; each transformed
    member is read off its own row.
    """
    lam = rat(lam)
    if family.pairs < 1:
        raise ValueError("need at least two pairs to transform")
    even_at, odd_at = _values_at(family, lam, family.pairs)
    for n, v in enumerate(even_at):
        if v == 0:
            raise SingularConfiguration(
                f"q_{2 * n}({rat_str(lam)}) = 0: lambda outside the admissible set"
            )
    ratios = [even_at[n + 1] / even_at[n] for n in range(family.pairs)]
    rows = []
    for n in range(family.pairs + 1):
        # the q_{2n+1} entry is (r_n / q_2n(lam)) q_2n(lam) / r_n = 1
        rows.append(_kernel_row(family, even_at, odd_at, n, family.norms[n] / even_at[n]))
        if n < family.pairs:
            odd = [Fraction(0)] * len(family.polys)
            odd[2 * n], odd[2 * n + 2] = -ratios[n], Fraction(1)
            rows.append(tuple(odd))
    polys = [
        Polynomial.combination(zip(row, family.polys)).div_by_linear(lam)
        for row in rows[:-1]
    ]
    # r*_n = (q_{2n+2}(lam)/q_2n(lam)) r_n, a product of two nonzero values
    norms = [ratio * r for ratio, r in zip(ratios, family.norms)]
    transformed = SOPFamily(polys, norms, CHRISTOFFEL_GAUGE)
    return transformed, moments.shift(lam), ChristoffelData(lam, tuple(rows))


@dataclass(frozen=True)
class GeronimusData:
    """The R factor of one transformation step at parameter lam.

    Row i writes the pre-transform member q_i = sum_j rows[i][j] q*_j in
    the transformed family q*_0..q*_{2N+1}: unit lower triangular, with
    rows[i][i] = 1 and every entry to its right 0.
    """

    lam: Rational
    rows: tuple[tuple[Rational, ...], ...]


def geronimus_coeffs(
    family_next: SOPFamily,
    family: SOPFamily,
    moments: SkewMoments,
    lam: RationalLike,
) -> GeronimusData:
    """The R rows expressing the pre-transform family in the transformed one.

    Pairing q_i = sum_m R[i][m] q*_m with q*_{j^1} leaves the one term
    m = j, since <q*_2k|q*_2k+1> = r*_k = -<q*_2k+1|q*_2k>.  So one rule
    gives every entry below the diagonal:
    R[i][j] = (-1)^j <q_i|q*_{j^1}>* / r*_{j//2}, where <.|.>* is the skew
    product on the table shifted once by lam, which equals
    <(z-lam).|(z-lam).> on the base table.  S*q*_j on that table is formed
    once per transformed member, so each entry is one integer dot product
    with the numerators of q_i.
    :func:`verify_geronimus` checks that the rows reconstruct the family.
    """
    lam = rat(lam)
    shifted = moments.shift(lam)
    size = len(family_next.polys)  # every left-hand member has degree < size
    # column j: S*q*_{j^1} with the factor (-1)^j / r*_{j//2} as a ratio of ints
    paired = []
    for j in range(size):
        vec, den = shifted.apply(family_next.polys[j ^ 1], size)
        r = family_next.norms[j // 2]
        paired.append((vec, (-1) ** j * r.denominator, den * r.numerator))
    rows = []
    for i, f in enumerate(family.polys[:size]):
        below = [
            Fraction(sum(map(mul, f.num, vec)) * num, f.den * den)
            for vec, num, den in paired[:i]
        ]
        rows.append(tuple(below + [Fraction(1)] + [Fraction(0)] * (size - i - 1)))
    return GeronimusData(lam, tuple(rows))


def verify_christoffel(
    family_next: SOPFamily,
    shifted: SkewMoments,
    family: SOPFamily,
    moments: SkewMoments,
    lam: RationalLike,
) -> Report:
    """Check one Christoffel step: the transformed family is skew orthogonal
    for the shifted table, and r*_n = (q_{2n+2}(lam)/q_2n(lam)) r_n.

    ``moments`` is the untransformed table; the report records its provenance.
    """
    lam = rat(lam)
    report = Report(
        "christoffel",
        {"lambda": rat_str(lam), "provenance": moments.provenance},
    )
    report.extend(verify_skew_orthogonality(family_next, shifted))
    for n in range(family_next.pairs + 1):
        expected = (
            family.even(n + 1).eval(lam) / family.even(n).eval(lam)
        ) * family.norms[n]
        report.add(
            f"norm-ratio:r*_{n}",
            family_next.norms[n] == expected,
            f"lhs={rat_str(family_next.norms[n])} rhs={rat_str(expected)}",
        )
    return report


def verify_geronimus(
    family_next: SOPFamily,
    family: SOPFamily,
    moments: SkewMoments,
    data: GeronimusData,
) -> Report:
    """Check that the R rows of ``data`` rebuild every member of ``family``
    from ``family_next``, exactly: member i is row i applied to
    ``family_next``, the identity Phi^t = R^t Phi^{t+1} that
    :func:`build_lax_pair` also checks.

    ``moments`` is the untransformed table; the report records its provenance.
    """
    report = Report(
        "geronimus",
        {"lambda": rat_str(data.lam), "provenance": moments.provenance},
    )
    for i, row in enumerate(data.rows):
        rebuilt = Polynomial.combination(zip(row, family_next.polys))
        kind = "odd" if i % 2 else "even"
        report.add(f"reconstruct-{kind}:{i // 2}", rebuilt == family.polys[i])
    return report


class BandMatrix:
    """Finite truncation of the lower-banded Lax factors.

    kind "L": lower Hessenberg with unit superdiagonal; kind "R": unit
    lower triangular.  The size is the number of rows, and every row must
    have that many entries.
    """

    __slots__ = ("size", "kind", "rows")

    def __init__(self, kind: str, rows: Sequence[Sequence[RationalLike]]):
        if kind not in ("L", "R"):
            raise ValueError("kind must be 'L' or 'R'")
        size = self.size = len(rows)
        self.kind = kind
        self.rows = tuple(tuple(rat(v) for v in row) for row in rows)
        for i, row in enumerate(self.rows):
            if len(row) != size:
                raise ValueError("rows must be square")
            if kind == "L":
                if i + 1 < size and row[i + 1] != 1:
                    raise ValueError("L superdiagonal must be 1")
                if any(v != 0 for v in row[i + 2 :]):
                    raise ValueError("L has entries above the superdiagonal")
            else:
                if row[i] != 1:
                    raise ValueError("R diagonal must be 1")
                if any(v != 0 for v in row[i + 1 :]):
                    raise ValueError("R must be lower triangular")

    def multiply(
        self, other: "BandMatrix", window: int | None = None
    ) -> tuple[tuple[Rational, ...], ...]:
        """The leading window x window block of self*other (all of it by
        default).

        Each factor is cleared to one integer matrix over the lcm of its
        entry denominators; the product runs in ints and forms one
        ``Fraction`` per output entry.
        """
        w = self.size if window is None else window
        a, a_den = self._integer_rows()
        b, b_den = other._integer_rows()
        cols = list(zip(*b))
        den = a_den * b_den
        return tuple(
            tuple(Fraction(sum(map(mul, a[i], cols[j])), den) for j in range(w))
            for i in range(w)
        )

    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """(rows, d) with rows[i][j] = d * self.rows[i][j], d > 0 least."""
        flat, den = clear_denominators([v for row in self.rows for v in row])
        n = self.size
        return [flat[i * n : (i + 1) * n] for i in range(n)], den


def build_lax_pair(
    families: Sequence[SOPFamily],
    datas: Sequence[tuple[ChristoffelData, GeronimusData]],
    size: int,
) -> list[tuple[BandMatrix, BandMatrix]]:
    """Banded L/R factors of each chain step, verified against the families.

    Each factor is the leading size x size block of its step's rows.
    L rows realize (z - lam) Phi^{t+1} = L^t Phi^t and R rows realize
    Phi^t = R^t Phi^{t+1}; each row is checked once as an identity of
    polynomials, its right side one :meth:`Polynomial.combination`.
    """
    if len(datas) != len(families) - 1:
        raise ValueError("need one data pair per chain step")
    min_polys = min(2 * fam.pairs + 2 for fam in families)
    if size > min_polys:
        raise TruncationTooLarge(
            f"size {size} exceeds the verifiable window {min_polys}"
        )
    out = []
    for t, (cdata, gdata) in enumerate(datas):
        lmat = BandMatrix("L", [row[:size] for row in cdata.rows[:size]])
        rmat = BandMatrix("R", [row[:size] for row in gdata.rows[:size]])
        cur, nxt = families[t].polys[:size], families[t + 1].polys[:size]
        z_minus_lam = Polynomial((-cdata.lam, 1))
        for i in range(size - 1):
            rhs = Polynomial.combination(zip(lmat.rows[i], cur))
            if z_minus_lam * nxt[i] != rhs:
                raise SingularConfiguration(f"L row {i} fails at step {t}")
        for i in range(size):
            if cur[i] != Polynomial.combination(zip(rmat.rows[i], nxt)):
                raise SingularConfiguration(f"R row {i} fails at step {t}")
        out.append((lmat, rmat))
    return out


def verify_dlax(
    l_t: BandMatrix, r_t: BandMatrix, l_next: BandMatrix, r_next: BandMatrix
) -> Report:
    """Check L^t R^t = R^{t+1} L^{t+1} on the truncation-safe window.

    Only the principal (size - 2) block is formed and compared;
    banded-times-banded truncation can corrupt the trailing rows and columns.
    """
    report = Report("dlax")
    window = l_t.size - 2
    left = l_t.multiply(r_t, window)
    right = r_next.multiply(l_next, window)
    for i in range(window):
        for j in range(window):
            report.add(
                f"[{i},{j}]",
                left[i][j] == right[i][j],
                f"LR={rat_str(left[i][j])} RL={rat_str(right[i][j])}",
            )
    return report


def kernel(family: SOPFamily, pairs: int, y: RationalLike) -> Polynomial:
    """Skew Christoffel-Darboux kernel I_N(x, y) as a polynomial in x."""
    y = rat(y)
    if pairs < 0:
        raise ValueError(f"kernel order must be nonnegative, got {pairs}")
    if pairs > family.pairs:
        raise ValueError("kernel order exceeds the family")
    row = _kernel_row(family, *_values_at(family, y, pairs), pairs, Fraction(1))
    return Polynomial.combination(zip(row, family.polys))


def verify_factorization(
    family: SOPFamily, moments: SkewMoments, pairs: int, y: RationalLike
) -> Report:
    """Check the kernel sum against both candidate factorized forms.

    Write q*_2N = r_N I_N(x, y) / (q_2N(y) (x - y)).  Form (a) pairs q*_2N
    with the even SOP in the same variable x:
    (x-y) q_2N(x) q*_2N(x) / r_N = I_N(x, y).  Form (b) pairs it with the
    original at y, (x-y) q*_2N(x) q_2N(y) / r_N = I_N(x, y), which the
    paper proves with q*_2N the monic even SOP of the table shifted by y;
    so (b) matches when q*_2N is that SOP for ``moments``: degree 2N,
    leading coefficient 1, and <(z-y) z^j | (z-y) q*_2N> = 0 for j < 2N.
    (z-y) q*_2N is a multiple of I_N, so the last condition reads
    (S I_N)_{j+1} = y (S I_N)_j.  Those conditions do not see the scale
    of I_N, so (b) also requires the reproducing property at p = 1,
    <1 | I_N(., y)> = (S I_N)_0 = 1: a family whose norms are all
    multiplied by one factor scales I_N and fails it.  Both read off one
    :meth:`SkewMoments.apply`.  The report records which candidate
    matches; nothing is assumed in advance.
    """
    y = rat(y)
    report = Report("kernel", {"provenance": moments.provenance})
    ker = kernel(family, pairs, y)
    q_even = family.even(pairs)
    q_even_at = q_even.eval(y)
    if q_even_at == 0:
        raise SingularConfiguration(f"q_{2 * pairs}({rat_str(y)}) = 0")
    # q*_2N of a Christoffel step at y is the same kernel sum, scaled by
    # r_N/q_2N(y) and divided by x - y
    q_star = ker.scale(family.norms[pairs] / q_even_at).div_by_linear(y)
    x_minus_y = Polynomial((-y, 1))
    form_a = (x_minus_y * q_even * q_star).scale(1 / family.norms[pairs])
    a_match = form_a == ker
    v, den = moments.apply(ker, 2 * pairs + 1)
    p, q = y.numerator, y.denominator
    b_match = (
        q_star.degree == 2 * pairs
        and q_star.leading == 1
        and v[0] == den
        and all(v[j + 1] * q == p * v[j] for j in range(2 * pairs))
    )
    verdict_a = "match" if a_match else "no-match"
    verdict_b = "match" if b_match else "no-match"
    report.add(
        "form-verdict",
        True,
        f"(x-y)q_2N(x)q*_2N(x)/r_N: {verdict_a}; "
        f"(x-y)q*_2N(x)q_2N(y)/r_N: {verdict_b}",
    )
    report.add(
        "exactly-one-form",
        a_match != b_match or (a_match and b_match and pairs == 0),
        f"a={a_match} b={b_match}",
    )
    return report
