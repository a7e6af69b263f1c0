"""Skew-Christoffel transformation, its Geronimus-type inverse, the banded
Lax pair of the iterated chain, and the skew Christoffel-Darboux kernel.

The transformation maps SOPs for <.|.> to SOPs for <(z-lambda).|(z-lambda).>.
A step and its inverse are the two factors of the discrete Lax pair, and
each stores its factor's rows: row i of :class:`ChristoffelData` writes
(z - lambda) q*_i in the pre-transform family (an L row), row i of
:class:`GeronimusData` writes q_i in the transformed family (an R row).
A transformed member is its L row's sum divided by z - lambda; the sum
vanishes at lambda, so the division is exact.

Everything runs on integer forms.  Each member's value at lambda or y is
one homogeneous Horner pass over its numerator (:func:`horner`), an
unreduced (num, den).  The kernel sums are one running integer sum over
one denominator, one pair of members per order (:func:`_kernel_sums`); an
even transformed member is its sum divided by z - lambda on the integers
(:func:`linear_quotient`), an odd one a two-term integer combination.
Every L and R row is stored as ints over one positive denominator
(:data:`RowForm`); :class:`BandMatrix` checks its structure and forms its
products in those ints.  The Lax-pair rows, the Geronimus rebuilds and the
kernel's form (a) are each checked as one integer identity through
:func:`skewflow.algebra.sums_to_zero`.  A reduced ``Fraction`` or
``Polynomial`` is formed only where a value is handed out or written: a
transformed member, a norm, a report detail and the ``rows`` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .algebra import (
    Polynomial,
    Rational,
    RationalLike,
    convolve,
    horner,
    linear_quotient,
    rat,
    rat_str,
    ratio_str,
    sums_to_zero,
)
from .errors import SingularConfiguration, TruncationTooLarge
from .moments import SkewMoments
from .report import Report
from .sops import CHRISTOFFEL_GAUGE, SOPFamily, verify_skew_orthogonality

# One row of an L or R factor: integer entries over one denominator > 0.
RowForm = tuple[tuple[int, ...], int]

# The coefficients of the constant 1.
_ONE = (1,)


def _row_form(ints: Sequence[int], den: int) -> RowForm:
    """The row ints/den, den != 0 of either sign, as a row form with a
    positive denominator; nothing is reduced."""
    if den < 0:
        return tuple(-x for x in ints), -den
    return tuple(ints), den


def _reduced_rows(forms: Sequence[RowForm]) -> tuple[tuple[Rational, ...], ...]:
    """The rows of integer forms as reduced Fractions."""
    return tuple(tuple(Fraction(x, den) for x in ints) for ints, den in forms)


def _kernel_sums(
    family: SOPFamily, pairs: int, y: RationalLike
) -> tuple[Rational, list[int], list[list[int]], list[int], int]:
    """The kernel sums K_n = sum_{k<=n} (q_2k(y) q_{2k+1} - q_{2k+1}(y)
    q_2k) / r_k for n = 0..pairs, on one denominator, and the member
    values they read.

    Returns (y, at, sums, base, den), y as a Fraction p/q.  ``at[j]`` is
    q^j den_j q_j(y), the Horner numerator of member j < 2*pairs + 2 at y.
    Pair k is b_k (q at[2k] num_{2k+1} - at[2k+1] num_2k) over
    d_k = q^(2k+1) den_2k den_{2k+1} a_k, with r_k = a_k/b_k.
    K_n = sums[n]/den, each sum the last plus one pair scaled to
    den = lcm |d_k|, and base[j]/den is the coefficient of q_j in K_pairs.
    """
    y = rat(y)
    if pairs < 0:
        raise ValueError(f"kernel order must be nonnegative, got {pairs}")
    if pairs > family.pairs:
        raise ValueError("kernel order exceeds the family")
    p, q = y.numerator, y.denominator
    polys, norms = family.polys, family.norms
    at = [horner(f.num, p, q) for f in polys[: 2 * pairs + 2]]
    dens = [
        q ** (2 * k + 1) * polys[2 * k].den * polys[2 * k + 1].den * norms[k].numerator
        for k in range(pairs + 1)
    ]
    den = lcm(*dens)
    total = [0] * (2 * pairs + 2)
    sums, base = [], []
    for k, d in enumerate(dens):
        even, odd = polys[2 * k], polys[2 * k + 1]
        c = norms[k].denominator * (den // d)
        lo, hi = -c * at[2 * k + 1], c * q * at[2 * k]
        for i, a in enumerate(even.num):
            total[i] += lo * a
        for i, a in enumerate(odd.num):
            total[i] += hi * a
        sums.append(list(total))
        base += (lo * even.den, hi * odd.den)
    return y, at, sums, base, den


def _even_scale(family: SOPFamily, at: Sequence[int], q: int, den: int, n: int) -> tuple[int, int]:
    """(u, w), w != 0 of either sign, with u/w = r_n / (q_2n(y) den): the
    factor that makes the kernel sum of order n, on the denominator of
    :func:`_kernel_sums`, the L row 2n, so that its q_{2n+1} entry is 1."""
    r, even = family.norms[n], family.polys[2 * n]
    return r.numerator * q ** (2 * n) * even.den, r.denominator * at[2 * n] * den


@dataclass(frozen=True)
class ChristoffelData:
    """The L factor of one transformation step at parameter lam.

    Row i writes (z - lam) q*_i = sum_j rows[i][j] q_j in the pre-transform
    family q_0..q_{2N+1}: row 2n is the kernel sum of order n scaled by
    r_n/q_2n(lam), row 2n+1 is q_{2n+2} - (q_{2n+2}(lam)/q_2n(lam)) q_2n.
    Row 2N, the kernel sum of order N, has no member in the transformed
    family, which is one pair shorter; the rows stop there.  ``forms``
    holds each row as integers over one denominator; ``rows`` reduces them.
    """

    lam: Rational
    forms: tuple[RowForm, ...]

    @property
    def rows(self) -> tuple[tuple[Rational, ...], ...]:
        return _reduced_rows(self.forms)


def christoffel(
    family: SOPFamily, moments: SkewMoments, lam: RationalLike
) -> tuple[SOPFamily, SkewMoments, ChristoffelData]:
    """One skew-Christoffel step at lam.

    Returns the transformed family (one pair shorter, alpha_n = 0 gauge),
    the shifted moment table, and the L rows of the step; each transformed
    member is read off its own row.  Every even L row is a prefix of the
    one base row of :func:`_kernel_sums` times its scale.
    """
    lam, at, sums, base, den = _kernel_sums(family, family.pairs, lam)
    if family.pairs < 1:
        raise ValueError("need at least two pairs to transform")
    for n in range(family.pairs + 1):
        if at[2 * n] == 0:
            raise SingularConfiguration(
                f"q_{2 * n}({rat_str(lam)}) = 0: lambda outside the admissible set"
            )
    p, q = lam.numerator, lam.denominator
    polys = family.polys
    size, qq = len(polys), q * q
    forms: list[RowForm] = []
    members: list[Polynomial] = []
    norms: list[Rational] = []
    for n in range(family.pairs + 1):
        u, w = _even_scale(family, at, q, den, n)
        forms.append(_row_form([u * x for x in base[: 2 * n + 2]] + [0] * (size - 2 * n - 2), w))
        if n == family.pairs:
            break
        # (z - lam) q*_2n = u sums[n] / w, and sums[n] = (q z - p) g
        # gives q*_2n = u q g / w
        uq = u * q
        members.append(Polynomial._reduced([uq * c for c in linear_quotient(sums[n], p, q)], w))
        # q_{2n+2} - ratio q_2n with ratio = at[2n+2] den_2n / (q^2 den_{2n+2} at[2n])
        even, nxt = polys[2 * n], polys[2 * n + 2]
        e, e_next = at[2 * n], at[2 * n + 2]
        top = qq * nxt.den * e
        odd = [0] * size
        odd[2 * n], odd[2 * n + 2] = -e_next * even.den, top
        forms.append(_row_form(odd, top))
        combined = [qq * e * c for c in nxt.num]
        for i, c in enumerate(even.num):
            combined[i] -= e_next * c
        # the combination is over q^2 den_{2n+2} e, and its quotient by
        # (z - lam) is q times the one by (q z - p)
        members.append(Polynomial._reduced(linear_quotient(combined, p, q), q * nxt.den * e))
        # r*_n = (q_{2n+2}(lam)/q_2n(lam)) r_n
        r = family.norms[n]
        norms.append(Fraction(e_next * even.den * r.numerator, top * r.denominator))
    transformed = SOPFamily(members, norms, CHRISTOFFEL_GAUGE)
    return transformed, moments.shift(lam), ChristoffelData(lam, tuple(forms))


@dataclass(frozen=True)
class GeronimusData:
    """The R factor of one transformation step at parameter lam.

    Row i writes the pre-transform member q_i = sum_j R[i][j] q*_j in
    the transformed family q*_0..q*_{2N+1}: unit lower triangular, with
    R[i][i] = 1 and every entry to its right 0.  ``forms`` holds each
    row as integers over one denominator.
    """

    lam: Rational
    forms: tuple[RowForm, ...]


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
    with the numerators of q_i; row i is over den_i times the lcm of the
    columns' denominators.
    :func:`verify_geronimus` checks that the rows reconstruct the family.
    """
    lam = rat(lam)
    shifted = moments.shift(lam)
    size = len(family_next.polys)  # every left-hand member has degree < size
    # column j: S*q*_{j^1} over d_j, times (-1)^j / r*_{j//2}
    columns = []
    for j in range(size):
        g = family_next.polys[j ^ 1]
        vec, den = shifted.apply_form(g.num, g.den, size)
        r = family_next.norms[j // 2]
        columns.append((vec, (-1) ** j * r.denominator, den * r.numerator))
    common = lcm(*(d for _, _, d in columns))
    scaled = [(vec, k * (common // d)) for vec, k, d in columns]
    forms = []
    for i, f in enumerate(family.polys[:size]):
        den = f.den * common
        below = [sum(map(mul, f.num, vec)) * k for vec, k in scaled[:i]]
        forms.append((tuple(below) + (den,) + (0,) * (size - i - 1), den))
    return GeronimusData(lam, tuple(forms))


def _row_holds(
    row: RowForm, members: Sequence[Polynomial], f: Sequence[int], target: Polynomial, d: int
) -> bool:
    """Whether sum_j row_j members_j = f target / d, for f integer
    coefficients and d != 0: the identity times the row's denominator, as
    one integer sum (:func:`sums_to_zero`)."""
    ints, den = row
    terms = [(c, _ONE, m.num, m.den) for c, m in zip(ints, members) if c]
    terms.append((-den, f, target.num, d * target.den))
    return sums_to_zero(terms)


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
    at = [family.even(n).eval(lam) for n in range(family_next.pairs + 2)]
    for n in range(family_next.pairs + 1):
        expected = (at[n + 1] / at[n]) * family.norms[n]
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
    :func:`build_lax_pair` also checks, as one integer identity per row.

    ``moments`` is the untransformed table; the report records its provenance.
    """
    report = Report(
        "geronimus",
        {"lambda": rat_str(data.lam), "provenance": moments.provenance},
    )
    for i, row in enumerate(data.forms):
        kind = "odd" if i % 2 else "even"
        rebuilt = _row_holds(row, family_next.polys, _ONE, family.polys[i], 1)
        report.add(f"reconstruct-{kind}:{i // 2}", rebuilt)
    return report


class BandMatrix:
    """Finite truncation of the lower-banded Lax factors.

    kind "L": lower Hessenberg with unit superdiagonal; kind "R": unit
    lower triangular.  The size is the number of rows, and every row must
    have that many entries.  The one constructor takes ``forms``, each row
    as integers over one denominator > 0, as they are; the structure is
    checked on them, and ``rows`` reduces them.
    """

    __slots__ = ("size", "kind", "forms")

    def __init__(self, kind: str, forms: Sequence[RowForm]):
        if kind not in ("L", "R"):
            raise ValueError("kind must be 'L' or 'R'")
        size = self.size = len(forms)
        self.kind = kind
        self.forms = tuple(forms)
        for i, (row, den) in enumerate(self.forms):
            if len(row) != size:
                raise ValueError("rows must be square")
            if kind == "L":
                if i + 1 < size and row[i + 1] != den:
                    raise ValueError("L superdiagonal must be 1")
                if any(row[i + 2 :]):
                    raise ValueError("L has entries above the superdiagonal")
            else:
                if row[i] != den:
                    raise ValueError("R diagonal must be 1")
                if any(row[i + 1 :]):
                    raise ValueError("R must be lower triangular")

    @property
    def rows(self) -> tuple[tuple[Rational, ...], ...]:
        return _reduced_rows(self.forms)

    def _product(self, other: "BandMatrix", window: int) -> list[RowForm]:
        """Row i < window of self*other, its first ``window`` entries, as
        ints over a denominator > 0: other's rows brought to the lcm of
        their denominators, then integer dot products."""
        common = lcm(*(den for _, den in other.forms))
        cols = list(zip(*(
            [x * (common // den) for x in row[:window]] for row, den in other.forms
        )))
        return [
            (tuple(sum(map(mul, row, col)) for col in cols), den * common)
            for row, den in self.forms[:window]
        ]


def build_lax_pair(
    families: Sequence[SOPFamily],
    datas: Sequence[tuple[ChristoffelData, GeronimusData]],
    size: int,
) -> list[tuple[BandMatrix, BandMatrix]]:
    """Banded L/R factors of each chain step, verified against the families.

    Each factor is the leading size x size block of its step's rows.
    L rows realize (z - lam) Phi^{t+1} = L^t Phi^t and R rows realize
    Phi^t = R^t Phi^{t+1}; each row is checked once as one integer
    identity (:func:`sums_to_zero`).
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
        lmat = BandMatrix("L", [(row[:size], den) for row, den in cdata.forms[:size]])
        rmat = BandMatrix("R", [(row[:size], den) for row, den in gdata.forms[:size]])
        cur, nxt = families[t].polys[:size], families[t + 1].polys[:size]
        z_lam = (-cdata.lam.numerator, cdata.lam.denominator)
        for i in range(size - 1):
            if not _row_holds(lmat.forms[i], cur, z_lam, nxt[i], z_lam[1]):
                raise SingularConfiguration(f"L row {i} fails at step {t}")
        for i in range(size):
            if not _row_holds(rmat.forms[i], nxt, _ONE, cur[i], 1):
                raise SingularConfiguration(f"R row {i} fails at step {t}")
        out.append((lmat, rmat))
    return out


def verify_dlax(
    l_t: BandMatrix, r_t: BandMatrix, l_next: BandMatrix, r_next: BandMatrix
) -> Report:
    """Check L^t R^t = R^{t+1} L^{t+1} on the truncation-safe window.

    Only the principal (size - 2) block is formed and compared, in
    integers; banded-times-banded truncation can corrupt the trailing rows
    and columns.
    """
    report = Report("dlax")
    window = l_t.size - 2
    left = l_t._product(r_t, window)
    right = r_next._product(l_next, window)
    for i, ((lrow, ld), (rrow, rd)) in enumerate(zip(left, right)):
        for j, (a, b) in enumerate(zip(lrow, rrow)):
            report.add(
                f"[{i},{j}]",
                a * rd == b * ld,
                f"LR={ratio_str(a, ld)} RL={ratio_str(b, rd)}",
            )
    return report


def kernel(family: SOPFamily, pairs: int, y: RationalLike) -> Polynomial:
    """Skew Christoffel-Darboux kernel I_N(x, y) as a polynomial in x: the
    kernel sum of :func:`_kernel_sums`, reduced once."""
    _, _, sums, _, den = _kernel_sums(family, pairs, y)
    return Polynomial._reduced(sums[-1], den)


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
    :meth:`SkewMoments.apply_form`.  I_N and q*_2N stay integer forms, and
    form (a) is one integer identity (:func:`sums_to_zero`).  The report
    records which candidate matches; nothing is assumed in advance.
    """
    report = Report("kernel", {"provenance": moments.provenance})
    y, at, sums, _, den = _kernel_sums(family, pairs, y)
    p, q = y.numerator, y.denominator
    ker = sums[-1]  # I_N = ker/den
    if at[2 * pairs] == 0:
        raise SingularConfiguration(f"q_{2 * pairs}({rat_str(y)}) = 0")
    # q*_2N of a Christoffel step at y is the same kernel sum, scaled by
    # r_N/q_2N(y) and divided by x - y: u q g / w with ker = (q x - p) g
    u, w = _even_scale(family, at, q, den, pairs)
    uq = u * q
    q_star = [uq * c for c in linear_quotient(ker, p, q)]
    q_even, r = family.even(pairs), family.norms[pairs]
    a_match = sums_to_zero((
        (r.denominator, (-p, q), convolve(q_even.num, q_star), q * q_even.den * w * r.numerator),
        (-1, _ONE, ker, den),
    ))
    v, v_den = moments.apply_form(ker, den, 2 * pairs + 1)
    b_match = (
        len(q_star) == 2 * pairs + 1
        and q_star[-1] == w
        and v[0] == v_den
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
