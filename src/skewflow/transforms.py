"""Skew-Christoffel transformation, its Geronimus-type inverse, the banded
Lax pair of the iterated chain, and the skew Christoffel-Darboux kernel.

The transformation maps SOPs for <.|.> to SOPs for <(z-lambda).|(z-lambda).>
by an explicit sum (even degree) and an explicit two-term division (odd
degree); both numerators vanish at lambda, so the division is exact.

Polynomial work runs on the integer forms underneath: a kernel sum is one
:meth:`Polynomial.combination` over one denominator, a Geronimus pairing
is one integer dot product with S*g, a Lax-pair row is checked as one
polynomial identity, and an L*R product multiplies two integer matrices.
``Fraction`` arithmetic is left for the scalar coefficients of a step.
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


def _kernel_coeffs(
    family: SOPFamily,
    even_at: Sequence[Rational],
    odd_at: Sequence[Rational],
    n: int,
    factor: Rational,
) -> tuple[list[Rational], list[Rational]]:
    """(a, b) with factor * sum_{k<=n} (q_2k(y) q_{2k+1} - q_{2k+1}(y) q_2k) / r_k
    = sum_{k<=n} a_k q_2k + b_k q_{2k+1}, given the values at y."""
    a, b = [], []
    for k in range(n + 1):
        c = factor / family.norms[k]
        a.append(-c * odd_at[k])
        b.append(c * even_at[k])
    return a, b


def _kernel_sum(family: SOPFamily, a: Sequence[Rational], b: Sequence[Rational]) -> Polynomial:
    """sum_k a_k q_2k + b_k q_{2k+1}, reduced once."""
    polys = family.polys
    return Polynomial.combination([*zip(a, polys[0::2]), *zip(b, polys[1::2])])


@dataclass(frozen=True)
class ChristoffelData:
    """Coefficient tables of one transformation step at parameter lam.

    even_coeffs[n][k] multiplies q_2k in the banded relation
    (z - lam) q*_2n = q_{2n+1} + sum_k even_coeffs[n][k] q_2k
                              + sum_{k<n} odd_coeffs[n][k] q_{2k+1};
    odd_shift[n] multiplies q_2n in (z - lam) q*_{2n+1} = q_{2n+2}
                              + odd_shift[n] q_2n.
    """

    lam: Rational
    even_coeffs: tuple[tuple[Rational, ...], ...]
    odd_coeffs: tuple[tuple[Rational, ...], ...]
    odd_shift: tuple[Rational, ...]


def christoffel(
    family: SOPFamily, moments: SkewMoments, lam: RationalLike
) -> tuple[SOPFamily, SkewMoments, ChristoffelData]:
    """One skew-Christoffel step at lam.

    Returns the transformed family (one pair shorter, alpha_n = 0 gauge),
    the shifted moment table, and the banded coefficient tables of the step.
    The kernel sum of q*_2n is the L row (z - lam) q*_2n of the step, so
    both are read off one set of coefficients.
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
    norms = family.norms
    polys: list[Polynomial] = []
    new_norms: list[Rational] = []
    even_coeffs = []
    odd_coeffs = []
    odd_shift = []
    for n in range(family.pairs + 1):
        # b[n] = (r_n / q_2n(lam)) q_2n(lam) / r_n = 1: the q_{2n+1} term
        a, b = _kernel_coeffs(family, even_at, odd_at, n, norms[n] / even_at[n])
        even_coeffs.append(tuple(a))
        odd_coeffs.append(tuple(b[:n]))
        if n == family.pairs:
            break
        ratio = even_at[n + 1] / even_at[n]
        odd_shift.append(-ratio)
        polys.append(_kernel_sum(family, a, b).div_by_linear(lam))
        odd_num = Polynomial.combination(
            ((1, family.even(n + 1)), (-ratio, family.even(n)))
        )
        polys.append(odd_num.div_by_linear(lam))
        r_star = ratio * norms[n]
        if r_star == 0:
            raise SingularConfiguration(f"transformed normalization r*_{n} vanishes")
        new_norms.append(r_star)
    transformed = SOPFamily(polys, new_norms, CHRISTOFFEL_GAUGE)
    data = ChristoffelData(lam, tuple(even_coeffs), tuple(odd_coeffs), tuple(odd_shift))
    return transformed, moments.shift(lam), data


@dataclass(frozen=True)
class GeronimusData:
    """Contiguous-relation coefficients expressing old SOPs in new ones.

    q_2n^t     = q_2n^{t+1} + sum_{k<n} alpha[n][k] q_2k^{t+1}
                            + sum_{k<n} beta[n][k] q_{2k+1}^{t+1}
    q_{2n+1}^t = q_{2n+1}^{t+1} + sum_{k<=n} gamma[n][k] q_2k^{t+1}
                            + sum_{k<n} epsilon[n][k] q_{2k+1}^{t+1}
    """

    lam: Rational
    alpha: tuple[tuple[Rational, ...], ...]
    beta: tuple[tuple[Rational, ...], ...]
    gamma: tuple[tuple[Rational, ...], ...]
    epsilon: tuple[tuple[Rational, ...], ...]


def geronimus_coeffs(
    family_next: SOPFamily,
    family: SOPFamily,
    moments: SkewMoments,
    lam: RationalLike,
) -> GeronimusData:
    """Expansion coefficients of the pre-transform family in the transformed one.

    Each coefficient is a modified-product pairing divided by the transformed
    normalization; the pairing is a skew product on the table shifted once
    by lam, since <f|g> there equals <(z-lam)f|(z-lam)g> on the base table.
    S*g on that table is formed once per right-hand member, so each pairing
    is one integer dot product with the numerators of f.
    :func:`verify_geronimus` checks that the coefficients reconstruct the family.
    """
    lam = rat(lam)
    shifted = moments.shift(lam)
    pairs = family_next.pairs
    rows = 2 * pairs + 2  # every left-hand member has degree <= 2*pairs+1

    next_odd = [shifted.apply(family_next.odd(k), rows) for k in range(pairs + 1)]
    even = [shifted.apply(family.even(n), rows) for n in range(pairs + 1)]
    odd = [shifted.apply(family.odd(n), rows) for n in range(pairs + 1)]
    norms = family_next.norms

    def coefficient(f: Polynomial, sg: tuple[list[int], int], k: int) -> Rational:
        """<f|g> / r*_k with S*g given."""
        vec, den = sg
        r = norms[k]
        return Fraction(
            sum(map(mul, f.num, vec)) * r.denominator, f.den * den * r.numerator
        )

    alpha, beta, gamma, epsilon = [], [], [], []
    for n in range(pairs + 1):
        q_even, q_odd = family.even(n), family.odd(n)
        alpha.append(tuple(coefficient(q_even, next_odd[k], k) for k in range(n)))
        beta.append(
            tuple(coefficient(family_next.even(k), even[n], k) for k in range(n))
        )
        gamma.append(tuple(coefficient(q_odd, next_odd[k], k) for k in range(n + 1)))
        epsilon.append(
            tuple(coefficient(family_next.even(k), odd[n], k) for k in range(n))
        )
    return GeronimusData(
        lam, tuple(alpha), tuple(beta), tuple(gamma), tuple(epsilon)
    )


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
    """Check that the contiguous relations of ``data`` rebuild every member
    of ``family`` from ``family_next``, exactly: member i is row i of the R
    factor applied to ``family_next``, the identity Phi^t = R^t Phi^{t+1}
    that :func:`build_lax_pair` also checks.

    ``moments`` is the untransformed table; the report records its provenance.
    """
    report = Report(
        "geronimus",
        {"lambda": rat_str(data.lam), "provenance": moments.provenance},
    )
    rows = _r_matrix(data, len(family_next.polys)).rows
    for i, row in enumerate(rows):
        rebuilt = Polynomial.combination(zip(row, family_next.polys))
        kind = "odd" if i % 2 else "even"
        report.add(f"reconstruct-{kind}:{i // 2}", rebuilt == family.polys[i])
    return report


class BandMatrix:
    """Finite truncation of the lower-banded Lax factors.

    kind "L": lower Hessenberg with unit superdiagonal; kind "R": unit
    lower triangular.
    """

    __slots__ = ("size", "kind", "rows")

    def __init__(self, size: int, kind: str, rows: Sequence[Sequence[RationalLike]]):
        if kind not in ("L", "R"):
            raise ValueError("kind must be 'L' or 'R'")
        self.size = size
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


def _l_matrix(data: ChristoffelData, size: int) -> BandMatrix:
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        n = i // 2
        if i % 2 == 0:
            for k in range(n + 1):
                if 2 * k < size:
                    row[2 * k] = data.even_coeffs[n][k]
            for k in range(n):
                if 2 * k + 1 < size:
                    row[2 * k + 1] = data.odd_coeffs[n][k]
        else:
            row[2 * n] = data.odd_shift[n]
        if i + 1 < size:
            row[i + 1] = Fraction(1)
        rows.append(row)
    return BandMatrix(size, "L", rows)


def _r_matrix(data: GeronimusData, size: int) -> BandMatrix:
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        n = i // 2
        if i % 2 == 0:
            for k in range(n):
                row[2 * k] = data.alpha[n][k]
                row[2 * k + 1] = data.beta[n][k]
        else:
            for k in range(n + 1):
                row[2 * k] = data.gamma[n][k]
            for k in range(n):
                row[2 * k + 1] = data.epsilon[n][k]
        row[i] = Fraction(1)
        rows.append(row)
    return BandMatrix(size, "R", rows)


def build_lax_pair(
    families: Sequence[SOPFamily],
    datas: Sequence[tuple[ChristoffelData, GeronimusData]],
    size: int,
) -> list[tuple[BandMatrix, BandMatrix]]:
    """Banded L/R factors of each chain step, verified against the families.

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
        lmat = _l_matrix(cdata, size)
        rmat = _r_matrix(gdata, size)
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
    even_at, odd_at = _values_at(family, y, pairs)
    return _kernel_sum(family, *_kernel_coeffs(family, even_at, odd_at, pairs, Fraction(1)))


def verify_factorization(
    family: SOPFamily, moments: SkewMoments, pairs: int, y: RationalLike
) -> Report:
    """Compare the kernel sum against both candidate factorized forms.

    Form (a) pairs the two even SOPs in the same variable x; form (b) pairs
    the transformed SOP at x with the original evaluated at y.  The report
    records which candidate matches; nothing is assumed in advance.
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
    form_b = (x_minus_y * q_star).scale(q_even_at / family.norms[pairs])
    a_match = form_a == ker
    b_match = form_b == ker
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
