"""Skew orthogonal polynomial families built from moment tables.

With tau_n = Pf(0..2n-1), q_2n = Pf(0..2n, z)/tau_n and q_2n+1 =
Pf(0..2n-1, 2n+1, z)/tau_n.  :func:`build_family` reads every member off one
elimination, and :func:`oracle_family` (an independent exact linear solve)
cross-checks it.  The tests evaluate each member's formula by itself too,
with :func:`skewflow.pfaffian.augmented_pfaffian`; nothing here calls it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Any, Sequence

from .algebra import Polynomial, Rational, RationalLike, rat, rat_str
from .errors import DegreeBudgetExceeded, SingularConfiguration
from .moments import SkewMoments
from .pfaffian import prefix_pfaffians
from .report import Report

PFAFFIAN_GAUGE = "pfaffian-alpha-zero"
COEFF_GAUGE = "z2n-coefficient-zero"
CHRISTOFFEL_GAUGE = "christoffel-alpha-zero"
GAUGES = (PFAFFIAN_GAUGE, COEFF_GAUGE, CHRISTOFFEL_GAUGE)


def skew_pairings(
    moments: SkewMoments, polys: Sequence[tuple[Sequence[int], int] | None]
) -> dict[tuple[int, int], tuple[int, int]]:
    """<p_a|p_b> for every a < b where neither member is None, each as an
    integer pair (num, den), den > 0, not reduced.

    Each member is an integer form (coefficients, den), den > 0,
    coefficients constant first.  S*p_b is formed once per member, on the
    rows the earlier members reach; each pairing is then one integer dot
    product with the coefficients of p_a.
    """
    out: dict[tuple[int, int], tuple[int, int]] = {}
    earlier: list[tuple[int, Sequence[int], int]] = []
    rows = 0
    for b, g in enumerate(polys):
        if g is None:
            continue
        sg, sg_den = moments.apply_form(*g, rows)
        for a, f, f_den in earlier:
            out[a, b] = sum(map(mul, f, sg)), f_den * sg_den
        earlier.append((b, *g))
        rows = max(rows, len(g[0]))
    return out


def skew_product(moments: SkewMoments, f: Polynomial, g: Polynomial) -> Rational:
    """<f|g> = sum_ij f_i g_j s_ij; bilinear and skew.

    Evaluated in integers: the numerators of f dotted with the table's
    S*g, divided once at the end; DegreeBudgetExceeded where f or g
    exceeds the table.
    """
    sg, sg_den = moments.apply(g, len(f.num))
    return Fraction(sum(map(mul, f.num, sg)), f.den * sg_den)


class SOPFamily:
    """Polynomials q_0..q_{2N+1} with normalizations r_0..r_N."""

    __slots__ = ("pairs", "polys", "norms", "gauge")

    def __init__(
        self,
        polys: Sequence[Polynomial],
        norms: Sequence[RationalLike],
        gauge: str = PFAFFIAN_GAUGE,
    ):
        if len(polys) % 2 != 0 or not polys:
            raise ValueError("family must hold pairs q_2n, q_{2n+1}")
        self.pairs = len(polys) // 2 - 1
        self.polys = tuple(polys)
        self.norms = tuple(rat(r) for r in norms)
        self.gauge = gauge
        if len(self.norms) != self.pairs + 1:
            raise ValueError("need one normalization per pair")
        for n, p in enumerate(self.polys):
            if p.degree != n:
                raise ValueError(f"q_{n} has degree {p.degree}")
        if any(r == 0 for r in self.norms):
            raise SingularConfiguration("zero normalization in family")

    def even(self, n: int) -> Polynomial:
        return self.polys[2 * n]

    def odd(self, n: int) -> Polynomial:
        return self.polys[2 * n + 1]

    def gauge_projected(self) -> "SOPFamily":
        """Shift each odd member so its z^2n coefficient vanishes."""
        polys = list(self.polys)
        for n in range(self.pairs + 1):
            q_even, q_odd = polys[2 * n], polys[2 * n + 1]
            alpha = q_odd.coefficient(2 * n)
            polys[2 * n + 1] = q_odd - q_even.scale(alpha)
        return SOPFamily(polys, self.norms, COEFF_GAUGE)

    def to_json(self) -> dict[str, Any]:
        return {
            "pairs": self.pairs,
            "polys": [p.to_json() for p in self.polys],
            "norms": [rat_str(r) for r in self.norms],
            "gauge": self.gauge,
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "SOPFamily":
        """The family a :meth:`to_json` payload describes: ``polys`` a list
        of coefficient lists, ``norms`` a list and ``pairs`` the JSON
        integer len(polys)/2 - 1; ValueError otherwise."""
        polys, norms, pairs = data["polys"], data["norms"], data["pairs"]
        if not isinstance(norms, list):
            raise ValueError("a family's norms must be a list")
        members = [Polynomial.from_json(p) for p in polys]
        values = [rat(r) for r in norms]
        gauge = data.get("gauge", PFAFFIAN_GAUGE)
        if gauge not in GAUGES:
            raise ValueError(f"unknown gauge {gauge!r}")
        family = SOPFamily(members, values, gauge)
        if type(pairs) is not int or pairs != family.pairs:
            raise ValueError(f"pairs {pairs!r} does not match {len(polys)} polys")
        return family


def build_family(moments: SkewMoments, pairs: int) -> SOPFamily:
    """Family q_0..q_{2*pairs+1}: numerators and taus from one
    :func:`prefix_pfaffians` pass, each member formed from their integer
    forms with one reduction.  Raises only when the family does not
    exist; as r_n = tau_{n+1}/tau_n, a vanishing tau_{n+1} shows up as the
    vanishing r_n, checked before the pass steps on (and divides by it).
    """
    if 2 * pairs + 1 > moments.max_index:
        raise DegreeBudgetExceeded(
            f"family with {pairs} pairs needs max_index >= {2 * pairs + 1}"
        )
    polys: list[Polynomial] = []
    norms: list[Rational] = []
    for n, ((pivot, dn), _, (even, den), (odd, _)) in enumerate(
        prefix_pfaffians(moments, pairs - 1)
    ):
        # each numerator is over D^(n+1) and tau_n is pivot/D^n, so the
        # member is the numerator over D*pivot
        den = den // dn * pivot
        sign = -1 if den < 0 else 1
        polys += [Polynomial._reduced([sign * c for c in num], sign * den) for num in (even, odd)]
        norms.append(skew_product(moments, polys[-2], polys[-1]))
        if norms[-1] == 0:
            raise SingularConfiguration(f"normalization r_{n} vanishes")
    return SOPFamily(polys, norms, PFAFFIAN_GAUGE)


def _solve(rows: list[list[int]]) -> tuple[list[int], int]:
    """Solve the integer system [A | b] fraction-free: (y, d) with d > 0
    and x = y/d.

    Forward elimination is Bareiss's with first-nonzero row pivoting: after
    step c the entry in row r > c and column j > c is the minor of the
    row-permuted system on rows 0..c, r and columns 0..c, j, so the
    division by the previous pivot is exact and the rows stay integers.
    The last pivot d is +-det(A), so y = d*x is an integer vector by
    Cramer's rule, and back substitution y_i = (d b_i - sum_j a_ij y_j) / a_ii
    divides exactly.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise SingularConfiguration("linear system for SOP oracle is singular")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            f = a[r][col]
            a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
    det = prev if prev > 0 else -prev
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        rest = sum(map(mul, row[i + 1 : n], y[i + 1 :]))
        y[i] = (det * row[n] - rest) // row[i]
    return y, det


def oracle_family(moments: SkewMoments, pairs: int) -> SOPFamily:
    """Independent construction solving the defining relations degree by degree.

    Odd members use the z^2n-coefficient-zero gauge, so they may differ from
    the Pfaffian-formula family by a multiple of the even member.
    """
    if 2 * pairs + 1 > moments.max_index:
        raise DegreeBudgetExceeded(
            f"family with {pairs} pairs needs max_index >= {2 * pairs + 1}"
        )
    polys: list[Polynomial] = []
    norms: list[Rational] = []
    # pairings[k][j] = <z^j|q_k> times its row's denominator: the j-th entry
    # of S*q_k in integers
    pairings: list[list[int]] = []
    for degree in range(2 * pairs + 2):
        # q_degree = z^degree + sum_{j<degree} c_j z^j with <q|q_k> = 0
        # for k < 2*floor(degree/2); odd degrees add the gauge row c_{deg-1}=0.
        lower = degree - (0 if degree % 2 == 0 else 1)
        rows = [pairings[k][:degree] + [-pairings[k][degree]] for k in range(lower)]
        if degree % 2 == 1:
            rows.append([0] * (degree - 1) + [1, 0])
        if degree == 0:
            polys.append(Polynomial.one())
        else:
            y, det = _solve(rows)
            polys.append(Polynomial._reduced(y + [det], det))
        pairings.append(moments.apply(polys[-1], 2 * pairs + 2)[0])
    for n in range(pairs + 1):
        r = skew_product(moments, polys[2 * n], polys[2 * n + 1])
        if r == 0:
            raise SingularConfiguration(f"normalization r_{n} vanishes")
        norms.append(r)
    return SOPFamily(polys, norms, COEFF_GAUGE)


def verify_skew_orthogonality(family: SOPFamily, moments: SkewMoments) -> Report:
    """Check every pairing <q_a|q_b> against the defining pattern."""
    report = Report("orthogonality", {"provenance": moments.provenance})
    count = 2 * family.pairs + 2
    pairings = skew_pairings(moments, [(p.num, p.den) for p in family.polys])
    for a in range(count):
        for b in range(a + 1, count):
            value = Fraction(*pairings[a, b])
            if a % 2 == 0 and b == a + 1:
                expected = family.norms[a // 2]
            else:
                expected = Fraction(0)
            report.add(
                f"<q{a}|q{b}>",
                value == expected,
                f"lhs={rat_str(value)} rhs={rat_str(expected)}",
            )
    return report
