"""Skew orthogonal polynomial families built from moment tables.

With tau_n = Pf(0..2n-1), q_2n = Pf(0..2n, z)/tau_n and q_2n+1 =
Pf(0..2n-1, 2n+1, z)/tau_n.  :func:`build_family` reads every member off one
elimination, and :func:`oracle_family` (skew Gram-Schmidt in integers,
independent of the Pfaffian engine) cross-checks it.  The tests evaluate
each member's formula by itself too, with the reference
:func:`skewflow.pfaffian.augmented_pfaffian`, which expands along z's row
on the pivoted :func:`skewflow.pfaffian.pfaffian` and shares only the
elimination step with that pass; nothing here calls it.
:func:`verify_skew_orthogonality` checks a family against its defining
pairings in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Any, Sequence

from .algebra import Polynomial, Rational, RationalLike, rat, rat_str, ratio_str
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
    sg, sg_den = moments.apply_form(g.num, g.den, len(f.num))
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


def _check_pairs(moments: SkewMoments, pairs: int) -> None:
    """Refuse a negative pair count and a table too small for the family."""
    if pairs < 0:
        raise ValueError(f"pairs must be nonnegative, got {pairs}")
    if 2 * pairs + 1 > moments.max_index:
        raise DegreeBudgetExceeded(
            f"family with {pairs} pairs needs max_index >= {2 * pairs + 1}"
        )


def build_family(moments: SkewMoments, pairs: int) -> SOPFamily:
    """Family q_0..q_{2*pairs+1}: numerators and taus from one
    :func:`prefix_pfaffians` pass, each member formed from their integer
    forms with one reduction.  Raises only when the family does not
    exist; as r_n = tau_{n+1}/tau_n, a vanishing tau_{n+1} shows up as the
    vanishing r_n, checked before the pass steps on (and divides by it).
    """
    _check_pairs(moments, pairs)
    polys: list[Polynomial] = []
    norms: list[Rational] = []
    for n, ((pivot, dn), _, (even, den), (odd, _)) in enumerate(
        prefix_pfaffians(moments, pairs - 1)
    ):
        # each numerator is over D^(n+1) and tau_n is pivot/D^n, so the
        # member is the numerator over D*pivot
        den = den // dn * pivot
        polys += [Polynomial._reduced(even, den), Polynomial._reduced(odd, den)]
        norms.append(skew_product(moments, polys[-2], polys[-1]))
        if norms[-1] == 0:
            raise SingularConfiguration(f"normalization r_{n} vanishes")
    return SOPFamily(polys, norms, PFAFFIAN_GAUGE)


def oracle_family(moments: SkewMoments, pairs: int) -> SOPFamily:
    """Independent construction by skew Gram-Schmidt, degree by degree.

    With lower = degree - (degree mod 2),
    q_degree = z^degree + sum_{m < lower/2} (alpha_m q_2m + beta_m q_2m+1),
    alpha_m = -<z^degree|q_2m+1>/r_m and beta_m = <z^degree|q_2m>/r_m,
    where <z^d|q_k> is the d-th entry of S*q_k and r_m = <q_2m|q_2m+1>.
    In integers, with S*q_k = v_k/(D e_k) for q_k = Q_k/e_k and
    r_m = rho_m/(D e_2m e_2m+1), every e_k and D cancel:
    q_degree = z^degree + sum_m (v_2m[degree] Q_2m+1 - v_2m+1[degree] Q_2m)/rho_m,
    one combination over lcm(rho_m), reduced once.  Every term has degree
    below 2n for an odd member q_2n+1, so odd members come out in the
    z^2n-coefficient-zero gauge and may differ from the Pfaffian-formula
    family by a multiple of the even member.
    """
    _check_pairs(moments, pairs)
    rows = 2 * pairs + 2
    polys: list[Polynomial] = []
    norms: list[Rational] = []
    # applied[k] = v_k; rhos[m] = rho_m for the finished pairs, and den
    # their lcm
    applied: list[list[int]] = []
    rhos: list[int] = []
    den = 1
    for degree in range(rows):
        num = [0] * degree + [den]
        for m, rho in enumerate(rhos):
            w = den // rho
            a, b = w * applied[2 * m][degree], w * applied[2 * m + 1][degree]
            even, odd = polys[2 * m].num, polys[2 * m + 1].num
            for i, c in enumerate(odd):
                num[i] += a * c
            for i, c in enumerate(even):
                num[i] -= b * c
        polys.append(Polynomial._reduced(num, den))
        sq, sq_den = moments.apply_form(polys[-1].num, polys[-1].den, rows)
        applied.append(sq)
        if degree % 2:
            n = degree // 2
            even = polys[-2]
            rho = sum(map(mul, even.num, sq))
            if rho == 0:
                # below the top pair, q_2n+2 is then undefined: its defining
                # relations form a linear system of determinant tau_n+1^2 = 0
                if n < pairs:
                    raise SingularConfiguration("linear system for SOP oracle is singular")
                raise SingularConfiguration(f"normalization r_{n} vanishes")
            norms.append(Fraction(rho, even.den * sq_den))
            den = lcm(den, rho)
            rhos.append(rho)
    return SOPFamily(polys, norms, COEFF_GAUGE)


def verify_skew_orthogonality(family: SOPFamily, moments: SkewMoments) -> Report:
    """Check every pairing <q_a|q_b> against the defining pattern.

    Each pairing is the integer pair (num, den) :func:`skew_pairings`
    returns, compared with its target by cross-multiplying: num == 0 off
    the norm positions, num * r.denominator == r.numerator * den on them.
    """
    report = Report("orthogonality", {"provenance": moments.provenance})
    count = 2 * family.pairs + 2
    pairings = skew_pairings(moments, [(p.num, p.den) for p in family.polys])
    for a in range(count):
        for b in range(a + 1, count):
            num, den = pairings[a, b]
            if a % 2 == 0 and b == a + 1:
                r = family.norms[a // 2]
                ok, rhs = num * r.denominator == r.numerator * den, rat_str(r)
            else:
                ok, rhs = num == 0, "0/1"
            report.add(f"<q{a}|q{b}>", ok, f"lhs={ratio_str(num, den)} rhs={rhs}")
    return report
