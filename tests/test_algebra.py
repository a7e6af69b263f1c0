import copy
import pickle
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewflow import algebra
from skewflow.algebra import (
    Polynomial,
    clear_denominators,
    rat,
    rat_parts,
    rat_str,
)
from skewflow.errors import NotDivisible
from skewflow.lattice import AntiDiagonal, LatticeConfig
from skewflow.moments import DiscreteMeasure
from skewflow.report import Check, Report
from skewflow.transforms import ChristoffelData, GeronimusData
from oracles import combination, div_by_linear, mul
from strategies import entries, fractions


def P(*coeffs):
    return Polynomial([Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs])


# -- dense Fraction reference ------------------------------------------
# Coefficient lists, constant term first, trimmed of trailing zeros; every
# operation is the textbook one, one Fraction at a time.


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), Fraction(0))


def ref_div_by_linear(a, root):
    """Synthetic division by (z - root) in Fractions; raises like the
    library, with the remainder a(root) in the message."""
    if not a:
        return []
    quotient = [Fraction(0)] * (len(a) - 1)
    carry = Fraction(0)
    for k in range(len(a) - 1, 0, -1):
        carry = a[k] + carry * root
        quotient[k - 1] = carry
    remainder = a[0] + carry * root
    if remainder != 0:
        raise NotDivisible(
            f"polynomial does not vanish at {rat_str(root)} "
            f"(remainder {rat_str(remainder)})"
        )
    return trim(quotient)


coeff_lists = st.lists(entries, max_size=7)  # the empty list is zero
points = st.one_of(
    st.integers(-5, 5).map(Fraction),
    fractions(-6, 6, 12),
)


class TestEval:
    def test_quadratic_at_three(self):
        p = Polynomial([Fraction(5, 2), Fraction(-3), Fraction(1)])
        assert p.eval(Fraction(3)) == Fraction(5, 2)

    def test_zero_polynomial(self):
        assert Polynomial().eval(Fraction(17, 5)) == 0

    def test_constant(self):
        assert Polynomial([1]).eval(Fraction(7, 3)) == 1


class TestMul:
    def test_difference_of_squares(self):
        assert mul(P(1, 1), P(-1, 1)) == P(-1, 0, 1)

    def test_by_zero(self):
        assert mul(P(2, 5, 1), Polynomial()) == Polynomial()

    def test_cubic_factorization(self):
        # (z - 3)(z^2 + 3z + 9) = z^3 - 27, cross-checked by convolution
        left, right = P(-3, 1), P(9, 3, 1)
        expected = [Fraction(0)] * 4
        for i, a in enumerate(left.coeffs):
            for j, b in enumerate(right.coeffs):
                expected[i + j] += a * b
        assert mul(left, right) == P(-27, 0, 0, 1)
        assert list(mul(left, right).coeffs) == expected

    def test_commutative(self):
        a, b = P(1, -2, 3), P(Fraction(1, 2), 0, 0, 5)
        assert mul(a, b) == mul(b, a)


class TestDivByLinear:
    def test_difference_of_squares(self):
        assert div_by_linear(P(-9, 0, 1), Fraction(3)) == P(3, 1)

    def test_zero(self):
        assert div_by_linear(Polynomial(), Fraction(11)) == Polynomial()

    def test_double_root_factor(self):
        quotient = div_by_linear(P(0, -6, 2), Fraction(3))
        assert quotient == P(0, 2)
        assert mul(P(-3, 1), quotient) == P(0, -6, 2)

    def test_nonzero_remainder_raises(self):
        with pytest.raises(NotDivisible):
            div_by_linear(P(1, 1), Fraction(3))


class TestStructure:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(1, 2, 0, 0).degree == 1

    def test_degree_conventions(self):
        assert Polynomial().degree == -1
        assert Polynomial([1]).degree == 0
        assert Polynomial([0] * 5 + [1]).degree == 5

    def test_coefficient_out_of_range(self):
        assert P(1, 2).coefficient(9) == 0

    def test_arithmetic_identities(self):
        p = P(Fraction(2, 3), -1, 4)
        assert p - p == Polynomial()
        assert p + Polynomial() == p
        assert -(-p) == p
        assert p.scale(Fraction(0)) == Polynomial()

    def test_json_round_trip(self):
        p = P(Fraction(-7, 3), 0, Fraction(5, 2))
        assert Polynomial.from_json(p.to_json()) == p


# (class, a function returning fresh field values, one field changed).
# The five immutable values, then the two records of a report.
VALUE_TYPES = [
    (LatticeConfig,
     lambda: {"mu": Fraction(1, 2), "lam": Fraction(3), "pairs": 1, "steps_s": 2, "steps_t": 2},
     {"steps_t": 3}),
    (AntiDiagonal, lambda: {"upper": Fraction(2), "lower": Fraction(-3)}, {"lower": Fraction(3)}),
    (DiscreteMeasure,
     lambda: {"nodes": (Fraction(1), Fraction(2)), "weights": (Fraction(1), Fraction(1, 3))},
     {"weights": (Fraction(1), Fraction(1))}),
    (ChristoffelData, lambda: {"lam": Fraction(3), "forms": (((1, 2), 3),)}, {"lam": Fraction(5)}),
    (GeronimusData, lambda: {"lam": Fraction(3), "forms": (((1, 2), 3),)}, {"forms": ()}),
    (Check, lambda: {"id": "a", "status": "pass", "detail": ""}, {"status": "fail"}),
    (Report,
     lambda: {"suite": "x", "instance": {"k": "v"}, "checks": [Check("a", "pass")],
              "elapsed_ms": 0.0},
     {"checks": []}),
]


class TestValueTypes:
    @pytest.mark.parametrize(
        "cls, fields, changed", VALUE_TYPES, ids=[cls.__name__ for cls, _, _ in VALUE_TYPES]
    )
    def test_fields_decide_equality_hash_and_repr(self, cls, fields, changed):
        a, b = cls(**fields()), cls(**fields())
        assert a == b
        assert a != cls(**{**fields(), **changed})
        text = ", ".join(f"{name}={value!r}" for name, value in fields().items())
        assert repr(a) == f"{cls.__name__}({text})"
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
        name = next(iter(changed))
        if cls in (Check, Report):
            with pytest.raises(TypeError):
                hash(a)
            return
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, changed[name])
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b

    def test_types_with_equal_fields_differ(self):
        assert ChristoffelData(Fraction(3), ()) != GeronimusData(Fraction(3), ())

    def test_reports_do_not_share_defaults(self):
        first, second = Report("x"), Report("x")
        first.add("a", True)
        first.instance["k"] = "v"
        assert second.checks == [] and second.instance == {}
        assert first.instance is not second.instance and first.checks is not second.checks


class TestRat:
    def test_parse_forms(self):
        assert rat("5/2") == Fraction(5, 2)
        assert rat("-3") == Fraction(-3)
        assert rat(4) == Fraction(4)
        assert rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_round_trip(self):
        for value in (Fraction(0), Fraction(-7, 3), Fraction(12)):
            assert rat(rat_str(value)) == value

    def test_rejects_float_and_bool(self):
        for value in (0.1, 2.0, True, False):
            with pytest.raises(ValueError):
                rat(value)
        with pytest.raises(ValueError):
            Polynomial([1, 0.5])

    def test_rejects_exponent_spellings(self):
        # Fraction("1e10000000") would expand 10**10000000 before any check
        for value in ("1e10000000", "-2e3", "1E5", "1.5e-3", "3/4e2"):
            with pytest.raises(ValueError, match="exponent spelling"):
                rat(value)

    def test_rejects_decimal_spellings_before_fraction(self, monkeypatch):
        # Fraction("0.<10**6 digits>1") builds 10**(10**6) before int()'s
        # digit limit applies
        class NoFraction(Fraction):
            def __new__(cls, *args):
                raise AssertionError("Fraction built from a decimal spelling")

        monkeypatch.setattr(algebra, "Fraction", NoFraction)
        for value in ("0." + "0" * 10**6 + "1", "1.5", "-.5", "3/4."):
            for parse in (rat, rat_parts):
                with pytest.raises(ValueError, match="decimal spelling"):
                    parse(value)


def outcome(parse, value):
    """The pair a parser returns for value, or the type of what it raises."""
    try:
        v = parse(value)
    except Exception as exc:  # compared by type below
        return type(exc)
    return (v.numerator, v.denominator) if isinstance(v, Fraction) else v


# Canonical "p/q" spellings (zero denominators included), the other
# spellings Fraction(str) accepts or rejects, and every non-string kind.
spellings = st.one_of(
    st.builds(
        lambda p, q: f"{p}/{q}",
        st.integers(-(10**30), 10**30),
        st.integers(0, 10**30),
    ),
    st.sampled_from([
        "+3/4", " 3/4", "3/4 ", "3/4\n", "1_0/3", "1.5", "-2e3", "1/0", "-0/5",
        "007/010", "3", "-3", "", "/", "3/", "/4", "3//4", "--3/4", "nan",
        "inf", "\u0663/\u0664", "\uff13/\uff14", "1/\u0664", "1" * 5000 + "/3",
        "1E5", "1e10000000",
    ]),
    st.text(alphabet="0123456789-+/ ._e\u0663", max_size=8),
    st.integers(-(10**30), 10**30),
    st.fractions(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.none(),
)


class TestRatParts:
    @settings(max_examples=300)
    @given(spellings)
    def test_agrees_with_rat(self, value):
        assert outcome(rat_parts, value) == outcome(rat, value)

    def test_canonical_spellings(self):
        assert rat_parts("2/4") == (1, 2)
        assert rat_parts("-6/3") == (-2, 1)
        assert rat_parts("-0/7") == (0, 1)
        for value in ("1/0", "+1/0", True, 0.5):
            with pytest.raises(ValueError):
                rat_parts(value)


class TestClearDenominators:
    def test_least_common_denominator(self):
        values = [Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5)]
        ints, den = clear_denominators(values)
        assert den == 12
        assert ints == [2, -9, 0, 60]

    def test_empty(self):
        assert clear_denominators([]) == ([], 1)


class TestIntegerFormProperties:
    """The int-over-one-denominator Polynomial against the Fraction reference."""

    @settings(max_examples=80)
    @given(coeff_lists, coeff_lists)
    def test_ring_operations(self, a, b):
        f, g = Polynomial(a), Polynomial(b)
        neg_b = [-c for c in b]
        assert list((f + g).coeffs) == ref_add(a, b)
        assert list((f - g).coeffs) == ref_add(a, neg_b)
        assert list((-g).coeffs) == trim(neg_b)
        assert list(mul(f, g).coeffs) == ref_mul(a, b)

    @settings(max_examples=80)
    @given(coeff_lists, entries, points)
    def test_scale_and_eval(self, a, c, x):
        f = Polynomial(a)
        assert list(f.scale(c).coeffs) == trim(c * v for v in a)
        assert f.eval(x) == ref_eval(a, x)

    @settings(max_examples=80)
    @given(coeff_lists)
    def test_readout(self, a):
        f, ref = Polynomial(a), trim(a)
        for k in range(-1, len(a) + 2):
            assert f.coefficient(k) == (ref[k] if 0 <= k < len(ref) else 0)
        assert f.coefficient(f.degree) == (ref[-1] if ref else 0)
        assert f.degree == len(ref) - 1
        assert f.to_json() == [rat_str(c) for c in ref]

    @settings(max_examples=80)
    @given(
        st.lists(st.integers(-10**6, 10**6), max_size=8),
        st.integers(-10**4, 10**4).filter(bool),
    )
    def test_reduced_takes_a_denominator_of_either_sign(self, num, den):
        f = Polynomial._reduced(list(num), den)
        g = Polynomial._reduced([-c for c in num], -den)
        assert (f.num, f.den) == (g.num, g.den)
        assert f.den > 0 and gcd(f.den, *f.num) == 1
        assert list(f.coeffs) == trim(Fraction(c, den) for c in num)

    @settings(max_examples=80)
    @given(coeff_lists, st.integers(1, 12))
    def test_from_json_reads_any_spelling(self, a, k):
        # "p/q" with a common factor k, or a JSON integer, reads as p/q
        spelled = [
            c.numerator if c.denominator == 1 and k % 2 else
            f"{k * c.numerator}/{k * c.denominator}"
            for c in a
        ]
        assert Polynomial.from_json(spelled) == Polynomial(a)

    @settings(max_examples=80)
    @given(coeff_lists, coeff_lists, entries.filter(lambda c: c != 0))
    def test_form_is_canonical(self, a, b, c):
        f = Polynomial(a)
        assert f.den > 0 and gcd(f.den, *f.num) == 1
        assert not f.num or f.num[-1] != 0
        assert f.den == lcm(*(v.denominator for v in trim(a)))
        # the same value reached by other routes has the same form
        for same in (
            Polynomial(a + [Fraction(0)] * 2),
            (f + Polynomial(b)) - Polynomial(b),
            f.scale(c).scale(1 / c),
            mul(f, Polynomial([1])),
            Polynomial.from_json(f.to_json()),
        ):
            assert (same.num, same.den) == (f.num, f.den)
            assert same == f and hash(same) == hash(f)
        assert (f - f).num == () and (f - f).den == 1

    @settings(max_examples=80)
    @given(coeff_lists, points)
    def test_div_by_linear_recovers_factor(self, a, r):
        f = Polynomial(a)
        assert div_by_linear(mul(Polynomial([-r, 1]), f), r) == f

    @settings(max_examples=80)
    @given(coeff_lists.filter(lambda a: any(a)), points)
    def test_non_root_raises_reference_message(self, a, r):
        assume(ref_eval(a, r) != 0)
        with pytest.raises(NotDivisible) as caught:
            div_by_linear(Polynomial(a), r)
        with pytest.raises(NotDivisible) as expected:
            ref_div_by_linear(a, r)
        assert str(caught.value) == str(expected.value)

    @settings(max_examples=80)
    @given(st.lists(st.tuples(entries, coeff_lists), max_size=6))
    def test_combination_is_the_scale_and_add_fold(self, terms):
        fold = Polynomial()
        for c, a in terms:
            fold = fold + Polynomial(a).scale(c)
        combined = combination((c, Polynomial(a)) for c, a in terms)
        assert (combined.num, combined.den) == (fold.num, fold.den)
        # integer and string coefficients are rationals too
        assert combination(
            (rat_str(c), Polynomial(a)) for c, a in terms
        ) == fold
