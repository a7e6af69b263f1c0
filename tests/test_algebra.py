from fractions import Fraction

import pytest

from skewflow.algebra import Polynomial, clear_denominators, rat, rat_str, sample_points
from skewflow.errors import NotDivisible


def P(*coeffs):
    return Polynomial([Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs])


class TestEval:
    def test_quadratic_at_three(self):
        p = Polynomial([Fraction(5, 2), Fraction(-3), Fraction(1)])
        assert p.eval(Fraction(3)) == Fraction(5, 2)

    def test_zero_polynomial(self):
        assert Polynomial.zero().eval(Fraction(17, 5)) == 0

    def test_constant(self):
        assert Polynomial.one().eval(Fraction(7, 3)) == 1


class TestMul:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_by_zero(self):
        assert P(2, 5, 1) * Polynomial.zero() == Polynomial.zero()

    def test_cubic_factorization(self):
        # (z - 3)(z^2 + 3z + 9) = z^3 - 27, cross-checked by convolution
        left, right = P(-3, 1), P(9, 3, 1)
        expected = [Fraction(0)] * 4
        for i, a in enumerate(left.coeffs):
            for j, b in enumerate(right.coeffs):
                expected[i + j] += a * b
        assert left * right == P(-27, 0, 0, 1)
        assert list((left * right).coeffs) == expected

    def test_commutative(self):
        a, b = P(1, -2, 3), P(Fraction(1, 2), 0, 0, 5)
        assert a * b == b * a


class TestDivByLinear:
    def test_difference_of_squares(self):
        assert P(-9, 0, 1).div_by_linear(Fraction(3)) == P(3, 1)

    def test_zero(self):
        assert Polynomial.zero().div_by_linear(Fraction(11)) == Polynomial.zero()

    def test_double_root_factor(self):
        quotient = P(0, -6, 2).div_by_linear(Fraction(3))
        assert quotient == P(0, 2)
        assert P(-3, 1) * quotient == P(0, -6, 2)

    def test_nonzero_remainder_raises(self):
        with pytest.raises(NotDivisible):
            P(1, 1).div_by_linear(Fraction(3))


class TestStructure:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(1, 2, 0, 0).degree == 1

    def test_degree_conventions(self):
        assert Polynomial.zero().degree == -1
        assert Polynomial.one().degree == 0
        assert Polynomial.monomial(5).degree == 5

    def test_coefficient_out_of_range(self):
        assert P(1, 2).coefficient(9) == 0

    def test_arithmetic_identities(self):
        p = P(Fraction(2, 3), -1, 4)
        assert p - p == Polynomial.zero()
        assert p + Polynomial.zero() == p
        assert -(-p) == p
        assert p.scale(Fraction(0)) == Polynomial.zero()

    def test_json_round_trip(self):
        p = P(Fraction(-7, 3), 0, Fraction(5, 2))
        assert Polynomial.from_json(p.to_json()) == p


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


class TestClearDenominators:
    def test_least_common_denominator(self):
        values = [Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5)]
        ints, den = clear_denominators(values)
        assert den == 12
        assert ints == [2, -9, 0, 60]

    def test_empty(self):
        assert clear_denominators([]) == ([], 1)


class TestSamplePoints:
    def test_distinct_and_excluding(self):
        pts = sample_points(12, [Fraction(1, 2), Fraction(3)])
        assert len(pts) == 12 == len(set(pts))
        assert Fraction(1, 2) not in pts and Fraction(3) not in pts
        assert sample_points(3) == [Fraction(0), Fraction(1), Fraction(-1)]
