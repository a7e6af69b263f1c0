from fractions import Fraction

import pytest
from hypothesis import find, given, settings, strategies as st

from strategies import fractions

# the bounds the property tests draw with, a Fraction lower bound included
BOUNDS = [
    (-50, 50, 60),
    (-10, 10, 6),
    (-4, 4, 5),
    (Fraction(1, 9), 5, 9),
    (Fraction(1, 60), 50, 60),
    (-5, 5, 10**9),
]


class TestFractions:
    @settings(max_examples=100)
    @given(st.data())
    def test_draws_lie_in_range(self, data):
        lo, hi, q = data.draw(st.sampled_from(BOUNDS))
        x = data.draw(fractions(lo, hi, q))
        assert isinstance(x, Fraction)
        assert lo <= x <= hi and x.denominator <= q

    @pytest.mark.parametrize("lo, hi, q", [(-10, 10, 6), (Fraction(1, 9), 5, 9)])
    def test_reaches_bounds_zero_and_largest_denominator(self, lo, hi, q):
        def least(condition):
            return find(
                fractions(lo, hi, q),
                condition,
                settings=settings(max_examples=2000, database=None, derandomize=True),
            )

        assert least(lambda x: x == lo) == lo
        assert least(lambda x: x == hi) == hi
        if lo <= 0:
            assert least(lambda x: x == 0) == 0
        # the simplest value of denominator q is 1/q
        assert least(lambda x: x.denominator == q) == Fraction(1, q)
