"""The property tests' data, defined once: rationals, table entries,
tables and polynomials."""

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from hypothesis import strategies as st

from skewflow.algebra import Polynomial
from skewflow.moments import SkewMoments


@lru_cache(maxsize=None)
def fractions(min_value, max_value, max_denominator):
    """p/q in [min_value, max_value] with q <= max_denominator, drawn as
    ``st.fractions`` draws them (q from ``integers(1, max_denominator)``,
    then p from the integers with p/q in range) but without its flatmap,
    which builds a new strategy for every value.  The bounds must be at
    least 1 apart, so that every q has a p.  Equal calls share one
    strategy, so call sites need no module-level alias."""
    lo, hi = Fraction(min_value), Fraction(max_value)
    denominators = st.integers(1, max_denominator)

    @st.composite
    def rational(draw):
        q = draw(denominators)
        return Fraction(draw(st.integers(ceil(lo * q), floor(hi * q))), q)

    return rational()


# Mixed denominators, with zero entries drawn often.
entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    fractions(-50, 50, 60),
)


@st.composite
def tables(draw, min_index, max_index):
    m = draw(st.integers(min_index, max_index))
    rows = [[draw(entries) for _ in range(i + 1, m + 1)] for i in range(m + 1)]
    return SkewMoments(m, rows)


def polynomials(max_degree):
    return st.lists(entries, max_size=max_degree + 1).map(Polynomial)
