import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from skewflow.algebra import Polynomial, rat_str
from skewflow.errors import DegreeBudgetExceeded
from skewflow.moments import (
    DiscreteMeasure,
    SkewMoments,
    from_discrete_orthogonal,
    from_discrete_symplectic,
    from_random,
)
from skewflow.pfaffian import numeric_pfaffian
from skewflow.sops import build_family, skew_product
from skewflow.transforms import christoffel, geronimus_coeffs
from oracles import ORTH_MEASURE, SYM_MEASURE, mul
from strategies import entries, fractions, polynomials, tables

# Shift parameters: negative values and large denominators included.
params = st.one_of(
    st.integers(-7, 7).map(Fraction),
    fractions(-5, 5, 10**9),
)


@st.composite
def common_factor_tables(draw):
    """Tables whose entry denominators share a factor c: s_ij = p/(c*q)."""
    m = draw(st.integers(1, 7))
    c = draw(st.integers(2, 12))
    entry = st.builds(lambda p, q: Fraction(p, c * q), st.integers(-30, 30), st.integers(1, 6))
    return SkewMoments(m, [[draw(entry) for _ in range(i + 1, m + 1)] for i in range(m + 1)])


def pair_sum_table(measure, max_index):
    """Reference orthogonal-ensemble table: the ordered O(K^2 m^2) double
    sum over node pairs k > l."""
    xs, ws = measure.nodes, measure.weights
    rows = [
        [
            sum(
                (
                    (xs[k] ** i * xs[l] ** j - xs[l] ** i * xs[k] ** j) * ws[k] * ws[l]
                    for k in range(len(xs))
                    for l in range(k)
                ),
                Fraction(0),
            )
            for j in range(i + 1, max_index + 1)
        ]
        for i in range(max_index + 1)
    ]
    return SkewMoments(max_index, rows)


# -- definitional Fraction generators ----------------------------------
# The per-entry Fraction loops that the integer generators replaced, kept
# as oracles: each reads like its formula and builds its table from
# Fraction entries through the constructor.


def fraction_random(seed, max_index, bound=10):
    for attempt in range(1000):
        rng = random.Random(seed * 1000003 + attempt)
        entries = [
            [
                Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                for _ in range(i + 1, max_index + 1)
            ]
            for i in range(max_index + 1)
        ]
        table = SkewMoments(
            max_index,
            entries,
            {"kind": "random", "seed": seed, "bound": bound, "attempt": attempt},
        )
        if max_index < 3 or numeric_pfaffian(table, range(4)) != 0:
            return table
    raise AssertionError("no generic draw")


def measure_provenance(kind, measure):
    return {
        "kind": kind,
        "nodes": [rat_str(x) for x in measure.nodes],
        "weights": [rat_str(w) for w in measure.weights],
    }


def fraction_orthogonal(measure, max_index):
    """Prefix sums over the nodes in Fractions: a_k^i = w_k x_k^i."""
    size = max_index + 1
    entries = [[Fraction(0)] * (size - i - 1) for i in range(size)]
    prefix = [Fraction(0)] * size
    for x, w in zip(measure.nodes, measure.weights):
        a = [w * x**p for p in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                entries[i][j - i - 1] += a[i] * prefix[j] - a[j] * prefix[i]
        prefix = [p + v for p, v in zip(prefix, a)]
    return SkewMoments(max_index, entries, measure_provenance("orthogonal", measure))


def fraction_symplectic(measure, max_index):
    """s_ij = (j - i) m_{i+j-1} with Fraction power sums m_p."""
    msums = [
        sum((x**p * w for x, w in zip(measure.nodes, measure.weights)), Fraction(0))
        for p in range(2 * max_index)
    ]
    entries = [
        [(j - i) * msums[i + j - 1] for j in range(i + 1, max_index + 1)]
        for i in range(max_index + 1)
    ]
    return SkewMoments(max_index, entries, measure_provenance("symplectic", measure))


def entries_of(table):
    m = table.max_index
    return [[table.entry(i, j) for j in range(m + 1)] for i in range(m + 1)]


def from_entries(max_index, value):
    """Table with s_ij = value(i, j) above the diagonal."""
    return SkewMoments(
        max_index,
        [[value(i, j) for j in range(i + 1, max_index + 1)] for i in range(max_index + 1)],
    )


def respelled(table, k):
    """to_json of the table with every entry p/q written as "kp/kq", zero
    entries included."""
    data = table.to_json()
    m = table.max_index
    data["entries"] = [
        [i, j, f"{k * v.numerator}/{k * v.denominator}"]
        for i in range(m + 1)
        for j in range(i + 1, m + 1)
        for v in [table.entry(i, j)]
    ]
    return data


@st.composite
def measures(draw):
    """Increasing nodes, negative and fractional, with positive weights."""
    nodes = draw(
        st.lists(
            fractions(-6, 6, 7),
            min_size=1, max_size=6, unique=True,
        )
    )
    weights = draw(
        st.lists(
            fractions(Fraction(1, 9), 5, 9),
            min_size=len(nodes), max_size=len(nodes),
        )
    )
    return DiscreteMeasure(sorted(nodes), weights)


class TestRandom:
    def test_deterministic(self):
        a = from_random(42, 9, 10)
        b = from_random(42, 9, 10)
        assert a == b

    def test_antisymmetry(self):
        table = from_random(42, 9)
        for i in range(10):
            for j in range(10):
                assert table.entry(i, j) == -table.entry(j, i)

    def test_generic_position(self):
        table = from_random(42, 9)
        assert numeric_pfaffian(table, range(4)) != 0
        assert "attempt" in table.provenance


class TestIntegerFormLimit:
    def test_limit_is_bits_of_d_times_size_squared(self, monkeypatch):
        # D = lcm(3, 4, 2) = 12 has 4 bits; max_index 3 gives 4^2 entries
        entries = [[Fraction(1, 3), Fraction(1, 4), 0], [0, 0], [Fraction(1, 2)], []]
        monkeypatch.setattr("skewflow.moments.MAX_FORM_BITS", 4 * 16)
        table = SkewMoments(3, entries)
        assert SkewMoments.from_json(table.to_json()) == table
        monkeypatch.setattr("skewflow.moments.MAX_FORM_BITS", 4 * 16 - 1)
        with pytest.raises(ValueError, match="integer form too large"):
            SkewMoments(3, entries)
        with pytest.raises(ValueError, match="integer form too large"):
            SkewMoments.from_json(table.to_json())

    # the acceptance measures at max_index 14 give D = 1 and entries of up
    # to 72 bits: the estimate must bound the entries, not only D
    @settings(max_examples=60)
    @given(
        measures(),
        st.integers(0, 9),
        st.sampled_from([from_discrete_orthogonal, from_discrete_symplectic]),
    )
    @example(ORTH_MEASURE, 14, from_discrete_orthogonal)
    @example(SYM_MEASURE, 14, from_discrete_symplectic)
    def test_generator_estimate_bounds_its_form(self, measure, max_index, generate):
        # refused under any limit below the bits * (max_index + 1)^2 of
        # the table it makes, so its estimate is at least those bits
        size = max_index + 1
        rows, den = generate(measure, max_index).integer_rows(size)
        bits = max(den.bit_length(), *(x.bit_length() for row in rows for x in row))
        with mock.patch("skewflow.moments.MAX_FORM_BITS", bits * size * size - 1):
            with pytest.raises(ValueError, match="integer form too large"):
                generate(measure, max_index)


class TestOrthogonalEnsemble:
    def test_single_node_degenerates(self):
        table = from_discrete_orthogonal(DiscreteMeasure([2], [1]), 4)
        for i in range(5):
            for j in range(5):
                assert table.entry(i, j) == 0

    def test_double_sum_oracle(self):
        measure = DiscreteMeasure([0, 1], [1, 1])
        table = from_discrete_orthogonal(measure, 3)

        def sgn(x):
            return (x > 0) - (x < 0)

        for i in range(4):
            for j in range(4):
                brute = sum(
                    sgn(xk - xl) * xk**i * xl**j * wk * wl
                    for xk, wk in zip(measure.nodes, measure.weights)
                    for xl, wl in zip(measure.nodes, measure.weights)
                )
                assert table.entry(i, j) == brute

    @pytest.mark.parametrize(
        "measure, max_index",
        [
            # the acceptance battery's measure
            (ORTH_MEASURE, 9),
            # the size of a scripted CLI session: 8 nodes, max-index 10
            (DiscreteMeasure([-9, -7, -4, -1, 2, 3, 6, 8], [1, 3, 2, 1, 2, 3, 1, 2]), 10),
        ],
        ids=["acceptance", "cli-session"],
    )
    def test_prefix_sum_matches_pair_sum(self, measure, max_index):
        assert from_discrete_orthogonal(measure, max_index) == pair_sum_table(
            measure, max_index
        )

    @settings(max_examples=40)
    @given(measures(), st.integers(1, 6))
    def test_prefix_sum_matches_pair_sum_property(self, measure, max_index):
        assert from_discrete_orthogonal(measure, max_index) == pair_sum_table(
            measure, max_index
        )

    def test_antisymmetry(self):
        table = from_discrete_orthogonal(
            DiscreteMeasure([-1, Fraction(1, 2), 3], [1, 2, 1]), 5
        )
        for i in range(6):
            for j in range(6):
                assert table.entry(i, j) == -table.entry(j, i)


class TestSymplecticEnsemble:
    def test_reference_values(self):
        table = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 3)
        assert table.entry(0, 1) == 2
        assert table.entry(0, 2) == 6
        assert table.entry(1, 2) == 5
        assert table.entry(0, 3) == 15
        assert table.entry(1, 3) == 18
        assert table.entry(2, 3) == 17

    def test_power_sum_oracle(self):
        measure = DiscreteMeasure([1, 2], [1, 1])
        table = from_discrete_symplectic(measure, 3)
        msums = [sum(x**p * w for x, w in zip(measure.nodes, measure.weights))
                 for p in range(7)]
        assert msums[:5] == [2, 3, 5, 9, 17]
        for i in range(4):
            for j in range(4):
                expected = (j - i) * msums[i + j - 1] if i + j >= 1 else 0
                assert table.entry(i, j) == expected

    def test_diagonal_zero(self):
        table = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 4)
        assert all(table.entry(i, i) == 0 for i in range(5))


class TestShift:
    def test_commutes(self):
        table = from_random(7, 8)
        c1, c2 = Fraction(2), Fraction(-1, 3)
        assert table.shift(c1).shift(c2) == table.shift(c2).shift(c1)

    def test_zero_shift_is_index_shift(self):
        table = from_random(7, 8)
        shifted = table.shift(0)
        for i in range(8):
            for j in range(8):
                assert shifted.entry(i, j) == table.entry(i + 1, j + 1)

    def test_matches_bilinear_oracle(self):
        table = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 6)
        shifted = table.shift(3)
        factor = Polynomial([Fraction(-3), Fraction(1)])
        for i in range(3):
            for j in range(3):
                oracle = skew_product(
                    table,
                    mul(factor, Polynomial([0] * i + [1])),
                    mul(factor, Polynomial([0] * j + [1])),
                )
                assert shifted.entry(i, j) == oracle

    def test_budget_decreases(self):
        table = from_random(7, 3)
        assert table.shift(1).max_index == 2
        with pytest.raises(DegreeBudgetExceeded):
            table.shift(1).shift(1).shift(1).entry(0, 1)

    def test_provenance_records_shifts(self):
        table = from_random(7, 5).shift(Fraction(1, 2)).shift(3)
        assert table.provenance["shifts"] == ["1/2", "3/1"]


class TestShiftProperties:
    @settings(max_examples=60)
    @given(st.data())
    def test_pairing_on_shift_is_modified_pairing(self, data):
        table = data.draw(tables(1, 7))
        c = data.draw(params)
        f = data.draw(polynomials(table.max_index - 1))
        g = data.draw(polynomials(table.max_index - 1))
        factor = Polynomial([-c, Fraction(1)])
        assert skew_product(table.shift(c), f, g) == skew_product(
            table, mul(factor, f), mul(factor, g)
        )

    @settings(max_examples=40)
    @given(tables(2, 7), params, params)
    def test_shifts_commute(self, table, mu, lam):
        assert table.shift(mu).shift(lam) == table.shift(lam).shift(mu)

    @settings(max_examples=40)
    @given(st.data())
    def test_integer_form_is_canonical(self, data):
        # A shifted or scaled table and the same entries read back through
        # the constructor must give the same S*g, denominator included.
        table = data.draw(tables(1, 7))
        c = data.draw(params.filter(lambda c: c != 0))
        for derived in (table.shift(c), table.scale(c)):
            again = SkewMoments.from_json(derived.to_json())
            assert again == derived
            g = data.draw(polynomials(derived.max_index))
            rows = derived.max_index + 1
            assert again.apply_form(g.num, g.den, rows) == derived.apply_form(g.num, g.den, rows)

    @settings(max_examples=40)
    @given(tables(1, 7), params.filter(lambda c: c != 0))
    def test_scale_is_entrywise(self, table, c):
        scaled = table.scale(c)
        for i in range(table.max_index + 1):
            for j in range(table.max_index + 1):
                assert scaled.entry(i, j) == c * table.entry(i, j)


class TestSerialization:
    def test_round_trip(self):
        table = from_random(11, 7, 4)
        again = SkewMoments.from_json(table.to_json())
        assert again == table
        assert again.provenance == table.provenance

    def test_scale(self):
        table = from_random(11, 7, 4)
        scaled = table.scale(Fraction(3, 7))
        for i in range(8):
            for j in range(8):
                assert scaled.entry(i, j) == Fraction(3, 7) * table.entry(i, j)
        with pytest.raises(ValueError):
            table.scale(0)

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([2, 1], [1, 1])
        with pytest.raises(ValueError):
            DiscreteMeasure([1, 2], [1, 0])
        with pytest.raises(ValueError):
            DiscreteMeasure([1, 2], [1])


class TestShiftMemo:
    def test_repeated_shift_is_shared(self):
        table = from_random(7, 5)
        once = table.shift(Fraction(1, 2))
        assert table.shift(Fraction(1, 2)) is once
        assert table.shift("1/2") is once
        other = table.shift(3)
        assert other != once
        again = table.shift(Fraction(1, 2))
        assert again == once and again.provenance == once.provenance

    def test_chain_step_pays_one_shift(self, monkeypatch):
        table = from_random(42, 9)
        family = build_family(table, 3)
        real = SkewMoments._from_integers
        made = []

        def counted(num, den, provenance):
            made.append(provenance["shifts"])
            return real(num, den, provenance)

        monkeypatch.setattr(SkewMoments, "_from_integers", staticmethod(counted))
        nxt, shifted, _ = christoffel(family, table, 3)
        geronimus_coeffs(nxt, family, table, 3)
        assert made == [["3/1"]]


class TestGeneratorOracles:
    @settings(max_examples=40)
    @given(measures(), st.integers(1, 8))
    def test_orthogonal(self, measure, max_index):
        table = from_discrete_orthogonal(measure, max_index)
        oracle = fraction_orthogonal(measure, max_index)
        assert table == oracle and table.provenance == oracle.provenance

    @settings(max_examples=40)
    @given(measures(), st.integers(0, 8))
    def test_symplectic(self, measure, max_index):
        table = from_discrete_symplectic(measure, max_index)
        oracle = fraction_symplectic(measure, max_index)
        assert table == oracle and table.provenance == oracle.provenance

    @settings(max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 11), st.integers(1, 12))
    def test_random(self, seed, max_index, bound):
        table = from_random(seed, max_index, bound)
        oracle = fraction_random(seed, max_index, bound)
        assert table == oracle and table.provenance == oracle.provenance

    def test_retried_draw(self):
        # with bound 1, seed 6 draws a vanishing leading 4x4 Pfaffian twice
        table = from_random(6, 5, 1)
        assert table.provenance["attempt"] == 2
        assert table == fraction_random(6, 5, 1)


class TestCanonicalForm:
    """Equality and hashing read the integer form; it must be canonical."""

    @settings(max_examples=60)
    @given(tables(1, 7))
    def test_least_denominator(self, table):
        size = table.max_index + 1
        rows, den = table.integer_rows(size)
        values = [v for row in entries_of(table) for v in row]
        assert den == lcm(*(v.denominator for v in values))
        assert gcd(den, *(x for row in rows for x in row)) == 1
        assert all(type(x) is int for row in rows for x in row)

    @settings(max_examples=60)
    @given(st.data())
    def test_equal_and_hash_equal_exactly_when_entries_equal(self, data):
        a = data.draw(tables(1, 7))
        m = a.max_index
        i = data.draw(st.integers(0, m - 1))
        j = data.draw(st.integers(i + 1, m))
        v = data.draw(entries)
        b = from_entries(m, lambda x, y: v if (x, y) == (i, j) else a.entry(x, y))
        same = v == a.entry(i, j)
        assert (a == b) == same == (entries_of(a) == entries_of(b))
        if same:
            assert hash(a) == hash(b)

    @settings(max_examples=60)
    @given(tables(1, 7), st.integers(1, 12))
    def test_from_json_of_any_spelling(self, table, k):
        again = SkewMoments.from_json(respelled(table, k))
        assert again == table and hash(again) == hash(table)

    @settings(max_examples=60)
    @given(tables(1, 7))
    def test_json_round_trip(self, table):
        again = SkewMoments.from_json(table.to_json())
        assert again == table and hash(again) == hash(table)
        assert again.provenance == table.provenance

    @settings(max_examples=60)
    @given(tables(1, 7) | common_factor_tables())
    def test_from_json_keeps_the_integer_form(self, table):
        # the loader forms N and D with no gcd pass: reduced entries give
        # the canonical form as they stand
        again = SkewMoments.from_json(table.to_json())
        assert (again._den, again._num) == (table._den, table._num)
        assert gcd(again._den, *(x for row in again._num for x in row)) == 1

    @settings(max_examples=60)
    @given(tables(1, 7), params)
    def test_shift_equals_its_entries(self, table, c):
        def shifted(i, j):
            s = table.entry
            return s(i + 1, j + 1) - c * (s(i + 1, j) + s(i, j + 1)) + c * c * s(i, j)

        derived = table.shift(c)
        expected = from_entries(table.max_index - 1, shifted)
        assert derived == expected and hash(derived) == hash(expected)

    @settings(max_examples=60)
    @given(tables(1, 7), params.filter(lambda c: c != 0))
    def test_scale_equals_its_entries(self, table, c):
        derived = table.scale(c)
        expected = from_entries(table.max_index, lambda i, j: c * table.entry(i, j))
        assert derived == expected and hash(derived) == hash(expected)
        back = derived.scale(1 / c)
        assert back == table and hash(back) == hash(table)
