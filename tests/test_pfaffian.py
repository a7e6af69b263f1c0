import hashlib
import itertools
import json
import random
from fractions import Fraction

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
from skewflow.pfaffian import (
    LAMBDA,
    MU,
    ZVAR,
    SkewMatrix,
    augmented_pfaffian,
    numeric_pfaffian,
    pfaffian,
    pfaffian_expand,
    prefix_pfaffians,
    prefix_tails,
)
from skewflow import lattice
from oracles import ORTH_MEASURE, SYM_MEASURE, as_value, determinant
from strategies import fractions, tables


def skew_from_upper(dim, values):
    it = iter(values)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = next(it)
            rows[i][j] = v
            rows[j][i] = -v
    return SkewMatrix.from_rows(rows)


def skew_matrices(dim):
    count = dim * (dim - 1) // 2
    return st.lists(fractions(-10, 10, 6), min_size=count, max_size=count).map(
        lambda vals: skew_from_upper(dim, vals)
    )


@st.composite
def sparse_skew_matrices(draw, max_dim=10):
    """Skew matrices of even dimension 0..max_dim with forced zero entries
    and whole zero rows, so that pivot swaps and early exits are exercised."""
    dim = draw(st.sampled_from(range(0, max_dim + 1, 2)))
    zero_rows = draw(st.sets(st.integers(0, dim - 1), max_size=1)) if dim else set()
    entry = st.one_of(st.just(Fraction(0)), fractions(-10, 10, 6))
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = Fraction(0) if {i, j} & zero_rows else draw(entry)
            rows[i][j], rows[j][i] = v, -v
    return SkewMatrix.from_rows(rows)


class TestBaseCases:
    def test_dimension_zero_is_one(self):
        empty = SkewMatrix.from_rows([])
        assert pfaffian(empty) == 1
        assert pfaffian_expand(empty) == 1

    def test_two_by_two(self):
        m = skew_from_upper(2, [Fraction(7, 3)])
        assert pfaffian(m) == Fraction(7, 3)
        assert pfaffian_expand(m) == Fraction(7, 3)

    def test_four_by_four_matching_formula(self):
        vals = [Fraction(x) for x in (2, 3, 5, 7, 11, 13)]
        s01, s02, s03, s12, s13, s23 = vals
        m = skew_from_upper(4, vals)
        expected = s01 * s23 - s02 * s13 + s03 * s12
        assert pfaffian(m) == expected
        assert pfaffian_expand(m) == expected

    def test_singular_matrix(self):
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        assert pfaffian(SkewMatrix.from_rows(rows)) == 0


class TestCrossChecks:
    @settings(max_examples=80)
    @given(sparse_skew_matrices())
    def test_two_algorithms_agree(self, m):
        assert pfaffian(m) == pfaffian_expand(m)

    @settings(max_examples=25)
    @given(
        st.sampled_from(range(0, 8, 2)).flatmap(
            lambda d: st.tuples(
                skew_matrices(d),
                st.lists(
                    st.lists(fractions(-10, 10, 6), min_size=d, max_size=d),
                    min_size=d, max_size=d,
                ),
            )
        )
    )
    def test_congruence_scales_by_determinant(self, case):
        # Pf(B A B^T) = det(B) Pf(A)
        a, b = case

        def times(x, y):
            return [
                [sum((x[i][k] * y[k][j] for k in range(len(y))), Fraction(0)) for j in range(len(y))]
                for i in range(len(x))
            ]

        b_t = [list(col) for col in zip(*b)]
        congruent = SkewMatrix.from_rows(times(times(b, a.to_rows()), b_t))
        assert pfaffian(congruent) == determinant(b) * pfaffian(a)

    @settings(max_examples=20)
    @given(skew_matrices(8))
    def test_square_is_determinant(self, m):
        assert pfaffian(m) ** 2 == determinant(m.to_rows())


def _table(seed=5, size=9):
    from skewflow.moments import from_random

    return from_random(seed, size, 6)


class TestIndexedPfaffians:
    @settings(max_examples=25)
    @given(st.permutations(list(range(6))))
    def test_antisymmetry_under_index_permutation(self, perm):
        table = _table()
        base = numeric_pfaffian(table, range(6))
        sign = _permutation_sign(perm)
        assert numeric_pfaffian(table, perm) == sign * base

    def test_repeated_index_vanishes(self):
        table = _table()
        assert numeric_pfaffian(table, [0, 1, 2, 2]) == 0

    @settings(max_examples=25)
    @given(fractions(-10, 10, 6).filter(lambda c: c != 0), st.integers(0, 5))
    def test_row_scaling(self, c, k):
        # scaling row and column k of the underlying matrix scales Pf by c
        table = _table()
        idx = list(range(6))
        m = table.max_index
        scaled = SkewMoments(
            m,
            [
                [table.entry(i, j) * (c if k in (i, j) else 1) for j in range(i + 1, m + 1)]
                for i in range(m + 1)
            ],
        )
        assert numeric_pfaffian(scaled, idx) == c * numeric_pfaffian(table, idx)

    def test_budget_enforced(self):
        with pytest.raises(DegreeBudgetExceeded):
            numeric_pfaffian(_table(size=5), [0, 1, 2, 6])
        with pytest.raises(DegreeBudgetExceeded):
            numeric_pfaffian(_table(size=5), [-1, 0])

    @pytest.mark.parametrize(
        "items", [[0, -1], [-1, ZVAR], [MU, -2], [0, 1, 2, 6], [6, ZVAR], [LAMBDA, 6]]
    )
    def test_augmented_budget_enforced(self, items):
        # a negative index or one past max_index is outside the table
        with pytest.raises(DegreeBudgetExceeded):
            augmented_pfaffian(_table(size=5), items, Fraction(1, 2), Fraction(3))


def _permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


SYMPLECTIC = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 6)


class TestAugmented:
    def test_single_monomial_row(self):
        assert augmented_pfaffian(SYMPLECTIC, [0, ZVAR]) == Polynomial.one()

    def test_special_special_is_zero(self):
        assert augmented_pfaffian(
            SYMPLECTIC, [MU, LAMBDA], Fraction(1, 2), Fraction(3)
        ) == Polynomial.zero()

    def test_symplectic_four_index(self):
        # matching expansion: s_01 z^2 - s_02 z + s_12 = 2z^2 - 6z + 5
        result = augmented_pfaffian(SYMPLECTIC, [0, 1, 2, ZVAR])
        assert result == Polynomial([Fraction(5), Fraction(-6), Fraction(2)])

    def test_constant_rows_evaluate_parameters(self):
        mu, lam = Fraction(1, 2), Fraction(3)
        with_mu = augmented_pfaffian(SYMPLECTIC, [0, 1, 2, MU], mu, lam)
        # same expansion with mu substituted for z
        assert with_mu.degree <= 0
        assert with_mu.coefficient(0) == 2 * mu**2 - 6 * mu + 5

    def test_duplicate_special_rejected(self):
        with pytest.raises(ValueError):
            augmented_pfaffian(SYMPLECTIC, [0, ZVAR, 1, ZVAR])

    def test_agrees_with_numeric_when_no_specials(self):
        assert augmented_pfaffian(SYMPLECTIC, [0, 1, 2, 3]) == Polynomial.constant(
            numeric_pfaffian(SYMPLECTIC, [0, 1, 2, 3])
        )


@st.composite
def moment_tables(draw, max_index, zero_row=None):
    """Tables with mixed denominators; every entry of row ``zero_row`` is 0."""
    rows = [
        [
            Fraction(0) if zero_row in (i, j) else draw(fractions(-10, 10, 6))
            for j in range(i + 1, max_index + 1)
        ]
        for i in range(max_index + 1)
    ]
    return SkewMoments(max_index, rows)


@st.composite
def augmented_cases(draw):
    """A table, an index list mixing moment indices 0..7 (repeated or
    distinct) with any subset of mu, lambda, z in any positions, and values
    for mu and lambda.

    Half the tables have a zero row at one of the indices.  That row, a
    repeated index or a mu or lambda row that vanishes off index 0 brings
    the elimination to a row with no numeric pivot, which with z present
    may still pair with z."""
    specials = draw(st.sets(st.sampled_from([MU, LAMBDA, ZVAR])))
    count = draw(st.sampled_from([n for n in range(1, 10) if (n + len(specials)) % 2 == 0]))
    unique = count <= 8 and draw(st.booleans())
    ints = draw(st.lists(st.integers(0, 7), min_size=count, max_size=count, unique=unique))
    items = draw(st.permutations(ints + sorted(specials, key=lambda x: x.value)))
    table = draw(moment_tables(7, draw(st.none() | st.sampled_from(ints))))
    value = st.just(Fraction(0)) | fractions(-10, 10, 6)
    return table, items, draw(value), draw(value)


def bordered_expand(table, items, values):
    """pfaffian_expand of the numeric matrix with every special row filled in."""

    def element(x, y):
        if not isinstance(x, int):
            return 0 if not isinstance(y, int) else -(values[x] ** y)
        if not isinstance(y, int):
            return values[y] ** x
        return table.entry(x, y)

    return pfaffian_expand(
        SkewMatrix(len(items), lambda u, v: element(items[u], items[v]))
    )


def _zero_row_table(row, seed=11):
    """A dense random table with every entry of one row set to 0."""
    table = _table(seed=seed, size=7)
    return SkewMoments(
        7, [[0 if row in (i, j) else table.entry(i, j) for j in range(i + 1, 8)] for i in range(8)]
    )


class TestAugmentedOracle:
    @settings(max_examples=120)
    @given(augmented_cases())
    # rows with no numeric pivot that pair with z: first, and after one step
    @example((_zero_row_table(2), [2, 0, 1, ZVAR], Fraction(0), Fraction(0)))
    @example((_zero_row_table(4), [0, 1, 4, 3, 5, ZVAR], Fraction(0), Fraction(0)))
    # a vanishing leading Pfaffian: tau_1, and tau_2 after one step
    @example((_zero_row_table(0), [0, 1, 2, MU], Fraction(1, 2), Fraction(3)))
    @example((_zero_row_table(2), [0, 1, 2, 3, 4, MU], Fraction(1, 2), Fraction(3)))
    def test_matches_bordered_expansion(self, case):
        # both sides are polynomials in z of degree <= the largest moment
        # index, so agreeing at that many points plus one proves equality
        table, items, mu, lam = case
        result = augmented_pfaffian(table, items, mu, lam)
        top = max(i for i in items if isinstance(i, int))
        assert result.degree <= (top if ZVAR in items else 0)
        for x in range(-1, top + 1):
            values = {MU: mu, LAMBDA: lam, ZVAR: Fraction(x)}
            assert result.eval(x) == bordered_expand(table, items, values)


class TestPrefixPass:
    @settings(max_examples=60)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.none() | st.integers(0, 13)).flatmap(
            lambda c: st.tuples(st.just(c[0]), moment_tables(2 * c[0] + 3 + c[1], c[2]))
        )
    )
    def test_matches_single_pfaffians(self, case):
        # tables may be larger than the 2*pairs+4 indices the pass reads
        pairs, table = case
        values = [tuple(map(as_value, forms)) for forms in prefix_pfaffians(table, pairs)]
        for n, (tau, core, hat, core_hat) in enumerate(values):
            assert tau == numeric_pfaffian(table, range(2 * n))
            assert core == (numeric_pfaffian(table, [*range(2 * n - 1), 2 * n]) if n else 0)
            assert hat == augmented_pfaffian(table, [*range(2 * n + 1), ZVAR])
            assert core_hat == augmented_pfaffian(table, [*range(2 * n), 2 * n + 1, ZVAR])
        # the pass ends after the first vanishing tau, else after n = pairs+1
        taus = [v[0] for v in values]
        assert len(values) == (taus.index(0) + 1 if 0 in taus else pairs + 2)


# The tail shapes prefix_tails reads: ascending offsets from 2n, then mu
# and/or lambda, then z, of length 2, 4 or 6.
TAIL_SHAPES = [
    (*offsets, *border, *z)
    for border in ((), (MU,), (LAMBDA,), (MU, LAMBDA))
    for z in ((), (ZVAR,))
    for k in range(4)
    for offsets in itertools.combinations(range(4), k)
    if len(offsets) + len(border) + len(z) in (2, 4, 6)
]


@st.composite
def prefix_tail_cases(draw):
    """pairs 0..3, a table reaching index 2*pairs+3 or a little beyond,
    two distinct border points (zero, negative and non-integer ones
    included), the crosscheck's twelve tails and up to four more shapes."""
    pairs = draw(st.integers(0, 3))
    table = draw(tables(2 * pairs + 3, 2 * pairs + 5))
    point = st.one_of(st.just(Fraction(0)), fractions(-10, 10, 6))
    mu, lam = draw(st.lists(point, min_size=2, max_size=2, unique=True))
    extra = draw(st.lists(st.sampled_from(TAIL_SHAPES), max_size=4))
    return table, pairs, mu, lam, [*lattice._TAILS, *extra]


class TestBorderedPrefixPass:
    @settings(max_examples=60)
    @given(prefix_tail_cases())
    @example((from_random(3, 9), 3, Fraction(0), Fraction(-5, 2), list(lattice._TAILS)))
    @example((_zero_row_table(2), 2, Fraction(-1, 3), Fraction(0), TAIL_SHAPES))
    def test_reads_match_augmented_pfaffians(self, case):
        # each read is checked against one pivoted elimination of the whole
        # index list, which shares no algebra with the prefix pass
        table, pairs, mu, lam, tails = case
        values = prefix_tails(table, pairs, mu, lam, tails)
        for n, row in enumerate(values):
            for (num, den), tail in zip(row, tails):
                at_n = [2 * n + x if type(x) is int else x for x in tail]
                expected = augmented_pfaffian(table, [*range(2 * n), *at_n], mu, lam)
                if den < 0:
                    num, den = [-c for c in num], -den
                read = Polynomial._reduced(list(num), den)
                assert (read.num, read.den) == (expected.num, expected.den)
        # the reads stop at the first vanishing tau_n, n <= pairs
        if len(values) <= pairs:
            assert numeric_pfaffian(table, range(2 * len(values))) == 0


def golden_tables():
    """Four tables with max_index 9: two random, the acceptance symplectic
    measure, and an orthogonal one with every entry of row 3 set to 0."""
    orthogonal = from_discrete_orthogonal(ORTH_MEASURE, 9)
    return [
        from_random(5, 9, 6),
        from_random(8, 9),
        from_discrete_symplectic(SYM_MEASURE, 9),
        SkewMoments(
            9,
            [
                [0 if 3 in (i, j) else orthogonal.entry(i, j) for j in range(i + 1, 10)]
                for i in range(10)
            ],
        ),
    ]


def golden_index_lists():
    """60 index lists of length 0..10 over 0..9, with repeated indices and
    any subset of mu, lambda and z in any position."""
    rng = random.Random(15)
    lists = []
    for _ in range(60):
        specials = [x for x in (MU, LAMBDA, ZVAR) if rng.random() < 0.5]
        count = rng.choice([k for k in range(9) if (k + len(specials)) % 2 == 0])
        items = [rng.randrange(10) for _ in range(count)] + specials
        rng.shuffle(items)
        lists.append(items)
    return lists


def pfaffian_digest():
    """sha256 of augmented_pfaffian on every golden table, index list and
    (mu, lambda), and of numeric_pfaffian on the moment indices of each list
    (the first index dropped when their count is odd)."""
    params = ((Fraction(1, 2), Fraction(3)), (Fraction(0), Fraction(-2, 3)), (Fraction(5, 4),) * 2)
    payload = []
    for table in golden_tables():
        for items in golden_index_lists():
            ints = [i for i in items if isinstance(i, int)]
            payload.append(rat_str(numeric_pfaffian(table, ints[len(ints) % 2 :])))
            payload += [augmented_pfaffian(table, items, mu, lam).to_json() for mu, lam in params]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


class TestGoldenOutput:
    def test_pfaffian_values_are_unchanged(self):
        assert pfaffian_digest() == (
            "407c6b36e5dcf5a04444338df058f40eb12bb836b6a4d842d7ea3973e707b365"
        )
