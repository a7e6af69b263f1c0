import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewflow.algebra import Polynomial
from skewflow.errors import DegreeBudgetExceeded, SingularConfiguration
from skewflow.moments import (
    DiscreteMeasure,
    SkewMoments,
    from_discrete_orthogonal,
    from_discrete_symplectic,
    from_random,
)
from skewflow.pfaffian import numeric_pfaffian
from skewflow.sops import (
    COEFF_GAUGE,
    SOPFamily,
    build_family,
    oracle_family,
    skew_product,
    verify_skew_orthogonality,
)
from oracles import (
    ORTH_MEASURE,
    SYM_MEASURE,
    determinant,
    gauge_projected_fractions,
    oracle_family_solve,
    orthogonality_fractions,
    solve_fraction_free,
    sop_even,
    sop_odd,
)
from strategies import entries, fractions, polynomials, tables

SYMPLECTIC = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 12)


@st.composite
def tables_with_a_zero_row(draw, min_index, max_index):
    """A table from :func:`tables`, often with every s_kj of one index k
    zero, so that every tau_n with 2n > k vanishes."""
    table = draw(tables(min_index, max_index))
    m = table.max_index
    rows = [[table.entry(i, j) for j in range(i + 1, m + 1)] for i in range(m + 1)]
    if draw(st.booleans()):
        k = draw(st.integers(0, m))
        for i in range(k):
            rows[i][k - i - 1] = Fraction(0)
        rows[k] = [Fraction(0)] * (m - k)
    return SkewMoments(m, rows)


def definitional_product(table, f, g):
    """The Fraction double sum sum_ij f_i g_j s_ij, read through entry()."""
    total = Fraction(0)
    for i, fi in enumerate(f.coeffs):
        for j, gj in enumerate(g.coeffs):
            total += fi * gj * table.entry(i, j)
    return total


@st.composite
def arbitrary_families(draw, max_pairs=3):
    """A table and any family of the right degrees; mostly not orthogonal."""
    pairs = draw(st.integers(0, max_pairs))
    table = draw(tables(min_index=2 * pairs + 1, max_index=2 * pairs + 3))
    nonzero = st.builds(
        lambda sign, v: sign * v,
        st.sampled_from([1, -1]),
        fractions(Fraction(1, 60), 50, 60),
    )
    polys = [
        Polynomial(draw(st.lists(entries, min_size=n, max_size=n)) + [draw(nonzero)])
        for n in range(2 * pairs + 2)
    ]
    norms = [draw(nonzero) for _ in range(pairs + 1)]
    return table, SOPFamily(polys, norms)


class TestSkewProduct:
    def test_self_pairing_zero(self):
        f = Polynomial([1, -2, 3])
        assert skew_product(SYMPLECTIC, f, f) == 0

    def test_one_z(self):
        one, z = Polynomial([1]), Polynomial([0, 1])
        assert skew_product(SYMPLECTIC, one, z) == 2
        assert skew_product(SYMPLECTIC, z, one) == -2

    def test_bilinearity(self):
        table = from_random(3, 8)
        f1 = Polynomial([1, 2])
        f2 = Polynomial([0, -1, Fraction(1, 3)])
        g = Polynomial([5, 0, 0, 1])
        assert skew_product(table, f1 + f2, g) == skew_product(
            table, f1, g
        ) + skew_product(table, f2, g)


    def test_budget_checked(self):
        table = from_random(3, 4)
        with pytest.raises(DegreeBudgetExceeded):
            skew_product(table, Polynomial([0] * 5 + [1]), Polynomial([1]))
        with pytest.raises(DegreeBudgetExceeded):
            skew_product(table, Polynomial([1]), Polynomial([0] * 5 + [1]))

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_definitional_sum(self, data):
        table = data.draw(tables(0, 8))
        f = data.draw(polynomials(table.max_index))
        g = data.draw(polynomials(table.max_index))
        assert skew_product(table, f, g) == definitional_product(table, f, g)


class TestConstruction:
    def test_even_base(self):
        assert sop_even(SYMPLECTIC, 0) == Polynomial([1])

    def test_even_pair_one(self):
        expected = Polynomial([Fraction(5, 2), Fraction(-3), Fraction(1)])
        assert sop_even(SYMPLECTIC, 1) == expected

    def test_odd_base(self):
        assert sop_odd(SYMPLECTIC, 0) == Polynomial([0, 1])

    def test_odd_pair_one(self):
        # Pf(0,1,3,z)/Pf(0,1) = (s_01 z^3 - s_03 z + s_13)/s_01
        s01 = SYMPLECTIC.entry(0, 1)
        s03 = SYMPLECTIC.entry(0, 3)
        s13 = SYMPLECTIC.entry(1, 3)
        expected = Polynomial(
            [s13 / s01, -s03 / s01, Fraction(0), Fraction(1)]
        )
        assert sop_odd(SYMPLECTIC, 1) == expected

    def test_monic(self):
        table = from_random(9, 11)
        for n in range(3):
            q = sop_even(table, n)
            assert q.degree == 2 * n and q.coefficient(2 * n) == 1
            q = sop_odd(table, n)
            assert q.degree == 2 * n + 1 and q.coefficient(2 * n + 1) == 1

    def test_odd_gauge_shift_preserves_relations(self):
        table = from_random(9, 11)
        family = build_family(table, 2)
        alpha = Fraction(7, 5)
        shifted = family.odd(1) + family.even(1).scale(alpha)
        for k in range(2):
            assert skew_product(table, shifted, family.even(k)) == (
                -family.norms[1] if k == 1 else 0
            )
            if k != 1:
                assert skew_product(table, shifted, family.odd(k)) == 0


class TestNormalization:
    def test_r1_two_oracles(self):
        direct = skew_product(
            SYMPLECTIC, sop_even(SYMPLECTIC, 1), sop_odd(SYMPLECTIC, 1)
        )
        quotient = numeric_pfaffian(SYMPLECTIC, range(4)) / numeric_pfaffian(
            SYMPLECTIC, range(2)
        )
        assert direct == quotient == Fraction(1, 2)

    def test_gauge_invariant(self):
        table = from_random(9, 11)
        family = build_family(table, 1)
        shifted = family.odd(1) + family.even(1).scale(Fraction(-4, 9))
        assert skew_product(table, family.even(1), shifted) == family.norms[1]


class TestFamily:
    def test_minimal(self):
        family = build_family(SYMPLECTIC, 0)
        assert family.polys == (Polynomial([1]), Polynomial([0, 1]))
        assert family.norms == (Fraction(2),)

    @pytest.mark.parametrize("builder", [build_family, oracle_family])
    @pytest.mark.parametrize("pairs", [-1, -3])
    def test_negative_pairs_rejected(self, builder, pairs):
        with pytest.raises(ValueError, match=f"pairs must be nonnegative, got {pairs}"):
            builder(SYMPLECTIC, pairs)

    def test_constructor_verifies(self):
        family = build_family(from_random(42, 9), 3)
        report = verify_skew_orthogonality(family, from_random(42, 9))
        assert report.passed

    @settings(max_examples=25)
    @given(st.integers(0, 10**6), st.integers(0, 4))
    def test_random_family_is_skew_orthogonal(self, seed, pairs):
        table = from_random(seed, 2 * pairs + 1)
        try:
            family = build_family(table, pairs)
        except SingularConfiguration:
            assume(False)
        assert verify_skew_orthogonality(family, table).passed

    def test_matches_oracle_after_gauge_projection(self):
        table = from_random(42, 9)
        family = build_family(table, 3).gauge_projected()
        oracle = oracle_family(table, 3)
        assert family.polys == oracle.polys
        assert family.norms == oracle.norms

    def test_oracle_on_symplectic(self):
        family = build_family(SYMPLECTIC, 1)
        oracle = oracle_family(SYMPLECTIC, 1)
        assert family.even(0) == oracle.even(0)
        assert family.even(1) == oracle.even(1)

    def test_singular_table_rejected_by_both(self):
        # handcraft a table whose leading 4x4 Pfaffian vanishes:
        # s01*s23 - s02*s13 + s03*s12 = 1*1 - 1*1 + 0 = 0
        entries = [
            [1, 1, 0, 0],
            [1, 1, 0],
            [1, 1],
            [1],
        ]
        table = SkewMoments(4, entries)
        with pytest.raises(SingularConfiguration):
            build_family(table, 1)
        with pytest.raises(SingularConfiguration):
            oracle_family(table, 1)

    def test_json_round_trip(self):
        family = build_family(from_random(42, 9), 2)
        again = SOPFamily.from_json(family.to_json())
        assert again.polys == family.polys
        assert again.norms == family.norms
        assert again.gauge == family.gauge


@st.composite
def gauge_shifted_families(draw, max_pairs=3):
    """(family, monic): a build_family family on a from_random table with
    each odd member moved by c q_2n, c often 0, so that its even members
    are monic and alpha is zero for some members and not for others; or an
    arbitrary family, whose even members need not be monic."""
    if draw(st.booleans()):
        return draw(arbitrary_families(max_pairs))[1], False
    pairs = draw(st.integers(0, max_pairs))
    try:
        family = build_family(from_random(draw(st.integers(0, 10**6)), 2 * pairs + 1), pairs)
    except SingularConfiguration:
        assume(False)
    shifts = st.one_of(st.just(Fraction(0)), fractions(-5, 5, 12))
    polys = list(family.polys)
    for n in range(pairs + 1):
        polys[2 * n + 1] = polys[2 * n + 1] + polys[2 * n].scale(draw(shifts))
    return SOPFamily(polys, family.norms, family.gauge), True


class TestGaugeProjection:
    @settings(max_examples=60)
    @given(gauge_shifted_families())
    def test_matches_fraction_oracle(self, case):
        family, monic = case
        projected = family.gauge_projected()
        assert projected.polys == gauge_projected_fractions(family).polys
        assert projected.polys[::2] == family.polys[::2]
        assert projected.norms == family.norms
        assert projected.gauge == COEFF_GAUGE
        if monic:
            for n in range(family.pairs + 1):
                assert projected.odd(n).coefficient(2 * n) == 0

    def test_alpha_zero_keeps_every_member(self):
        # q_2n+1 = Pf(0..2n-1, 2n+1, z)/tau_n has no z^2n term
        family = build_family(from_random(42, 9), 3)
        assert all(family.odd(n).coefficient(2 * n) == 0 for n in range(4))
        projected = family.gauge_projected()
        assert projected.polys == family.polys
        assert projected.norms == family.norms
        assert projected.gauge == COEFF_GAUGE


def per_member_family(table, pairs):
    """The family member by member: sop_even and sop_odd, each with its own
    eliminations, and r_n from skew_product."""
    polys, norms = [], []
    for n in range(pairs + 1):
        polys += [sop_even(table, n), sop_odd(table, n)]
        norms.append(skew_product(table, polys[-2], polys[-1]))
        if norms[-1] == 0:
            raise SingularConfiguration(f"normalization r_{n} vanishes")
    return SOPFamily(polys, norms)


def outcome(build, *args):
    """build(*args).to_json(), or the type and message of what it raised."""
    try:
        return build(*args).to_json()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSinglePass:
    @settings(max_examples=120)
    @given(st.data())
    def test_build_family_is_the_per_member_construction(self, data):
        pairs = data.draw(st.integers(0, 4))
        table = data.draw(tables_with_a_zero_row(2 * pairs + 1, 2 * pairs + 2))
        assert outcome(build_family, table, pairs) == outcome(
            per_member_family, table, pairs
        )

    @settings(max_examples=80)
    @given(tables_with_a_zero_row(1, 9))
    def test_a_vanishing_tau_is_a_vanishing_norm(self, table):
        # r_n * tau_n = tau_{n+1}: a vanishing tau_{n+1} surfaces as r_n = 0
        for n in range((table.max_index - 1) // 2 + 1):
            tau = numeric_pfaffian(table, range(2 * n))
            if tau == 0:
                break
            r = skew_product(table, sop_even(table, n), sop_odd(table, n))
            assert r * tau == numeric_pfaffian(table, range(2 * n + 2))


class TestSolve:
    @settings(max_examples=80)
    @given(st.data())
    def test_solves_systems_that_need_row_swaps(self, data):
        n = data.draw(st.integers(2, 6))
        small = st.integers(-9, 9)
        rows = [data.draw(st.lists(small, min_size=n + 1, max_size=n + 1)) for _ in range(n)]
        rows[0][0] = 0  # the first pivot needs a swap
        if data.draw(st.booleans()):
            rows[1][0] = 0  # then it comes from row 2 or later
        det = determinant([row[:n] for row in rows])
        assume(det != 0)
        y, d = solve_fraction_free(rows)
        assert d == abs(det)  # the last Bareiss pivot is +-det(A)
        x = [Fraction(v, d) for v in y]
        for row in rows:
            assert sum(a * v for a, v in zip(row, x)) == row[n]

    def test_singular_system_raises(self):
        with pytest.raises(SingularConfiguration):
            solve_fraction_free([[0, 1, 2], [0, 3, 4]])


class TestGramSchmidtOracle:
    @settings(max_examples=80)
    @given(st.data())
    def test_is_the_linear_solve_construction(self, data):
        pairs = data.draw(st.integers(0, 4))
        table = data.draw(tables_with_a_zero_row(2 * pairs + 1, 2 * pairs + 2))
        assert outcome(oracle_family, table, pairs) == outcome(
            oracle_family_solve, table, pairs
        )

    # bound 2 often gives a vanishing r_n; the examples pin one of each
    # message: r_0 = 0 below the top pair, and r_2 = 0 at pairs = 2
    @settings(max_examples=80)
    @given(st.integers(0, 10**6), st.integers(0, 4), st.integers(0, 1))
    @example(8, 1, 0)
    @example(62, 2, 0)
    def test_is_the_linear_solve_construction_on_small_entries(self, seed, pairs, extra):
        table = from_random(seed, 2 * pairs + 1 + extra, bound=2)
        assert outcome(oracle_family, table, pairs) == outcome(
            oracle_family_solve, table, pairs
        )


class TestVerifier:
    def test_fault_injection(self):
        table = from_random(42, 9)
        family = build_family(table, 1)
        polys = list(family.polys)
        polys[3] = polys[3] + Polynomial([0, 0, 1])
        broken = SOPFamily(polys, family.norms, family.gauge)
        report = verify_skew_orthogonality(broken, table)
        assert not report.passed
        failing = {c.id for c in report.failures}
        assert failing
        # only pairings that involve the perturbed q_3 may fail
        assert all("q3" in cid for cid in failing)

    @settings(max_examples=40)
    @given(arbitrary_families())
    def test_report_values_are_pairwise_products(self, case):
        table, family = case
        report = verify_skew_orthogonality(family, table)
        count = len(family.polys)
        pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
        assert [c.id for c in report.checks] == [f"<q{a}|q{b}>" for a, b in pairs]
        for check, (a, b) in zip(report.checks, pairs):
            lhs = check.detail.split()[0]
            value = skew_product(table, family.polys[a], family.polys[b])
            assert lhs == f"lhs={value.numerator}/{value.denominator}"

    @settings(max_examples=60)
    @given(st.data())
    def test_report_bytes_are_the_fraction_construction(self, data):
        if data.draw(st.booleans()):
            table, family = data.draw(arbitrary_families())
        else:
            pairs = data.draw(st.integers(0, 3))
            table = from_random(data.draw(st.integers(0, 10**6)), 2 * pairs + 2)
            build = data.draw(st.sampled_from([build_family, oracle_family]))
            try:
                family = build(table, pairs)
            except SingularConfiguration:
                assume(False)
        polys, norms = list(family.polys), list(family.norms)
        tamper = data.draw(st.sampled_from(["none", "member", "norm"]))
        if tamper == "member":
            # below the leading term, so the member keeps its degree
            k = data.draw(st.integers(1, len(polys) - 1))
            polys[k] = polys[k] + Polynomial([0] * data.draw(st.integers(0, k - 1)) + [1])
        elif tamper == "norm":
            n = data.draw(st.integers(0, len(norms) - 1))
            norms[n] *= data.draw(st.sampled_from([Fraction(-1), Fraction(3, 2), Fraction(2, 7)]))
        family = SOPFamily(polys, norms, family.gauge)
        assert (
            verify_skew_orthogonality(family, table).to_json()
            == orthogonality_fractions(family, table).to_json()
        )

    def test_empty_pair_family_passes(self):
        family = build_family(SYMPLECTIC, 0)
        report = verify_skew_orthogonality(family, SYMPLECTIC)
        assert report.passed
        assert len(report.checks) == 1


def digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def orthogonality_digest():
    """sha256 of verify_skew_orthogonality on from_random families: each
    against its own table, its oracle twin, a table it does not belong to,
    and with one member perturbed; reports without elapsed_ms."""
    reports = []
    for seed, pairs in ((1, 1), (2, 2), (3, 3)):
        table = from_random(seed, 2 * pairs + 3)
        family = build_family(table, pairs)
        polys = list(family.polys)
        polys[2] = polys[2] + Polynomial([0, 1])
        reports += [
            verify_skew_orthogonality(family, table),
            verify_skew_orthogonality(oracle_family(table, pairs), table),
            verify_skew_orthogonality(family, from_random(seed + 10, 2 * pairs + 3)),
            verify_skew_orthogonality(SOPFamily(polys, family.norms), table),
        ]
    payload = [{k: v for k, v in r.to_json().items() if k != "elapsed_ms"} for r in reports]
    return digest(payload)


def family_digest():
    """sha256 of build_family on from_random seeds 1-6 at pairs 0-4 and on
    the acceptance symplectic and orthogonal measures at pairs 0-4."""
    tables = [from_random(seed, 9) for seed in range(1, 7)]
    tables.append(from_discrete_symplectic(SYM_MEASURE, 9))
    tables.append(from_discrete_orthogonal(ORTH_MEASURE, 9))
    return digest([outcome(build_family, t, p) for t in tables for p in range(5)])


def sparse_table(max_index, nonzero):
    """Table whose entries s_ij, i < j, are nonzero[i, j] or 0."""
    return SkewMoments(
        max_index,
        [
            [nonzero.get((i, j), 0) for j in range(i + 1, max_index + 1)]
            for i in range(max_index + 1)
        ],
    )


def singular_tables():
    full = {
        (i, j): Fraction(i + 2 * j + 1, j - i + 1)
        for i in range(6)
        for j in range(i + 1, 6)
    }
    # tau_1 = s_01 = 0
    yield sparse_table(5, {k: v for k, v in full.items() if k != (0, 1)})
    # tau_2 = s01*s23 - s02*s13 + s03*s12 = 1 - 1 + 0 = 0, tau_1 = 1
    yield sparse_table(
        5,
        {(0, 1): 1, (0, 2): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
         (2, 4): 1, (3, 4): 1, (3, 5): 2, (4, 5): 3},
    )
    # index 3 pairs with nothing: tau_2 = 0, tau_1 != 0
    yield sparse_table(5, {k: v for k, v in full.items() if 3 not in k})
    # index 0 pairs with nothing: tau_1 = tau_2 = 0
    yield sparse_table(5, {k: v for k, v in full.items() if 0 not in k})
    # index 5 pairs with nothing: only tau_3 = 0
    yield sparse_table(5, {k: v for k, v in full.items() if 5 not in k})
    # a random table with s_01 zeroed
    table = from_random(5, 5)
    yield sparse_table(
        5,
        {
            (i, j): table.entry(i, j)
            for i in range(6)
            for j in range(i + 1, 6)
            if (i, j) != (0, 1)
        },
    )


def singular_digest():
    """sha256 of build_family's exact outcome at pairs 0-2 on tables where
    some tau_n vanishes: a family or a SingularConfiguration message."""
    return digest(
        [outcome(build_family, t, p) for t in singular_tables() for p in range(3)]
    )


class TestGoldenOutput:
    def test_families_are_unchanged(self):
        assert family_digest() == (
            "2308e2176d607927ae30f04351cc579b9ca2f98e9f071b0f6c1b1f86d9814b33"
        )

    def test_singular_messages_are_unchanged(self):
        assert singular_digest() == (
            "72f56a72e625be3e512c8820cbabe059818991490d0b1d6a95a100aa9085d309"
        )

    def test_orthogonality_reports_are_unchanged(self):
        assert orthogonality_digest() == (
            "138050b7dc72d6194ab945dd2f4641b6d33978b9e1d8d28e4ad41bee78bc457b"
        )
