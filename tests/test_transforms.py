import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skewflow.algebra import Polynomial, clear_denominators, rat_str
from skewflow.cli import main
from skewflow.errors import DegreeBudgetExceeded, SingularConfiguration, TruncationTooLarge
from skewflow.moments import (
    DiscreteMeasure,
    from_discrete_orthogonal,
    from_discrete_symplectic,
    from_random,
)
from skewflow.pfaffian import MU, ZVAR, augmented_pfaffian, numeric_pfaffian
from skewflow.sops import (
    SOPFamily,
    build_family,
    skew_product,
    verify_skew_orthogonality,
)
from skewflow.transforms import (
    BandMatrix,
    build_lax_pair,
    christoffel,
    geronimus_coeffs,
    kernel,
    verify_dlax,
    verify_factorization,
    verify_geronimus,
)
from oracles import (
    ORTH_MEASURE,
    SYM_MEASURE,
    christoffel_fractions,
    combination,
    geronimus_fractions,
    kernel_fractions,
    mul,
    sop_even,
)
from strategies import entries, fractions, tables

SYMPLECTIC = from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 12)


def definitional_band_product(a, b):
    """The Fraction triple sum (AB)_ij = sum_k a_ik b_kj, read off rows."""
    n, a_rows, b_rows = a.size, a.rows, b.rows
    return tuple(
        tuple(
            sum((a_rows[i][k] * b_rows[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


def reduced_rows(forms):
    """Rows of integer forms (ints, den) as reduced Fractions."""
    return tuple(tuple(Fraction(x, den) for x in ints) for ints, den in forms)


def band_product(a, b, window=None):
    """The leading window x window block of a*b (all of it by default) as
    reduced Fractions, from the integer product :func:`verify_dlax` runs."""
    return reduced_rows(a._product(b, a.size if window is None else window))


def band(kind, rows):
    """The BandMatrix of rational rows, each over its least denominator."""
    return BandMatrix(kind, [(tuple(ints), den) for ints, den in map(clear_denominators, rows)])


@st.composite
def band_matrices(draw, size, kind):
    """Any L (free on and below the diagonal, unit superdiagonal) or R
    (free below the diagonal, unit diagonal) of the given size."""
    rows = []
    for i in range(size):
        row = [Fraction(0)] * size
        for j in range(i + 1 if kind == "L" else i):
            row[j] = draw(entries)
        if kind == "R":
            row[i] = Fraction(1)
        elif i + 1 < size:
            row[i + 1] = Fraction(1)
        rows.append(row)
    return band(kind, rows)


@st.composite
def admissible_steps(draw):
    """A table, from_random or any table of mixed denominators, its family
    of 1-3 pairs and a lambda at which no even member vanishes."""
    pairs = draw(st.integers(1, 3))
    table = draw(st.one_of(
        st.integers(0, 10**6).map(lambda seed: from_random(seed, 2 * pairs + 2)),
        tables(2 * pairs + 2, 2 * pairs + 2),
    ))
    try:
        family = build_family(table, pairs)
    except SingularConfiguration:
        assume(False)
    lam = draw(fractions(-9, 9, 5))
    assume(all(family.even(n).eval(lam) != 0 for n in range(pairs + 1)))
    return table, family, lam


def paper_r_rows(transformed, family, shifted):
    """The R rows from the paper's four contiguous relations, each
    coefficient a skew product on the shifted table over r*_k:
    q_2n     = q*_2n     + sum_{k<n} alpha_nk q*_2k + beta_nk q*_{2k+1}
    q_{2n+1} = q*_{2n+1} + sum_{k<=n} gamma_nk q*_2k + sum_{k<n} epsilon_nk q*_{2k+1}
    """
    size = len(transformed.polys)
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

    def coeff(f, g, k):
        return skew_product(shifted, f, g) / transformed.norms[k]

    for n in range(transformed.pairs + 1):
        q_even, q_odd = family.even(n), family.odd(n)
        for k in range(n):
            rows[2 * n][2 * k] = coeff(q_even, transformed.odd(k), k)
            rows[2 * n][2 * k + 1] = coeff(transformed.even(k), q_even, k)
            rows[2 * n + 1][2 * k + 1] = coeff(transformed.even(k), q_odd, k)
        for k in range(n + 1):
            rows[2 * n + 1][2 * k] = coeff(q_odd, transformed.odd(k), k)
    return tuple(map(tuple, rows))


def add_to_entry(data, i, j, delta):
    """``data`` with ``delta`` added to the value of entry j of its integer
    row i; every other entry keeps its value."""
    ints, den = data.forms[i]
    delta = Fraction(delta)
    row = [x * delta.denominator for x in ints]
    row[j] += delta.numerator * den
    forms = list(data.forms)
    forms[i] = (tuple(row), den * delta.denominator)
    return replace(data, forms=tuple(forms))


def bump_numerator(data, i, j):
    """``data`` with the integer numerator of entry j of row i off by one."""
    ints, den = data.forms[i]
    forms = list(data.forms)
    forms[i] = (ints[:j] + (ints[j] + 1,) + ints[j + 1 :], den)
    return replace(data, forms=tuple(forms))


def random_setup(seed=42, pairs=3, budget=11):
    table = from_random(seed, budget)
    return table, build_family(table, pairs)


class TestChristoffel:
    def test_even_base_is_one(self):
        table, family = random_setup()
        transformed, _, _ = christoffel(family, table, Fraction(3))
        assert transformed.even(0) == Polynomial([1])

    def test_symplectic_norm_ratio(self):
        family = build_family(SYMPLECTIC, 1)
        transformed, shifted, _ = christoffel(family, SYMPLECTIC, 3)
        q2_at_3 = family.even(1).eval(Fraction(3))
        assert q2_at_3 == Fraction(5, 2)
        assert transformed.norms[0] == q2_at_3 * family.norms[0] == 5
        direct = skew_product(shifted, transformed.even(0), transformed.odd(0))
        assert direct == 5

    def test_transformed_family_is_skew_orthogonal(self):
        table, family = random_setup()
        transformed, shifted, _ = christoffel(family, table, Fraction(3))
        assert verify_skew_orthogonality(transformed, shifted).passed

    def test_norm_ratio_rule(self):
        table, family = random_setup(seed=5)
        lam = Fraction(-2)
        transformed, _, _ = christoffel(family, table, lam)
        for n in range(transformed.pairs + 1):
            expected = (
                family.even(n + 1).eval(lam) / family.even(n).eval(lam)
            ) * family.norms[n]
            assert transformed.norms[n] == expected

    def test_root_of_even_member_rejected(self):
        # q_2 = z^2 - (s02/s01) z + s12/s01 = z^2 - 3z + 2 vanishes at z = 1
        from skewflow.moments import SkewMoments

        table = SkewMoments(3, [[1, 3, 5], [2, 7], [12]])
        family = build_family(table, 1)
        assert family.even(1).eval(Fraction(1)) == 0
        with pytest.raises(SingularConfiguration):
            christoffel(family, table, Fraction(1))


class TestGeronimus:
    def test_reconstruction(self):
        table, family = random_setup()
        lam = Fraction(3)
        transformed, _, _ = christoffel(family, table, lam)
        data = geronimus_coeffs(transformed, family, table, lam)
        assert len(data.forms) == len(transformed.polys)
        for i, row in enumerate(reduced_rows(data.forms)):
            rebuilt = Polynomial()
            for coeff, member in zip(row, transformed.polys):
                rebuilt = rebuilt + member.scale(coeff)
            assert rebuilt == family.polys[i]

    @settings(max_examples=25)
    @given(admissible_steps())
    def test_christoffel_then_geronimus_reconstructs(self, step):
        table, family, lam = step
        transformed, _, _ = christoffel(family, table, lam)
        data = geronimus_coeffs(transformed, family, table, lam)
        assert verify_geronimus(transformed, family, table, data).passed

    @settings(max_examples=25)
    @given(admissible_steps())
    def test_step_rows_are_the_paper_formulas(self, step):
        table, family, lam = step
        transformed, shifted, cdata = christoffel(family, table, lam)
        gdata = geronimus_coeffs(transformed, family, table, lam)
        assert reduced_rows(gdata.forms) == paper_r_rows(transformed, family, shifted)
        # row 2N is the kernel row of q*_2N, the monic even SOP of the
        # shifted table, which the shorter transformed family leaves out
        members = [*transformed.polys, sop_even(shifted, family.pairs)]
        assert len(cdata.rows) == len(members) == 2 * family.pairs + 1
        z_minus_lam = Polynomial([-lam, 1])
        for row, member in zip(cdata.rows, members):
            assert len(row) == len(family.polys)
            assert mul(z_minus_lam, member) == combination(zip(row, family.polys))

    @pytest.mark.parametrize("member", range(6))
    def test_tampered_member_fails_only_its_check(self, member):
        # pairs=3 transforms to pairs=2, whose six members rebuild q_0..q_5
        table, family = random_setup()
        lam = Fraction(3)
        transformed, _, _ = christoffel(family, table, lam)
        data = geronimus_coeffs(transformed, family, table, lam)
        polys = list(family.polys)
        polys[member] = polys[member] + Polynomial([0] * (member // 2) + [Fraction(2, 7)])
        tampered = SOPFamily(polys, family.norms, family.gauge)
        report = verify_geronimus(transformed, tampered, table, data)
        kind = "odd" if member % 2 else "even"
        assert [c.id for c in report.failures] == [f"reconstruct-{kind}:{member // 2}"]
        assert len(report.checks) == 6

    def test_modified_product_matches_shifted_table(self):
        table, family = random_setup(seed=13)
        lam = Fraction(2)
        transformed, shifted, _ = christoffel(family, table, lam)
        factor = Polynomial([-lam, Fraction(1)])
        f = family.even(1)
        g = transformed.odd(0)
        assert skew_product(table, mul(factor, f), mul(factor, g)) == skew_product(
            shifted, f, g
        )


class TestIntegerForms:
    @settings(max_examples=40)
    @given(
        admissible_steps(),
        st.one_of(st.integers(-5, 5).map(Fraction), fractions(-5, 5, 9)),
        st.data(),
    )
    def test_transforms_are_the_fraction_construction(self, step, y, data):
        # every integer form reduces to the oracle's Fractions, exactly
        table, family, lam = step
        transformed, _, cdata = christoffel(family, table, lam)
        polys, norms, l_rows = christoffel_fractions(family, lam)
        assert transformed.polys == tuple(polys)
        assert transformed.norms == tuple(norms)
        assert cdata.rows == l_rows
        gdata = geronimus_coeffs(transformed, family, table, lam)
        r_rows = geronimus_fractions(transformed, family, table, lam)
        assert reduced_rows(gdata.forms) == r_rows
        size = 2 * transformed.pairs + 2
        ((lmat, rmat),) = build_lax_pair([family, transformed], [(cdata, gdata)], size)
        assert lmat.rows == tuple(row[:size] for row in l_rows[:size])
        assert rmat.rows == tuple(row[:size] for row in r_rows[:size])
        order = data.draw(st.integers(0, family.pairs))
        assert kernel(family, order, y) == kernel_fractions(family, order, y)


class TestLaxPair:
    def chain(self, seed=42, pairs=4, steps=3, lam=Fraction(3)):
        table = from_random(seed, 2 * pairs + 1 + steps)
        families = [build_family(table, pairs)]
        datas = []
        moments = table
        for _ in range(steps):
            nxt, shifted, cdata = christoffel(families[-1], moments, lam)
            gdata = geronimus_coeffs(nxt, families[-1], moments, lam)
            datas.append((cdata, gdata))
            families.append(nxt)
            moments = shifted
        return families, datas

    def test_l_row_zero_coefficient(self):
        table, family = random_setup()
        lam = Fraction(3)
        _, _, data = christoffel(family, table, lam)
        # (z - lam) q*_0 = q_1 + A_00 q_0 forces A_00 = -lam
        assert data.rows[0][0] == -lam

    def test_lax_equation_on_window(self):
        families, datas = self.chain()
        size = 2 * families[-1].pairs + 2
        factors = build_lax_pair(families, datas, size)
        for t in range(len(factors) - 1):
            report = verify_dlax(
                factors[t][0], factors[t][1], factors[t + 1][0], factors[t + 1][1]
            )
            assert report.passed

    def test_window_shape(self):
        families, datas = self.chain(steps=2)
        size = 2 * families[-1].pairs + 2
        factors = build_lax_pair(families, datas, size)
        report = verify_dlax(
            factors[0][0], factors[0][1], factors[1][0], factors[1][1]
        )
        assert len(report.checks) == (size - 2) ** 2
        assert any(c.id == "[0,0]" for c in report.checks)

    def test_fault_injection(self):
        families, datas = self.chain(steps=2)
        size = 2 * families[-1].pairs + 2
        factors = build_lax_pair(families, datas, size)
        rows = [list(r) for r in factors[1][1].rows]
        rows[1][0] += 1
        bad = band("R", rows)
        report = verify_dlax(factors[0][0], factors[0][1], factors[1][0], bad)
        assert not report.passed

    def test_tampered_l_row_names_row_and_step(self):
        families, datas = self.chain(steps=2)
        size = 2 * families[-1].pairs + 2
        cdata, gdata = datas[1]
        tampered = add_to_entry(cdata, 2, 0, 1)  # q_0 coefficient of (z - lam) q*_2: L row 2
        with pytest.raises(SingularConfiguration, match=r"^L row 2 fails at step 1$"):
            build_lax_pair(families, [datas[0], (tampered, gdata)], size)

    def test_tampered_r_row_names_row_and_step(self):
        families, datas = self.chain(steps=2)
        size = 2 * families[-1].pairs + 2
        cdata, gdata = datas[0]
        tampered = add_to_entry(gdata, 3, 0, Fraction(1, 2))  # q*_0 coefficient of q_3: R row 3
        with pytest.raises(SingularConfiguration, match=r"^R row 3 fails at step 0$"):
            build_lax_pair(families, [(cdata, tampered), datas[1]], size)

    def test_numerator_off_by_one_fails_with_the_same_message(self):
        # one integer numerator of a stored row off by one, not a whole unit
        families, datas = self.chain(steps=2)
        size = 2 * families[-1].pairs + 2
        (c0, g0), (c1, g1) = datas
        with pytest.raises(SingularConfiguration, match=r"^L row 2 fails at step 1$"):
            build_lax_pair(families, [datas[0], (bump_numerator(c1, 2, 0), g1)], size)
        with pytest.raises(SingularConfiguration, match=r"^R row 3 fails at step 0$"):
            build_lax_pair(families, [(c0, bump_numerator(g0, 3, 0)), datas[1]], size)
        table = from_random(42, 11)  # the chain's table, recorded as provenance
        report = verify_geronimus(families[1], families[0], table, bump_numerator(g0, 3, 0))
        assert [c.id for c in report.failures] == ["reconstruct-odd:1"]
        # and member q_3 itself, its constant numerator off by one
        polys = list(families[0].polys)
        polys[3] = Polynomial._reduced([polys[3].num[0] + 1, *polys[3].num[1:]], polys[3].den)
        tampered = SOPFamily(polys, families[0].norms, families[0].gauge)
        report = verify_geronimus(families[1], tampered, table, g0)
        assert [c.id for c in report.failures] == ["reconstruct-odd:1"]

    @settings(max_examples=60)
    @given(st.data())
    def test_multiply_is_the_definitional_product(self, data):
        size = data.draw(st.integers(1, 6))
        kinds = data.draw(st.sampled_from(["LR", "RL", "LL", "RR"]))
        a = data.draw(band_matrices(size, kinds[0]))
        b = data.draw(band_matrices(size, kinds[1]))
        full = definitional_band_product(a, b)
        assert band_product(a, b) == full
        window = data.draw(st.integers(0, size))
        assert band_product(a, b, window) == tuple(row[:window] for row in full[:window])

    def test_truncation_guard(self):
        families, datas = self.chain(steps=2)
        with pytest.raises(TruncationTooLarge):
            build_lax_pair(families, datas, 2 * families[-1].pairs + 4)


class TestBandMatrix:
    @pytest.mark.parametrize(
        "kind, rows, message",
        [
            ("U", [[1]], "kind must be 'L' or 'R'"),
            ("L", [[0, 1], [0]], "rows must be square"),
            ("R", [[1, 0, 0]], "rows must be square"),
            ("L", [[0, 2], [0, 0]], "L superdiagonal must be 1"),
            ("L", [[0, 1, 3], [0, 0, 1], [0, 0, 0]], "L has entries above the superdiagonal"),
            ("R", [[1, 0], [0, 2]], "R diagonal must be 1"),
            ("R", [[1, 5], [0, 1]], "R must be lower triangular"),
        ],
        ids=["kind", "square", "row-count", "l-superdiagonal", "l-above", "r-diagonal", "r-above"],
    )
    def test_structure_is_checked(self, kind, rows, message):
        with pytest.raises(ValueError) as err:
            band(kind, rows)
        assert str(err.value) == message


class TestKernel:
    def test_antisymmetry_at_coincidence(self):
        family = build_family(SYMPLECTIC, 1)
        y = Fraction(3)
        assert kernel(family, 1, y).eval(y) == 0

    def test_order_zero(self):
        family = build_family(SYMPLECTIC, 1)
        y = Fraction(7, 2)
        expected = Polynomial([-y / family.norms[0], 1 / family.norms[0]])
        assert kernel(family, 0, y) == expected

    def test_negative_order_rejected(self):
        # family.even(-1) would wrap round to the last member
        family = build_family(SYMPLECTIC, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel(family, -1, Fraction(3))
        with pytest.raises(ValueError, match="nonnegative"):
            verify_factorization(family, SYMPLECTIC, -1, Fraction(3))

    def test_symplectic_factorization_verdict(self):
        family = build_family(SYMPLECTIC, 1)
        report = verify_factorization(family, SYMPLECTIC, 1, Fraction(3))
        assert report.passed
        verdict = next(c for c in report.checks if c.id == "exactly-one-form")
        assert "a=False b=True" in verdict.detail

    def test_consistent_form_across_seeds(self):
        for seed in (1, 2, 3):
            table, family = random_setup(seed=seed, pairs=2, budget=9)
            report = verify_factorization(family, table, 2, Fraction(4))
            assert report.passed
            verdict = next(c for c in report.checks if c.id == "exactly-one-form")
            assert "a=False b=True" in verdict.detail

    # the corrupted families of the kernel suite's CLI tests: q_2 + 7 on a
    # pairs=2 family, every norm times 7 with q_3 + 5 on a pairs=3 one, and
    # every norm times 7 alone, which scales I_N and nothing else
    @pytest.mark.parametrize(
        "budget, pairs, member, shift, factor",
        [(10, 2, 2, 7, 1), (9, 3, 3, 5, 7), (9, 3, 3, 0, 7)],
    )
    def test_corrupted_family_fails(self, budget, pairs, member, shift, factor):
        table = from_random(3, budget)
        family = corrupted(build_family(table, pairs), member, shift, factor)
        for y in (Fraction(2), Fraction(1, 3)):
            report = verify_factorization(family, table, pairs, y)
            assert not report.passed
            verdict = next(c for c in report.checks if c.id == "exactly-one-form")
            assert verdict.detail == "a=False b=False"

    @settings(max_examples=60)
    @given(st.data())
    def test_kernel_is_the_one_border_pfaffian(self, data):
        # I_N(x, y) = -Pf(0..2N+1, y, z) / tau_{N+1}: one border row at y
        pairs = data.draw(st.integers(0, 3))
        table = data.draw(tables(2 * pairs + 1, 2 * pairs + 2))
        try:
            family = build_family(table, pairs)
        except SingularConfiguration:
            assume(False)
        order = data.draw(st.integers(0, pairs))
        y = data.draw(st.one_of(st.integers(-5, 5).map(Fraction), fractions(-5, 5, 9)))
        tau = numeric_pfaffian(table, range(2 * order + 2))
        bordered = augmented_pfaffian(table, [*range(2 * order + 2), MU, ZVAR], y)
        assert kernel(family, order, y) == bordered.scale(-1 / tau)

    def test_table_too_small_for_the_kernel(self):
        # I_2 has degree 5, one past a max_index 4 table
        family = build_family(from_random(3, 10), 2)
        with pytest.raises(DegreeBudgetExceeded):
            verify_factorization(family, from_random(3, 4), 2, Fraction(2))


def corrupted(family, member, shift, factor):
    """The family with ``shift`` added to member ``member`` and every norm
    multiplied by ``factor``."""
    polys = list(family.polys)
    polys[member] = polys[member] + Polynomial([shift])
    return SOPFamily(polys, [r * factor for r in family.norms], family.gauge)


GOLDEN_TABLES = [
    *(from_random(seed, 12) for seed in range(1, 5)),
    from_discrete_symplectic(SYM_MEASURE, 12),
]


def lax_rows(table, lam, steps):
    """The L/R rows of build_lax_pair on a pairs=3 chain at one lambda."""
    families, datas, moments = [build_family(table, 3)], [], table
    for _ in range(steps):
        nxt, shifted, cdata = christoffel(families[-1], moments, lam)
        datas.append((cdata, geronimus_coeffs(nxt, families[-1], moments, lam)))
        families.append(nxt)
        moments = shifted
    factors = build_lax_pair(families, datas, 2 * families[-1].pairs + 2)
    return [[[rat_str(v) for v in row] for row in m.rows] for pair in factors for m in pair]


def data_out(tmp_path, table, lams):
    """The bytes ``transform --data-out`` writes for a pairs=3 family."""
    moments, family, data = (tmp_path / n for n in ("m.json", "f.json", "d.json"))
    moments.write_text(json.dumps(table.to_json()))
    family.write_text(json.dumps(build_family(table, 3).to_json()))
    code = main([
        "transform", "--family", str(family), "--moments", str(moments),
        *(f"--lambda={lam}" for lam in lams), "-o", str(tmp_path / "out.json"), "--data-out", str(data),
    ])
    return [code, data.read_text() if code == 0 else None]


def outcome(build, *args):
    """build(*args), or the type and message of what it raised."""
    try:
        return build(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def kernel_tables():
    """from_random seeds 1-6 and the acceptance symplectic and orthogonal
    measures, max_index 12."""
    return [
        *(from_random(seed, 12) for seed in range(1, 7)),
        from_discrete_symplectic(SYM_MEASURE, 12),
        from_discrete_orthogonal(ORTH_MEASURE, 12),
    ]


def kernel_report(family, table, pairs, y):
    """verify_factorization's report without its timing."""
    report = verify_factorization(family, table, pairs, y).to_json()
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


class TestGoldenOutput:
    def test_kernel_reports_are_unchanged(self):
        payload = []
        for table in kernel_tables():
            family = build_family(table, 4)
            payload += [
                outcome(kernel_report, family, table, pairs, y)
                for pairs in range(5)
                for y in (Fraction(2), Fraction(-1, 3), Fraction(5, 7))
            ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
            "151a384405f9aeb3c963ff065d6d9d5ce0509a58ac03c27d1b7c574a0e7a11d9"
        )

    def test_lax_rows_are_unchanged(self):
        payload = [
            outcome(lax_rows, table, lam, steps)
            for table in GOLDEN_TABLES
            for lam in (Fraction(3), Fraction(-1, 2))
            for steps in (1, 2)
        ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
            "798818ce47ef2966cb93c8f68dc5166128f685a6e5de1a588e10d9f96ed106d6"
        )

    def test_transform_data_out_is_unchanged(self, tmp_path):
        payload = [
            data_out(tmp_path, table, lams)
            for table in GOLDEN_TABLES
            for lams in (["3"], ["3", "-1/2", "5/3"])
        ]
        assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == (
            "0bb97bc40698a1bdc1a2ff658e42801b1d5fdb9a6fd03585264b926eaf8e6e7c"
        )
