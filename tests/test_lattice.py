import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewflow.algebra import Polynomial, rat, rat_str
from skewflow.errors import DegreeBudgetExceeded, SingularConfiguration
from skewflow import lattice
from skewflow.lattice import (
    AntiDiagonal,
    CoefficientField,
    LatticeConfig,
    TauGrid,
    build_grid,
    coefficient_field,
    crosscheck_single_step,
    matrix_coefficient_field,
    sample_points,
    verify_dckp,
    verify_dpfl,
    verify_edckp,
    verify_edlax,
    verify_edpfl,
    verify_slax,
)
from skewflow.moments import (
    DiscreteMeasure,
    SkewMoments,
    from_discrete_symplectic,
    from_random,
)
from skewflow.pfaffian import ZVAR, augmented_pfaffian, numeric_pfaffian
from skewflow.sops import skew_product
from oracles import sop_even, sop_odd
from strategies import fractions

MU, LAM = Fraction(1, 2), Fraction(3)

CONFIG = LatticeConfig(MU, LAM, 2, 2, 2)
GRID = build_grid(from_random(42, CONFIG.required_budget), CONFIG)

SYM_CONFIG = LatticeConfig(MU, LAM, 1, 1, 1)
SYM_GRID = build_grid(
    from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 8), SYM_CONFIG
)


def samples_for(grid):
    return sample_points(2 * grid.config.pairs + 3, [grid.config.mu, grid.config.lam])


def with_hats(grid, tauhat=(), sighat=()):
    """Copy of a grid with some tau_hat/sigma_hat polynomials replaced."""
    return TauGrid(
        grid.config,
        grid.base,
        grid.tables,
        grid._tau,
        grid._sigma,
        {**grid._tauhat, **dict(tauhat)},
        {**grid._sighat, **dict(sighat)},
    )


@st.composite
def random_grids(draw):
    """A grid over a drawn table, box and (mu, lambda); no vanishing tau."""
    mu, lam = draw(st.lists(fractions(-4, 4, 5), min_size=2, max_size=2, unique=True))
    config = LatticeConfig(
        mu, lam, draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    )
    m = config.required_budget
    rows = [[draw(fractions(-4, 4, 5)) for _ in range(i + 1, m + 1)] for i in range(m + 1)]
    table = SkewMoments(m, rows)
    try:
        return build_grid(table, config)
    except SingularConfiguration:
        assume(False)


# tau_hat_1 at the centre (1, 1) of the box, off by z in one coefficient
BROKEN = with_hats(GRID, tauhat={(1, 1, 1): GRID.tau_hat(1, 1, 1) + Polynomial.monomial(1)})
# the relations of slax (and, as edlax, of the vector system) whose stencil
# reads tau_hat_1 at (1, 1)
BROKEN_LAX = [
    "slax2:n=1,s=0,t=0",
    "slax1:n=2,s=0,t=0",
    "slax1:n=1,s=0,t=1",
    "slax2:n=1,s=0,t=1",
    "slax1:n=1,s=1,t=0",
    "slax2:n=1,s=1,t=0",
    "slax2:n=0,s=1,t=1",
    "slax1:n=1,s=1,t=1",
]


class TestConfig:
    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatticeConfig(Fraction(3), Fraction(3), 1, 1, 1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            LatticeConfig(MU, LAM, -1, 1, 1)
        with pytest.raises(ValueError):
            LatticeConfig(MU, LAM, 1, 1, -1)

    def test_required_budget(self):
        assert CONFIG.required_budget == 12

    def test_json_round_trip(self):
        data = CONFIG.to_json()
        assert data["lambda"] == "3/1"
        assert LatticeConfig.from_json(data) == CONFIG


class TestGrid:
    def test_budget_enforced(self):
        with pytest.raises(DegreeBudgetExceeded):
            build_grid(from_random(42, CONFIG.required_budget - 1), CONFIG)

    def test_tau_zero_is_one(self):
        for s, t in GRID.sites():
            assert GRID.tau(0, s, t) == 1

    def test_read_outside_the_grid_names_the_point(self):
        c = CONFIG
        with pytest.raises(KeyError) as excinfo:
            GRID.tau(c.pairs + 2, 0, 0)
        assert excinfo.value.args == ((c.pairs + 2, 0, 0),)
        with pytest.raises(KeyError) as excinfo:
            GRID.sigma_hat(0, c.steps_s + 1, 0)
        assert excinfo.value.args == ((0, c.steps_s + 1, 0),)

    def test_sigma_zero_is_offset(self):
        for s, t in GRID.sites():
            assert GRID.sigma(0, s, t) == s * MU + t * LAM

    @settings(max_examples=30)
    @given(random_grids())
    def test_sigma_is_core_plus_offset_tau(self, grid):
        # sigma_n = Pf(0..2n-2, 2n) + (s*mu + t*lam) tau_n and sighat_n the
        # same with z, from the oracles on each site's table, at every n
        c = grid.config
        for s, t in grid.sites():
            table = grid.moments(s, t)
            offset = s * c.mu + t * c.lam
            for n in range(c.pairs + 2):
                tau = numeric_pfaffian(table, range(2 * n))
                core = numeric_pfaffian(table, [*range(2 * n - 1), 2 * n]) if n else 0
                assert grid.sigma(n, s, t) == core + offset * tau
                hat = augmented_pfaffian(table, [*range(2 * n + 1), ZVAR])
                core_hat = augmented_pfaffian(table, [*range(2 * n), 2 * n + 1, ZVAR])
                assert grid.sigma_hat(n, s, t) == core_hat + hat.scale(offset)

    def test_symplectic_sigma_one(self):
        assert SYM_GRID.sigma(1, 0, 0) == 6

    def test_shift_order(self):
        base = GRID.base
        assert GRID.moments(1, 1) == base.shift(LAM).shift(MU)
        assert GRID.moments(2, 0) == base.shift(MU).shift(MU)

    def test_q_even_matches_pfaffian_formula(self):
        for s, t in GRID.sites():
            table = GRID.moments(s, t)
            for n in range(GRID.config.pairs + 1):
                assert GRID.q_even(n, s, t) == sop_even(table, n)

    def test_phi_odd_is_gauge_shifted_sop(self):
        for s, t in GRID.sites():
            table = GRID.moments(s, t)
            offset = s * MU + t * LAM
            for n in range(GRID.config.pairs + 1):
                expected = sop_odd(table, n) + sop_even(table, n).scale(offset)
                assert GRID.phi_odd(n, s, t) == expected

    def test_scale_invariance(self):
        scale = Fraction(3, 7)
        scaled_grid = build_grid(GRID.base.scale(scale), CONFIG)
        for n in range(CONFIG.pairs + 2):
            assert scaled_grid.tau(n, 1, 1) == scale**n * GRID.tau(n, 1, 1)
        field = coefficient_field(GRID)
        scaled_field = coefficient_field(scaled_grid)
        assert field.a == scaled_field.a
        assert field.b == scaled_field.b
        assert field.c == scaled_field.c
        assert field.d == scaled_field.d

    def test_vanishing_tau_at_shifted_site(self):
        # Pf(0..3) of base.shift(MU) is linear in s_34 with coefficient
        # s_01 of that shifted table; pick s_34 so that it vanishes at (1,0)
        config = LatticeConfig(MU, LAM, 1, 1, 1)
        m = config.required_budget
        upper = [[GRID.base.entry(i, j) for j in range(i + 1, m + 1)] for i in range(m + 1)]

        def tau_2_at_1_0(x):
            upper[3][0] = x
            return numeric_pfaffian(SkewMoments(m, upper).shift(MU), range(4))

        f0, f1 = tau_2_at_1_0(0), tau_2_at_1_0(1)
        tau_2_at_1_0(f0 / (f0 - f1))
        table = SkewMoments(m, upper)
        assert numeric_pfaffian(table.shift(MU), range(4)) == 0
        assert numeric_pfaffian(table, range(4)) != 0
        with pytest.raises(SingularConfiguration) as err:
            build_grid(table, config)
        assert str(err.value) == "tau_2 vanishes at site (1,0)"

    def test_json_round_trip(self):
        again = TauGrid.from_json(GRID.to_json())
        assert again.config == GRID.config
        for s, t in GRID.sites():
            for n in range(CONFIG.pairs + 2):
                assert again.tau(n, s, t) == GRID.tau(n, s, t)
                assert again.sigma(n, s, t) == GRID.sigma(n, s, t)
                assert again.tau_hat(n, s, t) == GRID.tau_hat(n, s, t)
                assert again.sigma_hat(n, s, t) == GRID.sigma_hat(n, s, t)

    @settings(max_examples=50)
    @given(st.data())
    def test_from_json_names_a_changed_entry(self, data):
        field = data.draw(st.sampled_from(["tau", "sigma", "tau_hat", "sigma_hat"]))
        n = data.draw(st.integers(0, CONFIG.pairs + 1))
        s = data.draw(st.integers(0, CONFIG.steps_s))
        t = data.draw(st.integers(0, CONFIG.steps_t))
        delta = data.draw(fractions(-5, 5, 7).filter(bool))
        payload = GRID.to_json()
        if field.endswith("_hat"):
            entry = payload[field][n][s][t]
            k = data.draw(st.integers(0, len(entry) - 1))
            entry[k] = rat_str(rat(entry[k]) + delta)
        else:
            payload[field][n][s][t] = rat_str(rat(payload[field][n][s][t]) + delta)
        with pytest.raises(ValueError) as err:
            TauGrid.from_json(payload)
        assert str(err.value) == (
            f"grid field {field!r} differs from the grid rebuilt from config "
            f"and base_moments at n={n}, s={s}, t={t}"
        )


class TestCrosscheck:
    def test_random_grid_all_sites(self):
        for n in range(CONFIG.pairs + 1):
            for s in range(CONFIG.steps_s):
                for t in range(CONFIG.steps_t):
                    report = crosscheck_single_step(GRID, n, s, t)
                    assert report.passed
                    assert len(report.checks) == 12

    def test_symplectic_grid(self):
        for n in range(SYM_CONFIG.pairs + 1):
            assert crosscheck_single_step(SYM_GRID, n, 0, 0).passed

    def test_out_of_box_rejected(self):
        for n, s, t in [(0, CONFIG.steps_s, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(IndexError):
                crosscheck_single_step(GRID, n, s, t)

    def test_perturbed_tau_hat_fails(self):
        failed = {
            (n, s, t): [c.id for c in crosscheck_single_step(BROKEN, n, s, t).failures]
            for n in range(CONFIG.pairs + 1)
            for s in range(CONFIG.steps_s)
            for t in range(CONFIG.steps_t)
        }
        # sighat:s+1,t+1 reads tau_hat_1(1, 1) times the origin's offset, 0
        assert {k: v for k, v in failed.items() if v} == {
            (1, 0, 0): ["tauhat:s+1,t+1"],
            (1, 0, 1): ["tauhat:s+1", "sighat:s+1"],
            (1, 1, 0): ["tauhat:t+1", "sighat:t+1"],
        }


def printed_ratios(grid, x, y, k):
    """The A, B, C, D entries of a field by the printed formulas, in
    Fraction arithmetic on the grid accessors x (numerators) and y
    (denominators); an entry whose denominator vanishes is left out."""
    c = grid.config
    a, b, cc, d = {}, {}, {}, {}
    for s in range(c.steps_s):
        for t in range(c.steps_t):
            for n in range(c.pairs + 1):
                key = (n, s, t)
                down = y(n, s + 1, t) * y(n, s, t + 1)
                if down != 0:
                    if n >= 1:
                        a[key] = k * x(n + 1, s, t) * x(n - 1, s + 1, t + 1) / down
                    b[key] = k * x(n, s, t) * x(n, s + 1, t + 1) / down
                up = k * y(n + 1, s, t) * y(n, s + 1, t + 1)
                if up != 0:
                    cc[key] = x(n + 1, s + 1, t) * x(n, s, t + 1) / up
                    d[key] = x(n + 1, s, t + 1) * x(n, s + 1, t) / up
    return a, b, cc, d


def assert_fields_are_printed(grid):
    """Both coefficient fields of a grid equal the printed formulas on its
    own values: the scalar field tau over tau with mu - lambda, each matrix
    entry present where both its upper (tau over sigma) and lower (sigma
    over tau) ratio exist, with lambda - mu."""
    c = grid.config
    scalar = coefficient_field(grid)
    want = printed_ratios(grid, grid.tau, grid.tau, c.mu - c.lam)
    assert (scalar.a, scalar.b, scalar.c, scalar.d) == want
    matrix = matrix_coefficient_field(grid)
    upper = printed_ratios(grid, grid.tau, grid.sigma, c.lam - c.mu)
    lower = printed_ratios(grid, grid.sigma, grid.tau, c.lam - c.mu)
    for got, up, low in zip((matrix.a, matrix.b, matrix.c, matrix.d), upper, lower):
        assert got.keys() == up.keys() & low.keys()
        for key, entry in got.items():
            assert (entry.upper, entry.lower) == (up[key], low[key])


# lambda = -mu puts sigma_0 = 0 on the diagonal s = t, so the upper entries
# with such a sigma in their denominator are left out
MINUS_CONFIG = LatticeConfig(1, -1, 1, 2, 2)
MINUS_GRID = build_grid(from_random(7, MINUS_CONFIG.required_budget), MINUS_CONFIG)


def sigma_zeroed(grid, key):
    """Copy of a grid, built by hand, with sigma set to 0 at one point."""
    return TauGrid(
        grid.config,
        grid.base,
        grid.tables,
        grid._tau,
        {**grid._sigma, key: Fraction(0)},
        grid._tauhat,
        grid._sighat,
    )


def without_elapsed(report):
    return {k: v for k, v in report.to_json().items() if k != "elapsed_ms"}


class TestCoefficientField:
    def test_b_zero(self):
        field = coefficient_field(GRID)
        assert field.b[(0, 0, 0)] == MU - LAM

    @settings(max_examples=30)
    @example(MINUS_GRID)
    @given(random_grids())
    def test_definitions(self, grid):
        assert_fields_are_printed(grid)

    def test_minus_grid_leaves_entries_out(self):
        matrix = matrix_coefficient_field(MINUS_GRID)
        sites = set(coefficient_field(MINUS_GRID).b)
        assert sites - set(matrix.b)

    def test_built_once_per_grid(self, monkeypatch):
        calls = []
        ratios = lattice._ratios
        monkeypatch.setattr(lattice, "_ratios", lambda *args: calls.append(1) or ratios(*args))
        grid = build_grid(GRID.base, CONFIG)
        assert coefficient_field(grid) is coefficient_field(grid)
        assert matrix_coefficient_field(grid) is matrix_coefficient_field(grid)
        samples = samples_for(grid)
        verify_slax(grid, samples)
        verify_edlax(grid, samples)
        verify_dpfl(coefficient_field(grid))
        verify_edpfl(matrix_coefficient_field(grid))
        # one call for the scalar field, two (upper, lower) for the matrix one
        assert len(calls) == 3

    def test_lax_reports_do_not_depend_on_who_builds_the_field(self):
        first, later = build_grid(GRID.base, CONFIG), build_grid(GRID.base, CONFIG)
        coefficient_field(first)
        matrix_coefficient_field(first)
        samples = samples_for(GRID)
        for verify in (verify_slax, verify_edlax):
            assert without_elapsed(verify(first, samples)) == without_elapsed(
                verify(later, samples)
            )

    def test_each_grid_builds_its_own_fields(self):
        # grids that share GRID's config, built and by hand; a field kept
        # per config would hand GRID's field to all of them
        grids = [
            GRID,
            GRID.degenerate(),
            BROKEN,
            build_grid(from_random(43, CONFIG.required_budget), CONFIG),
            sigma_zeroed(GRID, (1, 1, 1)),
        ]
        for build in (coefficient_field, matrix_coefficient_field):
            assert len({id(build(grid)) for grid in grids}) == len(grids)
        for grid in grids:
            assert_fields_are_printed(grid)


class TestScalarSystems:
    def test_dckp(self):
        assert verify_dckp(GRID).passed
        assert verify_dckp(SYM_GRID).passed

    def test_slax(self):
        assert verify_slax(GRID, samples_for(GRID)).passed
        assert verify_slax(SYM_GRID, samples_for(SYM_GRID)).passed

    def test_slax_sample_validation(self):
        with pytest.raises(ValueError):
            verify_slax(GRID, [Fraction(1), Fraction(1), Fraction(2)])
        with pytest.raises(ValueError):
            verify_slax(GRID, [Fraction(1)])

    def test_dpfl(self):
        assert verify_dpfl(coefficient_field(GRID)).passed

    def test_slax_fails_where_tau_hat_is_perturbed(self):
        report = verify_slax(BROKEN, samples_for(BROKEN))
        assert [c.id for c in report.failures] == BROKEN_LAX

    def test_fault_injection(self):
        report = verify_dckp(BROKEN)
        assert not report.passed
        # the perturbation only touches relations whose stencil meets (1,1)
        assert report.failures
        assert len(report.failures) < len(report.checks)
        for check in report.failures:
            assert "s=0" in check.id or "s=1" in check.id


class TestAntiDiagonal:
    def test_arithmetic(self):
        m = AntiDiagonal(Fraction(2), Fraction(-3))
        k = AntiDiagonal(Fraction(1), Fraction(5))
        assert m + k == AntiDiagonal(Fraction(3), Fraction(2))
        assert m - k == AntiDiagonal(Fraction(1), Fraction(-8))

    def test_product_is_diagonal(self):
        m = AntiDiagonal(Fraction(2), Fraction(-3))
        k = AntiDiagonal(Fraction(1), Fraction(5))
        assert m.times(k) == (10, -3)
        assert k.times(m) == (-3, 10)

    def test_apply_swaps_components(self):
        m = AntiDiagonal(Fraction(2), Fraction(-3))
        vec = (Polynomial.one(), Polynomial.variable())
        out = m.apply(vec)
        assert out[0] == Polynomial.variable().scale(Fraction(2))
        assert out[1] == Polynomial.one().scale(Fraction(-3))


class TestMatrixField:
    def test_degenerate_matches_scalar(self):
        degen = GRID.degenerate()
        scalar = coefficient_field(GRID)
        matrix = matrix_coefficient_field(degen)
        n, s, t = 1, 0, 1
        # sigma := tau turns both entries of A into the scalar A with the
        # opposite sign convention (lam - mu versus mu - lam)
        entry = matrix.a[(n, s, t)]
        assert entry.upper == entry.lower == -scalar.a[(n, s, t)]
        entry = matrix.b[(n, s, t)]
        assert entry.upper == entry.lower == -scalar.b[(n, s, t)]
        entry = matrix.c[(n, s, t)]
        assert entry.upper == entry.lower == -scalar.c[(n, s, t)]

    @settings(max_examples=30)
    @given(random_grids())
    def test_degenerate_entries_are_minus_the_scalar_ones(self, grid):
        scalar = coefficient_field(grid)
        matrix = matrix_coefficient_field(grid.degenerate())
        for letter in "abcd":
            want, got = getattr(scalar, letter), getattr(matrix, letter)
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key].upper == got[key].lower == -value


class TestExtendedSystems:
    def test_edckp(self):
        assert verify_edckp(GRID).passed
        assert verify_edckp(SYM_GRID).passed

    def test_edckp_degenerate(self):
        assert verify_edckp(GRID.degenerate()).passed

    def test_edlax(self):
        report = verify_edlax(GRID, samples_for(GRID))
        assert report.passed
        skipped = [c for c in report.checks if c.status == "skip"]
        assert skipped
        assert all("sigma" in c.detail or "phi" in c.detail for c in skipped)

    @settings(max_examples=30)
    @given(random_grids())
    def test_degenerate_edlax_verdicts_are_the_slax_ones(self, grid):
        # sigma := tau makes phi_2n = phi_2n+1 = q_2n and every matrix
        # coefficient minus the scalar one on both entries
        for built in (grid, BROKEN):
            samples = samples_for(built)
            slax = verify_slax(built, samples).checks
            edlax = verify_edlax(built.degenerate(), samples).checks
            assert [
                (c.id.replace("edlax", "slax"), c.status)
                for c in edlax
                if c.id.startswith("edlax")
            ] == [(c.id, c.status) for c in slax]
            assert all(c.status != "skip" for c in slax)

    def test_edlax_fails_where_tau_hat_is_perturbed(self):
        report = verify_edlax(BROKEN, samples_for(BROKEN))
        assert [c.id for c in report.failures] == [
            *(cid.replace("slax", "edlax") for cid in BROKEN_LAX),
            "phi-orthogonality:<phi0|phi2>:s=1,t=1",
            "phi-orthogonality:<phi1|phi2>:s=1,t=1",
        ]

    def test_edlax_is_an_identity_in_z(self):
        # c * prod(z - p) over the samples has degree 2*pairs+3, the sample
        # count, and vanishes at every sample.  Added to phi_(2*pairs+3) at
        # the origin it makes that odd phi non-monic, which only the up
        # term of edlax2 at n = pairs reads; a check at the samples alone
        # would pass it.
        pairs = CONFIG.pairs
        samples = samples_for(GRID)
        bump = Polynomial.one()
        for p in samples:
            bump = bump * Polynomial((-p, 1))
        bump = bump.scale(Fraction(5, 3) * GRID.tau(pairs + 1, 0, 0))
        key = (pairs + 1, 0, 0)
        tampered = with_hats(GRID, sighat={key: GRID.sigma_hat(*key) + bump})
        tag = f"edlax2:n={pairs},s=0,t=0"
        assert next(c for c in verify_edlax(GRID, samples).checks if c.id == tag).status == "pass"
        report = verify_edlax(tampered, samples)
        assert [c.id for c in report.failures] == [tag]

    def test_edlax_phi_zero_exempt_where_offset_vanishes(self):
        # lam = -mu: sigma_0 = (s*mu + t*lam)*tau_0 vanishes at (1,1) and (2,2)
        grid = MINUS_GRID
        assert grid.sigma(0, 1, 1) == 0 == grid.sigma(0, 2, 2)
        report = verify_edlax(grid, samples_for(grid))
        assert report.passed
        defined = [c for c in report.checks if c.id.startswith("phi-even-defined")]
        assert len(defined) == 9 and all(c.status == "pass" for c in defined)

    def test_edlax_requires_higher_phi_even_where_phi_zero_exempt(self):
        grid = sigma_zeroed(MINUS_GRID, (1, 1, 1))
        report = verify_edlax(grid, samples_for(grid))
        failed = [c.id for c in report.checks if c.status == "fail"]
        assert failed == ["phi-even-defined:s=1,t=1"]

    def test_edlax_requires_phi_four_at_the_origin(self):
        # only phi_0 and phi_2 are exempt at the origin; a vanishing sigma_2
        # there used to skip every relation that reads it, without a failure
        config = LatticeConfig(1, -1, 2, 1, 1)
        built = build_grid(from_random(7, config.required_budget), config)
        grid = sigma_zeroed(built, (2, 0, 0))
        assert verify_edlax(built, samples_for(built)).passed
        report = verify_edlax(grid, samples_for(grid))
        failed = [c.id for c in report.checks if c.status == "fail"]
        assert failed == ["phi-even-defined:s=0,t=0"]

    def test_phi_orthogonality_direct(self):
        s, t = 0, 1
        table = GRID.moments(s, t)
        value = skew_product(table, GRID.phi_even(0, s, t), GRID.phi_odd(0, s, t))
        assert value == GRID.tau(1, s, t) / GRID.sigma(0, s, t)
        cross = skew_product(table, GRID.phi_even(0, s, t), GRID.phi_odd(1, s, t))
        assert cross == 0

    def test_edpfl_verdicts(self):
        report = verify_edpfl(matrix_coefficient_field(GRID))
        assert report.passed
        ac = next(c for c in report.checks if c.id == "product-ac")
        assert "pattern-swapped=pass" in ac.detail
        assert "printed=fail" in ac.detail
        bc = next(c for c in report.checks if c.id == "product-bc")
        assert "pattern-swapped=pass" in bc.detail

    def test_edpfl_passes_only_on_pattern_swapped(self):
        # product-ac has instances n=1 and n=2 on a pairs=2, 2x1 box.  At
        # n=1 every factor is the identity-like (1, 1), so all variants
        # hold; at n=2 the right-hand factors do not commute and only
        # "pattern" holds.  That field passed while any variant sufficed.
        def ad(upper, lower):
            return AntiDiagonal(Fraction(upper), Fraction(lower))

        config = LatticeConfig(MU, LAM, 2, 2, 1)
        a = {(1, 1, 0): ad(1, 1), (1, 0, 0): ad(1, 1), (2, 1, 0): ad(5, 6), (2, 0, 0): ad(1, 2)}
        cc = {
            (0, 1, 0): ad(1, 1),
            (1, 0, 0): ad(1, 1),
            (1, 1, 0): ad(1, 1),
            (2, 1, 0): ad(3, 5),
            (2, 0, 0): ad(3, 5),
        }
        report = verify_edpfl(CoefficientField(config, a, {}, cc, {}))
        ac = next(c for c in report.checks if c.id == "product-ac")
        assert "pattern-swapped=fail pattern=pass" in ac.detail
        assert ac.status == "fail"
        assert [c.status for c in report.checks if c.id != "product-ac"] == ["skip"] * 3

        # Without C at (n, 0, 0) only the "printed" variants, which read C at
        # (n, 1, 0), keep instances: the relation is skipped, not failed.
        cc_printed = {k: v for k, v in cc.items() if k[1] == 1}
        report = verify_edpfl(CoefficientField(config, a, {}, cc_printed, {}))
        ac = next(c for c in report.checks if c.id == "product-ac")
        assert ac.status == "skip"
        assert ac.detail == "no admissible pattern-swapped instance"

    def test_edpfl_degeneration(self):
        report = verify_edpfl(matrix_coefficient_field(GRID.degenerate()))
        assert report.passed
        ac = next(c for c in report.checks if c.id == "product-ac")
        assert "pattern=pass" in ac.detail
        ad = next(c for c in report.checks if c.id == "product-ad")
        assert "printed=pass" in ad.detail and "pattern=pass" in ad.detail


class TestSamplePoints:
    def test_distinct_and_exclude(self):
        pts = sample_points(9, [MU, LAM])
        assert len(pts) == len(set(pts)) == 9
        assert MU not in pts and LAM not in pts

    def test_distinct_and_excluding(self):
        pts = sample_points(12, [Fraction(1, 2), Fraction(3)])
        assert len(pts) == 12 == len(set(pts))
        assert Fraction(1, 2) not in pts and Fraction(3) not in pts
        assert sample_points(3) == [Fraction(0), Fraction(1), Fraction(-1)]


# -- golden output ------------------------------------------------------


def field_json(field):
    """Every coefficient of a scalar or matrix field, keys in sorted order."""
    def value(v):
        if isinstance(v, AntiDiagonal):
            return [rat_str(v.upper), rat_str(v.lower)]
        return rat_str(v)

    stores = (field.a, field.b, field.c, field.d)
    return {
        name: [[list(key), value(store[key])] for key in sorted(store)]
        for name, store in zip("abcd", stores)
    }


def lattice_digest(grid):
    """sha256 of both coefficient fields and the dpfl, edpfl, slax and edlax
    reports of a grid, each report without its elapsed_ms."""
    samples = samples_for(grid)
    reports = [
        verify_dpfl(coefficient_field(grid)),
        verify_edpfl(matrix_coefficient_field(grid)),
        verify_slax(grid, samples),
        verify_edlax(grid, samples),
    ]
    payload = {
        "field": field_json(coefficient_field(grid)),
        "matrix_field": field_json(matrix_coefficient_field(grid)),
        "reports": [without_elapsed(r) for r in reports],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def identity_digest(grid):
    """sha256 of the crosscheck report of every stencil and the dckp and
    edckp reports of a grid, each report without its elapsed_ms."""
    c = grid.config
    reports = [
        crosscheck_single_step(grid, n, s, t)
        for n in range(c.pairs + 1)
        for s in range(c.steps_s)
        for t in range(c.steps_t)
    ]
    reports += [verify_dckp(grid), verify_edckp(grid)]
    payload = [without_elapsed(r) for r in reports]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def golden_grid(seed, mu, lam, pairs, steps_s, steps_t):
    config = LatticeConfig(rat(mu), rat(lam), pairs, steps_s, steps_t)
    return build_grid(from_random(seed, config.required_budget), config)


# Boxes past the pairs=1, 2x2 one the benchmark pins: there the additive,
# product-bd and product-bc relations have instances.  lambda = -mu makes
# sigma_0 vanish on the diagonal s = t, so the matrix field omits entries
# and edlax skips stencils.
GOLDEN = {
    "pairs2-3x3": (
        (3, "1/2", "3", 2, 3, 3), False,
        "869e0d0205256ec761b089c9c669daa553dcc592c7edde5b72d82921a591d8bb",
    ),
    "pairs2-3x3-degenerate": (
        (3, "1/2", "3", 2, 3, 3), True,
        "67c9c89016fee0be05d98d2f30c618f5e66e4edf1e4a6cfaf56e4d4f31778a9f",
    ),
    "pairs3-3x2": (
        (5, "-2", "1/3", 3, 3, 2), False,
        "5d4bd1d5c625f3fdceb82fbe3353e03be7bf24a7673e82f3f7d3c06dd4c0aa44",
    ),
    "pairs3-3x2-degenerate": (
        (5, "-2", "1/3", 3, 3, 2), True,
        "aa6e41c44324ab7c641af3cef17cbc0327d316e50135bc9f89f27e5317884a53",
    ),
    "pairs2-3x3-lambda-minus-mu": (
        (7, "1", "-1", 2, 3, 3), False,
        "7bfaff47ffdfc74516dc7d81879addd201c80b91554b8a30b6890615bb7fca36",
    ),
}


# identity_digest of the GOLDEN boxes: crosscheck (every stencil), dckp
# and edckp.  On a degenerate grid the sigma crosschecks fail.
IDENTITY_DIGESTS = {
    "pairs2-3x3":
        "81cb98c3822ef91437d9370cf25cca6233c79921f61952795b04818d0af0a890",
    "pairs2-3x3-degenerate":
        "01839b1213fe4af55f8b709554360f147abe41bf7ec55ff1de62095873bd47d8",
    "pairs3-3x2":
        "7fa7e7d1bd5a6667b57243d8ad2af92fb30b6bdbefa194cc1356cc2a2c1d0fdd",
    "pairs3-3x2-degenerate":
        "48f0190c0e7db6c49dc629f84bdfebc689c634ab867c78eecde89dde7f180da1",
    "pairs2-3x3-lambda-minus-mu":
        "5dcbbe9398246b529cee5b00b86b53d937893bfb4504164ac58a639102bd2dc8",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fields_and_reports_are_unchanged(self, name):
        args, degenerate, digest = GOLDEN[name]
        grid = golden_grid(*args)
        if degenerate:
            grid = grid.degenerate()
        assert lattice_digest(grid) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_crosscheck_and_bilinear_reports_are_unchanged(self, name):
        args, degenerate, _ = GOLDEN[name]
        grid = golden_grid(*args)
        if degenerate:
            grid = grid.degenerate()
        assert identity_digest(grid) == IDENTITY_DIGESTS[name]
