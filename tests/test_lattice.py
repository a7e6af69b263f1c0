import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from skewflow.algebra import Polynomial, rat, rat_str, sums_to_zero
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
from oracles import (
    antidiagonal_difference,
    antidiagonal_product,
    antidiagonal_sum,
    apply_antidiagonal,
    as_form,
    bilinear_checks,
    bordered_grid_values,
    degenerate,
    dpfl_fractions,
    edpfl_fractions,
    lax_checks,
    mul,
    phi_even,
    phi_odd,
    printed_ratios,
    q_even,
    site_table,
    sop_even,
    sop_odd,
)
from strategies import fractions, polynomials

MU, LAM = Fraction(1, 2), Fraction(3)

CONFIG = LatticeConfig(MU, LAM, 2, 2, 2)
GRID = build_grid(from_random(42, CONFIG.required_budget), CONFIG)

SYM_CONFIG = LatticeConfig(MU, LAM, 1, 1, 1)
SYM_GRID = build_grid(
    from_discrete_symplectic(DiscreteMeasure([1, 2], [1, 1]), 8), SYM_CONFIG
)


def samples_for(grid):
    return sample_points(2 * grid.config.pairs + 3, [grid.config.mu, grid.config.lam])


def with_values(grid, tau=(), sigma=(), tauhat=(), sighat=()):
    """Copy of a grid with some of its values replaced (Fractions and
    Polynomials, stored as their forms)."""

    def forms(values):
        return {key: as_form(value) for key, value in dict(values).items()}

    return TauGrid(
        grid.config,
        grid.base,
        grid._blocks,
        {**grid._tau, **forms(tau)},
        {**grid._sigma, **forms(sigma)},
        {**grid._tauhat, **forms(tauhat)},
        {**grid._sighat, **forms(sighat)},
    )


@st.composite
def random_grids(draw, zero_site=False, pairs=(0, 2), steps=(1, 2)):
    """A grid over a drawn table, box and (mu, lambda); no vanishing tau.
    Its pair count lies in the closed range ``pairs`` and, without
    ``zero_site``, its step counts in ``steps``.

    With ``zero_site``, mu and lambda have denominators above 1 and the box
    holds a site (s, t) other than the origin with s*mu + t*lam = 0."""
    if zero_site:
        mu = draw(fractions(-4, 4, 5).filter(lambda x: x.denominator > 1))
        s0, t0 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        lam = -s0 * mu / t0
        assume(lam.denominator > 1)
        box = draw(st.integers(*pairs)), draw(st.integers(s0, 2)), draw(st.integers(t0, 2))
    else:
        mu, lam = draw(st.lists(fractions(-4, 4, 5), min_size=2, max_size=2, unique=True))
        box = draw(st.integers(*pairs)), draw(st.integers(*steps)), draw(st.integers(*steps))
    config = LatticeConfig(mu, lam, *box)
    m = config.required_budget
    rows = [[draw(fractions(-4, 4, 5)) for _ in range(i + 1, m + 1)] for i in range(m + 1)]
    table = SkewMoments(m, rows)
    try:
        return build_grid(table, config)
    except SingularConfiguration:
        assume(False)


# tau_hat_1 at the centre (1, 1) of the box, off by z in one coefficient
BROKEN = with_values(GRID, tauhat={(1, 1, 1): GRID.tau_hat(1, 1, 1) + Polynomial([0, 1])})
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
            table = site_table(grid, s, t)
            offset = s * c.mu + t * c.lam
            for n in range(c.pairs + 2):
                tau = numeric_pfaffian(table, range(2 * n))
                core = numeric_pfaffian(table, [*range(2 * n - 1), 2 * n]) if n else 0
                assert grid.sigma(n, s, t) == core + offset * tau
                hat = augmented_pfaffian(table, [*range(2 * n + 1), ZVAR])
                core_hat = augmented_pfaffian(table, [*range(2 * n), 2 * n + 1, ZVAR])
                assert grid.sigma_hat(n, s, t) == core_hat + hat.scale(offset)

    @settings(max_examples=25)
    @given(random_grids(steps=(0, 2)))
    def test_every_value_is_a_bordered_pfaffian_of_the_base_table(self, grid):
        # tau, sigma, tauhat and sighat at every site, read off the base
        # table bordered by s mu rows and t lambda rows (tests/oracles.py),
        # so a wrong shift, alone or composed, shows
        c = grid.config
        for s, t in grid.sites():
            for n in range(c.pairs + 2):
                assert bordered_grid_values(grid, n, s, t) == (
                    grid.tau(n, s, t),
                    grid.sigma(n, s, t),
                    grid.tau_hat(n, s, t),
                    grid.sigma_hat(n, s, t),
                )

    @settings(max_examples=30, deadline=None)
    @given(random_grids(zero_site=True))
    def test_accessors_and_json_reduce_the_stored_forms(self, grid):
        # the stores hold unreduced integer forms, over q*D^n with q > 1
        # here, and a zero offset at some site; every accessor reduces
        # its form to the value the oracle gives on the site's own table,
        # and to_json writes those reduced values
        c = grid.config
        assert any(s * c.mu + t * c.lam == 0 for s, t in grid.sites() if (s, t) != (0, 0))
        for s, t in grid.sites():
            table = site_table(grid, s, t)
            offset = s * c.mu + t * c.lam
            for n in range(c.pairs + 2):
                tau = augmented_pfaffian(table, range(2 * n))
                core = (
                    augmented_pfaffian(table, [*range(2 * n - 1), 2 * n]) if n
                    else Polynomial()
                )
                hat = augmented_pfaffian(table, [*range(2 * n + 1), ZVAR])
                core_hat = augmented_pfaffian(table, [*range(2 * n), 2 * n + 1, ZVAR])
                assert Polynomial([grid.tau(n, s, t)]) == tau
                assert Polynomial([grid.sigma(n, s, t)]) == core + tau.scale(offset)
                assert grid.tau_hat(n, s, t) == hat
                assert grid.sigma_hat(n, s, t) == core_hat + hat.scale(offset)

        def nest(read):
            return [
                [[read(n, s, t) for t in range(c.steps_t + 1)] for s in range(c.steps_s + 1)]
                for n in range(c.pairs + 2)
            ]

        assert grid.to_json() == {
            "config": c.to_json(),
            "base_moments": grid.base.to_json(),
            "tau": nest(lambda *k: rat_str(grid.tau(*k))),
            "sigma": nest(lambda *k: rat_str(grid.sigma(*k))),
            "tau_hat": nest(lambda *k: grid.tau_hat(*k).to_json()),
            "sigma_hat": nest(lambda *k: grid.sigma_hat(*k).to_json()),
        }

    def test_symplectic_sigma_one(self):
        assert SYM_GRID.sigma(1, 0, 0) == 6

    def test_shift_order(self):
        # every entry of every kept block, as a rational, is the entry of
        # the public shift chain in either order; site (s, t) keeps
        # 2*pairs+4 indices, steps_t - t more, and on the t = 0 column
        # steps_s - s more; the blocks run down the t = 0 column, then
        # along each row, the order build_grid raises in
        c = CONFIG
        for (s, t), (rows, den) in GRID._blocks.items():
            mu_first = site_table(GRID, s, t)
            lam_first = GRID.base
            for step in [LAM] * t + [MU] * s:
                lam_first = lam_first.shift(step)
            size = 2 * c.pairs + 4 + c.steps_t - t + (c.steps_s - s if t == 0 else 0)
            assert len(rows) == size and all(len(row) == size for row in rows)
            for i in range(size):
                for j in range(size):
                    value = Fraction(rows[i][j], den)
                    assert value == mu_first.entry(i, j) == lam_first.entry(i, j)
        assert list(GRID._blocks) == [(s, 0) for s in range(c.steps_s + 1)] + [
            (s, t) for s in range(c.steps_s + 1) for t in range(1, c.steps_t + 1)
        ]

    @settings(max_examples=15, deadline=None)
    @given(random_grids(steps=(0, 2)))
    def test_readers_leave_the_blocks_unchanged(self, grid):
        # the prefix passes eliminate a copy: every block is the same after
        # every crosscheck stencil, the six verifiers and to_json
        def snapshot():
            return {
                site: ([list(row) for row in rows], den)
                for site, (rows, den) in grid._blocks.items()
            }

        before = snapshot()
        c = grid.config
        for n in range(c.pairs + 1):
            for s in range(c.steps_s):
                for t in range(c.steps_t):
                    crosscheck_single_step(grid, n, s, t)
        samples = samples_for(grid)
        verify_dckp(grid)
        verify_edckp(grid)
        verify_slax(grid, samples)
        verify_edlax(grid, samples)
        verify_dpfl(coefficient_field(grid))
        verify_edpfl(matrix_coefficient_field(grid))
        grid.to_json()
        assert snapshot() == before

    def test_build_and_load_make_no_shift(self, monkeypatch):
        # the grid shifts integer blocks, never a SkewMoments
        calls = []
        shift = SkewMoments.shift
        monkeypatch.setattr(
            SkewMoments, "shift", lambda table, c: calls.append(c) or shift(table, c)
        )
        grid = build_grid(GRID.base, CONFIG)
        TauGrid.from_json(json.loads(json.dumps(grid.to_json())))
        assert calls == []
        site_table(grid, 1, 0)  # the count sees a shift
        assert calls == [MU]

    @pytest.mark.parametrize("box", [(1, 3, 1), (1, 1, 3), (0, 3, 0), (0, 0, 3), (2, 2, 1)])
    def test_box_edges(self, box):
        # long and empty rows and columns: every tau matches the oracle
        # table, the stencils pass crosscheck and edlax, and a base one
        # index short is refused with the budget message
        config = LatticeConfig(MU, LAM, *box)
        budget = config.required_budget
        grid = build_grid(from_random(42, budget), config)
        for s, t in grid.sites():
            table = site_table(grid, s, t)
            for n in range(config.pairs + 2):
                assert grid.tau(n, s, t) == numeric_pfaffian(table, range(2 * n))
        if config.steps_s and config.steps_t:
            reports = [
                crosscheck_single_step(grid, n, s, t)
                for n in range(config.pairs + 1)
                for s in range(config.steps_s)
                for t in range(config.steps_t)
            ]
            reports.append(verify_edlax(grid, samples_for(grid)))
            for report in reports:
                assert report.passed and report.checks, report.suite
        with pytest.raises(DegreeBudgetExceeded) as err:
            build_grid(from_random(42, budget - 1), config)
        assert str(err.value) == f"grid needs a base budget of {budget}, got {budget - 1}"

    def test_q_even_matches_pfaffian_formula(self):
        for s, t in GRID.sites():
            table = site_table(GRID, s, t)
            for n in range(GRID.config.pairs + 1):
                assert q_even(GRID, n, s, t) == sop_even(table, n)

    def test_phi_odd_is_gauge_shifted_sop(self):
        for s, t in GRID.sites():
            table = site_table(GRID, s, t)
            offset = s * MU + t * LAM
            for n in range(GRID.config.pairs + 1):
                expected = sop_odd(table, n) + sop_even(table, n).scale(offset)
                assert phi_odd(GRID, n, s, t) == expected

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


def crosscheck_failures(grid):
    """The failing check ids of every crosscheck stencil that has one."""
    box = grid.config
    failed = {
        (n, s, t): [c.id for c in crosscheck_single_step(grid, n, s, t).failures]
        for n in range(box.pairs + 1)
        for s in range(box.steps_s)
        for t in range(box.steps_t)
    }
    return {k: v for k, v in failed.items() if v}


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
        # sighat:s+1,t+1 reads tau_hat_1(1, 1) times the origin's offset, 0
        assert crosscheck_failures(BROKEN) == {
            (1, 0, 0): ["tauhat:s+1,t+1"],
            (1, 0, 1): ["tauhat:s+1", "sighat:s+1"],
            (1, 1, 0): ["tauhat:t+1", "sighat:t+1"],
        }

    def test_perturbed_tau_fails(self):
        grid = with_values(GRID, tau={(1, 1, 1): GRID.tau(1, 1, 1) + 1})
        # as for tau_hat: the sigma checks read tau_1(1, 1) times the base
        # site's offset, which is 0 at the origin
        assert crosscheck_failures(grid) == {
            (1, 0, 0): ["tau:s+1,t+1"],
            (1, 0, 1): ["tau:s+1", "sigma:s+1"],
            (1, 1, 0): ["tau:t+1", "sigma:t+1"],
        }

    def test_perturbed_sigma_fails(self):
        grid = with_values(GRID, sigma={(1, 1, 1): GRID.sigma(1, 1, 1) + 1})
        assert crosscheck_failures(grid) == {
            (1, 0, 0): ["sigma:s+1,t+1"],
            (1, 0, 1): ["sigma:s+1"],
            (1, 1, 0): ["sigma:t+1"],
        }

    def test_perturbed_sigma_hat_fails(self):
        key = (1, 1, 1)
        grid = with_values(GRID, sighat={key: GRID.sigma_hat(*key) + Polynomial([0, 1])})
        assert crosscheck_failures(grid) == {
            (1, 0, 0): ["sighat:s+1,t+1"],
            (1, 0, 1): ["sighat:s+1"],
            (1, 1, 0): ["sighat:t+1"],
        }

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_a_changed_tau_or_sigma_fails_exactly_the_checks_that_read_it(self, data):
        # the stored value at (n, s1, t1), s1 + t1 >= 1, is the stepped
        # value of the stencil at (n, s1 - ds, t1 - dt) for each step that
        # lands there from inside the box; a tau is also read by that
        # stencil's sigma check, times its base offset s*mu + t*lam, so that
        # check fails too wherever the offset is nonzero
        grid = data.draw(st.one_of(random_grids(), random_grids(zero_site=True)))
        c = grid.config
        name = data.draw(st.sampled_from(["tau", "sigma"]))
        n = data.draw(st.integers(0, c.pairs + 1))
        s1, t1 = data.draw(st.sampled_from([site for site in grid.sites() if sum(site) >= 1]))
        delta = data.draw(fractions(-5, 5, 7).filter(bool))
        changed = getattr(grid, name)(n, s1, t1) + delta
        want = {}
        for label, ds, dt in (("s+1", 1, 0), ("t+1", 0, 1), ("s+1,t+1", 1, 1)):
            s, t = s1 - ds, t1 - dt
            if n <= c.pairs and 0 <= s < c.steps_s and 0 <= t < c.steps_t:
                want[n, s, t] = [f"{name}:{label}"]
                if name == "tau" and s * c.mu + t * c.lam != 0:
                    want[n, s, t].append(f"sigma:{label}")
        broken = with_values(grid, **{name: {(n, s1, t1): changed}})
        assert crosscheck_failures(broken) == want

    def test_vanishing_tau_raises_from_its_stencil_on(self):
        # the (0, 0) table with s_23 chosen so that tau_2 = Pf(0..3) = 0
        base = site_table(GRID, 0, 0)
        m, e = base.max_index, base.entry
        s23 = (e(0, 2) * e(1, 3) - e(0, 3) * e(1, 2)) / e(0, 1)
        rows = [
            [s23 if (i, j) == (2, 3) else e(i, j) for j in range(i + 1, m + 1)]
            for i in range(m + 1)
        ]
        table = SkewMoments(m, rows)
        assert numeric_pfaffian(table, range(2)) != 0
        assert numeric_pfaffian(table, range(4)) == 0
        grid = TauGrid(
            CONFIG, GRID.base, {**GRID._blocks, (0, 0): table.form},
            GRID._tau, GRID._sigma, GRID._tauhat, GRID._sighat,
        )
        for n in (2, 0, 1, 2):
            if n < 2:
                assert len(crosscheck_single_step(grid, n, 0, 0).checks) == 12
                continue
            with pytest.raises(SingularConfiguration) as err:
                crosscheck_single_step(grid, n, 0, 0)
            assert str(err.value) == "tau_2 vanishes at site (0,0)"


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


def sigma_zeroed(grid, key, den=1):
    """Copy of a grid, built by hand, with sigma set to 0, held as the form
    (0, den), at one point."""
    return TauGrid(
        grid.config,
        grid.base,
        grid._blocks,
        grid._tau,
        {**grid._sigma, key: (0, den)},
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

    def test_fields_and_lattice_verifiers_form_no_fraction(self, monkeypatch):
        # both fields, slax, edlax, dpfl and edpfl run on integer forms: a
        # Fraction formed in skewflow.lattice on the way raises here
        grid = build_grid(GRID.base, CONFIG)
        samples = samples_for(grid)

        def refuse(*args):
            raise AssertionError("skewflow.lattice formed a Fraction")

        monkeypatch.setattr(lattice, "Fraction", refuse)
        reports = [
            verify_slax(grid, samples),
            verify_edlax(grid, samples),
            verify_dpfl(coefficient_field(grid)),
            verify_edpfl(matrix_coefficient_field(grid)),
        ]
        for report in reports:
            assert report.passed and report.checks, report.suite

    def test_views_are_read_only(self):
        field = coefficient_field(GRID)
        with pytest.raises(TypeError):
            field.b[0, 0, 0] = Fraction(1)
        with pytest.raises(AttributeError):
            field.b = {}

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
            degenerate(GRID),
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
        assert antidiagonal_sum(m, k) == AntiDiagonal(Fraction(3), Fraction(2))
        assert antidiagonal_difference(m, k) == AntiDiagonal(Fraction(1), Fraction(-8))

    def test_product_is_diagonal(self):
        m = AntiDiagonal(Fraction(2), Fraction(-3))
        k = AntiDiagonal(Fraction(1), Fraction(5))
        assert antidiagonal_product(m, k) == (10, -3)
        assert antidiagonal_product(k, m) == (-3, 10)

    def test_apply_swaps_components(self):
        m = AntiDiagonal(Fraction(2), Fraction(-3))
        vec = (Polynomial([1]), Polynomial([0, 1]))
        out = apply_antidiagonal(m, vec)
        assert out[0] == Polynomial([0, 1]).scale(Fraction(2))
        assert out[1] == Polynomial([1]).scale(Fraction(-3))


class TestMatrixField:
    def test_degenerate_matches_scalar(self):
        degen = degenerate(GRID)
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
        matrix = matrix_coefficient_field(degenerate(grid))
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
        assert verify_edckp(degenerate(GRID)).passed

    def test_edckp_fails_where_sigma_is_perturbed(self):
        # the edckp relations whose stencil reads sigma_1 at (1, 1): as x
        # (edckp1/3: sigma_{n+1} at (s,t), sigma_n at (s+1,t+1)) and as y
        # (edckp2: sigma_n at (s+1,t), (s,t+1); edckp4: sigma_{n+1} there)
        grid = with_values(GRID, sigma={(1, 1, 1): GRID.sigma(1, 1, 1) + 1})
        assert [c.id for c in verify_edckp(grid).failures] == [
            "edckp1:n=1,s=0,t=0",
            "edckp3:n=1,s=0,t=0",
            "edckp4:n=0,s=0,t=1",
            "edckp2:n=1,s=0,t=1",
            "edckp4:n=0,s=1,t=0",
            "edckp2:n=1,s=1,t=0",
            "edckp3:n=0,s=1,t=1",
        ]

    def test_edckp_fails_where_sigma_hat_is_perturbed(self):
        # the edckp relations whose stencil reads sighat_1 at (1, 1): as
        # xhat (edckp1/3: sighat_n at (s,t+1), (s+1,t)) and as yhat (edckp2:
        # sighat_{n-1} at (s+1,t+1), sighat_n at (s,t); edckp4: sighat_n at
        # (s+1,t+1), sighat_{n+1} at (s,t))
        key = (1, 1, 1)
        grid = with_values(GRID, sighat={key: GRID.sigma_hat(*key) + Polynomial([0, 1])})
        assert [c.id for c in verify_edckp(grid).failures] == [
            "edckp4:n=1,s=0,t=0",
            "edckp2:n=2,s=0,t=0",
            "edckp1:n=1,s=0,t=1",
            "edckp3:n=1,s=0,t=1",
            "edckp1:n=1,s=1,t=0",
            "edckp3:n=1,s=1,t=0",
            "edckp4:n=0,s=1,t=1",
            "edckp2:n=1,s=1,t=1",
        ]

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
            edlax = verify_edlax(degenerate(built), samples).checks
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
        bump = Polynomial([1])
        for p in samples:
            bump = mul(bump, Polynomial((-p, 1)))
        bump = bump.scale(Fraction(5, 3) * GRID.tau(pairs + 1, 0, 0))
        key = (pairs + 1, 0, 0)
        tampered = with_values(GRID, sighat={key: GRID.sigma_hat(*key) + bump})
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
        # at the origin phi_2n may be undefined only where the table's own
        # sigma_n vanishes; this table's sigma_2 does not, so a sigma_2
        # zeroed by hand there fails, and does not just skip every relation
        # that reads it
        config = LatticeConfig(1, -1, 2, 1, 1)
        built = build_grid(from_random(7, config.required_budget), config)
        grid = sigma_zeroed(built, (2, 0, 0))
        assert verify_edlax(built, samples_for(built)).passed
        report = verify_edlax(grid, samples_for(grid))
        failed = [c.id for c in report.checks if c.status == "fail"]
        assert failed == ["phi-even-defined:s=0,t=0"]

    def test_edlax_requires_phi_two_at_the_origin_where_s02_is_nonzero(self):
        # sigma_1 at the origin is s_02, so phi_2 must exist there when
        # s_02 != 0
        config = LatticeConfig(1, -1, 2, 1, 1)
        built = build_grid(from_random(7, config.required_budget), config)
        assert built.base.entry(0, 2) != 0
        report = verify_edlax(sigma_zeroed(built, (1, 0, 0)), samples_for(built))
        failed = [c.id for c in report.checks if c.status == "fail"]
        assert failed == ["phi-even-defined:s=0,t=0"]

    def test_edlax_passes_where_a_symmetric_measure_zeroes_every_origin_sigma(self):
        # s_ij = 0 for even i + j on a symmetric measure, so sigma_1 and
        # sigma_2 vanish at the origin and phi_2, phi_4 are undefined there
        measure = DiscreteMeasure([-3, -2, -1, 1, 2, 3], [1] * 6)
        config = LatticeConfig(Fraction(1, 2), 3, 2, 1, 1)
        grid = build_grid(from_discrete_symplectic(measure, 16), config)
        assert grid.sigma(1, 0, 0) == 0 == grid.sigma(2, 0, 0)
        report = verify_edlax(grid, samples_for(grid))
        assert report.passed
        defined = next(c for c in report.checks if c.id == "phi-even-defined:s=0,t=0")
        assert (defined.status, defined.detail) == ("pass", "monic even indices: []")

    def test_a_zero_sigma_over_any_denominator_is_zero(self):
        # a store holds sigma_n = 0 as (0, q*D^n) where core + offset*tau
        # vanishes at a site with a nonzero offset; slax and edlax read it
        # as they read (0, 1), skipping or failing the same checks
        config = LatticeConfig(1, -1, 2, 1, 1)
        built = build_grid(from_random(7, config.required_budget), config)
        for grid, key in ((MINUS_GRID, (1, 1, 1)), (built, (2, 0, 0)), (GRID, (1, 1, 1))):
            samples = samples_for(grid)
            want, held = sigma_zeroed(grid, key), sigma_zeroed(grid, key, 7)
            for verify in (verify_slax, verify_edlax):
                assert checks(verify(held, samples)) == checks(verify(want, samples))
            report = verify_edlax(held, samples)
            assert report.failures or [c for c in report.checks if c.status == "skip"]

    def test_every_suite_passes_on_the_first_benchmark_box(self):
        # the benchmark's lattice-box case 0: mu an integer and lambda a
        # third, so every form at the origin, where the offset is 0, is
        # over a denominator that differs from the other sites' by q = 3
        config = LatticeConfig(7, Fraction(-1, 3), 1, 2, 2)
        grid = build_grid(from_random(71474, config.required_budget), config)
        samples = samples_for(grid)
        reports = [
            crosscheck_single_step(grid, n, s, t)
            for n in range(config.pairs + 1)
            for s in range(config.steps_s)
            for t in range(config.steps_t)
        ]
        reports += [
            verify_dckp(grid),
            verify_edckp(grid),
            verify_slax(grid, samples),
            verify_edlax(grid, samples),
            verify_dpfl(coefficient_field(grid)),
            verify_edpfl(matrix_coefficient_field(grid)),
        ]
        for report in reports:
            assert report.passed and report.checks, report.suite

    def test_phi_orthogonality_direct(self):
        s, t = 0, 1
        table = site_table(GRID, s, t)
        value = skew_product(table, phi_even(GRID, 0, s, t), phi_odd(GRID, 0, s, t))
        assert value == GRID.tau(1, s, t) / GRID.sigma(0, s, t)
        cross = skew_product(table, phi_even(GRID, 0, s, t), phi_odd(GRID, 1, s, t))
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
        # A matrix field entry is stored as ((num, den), (num, den)).
        def ad(upper, lower):
            return (upper, 1), (lower, 1)

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
        report = verify_edpfl(matrix_coefficient_field(degenerate(GRID)))
        assert report.passed
        ac = next(c for c in report.checks if c.id == "product-ac")
        assert "pattern=pass" in ac.detail
        ad = next(c for c in report.checks if c.id == "product-ad")
        assert "printed=pass" in ad.detail and "pattern=pass" in ad.detail


def checks(report):
    return [(c.id, c.status, c.detail) for c in report.checks]


@st.composite
def perturbed_grids(draw):
    """A random grid, as built or with one value changed: tau (kept
    nonzero), sigma (to another value or to 0), tauhat or sighat (plus a
    monomial) at a drawn point."""
    grid = draw(random_grids())
    which = draw(st.sampled_from(["none", "tau", "sigma", "sigma-zero", "tauhat", "sighat"]))
    if which == "none":
        return grid
    key = draw(st.sampled_from(sorted(grid._tau)))
    delta = draw(fractions(-4, 4, 5).filter(bool))
    if which in ("tauhat", "sighat"):
        bump = Polynomial([0] * draw(st.integers(0, 2 * grid.config.pairs + 3)) + [delta])
        store = grid.tau_hat if which == "tauhat" else grid.sigma_hat
        return with_values(grid, **{which: {key: store(*key) + bump}})
    if which == "tau":
        assume(grid.tau(*key) + delta != 0)
        return with_values(grid, tau={key: grid.tau(*key) + delta})
    value = 0 if which == "sigma-zero" else grid.sigma(*key) + delta
    return with_values(grid, sigma={key: Fraction(value)})


class TestAgainstTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(perturbed_grids())
    def test_relations_in_z_match_the_polynomial_oracle(self, grid):
        # each relation checked in Polynomial arithmetic on the printed
        # coefficients (tests/oracles.py) gives the same verdicts, skips
        # and details, on built grids and on grids with one wrong value
        samples = samples_for(grid)
        dckp, edckp = bilinear_checks(grid)
        slax, edlax = lax_checks(grid)
        assert checks(verify_dckp(grid)) == dckp
        assert checks(verify_edckp(grid)) == edckp
        assert checks(verify_slax(grid, samples)) == slax
        assert checks(verify_edlax(grid, samples)) == edlax


def off_by_one(field, data):
    """A copy of a field with one drawn entry's numerator off by one (for a
    matrix entry, its upper or its lower one); the field itself where it
    has no entry."""
    stores = [dict(store) for store in (field._a, field._b, field._c, field._d)]
    entries = [(i, key) for i, store in enumerate(stores) for key in sorted(store)]
    if not entries:
        return field
    i, key = data.draw(st.sampled_from(entries))
    entry = stores[i][key]
    if type(entry[0]) is int:
        stores[i][key] = (entry[0] + 1, entry[1])
    else:
        parts, which = list(entry), data.draw(st.integers(0, 1))
        num, den = parts[which]
        parts[which] = (num + 1, den)
        stores[i][key] = tuple(parts)
    return CoefficientField(field.config, *stores)


def report_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True)


class TestFieldsAgainstFractions:
    @settings(max_examples=30, deadline=None)
    @given(random_grids(pairs=(1, 3), steps=(2, 2)), st.booleans(), st.data())
    def test_integer_fields_match_the_fraction_construction(self, grid, collapse, data):
        # the views reduce to the printed formulas, and dpfl and edpfl on the
        # integer forms write the bytes of the Fraction reports
        # (tests/oracles.py), on each field as built and with one entry's
        # numerator off by one; a 2x2 box gives instances to product-ac
        # and product-ad, and pairs >= 2 to every relation
        if collapse:
            grid = degenerate(grid)
        assert_fields_are_printed(grid)
        for build, verify, oracle in (
            (coefficient_field, verify_dpfl, dpfl_fractions),
            (matrix_coefficient_field, verify_edpfl, edpfl_fractions),
        ):
            for field in (build(grid), off_by_one(build(grid), data)):
                assert report_bytes(verify(field)) == report_bytes(oracle(field))


class TestSumsToZero:
    def test_denominators_of_either_sign(self):
        # (1 + 2z)/2 + (1 + 2z)/(-2) = 0, and -(1/3) + 1/(-3) != 0
        one = lattice._ONE
        assert sums_to_zero([(1, one, (1, 2), 2), (1, one, (1, 2), -2)])
        assert not sums_to_zero([(1, one, (1, 2), 2), (1, one, (1, 2), 2)])
        assert sums_to_zero([(1, one, (1,), -3), (1, one, (1,), 3)])
        assert not sums_to_zero([(-1, one, (1,), 3), (1, one, (1,), -3)])

    def test_terms_of_different_lengths(self):
        # (z - 1)(z + 1) - (z^2 - 1) = 0; a constant term left over is not
        assert sums_to_zero([(1, (-1, 1), (1, 1), 1), (-1, lattice._ONE, (-1, 0, 1), 1)])
        assert not sums_to_zero([(1, (-1, 1), (1, 1), 1), (-1, lattice._ONE, (0, 0, 1), 1)])

    def test_top_coefficients_cancel(self):
        # (z + z^3)/2 - z^3/2 is z/2, not zero, though the tops cancel;
        # adding -z/2 (over -2, with a positive scalar) makes it zero
        terms = [(1, (0, 1), (1, 0, 1), 2), (-1, lattice._ONE, (0, 0, 0, 1), 2)]
        assert not sums_to_zero(terms)
        assert sums_to_zero(terms + [(1, lattice._ONE, (0, 1), -2)])

    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 5), polynomials(2), polynomials(4),
                st.integers(-30, 30).filter(bool),
            ),
            min_size=1, max_size=4,
        ),
        st.sampled_from([1, -1]),
    )
    def test_agrees_with_polynomial_arithmetic(self, terms, sign):
        # sum k f v / d over Polynomial terms with f, v of any denominators
        total = Polynomial()
        ints = []
        for k, f, v, d in terms:
            total = total + mul(f, v).scale(Fraction(k, d))
            ints.append((k, f.num, v.num, d * f.den * v.den))
        assert sums_to_zero(ints) == (total == Polynomial())
        # closed by minus the sum, over a denominator of either sign
        closing = (-sign, lattice._ONE, total.num, sign * total.den)
        assert sums_to_zero(ints + [closing])

    def test_every_relation_in_z_is_one_sum(self, monkeypatch):
        # the crosscheck's six identities in z are its two-term case, and
        # its six scalar ones one cross-multiplication each; dckp/edckp
        # sum four terms, and slax/edlax three or four per component
        sizes, products = [], []
        monkeypatch.setattr(
            lattice, "sums_to_zero", lambda terms: sizes.append(len(terms)) or sums_to_zero(terms)
        )
        same_product = lattice._same_product
        monkeypatch.setattr(
            lattice, "_same_product", lambda *f: products.append(f) or same_product(*f)
        )
        assert crosscheck_single_step(GRID, 1, 0, 0).passed
        assert sizes == [2] * 6
        assert len(products) == 6
        for verify, lengths in (
            (verify_dckp, {4}),
            (verify_edckp, {4}),
            (lambda g: verify_slax(g, samples_for(g)), {3, 4}),
            (lambda g: verify_edlax(g, samples_for(g)), {3, 4}),
        ):
            sizes.clear()
            assert verify(GRID).passed
            assert set(sizes) == lengths


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
        args, collapse, digest = GOLDEN[name]
        grid = golden_grid(*args)
        if collapse:
            grid = degenerate(grid)
        assert lattice_digest(grid) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_crosscheck_and_bilinear_reports_are_unchanged(self, name):
        args, collapse, _ = GOLDEN[name]
        grid = golden_grid(*args)
        if collapse:
            grid = degenerate(grid)
        assert identity_digest(grid) == IDENTITY_DIGESTS[name]
