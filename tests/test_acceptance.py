"""Acceptance battery.

Each test prints one "criterion NN <description>: PASS/FAIL" line and the
final test checks the accumulated wall-clock budget.  Everything is exact
rational arithmetic; there are no tolerances anywhere.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from skewflow.cli import main as cli_main
from skewflow.lattice import (
    LatticeConfig,
    TauGrid,
    build_grid,
    coefficient_field,
    crosscheck_single_step,
    matrix_coefficient_field,
    verify_dckp,
    verify_dpfl,
    verify_edckp,
    verify_edpfl,
)
from skewflow.moments import (
    SkewMoments,
    from_discrete_orthogonal,
    from_discrete_symplectic,
    from_random,
)
from skewflow.pfaffian import pfaffian
from skewflow.sops import (
    SOPFamily,
    build_family,
    oracle_family,
    verify_skew_orthogonality,
)
from skewflow.transforms import (
    build_lax_pair,
    christoffel,
    geronimus_coeffs,
    verify_dlax,
    verify_factorization,
    verify_geronimus,
)
from oracles import (
    ORTH_MEASURE, SYM_MEASURE, degenerate, determinant, pfaffian_expand, skew_matrix,
)

DURATIONS = {}
_criterion_start = [0.0]


@contextmanager
def criterion(num, desc):
    _criterion_start[0] = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {desc}: FAIL")
        raise
    DURATIONS[num] = time.monotonic() - _criterion_start[0]
    print(f"criterion {num:02d} {desc}: PASS")


def elapsed_now():
    """Seconds since the enclosing criterion block started."""
    return time.monotonic() - _criterion_start[0]


def admissible(family, lam):
    """Nearest parameter at or above lam avoiding roots of the even members."""
    lam = Fraction(lam)
    while any(family.even(n).eval(lam) == 0 for n in range(family.pairs + 1)):
        lam += 1
    return lam


SEEDS = list(range(1, 21))
BOX_SEEDS = list(range(1, 11))
BOX_CONFIG = LatticeConfig(Fraction(1, 2), Fraction(3), 3, 2, 2)


@lru_cache(maxsize=None)
def box_grid(key):
    budget = BOX_CONFIG.required_budget
    if key == "symplectic":
        table = from_discrete_symplectic(SYM_MEASURE, budget)
    elif key == "orthogonal":
        table = from_discrete_orthogonal(ORTH_MEASURE, budget)
    else:
        table = from_random(key, budget)
    return build_grid(table, BOX_CONFIG)


BOX_KEYS = BOX_SEEDS + ["symplectic", "orthogonal"]


def test_criterion_01_pfaffian():
    with criterion(1, "Pfaffian cross-validation and squared determinant"):
        rng = random.Random(20260824)
        for dim in (2, 4, 6, 8, 10, 12):
            for _ in range(50):
                rows = [[Fraction(0)] * dim for _ in range(dim)]
                for i in range(dim):
                    for j in range(i + 1, dim):
                        v = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                        rows[i][j] = v
                        rows[j][i] = -v
                m = skew_matrix(rows)
                pf = pfaffian(m)
                assert pf == pfaffian_expand(m)
                assert pf * pf == determinant(rows)
        assert elapsed_now() < 30


def _family_tables():
    for seed in SEEDS:
        yield from_random(seed, 9)
    yield from_discrete_symplectic(SYM_MEASURE, 9)
    yield from_discrete_orthogonal(ORTH_MEASURE, 9)


def test_criterion_02_sop_construction():
    with criterion(2, "Pfaffian families equal the linear-solve oracle"):
        for table in _family_tables():
            family = build_family(table, 4)
            oracle = oracle_family(table, 4)
            projected = family.gauge_projected()
            assert projected.polys == oracle.polys
            assert projected.norms == oracle.norms
        assert elapsed_now() < 60


def test_criterion_03_christoffel():
    with criterion(3, "skew-Christoffel orthogonality and norm ratios"):
        for seed in SEEDS:
            table = from_random(seed, 10)
            family = build_family(table, 4)
            for base_lam in (Fraction(3), Fraction(-2), Fraction(1, 2)):
                lam = admissible(family, base_lam)
                transformed, shifted, _ = christoffel(family, table, lam)
                assert verify_skew_orthogonality(transformed, shifted).passed
                for n in range(transformed.pairs + 1):
                    expected = (
                        family.even(n + 1).eval(lam) / family.even(n).eval(lam)
                    ) * family.norms[n]
                    assert transformed.norms[n] == expected
        assert elapsed_now() < 60


def test_criterion_04_geronimus():
    with criterion(4, "Geronimus coefficients reconstruct the original family"):
        for seed in SEEDS:
            table = from_random(seed, 10)
            family = build_family(table, 4)
            for base_lam in (Fraction(3), Fraction(-2), Fraction(1, 2)):
                lam = admissible(family, base_lam)
                transformed, _, _ = christoffel(family, table, lam)
                data = geronimus_coeffs(transformed, family, table, lam)
                assert verify_geronimus(transformed, family, table, data).passed


def test_criterion_05_dlax():
    with criterion(5, "discrete Lax equation on the truncation window"):
        for seed in BOX_SEEDS:
            table = from_random(seed, 12)
            families = [build_family(table, 4)]
            datas = []
            moments = table
            lam = admissible(families[0], Fraction(3))
            for _ in range(3):
                lam = admissible(families[-1], lam)
                nxt, shifted, cdata = christoffel(families[-1], moments, lam)
                gdata = geronimus_coeffs(nxt, families[-1], moments, lam)
                datas.append((cdata, gdata))
                families.append(nxt)
                moments = shifted
            size = 2 * families[-1].pairs + 2
            factors = build_lax_pair(families, datas, size)
            for t in range(len(factors) - 1):
                report = verify_dlax(
                    factors[t][0],
                    factors[t][1],
                    factors[t + 1][0],
                    factors[t + 1][1],
                )
                assert report.passed


def test_criterion_06_kernel():
    with criterion(6, "kernel factorization verdict consistent across instances"):
        verdicts = set()
        for seed in SEEDS:
            table = from_random(seed, 8)
            for pairs in (1, 2, 3):
                family = build_family(table, pairs)
                for base_y in (Fraction(3), Fraction(-2), Fraction(1, 2)):
                    y = admissible(family, base_y)
                    report = verify_factorization(family, table, pairs, y)
                    assert report.passed
                    check = next(
                        c for c in report.checks if c.id == "exactly-one-form"
                    )
                    verdicts.add(check.detail)
        assert verdicts == {"a=False b=True"}


def test_criterion_07_crosschecks():
    with criterion(7, "single-step Pfaffian crosschecks on every box"):
        for key in BOX_KEYS:
            grid = box_grid(key)
            for n in range(BOX_CONFIG.pairs + 1):
                for s in range(BOX_CONFIG.steps_s):
                    for t in range(BOX_CONFIG.steps_t):
                        assert crosscheck_single_step(grid, n, s, t).passed


def test_criterion_08_bilinear():
    with criterion(8, "dcKP and edcKP bilinear identities"):
        for key in BOX_KEYS:
            grid = box_grid(key)
            assert verify_dckp(grid).passed
            assert verify_edckp(grid).passed


def test_criterion_09_nonlinear():
    with criterion(9, "dpfl, edpfl variants, and sigma-to-tau degeneration"):
        tables = []
        degen_tables = []
        for key in BOX_KEYS:
            grid = box_grid(key)
            assert verify_dpfl(coefficient_field(grid)).passed
            report = verify_edpfl(matrix_coefficient_field(grid))
            assert report.passed
            tables.append(
                tuple(
                    (c.id, c.detail)
                    for c in report.checks
                    if c.id.startswith("product-")
                )
            )
            degen = verify_edpfl(matrix_coefficient_field(degenerate(grid)))
            assert degen.passed
            degen_tables.append(
                tuple(
                    (c.id, c.detail)
                    for c in degen.checks
                    if c.id.startswith("product-")
                )
            )
            # the degeneration must realize the scalar-system index pattern
            for _, detail in degen_tables[-1]:
                assert "pattern=pass" in detail or "pattern-swapped=pass" in detail
        assert len(set(tables)) == 1
        assert len(set(degen_tables)) == 1


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "CLI determinism and lossless round-trips"):
        moments = tmp_path / "m.json"
        family = tmp_path / "f.json"
        assert cli_main([
            "gen-moments", "--kind", "random", "--max-index", "9",
            "--seed", "5", "-o", str(moments),
        ]) == 0
        assert cli_main([
            "family", "--moments", str(moments), "--pairs", "3",
            "-o", str(family),
        ]) == 0
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli_main([
                "verify", "--suite", "orthogonality", "--family", str(family),
                "--moments", str(moments), "-o", str(out),
            ]) == 0
            payload = json.loads(out.read_text())
            payload.pop("elapsed_ms", None)
            reports.append(payload)
        assert reports[0] == reports[1]

        table = SkewMoments.from_json(json.loads(moments.read_text()))
        assert SkewMoments.from_json(table.to_json()) == table
        fam = SOPFamily.from_json(json.loads(family.read_text()))
        again = SOPFamily.from_json(fam.to_json())
        assert again.polys == fam.polys and again.norms == fam.norms
        grid = box_grid(1)
        rebuilt = TauGrid.from_json(grid.to_json())
        assert rebuilt.config == grid.config
        for n in range(grid.config.pairs + 2):
            assert rebuilt.tau(n, 2, 2) == grid.tau(n, 2, 2)
            assert rebuilt.sigma_hat(n, 2, 2) == grid.sigma_hat(n, 2, 2)
        assert LatticeConfig.from_json(BOX_CONFIG.to_json()) == BOX_CONFIG


def test_criterion_11_wall_clock():
    with criterion(11, "acceptance battery wall clock under ten minutes"):
        assert set(DURATIONS) >= set(range(1, 11))
        assert sum(DURATIONS.values()) < 600
