import contextlib
import io
import json
import math
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewflow import cli
from skewflow.algebra import Polynomial
from skewflow.cli import main
from skewflow.moments import MAX_INDEX
from skewflow.report import Report
from skewflow.sops import GAUGES, SOPFamily

GRID_SUITES = ("dckp", "slax", "dpfl", "edckp", "edlax", "edpfl", "crosscheck")


def read(path):
    return json.loads(path.read_text())


# Tampering of one stored grid field, an (n, s, t) nested list.
def truncate(field):
    field[1][0].pop()


def zero_all(field):
    for plane in field:
        for row in plane:
            row[:] = ["0/1"] * len(row)


def bumped(value):
    x = Fraction(value) + 1
    return f"{x.numerator}/{x.denominator}"


def change_value(field):
    field[1][1][1] = bumped(field[1][1][1])


def change_coefficient(field):
    field[1][1][1][0] = bumped(field[1][1][1][0])


def set_entry(value):
    def tamper(field):
        field[0][1][0] = value
    return tamper


def extend(field):
    field[1][1].append(field[1][1][0])


@pytest.fixture
def sym_moments(tmp_path):
    path = tmp_path / "sym.json"
    assert main([
        "gen-moments", "--kind", "symplectic", "--max-index", "12",
        "--nodes", "1,2", "--weights", "1,1", "-o", str(path),
    ]) == 0
    return path


@pytest.fixture
def random_setup(tmp_path):
    moments = tmp_path / "moments.json"
    family = tmp_path / "family.json"
    assert main([
        "gen-moments", "--kind", "random", "--max-index", "9",
        "--seed", "3", "-o", str(moments),
    ]) == 0
    assert main([
        "family", "--moments", str(moments), "--pairs", "2",
        "-o", str(family),
    ]) == 0
    return moments, family


@pytest.fixture
def grid_file(tmp_path):
    moments = tmp_path / "m.json"
    grid = tmp_path / "g.json"
    assert main([
        "gen-moments", "--kind", "random", "--max-index", "8",
        "--seed", "7", "-o", str(moments),
    ]) == 0
    assert main([
        "grid", "--moments", str(moments), "--mu", "1/2", "--lambda", "3",
        "--pairs", "1", "--steps-s", "1", "--steps-t", "1",
        "-o", str(grid),
    ]) == 0
    return grid


class TestEndToEnd:
    def test_symplectic_family(self, tmp_path, sym_moments):
        out = tmp_path / "family.json"
        assert main([
            "family", "--moments", str(sym_moments), "--pairs", "1",
            "-o", str(out),
        ]) == 0
        family = SOPFamily.from_json(read(out))
        assert family.even(1) == Polynomial.from_json(["5/2", "-3/1", "1/1"])
        assert family.norms == (Fraction(2), Fraction(1, 2))

    def test_orthogonality_suite(self, tmp_path, random_setup, capsys):
        moments, family = random_setup
        out = tmp_path / "report.json"
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(family),
            "--moments", str(moments), "-o", str(out),
        ]) == 0
        payload = read(out)
        assert payload["suite"] == "orthogonality"
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert "status=pass" in capsys.readouterr().err

    def test_transform_round_trip(self, tmp_path, random_setup):
        moments, family = random_setup
        fam_out = tmp_path / "fam2.json"
        mom_out = tmp_path / "mom2.json"
        data_out = tmp_path / "data.json"
        assert main([
            "transform", "--family", str(family), "--moments", str(moments),
            "--lambda", "3", "-o", str(fam_out),
            "--moments-out", str(mom_out), "--data-out", str(data_out),
        ]) == 0
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(fam_out),
            "--moments", str(mom_out),
        ]) == 0
        steps = read(data_out)["steps"]
        assert len(steps) == 1
        assert steps[0]["lambda"] == "3/1"
        assert steps[0]["even_coeffs"][0] == ["-3/1"]

    def test_grid_suites(self, grid_file):
        for suite in ("dckp", "slax", "edckp", "edlax", "crosscheck"):
            assert main(["verify", "--suite", suite, "--grid", str(grid_file)]) == 0

    def test_dlax_chain(self, tmp_path, random_setup):
        # pairs=3 leaves a nonempty truncation window after two steps
        moments, _ = random_setup
        family = tmp_path / "family3.json"
        out = tmp_path / "report.json"
        assert main([
            "family", "--moments", str(moments), "--pairs", "3",
            "-o", str(family),
        ]) == 0
        assert main([
            "verify", "--suite", "dlax", "--family", str(family),
            "--moments", str(moments), "--lambda", "3", "--lambda", "3",
            "-o", str(out),
        ]) == 0
        assert len(read(out)["checks"]) == 4


class TestExitCodes:
    def test_missing_flag(self):
        assert main(["family", "--pairs", "2"]) == 3

    def test_bad_rational(self, random_setup, tmp_path):
        moments, family = random_setup
        assert main([
            "transform", "--family", str(family), "--moments", str(moments),
            "--lambda", "abc",
        ]) == 3

    def test_bad_threads(self, monkeypatch, random_setup):
        moments, family = random_setup
        monkeypatch.setenv("SKEWFLOW_THREADS", "many")
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(family),
            "--moments", str(moments),
        ]) == 3
        monkeypatch.setenv("SKEWFLOW_THREADS", "0")
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(family),
            "--moments", str(moments),
        ]) == 3

    def test_threads_recorded(self, monkeypatch, tmp_path, random_setup):
        moments, family = random_setup
        monkeypatch.setenv("SKEWFLOW_THREADS", "4")
        out = tmp_path / "r.json"
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(family),
            "--moments", str(moments), "-o", str(out),
        ]) == 0
        assert read(out)["instance"]["threads"] == 4

    @pytest.mark.parametrize("suite", ["christoffel", "geronimus"])
    def test_single_step_suites_refuse_a_second_lambda(self, suite, random_setup, capsys):
        moments, family = random_setup
        assert main([
            "verify", "--suite", suite, "--family", str(family),
            "--moments", str(moments), "--lambda", "3", "--lambda", "5",
        ]) == 3
        assert capsys.readouterr().err == "error: this suite takes one --lambda value\n"

    def test_mixed_lambda_dlax(self, random_setup):
        moments, family = random_setup
        assert main([
            "verify", "--suite", "dlax", "--family", str(family),
            "--moments", str(moments), "--lambda", "3", "--lambda", "4",
        ]) == 3

    def test_negative_kernel_order(self, random_setup, capsys):
        moments, family = random_setup
        capsys.readouterr()
        assert main([
            "verify", "--suite", "kernel", "--family", str(family),
            "--moments", str(moments), "--y", "2", "--pairs", "-1",
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: bad input (kernel order must be nonnegative, got -1)"
        ]

    # a negative count is an input error, whatever the pass would make of it
    @pytest.mark.parametrize("pairs", ["-1", "-3"])
    def test_negative_family_pairs(self, random_setup, capsys, pairs):
        moments, _ = random_setup
        capsys.readouterr()
        assert main(["family", "--moments", str(moments), "--pairs", pairs]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: bad input (pairs must be nonnegative, got {pairs})"
        ]

    # q_2 + 7 on a pairs=2 family; every norm times 7 and q_3 + 5 on a
    # pairs=3 one; every norm times 7 alone.  Each still has a kernel that
    # vanishes at x = y.
    @pytest.mark.parametrize(
        "budget, pairs, member, shift, factor",
        [(10, 2, 2, 7, 1), (9, 3, 3, 5, 7), (9, 3, 3, 0, 7)],
    )
    def test_corrupted_family_fails_kernel(
        self, tmp_path, capsys, budget, pairs, member, shift, factor
    ):
        moments, family = tmp_path / "m.json", tmp_path / "f.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", str(budget),
            "--seed", "3", "-o", str(moments),
        ]) == 0
        assert main([
            "family", "--moments", str(moments), "--pairs", str(pairs), "-o", str(family),
        ]) == 0
        data = read(family)
        coeffs = data["polys"][member]
        coeffs[0] = str(Fraction(coeffs[0]) + shift)
        data["norms"] = [str(Fraction(r) * factor) for r in data["norms"]]
        family.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([
            "verify", "--suite", "kernel", "--family", str(family),
            "--moments", str(moments), "--y", "2", "--y", "1/3",
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        # both y values fail; the first failure is named
        assert err[0].endswith(
            "failures=2 status=fail first=y=2/1:exactly-one-form a=False b=False"
        )

    def test_kernel_on_a_table_too_small(self, tmp_path, random_setup, capsys):
        # the pairs=2 kernel has degree 5; a max_index 4 table cannot pair it
        _, family = random_setup
        small = tmp_path / "small.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "4", "-o", str(small),
        ]) == 0
        capsys.readouterr()
        assert main([
            "verify", "--suite", "kernel", "--family", str(family),
            "--moments", str(small), "--y", "2",
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("family", "-o"),
            ("transform", "-o"),
            ("transform", "--moments-out"),
            ("transform", "--data-out"),
            ("verify", "-o"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output(self, tmp_path, random_setup, capsys, command, flag, target):
        moments, family = random_setup
        path = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
        argv = {
            "family": ["family", "--moments", str(moments), "--pairs", "1"],
            "transform": [
                "transform", "--family", str(family), "--moments", str(moments),
                "--lambda", "3",
            ],
            "verify": [
                "verify", "--suite", "orthogonality", "--family", str(family),
                "--moments", str(moments),
            ],
        }[command]
        capsys.readouterr()
        assert main([*argv, flag, str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {path}: ")

    def test_max_index_over_the_limit(self, tmp_path, monkeypatch, capsys):
        # the (max_index + 1)^2 table must be refused before it is allocated
        def no_table(*args):
            raise AssertionError("table allocated")

        monkeypatch.setattr("skewflow.moments._skew_form", no_table)
        monkeypatch.setattr(cli, "from_random", no_table)
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"max_index": 10**6, "entries": []}))
        capsys.readouterr()
        assert main(["family", "--moments", str(big), "--pairs", "1"]) == 3
        assert main(["gen-moments", "--kind", "random", "--max-index", "1000000"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad input (max_index 1000000 exceeds the limit {MAX_INDEX})",
            f"error: --max-index must be at most {MAX_INDEX}",
        ]

    # 1/q entries with distinct random 100-bit q, and gen-moments at a
    # 10**30 bound: small inputs whose integer form, over the lcm of every
    # denominator, would cost tens of seconds and hundreds of MB
    @pytest.mark.parametrize("source", ["file", "random"])
    def test_integer_form_over_the_limit(self, tmp_path, capsys, source):
        if source == "file":
            rng, m = random.Random(1), 60
            entries = [
                [i, j, f"1/{rng.getrandbits(100) | 1 << 99}"]
                for i in range(m + 1)
                for j in range(i + 1, m + 1)
            ]
            moments = tmp_path / "coprime.json"
            moments.write_text(json.dumps({"max_index": m, "entries": entries}))
            argv = ["family", "--moments", str(moments), "--pairs", "1"]
        else:
            argv = [
                "gen-moments", "--kind", "random", "--max-index", "60",
                "--bound", str(10**30), "-o", str(tmp_path / "m.json"),
            ]
        capsys.readouterr()
        started = time.monotonic()
        assert main(argv) == 3
        assert time.monotonic() - started < 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bad input (integer form too large: bits(lcm of the entry"
            " denominators) * (max_index + 1)^2 exceeds the limit 2^28)"
        ]

    # ensemble tables that took seconds and wrote tens of MB, or built the
    # whole table and then failed on Python's int-to-string digit limit
    @pytest.mark.parametrize(
        "kind, nodes, max_index",
        [
            ("orthogonal", "1/99999999999999999,2", 140),
            ("orthogonal", "1/99999999999999999,2", 200),
            ("orthogonal", f"1,{10**40}", 100),
            ("orthogonal", f"1,{10**40}", 160),
            ("symplectic", f"1,{10**40}", 160),
        ],
    )
    def test_ensemble_form_over_the_limit(self, tmp_path, capsys, kind, nodes, max_index):
        out = tmp_path / "m.json"
        capsys.readouterr()
        started = time.monotonic()
        assert main([
            "gen-moments", "--kind", kind, f"--nodes={nodes}", "--weights=1,1",
            "--max-index", str(max_index), "-o", str(out),
        ]) == 3
        assert time.monotonic() - started < 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bad input (integer form too large: estimated bits of its"
            " largest integer * (max_index + 1)^2 exceeds the limit 2^28)"
        ]
        assert not out.exists()

    def test_singular_family(self, tmp_path, sym_moments):
        # the two-node symplectic table has rank four, so a third pair
        # cannot exist
        assert main([
            "family", "--moments", str(sym_moments), "--pairs", "2",
        ]) == 2

    @pytest.mark.parametrize(
        "entries, norm",
        [
            # s_01 = 0, so tau_1 = r_0 = 0
            ([[0, 2, "1"], [0, 3, "2/3"], [1, 2, "-1"], [2, 3, "1"]], 0),
            # tau_1 = s_01 = 1 but tau_2 = s01*s23 - s02*s13 + s03*s12 = 0
            ([[0, 1, "1"], [0, 2, "1"], [1, 2, "1"], [1, 3, "1"], [2, 3, "1"]], 1),
        ],
    )
    def test_vanishing_tau_is_a_vanishing_norm(self, tmp_path, capsys, entries, norm):
        table = tmp_path / "m.json"
        table.write_text(json.dumps({"max_index": 3, "entries": entries}))
        capsys.readouterr()
        assert main(["family", "--moments", str(table), "--pairs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"singular configuration: normalization r_{norm} vanishes"
        ]

    def test_failing_suite(self, tmp_path, random_setup, capsys):
        moments, family = random_setup
        other = tmp_path / "other.json"
        out = tmp_path / "report.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "9",
            "--seed", "4", "-o", str(other),
        ]) == 0
        capsys.readouterr()
        assert main([
            "verify", "--suite", "orthogonality", "--family", str(family),
            "--moments", str(other), "-o", str(out),
        ]) == 1
        err = capsys.readouterr().err
        first = next(c for c in read(out)["checks"] if c["status"] == "fail")
        assert err.count("\n") == 1
        assert err.rstrip("\n").endswith(
            f"status=fail first={first['id']} {first['detail']}"
        )

    @pytest.mark.parametrize(
        "suite, failing", [("christoffel", "<q"), ("geronimus", "reconstruct-")]
    )
    def test_transform_suite_on_other_moments(
        self, tmp_path, random_setup, suite, failing
    ):
        moments, family = random_setup
        other = tmp_path / "other.json"
        out = tmp_path / "report.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "9",
            "--seed", "4", "-o", str(other),
        ]) == 0
        argv = ["verify", "--suite", suite, "--family", str(family),
                "--lambda", "3", "-o", str(out)]
        assert main([*argv, "--moments", str(moments)]) == 0
        assert main([*argv, "--moments", str(other)]) == 1
        failed = [c["id"] for c in read(out)["checks"] if c["status"] == "fail"]
        assert failed and all(cid.startswith(failing) for cid in failed)

    def test_zero_denominator_in_file(self, tmp_path, random_setup, capsys):
        moments, _ = random_setup
        data = read(moments)
        data["entries"][0][2] = "1/0"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["family", "--moments", str(tampered), "--pairs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1/0" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [0.1, True])
    def test_inexact_number_in_file(self, tmp_path, random_setup, capsys, value):
        moments, _ = random_setup
        data = read(moments)
        data["entries"][0][2] = value
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["family", "--moments", str(tampered), "--pairs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(value) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, site, tamper",
        [
            pytest.param("tau", (1, 0, 1), truncate, id="tau"),
            pytest.param("sigma", (1, 0, 1), truncate, id="sigma"),
            pytest.param("tau_hat", (1, 0, 1), truncate, id="tau_hat"),
            pytest.param("sigma_hat", (1, 0, 1), truncate, id="sigma_hat"),
            # a value build_grid never writes
            pytest.param("tau", (0, 0, 0), zero_all, id="zero-tau"),
            pytest.param("sigma", (1, 1, 1), change_value, id="changed-sigma"),
            pytest.param(
                "sigma_hat", (1, 1, 1), change_coefficient, id="changed-sigma_hat"
            ),
            # tau_0 = 1: equal values, but not exact rationals
            pytest.param("tau", (0, 1, 0), set_entry(1.0), id="float-tau"),
            pytest.param("tau", (0, 1, 0), set_entry(True), id="bool-tau"),
            pytest.param("sigma", (0, 1, 0), set_entry("1/0"), id="zero-denominator"),
            pytest.param("tau_hat", (0, 1, 0), set_entry("1/1"), id="unnested-tau_hat"),
            pytest.param("sigma", (1, 1, 2), extend, id="extra-sigma"),
        ],
    )
    def test_truncated_grid(self, grid_file, capsys, field, site, tamper):
        data = read(grid_file)
        tamper(data[field])
        grid_file.write_text(json.dumps(data))
        n, s, t = site
        for suite in GRID_SUITES:
            capsys.readouterr()
            assert main(["verify", "--suite", suite, "--grid", str(grid_file)]) == 3
            assert capsys.readouterr().err == (
                f"error: bad input (grid field {field!r} differs from the grid "
                f"rebuilt from config and base_moments at n={n}, s={s}, t={t})\n"
            )

    def test_equal_spellings_of_grid_values(self, tmp_path, capsys):
        # every "p/q" written as "2p/2q", and every tau equal to 1 as the
        # JSON integer 1: the same values, but not the fields to_json writes,
        # so the file is refused at its first entry
        moments, canonical = tmp_path / "m.json", tmp_path / "g.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "10",
            "--seed", "7", "-o", str(moments),
        ]) == 0
        assert main([
            "grid", "--moments", str(moments), "--mu", "1/2", "--lambda", "3",
            "--pairs", "1", "--steps-s", "2", "--steps-t", "2", "-o", str(canonical),
        ]) == 0

        def respell(value):
            if isinstance(value, list):
                return [respell(v) for v in value]
            num, den = value.split("/")
            return f"{2 * int(num)}/{2 * int(den)}"

        data = read(canonical)
        for name in ("tau", "sigma", "tau_hat", "sigma_hat"):
            data[name] = respell(data[name])
        data["tau"] = [
            [[1 if v == "2/2" else v for v in row] for row in plane]
            for plane in data["tau"]
        ]
        assert 1 in data["tau"][0][0]
        respelled = tmp_path / "respelled.json"
        respelled.write_text(json.dumps(data))
        for suite in GRID_SUITES:
            assert main(["verify", "--suite", suite, "--grid", str(canonical)]) == 0
            capsys.readouterr()
            assert main(["verify", "--suite", suite, "--grid", str(respelled)]) == 3
            assert capsys.readouterr().err == (
                "error: bad input (grid field 'tau' differs from the grid rebuilt "
                "from config and base_moments at n=0, s=0, t=0)\n"
            )

    @pytest.mark.parametrize("field", ["pairs", "steps_s", "steps_t"])
    def test_grid_config_counts_are_integers(self, grid_file, capsys, field):
        # the grid was built with pairs = steps = 1, so true and 1.0 equal
        # the stored count but are not JSON integers
        data = read(grid_file)
        assert data["config"][field] == 1
        for value in (True, 1.0):
            data["config"][field] = value
            grid_file.write_text(json.dumps(data))
            for suite in GRID_SUITES:
                capsys.readouterr()
                assert main(["verify", "--suite", suite, "--grid", str(grid_file)]) == 3
                assert capsys.readouterr().err == (
                    f"error: bad input ({field} must be an integer, got {value!r})\n"
                )

    def test_dlax_on_other_moments(self, tmp_path, random_setup, capsys):
        # L rows depend on the family alone; the R rows come from pairings
        # on the table, so a table the family was not built from fails one
        moments, _ = random_setup
        family, other = tmp_path / "family3.json", tmp_path / "other.json"
        assert main([
            "family", "--moments", str(moments), "--pairs", "3", "-o", str(family),
        ]) == 0
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "9",
            "--seed", "4", "-o", str(other),
        ]) == 0
        argv = ["verify", "--suite", "dlax", "--family", str(family),
                "--lambda", "3", "--lambda", "3"]
        assert main([*argv, "--moments", str(moments)]) == 0
        capsys.readouterr()
        assert main([*argv, "--moments", str(other)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"singular configuration: R row \d+ fails at step 0\n", err)

    def test_crosscheck_on_corrupt_base_table(self, tmp_path, capsys):
        # s_01 = 0 in the base table makes tau_1 of the (0, 0) table vanish,
        # while the stored tau values still come from the true table; every
        # grid suite rebuilds the grid from that table and stops there
        moments, grid = tmp_path / "m.json", tmp_path / "g.json"
        assert main([
            "gen-moments", "--kind", "random", "--max-index", "8",
            "--seed", "42", "-o", str(moments),
        ]) == 0
        assert main([
            "grid", "--moments", str(moments), "--mu", "1/2", "--lambda", "3",
            "--pairs", "1", "--steps-s", "1", "--steps-t", "1", "-o", str(grid),
        ]) == 0
        data = read(grid)
        assert data["base_moments"]["entries"][0][:2] == [0, 1]
        data["base_moments"]["entries"][0][2] = "0/1"
        grid.write_text(json.dumps(data))
        for suite in GRID_SUITES:
            capsys.readouterr()
            assert main(["verify", "--suite", suite, "--grid", str(grid)]) == 2
            err = capsys.readouterr().err
            assert err == "singular configuration: tau_1 vanishes at site (0,0)\n"

    @pytest.mark.parametrize("suite", ["dlax", "dpfl", "edpfl"])
    def test_vacuous_suite(self, tmp_path, random_setup, grid_file, capsys, suite):
        # dlax: a pairs=2 family over two steps has an empty window; dpfl
        # and edpfl: a 1x1 box has no relation (edpfl records only skips)
        moments, family = random_setup
        out = tmp_path / "report.json"
        if suite == "dlax":
            inputs = ["--family", str(family), "--moments", str(moments),
                      "--lambda", "3", "--lambda", "3"]
        else:
            inputs = ["--grid", str(grid_file)]
        capsys.readouterr()
        assert main(["verify", "--suite", suite, *inputs, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: suite {suite} evaluated no check on this input\n"
        assert not out.exists()

    @pytest.mark.parametrize("gauge", [5, "nope", None, True])
    def test_unknown_gauge(self, tmp_path, random_setup, capsys, gauge):
        moments, family = random_setup
        data = read(family)
        tampered = tmp_path / "tampered.json"
        out = tmp_path / "report.json"
        argv = ["verify", "--suite", "orthogonality", "--family", str(tampered),
                "--moments", str(moments), "-o", str(out)]
        for label in GAUGES:
            tampered.write_text(json.dumps({**data, "gauge": label}))
            assert main(argv) == 0
        out.unlink()
        tampered.write_text(json.dumps({**data, "gauge": gauge}))
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: bad input (unknown gauge {gauge!r})\n"
        assert not out.exists()

    def test_duplicate_moment_entry(self, tmp_path, capsys):
        # a later [i, j, v] used to overwrite an earlier one: s_01 = 5 loaded
        moments = tmp_path / "m.json"
        assert main(["gen-moments", "--kind", "random", "--max-index", "8",
                     "-o", str(moments)]) == 0
        data = read(moments)
        data["entries"].append([0, 1, "5/1"])
        moments.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["family", "--moments", str(moments), "--pairs", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: bad input (duplicate entry: an index pair (i, j) is given"
            " more than once)"
        ]

    # a string of shifts was extended as its characters, and an int
    # provenance loaded for family but crashed transform and grid
    @pytest.mark.parametrize(
        "provenance, command, message",
        [
            ({"shifts": "ab"}, "transform",
             "provenance shifts must be a list, got 'ab'"),
            (5, "family", "provenance must be a JSON object, got 5"),
            (5, "transform", "provenance must be a JSON object, got 5"),
            (5, "grid", "provenance must be a JSON object, got 5"),
        ],
        ids=["string-shifts", "int-family", "int-transform", "int-grid"],
    )
    def test_provenance_is_read_as_written(
        self, tmp_path, random_setup, capsys, provenance, command, message
    ):
        moments, family = random_setup
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({**read(moments), "provenance": provenance}))
        argv = {
            "family": ["family", "--pairs", "2"],
            "transform": ["transform", "--family", str(family), "--lambda", "5",
                          "--moments-out", str(tmp_path / "out.json")],
            "grid": ["grid", "--mu", "1/2", "--lambda", "3", "--pairs", "1",
                     "--steps-s", "1", "--steps-t", "1"],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--moments", str(tampered)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: bad input ({message})"]
        assert not (tmp_path / "out.json").exists()

    def test_negative_max_index_before_entries(self, tmp_path, capsys):
        # the entry loop used to run first and name the entry, not the index
        moments = tmp_path / "m.json"
        moments.write_text(json.dumps({"max_index": -1, "entries": [[0, 1, "1/1"]]}))
        capsys.readouterr()
        assert main(["family", "--moments", str(moments), "--pairs", "0"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: bad input (max_index must be nonnegative)"
        ]

    # a string used to load as its characters ("01" as 0 + z), and pairs
    # was never read
    @pytest.mark.parametrize(
        "tamper, message",
        [
            ({"pairs": 0, "polys": ["1", "01"], "norms": ["1"]},
             "a polynomial must be a list of coefficients, got '1'"),
            ({"pairs": 0, "polys": [["1"], ["0", "1"]], "norms": "1"},
             "a family's norms must be a list"),
            ({"pairs": 7}, "pairs 7 does not match 6 polys"),
            ({"pairs": True}, "pairs True does not match 6 polys"),
        ],
        ids=["string-members", "string-norms", "pairs-mismatch", "pairs-bool"],
    )
    def test_family_fields_are_read_as_written(
        self, tmp_path, random_setup, capsys, tamper, message
    ):
        moments, family = random_setup
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps({**read(family), **tamper}))
        capsys.readouterr()
        assert main(["verify", "--suite", "orthogonality", "--family", str(tampered),
                     "--moments", str(moments)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: bad input ({message})"]

    def test_unknown_suite(self, random_setup):
        moments, family = random_setup
        assert main([
            "verify", "--suite", "nope", "--family", str(family),
            "--moments", str(moments),
        ]) == 3


class TestParser:
    def test_built_once_without_shared_values(self, monkeypatch):
        seen = []

        def record(args):
            seen.append((args.lam, args.y))
            report = Report(args.suite)
            report.add("seen", True)
            return report

        monkeypatch.setitem(cli.SUITES, "kernel", record)
        assert main(["verify", "--suite", "kernel",
                     "--lambda", "1", "--lambda", "2", "--y", "5"]) == 0
        assert main(["verify", "--suite", "kernel", "--lambda", "3",
                     "--y", "7", "--y", "8"]) == 0
        assert seen == [(["1", "2"], ["5"]), (["3"], ["7", "8"])]
        assert cli._build_parser() is cli._build_parser()


class TestDeterminism:
    def strip(self, payload):
        payload.pop("elapsed_ms", None)
        return payload

    def test_verify_byte_stable(self, tmp_path, random_setup):
        moments, family = random_setup
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "verify", "--suite", "orthogonality", "--family", str(family),
                "--moments", str(moments), "-o", str(out),
            ]) == 0
        assert self.strip(read(a)) == self.strip(read(b))

    def test_gen_moments_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "gen-moments", "--kind", "random", "--max-index", "7",
                "--seed", "11", "-o", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


# -- the JSON writer ---------------------------------------------------


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


def outcome(write, value):
    """The text write makes of value, or the type and message it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# json spells an int, float or str subclass by its value, not its repr
class Str(str):
    def __repr__(self):
        return "Str()"


class Int(int):
    def __repr__(self):
        return "Int()"


class Float(float):
    def __repr__(self):
        return "Float()"


class Dict(dict):
    pass


class List(list):
    pass


json_text = st.text(alphabet=st.one_of(
    st.characters(exclude_categories=()),
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028'),
))
json_ints = st.one_of(
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), -(2**64) - 1, 2**63 - 1, -(2**63)]),
)
json_floats = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e308, -1e308, 5e-324])
)
json_scalars = st.one_of(
    st.none(), st.booleans(), json_ints, json_floats, json_text,
    json_text.map(Str), json_ints.map(Int), json_floats.map(Float),
)


# json sorts the items of a dict before it converts the keys, so keys of
# one dict are all strings or all numbers (bools included), or one None
def json_dicts(children):
    return st.one_of(
        st.dictionaries(st.one_of(json_text, json_text.map(Str)), children),
        st.dictionaries(
            st.one_of(st.booleans(), json_ints, json_floats, json_ints.map(Int)), children
        ),
        children.map(lambda value: {None: value}),
    )


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(children).map(List),
        json_dicts(children),
        json_dicts(children).map(Dict),
    ),
    max_leaves=30,
)


def nested(depth):
    """A provenance object nesting depth objects below its top one."""
    node = {"kind": "nested"}
    for _ in range(depth):
        node = {"kind": "nested", "inner": node}
    return node


# json.dumps still writes this depth through cli.main under pytest on Python
# 3.11 (it fails near 950); a writer that recurses once per level cannot
DEEP = 800


class TestJsonWriter:
    @settings(max_examples=300)
    @given(value=json_values)
    def test_matches_json_dumps(self, value):
        assert outcome(cli._json_text, value) == outcome(dumps, value)

    @settings(max_examples=50)
    @given(
        value=json_values,
        refused=st.sampled_from([
            Fraction(1, 3), {1, 2}, b"bytes", object,
            {Fraction(1, 2): 0}, {(1,): 0}, {1: 0, "a": 1}, {None: 0, 1: 0},
        ]),
    )
    def test_refuses_what_json_dumps_refuses(self, value, refused):
        for payload in (refused, [value, {"at": [refused]}]):
            with pytest.raises(TypeError) as expected:
                dumps(payload)
            with pytest.raises(TypeError) as raised:
                cli._json_text(payload)
            assert str(raised.value) == str(expected.value)

    def test_non_str_keys_are_converted(self):
        value = {2: "a", -1.5: "b", True: "c", 10**30: "d"}
        assert cli._json_text(value) == dumps(value)
        assert cli._json_text({None: 0}) == dumps({None: 0}) == '{\n  "null": 0\n}'

    def test_a_cycle_raises_as_json_does(self):
        loop = []
        loop.append({"loop": loop})
        assert outcome(cli._json_text, loop) == outcome(dumps, loop) == (
            ValueError, "Circular reference detected"
        )
        shared = [1]
        value = [shared, {"again": shared}]  # shared, not circular
        assert cli._json_text(value) == dumps(value)

    def test_an_int_too_long_to_print_raises_as_json_does(self):
        value = [10**5000]
        assert outcome(cli._json_text, value) == outcome(dumps, value)

    def test_nests_without_python_frames(self):
        depth = 3000  # past the stdlib writer's recursion limit
        value = []
        for _ in range(depth):
            value = [value]
        expected = (
            "".join("[\n" + "  " * (k + 1) for k in range(depth))
            + "[]"
            + "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
        )
        assert cli._json_text(value) == expected

    @pytest.mark.parametrize("command", ["verify", "transform"])
    def test_deep_provenance_is_written(self, tmp_path, random_setup, command):
        moments, family = random_setup
        deep, out = tmp_path / "deep.json", tmp_path / "out.json"
        deep.write_text(json.dumps({**read(moments), "provenance": nested(DEEP)}))
        files = ["--family", str(family), "--moments", str(deep)]
        if command == "verify":
            argv = ["verify", "--suite", "orthogonality", *files, "-o", str(out)]
        else:
            argv = ["transform", *files, "--lambda", "3", "-o", str(tmp_path / "f.json"),
                    "--moments-out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        payload = json.loads(text)
        assert text == dumps(payload) + "\n"
        if command == "verify":
            assert payload["instance"]["provenance"] == nested(DEEP)
        else:
            assert payload["provenance"] == {**nested(DEEP), "shifts": ["3/1"]}

    @pytest.mark.parametrize("command", ["gen-moments", "family", "verify"])
    def test_stdout_is_the_output_file(self, tmp_path, random_setup, capsysbinary, command):
        moments, family = random_setup
        argv = {
            "gen-moments": ["gen-moments", "--kind", "random", "--max-index", "5"],
            "family": ["family", "--moments", str(moments), "--pairs", "2"],
            "verify": ["verify", "--suite", "kernel", "--family", str(family),
                       "--moments", str(moments), "--y", "1/2"],
        }[command]
        out = tmp_path / "out.json"
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        assert main([*argv, "-o", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        written = out.read_bytes()
        if command == "verify":  # elapsed_ms differs between the two runs
            elapsed = re.compile(rb'"elapsed_ms": [0-9.e+-]+')
            printed, written = elapsed.sub(b"", printed), elapsed.sub(b"", written)
        assert printed == written

    def test_a_refused_payload_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.SkewMoments, "to_json", lambda self: {"entries": {1, 2}})
        out = tmp_path / "out.json"
        assert main(["gen-moments", "--kind", "random", "--max-index", "3",
                     "-o", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "error: bad input (Object of type set is not JSON serializable)"
        ]


# -- loader fuzzing ----------------------------------------------------


@pytest.fixture(scope="module")
def loader_files(tmp_path_factory):
    """A moments, family and grid file as the CLI writes them."""
    root = tmp_path_factory.mktemp("loaders")
    files = {name: root / f"{name}.json" for name in ("moments", "family", "grid")}
    assert main(["gen-moments", "--kind", "random", "--max-index", "8",
                 "--seed", "7", "-o", str(files["moments"])]) == 0
    assert main(["family", "--moments", str(files["moments"]), "--pairs", "1",
                 "-o", str(files["family"])]) == 0
    assert main(["grid", "--moments", str(files["moments"]), "--mu", "1/2",
                 "--lambda", "3", "--pairs", "1", "--steps-s", "1",
                 "--steps-t", "1", "-o", str(files["grid"])]) == 0
    return root, files


def json_paths(node, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def retyped(value):
    """Values of other JSON kinds standing in for value."""
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}, value[:-1], value * 2]
    if isinstance(value, dict):
        return [list(value.values()), list(value)]
    if isinstance(value, str):
        p, _, q = value.partition("/")
        if p.lstrip("-").isdigit() and q.isdigit():
            # the same value respelled, its integer part, its negative
            p, q = int(p), int(q)
            return [f"{2 * p}/{2 * q}", p, f"{-p}/{q}", "1/0", "x"]
        return [0, "1/0", "x"]
    if isinstance(value, bool) or value is None:
        return [0, "1/1"]
    if isinstance(value, int):
        return [str(value), value + 1, value - 1, -1, 0, float(value)]
    return [str(value)]


@st.composite
def tampered_text(draw, data):
    """The file's JSON text, truncated, or with one value deleted or
    replaced by a value of another kind, a bool or null."""
    text = json.dumps(data)
    if draw(st.integers(0, 9)) == 0:
        return text[: draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(json_paths(data))))
    data = json.loads(text)
    if not path:
        return json.dumps(draw(st.sampled_from([[data], "x", 7, True, None])))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    new = draw(st.sampled_from(["delete", True, False, None, *retyped(value)]))
    if new == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(data)


def loading_command(kind, files, target, out):
    """A verify command that reads target in place of files[kind]."""
    f = {**{name: str(path) for name, path in files.items()}, kind: str(target)}
    if kind == "grid":
        return ["verify", "--suite", "dckp", "--grid", f["grid"], "-o", out]
    return ["verify", "--suite", "orthogonality", "--family", f["family"],
            "--moments", f["moments"], "-o", out]


# A module-level function, not a method: hypothesis's differing_executors
# health check fails a parametrized @given method, whose instance changes
# per parameter, unless the pytest plugin runs.
@pytest.mark.parametrize("kind", ["moments", "family", "grid"])
@settings(max_examples=60)
@given(data=st.data())
def test_tampered_file(loader_files, kind, data):
    """Every tampered file ends in a report or one error line, never a
    traceback: exit 0 or 1 with a report, 2 or 3 with one line."""
    root, files = loader_files
    target, out = root / f"tampered-{kind}.json", root / "report.json"
    target.write_text(data.draw(tampered_text(read(files[kind]))))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(loading_command(kind, files, target, str(out)))
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert out.exists()
    else:
        assert len(lines) == 1 and not out.exists(), lines
        if code == 3:
            assert lines[0].startswith("error:"), lines


class TestLoaderFuzz:
    """Files the loaders must refuse at once, with one error line."""

    @pytest.mark.parametrize("kind", ["moments", "family", "grid"])
    def test_deeply_nested_json(self, loader_files, kind):
        # json recurses once per level; 100,000 levels exceed the stack limit
        root, files = loader_files
        target, out = root / f"nested-{kind}.json", root / "report.json"
        target.write_text("[" * 100_000 + "]" * 100_000)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(loading_command(kind, files, target, str(out)))
        assert code == 3 and not out.exists()
        assert err.getvalue().splitlines() == [
            f"error: cannot read {target}: JSON nested too deeply"
        ]

    def test_exponent_spelled_rational_exits_at_once(self, loader_files):
        # Fraction would expand 10**10000000 (seconds of CPU) before the
        # value reached any check; rat refuses the spelling up front
        root, files = loader_files
        data = read(files["moments"])
        data["entries"][0][2] = "1e10000000"
        target = root / "exponent-moments.json"
        target.write_text(json.dumps(data))
        err = io.StringIO()
        started = time.monotonic()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["family", "--moments", str(target), "--pairs", "1"])
        elapsed = time.monotonic() - started
        assert code == 3
        assert err.getvalue().splitlines() == [
            "error: bad input (exponent spelling not accepted: '1e10000000')"
        ]
        assert elapsed < 5

    def test_long_decimal_rational_exits_before_fraction(self, loader_files, monkeypatch):
        # Fraction("0.<10**6 digits>") costs time quadratic in the digits
        class NoFraction(Fraction):
            def __new__(cls, *args):
                raise AssertionError("Fraction built from a decimal spelling")

        monkeypatch.setattr("skewflow.algebra.Fraction", NoFraction)
        root, files = loader_files
        data = read(files["moments"])
        data["entries"][0][2] = "0." + "0" * 10**6 + "1"
        target = root / "decimal-moments.json"
        target.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["family", "--moments", str(target), "--pairs", "1"])
        assert code == 3
        assert err.getvalue().splitlines() == [
            "error: bad input (decimal spelling not accepted: "
            f"{data['entries'][0][2][:40]!r})"
        ]


def readme_commands():
    """The arguments of every ``skewflow`` command in the README's code
    blocks, in the order they appear, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("skewflow "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_session_runs(tmp_path, monkeypatch, capsys):
    # every step exits 0; a vacuous report (dlax with an empty window, say)
    # would exit 3
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "gen-moments", "family", "verify", "transform", "verify", "grid", "verify",
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert "suite=dlax checks=4 failures=0 status=pass" in capsys.readouterr().err
