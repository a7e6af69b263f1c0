"""Workload definitions: seeded op schedules, the ops themselves, and the
correctness gate that every op passes through.

An op calls only public functions of the program, reached through the module
namespace returned by :func:`load_program`, so that the tracer in
``spans.py`` can swap those attributes for timed wrappers.

Every workload draws its ops from a finite universe of cases.  A case id
fully determines the op's inputs (table seed, measure, mu/lambda/y values),
and ``refs/<workload>.txt`` holds the digest of the canonical JSON outputs of
every case, recorded by ``record.py`` on the reference commit, or ``singular``
for a case whose inputs are singular (a vanishing tau, for instance); those
are never scheduled.  The workload seed chooses the order of the cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODULES = ("algebra", "pfaffian", "moments", "report", "sops", "transforms", "lattice", "cli")

# Reference line of a case whose inputs are singular on the reference commit.
SINGULAR = "singular"

# The acceptance battery's ensemble measures.
SYM_NODES, SYM_WEIGHTS = (1, 2, 4, 5, 6), (1, 1, 2, 1, 1)
ORTH_NODES = (-6, -5, -4, -2, -1, 1, 2, 4, 5, 6)
ORTH_WEIGHTS = (1, 1, 1, 2, 1, 1, 2, 1, 1, 1)


def load_program() -> SimpleNamespace:
    """Import (or re-import) every skewflow module from ``src/``.

    Earlier imports are dropped first, so each call pays the full import
    cost; the set-up time measures this.
    """
    for name in [m for m in sys.modules if m == "skewflow" or m.startswith("skewflow.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"skewflow.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"skewflow was imported from {where}, not from {src}")
    return SimpleNamespace(**mods)


def _rational(rng: random.Random, avoid: set[Fraction]) -> Fraction:
    """Nonzero small-height rational outside ``avoid``.

    Lattice parameters avoid the measure nodes, and lambda avoids every
    -s*mu/t of the box (see :func:`_off_diagonal`).
    """
    while True:
        value = Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.choice((1, 2, 3)))
        if value not in avoid:
            return value


def _off_diagonal(mu: Fraction, steps: int) -> set[Fraction]:
    """The lambdas with s*mu + t*lambda = 0 at a site (s, t) != (0, 0) of a
    box with ``steps`` x ``steps`` steps.  There sigma_0 vanishes away from
    the origin and ``verify_edlax`` reports ``phi-even-defined`` as a
    failure rather than a skip."""
    return {-s * mu / t for s in range(1, steps + 1) for t in range(1, steps + 1)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_RATIONAL = re.compile(r'"-?(\d+)/(\d+)"')


def max_bits(text: str) -> int:
    """Largest numerator or denominator bit length among "num/den" strings."""
    return max(
        (max(int(a).bit_length(), int(b).bit_length()) for a, b in _RATIONAL.findall(text)),
        default=0,
    )


def _report_failures(reports) -> list[str]:
    """A failed check fails the op, and so does a vacuous report: one whose
    checks are all skips (or that has none) passes without checking
    anything."""
    failures = []
    for r in reports:
        if not r.passed:
            failures.append(f"{r.suite}:{r.failures[0].id}")
        elif all(c.status == "skip" for c in r.checks):
            failures.append(f"{r.suite}:vacuous, no check was evaluated")
    return failures


def _report_json(report) -> dict[str, Any]:
    data = report.to_json()
    data.pop("elapsed_ms", None)
    return data


def _admissible(family, lam: Fraction) -> Fraction:
    """Nearest parameter at or above lam avoiding roots of the even members."""
    while any(family.even(n).eval(lam) == 0 for n in range(family.pairs + 1)):
        lam += 1
    return lam


@dataclass(frozen=True)
class Workload:
    name: str
    universe: int  # number of distinct cases
    kinds: tuple[str, ...]  # case id % len(kinds) selects the kind
    prefix_ops: int  # traced ops whose counters must repeat exactly
    make_case: Callable[[int], dict[str, Any]]
    run: Callable[..., Any]  # (sf, case, ctx) -> result, the timed part
    check: Callable[..., tuple[Any, list[str]]]  # (sf, case, result, ctx) -> (payload, failures)


def schedule(workload: Workload, seed: int, refs: list[str]) -> list[int]:
    """Seeded order of the well-posed case ids, stratified so that every seed
    runs the same mix of kinds."""
    rng = random.Random(seed)
    period = len(workload.kinds)
    columns = []
    for slot in range(period):
        ids = [cid for cid in range(slot, workload.universe, period) if refs[cid] != SINGULAR]
        rng.shuffle(ids)
        columns.append(ids)
    rounds = min(len(ids) for ids in columns)
    return [columns[slot][r] for r in range(rounds) for slot in range(period)]


def warmup_case(workload: Workload, refs: list[str]) -> int:
    """The first well-posed case: the set-up's warm-up op, the same for
    every seed."""
    return next(cid for cid in range(workload.universe) if refs[cid] != SINGULAR)


def is_singular(failures: list[str]) -> bool:
    """True when an op stopped on a singular configuration (a vanishing
    Pfaffian, norm or admissibility value: exit 2 from the CLI)."""
    return len(failures) == 1 and failures[0].startswith(
        ("raised SingularConfiguration", "exit 2:"))


# -- lattice-box --------------------------------------------------------

BOX_PAIRS, BOX_STEPS = 1, 2
LATTICE_KINDS = ("random",) * 6 + ("symplectic", "orthogonal")
NODE_VALUES = {Fraction(abs(x)) for x in ORTH_NODES + SYM_NODES}
NODE_VALUES |= {-x for x in NODE_VALUES}


def _lattice_case(cid: int) -> dict[str, Any]:
    rng = random.Random(f"lattice-box:{cid}")
    mu = _rational(rng, NODE_VALUES)
    lam = _rational(rng, NODE_VALUES | {mu} | _off_diagonal(mu, BOX_STEPS))
    return {
        "kind": LATTICE_KINDS[cid % len(LATTICE_KINDS)],
        "table_seed": rng.randrange(1, 10**6),
        "mu": mu,
        "lam": lam,
    }


def _lattice_run(sf, case, ctx):
    config = sf.lattice.LatticeConfig(case["mu"], case["lam"], BOX_PAIRS, BOX_STEPS, BOX_STEPS)
    budget = config.required_budget
    if case["kind"] == "random":
        table = sf.moments.from_random(case["table_seed"], budget)
    elif case["kind"] == "symplectic":
        table = sf.moments.from_discrete_symplectic(
            sf.moments.DiscreteMeasure(SYM_NODES, SYM_WEIGHTS), budget
        )
    else:
        table = sf.moments.from_discrete_orthogonal(
            sf.moments.DiscreteMeasure(ORTH_NODES, ORTH_WEIGHTS), budget
        )
    lat = sf.lattice
    grid = lat.build_grid(table, config)
    reports = [
        lat.crosscheck_single_step(grid, n, s, t)
        for n in range(config.pairs + 1)
        for s in range(config.steps_s)
        for t in range(config.steps_t)
    ]
    samples = lat.sample_points(2 * config.pairs + 3, [config.mu, config.lam])
    field = lat.coefficient_field(grid)
    matrix_field = lat.matrix_coefficient_field(grid)
    reports += [
        lat.verify_dckp(grid),
        lat.verify_edckp(grid),
        lat.verify_slax(grid, samples),
        lat.verify_edlax(grid, samples),
        lat.verify_dpfl(field),
        lat.verify_edpfl(matrix_field),
    ]
    return grid, field, matrix_field, reports


def _field_json(sf, field) -> dict[str, Any]:
    """Every coefficient of a (scalar or matrix) coefficient field, by site."""
    def value(v):
        if isinstance(v, sf.lattice.AntiDiagonal):
            return [sf.algebra.rat_str(v.upper), sf.algebra.rat_str(v.lower)]
        return sf.algebra.rat_str(v)
    return {
        name: [[list(key), value(store[key])] for key in sorted(store)]
        for name, store in (("a", field.a), ("b", field.b), ("c", field.c), ("d", field.d))
    }


def _lattice_check(sf, case, result, ctx):
    grid, field, matrix_field, reports = result
    payload = {
        "grid": grid.to_json(),
        "field": _field_json(sf, field),
        "matrix_field": _field_json(sf, matrix_field),
        "reports": [_report_json(r) for r in reports],
    }
    return payload, _report_failures(reports)


# -- sop-chain ----------------------------------------------------------

CHAIN_PAIRS, CHAIN_BUDGET, CHAIN_STEPS = 4, 12, 3


def _chain_case(cid: int) -> dict[str, Any]:
    rng = random.Random(f"sop-chain:{cid}")
    return {
        "table_seed": rng.randrange(1, 10**6),
        "lam": Fraction(rng.choice([n for n in range(-30, 31) if n % 7]), 7),
        "ys": [_rational(rng, set()) for _ in range(3)],
    }


def _chain_run(sf, case, ctx):
    table = sf.moments.from_random(case["table_seed"], CHAIN_BUDGET)
    family = sf.sops.build_family(table, CHAIN_PAIRS)
    oracle = sf.sops.oracle_family(table, CHAIN_PAIRS)
    projected = family.gauge_projected()
    reports = [sf.sops.verify_skew_orthogonality(family, table)]
    families, datas, moments = [family], [], table
    lam = _admissible(family, case["lam"])  # one lambda: the Lax equation needs it fixed
    for _ in range(CHAIN_STEPS):
        nxt, shifted, cdata = sf.transforms.christoffel(families[-1], moments, lam)
        gdata = sf.transforms.geronimus_coeffs(nxt, families[-1], moments, lam)
        datas.append((cdata, gdata))
        families.append(nxt)
        moments = shifted
    factors = sf.transforms.build_lax_pair(families, datas, 2 * families[-1].pairs + 2)
    for t in range(len(factors) - 1):
        reports.append(sf.transforms.verify_dlax(*factors[t], *factors[t + 1]))
    for y in case["ys"]:
        y = _admissible(family, y)
        reports.append(sf.transforms.verify_factorization(family, table, CHAIN_PAIRS, y))
    return projected, oracle, families, factors, reports


def _chain_check(sf, case, result, ctx):
    projected, oracle, families, factors, reports = result
    failures = _report_failures(reports)
    if projected.polys != oracle.polys or projected.norms != oracle.norms:
        failures.append("oracle:gauge-projected family differs from oracle_family")
    rat_str = sf.algebra.rat_str
    payload = {
        "families": [f.to_json() for f in families],
        "oracle": oracle.to_json(),
        "lax": [[[[rat_str(v) for v in row] for row in m.rows] for m in pair] for pair in factors],
        "reports": [_report_json(r) for r in reports],
    }
    return payload, failures


# -- cli-session --------------------------------------------------------

CLI_MAX_INDEX, CLI_PAIRS, CLI_GRID_PAIRS, CLI_GRID_STEPS = 10, 3, 1, 2
CLI_SUITES = ("dckp", "slax", "dpfl", "edckp", "edlax", "edpfl")


def _cli_case(cid: int) -> dict[str, Any]:
    rng = random.Random(f"cli-session:{cid}")
    nodes = sorted(rng.sample([n for n in range(-9, 10) if n], 8))
    avoid = {Fraction(x) for x in nodes}
    mu = _rational(rng, avoid)
    return {
        "nodes": nodes,
        "weights": [rng.randint(1, 3) for _ in nodes],
        "lam": Fraction(rng.choice([n for n in range(-20, 21) if n % 7]), 7),
        "mu": mu,
        "grid_lam": _rational(rng, avoid | {mu} | _off_diagonal(mu, CLI_GRID_STEPS)),
        "ys": [Fraction(rng.choice([n for n in range(-20, 21) if n % 5]), 5) for _ in range(2)],
    }


def _cli_argvs(case, d: str) -> list[list[str]]:
    p = lambda name: os.path.join(d, name)  # noqa: E731
    s = lambda x: f"{x.numerator}/{x.denominator}"  # noqa: E731
    fam = ["--family", p("family.json"), "--moments", p("moments.json")]
    lam = ["--lambda=" + s(case["lam"])]
    argvs = [
        ["gen-moments", "--kind", "orthogonal", "--max-index", str(CLI_MAX_INDEX),
         "--nodes=" + ",".join(map(str, case["nodes"])),
         "--weights=" + ",".join(map(str, case["weights"])), "-o", p("moments.json")],
        ["family", "--moments", p("moments.json"), "--pairs", str(CLI_PAIRS),
         "-o", p("family.json")],
        ["transform", *fam, *lam, "-o", p("transformed.json"),
         "--moments-out", p("shifted.json"), "--data-out", p("steps.json")],
        ["grid", "--moments", p("moments.json"), "--mu=" + s(case["mu"]),
         "--lambda=" + s(case["grid_lam"]), "--pairs", str(CLI_GRID_PAIRS),
         "--steps-s", str(CLI_GRID_STEPS), "--steps-t", str(CLI_GRID_STEPS),
         "-o", p("grid.json")],
        ["verify", "--suite", "orthogonality", *fam, "-o", p("r-orthogonality.json")],
        ["verify", "--suite", "christoffel", *fam, *lam, "-o", p("r-christoffel.json")],
        ["verify", "--suite", "geronimus", *fam, *lam, "-o", p("r-geronimus.json")],
        ["verify", "--suite", "dlax", *fam, *lam, *lam, "-o", p("r-dlax.json")],
        ["verify", "--suite", "kernel", *fam, *[f"--y={s(y)}" for y in case["ys"]],
         "-o", p("r-kernel.json")],
    ]
    argvs += [["verify", "--suite", suite, "--grid", p("grid.json"), "-o", p(f"r-{suite}.json")]
              for suite in CLI_SUITES]
    return argvs


def _cli_run(sf, case, ctx):
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in _cli_argvs(case, ctx["workdir"]):
            codes.append(sf.cli.main(argv))
            if codes[-1] != 0:  # a scripted session stops at the first error
                break
    return codes, sink.getvalue()


def _cli_check(sf, case, result, ctx):
    codes, messages = result
    failures = [
        f"exit {code}: skewflow {argv[0]} {argv[2] if argv[0] == 'verify' else ''}".rstrip()
        for code, argv in zip(codes, _cli_argvs(case, ctx["workdir"]))
        if code != 0
    ]
    if failures:
        failures[-1] += ": " + (messages.strip().splitlines() or [""])[-1]
        return None, failures
    payload = {}
    for name in sorted(os.listdir(ctx["workdir"])):
        with open(os.path.join(ctx["workdir"], name), encoding="utf-8") as handle:
            data = json.load(handle)
        if name.startswith("r-"):
            data.pop("elapsed_ms", None)
            if all(c["status"] == "skip" for c in data["checks"]):
                failures.append(f"{data['suite']}:vacuous, no check was evaluated")
        payload[name] = data
    return payload, failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-box", 1024, LATTICE_KINDS, 6, _lattice_case, _lattice_run, _lattice_check,
        ),
        Workload(
            "sop-chain", 2048, ("random",), 8, _chain_case, _chain_run, _chain_check,
        ),
        Workload(
            "cli-session", 1024, ("orthogonal",), 6, _cli_case, _cli_run, _cli_check,
        ),
    )
}


def load_references(workload: Workload) -> list[str]:
    path = BENCH_DIR / "refs" / f"{workload.name}.txt"
    if not path.exists():
        return []
    return path.read_text().split("\n")[: workload.universe]


# Op times are CPU seconds of this thread.  On a shared virtual machine the
# host takes the CPU away at times (steal); wall time then grows with no
# change in the program, and CPU time does not.
CLOCK = time.thread_time


def plain_timer(thunk: Callable[[], Any]) -> tuple[float, Any]:
    start = CLOCK()
    result = thunk()
    return CLOCK() - start, result


def reference() -> float:
    """CPU seconds of a fixed piece of Fraction arithmetic.

    The yardstick for op costs: the speed of a shared host's CPU changes by
    up to 1.6x from one second to the next, and an op's CPU time divided by
    the time of this loop, run next to it, does not follow those changes.
    It is benchmark code, so no change to the program moves it.
    """
    start = CLOCK()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3)
    return CLOCK() - start


def run_and_check(sf, workload: Workload, cid: int, ctx, refs, timer):
    """Run one op and gate it.

    Returns (seconds, canonical output text or None, failures).  Only the
    program calls in ``workload.run`` are timed; ``timer`` wraps them so the
    tracer can open the op's root span.
    """
    case = workload.make_case(cid)
    failures: list[str] = []
    text = None
    try:
        seconds, result = timer(lambda: workload.run(sf, case, ctx))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return 0.0, None, [f"raised {type(exc).__name__}: {exc}"]
    try:
        payload, failures = workload.check(sf, case, result, ctx)
    except Exception as exc:
        return seconds, None, [f"check raised {type(exc).__name__}: {exc}"]
    if payload is not None:
        text = canonical(payload)
        if refs is not None:
            expected = refs[cid] if cid < len(refs) else "<missing>"
            if digest(text) != expected:
                failures.append(f"digest {digest(text)} != reference {expected}")
    return seconds, text, failures
