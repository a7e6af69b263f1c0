"""Command-line driver.

Commands: gen-moments, family, transform, grid, verify.  All payloads are
JSON with rationals as "num/den" strings; outputs are deterministic for a
fixed command line (elapsed_ms in verification reports is the only field
that varies between runs).  Every output, to a file or to stdout, is
exactly ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline
(ASCII escapes), written in one pass by ``_emit`` through ``_json_text``;
the text is complete before the file is opened.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 singular
configuration, 3 usage or input error, an unwritable output path included.
A suite that evaluates no check on its input (none at all, or every one
skipped) is an input error: it writes no report and exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from . import lattice, transforms
from .algebra import rat, rat_str
from .errors import SkewflowError, SingularConfiguration, DegreeBudgetExceeded
from .lattice import LatticeConfig, TauGrid
from .moments import (
    MAX_INDEX,
    DiscreteMeasure,
    SkewMoments,
    from_discrete_orthogonal,
    from_discrete_symplectic,
    from_random,
)
from .report import Report
from .sops import SOPFamily, build_family, verify_skew_orthogonality

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="skewflow")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-moments", help="generate a skew-moment table")
    gen.add_argument("--kind", choices=("random", "symplectic", "orthogonal"),
                     required=True)
    gen.add_argument("--max-index", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bound", type=int, default=10)
    gen.add_argument("--nodes", type=str, default=None,
                     help="comma-separated rational nodes (ensemble kinds)")
    gen.add_argument("--weights", type=str, default=None)
    gen.add_argument("-o", "--output", type=str, default=None)

    fam = sub.add_parser("family", help="build a skew orthogonal family")
    fam.add_argument("--moments", required=True)
    fam.add_argument("--pairs", type=int, required=True)
    fam.add_argument("-o", "--output", type=str, default=None)

    tr = sub.add_parser("transform", help="apply skew-Christoffel steps")
    tr.add_argument("--family", required=True)
    tr.add_argument("--moments", required=True)
    tr.add_argument("--lambda", dest="lam", action="append", required=True,
                    help="transformation parameter; repeat for a chain")
    tr.add_argument("-o", "--output", type=str, default=None,
                    help="transformed family")
    tr.add_argument("--moments-out", type=str, default=None)
    tr.add_argument("--data-out", type=str, default=None,
                    help="per-step coefficient tables")

    gr = sub.add_parser("grid", help="build a (n, s, t) tau/sigma grid")
    gr.add_argument("--moments", required=True)
    gr.add_argument("--mu", required=True)
    gr.add_argument("--lambda", dest="lam", required=True)
    gr.add_argument("--pairs", type=int, required=True)
    gr.add_argument("--steps-s", type=int, required=True)
    gr.add_argument("--steps-t", type=int, required=True)
    gr.add_argument("-o", "--output", type=str, default=None)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=tuple(SUITES), required=True)
    ver.add_argument("--family", default=None)
    ver.add_argument("--moments", default=None)
    ver.add_argument("--grid", default=None)
    ver.add_argument("--lambda", dest="lam", action="append", default=None)
    ver.add_argument("--y", action="append", default=None)
    ver.add_argument("--pairs", type=int, default=None)
    ver.add_argument("-o", "--output", type=str, default=None)
    return parser


# -- plumbing -----------------------------------------------------------


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise UsageError(f"cannot read {path}: JSON nested too deeply") from None


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key: Any) -> str:
    """A dict key that is not a str, spelled as json spells it, or TypeError."""
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _level(depth: int) -> tuple[str, str, str, str, str]:
    """The strings around the items of a container at nesting ``depth``
    (the top-level container has depth 1): its first-item opener for a list
    and for a dict, the separator between items, and the list and dict
    closers."""
    newline = "\n" + "  " * depth
    outer = newline[:-2]
    return "[" + newline, "{" + newline, "," + newline, outer + "]", outer + "}"


_LEVELS = [_level(depth) for depth in range(32)]


def _json_text(payload: Any) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, written in one pass.

    Values are matched with the isinstance tests of the stdlib encoder, in
    its order, and the values it refuses raise the same errors: TypeError
    for an unknown type or key, ValueError for a cycle.  Open containers
    wait on an explicit stack, not on Python frames, so the nesting depth
    is bounded by memory alone.
    """
    encode, int_text = json.encoder.encode_basestring_ascii, int.__repr__
    parts: list[str] = []
    write = parts.append
    # One frame per open container: the enclosing container's remaining
    # items, whether they are (key, value) pairs, its item separator and
    # closer, and the id of the open container (for the cycle check).
    stack: list[tuple[Any, bool, str, str, int]] = []
    open_ids: set[int] = set()
    items: Any = iter((payload,))
    pairs = False
    sep = comma = close = ""
    while True:
        for value in items:
            if pairs:
                key, value = value
                if not isinstance(key, str):
                    key = _key_text(key)
                write(sep + encode(key) + ": ")
            else:
                write(sep)
            sep = comma
            if isinstance(value, str):
                write(encode(value))
            elif value is None:
                write("null")
            elif value is True:
                write("true")
            elif value is False:
                write("false")
            elif isinstance(value, int):
                write(int_text(value))
            elif isinstance(value, float):
                write(_float_text(value))
            elif isinstance(value, (list, tuple, dict)):
                is_dict = isinstance(value, dict)
                if not value:
                    write("{}" if is_dict else "[]")
                    continue
                if id(value) in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(id(value))
                stack.append((items, pairs, comma, close, id(value)))
                depth = len(stack)
                list_open, dict_open, comma, list_close, dict_close = (
                    _LEVELS[depth] if depth < len(_LEVELS) else _level(depth)
                )
                if is_dict:
                    sep, close = dict_open, dict_close
                    items = iter(sorted(value.items()))
                else:
                    sep, close = list_open, list_close
                    items = iter(value)
                pairs = is_dict
                break
            else:
                raise TypeError(
                    f"Object of type {value.__class__.__name__} is not JSON serializable"
                )
        else:
            if not stack:
                return "".join(parts)
            write(close)
            items, pairs, comma, close, finished = stack.pop()
            open_ids.discard(finished)
            sep = comma


def _emit(payload: Any, path: str | None) -> None:
    text = _json_text(payload)
    if path is None:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _rat_list(spec: str) -> list[Fraction]:
    try:
        return [rat(part) for part in spec.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"bad rational list {spec!r}: {exc}") from exc


def _parse_rat(text: str) -> Fraction:
    try:
        return rat(text)
    except ValueError as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _threads() -> int:
    raw = os.environ.get("SKEWFLOW_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"SKEWFLOW_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError("SKEWFLOW_THREADS must be at least 1")
    return value


def _load_family(args) -> SOPFamily:
    if args.family is None:
        raise UsageError("this suite needs --family")
    return SOPFamily.from_json(_read_json(args.family))


def _load_moments(args) -> SkewMoments:
    if args.moments is None:
        raise UsageError("this suite needs --moments")
    return SkewMoments.from_json(_read_json(args.moments))


def _load_grid(args) -> TauGrid:
    if args.grid is None:
        raise UsageError("this suite needs --grid")
    return TauGrid.from_json(_read_json(args.grid))


def _lam_values(args, chain: bool = False) -> list[Fraction]:
    """The --lambda values: one for a single step, two or more for a chain."""
    if not args.lam:
        raise UsageError("this suite needs --lambda")
    values = [_parse_rat(x) for x in args.lam]
    if chain and len(values) < 2:
        raise UsageError("this suite needs at least 2 --lambda values")
    if not chain and len(values) > 1:
        raise UsageError("this suite takes one --lambda value")
    return values


# -- commands -----------------------------------------------------------


def _cmd_gen_moments(args) -> int:
    if args.max_index < 1:
        raise UsageError("--max-index must be at least 1")
    if args.max_index > MAX_INDEX:
        raise UsageError(f"--max-index must be at most {MAX_INDEX}")
    if args.kind == "random":
        table = from_random(args.seed, args.max_index, args.bound)
    else:
        if args.nodes is None or args.weights is None:
            raise UsageError("ensemble kinds need --nodes and --weights")
        measure = DiscreteMeasure(_rat_list(args.nodes), _rat_list(args.weights))
        maker = (
            from_discrete_symplectic
            if args.kind == "symplectic"
            else from_discrete_orthogonal
        )
        table = maker(measure, args.max_index)
    _emit(table.to_json(), args.output)
    return 0


def _cmd_family(args) -> int:
    moments = _load_moments(args)
    family = build_family(moments, args.pairs)
    _emit(family.to_json(), args.output)
    return 0


def _christoffel_data_json(data: transforms.ChristoffelData) -> dict[str, Any]:
    """The nonzero bands of the L rows: row 2n up to its q_2n entry (the
    q_{2n+1} entry is the unit superdiagonal) and row 2n+1's q_2n entry."""
    rows = data.rows
    evens = [row[: 2 * n + 1] for n, row in enumerate(rows[0::2])]
    return {
        "lambda": rat_str(data.lam),
        "even_coeffs": [[rat_str(v) for v in row[0::2]] for row in evens],
        "odd_coeffs": [[rat_str(v) for v in row[1::2]] for row in evens],
        "odd_shift": [rat_str(row[2 * n]) for n, row in enumerate(rows[1::2])],
    }


def _cmd_transform(args) -> int:
    family = _load_family(args)
    moments = _load_moments(args)
    steps = []
    for lam in (_parse_rat(x) for x in args.lam):
        family, moments, data = transforms.christoffel(family, moments, lam)
        steps.append(_christoffel_data_json(data))
    _emit(family.to_json(), args.output)
    if args.moments_out is not None:
        _emit(moments.to_json(), args.moments_out)
    if args.data_out is not None:
        _emit({"steps": steps}, args.data_out)
    return 0


def _cmd_grid(args) -> int:
    moments = _load_moments(args)
    config = LatticeConfig(
        _parse_rat(args.mu),
        _parse_rat(args.lam),
        args.pairs,
        args.steps_s,
        args.steps_t,
    )
    grid = lattice.build_grid(moments, config)
    _emit(grid.to_json(), args.output)
    return 0


def _suite_orthogonality(args) -> Report:
    return verify_skew_orthogonality(_load_family(args), _load_moments(args))


def _suite_christoffel(args) -> Report:
    family = _load_family(args)
    moments = _load_moments(args)
    lam = _lam_values(args)[0]
    transformed, shifted, _ = transforms.christoffel(family, moments, lam)
    return transforms.verify_christoffel(transformed, shifted, family, moments, lam)


def _suite_geronimus(args) -> Report:
    family = _load_family(args)
    moments = _load_moments(args)
    lam = _lam_values(args)[0]
    transformed, _, _ = transforms.christoffel(family, moments, lam)
    data = transforms.geronimus_coeffs(transformed, family, moments, lam)
    return transforms.verify_geronimus(transformed, family, moments, data)


def _suite_dlax(args) -> Report:
    family = _load_family(args)
    moments = _load_moments(args)
    lams = _lam_values(args, chain=True)
    if len(set(lams)) != 1:
        raise UsageError(
            "the discrete Lax chain evolves at a fixed lambda; "
            "pass the same value for every step"
        )
    families = [family]
    datas = []
    for lam in lams:
        nxt, shifted, cdata = transforms.christoffel(families[-1], moments, lam)
        gdata = transforms.geronimus_coeffs(nxt, families[-1], moments, lam)
        datas.append((cdata, gdata))
        families.append(nxt)
        moments = shifted
    size = 2 * families[-1].pairs + 2
    factors = transforms.build_lax_pair(families, datas, size)
    report = Report(
        "dlax",
        {"lambdas": [rat_str(x) for x in lams], "size": size},
    )
    for t in range(len(factors) - 1):
        report.extend(transforms.verify_dlax(*factors[t], *factors[t + 1]), f"step{t}:")
    return report


def _suite_kernel(args) -> Report:
    family = _load_family(args)
    moments = _load_moments(args)
    if not args.y:
        raise UsageError("the kernel suite needs at least one --y value")
    pairs = args.pairs if args.pairs is not None else family.pairs
    report = Report("kernel", {"provenance": moments.provenance})
    for raw in args.y:
        y = _parse_rat(raw)
        report.extend(
            transforms.verify_factorization(family, moments, pairs, y), f"y={rat_str(y)}:"
        )
    return report


def _suite_crosscheck(args) -> Report:
    grid = _load_grid(args)
    c = grid.config
    report = Report("crosscheck", {"provenance": grid.base.provenance})
    for n in range(c.pairs + 1):
        for s in range(c.steps_s):
            for t in range(c.steps_t):
                report.extend(
                    lattice.crosscheck_single_step(grid, n, s, t), f"n={n},s={s},t={t}:"
                )
    return report


def _sampled(verify, grid: TauGrid) -> Report:
    c = grid.config
    return verify(grid, lattice.sample_points(2 * c.pairs + 3, [c.mu, c.lam]))


# Handlers name library functions in their bodies, so each call finds the
# module attribute current at call time (a tracer may have replaced it).
SUITES = {
    "orthogonality": _suite_orthogonality,
    "christoffel": _suite_christoffel,
    "geronimus": _suite_geronimus,
    "dlax": _suite_dlax,
    "kernel": _suite_kernel,
    "dckp": lambda args: lattice.verify_dckp(_load_grid(args)),
    "slax": lambda args: _sampled(lattice.verify_slax, _load_grid(args)),
    "dpfl": lambda args: lattice.verify_dpfl(lattice.coefficient_field(_load_grid(args))),
    "edckp": lambda args: lattice.verify_edckp(_load_grid(args)),
    "edlax": lambda args: _sampled(lattice.verify_edlax, _load_grid(args)),
    "edpfl": lambda args: lattice.verify_edpfl(
        lattice.matrix_coefficient_field(_load_grid(args))
    ),
    "crosscheck": _suite_crosscheck,
}


def _cmd_verify(args) -> int:
    started = time.monotonic()
    report = SUITES[args.suite](args)
    if all(c.status == "skip" for c in report.checks):
        raise UsageError(f"suite {report.suite} evaluated no check on this input")
    report.elapsed_ms = (time.monotonic() - started) * 1000.0
    report.instance.setdefault("threads", _threads())
    _emit(report.to_json(), args.output)
    failures = report.failures
    summary = (
        f"suite={report.suite} checks={len(report.checks)} "
        f"failures={len(failures)} status={'fail' if failures else 'pass'}"
    )
    if failures:
        summary += f" first={failures[0].id} {failures[0].detail}".rstrip()
    print(summary, file=sys.stderr)
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        _threads()
        args = parser.parse_args(argv)
        if args.command == "gen-moments":
            return _cmd_gen_moments(args)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "grid":
            return _cmd_grid(args)
        return _cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SingularConfiguration,) as exc:
        print(f"singular configuration: {exc}", file=sys.stderr)
        return 2
    except DegreeBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SkewflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: bad input ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
