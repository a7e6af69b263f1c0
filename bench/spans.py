"""Per-layer tracing from outside the program.

The :class:`Recorder` replaces selected public functions of the skewflow
modules with wrappers that record a span (name, start, end, parent, op id)
or bump a counter.  A function is replaced everywhere it is bound: in its
own module and under every name other skewflow modules imported it as
(``skewflow.lattice.augmented_pfaffian`` as well as
``skewflow.pfaffian.augmented_pfaffian``).  Spans stay in memory; the
per-layer metrics are computed from them when the run ends.

A layer's self time is a span's duration minus the time its child spans
cover.  Helpers that are not wrapped count toward their caller's span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from typing import Any, Callable

from workloads import CLOCK

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("pfaffian", "pfaffian", "pfaffian.kernel"),
    ("pfaffian", "numeric_pfaffian", "pfaffian.numeric"),
    ("pfaffian", "augmented_pfaffian", "pfaffian.augmented"),
    ("moments", "SkewMoments.shift", "moments.shift"),
    ("moments", "from_random", "moments.table_gen"),
    ("moments", "from_discrete_orthogonal", "moments.table_gen"),
    ("moments", "from_discrete_symplectic", "moments.table_gen"),
    ("moments", "SkewMoments.from_json", "cli.load"),
    ("moments", "SkewMoments.to_json", "cli.emit"),
    ("sops", "build_family", "sops.build_family"),
    ("sops", "oracle_family", "sops.oracle_family"),
    ("sops", "verify_skew_orthogonality", "sops.orthogonality"),
    ("sops", "SOPFamily.from_json", "cli.load"),
    ("sops", "SOPFamily.to_json", "cli.emit"),
    ("transforms", "christoffel", "transforms.christoffel"),
    ("transforms", "geronimus_coeffs", "transforms.geronimus"),
    ("transforms", "build_lax_pair", "transforms.lax_pair"),
    ("transforms", "verify_dlax", "transforms.dlax"),
    ("transforms", "kernel", "transforms.kernel"),
    ("transforms", "verify_factorization", "transforms.kernel"),
    ("lattice", "build_grid", "lattice.build_grid"),
    ("lattice", "crosscheck_single_step", "lattice.crosscheck"),
    ("lattice", "sample_points", "lattice.verifiers"),
    ("lattice", "coefficient_field", "lattice.verifiers"),
    ("lattice", "matrix_coefficient_field", "lattice.verifiers"),
    ("lattice", "verify_dckp", "lattice.verifiers"),
    ("lattice", "verify_edckp", "lattice.verifiers"),
    ("lattice", "verify_slax", "lattice.verifiers"),
    ("lattice", "verify_edlax", "lattice.verifiers"),
    ("lattice", "verify_dpfl", "lattice.verifiers"),
    ("lattice", "verify_edpfl", "lattice.verifiers"),
    ("lattice", "TauGrid.from_json", "lattice.grid_load"),
    ("lattice", "TauGrid.to_json", "cli.emit"),
    ("report", "Report.to_json", "cli.emit"),
    ("cli", "main", "cli.main"),
    ("cli", "_cmd_gen_moments", "cli.command.gen-moments"),
    ("cli", "_cmd_family", "cli.command.family"),
    ("cli", "_cmd_transform", "cli.command.transform"),
    ("cli", "_cmd_grid", "cli.command.grid"),
    ("cli", "_cmd_verify", "cli.command.verify"),
    ("cli", "_read_json", "cli.load"),
    ("cli", "_emit", "cli.emit"),
)
# Called too often for a span each; only counted.
COUNTERS = (("sops", "skew_product", "sops.skew_product"),)

LAYERS = ("pfaffian", "moments", "sops", "transforms", "lattice", "cli")
KERNEL_DIMS = tuple(range(0, 18, 2))
SUBCOMMANDS = ("gen-moments", "family", "transform", "grid", "verify")
SELF_METRICS = {
    "pfaffian.kernel_self_s": "pfaffian.kernel",
    "pfaffian.numeric_self_s": "pfaffian.numeric",
    "pfaffian.augmented_self_s": "pfaffian.augmented",
    "moments.shift_self_s": "moments.shift",
    "moments.table_gen_self_s": "moments.table_gen",
    "sops.build_family_self_s": "sops.build_family",
    "sops.oracle_family_self_s": "sops.oracle_family",
    "sops.orthogonality_self_s": "sops.orthogonality",
    "transforms.christoffel_self_s": "transforms.christoffel",
    "transforms.geronimus_self_s": "transforms.geronimus",
    "transforms.lax_pair_self_s": "transforms.lax_pair",
    "transforms.dlax_self_s": "transforms.dlax",
    "transforms.kernel_self_s": "transforms.kernel",
    "lattice.build_grid_self_s": "lattice.build_grid",
    "lattice.crosscheck_self_s": "lattice.crosscheck",
    "lattice.verifiers_self_s": "lattice.verifiers",
    "lattice.grid_load_self_s": "lattice.grid_load",
    "cli.parse_self_s": "cli.main",
    "cli.load_self_s": "cli.load",
    "cli.emit_self_s": "cli.emit",
    "bench.glue_self_s": "op",
}
CALL_METRICS = {
    "pfaffian.kernel_calls": "pfaffian.kernel",
    "pfaffian.numeric_calls": "pfaffian.numeric",
    "pfaffian.augmented_calls": "pfaffian.augmented",
    "moments.shift_calls": "moments.shift",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Span and counter store; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[Any] = []  # (name, start, end, parent, op) per span
        self.counts: Counter = Counter()  # (op, counter) -> count
        self.op: int | None = None  # None: wrappers pass straight through
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _span(self, name: str, fn: Callable, args, kwargs):
        if self.op is None:
            return fn(*args, **kwargs)
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[(self.op, _layer(name) + ".raised")] += 1
            raise
        finally:
            end = CLOCK()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def run_op(self, op: int, thunk: Callable[[], Any]) -> tuple[float, Any]:
        """Run one op under a root span named "op"; returns (seconds, result)."""
        self.op = op
        try:
            index = len(self.spans)
            result = self._span("op", thunk, (), {})
            _, start, end, _, _ = self.spans[index]
            return end - start, result
        finally:
            self.op = None

    # -- patching -------------------------------------------------------

    def install(self, sf) -> None:
        modules = [m for n, m in sys.modules.items() if n == "skewflow" or n.startswith("skewflow.")]
        for module_name, attr, span in SPANS:
            self._patch(modules, getattr(sf, module_name), attr, self._span_wrapper(span))
        for module_name, attr, counter in COUNTERS:
            self._patch(modules, getattr(sf, module_name), attr, self._count_wrapper(counter))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, modules, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                self._set(cls, meth, staticmethod(make(raw.__func__)))
            else:
                self._set(cls, meth, make(raw))
            return
        fn = getattr(module, attr)
        wrapped = make(fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapped)

    def _set(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def _span_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        span = self._span
        if name == "pfaffian.kernel":
            counts = self.counts

            def make(fn):
                def kernel(matrix, *args, **kwargs):
                    if self.op is not None:
                        counts[(self.op, f"pfaffian.kernel_calls.d{matrix.dimension}")] += 1
                    return span(name, fn, (matrix, *args), kwargs)
                return kernel
            return make

        def make(fn):
            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)
            return wrapper
        return make

    def _count_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        counts = self.counts
        key = name + "_calls"

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op is not None:
                    counts[(self.op, key)] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- metrics --------------------------------------------------------

    def counters(self, ops: set[int]) -> dict[str, int]:
        """Exact counts over the given ops: calls per span name, kernel calls
        per dimension, kernel calls made under an augmented Pfaffian, and
        exceptions raised per layer."""
        out: Counter = Counter()
        for (op, key), value in self.counts.items():
            if op in ops:
                out[key] += value
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]
        for i, span in enumerate(self.spans):
            if span[4] not in ops:
                continue
            out["calls:" + span[0]] += 1
            if span[0] == "pfaffian.kernel":
                p = parents[i]
                while p >= 0 and names[p] != "pfaffian.augmented":
                    p = parents[p]
                if p >= 0:
                    out["kernel_under_augmented"] += 1
        return dict(out)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total self and inclusive seconds per span name over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - covered[i]
            inclusive[name] += end - start
        return own, inclusive


def layer_metrics(rec: Recorder, traced_ops: int, prefix_ops: set[int]) -> dict[str, float]:
    """Per-layer metrics: times are per-op means over every traced op,
    counts are exact totals over the fixed prefix of ops."""
    own, inclusive = rec.self_times()
    counts = rec.counters(prefix_ops)
    out: dict[str, float] = {}
    for metric, span in CALL_METRICS.items():
        out[metric] = counts.get("calls:" + span, 0)
    for dim in KERNEL_DIMS:
        out[f"pfaffian.kernel_calls.d{dim}"] = counts.get(f"pfaffian.kernel_calls.d{dim}", 0)
    out[f"pfaffian.kernel_calls.d{KERNEL_DIMS[-1] + 2}plus"] = sum(
        v for k, v in counts.items()
        if k.startswith("pfaffian.kernel_calls.d") and int(k.rsplit("d", 1)[1]) > KERNEL_DIMS[-1]
    )
    augmented = out["pfaffian.augmented_calls"]
    out["pfaffian.kernel_per_augmented"] = (
        counts.get("kernel_under_augmented", 0) / augmented if augmented else 0.0
    )
    out["sops.skew_product_calls"] = counts.get("sops.skew_product_calls", 0)
    for metric, span in SELF_METRICS.items():
        out[metric] = own.get(span, 0.0) / traced_ops
    for sub in SUBCOMMANDS:
        out[f"cli.command_s.{sub}"] = inclusive.get(f"cli.command.{sub}", 0.0) / traced_ops
    for layer in LAYERS:
        out[f"{layer}.raised"] = counts.get(f"{layer}.raised", 0)
    return out
