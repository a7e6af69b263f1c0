"""skewflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process, on one thread, as
a closed loop: each op starts when the previous one has finished.  Every op
is gated: its reports must pass, its CLI exits must be 0, sop-chain's family
must equal the oracle, and the digest of its canonical JSON outputs must
match the reference recorded when the benchmark was defined.

Op costs are given in "ref" units: the op's CPU time divided by the CPU time
of a fixed reference loop (``workloads.reference``), taken as the median of
the REF_SIDE loops run before the op and the REF_SIDE run after it.  The
host's speed cancels out of that ratio; the same figures in CPU seconds are
printed alongside.  ``setup_s`` is measured the same way and converted back
to seconds at a fixed loop time, REF_SECONDS.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions (``spans.py``) and prints the per-layer metrics.
Every metric is printed as "name: value unit"; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import workloads as wl
from spans import Recorder, layer_metrics

# Set-up runs SETUP_REPS times in each of three windows: before the timed
# loop, between its halves and after it, so that a short slow spell of the
# host moves at most a third of the reps.
SETUP_REPS = 3
TAIL_PERCENTILE = 90
TAIL_OPS = 100  # ops a run makes at least, for ten samples beyond the tail
RATE_WINDOW = 10  # ops per throughput window
REF_SIDE = 2  # reference loops on each side of an op in its yardstick
# The reference loop's median CPU time on the machine where the benchmark
# was defined (Python 3.11.7, 2 vCPUs): setup_s is set-up cost in ref units
# times this, i.e. CPU seconds at that machine's median speed.
REF_SECONDS = 0.004
WORK_DIR = wl.ROOT / ".bench_work"
BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# One op: case id, CPU seconds, cost in ref units, the largest bit length of
# a rational in its outputs, failures.  The output text itself is not kept,
# so that the benchmark's memory does not grow with the number of ops.
Op = collections.namedtuple("Op", "cid seconds cost bits failures")


def environment(threads_before: str | None) -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "SKEWFLOW_THREADS": threads_before if threads_before is not None else "unset",
    }


def in_ref_units(seconds, loops):
    """Cost of each timed piece in ref units; ``loops[i]`` ran just before
    piece i and ``loops[i + 1]`` just after it."""
    return [
        sec / statistics.median(loops[max(0, i + 1 - REF_SIDE): i + 1 + REF_SIDE])
        for i, sec in enumerate(seconds)
    ]


def loop(sf, workload, order, start, seconds, min_ops, ctx, refs, timer):
    """Closed loop from ``order[start]`` until ``seconds`` of wall time have
    passed and at least ``min_ops`` ops ran.  A reference loop runs before
    each op and once after the last."""
    runs, loops = [], []
    deadline = time.perf_counter() + seconds
    i = start
    while len(runs) < min_ops or time.perf_counter() < deadline:
        cid = order[i % len(order)]
        i += 1
        loops.append(wl.reference())
        sec, text, failures = wl.run_and_check(sf, workload, cid, ctx, refs, timer)
        runs.append((cid, sec, wl.max_bits(text or ""), failures))
    loops.append(wl.reference())
    costs = in_ref_units([sec for _, sec, _, _ in runs], loops)
    return [Op(cid, sec, cost, bits, failures)
            for (cid, sec, bits, failures), cost in zip(runs, costs)]


def setup(workload, seed, ctx, refs):
    """Import the program, derive the schedule and run the warm-up case,
    SETUP_REPS times, with a reference loop between reps.  Returns the last
    program namespace, the schedule, and one Op per rep whose seconds and
    cost are the whole rep's.  Every seed and every rep warms up on the same
    case, so that the reps differ only in the host's speed."""
    warm = wl.warmup_case(workload, refs)
    runs, loops = [], []
    for _ in range(SETUP_REPS):
        loops.append(wl.reference())
        start = wl.CLOCK()
        sf = wl.load_program()
        order = wl.schedule(workload, seed, refs)
        loaded = wl.CLOCK() - start
        seconds, text, failures = wl.run_and_check(sf, workload, warm, ctx, refs, wl.plain_timer)
        runs.append((loaded + seconds, wl.max_bits(text or ""), failures))
    loops.append(wl.reference())
    costs = in_ref_units([sec for sec, _, _ in runs], loops)
    return sf, order, [Op(warm, sec, cost, bits, failures)
                       for (sec, bits, failures), cost in zip(runs, costs)]


def report_failures(ops) -> int:
    failed = [op for op in ops if op.failures]
    for op in failed[:5]:
        print(f"op case {op.cid} failed: {'; '.join(op.failures)}", file=sys.stderr)
    return len(failed)


def timed_loop(sf, workload, seed, order, seconds, ctx, refs, setups):
    """The end-to-end run: two halves of the closed loop, with set-up reps
    before, between and after them (appended to ``setups``)."""
    ops = []
    for _ in range(2):
        ops += loop(sf, workload, order, len(ops), seconds / 2, TAIL_OPS // 2,
                    ctx, refs, wl.plain_timer)
        sf, _, more = setup(workload, seed, ctx, refs)
        setups += more
    return ops


def end_to_end(ops, setups):
    attempted = len(ops) + len(setups)
    failed = report_failures(setups + ops)
    passed = [op for op in ops if not op.failures]
    costs = [op.cost for op in passed]
    seconds = [op.seconds for op in passed]
    # Throughput of each window of consecutive ops, median over windows; a
    # failed op counts toward a window's cost but not its op count.
    windows = [ops[i:i + RATE_WINDOW] for i in range(0, len(ops) - RATE_WINDOW + 1, RATE_WINDOW)]
    rates = [1000 * sum(not op.failures for op in w) / sum(op.cost for op in w) for w in windows]
    tail = TAIL_PERCENTILE - 1
    metrics = {
        "ops_per_kref": statistics.median(rates) if rates else 0.0,
        "op_p50_ref": statistics.median(costs) if costs else 0.0,
        "op_tail_ref": statistics.quantiles(costs, n=100)[tail] if len(costs) > 1 else 0.0,
        "setup_s": statistics.median(op.cost for op in setups) * REF_SECONDS,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = len(passed) - int(len(passed) * TAIL_PERCENTILE / 100)
    print(f"op_tail_ref is p{TAIL_PERCENTILE} of {len(passed)} passed ops, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: tail not resolved)"))
    print(f"fail_ratio: {failed / attempted} ({failed} of {attempted} ops, warm-ups included)")
    if len(seconds) > 1:
        print(f"in CPU seconds, not gated: op_p50_s {statistics.median(seconds)}, "
              f"op_tail_s {statistics.quantiles(seconds, n=100)[tail]}, "
              f"ops_per_s {len(seconds) / sum(op.seconds for op in ops)}, "
              f"ref_s {statistics.median(op.seconds / op.cost for op in passed)}, "
              f"setup_cpu_s {statistics.median(op.seconds for op in setups)}")
    return attempted, failed, metrics


def traced(sf, workload, order, seconds, ctx, refs, setups):
    """Untraced half, then traced half; then the prefix again, traced, to
    check that the counters repeat exactly."""
    plain = loop(sf, workload, order, len(order) // 2, seconds / 2, 1, ctx, refs, wl.plain_timer)
    prefix = set(range(workload.prefix_ops))
    runs = []
    for budget in (seconds / 2, 0):
        rec = Recorder()
        rec.install(sf)
        ids = itertools.count()
        try:
            ops = loop(sf, workload, order, 0, budget, workload.prefix_ops, ctx, refs,
                       lambda thunk: rec.run_op(next(ids), thunk))
        finally:
            rec.uninstall()
        bits = max(op.bits for op in ops[: workload.prefix_ops])
        runs.append((rec, ops, bits))
    (rec, ops, bits), (rec2, ops2, bits2) = runs
    failed = report_failures(setups + plain + ops + ops2)
    repeat = rec.counters(prefix) == rec2.counters(prefix) and bits == bits2
    if not repeat:
        print("counters differ between two traced runs of the same ops", file=sys.stderr)
    values = layer_metrics(rec, len(ops), prefix)
    values["algebra.output_max_bits"] = bits
    values["trace.op_p50_ref"] = statistics.median(op.cost for op in ops)
    values["trace.overhead_ref"] = values["trace.op_p50_ref"] - statistics.median(
        op.cost for op in plain)
    print(f"counters are totals over the first {workload.prefix_ops} ops; "
          f"times are per-op means over {len(ops)} traced ops")
    return len(setups) + len(plain) + len(ops) + len(ops2), failed, repeat, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    # Reports record SKEWFLOW_THREADS; pin it so output digests are stable.
    threads_before = os.environ.get("SKEWFLOW_THREADS")
    os.environ["SKEWFLOW_THREADS"] = "1"
    try:
        wl.load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {wl.ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    refs = wl.load_references(workload)
    if not refs:
        print(f"error: no reference digests for {workload.name}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(threads_before), sort_keys=True))

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    ctx = {"workdir": workdir}
    try:
        sf, order, setups = setup(workload, args.seed, ctx, refs)
        if args.trace:
            attempted, failed, repeat, metrics = traced(
                sf, workload, order, args.seconds, ctx, refs, setups)
            correct = failed == 0 and repeat
        else:
            ops = timed_loop(sf, workload, args.seed, order, args.seconds, ctx, refs, setups)
            attempted, failed, metrics = end_to_end(ops, setups)
            correct = failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for name, value in metrics.items():
        print(f"{name}: {value} {UNITS[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
