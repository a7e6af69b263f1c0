"""Record the reference digests of every case of a workload.

    python3 bench/record.py WORKLOAD

Runs each case id of the workload's universe once, in order, and writes
one line per case to ``refs/WORKLOAD.txt``: the digest of its outputs, or
``singular`` when the program rejects its inputs as a singular
configuration.  Run it only on the commit whose outputs are the reference
(the commit that defined the benchmark).  If any other check fails, the
case is listed and nothing is written.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    os.environ["SKEWFLOW_THREADS"] = "1"
    sf = wl.load_program()
    count = workload.universe
    (wl.ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=wl.ROOT / ".bench_work")
    digests, failed = [], []
    started = time.perf_counter()
    try:
        for cid in range(count):
            seconds, text, failures = wl.run_and_check(
                sf, workload, cid, {"workdir": workdir}, None, wl.plain_timer)
            if wl.is_singular(failures):
                digests.append(wl.SINGULAR)
            elif failures:
                failed.append(cid)
                print(f"case {cid} failed: {'; '.join(failures)}", file=sys.stderr)
            else:
                digests.append(wl.digest(text))
            if cid % 64 == 63:
                print(f"{cid + 1}/{count} cases, {time.perf_counter() - started:.0f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{digests.count(wl.SINGULAR)} of {count} cases singular; "
          f"{len(failed)} failed: {failed}")
    if failed:
        return 1
    (wl.BENCH_DIR / "refs").mkdir(exist_ok=True)
    (wl.BENCH_DIR / "refs" / f"{workload.name}.txt").write_text("\n".join(digests) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
