"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl
from spans import Recorder

# Never used while the workloads were tuned.
HELD_OUT_SEED = 20261017
BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sf():
    return wl.load_program()


@pytest.fixture
def ctx(tmp_path):
    return {"workdir": str(tmp_path)}


def run_script(*args, cwd=wl.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_schedule_is_seeded_stratified_and_well_posed(name):
    workload = wl.WORKLOADS[name]
    refs = wl.load_references(workload)
    order = wl.schedule(workload, 7, refs)
    assert order == wl.schedule(workload, 7, refs)
    assert order != wl.schedule(workload, 8, refs)
    assert len(set(order)) == len(order) > workload.universe * 0.9
    assert all(refs[cid] != wl.SINGULAR for cid in order)
    kinds = [cid % len(workload.kinds) for cid in order]
    assert kinds == [i % len(workload.kinds) for i in range(len(order))]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_held_out_seed_outputs_match_references(sf, ctx, name):
    workload = wl.WORKLOADS[name]
    refs = wl.load_references(workload)
    for cid in wl.schedule(workload, HELD_OUT_SEED, refs)[:2]:
        _, text, failures = wl.run_and_check(sf, workload, cid, ctx, refs, wl.plain_timer)
        assert failures == [] and text is not None


def test_gate_rejects_a_wrong_reference(sf, ctx):
    workload = wl.WORKLOADS["sop-chain"]
    refs = list(wl.load_references(workload))
    cid = wl.schedule(workload, HELD_OUT_SEED, refs)[0]
    refs[cid] = "0" * 16
    _, _, failures = wl.run_and_check(sf, workload, cid, ctx, refs, wl.plain_timer)
    assert len(failures) == 1 and failures[0].startswith("digest")


def test_gate_rejects_a_family_that_differs_from_the_oracle(sf, ctx, monkeypatch):
    workload = wl.WORKLOADS["sop-chain"]
    refs = wl.load_references(workload)
    cid = wl.schedule(workload, HELD_OUT_SEED, refs)[0]
    real = sf.sops.oracle_family

    def doubled_norms(table, pairs):
        family = real(table, pairs)
        return sf.sops.SOPFamily(family.polys, [2 * r for r in family.norms], family.gauge)

    monkeypatch.setattr(sf.sops, "oracle_family", doubled_norms)
    _, _, failures = wl.run_and_check(sf, workload, cid, ctx, refs, wl.plain_timer)
    assert any(f.startswith("oracle:") for f in failures)
    assert any(f.startswith("digest") for f in failures)


@pytest.mark.parametrize("name", ["lattice-box", "cli-session"])
def test_gate_rejects_a_vacuous_report(sf, ctx, monkeypatch, name):
    workload = wl.WORKLOADS[name]
    refs = wl.load_references(workload)
    cid = wl.schedule(workload, HELD_OUT_SEED, refs)[0]
    monkeypatch.setattr(sf.lattice, "verify_dpfl", lambda field: sf.report.Report("dpfl", {}))
    _, _, failures = wl.run_and_check(sf, workload, cid, ctx, refs, wl.plain_timer)
    assert "dpfl:vacuous, no check was evaluated" in failures


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_counters_repeat_exactly_and_tracing_restores_the_program(sf, ctx, name):
    workload = wl.WORKLOADS[name]
    refs = wl.load_references(workload)
    cids = wl.schedule(workload, HELD_OUT_SEED, refs)[:2]
    originals = dict(vars(sf.lattice))
    counters = []
    for _ in range(2):
        rec = Recorder()
        rec.install(sf)
        try:
            for op, cid in enumerate(cids):
                wl.run_and_check(sf, workload, cid, ctx, refs,
                                 lambda thunk, op=op: rec.run_op(op, thunk))
        finally:
            rec.uninstall()
        counters.append(rec.counters({0, 1}))
    assert counters[0] == counters[1]
    assert counters[0]["calls:pfaffian.kernel"] > 0
    calls = {k for k in counters[0] if k.startswith("calls:")}
    assert ("calls:lattice.build_grid" in calls) == (name != "sop-chain")
    assert ("calls:transforms.christoffel" in calls) == (name != "lattice-box")
    assert ("calls:cli.main" in calls) == (name == "cli-session")
    assert dict(vars(sf.lattice)) == originals


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_its_section(trace, section):
    done = run_script("--workload", "sop-chain", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_script("--workload", "lattice-box", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
