"""Self-test of the benchmark on reduced workloads.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import FUNCTIONS  # noqa: E402

REFS = run.load_references()


def reduced(name, refs=REFS):
    if name == "catalog":
        return run.Catalog(refs, orders=range(1, 7))
    if name == "sweep":
        return run.Sweep(refs, orders=(12,))
    return run.Files(refs, seed=7, per_order=2)


def failures(workload, traced=False):
    p = run.run_pass(workload, traced, deadline=run.time.monotonic() + 120)
    assert p.ops
    return [op for op in p.ops if op[2]]


@pytest.mark.parametrize("name", ["catalog", "sweep", "files"])
def test_no_failures_at_head(name):
    assert failures(reduced(name)) == []


@pytest.mark.parametrize("name, table, key", [
    ("catalog", "enumerate_sha256", "4"),
    ("sweep", "sweep_sha256", "12"),
    ("sweep", "theoremcheck_sha256", "12"),
    ("sweep", "sweep_exit", "12"),
])
def test_corrupted_reference_fails(name, table, key):
    refs = copy.deepcopy(REFS)
    value = refs[table][key]
    refs[table][key] = value + 1 if isinstance(value, int) else "0" * 64
    assert failures(reduced(name, refs))


@pytest.mark.parametrize("field", ["check_exit", "pair_exit", "mutant_exit"])
def test_corrupted_expected_exit_code_fails(field):
    workload = reduced("files")
    setup = workload.setup

    def corrupt_setup(p):
        setup(p)
        item = p.plan["items"][1]
        item[field] = 3 - item[field] if field == "pair_exit" else 1 - item[field]
        (p.work / "plan.json").write_text(json.dumps(p.plan))

    workload.setup = corrupt_setup
    assert len(failures(workload)) == 1


@pytest.mark.parametrize("name, bypassed", [
    ("catalog", [f for f in FUNCTIONS if f.split(".")[0] in ("ideals", "invariants", "ybe")]),
    ("sweep", ["groups.automorphism_group", "ybe.solution_from_brace", "ybe.check_solution"]),
    ("files", ["catalog.enumerate_braces", "catalog.catalog_invariant_sweep"]),
])
def test_traced_run_reports_every_layer_metric(name, bypassed):
    plain, traced = run.measure(reduced(name), seconds=0, trace=True)
    assert not [op for p in plain + traced for op in p.ops if op[2]]
    metrics = run.per_layer(plain, traced)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(metrics[f"{f}.calls"] == 0 for f in bypassed)
    assert metrics["cli.main.calls"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timeout_fails_the_operation(tmp_path):
    p = run.Pass(tmp_path, traced=False, deadline=run.time.monotonic())
    try:
        proc = p.process([sys.executable, "-c", "import time; time.sleep(60)"])
        p.record("sleep", proc, "", "sleep_s")
    finally:
        p.close()
    assert proc.timed_out and proc.seconds < 30
    assert p.ops == [("sleep", proc.seconds, "timeout")]
