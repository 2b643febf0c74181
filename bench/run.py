#!/usr/bin/env python3
"""The bracekit benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload {catalog,sweep,files} --seed N --seconds S --trace {0,1}
                         [--record FILE]

Each workload is a closed loop driven by this one client: the next
operation starts only when the previous one has ended.  A run repeats
passes of its workload until ``--seconds`` have gone by.  Every pass sets
up from scratch in a fresh directory under ``.bench_work/`` (with its own
``BRACEKIT_CACHE``) and is then timed.

- ``catalog``: ``enumerate N --out DIR --method holomorph`` for N = 1..12,
  once with an empty disk cache (cold) and once with it filled (warm).
- ``sweep``: ``sweep N --jobs J --desc-bound 8 --out F`` for N in {8, 12}
  and J in {1, 2}, then ``theoremcheck corpus:N --json --desc-bound 8``,
  against a cache filled during set-up.
- ``files``: one process runs seeded per-file operations on relabeled
  catalog braces through ``bracekit.cli.main`` (see ``files_worker.py``).

Every operation's output is checked against frozen references
(``references.json``) or the benchmark's own brute-force oracles
(``inputs.py``); any mismatch, crash or timeout is a failed operation.

With ``--trace 0`` the run measures the real CLI untraced and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (``spans.py``).
Readable figures go to stderr; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  ``--record FILE`` appends a
fuller record of the run (machine, commit, samples and quartiles) to a JSON
list in FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import spans  # noqa: E402

PYTHON = sys.executable
OP_TIMEOUT_S = 90
RUN_LIMIT_S = 170      # a run has to end within 180 s
DESC_BOUND = "8"
# Metrics printed as the result; op_tail_ms and the per-phase times are
# printed to stderr and recorded, but their run-to-run spread on a shared
# 2-CPU machine is too wide for a regression bound.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark itself could not go on; no result is printed."""


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_tree(path: Path) -> str:
    """Digest of every file under ``path``: names and contents, in name order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def frozen_catalog(refs: dict, order: int) -> list[dict]:
    entry = refs["catalogs"][str(order)]
    path = BENCH / entry["file"]
    if sha256_file(path) != entry["sha256"]:
        raise BenchError(f"{path} does not match its stored digest")
    return json.loads(path.read_text())


class Proc(NamedTuple):
    """One finished process."""

    code: int
    seconds: float
    rss_kb: int
    out: bytes
    err: str
    timed_out: bool


class Spawner:
    """A ``spawner.py`` process that runs commands and measures them."""

    def __init__(self):
        self.proc = subprocess.Popen([PYTHON, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], env: dict, timeout: float, out_dir: Path) -> Proc:
        out, err = out_dir / "stdout", out_dir / "stderr"
        request = {"cmd": cmd, "env": env, "cwd": str(ROOT), "stdout": str(out),
                   "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process stopped")
        r = json.loads(reply)
        return Proc(r["code"], r["seconds"], r["rss_kb"], out.read_bytes(),
                    err.read_text(errors="replace"), r["timed_out"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Pass:
    """One set-up plus timed pass of a workload in a fresh directory.

    Operations are recorded as (name, seconds, failure) with failure "" for
    an operation whose output was right.
    """

    def __init__(self, work: Path, traced: bool, deadline: float):
        self.work, self.traced, self.deadline = work, traced, deadline
        self.spawner = Spawner()
        self.cache = work / "cache"
        self.proc_dir = work / "proc"
        for d in (self.cache, self.proc_dir, work / "tmp"):
            d.mkdir()
        # A fixed environment: bytecode caching on, as for users, whatever
        # the caller's PYTHONDONTWRITEBYTECODE; nothing under the real home.
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "HOME": str(work),
                    "TMPDIR": str(work / "tmp"), "PYTHONPATH": str(SRC),
                    "BRACEKIT_CACHE": str(self.cache)}
        self.ops: list[tuple[str, float, str]] = []
        self.phases: dict[str, float] = defaultdict(float)
        self.span_files: list[Path] = []
        self.rss_kb = 0
        self.setup_s = self.wall_s = 0.0
        self.layers: dict[str, float] = {}
        self.plan: dict = {}

    def process(self, cmd: list[str]) -> Proc:
        timeout = max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        proc = self.spawner.run(cmd, self.env, timeout, self.proc_dir)
        self.rss_kb = max(self.rss_kb, proc.rss_kb)
        return proc

    def cli(self, *args, traced: bool | None = None) -> Proc:
        """Run ``bracekit`` with args: the real CLI, or the traced launcher."""
        args = [str(a) for a in args]
        if self.traced if traced is None else traced:
            path = self.work / f"spans_{len(self.span_files)}.json"
            self.span_files.append(path)
            cmd = [PYTHON, str(BENCH / "traced_cli.py"), str(path), str(len(self.ops) + 1), *args]
        else:
            cmd = [PYTHON, "-m", "bracekit.cli", *args]
        return self.process(cmd)

    def close(self) -> None:
        self.spawner.close()

    def record(self, name: str, proc: Proc, failure: str, phase: str) -> None:
        self.ops.append((name, proc.seconds, "timeout" if proc.timed_out else failure))
        self.phases[phase] += proc.seconds


def exit_failure(proc: Proc, want: int) -> str:
    return "" if proc.code == want else f"exit {proc.code}, expected {want}"


class Catalog:
    """Cold then warm ``enumerate`` of every supported order.

    The only workload where the holomorph λ-search, canonicalization under
    Aut(G,+) and ``automorphism_group`` do real work; the warm half is the
    disk-cache read path.  It never reaches ideals, invariants or ybe.
    """

    def __init__(self, refs: dict, orders=range(1, 13)):
        self.refs, self.orders = refs, list(orders)

    def setup(self, p: Pass) -> None:
        pass

    def run(self, p: Pass) -> None:
        cold = {}
        for phase in ("cold", "warm"):
            for n in self.orders:
                out = p.work / f"{phase}_{n}"
                proc = p.cli("enumerate", n, "--out", out, "--method", "holomorph")
                count = self.refs["published_counts"][str(n)]
                failure = exit_failure(proc, 0)
                if not failure and f"order {n}: {count} braces".encode() not in proc.out:
                    failure = f"count differs from the published {count}"
                if not failure:
                    digest = sha256_tree(out)
                    cold.setdefault(n, digest)
                    if digest != self.refs["enumerate_sha256"][str(n)]:
                        failure = "catalog bytes differ from the reference"
                    elif digest != cold[n]:
                        failure = "warm catalog differs from cold"
                p.record(f"enumerate-{phase}", proc, failure, f"enumerate_{phase}_s")


class Sweep:
    """Invariant sweeps at one and two jobs, and the theorem checks.

    The ideal lattice, closures, radical, weight, decomposition and theorem
    checks do nearly all the work; ``--jobs 2`` against ``--jobs 1``
    isolates the process pool.  It never calls ``automorphism_group`` or
    ybe: the catalog comes from the cache filled during set-up.
    """

    def __init__(self, refs: dict, orders=(8, 12)):
        self.refs, self.orders = refs, list(orders)

    def setup(self, p: Pass) -> None:
        for n in self.orders:
            proc = p.cli("enumerate", n, "--method", "holomorph", traced=False)
            if proc.code != 0:
                raise BenchError(f"enumerate {n} failed while filling the cache: {proc.err}")

    def run(self, p: Pass) -> None:
        for n in self.orders:
            payloads = []
            for jobs in (1, 2):
                out = p.work / f"sweep_{n}_j{jobs}.json"
                proc = p.cli("sweep", n, "--jobs", jobs, "--desc-bound", DESC_BOUND, "--out", out)
                failure = exit_failure(proc, self.refs["sweep_exit"][str(n)])
                if not failure:
                    payloads.append(out.read_bytes())
                    if hashlib.sha256(payloads[-1]).hexdigest() != self.refs["sweep_sha256"][str(n)]:
                        failure = "sweep bytes differ from the reference"
                    elif payloads[0] != payloads[-1]:
                        failure = "--jobs 2 bytes differ from --jobs 1"
                p.record(f"sweep-j{jobs}", proc, failure, f"sweep_j{jobs}_s")
        for n in self.orders:
            proc = p.cli("theoremcheck", f"corpus:{n}", "--json", "--desc-bound", DESC_BOUND)
            failure = exit_failure(proc, self.refs["theoremcheck_exit"][str(n)])
            if not failure and hashlib.sha256(proc.out).hexdigest() != \
                    self.refs["theoremcheck_sha256"][str(n)]:
                failure = "theoremcheck payload differs from the reference"
            p.record("theoremcheck", proc, failure, "theoremcheck_s")


class Files:
    """One user's files: verify, report, ybe and isomorphism on relabeled
    catalog braces, plus rejected inputs.  The only workload that reaches
    ybe, the isomorphism search and the reject paths; it never enumerates
    or sweeps.  The seed picks the relabelings, pairs and mutations.
    """

    OPS_PER_ITEM = 7

    def __init__(self, refs: dict, seed: int, orders=(8, 12), per_order: int | None = None):
        self.refs, self.seed, self.orders, self.per_order = refs, seed, orders, per_order

    def setup(self, p: Pass) -> None:
        catalogs = {n: frozen_catalog(self.refs, n) for n in self.orders}
        files = p.work / "files"
        files.mkdir()
        p.plan = inputs.make_plan(self.seed, files, catalogs, self.per_order)
        (p.work / "plan.json").write_text(json.dumps(p.plan))

    def run(self, p: Pass) -> None:
        cmd = [PYTHON, str(BENCH / "files_worker.py"), str(p.work / "plan.json"),
               str(p.work / "result.json")]
        if p.traced:
            p.span_files.append(p.work / "spans_files.json")
            cmd.append(str(p.span_files[-1]))
        proc = p.process(cmd)
        if proc.code == 0 and not proc.timed_out:
            for name, seconds, failure in json.loads((p.work / "result.json").read_text()):
                p.ops.append((name, seconds, failure))
        else:
            reason = "timeout" if proc.timed_out else f"worker exit {proc.code}: {proc.err[-300:]}"
            p.ops.extend([("files-worker", proc.seconds, reason)]
                         * (len(p.plan["items"]) * self.OPS_PER_ITEM))


WORKLOADS = {"catalog": Catalog, "sweep": Sweep, "files": Files}


def make_workload(name: str, refs: dict, seed: int):
    return Files(refs, seed) if name == "files" else WORKLOADS[name](refs)


def run_pass(workload, traced: bool, deadline: float) -> Pass:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    p = Pass(work, traced, deadline)
    try:
        start = time.perf_counter()
        warm = p.process([PYTHON, "-c", "import bracekit.cli"])
        if warm.code != 0:
            raise BenchError(f"cannot import bracekit from {SRC}: {warm.err}")
        workload.setup(p)
        p.setup_s = time.perf_counter() - start
        p.rss_kb = 0
        start = time.perf_counter()
        workload.run(p)
        p.wall_s = time.perf_counter() - start
        if traced:
            p.layers = spans.summarize([f for f in p.span_files if f.is_file()])
        return p
    finally:
        p.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Passes for ``seconds``: untraced ones and, with ``trace``, traced
    ones in turn.  At least one of each; no pass starts that would be
    expected to end after ``seconds``."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_pass(workload, False, deadline))
        if trace:
            traced.append(run_pass(workload, True, deadline))
        now = time.monotonic()
        if now + (now - t0) > start + seconds:
            return plain, traced


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"samples": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"samples": len(values), "median": median, "q1": q1, "q3": q3}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond); the maximum when there are too few."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs), 10


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """Each metric's median over passes, and its samples and quartiles."""
    samples = defaultdict(list)
    for p in passes:
        latencies = [s * 1000 for _, s, _ in p.ops]
        value, percentile, beyond = tail(latencies)
        samples["wall_s"].append(p.wall_s)
        samples["setup_s"].append(p.setup_s)
        samples["peak_rss_mb"].append(p.rss_kb / 1024)
        samples["op_p50_ms"].append(statistics.median(latencies))
        samples["op_tail_ms"].append(value)
        for phase, s in p.phases.items():
            samples[phase].append(s)
    detail = {name: quartiles(values) for name, values in samples.items()}
    detail["op_tail_ms"].update(percentile=percentile, beyond=beyond, ops=len(latencies))
    return {name: detail[name]["median"] for name in END_TO_END}, detail


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    names = list(traced[0].layers)
    metrics = {name: statistics.median(p.layers[name] for p in traced) for name in names}
    wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / wall - 1
    j1 = [p.phases["sweep_j1_s"] for p in plain if "sweep_j1_s" in p.phases]
    j2 = [p.phases["sweep_j2_s"] for p in plain if "sweep_j2_s" in p.phases]
    metrics["catalog.sweep.parallel_eff"] = \
        statistics.median(j1) / (2 * statistics.median(j2)) if j1 and j2 else 0.0
    return metrics


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_eff"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "bracekit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", help="append a record of this run to this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "bracekit" / "__init__.py").is_file():
        print(f"bracekit sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        workload = make_workload(args.workload, load_references(), args.seed)
        plain, traced = measure(workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    passes = plain + traced
    attempted = sum(len(p.ops) for p in passes)
    failures = [(name, why) for p in passes for name, _, why in p.ops if why]
    e2e, detail = end_to_end(plain)
    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"fail_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})", file=sys.stderr)
    for name, d in detail.items():
        unit = END_TO_END.get(name, "s" if name.endswith("_s") else "ms")
        extra = (f", p{d['percentile']:.1f} of {d['ops']} ops with {d['beyond']} beyond"
                 if "percentile" in d else "")
        print(f"  {name:18s} {d['median']:10.4f} {unit:3s} (passes {d['samples']}, "
              f"q1 {d['q1']:.4f}, q3 {d['q3']:.4f}{extra})", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_units(name)}
                   for name, v in per_layer(plain, traced).items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    if args.record:
        path = Path(args.record)
        records = json.loads(path.read_text()) if path.is_file() else []
        records.append({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                        "trace": args.trace, **machine(), "attempted": attempted,
                        "failed": len(failures), "fail_frac": len(failures) / attempted,
                        "end_to_end": detail, "per_layer": metrics if args.trace else {}})
        path.write_text(json.dumps(records, indent=1) + "\n")

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
