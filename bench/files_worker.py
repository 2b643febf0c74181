"""The ``files`` workload: one user's operations on their own files, in one process.

Usage: python files_worker.py PLAN RESULT [SPANS]

Runs every operation of PLAN (written by ``inputs.make_plan``) through
``bracekit.cli.main(argv)`` or ``brace_isomorphic``, one after the other,
and writes one [operation, seconds, failure] row per operation to RESULT;
the failure is "" when the operation gave what the plan expects.  With
SPANS, the layers are traced and the spans written there.  bracekit must be
importable, for instance through PYTHONPATH.
"""

import contextlib
import hashlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import bracekit.braces
import bracekit.cli
import bracekit.formats

from inputs import label_free
from spans import Tracer

OP_TIMEOUT_S = 30


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bracekit.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_failure(code, want) -> str:
    return "" if code == want else f"exit {code}, expected {want}"


def _operations(item, rep):
    """(name, function returning a failure or "") for the operations on one item."""
    brace, solution = item["brace"], item["solution"]

    def verify():
        code, out, _ = _cli("verify", brace)
        return _exit_failure(code, 0) or ("" if out.startswith("valid skew brace") else "no verdict")

    def report():
        code, out, _ = _cli("report", brace, "--json", "--desc-bound", "8")
        if code != 0:
            return _exit_failure(code, 0)
        return "" if label_free(json.loads(out)) == item["report"] else "report differs from the catalog's"

    def from_brace():
        code, _, _ = _cli("ybe", "from-brace", brace, "--out", solution)
        if code != 0:
            return _exit_failure(code, 0)
        digest = hashlib.sha256(Path(solution).read_bytes()).hexdigest()
        return "" if digest == item["solution_sha256"] else "solution bytes differ"

    def check():
        return _exit_failure(_cli("ybe", "check", solution, "--witness")[0], item["check_exit"])

    def isomorphic():
        A = bracekit.formats.load_brace(brace)
        m = bracekit.braces.brace_isomorphic(A, rep)
        if m is None:
            return "no isomorphism found"
        p, n = m.mapping, A.order
        ok = sorted(p) == list(range(n)) and all(
            p[A.add.table[a][b]] == rep.add.table[p[a]][p[b]]
            and p[A.circle.table[a][b]] == rep.circle.table[p[a]][p[b]]
            for a in range(n) for b in range(n))
        return "" if ok else "returned map is not an isomorphism"

    def verify_pair():
        code, _, err = _cli("verify", item["pair"])
        if code == 2 and "witness" not in err:
            return "rejected without a witness"
        return _exit_failure(code, item["pair_exit"])

    def check_mutant():
        return _exit_failure(_cli("ybe", "check", item["mutant"], "--witness")[0], item["mutant_exit"])

    return [("verify", verify), ("report", report), ("ybe-from-brace", from_brace),
            ("ybe-check", check), ("brace-isomorphic", isomorphic),
            ("verify-invalid", verify_pair), ("ybe-check-mutant", check_mutant)]


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if len(sys.argv) > 3:
        tracer = Tracer()
        tracer.install()

    reps = {int(order): [bracekit.braces.verify_brace(e["add"], e["circle"]) for e in entries]
            for order, entries in plan["catalogs"].items()}

    signal.signal(signal.SIGALRM, _alarm)
    rows = []
    for item in plan["items"]:
        for name, op in _operations(item, reps[item["order"]][item["index"]]):
            if tracer:
                tracer.op += 1
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            start = time.perf_counter()
            try:
                failure = op()
            except OpTimeout:
                failure = "timeout"
            except Exception as exc:  # a crash fails this operation, not the pass
                failure = f"crash: {exc!r}"
            finally:
                seconds = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            rows.append([name, seconds, failure])

    if tracer:
        tracer.dump(sys.argv[3])
    Path(sys.argv[2]).write_text(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
