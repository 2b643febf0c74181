#!/usr/bin/env python3
"""Write the benchmark's frozen references from the current source tree.

Usage (from the repository root): python3 bench/freeze.py

Runs the bracekit CLI once per reference and writes ``references.json``
(the sha256 of every ``enumerate --out`` directory and ``sweep`` /
``theoremcheck`` payload, their exit codes, and the published counts) and
``data/catalog_N.json`` (the order-8 and order-12 catalogs with the
label-free fields of their reports), which the ``files`` workload relabels.
Run it only on a commit whose outputs are known to be right: the benchmark
then fails any later commit whose outputs differ.
"""

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

import run
from inputs import label_free

# Skew braces of order n up to isomorphism: Guarnieri and Vendramin,
# Math. Comp. 86 (2017), Table 5.1.
PUBLISHED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47, 9: 4, 10: 6, 11: 1, 12: 38}
FILES_ORDERS = (8, 12)


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    p = run.Pass(work, traced=False, deadline=time.monotonic() + 3600)
    try:
        refs = {"published_counts": {str(n): c for n, c in PUBLISHED_COUNTS.items()},
                "enumerate_sha256": {}, "sweep_sha256": {}, "sweep_exit": {},
                "theoremcheck_sha256": {}, "theoremcheck_exit": {}, "catalogs": {}}
        for n, count in PUBLISHED_COUNTS.items():
            out = work / f"enumerate_{n}"
            proc = p.cli("enumerate", n, "--out", out, "--method", "holomorph")
            if proc.code != 0 or f"order {n}: {count} braces".encode() not in proc.out:
                raise SystemExit(f"enumerate {n} does not give the published {count} braces")
            refs["enumerate_sha256"][str(n)] = run.sha256_tree(out)
        for n in FILES_ORDERS:
            out = work / f"sweep_{n}.json"
            proc = p.cli("sweep", n, "--jobs", 1, "--desc-bound", run.DESC_BOUND, "--out", out)
            refs["sweep_exit"][str(n)] = proc.code
            refs["sweep_sha256"][str(n)] = run.sha256_file(out)
            rows = json.loads(out.read_text())["rows"]
            proc = p.cli("theoremcheck", f"corpus:{n}", "--json", "--desc-bound", run.DESC_BOUND)
            refs["theoremcheck_exit"][str(n)] = proc.code
            refs["theoremcheck_sha256"][str(n)] = hashlib.sha256(proc.out).hexdigest()

            catalog = []
            for i, row in enumerate(rows):
                brace = json.loads((work / f"enumerate_{n}" / f"brace_{n}_{i:03d}.json").read_text())
                catalog.append({"group": row["additive_name"], "add": brace["add"],
                                "circle": brace["circle"], "report": label_free(row)})
            path = run.BENCH / "data" / f"catalog_{n}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(catalog, separators=(",", ":")) + "\n")
            refs["catalogs"][str(n)] = {"file": path.relative_to(run.BENCH).as_posix(),
                                        "sha256": run.sha256_file(path)}
        (run.BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    finally:
        p.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
