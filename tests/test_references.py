"""The CLI's catalog, sweep and theorem-check bytes against frozen digests.

``bench/references.json`` holds the sha256 of every ``enumerate N --out``
directory (n = 1..12), of the ``sweep 8|12 --desc-bound 8`` payloads and of
the ``theoremcheck corpus:8|12 --json`` output.  These tests run the same
commands in-process and require the same digests and exit codes, so any
refactor that changes a byte of the catalog or the sweep fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bracekit.cli import main

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())
DESC_BOUND = "8"


def sha256_tree(path: Path) -> str:
    """Digest of every file under ``path``: names and contents, in name order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(REFERENCES["enumerate_sha256"], key=int))
def test_enumerate_tree_matches_reference(n, tmp_path, capsys):
    out = tmp_path / f"enumerate_{n}"
    assert main(["enumerate", n, "--out", str(out), "--method", "holomorph"]) == 0
    assert sha256_tree(out) == REFERENCES["enumerate_sha256"][n]


@pytest.mark.parametrize("n", sorted(REFERENCES["sweep_sha256"], key=int))
def test_sweep_payload_matches_reference(n, tmp_path, capsys):
    out = tmp_path / f"sweep_{n}.json"
    code = main(["sweep", n, "--jobs", "1", "--desc-bound", DESC_BOUND, "--out", str(out)])
    assert code == REFERENCES["sweep_exit"][n]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCES["sweep_sha256"][n]


@pytest.mark.parametrize("n", sorted(REFERENCES["theoremcheck_sha256"], key=int))
def test_theoremcheck_output_matches_reference(n, capsys):
    code = main(["theoremcheck", f"corpus:{n}", "--json", "--desc-bound", DESC_BOUND])
    assert code == REFERENCES["theoremcheck_exit"][n]
    stdout = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == REFERENCES["theoremcheck_sha256"][n]
