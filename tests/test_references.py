"""The CLI's catalog, sweep and theorem-check bytes against frozen digests.

``bench/references.json`` holds the sha256 of every ``enumerate N --out``
directory (n = 1..12), of the ``sweep 8|12 --desc-bound 8`` payloads and of
the ``theoremcheck corpus:8|12 --json`` output.  These tests run the same
commands in-process and require the same digests and exit codes, so any
refactor that changes a byte of the catalog or the sweep fails here.  Each
command runs twice in one cache directory: the first run builds the catalog
and stores it, the second reads it back from the disk cache.  The digests of
``sweep 12`` and ``theoremcheck corpus:12 --json`` at the default
``--desc-bound`` (16, so ``prop-desc`` is checked at order 12) are pinned
here, beside the benchmark's.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bracekit.cli import main

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())
DESC_BOUND = "8"
DEFAULT_BOUND_SHA256 = {
    "sweep": "3a6d4d68446f7de2e913dc5d0d4583dcadccc30341bc50637f7ac42099d928e9",
    "theoremcheck": "fc36f9367b53aea24698e0317f69d51afae9790b6a3435c36b7c786c1958e347",
}


def sha256_tree(path: Path) -> str:
    """Digest of every file under ``path``: names and contents, in name order."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("n", sorted(REFERENCES["enumerate_sha256"], key=int))
def test_enumerate_tree_matches_reference(n, tmp_path, capsys):
    for run in ("cold", "warm"):
        out = tmp_path / f"enumerate_{n}_{run}"
        assert main(["enumerate", n, "--out", str(out), "--method", "holomorph"]) == 0
        assert sha256_tree(out) == REFERENCES["enumerate_sha256"][n], run


@pytest.mark.parametrize("n", sorted(REFERENCES["sweep_sha256"], key=int))
def test_sweep_payload_matches_reference(n, tmp_path, capsys):
    for run in ("cold", "warm"):
        out = tmp_path / f"sweep_{n}_{run}.json"
        code = main(["sweep", n, "--jobs", "1", "--desc-bound", DESC_BOUND, "--out", str(out)])
        assert code == REFERENCES["sweep_exit"][n], run
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCES["sweep_sha256"][n], run


@pytest.mark.parametrize("n", sorted(REFERENCES["theoremcheck_sha256"], key=int))
def test_theoremcheck_output_matches_reference(n, capsys):
    for run in ("cold", "warm"):
        code = main(["theoremcheck", f"corpus:{n}", "--json", "--desc-bound", DESC_BOUND])
        assert code == REFERENCES["theoremcheck_exit"][n], run
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == REFERENCES["theoremcheck_sha256"][n], run


def test_default_bound_order_12_matches_reference(tmp_path, capsys):
    """At the default bound ``prop-desc`` passes on all 38 braces of order 12."""
    for run in ("cold", "warm"):
        out = tmp_path / f"sweep_12_{run}.json"
        assert main(["sweep", "12", "--out", str(out)]) == 0, run
        assert json.loads(out.read_bytes())["aggregate"]["prop-desc"] == {"pass": 38, "fail": 0, "na": 0}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_BOUND_SHA256["sweep"], run
        capsys.readouterr()
        assert main(["theoremcheck", "corpus:12", "--json"]) == 0, run
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == DEFAULT_BOUND_SHA256["theoremcheck"], run
