import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from bracekit.braces import trivial_brace
from bracekit import cli
from bracekit.catalog import catalog_invariant_sweep, enumerate_braces
from bracekit.cli import _plain_args, build_parser, main
from bracekit import invariants
from bracekit.formats import (
    MAX_INPUT_ORDER,
    InputFormatError,
    brace_payload,
    dump,
    dumps,
    load_brace,
    load_solution,
    solution_payload,
)
from bracekit.groups import BoundExceededError
from bracekit.grouptables import cyclic, direct_product_group
from bracekit.ybe import make_solution, solution_from_brace

from conftest import klein_group, radical_ring_brace


@pytest.fixture
def ring_path(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(dumps(brace_payload(radical_ring_brace())))
    return str(path)


@pytest.fixture
def swaps_path(tmp_path):
    sigma = [(1, 0, 2, 3)] * 4
    tau = [(0, 1, 3, 2)] * 4
    path = tmp_path / "swaps.json"
    path.write_text(dumps(solution_payload(make_solution(sigma, tau))))
    return str(path)


def test_verify_ok(ring_path, capsys):
    assert main(["verify", ring_path]) == 0
    out = capsys.readouterr().out
    assert "valid skew brace" in out
    assert "additive group: C4" in out
    assert "circle group: C2 x C2" in out


def test_verify_broken_table_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "order": 3,
        "add": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "circle": [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
    }))
    assert main(["verify", str(bad)]) == 2


def test_verify_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def test_report_json_roundtrip(ring_path, capsys):
    assert main(["report", ring_path, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["radical"] == [0, 2]
    assert payload["weight"] == 1
    assert payload["wedderburn_factor_orders"] == [2]
    for bound in ("1", "16"):  # --desc-bound does not change the report
        assert main(["report", ring_path, "--json", "--desc-bound", bound]) == 0
        assert capsys.readouterr().out == out


def test_report_over_ideal_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "c17.json"
    path.write_text(dumps(brace_payload(trivial_brace(cyclic(17)))))
    assert main(["report", str(path)]) == 3
    assert "bound exceeded" in capsys.readouterr().err


def test_ideals_with_dot(ring_path, tmp_path, capsys):
    dot = tmp_path / "lattice.dot"
    assert main(["ideals", ring_path, "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "3 ideals" in out
    assert "[maximal" in out
    text = dot.read_text()
    assert text.startswith("digraph ideals {")
    assert '"{0}" -> "{0,2}"' in text
    assert '"{0,2}" -> "{0,1,2,3}"' in text


def test_ideals_flags_the_prime_maximal_ideal_of_an_additive_a4_brace(tmp_path, capsys):
    """Of the catalogs of order 1..12, only entries 20 and 25 of order 12,
    both on A4, have a prime maximal ideal: {0}."""
    path = tmp_path / "a4.json"
    path.write_text(dumps(brace_payload(enumerate_braces(12).braces[20])))
    assert main(["ideals", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2 ideals", "  [0]  [maximal, prime, small]", f"  {list(range(12))}"]


def test_radical_command(ring_path, capsys):
    assert main(["radical", ring_path]) == 0
    out = capsys.readouterr().out
    assert "radical: [0, 2]" in out
    assert "non-generators: [0, 2]" in out


@pytest.mark.parametrize("bound, lines", [
    ([], ["non-generators: [0, 2, 4, 6]"]),
    (["--desc-bound", "8"], ["non-generators: [0, 2, 4, 6]"]),
    (["--desc-bound", "1"], []),
])
def test_radical_stdout_prints_the_non_generators_up_to_the_bound(bound, lines, tmp_path, capsys):
    """The stdout of ``radical`` on an order-8 catalog brace: the
    non-generators line is printed only when the order is at most
    ``--desc-bound``."""
    path = tmp_path / "b8.json"
    path.write_text(dumps(brace_payload(enumerate_braces(8).braces[3])))
    assert main(["radical", str(path), *bound]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "radical: [0, 2, 4, 6]", "radical': [0, 1, 2, 3, 4, 5, 6, 7]", "maximal ideals: 1",
        *lines, "sum of small ideals: [0, 2, 4, 6]"]


def test_weight_command(tmp_path, capsys):
    c2 = cyclic(2)
    G = direct_product_group(direct_product_group(c2, c2), c2)
    path = tmp_path / "c2cubed.json"
    path.write_text(dumps(brace_payload(trivial_brace(G))))
    assert main(["weight", str(path)]) == 0
    assert "weight = 3" in capsys.readouterr().out


def test_decompose_command(tmp_path, capsys):
    path = tmp_path / "klein.json"
    path.write_text(dumps(brace_payload(trivial_brace(klein_group()))))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "A/Rad(A) has order 4" in out
    assert "simple factors: [2, 2]" in out


def test_theoremcheck_corpus(capsys):
    assert main(["theoremcheck", "corpus:4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        assert all(status in ("pass", "na") for status in row["checks"].values())


def test_theoremcheck_single_file(ring_path, capsys):
    assert main(["theoremcheck", ring_path]) == 0
    out = capsys.readouterr().out
    assert "gaschutz" in out and "schur-embedding" in out


def test_enumerate_with_manifest(tmp_path, capsys):
    out_dir = tmp_path / "braces4"
    assert main(["enumerate", "4", "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["order"] == 4 and manifest["count"] == 4
    assert len(manifest["files"]) == 4
    for fname in manifest["files"]:
        payload = json.loads((out_dir / fname).read_text())
        assert payload["order"] == 4
        # every emitted file loads back as a valid brace via the CLI
        assert main(["verify", str(out_dir / fname)]) == 0


def test_dump_writes_the_dumps_text(capsys):
    """``dump`` streams exactly the text of ``dumps``, as ``theoremcheck
    --json`` prints it, on a sweep, a theoremcheck, a report and a solution
    payload."""
    assert main(["theoremcheck", "corpus:4", "--json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert out == dumps(rows)
    A = radical_ring_brace()
    for payload in (catalog_invariant_sweep(enumerate_braces(8)), rows,
                    invariants.brace_report(A), solution_payload(solution_from_brace(A))):
        fp = io.StringIO()
        dump(payload, fp)
        assert fp.getvalue() == dumps(payload)


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "sweep6.json"
    assert main(["sweep", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 6
    assert all(bucket["fail"] == 0 for bucket in payload["aggregate"].values())


def test_prop_desc_passes_on_every_brace_of_order_12(tmp_path, capsys):
    out = tmp_path / "sweep12.json"
    assert main(["sweep", "12", "--desc-bound", "12", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["aggregate"]["prop-desc"] == {"pass": 38, "fail": 0, "na": 0}


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "6", "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert captured.out == ""


def test_crash_exits_4_not_check_failed(ring_path, monkeypatch, capsys):
    def crash(A):
        raise AssertionError("factor product is not isomorphic to A/Rad(A)")

    monkeypatch.setattr(invariants, "wedderburn_decompose", crash)
    assert main(["decompose", ring_path]) == cli.EXIT_INTERNAL_ERROR == 4
    captured = capsys.readouterr()
    assert "internal error: AssertionError: factor product" in captured.err
    assert "Traceback" in captured.err
    assert captured.out == ""


def test_weight_lift_that_does_not_generate_exits_4(ring_path, monkeypatch, capsys):
    """``weight`` re-verifies the lift of a generating set of A/Rad(A).  A
    lift that does not generate A is a bug, reported as an internal error,
    not covered by a search in A."""
    A = load_brace(ring_path)
    real_closure = invariants.ideal_closure
    first_in_A = []

    def lift_does_not_generate(B, seed):
        if B == A and not first_in_A:
            first_in_A.append(seed)
            return frozenset({0})
        return real_closure(B, seed)

    invariants.weight.cache_clear()
    monkeypatch.setattr(invariants, "ideal_closure", lift_does_not_generate)
    assert main(["weight", ring_path]) == cli.EXIT_INTERNAL_ERROR == 4
    assert first_in_A
    assert "internal error: AssertionError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "13"], ["enumerate", "0"], ["enumerate", "-1"],
    ["sweep", "13"], ["sweep", "0"],
    ["theoremcheck", "corpus:x"], ["theoremcheck", "corpus:13"], ["theoremcheck", "corpus:0"],
])
def test_order_without_a_catalog_exits_2(argv, capsys):
    assert main(argv) == cli.EXIT_INVALID_INPUT == 2
    captured = capsys.readouterr()
    assert "invalid input" in captured.err
    assert "Traceback" not in captured.err


def test_internal_value_error_exits_4_not_invalid_input(ring_path, monkeypatch, capsys):
    def not_an_ideal(A, I):
        raise ValueError("not an ideal")

    monkeypatch.setattr(invariants, "_brace_cosets", not_an_ideal)
    assert main(["decompose", ring_path]) == cli.EXIT_INTERNAL_ERROR == 4
    captured = capsys.readouterr()
    assert "internal error: ValueError: not an ideal" in captured.err
    assert "invalid input" not in captured.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "4", "--out"],
    ["sweep", "4", "--out"],
    ["ideals", "{brace}", "--dot"],
    ["ybe", "from-brace", "{brace}", "--out"],
    ["ybe", "derived", "{solution}", "--out"],
], ids=["enumerate", "sweep", "ideals", "ybe-from-brace", "ybe-derived"])
def test_unwritable_output_is_invalid_input(argv, ring_path, swaps_path, tmp_path, capsys):
    regular_file = tmp_path / "regular"
    regular_file.write_text("")
    argv = [a.format(brace=ring_path, solution=swaps_path) for a in argv]
    assert main([*argv, str(regular_file / "out")]) == cli.EXIT_INVALID_INPUT == 2
    captured = capsys.readouterr()
    assert "invalid input: cannot write" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["derived", "group"])
def test_degenerate_solution_is_invalid_input(command, tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    S = make_solution([(0, 0), (0, 0)], [(0, 1), (0, 1)])
    path.write_text(dumps(solution_payload(S)))
    assert main(["ybe", command, str(path)]) == 2
    assert "non-degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("kind,key,tables", [
    ("brace", "order", ()),  # the bound is read before the tables are looked for
    ("brace", "order", ("add", "circle")),
    ("solution", "size", ("sigma", "tau")),
])
def test_oversized_input_fails_fast(kind, key, tables, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({key: MAX_INPUT_ORDER + 1, **{t: [] for t in tables}}))
    loader = {"brace": load_brace, "solution": load_solution}[kind]
    with pytest.raises(BoundExceededError, match="257"):
        loader(path)


def test_oversized_input_exits_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": 257, "add": [], "circle": []}))
    assert main(["verify", str(path)]) == cli.EXIT_BOUND_EXCEEDED == 3
    assert "bound exceeded" in capsys.readouterr().err


BOOL_ORDER_BRACE = {"order": True, "add": [[0]], "circle": [[0]]}
BOOL_TABLE_BRACE = {"order": 2, "add": [[False, True], [True, False]], "circle": [[0, 1], [1, 0]]}
BOOL_TABLE_SOLUTION = {"size": 2, "sigma": [[0, 1], [0, 1]], "tau": [[True, False], [0, 1]]}


@pytest.mark.parametrize("loader,payload", [
    (load_brace, {"order": 2, "add": [[0, 1], [1, 0]], "circle": [[0, 1], [1, False]]}),
    (load_solution, {"size": 2, "sigma": [[0, True], [0, 1]], "tau": [[0, 1], [0, 1]]}),
    (load_brace, BOOL_ORDER_BRACE),
    (load_brace, BOOL_TABLE_BRACE),
    (load_solution, {"size": True, "sigma": [[0]], "tau": [[0]]}),
    (load_solution, BOOL_TABLE_SOLUTION),
])
def test_loaders_reject_json_booleans(loader, payload, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(InputFormatError):
        loader(path)


@pytest.mark.parametrize("command,payload", [
    (["verify"], BOOL_ORDER_BRACE),
    (["verify"], BOOL_TABLE_BRACE),
    (["ybe", "from-brace"], BOOL_TABLE_BRACE),
    (["ybe", "check"], BOOL_TABLE_SOLUTION),
])
def test_json_booleans_exit_2(command, payload, tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    assert main([*command, str(path)]) == cli.EXIT_INVALID_INPUT == 2
    captured = capsys.readouterr()
    assert "invalid input" in captured.err
    assert "false" not in captured.out


# Bytes that are not UTF-8, and JSON nested past the parser's recursion limit.
HOSTILE_FILES = {"not-utf-8": b"\xff\xfe\x00", "over-deep": b"[" * 100000}


@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
@pytest.mark.parametrize("loader", [load_brace, load_solution])
def test_loaders_reject_undecodable_and_over_deep_files(loader, content, tmp_path):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    with pytest.raises(InputFormatError):
        loader(path)


@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
@pytest.mark.parametrize("command", [["verify"], ["report"], ["ybe", "check"]])
def test_undecodable_and_over_deep_files_exit_2(command, content, tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    assert main([*command, str(path)]) == cli.EXIT_INVALID_INPUT == 2
    assert "invalid input" in capsys.readouterr().err


# Files the loaders refuse before any table is verified: (kind, content,
# message), where the content None is no file and "directory" a directory.
MALFORMED_FILES = {
    "missing-file": ("brace", None, "cannot read"),
    "directory": ("brace", "directory", "cannot read"),
    "top-level-array": ("brace", [{"order": 1, "add": [[0]], "circle": [[0]]}], "top-level value must be an object"),
    "add-not-a-list": ("brace", {"order": 1, "add": 0, "circle": [[0]]}, "'add' must be a list of 1 rows"),
    "row-not-a-list": ("brace", {"order": 2, "add": [[0, 1], 1], "circle": [[0, 1], [1, 0]]},
                       "'add' row 1 must be a list of 2 entries"),
    "sigma-row-a-string": ("solution", {"size": 2, "sigma": ["01", [0, 1]], "tau": [[0, 1], [0, 1]]},
                           "'sigma' row 0 must be a list of 2 entries"),
}


def malformed_file(tmp_path, content):
    path = tmp_path / "malformed.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(json.dumps(content))
    return str(path)


@pytest.mark.parametrize("kind,content,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_loaders_reject_malformed_files(kind, content, message, tmp_path):
    loader = {"brace": load_brace, "solution": load_solution}[kind]
    with pytest.raises(InputFormatError, match=message):
        loader(malformed_file(tmp_path, content))


@pytest.mark.parametrize("kind,content,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_files_exit_2(kind, content, message, tmp_path, capsys):
    command = {"brace": ["verify"], "solution": ["ybe", "check"]}[kind]
    assert main([*command, malformed_file(tmp_path, content)]) == cli.EXIT_INVALID_INPUT == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input:") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES)
def test_undecodable_or_over_deep_cache_file_is_a_miss_and_is_replaced(content, tmp_path,
                                                                       monkeypatch, capsys):
    monkeypatch.setenv("BRACEKIT_CACHE", str(tmp_path))
    path = tmp_path / "braces_4_holomorph.json"
    path.write_bytes(content)
    assert main(["enumerate", "4"]) == 0
    assert [len(c) for c in json.loads(path.read_text())["circles"]] == [2, 2]


def test_ybe_check(swaps_path, capsys):
    assert main(["ybe", "check", swaps_path]) == 0
    out = capsys.readouterr().out
    assert "is_ybe: True" in out
    assert "is_involutive: False" in out
    assert "injectivity: unknown" in out


def test_ybe_check_witness_flag(swaps_path, capsys):
    assert main(["ybe", "check", swaps_path, "--witness"]) == 0
    assert "involutive_witness:" in capsys.readouterr().out


def test_ybe_check_failure_exit_code(tmp_path):
    sigma = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
    tau = [(0, 1, 2)] * 3
    path = tmp_path / "broken.json"
    path.write_text(dumps(solution_payload(make_solution(sigma, tau))))
    assert main(["ybe", "check", str(path)]) == 1


def test_ybe_from_brace_and_derived(ring_path, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert main(["ybe", "from-brace", ring_path, "--out", str(sol)]) == 0
    capsys.readouterr()
    payload = json.loads(sol.read_text())
    expected = solution_from_brace(radical_ring_brace())
    assert payload["sigma"] == [list(r) for r in expected.sigma]
    assert main(["ybe", "derived", str(sol)]) == 0
    captured = capsys.readouterr()
    derived = json.loads(captured.out)
    assert derived["size"] == 4
    assert "quandle:" in captured.err


def test_ybe_derived_of_a_non_solution_is_not_reported_as_a_rack(tmp_path, capsys):
    """A non-degenerate input that is not a solution can have derived maps
    x ↦ y▷x that are not permutations (rows (0,0,1) and (0,1,0) here), so
    its derived form is no rack: it is written, but given no quandle or
    orbit report."""
    path = tmp_path / "non_solution.json"
    S = make_solution([(0, 2, 1), (2, 0, 1), (2, 0, 1)], [(0, 2, 1), (1, 0, 2), (2, 0, 1)])
    path.write_text(dumps(solution_payload(S)))
    assert main(["ybe", "derived", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"size": 3, "sigma": [[0, 1, 2]] * 3,
                                        "tau": [[0, 0, 1], [1, 2, 0], [0, 1, 0]]}
    assert captured.err == "derived form is not a rack: some map x -> y|>x is not a permutation\n"


def test_ybe_group(swaps_path, capsys):
    assert main(["ybe", "group", swaps_path]) == 0
    out = capsys.readouterr().out
    assert "permutation group order: 2" in out
    assert "solution orbits (sigma and tau): [[0, 1], [2, 3]]" in out


def test_console_entry_point(ring_path):
    proc = subprocess.run([sys.executable, "-m", "bracekit.cli", "verify", ring_path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid skew brace" in proc.stdout


def test_stdout_closed_by_its_reader_keeps_the_exit_code():
    """A reader that closes stdout before the JSON is written, as ``| head``
    may, loses the output but not the verdict: no internal error."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "bracekit.cli", "sweep", "8"],
                              stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, "")


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one in-process call; a usage error
    exits through ``SystemExit``, as it does from the console."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_main_calls_carry_no_state(ring_path, tmp_path, capsys):
    """Calls in one process give what each gives when run again: an option
    of one call never leaks into the next."""
    broken = tmp_path / "broken.json"
    S = make_solution([(1, 0, 2), (0, 2, 1), (2, 1, 0)], [(0, 1, 2)] * 3)
    broken.write_text(dumps(solution_payload(S)))
    sweep_out = tmp_path / "sweep.json"
    calls = [
        ["report", ring_path, "--json", "--desc-bound", "12"],
        ["report", ring_path],
        ["sweep", "8", "--jobs", "2", "--out", str(sweep_out)],
        ["sweep", "8"],
        ["ybe", "check", str(broken), "--witness"],
        ["sweep", "8", "--jobs", "0"],
        ["ybe", "check", str(broken)],
    ]

    first = [_outcome(argv, capsys) for argv in calls]
    first_sweep = sweep_out.read_bytes()
    again = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 1, 2, 1]
    assert first == again
    assert sweep_out.read_bytes() == first_sweep
    assert "braid_witness" in first[4][1] and "braid_witness" not in first[6][1]


@pytest.mark.parametrize("argv, code, out_start, err_end", [
    ("--help", 0, "usage: bracekit [-h]", ""),
    ("ybe --help", 0, "usage: bracekit ybe [-h] {check,from-brace,derived,group} ...", ""),
    ("sweep --help", 0, "usage: bracekit sweep [-h] [--jobs JOBS]", ""),
    ("ybe check --help", 0, "usage: bracekit ybe check [-h] [--witness] solution", ""),
    ("verify", 2, "", "bracekit verify: error: the following arguments are required: brace"),
    ("verify a b", 2, "", "bracekit: error: unrecognized arguments: b"),
    ("enumerate x", 2, "", "bracekit enumerate: error: argument order: invalid int value: 'x'"),
    ("enumerate 3 --frob", 2, "", "bracekit: error: unrecognized arguments: --frob"),
    ("sweep 6 --jobs 0", 2, "", "bracekit sweep: error: argument --jobs: must be at least 1, got 0"),
    ("frob", 2, "", "bracekit: error: argument command: invalid choice: 'frob'"),
    ("ybe", 2, "", "bracekit ybe: error: the following arguments are required: ybe_command"),
    ("enumerate -h", 0, "usage: bracekit enumerate [-h]", ""),
    ("sweep 6 --jobs=0", 2, "", "bracekit sweep: error: argument --jobs: must be at least 1, got 0"),
    ("enumerate 3 --out", 2, "", "bracekit enumerate: error: argument --out: expected one argument"),
    ("enumerate 3 --method frob", 2, "", "bracekit enumerate: error: argument --method: invalid choice: 'frob'"),
    ("ybe check", 2, "", "bracekit ybe check: error: the following arguments are required: solution"),
])
def test_help_and_usage_errors_are_those_of_the_full_parser(argv, code, out_start, err_end, capsys):
    """``main`` prints, byte for byte, what the parser of every command prints
    for a help request or a usage error, and exits as it does."""
    assert _plain_args(argv.split()) is None
    outcome = _outcome(argv.split(), capsys)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv.split())
    assert outcome == (exc.value.code, *capsys.readouterr())
    assert outcome[0] == code
    assert outcome[1].startswith(out_start) and (outcome[1] == "") == (out_start == "")
    assert outcome[2].rstrip("\n").split("\n")[-1].startswith(err_end)


@pytest.mark.parametrize("spelling, plain", [
    ("theoremcheck corpus:4 --json --desc-bound=8", "theoremcheck corpus:4 --json --desc-bound 8"),
    ("theoremcheck corpus:4 --json --desc 8", "theoremcheck corpus:4 --json --desc-bound 8"),
    ("sweep 4 --jobs 1 --jobs 2", "sweep 4 --jobs 2"),
    ("enumerate -- 3", "enumerate 3"),
])
def test_valid_spellings_that_are_not_plain_run_as_the_plain_one(spelling, plain, capsys):
    """argparse parses the spellings ``_plain_args`` declines, an ``=`` value,
    an abbreviated option, a repeated option and ``--``, and the command runs
    as it does for the plain line."""
    assert _plain_args(spelling.split()) is None and _plain_args(plain.split()) is not None
    assert _outcome(spelling.split(), capsys) == _outcome(plain.split(), capsys)


# Pieces of a command line: every option string of every command alone and
# with a valid or an invalid value, and alone the tokens argparse treats
# specially: help, ``--``, ``-``, a negative number, an ``=`` value, an
# abbreviation, an empty string and a leading space.
_VALUES = ["3", "8", "0", "x", "F", "corpus:4", "holomorph", "frob", "", " 8", "-1"]
_PIECES = [[token] for token in _VALUES + ["--json", "--witness", "-", "--", "--out=F", "--desc", "-h"]]
_PIECES += [[option, *value] for option in ["--desc-bound", "--dot", "--method", "--out", "--jobs"]
            for value in [[]] + [[v] for v in _VALUES]]
_COMMAND_LINES = ["verify", "report", "ideals", "radical", "weight", "decompose", "theoremcheck",
                  "enumerate", "sweep", "ybe check", "ybe from-brace", "ybe derived", "ybe group"]


@pytest.mark.parametrize("command", _COMMAND_LINES)
def test_plain_args_agree_with_the_full_parser(command, capsys):
    """Over 4,000 lines of up to four ``_PIECES`` drawn with a fixed seed,
    repeats included, every line ``_plain_args`` accepts is one that
    ``build_parser().parse_args`` accepts, with the same values, less
    ``command``."""
    rng = random.Random(command)
    parser = build_parser()
    accepted = 0
    for _ in range(4000):
        argv = command.split() + sum(rng.choices(_PIECES, k=rng.randint(0, 4)), [])
        args = _plain_args(argv)
        if args is None:
            continue
        accepted += 1
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"_plain_args accepts {argv}, which argparse rejects: {capsys.readouterr().err}")
        del expected["command"]
        assert vars(args) == expected, argv
    assert accepted >= 20


def test_ybe_group_on_a_huge_permutation_group_exits_3_fast(tmp_path, capsys):
    """The sigma maps of this 256-point solution, a 256-cycle and a
    transposition, generate the symmetric group of degree 256.  Its closure
    stops at the bound on stored integers, 39,062 permutations of 256
    points, within seconds."""
    n = MAX_INPUT_ORDER
    cycle = tuple((i + 1) % n for i in range(n))
    transposition = (1, 0, *range(2, n))
    path = tmp_path / "huge-group.json"
    S = make_solution([cycle, transposition] * (n // 2), [tuple(range(n))] * n)
    path.write_text(dumps(solution_payload(S)))
    start = time.perf_counter()
    assert main(["ybe", "group", str(path)]) == cli.EXIT_BOUND_EXCEEDED == 3
    assert time.perf_counter() - start < 10
    assert "bound exceeded: permutation closure" in capsys.readouterr().err
