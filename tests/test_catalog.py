import json
import os
import signal
import zlib
from contextlib import contextmanager
from functools import cache, reduce
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit.catalog
import bracekit.invariants
from bracekit.braces import brace_isomorphic, verify_brace
from bracekit.catalog import (
    _build_catalog,
    _circle_tables_holomorph,
    _classes,
    _generators,
    _lambda_group,
    _relabeling,
    CACHE_CRC32,
    catalog_invariant_sweep,
    enumerate_braces,
)
from bracekit.cli import main
from bracekit.formats import dumps, load_brace
from bracekit.groups import (
    BoundExceededError,
    GroupAxiomError,
    automorphism_group,
    flat_permutation,
    relabel_table,
)
from bracekit.grouptables import MAX_ORDER, cyclic, direct_product_group, groups_of_order

from conftest import (
    ORDER_16_GROUPS,
    oracle_canonical_circle,
    oracle_circle_tables_holomorph,
    oracle_close_permutations,
    oracle_enumerate,
    oracle_flat_mark_orbits,
    oracle_mark_orbits,
)

KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47,
                9: 4, 10: 6, 11: 1, 12: 38}


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_counts(n, count):
    assert len(enumerate_braces(n).braces) == count


def test_methods_agree_on_small_orders():
    for n in range(1, 6):
        hol = enumerate_braces(n)
        exh = oracle_enumerate(n)
        assert len(hol.braces) == len(exh)
        # same classes, not merely the same count
        for A in exh:
            assert sum(1 for B in hol.braces if brace_isomorphic(A, B)) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_orbit_marking_matches_the_canonical_form_oracle(n):
    catalog = _build_catalog(n)
    for name, G in groups_of_order(n):
        entries = [A.circle.table for g, A in zip(catalog.additive_names, catalog.braces) if g == name]
        tables = [tuple(tuple(t[i:i + n]) for i in range(0, n * n, n)) for t in _circle_tables_holomorph(G)[1]]
        assert entries == sorted({oracle_canonical_circle(G, t) for t in tables})
        assert all(oracle_canonical_circle(G, t) == t for t in entries)


def flat_entries(braces) -> list[bytes]:
    return [bytes(chain.from_iterable(A.circle.table)) for A in braces]


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_catalog_matches_the_unrestricted_search_oracle(n):
    """The Sylow-restricted search with orbit marking by generators gives
    the catalog of the search over all of Aut(G) with ``relabel_table``
    orbit marking, and that of flat marking by all of Aut(G)."""
    catalog = _build_catalog(n)
    for name, G in groups_of_order(n):
        entries = [A for g, A in zip(catalog.additive_names, catalog.braces) if g == name]
        assert [A.circle.table for A in entries] == oracle_mark_orbits(G, oracle_circle_tables_holomorph(G))
        assert flat_entries(entries) == oracle_flat_mark_orbits(n, *_circle_tables_holomorph(G))


@pytest.mark.parametrize("factors, count, generators", [((4, 2, 2), 161, 4), ((2, 2, 2, 2), 39, 2)],
                         ids=["C4xC2xC2", "C2xC2xC2xC2"])
def test_marking_by_generators_matches_marking_by_all_of_aut_at_order_16(factors, count, generators):
    """Orbits are marked under 4 of the 192 automorphisms of C4×C2², and
    under 2 of the 20,160 of C2⁴."""
    G = reduce(direct_product_group, map(cyclic, factors))
    auts, tables = _circle_tables_holomorph(G)
    assert len(_generators(auts)) == generators
    classes = _classes(G)
    assert len(classes) == count
    assert flat_entries(classes) == oracle_flat_mark_orbits(G.order, auts, tables)


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_generators_generate_the_automorphism_group(n):
    for _, G in groups_of_order(n):
        auts = automorphism_group(G)
        S = _generators(tuple(map(flat_permutation, auts)))
        assert set(S) <= set(map(flat_permutation, auts))
        assert oracle_close_permutations(n, [g[:n] for g in S]) == set(auts)


@pytest.mark.parametrize("G, restricted, unrestricted", [
    (direct_product_group(cyclic(2), direct_product_group(cyclic(2), cyclic(2))), 28, 232),
    (direct_product_group(cyclic(3), cyclic(3)), 3, 9),
], ids=["C2xC2xC2", "C3xC3"])
def test_sylow_restriction_table_counts(G, restricted, unrestricted):
    assert len(_circle_tables_holomorph(G)[1]) == restricted
    assert len(oracle_circle_tables_holomorph(G)) == unrestricted


def _p_part(m: int, p: int) -> int:
    q = 1
    while m % (q * p) == 0:
        q *= p
    return q


PRIME_POWER_GROUPS = [(name, G, n) for n in (2, 3, 4, 5, 7, 8, 9, 11)
                      for name, G in groups_of_order(n)] + \
    [(name, build(), 16) for name, build in ORDER_16_GROUPS.items()]


@pytest.mark.parametrize("name, G, n", PRIME_POWER_GROUPS, ids=[g[0] for g in PRIME_POWER_GROUPS])
def test_lambda_group_is_a_sylow_subgroup_of_aut(name, G, n):
    p = next(d for d in range(2, n + 1) if n % d == 0)
    auts = tuple(map(flat_permutation, automorphism_group(G)))
    P = _lambda_group(auts, n)
    assert P[0] == flat_permutation(range(G.order))
    assert len(set(P)) == len(P) == _p_part(len(auts), p)
    assert set(P) <= set(auts)
    assert {q.translate(r) for r in P for q in P} == set(P)


def test_lambda_group_starts_with_the_identity():
    """The λ-search closes from 0 ↦ index 0, which must be λ_0 = id."""
    for n in range(1, MAX_ORDER + 1):
        for _, G in groups_of_order(n):
            assert _lambda_group(tuple(map(flat_permutation, automorphism_group(G))), n)[0] == flat_permutation(range(n))


@pytest.mark.parametrize("n", (1, 6, 10, 12))
def test_lambda_group_is_all_of_aut_off_prime_powers(n):
    for _, G in groups_of_order(n):
        auts = tuple(map(flat_permutation, automorphism_group(G)))
        assert _lambda_group(auts, n) == auts


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_flat_relabeling_and_order_match_nested_tuples(n):
    """Orbit marking relabels and compares flat bytes: it relabels as
    ``relabel_table`` does, and orders tables as tuple-of-tuples do."""
    def flat(t):
        return bytes(chain.from_iterable(t))

    catalog = _build_catalog(n)
    tables = [A.circle.table for A in catalog.braces]
    assert sorted(tables, key=flat) == sorted(tables)
    for A in catalog.braces:
        relabelings = [(_relabeling(phi), relabel_table(A.circle.table, phi))
                       for phi in automorphism_group(A.add)]
        for (take, p), nested in relabelings:
            assert bytes(take(flat(A.circle.table))).translate(p) == flat(nested)
        orbit = [nested for _, nested in relabelings]
        assert flat(min(orbit)) == min(map(flat, orbit))
        assert sorted(orbit, key=flat) == sorted(orbit)


@cache
def _braces_with_additive_automorphisms():
    """Every catalog brace of order <= 12 with Aut(A,+), built once per test session."""
    return tuple((A, automorphism_group(A.add))
                 for n in KNOWN_COUNTS for A in _build_catalog(n).braces)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_additive_relabeling_canonicalizes_to_the_catalog_entry(data):
    for A, auts in _braces_with_additive_automorphisms():
        phi = data.draw(st.sampled_from(auts))
        circle = relabel_table(A.circle.table, phi)
        assert oracle_canonical_circle(A.add, circle) == A.circle.table
        assert brace_isomorphic(A, verify_brace(A.add.table, circle)) is not None


@pytest.mark.parametrize("n", range(1, 13))
def test_catalog_is_closed_under_opposite_braces(n):
    """The opposite brace, a +op b = b + a with the same circle, is a skew
    brace of the same order (Koch-Truman 2020), so exactly one entry is
    isomorphic to it."""
    braces = _build_catalog(n).braces
    for A in braces:
        opposite = verify_brace([list(col) for col in zip(*A.add.table)], A.circle.table)
        assert sum(1 for B in braces if brace_isomorphic(opposite, B)) == 1


def test_prime_orders_have_only_the_trivial_brace():
    for p in (2, 3, 5, 7):
        cat = enumerate_braces(p)
        assert len(cat.braces) == 1
        A = cat.braces[0]
        assert A.add.table == A.circle.table


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_entries_reverify_and_are_pairwise_non_isomorphic(n):
    cat = enumerate_braces(n)
    for A in cat.braces:
        B = verify_brace(A.add.table, A.circle.table)
        assert B.circle.table == A.circle.table
    for i, A in enumerate(cat.braces):
        for B in cat.braces[i + 1:]:
            assert brace_isomorphic(A, B) is None


def test_catalog_order_4_group_breakdown():
    cat = enumerate_braces(4)
    assert dict(cat.counts) == {"C4": 2, "C2xC2": 2}
    assert len(cat.additive_names) == 4


def test_build_is_deterministic():
    a = _build_catalog(6)
    b = _build_catalog(6)
    assert [A.circle.table for A in a.braces] == [B.circle.table for B in b.braces]
    assert a.additive_names == b.additive_names


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    """Every order's fresh file is served: its CRC-32 is the pinned one that
    the load checks, and every entry reverifies."""
    monkeypatch.setenv("BRACEKIT_CACHE", str(tmp_path / "cachedir"))
    for n in range(1, MAX_ORDER + 1):
        fresh = enumerate_braces(n)
        assert bracekit.catalog._load_cached(n) == fresh


def test_cache_file_is_the_sorted_dump_of_the_whole_payload(tmp_path, monkeypatch):
    """The file written one group at a time holds, byte for byte, the
    ``json.dumps(payload, sort_keys=True)`` of the whole payload, with the
    circle tables of each built-in group in catalog order."""
    monkeypatch.setenv("BRACEKIT_CACHE", str(tmp_path / "cachedir"))
    for n in range(1, MAX_ORDER + 1):
        catalog = enumerate_braces(n)
        entries = list(zip(catalog.additive_names, catalog.braces))
        circles = [[A.circle.table for name, A in entries if name == group] for group, _ in groups_of_order(n)]
        payload = {"version": bracekit.__version__, "order": n, "method": "holomorph", "circles": circles}
        path = tmp_path / "cachedir" / f"braces_{n}_holomorph.json"
        assert path.read_text() == json.dumps(payload, sort_keys=True)
        assert zlib.crc32(path.read_bytes()) == CACHE_CRC32[n - 1], f"CACHE_CRC32[{n - 1}] (order {n})"
    assert len(CACHE_CRC32) == MAX_ORDER


def test_a_new_cache_directory_is_read_and_written_in_the_same_process(tmp_path, monkeypatch):
    """A second call under another BRACEKIT_CACHE stores its catalog there
    instead of returning the first call's catalog from memory."""
    first, second = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("BRACEKIT_CACHE", str(first))
    a = enumerate_braces(8)
    monkeypatch.setenv("BRACEKIT_CACHE", str(second))
    b = enumerate_braces(8)
    assert (first / "braces_8_holomorph.json").exists()
    assert (second / "braces_8_holomorph.json").exists()
    assert a == b


def test_failed_cache_write_leaves_no_catalog_file(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))

    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    assert len(enumerate_braces(6).braces) == 6
    assert list(cachedir.iterdir()) == []

    monkeypatch.undo()
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(6)
    assert [p.name for p in cachedir.iterdir()] == ["braces_6_holomorph.json"]


def test_cache_with_a_missing_entry_is_rebuilt(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(8)
    path = cachedir / "braces_8_holomorph.json"
    stored = path.read_text()
    no_group, no_class = json.loads(stored), json.loads(stored)
    del no_group["circles"][4]  # the classes of Q8
    del no_class["circles"][1][3]  # one class of C4xC2
    for corrupt in (no_group, no_class, []):
        path.write_text(json.dumps(corrupt, sort_keys=True))
        assert len(enumerate_braces(8).braces) == 47
        assert [len(c) for c in json.loads(path.read_text())["circles"]] == [5, 14, 8, 12, 8]


def test_cache_with_a_repeated_class_is_rebuilt(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(4)
    path = cachedir / "braces_4_holomorph.json"
    payload = json.loads(path.read_text())
    payload["circles"][0][1] = payload["circles"][0][0]
    path.write_text(json.dumps(payload, sort_keys=True))
    braces = enumerate_braces(4).braces
    assert len(braces) == 4
    for i, A in enumerate(braces):
        for B in braces[i + 1:]:
            assert brace_isomorphic(A, B) is None
    assert json.loads(path.read_text())["circles"][0][1] != payload["circles"][0][0]


def test_cache_with_bool_entries_is_rebuilt(tmp_path, monkeypatch):
    """A circle table holding JSON true and false for 1 and 0 was served,
    and ``enumerate --out`` then wrote a brace file that ``load_brace``
    rejects.  A bool is no index, so the file is a miss and is rewritten
    with ints."""
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(2)
    path = cachedir / "braces_2_holomorph.json"
    payload = json.loads(path.read_text())
    assert payload["circles"] == [[[[0, 1], [1, 0]]]]
    payload["circles"] = [[[[0, True], [True, False]]]]
    path.write_text(json.dumps(payload, sort_keys=True))
    assert bracekit.catalog._load_cached(2) is None
    out = tmp_path / "out"
    assert main(["enumerate", "2", "--out", str(out)]) == 0
    assert load_brace(out / "brace_2_000.json") == enumerate_braces(2).braces[0]
    stored = json.loads(path.read_text())["circles"]
    assert stored == [[[[0, 1], [1, 0]]]]
    assert {type(v) for row in stored[0][0] for v in row} == {int}


def _non_canonical_copy(c8: list) -> tuple[int, list]:
    """(i, t): t relabels class i of ``c8`` by an automorphism of C8 and
    differs from every table in ``c8``."""
    return next((i, t) for i, c in enumerate(c8) for phi in automorphism_group(cyclic(8))
                if (t := [list(row) for row in relabel_table(c, phi)]) not in c8)


def _add_a_copy_and_drop_a_q8_class(circles: list) -> None:
    circles[0] = sorted(circles[0] + [_non_canonical_copy(circles[0])[1]])
    del circles[4][-1]


def _swap_a_class_for_a_copy_of_another(circles: list) -> None:
    i, t = _non_canonical_copy(circles[0])
    circles[0][i - 1] = t
    circles[0].sort()


@pytest.mark.parametrize("tamper", [_add_a_copy_and_drop_a_q8_class, _swap_a_class_for_a_copy_of_another])
def test_cache_with_a_non_canonical_class_is_rebuilt(tmp_path, monkeypatch, tamper):
    """Two files that passed every shape check of the load before the CRC:
    each group's tables strictly increasing, five groups, 47 tables in all,
    every one a brace on its group.  (a) C8 gains a non-canonical copy of
    one of its classes and Q8 loses one, so two C8 entries are isomorphic;
    (b) one C8 class is swapped for a non-canonical copy of another.  Each
    is a miss, and is rewritten byte for byte as a fresh build writes it."""
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(8)
    path = cachedir / "braces_8_holomorph.json"
    fresh = path.read_bytes()
    payload = json.loads(fresh)
    tamper(payload["circles"])
    assert all(a < b for c in payload["circles"] for a, b in zip(c, c[1:]))
    assert sum(map(len, payload["circles"])) == 47
    path.write_text(json.dumps(payload, sort_keys=True))
    assert bracekit.catalog._load_cached(8) is None
    assert enumerate_braces(8) == _build_catalog(8)
    assert path.read_bytes() == fresh


def test_cache_with_the_pinned_crc_is_still_verified(tmp_path, monkeypatch):
    """A writer who forges a file with the pinned CRC, modelled by pinning
    the CRC of a file whose table holds JSON true and false, still gets a
    miss: every entry is verified against its group after the CRC."""
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces(2)
    path = cachedir / "braces_2_holomorph.json"
    payload = json.loads(path.read_text())
    payload["circles"] = [[[[0, True], [True, False]]]]
    path.write_text(json.dumps(payload, sort_keys=True))
    forged = (CACHE_CRC32[0], zlib.crc32(path.read_bytes()), *CACHE_CRC32[2:])
    monkeypatch.setattr(bracekit.catalog, "CACHE_CRC32", forged)
    assert bracekit.catalog._load_cached(2) is None


def test_cache_cannot_relabel_an_additive_group(tmp_path, monkeypatch):
    """A file in the layout that stored each entry's additive table and name:
    entry 0, on C8, relabeled by a permutation that is no automorphism of
    C8, is still a brace, and was served as C8 with the radical [0, 2, 4, 7].
    Additive tables now come from the built-in groups, so the file is a miss
    and is rewritten with the circle tables alone."""
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    built = _build_catalog(8)
    swap = (0, 1, 2, 3, 4, 5, 7, 6)
    entries = [{"group": name, "add": A.add.table, "circle": A.circle.table}
               for name, A in zip(built.additive_names, built.braces)]
    entries[0] = {"group": "C8", "add": relabel_table(entries[0]["add"], swap),
                  "circle": relabel_table(entries[0]["circle"], swap)}
    verify_brace(entries[0]["add"], entries[0]["circle"])
    payload = {"version": bracekit.__version__, "order": 8, "method": "holomorph",
               "counts": built.counts, "entries": entries}
    path = cachedir / "braces_8_holomorph.json"
    cachedir.mkdir()
    path.write_text(json.dumps(payload, sort_keys=True))
    assert enumerate_braces(8) == built
    assert sorted(json.loads(path.read_text())) == ["circles", "method", "order", "version"]


def test_unknown_method_rejected(capsys):
    for method in ("exhaustive", "magic"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "4", "--method", method])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_sweep_order_6_all_weight_one():
    sweep = catalog_invariant_sweep(enumerate_braces(6))
    assert sweep["count"] == 6
    assert all(row["weight"] == 1 for row in sweep["rows"])
    for name, bucket in sweep["aggregate"].items():
        assert bucket["fail"] == 0, name


def test_sweep_parallel_output_identical(monkeypatch):
    """At every order the forked rows, sent back as JSON, equal the serial
    ones as values (no tuple comes back as a list) and as output text."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in range(1, MAX_ORDER + 1):
        cat = enumerate_braces(n)
        serial = catalog_invariant_sweep(cat, jobs=1)
        parallel = catalog_invariant_sweep(cat, jobs=2)
        assert parallel == serial and dumps(parallel) == dumps(serial), n
    _assert_no_child_left()


def test_sweep_pool_is_capped_at_the_task_count(monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    calls = []

    def sweep(cat, jobs=1):
        before = len(forks)
        text = dumps(catalog_invariant_sweep(cat, jobs=jobs))
        if len(forks) > before:
            calls.append(len(forks) - before)
        return text

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cat = enumerate_braces(4)
    assert sweep(cat, jobs=16) == sweep(cat)
    assert calls == [3]
    sweep(enumerate_braces(2), jobs=16)
    assert calls == [3]

    # ... and at the CPU count, or serial when that is unknown
    serial = sweep(cat)
    for cpus in (3, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs in range(1, 7):
            assert sweep(cat, jobs=jobs) == serial
    assert calls == [3, 1, 2, 2, 2, 2]
    _assert_no_child_left()


def test_sweep_without_fork_runs_serially(monkeypatch):
    cat = enumerate_braces(4)
    serial = dumps(catalog_invariant_sweep(cat))
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert dumps(catalog_invariant_sweep(cat, jobs=4)) == serial


@contextmanager
def _hang_guard(seconds=30):
    """Turn a hang into a test failure after ``seconds``."""
    def hung(signum, frame):
        raise TimeoutError("the parallel sweep hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_last_order_8_entry(monkeypatch, action):
    """Make the sweep row of the last order-8 entry run ``action()`` instead
    of its report.  At two workers that entry is in the forked slice."""
    last = enumerate_braces(8).braces[-1]
    report = bracekit.invariants.brace_report
    monkeypatch.setattr(bracekit.invariants, "brace_report",
                        lambda A: action() if A == last else report(A))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_sweep_worker_bound_error_exits_3_as_serially(monkeypatch, capsys):
    parent = os.getpid()

    def exceed():
        raise BoundExceededError("in the parent" if os.getpid() == parent else "in a worker")

    _on_last_order_8_entry(monkeypatch, exceed)
    assert main(["sweep", "8", "--jobs", "1"]) == 3
    assert "bound exceeded: in the parent" in capsys.readouterr().err
    with _hang_guard():
        assert main(["sweep", "8", "--jobs", "2"]) == 3
    assert "bound exceeded: in a worker" in capsys.readouterr().err
    _assert_no_child_left()


def test_sweep_worker_axiom_error_exits_2_as_serially(monkeypatch, capsys):
    parent = os.getpid()

    def fail():
        raise GroupAxiomError("associativity", (1, 2, 3),
                              "in the parent" if os.getpid() == parent else "in a worker")

    _on_last_order_8_entry(monkeypatch, fail)
    assert main(["sweep", "8", "--jobs", "1"]) == 2
    assert capsys.readouterr().err == ("invalid input: in the parent\n"
                                       "  axiom: associativity, witness: (1, 2, 3)\n")
    with _hang_guard():
        assert main(["sweep", "8", "--jobs", "2"]) == 2
    assert capsys.readouterr().err == ("invalid input: in a worker\n"
                                       "  axiom: associativity, witness: (1, 2, 3)\n")
    _assert_no_child_left()


def test_sweep_worker_that_exits_without_sending_exits_4(monkeypatch, capsys):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "the last entry ran in the parent"
        os._exit(1)

    _on_last_order_8_entry(monkeypatch, die)
    with _hang_guard():
        assert main(["sweep", "8", "--jobs", "2"]) == 4
    assert "internal error: RuntimeError" in capsys.readouterr().err
    _assert_no_child_left()


class _ParentSliceError(Exception):
    pass


def _padded_report(monkeypatch, parent_raises):
    """Pad every sweep row past 64 KB, the pipe buffer, so no worker's
    message fits in its pipe; with ``parent_raises`` the parent's own rows
    raise ``_ParentSliceError`` instead."""
    parent = os.getpid()
    report = bracekit.invariants.brace_report

    def padded(A):
        if parent_raises and os.getpid() == parent:
            raise _ParentSliceError
        return {**report(A), "padding": "x" * (1 << 16)}

    monkeypatch.setattr(bracekit.invariants, "brace_report", padded)


def test_sweep_parent_error_beside_a_full_pipe_propagates(monkeypatch):
    """The parent's own slice raises while the worker is blocked writing:
    the exception propagates and the worker is reaped."""
    _padded_report(monkeypatch, parent_raises=True)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with _hang_guard(), pytest.raises(_ParentSliceError):
        catalog_invariant_sweep(enumerate_braces(8), jobs=2)
    _assert_no_child_left()


def test_sweep_workers_send_messages_larger_than_a_pipe(monkeypatch):
    """Three workers each send over 64 KB: every pipe reaches EOF (no later
    worker holds an earlier write end) and the rows are the serial ones."""
    _padded_report(monkeypatch, parent_raises=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cat = enumerate_braces(8)
    with _hang_guard():
        assert dumps(catalog_invariant_sweep(cat, jobs=3)) == dumps(catalog_invariant_sweep(cat))
    _assert_no_child_left()
