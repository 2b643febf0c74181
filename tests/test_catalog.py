import concurrent.futures
import json
import os
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import brace_isomorphic, verify_brace
from bracekit.catalog import (
    _build_catalog,
    _circle_tables_holomorph,
    _lambda_group,
    _relabeling,
    cache_directory,
    catalog_invariant_sweep,
    enumerate_braces,
)
from bracekit.cli import main
from bracekit.formats import dumps
from bracekit.groups import automorphism_group, flat_permutation, relabel_table
from bracekit.grouptables import MAX_ORDER, cyclic, direct_product_group, groups_of_order

from conftest import (
    ORDER_16_GROUPS,
    oracle_canonical_circle,
    oracle_circle_tables_holomorph,
    oracle_enumerate,
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


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_catalog_matches_the_unrestricted_search_oracle(n):
    """The Sylow-restricted search with flat orbit marking gives the catalog
    of the search over all of Aut(G) with ``relabel_table`` orbit marking."""
    catalog = _build_catalog(n)
    for name, G in groups_of_order(n):
        entries = [A.circle.table for g, A in zip(catalog.additive_names, catalog.braces) if g == name]
        assert entries == oracle_mark_orbits(G, oracle_circle_tables_holomorph(G))


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
    auts = set(map(flat_permutation, automorphism_group(G)))
    P = _lambda_group(automorphism_group(G), n)
    assert P[0] == flat_permutation(range(G.order))
    assert len(set(P)) == len(P) == _p_part(len(auts), p)
    assert set(P) <= auts
    assert {q.translate(r) for r in P for q in P} == set(P)


def test_lambda_group_starts_with_the_identity():
    """The λ-search closes from 0 ↦ index 0, which must be λ_0 = id."""
    for n in range(1, MAX_ORDER + 1):
        for _, G in groups_of_order(n):
            assert _lambda_group(automorphism_group(G), n)[0] == flat_permutation(range(n))


@pytest.mark.parametrize("n", (1, 6, 10, 12))
def test_lambda_group_is_all_of_aut_off_prime_powers(n):
    for _, G in groups_of_order(n):
        auts = automorphism_group(G)
        assert _lambda_group(auts, n) == tuple(map(flat_permutation, auts))


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


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_additive_relabeling_canonicalizes_to_the_catalog_entry(data):
    for n in KNOWN_COUNTS:
        for A in enumerate_braces(n, use_disk_cache=False).braces:
            phi = data.draw(st.sampled_from(automorphism_group(A.add)))
            circle = relabel_table(A.circle.table, phi)
            assert oracle_canonical_circle(A.add, circle) == A.circle.table
            assert brace_isomorphic(A, verify_brace(A.add.table, circle)) is not None


@pytest.mark.parametrize("n", range(1, 13))
def test_catalog_is_closed_under_opposite_braces(n):
    """The opposite brace, a +op b = b + a with the same circle, is a skew
    brace of the same order (Koch-Truman 2020), so exactly one entry is
    isomorphic to it."""
    braces = enumerate_braces(n, use_disk_cache=False).braces
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
    monkeypatch.setenv("BRACEKIT_CACHE", str(tmp_path / "cachedir"))
    enumerate_braces.cache_clear()
    fresh = enumerate_braces(6)
    assert cache_directory().exists()
    enumerate_braces.cache_clear()
    cached = enumerate_braces(6)
    assert [A.circle.table for A in cached.braces] == \
        [A.circle.table for A in fresh.braces]
    enumerate_braces.cache_clear()


def test_failed_cache_write_leaves_no_catalog_file(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))

    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    enumerate_braces.cache_clear()
    assert len(enumerate_braces(6).braces) == 6
    assert list(cachedir.iterdir()) == []

    monkeypatch.undo()
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces.cache_clear()
    enumerate_braces(6)
    assert [p.name for p in cachedir.iterdir()] == ["braces_6_holomorph.json"]
    enumerate_braces.cache_clear()


def test_cache_with_a_missing_entry_is_rebuilt(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces.cache_clear()
    enumerate_braces(8)
    path = cachedir / "braces_8_holomorph.json"
    payload = json.loads(path.read_text())
    del payload["entries"][5]
    for corrupt in (payload, []):
        path.write_text(json.dumps(corrupt, sort_keys=True))
        enumerate_braces.cache_clear()
        assert len(enumerate_braces(8).braces) == 47
        assert len(json.loads(path.read_text())["entries"]) == 47
    enumerate_braces.cache_clear()


def test_cache_with_a_repeated_class_is_rebuilt(tmp_path, monkeypatch):
    cachedir = tmp_path / "cachedir"
    monkeypatch.setenv("BRACEKIT_CACHE", str(cachedir))
    enumerate_braces.cache_clear()
    enumerate_braces(4)
    path = cachedir / "braces_4_holomorph.json"
    payload = json.loads(path.read_text())
    assert payload["entries"][0]["group"] == payload["entries"][1]["group"]
    payload["entries"][1] = payload["entries"][0]
    path.write_text(json.dumps(payload, sort_keys=True))
    enumerate_braces.cache_clear()
    braces = enumerate_braces(4).braces
    assert len(braces) == 4
    for i, A in enumerate(braces):
        for B in braces[i + 1:]:
            assert brace_isomorphic(A, B) is None
    assert json.loads(path.read_text())["entries"][1] != payload["entries"][0]
    enumerate_braces.cache_clear()


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


def test_sweep_parallel_output_identical():
    cat = enumerate_braces(6)
    serial = catalog_invariant_sweep(cat, jobs=1)
    parallel = catalog_invariant_sweep(cat, jobs=4)
    assert dumps(serial) == dumps(parallel)


def test_sweep_pool_is_capped_at_the_task_count(monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cat = enumerate_braces(4)
    assert dumps(catalog_invariant_sweep(cat, jobs=16)) == dumps(catalog_invariant_sweep(cat))
    assert pools == [4]
    catalog_invariant_sweep(enumerate_braces(2), jobs=16)
    assert pools == [4]

    # ... and at the CPU count, or serial when that is unknown
    serial = dumps(catalog_invariant_sweep(cat))
    for cpus in (3, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs in range(1, 7):
            assert dumps(catalog_invariant_sweep(cat, jobs=jobs)) == serial
    assert pools == [4, 2, 3, 3, 3, 3]
