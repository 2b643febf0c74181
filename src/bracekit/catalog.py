"""Exhaustive enumeration of skew braces of small order.

The holomorph method walks, for each additive group G, over all lambda maps
G -> Aut(G) satisfying the cocycle condition lam_a lam_b = lam_{a + lam_a(b)}
with a propagating depth-first search.  These assignments are exactly the
regular subgroups {(x, lam_x)} of the holomorph G ⋊ Aut(G), i.e. the skew
braces with additive group G.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .braces import (
    BraceAxiomError,
    SkewBrace,
    check_star_identities,
    verify_brace,
)
from .groups import FiniteGroup, GroupAxiomError, automorphism_group, relabel_table
from .grouptables import groups_of_order
from .invariants import brace_report, theorem_checks

METHOD = "holomorph"
HOLOMORPH_MAX_ORDER = 12


class BraceCatalog(NamedTuple):
    """Isomorphism-class representatives of all braces of one order."""

    order: int
    braces: tuple[SkewBrace, ...]
    additive_names: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]


def _aut_tables(G: FiniteGroup):
    auts = list(automorphism_group(G))
    index = {a: i for i, a in enumerate(auts)}
    comp = [[index[tuple(p[x] for x in q)] for q in auts] for p in auts]
    return auts, index, comp


def _circle_tables_holomorph(G: FiniteGroup) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], ...]]]:
    """Aut(G) and all circle tables compatible with G, via the lambda-map
    cocycle search."""
    n = G.order
    auts, index, comp = _aut_tables(G)
    id_idx = index[tuple(range(n))]
    assign: list[Optional[int]] = [None] * n
    assign[0] = id_idx
    out: list[tuple[tuple[int, ...], ...]] = []

    def propagate(seed: int, trail: list[int]) -> bool:
        queue = [seed]
        while queue:
            e = queue.pop()
            for a in range(n):
                if assign[a] is None:
                    continue
                for u, v in ((e, a), (a, e)):
                    c = G.table[u][auts[assign[u]][v]]
                    lam_c = comp[assign[u]][assign[v]]
                    if assign[c] is None:
                        assign[c] = lam_c
                        trail.append(c)
                        queue.append(c)
                    elif assign[c] != lam_c:
                        return False
        return True

    def search() -> None:
        x = next((i for i in range(n) if assign[i] is None), None)
        if x is None:
            out.append(tuple(tuple(G.table[a][auts[assign[a]][b]] for b in range(n))
                             for a in range(n)))
            return
        for cand in range(len(auts)):
            assign[x] = cand
            trail = [x]
            if propagate(x, trail):
                search()
            for e in trail:
                assign[e] = None

    if propagate(0, []):
        search()
    return auts, out


def _build_catalog(n: int) -> BraceCatalog:
    """Canonical representatives of the braces of order n, group by group.

    Braces with additive group G are isomorphic exactly when an additive
    automorphism carries one circle table to the other, so a class is an
    Aut(G,+)-orbit of tables, represented by its least member.  Each table
    not yet seen has its orbit generated once and marked as seen, so the
    relabelings number classes x |Aut|, not tables x |Aut|.  This is exact
    without the table list being Aut-stable: every member of an orbit has
    the same orbit, hence the same minimum, kept when it was first marked.
    """
    if n > HOLOMORPH_MAX_ORDER:
        raise ValueError(f"holomorph enumeration supports order <= {HOLOMORPH_MAX_ORDER}")
    braces: list[SkewBrace] = []
    names: list[str] = []
    counts: list[tuple[str, int]] = []
    for name, G in groups_of_order(n):
        auts, tables = _circle_tables_holomorph(G)
        seen: set[tuple[tuple[int, ...], ...]] = set()
        canon = []
        for t in tables:
            if t not in seen:
                orbit = {relabel_table(t, phi) for phi in auts}
                seen |= orbit
                canon.append(min(orbit))
        classes = [verify_brace(G.table, t) for t in sorted(canon)]
        braces.extend(classes)
        names.extend([name] * len(classes))
        counts.append((name, len(classes)))
    return BraceCatalog(n, tuple(braces), tuple(names), tuple(counts))


def cache_directory() -> Path:
    env = os.environ.get("BRACEKIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bracekit"


def _cache_path(n: int) -> Path:
    return cache_directory() / f"braces_{n}_{METHOD}.json"


def _load_cached(n: int) -> Optional[BraceCatalog]:
    """The stored catalog of order n, or None for a miss.

    A file that is not a JSON object, was written by another version or for
    another order or method, or whose per-group counts do not list the groups
    of its entries in order and in number is a miss, as is any entry that
    fails brace verification.  So is a group whose circle tables are not
    strictly increasing, as ``_build_catalog`` writes them: a repeated class
    is caught.  Entries are not checked to be in canonical form.
    """
    path = _cache_path(n)
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or \
                (payload.get("version"), payload.get("order"), payload.get("method")) != (__version__, n, METHOD):
            return None
        braces = []
        names = []
        for entry in payload["entries"]:
            braces.append(verify_brace(entry["add"], entry["circle"]))
            names.append(entry["group"])
        counts = tuple((name, count) for name, count in payload["counts"])
        if [name for name, count in counts for _ in range(count)] != names:
            return None
        if any(g == h and not A.circle.table < B.circle.table
               for g, h, A, B in zip(names, names[1:], braces, braces[1:])):
            return None
    except (KeyError, TypeError, ValueError, GroupAxiomError, BraceAxiomError):
        return None
    return BraceCatalog(n, tuple(braces), tuple(names), counts)


def _store_cached(catalog: BraceCatalog) -> None:
    path = _cache_path(catalog.order)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": __version__,
            "order": catalog.order,
            "method": METHOD,
            "counts": [list(c) for c in catalog.counts],
            "entries": [
                {"group": name,
                 "add": [list(r) for r in A.add.table],
                 "circle": [list(r) for r in A.circle.table]}
                for name, A in zip(catalog.additive_names, catalog.braces)
            ],
        }
        # Write a temp file beside the target and rename it into place, so a
        # failed write never leaves a truncated catalog for _load_cached.
        # The pid keeps concurrent writers apart.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError:
        pass  # cache is best-effort


@lru_cache(maxsize=None)
def enumerate_braces(n: int, use_disk_cache: bool = True) -> BraceCatalog:
    """All skew braces of order n up to isomorphism.

    The catalog is deterministic: groups in a fixed order, class
    representatives in canonical (lexicographically minimal) form.
    """
    if use_disk_cache:
        cached = _load_cached(n)
        if cached is not None:
            return cached
    catalog = _build_catalog(n)
    if use_disk_cache:
        _store_cached(catalog)
    return catalog


def _sweep_row(args: tuple) -> dict:
    index, group_name, add_table, circle_table, desc_bound = args
    A = verify_brace(add_table, circle_table)
    row = {"index": index, "additive_name": group_name}
    row.update(brace_report(A, desc_bound))
    row["star_identities"] = check_star_identities(A).status
    row["checks"] = {r.name: r.status for r in theorem_checks(A, desc_bound)}
    return row


def catalog_invariant_sweep(catalog: BraceCatalog, jobs: int = 1,
                            desc_bound: int = 8) -> dict:
    """Run the invariant report and all theorem checks on every catalog entry.

    At most one worker runs per task and per CPU.  Rows are aggregated in
    catalog order regardless of the number of jobs, so the output is
    byte-stable.
    """
    tasks = [
        (i, name, A.add.table, A.circle.table, desc_bound)
        for i, (name, A) in enumerate(zip(catalog.additive_names, catalog.braces))
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: loading the pool machinery costs every CLI start
        # ~15 ms, and only a parallel sweep needs it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    rows.sort(key=lambda r: r["index"])

    aggregate: dict[str, dict[str, int]] = {}
    for row in rows:
        for name, status in row["checks"].items():
            bucket = aggregate.setdefault(name, {"pass": 0, "fail": 0, "na": 0})
            bucket[status] += 1
    return {
        "order": catalog.order,
        "method": METHOD,
        "count": len(catalog.braces),
        "group_counts": {name: count for name, count in catalog.counts},
        "rows": rows,
        "aggregate": aggregate,
    }
