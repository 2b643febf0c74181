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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .braces import (
    BraceAxiomError,
    SkewBrace,
    check_star_identities,
    verify_brace,
)
from .groups import (
    FiniteGroup,
    GroupAxiomError,
    automorphism_group,
    flat_permutation,
    sylow_subgroup,
)
from .grouptables import MAX_ORDER, groups_of_order
from .invariants import brace_report, theorem_checks

METHOD = "holomorph"


class BraceCatalog(NamedTuple):
    """Isomorphism-class representatives of all braces of one order."""

    order: int
    braces: tuple[SkewBrace, ...]
    additive_names: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]


def _lambda_group(auts: tuple[tuple[int, ...], ...], n: int) -> tuple[bytes, ...]:
    """The automorphisms the λ-search assigns on a group G of order n with
    automorphism group ``auts``, as ``flat_permutation``s with the identity
    first: one Sylow p-subgroup P of Aut(G) when n = p^k, and all of Aut(G)
    otherwise.

    For a brace A on G, λ is a homomorphism from (A,∘), of order p^k, into
    Aut(G), so its image is a p-group and lies in φPφ⁻¹ for some φ in
    Aut(G) (Sylow).  Relabeling A by ψ in Aut(G) is an isomorphism and
    turns each λ_a into ψλ_aψ⁻¹, so ψ = φ⁻¹ puts the image in P: every
    class has a circle table whose λ lies in P.
    """
    flat = tuple(map(flat_permutation, auts))
    p = min((d for d in range(2, n + 1) if n % d == 0), default=n)  # least prime factor
    q = p
    while q < n:
        q *= p
    return sylow_subgroup(flat, p) if q == n > 1 else flat


def _circle_tables_holomorph(G: FiniteGroup) -> tuple[tuple[tuple[int, ...], ...], list[tuple[tuple[int, ...], ...]]]:
    """Aut(G) and the circle tables compatible with G whose λ lies in
    ``_lambda_group``, via the lambda-map cocycle search.

    λ_0 is the identity.  The search assigns λ_x to the least unassigned x,
    trying each element of the λ-group in turn, and propagates the cocycle
    condition: for assigned u and v, c = u + λ_u(v) must get λ_u λ_v.  An
    element is checked, in both orders, against itself and the elements
    popped before it, so each pair is checked once; at a fixpoint every
    assigned pair has been checked, as by a check of every pair at every
    pop.  The λ-group is a group, so the composites stay in it, and
    ``comp`` is its composition table, built with ``bytes.translate``.
    """
    n = G.order
    table = G.table
    auts = automorphism_group(G)
    lams = _lambda_group(auts, n)
    index = {lam: i for i, lam in enumerate(lams)}
    comp = [[index[q.translate(p)] for q in lams] for p in lams]
    assign: list[Optional[int]] = [None] * n
    assign[0] = index[flat_permutation(range(n))]
    done: list[int] = []  # the popped elements, already checked pairwise
    out: list[tuple[tuple[int, ...], ...]] = []

    def propagate(seed: int, trail: list[int]) -> bool:
        queue = [seed]
        while queue:
            e = queue.pop()
            done.append(e)
            i = assign[e]
            lam_e, row_e, comp_e = lams[i], table[e], comp[i]
            for a in done:
                j = assign[a]
                for c, lam_c in ((row_e[lam_e[a]], comp_e[j]), (table[a][lams[j][e]], comp[j][i])):
                    known = assign[c]
                    if known is None:
                        assign[c] = lam_c
                        trail.append(c)
                        queue.append(c)
                    elif known != lam_c:
                        return False
        return True

    def search(start: int) -> None:
        # the elements before start are assigned, and stay so below this call
        x = next((i for i in range(start, n) if assign[i] is None), None)
        if x is None:
            out.append(tuple(tuple(map(table[a].__getitem__, lams[assign[a]][:n]))
                             for a in range(n)))
            return
        mark = len(done)
        for cand in range(len(lams)):
            assign[x] = cand
            trail = [x]
            if propagate(x, trail):
                search(x + 1)
            for e in trail:
                assign[e] = None
            del done[mark:]

    if propagate(0, []):
        search(1)
    return auts, out


def _relabeling(phi: tuple[int, ...]):
    """(take, p) such that ``bytes(take(flat)).translate(p)`` is the flat
    (row-major ``bytes``) table relabeled by phi, as ``relabel_table``:
    new[phi(a)][phi(b)] = phi(old[a][b])."""
    n = len(phi)
    inv = [0] * n
    for a, b in enumerate(phi):
        inv[b] = a
    idx = [inv[c] * n + inv[d] for c in range(n) for d in range(n)]
    # itemgetter of a single index returns that item, not a 1-tuple
    return (itemgetter(*idx) if len(idx) > 1 else tuple), flat_permutation(phi)


def _classes(G: FiniteGroup) -> list[SkewBrace]:
    """The braces with additive group G up to isomorphism, each as its
    canonical circle table, in increasing order.

    Braces with additive group G are isomorphic exactly when an additive
    automorphism carries one circle table to the other, so a class is an
    Aut(G,+)-orbit of tables, represented by its least member.  Each table
    not yet seen has its orbit generated once and marked as seen, so the
    relabelings number classes x |Aut|, not tables x |Aut|.  This is exact
    without the table list being Aut-stable: every member of an orbit has
    the same orbit, hence the same minimum, kept when it was first marked;
    and the search returns a member of every orbit (``_lambda_group``).
    Tables are relabeled and compared as flat ``bytes``: for tables of one
    order, bytes order is the order of their rows as tuples.
    """
    n = G.order
    auts, tables = _circle_tables_holomorph(G)
    relabelings = [_relabeling(phi) for phi in auts]
    seen: set[bytes] = set()
    canon = []
    for t in tables:
        flat = bytes(chain.from_iterable(t))
        if flat not in seen:
            orbit = {bytes(take(flat)).translate(p) for take, p in relabelings}
            seen |= orbit
            canon.append(min(orbit))
    return [verify_brace(G.table, [c[i:i + n] for i in range(0, n * n, n)]) for c in sorted(canon)]


def _build_catalog(n: int) -> BraceCatalog:
    """Canonical representatives of the braces of order n, group by group."""
    if n > MAX_ORDER:
        raise ValueError(f"holomorph enumeration supports order <= {MAX_ORDER}")
    braces: list[SkewBrace] = []
    names: list[str] = []
    counts: list[tuple[str, int]] = []
    for name, G in groups_of_order(n):
        classes = _classes(G)
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
