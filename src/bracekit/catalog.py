"""Exhaustive enumeration of skew braces of small order.

The holomorph method finds, for each additive group G, all lambda maps
G -> Aut(G) satisfying the cocycle condition lam_a lam_b = lam_{a + lam_a(b)}.
These assignments are exactly the regular subgroups {(x, lam_x)} of the
holomorph G ⋊ Aut(G), i.e. the skew braces with additive group G, and they
are searched as homomorphisms closed from seed images by ``search_homs``.
"""

from __future__ import annotations

import json
import os
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, NoReturn, Optional

from . import __version__
from .braces import SkewBrace, check_star_identities, verify_brace
from .groups import (
    _IDENTITY_TABLE,
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    automorphism_group,
    flat_permutation,
    greedy_subgroup,
    orbit,
    orbits,
    search_homs,
    sylow_subgroup,
)
from .grouptables import groups_of_order

METHOD = "holomorph"
# The zlib.crc32 of the file _store_cached writes for the fresh, verified
# catalog of order n = 1, …, MAX_ORDER; a test pins each to a fresh build.
CACHE_CRC32 = (0xC5DE580A, 0x6F1EA0D0, 0xD65249CD, 0xB2466BF5, 0x765D3F69, 0xCAEB962F,
               0x8266F5DA, 0x7DFFD4C1, 0x91E376CD, 0x68067F1C, 0xB744F0E5, 0xE89A6EBE)


class BraceCatalog(NamedTuple):
    """Isomorphism-class representatives of all braces of one order."""

    order: int
    braces: tuple[SkewBrace, ...]
    additive_names: tuple[str, ...]
    counts: tuple[tuple[str, int], ...]


def _lambda_group(auts: tuple[bytes, ...], n: int) -> tuple[bytes, ...]:
    """The automorphisms the λ-search assigns on a group G of order n with
    automorphism group ``auts``, both as ``flat_permutation``s: one Sylow
    p-subgroup P of Aut(G) when n = p^k, and all of Aut(G) otherwise.  The
    identity comes first (``sylow_subgroup`` puts it there, and
    ``automorphism_group`` is sorted), as ``_circle_tables_holomorph``
    needs.

    For a brace A on G, λ is a homomorphism from (A,∘), of order p^k, into
    Aut(G), so its image is a p-group and lies in φPφ⁻¹ for some φ in
    Aut(G) (Sylow).  Relabeling A by ψ in Aut(G) is an isomorphism and
    turns each λ_a into ψλ_aψ⁻¹, so ψ = φ⁻¹ puts the image in P: every
    class has a circle table whose λ lies in P.
    """
    p = min((d for d in range(2, n + 1) if n % d == 0), default=n)  # least prime factor
    q = p
    while q < n:
        q *= p
    return sylow_subgroup(auts, p) if q == n > 1 else auts


def _circle_tables_holomorph(G: FiniteGroup) -> tuple[tuple[bytes, ...], list[bytes]]:
    """Aut(G) as ``flat_permutation``s, and the circle tables compatible
    with G whose λ lies in ``_lambda_group`` as row-major ``bytes``.

    Such a table is a regular subgroup {(x, λ_x)} of the holomorph G ⋊ Aut(G),
    that is, a map x ↦ λ_x that is a homomorphism for the products
    x∘s = x + λ_x(s) and λ_{x∘s} = λ_x λ_s.  So the search is
    ``search_homs`` in the holomorph, with λ-values as indices into the
    λ-group and ``comp`` its composition table, built with
    ``bytes.translate``; every index is tried for each seed.  The kernel
    starts from 0 ↦ 0, and index 0 is the identity, λ_0.  A closure that
    covers G is a regular subgroup.  Every one is reached, by giving each x
    its own λ_x: the closures then lie inside it, so no check fails.
    """
    n = G.order
    auts = tuple(map(flat_permutation, automorphism_group(G)))
    lams = _lambda_group(auts, n)
    index = {lam: i for i, lam in enumerate(lams)}
    comp = [[index[q.translate(p)] for q in lams] for p in lams]
    add_rows = [flat_permutation(row) for row in G.table]

    def rows(x: int, i: int) -> tuple[bytes, list[int]]:
        return lams[i][:n].translate(add_rows[x]), comp[i]

    return auts, [b"".join(rows(a, m[a])[0] for a in range(n))
                  for m in search_homs(n, rows, lambda x: range(len(lams)))]


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


def _generators(auts: tuple[bytes, ...]) -> list[bytes]:
    """A generating set S of the group ``auts`` of flat permutations:
    ``greedy_subgroup`` by decreasing element order keeps each element
    outside ⟨S⟩ (2 of the 20,160 automorphisms of C2⁴; none when Aut(G) is
    trivial).  The order of phi is the size of its ``orbit`` ⟨phi⟩ under [phi]."""
    k = len(auts)
    by_order = sorted(auts, key=lambda phi: -len(orbit(phi, [phi], bytes.translate, k)))
    return greedy_subgroup(_IDENTITY_TABLE, by_order, bytes.translate, k)[0]


def _classes(G: FiniteGroup) -> list[SkewBrace]:
    """The braces with additive group G up to isomorphism, each as its
    canonical circle table, in increasing order.

    Braces with additive group G are isomorphic exactly when an additive
    automorphism carries one circle table to the other, so a class is an
    Aut(G,+)-orbit of tables, represented by its least member.  Each table
    that no earlier orbit holds has its orbit grown once (``orbits``) under
    the generators S of Aut(G) from ``_generators``, which is its orbit
    under ⟨S⟩ = Aut(G): |S| relabelings per orbit member, not |Aut| per
    class.  This is exact without the table list being Aut-stable: every
    member of an orbit has the same orbit, hence the same minimum, kept
    when it was first reached; and the search returns a member of every
    orbit (``_lambda_group``).  Tables are relabeled and compared as flat
    ``bytes``: for tables of one order, bytes order is the order of their
    rows as tuples.
    """
    n = G.order
    auts, tables = _circle_tables_holomorph(G)
    relabelings = [_relabeling(phi[:n]) for phi in _generators(auts)]
    canon = [min(o) for o in orbits(tables, relabelings, lambda t, r: bytes(r[0](t)).translate(r[1]), len(auts))]
    return [verify_brace(G.table, [c[i:i + n] for i in range(0, n * n, n)]) for c in sorted(canon)]


def _catalog(n: int, groups: tuple[tuple[str, FiniteGroup], ...],
             classes: list[list[SkewBrace]]) -> BraceCatalog:
    """The catalog of order n whose entries are ``classes[i]`` for the i-th
    group of ``groups = groups_of_order(n)``, in that order.  Names and
    counts come from the group list alone."""
    counts = tuple((name, len(c)) for (name, _), c in zip(groups, classes))
    return BraceCatalog(n, tuple(chain.from_iterable(classes)),
                        tuple(name for name, k in counts for _ in range(k)), counts)


def _build_catalog(n: int) -> BraceCatalog:
    """Canonical representatives of the braces of order n, group by group."""
    groups = groups_of_order(n)
    return _catalog(n, groups, [_classes(G) for _, G in groups])


def cache_directory() -> Path:
    env = os.environ.get("BRACEKIT_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bracekit"


def _cache_path(n: int) -> Path:
    return cache_directory() / f"braces_{n}_{METHOD}.json"


def _load_cached(n: int) -> Optional[BraceCatalog]:
    """The stored catalog of order n, or None for a miss.

    The file holds only the circle tables: ``circles[i]`` lists those of the
    i-th group G of ``groups_of_order(n)``.  Unless the CRC-32 of its bytes
    is ``CACHE_CRC32[n - 1]``, that of the file ``_store_cached`` writes for
    a fresh, verified build, it is a miss before it is parsed; so is a
    missing or unreadable file.  The CRC catches an accidental change: a
    corrupt, stale or foreign file, or a class that is not canonical, is
    repeated, dropped or moved.  It does not stop a writer who forges a file
    with the pinned CRC, so each table is still verified as a brace on G's
    own table, and one that fails, such as one with a JSON ``true`` or
    ``false`` entry, makes the file a miss: whatever is served is a brace.
    """
    import zlib  # only a cache lookup needs it, not the import of the CLI

    try:
        data = _cache_path(n).read_bytes()
        if zlib.crc32(data) != CACHE_CRC32[n - 1]:
            return None
        circles, groups = json.loads(data)["circles"], groups_of_order(n)
        return _catalog(n, groups, [[verify_brace(G.table, t) for t in c] for c, (_, G) in zip(circles, groups)])
    except (OSError, LookupError, TypeError, ValueError, RecursionError):
        return None


def _store_cached(catalog: BraceCatalog) -> None:
    path = _cache_path(catalog.order)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        braces = iter(catalog.braces)
        circles = ([A.circle.table for A in islice(braces, count)] for _, count in catalog.counts)
        rest = {"version": __version__, "order": catalog.order, "method": METHOD}
        # The text of json.dumps({"circles": [...], **rest}, sort_keys=True),
        # where "circles" sorts first, encoded one group at a time, so the
        # encoder's pieces never span the whole catalog.
        text = '{"circles": [' + ", ".join(map(json.dumps, circles)) + "], " + \
            json.dumps(rest, sort_keys=True)[1:]
        # Write a temp file beside the target and rename it into place, so a
        # failed write never leaves a truncated catalog for _load_cached.
        # The pid keeps concurrent writers apart.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError:
        pass  # cache is best-effort


def enumerate_braces(n: int) -> BraceCatalog:
    """All skew braces of order n up to isomorphism, read from the disk cache
    when it holds them and stored there when it does not.

    The catalog is deterministic: groups in a fixed order, class
    representatives in canonical (lexicographically minimal) form.
    """
    cached = _load_cached(n)
    if cached is not None:
        return cached
    catalog = _build_catalog(n)
    _store_cached(catalog)
    return catalog


def _sweep_child(row, tasks: list, inherited: list[int], w: int) -> NoReturn:
    """The body of a forked sweep worker: write the rows ``row(*t)`` of
    ``tasks`` to the pipe ``w`` as one JSON message, or, if one of them
    raised, a zero byte followed by the pickled exception, then end the
    process.  It never returns into the caller, so it never flushes the
    parent's stdio buffers or runs its ``atexit`` handlers; any failure to
    send ends it with status 1."""
    status = 1
    try:
        for fd in inherited:  # the parent's read ends: closing one must fail its writer
            os.close(fd)
        try:
            message = json.dumps([row(*t) for t in tasks]).encode()
        except Exception as exc:
            import pickle  # only a row that raised needs it

            message = b"\0" + pickle.dumps(exc)
        with open(w, "wb") as pipe:
            pipe.write(message)
        status = 0
    finally:
        os._exit(status)


def _forked_rows(row, tasks: list, workers: int) -> list[dict]:
    """The rows ``row(*t)`` of ``tasks`` in order, cut into ``workers``
    contiguous slices: slices 1, 2, … each in a forked child, slice 0 here.
    At one worker nothing is forked and every row is computed here.  A
    worker's message is JSON (it starts with ``[``) unless its first byte is
    zero, which marks the pickled exception of a row that raised, re-raised
    here as is.  Rows round-trip through JSON exactly: they hold only str
    keys, ints, strs, bools and lists."""
    cut = [k * len(tasks) // workers for k in range(workers + 1)]
    pids: list[int] = []
    reads: list[int] = []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _sweep_child(row, tasks[cut[k]:cut[k + 1]], reads, w)
            finally:
                # Before the next fork: a later child holding this write end
                # would keep the read below from ever seeing EOF.
                os.close(w)
            pids.append(pid)
        rows = [row(*t) for t in tasks[:cut[1]]]
        for r in reads:
            with open(r, "rb", closefd=False) as pipe:
                message = pipe.read()
            _, status = os.waitpid(pids.pop(0), 0)
            if status or not message:
                raise RuntimeError(f"a sweep worker ended with wait status {status} "
                                   f"after sending {len(message)} bytes")
            if message[0] == 0:
                import pickle  # only a worker whose row raised needs it

                raise pickle.loads(message[1:])
            rows += json.loads(message)
        return rows
    finally:
        # Close the read ends first: a child blocked writing into a full
        # pipe then fails and exits, where waiting for it first would hang.
        for r in reads:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def catalog_invariant_sweep(catalog: BraceCatalog, jobs: int = 1,
                            desc_bound: int = DEFAULT_ORDER_BOUND) -> dict:
    """Run the invariant report and all theorem checks on every catalog entry.

    At most one worker runs per entry and per CPU, and only where
    ``os.fork`` exists; without it (Windows) the sweep runs serially.
    Worker k takes the k-th of ``workers`` contiguous slices of the
    entries, so the entries of one additive group, and that group's memos,
    mostly stay in one process.  Workers 1, 2, … are forked after the
    catalog is loaded: they inherit it, its verified groups and every memo,
    so nothing is sent to them, and each sends its rows back as one JSON
    message over a pipe (``pickle`` is loaded only to send back the
    exception of a row that raised).  The caller computes slice 0 itself and
    joins the slices in catalog order.  Each row depends only on its
    entry, so the rows, and the output bytes, are the same for every
    ``jobs``.  A worker's exception is re-raised as is; a worker that exits
    non-zero or sends nothing raises ``RuntimeError``.  Every worker has
    been reaped when this returns or raises.  As with any fork, a caller
    that runs other threads should pass ``jobs=1``.  Entries were verified
    when the catalog was built or loaded, so each row takes its brace as
    is.  ``invariants`` is imported here, before any worker is forked, so
    the workers inherit it and ``enumerate`` never loads it.
    """
    from .invariants import brace_report, theorem_checks

    def sweep_row(index: int, group_name: str, A: SkewBrace) -> dict:
        return {"index": index, "additive_name": group_name, **brace_report(A),
                "star_identities": check_star_identities(A).status,
                "checks": {r.name: r.status for r in theorem_checks(A, desc_bound)}}

    tasks = [(i, *entry) for i, entry in enumerate(zip(catalog.additive_names, catalog.braces))]
    workers = max(1, min(jobs, len(tasks), os.cpu_count() or 1)) if hasattr(os, "fork") else 1
    rows = _forked_rows(sweep_row, tasks, workers)

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
