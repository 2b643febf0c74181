"""Shared fixtures and independent brute-force oracles."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import pytest

from bracekit.braces import (
    BraceAxiomError,
    BraceMorphism,
    CheckReport,
    SkewBrace,
    brace_isomorphic,
    direct_product,
    semidirect_product,
    trivial_brace,
    verify_brace,
    zero_brace,
)
from bracekit.catalog import _classes, _relabeling
from bracekit.groups import (
    FiniteGroup,
    GroupAxiomError,
    _cosets,
    _raw_identity,
    all_normal_subgroups,
    automorphism_group,
    commutator_subgroup,
    generating_sequence,
    preserves,
    relabel_table,
    subgroup_closure,
    verify_group_axioms,
)
from bracekit.grouptables import cyclic, dihedral, direct_product_group, groups_of_order
from bracekit.ideals import _brace_cosets, a2, annihilator, maximal_ideals, socle, star_product
from bracekit.invariants import Decomposition, _full, is_perfect, is_simple, radical_set, weight
from bracekit.ybe import SetSolution, SolutionReport, is_nondegenerate


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BRACEKIT_CACHE", str(tmp_path / "bracekit-cache"))


def radical_ring_brace() -> SkewBrace:
    """The brace of the radical ring 2Z/8Z: index i is the ring element 2i,
    with x∘y = x + xy + y computed mod 8."""
    add = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    circ = [[(i + j + 2 * i * j) % 4 for j in range(4)] for i in range(4)]
    return verify_brace(add, circ)


@pytest.fixture
def ring_brace() -> SkewBrace:
    return radical_ring_brace()


@pytest.fixture
def s3_group() -> FiniteGroup:
    return dihedral(3)


@pytest.fixture
def s3_brace(s3_group) -> SkewBrace:
    return trivial_brace(s3_group)


def klein_group() -> FiniteGroup:
    return direct_product_group(cyclic(2), cyclic(2))


ORDER_16_GROUPS = {
    "C8xC2": lambda: direct_product_group(cyclic(8), cyclic(2)),
    "C4xC4": lambda: direct_product_group(cyclic(4), cyclic(4)),
    "C4xC2xC2": lambda: direct_product_group(cyclic(4), klein_group()),
}


@lru_cache(maxsize=None)
def order_16_classes(name: str) -> tuple[SkewBrace, ...]:
    """The braces with one of the additive groups of ``ORDER_16_GROUPS`` up
    to isomorphism, as the catalog builds them for one group."""
    return tuple(_classes(ORDER_16_GROUPS[name]()))


# ---------------------------------------------------------------------------
# brute-force oracles, deliberately independent of the library's algorithms


def brute_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups by testing every subset containing the identity."""
    out = []
    rest = [x for x in G.elements() if x != 0]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            S = frozenset({0, *combo})
            if all(G.table[a][b] in S for a in S for b in S) and \
                    all(G.inverse[a] in S for a in S):
                out.append(S)
    return out


def brute_normal_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    return [
        S for S in brute_subgroups(G)
        if all(G.conjugate(g, x) in S for g in G.elements() for x in S)
    ]


def brute_automorphisms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms by testing every permutation fixing the identity."""
    n = G.order
    out = []
    for rest in itertools.permutations(range(1, n)):
        perm = (0, *rest)
        if all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            out.append(perm)
    return out


def brute_brace_automorphisms(A: SkewBrace) -> list[tuple[int, ...]]:
    """All brace automorphisms by testing every permutation fixing 0 against
    both tables."""
    n = A.order
    out = []
    for rest in itertools.permutations(range(1, n)):
        perm = (0, *rest)
        if all(perm[A.plus(a, b)] == A.plus(perm[a], perm[b])
               and perm[A.circ(a, b)] == A.circ(perm[a], perm[b])
               for a in range(n) for b in range(n)):
            out.append(perm)
    return out


def _circle_tables_exhaustive(G: FiniteGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Brute force over circle tables: per-row candidates are filtered only by
    the shared identity and the compatibility axiom, then every combination
    is run through the full brace verifier."""
    n = G.order
    identity_row = tuple(range(n))
    row_candidates: list[list[tuple[int, ...]]] = [[identity_row]]
    for a in range(1, n):
        cands = []
        for perm in itertools.permutations(range(n)):
            if perm[0] != a:
                continue
            neg_a = G.inverse[a]
            ok = all(
                perm[G.table[b][c]] == G.table[G.table[perm[b]][neg_a]][perm[c]]
                for b in range(n) for c in range(n)
            )
            if ok:
                cands.append(perm)
        row_candidates.append(cands)

    out = []
    for rows in itertools.product(*row_candidates):
        try:
            verify_brace(G.table, rows)
        except (GroupAxiomError, BraceAxiomError):
            continue
        out.append(tuple(rows))
    return out


def oracle_enumerate(n: int) -> list[SkewBrace]:
    """All skew braces of order n up to isomorphism, by brute force over
    circle tables and pairwise isomorphism tests; practical for n <= 5."""
    reps: list[SkewBrace] = []
    for _, G in groups_of_order(n):
        group_reps: list[SkewBrace] = []
        for t in sorted(_circle_tables_exhaustive(G)):
            A = verify_brace(G.table, t)
            if not any(brace_isomorphic(A, R) for R in group_reps):
                group_reps.append(A)
        reps.extend(group_reps)
    return reps


def oracle_canonical_circle(G: FiniteGroup, circ) -> tuple[tuple[int, ...], ...]:
    """Lexicographically minimal relabeling of a circle table under Aut(G,+),
    one relabeling per automorphism; the catalog builder marks whole orbits
    instead of canonicalizing every table."""
    return min(relabel_table(circ, phi) for phi in automorphism_group(G))


def brute_ideals(A: SkewBrace) -> list[frozenset[int]]:
    """All ideals by testing every subset against the raw definition."""
    out = []
    for S in brute_subgroups(A.add):
        if not all(A.lam[a][i] in S for a in A.elements() for i in S):
            continue
        if not all(A.add.conjugate(a, i) in S for a in A.elements() for i in S):
            continue
        if not all(A.circ(A.circ(a, i), A.circ_inv(a)) in S
                   for a in A.elements() for i in S):
            continue
        out.append(S)
    return out


def permutation_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table of a closed set of permutations under composition."""
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[i]] for i in range(len(p)))] for q in perms]
        for p in perms
    ]


# ---------------------------------------------------------------------------
# the library's earlier closure algorithms, kept as oracles for the fast ones


def oracle_subgroup_closure(G: FiniteGroup, seed) -> frozenset[int]:
    """Worklist closure under product and inverse, multiplying every popped
    element against all members on both sides."""
    members = {0}
    work = sorted(set(seed))
    for x in work:
        members.add(x)
    while work:
        x = work.pop()
        y = G.inverse[x]
        if y not in members:
            members.add(y)
            work.append(y)
        for a in sorted(members):
            for z in (G.table[x][a], G.table[a][x]):
                if z not in members:
                    members.add(z)
                    work.append(z)
    return frozenset(members)


def oracle_generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """The greedy pass over ``subgroup_closure`` that ``greedy_subgroup``
    replaced: in increasing index order, keep every element outside the
    subgroup the kept ones generate, until it is all of G."""
    gens: list[int] = []
    current = frozenset({0})
    for x in G.elements():
        if x not in current:
            gens.append(x)
            current = subgroup_closure(G, gens)
            if len(current) == G.order:
                break
    return tuple(gens)


def oracle_normal_closure(G: FiniteGroup, seed) -> frozenset[int]:
    """Fixpoint: close under conjugation and products until stable."""
    current = oracle_subgroup_closure(G, seed)
    while True:
        conjugates = {G.conjugate(g, x) for g in G.elements() for x in current}
        nxt = oracle_subgroup_closure(G, current | conjugates)
        if nxt == current:
            return current
        current = nxt


def oracle_all_normal_subgroups(G: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Normal closures of all 2^k subsets of conjugacy-class representatives,
    each class found as every g·a·g⁻¹ and represented by its least member."""
    reps = sorted({min(G.conjugate(g, a) for g in G.elements()) for a in G.elements()} - {0})
    found: set[frozenset[int]] = set()
    for r in range(len(reps) + 1):
        for subset in itertools.combinations(reps, r):
            found.add(oracle_normal_closure(G, subset))
    return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def oracle_ideal_closure(A: SkewBrace, seed) -> frozenset[int]:
    """Worklist fixpoint alternating additive subgroup closure, additive normal
    closure, lambda images, circle conjugation, and adjoining I*A and A*I
    elements, until stable."""
    current = subgroup_closure(A.add, seed)
    while True:
        extra: set[int] = set()
        for g in A.elements():
            for x in current:
                extra.add(A.add.conjugate(g, x))       # additive normality
                extra.add(A.lam[g][x])                  # lambda stability
                extra.add(A.circ(A.circ(g, x), A.circ_inv(g)))  # circle normality
                extra.add(A.star(x, g))                 # I*A
                extra.add(A.star(g, x))                 # A*I
        nxt = subgroup_closure(A.add, current | extra)
        if nxt == current:
            return current
        current = nxt


def oracle_all_ideals(A: SkewBrace) -> tuple[frozenset[int], ...]:
    """The additive normal subgroups that are lambda-stable, circle-normal
    and hold I*A ⊆ I, each checked over every pair, sorted by (size, members)."""
    ideals = []
    for N in all_normal_subgroups(A.add):
        if not all(A.lam[a][i] in N for a in A.elements() for i in N):
            continue
        if not all(A.circ(A.circ(a, i), A.circ_inv(a)) in N
                   for a in A.elements() for i in N):
            continue
        if not all(A.star(i, b) in N for i in N for b in A.elements()):
            continue
        ideals.append(N)
    return tuple(sorted(ideals, key=lambda s: (len(s), tuple(sorted(s)))))


def oracle_is_small_ideal(A: SkewBrace, I: frozenset[int]) -> bool:
    """I+J = A forces J = A, with each sum I+J taken as an additive subgroup
    closure."""
    full = frozenset(A.elements())
    for J in oracle_all_ideals(A):
        if J != full and subgroup_closure(A.add, I | J) == full:
            return False
    return True


def oracle_non_generators(A: SkewBrace) -> frozenset[int]:
    """Ideal closure of each of the 2^n subsets, then the non-generator test."""
    full = frozenset(A.elements())
    elements = tuple(A.elements())
    subsets = [frozenset(c) for r in range(A.order + 1)
               for c in itertools.combinations(elements, r)]
    generating = {S for S in subsets if oracle_ideal_closure(A, S) == full}
    out = set()
    for a in elements:
        if all((S | {a}) not in generating or S in generating for S in subsets):
            out.add(a)
    return frozenset(out)


def oracle_extend_hom(pairs, rows) -> Optional[dict[int, int]]:
    """Worklist closure of 0 -> 0 plus the pairs under products with every
    mapped element, in both orders; None on a clash.  ``rows`` is the rule
    of ``extend_hom``: its rows are full rows, so ``rows(x, fx)[0][y]`` is
    x·y and ``rows(x, fx)[1][fy]`` is fx·fy."""
    m: dict[int, int] = {0: 0}
    work: list[int] = []
    for g, img in pairs:
        if g in m:
            if m[g] != img:
                return None
        else:
            m[g] = img
            work.append(g)
    while work:
        x = work.pop()
        for y in list(m):
            for a, b in ((x, y), (y, x)):
                row, image_row = rows(a, m[a])
                z = row[b]
                mz = image_row[m[b]]
                if z in m:
                    if m[z] != mz:
                        return None
                else:
                    m[z] = mz
                    work.append(z)
    return m


def oracle_search_maps(G: FiniteGroup, H: FiniteGroup, fits) -> Iterator[tuple[int, ...]]:
    """Injective homomorphisms G -> H in search order, by the walk that
    ``search_maps`` replaced: the seeds are ``generating_sequence(G)``, and
    every level closes all its pairs again from 0 -> 0 with
    ``oracle_extend_hom``."""
    gens = generating_sequence(G)
    n = G.order

    def rows(x, fx):
        return G.table[x], H.table[fx]

    def search(i, pairs, m):
        if i == len(gens):
            if len(set(m.values())) == n:
                yield tuple(m[a] for a in range(n))
            return
        g = gens[i]
        for img in H.elements():
            if not fits(g, img):
                continue
            step = pairs + [(g, img)]
            extended = oracle_extend_hom(step, rows)
            if extended is not None:
                yield from search(i + 1, step, extended)

    return search(0, [], {0: 0})


def oracle_circle_tables_holomorph(G: FiniteGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Every circle table compatible with G: the cocycle search with λ over
    all of Aut(G), each popped element checked against every assigned one."""
    n = G.order
    auts = list(automorphism_group(G))
    index = {a: i for i, a in enumerate(auts)}
    comp = [[index[tuple(p[x] for x in q)] for q in auts] for p in auts]
    assign: list[Optional[int]] = [None] * n
    assign[0] = index[tuple(range(n))]
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
    return out


def oracle_mark_orbits(G: FiniteGroup, tables) -> list[tuple[tuple[int, ...], ...]]:
    """The least member of the Aut(G)-orbit of each table, once per orbit and
    sorted, with orbits generated by ``relabel_table`` on nested tuples."""
    seen: set = set()
    canon = []
    for t in tables:
        if t not in seen:
            orbit = {relabel_table(t, phi) for phi in automorphism_group(G)}
            seen |= orbit
            canon.append(min(orbit))
    return sorted(canon)


def oracle_flat_mark_orbits(n: int, auts: Sequence[bytes], tables: list[bytes]) -> list[bytes]:
    """The least member of the orbit of each flat table of order n under
    all of ``auts`` (``flat_permutation``s), once per orbit and sorted: the
    marking loop of ``catalog._classes`` before it relabeled by generators
    only."""
    relabelings = [_relabeling(phi[:n]) for phi in auts]
    seen: set[bytes] = set()
    canon = []
    for flat in tables:
        if flat not in seen:
            orbit = {bytes(take(flat)).translate(p) for take, p in relabelings}
            seen |= orbit
            canon.append(min(orbit))
    return sorted(canon)


def oracle_schur_embedding(A: SkewBrace) -> str:
    """The status of the Schur embedding check with x_i over all of A."""
    ann = annihilator(A)

    def image(a: int) -> tuple:
        return tuple((A.star(a, x), A.star(x, a), A.add.commutator(a, x)) for x in A.elements())

    cosets = {frozenset(A.plus(a, z) for z in ann) for a in A.elements()}
    if any(len({image(a) for a in coset}) != 1 for coset in cosets):
        return "fail"
    return "pass" if len({image(min(coset)) for coset in cosets}) == len(cosets) else "fail"


def oracle_check_gaschutz(A: SkewBrace, ideals=maximal_ideals) -> CheckReport:
    """``check_gaschutz`` with the sum [A,A]_+ + A^(2) built as the additive
    subgroup closure of the union of its terms, then tested against each M
    of ``ideals(A)``, the maximal ideals unless a test gives another family."""
    soc = socle(A)
    comm_plus_a2 = subgroup_closure(A.add, commutator_subgroup(A.add) | a2(A))
    for M in ideals(A):
        if not (comm_plus_a2 <= M or soc <= M):
            return CheckReport("gaschutz", "fail", (("maximal_ideal", tuple(sorted(M))),))
    if not (a2(A) & soc) <= radical_set(A):
        return CheckReport("gaschutz", "fail", (("part", "intersection"),))
    return CheckReport("gaschutz", "pass")


# ---------------------------------------------------------------------------
# the library's earlier bodies of the decomposition and the solvable series,
# kept as oracles for the one-pass decomposition and the series that starts
# at the memoized A^(2)


def oracle_wedderburn_decompose(A: SkewBrace) -> Decomposition:
    """``wedderburn_decompose`` with its factors, their product and the index
    of each element built in three passes, each over the picked family."""
    B, _ = _brace_cosets(A, radical_set(A))  # Rad(A) is A or a meet of lattice ideals
    zero = frozenset({0})
    family: list[frozenset[int]] = []
    inter = _full(B)
    for M in maximal_ideals(B):
        if inter & M != inter:
            family.append(M)
            inter &= M
        if inter == zero:
            break
    if inter != zero:
        raise AssertionError("Rad(A/Rad(A)) must be zero")

    factors = []
    projections = []
    for M in family:
        F, proj = _brace_cosets(B, M)  # M is a maximal ideal, from the lattice
        if not is_simple(F):
            raise AssertionError("quotient by a maximal ideal must be simple")
        factors.append(F)
        projections.append(proj)

    product = factors[0] if factors else zero_brace()
    for F in factors[1:]:
        product = direct_product(product, F)

    mapping = []
    for x in B.elements():
        idx = 0
        for F, proj in zip(factors, projections):
            idx = idx * F.order + proj[x]
        mapping.append(idx)
    iso = BraceMorphism(tuple(mapping), B.order, product.order)
    if not iso.is_bijective:
        raise AssertionError("decomposition map is not bijective")
    if not (preserves(mapping, B.add.table, product.add.table)
            and preserves(mapping, B.circle.table, product.circle.table)):
        raise AssertionError("decomposition map does not preserve the operations")
    return Decomposition(tuple(factors), iso, tuple(family), B, product)


def oracle_solvable_series(A: SkewBrace) -> tuple[frozenset[int], ...]:
    """The terms of A_1 = A, A_{i+1} = A_i * A_i, every step, the second
    too, computed with ``star_product``."""
    terms = [_full(A)]
    while True:
        nxt = star_product(A, terms[-1], terms[-1])
        if nxt == terms[-1]:
            return tuple(terms)
        terms.append(nxt)


# ---------------------------------------------------------------------------
# the library's earlier Schur embedding body, which stored every image of
# every coset before deciding, kept as an oracle for the one-pass check


def oracle_schur_report(A: SkewBrace, annihilator=annihilator) -> CheckReport:
    """``schur_embedding`` with a set of images per coset, then the sorted
    first images; ``annihilator`` stands in for Ann(A) when a test gives one."""
    gens = generating_sequence(A.add)
    gens += tuple(g for g in generating_sequence(A.circle) if g not in gens)

    def image(a: int) -> tuple:
        out = []
        for x in gens:
            out.append(A.star(a, x))
        for x in gens:
            out.append(A.star(x, a))
        for x in gens:
            out.append(A.add.commutator(a, x))
        return tuple(out)

    # Ann(A) ⊆ Soc(A) ⊆ Z(A,+), so it is a normal subgroup of (A,+)
    coset_of = _cosets(A.add, annihilator(A))[1]
    by_coset: dict[int, set[tuple]] = {}
    for a in A.elements():
        by_coset.setdefault(coset_of[a], set()).add(image(a))
    for label, images in by_coset.items():
        if len(images) != 1:
            return CheckReport("schur-embedding", "fail",
                               (("part", "well-defined"), ("coset", label)))
    values = [next(iter(images)) for _, images in sorted(by_coset.items())]
    if len(set(values)) != len(values):
        return CheckReport("schur-embedding", "fail", (("part", "injective"),))
    return CheckReport("schur-embedding", "pass",
                       (("cosets", len(values)), ("generators", gens)))


# ---------------------------------------------------------------------------
# the library's earlier verification scans, kept as oracles for the
# generator-based kernels: the same checks over every triple, unmemoized


def oracle_verify_group_axioms(table) -> FiniteGroup:
    """Shape, identity, inverses, Latin square, then associativity over all
    n³ triples in lexicographic order."""
    n = len(table)
    if n == 0:
        raise GroupAxiomError("shape", (), "empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise GroupAxiomError("shape", (a,), f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                raise GroupAxiomError("shape", (a, b), f"entry at row {a}, column {b} is {v!r}")
    identity = _raw_identity(table)
    if identity is None:
        raise GroupAxiomError("identity", (), "no two-sided identity element")
    for a in range(n):
        if not any(table[a][b] == identity and table[b][a] == identity for b in range(n)):
            raise GroupAxiomError("inverse", (a,), f"element {a} has no two-sided inverse")
    for a in range(n):
        if len(set(table[a])) != n:
            raise GroupAxiomError("latin-square", (a,), f"row {a} is not a permutation")
    for b in range(n):
        if len({table[a][b] for a in range(n)}) != n:
            raise GroupAxiomError("latin-square", (b,), f"column {b} is not a permutation")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise GroupAxiomError("associativity", (a, b, c), "(a*b)*c != a*(b*c)")
    tab = tuple(tuple(row) for row in table)
    if identity != 0:
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        tab = relabel_table(tab, perm)
    inverse = tuple(next(b for b in range(n) if tab[a][b] == 0) for a in range(n))
    return FiniteGroup(order=n, table=tab, inverse=inverse)


def oracle_verify_brace(add_table, circle_table) -> SkewBrace:
    """Both groups by ``oracle_verify_group_axioms``, then compatibility over
    all n³ triples in lexicographic order."""
    if len(add_table) != len(circle_table):
        raise BraceAxiomError("shape", (), "add and circle tables have different sizes")
    n = len(add_table)
    e_add, e_circ = _raw_identity(add_table), _raw_identity(circle_table)
    if e_add is not None and e_circ is not None and e_add != e_circ:
        raise BraceAxiomError("identity-mismatch", (e_add, e_circ), "identities differ")
    add = oracle_verify_group_axioms(add_table)
    circle = oracle_verify_group_axioms(circle_table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = circle.table[a][add.table[b][c]]
                rhs = add.table[add.table[circle.table[a][b]][add.inverse[a]]][circle.table[a][c]]
                if lhs != rhs:
                    raise BraceAxiomError("compatibility", (a, b, c), "a∘(b+c) != a∘b - a + a∘c")
    lam = tuple(
        tuple(add.table[add.inverse[a]][circle.table[a][b]] for b in range(n))
        for a in range(n)
    )
    return SkewBrace(add=add, circle=circle, lam=lam)


def oracle_check_star_identities(A: SkewBrace) -> CheckReport:
    """Both (*) identities over all triples; the first failure is reported."""
    for x in A.elements():
        for y in A.elements():
            for z in A.elements():
                lhs = A.star(x, A.plus(y, z))
                rhs = A.plus(A.plus(A.plus(A.star(x, y), y), A.star(x, z)), A.neg(y))
                if lhs != rhs:
                    return CheckReport("star-identities", "fail",
                                       (("identity", "x*(y+z)"), ("witness", (x, y, z))))
                lhs = A.star(A.circ(x, y), z)
                yz = A.star(y, z)
                rhs = A.plus(A.plus(A.star(x, yz), yz), A.star(x, z))
                if lhs != rhs:
                    return CheckReport("star-identities", "fail",
                                       (("identity", "(x∘y)*z"), ("witness", (x, y, z))))
    return CheckReport("star-identities", "pass")


def oracle_check_solution(S: SetSolution) -> SolutionReport:
    """``check_solution`` as the direct scan: r1 = r x id and r2 = id x r
    applied to every triple through ``S.r``."""
    n = S.size
    images = {S.r(x, y) for x in range(n) for y in range(n)}
    bijective = len(images) == n * n

    nondegenerate = is_nondegenerate(S)

    def r1(t):
        u, v = S.r(t[0], t[1])
        return (u, v, t[2])

    def r2(t):
        u, v = S.r(t[1], t[2])
        return (t[0], u, v)

    ybe = True
    braid_witness = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if r1(r2(r1(t))) != r2(r1(r2(t))):
                    ybe = False
                    braid_witness = t
                    break
            if not ybe:
                break
        if not ybe:
            break

    involutive = True
    involutive_witness = None
    for x in range(n):
        for y in range(n):
            u, v = S.r(x, y)
            if S.r(u, v) != (x, y):
                involutive = False
                involutive_witness = (x, y)
                break
        if not involutive:
            break

    return SolutionReport(bijective, ybe, nondegenerate, involutive,
                          braid_witness, involutive_witness)


def oracle_close_permutations(n: int, generators: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """The group generated by permutations of 0..n-1, as tuples, closed
    breadth-first under composition with no bound."""
    identity = tuple(range(n))
    gens = {tuple(g) for g in generators}
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(map(p.__getitem__, g))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def oracle_orbits_of_maps(n: int, maps: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The classes of the least equivalence on 0..n-1 relating each x to
    every m[x], by union-find, each sorted, in order of least member."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in maps:
        for x in range(n):
            a, b = find(x), find(m[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


# ---------------------------------------------------------------------------
# checks and constructors used only by tests


def oracle_dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n from its presentation, elements r^i s^j indexed as
    2i + j: r^i1 s^j1 · r^i2 s^j2 = r^(i1 ± i2) s^(j1 + j2), with - when j1 = 1."""
    def mul(e1, e2):
        i1, j1 = divmod(e1, 2)
        i2, j2 = divmod(e2, 2)
        i = (i1 + i2) % n if j1 == 0 else (i1 - i2) % n
        return 2 * i + (j1 ^ j2)

    return verify_group_axioms([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def oracle_alternating4() -> FiniteGroup:
    """A4 on the even permutations of 0..3, found by counting inversions,
    indexed in lexicographic order, with p·q = p ∘ q."""
    def is_even(p):
        return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

    perms = [p for p in itertools.permutations(range(4)) if is_even(p)]
    index = {p: i for i, p in enumerate(perms)}
    return verify_group_axioms([[index[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms])


def flip_solution(n: int) -> SetSolution:
    sigma = tuple(tuple(range(n)) for _ in range(n))
    return SetSolution(n, sigma, sigma)


def triangle(S: SetSolution, y: int, x: int) -> int:
    """y▷x for a derived-form solution."""
    return S.tau[y][x]


def check_omega_products(A: SkewBrace, B: SkewBrace,
                         theta: Optional[Sequence[Sequence[int]]] = None) -> CheckReport:
    """omega(A x B) = omega(B) for perfect weight-one A; the semidirect
    variant when an action theta is supplied."""
    if not is_perfect(A) or weight(A).weight != 1:
        return CheckReport("omega-products", "na",
                           (("reason", "A is not perfect of weight one"),))
    if theta is None:
        if a2(B) != frozenset({0}):
            return CheckReport("omega-products", "na", (("reason", "B is not trivial"),))
        P = direct_product(A, B)
    else:
        P = semidirect_product(A, B, theta)
    wp = weight(P).weight
    wb = weight(B).weight
    status = "pass" if wp == wb else "fail"
    return CheckReport("omega-products", status,
                       (("omega_product", wp), ("omega_B", wb),
                        ("kind", "direct" if theta is None else "semidirect")))


def frattini_comparison(A: SkewBrace) -> CheckReport:
    """For trivial braces, compare Rad(A) with the Frattini subgroup of (A,+).

    The two can differ for nonabelian additive groups; this check only
    reports whether they agree (status stays 'pass' either way).
    """
    if a2(A) != frozenset({0}):
        return CheckReport("frattini-comparison", "na", (("reason", "brace not trivial"),))
    G = A.add
    subgroups: set[frozenset[int]] = set()
    elements = tuple(G.elements())
    max_gens = min(4, G.order)
    for r in range(max_gens + 1):
        for combo in itertools.combinations(elements, r):
            subgroups.add(subgroup_closure(G, combo))
    full = frozenset(elements)
    proper = [S for S in subgroups if S != full]
    maximal_subs = [S for S in proper if not any(S < T for T in proper if T != S)]
    frattini = full
    for S in maximal_subs:
        frattini &= S
    rad = radical_set(A)
    return CheckReport("frattini-comparison", "pass",
                       (("agrees", frattini == rad),
                        ("radical", tuple(sorted(rad))),
                        ("frattini", tuple(sorted(frattini)))))
