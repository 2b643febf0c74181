import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit.braces
import bracekit.groups
from bracekit.braces import brace_automorphism_group, brace_isomorphic, trivial_brace, verify_brace
from bracekit.catalog import _build_catalog, _circle_tables_holomorph
from bracekit.groups import (
    DEFAULT_ORDER_BOUND,
    BoundExceededError,
    GroupAxiomError,
    _semidirect_group,
    all_normal_subgroups,
    automorphism_group,
    abelian_invariants,
    center,
    commutator_subgroup,
    element_orders,
    extend_hom,
    flat_permutation,
    generating_sequence,
    greedy_subgroup,
    group_signature,
    is_abelian,
    is_subgroup,
    normal_closure,
    orbit,
    orbits,
    preserves,
    quotient_group,
    relabel_table,
    search_maps,
    subgroup_closure,
    sylow_subgroup,
    verify_group_axioms,
)
from bracekit.grouptables import (
    MAX_ORDER,
    alternating4,
    cyclic,
    dicyclic,
    dihedral,
    direct_product_group,
    groups_of_order,
)

from conftest import (
    ORDER_16_GROUPS,
    brute_automorphisms,
    brute_normal_subgroups,
    brute_subgroups,
    klein_group,
    oracle_alternating4,
    oracle_dihedral,
    oracle_extend_hom,
    oracle_generating_sequence,
    oracle_search_maps,
    permutation_table,
)


def test_verify_c2():
    G = verify_group_axioms([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inverse == (0, 1)


def test_verify_max_table_has_no_inverses():
    table = [[max(a, b) for b in range(3)] for a in range(3)]
    with pytest.raises(GroupAxiomError) as exc:
        verify_group_axioms(table)
    assert exc.value.axiom == "inverse"
    assert exc.value.witness == (1,)


def test_verify_s3_from_permutation_composition():
    # oracle: compose the six permutations of 3 points directly
    perms = sorted(itertools.permutations(range(3)))
    G = verify_group_axioms(permutation_table(perms))
    assert G.order == 6
    assert any(G.table[a][b] != G.table[b][a] for a in range(6) for b in range(6))


def test_verify_normalizes_identity_to_zero():
    # C3 with the identity parked at index 2
    relabel = [2, 0, 1]  # old -> new
    base = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            table[relabel[a]][relabel[b]] = relabel[base[a][b]]
    G = verify_group_axioms(table)
    assert all(G.table[0][a] == a for a in range(3))


def test_verify_broken_associativity():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 2]]
    with pytest.raises(GroupAxiomError):
        verify_group_axioms(table)


def test_center_examples(s3_group):
    assert center(cyclic(4)) == frozenset(range(4))
    assert center(klein_group()) == frozenset(range(4))
    # brute force over all pairs
    expected = frozenset(
        a for a in s3_group.elements()
        if all(s3_group.table[a][b] == s3_group.table[b][a] for b in s3_group.elements())
    )
    assert center(s3_group) == expected == frozenset({0})


def test_commutator_subgroup(s3_group):
    assert commutator_subgroup(cyclic(6)) == frozenset({0})
    # oracle: smallest brute-forced subgroup containing all commutators
    comms = {s3_group.commutator(a, b)
             for a in s3_group.elements() for b in s3_group.elements()}
    candidates = [S for S in brute_subgroups(s3_group) if comms <= S]
    expected = min(candidates, key=len)
    got = commutator_subgroup(s3_group)
    assert got == expected
    assert len(got) == 3

    d4 = dihedral(4)
    comms = {d4.commutator(a, b) for a in d4.elements() for b in d4.elements()}
    candidates = [S for S in brute_subgroups(d4) if comms <= S]
    assert commutator_subgroup(d4) == min(candidates, key=len)
    assert commutator_subgroup(d4) == center(d4)
    assert len(commutator_subgroup(d4)) == 2


def test_subgroup_closure(s3_group):
    assert subgroup_closure(cyclic(5), []) == frozenset({0})
    assert subgroup_closure(cyclic(6), [2]) == frozenset({0, 2, 4})
    transposition = next(a for a in range(1, 6) if s3_group.table[a][a] == 0)
    three_cycle = next(a for a in range(1, 6) if s3_group.table[a][a] != 0)
    got = subgroup_closure(s3_group, [transposition, three_cycle])
    assert got == frozenset(range(6))


def test_normal_closure(s3_group):
    assert normal_closure(cyclic(6), [2]) == frozenset({0, 2, 4})
    assert normal_closure(s3_group, []) == frozenset({0})
    transposition = next(a for a in range(1, 6) if s3_group.table[a][a] == 0)
    assert normal_closure(s3_group, [transposition]) == frozenset(range(6))


def test_all_normal_subgroups_against_brute_force(s3_group):
    assert len(all_normal_subgroups(cyclic(5))) == 2
    assert set(all_normal_subgroups(s3_group)) == set(brute_normal_subgroups(s3_group))
    assert len(all_normal_subgroups(s3_group)) == 3
    klein = klein_group()
    assert set(all_normal_subgroups(klein)) == set(brute_normal_subgroups(klein))
    assert len(all_normal_subgroups(klein)) == 5


def test_normal_closure_is_intersection_of_normal_subgroups():
    for G in (cyclic(8), dihedral(4), dicyclic(3), alternating4()):
        lattice = all_normal_subgroups(G)
        for seed in ([1], [2], [1, 3]):
            expected = frozenset(G.elements())
            for N in lattice:
                if frozenset(seed) <= N:
                    expected &= N
            assert normal_closure(G, seed) == expected


@pytest.mark.parametrize("G,count", [
    (cyclic(2), 1),
    (cyclic(3), 2),
    (klein_group(), 6),
])
def test_automorphism_counts_against_brute_force(G, count):
    auts = automorphism_group(G)
    assert len(auts) == count
    assert set(auts) == set(brute_automorphisms(G))


def test_automorphism_group_closed_under_composition_and_inverse():
    for G in (dihedral(3), cyclic(8), dihedral(4)):
        auts = set(automorphism_group(G))
        for p in auts:
            inv = [0] * G.order
            for i, v in enumerate(p):
                inv[v] = i
            assert tuple(inv) in auts
            for q in auts:
                assert tuple(p[q[i]] for i in range(G.order)) in auts


def test_quotient_group(s3_group):
    Q, _ = quotient_group(cyclic(4), subgroup_closure(cyclic(4), [0, 1, 2, 3]))
    assert Q.order == 1

    Q, proj = quotient_group(cyclic(4), subgroup_closure(cyclic(4), [2]))
    assert Q.order == 2 and proj == (0, 1, 0, 1)

    a3 = next(N for N in all_normal_subgroups(s3_group) if len(N) == 3)
    Q, proj = quotient_group(s3_group, a3)
    assert Q.order == 2
    # coset-arithmetic oracle: projection is a homomorphism with kernel a3
    for a in s3_group.elements():
        for b in s3_group.elements():
            assert proj[s3_group.table[a][b]] == Q.table[proj[a]][proj[b]]
    assert frozenset(a for a in s3_group.elements() if proj[a] == 0) == a3


@pytest.mark.parametrize("S", [set(), {1}, {0, 1}], ids=["empty", "no-identity", "not-closed"])
def test_a_set_that_is_not_a_subgroup_is_refused(S):
    """The empty set is closed under products and inverses, so only the
    identity test refuses it."""
    assert not is_subgroup(cyclic(4), frozenset(S))
    with pytest.raises(ValueError, match="N is not a subgroup"):
        quotient_group(cyclic(4), frozenset(S))


@pytest.mark.parametrize("search, make", [(automorphism_group, lambda G: G),
                                          (brace_automorphism_group, trivial_brace)],
                         ids=["automorphism_group", "brace_automorphism_group"])
def test_automorphism_searches_refuse_orders_above_the_bound(search, make):
    X = make(cyclic(DEFAULT_ORDER_BOUND + 1))
    with pytest.raises(BoundExceededError, match="exceeds the automorphism bound"):
        search(X)


@pytest.mark.parametrize("n", [0, MAX_ORDER + 1])
def test_groups_of_order_refuses_orders_without_tables(n):
    with pytest.raises(ValueError, match=f"no built-in group tables for order {n}"):
        groups_of_order(n)


def test_quotient_rejects_non_normal(s3_group):
    transposition = next(a for a in range(1, 6) if s3_group.table[a][a] == 0)
    H = subgroup_closure(s3_group, [transposition])
    with pytest.raises(ValueError):
        quotient_group(s3_group, H)


def test_constructed_groups_reverify():
    """Products are built, not verified, so every built-in group is checked
    against the verifier here."""
    built_in = [G for n in range(1, 13) for _, G in groups_of_order(n)]
    for G in (cyclic(7), dihedral(5), dicyclic(2), alternating4(),
              direct_product_group(cyclic(2), cyclic(6)), *built_in):
        assert verify_group_axioms(G.table) == G


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_is_the_presentation_table(n):
    """The semidirect product C_n ⋊ C2 by inversion gives, element for
    element, the table of D_n written from its presentation."""
    D = dihedral(n)
    assert D == oracle_dihedral(n)
    assert verify_group_axioms(D.table) == D


def test_alternating4_is_the_parity_table():
    """The orbit of the identity under two 3-cycles gives, element for
    element, the table built from the even permutations: the canonical
    forms of the order-12 catalog depend on these labels."""
    assert alternating4().table == oracle_alternating4().table


def cyclic_action(n: int, k: int, e: int) -> list[tuple[int, ...]]:
    """C_k acting on C_n, its generator by x ↦ e·x."""
    return [tuple(pow(e, j, n) * x % n for x in range(n)) for j in range(k)]


@pytest.mark.parametrize("build, orders", [
    (lambda: _semidirect_group(cyclic(8), cyclic(2), cyclic_action(8, 2, 5)),
     {1: 1, 2: 3, 4: 4, 8: 8}),
    (lambda: _semidirect_group(cyclic(8), cyclic(2), cyclic_action(8, 2, 3)),
     {1: 1, 2: 5, 4: 6, 8: 4}),
    (lambda: _semidirect_group(cyclic(4), cyclic(4), cyclic_action(4, 4, -1)),
     {1: 1, 2: 3, 4: 12}),
    (lambda: _semidirect_group(direct_product_group(cyclic(2), cyclic(2)), cyclic(4),
                               [(0, 1, 2, 3), (0, 2, 1, 3)] * 2),  # the generator swaps the factors
     {1: 1, 2: 7, 4: 8}),
], ids=["M16", "SD16", "C4:C4", "C2^2:C4"])
def test_semidirect_groups_of_order_16(build, orders):
    G = build()
    assert G == verify_group_axioms(G.table)
    assert not is_abelian(G)
    assert Counter(element_orders(G)) == orders


def test_abelian_invariants_and_signature():
    assert abelian_invariants(cyclic(6)) == (6,)
    assert abelian_invariants(klein_group()) == (2, 2)
    assert abelian_invariants(direct_product_group(cyclic(4), cyclic(2))) == (4, 2)
    assert abelian_invariants(dihedral(3)) is None
    assert group_signature(klein_group()) == "C2 x C2"
    assert "nonabelian" in group_signature(dihedral(3))


BUILT_IN_GROUPS = [G for n in range(1, MAX_ORDER + 1) for _, G in groups_of_order(n)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_extend_hom_matches_the_worklist_oracle(data):
    """Images drawn at random (mostly no homomorphism), from an automorphism
    and from a quotient projection (always one), folded in one at a time
    from {0: 0}: each resumed closure equals the worklist closure of its
    prefix, up to the first None."""
    G = data.draw(st.sampled_from(BUILT_IN_GROUPS))
    gs = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    kind = data.draw(st.sampled_from(["random", "automorphism", "projection"]))
    if kind == "random":
        H = data.draw(st.sampled_from(BUILT_IN_GROUPS))
        images = [data.draw(st.integers(0, H.order - 1)) for _ in gs]
    elif kind == "automorphism":
        H, phi = G, data.draw(st.sampled_from(automorphism_group(G)))
        images = [phi[g] for g in gs]
    else:
        H, projection = quotient_group(G, data.draw(st.sampled_from(all_normal_subgroups(G))))
        images = [projection[g] for g in gs]
    pairs = list(zip(gs, images))

    def rows(x, fx):
        return G.table[x], H.table[fx]
    m = {0: 0}
    for k in range(1, len(pairs) + 1):
        m = extend_hom(m, pairs[:k], rows)
        assert m == oracle_extend_hom(pairs[:k], rows)
        if m is None:
            break
    if kind != "random":
        assert m is not None and set(m) == subgroup_closure(G, gs)


def test_walk_from_g_avoiding_h_reaches_the_rest_of_h_g():
    """The reach lemma of ``extend_hom``, by brute force: for H = <a, b> and
    g outside H, right multiplication by a, b and g from g, never continuing
    from an element of H, reaches exactly <H, g> minus H."""
    for G in BUILT_IN_GROUPS:
        for a, b in itertools.product(G.elements(), repeat=2):
            H = subgroup_closure(G, [a, b])
            for g in set(G.elements()) - H:
                reached = [g]
                for x in reached:  # grows while iterated
                    for s in (a, b, g):
                        z = G.table[x][s]
                        if z not in H and z not in reached:
                            reached.append(z)
                assert set(reached) == subgroup_closure(G, [a, b, g]) - H


def test_extend_hom_expands_0_and_new_elements_only(monkeypatch):
    """Over the automorphism and λ-searches of the groups of order <= 12,
    each closure calls ``rows`` for 0 and then once per element it adds, at
    most 1 + (number of new keys) calls, never once per old element."""
    closures = []
    real = bracekit.groups.extend_hom

    def counting(m, pairs, rows):
        xs = []

        def counted(x, fx):
            xs.append(x)
            return rows(x, fx)
        closed = real(m, pairs, counted)
        new = (set(xs) if closed is None else set(closed)) - set(m)
        closures.append((len(xs), len(new)))
        return closed
    monkeypatch.setattr(bracekit.groups, "extend_hom", counting)
    for G in BUILT_IN_GROUPS:
        automorphism_group(G)
        _circle_tables_holomorph(G)
    assert closures and all(calls <= 1 + new for calls, new in closures)


def catalog_pairs():
    """Each brace of the catalogs of order <= MAX_ORDER against a relabeled
    copy (an isomorphic pair) and against the next entry."""
    braces = [A for n in range(1, MAX_ORDER + 1) for A in _build_catalog(n).braces]
    pairs = []
    for A, B in zip(braces, braces[1:] + braces[:1]):
        perm = (0, *range(A.order - 1, 0, -1))
        copy = verify_brace(relabel_table(A.add.table, perm), relabel_table(A.circle.table, perm))
        pairs += [(A, copy), (A, B)]
    return pairs


def test_automorphism_group_and_brace_isomorphic_match_the_worklist_oracle(monkeypatch):
    """On the catalogs of order <= MAX_ORDER, the same automorphism groups,
    the same first isomorphism found and the same λ-search tables, in the
    same order, when every resumed closure of the search driver is replaced
    by the worklist closure of all its pairs from 0 -> 0: on the pairs of
    ``catalog_pairs``, and the λ-search on every group of the catalogs."""
    pairs = catalog_pairs()
    groups = list(dict.fromkeys(G for A, _ in pairs for G in (A.add, A.circle)))

    def run():
        return ([automorphism_group(G) for G in groups],
                [brace_isomorphic(A, B) for A, B in pairs],
                [_circle_tables_holomorph(G) for G in BUILT_IN_GROUPS])

    fast = run()
    monkeypatch.setattr(bracekit.groups, "extend_hom", lambda m, pairs, rows: oracle_extend_hom(pairs, rows))
    assert run() == fast
    assert all(m is not None for m in fast[1][::2])


AUTOMORPHISM_ORACLE_GROUPS = [(name, G) for n in range(1, MAX_ORDER + 1) for name, G in groups_of_order(n)] + \
    [(name, build()) for name, build in ORDER_16_GROUPS.items()]


@pytest.mark.parametrize("name, G", AUTOMORPHISM_ORACLE_GROUPS, ids=[name for name, _ in AUTOMORPHISM_ORACLE_GROUPS])
def test_automorphisms_preserve_the_full_table(name, G):
    """``automorphism_group`` trusts ``extend_hom``; the full-table check it
    no longer runs is the oracle."""
    auts = automorphism_group(G)
    assert auts and all(preserves(phi, G.table, G.table) for phi in auts)
    assert len(set(auts)) == len(auts)


@pytest.mark.parametrize("name, G", AUTOMORPHISM_ORACLE_GROUPS, ids=[name for name, _ in AUTOMORPHISM_ORACLE_GROUPS])
def test_search_maps_matches_the_restarting_oracle(name, G):
    """The search driver's least-uncovered-x walk, resuming each closure,
    finds the automorphisms in the order of the walk over
    ``generating_sequence`` that closes every level from 0 -> 0."""
    orders = element_orders(G)

    def fits(g, img):
        return orders[img] == orders[g]
    assert list(search_maps(G, G, fits)) == list(oracle_search_maps(G, G, fits))


def test_brace_isomorphic_finds_the_restarting_oracle_first(monkeypatch):
    pairs = catalog_pairs()
    fast = [brace_isomorphic(A, B) for A, B in pairs]
    monkeypatch.setattr(bracekit.braces, "search_maps", oracle_search_maps)
    assert [brace_isomorphic(A, B) for A, B in pairs] == fast


def test_brace_automorphisms_preserve_both_tables():
    """``brace_automorphism_group`` checks only the circle table; each map
    preserves the additive one too."""
    for n in range(1, MAX_ORDER + 1):
        for A in _build_catalog(n).braces:
            for phi in brace_automorphism_group(A):
                assert preserves(phi.mapping, A.add.table, A.add.table)
                assert preserves(phi.mapping, A.circle.table, A.circle.table)


@pytest.mark.parametrize("n, p, order", [(3, 2, 2), (3, 3, 3), (4, 2, 8), (4, 3, 3), (5, 2, 8), (5, 5, 5)])
def test_sylow_subgroup_of_a_symmetric_group(n, p, order):
    """In lexicographic order the first non-identity permutation is a
    transposition, which the pass must reject for odd p."""
    perms = [flat_permutation(q) for q in itertools.permutations(range(n))]
    P = sylow_subgroup(perms, p)
    assert P[0] == flat_permutation(range(n))
    assert len(set(P)) == len(P) == order
    assert {q.translate(r) for r in P for q in P} == set(P)


@pytest.mark.parametrize("name, G", AUTOMORPHISM_ORACLE_GROUPS, ids=[name for name, _ in AUTOMORPHISM_ORACLE_GROUPS])
def test_generating_sequence_matches_the_subgroup_closure_oracle(name, G):
    assert generating_sequence(G) == oracle_generating_sequence(G)


def test_a_loop_the_greedy_pass_cannot_grow_fails_associativity():
    """Every element of this loop (Hypothesis, n=5, seed=202) squares to 0,
    so each ⟨g⟩ has 2 elements, which does not divide 5: the pass keeps no
    generator, and Light's test takes |H| < n as a failure and reports the
    full search's witness."""
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    assert greedy_subgroup(0, range(5), lambda x, g: loop[x][g], 5) == ([], [0])
    with pytest.raises(GroupAxiomError) as info:
        verify_group_axioms(loop)
    assert (info.value.axiom, info.value.witness) == ("associativity", (1, 1, 2))


def test_sylow_subgroup_of_the_trivial_group_is_the_identity():
    identity = flat_permutation(())
    assert sylow_subgroup([identity], 2) == (identity,)


def test_orbit_is_breadth_first_from_the_start():
    """From 1, x ↦ 2x and x ↦ 2x + 1 reach the nodes of a binary tree in
    its heap numbering, which is breadth-first; a depth-first walk would
    give 1, 2, 4, 5, 3, 6, 7.  Past 7 the steps go back to 1."""
    def step(x, g):
        return 2 * x + g if 2 * x + g < 8 else 1

    assert orbit(1, (0, 1), step, 7) == [1, 2, 3, 4, 5, 6, 7]
    assert orbit(1, (0, 1), step, 6) is None
    assert orbit(5, (), step, 1) == [5]


@pytest.mark.parametrize("bound", [1, 5, 39])
def test_orbit_stops_at_the_first_value_over_its_bound(bound):
    """Adding 1, 2 and 3 mod 40 from 0 stores at most bound + 1 values
    before it returns None; checking the bound only after each round of
    the breadth-first search would store 4 after the first round and 7
    after the second."""
    stored = []

    def step(x, g):
        z = (x + g) % 40
        stored.append(z)
        return z

    assert orbit(0, (1, 2, 3), step, bound) is None
    assert len(set(stored) | {0}) <= bound + 1
    assert len(orbit(0, (1, 2, 3), step, 40)) == 40


def test_orbits_are_distinct_and_in_order_of_their_first_point():
    """Adding 2 mod 6 splits 0..5 into evens and odds; each orbit starts at
    the first of ``points`` that no earlier orbit holds."""
    assert orbits([5, 0, 1, 2, 3, 4], (2,), lambda x, g: (x + g) % 6, 6) == [[5, 1, 3], [0, 2, 4]]
    assert orbits((), (1,), lambda x, g: x, 1) == []
