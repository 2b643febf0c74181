import copy
import itertools
import pickle
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import (
    BraceAxiomError,
    SkewBrace,
    _incompatible,
    brace_automorphism_group,
    brace_isomorphic,
    check_star_identities,
    direct_product,
    semidirect_product,
    trivial_brace,
    verify_brace,
    zero_brace,
)
from bracekit.catalog import _build_catalog, enumerate_braces
from bracekit.groups import (
    BoundExceededError,
    FiniteGroup,
    GroupAxiomError,
    _cosets,
    abelian_invariants,
    generating_sequence,
    quotient_group,
    verify_group_axioms,
)
from bracekit.grouptables import cyclic, dihedral, direct_product_group
from bracekit.ideals import _brace_cosets, a2, all_ideals, quotient_brace, sub_brace

from conftest import brute_brace_automorphisms, klein_group, oracle_verify_brace, radical_ring_brace


def test_trivial_c2_brace():
    table = [[0, 1], [1, 0]]
    A = verify_brace(table, table)
    assert A.order == 2
    assert a2(A) == frozenset({0})


def test_ring_brace_is_valid_with_klein_circle_group(ring_brace):
    # oracle: the radical ring 2Z/8Z with x∘y = x + xy + y
    assert abelian_invariants(ring_brace.add) == (4,)
    assert abelian_invariants(ring_brace.circle) == (2, 2)


def test_mutated_circle_table_is_rejected(ring_brace):
    circ = [list(row) for row in ring_brace.circle.table]
    # swap two entries in one row: still a Latin square, no longer a brace
    circ[1][1], circ[1][3] = circ[1][3], circ[1][1]
    with pytest.raises((BraceAxiomError, GroupAxiomError)) as exc:
        verify_brace(ring_brace.add.table, circ)
    assert exc.value.witness


def test_compatibility_is_checked_at_every_additive_generator():
    """(A,+) is the D3 of the order-6 catalog, with additive generators
    (1, 2); the circle table is a relabeled C6 of the catalog, found by a
    seeded search.  The pair is compatible at c = 1 but not at c = 2."""
    add = [[0, 1, 2, 3, 4, 5], [1, 0, 5, 4, 3, 2], [2, 3, 4, 5, 0, 1],
           [3, 2, 1, 0, 5, 4], [4, 5, 0, 1, 2, 3], [5, 4, 3, 2, 1, 0]]
    circle = [[0, 1, 2, 3, 4, 5], [1, 0, 5, 4, 3, 2], [2, 3, 0, 1, 5, 4],
              [3, 2, 4, 5, 1, 0], [4, 5, 3, 2, 0, 1], [5, 4, 1, 0, 2, 3]]
    G, C = verify_group_axioms(add), verify_group_axioms(circle)
    assert generating_sequence(G) == (1, 2) and _incompatible(G, C, (1,)) is None
    for verify in (verify_brace, oracle_verify_brace):
        with pytest.raises(BraceAxiomError) as exc:
            verify(add, circle)
        assert (exc.value.axiom, exc.value.witness) == ("compatibility", (2, 1, 2))


@pytest.mark.parametrize("error", [GroupAxiomError, BraceAxiomError])
def test_axiom_errors_survive_a_pickle_round_trip(error):
    """A forked sweep worker sends the exception of a row that raised as a pickle."""
    copy = pickle.loads(pickle.dumps(error("associativity", (1, 2, 3), "m")))
    assert (type(copy), copy.axiom, copy.witness, str(copy)) == (error, "associativity", (1, 2, 3), "m")


def test_identity_mismatch_is_reported():
    add = [[0, 1], [1, 0]]
    circle = [[1, 0], [0, 1]]  # identity at index 1
    with pytest.raises(BraceAxiomError) as exc:
        verify_brace(add, circle)
    assert exc.value.axiom == "identity-mismatch"


def test_star_on_trivial_braces(s3_brace):
    for a in s3_brace.elements():
        for b in s3_brace.elements():
            assert s3_brace.star(a, b) == 0


def test_star_matches_ring_product(ring_brace):
    # index i is the ring element 2i; star must equal the ring product mod 8
    for i in range(4):
        for j in range(4):
            ring_product = (2 * i * 2 * j) % 8
            assert ring_brace.star(i, j) == ring_product // 2
    assert ring_brace.star(1, 1) == 2  # 2*2 = 4


def test_star_with_zero_argument(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace):
        for b in A.elements():
            assert A.star(0, b) == 0
            assert A.star(b, 0) == 0


def test_star_identities(ring_brace, s3_brace):
    assert check_star_identities(ring_brace).passed
    assert check_star_identities(s3_brace).passed


def test_lambda_is_homomorphism(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace):
        for a in A.elements():
            for b in A.elements():
                composed = tuple(A.lam[a][A.lam[b][x]] for x in A.elements())
                assert A.lam[A.circ(a, b)] == composed
                # a∘b = a + lambda_a(b) and a+b = a∘lambda_a^{-1}(b)
                assert A.circ(a, b) == A.plus(a, A.lam[a][b])
                assert A.neg(a) == A.lam[a][A.circ_inv(a)]


def test_isomorphic_to_self(ring_brace):
    iso = brace_isomorphic(ring_brace, ring_brace)
    assert iso is not None and iso.is_bijective


def test_non_isomorphic_additive_groups():
    assert brace_isomorphic(trivial_brace(cyclic(4)), trivial_brace(klein_group())) is None


def _relabeled(A, perm):
    n = A.order
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    add = [[perm[A.plus(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    circ = [[perm[A.circ(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    return verify_brace(add, circ)


def test_isomorphism_search_recovers_relabeling(ring_brace):
    # swap the indices of ring elements 2 and 6
    B = _relabeled(ring_brace, (0, 3, 2, 1))
    iso = brace_isomorphic(ring_brace, B)
    assert iso is not None and iso.is_bijective


@settings(max_examples=25, deadline=None)
@given(rest=st.permutations([1, 2, 3]))
def test_any_relabeling_is_isomorphic(rest):
    A = radical_ring_brace()
    B = _relabeled(A, (0, *rest))
    assert brace_isomorphic(A, B) is not None


def test_direct_product_with_zero_brace(ring_brace):
    P = direct_product(ring_brace, zero_brace())
    assert brace_isomorphic(P, ring_brace) is not None


def test_direct_product_of_trivials_is_trivial_c6():
    P = direct_product(trivial_brace(cyclic(2)), trivial_brace(cyclic(3)))
    assert brace_isomorphic(P, trivial_brace(cyclic(6))) is not None


def test_direct_product_a2_is_componentwise(ring_brace):
    P = direct_product(ring_brace, trivial_brace(cyclic(2)))
    assert P.order == 8
    assert len(a2(P)) == 2


def test_semidirect_with_identity_action_is_direct(ring_brace):
    B = trivial_brace(cyclic(2))
    theta = [tuple(range(4)), tuple(range(4))]
    S = semidirect_product(ring_brace, B, theta)
    P = direct_product(ring_brace, B)
    assert S.add.table == P.add.table and S.circle.table == P.circle.table


def test_semidirect_c3_c2_inversion_gives_s3_circle():
    A = trivial_brace(cyclic(3))
    B = trivial_brace(cyclic(2))
    theta = [(0, 1, 2), (0, 2, 1)]  # inversion on C3
    S = semidirect_product(A, B, theta)
    assert S == verify_brace(S.add.table, S.circle.table)
    assert S.order == 6
    assert abelian_invariants(S.add) == (6,)
    assert abelian_invariants(S.circle) is None  # nonabelian, so S3
    assert brace_isomorphic(trivial_brace(dihedral(3)), trivial_brace(S.circle)) is not None


def test_semidirect_rejects_non_homomorphism():
    A = trivial_brace(klein_group())
    B = trivial_brace(cyclic(2))
    swap = (0, 2, 1, 3)  # an automorphism of C2xC2, but theta(0) != id
    with pytest.raises(ValueError):
        semidirect_product(A, B, [swap, swap])


def test_semidirect_rejects_non_automorphism():
    A = trivial_brace(cyclic(3))
    B = trivial_brace(cyclic(2))
    with pytest.raises(ValueError):
        semidirect_product(A, B, [(0, 1, 2), (1, 0, 2)])


@pytest.mark.parametrize("theta, message", [
    ([(0, 1, 2)], "theta must assign a map to each of the 2 elements of B"),
    ([(0, 1, 2), (0, 0, 0)], "theta(1) is not a permutation of A"),
], ids=["one-map-short", "not-a-permutation"])
def test_semidirect_rejects_a_malformed_theta(theta, message):
    """The zero map of C3 preserves both tables and is a homomorphism, so
    only the permutation test refuses it."""
    with pytest.raises(ValueError) as exc:
        semidirect_product(trivial_brace(cyclic(3)), trivial_brace(cyclic(2)), theta)
    assert str(exc.value) == message


def test_semidirect_checks_the_order_bound_before_theta():
    with pytest.raises(BoundExceededError):
        semidirect_product(trivial_brace(cyclic(17)), trivial_brace(cyclic(16)), [])


def test_brace_automorphism_groups(ring_brace):
    assert len(brace_automorphism_group(trivial_brace(cyclic(3)))) == 2
    assert len(brace_automorphism_group(trivial_brace(cyclic(2)))) == 1
    auts = brace_automorphism_group(ring_brace)
    perms = {m.mapping for m in auts}
    for p in perms:
        for q in perms:
            assert tuple(p[q[i]] for i in range(4)) in perms


def test_brace_automorphism_group_matches_brute_force():
    braces = [zero_brace()] + [A for n in range(1, 7) for A in enumerate_braces(n).braces]
    for A in braces:
        auts = brace_automorphism_group(A)
        assert all(m.source_order == m.target_order == A.order for m in auts)
        assert [m.mapping for m in auts] == brute_brace_automorphisms(A)


@cache
def catalog() -> tuple[SkewBrace, ...]:
    return tuple(A for n in range(1, 13) for A in _build_catalog(n).braces)


def test_braces_and_groups_are_values():
    """Every catalog brace of order <= 12 and its two groups: a rebuild from
    the same tables is the original (braces and groups are interned), and a
    copy built by the constructor, by pickle or by deep copy equals it and
    hashes alike; distinct entries are unequal."""
    braces = catalog()
    for A in braces:
        assert verify_brace([list(r) for r in A.add.table], [list(r) for r in A.circle.table]) is A
        for G in (A.add, A.circle):
            H = FiniteGroup(order=G.order, table=tuple(tuple(list(r)) for r in G.table),
                            inverse=tuple(list(G.inverse)))
            assert H is not G and H == G and hash(H) == hash(G)
        for X in (A, A.add, A.circle):
            for Y in (pickle.loads(pickle.dumps(X)), copy.deepcopy(X)):
                assert Y is not X and Y == X and hash(Y) == hash(X)
    assert all(A != B for A, B in itertools.combinations(braces, 2))
    groups = {G for A in braces for G in (A.add, A.circle)}
    assert len(groups) == len({G.table for G in groups})


def test_every_constructor_path_returns_the_interned_object():
    """Each path that builds a group or a brace hands back the one object
    for its value: the quotient by {0} and the sub-brace on every element
    are A itself, a trivial brace is the verified one, and a product built
    twice, also from copies of its factors, is built once."""
    for A in catalog():
        full = frozenset(A.elements())
        for G in (A.add, A.circle):
            copy_of_G = pickle.loads(pickle.dumps(G))
            assert copy_of_G is not G
            assert verify_group_axioms([list(r) for r in G.table]) is G
            assert _cosets(copy_of_G, frozenset({0}))[0] is G
            assert quotient_group(G, full)[0] is cyclic(1)
            assert trivial_brace(copy_of_G) is trivial_brace(G) is verify_brace(G.table, G.table)
        assert _brace_cosets(A, frozenset({0}))[0] is A
        assert quotient_brace(A, full)[0] is zero_brace()
        assert sub_brace(A, full)[0] is A
        for I in all_ideals(A):
            Q = quotient_brace(A, I)[0]
            assert verify_brace(Q.add.table, Q.circle.table) is Q
            assert sub_brace(Q, frozenset(Q.elements()))[0] is Q
    C2, C3 = cyclic(2), cyclic(3)
    P = direct_product_group(C2, C3)
    assert direct_product_group(pickle.loads(pickle.dumps(C2)), C3) is P
    assert verify_group_axioms(P.table) is P
    A, B = catalog()[3], catalog()[4]
    D = direct_product(A, B)
    assert direct_product(copy.deepcopy(A), copy.deepcopy(B)) is D
    assert verify_brace(D.add.table, D.circle.table) is D


def test_braces_and_groups_are_immutable():
    for A in catalog():
        for X, fields in ((A, ("add", "circle", "lam")),
                          (A.add, ("order", "table", "inverse")),
                          (A.circle, ("order", "table", "inverse"))):
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(X, name, getattr(X, name))
                with pytest.raises(AttributeError):
                    delattr(X, name)


def test_brace_and_group_reprs_name_every_field():
    for A in catalog():
        assert repr(A) == f"SkewBrace(add={A.add!r}, circle={A.circle!r}, lam={A.lam!r})"
        for G in (A.add, A.circle):
            assert repr(G) == f"FiniteGroup(order={G.order}, table={G.table!r}, inverse={G.inverse!r})"
    assert repr(cyclic(2)) == "FiniteGroup(order=2, table=((0, 1), (1, 0)), inverse=(0, 1))"


def test_a_brace_with_another_lambda_is_another_memo_key():
    """A brace whose λ has one row changed hashes like the real one (the
    hash reads the two groups only) but is unequal to it, so the memoized
    ideal lattice, which reads λ, is its own: the first catalog brace and
    row for which a transposition in that row changes the lattice."""

    def mutants():
        for A in catalog():
            for x in A.elements():
                for i, j in itertools.combinations(range(1, A.order), 2):
                    row = list(A.lam[x])
                    row[i], row[j] = row[j], row[i]
                    lam = list(A.lam)
                    lam[x] = tuple(row)
                    yield A, SkewBrace(add=A.add, circle=A.circle, lam=tuple(lam))

    A, M = next((A, M) for A, M in mutants() if all_ideals.__wrapped__(M) != all_ideals(A))
    assert M != A and A != M and hash(M) == hash(A)
    assert all_ideals(M) == all_ideals.__wrapped__(M) != all_ideals(A)
