import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.braces import brace_isomorphic, direct_product, trivial_brace, zero_brace
from bracekit.catalog import _build_catalog, enumerate_braces
from bracekit.groups import BoundExceededError
from bracekit.grouptables import MAX_ORDER, cyclic, dihedral, direct_product_group
from bracekit.ideals import (
    _brace_cosets,
    a2,
    all_ideals,
    annihilator,
    fix,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_prime_brace,
    is_prime_ideal,
    is_small_ideal,
    kernel_of_lambda,
    maximal_ideals,
    quotient_brace,
    socle,
    star_product,
    sub_brace,
)

from bracekit.invariants import radical_set

from conftest import brute_ideals, klein_group, radical_ring_brace


def test_ring_brace_special_ideals(ring_brace):
    # hand computation in 2Z/8Z: lambda_a(b) = b + 2ab mod 4
    assert kernel_of_lambda(ring_brace) == frozenset({0, 2})
    assert socle(ring_brace) == frozenset({0, 2})
    assert annihilator(ring_brace) == frozenset({0, 2})
    assert fix(ring_brace) == frozenset({0, 2})
    assert a2(ring_brace) == frozenset({0, 2})


def test_trivial_brace_special_ideals(s3_brace):
    # for a trivial brace every lambda map is the identity
    assert kernel_of_lambda(s3_brace) == frozenset(range(6))
    assert fix(s3_brace) == frozenset(range(6))
    assert socle(s3_brace) == frozenset({0})  # = center of S3
    assert annihilator(s3_brace) == frozenset({0})
    assert a2(s3_brace) == frozenset({0})


def test_ideal_closure_examples(ring_brace):
    # ring element 4 (index 2) generates the ideal {0, 4}
    assert ideal_closure(ring_brace, [2]) == frozenset({0, 2})
    # ring element 2 (index 1) generates everything
    assert ideal_closure(ring_brace, [1]) == frozenset(range(4))
    assert ideal_closure(ring_brace, []) == frozenset({0})


@pytest.mark.parametrize("n", range(1, 9))
def test_all_ideals_against_brute_force(n, ring_brace, s3_brace):
    hand_built = (ring_brace, s3_brace, trivial_brace(klein_group()),
                  trivial_brace(dihedral(4)))
    for A in [B for B in hand_built if B.order == n] + list(enumerate_braces(n).braces):
        assert set(all_ideals(A)) == set(brute_ideals(A))


def test_all_ideals_of_trivial_brace_are_normal_subgroups(s3_brace):
    assert set(all_ideals(s3_brace)) == {
        frozenset({0}), frozenset({0, 2, 4}), frozenset(range(6))}


def test_ideal_lattice_bound():
    with pytest.raises(BoundExceededError):
        all_ideals(trivial_brace(cyclic(30)))


@settings(max_examples=30, deadline=None)
@given(seed=st.sets(st.integers(min_value=0, max_value=3), max_size=3))
def test_ideal_closure_properties(seed):
    A = radical_ring_brace()
    I = ideal_closure(A, seed)
    assert seed <= I
    assert is_ideal(A, I)[0]
    assert ideal_closure(A, I) == I  # idempotent


def test_closure_is_intersection_of_containing_ideals(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace, trivial_brace(dihedral(4))):
        lattice = all_ideals(A)
        for a in A.elements():
            expected = frozenset(A.elements())
            for I in lattice:
                if a in I:
                    expected &= I
            assert ideal_closure(A, [a]) == expected


def test_is_ideal_witnesses(s3_brace):
    ok, witness = is_ideal(s3_brace, frozenset({0, 2, 4}))
    assert ok and witness is None
    transposition = next(a for a in range(1, 6) if s3_brace.add.table[a][a] == 0)
    ok, witness = is_ideal(s3_brace, frozenset({0, transposition}))
    assert not ok and witness is not None


def test_only_ideals_are_small(ring_brace):
    # the ring elements {0, 4} (indices {0, 2}) are the only maximal ideal
    # of 2Z/8Z, so they are small; the set {4} alone is not an ideal
    assert is_small_ideal(ring_brace, frozenset({0, 2}))
    assert not is_small_ideal(ring_brace, frozenset({2}))
    assert not is_small_ideal(ring_brace, frozenset(range(4)))


def test_left_ideal_not_ideal():
    # in the trivial brace on D4 the subgroup generated by a reflection is a
    # left ideal (lambda-stable subgroup) but not normal, hence not an ideal
    A = trivial_brace(dihedral(4))
    reflection = next(a for a in range(1, 8) if A.add.table[a][a] == 0)
    S = frozenset({0, reflection})
    assert is_left_ideal(A, S)[0]
    assert not is_ideal(A, S)[0]


def test_star_product_and_sum(ring_brace):
    full = frozenset(range(4))
    assert star_product(ring_brace, full, full) == a2(ring_brace)
    assert star_product(ring_brace, {0, 2}, full) == frozenset({0})


def test_quotient_by_a2_is_trivial(ring_brace):
    Q, proj = quotient_brace(ring_brace, a2(ring_brace))
    assert Q.order == 2
    assert Q.add.table == Q.circle.table
    assert proj[0] == 0
    for x in ring_brace.elements():
        for y in ring_brace.elements():
            assert proj[ring_brace.plus(x, y)] == Q.plus(proj[x], proj[y])
            assert proj[ring_brace.circ(x, y)] == Q.circ(proj[x], proj[y])


def test_quotient_trivial_iff_a2_contained(ring_brace):
    for I in all_ideals(ring_brace):
        Q, _ = quotient_brace(ring_brace, I)
        is_trivial = Q.add.table == Q.circle.table
        assert is_trivial == (a2(ring_brace) <= I)


def test_quotient_rejects_non_ideal(s3_brace):
    transposition = next(a for a in range(1, 6) if s3_brace.add.table[a][a] == 0)
    with pytest.raises(ValueError):
        quotient_brace(s3_brace, frozenset({0, transposition}))


def test_sub_brace_embedding(ring_brace):
    S, emb = sub_brace(ring_brace, frozenset({0, 2}))
    assert S.order == 2
    assert set(emb) == {0, 2}
    for i in range(2):
        for j in range(2):
            assert emb[S.plus(i, j)] == ring_brace.plus(emb[i], emb[j])
            assert emb[S.circ(i, j)] == ring_brace.circ(emb[i], emb[j])


@pytest.mark.parametrize("index, S, message", [
    (1, {1, 2, 3}, "subset does not contain 0"),
    (1, {0, 1}, "subset not closed under negation at 1"),
    (1, {0, 1, 3}, "subset not closed at (1,1)"),  # 1 + 1 = 2
    (3, {0, 2}, "subset not closed at (2,2)"),  # (A,∘) = C4, so 2∘2 is not 0 or 2
], ids=["no-zero", "not-closed-under-negation", "not-closed-under-plus", "not-closed-under-circle"])
def test_sub_brace_refuses_a_subset_that_is_not_closed(index, S, message):
    """On the order-4 catalog braces with (A,+) = C4 (index 1) and C2×C2 (3)."""
    A = enumerate_braces(4).braces[index]
    with pytest.raises(ValueError) as exc:
        sub_brace(A, frozenset(S))
    assert str(exc.value) == message


def test_left_ideal_test_refuses_a_set_that_is_not_an_additive_subgroup():
    """Every λ of a trivial brace is the identity, so only the subgroup test
    can refuse {0, 1} in C4."""
    A = trivial_brace(cyclic(4))
    assert is_left_ideal(A, frozenset({0, 1})) == (False, ("not-additive-subgroup", (0, 1)))


def test_crt_isomorphism_when_ideals_are_coprime():
    # A = C2 x C3 trivial; I = C2 x {0}, J = {0} x C3; A/(I∩J) ≅ A/I x A/J
    A = trivial_brace(direct_product_group(cyclic(2), cyclic(3)))
    ideals = [I for I in all_ideals(A) if len(I) in (2, 3)]
    I = next(I for I in ideals if len(I) == 2)
    J = next(J for J in ideals if len(J) == 3)
    assert I & J == frozenset({0})
    assert ideal_closure(A, I | J) == frozenset(A.elements())
    QI, _ = quotient_brace(A, I)
    QJ, _ = quotient_brace(A, J)
    assert brace_isomorphic(A, direct_product(QI, QJ)) is not None


def test_maximal_ideals(ring_brace, s3_brace):
    assert maximal_ideals(ring_brace) == (frozenset({0, 2}),)
    assert maximal_ideals(s3_brace) == (frozenset({0, 2, 4}),)
    assert maximal_ideals(zero_brace()) == ()
    K = trivial_brace(klein_group())
    assert len(maximal_ideals(K)) == 3
    assert all(len(M) == 2 for M in maximal_ideals(K))


def test_prime_braces_and_ideals(ring_brace, s3_brace):
    # A*A = A fails everywhere here except nowhere: these are all non-prime
    assert not is_prime_brace(ring_brace)
    assert not is_prime_brace(trivial_brace(cyclic(2)))
    # trivial braces star trivially, so quotients are never prime
    for M in maximal_ideals(s3_brace):
        assert not is_prime_ideal(s3_brace, M)
    for M in maximal_ideals(ring_brace):
        assert not is_prime_ideal(ring_brace, M)


def test_unchecked_quotient_matches_the_checked_one_on_lattice_ideals():
    """The internal callers pass ``_brace_cosets`` lattice ideals, A^(2) and
    Rad(A) unchecked: on the catalogs of order <= MAX_ORDER each of them is
    an ideal, and the unchecked quotient by every lattice ideal is the
    checked one."""
    for n in range(1, MAX_ORDER + 1):
        for A in _build_catalog(n).braces:
            lattice = all_ideals(A)
            assert a2(A) in lattice and radical_set(A) in lattice
            assert set(maximal_ideals(A)) <= set(lattice)
            for I in lattice:
                assert _brace_cosets.__wrapped__(A, I) == quotient_brace(A, I)
