"""The generator-based verification kernels against the full scans.

``verify_group_axioms`` (Light's test), ``verify_brace`` (compatibility on
additive generators) and ``check_star_identities`` (both identities on
additive generators) must accept and reject exactly what the O(n³) oracles
in conftest.py do, with the same exception class, axiom tag and witness, or
the same report.  Each runs one search twice, over generators and then,
on a failure, over every element; on the same inputs, the first must find
a failure exactly when the second does, and the second must find the
oracle's witness.  The memo guards check that memoized verification still
rejects every invalid input, on every call.
"""

import random
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracekit.braces import (
    BraceAxiomError,
    SkewBrace,
    _brace_of,
    _incompatible,
    _star_failure,
    check_star_identities,
    direct_product,
    verify_brace,
)
from bracekit.catalog import _build_catalog
from bracekit.groups import (
    GroupAxiomError,
    _group_of,
    _nonassociative,
    _raw_identity,
    _verify_shaped,
    all_normal_subgroups,
    generating_sequence,
    greedy_subgroup,
    quotient_group,
    relabel_table,
    verify_group_axioms,
)
from bracekit.ideals import all_ideals, quotient_brace, sub_brace

from conftest import oracle_check_star_identities, oracle_verify_brace, oracle_verify_group_axioms

ORDERS = tuple(range(1, 13))


@cache
def catalog() -> tuple[SkewBrace, ...]:
    return tuple(A for n in ORDERS for A in _build_catalog(n).braces)


def outcome(fn, *args):
    """What a verifier does with its input: its result, or the class, axiom
    and witness of what it raised."""
    try:
        return ("ok", fn(*args))
    except (GroupAxiomError, BraceAxiomError) as exc:
        return (type(exc), exc.axiom, exc.witness)


def exact_restriction(search, args, gens, n: int):
    """``search`` over ``gens`` finds a failure exactly when it does over
    every element; the result of the latter."""
    full = search(*args, range(n))
    assert (search(*args, gens) is None) == (full is None)
    return full


def check_associativity_search(table) -> None:
    """On a table that reaches the associativity check, Light's test goes as
    in ``_verify_shaped``: when the greedy pass from the raw identity does not
    reach every index the oracle rejects the table for associativity, and
    otherwise the search over the pass's generators is exact; either way the
    full search finds the oracle's witness."""
    expected = outcome(oracle_verify_group_axioms, table)
    if expected[0] == "ok" or expected[1] == "associativity":
        table, n, e = tuple(map(tuple, table)), len(table), _raw_identity(table)
        gens, H = greedy_subgroup(e, range(n), lambda x, g: table[x][g], n)
        if len(H) < n:
            assert expected[1] == "associativity"
            full = _nonassociative(table, range(n))
        else:
            full = exact_restriction(_nonassociative, (table,), gens, n)
        assert full == (None if expected[0] == "ok" else expected[2])


def check_compatibility_search(add_table, circle_table) -> None:
    """On a pair of groups that reaches the compatibility check, the search
    over additive generators is exact and the full search finds the
    oracle's witness."""
    expected = outcome(oracle_verify_brace, add_table, circle_table)
    if expected[0] == "ok" or expected[1] == "compatibility":
        add, circle = verify_group_axioms(add_table), verify_group_axioms(circle_table)
        full = exact_restriction(_incompatible, (add, circle), generating_sequence(add), add.order)
        assert full == (None if expected[0] == "ok" else expected[2])


def check_star_search(A: SkewBrace) -> None:
    """The (*) search over additive generators is exact and the full search
    finds the oracle's failure."""
    report = oracle_check_star_identities(A)
    full = exact_restriction(_star_failure, (A,), generating_sequence(A.add), A.order)
    details = dict(report.details)
    assert full == (None if report.passed else (details["identity"], details["witness"]))


def mutate(table, row: int, col: int, value: int) -> list[list[int]]:
    out = [list(r) for r in table]
    out[row][col] = value
    return out


def random_loop(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square with identity row and column 0, by randomized
    backtracking; most are not groups, so associativity gets exercised."""
    table = [[None] * n for _ in range(n)]
    table[0] = list(range(n))
    for a in range(n):
        table[a][0] = a

    def fill(cell: int) -> bool:
        if cell == n * n:
            return True
        a, b = divmod(cell, n)
        if table[a][b] is not None:
            return fill(cell + 1)
        used = {table[a][j] for j in range(n)} | {table[i][b] for i in range(n)}
        values = [v for v in range(n) if v not in used]
        rng.shuffle(values)
        for v in values:
            table[a][b] = v
            if fill(cell + 1):
                return True
        table[a][b] = None
        return False

    assert fill(0)
    return table


def test_catalog_tables_pass_as_with_the_oracles():
    for A in catalog():
        for table in (A.add.table, A.circle.table):
            assert verify_group_axioms(table) == oracle_verify_group_axioms(table)
            check_associativity_search(table)
        assert verify_brace(A.add.table, A.circle.table) == A
        check_compatibility_search(A.add.table, A.circle.table)
        assert check_star_identities(A) == oracle_check_star_identities(A)
        check_star_search(A)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_axioms_match_the_oracle_on_one_entry_mutations(data):
    A = data.draw(st.sampled_from(catalog()))
    table = data.draw(st.sampled_from((A.add.table, A.circle.table)))
    n = A.order
    row, col, value = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    mutant = mutate(table, row, col, value)
    assert outcome(verify_group_axioms, mutant) == outcome(oracle_verify_group_axioms, mutant)
    check_associativity_search(mutant)


def times_c2(table) -> list[list[int]]:
    """The direct product with C2, (a, g) indexed as 2a + g.  Its first greedy
    generator (0, 1) is central, so a loop's non-associativity shows only at
    a later generator."""
    n = len(table)
    return [[2 * table[i // 2][j // 2] + (i + j) % 2 for j in range(2 * n)] for i in range(2 * n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(n=5, seed=202)  # a loop whose greedy pass from 0 keeps no generator
def test_group_axioms_match_the_oracle_on_random_loops(n, seed):
    rng = random.Random(seed)
    table = random_loop(n, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = relabel_table(table, [*range(1, n), 0])  # identity at 1
    for candidate in (table, relabel_table(table, perm), moved, times_c2(table)):
        assert outcome(verify_group_axioms, candidate) == outcome(oracle_verify_group_axioms, candidate)
        check_associativity_search(candidate)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_brace_matches_the_oracle_on_one_entry_mutations(data):
    A = data.draw(st.sampled_from(catalog()))
    n = A.order
    row, col, value = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    tables = [A.add.table, A.circle.table]
    which = data.draw(st.integers(0, 1))
    tables[which] = mutate(tables[which], row, col, value)
    assert outcome(verify_brace, *tables) == outcome(oracle_verify_brace, *tables)
    check_compatibility_search(*tables)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_brace_matches_the_oracle_on_mismatched_pairs(data):
    """The additive group of one catalog brace with the circle group of
    another of the same order, relabeled by a permutation fixing 0: mostly
    incompatible pairs."""
    n = data.draw(st.sampled_from([n for n in ORDERS if n > 1]))
    braces = [A for A in catalog() if A.order == n]
    A, B = data.draw(st.sampled_from(braces)), data.draw(st.sampled_from(braces))
    perm = (0, *data.draw(st.permutations(range(1, n))))
    circle = relabel_table(B.circle.table, perm)
    assert outcome(verify_brace, A.add.table, circle) == outcome(oracle_verify_brace, A.add.table, circle)
    check_compatibility_search(A.add.table, circle)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_star_identities_match_the_oracle_on_mutated_lambda(data):
    """One entry of the lambda table changed, or one lambda row replaced by
    another (which keeps every row additive and breaks only the second
    identity)."""
    A = data.draw(st.sampled_from([A for A in catalog() if A.order > 1]))
    n = A.order
    lam = [list(row) for row in A.lam]
    x = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        lam[x][data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    else:
        lam[x] = list(A.lam[data.draw(st.integers(0, n - 1))])
    M = SkewBrace(add=A.add, circle=A.circle, lam=tuple(tuple(row) for row in lam))
    assert check_star_identities(M) == oracle_check_star_identities(M)
    check_star_search(M)


def test_second_identity_failure_is_reported_like_the_oracle():
    A = next(A for A in catalog() if len(set(A.lam)) > 1)
    lam = list(A.lam)
    x = next(x for x in A.elements() if lam[x] != lam[0])
    lam[x] = lam[0]
    M = SkewBrace(add=A.add, circle=A.circle, lam=tuple(lam))
    report = check_star_identities(M)
    assert report.failed
    assert report == oracle_check_star_identities(M)
    check_star_search(M)


@pytest.mark.parametrize("n", ORDERS)
def test_derived_objects_equal_the_verified_rebuild_of_their_tables(n):
    """Quotients, sub-braces and direct products are built from a verified
    parent without verifying them again.  Each must equal what the
    verifiers return for its tables, for every ideal and every normal
    subgroup of both groups of each catalog brace of order n, and for each
    product with a catalog brace of order 2..n up to product order 36.  An
    additive normal subgroup that is not an ideal is refused."""
    for A in [A for A in catalog() if A.order == n]:
        ideals = all_ideals(A)
        for I in ideals:
            for B, _ in (quotient_brace(A, I), sub_brace(A, I)):
                assert B == verify_brace(B.add.table, B.circle.table)
        for G in (A.add, A.circle):
            for N in all_normal_subgroups(G):
                Q, _ = quotient_group(G, N)
                assert Q == verify_group_axioms(Q.table)
        for N in set(all_normal_subgroups(A.add)) - set(ideals):
            with pytest.raises(ValueError, match="not an ideal"):
                quotient_brace(A, N)
        for B in catalog():
            if 2 <= B.order <= n and n * B.order <= 36:
                P = direct_product(A, B)
                assert P == verify_brace(P.add.table, P.circle.table)


# ---------------------------------------------------------------------------
# memo guards


def test_float_entry_is_rejected_after_the_int_table_was_verified():
    table = [list(row) for row in catalog()[-1].add.table]
    verify_group_axioms(table)
    table[1][2] = float(table[1][2])
    for _ in range(2):
        with pytest.raises(GroupAxiomError) as exc:
            verify_group_axioms(table)
        assert exc.value.axiom == "shape"
        assert exc.value.witness == (1, 2)


@pytest.mark.parametrize("call,error,witness", [
    (lambda: verify_group_axioms([]), GroupAxiomError, ()),
    (lambda: verify_group_axioms([[0, 1], [1]]), GroupAxiomError, (1,)),
    (lambda: verify_brace([[0, 1], [1, 0]], [[0]]), BraceAxiomError, ()),
], ids=["empty-table", "ragged-row", "tables-of-two-sizes"])
def test_misshapen_tables_raise_the_shape_error(call, error, witness):
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), exc.value.axiom, exc.value.witness) == (error, "shape", witness)


def test_bool_entries_are_not_indices():
    """An entry is an index exactly when ``type(v) is int``, as in the file
    loaders.  A bool in a group table, or in either table of a pair, raises
    the shape error at the first bool on every call, and no memo grows."""
    table = [list(row) for row in catalog()[-1].add.table]
    verify_brace(table, table)
    one_bool, col = [list(row) for row in table], table[3].index(1)
    one_bool[3][col] = True
    two = [[0, 1], [1, 0]]
    memos = [f.cache_info().currsize for f in (_group_of, _brace_of, _verify_shaped)]
    for _ in range(2):
        for bad, other, witness in ((one_bool, table, (3, col)),
                                    ([[False, True], [True, False]], two, (0, 0)),
                                    ([[0, True], [True, 0]], two, (0, 1))):
            for call in (lambda: verify_group_axioms(bad), lambda: verify_brace(bad, other),
                         lambda: verify_brace(other, bad)):
                with pytest.raises(GroupAxiomError) as exc:
                    call()
                assert (exc.value.axiom, exc.value.witness) == ("shape", witness)
    assert [f.cache_info().currsize for f in (_group_of, _brace_of, _verify_shaped)] == memos


def test_rejected_tables_and_pairs_never_enter_the_intern_tables():
    """A mutated group table, a loop that is not associative, and a pair of
    two verified groups that are not compatible raise on every call, and
    neither intern table grows."""
    A = next(A for A in catalog() if A.order == 8 and A.add != A.circle)
    circle = next(C.circle.table for C in catalog() if C.order == 8
                  and outcome(oracle_verify_brace, A.add.table, C.circle.table)[0] is BraceAxiomError)
    bad_group = mutate(A.circle.table, 2, 3, A.circle.table[2][4])
    bad_product = mutate(A.circle.table, 1, 1, A.circle.table[1][1] ^ 1)
    loops = (random_loop(6, random.Random(seed)) for seed in range(100))
    loop = next(L for L in loops if outcome(oracle_verify_group_axioms, L)[1] == "associativity")
    memos = (_group_of.cache_info().currsize, _brace_of.cache_info().currsize)
    for _ in range(2):
        for add, circ, error in ((A.add.table, circle, BraceAxiomError),
                                 (A.add.table, bad_group, GroupAxiomError),
                                 (bad_product, bad_product, GroupAxiomError)):
            with pytest.raises(error):
                verify_brace(add, circ)
        for table in (bad_group, loop):
            with pytest.raises(GroupAxiomError):
                verify_group_axioms(table)
    assert (_group_of.cache_info().currsize, _brace_of.cache_info().currsize) == memos


def test_mutated_verified_brace_is_rejected_with_the_oracle_witness():
    A = next(A for A in catalog() if A.order == 12 and A.add != A.circle)
    verify_brace(A.add.table, A.circle.table)
    circle = mutate(A.circle.table, 5, 7, (A.circle.table[5][7] + 1) % 12)
    for _ in range(2):
        with pytest.raises((GroupAxiomError, BraceAxiomError)) as exc:
            verify_brace(A.add.table, circle)
        expected = outcome(oracle_verify_brace, A.add.table, circle)
        assert (type(exc.value), exc.value.axiom, exc.value.witness) == expected


def test_quotient_by_a_non_ideal_raises_on_every_call(s3_brace):
    transposition = next(x for x in s3_brace.elements()
                         if x and s3_brace.circ(x, x) == 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="not an ideal"):
            quotient_brace(s3_brace, frozenset({0, transposition}))
