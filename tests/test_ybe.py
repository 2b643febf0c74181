from functools import cache

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bracekit.braces import trivial_brace
from bracekit.catalog import _build_catalog, enumerate_braces
from bracekit.grouptables import dihedral
from bracekit import ybe
from bracekit.groups import BoundExceededError
from bracekit.ybe import (
    check_solution,
    derived_solution,
    is_derived_form,
    is_indecomposable_derived,
    is_nondegenerate,
    is_quandle,
    is_trivial_solution,
    make_solution,
    permutation_group,
    solution_from_brace,
    solution_orbits,
)

from conftest import (
    flip_solution,
    oracle_check_solution,
    oracle_close_permutations,
    oracle_orbits_of_maps,
    triangle,
)


def two_parallel_swaps():
    """Four points; every sigma_x swaps the first pair, every tau_y swaps
    the second pair."""
    sigma = [(1, 0, 2, 3)] * 4
    tau = [(0, 1, 3, 2)] * 4
    return make_solution(sigma, tau)


def c3_doubling():
    """Three points; sigma_x(y) = 2y and tau_y(x) = x + 2y mod 3."""
    sigma = [tuple((2 * y) % 3 for y in range(3)) for _ in range(3)]
    tau = [tuple((x + 2 * y) % 3 for x in range(3)) for y in range(3)]
    return make_solution(sigma, tau)


def test_make_solution_validation():
    with pytest.raises(ValueError):
        make_solution([(0, 1)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_solution([(0, 2), (1, 0)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_solution([[0, True], [0, 1]], [[0, 1], [0, 1]])


def test_flip_solution():
    S = flip_solution(3)
    rep = check_solution(S)
    assert rep.is_ybe and rep.is_nondegenerate and rep.is_involutive
    assert is_trivial_solution(S)


def test_two_parallel_swaps_example():
    S = two_parallel_swaps()
    rep = check_solution(S)
    assert rep.is_bijective and rep.is_ybe and rep.is_nondegenerate
    assert not rep.is_involutive and rep.involutive_witness is not None
    assert oracle_check_solution(S).is_ybe
    summary = permutation_group(S)
    assert summary.order == 2
    assert summary.orbits == ((0, 1), (2,), (3,))  # sigma maps alone
    assert solution_orbits(S) == ((0, 1), (2, 3))  # sigma and tau together
    assert not is_trivial_solution(S)


def test_two_parallel_swaps_derived():
    D = derived_solution(two_parallel_swaps())
    assert is_derived_form(D)
    # y▷x composes both swaps, independently of y
    for y in range(4):
        assert tuple(triangle(D, y, x) for x in range(4)) == (1, 0, 3, 2)
    assert not is_quandle(D)  # 0▷0 = 1
    decomposable, orbits = is_indecomposable_derived(D)
    assert not decomposable
    assert orbits == ((0, 1), (2, 3))


def test_c3_doubling_example():
    S = c3_doubling()
    rep = check_solution(S)
    assert rep.is_ybe and rep.is_nondegenerate
    assert not rep.is_involutive  # r^2(0,1) = (1,0)
    assert oracle_check_solution(S).is_ybe
    assert permutation_group(S).order == 2
    assert solution_orbits(S) == ((0, 1, 2),)
    assert not is_trivial_solution(S)


def test_c3_doubling_derived_is_indecomposable_quandle():
    D = derived_solution(c3_doubling())
    for y in range(3):
        for x in range(3):
            assert triangle(D, y, x) == (2 * x + 2 * y) % 3
    assert is_quandle(D)
    ok, orbits = is_indecomposable_derived(D)
    assert ok and orbits == ((0, 1, 2),)


def test_braid_witness_on_broken_solution():
    sigma = [(1, 0, 2), (0, 2, 1), (2, 1, 0)]
    tau = [tuple(range(3))] * 3
    S = make_solution(sigma, tau)
    rep = check_solution(S)
    assert not rep.is_ybe and rep.braid_witness is not None
    assert not oracle_check_solution(S).is_ybe


def test_solution_from_trivial_brace_is_conjugation():
    A = trivial_brace(dihedral(3))
    S = solution_from_brace(A)
    rep = check_solution(S)
    assert rep.is_ybe and rep.is_nondegenerate
    assert not rep.is_involutive  # nonabelian additive group
    # for a trivial brace sigma_a = id and tau_b(a) = b' ∘ a ∘ b
    for a in range(6):
        for b in range(6):
            expected = A.circ(A.circ(A.circ_inv(b), a), b)
            assert S.r(a, b) == (b, expected)


def test_solutions_from_corpus_braces():
    for n in (2, 3, 4, 6, 8):
        for A in enumerate_braces(n).braces:
            S = solution_from_brace(A)
            rep = check_solution(S)
            assert rep.is_ybe and rep.is_bijective and rep.is_nondegenerate
            from bracekit.groups import abelian_invariants
            if abelian_invariants(A.add) is not None:
                assert rep.is_involutive
            D = derived_solution(S)
            assert check_solution(D).is_ybe


def test_derived_requires_nondegenerate():
    sigma = [(0, 0), (1, 1)]
    tau = [(0, 1), (0, 1)]
    S = make_solution(sigma, tau)
    with pytest.raises(ValueError):
        derived_solution(S)


@pytest.mark.parametrize("degenerate", ["sigma", "tau"])
def test_degenerate_rows_are_refused(degenerate):
    # a braid solution whose only defect is one non-permutation row
    good = [(0, 1), (0, 1)]
    bad = [(0, 1), (1, 1)]
    S = make_solution(bad if degenerate == "sigma" else good,
                      bad if degenerate == "tau" else good)
    assert not is_nondegenerate(S)
    assert not check_solution(S).is_nondegenerate
    with pytest.raises(ValueError):
        derived_solution(S)
    with pytest.raises(ValueError):
        permutation_group(S)


def test_permutation_group_orbits_are_those_of_the_whole_group():
    for n in (4, 6, 8):
        for A in enumerate_braces(n).braces:
            S = solution_from_brace(A)
            assert is_nondegenerate(S)
            summary = permutation_group(S)
            group = oracle_close_permutations(n, summary.generators)
            assert summary.order == len(group)
            assert summary.orbits == oracle_orbits_of_maps(n, group)


def test_permutation_group_of_the_empty_solution_is_trivial():
    summary = permutation_group(make_solution([], []))
    assert summary == (1, (), ())


def sigma_solution(sigma) -> ybe.SetSolution:
    """A solution on len(sigma) points with the given sigma maps and
    identity tau maps."""
    return make_solution(sigma, [tuple(range(len(sigma)))] * len(sigma))


def test_quandle_requires_derived_form():
    """Both checks need a rack: a derived form whose maps x ↦ y▷x are
    permutations.  The derived form of this non-degenerate non-solution has
    the maps (0,0,1) and (0,1,0), so it is a derived form but no rack."""
    not_a_rack = derived_solution(make_solution([(0, 2, 1), (2, 0, 1), (2, 0, 1)],
                                                [(0, 2, 1), (1, 0, 2), (2, 0, 1)]))
    assert is_derived_form(not_a_rack) and not is_nondegenerate(not_a_rack)
    for S in (c3_doubling(), not_a_rack):
        with pytest.raises(ValueError):
            is_quandle(S)
        with pytest.raises(ValueError):
            is_indecomposable_derived(S)


def test_close_permutations():
    for gens, order in (([(1, 2, 0)], 3), ([(1, 0, 2), (0, 2, 1)], 6)):
        group = oracle_close_permutations(3, gens)
        assert len(group) == order and tuple(range(3)) in group
        assert permutation_group(sigma_solution((gens * 3)[:3])).order == order


def test_close_permutations_bounds_stored_integers(monkeypatch):
    """The bound counts stored integers, permutations times points: 36
    integers hold 12 permutations of 3 points but only 6 of 6 points."""
    monkeypatch.setattr(ybe, "PERMUTATION_CLOSURE_BOUND", 36)
    cycle, transposition = (1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)
    assert permutation_group(sigma_solution([(1, 0, 2), (1, 2, 0), (1, 2, 0)])).order == 6
    assert permutation_group(sigma_solution([cycle] * 6)).order == 6
    with pytest.raises(BoundExceededError, match="6 permutations of 6 points"):
        permutation_group(sigma_solution([cycle, transposition] * 3))


def solution_maps(n: int):
    """(n, sigma, tau) for sigma and tau lists of n permutations of 0..n-1."""
    maps = st.lists(st.permutations(range(n)).map(tuple), min_size=n, max_size=n)
    return st.tuples(st.just(n), maps, maps)


@seed(22)
@settings(max_examples=200, deadline=None)
@given(case=st.integers(0, 7).flatmap(solution_maps))
@example(case=(0, [], []))
@example(case=(1, [(0,)], [(0,)]))
def test_solution_orbits_match_the_union_find_oracle(case):
    n, sigma, tau = case
    assert solution_orbits(make_solution(sigma, tau)) == oracle_orbits_of_maps(n, sigma + tau)


def test_solution_orbits_refuse_a_degenerate_solution():
    """tau_0 sends both points to 0: not a permutation."""
    with pytest.raises(ValueError, match="non-degenerate"):
        solution_orbits(make_solution([(0, 1), (0, 1)], [(0, 0), (0, 1)]))


@cache
def catalog_solutions() -> tuple:
    """The solution of every catalog brace of order <= 12, each followed by
    its derived solution."""
    out = []
    for n in range(1, 13):
        for A in _build_catalog(n).braces:
            S = solution_from_brace(A)
            out += [S, derived_solution(S)]
    return tuple(out)


def test_check_solution_matches_oracle_on_catalog_solutions():
    for S in catalog_solutions():
        assert check_solution(S) == oracle_check_solution(S)


@seed(20201)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_check_solution_matches_oracle_on_one_swap_mutants(data):
    """Swapping two entries of one row of sigma or tau keeps the solution
    non-degenerate but mostly breaks the braid relation or involutivity;
    the reports, witnesses included, must be the oracle's."""
    S = data.draw(st.sampled_from([S for S in catalog_solutions() if S.size > 1]))
    name = data.draw(st.sampled_from(["sigma", "tau"]))
    x = data.draw(st.integers(0, S.size - 1))
    i, j = data.draw(st.lists(st.integers(0, S.size - 1), min_size=2, max_size=2, unique=True))
    rows = [list(row) for row in getattr(S, name)]
    rows[x][i], rows[x][j] = rows[x][j], rows[x][i]
    M = S._replace(**{name: tuple(map(tuple, rows))})
    assert check_solution(M) == oracle_check_solution(M)
