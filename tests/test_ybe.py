import itertools

import pytest

from bracekit.braces import trivial_brace, verify_brace
from bracekit.catalog import enumerate_braces
from bracekit.grouptables import cyclic, dihedral
from bracekit.ybe import (
    _orbits_of_maps,
    check_solution,
    close_permutations,
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

from conftest import flip_solution, triangle


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


def brute_braid_check(S):
    """Oracle: apply r1 = r x id and r2 = id x r to every triple directly."""
    def r1(t):
        a, b = S.r(t[0], t[1])
        return (a, b, t[2])

    def r2(t):
        a, b = S.r(t[1], t[2])
        return (t[0], a, b)

    n = S.size
    for t in itertools.product(range(n), repeat=3):
        if r1(r2(r1(t))) != r2(r1(r2(t))):
            return False
    return True


def test_make_solution_validation():
    with pytest.raises(ValueError):
        make_solution([(0, 1)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_solution([(0, 2), (1, 0)], [(0, 1), (1, 0)])


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
    assert brute_braid_check(S)
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
    assert brute_braid_check(S)
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
    assert not brute_braid_check(S)


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
            group = close_permutations(n, summary.generators)
            assert summary.order == len(group)
            assert summary.orbits == _orbits_of_maps(n, group)


def test_quandle_requires_derived_form():
    with pytest.raises(ValueError):
        is_quandle(c3_doubling())
    with pytest.raises(ValueError):
        is_indecomposable_derived(c3_doubling())


def test_close_permutations():
    group = close_permutations(3, [(1, 2, 0)])
    assert len(group) == 3
    group = close_permutations(3, [(1, 0, 2), (0, 2, 1)])
    assert len(group) == 6
    assert tuple(range(3)) in group
