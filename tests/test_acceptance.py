"""Acceptance suite: one test per release criterion, each printing a single
status line (visible with `pytest -s` or in the captured output)."""

from bracekit.braces import check_star_identities, trivial_brace, verify_brace, zero_brace
from bracekit.catalog import enumerate_braces
from bracekit.cli import main
from bracekit.groups import abelian_invariants
from bracekit.grouptables import cyclic, direct_product_group
from bracekit.ideals import all_ideals, quotient_brace, sub_brace
from bracekit.invariants import (
    check_gaschutz,
    check_kutzko,
    check_prop_a2,
    check_prop_desc,
    check_prop_np,
    check_square_free,
    non_generators,
    radical_prime_set,
    radical_set,
    schur_embedding,
    small_ideal_sum,
    wedderburn_decompose,
    weight,
)
from bracekit.ybe import (
    check_solution,
    derived_solution,
    is_indecomposable_derived,
    is_quandle,
    make_solution,
    permutation_group,
    solution_from_brace,
    solution_orbits,
)

from conftest import oracle_enumerate, triangle


def corpus(max_order):
    for n in range(1, max_order + 1):
        for A in enumerate_braces(n).braces:
            yield n, A


def _done(k, label):
    print(f"acceptance {k} ({label}): pass")


def test_criterion_1_axiom_suite():
    checked = 0
    for n, A in corpus(8):
        B = verify_brace(A.add.table, A.circle.table)
        assert B.order == n
        assert check_star_identities(A).passed
        for a in A.elements():
            for b in A.elements():
                composed = tuple(A.lam[a][A.lam[b][x]] for x in A.elements())
                assert A.lam[A.circ(a, b)] == composed
        checked += 1
    assert checked == 1 + 1 + 1 + 4 + 1 + 6 + 1 + 47
    _done(1, f"axiom suite on {checked} braces, n <= 8")


def test_criterion_2_enumeration_cross_check():
    counts = {}
    for n in range(1, 6):
        counts[n] = len(enumerate_braces(n).braces)
        assert counts[n] == len(oracle_enumerate(n))
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 1}
    _done(2, "holomorph and brute-force counts agree for n in 1..5")


def test_criterion_3_weight_ground_truth():
    c2 = cyclic(2)
    cases = [
        (trivial_brace(c2), 1),
        (trivial_brace(direct_product_group(c2, c2)), 2),
        (trivial_brace(direct_product_group(direct_product_group(c2, c2), c2)), 3),
        (trivial_brace(direct_product_group(cyclic(3), cyclic(3))), 2),
        (zero_brace(), 1),
    ]
    for A, expected in cases:
        assert weight(A).weight == expected
    _done(3, "weights 1,2,3,2 on elementary abelian trivial braces; zero brace 1")


def test_criterion_4_radical_laws():
    for n, A in corpus(8):
        rad = radical_set(A)
        Q, _ = quotient_brace(A, rad)
        assert radical_set(Q) == frozenset({0})
        assert rad <= radical_prime_set(A)
        # both descriptions, the non-generator one brute-forced over 2^n subsets
        assert non_generators(A) == rad == small_ideal_sum(A)
        assert check_prop_desc(A).status == "pass"
        for I in all_ideals(A):
            S, embed = sub_brace(A, I)
            assert {embed[i] for i in radical_set(S)} <= rad
            assert {embed[i] for i in radical_prime_set(S)} <= radical_prime_set(A)
    _done(4, "radical laws on the full corpus, n <= 8")


def test_criterion_5_theorem_sweep():
    na = {"prop-a2": 0}
    total = 0
    for n, A in corpus(10):
        total += 1
        assert check_gaschutz(A).status == "pass", n
        assert check_prop_np(A).status == "pass", n
        assert check_kutzko(A).status == "pass", n
        rep = check_prop_a2(A)
        assert rep.status in ("pass", "na"), n
        if rep.status == "na":
            na["prop-a2"] += 1
        assert check_square_free(A).status == "pass", n
        if n in (6, 10):
            assert weight(A).weight == 1, n
    _done(5, f"theorem sweep on {total} braces, n <= 10; NA counts: {na}")


def test_criterion_6_wedderburn():
    for n, A in corpus(8):
        # wedderburn_decompose raises if any factor is non-simple or the
        # product map fails bijectivity / either operation table
        D = wedderburn_decompose(A)
        expected = 1
        for F in D.factors:
            expected *= F.order
        assert D.semisimple_quotient.order == max(expected, 1)
        assert D.iso.is_bijective
    _done(6, "verified Wedderburn-type decomposition, n <= 8")


def test_criterion_7_schur_embedding():
    for n, A in corpus(8):
        assert schur_embedding(A).status == "pass", n
    _done(7, "Schur-type embedding well-defined and injective, n <= 8")


def test_criterion_8_ybe_suite():
    for n, A in corpus(8):
        S = solution_from_brace(A)
        rep = check_solution(S)
        assert rep.is_ybe and rep.is_nondegenerate, n
        if abelian_invariants(A.add) is not None:
            assert rep.is_involutive, n

    # four points, sigma always swaps the first pair, tau the second pair
    T = make_solution([(1, 0, 2, 3)] * 4, [(0, 1, 3, 2)] * 4)
    rep = check_solution(T)
    assert rep.is_ybe and rep.is_nondegenerate and not rep.is_involutive
    assert len(solution_orbits(T)) == 2
    assert permutation_group(T).order == 2

    # three points: sigma_x(y) = 2y, tau_y(x) = x + 2y (mod 3)
    C = make_solution(
        [tuple((2 * y) % 3 for y in range(3)) for _ in range(3)],
        [tuple((x + 2 * y) % 3 for x in range(3)) for y in range(3)])
    rep = check_solution(C)
    assert rep.is_ybe and rep.is_nondegenerate
    D = derived_solution(C)
    for y in range(3):
        for x in range(3):
            assert triangle(D, y, x) == (2 * x + 2 * y) % 3
    assert is_quandle(D)
    assert is_indecomposable_derived(D)[0]
    _done(8, "canonical solutions n <= 8 plus both worked examples")


def test_criterion_9_determinism(tmp_path):
    f1 = tmp_path / "sweep-jobs1.json"
    f8 = tmp_path / "sweep-jobs8.json"
    assert main(["sweep", "8", "--jobs", "1", "--out", str(f1)]) == 0
    assert main(["sweep", "8", "--jobs", "8", "--out", str(f8)]) == 0
    assert f1.read_bytes() == f8.read_bytes()
    _done(9, "sweep 8 byte-identical across --jobs 1 and --jobs 8")
