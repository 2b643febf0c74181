import itertools

import pytest

from bracekit import invariants
from bracekit.braces import brace_isomorphic, trivial_brace, zero_brace
from bracekit.catalog import _build_catalog, enumerate_braces
from bracekit.groups import all_normal_subgroups
from bracekit.grouptables import MAX_ORDER, cyclic, dihedral, direct_product_group
from bracekit.ideals import all_ideals, ideal_closure, maximal_ideals, quotient_brace
from bracekit.invariants import (
    _subset_search,
    brace_report,
    check_gaschutz,
    check_kutzko,
    check_prop_a2,
    check_prop_desc,
    check_prop_inc,
    check_prop_np,
    check_square_free,
    check_wiegold,
    is_perfect,
    is_simple,
    is_solvable,
    non_generators,
    radical,
    radical_prime_set,
    radical_set,
    schur_embedding,
    small_ideal_sum,
    solvable_series,
    theorem_checks,
    wedderburn_decompose,
    weight,
)

from conftest import (
    ORDER_16_GROUPS,
    check_omega_products,
    frattini_comparison,
    klein_group,
    oracle_check_gaschutz,
    oracle_ideal_closure,
    oracle_schur_embedding,
    oracle_schur_report,
    oracle_solvable_series,
    oracle_wedderburn_decompose,
    order_16_classes,
)


def test_radical_examples(ring_brace, s3_brace):
    assert radical_set(ring_brace) == frozenset({0, 2})
    assert radical_set(s3_brace) == frozenset({0, 2, 4})
    assert radical_set(zero_brace()) == frozenset({0})
    assert radical_set(trivial_brace(klein_group())) == frozenset({0})


def test_radical_prime_contains_radical(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace, trivial_brace(cyclic(6)),
              trivial_brace(dihedral(4))):
        assert radical_set(A) <= radical_prime_set(A)


def test_radical_of_quotient_is_zero(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace, trivial_brace(cyclic(4))):
        Q, _ = quotient_brace(A, radical_set(A))
        assert radical_set(Q) == frozenset({0})


def test_non_generators_match_radical(ring_brace, s3_brace):
    # brute-force characterization: a is a non-generator when dropping it
    # from any ideal-generating subset still generates
    for A in (ring_brace, s3_brace, trivial_brace(klein_group())):
        full = frozenset(A.elements())
        expected = set(A.elements())
        for S in itertools.chain.from_iterable(
                itertools.combinations(A.elements(), r) for r in range(A.order + 1)):
            if oracle_ideal_closure(A, S) != full:
                continue
            for x in S:
                rest = frozenset(S) - {x}
                if oracle_ideal_closure(A, rest) != full:
                    expected.discard(x)
        assert non_generators(A) == frozenset(expected) == radical_set(A)
        assert small_ideal_sum(A) == radical_set(A)


def test_radical_report(ring_brace):
    rep = radical(ring_brace)
    assert rep.radical == frozenset({0, 2})
    assert rep.maximal_ideal_count == 1
    assert rep.non_generators == rep.radical == rep.small_ideal_sum


def test_simple_and_perfect():
    assert is_simple(trivial_brace(cyclic(5)))
    assert not is_simple(trivial_brace(cyclic(4)))
    assert not is_simple(zero_brace())
    assert not is_perfect(trivial_brace(cyclic(5)))
    assert is_perfect(zero_brace())


def test_solvable_series(ring_brace, s3_brace):
    series = solvable_series(ring_brace)
    assert series.terms == (frozenset(range(4)), frozenset({0, 2}), frozenset({0}))
    assert series.solvable and is_solvable(ring_brace)
    # trivial braces have A*A = 0 immediately
    assert solvable_series(s3_brace).terms == (frozenset(range(6)), frozenset({0}))


def test_weight_ground_truth(ring_brace):
    assert weight(zero_brace()).weight == 1
    assert weight(trivial_brace(cyclic(2))).weight == 1
    assert weight(trivial_brace(klein_group())).weight == 2
    c2 = cyclic(2)
    assert weight(trivial_brace(
        direct_product_group(direct_product_group(c2, c2), c2))).weight == 3
    assert weight(trivial_brace(direct_product_group(cyclic(3), cyclic(3)))).weight == 2
    assert weight(ring_brace).weight == 1
    assert weight(trivial_brace(dihedral(3))).weight == 1


def test_weight_certificate_generates(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace, trivial_brace(klein_group())):
        cert = weight(A)
        assert ideal_closure(A, cert.generating_set) == frozenset(A.elements())
        assert len(cert.generating_set) == cert.weight


def test_weight_opt_agrees_with_direct_search():
    for n in range(1, 7):
        for A in enumerate_braces(n).braces:
            assert weight(A).weight == _subset_search(A).weight
            if radical_set(A) == frozenset({0}):  # the quotient is A itself
                assert weight(A) == _subset_search(A)


def test_generation_descends_to_quotients(ring_brace, s3_brace):
    # if S generates A as an ideal, its image generates A/I
    for A in (ring_brace, s3_brace):
        cert = weight(A)
        for I in all_ideals(A):
            Q, proj = quotient_brace(A, I)
            image = frozenset(proj[x] for x in cert.generating_set)
            assert ideal_closure(Q, image) == frozenset(Q.elements())


def test_wedderburn_klein():
    D = wedderburn_decompose(trivial_brace(klein_group()))
    assert [F.order for F in D.factors] == [2, 2]
    assert all(is_simple(F) for F in D.factors)
    assert D.iso.is_bijective
    assert D.semisimple_quotient.order == 4


def test_wedderburn_with_radical(ring_brace, s3_brace):
    D = wedderburn_decompose(ring_brace)
    assert [F.order for F in D.factors] == [2]
    D = wedderburn_decompose(s3_brace)
    assert [F.order for F in D.factors] == [2]
    D = wedderburn_decompose(zero_brace())
    assert D.factors == () and D.semisimple_quotient.order == 1


@pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
def test_wedderburn_family_is_irredundant(n):
    """Dropping any one maximal ideal of the family leaves a non-zero
    intersection, as the argument in ``wedderburn_decompose`` shows."""
    for A in _build_catalog(n).braces:
        D = wedderburn_decompose(A)
        full = frozenset(D.semisimple_quotient.elements())
        for i in range(len(D.maximal_ideals)):
            rest = D.maximal_ideals[:i] + D.maximal_ideals[i + 1:]
            assert full.intersection(*rest) != frozenset({0})


def test_wedderburn_product_isomorphic_to_quotient():
    A = trivial_brace(direct_product_group(cyclic(2), cyclic(3)))
    D = wedderburn_decompose(A)
    assert sorted(F.order for F in D.factors) == [2, 3]
    assert brace_isomorphic(D.semisimple_quotient, D.product) is not None


# Each guard of ``wedderburn_decompose``, reached by replacing the one name of
# ``invariants`` it reads on the trivial brace of C2×C2, catalog entry (4, 2),
# whose decomposition has two factors: (name, replacement, message).
WEDDERBURN_GUARDS = {
    "simple": ("is_simple", lambda A: False, "quotient by a maximal ideal must be simple"),
    "bijective": ("direct_product", lambda A, B: A, "decomposition map is not bijective"),
    "preserves": ("preserves", lambda mapping, source, target: False,
                  "decomposition map does not preserve the operations"),
    "radical": ("maximal_ideals", lambda A: maximal_ideals(A)[:1], "Rad(A/Rad(A)) must be zero"),
}


@pytest.mark.parametrize("name, replacement, message", WEDDERBURN_GUARDS.values(),
                         ids=WEDDERBURN_GUARDS)
def test_wedderburn_guards_raise_their_messages(name, replacement, message, monkeypatch):
    A = enumerate_braces(4).braces[2]
    # also memoizes ``radical_set(A)``, which reads ``maximal_ideals``
    assert len(wedderburn_decompose(A).factors) == 2
    monkeypatch.setattr(invariants, name, replacement)
    with pytest.raises(AssertionError) as exc:
        wedderburn_decompose(A)
    assert str(exc.value) == message


def test_theorem_checks_pass_on_examples(ring_brace, s3_brace):
    for A in (ring_brace, s3_brace, trivial_brace(klein_group()), zero_brace()):
        for rep in theorem_checks(A):
            assert rep.status in ("pass", "na"), (rep.name, rep.details)


def test_individual_check_statuses(ring_brace, s3_brace):
    assert check_gaschutz(ring_brace).status == "pass"
    assert check_prop_np(ring_brace).status == "pass"
    assert check_kutzko(s3_brace).status == "pass"
    assert check_wiegold(ring_brace).status == "na"  # not perfect
    assert check_wiegold(zero_brace()).status == "pass"  # perfect, weight 1
    assert check_square_free(trivial_brace(cyclic(6))).status == "pass"
    assert check_prop_inc(ring_brace).status == "pass"
    assert check_prop_desc(ring_brace).status == "pass"
    assert check_prop_desc(trivial_brace(dihedral(5)), bound=8).status == "na"  # order 10 > bound
    assert check_prop_a2(ring_brace).status == "pass"
    assert schur_embedding(ring_brace).status == "pass"


# Each fail return of a theorem check, reached by replacing the one name of
# ``invariants`` it reads on a catalog brace: (check, name, replacement,
# (order, catalog index), details).  Entry (4, 0) is the brace of the
# radical ring 2Z/8Z, (4, 2) and (2, 0) the trivial braces on C2×C2 and C2.
THEOREM_FAILURES = {
    "gaschutz-maximal": (check_gaschutz, "maximal_ideals", lambda A: (frozenset({0}),), (4, 0),
                         (("maximal_ideal", (0,)),)),
    "gaschutz-intersection": (check_gaschutz, "radical_set", lambda A: frozenset({0}), (4, 0),
                              (("part", "intersection"),)),
    "prop-np": (check_prop_np, "_is_prime_maximal", lambda A, M: True, (2, 0),
                (("maximal_ideal", (0,)),)),
    "square-free-target": (check_square_free, "trivial_brace", lambda G: zero_brace(), (4, 2),
                           (("omega", 2), ("abelianized_target", 1), ("square_free_order", False))),
    "square-free-order": (check_square_free, "_squarefree", lambda n: True, (4, 2),
                          (("omega", 2), ("abelianized_target", 2), ("square_free_order", True))),
    "prop-inc-radical": (check_prop_inc, "radical_set", lambda A: frozenset({A.order - 1}), (4, 0),
                         (("ideal", (0,)), ("part", "radical"))),
    "prop-inc-radical-prime": (check_prop_inc, "radical_prime_set", lambda A: frozenset({A.order - 1}),
                               (4, 0), (("ideal", (0,)), ("part", "radical-prime"))),
    "prop-a2": (check_prop_a2, "maximal_ideals", lambda A: (frozenset({0}),), (4, 0),
                (("maximal_ideal", (0,)),)),
    "schur-well-defined": (schur_embedding, "annihilator", lambda A: frozenset(A.elements()), (4, 0),
                           (("part", "well-defined"), ("coset", 0))),
    "schur-injective": (schur_embedding, "annihilator", lambda A: frozenset({0}), (2, 0),
                        (("part", "injective"),)),
}


@pytest.mark.parametrize("check, name, replacement, entry, details", THEOREM_FAILURES.values(),
                         ids=THEOREM_FAILURES)
def test_theorem_checks_report_fail_with_their_details(check, name, replacement, entry, details,
                                                       monkeypatch):
    n, index = entry
    A = enumerate_braces(n).braces[index]
    assert check(A).status == "pass"
    monkeypatch.setattr(invariants, name, replacement)
    assert check(A)[1:] == ("fail", details)


def test_omega_products_direct():
    # A = zero brace is perfect of weight one; B trivial
    B = trivial_brace(klein_group())
    rep = check_omega_products(zero_brace(), B)
    assert rep.status == "pass"
    assert dict(rep.details)["omega_product"] == 2
    rep = check_omega_products(trivial_brace(cyclic(2)), B)
    assert rep.status == "na"  # C2 trivial brace is not perfect


def test_frattini_comparison(s3_brace, ring_brace):
    rep = frattini_comparison(s3_brace)
    assert rep.status == "pass"
    d = dict(rep.details)
    assert d["agrees"] is False  # radical A3 vs Frattini {0}
    assert d["radical"] == (0, 2, 4) and d["frattini"] == (0,)
    rep = frattini_comparison(trivial_brace(cyclic(4)))
    assert dict(rep.details)["agrees"] is True
    assert frattini_comparison(ring_brace).status == "na"


def test_brace_report_payload(ring_brace):
    rep = brace_report(ring_brace)
    assert rep["order"] == 4
    assert rep["additive_group"] == "C4"
    assert rep["circle_group"] == "C2 x C2"
    assert rep["radical"] == [0, 2]
    assert rep["weight"] == 1
    assert rep["is_trivial"] is False
    assert rep["wedderburn_factor_orders"] == [2]


@pytest.mark.parametrize("name, count", [("C8xC2", 66), ("C4xC4", 83), ("C4xC2xC2", 161)])
def test_schur_embedding_passes_on_order_16_classes(name, count):
    """With additive generators alone, the check failed on two classes of
    C8xC2, one of C4xC4 and two of C4xC2xC2.  The class counts are those of
    the search over all of Aut(G)."""
    classes = order_16_classes(name)
    assert len(classes) == count
    assert [schur_embedding(A).status for A in classes] == ["pass"] * count


def test_schur_embedding_matches_the_all_elements_oracle():
    braces = [A for n in range(1, MAX_ORDER + 1) for A in _build_catalog(n).braces]
    braces += [A for name in ORDER_16_GROUPS for A in order_16_classes(name)]
    assert [schur_embedding(A).status for A in braces] == list(map(oracle_schur_embedding, braces))


def _catalog_braces_to_12():
    return [A for n in range(1, MAX_ORDER + 1) for A in _build_catalog(n).braces]


def test_gaschutz_matches_the_ideal_sum_oracle(monkeypatch):
    """The check tests the two terms of [A,A]_+ + A^(2) where the oracle
    tests their sum.  The reports agree on the maximal ideals, and with every
    ideal standing in for them, which reaches the fail return with each M
    that does not contain both terms or the socle."""
    braces = _catalog_braces_to_12()
    braces += [A for name in ORDER_16_GROUPS for A in order_16_classes(name)]
    # also memoizes ``radical_set`` of each brace before the stand-in
    assert list(map(check_gaschutz, braces)) == list(map(oracle_check_gaschutz, braces))
    monkeypatch.setattr(invariants, "maximal_ideals", all_ideals)
    reports = list(map(check_gaschutz, braces))
    assert reports == [oracle_check_gaschutz(A, all_ideals) for A in braces]
    assert {r.status for r in reports} == {"pass", "fail"}


def test_schur_embedding_matches_the_earlier_body(monkeypatch):
    """The one-pass check gives the reports, status and details, of the
    earlier body: on the catalogs to order 12, on the order-16 classes, and
    with each additive normal subgroup of a catalog brace standing in for
    Ann(A).  Several cosets fail at once in some of the stand-in cases, and
    both report the least failing label, that of the stand-in itself."""
    braces = _catalog_braces_to_12()
    order_16 = [A for name in ORDER_16_GROUPS for A in order_16_classes(name)]
    assert [schur_embedding(A) for A in braces + order_16] == list(map(oracle_schur_report, braces + order_16))
    reports = []
    for A in braces:
        for N in all_normal_subgroups(A.add):
            monkeypatch.setattr(invariants, "annihilator", lambda B: N)
            reports.append(schur_embedding(A))
            assert reports[-1] == oracle_schur_report(A, lambda B: N), (A, sorted(N))
    assert {dict(r.details).get("part") for r in reports} == {None, "well-defined", "injective"}


def test_wedderburn_and_series_match_the_earlier_bodies():
    """Every field of the one-pass decomposition, and every term of the
    series that starts at ``a2``, equal those of the earlier bodies."""
    braces = _catalog_braces_to_12()
    braces += [A for name in ORDER_16_GROUPS for A in order_16_classes(name)]
    for A in braces:
        D, oracle = wedderburn_decompose(A), oracle_wedderburn_decompose(A)
        for field in ("factors", "iso", "maximal_ideals", "semisimple_quotient", "product"):
            assert getattr(D, field) == getattr(oracle, field), field
        assert solvable_series(A).terms == oracle_solvable_series(A)


def test_radical_report_carries_the_non_generators_at_every_order():
    for A in _catalog_braces_to_12():
        assert radical(A).non_generators == non_generators(A)
