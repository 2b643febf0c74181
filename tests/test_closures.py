"""The closure kernels against the algorithms they replaced.

The oracles in conftest.py are the earlier worklist, fixpoint and
all-subsets versions; every test here demands identical results.
"""

from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.catalog import _build_catalog
from bracekit.groups import all_normal_subgroups, normal_closure, subgroup_closure
from bracekit.grouptables import cyclic, dicyclic, dihedral, direct_product_group
from bracekit.ideals import (
    all_ideals,
    ideal_closure,
    is_ideal,
    quotient_brace,
    small_ideals,
    sub_brace,
)
from bracekit.invariants import non_generators

from conftest import (
    oracle_all_ideals,
    oracle_all_normal_subgroups,
    oracle_ideal_closure,
    oracle_is_small_ideal,
    oracle_non_generators,
    oracle_normal_closure,
    oracle_subgroup_closure,
)

SMALL_ORDERS = range(1, 9)
CATALOG_ORDERS = range(1, 13)


@cache
def catalog_braces(orders: tuple[int, ...]) -> tuple:
    return tuple(A for n in orders for A in _build_catalog(n).braces)


@cache
def catalog_groups(orders: tuple[int, ...]) -> tuple:
    """The distinct additive and circle groups of the catalogs of ``orders``."""
    return tuple(dict.fromkeys(G for A in catalog_braces(orders) for G in (A.add, A.circle)))


@cache
def braces_with_quotients_and_sub_braces(orders: tuple[int, ...]) -> tuple:
    """The distinct catalog braces of ``orders``, their quotients by each of
    their ideals and those ideals as sub-braces."""
    out = []
    for A in catalog_braces(orders):
        out.append(A)
        for I in all_ideals(A):
            out += [quotient_brace(A, I)[0], sub_brace(A, I)[0]]
    return tuple(dict.fromkeys(out))


def all_groups():
    return catalog_groups(tuple(SMALL_ORDERS)) + catalog_groups((12,))


@cache
def oracle_ideals(A) -> tuple:
    """The ideal lattice filtered from the oracle's normal subgroups."""
    return tuple(N for N in oracle_all_normal_subgroups(A.add) if is_ideal(A, N)[0])


@pytest.mark.parametrize("n", SMALL_ORDERS)
def test_non_generators_match_oracle(n):
    for A in catalog_braces((n,)):
        assert non_generators(A) == oracle_non_generators(A)


@pytest.mark.parametrize("n", CATALOG_ORDERS)
def test_ideal_lattice_and_small_ideals_match_oracle(n):
    for A in braces_with_quotients_and_sub_braces((n,)):
        lattice = all_ideals(A)
        assert lattice == oracle_all_ideals(A)
        assert small_ideals(A) == tuple(I for I in lattice if oracle_is_small_ideal(A, I))


@pytest.mark.parametrize("n", CATALOG_ORDERS)
def test_singleton_ideal_closures_match_oracle(n):
    for A in braces_with_quotients_and_sub_braces((n,)):
        for a in A.elements():
            assert ideal_closure(A, [a]) == oracle_ideal_closure(A, [a])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_ideal_closure_matches_oracle(data):
    A = data.draw(st.sampled_from(braces_with_quotients_and_sub_braces(tuple(CATALOG_ORDERS))))
    seed = data.draw(st.sets(st.integers(0, A.order - 1), max_size=4))
    assert ideal_closure(A, seed) == oracle_ideal_closure(A, seed)


@pytest.mark.parametrize("orders", [tuple(SMALL_ORDERS), (12,)], ids=["le8", "12"])
def test_all_normal_subgroups_match_oracle(orders):
    for G in catalog_groups(orders):
        assert all_normal_subgroups(G) == oracle_all_normal_subgroups(G)


ORDER_16_NONABELIAN = {
    "D8": lambda: dihedral(8),
    "Q16": lambda: dicyclic(4),
    "D4xC2": lambda: direct_product_group(dihedral(4), cyclic(2)),
    "Q8xC2": lambda: direct_product_group(dicyclic(2), cyclic(2)),
}


@pytest.mark.parametrize("build", ORDER_16_NONABELIAN.values(), ids=ORDER_16_NONABELIAN)
def test_all_normal_subgroups_of_order_16_match_oracle(build):
    G = build()
    assert all_normal_subgroups(G) == oracle_all_normal_subgroups(G)


@pytest.mark.parametrize("orders", [tuple(SMALL_ORDERS), (12,)], ids=["le8", "12"])
def test_single_element_closures_match_oracle(orders):
    for G in catalog_groups(orders):
        for x in G.elements():
            assert subgroup_closure(G, [x]) == oracle_subgroup_closure(G, [x])
            assert normal_closure(G, [x]) == oracle_normal_closure(G, [x])


def _group_and_seed(data):
    G = data.draw(st.sampled_from(all_groups()))
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=4))
    return G, seed


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_subgroup_closure_matches_oracle(data):
    G, seed = _group_and_seed(data)
    assert subgroup_closure(G, seed) == oracle_subgroup_closure(G, seed)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_normal_closure_matches_oracle(data):
    G, seed = _group_and_seed(data)
    assert normal_closure(G, seed) == oracle_normal_closure(G, seed)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_ideal_closure_is_least_ideal_and_sum_of_singletons(data):
    A = data.draw(st.sampled_from(catalog_braces(tuple(SMALL_ORDERS)) + catalog_braces((12,))))
    seed = data.draw(st.sets(st.integers(0, A.order - 1), max_size=4))
    I = ideal_closure(A, seed)
    containing = [J for J in oracle_ideals(A) if seed <= J]
    assert I == reduce(frozenset.intersection, containing)
    singles = [ideal_closure(A, [a]) for a in seed]
    assert I == reduce(lambda J, K: subgroup_closure(A.add, J | K), singles, frozenset({0}))
