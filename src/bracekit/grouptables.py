"""Built-in Cayley tables for every group of order 1..MAX_ORDER.

The base tables (cyclic, dicyclic, alternating) are written from standard
presentations and verified through verify_group_axioms when built.  Dihedral
groups and direct products are semidirect products of verified factors,
which makes them groups, and are not verified again.
"""

from __future__ import annotations

from .groups import FiniteGroup, _semidirect_group, orbit, verify_group_axioms

MAX_ORDER = 12  # the largest order with built-in group tables, so with a brace catalog


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return verify_group_axioms(table)


def direct_product_group(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G × H on pairs indexed g·|H| + h: the semidirect product with the
    identity action."""
    return _semidirect_group(G, H, [tuple(G.elements())] * H.order)


def dihedral(n: int) -> FiniteGroup:
    """D_n = C_n ⋊ C2 of order 2n, with s acting by inversion: elements
    r^i s^j indexed as 2i + j.  Inversion is an automorphism of order at
    most 2 of the abelian C_n, so the product is a group."""
    C = cyclic(n)
    return _semidirect_group(C, cyclic(2), [tuple(C.elements()), C.inverse])


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n (Q8 is Dic_2): elements a^i b^j indexed as 2i + j."""
    size = 4 * n

    def mul(e1, e2):
        i1, j1 = divmod(e1, 2)
        i2, j2 = divmod(e2, 2)
        if j1 == 0:
            return 2 * ((i1 + i2) % (2 * n)) + j2
        if j2 == 0:
            return 2 * ((i1 - i2) % (2 * n)) + 1
        return 2 * ((i1 - i2 + n) % (2 * n))

    table = [[mul(a, b) for b in range(size)] for a in range(size)]
    return verify_group_axioms(table)


def alternating4() -> FiniteGroup:
    """A4 on the 12 permutations of 0..3 that the 3-cycles (1,2,0,3) and
    (0,2,3,1) generate, indexed in lexicographic order, with p·q = p ∘ q."""
    perms = sorted(orbit((0, 1, 2, 3), [(1, 2, 0, 3), (0, 2, 3, 1)], lambda p, g: tuple(p[i] for i in g), 12))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(4))] for q in perms]
        for p in perms
    ]
    return verify_group_axioms(table)


def groups_of_order(n: int) -> tuple[tuple[str, FiniteGroup], ...]:
    """All groups of order n (1 <= n <= MAX_ORDER), as (name, group) pairs."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"no built-in group tables for order {n}")
    builders = {
        1: [("C1", lambda: cyclic(1))],
        2: [("C2", lambda: cyclic(2))],
        3: [("C3", lambda: cyclic(3))],
        4: [("C4", lambda: cyclic(4)),
            ("C2xC2", lambda: direct_product_group(cyclic(2), cyclic(2)))],
        5: [("C5", lambda: cyclic(5))],
        6: [("C6", lambda: cyclic(6)),
            ("D3", lambda: dihedral(3))],
        7: [("C7", lambda: cyclic(7))],
        8: [("C8", lambda: cyclic(8)),
            ("C4xC2", lambda: direct_product_group(cyclic(4), cyclic(2))),
            ("C2xC2xC2", lambda: direct_product_group(
                cyclic(2), direct_product_group(cyclic(2), cyclic(2)))),
            ("D4", lambda: dihedral(4)),
            ("Q8", lambda: dicyclic(2))],
        9: [("C9", lambda: cyclic(9)),
            ("C3xC3", lambda: direct_product_group(cyclic(3), cyclic(3)))],
        10: [("C10", lambda: cyclic(10)),
             ("D5", lambda: dihedral(5))],
        11: [("C11", lambda: cyclic(11))],
        12: [("C12", lambda: cyclic(12)),
             ("C6xC2", lambda: direct_product_group(cyclic(6), cyclic(2))),
             ("D6", lambda: dihedral(6)),
             ("A4", alternating4),
             ("Dic3", lambda: dicyclic(3))],
    }
    return tuple((name, build()) for name, build in builders[n])
