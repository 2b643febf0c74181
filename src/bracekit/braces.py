"""Skew left braces: two compatible group structures on one index set.

A skew left brace here is a pair of Cayley tables (add, circle) on the same
indices, sharing identity 0 and satisfying a∘(b+c) = a∘b - a + a∘c.  The
lambda table lambda[a][b] = -a + a∘b is precomputed on construction since it
is the hot inner loop of every closure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .groups import (
    DEFAULT_ORDER_BOUND,
    BoundExceededError,
    FiniteGroup,
    _AxiomError,
    _Value,
    _raw_identity,
    _semidirect_group,
    element_orders,
    generating_sequence,
    preserves,
    search_maps,
    verify_group_axioms,
)

DEFAULT_PRODUCT_BOUND = 256


class BraceAxiomError(_AxiomError):
    """A pair of tables failed to form a skew left brace."""


class CheckReport(NamedTuple):
    """Outcome of a verification: status is 'pass', 'fail' or 'na'."""

    name: str
    status: str
    details: tuple[tuple[str, Any], ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


class BraceMorphism(NamedTuple):
    """A map of element indices preserving both operations."""

    mapping: tuple[int, ...]
    source_order: int
    target_order: int

    @property
    def is_bijective(self) -> bool:
        return (self.source_order == self.target_order
                and len(set(self.mapping)) == self.source_order)


class SkewBrace(_Value):
    """Two compatible group structures (add, circle) with shared identity 0.

    The hash reads (add, circle), which determine λ; equality compares λ too.
    """

    __slots__ = ("add", "circle", "lam", "_hash")

    def __init__(self, add: FiniteGroup, circle: FiniteGroup, lam: tuple[tuple[int, ...], ...]):
        self._set(add, circle, lam, hash((add, circle)))

    @property
    def order(self) -> int:
        return self.add.order

    def elements(self) -> range:
        return range(self.order)

    def plus(self, a: int, b: int) -> int:
        return self.add.table[a][b]

    def neg(self, a: int) -> int:
        return self.add.inverse[a]

    def circ(self, a: int, b: int) -> int:
        return self.circle.table[a][b]

    def circ_inv(self, a: int) -> int:
        return self.circle.inverse[a]

    def star(self, a: int, b: int) -> int:
        """a*b = lambda_a(b) - b."""
        return self.add.table[self.lam[a][b]][self.add.inverse[b]]


def verify_brace(add_table: Sequence[Sequence[int]],
                 circle_table: Sequence[Sequence[int]]) -> SkewBrace:
    """Validate a pair of tables as a skew left brace.

    Raises GroupAxiomError if either table is not a group, and
    BraceAxiomError with a witness triple if the two groups are incompatible.
    Identities are normalized to index 0 (both tables must place the identity
    at the same raw index).

    Compatibility a∘(b+c) = a∘b - a + a∘c says λ_a(b+c) = λ_a(b) + λ_a(c)
    for λ_a(x) = -a + a∘x.  For fixed a, the c at which this holds for every
    b contain 0 and are closed under +, so they form an additive subgroup;
    so ``_incompatible`` searches c over ``generating_sequence(add)`` only,
    which is exact, at O(n²k) cost.  If it finds a failure, the same search
    over every c, O(n³), gives the lexicographically first failing triple
    as the witness.

    The compatibility check runs on every call.  A pair that passes comes
    back interned (``_brace_of``); one that fails is never interned.
    """
    if len(add_table) != len(circle_table):
        raise BraceAxiomError("shape", (), "add and circle tables have different sizes")

    raw_add_identity = _raw_identity(add_table)
    raw_circle_identity = _raw_identity(circle_table)
    if raw_add_identity is not None and raw_circle_identity is not None \
            and raw_add_identity != raw_circle_identity:
        raise BraceAxiomError(
            "identity-mismatch", (raw_add_identity, raw_circle_identity),
            f"additive identity is {raw_add_identity} but multiplicative identity is {raw_circle_identity}")

    add = verify_group_axioms(add_table)
    circle = verify_group_axioms(circle_table)

    if _incompatible(add, circle, generating_sequence(add)):
        a, b, c = _incompatible(add, circle, add.elements())
        raise BraceAxiomError("compatibility", (a, b, c), f"a∘(b+c) != a∘b - a + a∘c for (a,b,c)=({a},{b},{c})")
    return _brace_of(add, circle)


@lru_cache(maxsize=None)
def _brace_of(add: FiniteGroup, circle: FiniteGroup) -> SkewBrace:
    """The SkewBrace of two groups known to be compatible, unchecked and
    interned like ``groups._group_of``: λ_a(b) = -a + a∘b."""
    return SkewBrace(add=add, circle=circle, lam=tuple(
        tuple(map(add.table[add.inverse[a]].__getitem__, circle.table[a])) for a in add.elements()))


def _incompatible(add: FiniteGroup, circle: FiniteGroup, cs: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The lexicographically first (a, b, c) with c in ``cs`` and
    a∘(b+c) != a∘b - a + a∘c, or None."""
    for a, circ_a in enumerate(circle.table):
        minus_a = add.inverse[a]
        for b, add_b in enumerate(add.table):
            left = add.table[add.table[circ_a[b]][minus_a]]
            for c in cs:
                if circ_a[add_b[c]] != left[circ_a[c]]:
                    return a, b, c
    return None


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """The trivial skew brace: both operations equal to G (a(bc) = ab·a⁻¹·ac)."""
    return _brace_of(G, G)


def zero_brace() -> SkewBrace:
    return trivial_brace(verify_group_axioms([[0]]))


def check_star_identities(A: SkewBrace) -> CheckReport:
    """Verify both (*) identities for all x, y, z.

    With a*b = λ_a(b) - b, the first identity x*(y+z) = x*y + y + x*z - y
    says λ_x(y+z) = λ_x(y) + λ_x(z), and given the first, the second
    (x∘y)*z = x*(y*z) + y*z + x*z says λ_{x∘y}(z) = λ_x(λ_y(z)).  The z at
    which the first holds for a fixed x and every y are closed under +, and
    once every λ is additive so are the z at which the second holds for
    fixed x, y: both are additive subgroups.  So both are checked only for
    z in ``generating_sequence(A.add)``, at O(n²k) cost, by ``_star_failure``
    in star form, which at each triple is the λ form of the first identity,
    and of the second given the first.  If either fails, the same search
    over every z, O(n³), reports the first failure.  A failure
    would indicate a library bug, since both identities follow from the
    brace axioms.
    """
    if _star_failure(A, generating_sequence(A.add)) is None:
        return CheckReport("star-identities", "pass")
    identity, witness = _star_failure(A, A.elements())
    return CheckReport("star-identities", "fail", (("identity", identity), ("witness", witness)))


def _star_failure(A: SkewBrace, zs: Sequence[int]) -> Optional[tuple[str, tuple[int, int, int]]]:
    """The first (x, y, z) with z in ``zs``, in lexicographic order, at
    which a (*) identity fails, the first identity checked first at each
    triple, with that identity's name; or None."""
    plus, neg, circ = A.add.table, A.add.inverse, A.circle.table
    star = [[plus[lam_a[b]][neg[b]] for b in A.elements()] for lam_a in A.lam]
    for x, star_x in enumerate(star):
        for y, plus_y in enumerate(plus):
            left, star_xy, star_y = plus[plus[star_x[y]][y]], star[circ[x][y]], star[y]
            for z in zs:
                # x*(y+z) = x*y + y + x*z - y
                if star_x[plus_y[z]] != plus[left[star_x[z]]][neg[y]]:
                    return "x*(y+z)", (x, y, z)
                # (x∘y)*z = x*(y*z) + y*z + x*z
                yz = star_y[z]
                if star_xy[z] != plus[plus[star_x[yz]][yz]][star_x[z]]:
                    return "(x∘y)*z", (x, y, z)
    return None


def _element_profile(A: SkewBrace) -> tuple[tuple[int, int], ...]:
    """Per-element (additive order, multiplicative order) pairs."""
    return tuple(zip(element_orders(A.add), element_orders(A.circle)))


def _brace_maps(A: SkewBrace, B: SkewBrace, prof_a: Sequence[tuple[int, int]],
                prof_b: Sequence[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """Brace isomorphisms A -> B in search order: additive generators of A
    are mapped to elements of B with the same (additive, multiplicative)
    order pair in the element profiles ``prof_a`` and ``prof_b``.
    ``search_maps`` yields only additive isomorphisms, so each is checked
    against the circle tables alone."""
    maps = search_maps(A.add, B.add, lambda g, img: prof_b[img] == prof_a[g])
    return (perm for perm in maps if preserves(perm, A.circle.table, B.circle.table))


def brace_isomorphic(A: SkewBrace, B: SkewBrace) -> Optional[BraceMorphism]:
    """Search for a bijection preserving both operations.

    The only pre-filter is the multiset of per-element (additive,
    multiplicative) order pairs; from order 16 on the search decides.  It
    maps an additive generating sequence of A with pruning by order pairs.
    """
    prof_a, prof_b = _element_profile(A), _element_profile(B)
    if sorted(prof_a) != sorted(prof_b):
        return None
    perm = next(_brace_maps(A, B, prof_a, prof_b), None)
    return None if perm is None else BraceMorphism(perm, A.order, B.order)


def direct_product(A: SkewBrace, B: SkewBrace) -> SkewBrace:
    """Componentwise product on pairs, indexed as a*|B| + b: the semidirect
    product with the identity action."""
    return semidirect_product(A, B, [tuple(A.elements())] * B.order)


def brace_automorphism_group(A: SkewBrace) -> tuple[BraceMorphism, ...]:
    """All bijections of A preserving both tables, sorted lexicographically."""
    if A.order > DEFAULT_ORDER_BOUND:
        raise BoundExceededError(f"order {A.order} exceeds the automorphism bound {DEFAULT_ORDER_BOUND}")
    profile = _element_profile(A)
    return tuple(BraceMorphism(p, A.order, A.order) for p in sorted(_brace_maps(A, A, profile, profile)))


def semidirect_product(A: SkewBrace, B: SkewBrace,
                       theta: Sequence[Sequence[int]]) -> SkewBrace:
    """Semidirect product with addition componentwise and
    (a1,b1)∘(a2,b2) = (a1∘θ(b1)(a2), b1∘b2), on pairs indexed a*|B| + b.

    ``theta`` lists, for each b in B, a permutation of A's indices.  Each
    theta[b] must be a brace automorphism of A and b ↦ theta[b] must be a
    homomorphism from (B,∘); both are verified, with witnesses on failure,
    after the bound on the product order.  The two groups are then
    compatible (Smoktunowicz–Vendramin, *On skew braces*, 2018), since
    λ_(a1,b1)(a2,b2) = (λ_a1(θ(b1)(a2)), λ_b1(b2)) is additive, so the
    product is not verified again.
    """
    n = A.order * B.order
    if n > DEFAULT_PRODUCT_BOUND:
        raise BoundExceededError(f"product order {n} exceeds bound {DEFAULT_PRODUCT_BOUND}")
    if len(theta) != B.order:
        raise ValueError(f"theta must assign a map to each of the {B.order} elements of B")
    maps = [tuple(t) for t in theta]
    for b, t in enumerate(maps):
        if sorted(t) != list(range(A.order)):
            raise ValueError(f"theta({b}) is not a permutation of A")
        if not (preserves(t, A.add.table, A.add.table) and preserves(t, A.circle.table, A.circle.table)):
            raise ValueError(f"theta({b}) is not a brace automorphism of A")
    for b1 in B.elements():
        for b2 in B.elements():
            composed = tuple(maps[b1][maps[b2][a]] for a in A.elements())
            if composed != maps[B.circ(b1, b2)]:
                raise ValueError(
                    f"theta is not a homomorphism: theta({b1})∘theta({b2}) != theta({b1}∘{b2})")
    return _brace_of(_semidirect_group(A.add, B.add, [tuple(A.elements())] * B.order),
                     _semidirect_group(A.circle, B.circle, maps))
