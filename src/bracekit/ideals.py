"""Left ideals, ideals, distinguished ideals and the ideal lattice of a brace.

Every subgroup and ideal is a plain frozenset of element indices.  An ideal
is a left ideal that is normal in both groups.  The ideal lattice of a brace
is memoized, and every ideal question is read off it: the least ideal
containing a set (so also the sum I + J of two ideals), the maximal ideals
and the small ideals.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .braces import SkewBrace, _brace_of
from .groups import (
    _cosets,
    _group_of,
    all_normal_subgroups,
    center,
    generating_sequence,
    is_normal,
    is_subgroup,
    subgroup_closure,
)


def is_left_ideal(A: SkewBrace, S: frozenset[int]) -> tuple[bool, Optional[tuple]]:
    """Additive subgroup, stable under every lambda_a.  Returns (ok, witness)."""
    if not is_subgroup(A.add, S):
        return False, ("not-additive-subgroup", tuple(sorted(S)))
    members = sorted(S)
    for a in A.elements():
        for i in members:
            if A.lam[a][i] not in S:
                return False, ("not-lambda-stable", (a, i))
    return True, None


def is_ideal(A: SkewBrace, S: frozenset[int]) -> tuple[bool, Optional[tuple]]:
    """Left ideal that is normal in both groups.  Returns (ok, witness)."""
    ok, witness = is_left_ideal(A, S)
    if not ok:
        return False, witness
    if not is_normal(A.add, S):
        return False, ("not-additively-normal", tuple(sorted(S)))
    members = sorted(S)
    for a in A.elements():
        for i in members:
            if A.circ(A.circ(a, i), A.circ_inv(a)) not in S:
                return False, ("not-multiplicatively-normal", (a, i))
    return True, None


def ideal_closure(A: SkewBrace, seed: Iterable[int]) -> frozenset[int]:
    """Least ideal containing ``seed``: the first ideal of ``all_ideals(A)``
    that contains it.

    The lattice contains A, is closed under intersection and is sorted by
    size.  So the intersection of the ideals containing the seed, which is
    the least such ideal, is in the lattice; every other ideal containing
    the seed contains it and is larger, so it comes first.  Above
    ``groups.DEFAULT_ORDER_BOUND`` this raises ``BoundExceededError``, from
    ``all_normal_subgroups`` under ``all_ideals``.
    """
    seed = frozenset(seed)
    return next(I for I in all_ideals(A) if seed <= I)


def kernel_of_lambda(A: SkewBrace) -> frozenset[int]:
    identity = tuple(range(A.order))
    return frozenset(a for a in A.elements() if A.lam[a] == identity)


@lru_cache(maxsize=None)
def socle(A: SkewBrace) -> frozenset[int]:
    """Soc(A) = Ker(lambda) ∩ Cen(A,+)."""
    return kernel_of_lambda(A) & center(A.add)


def annihilator(A: SkewBrace) -> frozenset[int]:
    """Ann(A) = Soc(A) ∩ Cen(A,∘)."""
    return socle(A) & center(A.circle)


def fix(A: SkewBrace) -> frozenset[int]:
    """Elements fixed by every lambda_b; a left ideal."""
    return frozenset(
        a for a in A.elements() if all(A.lam[b][a] == a for b in A.elements())
    )


@lru_cache(maxsize=None)
def a2(A: SkewBrace) -> frozenset[int]:
    """The ideal A^(2): additive subgroup generated by all star values.

    It is an ideal.  λ_c(a*b) = (c∘a)*b - c*b, so it is λ-stable, and
    y + x*z - y = -(x*y) + x*(y+z), so it is normal in (A,+).  For i in it,
    i∘a = i + i*a + a lies in A^(2) + a = a + λ_a(A^(2)) = a∘A^(2), so it is
    normal in (A,∘).
    """
    return star_product(A, A.elements(), A.elements())


def star_product(A: SkewBrace, I: Iterable[int], J: Iterable[int]) -> frozenset[int]:
    """Additive subgroup generated by {i*j : i in I, j in J}."""
    return subgroup_closure(A.add, {A.star(i, j) for i in I for j in J})


def quotient_brace(A: SkewBrace, I: frozenset[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Brace on the cosets of an ideal, checked here; see ``_brace_cosets``.

    Raises ValueError, with the witness of ``is_ideal``, when I is not an
    ideal.
    """
    ok, witness = is_ideal(A, I)
    if not ok:
        raise ValueError(f"not an ideal: {witness}")
    return _brace_cosets(A, I)


@lru_cache(maxsize=None)
def _brace_cosets(A: SkewBrace, I: frozenset[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """A/I for an ideal I, unchecked; returns (quotient, projection).

    An ideal is normal in both groups, so both sets of cosets are groups.
    For an ideal, a+I = a∘I, since a∘i = a + λ_a(i) and λ_a(I) = I.  Both
    quotient groups label cosets by their least member, so their
    projections are equal, and the projection carries the compatibility of
    A onto A/I: the quotient is not verified again.  Callers that take I
    from the ideal lattice, or can say in one line why I is an ideal, call
    this directly; the rest call ``quotient_brace``.
    """
    Q_add, projection = _cosets(A.add, I)
    Q_circle, _ = _cosets(A.circle, I)
    return _brace_of(Q_add, Q_circle), projection


def sub_brace(A: SkewBrace, S: frozenset[int]) -> tuple[SkewBrace, tuple[int, ...]]:
    """Restrict both operations to a closed subset, relabeled 0..|S|-1.

    Returns (sub, embedding) where embedding[i] is the parent index of the
    sub-brace element i.  S must be closed under +, negation and ∘ (any left
    ideal qualifies).  A finite subset closed under a group product is a
    subgroup, and compatibility holds in A, so the restriction, with 0
    still at index 0, is not verified again.
    """
    members = sorted(S)
    if 0 not in S:
        raise ValueError("subset does not contain 0")
    pos = {x: i for i, x in enumerate(members)}
    add, circ = [], []
    for x in members:
        if A.neg(x) not in pos:
            raise ValueError(f"subset not closed under negation at {x}")
        add_row, circ_row = A.add.table[x], A.circle.table[x]
        add.append(tuple(pos.get(add_row[y]) for y in members))
        circ.append(tuple(pos.get(circ_row[y]) for y in members))
        if None in add[-1] or None in circ[-1]:
            y = next(y for y, s, c in zip(members, add[-1], circ[-1]) if s is None or c is None)
            raise ValueError(f"subset not closed at ({x},{y})")
    return _brace_of(_group_of(tuple(add)), _group_of(tuple(circ))), tuple(members)


@lru_cache(maxsize=None)
def all_ideals(A: SkewBrace) -> tuple[frozenset[int], ...]:
    """Every ideal of A: the additive normal subgroups N that are λ-stable
    and ∘-normal, in their order, by (size, members).

    Both tests run over the generators g of (A,∘) only.  λ is a homomorphism
    from (A,∘) to Aut(A,+), so the g with λ_g(N) = N form a subgroup of
    (A,∘), and so does the ∘-normalizer of N; each contains A once it
    contains the generators.  A λ-stable additive subgroup is closed under
    ∘, since a∘b = a + λ_a(b), so it is a ∘-subgroup, and N is a left ideal
    normal in both groups: an ideal.

    I*A ⊆ I needs no test of its own.  For i ∈ I and a ∈ A,
    i*a = -i + i∘a - a = -i + a∘i' - a with i' = ā∘i∘a ∈ I, and
    a∘i' = a + λ_a(i'); so i*a = -i + (a + λ_a(i') - a) ∈ I.
    """
    circ, circ_inv = A.circle.table, A.circle.inverse
    gens = [(A.lam[g], circ[g], circ_inv[g]) for g in generating_sequence(A.circle)]
    return tuple(N for N in all_normal_subgroups(A.add)
                 if all(lam_g[i] in N and circ[g_row[i]][g_inv] in N
                        for lam_g, g_row, g_inv in gens for i in N))


@lru_cache(maxsize=None)
def maximal_ideals(A: SkewBrace) -> tuple[frozenset[int], ...]:
    """Proper ideals with no ideal strictly between them and A: A is the
    last member of ``all_ideals(A)``, which is sorted by size."""
    proper = all_ideals(A)[:-1]
    return tuple(M for M in proper if not any(M < J for J in proper))


@lru_cache(maxsize=None)
def is_prime_brace(A: SkewBrace) -> bool:
    """All pairs of non-zero ideals have non-zero star product."""
    zero = frozenset({0})
    nonzero = [I for I in all_ideals(A) if I != zero]
    return all(
        star_product(A, I, J) != zero for I in nonzero for J in nonzero
    )


def is_prime_ideal(A: SkewBrace, P: frozenset[int]) -> bool:
    Q, _ = quotient_brace(A, P)
    return is_prime_brace(Q)


@lru_cache(maxsize=None)
def small_ideals(A: SkewBrace) -> tuple[frozenset[int], ...]:
    """The ideals I with I + J ≠ A for every ideal J ≠ A, in lattice order.

    I + J is the least ideal containing I ∪ J, so it is read off the lattice
    with ``ideal_closure``.
    """
    lattice = all_ideals(A)
    full = lattice[-1]
    return tuple(I for I in lattice
                 if all(ideal_closure(A, I | J) != full for J in lattice[:-1]))


def is_small_ideal(A: SkewBrace, I: frozenset[int]) -> bool:
    """Whether the ideal I is small: I + J = A forces J = A."""
    return I in small_ideals(A)
