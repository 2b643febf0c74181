"""Radical, weight, decomposition and the theorem checks built on them.

Everything here operates on finite braces at desk scale.  Theorem checks
return CheckReport values with status 'pass', 'fail' or 'na'; a 'fail'
indicates a library bug (or a genuine counterexample worth staring at),
never an expected outcome.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .braces import (
    BraceMorphism,
    CheckReport,
    SkewBrace,
    direct_product,
    trivial_brace,
    zero_brace,
)
from .groups import (
    DEFAULT_ORDER_BOUND,
    _cosets,
    commutator_subgroup,
    generating_sequence,
    group_signature,
    preserves,
)
from .ideals import (
    _brace_cosets,
    a2,
    all_ideals,
    annihilator,
    fix,
    ideal_closure,
    is_prime_brace,
    is_small_ideal,
    maximal_ideals,
    small_ideals,
    socle,
    star_product,
    sub_brace,
)


class RadicalReport(NamedTuple):
    radical: frozenset[int]
    radical_prime: frozenset[int]
    maximal_ideal_count: int
    non_generators: frozenset[int]
    small_ideal_sum: frozenset[int]


class WeightCertificate(NamedTuple):
    weight: int
    generating_set: frozenset[int]


class SolvableSeries(NamedTuple):
    terms: tuple[frozenset[int], ...]

    @property
    def solvable(self) -> bool:
        return self.terms[-1] == frozenset({0})


class Decomposition(NamedTuple):
    factors: tuple[SkewBrace, ...]
    iso: BraceMorphism
    maximal_ideals: tuple[frozenset[int], ...]
    semisimple_quotient: SkewBrace
    product: SkewBrace


def _full(A: SkewBrace) -> frozenset[int]:
    return frozenset(A.elements())


@lru_cache(maxsize=None)
def radical_set(A: SkewBrace) -> frozenset[int]:
    """Intersection of all maximal ideals; the whole brace if none exist."""
    return _full(A).intersection(*maximal_ideals(A))


@lru_cache(maxsize=None)
def radical_prime_set(A: SkewBrace) -> frozenset[int]:
    """Intersection of the prime maximal ideals; the whole brace if none."""
    return _full(A).intersection(*(M for M in maximal_ideals(A) if _is_prime_maximal(A, M)))


def _is_prime_maximal(A: SkewBrace, M: frozenset[int]) -> bool:
    """``is_prime_ideal`` for a maximal ideal M, which is a lattice ideal."""
    return is_prime_brace(_brace_cosets(A, M)[0])


def non_generators(A: SkewBrace) -> frozenset[int]:
    """The non-generating elements: those a whose ideal closure is small.

    a is a non-generator when every subset S with S ∪ {a} generating A as
    an ideal already generates A.  A sum of ideals is an ideal, so
    cl(S ∪ {a}) = cl(S) + cl({a}); and as S ranges over the subsets, cl(S)
    ranges over every ideal, since I = cl(I).  So a is a non-generator
    exactly when I + cl({a}) ≠ A for every ideal I ≠ A, that is, when
    cl({a}) is a small ideal.
    """
    return frozenset(a for a in A.elements() if is_small_ideal(A, ideal_closure(A, {a})))


def small_ideal_sum(A: SkewBrace) -> frozenset[int]:
    """The sum of the small ideals: the least ideal containing them all."""
    return ideal_closure(A, frozenset().union(*small_ideals(A)))


def radical(A: SkewBrace) -> RadicalReport:
    """Full radical report, with both descriptions of Rad(A) that the paper
    equates with it: the non-generators and the sum of the small ideals."""
    return RadicalReport(
        radical=radical_set(A),
        radical_prime=radical_prime_set(A),
        maximal_ideal_count=len(maximal_ideals(A)),
        non_generators=non_generators(A),
        small_ideal_sum=small_ideal_sum(A),
    )


def is_simple(A: SkewBrace) -> bool:
    """Exactly two ideals: 0 and A."""
    return len(all_ideals(A)) == 2


def is_perfect(A: SkewBrace) -> bool:
    return a2(A) == _full(A)


def solvable_series(A: SkewBrace) -> SolvableSeries:
    """A_1 = A, A_{i+1} = A_i * A_i, until stable."""
    terms = [_full(A)]
    while True:
        nxt = star_product(A, terms[-1], terms[-1])
        if nxt == terms[-1]:
            return SolvableSeries(tuple(terms))
        terms.append(nxt)


def is_solvable(A: SkewBrace) -> bool:
    return solvable_series(A).solvable


def _subset_search(A: SkewBrace) -> WeightCertificate:
    """Smallest-first, lexicographic search for an ideal-generating subset."""
    full = _full(A)
    elements = tuple(A.elements())
    for k in range(1, A.order + 1):
        for combo in itertools.combinations(elements, k):
            if ideal_closure(A, combo) == full:
                return WeightCertificate(k, frozenset(combo))
    raise AssertionError("the full element set always generates")


@lru_cache(maxsize=None)
def weight(A: SkewBrace) -> WeightCertificate:
    """Minimal number of elements generating A as an ideal (1 for the zero brace).

    The search runs in A/Rad(A) and lifts the certificate back, re-verifying
    the lifted set S in A.  S always generates A: otherwise cl(S) lies in
    some maximal ideal M, and Rad(A) ⊆ M, so the ideal cl(S) + Rad(A) lies
    in M ≠ A; but that ideal contains Rad(A) and its image in A/Rad(A)
    contains a generating set, so it is all of A.  A weight of A/Rad(A) is
    therefore a weight of A (images of generators of A generate the
    quotient, so it is no larger either).  When Rad(A) = {0}, as for the
    zero brace, which has no maximal ideal, the quotient has A's own tables
    (``_cosets`` labels each {a} by a) and the lift is the identity.
    """
    Q, projection = _brace_cosets(A, radical_set(A))  # Rad(A) is A or a meet of lattice ideals
    cert = _subset_search(Q)
    lifted = frozenset(
        min(a for a in A.elements() if projection[a] == q) for q in cert.generating_set
    )
    if ideal_closure(A, lifted) != _full(A):
        raise AssertionError("a lifted generating set of A/Rad(A) must generate A")
    return WeightCertificate(cert.weight, lifted)


def wedderburn_decompose(A: SkewBrace) -> Decomposition:
    """A/Rad(A) as a verified direct product of simple braces.

    Picks maximal ideals of B = A/Rad(A) greedily, each M not containing
    the intersection I of those already picked, until I = 0; then builds the
    product isomorphism componentwise and verifies bijectivity, factor
    simplicity and preservation of both operations.

    The family is irredundant.  M is maximal and I ⊄ M, so I + M = B, and
    then B/(I∩M) ≅ B/I × B/M; by induction |B/∩family| = ∏|B/Mᵢ|.  Any
    subfamily is picked the same way, since a member that does not contain
    a smaller intersection does not contain a larger one either.  So
    dropping one member leaves an intersection of index below |B|, which
    is not zero.
    """
    B, _ = _brace_cosets(A, radical_set(A))  # Rad(A) is A or a meet of lattice ideals
    zero = frozenset({0})
    family: list[frozenset[int]] = []
    inter = _full(B)
    for M in maximal_ideals(B):
        if inter & M != inter:
            family.append(M)
            inter &= M
        if inter == zero:
            break
    if inter != zero:
        raise AssertionError("Rad(A/Rad(A)) must be zero")

    factors = []
    projections = []
    for M in family:
        F, proj = _brace_cosets(B, M)  # M is a maximal ideal, from the lattice
        if not is_simple(F):
            raise AssertionError("quotient by a maximal ideal must be simple")
        factors.append(F)
        projections.append(proj)

    product = factors[0] if factors else zero_brace()
    for F in factors[1:]:
        product = direct_product(product, F)

    mapping = []
    for x in B.elements():
        idx = 0
        for F, proj in zip(factors, projections):
            idx = idx * F.order + proj[x]
        mapping.append(idx)
    iso = BraceMorphism(tuple(mapping), B.order, product.order)
    if not iso.is_bijective:
        raise AssertionError("decomposition map is not bijective")
    if not (preserves(mapping, B.add.table, product.add.table)
            and preserves(mapping, B.circle.table, product.circle.table)):
        raise AssertionError("decomposition map does not preserve the operations")
    return Decomposition(tuple(factors), iso, tuple(family), B, product)


# ---------------------------------------------------------------------------
# theorem checks


def check_gaschutz(A: SkewBrace) -> CheckReport:
    """[A,A]_+ + A^(2) ⊆ M or Soc(A) ⊆ M for every maximal M, and
    A^(2) ∩ Soc(A) ⊆ Rad(A).

    M is an additive subgroup, so it contains the sum, the subgroup
    generated by [A,A]_+ ∪ A^(2), exactly when it contains both terms.
    """
    soc = socle(A)
    comm, A2 = commutator_subgroup(A.add), a2(A)
    for M in maximal_ideals(A):
        if not ((comm <= M and A2 <= M) or soc <= M):
            return CheckReport("gaschutz", "fail", (("maximal_ideal", tuple(sorted(M))),))
    if not (A2 & soc) <= radical_set(A):
        return CheckReport("gaschutz", "fail", (("part", "intersection"),))
    return CheckReport("gaschutz", "pass")


def check_prop_np(A: SkewBrace) -> CheckReport:
    """A maximal ideal is prime exactly when A^(2) is not contained in it."""
    A2 = a2(A)
    for M in maximal_ideals(A):
        if _is_prime_maximal(A, M) != (not A2 <= M):
            return CheckReport("prop-np", "fail", (("maximal_ideal", tuple(sorted(M))),))
    return CheckReport("prop-np", "pass")


def check_kutzko(A: SkewBrace) -> CheckReport:
    """omega(A) = omega(A/A^(2))."""
    wa = weight(A).weight
    Q, _ = _brace_cosets(A, a2(A))  # A^(2) is an ideal (see ``a2``)
    wq = weight(Q).weight
    status = "pass" if wa == wq else "fail"
    return CheckReport("kutzko", status, (("omega", wa), ("omega_quotient", wq)))


def check_wiegold(A: SkewBrace) -> CheckReport:
    """Perfect braces have weight one; not applicable otherwise."""
    if not is_perfect(A):
        return CheckReport("wiegold", "na", (("reason", "not perfect"),))
    w = weight(A).weight
    return CheckReport("wiegold", "pass" if w == 1 else "fail", (("omega", w),))


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def check_square_free(A: SkewBrace) -> CheckReport:
    """omega(A) equals the minimal generator count of (B/B^(2))_ab for
    B = A/Rad(A); in particular square-free order forces weight one."""
    B, _ = _brace_cosets(A, radical_set(A))  # Rad(A) is A or a meet of lattice ideals
    C, _ = _brace_cosets(B, a2(B))  # B^(2) is an ideal (see ``a2``)
    Cab, _ = _cosets(C.add, commutator_subgroup(C.add))  # a commutator subgroup is normal
    target = weight(trivial_brace(Cab)).weight
    w = weight(A).weight
    details = [("omega", w), ("abelianized_target", target),
               ("square_free_order", _squarefree(A.order))]
    if w != target:
        return CheckReport("square-free", "fail", tuple(details))
    if _squarefree(A.order) and A.order > 1 and w != 1:
        return CheckReport("square-free", "fail", tuple(details))
    return CheckReport("square-free", "pass", tuple(details))


def check_prop_inc(A: SkewBrace) -> CheckReport:
    """Rad(I) ⊆ Rad(A) and Rad'(I) ⊆ Rad'(A) for every ideal I."""
    radA = radical_set(A)
    radpA = radical_prime_set(A)
    for I in all_ideals(A):
        sub, embed = sub_brace(A, I)
        rad_sub = {embed[i] for i in radical_set(sub)}
        radp_sub = {embed[i] for i in radical_prime_set(sub)}
        if not rad_sub <= radA:
            return CheckReport("prop-inc", "fail",
                               (("ideal", tuple(sorted(I))), ("part", "radical")))
        if not radp_sub <= radpA:
            return CheckReport("prop-inc", "fail",
                               (("ideal", tuple(sorted(I))), ("part", "radical-prime")))
    return CheckReport("prop-inc", "pass")


def check_prop_desc(A: SkewBrace, bound: int = DEFAULT_ORDER_BOUND) -> CheckReport:
    """Rad(A) equals both the non-generating elements and the sum of all
    small ideals (up to ``bound``), as read from the ``radical`` report."""
    if A.order > bound:
        return CheckReport("prop-desc", "na",
                           (("reason", f"order {A.order} above the non-generator bound {bound}"),))
    report = radical(A)
    ok = report.non_generators == report.radical == report.small_ideal_sum
    return CheckReport("prop-desc", "pass" if ok else "fail", tuple(
        (name, tuple(sorted(getattr(report, name)))) for name in ("radical", "non_generators", "small_ideal_sum")))


def check_prop_a2(A: SkewBrace) -> CheckReport:
    """For solvable A: A^(2) lies in every maximal ideal, hence in Rad(A),
    the meet of A and those ideals (``radical_set``), which needs no check."""
    if not is_solvable(A):
        return CheckReport("prop-a2", "na", (("reason", "not solvable"),))
    A2 = a2(A)
    for M in maximal_ideals(A):
        if not A2 <= M:
            return CheckReport("prop-a2", "fail", (("maximal_ideal", tuple(sorted(M))),))
    return CheckReport("prop-a2", "pass")


def schur_embedding(A: SkewBrace) -> CheckReport:
    """The coset map a+Ann(A) ↦ (a*x_i, x_i*a, [a,x_i]_+)_i: verified
    well-defined and injective.

    The x_i are ``generating_sequence(A.add)`` followed by the generators of
    (A,∘) not already in it, a set S that generates both groups.  Then the a
    with the image of 0 are exactly Ann(A).  Say a*s = 0, s*a = 0 and
    [a,s]_+ = 0 for every s in S.  λ_a is additive and fixes the additive
    generators, so λ_a = id; with a central in (A,+), a is in Soc(A).  The
    x with λ_x(a) = a form a subgroup of (A,∘), since x ↦ λ_x is a
    homomorphism from (A,∘), and it contains the circle generators, so it
    is A.  Then x∘a = x + a = a + x = a∘x for every x, so a is in Ann(A).
    Additive generators alone do not suffice, since x ↦ λ_x is not a
    homomorphism from (A,+): at order 16 they let a ∉ Ann(A) share the
    image of 0.
    """
    gens = generating_sequence(A.add)
    gens += tuple(g for g in generating_sequence(A.circle) if g not in gens)

    def image(a: int) -> tuple:
        out = []
        for x in gens:
            out.append(A.star(a, x))
        for x in gens:
            out.append(A.star(x, a))
        for x in gens:
            out.append(A.add.commutator(a, x))
        return tuple(out)

    # Ann(A) ⊆ Soc(A) ⊆ Z(A,+), so it is a normal subgroup of (A,+)
    coset_of = _cosets(A.add, annihilator(A))[1]
    by_coset: dict[int, set[tuple]] = {}
    for a in A.elements():
        by_coset.setdefault(coset_of[a], set()).add(image(a))
    for label, images in by_coset.items():
        if len(images) != 1:
            return CheckReport("schur-embedding", "fail",
                               (("part", "well-defined"), ("coset", label)))
    values = [next(iter(images)) for _, images in sorted(by_coset.items())]
    if len(set(values)) != len(values):
        return CheckReport("schur-embedding", "fail", (("part", "injective"),))
    return CheckReport("schur-embedding", "pass",
                       (("cosets", len(values)), ("generators", gens)))


def theorem_checks(A: SkewBrace, desc_bound: int = DEFAULT_ORDER_BOUND) -> tuple[CheckReport, ...]:
    """Run every theorem check on one brace."""
    return (
        check_gaschutz(A),
        check_prop_np(A),
        check_kutzko(A),
        check_prop_a2(A),
        check_wiegold(A),
        check_prop_inc(A),
        check_prop_desc(A, desc_bound),
        check_square_free(A),
        schur_embedding(A),
    )


def brace_report(A: SkewBrace) -> dict:
    """The CLI `report` payload: distinguished ideals, radical data, weight,
    structural flags and Wedderburn factor orders."""
    cert = weight(A)
    decomp = wedderburn_decompose(A)
    return {
        "order": A.order,
        "additive_group": group_signature(A.add),
        "circle_group": group_signature(A.circle),
        "socle": sorted(socle(A)),
        "annihilator": sorted(annihilator(A)),
        "fix": sorted(fix(A)),
        "a2": sorted(a2(A)),
        "radical": sorted(radical_set(A)),
        "radical_prime": sorted(radical_prime_set(A)),
        "maximal_ideal_count": len(maximal_ideals(A)),
        "weight": cert.weight,
        "weight_generators": sorted(cert.generating_set),
        "is_simple": is_simple(A),
        "is_solvable": is_solvable(A),
        "is_perfect": is_perfect(A),
        "is_trivial": a2(A) == frozenset({0}),
        "wedderburn_factor_orders": [F.order for F in decomp.factors],
    }
