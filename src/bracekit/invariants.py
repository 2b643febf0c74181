"""Radical, weight, decomposition and the theorem checks built on them.

Everything here operates on finite braces at desk scale.  Theorem checks
return CheckReport values with status 'pass', 'fail' or 'na'; a 'fail'
indicates a library bug (or a genuine counterexample worth staring at),
never an expected outcome.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Optional

from .braces import (
    BraceMorphism,
    CheckReport,
    SkewBrace,
    direct_product,
    trivial_brace,
    zero_brace,
)
from .groups import (
    commutator_subgroup,
    generating_sequence,
    group_signature,
    quotient_group,
)
from .ideals import (
    a2,
    all_ideals,
    annihilator,
    fix,
    ideal_closure,
    ideal_sum,
    is_prime_ideal,
    is_small_ideal,
    maximal_ideals,
    quotient_brace,
    small_ideals,
    socle,
    star_product,
    sub_brace,
)

NON_GENERATOR_BOUND = 8


class RadicalReport(NamedTuple):
    radical: frozenset[int]
    radical_prime: frozenset[int]
    maximal_ideal_count: int
    non_generators: Optional[frozenset[int]]
    small_ideal_sum: frozenset[int]


class WeightCertificate(NamedTuple):
    weight: int
    generating_set: frozenset[int]
    exhaustive: bool


class SolvableSeries(NamedTuple):
    terms: tuple[frozenset[int], ...]
    stabilized: bool

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
    return _full(A).intersection(*(M for M in maximal_ideals(A) if is_prime_ideal(A, M)))


@lru_cache(maxsize=None)
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


def radical(A: SkewBrace, desc_bound: int = NON_GENERATOR_BOUND) -> RadicalReport:
    """Full radical report; the non-generator cross-check is included only
    up to ``desc_bound``."""
    nongen = non_generators(A) if A.order <= desc_bound else None
    return RadicalReport(
        radical=radical_set(A),
        radical_prime=radical_prime_set(A),
        maximal_ideal_count=len(maximal_ideals(A)),
        non_generators=nongen,
        small_ideal_sum=small_ideal_sum(A),
    )


def is_simple(A: SkewBrace) -> bool:
    """Exactly two ideals: 0 and A."""
    return len(all_ideals(A)) == 2


@lru_cache(maxsize=None)
def is_perfect(A: SkewBrace) -> bool:
    return a2(A) == _full(A)


def solvable_series(A: SkewBrace) -> SolvableSeries:
    """A_1 = A, A_{i+1} = A_i * A_i, until stable."""
    terms = [_full(A)]
    while True:
        nxt = star_product(A, terms[-1], terms[-1])
        if nxt == terms[-1]:
            return SolvableSeries(tuple(terms), stabilized=True)
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
                return WeightCertificate(k, frozenset(combo), exhaustive=True)
    raise AssertionError("the full element set always generates")


@lru_cache(maxsize=None)
def weight(A: SkewBrace, use_radical_opt: bool = True) -> WeightCertificate:
    """Minimal number of elements generating A as an ideal (1 for the zero brace).

    With the optimization on, the search runs in A/Rad(A) and lifts the
    certificate back, re-verifying the lifted set in A.
    """
    if A.order == 1:
        return WeightCertificate(1, frozenset({0}), exhaustive=True)
    if not use_radical_opt:
        return _subset_search(A)
    R = radical_set(A)
    if R == frozenset({0}):
        return _subset_search(A)
    Q, projection = quotient_brace(A, R)
    cert = _subset_search(Q)
    lifted = frozenset(
        min(a for a in A.elements() if projection[a] == q) for q in cert.generating_set
    )
    if ideal_closure(A, lifted) != _full(A):
        # Should be unreachable: generation descends to A/Rad(A) and back.
        return _subset_search(A)
    return WeightCertificate(cert.weight, lifted, exhaustive=True)


def wedderburn_decompose(A: SkewBrace) -> Decomposition:
    """A/Rad(A) as a verified direct product of simple braces.

    Picks an irredundant family of maximal ideals of B = A/Rad(A)
    intersecting to zero, then builds the product isomorphism componentwise
    and verifies bijectivity, factor simplicity and preservation of both
    operations.
    """
    R = radical_set(A)
    B, _ = quotient_brace(A, R)
    zero = frozenset({0})
    if B.order == 1:
        P = zero_brace()
        iso = BraceMorphism((0,), 1, 1)
        return Decomposition((), iso, (), B, P)

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
    # drop redundant members
    changed = True
    while changed:
        changed = False
        for i in range(len(family)):
            rest = family[:i] + family[i + 1:]
            if rest and frozenset.intersection(*rest) == zero:
                family.pop(i)
                changed = True
                break

    factors = []
    projections = []
    for M in family:
        F, proj = quotient_brace(B, M)
        if not is_simple(F):
            raise AssertionError("quotient by a maximal ideal must be simple")
        factors.append(F)
        projections.append(proj)

    product = factors[0]
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
    for x in B.elements():
        for y in B.elements():
            if mapping[B.plus(x, y)] != product.plus(mapping[x], mapping[y]) or \
                    mapping[B.circ(x, y)] != product.circ(mapping[x], mapping[y]):
                raise AssertionError("decomposition map does not preserve the operations")
    return Decomposition(tuple(factors), iso, tuple(family), B, product)


# ---------------------------------------------------------------------------
# theorem checks


def check_gaschutz(A: SkewBrace) -> CheckReport:
    """[A,A]_+ + A^(2) ⊆ M or Soc(A) ⊆ M for every maximal M, and
    A^(2) ∩ Soc(A) ⊆ Rad(A)."""
    soc = socle(A)
    comm_plus_a2 = ideal_sum(A, commutator_subgroup(A.add), a2(A))
    for M in maximal_ideals(A):
        if not (comm_plus_a2 <= M or soc <= M):
            return CheckReport("gaschutz", "fail", (("maximal_ideal", tuple(sorted(M))),))
    if not (a2(A) & soc) <= radical_set(A):
        return CheckReport("gaschutz", "fail", (("part", "intersection"),))
    return CheckReport("gaschutz", "pass")


def check_prop_np(A: SkewBrace) -> CheckReport:
    """A maximal ideal is prime exactly when A^(2) is not contained in it."""
    A2 = a2(A)
    for M in maximal_ideals(A):
        if is_prime_ideal(A, M) != (not A2 <= M):
            return CheckReport("prop-np", "fail", (("maximal_ideal", tuple(sorted(M))),))
    return CheckReport("prop-np", "pass")


def check_kutzko(A: SkewBrace) -> CheckReport:
    """omega(A) = omega(A/A^(2))."""
    wa = weight(A).weight
    Q, _ = quotient_brace(A, a2(A))
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
    B, _ = quotient_brace(A, radical_set(A))
    C, _ = quotient_brace(B, a2(B))
    Cab, _ = quotient_group(C.add, commutator_subgroup(C.add))
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


def check_prop_desc(A: SkewBrace, bound: int = NON_GENERATOR_BOUND) -> CheckReport:
    """Rad(A) equals both the non-generating elements and the sum of all
    small ideals (up to ``bound``)."""
    if A.order > bound:
        return CheckReport("prop-desc", "na",
                           (("reason", f"order {A.order} above the non-generator bound {bound}"),))
    rad = radical_set(A)
    nongen = non_generators(A)
    small_sum = small_ideal_sum(A)
    details = (("radical", tuple(sorted(rad))),
               ("non_generators", tuple(sorted(nongen))),
               ("small_ideal_sum", tuple(sorted(small_sum))))
    ok = nongen == rad and small_sum == rad
    return CheckReport("prop-desc", "pass" if ok else "fail", details)


def check_prop_a2(A: SkewBrace) -> CheckReport:
    """For solvable A: A^(2) lies in every maximal ideal, hence in Rad(A)."""
    if not is_solvable(A):
        return CheckReport("prop-a2", "na", (("reason", "not solvable"),))
    A2 = a2(A)
    for M in maximal_ideals(A):
        if not A2 <= M:
            return CheckReport("prop-a2", "fail", (("maximal_ideal", tuple(sorted(M))),))
    if not A2 <= radical_set(A):
        return CheckReport("prop-a2", "fail", (("part", "radical"),))
    return CheckReport("prop-a2", "pass")


def schur_embedding(A: SkewBrace) -> CheckReport:
    """The coset map a+Ann(A) ↦ (a*x_i, x_i*a, [a,x_i]_+)_i over an additive
    generating set: verified well-defined and injective."""
    gens = generating_sequence(A.add)
    ann = annihilator(A)

    def image(a: int) -> tuple:
        out = []
        for x in gens:
            out.append(A.star(a, x))
        for x in gens:
            out.append(A.star(x, a))
        for x in gens:
            out.append(A.add.commutator(a, x))
        return tuple(out)

    coset_of: dict[int, int] = {}
    labels = 0
    for a in A.elements():
        if a in coset_of:
            continue
        for z in sorted(ann):
            coset_of[A.plus(a, z)] = labels
        labels += 1

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
                       (("cosets", labels), ("generators", gens)))


THEOREM_CHECKS = ("gaschutz", "prop-np", "kutzko", "prop-a2", "wiegold",
                  "prop-inc", "prop-desc", "square-free", "schur-embedding")


def theorem_checks(A: SkewBrace, desc_bound: int = NON_GENERATOR_BOUND) -> tuple[CheckReport, ...]:
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


def brace_report(A: SkewBrace, desc_bound: int = NON_GENERATOR_BOUND) -> dict:
    """The CLI `report` payload: distinguished ideals, radical data, weight,
    structural flags and Wedderburn factor orders."""
    rad = radical(A, desc_bound)
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
        "radical": sorted(rad.radical),
        "radical_prime": sorted(rad.radical_prime),
        "maximal_ideal_count": rad.maximal_ideal_count,
        "weight": cert.weight,
        "weight_generators": sorted(cert.generating_set),
        "is_simple": is_simple(A),
        "is_solvable": is_solvable(A),
        "is_perfect": is_perfect(A),
        "is_trivial": a2(A) == frozenset({0}),
        "wedderburn_factor_orders": [F.order for F in decomp.factors],
    }
