"""Finite groups given by explicit multiplication tables on indices 0..n-1.

Every group in this library is a Cayley table.  The identity is always at
index 0 (tables are relabeled on verification if needed), which lets the
rest of the code write formulas exactly as in additive notation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

DEFAULT_ORDER_BOUND = 16


class _AxiomError(ValueError):
    """A failed axiom: ``axiom`` is a short tag and ``witness`` a tuple of
    indices exhibiting the failure.  It pickles with all three arguments,
    as a forked sweep worker sends the exception of a row that raised."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness

    def __reduce__(self):
        return type(self), (self.axiom, self.witness, str(self))


class GroupAxiomError(_AxiomError):
    """A candidate table failed a group axiom."""


class BoundExceededError(RuntimeError):
    """An operation was asked to run past its configured bound."""


class _Value:
    """Base of the immutable memo keys, which store their hash when built:
    every memo lookup hashes its key, and tuple tables do not cache theirs.
    A subclass lists its fields, then ``_hash``, in ``__slots__`` and sets
    them with ``_set``.  Equality tries identity, then class, then the
    stored hashes, then every field.  Groups and braces are interned by
    value (``_group_of``, ``braces._brace_of``), so a memo hit on an equal
    key is mostly a hit on the same object; equality and hashing still go
    by value, as for copies and pickles."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and all(getattr(self, f) == getattr(other, f) for f in self.__slots__[:-1])

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__[:-1])


class FiniteGroup(_Value):
    """A finite group as an order-n Cayley table with identity 0."""

    __slots__ = ("order", "table", "inverse", "_hash")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], inverse: tuple[int, ...]):
        self._set(order, table, inverse, hash(table))

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.table[self.table[a][b]][self.table[self.inverse[a]][self.inverse[b]]]


def relabel_table(table: Sequence[Sequence[int]], perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Relabel indices by a permutation: new[p(a)][p(b)] = p(old[a][b])."""
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(perm[table[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
    )


def _raw_identity(table: Sequence[Sequence[int]]) -> Optional[int]:
    """The first two-sided identity of a raw table, or None (also for a table
    too malformed to index)."""
    n = len(table)
    for e in range(n):
        try:
            if all(table[e][a] == a for a in range(n)) and all(table[a][e] == a for a in range(n)):
                return e
        except (IndexError, TypeError):
            return None
    return None


def verify_group_axioms(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a Cayley table and return its interned group, identity at 0.

    Checks, in order: shape, existence of a two-sided identity, existence of
    inverses, the Latin-square property, and associativity (Light's test,
    see ``_verify_shaped``).  Raises GroupAxiomError with a witness on the
    first failure.  If the identity is not at index 0 the table is relabeled
    by the transposition moving it there.

    The shape check runs on every call.  An entry passes it exactly when
    ``type(v) is int`` and 0 <= v < n, as in the file loaders, so a bool or
    a float is refused and equal memo keys are equal tables.  The rest is
    memoized on the table as a tuple of tuples.  Failures are never cached
    or interned.
    """
    n = len(table)
    if n == 0:
        raise GroupAxiomError("shape", (), "empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise GroupAxiomError("shape", (a,), f"row {a} has length {len(row)}, expected {n}")
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        for b, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                raise GroupAxiomError("shape", (a, b), f"entry at row {a}, column {b} is {v!r}, not an index in 0..{n - 1}")
    return _verify_shaped(tuple(tuple(row) for row in table))


@lru_cache(maxsize=None)
def _verify_shaped(table: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """The checks of ``verify_group_axioms`` after the shape check, on the
    raw table; the group is built and interned once every check passed.

    Light's test: the s with (a·s)·c = a·(s·c) for all a, c include the
    identity e and are closed under products (if s and t pass, so does s·t).
    ``greedy_subgroup`` from e over every index gives gens and H, the values
    reached from e by right products with gens.  If every g in gens passes,
    so does everything in H; so when H is every index, ``_nonassociative``
    over gens, O(n²·|gens|), finding nothing proves the table associative.
    When H is not every index the table is not a group: in a group each
    reached set is a subgroup, whose order divides n, so the pass keeps
    every g outside H until H is everything.  A table that passed the
    identity, inverse and Latin-square checks and is not a group is not
    associative.  So on either failure the search over every element, O(n³),
    finds a witness, the lexicographically first failing triple."""
    n = len(table)
    identity = _raw_identity(table)
    if identity is None:
        raise GroupAxiomError("identity", (), "no two-sided identity element")

    for a in range(n):
        if not any(table[a][b] == identity and table[b][a] == identity for b in range(n)):
            raise GroupAxiomError("inverse", (a,), f"element {a} has no two-sided inverse")

    for a in range(n):
        if len(set(table[a])) != n:
            raise GroupAxiomError("latin-square", (a,), f"row {a} is not a permutation")
    for b in range(n):
        col = {table[a][b] for a in range(n)}
        if len(col) != n:
            raise GroupAxiomError("latin-square", (b,), f"column {b} is not a permutation")

    gens, H = greedy_subgroup(identity, range(n), lambda x, g: table[x][g], n)
    if len(H) < n or _nonassociative(table, gens):
        a, b, c = _nonassociative(table, range(n))
        raise GroupAxiomError("associativity", (a, b, c), f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{b},{c})")
    perm = list(range(n))
    perm[0], perm[identity] = identity, 0
    return _group_of(relabel_table(table, perm) if identity else table)


@lru_cache(maxsize=None)
def _group_of(table: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """The FiniteGroup of a table already known to be a group with identity
    0, unchecked and interned: every call with an equal table gets the one
    object built first, so its memoized invariants are computed once.  Each
    row is a permutation and a right inverse is the inverse, so
    inverse[a] = table[a].index(0)."""
    return FiniteGroup(order=len(table), table=table, inverse=tuple(row.index(0) for row in table))


def _semidirect_group(N: FiniteGroup, K: FiniteGroup,
                      action: Sequence[Sequence[int]]) -> FiniteGroup:
    """N ⋊ K on pairs indexed n·|K| + k, (n₁,k₁)(n₂,k₂) = (n₁·action[k₁](n₂), k₁k₂).

    The caller guarantees that each action[k] is an automorphism of N and
    that action[k₁k₂] = action[k₁] ∘ action[k₂].  Then both bracketings of
    a triple product are (n₁·action[k₁](n₂)·action[k₁k₂](n₃), k₁k₂k₃), the
    identity is (0, 0) and (n,k)⁻¹ = (action[k⁻¹](n⁻¹), k⁻¹): a group, so
    nothing is checked.  The identity action gives N × K.
    """
    m = K.order
    return _group_of(tuple(
        tuple(N.table[n1][act[n2]] * m + k for n2 in N.elements() for k in K.table[k1])
        for n1 in N.elements() for k1, act in zip(K.elements(), action)
    ))


def _nonassociative(table: tuple[tuple[int, ...], ...], bs: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c), b in ``bs`` and in its order, with
    (a·b)·c != a·(b·c), or None: for each (a, b), row a·b of the table
    against the row c ↦ a·(b·c)."""
    for a, row in enumerate(table):
        for b in bs:
            lhs, rhs = table[row[b]], tuple(map(row.__getitem__, table[b]))
            if lhs != rhs:
                return a, b, next(c for c, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    return None


def is_abelian(G: FiniteGroup) -> bool:
    return all(
        G.table[a][b] == G.table[b][a]
        for a in range(G.order) for b in range(a + 1, G.order)
    )


@lru_cache(maxsize=None)
def element_orders(G: FiniteGroup) -> tuple[int, ...]:
    orders = []
    for a in G.elements():
        x, k = a, 1
        while x != 0:
            x = G.table[x][a]
            k += 1
        orders.append(k)
    return tuple(orders)


def center(G: FiniteGroup) -> frozenset[int]:
    """Elements commuting with everything."""
    return frozenset(
        a for a in G.elements()
        if all(G.table[a][b] == G.table[b][a] for b in G.elements())
    )


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Least subgroup containing ``seed``: the ``orbit`` of the identity
    under right multiplication by the seeds.  In a finite group every
    inverse is a positive power, so that orbit is the subgroup they
    generate."""
    return frozenset(orbit(0, tuple(set(seed) - {0}), lambda x, g: G.table[x][g], G.order))


def commutator_subgroup(G: FiniteGroup) -> frozenset[int]:
    """Smallest subgroup containing all commutators; normal in G."""
    comms = {G.commutator(a, b) for a in G.elements() for b in G.elements()}
    return subgroup_closure(G, comms)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Least normal subgroup containing ``seed``.

    The subgroup generated by all conjugates g·s·g⁻¹ of the seed: its
    generating set is closed under conjugation, so it is normal, and every
    normal subgroup containing the seed contains those conjugates.
    """
    seed = set(seed)
    return subgroup_closure(G, {G.conjugate(g, s) for g in G.elements() for s in seed})


def is_subgroup(G: FiniteGroup, S: frozenset[int]) -> bool:
    if 0 not in S:
        return False
    return all(G.table[a][b] in S for a in S for b in S) and all(G.inverse[a] in S for a in S)


def is_normal(G: FiniteGroup, S: frozenset[int]) -> bool:
    return all(G.conjugate(g, x) in S for g in G.elements() for x in S)


@lru_cache(maxsize=None)
def all_normal_subgroups(G: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every normal subgroup, as joins of the normal closures of conjugacy classes.

    A normal subgroup is the union of the classes it contains, hence the
    join of their normal closures; and the subgroup generated by a class is
    its normal closure, because the class is closed under conjugation.  The
    classes are the ``orbits`` of conjugation by ``generating_sequence(G)``,
    which generates Inn(G).  So the ``orbit`` of the trivial subgroup under
    joining with every class closure (N ∨ C = <N ∪ C>, normal when N and C
    are) is every normal subgroup and nothing else; a subgroup is a subset
    of G, so there are at most 2ⁿ.
    """
    if G.order > DEFAULT_ORDER_BOUND:
        raise BoundExceededError(f"order {G.order} exceeds the subgroup-lattice bound {DEFAULT_ORDER_BOUND}")
    classes = orbits(G.elements(), generating_sequence(G), lambda x, g: G.conjugate(g, x), G.order)
    class_closures = {subgroup_closure(G, cls) for cls in classes}
    found = orbit(frozenset({0}), class_closures,
                  lambda N, C: N if C <= N else subgroup_closure(G, N | C), 2 ** G.order)
    return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


def generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """A deterministic generating sequence: ``greedy_subgroup`` in increasing
    index order keeps each element outside the subgroup of those before."""
    return tuple(greedy_subgroup(0, G.elements(), lambda x, g: G.table[x][g], G.order)[0])


def extend_hom(m: dict[int, int], pairs: Sequence[tuple[int, int]],
               rows: Callable[[int, int], tuple[Sequence[int], Sequence[int]]]) -> Optional[dict[int, int]]:
    """Close seed images into a homomorphism from the generated subgroup,
    resuming from ``m``, the closure of ``pairs[:-1]`` ({0: 0} for one pair).

    ``pairs`` lists (g, image).  ``rows(x, fx)`` gives the row of x in the
    domain's product and the row of fx in the target's: for a map from G to
    H it is ``(G.table[x], H.table[fx])``.  The result, a new dict, is the
    unique homomorphism on the subgroup the g generate that takes 0 to 0 and
    agrees with the pairs, or None when no such homomorphism exists.

    One breadth-first loop from 0 multiplies by every pair, setting
    f(x·g) = f(x)·image(g) on first reach and checking it on every later
    one; no known x is expanded again: O((1 + |new elements|)·|pairs|) row
    lookups.  ``rows`` is the product of a finite group P on pairs (x, f(x)),
    identity (0, 0), G × H here and G ⋊ Λ in the λ-search.  Closing the pairs
    from (0, 0) reaches the subgroup L they generate (inverses are powers)
    and fails a check exactly when L is not the graph of a map (it stays in
    L, and fills L when nothing fails), a homomorphism on its domain.  Let
    Q = graph(m) and p the new pair.  If g ∈ dom(m), 0·g settles it.  Else,
    until a check fails, it walks from p by the pairs, stopping at Q, and by
    the lemma reaches L ∖ Q: it fails exactly when that closure does.

    Lemma: in a finite group L = ⟨Q, p⟩, p ∉ Q, that walk reaches L ∖ Q.  Its
    reach R outside Q has RQ = R (x ∉ Q gives xq ∉ Q, and the old pairs
    generate Q), so R/Q holds pQ and is closed under the arcs of Γ − Q, where
    Γ on L/Q has xQ → yQ iff y ∈ xQpQ: loopless, strongly connected (words in
    Q and p reach every coset), transitive under L.  A source of Γ − Q, a
    strong component entered from Q alone, holds some qpQ; as Q fixes Q and
    is transitive on the qpQ, the sources are Q-translates of one size s and
    hold every qpQ, from which all of Γ − Q is reached, so one source makes
    R/Q everything.  Suppose k ≥ 2 sources.  An atom is a least set A entered
    from one vertex with N(A) = A ∪ {that vertex} not everything; sources are
    such sets, so atoms have size a ≤ s.  Atoms A ≠ B are disjoint, since
    |N(A∩B)| + |N(A∪B)| ≤ |N(A)| + |N(B)|: if they met and N(A∪B) were not
    everything, A∩B would be entered from one vertex and smaller; if it were,
    |L/Q| = |N(A) ∪ N(B)| ≤ 2a + 1 ≤ 1 + ks ≤ |L/Q| would leave Γ − Q two
    sources of size a and no arc between them, so each Γ − x would split into
    two parts of size a, yet for x in one source, Q joins the other.  So the
    atoms partition L/Q, each vertex is the entry of t of them, and
    |L/Q|/a = t·|L/Q| gives a = 1: in-degree 1, so Γ is a cycle and k = 1.
    """
    m = dict(m)
    frontier = [0]
    while frontier:
        grown = []
        for x in frontier:
            row, image_row = rows(x, m[x])
            for g, img in pairs:
                z, fz = row[g], image_row[img]
                known = m.get(z)
                if known is None:
                    m[z] = fz
                    grown.append(z)
                elif known != fz:
                    return None
        frontier = grown
    return m


def search_homs(n: int, rows: Callable[[int, int], tuple[Sequence[int], Sequence[int]]],
                images: Callable[[int], Iterable[int]]) -> Iterator[dict[int, int]]:
    """Every homomorphism from a group of order n, as a dict on 0..n-1, found
    by backtracking over seed images; ``rows`` is the product rule of
    ``extend_hom``.

    At each node the least x outside the closure of the seeds so far gets
    each image in ``images(x)`` in turn, and ``extend_hom`` resumes the
    node's closure with the new seed; a closure that covers 0..n-1 is a
    leaf, yielded lazily in search order.  The seeds are then the greedy,
    increasing-index ``generating_sequence`` of the domain: each is the
    least element outside the subgroup its predecessors generate.  A leaf
    is a homomorphism on the subgroup the seeds generate, which is the whole
    group, so it needs no check against full tables.  Distinct leaves differ
    at their first differing seed image, so none is yielded twice.
    """
    def search(pairs: list[tuple[int, int]], m: dict[int, int]) -> Iterator[dict[int, int]]:
        x = next((a for a in range(n) if a not in m), None)
        if x is None:
            yield m
            return
        for img in images(x):
            step = pairs + [(x, img)]
            closed = extend_hom(m, step, rows)
            if closed is not None:
                yield from search(step, closed)

    return search([], {0: 0})


def preserves(perm: Sequence[int], src_table: Sequence[Sequence[int]],
              dst_table: Sequence[Sequence[int]]) -> bool:
    """Whether perm[src[a][b]] == dst[perm[a]][perm[b]] for every a, b."""
    n = len(src_table)
    return all(
        perm[src_table[a][b]] == dst_table[perm[a]][perm[b]]
        for a in range(n) for b in range(n)
    )


def search_maps(G: FiniteGroup, H: FiniteGroup,
                fits: Callable[[int, int], bool]) -> Iterator[tuple[int, ...]]:
    """Injective homomorphisms G -> H, as index permutations in search order:
    the leaves of ``search_homs`` whose images are distinct, where x may go
    to img in H, tried in increasing index order, when ``fits(x, img)``.
    The order-1 group yields the single map (0,)."""
    n = G.order
    leaves = search_homs(n, lambda x, fx: (G.table[x], H.table[fx]),
                         lambda x: (img for img in H.elements() if fits(x, img)))
    return (tuple(map(m.__getitem__, range(n))) for m in leaves if len(set(m.values())) == n)


def automorphism_group(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All automorphisms as index permutations, found by mapping a generating
    set with images pruned by element order (``search_maps``).  Output is
    sorted lexicographically."""
    if G.order > DEFAULT_ORDER_BOUND:
        raise BoundExceededError(f"order {G.order} exceeds the automorphism bound {DEFAULT_ORDER_BOUND}")
    orders = element_orders(G)
    return tuple(sorted(search_maps(G, G, lambda g, img: orders[img] == orders[g])))


_IDENTITY_TABLE = bytes(range(256))


def flat_permutation(perm: Sequence[int]) -> bytes:
    """A permutation of 0..n-1, n <= 256, as a 256-byte ``bytes.translate``
    table fixing n..255.  Then ``q.translate(p)`` is the composite
    x ↦ p[q[x]] in the same form, built at C speed, and ``perm[x]`` still
    reads the image of x."""
    return bytes(perm) + _IDENTITY_TABLE[len(perm):]


def orbit(start, gens: Sequence, step: Callable, bound: int) -> Optional[list]:
    """Every value reached from ``start`` by ``step(x, g)`` for g in
    ``gens``, breadth-first and ``start`` first, or None as soon as a step
    stores value number ``bound + 1``.  For bijections of a finite set this
    is the orbit of ``start`` under the group they generate (inverses are
    positive powers).  ``element_orders`` keeps its own loop, since
    through ``orbit`` it was ~6× slower on the built-in groups and its memo
    misses on every relabeled group that ``files`` loads; ``extend_hom``
    its own, since it carries and checks an image per value.
    """
    seen = {start}
    reached = [start]
    for x in reached:  # grows while iterated: a first-in, first-out queue
        for g in gens:
            z = step(x, g)
            if z not in seen:
                seen.add(z)
                reached.append(z)
                if len(reached) > bound:
                    return None
    return reached


def orbits(points: Iterable, gens: Sequence, step: Callable, bound: int) -> list[list]:
    """The distinct ``orbit``s of ``points``, in order of their first point:
    each point that no earlier orbit holds starts one.  For bijections they
    are the orbits that meet ``points`` of the group the steps generate."""
    found, seen = [], set()
    for x in points:
        if x not in seen:
            found.append(orbit(x, gens, step, bound))
            seen.update(found[-1])
    return found


def greedy_subgroup(identity, items: Iterable, step: Callable, bound: int) -> tuple[list, list]:
    """One greedy pass over ``items`` growing gens and H, the ``orbit`` of
    ``identity`` under gens by ``step``, identity first: a g already in H is
    skipped, and g joins gens when the orbit under gens + [g] has at most
    ``bound`` values and its size divides ``bound``.  The pass stops once
    |H| is ``bound``.  In a group of order ``bound`` each such orbit is a
    subgroup, so by Lagrange every g outside H is kept."""
    gens, H, members = [], [identity], {identity}
    for g in items:
        if len(H) == bound:
            break
        if g in members:
            continue
        K = orbit(identity, gens + [g], step, bound)
        if K is not None and bound % len(K) == 0:
            gens.append(g)
            H, members = K, set(K)
    return gens, H


def sylow_subgroup(perms: Sequence[bytes], p: int) -> tuple[bytes, ...]:
    """A Sylow p-subgroup of a group of permutations in ``flat_permutation``
    form, identity first: ``greedy_subgroup`` bounded by the p-part of
    |perms| takes g whenever ⟨H, g⟩ is still a p-group, that is, when its
    order divides the p-part.  That is a maximal p-subgroup, hence a Sylow
    p-subgroup: a g rejected early stays rejectable, since ⟨H_old, g⟩ ⊆
    ⟨H, g⟩ and a subgroup of a p-group is a p-group."""
    p_part = 1
    while len(perms) % (p_part * p) == 0:
        p_part *= p
    return tuple(greedy_subgroup(_IDENTITY_TABLE, perms, bytes.translate, p_part)[1])


def quotient_group(G: FiniteGroup, N: frozenset[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup, checked here; see ``_cosets``."""
    if not is_subgroup(G, N):
        raise ValueError("N is not a subgroup")
    if not is_normal(G, N):
        raise ValueError("N is not normal")
    return _cosets(G, N)


def _cosets(G: FiniteGroup, N: frozenset[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """G/N for a normal subgroup N, unchecked; returns (quotient, projection array).

    Cosets are labeled 0..k-1 in increasing order of their minimal member, so
    the identity coset is label 0.  For a normal subgroup aN·bN = abN is a
    group, so the table is not verified again.
    """
    coset_of: dict[int, int] = {}
    reps: list[int] = []  # the first unlabeled a is the least member of aN
    for a in G.elements():
        if a not in coset_of:
            for x in N:
                coset_of[G.table[a][x]] = len(reps)
            reps.append(a)
    table = tuple(tuple(coset_of[G.table[r][s]] for s in reps) for r in reps)
    return _group_of(table), tuple(coset_of[a] for a in G.elements())


@lru_cache(maxsize=None)
def abelian_invariants(G: FiniteGroup) -> Optional[tuple[int, ...]]:
    """Cyclic invariant-factor decomposition for abelian G, else None.

    Computed greedily: repeatedly split off a cyclic factor of maximal
    element order.  Deterministic and adequate at table scale.
    """
    if not is_abelian(G):
        return None
    invariants = []
    current = G
    while current.order > 1:
        orders = element_orders(current)
        m = max(orders)
        invariants.append(m)
        g = orders.index(m)
        current, _ = _cosets(current, subgroup_closure(current, [g]))  # abelian: <g> is normal
    return tuple(invariants)


def group_signature(G: FiniteGroup) -> str:
    """A short human-readable identification: abelian invariants or order profile."""
    inv = abelian_invariants(G)
    if inv is not None:
        if not inv:
            return "C1"
        return " x ".join(f"C{k}" for k in inv)
    profile = sorted(element_orders(G))
    return f"nonabelian(order={G.order}, element orders={profile})"
