"""Finite set-theoretic solutions of the Yang-Baxter equation.

A solution is stored as two tables: sigma[x][y] = sigma_x(y) and
tau[y][x] = tau_y(x), so r(x,y) = (sigma[x][y], tau[y][x]) reads exactly
like the usual convention.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .braces import SkewBrace
from .groups import BoundExceededError

PERMUTATION_CLOSURE_BOUND = 10 ** 6


class SetSolution(NamedTuple):
    size: int
    sigma: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]

    def elements(self) -> range:
        return range(self.size)


class SolutionReport(NamedTuple):
    is_bijective: bool
    is_ybe: bool
    is_nondegenerate: bool
    is_involutive: bool
    braid_witness: Optional[tuple[int, int, int]] = None
    involutive_witness: Optional[tuple[int, int]] = None

    def as_dict(self) -> dict:
        return {
            "is_bijective": self.is_bijective,
            "is_ybe": self.is_ybe,
            "is_nondegenerate": self.is_nondegenerate,
            "is_involutive": self.is_involutive,
            "braid_witness": self.braid_witness,
            "involutive_witness": self.involutive_witness,
        }


class PermutationGroupSummary(NamedTuple):
    order: int
    generators: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]


def make_solution(sigma: Sequence[Sequence[int]], tau: Sequence[Sequence[int]]) -> SetSolution:
    n = len(sigma)
    if len(tau) != n:
        raise ValueError("sigma and tau must have the same size")
    for name, table in (("sigma", sigma), ("tau", tau)):
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"{name} row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError(f"{name}[{i}][{j}] = {v!r} is not an index in 0..{n - 1}")
    return SetSolution(n, tuple(tuple(r) for r in sigma), tuple(tuple(r) for r in tau))


def is_nondegenerate(S: SetSolution) -> bool:
    """Every sigma_x and every tau_y is a permutation: O(n²)."""
    return all(len(set(row)) == S.size for row in S.sigma + S.tau)


def check_solution(S: SetSolution) -> SolutionReport:
    """Bijectivity of r, the braid relation, non-degeneracy and involutivity,
    with witnesses for braid and involutivity failures."""
    n = S.size
    images = {S.r(x, y) for x in range(n) for y in range(n)}
    bijective = len(images) == n * n

    nondegenerate = is_nondegenerate(S)

    def r1(t):
        u, v = S.r(t[0], t[1])
        return (u, v, t[2])

    def r2(t):
        u, v = S.r(t[1], t[2])
        return (t[0], u, v)

    ybe = True
    braid_witness = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if r1(r2(r1(t))) != r2(r1(r2(t))):
                    ybe = False
                    braid_witness = t
                    break
            if not ybe:
                break
        if not ybe:
            break

    involutive = True
    involutive_witness = None
    for x in range(n):
        for y in range(n):
            u, v = S.r(x, y)
            if S.r(u, v) != (x, y):
                involutive = False
                involutive_witness = (x, y)
                break
        if not involutive:
            break

    return SolutionReport(bijective, ybe, nondegenerate, involutive,
                          braid_witness, involutive_witness)


def solution_from_brace(A: SkewBrace) -> SetSolution:
    """The canonical solution r(a,b) = (lambda_a(b), lambda_a(b)' ∘ a ∘ b)."""
    n = A.order
    sigma = tuple(tuple(A.lam[a][b] for b in range(n)) for a in range(n))
    tau = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            u = A.lam[a][b]
            tau[b][a] = A.circ(A.circ_inv(u), A.circ(a, b))
    return SetSolution(n, sigma, tuple(tuple(r) for r in tau))


def derived_solution(S: SetSolution) -> SetSolution:
    """r_t(x,y) = (y, y▷x) with y▷x = sigma_y(tau_{sigma_x^{-1}(y)}(x))."""
    if not is_nondegenerate(S):
        raise ValueError("derived solution requires a non-degenerate solution")
    n = S.size
    sigma_inv = []
    for x in range(n):
        inv = [0] * n
        for y in range(n):
            inv[S.sigma[x][y]] = y
        sigma_inv.append(inv)
    tau = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            w = sigma_inv[x][y]
            tau[y][x] = S.sigma[y][S.tau[w][x]]
    sigma = tuple(tuple(range(n)) for _ in range(n))
    return SetSolution(n, sigma, tuple(tuple(r) for r in tau))


def is_derived_form(S: SetSolution) -> bool:
    identity = tuple(range(S.size))
    return all(S.sigma[x] == identity for x in range(S.size))


def is_quandle(S: SetSolution) -> bool:
    """x▷x = x for all x; only defined on derived-form solutions."""
    if not is_derived_form(S):
        raise ValueError("quandle check requires a derived-form solution")
    return all(S.tau[x][x] == x for x in range(S.size))


def _orbits_of_maps(n: int, maps: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in maps:
        for x in range(n):
            a, b = find(x), find(m[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def is_indecomposable_derived(S: SetSolution) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Transitivity of the group generated by the maps x ↦ y▷x, with orbits."""
    if not is_derived_form(S):
        raise ValueError("indecomposability check requires a derived-form solution")
    maps = [S.tau[y] for y in range(S.size)]
    orbits = _orbits_of_maps(S.size, maps)
    return len(orbits) == 1, orbits


def close_permutations(n: int, generators: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Breadth-first closure of a set of permutations under composition."""
    identity = tuple(range(n))
    gens = sorted({tuple(g) for g in generators})
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
                    if len(group) > PERMUTATION_CLOSURE_BOUND:
                        raise BoundExceededError(
                            f"permutation closure exceeded bound {PERMUTATION_CLOSURE_BOUND}")
        frontier = nxt
    return sorted(group)


def permutation_group(S: SetSolution) -> PermutationGroupSummary:
    """The group generated by the sigma maps, with its order and orbits (the
    orbits of a group are those of its generators)."""
    if not is_nondegenerate(S):
        raise ValueError("permutation group requires a non-degenerate solution")
    gens = tuple(sorted({S.sigma[x] for x in range(S.size)}))
    order = len(close_permutations(S.size, gens))
    return PermutationGroupSummary(order, gens, _orbits_of_maps(S.size, gens))


def solution_orbits(S: SetSolution) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all sigma_x and tau_y."""
    maps = [S.sigma[x] for x in range(S.size)] + [S.tau[y] for y in range(S.size)]
    return _orbits_of_maps(S.size, maps)


def is_trivial_solution(S: SetSolution) -> bool:
    """The flip r(x,y) = (y,x)."""
    return all(S.r(x, y) == (y, x) for x in range(S.size) for y in range(S.size))
