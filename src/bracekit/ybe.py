"""Finite set-theoretic solutions of the Yang-Baxter equation.

A solution is stored as two tables: sigma[x][y] = sigma_x(y) and
tau[y][x] = tau_y(x), so r(x,y) = (sigma[x][y], tau[y][x]) reads exactly
like the usual convention.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .braces import SkewBrace
from .groups import BoundExceededError, orbit, orbits

# Integers the closure of ``permutation_group`` may store: permutations times
# points.  That is 10**6 permutations of 10 points (no group on fewer points
# reaches 10**6: 9! is below it) and 39,062 permutations of 256 points.
PERMUTATION_CLOSURE_BOUND = 10 ** 7


class SetSolution(NamedTuple):
    size: int
    sigma: tuple[tuple[int, ...], ...]
    tau: tuple[tuple[int, ...], ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]


class SolutionReport(NamedTuple):
    is_bijective: bool
    is_ybe: bool
    is_nondegenerate: bool
    is_involutive: bool
    braid_witness: Optional[tuple[int, int, int]] = None
    involutive_witness: Optional[tuple[int, int]] = None


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
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"{name}[{i}][{j}] = {v!r} is not an index in 0..{n - 1}")
    return SetSolution(n, tuple(tuple(r) for r in sigma), tuple(tuple(r) for r in tau))


def is_nondegenerate(S: SetSolution) -> bool:
    """Every sigma_x and every tau_y is a permutation: O(n²)."""
    return all(len(set(row)) == S.size for row in S.sigma + S.tau)


def _braid_witness(sigma, col) -> Optional[tuple[int, int, int]]:
    """The first triple, in lexicographic order, at which r1 r2 r1 and
    r2 r1 r2 differ, where r1 = r x id and r2 = id x r.

    r1 r2 r1 (x,y,z) = (sigma[a][c], tau[c][a], tau[z][b]) and
    r2 r1 r2 (x,y,z) = (sigma[x][e], sigma[h][f], tau[f][h]), where
    (a, b) = r(x,y), c = sigma[b][z], (e, f) = r(y,z) and h = tau[e][x].
    ``col[y][x] = tau[x][y]`` makes every lookup of the z loop a row lookup,
    and the rows that depend on (x, y) alone are bound once per pair.
    """
    n = len(sigma)
    for x in range(n):
        sx, cx = sigma[x], col[x]
        for y in range(n):
            a, b = sx[y], cx[y]
            sa, ca, sb, cb, sy, cy = sigma[a], col[a], sigma[b], col[b], sigma[y], col[y]
            for z in range(n):
                c, e, f = sb[z], sy[z], cy[z]
                h = cx[e]
                if sa[c] != sx[e] or ca[c] != sigma[h][f] or cb[z] != col[h][f]:
                    return x, y, z
    return None


def _involutive_witness(sigma, col) -> Optional[tuple[int, int]]:
    """The first pair, in lexicographic order, with r(r(x,y)) != (x,y)."""
    for x, (sx, cx) in enumerate(zip(sigma, col)):
        for y, (u, v) in enumerate(zip(sx, cx)):
            if sigma[u][v] != x or col[u][v] != y:
                return x, y
    return None


def check_solution(S: SetSolution) -> SolutionReport:
    """Bijectivity of r, the braid relation, non-degeneracy and involutivity,
    with witnesses for braid and involutivity failures.

    Every pair and every triple is checked, so a witness is the first
    failing one in lexicographic order.
    """
    sigma, col = S.sigma, tuple(zip(*S.tau))
    images = {p for sx, cx in zip(sigma, col) for p in zip(sx, cx)}
    braid_witness = _braid_witness(sigma, col)
    involutive_witness = _involutive_witness(sigma, col)
    return SolutionReport(len(images) == S.size ** 2, braid_witness is None,
                          is_nondegenerate(S), involutive_witness is None,
                          braid_witness, involutive_witness)


def solution_from_brace(A: SkewBrace) -> SetSolution:
    """The canonical solution r(a,b) = (lambda_a(b), lambda_a(b)' ∘ a ∘ b)."""
    n = A.order
    tau = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            u = A.lam[a][b]
            tau[b][a] = A.circ(A.circ_inv(u), A.circ(a, b))
    return SetSolution(n, A.lam, tuple(tuple(r) for r in tau))


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
    """x▷x = x for all x; only defined on racks (non-degenerate derived forms)."""
    if not (is_derived_form(S) and is_nondegenerate(S)):
        raise ValueError("quandle check requires a rack: a non-degenerate derived-form solution")
    return all(S.tau[x][x] == x for x in range(S.size))


def _orbits_of_maps(n: int, maps: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The orbits on 0..n-1 of the group the permutations ``maps``
    generate, sorted, in order of least member (``orbits``)."""
    return tuple(tuple(sorted(o)) for o in orbits(range(n), maps, lambda y, m: m[y], n))


def is_indecomposable_derived(S: SetSolution) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Transitivity of the group the maps x ↦ y▷x generate, with orbits; racks only."""
    if not (is_derived_form(S) and is_nondegenerate(S)):
        raise ValueError("indecomposability check requires a rack: a non-degenerate derived-form solution")
    maps = [S.tau[y] for y in range(S.size)]
    orbits = _orbits_of_maps(S.size, maps)
    return len(orbits) == 1, orbits


def permutation_group(S: SetSolution) -> PermutationGroupSummary:
    """The group generated by the sigma maps (closed by ``orbit``, bounded
    by ``PERMUTATION_CLOSURE_BOUND``), with its order and orbits (the orbits
    of a group are those of its generators)."""
    if not is_nondegenerate(S):
        raise ValueError("permutation group requires a non-degenerate solution")
    n = S.size
    gens = tuple(sorted({S.sigma[x] for x in range(n)}))
    limit = PERMUTATION_CLOSURE_BOUND // max(n, 1)
    group = orbit(tuple(range(n)), gens, lambda p, g: tuple(map(p.__getitem__, g)), limit)
    if group is None:
        raise BoundExceededError(f"permutation closure exceeded {limit} permutations of {n} points "
                                 f"(bound {PERMUTATION_CLOSURE_BOUND} stored integers)")
    return PermutationGroupSummary(len(group), gens, _orbits_of_maps(n, gens))


def solution_orbits(S: SetSolution) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by all sigma_x and tau_y; non-degenerate
    solutions only."""
    if not is_nondegenerate(S):
        raise ValueError("solution orbits require a non-degenerate solution")
    maps = [S.sigma[x] for x in range(S.size)] + [S.tau[y] for y in range(S.size)]
    return _orbits_of_maps(S.size, maps)


def is_trivial_solution(S: SetSolution) -> bool:
    """The flip r(x,y) = (y,x)."""
    return all(S.r(x, y) == (y, x) for x in range(S.size) for y in range(S.size))
