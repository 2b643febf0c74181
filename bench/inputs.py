"""Seeded inputs of the ``files`` workload, with their expected outcomes.

Everything expected here comes from the benchmark's own brute-force checks
on the frozen catalog, never from bracekit: relabeled braces and the
solutions they define, incompatible (add, circle) pairs, and one-swap
mutations of those solutions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

# Fields of `report --json` that do not depend on element labels; for the
# label-valued ones, only the size is label-free.
LABEL_FREE = ("order", "additive_group", "circle_group", "maximal_ideal_count", "weight",
              "is_simple", "is_solvable", "is_perfect", "is_trivial",
              "wedderburn_factor_orders")
LABEL_SETS = ("socle", "annihilator", "fix", "a2", "radical", "radical_prime",
              "weight_generators")


def label_free(report: dict) -> dict:
    out = {key: report[key] for key in LABEL_FREE}
    out.update({f"len({key})": len(report[key]) for key in LABEL_SETS})
    return out


def canonical_json(payload) -> str:
    """The byte format bracekit writes: sorted keys, indent 2, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def relabel(table, perm):
    """new[perm[a]][perm[b]] = perm[old[a][b]]."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[table[a][b]]
    return new


def identity_of(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n)))


def inverses(table) -> list[int]:
    e = identity_of(table)
    return [row.index(e) for row in table]


def is_compatible(add, circle) -> bool:
    """a∘(b+c) = a∘b - a + a∘c for every triple."""
    n, neg = len(add), inverses(add)
    return all(circle[a][add[b][c]] == add[add[circle[a][b]][neg[a]]][circle[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def solution_of(add, circle) -> dict:
    """r(a,b) = (λ_a(b), λ_a(b)⁻¹∘a∘b) with λ_a(b) = -a + a∘b, as a solution payload."""
    n, neg, cinv = len(add), inverses(add), inverses(circle)
    sigma = [[add[neg[a]][circle[a][b]] for b in range(n)] for a in range(n)]
    tau = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            tau[b][a] = circle[cinv[sigma[a][b]]][circle[a][b]]
    return {"size": n, "sigma": sigma, "tau": tau}


def is_ybe_bijection(solution: dict) -> bool:
    """r is a bijection of X×X and satisfies the braid relation on X×X×X."""
    n, sigma, tau = solution["size"], solution["sigma"], solution["tau"]

    def r(x, y):
        return sigma[x][y], tau[y][x]

    if len({r(x, y) for x in range(n) for y in range(n)}) != n * n:
        return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                u, v = r(x, y)            # r1
                v, w = r(v, z)            # r2
                u, v = r(u, v)            # r1
                p, q = r(y, z)            # r2
                s, p = r(x, p)            # r1
                p, q = r(p, q)            # r2
                if (u, v, w) != (s, p, q):
                    return False
    return True


def _write(path: Path, payload) -> None:
    path.write_text(canonical_json(payload))


def make_plan(seed: int, out: Path, catalogs: dict, per_order: int | None = None) -> dict:
    """Write the input files of one pass under ``out`` and return the plan.

    ``catalogs`` maps an order to its frozen catalog entries.  Each entry
    gives one item: a valid brace file, relabeled by a random permutation so
    that its identity mostly leaves index 0; the solution it defines; its
    addition paired with the circle table of a random brace of that order
    under another labeling with the same identity, which is almost never a
    brace; and a one-swap mutation of the solution.  ``per_order`` keeps
    only the first entries of each order.
    """
    rng = random.Random(seed)
    items = []
    for order in sorted(catalogs):
        for i, entry in enumerate(catalogs[order][:per_order]):
            perm = list(range(order))
            rng.shuffle(perm)
            add, circle = relabel(entry["add"], perm), relabel(entry["circle"], perm)
            stem = str(out / f"b{order}_{i:03d}")
            item = {"order": order, "index": i, "report": entry["report"],
                    "brace": stem + ".brace.json", "solution": stem + ".sol.json",
                    "pair": stem + ".pair.json", "mutant": stem + ".mut.json"}
            _write(Path(item["brace"]), {"order": order, "add": add, "circle": circle})

            # bracekit moves the identity to index 0 by swapping it with 0
            swap = list(range(order))
            swap[0], swap[perm[0]] = perm[0], 0
            solution = solution_of(relabel(add, swap), relabel(circle, swap))
            item["solution_sha256"] = hashlib.sha256(canonical_json(solution).encode()).hexdigest()
            item["check_exit"] = 0 if is_ybe_bijection(solution) else 1

            j = rng.randrange(len(catalogs[order]))
            scramble = [0] + rng.sample(range(1, order), order - 1)
            other = relabel(catalogs[order][j]["circle"], [perm[s] for s in scramble])
            _write(Path(item["pair"]), {"order": order, "add": add, "circle": other})
            item["pair_exit"] = 0 if is_compatible(add, other) else 2

            x = rng.randrange(order)
            y1, y2 = rng.sample(range(order), 2)
            mutant = copy.deepcopy(solution)
            row = mutant["sigma"][x]
            row[y1], row[y2] = row[y2], row[y1]
            _write(Path(item["mutant"]), mutant)
            item["mutant_exit"] = 0 if is_ybe_bijection(mutant) else 1
            items.append(item)
    return {"items": items, "catalogs": {str(k): v[:per_order] for k, v in catalogs.items()}}
