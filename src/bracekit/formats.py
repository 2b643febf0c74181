"""JSON file formats for braces and set-theoretic solutions."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .braces import DEFAULT_PRODUCT_BOUND, SkewBrace, verify_brace
from .groups import BoundExceededError
from .ybe import SetSolution, make_solution

# The largest order or size a file may declare, checked before any table is
# read: the product bound, so every table bracekit builds can be loaded back.
MAX_INPUT_ORDER = DEFAULT_PRODUCT_BOUND


class InputFormatError(ValueError):
    """Malformed or invalid input file."""


def _load_json(path: Union[str, Path]) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError(f"{path}: top-level value must be an object")
    return payload


def _declared_order(payload: dict, key: str) -> int:
    n = payload.get(key)
    # `type(...) is int`, not isinstance: JSON true/false load as bool, an int.
    if type(n) is not int or n <= 0:
        raise InputFormatError(f"'{key}' must be a positive integer")
    if n > MAX_INPUT_ORDER:
        raise BoundExceededError(f"'{key}' is {n}, above the input bound {MAX_INPUT_ORDER}")
    return n


def _check_table(payload: dict, key: str, n: int) -> list[list[int]]:
    table = payload.get(key)
    if not isinstance(table, list) or len(table) != n:
        raise InputFormatError(f"'{key}' must be a list of {n} rows")
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"'{key}' row {i} must be a list of {n} entries")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                raise InputFormatError(
                    f"'{key}' row {i}, column {j}: {v!r} is not an index in 0..{n - 1}")
    return table


def load_brace(path: Union[str, Path]) -> SkewBrace:
    """Brace JSON: {"order": n, "add": [[...]], "circle": [[...]]}."""
    payload = _load_json(path)
    n = _declared_order(payload, "order")
    add = _check_table(payload, "add", n)
    circle = _check_table(payload, "circle", n)
    return verify_brace(add, circle)


def brace_payload(A: SkewBrace) -> dict:
    return {
        "order": A.order,
        "add": [list(row) for row in A.add.table],
        "circle": [list(row) for row in A.circle.table],
    }


def load_solution(path: Union[str, Path]) -> SetSolution:
    """Solution JSON: {"size": n, "sigma": [[...]], "tau": [[...]]}."""
    payload = _load_json(path)
    n = _declared_order(payload, "size")
    sigma = _check_table(payload, "sigma", n)
    tau = _check_table(payload, "tau", n)
    return make_solution(sigma, tau)


def solution_payload(S: SetSolution) -> dict:
    return {
        "size": S.size,
        "sigma": [list(row) for row in S.sigma],
        "tau": [list(row) for row in S.tau],
    }


def dumps(payload) -> str:
    """Canonical JSON used everywhere: sorted keys, stable separators."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
