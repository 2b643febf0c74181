"""JSON file formats for braces and set-theoretic solutions."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .braces import DEFAULT_PRODUCT_BOUND, SkewBrace, verify_brace
from .groups import BoundExceededError

if TYPE_CHECKING:
    from .ybe import SetSolution

# The largest order or size a file may declare, checked before any table is
# read: the product bound, so every table bracekit builds can be loaded back.
MAX_INPUT_ORDER = DEFAULT_PRODUCT_BOUND
# The canonical JSON of every payload bracekit writes: sorted keys and a
# two-space indent, followed by one newline.
_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2)


class InputFormatError(ValueError):
    """Malformed or invalid input file."""


def _load_json(path: Union[str, Path]) -> dict:
    """The JSON object in the file at ``path``.  A file that cannot be read,
    is not UTF-8 text, is not JSON or nests deeper than the parser's
    recursion limit is invalid input."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputFormatError(f"{path} nests JSON too deeply to parse") from None
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
    from .ybe import SetSolution  # only solution commands load ``ybe``

    payload = _load_json(path)
    n = _declared_order(payload, "size")
    sigma = _check_table(payload, "sigma", n)
    tau = _check_table(payload, "tau", n)
    # _check_table has checked every entry, as ybe.make_solution would.
    return SetSolution(n, tuple(map(tuple, sigma)), tuple(map(tuple, tau)))


def solution_payload(S: SetSolution) -> dict:
    return {
        "size": S.size,
        "sigma": [list(row) for row in S.sigma],
        "tau": [list(row) for row in S.tau],
    }


def dumps(payload) -> str:
    """The canonical JSON text of ``payload``: sorted keys, stable separators."""
    return _CANONICAL.encode(payload) + "\n"


def dump(payload, fp) -> None:
    """Write ``dumps(payload)`` to the text file ``fp`` piece by piece, so
    the whole text is never held in memory."""
    for chunk in _CANONICAL.iterencode(payload):
        fp.write(chunk)
    fp.write("\n")
