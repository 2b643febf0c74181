"""Every module-level import of a library module is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bracekit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


SCANNED = MODULES + sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    """Every name imported anywhere in a library or test module, also inside
    a function, is used there.  A function parameter counts as a use:
    pytest passes a fixture to a test by its parameter name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert sorted(imported - used) == []


def _is_memo(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


def test_every_memo_can_hit():
    """No memoized library function is reached only through one memoized
    caller that passes it that caller's own parameters.

    A memo hits only on a repeated key.  Such a function is called once per
    key of its caller's memo, so its own memo never hits.  (A memo keyed on
    a part of the caller's key, such as ``all_normal_subgroups(A.add)``
    inside ``all_ideals(A)``, can hit, and passes.)
    """
    memoized, uses = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if any(map(_is_memo, fn.decorator_list)):
                    memoized.add(fn.name)
                params = [a.arg for a in fn.args.args]
                forwarding = {id(c.func) for c in ast.walk(fn) if isinstance(c, ast.Call)
                              and [getattr(a, "id", None) for a in c.args] == params
                              and not c.keywords}
                for n in ast.walk(fn):
                    if isinstance(n, ast.Name) and n.id != fn.name:
                        uses.setdefault(n.id, []).append((fn.name, id(n) in forwarding))
    idle = [name for name in sorted(memoized) if len(uses.get(name, [])) == 1
            and uses[name][0][0] in memoized and uses[name][0][1]]
    assert idle == []


def _modules_loaded_by(code: str, names: set, env: dict) -> list:
    """Those of ``names`` in ``sys.modules`` after ``python -S -c code``;
    ``-S`` keeps a site ``.pth`` file from importing any of them first."""
    code += f"; import sys; print(*sorted({names!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1].split()


def test_cli_start_up_loads_no_dataclasses():
    """``import bracekit.cli`` loads none of ``dataclasses``, ``inspect``,
    ``hashlib``, ``pickle``, ``concurrent.futures`` or ``multiprocessing``.

    Every CLI command is its own process and pays the package import
    first; ``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``)
    would be most of it, and each of the others adds to the peak RSS of
    every command (``hashlib`` alone ~3.6 MB on CPython 3.11).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    names = {"dataclasses", "inspect", "hashlib", "pickle", "concurrent.futures",
             "multiprocessing"}
    assert _modules_loaded_by("import bracekit.cli", names, env) == []


def test_parallel_sweep_loads_no_process_pool(tmp_path):
    """``sweep 8 --jobs 2`` forks its worker without ``concurrent.futures``
    or ``multiprocessing``; ``pickle`` shows that the parallel path ran."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "BRACEKIT_CACHE": str(tmp_path / "cache")}
    code = ("import os; os.cpu_count = lambda: 2; from bracekit.cli import main; "
            f"assert main(['sweep', '8', '--jobs', '2', '--out', {str(tmp_path / 's.json')!r}]) == 0")
    names = {"pickle", "concurrent.futures", "multiprocessing"}
    assert _modules_loaded_by(code, names, env) == ["pickle"]
