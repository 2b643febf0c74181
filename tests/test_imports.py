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
    assert {"_group_of", "_brace_of"} <= memoized  # the intern tables


def _modules_loaded_by(code: str, names: set, env: dict) -> list:
    """Those of ``names`` in ``sys.modules`` after ``python -S -c code``;
    ``-S`` keeps a site ``.pth`` file from importing any of them first."""
    code += f"; import sys; print(*sorted({names!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1].split()


def test_cli_start_up_loads_no_dataclasses():
    """``import bracekit.cli`` loads none of ``dataclasses``, ``inspect``,
    ``hashlib``, ``zlib``, ``pickle``, ``concurrent.futures`` or
    ``multiprocessing``.

    Every CLI command is its own process and pays the package import
    first; ``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``)
    would be most of it, and each of the others adds to the peak RSS of
    every command (``hashlib`` alone ~3.6 MB on CPython 3.11).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    names = {"dataclasses", "inspect", "hashlib", "zlib", "pickle", "concurrent.futures",
             "multiprocessing"}
    assert _modules_loaded_by("import bracekit.cli", names, env) == []


def test_parallel_sweep_loads_no_process_pool(tmp_path):
    """``sweep 8 --jobs 2`` forks its one worker (counted at ``os.fork``)
    without ``concurrent.futures`` or ``multiprocessing``, and with every
    row succeeding neither process loads ``pickle``: the rows come back as
    JSON.  The worker ends through ``os._exit``, wrapped here to fail it if
    ``pickle`` was loaded, which makes the sweep exit 4."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "BRACEKIT_CACHE": str(tmp_path / "cache")}
    code = ("import os, sys; os.cpu_count = lambda: 2; forks = []; fork, exit_ = os.fork, os._exit; "
            "os.fork = lambda: forks.append(1) or fork(); "
            "os._exit = lambda status: exit_(status or 'pickle' in sys.modules); "
            "from bracekit.cli import main; "
            f"assert main(['sweep', '8', '--jobs', '2', '--out', {str(tmp_path / 's.json')!r}]) == 0; "
            "assert forks == [1]")
    names = {"pickle", "concurrent.futures", "multiprocessing"}
    assert _modules_loaded_by(code, names, env) == []


def test_enumerate_loads_no_ideals_invariants_or_ybe(tmp_path):
    """``import bracekit.cli`` and an ``enumerate`` load none of the modules
    that only other commands use."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "BRACEKIT_CACHE": str(tmp_path / "cache")}
    names = {"bracekit.ideals", "bracekit.invariants", "bracekit.ybe"}
    assert _modules_loaded_by("import bracekit.cli", names, env) == []
    code = "from bracekit.cli import main; assert main(['enumerate', '3']) == 0"
    assert _modules_loaded_by(code, names, env) == []


def test_plain_command_lines_load_no_argparse(tmp_path):
    """``import bracekit.cli`` and plain command lines of four commands load
    none of ``argparse``, ``gettext`` or ``locale``: ``main`` parses them
    itself and builds the argparse parser only for help and usage errors."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "BRACEKIT_CACHE": str(tmp_path / "cache")}
    solution = tmp_path / "flip.json"
    solution.write_text('{"size": 2, "sigma": [[0, 1], [0, 1]], "tau": [[0, 1], [0, 1]]}')
    names = {"argparse", "gettext", "locale"}
    assert _modules_loaded_by("import bracekit.cli", names, env) == []
    for argv in (["enumerate", "3"], ["sweep", "4", "--jobs", "1", "--out", str(tmp_path / "s.json")],
                 ["theoremcheck", "corpus:4", "--json"], ["ybe", "check", str(solution), "--witness"]):
        code = f"from bracekit.cli import main; assert main({argv!r}) == 0"
        assert _modules_loaded_by(code, names, env) == [], argv


def test_sweep_loads_invariants_before_it_forks(tmp_path):
    """``sweep 8 --jobs 2`` imports ``invariants`` before its worker is forked,
    so the worker inherits the module rather than importing it again."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "BRACEKIT_CACHE": str(tmp_path / "cache")}
    code = ("import os, sys; os.cpu_count = lambda: 2; loaded = []; fork = os.fork; "
            "os.fork = lambda: loaded.append('bracekit.invariants' in sys.modules) or fork(); "
            "from bracekit.cli import main; "
            f"assert main(['sweep', '8', '--jobs', '2', '--out', {str(tmp_path / 's.json')!r}]) == 0; "
            "assert loaded == [True], loaded")
    assert _modules_loaded_by(code, {"bracekit.invariants"}, env) == ["bracekit.invariants"]


EXPORTS = {  # the package's re-exports, by the module that defines each
    "groups": """BoundExceededError FiniteGroup GroupAxiomError all_normal_subgroups
        automorphism_group center commutator_subgroup normal_closure quotient_group
        subgroup_closure verify_group_axioms""",
    "braces": """BraceAxiomError BraceMorphism CheckReport SkewBrace brace_automorphism_group
        brace_isomorphic check_star_identities direct_product semidirect_product
        trivial_brace verify_brace zero_brace""",
    "ideals": """a2 all_ideals annihilator fix ideal_closure is_ideal is_left_ideal
        is_prime_ideal is_small_ideal maximal_ideals quotient_brace socle star_product
        sub_brace""",
    "invariants": """Decomposition RadicalReport SolvableSeries WeightCertificate is_perfect
        is_simple is_solvable radical schur_embedding solvable_series theorem_checks
        wedderburn_decompose weight""",
    "ybe": """SetSolution check_solution derived_solution is_indecomposable_derived
        is_quandle is_trivial_solution make_solution permutation_group
        solution_from_brace solution_orbits""",
    "catalog": "BraceCatalog catalog_invariant_sweep enumerate_braces",
}


def test_every_package_export_resolves_and_is_listed():
    """Each of the 63 names the package re-exports is in ``dir(bracekit)``
    and imports from it, in a fresh process, as the object its module
    defines; any other name is an ``AttributeError``."""
    exports = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert len(exports) == 63
    code = f"""
import bracekit, importlib
exports = {exports!r}
assert set(exports) <= set(dir(bracekit))
for name, module in exports.items():
    exec(f"from bracekit import {{name}} as value")
    assert value is getattr(importlib.import_module(f"bracekit.{{module}}"), name), name
assert not hasattr(bracekit, "no_such_name")
"""
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC.parent)})
