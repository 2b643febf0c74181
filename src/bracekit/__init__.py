"""bracekit: finite skew left braces, their invariants, and Yang-Baxter solutions.

The public names below are re-exported lazily (PEP 562): ``bracekit.radical``
imports ``bracekit.invariants`` on first use, so a CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
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
    "ybe": """SetSolution check_solution derived_solution is_indecomposable_derived is_quandle
        is_trivial_solution make_solution permutation_group solution_from_brace
        solution_orbits""",
    "catalog": "BraceCatalog catalog_invariant_sweep enumerate_braces",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
