"""bracekit: finite skew left braces, their invariants, and Yang-Baxter solutions."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    BoundExceededError,
    FiniteGroup,
    GroupAxiomError,
    all_normal_subgroups,
    automorphism_group,
    center,
    commutator_subgroup,
    normal_closure,
    quotient_group,
    subgroup_closure,
    verify_group_axioms,
)
from .braces import (  # noqa: F401
    BraceAxiomError,
    BraceMorphism,
    CheckReport,
    SkewBrace,
    brace_automorphism_group,
    brace_isomorphic,
    check_star_identities,
    direct_product,
    semidirect_product,
    trivial_brace,
    verify_brace,
    zero_brace,
)
from .ideals import (  # noqa: F401
    a2,
    all_ideals,
    annihilator,
    fix,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_prime_ideal,
    is_small_ideal,
    maximal_ideals,
    quotient_brace,
    socle,
    star_product,
    sub_brace,
)
from .invariants import (  # noqa: F401
    Decomposition,
    RadicalReport,
    SolvableSeries,
    WeightCertificate,
    is_perfect,
    is_simple,
    is_solvable,
    radical,
    schur_embedding,
    solvable_series,
    theorem_checks,
    wedderburn_decompose,
    weight,
)
from .ybe import (  # noqa: F401
    SetSolution,
    check_solution,
    derived_solution,
    is_indecomposable_derived,
    is_quandle,
    is_trivial_solution,
    make_solution,
    permutation_group,
    solution_from_brace,
    solution_orbits,
)
from .catalog import BraceCatalog, catalog_invariant_sweep, enumerate_braces  # noqa: F401
