"""grzlab: a finite-model workbench for Heyting and Grzegorczyk algebras.

Finite Heyting algebras and interior algebras with explicit operation
tables, the open-algebra and Boolean-extension passages between them,
the structural characterization of the Grzegorczyk inequality, bounded
free algebras, and a small universal-logic layer for evaluating rules
on catalogs of finite members.
"""

from .bridge import (
    blok_esakia_catalog_check,
    boolean_extension,
    box_hom_extension,
    box_hom_to_BO,
    class_membership,
    extend_hom,
    finite_blok_check,
    open_algebra,
    rho_catalog,
    sigma_catalog,
)
from .catalog import (
    AlgebraCatalog,
    builtin_catalog,
    enumerate_heyting,
    enumerate_interior,
    enumerate_posets,
    enumerate_topologies,
    grz_members,
    heyting_catalog,
    interior_catalog,
)
from .errors import CapExceeded, GrzlabError, InputError, InternalCheckError, ParseError
from .finlat import (
    FinitePoset,
    HeytingAlgebra,
    HeytingHom,
    chain_heyting,
    chain_poset,
    downset_heyting,
    heyting_hom_search,
    heyting_product,
    heyting_quotient,
    trivial_heyting,
    validate_heyting,
)
from .freealg import (
    FreeAlgebra,
    completeness_report_k,
    free_algebra,
    sigma_free_checks,
    verify_ump,
    weakly_admissible_k,
)
from .modal import (
    ATOM_CAP,
    BlokResult,
    BooleanSubalgebra,
    Filter,
    Homomorphism,
    ModalAlgebra,
    blok_characterization,
    complex_algebra,
    generated_subalgebra,
    hom_search,
    make_standard,
    modal_product,
    open_filters,
    quotient,
    stable_witness_construct,
    trivial_modal,
    validate_modal,
)
from .ulogic import (
    Rule,
    UniversalSentence,
    catalog_validates,
    eval_sentence,
    grz_formula,
    parse,
    parse_formula,
    parse_rule,
    translate,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the evaluation backend, recorded by perfbench: always "numpy"."""
    return "numpy"


__all__ = [
    "ATOM_CAP",
    "AlgebraCatalog",
    "BlokResult",
    "BooleanSubalgebra",
    "CapExceeded",
    "Filter",
    "FinitePoset",
    "FreeAlgebra",
    "GrzlabError",
    "HeytingAlgebra",
    "HeytingHom",
    "Homomorphism",
    "InputError",
    "InternalCheckError",
    "ModalAlgebra",
    "ParseError",
    "Rule",
    "UniversalSentence",
    "backend_name",
    "blok_characterization",
    "blok_esakia_catalog_check",
    "boolean_extension",
    "box_hom_extension",
    "box_hom_to_BO",
    "builtin_catalog",
    "catalog_validates",
    "chain_heyting",
    "chain_poset",
    "class_membership",
    "complex_algebra",
    "completeness_report_k",
    "downset_heyting",
    "enumerate_heyting",
    "enumerate_interior",
    "enumerate_posets",
    "enumerate_topologies",
    "eval_sentence",
    "extend_hom",
    "finite_blok_check",
    "free_algebra",
    "generated_subalgebra",
    "grz_formula",
    "grz_members",
    "heyting_catalog",
    "heyting_hom_search",
    "heyting_product",
    "heyting_quotient",
    "hom_search",
    "interior_catalog",
    "make_standard",
    "modal_product",
    "open_algebra",
    "open_filters",
    "parse",
    "parse_formula",
    "parse_rule",
    "quotient",
    "rho_catalog",
    "sigma_catalog",
    "sigma_free_checks",
    "stable_witness_construct",
    "translate",
    "trivial_heyting",
    "trivial_modal",
    "validate_heyting",
    "validate_modal",
    "verify_ump",
    "weakly_admissible_k",
]
