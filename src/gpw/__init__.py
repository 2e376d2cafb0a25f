"""Workbench for finite ordered Gamma-semigroups.

A structure is a finite carrier 0..n-1 with k labelled binary operation
tables and a compatible partial order.  The package computes ideals,
filters, the canonical filter-kernel partitions, regularity predicates
and simple-component decompositions, checks a catalogue of claims on any
given structure, and enumerates or samples whole slices of the structure
space to hunt for counterexamples.

`import gpw` loads no submodule.  Each exported name below is imported
from its module on first access (PEP 562) and then kept here, so a
process compiles only the modules it uses; `from gpw import explore`
imports a submodule as usual.
"""

__version__ = "0.1.0"

# every exported name, by the module that defines it
_EXPORTS = {
    "core": ("InputError", "OwnerError", "PreconditionError", "Structure", "Subset",
             "ValidationReport", "downset", "upset", "gamma_product", "word_product",
             "validate"),
    "gpsjson": ("load", "loads", "dump", "dumps", "digest"),
    "fixtures": ("singleton", "min_semilattice", "left_zero", "right_zero", "constant_zero"),
    "ideals": ("IdealKind", "is_ideal", "principal", "all_ideals", "is_filter",
               "all_filters", "filter_gen", "is_prime", "is_semiprime",
               "is_weakly_prime", "is_idempotent_subset", "ideals_form_chain"),
    "relations": ("Partition", "relation_partition", "is_congruence",
                  "is_semilattice_congruence", "is_complete_semilattice_congruence",
                  "all_partitions"),
    "analysis": ("is_intra_regular", "is_intra_regular_legacy", "is_left_regular",
                 "is_left_regular_legacy", "is_right_regular", "is_right_regular_legacy",
                 "is_left_duo", "is_right_duo", "is_subsemigroup", "all_subsemigroups",
                 "is_relative_ideal", "relative_ideals", "is_simple", "is_left_simple",
                 "is_right_simple", "ClassVerdict", "DecompositionReport", "decompose",
                 "maximal_simple_subsemigroups", "PREDICATES"),
    "harness": ("THEOREM_IDS", "TheoremVerdict", "check", "check_all"),
    "explore": ("EnumSpec", "SamplingBudgetError", "enumerate_structures", "partial_orders",
                "random_structure", "parse_expr", "eval_expr", "search"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return globals().setdefault(name, getattr(import_module(f"{__name__}.{module}"), name))


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
