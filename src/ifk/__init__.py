"""ifk: classifications, infomorphisms, sequent theories, information
flow, colimit channels, semantic integration and concept lattices, all
at finite scale.

Exports load lazily (PEP 562): ``import ifk`` imports no submodule, and
each name imports its module on first access, so a caller pays only for
the constructions it uses.  ``from ifk import *`` loads them all.
"""

import importlib

# submodule -> the names it exports
_EXPORTS = {
    "classification": "Classification Infomorphism check_infomorphism validate_classification",
    "closure": "close",
    "colimit": "LanguageDiagram ShapeGraph colimit_language",
    "diagrams": "Channel ClsDiagram sum_classification",
    "errors": "BundleError CapExceeded IfkError ValidationResult",
    "fca": "ConceptLattice FormalConcept concepts join lattice lattice_dot meet",
    "flow": "InverseFlowTheory check_theory_morphism direct_flow inverse_flow",
    "integration": "IntegrationResult integrate",
    "logics": """FlatTheory LocalLogic analogy attribute_concept borrowing_holds bottom_theory
        compose_infomorphisms contract derive expand extent flat_closure flat_direct_flow
        flat_entails flat_inverse_flow identity_infomorphism instance_leq intent is_complete
        is_sound lift_to_theory_classification logic_direct_image logic_inverse_image logic_leq
        mediating_morphism natural_entails natural_logic normalize object_concept restriction revise
        system_entails system_entails_at system_leq theory_leq top_theory verify_channel_covers""",
    "oracles": "entails_by_enumeration is_consistent_by_enumeration state_satisfies",
    "systems": """InformationSystem is_monocosmic is_pointwise_consistent is_polycosmic
        system_verdict validate_system""",
    "theories": "Sequent SequentTheory entails is_consistent",
}

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
