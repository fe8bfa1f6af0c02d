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
    "classification": """Classification Infomorphism check_infomorphism
        compose_infomorphisms extent identity_infomorphism instance_leq intent
        validate_classification""",
    "closure": """analogy bottom_theory close contract entails_by_enumeration expand
        is_consistent_by_enumeration revise state_satisfies theory_leq top_theory""",
    "colimit": "LanguageDiagram ShapeGraph colimit_language",
    "diagrams": "Channel ClsDiagram mediating_morphism sum_classification verify_channel_covers",
    "errors": "BundleError CapExceeded IfkError ValidationResult",
    "fca": """ConceptLattice FormalConcept attribute_concept concepts derive join
        lattice lattice_dot meet object_concept""",
    "flow": "InverseFlowTheory check_theory_morphism direct_flow inverse_flow",
    "integration": "IntegrationResult integrate system_entails system_entails_at system_leq",
    "logics": """FlatTheory LocalLogic borrowing_holds flat_closure flat_direct_flow
        flat_entails flat_inverse_flow is_complete is_sound lift_to_theory_classification
        logic_direct_image logic_inverse_image logic_leq natural_entails natural_logic
        normalize restriction""",
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
