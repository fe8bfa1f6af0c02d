"""ifk: classifications, infomorphisms, sequent theories, information
flow, colimit channels, semantic integration and concept lattices, all
at finite scale."""

from .classification import (
    Classification,
    Infomorphism,
    check_infomorphism,
    compose_infomorphisms,
    extent,
    identity_infomorphism,
    instance_leq,
    intent,
    lift_to_theory_classification,
    validate_classification,
)
from .diagrams import (
    Channel,
    ClsDiagram,
    LanguageDiagram,
    ShapeGraph,
    colimit_language,
    mediating_morphism,
    sum_classification,
    verify_channel_covers,
)
from .errors import BundleError, CapExceeded, IfkError, ValidationResult
from .fca import (
    ConceptLattice,
    FormalConcept,
    attribute_concept,
    concepts,
    derive,
    join,
    lattice,
    lattice_dot,
    meet,
    object_concept,
)
from .flow import (
    InverseFlowTheory,
    borrowing_holds,
    check_theory_morphism,
    direct_flow,
    flat_direct_flow,
    flat_inverse_flow,
    inverse_flow,
)
from .integration import (
    InformationSystem,
    IntegrationResult,
    integrate,
    is_monocosmic,
    is_pointwise_consistent,
    is_polycosmic,
    system_entails,
    system_entails_at,
    system_leq,
    system_verdict,
    validate_system,
)
from .logics import (
    LocalLogic,
    is_complete,
    is_sound,
    logic_direct_image,
    logic_inverse_image,
    logic_leq,
    natural_entails,
    natural_logic,
    normalize,
    restriction,
)
from .theories import (
    FlatTheory,
    Sequent,
    SequentTheory,
    analogy,
    bottom_theory,
    close,
    contract,
    entails,
    entails_by_enumeration,
    expand,
    flat_closure,
    flat_entails,
    is_consistent,
    is_consistent_by_enumeration,
    revise,
    state_satisfies,
    theory_leq,
    top_theory,
)

__version__ = "0.1.0"
