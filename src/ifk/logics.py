"""Local logics: a classification, a theory over its types, and a set of
normal instances whose intents satisfy every axiom.

Soundness quantifies over all instances, completeness only over the
normal ones.  The natural logic of a classification takes every sequent
its instances jointly satisfy as a theorem and is the sound and complete
logic over that classification, up to closure.

Logics read the classification's masks.  Each keeps only its violators,
found once in one scan over the classification's extent masks; its own
check of the normal set, soundness and normalization read them.  A
natural, restricted or normalized logic is born knowing them.

Flat theories, sets of types that entail by extents, flow along bare type
functions, and borrowing compares their entailment across an infomorphism;
the theory classification lifts every flat theory to a type.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .classification import Classification, Infomorphism, extent, intent
from .closure import _models, _sat, _theory_of_masks, _violating, theory_leq
from .errors import DEFAULT_SEQUENT_CAP, DEFAULT_THEORY_TYPE_CAP, CapExceeded, IfkError, _Value
from .flow import _require_total, direct_flow, inverse_flow
from .masks import _named
from .theories import Sequent, SequentTheory, _names, _require_within, _theory_of_index, is_consistent
from .theories import sequent_key


class LocalLogic(_Value):
    classification: Classification
    theory: SequentTheory
    normal: frozenset[str]
    _freeze = {"normal": frozenset}

    def __post_init__(self):
        if self.theory.types != self.classification.types:
            raise IfkError("logic theory must share the classification's types")
        stray = self.normal - self.classification.instances
        if stray:
            raise IfkError(f"normal instances not declared: {', '.join(sorted(stray))}")
        bad = self._violators & self.normal
        if bad:
            i = min(bad)
            holds = intent(self.classification, i)
            broken = (a for a in self.theory.axioms if not _sat(a.antecedent, a.consequent, holds))
            a = min(broken, key=sequent_key)
            raise IfkError(f"normal instance {i} violates axiom {a!r}")

    # Derived once per logic from its fields; equality and hashing read
    # the fields only.
    @cached_property
    def _violators(self) -> frozenset[str]:
        """The instances whose intent violates some axiom, found in one scan;
        the theory's type k is the classification's k-th sorted type."""
        intents, extents = self.classification._masks
        bad = _violating(self.theory, list(extents.values()), (1 << len(intents)) - 1)
        return _named(list(intents), bad)


def _logic(c: Classification, theory: SequentTheory, violators: frozenset[str]) -> LocalLogic:
    """The logic of ``theory`` on ``c`` with every instance normal but its known ``violators``."""
    l = LocalLogic.__new__(LocalLogic)
    l.__dict__["_violators"] = violators  # the constructor's check reads them: no scan
    l.__init__(c, theory, c.instances - violators)
    return l


def natural_entails(c: Classification, s: Sequent) -> bool:
    """Virtual form of the natural theory: the logic of <s> has no violators."""
    _require_within(c.types, s)
    return not LocalLogic(c, SequentTheory(c.types, frozenset([s])), frozenset())._violators


def natural_logic(c: Classification, cap: int = DEFAULT_SEQUENT_CAP) -> LocalLogic:
    """All sequents satisfied by every instance, with every instance normal.

    Charges 4^|types| candidate sequents to the cap and keeps each
    theorem as one int ``g << n | d``; above the cap, query entailment
    through ``natural_entails`` instead.
    """
    intents, extents = c._masks
    theory = _theory_of_masks(list(extents), intents.values(), cap, "natural logic")
    return _logic(c, theory, frozenset())  # every instance satisfies the theory of them all


def is_sound(l: LocalLogic) -> bool:
    """Every instance, normal or not, satisfies every axiom."""
    return not l._violators


def is_complete(l: LocalLogic) -> bool:
    """Every sequent satisfied by all normal instances is a theorem.

    Over a finite language any state set is pinned down by sequents, so
    this is equivalent to: the theory plus <s |- types - s>, which s alone
    violates, for each normal intent s has no model.
    """
    intents = l.classification._masks[0]
    n = len(l.theory.types)
    normal, full = {intents[i] for i in l.normal}, (1 << n) - 1
    masks = {*l.theory._masks, *(s << n | full ^ s for s in normal)}
    return not is_consistent(_theory_of_index(dict(l.theory._index), sorted(masks)))


def restriction(l: LocalLogic, cap: int = DEFAULT_SEQUENT_CAP) -> LocalLogic:
    """The sound logic with theory: theorems of ``l`` satisfied by every instance."""
    states = itertools.chain(l.classification._masks[0].values(), _models(l.theory))
    theory = _theory_of_masks(list(l.theory._index), states, cap, "logic restriction")
    return _logic(l.classification, theory, frozenset())


def normalize(l: LocalLogic) -> LocalLogic:
    """Grow the normal set to every instance whose intent satisfies the theory."""
    return _logic(l.classification, l.theory, l._violators)


def logic_direct_image(f: Infomorphism, l: LocalLogic) -> LocalLogic:
    """Push a logic forward: direct flow on the theory, instance-map preimage on normal."""
    if l.classification != f.source:
        raise IfkError("logic must live on the infomorphism's source")
    theory = direct_flow(f.type_map, l.theory, f.target.types)
    normal = frozenset(b for b in f.target.instances if f.instance_map[b] in l.normal)
    return LocalLogic(f.target, theory, normal)


def logic_inverse_image(
    f: Infomorphism, l: LocalLogic, cap: int = DEFAULT_SEQUENT_CAP
) -> LocalLogic:
    """Pull a logic back: materialized inverse flow, instance-map image on normal."""
    if l.classification != f.target:
        raise IfkError("logic must live on the infomorphism's target")
    theory = inverse_flow(f.type_map, l.theory, f.source.types).materialize(cap)
    normal = frozenset(f.instance_map[b] for b in l.normal)
    return LocalLogic(f.source, theory, normal)


def logic_leq(l1: LocalLogic, l2: LocalLogic) -> bool:
    """Theories ordered by entailment, normal sets by reverse containment."""
    if l1.classification != l2.classification:
        raise IfkError("logics are ordered over a shared classification")
    return theory_leq(l1.theory, l2.theory) and l1.normal >= l2.normal


# ---------------------------------------------------------------------------
# flat theories and the theory classification

class FlatTheory(_Value):
    types: frozenset[str]
    members: frozenset[str]
    _freeze = {"types": lambda types: _names(types, "language"),
               "members": lambda members: _names(members, "flat theory members")}

    def __post_init__(self):
        if not self.members <= self.types:
            raise IfkError("flat theory members must be drawn from its types")


def flat_entails(c: Classification, ft: FlatTheory, typ: str) -> bool:
    """Every instance classified by the whole flat theory is classified by ``typ``."""
    if ft.types != c.types:
        raise IfkError("language mismatch: flat theory must share the classification's types")
    if typ not in c.types:
        raise IfkError(f"unknown type: {typ}")
    return extent(c, ft.members) <= extent(c, [typ])


def flat_closure(c: Classification, ft: FlatTheory) -> FlatTheory:
    if ft.types != c.types:
        raise IfkError("language mismatch: flat theory must share the classification's types")
    base = extent(c, ft.members)
    members = frozenset(t for t in c.types if base <= extent(c, [t]))
    return FlatTheory(c.types, members)


def flat_direct_flow(
    type_map: Mapping[str, str], ft: FlatTheory, target_types: Iterable[str]
) -> FlatTheory:
    target_types = frozenset(target_types)
    _require_total(type_map, ft.types, target_types)
    return FlatTheory(target_types, frozenset(type_map[t] for t in ft.members))


def flat_inverse_flow(
    c_target: Classification,
    type_map: Mapping[str, str],
    ft_target: FlatTheory,
    source_types: Iterable[str],
) -> FlatTheory:
    """Pull back the flat closure of the target theory along the type map."""
    source_types = frozenset(source_types)
    _require_total(type_map, source_types, c_target.types)
    closed = flat_closure(c_target, ft_target)
    return FlatTheory(
        source_types, frozenset(t for t in source_types if type_map[t] in closed.members)
    )


def borrowing_holds(f: Infomorphism, ft: FlatTheory, typ: str) -> bool:
    """Source-side entailment agrees with target-side entailment of the image."""
    if ft.types != f.source.types:
        raise IfkError("flat theory must live over the infomorphism's source types")
    if typ not in f.source.types:
        raise IfkError(f"unknown type: {typ}")
    at_source = flat_entails(f.source, ft, typ)
    image = flat_direct_flow(f.type_map, ft, f.target.types)
    at_target = flat_entails(f.target, image, f.type_map[typ])
    return at_source == at_target


def theory_type_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def lift_to_theory_classification(
    c: Classification, cap: int = DEFAULT_THEORY_TYPE_CAP
) -> Classification:
    """Replace types by all flat theories (type subsets) of ``c``.

    An instance falls under a theory-type exactly when the subset is
    contained in its intent.  The 2^|types| blow-up is guarded by ``cap``.
    """
    required = 2 ** len(c.types)
    if required > cap:
        raise CapExceeded("theory classification", required, cap)
    intents, extents = c._masks
    subsets = [()]  # subsets[s]: the types of mask s, in sorted order
    for t in extents:
        subsets += [s + (t,) for s in subsets]
    names = [theory_type_name(s) for s in subsets]
    if len(set(names)) != required:
        raise IfkError("theory-type name collision; rename types")
    return Classification(
        name=f"{c.name}.theories",
        instances=c.instances,
        types=frozenset(names),
        incidence=frozenset(
            (i, names[s]) for i, x in intents.items() for s in range(required) if s & ~x == 0
        ),
    )
