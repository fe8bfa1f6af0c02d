"""Local logics: a classification, a theory over its types, and a set of
normal instances whose intents satisfy every axiom.

Soundness quantifies over all instances, completeness only over the
normal ones.  The natural logic of a classification takes every sequent
its instances jointly satisfy as a theorem and is the sound and complete
logic over that classification, up to closure.

Logics read the classification's masks.  Each keeps only its violators,
found once in one scan over the classification's extent masks; its own
check of the normal set, soundness and normalization read them, and the
normalized logic shares them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .classification import Classification, Infomorphism, _named, _reduce_fields, intent
from .errors import DEFAULT_SEQUENT_CAP, IfkError
from .flow import direct_flow, inverse_flow
from .theories import (
    Sequent,
    SequentTheory,
    _models,
    _require_within,
    _sat,
    _theory_of_masks,
    _violating,
    sequent_key,
    theory_leq,
)


@dataclass(frozen=True)
class LocalLogic:
    classification: Classification
    theory: SequentTheory
    normal: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "normal", frozenset(self.normal))
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

    __reduce__ = _reduce_fields

    # Derived once per logic from its fields; equality and hashing read
    # the fields only.
    @cached_property
    def _violators(self) -> frozenset[str]:
        """The instances whose intent violates some axiom, found in one scan;
        the theory's type k is the classification's k-th sorted type."""
        intents, extents = self.classification._masks
        bad = _violating(self.theory, list(extents.values()), (1 << len(intents)) - 1)
        return _named(list(intents), bad)


def natural_entails(c: Classification, s: Sequent) -> bool:
    """Virtual form of the natural theory: the logic of <s> has no violators."""
    _require_within(c.types, s)
    return not LocalLogic(c, SequentTheory(c.types, frozenset([s])), frozenset())._violators


def natural_logic(c: Classification, cap: int = DEFAULT_SEQUENT_CAP) -> LocalLogic:
    """All sequents satisfied by every instance, with every instance normal.

    Materializes 4^|types| candidate sequents; above the cap, query
    entailment through ``natural_entails`` instead.
    """
    intents, extents = c._masks
    theory = _theory_of_masks(list(extents), intents.values(), cap, "natural logic")
    return LocalLogic(c, theory, c.instances)


def is_sound(l: LocalLogic) -> bool:
    """Every instance, normal or not, satisfies every axiom."""
    return not l._violators


def is_complete(l: LocalLogic) -> bool:
    """Every sequent satisfied by all normal instances is a theorem.

    Over a finite language any state set is pinned down by sequents, so
    this is equivalent to: every state satisfying the theory is the
    intent of some normal instance.
    """
    intents = l.classification._masks[0]
    normal_states = {intents[i] for i in l.normal}
    return all(x in normal_states for x in _models(l.theory))


def restriction(l: LocalLogic, cap: int = DEFAULT_SEQUENT_CAP) -> LocalLogic:
    """The sound logic with theory: theorems of ``l`` satisfied by every instance."""
    states = itertools.chain(l.classification._masks[0].values(), _models(l.theory))
    theory = _theory_of_masks(list(l.theory._index), states, cap, "logic restriction")
    return LocalLogic(l.classification, theory, l.classification.instances)


def normalize(l: LocalLogic) -> LocalLogic:
    """Grow the normal set to every instance whose intent satisfies the theory."""
    c = l.classification
    # the same violators: the constructor's check reads them without a second scan
    out = LocalLogic.__new__(LocalLogic)
    out.__dict__["_violators"] = l._violators
    out.__init__(c, l.theory, c.instances - l._violators)
    return out


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
