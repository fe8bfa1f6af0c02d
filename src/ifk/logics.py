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
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .classification import Classification, Infomorphism, intent
from .closure import _models, _sat, _theory_of_masks, _violating, theory_leq
from .errors import DEFAULT_SEQUENT_CAP, IfkError, _Value
from .flow import direct_flow, inverse_flow
from .masks import _named
from .theories import Sequent, SequentTheory, _require_within, _theory_of_index, is_consistent, sequent_key


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
