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

Here too is what no command runs, so that none compiles it: the order,
bounds and revisions of theories; intents, extents, derivation, concepts
of one object or attribute, identities, composition and the instance
order; the cover check and mediators of channels; and system orders.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .classification import Classification, Infomorphism
from .closure import _models, _theory_of_masks, _violating
from .errors import DEFAULT_SEQUENT_CAP, DEFAULT_THEORY_TYPE_CAP, CapExceeded, IfkError, ValidationResult
from .errors import _Value
from .fca import FormalConcept
from .flow import _flowed, _require_total, check_theory_morphism, direct_flow, inverse_flow
from .masks import _named, _positions
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
            axioms = self.theory.axioms
            broken = (a for a in axioms if a.antecedent <= holds and a.consequent.isdisjoint(holds))
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


# ---------------------------------------------------------------------------
# what no command runs, so that none compiles it

def theory_leq(t1: SequentTheory, t2: SequentTheory) -> bool:
    """``t1`` is at or below ``t2``: every axiom of ``t2`` is a theorem of ``t1``."""
    if t1.types != t2.types:
        raise IfkError("language mismatch: theories are ordered over a shared language")
    # t2's masks are over t1's index.  An axiom of t2 with an axiom of t2
    # one type smaller on either side (one bit fewer in its int) follows
    # from that one by weakening; descending so ends at an axiom that is
    # checked.
    masks, n = t2._masks, len(t2.types)
    held, low = set(masks), (1 << n) - 1
    return not any(
        t1._compiled.refutes(p >> n, p & low)
        for p in masks
        if not p >> n & p  # g & d: a tautology holds in every theory
        and not any(p ^ (1 << k) in held for k in _positions(p))
    )


def top_theory(types: Iterable[str]) -> SequentTheory:
    """The empty theory; its closure is exactly the tautologies."""
    return SequentTheory(frozenset(types), frozenset())


def bottom_theory(types: Iterable[str]) -> SequentTheory:
    """The inconsistent theory; it entails every sequent over the language."""
    return SequentTheory(frozenset(types), frozenset([Sequent(frozenset(), frozenset())]))


def contract(t: SequentTheory, axioms: Iterable[Sequent]) -> SequentTheory:
    axioms = frozenset(axioms)
    missing = axioms - t.axioms
    if missing:
        raise IfkError(
            "unknown axiom(s): " + ", ".join(repr(a) for a in sorted(missing, key=sequent_key))
        )
    return SequentTheory(t.types, t.axioms - axioms)


def expand(t: SequentTheory, axioms: Iterable[Sequent]) -> SequentTheory:
    return SequentTheory(t.types, t.axioms | frozenset(axioms))


def revise(t: SequentTheory, delete: Iterable[Sequent], add: Iterable[Sequent]) -> SequentTheory:
    return expand(contract(t, delete), add)


def analogy(t: SequentTheory, renaming: Mapping[str, str]) -> SequentTheory:
    """Systematic renaming of the language along a bijection: the flow along it."""
    if frozenset(renaming) != t.types:
        raise IfkError("renaming must be defined on exactly the language")
    if len(set(renaming.values())) != len(renaming):
        raise IfkError("renaming is not a bijection")
    return _flowed(renaming.values(), [(t, renaming)])


def intent(c: Classification, i: str) -> frozenset[str]:
    """All types incident with instance ``i``."""
    if i not in c.instances:
        raise IfkError(f"unknown instance: {i}")
    intents, extents = c._masks
    return _named(list(extents), intents[i])


def extent(c: Classification, types: Iterable[str]) -> frozenset[str]:
    """All instances incident with every type in ``types``."""
    types = frozenset(types)
    unknown = types - c.types
    if unknown:
        raise IfkError(f"unknown type(s): {', '.join(sorted(unknown))}")
    intents, extents = c._masks
    m = (1 << len(intents)) - 1
    for t in types:
        m &= extents[t]
    return _named(list(intents), m)


def derive(c: Classification, side: str, s: Iterable[str]) -> frozenset[str]:
    """Common types of an instance set (side "instances"), or common instances of a type set ("types")."""
    s = frozenset(s)
    if side == "instances":
        unknown = s - c.instances
        if unknown:
            raise IfkError(f"unknown instance(s): {', '.join(sorted(unknown))}")
        intents, extents = c._masks
        m = (1 << len(extents)) - 1
        for i in s:
            m &= intents[i]
        return _named(list(extents), m)
    if side == "types":
        return extent(c, s)
    raise IfkError(f"side must be 'instances' or 'types', got {side!r}")


def object_concept(c: Classification, i: str) -> FormalConcept:
    if i not in c.instances:
        raise IfkError(f"unknown instance: {i}")
    intent_ = derive(c, "instances", [i])
    return FormalConcept(derive(c, "types", intent_), intent_)


def attribute_concept(c: Classification, t: str) -> FormalConcept:
    if t not in c.types:
        raise IfkError(f"unknown type: {t}")
    extent_ = derive(c, "types", [t])
    return FormalConcept(extent_, derive(c, "instances", extent_))


def identity_infomorphism(c: Classification) -> Infomorphism:
    return Infomorphism(
        name=f"id:{c.name}",
        source=c,
        target=c,
        type_map={t: t for t in c.types},
        instance_map={i: i for i in c.instances},
    )


def compose_infomorphisms(f: Infomorphism, g: Infomorphism) -> Infomorphism:
    """Composite of ``f : A -> B`` and ``g : B -> C``."""
    if f.target != g.source:
        raise IfkError(
            f"endpoint mismatch: {f.name} ends at {f.target.name}, "
            f"{g.name} starts at {g.source.name}"
        )
    return Infomorphism(
        name=f"{f.name};{g.name}",
        source=f.source,
        target=g.target,
        type_map={t: g.type_map[v] for t, v in f.type_map.items()},
        instance_map={c: f.instance_map[g.instance_map[c]] for c in g.instance_map},
    )


def instance_leq(c: Classification, i1: str, i2: str) -> bool:
    """``i1`` specializes ``i2``: every type of ``i2`` also holds of ``i1``."""
    return intent(c, i1) >= intent(c, i2)


def verify_channel_covers(ch: Channel, d: ClsDiagram) -> ValidationResult:
    """Legs are valid infomorphisms into the core and commute with every edge."""
    if set(ch.legs) != set(d.shape.nodes):
        raise IfkError("shape mismatch: channel legs do not match the diagram nodes")
    for n in sorted(d.shape.nodes):
        leg = ch.legs[n]
        if leg.source != d.node_cls[n] or leg.target != ch.core:
            raise IfkError(f"shape mismatch: leg {n} endpoints are wrong")
    defects = []
    broken = set()
    for n in sorted(d.shape.nodes):
        try:
            result = ch.legs[n]._invariance
        except IfkError as exc:
            defects.append(("leg", n, str(exc)))
            broken.add(n)
            continue
        defects.extend(("leg", n, viol) for viol in result.defects)
    for e, src, dst in sorted(d.shape.edges):
        if src in broken or dst in broken:
            continue
        edge = d.edge_info[e]
        for t in sorted(d.node_cls[src].types):
            if ch.legs[dst].type_map[edge.type_map[t]] != ch.legs[src].type_map[t]:
                defects.append(("edge", e, "type", t))
        for z in sorted(ch.core.instances):
            if edge.instance_map[ch.legs[dst].instance_map[z]] != ch.legs[src].instance_map[z]:
                defects.append(("edge", e, "instance", z))
    return ValidationResult.from_defects(defects)


def mediating_morphism(ch: Channel, other: Channel, d: ClsDiagram) -> Infomorphism:
    """The unique infomorphism from the sum core through which ``other`` factors.

    Types are forced classwise by the legs of ``other``; instances are
    forced componentwise because the sum legs project tuples.
    """
    cover = verify_channel_covers(other, d)
    if not cover.ok:
        raise IfkError(f"channel does not cover the diagram: {cover.defects[0]}")

    type_map: dict[str, str] = {}
    for n in sorted(d.shape.nodes):
        for t in sorted(d.node_cls[n].types):
            cls = ch.legs[n].type_map[t]
            want = other.legs[n].type_map[t]
            if type_map.get(cls, want) != want:
                raise IfkError(f"no mediator: class {cls} is forced to two different types")
            type_map[cls] = want
    uncovered = ch.core.types - type_map.keys()
    if uncovered:
        raise IfkError(
            f"core types outside every leg image: {', '.join(sorted(uncovered))}"
        )

    nodes = sorted(d.shape.nodes)
    tuples: dict[tuple[str, ...], list[str]] = {}
    for z in sorted(ch.core.instances):
        tuples.setdefault(tuple(ch.legs[n].instance_map[z] for n in nodes), []).append(z)
    instance_map: dict[str, str] = {}
    for b in sorted(other.core.instances):
        matches = tuples.get(tuple(other.legs[n].instance_map[b] for n in nodes), [])
        if len(matches) != 1:
            raise IfkError(
                f"no unique mediator: instance {b} has {len(matches)} compatible tuples"
            )
        instance_map[b] = matches[0]
    return Infomorphism(
        name=f"mediator:{other.core.name}",
        source=ch.core,
        target=other.core,
        type_map=type_map,
        instance_map=instance_map,
    )


def system_entails_at(s: InformationSystem, node: str, q: Sequent) -> bool:
    """The sum theory entails the image of ``q`` at ``node``."""
    if node not in s.shape.nodes:
        raise IfkError(f"unknown node: {node}")
    outside = q.types() - s.node_theory[node].types
    if outside:
        raise IfkError(f"sequent uses types outside the node language: {', '.join(sorted(outside))}")
    return s._sum.handles[node].entails(q)


def _require_comparable(s1: InformationSystem, s2: InformationSystem) -> None:
    if s1.shape != s2.shape:
        raise IfkError("systems must share their shape")
    if {n: t.types for n, t in s1.node_theory.items()} != {
        n: t.types for n, t in s2.node_theory.items()
    }:
        raise IfkError("systems must share their node languages")
    if s1.edge_type_map != s2.edge_type_map:
        raise IfkError("systems must share their edge type functions")


def system_leq(s1: InformationSystem, s2: InformationSystem) -> bool:
    """Pointwise entailment order on systems over one indexing shape."""
    _require_comparable(s1, s2)
    return all(
        theory_leq(s1.node_theory[n], s2.node_theory[n]) for n in s1.shape.nodes
    )


def system_entails(s1: InformationSystem, s2: InformationSystem) -> bool:
    """The closure of ``s1`` lies pointwise below ``s2``."""
    _require_comparable(s1, s2)
    colim, theory, _ = s1._sum
    return all(check_theory_morphism(colim.cocone[n], s2.node_theory[n], theory) for n in s1.shape.nodes)
