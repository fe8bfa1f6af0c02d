"""Contract refusals: each call outside an operation's contract raises
``IfkError`` with the message that names what is wrong."""

import re

import pytest

from ifk import (
    Channel,
    Classification,
    ClsDiagram,
    ConceptLattice,
    FlatTheory,
    FormalConcept,
    Infomorphism,
    InformationSystem,
    IfkError,
    LocalLogic,
    SequentTheory,
    ShapeGraph,
    attribute_concept,
    borrowing_holds,
    flat_closure,
    flat_entails,
    identity_infomorphism,
    lattice_dot,
    meet,
    mediating_morphism,
    object_concept,
    sum_classification,
    system_leq,
    verify_channel_covers,
)
from ifk.bundle import Bundle
from ifk.logics import logic_direct_image, logic_inverse_image
from ifk.serialize import serialize_bundle
from ifk.theories import parse_sequent

C = Classification("c", ["a"], ["t1", "t2"], [("a", "t1")])
OTHER = Classification("o", ["b"], ["u"], [("b", "u")])
D = ClsDiagram(ShapeGraph({"n"}, []), {"n": C}, {})  # one node, no edges
LOOP = ShapeGraph({"n"}, [("e", "n", "n")])
EMPTY = SequentTheory(C.types, [])


def _channel(instances, types, type_map, instance_map=None):
    """A channel on ``D`` whose one leg is given, valid or not."""
    core = Classification("k", instances, types, [])
    return Channel(core, {"n": Infomorphism("leg", C, core, type_map, instance_map or {})})


def _loop_system(type_map, theory=EMPTY, **extra):
    return InformationSystem(LOOP, {"n": theory}, {"e": type_map}, **extra)


IDENTITY = {"t1": "t1", "t2": "t2"}
SWAP = {"t1": "t2", "t2": "t1"}

CASES = {
    # bundle
    "sequent literal identifier": (lambda: parse_sequent("a b |- c"),
                                   "bad identifier in sequent literal: 'a b'"),
    "serialized endpoint outside the bundle": (
        lambda: serialize_bundle(Bundle(infomorphisms={"f": identity_infomorphism(C)})),
        "classification c is not part of the bundle"),
    # diagrams
    "cover leg endpoints": (
        lambda: verify_channel_covers(Channel(OTHER, {"n": identity_infomorphism(OTHER)}), D),
        "shape mismatch: leg n endpoints are wrong"),
    "mediator class forced twice": (
        lambda: mediating_morphism(_channel([], ["k"], {"t1": "k", "t2": "k"}),
                                   sum_classification(D), D),
        "no mediator: class k is forced to two different types"),
    "mediator core type outside the legs": (
        lambda: mediating_morphism(_channel([], ["k1", "k2", "x"], {"t1": "k1", "t2": "k2"}),
                                   sum_classification(D), D),
        "core types outside every leg image: x"),
    "mediator not unique": (
        lambda: mediating_morphism(
            _channel(["z1", "z2"], ["k1", "k2"], {"t1": "k1", "t2": "k2"}, {"z1": "a", "z2": "a"}),
            sum_classification(D), D),
        "no unique mediator: instance tup:n.a has 2 compatible tuples"),
    # fca
    "lattice without the meet": (
        lambda: meet(ConceptLattice([FormalConcept(["a"], []), FormalConcept(["b"], [])]), 0, 1),
        "lattice is missing a meet/join"),
    "covers of a lattice without the meet": (
        lambda: lattice_dot(ConceptLattice([FormalConcept(["a"], ["x"]), FormalConcept(["b"], ["y"]),
                                            FormalConcept(["a", "b"], [])])),
        "lattice is missing a meet/join"),
    "object concept of an unknown instance": (lambda: object_concept(C, "ghost"),
                                              "unknown instance: ghost"),
    "attribute concept of an unknown type": (lambda: attribute_concept(C, "ghost"),
                                             "unknown type: ghost"),
    # flow
    "borrowing over another language": (
        lambda: borrowing_holds(identity_infomorphism(C), FlatTheory(["x"], []), "t1"),
        "flat theory must live over the infomorphism's source types"),
    "borrowing an unknown type": (
        lambda: borrowing_holds(identity_infomorphism(C), FlatTheory(C.types, []), "ghost"),
        "unknown type: ghost"),
    # integration
    "system node without a theory": (
        lambda: InformationSystem(ShapeGraph({"n"}, []), {}, {}), "no theory for node(s): n"),
    "system edge without a type function": (
        lambda: InformationSystem(LOOP, {"n": EMPTY}, {}), "no type function for edge(s): e"),
    "system classification for an undeclared node": (
        lambda: _loop_system(IDENTITY, node_cls={"m": C}),
        "classification for undeclared node m"),
    "classification diagram without an instance map": (
        lambda: _loop_system(IDENTITY, node_cls={"n": C}).cls_diagram(),
        "edge e has no instance map"),
    "systems over other node languages": (
        lambda: system_leq(_loop_system(IDENTITY),
                           InformationSystem(LOOP, {"n": SequentTheory(["t1"], [])},
                                             {"e": {"t1": "t1"}})),
        "systems must share their node languages"),
    "systems over other edge maps": (
        lambda: system_leq(_loop_system(IDENTITY), _loop_system(SWAP)),
        "systems must share their edge type functions"),
    # logics
    "logic over another language": (lambda: LocalLogic(C, SequentTheory(["x"], []), []),
                                    "logic theory must share the classification's types"),
    "logic with undeclared normal instances": (lambda: LocalLogic(C, EMPTY, ["ghost"]),
                                               "normal instances not declared: ghost"),
    "direct image off the source": (
        lambda: logic_direct_image(identity_infomorphism(OTHER), LocalLogic(C, EMPTY, [])),
        "logic must live on the infomorphism's source"),
    "inverse image off the target": (
        lambda: logic_inverse_image(identity_infomorphism(OTHER), LocalLogic(C, EMPTY, [])),
        "logic must live on the infomorphism's target"),
    # theories
    "flat theory members outside its types": (lambda: FlatTheory(["a"], ["b"]),
                                              "flat theory members must be drawn from its types"),
    "flat entailment of an unknown type": (
        lambda: flat_entails(C, FlatTheory(C.types, []), "ghost"), "unknown type: ghost"),
    "flat closure over another language": (
        lambda: flat_closure(C, FlatTheory(["x"], [])),
        "language mismatch: flat theory must share the classification's types"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_refusal(call, message):
    with pytest.raises(IfkError, match=re.escape(message)):
        call()
