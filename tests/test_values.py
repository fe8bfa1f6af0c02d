"""The value rule: every value freezes what it is given.

Each value class is built from lists, sets and dicts (nested ones
included); mutating those inputs afterwards must leave the value as it
was.  Set fields come out as frozensets, sequence fields as tuples and
map fields as read-only maps, as each field's annotation says.  Every
value class in the package derives the one value base type, refuses
assignment, and builds, compares, hashes, prints and copies itself from
that type's field table.
"""

import copy
import importlib
import pickle
import pkgutil
from types import MappingProxyType
from typing import Mapping

import pytest

import ifk
from ifk import (
    Channel,
    Classification,
    ClsDiagram,
    ConceptLattice,
    FlatTheory,
    FormalConcept,
    Infomorphism,
    InformationSystem,
    IntegrationResult,
    InverseFlowTheory,
    LanguageDiagram,
    LocalLogic,
    Sequent,
    SequentTheory,
    ShapeGraph,
    ValidationResult,
    identity_infomorphism,
)
from ifk.bundle import Bundle
from ifk.diagrams import LanguageColimit
from ifk.errors import _Value


def _cls():
    return Classification("c", ["a", "b"], ["t"], [("a", "t")])


def _theory():
    return SequentTheory(["t"], [Sequent(["t"], [])])


def _shape():
    return ShapeGraph({"n", "m"}, [["e", "n", "m"]])


# Each builder makes its value from fresh mutable inputs and returns the
# value with a function that mutates every one of those inputs.

def validation_result():
    defects = ["one"]
    return ValidationResult(False, defects), lambda: defects.append("two")


def classification():
    instances, types, incidence = ["a"], {"t"}, [("a", "t")]

    def mutate():
        instances.append("b")
        types.add("u")
        incidence.append(("a", "u"))

    return Classification("c", instances, types, incidence), mutate


def infomorphism():
    c = _cls()
    type_map, instance_map = {"t": "t"}, {"a": "a", "b": "b"}

    def mutate():
        type_map["t"] = "x"
        instance_map.clear()

    return Infomorphism("f", c, c, type_map, instance_map), mutate


def sequent():
    ant, con = ["a"], {"b"}

    def mutate():
        ant.append("c")
        con.add("d")

    return Sequent(ant, con), mutate


def sequent_theory():
    types, axioms = {"a", "b"}, [Sequent({"a"}, {"b"})]

    def mutate():
        types.add("c")
        axioms.append(Sequent({"b"}, {"a"}))

    return SequentTheory(types, axioms), mutate


def flat_theory():
    types, members = ["a", "b"], {"a"}

    def mutate():
        types.append("c")
        members.add("b")

    return FlatTheory(types, members), mutate


def shape_graph():
    nodes, edge = {"n", "m"}, ["e", "n", "m"]
    edges = [edge]

    def mutate():
        nodes.add("k")
        edge[0] = "x"
        edges.append(["f", "m", "n"])

    return ShapeGraph(nodes, edges), mutate


def language_diagram():
    n_types, e_map = ["t"], {"t": "u"}
    node_language, edge_map = {"n": n_types, "m": {"u"}}, {"e": e_map}

    def mutate():
        n_types.append("v")
        node_language["k"] = ["w"]
        e_map["t"] = "x"
        edge_map["f"] = {}

    return LanguageDiagram(_shape(), node_language, edge_map), mutate


def language_colimit():
    types, leg, group = {"t"}, {"t": "t"}, [("n", "t")]
    cocone, members = {"n": leg}, {"t": group}

    def mutate():
        types.add("u")
        leg["u"] = "u"
        cocone["m"] = {}
        group.append(("m", "t"))
        members["u"] = []

    return LanguageColimit(types, cocone, members), mutate


def cls_diagram():
    c = _cls()
    node_cls, edge_info = {"n": c, "m": c}, {"e": identity_infomorphism(c)}

    def mutate():
        node_cls.clear()
        edge_info.clear()

    return ClsDiagram(_shape(), node_cls, edge_info), mutate


def channel():
    c = _cls()
    legs = {"n": identity_infomorphism(c)}
    return Channel(c, legs), legs.clear


def formal_concept():
    ext, inn = ["a"], {"t"}

    def mutate():
        ext.append("b")
        inn.add("u")

    return FormalConcept(ext, inn), mutate


def concept_lattice():
    concepts = [FormalConcept(["a"], ["t"])]
    return ConceptLattice(concepts), lambda: concepts.append(FormalConcept([], []))


def inverse_flow_theory():
    type_map, types = {"s": "t"}, ["s"]

    def mutate():
        type_map["s"] = "x"
        types.append("z")

    return InverseFlowTheory(type_map, _theory(), types), mutate


def information_system():
    t = _theory()
    e_types, e_instances = {"t": "t"}, {"a": "a", "b": "b"}
    node_theory, edge_type_map = {"n": t, "m": t}, {"e": e_types}
    node_cls, edge_instance_map = {"n": _cls(), "m": _cls()}, {"e": e_instances}

    def mutate():
        e_types["t"] = "x"
        e_instances.clear()
        for m in (node_theory, edge_type_map, node_cls, edge_instance_map):
            m.clear()

    system = InformationSystem(_shape(), node_theory, edge_type_map, node_cls, edge_instance_map)
    return system, mutate


def integration_result():
    t = _theory()
    handle = InverseFlowTheory({"t": "t"}, t, ["t"])
    sum_types, leg, group, found = {"t"}, {"t": "t"}, [("n", "t")], [Sequent([], ["t"])]
    cocone, members, handles, deltas = {"n": leg}, {"t": group}, {"n": handle}, {"n": found}

    def mutate():
        sum_types.add("u")
        leg["t"] = "x"
        group.append(("m", "t"))
        found.append(Sequent(["t"], []))
        for m in (cocone, members, handles, deltas):
            m.clear()

    result = IntegrationResult(sum_types, cocone, members, t, handles, deltas, "monocosmic")
    return result, mutate


def local_logic():
    normal = ["a"]
    return LocalLogic(_cls(), SequentTheory(["t"], []), normal), lambda: normal.append("b")


def bundle():
    c = _cls()
    tables = {"classifications": {"c": c}, "theories": {"t": _theory()},
              "infomorphisms": {"f": identity_infomorphism(c)}, "systems": {}}

    def mutate():
        for table in tables.values():
            table["x"] = None

    return Bundle(**tables), mutate


BUILDERS = [
    validation_result, classification, infomorphism, sequent, sequent_theory, flat_theory,
    shape_graph, language_diagram, language_colimit, cls_diagram, channel, formal_concept,
    concept_lattice, inverse_flow_theory, information_system, integration_result,
    local_logic, bundle,
]


def _snapshot(x):
    """An immutable rendering of ``x`` that compares by content, values
    included (some compare by identity)."""
    if isinstance(x, _Value):
        return type(x).__name__, tuple((name, _snapshot(getattr(x, name))) for name in x._fields)
    if isinstance(x, Mapping):
        return "map", tuple(sorted((k, _snapshot(v)) for k, v in x.items()))
    if isinstance(x, (set, frozenset)):
        return "set", frozenset(map(_snapshot, x))
    if isinstance(x, (list, tuple)):
        return "seq", tuple(map(_snapshot, x))
    return x


def _check_shape(value, annotation: str, where: str) -> None:
    """``value`` has the frozen shape its annotation names, recursively."""
    annotation = annotation.removesuffix(" | None")
    if annotation.startswith("frozenset"):
        assert type(value) is frozenset, where
    elif annotation.startswith("tuple"):
        assert type(value) is tuple, where
    elif annotation.startswith("Mapping["):
        assert type(value) is MappingProxyType, where
        inner = annotation[len("Mapping["):-1].split(", ", 1)[1]
        for k, v in value.items():
            _check_shape(v, inner, f"{where}[{k!r}]")


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_values_freeze_what_they_are_given(build):
    value, mutate = build()
    before = _snapshot(value)
    mutate()
    assert _snapshot(value) == before
    cls = type(value)
    for name in cls._fields:  # annotations are strings: the modules defer them
        _check_shape(getattr(value, name), cls.__annotations__[name], f"{cls.__name__}.{name}")
    if cls.__hash__ is not None:
        hash(value)


def _value_classes():
    for info in pkgutil.iter_modules(ifk.__path__):
        module = importlib.import_module(f"ifk.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, _Value) and obj is not _Value \
                    and obj.__module__ == module.__name__:
                yield obj


def test_every_value_class_is_built_here_and_refuses_assignment():
    values = {type(value): value for value, _ in (build() for build in BUILDERS)}
    assert set(_value_classes()) == values.keys()
    for cls, value in values.items():
        assert cls._fields, cls
        for name in cls._fields:
            with pytest.raises(AttributeError, match=name):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
        assert not hasattr(value, "extra")


# The value protocol, checked against the field table: the repr, equality
# and hash a class gets unless it defines its own, keyword construction,
# the defaults, and copies.
IDENTITY = {InverseFlowTheory}  # a pulled-back view compares and hashes by identity
OWN_REPR = {Sequent}  # printed as a sequent literal
# a theory compares its language and axiom ints, a lattice its names and masks
OWN_EQ = {SequentTheory, ConceptLattice}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


def _check_repr(value) -> None:
    """The repr follows the field table.  Two equal frozensets may iterate
    in different orders, so the reprs of equal values can differ."""
    cls = type(value)
    if cls not in OWN_REPR:
        expected = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls._fields)
        assert repr(value) == f"{cls.__qualname__}({expected})"


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_value_protocol_follows_the_field_table(build):
    value, twin = build()[0], build()[0]
    cls = type(value)
    _check_repr(value)
    rebuilt = cls(**dict(zip(cls._fields, _fields(value))))
    assert _snapshot(rebuilt) == _snapshot(value)
    # two builds are equal unless they are, or their fields hold, a view
    equal_builds = value == twin
    assert equal_builds is (cls not in IDENTITY | {IntegrationResult})
    if cls in IDENTITY:
        assert value == value and value != rebuilt
        assert hash(value) == object.__hash__(value)
    else:
        assert value == rebuilt and not value != rebuilt
        assert value.__eq__(object()) is NotImplemented
        if cls.__hash__ is None:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin) == hash(rebuilt)
            if cls not in OWN_EQ:  # hashed on names and masks
                assert hash(value) == hash(_fields(value))
    for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(again) is cls and _snapshot(again) == _snapshot(value)
        _check_repr(again)
        assert cls not in OWN_REPR or repr(again) == repr(value)  # a sequent sorts its sides
        assert (again == value) is equal_builds


def test_value_classes_with_own_methods_are_the_listed_ones():
    classes = set(_value_classes())

    def own(name):
        return {cls for cls in classes
                if getattr(getattr(cls, name), "__qualname__", "") == f"{cls.__qualname__}.{name}"}

    assert own("__repr__") == OWN_REPR
    assert own("__eq__") == own("__hash__") == OWN_EQ
    assert {cls for cls in classes if (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__)
            } == IDENTITY


def test_defaults_fill_in_and_are_not_shared():
    empty = Bundle()
    assert all(getattr(empty, name) == {} for name in Bundle._fields)
    assert empty == Bundle(systems={}) and empty.theories is not Bundle().theories
    system = information_system()[0]
    bare = InformationSystem(system.shape, system.node_theory, system.edge_type_map)
    assert (bare.node_cls, bare.edge_instance_map) == ({}, {})
    assert type(bare.node_cls) is MappingProxyType
    assert bare.node_cls is not InformationSystem(*_fields(bare)[:3]).node_cls
    assert ValidationResult(True) == ValidationResult(ok=True, defects=[]) and ValidationResult(True)
    assert repr(ValidationResult(True)) == "ValidationResult(ok=True, defects=())"
    assert {cls for cls in _value_classes() if cls._defaults} == {
        Bundle, InformationSystem, ValidationResult
    }


def test_constructors_refuse_bad_arguments_as_python_does():
    for bad in (
        lambda: ValidationResult(True, (), 3),
        lambda: ValidationResult(True, oops=()),
        lambda: ValidationResult(True, ok=False),
        lambda: ValidationResult(),
        lambda: ShapeGraph(nodes=set()),
        lambda: Sequent(["a"]),
        lambda: FormalConcept([], [], []),
    ):
        with pytest.raises(TypeError):
            bad()
