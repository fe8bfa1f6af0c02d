import copy
import json
import pickle
import random

import pytest

from ifk import (
    CapExceeded,
    Classification,
    ConceptLattice,
    FlatTheory,
    FormalConcept,
    IfkError,
    attribute_concept,
    concepts,
    derive,
    flat_closure,
    join,
    lattice,
    lattice_dot,
    meet,
    object_concept,
)
from ifk.bundle import parse_bundle
from ifk.cli import run
from ifk.oracles import concepts_by_enumeration
from ifk.masks import _positions

import support


def test_derive_instances(clf_a):
    assert derive(clf_a, "instances", ["aristotle"]) == {"human", "philosopher"}


def test_derive_empty_type_set_gives_all_instances(clf_a):
    assert derive(clf_a, "types", []) == clf_a.instances


def test_derive_twice_is_extensive(clf_a):
    for side, other in (("instances", "types"), ("types", "instances")):
        pool = clf_a.instances if side == "instances" else clf_a.types
        for x in pool:
            once = derive(clf_a, side, [x])
            again = derive(clf_a, other, once)
            assert {x} <= again


def test_derive_unknown_element(clf_a):
    with pytest.raises(IfkError, match="unknown"):
        derive(clf_a, "instances", ["plato"])
    with pytest.raises(IfkError, match="side must be"):
        derive(clf_a, "objects", [])


def test_concepts_clf_a(clf_a):
    found = concepts(clf_a)
    assert found == (
        FormalConcept(frozenset(), {"car", "human", "philosopher"}),
        FormalConcept({"aristotle"}, {"human", "philosopher"}),
        FormalConcept({"civic87"}, {"car"}),
        FormalConcept({"aristotle", "civic87"}, frozenset()),
    )


def test_empty_classification_has_one_concept(empty_clf):
    assert concepts(empty_clf) == (FormalConcept(frozenset(), frozenset()),)


def test_diagonal_context_has_four_concepts(diagonal_clf):
    assert len(concepts(diagonal_clf)) == 4


def test_concepts_guard():
    c = Classification("wide", [], [f"t{k}" for k in range(21)], [])
    with pytest.raises(CapExceeded):
        concepts(c)


def test_fcbo_matches_all_subsets_oracle():
    rng = random.Random(107)
    seen = dict.fromkeys(("shared intent", "empty column", "full column", "no type", "no instance"), 0)
    for _ in range(150):
        types = [f"t{k}" for k in range(rng.randint(0, 7))]
        density = rng.random()
        rows = [frozenset(t for t in types if rng.random() < density) for _ in range(rng.randint(0, 5))]
        rows += rng.sample(rows, rng.randint(0, min(2, len(rows))))  # instances sharing an intent
        instances = [f"i{k}" for k in range(len(rows))]
        c = Classification("C", instances, types, [(i, t) for i, row in zip(instances, rows) for t in row])
        assert concepts(c) == concepts_by_enumeration(c)
        column_sizes = [sum(t in row for row in rows) for t in types]
        seen["shared intent"] += len(set(rows)) < len(rows)
        seen["empty column"] += bool(rows) and 0 in column_sizes
        seen["full column"] += bool(rows) and len(rows) in column_sizes
        seen["no type"] += not types
        seen["no instance"] += not rows
    assert min(seen.values()) >= 5, seen
    print(f"FCbO vs all subsets: 150 contexts of 0-7 types, {seen}")


def test_fcbo_finds_every_intersection_of_instance_intents():
    # past the all-subsets oracle's reach: the intents are the full type set
    # and every intersection of instance intents
    rng = random.Random(0xFCB0)
    for _ in range(200):
        types = [f"t{k}" for k in range(rng.randint(0, 10))]
        density = rng.random()
        rows = [frozenset(t for t in types if rng.random() < density) for _ in range(rng.randint(0, 12))]
        instances = [f"i{k}" for k in range(len(rows))]
        c = Classification("C", instances, types, [(i, t) for i, row in zip(instances, rows) for t in row])
        intents = {frozenset(types)}
        for row in rows:
            intents |= {row & x for x in intents}
        found = concepts(c)
        assert len(found) == len(intents) and {k.intent for k in found} == intents
        assert all(derive(c, "types", k.intent) == k.extent for k in found)
        assert list(found) == sorted(found, key=lambda k: (len(k.extent), sorted(k.extent)))


def test_lattice_order_and_bounds(clf_a):
    l = lattice(clf_a)
    top = l.concepts[-1]
    bottom = l.concepts[0]
    assert top.extent == clf_a.instances
    assert bottom.intent == clf_a.types
    n = len(l.concepts)
    assert all((k, k) in l.order for k in range(n))
    for i in range(n):
        for j in range(n):
            assert ((i, j) in l.order) == (l.concepts[i].extent <= l.concepts[j].extent)


def test_lattice_derives_its_order_from_the_concepts_on_first_use():
    rng = random.Random(127)
    for _ in range(30):
        c = support.rand_classification(rng, 5, 5)
        l = lattice(c)
        assert l == ConceptLattice(concepts(c)) and hash(l) == hash(ConceptLattice(concepts(c)))
        assert "order" not in vars(l)
        extents = [k.extent for k in l.concepts]
        assert l.order == {(i, j) for i, a in enumerate(extents) for j, b in enumerate(extents) if a <= b}
        assert "order" in vars(l) and l.order is l.order


def test_meet_join_identities(clf_a):
    l = lattice(clf_a)
    top_i = len(l.concepts) - 1
    bottom_i = 0
    for k in range(len(l.concepts)):
        assert meet(l, top_i, k) == l.concepts[k]
        assert join(l, bottom_i, k) == l.concepts[k]


def test_meet_and_join_of_disjoint_concepts(clf_a):
    l = lattice(clf_a)
    ari = l.concepts.index(FormalConcept({"aristotle"}, {"human", "philosopher"}))
    civ = l.concepts.index(FormalConcept({"civic87"}, {"car"}))
    assert meet(l, ari, civ).extent == frozenset()
    assert meet(l, ari, civ).intent == clf_a.types
    assert join(l, ari, civ).extent == clf_a.instances
    assert join(l, ari, civ).intent == frozenset()


def test_lattice_laws_on_small_contexts():
    rng = random.Random(109)
    for _ in range(25):
        c = support.rand_classification(rng, 4, 4)
        l = lattice(c)
        n = len(l.concepts)
        for i in range(n):
            for j in range(n):
                assert meet(l, i, j) == meet(l, j, i)
                assert join(l, i, j) == join(l, j, i)
                assert meet(l, i, i) == l.concepts[i]
                assert join(l, i, i) == l.concepts[i]
                # absorption
                k = l.concepts.index(meet(l, i, j))
                assert join(l, i, k) == l.concepts[i]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    a = l.concepts.index(meet(l, i, j))
                    b = l.concepts.index(meet(l, j, k))
                    assert meet(l, a, k) == meet(l, i, b)


def test_unknown_concept_index(clf_a):
    l = lattice(clf_a)
    with pytest.raises(IfkError, match="unknown concept index"):
        meet(l, 0, 99)


def test_object_and_attribute_concepts(clf_a):
    assert object_concept(clf_a, "aristotle") == FormalConcept(
        {"aristotle"}, {"human", "philosopher"}
    )
    assert attribute_concept(clf_a, "car") == FormalConcept({"civic87"}, {"car"})


def test_fully_incident_element_reaches_the_bounds():
    c = Classification(
        "c", ["e", "o"], ["t1", "t2"], [("e", "t1"), ("e", "t2"), ("o", "t1")]
    )
    l = lattice(c)
    bottom, top = l.concepts[0], l.concepts[-1]
    assert object_concept(c, "e") == bottom  # e carries every type
    assert attribute_concept(c, "t1") == top  # t1 classifies every instance


def test_two_sided_generation():
    rng = random.Random(113)
    contexts = [support.rand_classification(rng, 5, 5) for _ in range(30)]
    for c in contexts:
        l = lattice(c)
        for concept in l.concepts:
            # join of the object concepts of the extent
            intents = [object_concept(c, i).intent for i in concept.extent]
            joined_intent = frozenset(c.types).intersection(*intents) if intents else frozenset(c.types)
            assert FormalConcept(derive(c, "types", joined_intent), joined_intent) == concept
            # meet of the attribute concepts of the intent
            extents = [attribute_concept(c, t).extent for t in concept.intent]
            met_extent = (
                frozenset(c.instances).intersection(*extents) if extents else frozenset(c.instances)
            )
            assert FormalConcept(met_extent, derive(c, "instances", met_extent)) == concept


def test_concept_intents_are_flat_closures(clf_a):
    for concept in concepts(clf_a):
        closed = flat_closure(clf_a, FlatTheory(clf_a.types, concept.intent))
        assert closed.members == concept.intent


def test_dot_export_of_plain_names_is_pinned(clf_a):
    assert lattice_dot(lattice(clf_a)) == (
        "digraph concept_lattice {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  c0 [label="{} | {car,human,philosopher}"];\n'
        '  c1 [label="{aristotle} | {human,philosopher}"];\n'
        '  c2 [label="{civic87} | {car}"];\n'
        '  c3 [label="{aristotle,civic87} | {}"];\n'
        "  c0 -> c1;\n"
        "  c0 -> c2;\n"
        "  c1 -> c3;\n"
        "  c2 -> c3;\n"
        "}\n"
    )


def test_cover_scan_finds_the_covers_of_a_lattice_in_any_order():
    rng = random.Random(0xC0DE)
    reordered = 0
    for _ in range(60):
        found = list(concepts(support.rand_classification(rng, 6, 6)))
        rng.shuffle(found)
        l = ConceptLattice(found)
        extents = [k.extent for k in l.concepts]
        strict = {(i, j) for i, a in enumerate(extents) for j, b in enumerate(extents) if a < b}
        assert _dot_edges(l) == _reduction(strict, len(extents))
        reordered += any(i > j for i, j in strict)  # a concept before one below it
    assert reordered > 30


def test_dot_labels_escape_quotes_and_backslashes():
    # identifiers exclude only whitespace, so both characters can occur
    c = Classification("q", ['a"b', "c\\d"], ["t"], [('a"b', "t")])
    lines = lattice_dot(lattice(c)).splitlines()
    assert '  c0 [label="{a\\"b} | {t}"];' in lines
    assert '  c1 [label="{a\\"b,c\\\\d} | {}"];' in lines


def test_dot_export_is_deterministic_and_covers_only(clf_a):
    l = lattice(clf_a)
    dot = lattice_dot(l)
    assert dot == lattice_dot(l)
    assert dot.startswith("digraph concept_lattice {")
    assert '"{aristotle} | {human,philosopher}"' in dot
    # bottom covers the two atoms, atoms cover top: 4 cover edges
    assert dot.count("->") == 4
    # no transitive edge bottom -> top
    assert "  c0 -> c3;" not in dot


def _dot_edges(l: ConceptLattice) -> set[tuple[int, int]]:
    lines = lattice_dot(l).splitlines()
    return {tuple(int(x[1:]) for x in line.strip(" ;").split(" -> ")) for line in lines if "->" in line}


def _reduction(strict: set[tuple[int, int]], n: int) -> set[tuple[int, int]]:
    """The pairs of a strict order over ``range(n)`` with nothing between them."""
    above = [set() for _ in range(n)]
    for i, j in strict:
        above[i].add(j)
    return {(i, j) for i in range(n) for j in above[i].difference(*(above[k] for k in above[i]))}


def _order_and_covers_are_the_extent_order(l: ConceptLattice) -> set[tuple[int, int]]:
    """The oracle: ``order`` is all-pairs extent inclusion, the DOT edges its transitive reduction."""
    extents = [k.extent for k in l.concepts]
    assert l.order == {(i, j) for i, a in enumerate(extents) for j, b in enumerate(extents) if a <= b}
    found = _dot_edges(l)
    assert found == _reduction({(i, j) for i, j in l.order if i != j}, len(extents))
    return found


def test_dot_edges_are_the_transitive_reduction_of_the_extent_order():
    rng = random.Random(0xFCA)
    cases = duplicated = empty = edges = 0
    for _ in range(60):
        types = [f"t{k}" for k in range(rng.randint(0, 6))]
        rows = [frozenset(t for t in types if rng.random() < 0.4) for _ in range(rng.randint(0, 5))]
        rows += rng.sample(rows, rng.randint(0, len(rows)))  # instances sharing an intent
        incidence = [(f"i{k}", t) for k, row in enumerate(rows) for t in row]
        c = Classification("C", [f"i{k}" for k in range(len(rows))], types, incidence)
        found = _order_and_covers_are_the_extent_order(lattice(c))
        cases += 1
        duplicated += len(set(rows)) < len(rows)
        empty += any(not any(t in row for row in rows) for t in types)
        edges += len(found)
    assert duplicated > 10 and empty > 10
    print(f"cover edges vs transitive reduction: {cases} contexts ({duplicated} with shared "
          f"intents, {empty} with an empty type extent), {edges} edges")


def test_order_and_covers_of_a_wide_lattice():
    # 2,046 concepts: the up-sets are wide enough for every read of _positions
    rng = random.Random(0xFCA)
    types = [f"t{k:02d}" for k in range(14)]
    rows = {f"i{k:02d}": [t for t in types if rng.random() < 0.5] for k in range(80)}
    l = lattice(Classification("C", list(rows), types, [(i, t) for i, row in rows.items() for t in row]))
    assert len(l.concepts) >= 1000
    assert len({type(_positions(up)) for up in l._ups()}) == 3
    _order_and_covers_are_the_extent_order(l)


def _edge_contexts(rng: random.Random, seen: dict):
    """Seeded random contexts of 0-7 types and 0-6 instances, counting in
    ``seen`` those with no instance, no type, duplicate rows, an instance
    with no type and a type with no instance."""
    for _ in range(120):
        types = [f"t{k}" for k in range(rng.randint(0, 7))]
        density = rng.random()
        rows = [frozenset(t for t in types if rng.random() < density) for _ in range(rng.randint(0, 4))]
        rows += rng.sample(rows, rng.randint(0, min(2, len(rows))))  # instances sharing a row
        rows += [frozenset()] * (rng.random() < 0.3)  # an instance with no type
        instances = [f"i{k}" for k in range(len(rows))]
        seen["no instance"] += not rows
        seen["no type"] += not types
        seen["duplicate rows"] += len(set(rows)) < len(rows)
        seen["instance with no type"] += frozenset() in rows
        seen["type with no instance"] += any(all(t not in row for row in rows) for t in types)
        yield Classification("C", instances, types, [(i, t) for i, row in zip(instances, rows) for t in row])


def test_lattice_from_masks_is_the_lattice_from_names():
    seen = dict.fromkeys(("no instance", "no type", "duplicate rows", "instance with no type",
                          "type with no instance"), 0)
    for c in _edge_contexts(random.Random(0x3A5C), seen):
        l, found = lattice(c), concepts(c)
        built = ConceptLattice(found)
        assert l == built and hash(l) == hash(built) and pickle.dumps(l) == pickle.dumps(built)
        assert l.concepts == found == concepts_by_enumeration(c)
        n, extents, intents = len(found), [k.extent for k in found], [k.intent for k in found]
        order = {(i, j) for i in range(n) for j in range(n) if extents[i] <= extents[j]}
        for again in (pickle.loads(pickle.dumps(l)), copy.deepcopy(l), copy.deepcopy(built)):
            assert again == l and hash(again) == hash(l) and again.concepts == found
            assert again.order == order
        assert l.order == built.order == order
        assert _dot_edges(l) == _dot_edges(built) == _reduction(order - {(i, i) for i in range(n)}, n)
        for i in range(n):
            for j in range(n):
                assert meet(l, i, j) == found[extents.index(extents[i] & extents[j])]
                assert join(l, i, j) == found[intents.index(intents[i] & intents[j])]
    assert min(seen.values()) >= 5, seen


def test_lattice_reports_build_no_formal_concept(monkeypatch, tmp_path):
    built = []
    init = FormalConcept.__init__
    monkeypatch.setattr(FormalConcept, "__init__", lambda k, *a: built.append(a) or init(k, *a))
    rng = random.Random(0xC0C0)
    rows = {f"g{k:02d}": rng.sample([f"m{t}" for t in range(8)], 4) for k in range(30)}
    raw = {"instances": list(rows), "types": [f"m{t}" for t in range(8)],
           "incidence": [[g, m] for g, row in rows.items() for m in row]}
    path = tmp_path / "context.json"
    path.write_text(json.dumps({"classifications": {"C": raw}}))
    for form in ("json", "dot"):
        assert run(["lattice", "--classification", "C", "--format", form, str(path)])[0] == 0
    l = lattice(parse_bundle(path.read_text()).classifications["C"])
    lattice_dot(l), l.order
    assert built == []
    found = l.concepts
    assert len(built) == len(found) > 30
    assert l.concepts is found and len(built) == len(found)  # read again, built once
