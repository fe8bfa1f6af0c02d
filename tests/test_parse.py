"""Bundle theories parsed straight to their masks, and runs that agree.

A parsed theory must equal the one built from its ``Sequent``s, and a
malformed theory, named entry or reference must be refused with the
message, and by the check, that names its first fault.  The processes
below run under different hash seeds: an error message, a report or a
generated corpus that followed set order would differ between them.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from ifk import Sequent, SequentTheory, close, entails, is_consistent
from ifk.bundle import canonical_json, parse_bundle, theory_to_obj
from ifk.cli import run
from ifk.errors import BundleError, IfkError

import support
from conftest import FIXTURES

SRC = FIXTURES.parents[1] / "src"
HASH_SEEDS = ("0", "1", "4")
POOL = ["a", "b", "t0", "t1", "\xe9t\xe9", "x-y", "Z"]


def _run(code: str, seed: str) -> str:
    """``code``'s stdout in a fresh interpreter under hash seed ``seed``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(FIXTURES.parent)]),
           "PYTHONHASHSEED": seed}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def _theory_doc(types, axioms) -> str:
    return json.dumps({"theories": {"T": {"types": types, "axioms": axioms}}})


def _document(rng: random.Random) -> dict:
    """A valid theory document: duplicate axioms (names reordered), sides
    left out or empty, tautologies, now and then no axioms at all."""
    names = rng.sample(POOL, rng.randint(0, 4))
    axioms: list[dict] = []
    for _ in range(rng.randint(0, 6)):
        if axioms and rng.random() < 0.2:
            axioms.append({side: rng.sample(v, len(v)) for side, v in rng.choice(axioms).items()})
            continue
        sides = ("ant", "con") if rng.random() < 0.5 else ("con", "ant")
        axioms.append({side: rng.sample(names, rng.randint(0, len(names)))
                       for side in sides if rng.random() < 0.85})
    doc: dict = {"types": rng.sample(names, len(names))}
    if axioms or rng.random() < 0.5:
        doc["axioms"] = axioms
    return doc


def _reference(doc: dict) -> SequentTheory:
    axioms = {Sequent(a.get("ant", []), a.get("con", [])) for a in doc.get("axioms", [])}
    return SequentTheory(doc["types"], axioms)


# ---------------------------------------------------------------------------
# parsed theories equal the theories of their sequents

def test_parsed_theories_equal_their_sequent_theories():
    rng = random.Random("parse")
    docs = [_document(rng) for _ in range(300)]
    assert any(not d["types"] for d in docs) and any("axioms" not in d for d in docs)
    bundle = parse_bundle(json.dumps({"theories": {f"T{k}": d for k, d in enumerate(docs)}}))
    for k, doc in enumerate(docs):
        parsed, expected = bundle.theories[f"T{k}"], _reference(doc)
        assert "axioms" not in parsed.__dict__  # born with its masks alone
        assert parsed._masks == expected._masks and parsed == expected
        assert hash(parsed) == hash(expected)
        assert parsed.axioms == expected.axioms
        assert is_consistent(parsed) == is_consistent(expected)
        for _ in range(6):
            q = support.rand_sequent(rng, doc["types"])
            assert entails(parsed, q) == entails(expected, q)
        assert canonical_json(theory_to_obj(close(parsed))) == canonical_json(
            theory_to_obj(close(expected)))


def test_parse_builds_no_sequent(monkeypatch):
    built = []
    init = Sequent.__init__
    monkeypatch.setattr(Sequent, "__init__", lambda s, *a: built.append(a) or init(s, *a))
    rng = random.Random("no sequent")
    docs = {f"T{k}": _document(rng) for k in range(50)}
    bundle = parse_bundle(json.dumps({"theories": docs}))
    assert len(bundle.theories) == 50
    for name in ("classics.json", "wide.json"):
        assert parse_bundle((FIXTURES / name).read_text()).theories
    assert built == []


# ---------------------------------------------------------------------------
# malformed theories: the message of the first fault, as before masks

MALFORMED = {
    "an axiom that is not an object": (
        _theory_doc(["a", "b"], [{"ant": ["a"]}, ["a"]]),
        "theories.T.axioms[1]: expected an object"),
    "unknown keys": (
        _theory_doc(["a", "b"], [{"ant": ["a"], "con": [], "why": 1, "also": 2}]),
        "theories.T.axioms[0]: unknown keys ['also', 'why']"),
    "a side that is not a list": (
        _theory_doc(["a", "b"], [{"ant": "a", "con": []}]),
        "theories.T.axioms[0].ant: expected a list"),
    "a side that is an object": (
        _theory_doc(["a", "b"], [{"ant": ["a"], "con": {"b": 1}}]),
        "theories.T.axioms[0].con: expected a list"),
    "a bad identifier": (
        _theory_doc(["a", "b"], [{"ant": ["a b"], "con": []}]),
        "theories.T.axioms[0].ant: bad identifier 'a b'"),
    "an empty identifier": (
        _theory_doc(["a", "b"], [{"ant": [], "con": [""]}]),
        "theories.T.axioms[0].con: bad identifier ''"),
    "a duplicate name": (
        _theory_doc(["a", "b"], [{"ant": ["a", "a"], "con": []}]),
        "theories.T.axioms[0].ant: duplicate identifier 'a'"),
    "a duplicate name outside the language": (
        _theory_doc(["a", "b"], [{"ant": ["z", "z"], "con": []}]),
        "theories.T.axioms[0].ant: duplicate identifier 'z'"),
    "a dict as a name": (
        _theory_doc(["a", "b"], [{"ant": [{"x": 1}], "con": []}]),
        "theories.T.axioms[0].ant: bad identifier {'x': 1}"),
    "an int as a name": (
        _theory_doc(["a", "b"], [{"ant": ["a"], "con": [3]}]),
        "theories.T.axioms[0].con: bad identifier 3"),
    "null as a name": (
        _theory_doc(["a", "b"], [{"ant": [None], "con": []}]),
        "theories.T.axioms[0].ant: bad identifier None"),
    "a bad identifier after an axiom outside the language": (
        _theory_doc(["a", "b"], [{"ant": ["a"], "con": ["x"]}, {"ant": [], "con": ["b"]},
                                 {"ant": ["b"], "con": ["b c"]}]),
        "theories.T.axioms[2].con: bad identifier 'b c'"),
    "an axiom outside the language": (
        _theory_doc(["a", "b"], [{"ant": ["a"], "con": ["x"]}]),
        "theories.T: axiom <a |- x> uses types outside the language"),
    "axioms that are not a list": (
        _theory_doc(["a", "b"], {"ant": []}),
        "theories.T.axioms: expected a list"),
    "a duplicate type": (
        _theory_doc(["a", "a"], []),
        "theories.T.types: duplicate identifier 'a'"),
    "a duplicate JSON key at depth": (
        '{"theories": {"T": {"types": ["a"], "axioms": [{"ant": [], "con": [], "ant": ["a"]}]}}}',
        "duplicate JSON key 'ant'"),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_theories_keep_their_messages(text, message):
    with pytest.raises(BundleError) as refused:
        parse_bundle(text)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# named entries and references: the message of the first fault in document order

C = {"instances": [], "types": [], "incidence": []}
T = {"types": [], "axioms": []}


def _system(nodes) -> dict:
    return {"classifications": {"c": C}, "theories": {"T": T},
            "systems": {"S": {"nodes": nodes, "edges": []}}}


def _info(**ends) -> dict:
    return {"classifications": {"c": C}, "infomorphisms": {"f": {**ends, "type_map": {}}}}


REFUSED = {
    "a bad classification name": (
        {"classifications": {"c": C, "a b": C}}, "classifications: bad name 'a b'"),
    "a bad theory name": ({"theories": {"": T}}, "theories: bad name ''"),
    "a bad infomorphism name": (
        {"infomorphisms": {"f g": {"source": "c", "target": "c"}}}, "infomorphisms: bad name 'f g'"),
    "a bad system name": ({"systems": {"S-1 ": {}}}, "systems: bad name 'S-1 '"),
    "a bad node name": (_system({"n": {"theory": "T"}, "a b": {"theory": "T"}}),
                        "systems.S.nodes: bad name 'a b'"),
    "a classification that is a list": ({"classifications": {"c": []}},
                                        "classifications.c: expected an object"),
    "a theory that is an int": ({"theories": {"T": 5}}, "theories.T: expected an object"),
    "an infomorphism that is null": ({"infomorphisms": {"f": None}},
                                     "infomorphisms.f: expected an object"),
    "a system that is a string": ({"systems": {"S": "ghost"}}, "systems.S: expected an object"),
    "nodes that are a list": ({"systems": {"S": {"nodes": ["x"]}}},
                              "systems.S.nodes: expected an object"),
    "a node that is an int": (_system({"n": 3}), "systems.S.nodes.n: expected an object"),
    "an unknown source": (_info(source="ghost", target="c"),
                          "infomorphisms.f.source: dangling reference to classification 'ghost'"),
    "a missing target": (_info(source="c"),
                         "infomorphisms.f.target: dangling reference to classification None"),
    "a node without a theory": (_system({"n": {"classification": "c"}}),
                                "systems.S.nodes.n: dangling reference to theory None"),
    "a node theory that is an int": (_system({"n": {"theory": 5}}),
                                     "systems.S.nodes.n: dangling reference to theory 5"),
    "an unknown node theory": (_system({"n": {"theory": "U"}}),
                               "systems.S.nodes.n: dangling reference to theory 'U'"),
    "a node classification that is an int": (
        _system({"n": {"theory": "T", "classification": 5}}),
        "systems.S.nodes.n: dangling reference to classification 5"),
    "a node classification that is a list": (
        _system({"n": {"theory": "T", "classification": []}}),
        "systems.S.nodes.n: dangling reference to classification []"),
    "an unknown node classification": (
        _system({"n": {"theory": "T", "classification": "ghost"}}),
        "systems.S.nodes.n: dangling reference to classification 'ghost'"),
    "an earlier bad body before a later bad name": (
        {"theories": {"T": [], "a b": T}}, "theories.T: expected an object"),
    "an earlier bad name before a later bad body": (
        _system({"a b": {"theory": "T"}, "n": 3}), "systems.S.nodes: bad name 'a b'"),
    "both endpoints bad": (_info(source=5, target="ghost"),
                           "infomorphisms.f.source: dangling reference to classification 5"),
    "both node references bad": (
        _system({"n": {"theory": "ghost", "classification": "ghost"}}),
        "systems.S.nodes.n: dangling reference to theory 'ghost'"),
    "sections before entries": (
        {"classifications": {"a b": 5}, "theories": {}, "systems": []}, "systems: expected an object"),
}


@pytest.mark.parametrize("doc, message", REFUSED.values(), ids=list(REFUSED))
def test_entries_and_references_are_refused_at_their_first_fault(tmp_path, doc, message):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    status, report = run(["validate", str(path)])
    assert status == 1
    assert json.loads(report) == {"ok": False, "error": {"kind": "bundle", "message": message}}


# ---------------------------------------------------------------------------
# the same refusal, report and corpus under every hash seed

OUTSIDE = [{"ant": ["y"], "con": ["b"]}, {"ant": ["a"], "con": ["x"]}, {"ant": ["b"], "con": ["z"]}]


def test_out_of_language_axioms_are_named_alike_in_every_run(tmp_path):
    path = tmp_path / "outside.json"
    path.write_text(_theory_doc(["a", "b"], OUTSIDE))
    # the parser names the first in document order, the constructor the least in sequent_key order
    reports = {_run(f"from ifk.cli import main; main(['validate', {str(path)!r}])", seed)
               for seed in HASH_SEEDS}
    assert len(reports) == 1
    error = json.loads(reports.pop())["error"]
    assert error["message"] == "theories.T: axiom <y |- b> uses types outside the language"
    code = (
        "from ifk import IfkError, Sequent, SequentTheory\n"
        f"axioms = [Sequent(a['ant'], a['con']) for a in {OUTSIDE!r}]\n"
        "try:\n"
        "    SequentTheory(['a', 'b'], axioms)\n"
        "except IfkError as exc:\n"
        "    print(exc)\n"
    )
    messages = {_run(code, seed) for seed in HASH_SEEDS}
    assert messages == {"axiom <a |- x> uses types outside the language\n"}
    with pytest.raises(IfkError, match=r"^axiom <a \|- x> uses types outside the language$"):
        SequentTheory(["a", "b"], [Sequent(a["ant"], a["con"]) for a in OUTSIDE])


def test_corpus_systems_are_the_same_in_every_run():
    code = (
        "import hashlib, json, random\n"
        "import support\n"
        "from ifk.bundle import Bundle, serialize_bundle\n"
        "digests = []\n"
        "for kind in support.CYCLIC_SHAPES + support.FOREST_SHAPES:\n"
        "    for seed in range(25):\n"
        "        s = support.corpus_system(random.Random(f'corpus:{kind}:{seed}'), kind)\n"
        "        b = Bundle(dict(s.node_cls), dict(s.node_theory), {}, {'S': s})\n"
        "        digests.append(hashlib.sha256(serialize_bundle(b).encode()).hexdigest())\n"
        "print(json.dumps(digests))\n"
    )
    first, second = (json.loads(_run(code, seed)) for seed in HASH_SEEDS[:2])
    assert len(first) == 150 and len(set(first)) > 140
    assert [k for k, (x, y) in enumerate(zip(first, second)) if x != y] == []
