import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import settings

from ifk import Classification, InformationSystem, Sequent, SequentTheory, ShapeGraph

settings.register_profile("ci", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("ci")

FIXTURES = Path(__file__).parent / "fixtures"


def ring32(directory: Path) -> Path:
    """A ring of 32 hubs and 32 places from the benchmark's generator, written into
    ``directory``: a cyclic shape, so integrate asks its engines per bounded sequent."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", FIXTURES.parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc, _ = gen.linked_system(random.Random(1), "ring", [[i, (i + 1) % 32] for i in range(32)], 32)
    path = directory / "ring32.json"
    path.write_text(json.dumps(doc))
    return path


def seq(ant="", con=""):
    """Terse sequent builder: seq('a b', 'c') is <{a,b} |- {c}>."""
    return Sequent(frozenset(ant.split()), frozenset(con.split()))


@pytest.fixture
def clf_a() -> Classification:
    return Classification(
        "CLF-A",
        ["aristotle", "civic87"],
        ["human", "philosopher", "car"],
        [("aristotle", "human"), ("aristotle", "philosopher"), ("civic87", "car")],
    )


@pytest.fixture
def empty_clf() -> Classification:
    return Classification("empty", [], [], [])


@pytest.fixture
def diagonal_clf() -> Classification:
    # two instances, two types, diagonal incidence
    return Classification("diag", ["1", "2"], ["1", "2"], [("1", "1"), ("2", "2")])


def vee_system() -> InformationSystem:
    t_o1 = SequentTheory(["person", "mortal"], [seq("person", "mortal")])
    t_o2 = SequentTheory(
        ["human", "philosopher", "mortal_gr"], [seq("philosopher", "human")]
    )
    t_m = SequentTheory(["x", "y"], [])
    return InformationSystem(
        shape=ShapeGraph(["O1", "O2", "M"], [("f1", "M", "O1"), ("f2", "M", "O2")]),
        node_theory={"O1": t_o1, "O2": t_o2, "M": t_m},
        edge_type_map={
            "f1": {"x": "person", "y": "mortal"},
            "f2": {"x": "human", "y": "mortal_gr"},
        },
    )


def clash_system() -> InformationSystem:
    t1 = SequentTheory(["t"], [seq("", "t")])
    t2 = SequentTheory(["tp"], [seq("tp", "")])
    tm = SequentTheory(["x"], [])
    return InformationSystem(
        shape=ShapeGraph(["O1", "O2", "M"], [("g1", "M", "O1"), ("g2", "M", "O2")]),
        node_theory={"O1": t1, "O2": t2, "M": tm},
        edge_type_map={"g1": {"x": "t"}, "g2": {"x": "tp"}},
    )


@pytest.fixture
def vee() -> InformationSystem:
    return vee_system()


@pytest.fixture
def clash() -> InformationSystem:
    return clash_system()
