"""Theories made by the mask kernel (closure, the theory of a state set, the
natural logic, restriction and materialized inverse flow) hold their masks
and build their axiom set only when it is read.  Each must behave exactly
like its twin built from that axiom set."""

import copy
import gc
import pickle
import random

import pytest

from ifk import (
    CapExceeded,
    Classification,
    SequentTheory,
    bottom_theory,
    close,
    entails,
    inverse_flow,
    natural_logic,
    theory_leq,
    top_theory,
)
from ifk.bundle import parse_bundle
from ifk.theories import _theory_of_masks, theory_of_states

import support
from conftest import FIXTURES, seq


def assert_twins(make, small: bool) -> None:
    """``small``: also copy, print and order the two against each other,
    which takes seconds on a closure over 7 or 8 types."""
    k = make()
    built = make().axioms
    twin = SequentTheory(k.types, built)
    rng = random.Random(len(built))
    queries = [seq()] + [support.rand_sequent(rng, k.types, 3) for _ in range(30)]
    other = support.rand_theory(rng, k.types, 4, 2)
    assert "axioms" not in vars(k)
    assert k == twin and twin == k and not k != twin
    assert hash(k) == hash(twin)
    assert k in {twin} and twin in {k}
    assert {twin: "twin"}[k] == "twin" and {k: "kernel"}[twin] == "kernel"
    assert k._masks == twin._masks
    assert all(entails(k, q) == entails(twin, q) for q in queries)
    assert theory_leq(k, other) == theory_leq(twin, other)
    assert theory_leq(other, k) == theory_leq(other, twin)
    if small:
        assert theory_leq(k, twin) and theory_leq(twin, k)
    if built:  # one axiom fewer is another theory
        fewer = SequentTheory(k.types, built - {next(iter(built))})
        assert k != fewer and fewer != k and fewer not in {k}
    assert "axioms" not in vars(k)  # none of the above read the axiom set
    if small:
        for again in (pickle.loads(pickle.dumps(k)), copy.deepcopy(k)):
            assert again == k and again == twin
            assert vars(again).keys() == {"types", "_index", "_masks"}  # never the engine
            assert again.axioms == built
    assert k.axioms == built and type(k.axioms) is frozenset
    assert k.axioms is k.axioms  # built once
    if small:
        assert repr(k) == repr(SequentTheory(k.types, k.axioms))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize(
    "entry", ["close", "theory_of_states", "natural_logic", "restriction", "materialize"]
)
def test_kernel_theories_equal_their_sequent_built_twins(entry, n):
    assert_twins(support.kernel_theory_makers(n, n)[entry], small=n <= 6)


@pytest.mark.parametrize(
    "make, size",
    [
        (lambda: close(top_theory([])), 0),  # no axioms at all
        (lambda: theory_of_states([], []), 1),  # exactly <|->: no state survives
        (lambda: close(top_theory(["a", "b"])), 16 - 9),  # only the tautologies
        (lambda: close(bottom_theory(["a", "b"])), 16),  # inconsistent: every sequent
        (lambda: close(SequentTheory({"a", "b"}, {seq("", "a"), seq("a", "")})), 16),
    ],
)
def test_edge_theories_equal_their_twins(make, size):
    assert_twins(make, small=True)
    assert len(make()._masks) == size


def test_equal_masks_over_other_languages_are_other_theories():
    # each has the one axiom int 1 << 1 | 1: <a |- a> in one, <b |- b> in the other
    assert close(top_theory(["a"])) != close(top_theory(["b"]))
    assert close(top_theory(["a"])) != SequentTheory(["b"], [seq("b", "b")])
    assert SequentTheory(["a"], [seq("a", "a")]) != SequentTheory(["b"], [seq("b", "b")])
    assert top_theory(["a"]) != top_theory(["b"])


# ---------------------------------------------------------------------------
# the row kernel against brute force, and what its theories keep

def brute_theory(n: int, states: list[int]) -> list[int]:
    """The sorted ints ``g << n | d`` of the sequents that no state violates:
    none holds all of ``g`` and none of ``d``."""
    distinct = set(states)
    out = []
    for g in range(2 ** n):
        above = [x for x in distinct if x & g == g]
        out += [g << n | d for d in range(2 ** n) if all(x & d for x in above)]
    return out


def kernel_state_sets():
    for n in range(9):
        size, rng = 1 << n, random.Random(f"kernel-rows:{n}")
        yield pytest.param(n, [], id=f"{n}-none")  # every sequent
        yield pytest.param(n, list(range(size)), id=f"{n}-all")  # only the tautologies
        yield pytest.param(n, [rng.randrange(size)], id=f"{n}-one")
        for k in range(3):
            states = [rng.randrange(size) for _ in range(rng.randint(1, 2 * size))]
            yield pytest.param(n, states + states[::2], id=f"{n}-random{k}")  # with duplicates


@pytest.mark.parametrize("n, states", kernel_state_sets())
def test_kernel_rows_match_brute_force(n, states):
    names = [f"t{k}" for k in range(n)]
    t = _theory_of_masks(names, iter(states), 4 ** n, "test")
    assert t.types == frozenset(names) and list(t._index) == names
    assert t._masks == brute_theory(n, states)
    if not states:
        assert len(t._masks) == 4 ** n
    elif len(set(states)) == 2 ** n:
        assert len(t._masks) == 4 ** n - 3 ** n


@pytest.mark.parametrize("n", range(9))
def test_kernel_charges_the_cap_before_reading_states(n):
    def states():
        raise AssertionError("states read past the cap")
        yield

    with pytest.raises(CapExceeded) as refused:
        _theory_of_masks([f"t{k}" for k in range(n)], states(), 4 ** n - 1, "test")
    assert (refused.value.required, refused.value.cap) == (4 ** n, 4 ** n - 1)


def test_materializations_keep_no_object_per_theorem():
    # a kept object per theorem would add thousands: the closure of wide.json
    # holds 60,936 theorems, the 7-type natural logic and pullback thousands
    wide = parse_bundle((FIXTURES / "wide.json").read_text()).theories["wide"]
    rng = random.Random("gc-guard")
    types, instances = [f"t{k}" for k in range(7)], [f"i{k}" for k in range(40)]
    c = Classification(
        "c", instances, types, [(i, x) for i in instances for x in types if rng.random() < 0.5]
    )
    target = support.rand_theory(rng, types, 7, 2)
    source = [f"s{k}" for k in range(7)]
    pullback = inverse_flow(dict(zip(source, types)), target, source)
    calls = {  # each call, and the theory in what it returns
        "close": (lambda: close(wide), lambda t: t),
        "natural_logic": (lambda: natural_logic(c), lambda logic: logic.theory),
        "materialize": (pullback.materialize, lambda t: t),
    }
    for name, (call, theory) in calls.items():
        assert len(theory(call())._masks) > 1000
        gc.collect()  # the first call filled the inputs' caches; count only the second
        gc.disable()
        try:
            before = len(gc.get_objects())
            kept = call()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert kept is not None and added < 16, (name, added)
