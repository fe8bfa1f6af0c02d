"""Theories made by the mask kernel (closure, the theory of a state set, the
natural logic, restriction and materialized inverse flow) hold their masks
and build their axiom set only when it is read.  Each must behave exactly
like its twin built from that axiom set."""

import copy
import pickle
import random

import pytest

from ifk import SequentTheory, bottom_theory, close, entails, theory_leq, top_theory
from ifk.theories import theory_of_states

import support
from conftest import seq


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
            assert vars(again).keys() == {"types", "axioms"}
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
    # each has the one mask pair (1, 1): <a |- a> in one, <b |- b> in the other
    assert close(top_theory(["a"])) != close(top_theory(["b"]))
    assert close(top_theory(["a"])) != SequentTheory(["b"], [seq("b", "b")])
    assert SequentTheory(["a"], [seq("a", "a")]) != SequentTheory(["b"], [seq("b", "b")])
    assert top_theory(["a"]) != top_theory(["b"])
