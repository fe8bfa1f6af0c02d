"""The oracles the tests check the engines against: brute force over every
state of a language, or every instance set and type set of a
classification, apart from the closure kernel, the engine and FCbO.
"""

from __future__ import annotations

import itertools

from .errors import IfkError
from .fca import FormalConcept
from .logics import derive
from .theories import _require_within


def _sat(antecedent: frozenset[str], consequent: frozenset[str], holds: frozenset[str]) -> bool:
    return not (antecedent <= holds and consequent.isdisjoint(holds))


def state_satisfies(s: Sequent, holds: frozenset[str], sigma: Iterable[str] | None = None) -> bool:
    """Satisfaction of one sequent in the state where exactly ``holds``
    holds; when ``sigma`` is given, both must stay inside it."""
    if sigma is not None:
        outside = (s.types() | holds).difference(sigma)
        if outside:
            raise IfkError(f"type(s) outside the language: {', '.join(sorted(outside))}")
    return _sat(s.antecedent, s.consequent, holds)


def all_states(types: Iterable[str]) -> Iterator[frozenset[str]]:
    """Every subset of ``types``, smallest first, lexicographic within a size."""
    elems = sorted(types)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def is_consistent_by_enumeration(t: SequentTheory) -> bool:
    """State-enumeration oracle for ``is_consistent``; kept independent of the engine."""
    return any(
        all(_sat(a.antecedent, a.consequent, x) for a in t.axioms) for x in all_states(t.types)
    )


def entails_by_enumeration(t: SequentTheory, s: Sequent) -> bool:
    """State-enumeration oracle for ``entails``; kept independent of the engine."""
    _require_within(t.types, s)
    for holds in all_states(t.types):
        if all(_sat(a.antecedent, a.consequent, holds) for a in t.axioms) and not _sat(
            s.antecedent, s.consequent, holds
        ):
            return False
    return True


def concepts_by_enumeration(c: Classification) -> tuple[FormalConcept, ...]:
    """Oracle: scan every (extent, intent) pair for fixed pairs of derivation."""
    instance_subsets = [frozenset()]
    for i in sorted(c.instances):
        instance_subsets += [s | {i} for s in instance_subsets]
    type_subsets = [frozenset()]
    for t in sorted(c.types):
        type_subsets += [s | {t} for s in type_subsets]
    found = [
        FormalConcept(e, i)
        for e in instance_subsets
        for i in type_subsets
        if derive(c, "instances", e) == i and derive(c, "types", i) == e
    ]
    return tuple(sorted(found, key=lambda k: (len(k.extent), sorted(k.extent))))
