"""Sequent theories with semantic entailment over states.

A state is a set of types assumed to hold (the shape of an instance
intent).  A state satisfies a sequent <antecedent |- consequent> unless
the whole antecedent holds while no consequent type does.  A theory
entails a sequent when every state satisfying all axioms satisfies it;
over a finite language this semantic reading coincides with closure
under the usual structural rules.

Entailment is decided by refutation: each sequent is a clause (some
antecedent type fails or some consequent type holds), the query adds
unit assertions for its antecedent and against its consequent, and a
backtracking search with unit propagation tests unsatisfiability.  A
full 2^|types| state-enumeration oracle is kept alongside for checking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .classification import Classification, extent
from .errors import CapExceeded, IfkError, ValidationResult

DEFAULT_SEQUENT_CAP = 65536  # 4^8: materialized closures up to 8 types


@dataclass(frozen=True)
class Sequent:
    antecedent: frozenset[str]
    consequent: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))
        object.__setattr__(self, "consequent", frozenset(self.consequent))

    def types(self) -> frozenset[str]:
        return self.antecedent | self.consequent

    def rename(self, mapping: Mapping[str, str]) -> "Sequent":
        return Sequent(
            frozenset(mapping[t] for t in self.antecedent),
            frozenset(mapping[t] for t in self.consequent),
        )

    def __repr__(self) -> str:
        return (
            f"<{','.join(sorted(self.antecedent))} |- "
            f"{','.join(sorted(self.consequent))}>"
        )


def sequent_key(s: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical sort key: sorted antecedent, then sorted consequent."""
    return (tuple(sorted(s.antecedent)), tuple(sorted(s.consequent)))


@dataclass(frozen=True)
class SequentTheory:
    types: frozenset[str]
    axioms: frozenset[Sequent]

    def __post_init__(self):
        object.__setattr__(self, "types", frozenset(self.types))
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        for a in self.axioms:
            if not a.types() <= self.types:
                raise IfkError(f"axiom {a!r} uses types outside the language")


@dataclass(frozen=True)
class FlatTheory:
    types: frozenset[str]
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "types", frozenset(self.types))
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members <= self.types:
            raise IfkError("flat theory members must be drawn from its types")


def _sat(antecedent: frozenset[str], consequent: frozenset[str], holds: frozenset[str]) -> bool:
    return not (antecedent <= holds and consequent.isdisjoint(holds))


def state_satisfies(s: Sequent, holds: frozenset[str], sigma: Iterable[str] | None = None) -> bool:
    """Satisfaction of one sequent in the state where exactly ``holds`` holds.

    When ``sigma`` is given, both the sequent and the state must stay
    inside it.
    """
    if sigma is not None:
        sigma = frozenset(sigma)
        outside = (s.types() | holds) - sigma
        if outside:
            raise IfkError(f"type(s) outside the language: {', '.join(sorted(outside))}")
    return _sat(s.antecedent, s.consequent, holds)


def all_states(types: Iterable[str]) -> Iterator[frozenset[str]]:
    """Every subset of ``types``, smallest first, lexicographic within a size."""
    elems = sorted(types)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            yield frozenset(combo)


def satisfying_states(t: SequentTheory) -> list[frozenset[str]]:
    """All states over the language satisfying every axiom (2^|types| scan)."""
    return [
        x
        for x in all_states(t.types)
        if all(_sat(a.antecedent, a.consequent, x) for a in t.axioms)
    ]


# ---------------------------------------------------------------------------
# backtracking engine

def _clauses(t: SequentTheory, index: Mapping[str, int]) -> list[frozenset[int]]:
    out = []
    for a in t.axioms:
        clause = frozenset(
            [-(index[g] + 1) for g in a.antecedent] + [index[d] + 1 for d in a.consequent]
        )
        out.append(clause)
    return out


def _assign(clauses: list[set[int]], lit: int) -> list[set[int]] | None:
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            reduced = c - {-lit}
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(c)
    return out


def _search(clauses: list[set[int]]) -> bool:
    while True:
        if not clauses:
            return True
        unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = _assign(clauses, unit)
        if clauses is None:
            return False
    var = min(abs(l) for c in clauses for l in c)
    for lit in (var, -var):
        branch = _assign(clauses, lit)
        if branch is not None and _search(branch):
            return True
    return False


def _satisfiable(clause_sets: list[frozenset[int]]) -> bool:
    clauses = []
    for c in clause_sets:
        if not c:
            return False
        if any(-l in c for l in c):
            continue  # internally complementary: satisfied either way
        clauses.append(set(c))
    return _search(clauses)


def is_consistent(t: SequentTheory) -> bool:
    """Some state over the language satisfies every axiom."""
    index = {typ: k for k, typ in enumerate(sorted(t.types))}
    return _satisfiable(_clauses(t, index))


def is_consistent_by_enumeration(t: SequentTheory) -> bool:
    return bool(satisfying_states(t))


def _require_within(types: frozenset[str], s: Sequent) -> None:
    outside = s.types() - types
    if outside:
        raise IfkError(f"sequent uses types outside the language: {', '.join(sorted(outside))}")


def entails(t: SequentTheory, s: Sequent) -> bool:
    """Every state satisfying the axioms of ``t`` satisfies ``s``.

    Decided by refutation: assert the antecedent, deny the consequent,
    test unsatisfiability.
    """
    _require_within(t.types, s)
    index = {typ: k for k, typ in enumerate(sorted(t.types))}
    clauses = _clauses(t, index)
    clauses += [frozenset([index[g] + 1]) for g in s.antecedent]
    clauses += [frozenset([-(index[d] + 1)]) for d in s.consequent]
    return not _satisfiable(clauses)


def entails_by_enumeration(t: SequentTheory, s: Sequent) -> bool:
    """State-enumeration oracle for ``entails``; kept independent of the engine."""
    _require_within(t.types, s)
    for holds in all_states(t.types):
        if all(_sat(a.antecedent, a.consequent, holds) for a in t.axioms) and not _sat(
            s.antecedent, s.consequent, holds
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# closure and the entailment order

def theory_of_states(
    types: Iterable[str],
    states: Iterable[frozenset[str]],
    cap: int = DEFAULT_SEQUENT_CAP,
    phase: str = "theory materialization",
) -> SequentTheory:
    """Materialize every sequent over ``types`` satisfied by all ``states``."""
    types = frozenset(types)
    required = 4 ** len(types)
    if required > cap:
        raise CapExceeded(phase, required, cap)
    states = list(states)
    subsets = list(all_states(types))
    axioms = frozenset(
        Sequent(g, d)
        for g in subsets
        for d in subsets
        if all(_sat(g, d, x) for x in states)
    )
    return SequentTheory(types, axioms)


def close(t: SequentTheory, cap: int = DEFAULT_SEQUENT_CAP) -> SequentTheory:
    """Materialize the closure: all sequents over the language entailed by ``t``."""
    return theory_of_states(t.types, satisfying_states(t), cap, "theory closure")


def theory_leq(t1: SequentTheory, t2: SequentTheory) -> bool:
    """``t1`` is at or below ``t2``: every axiom of ``t2`` is a theorem of ``t1``."""
    if t1.types != t2.types:
        raise IfkError("language mismatch: theories are ordered over a shared language")
    return all(entails(t1, a) for a in t2.axioms)


def top_theory(types: Iterable[str]) -> SequentTheory:
    """The empty theory; its closure is exactly the tautologies."""
    return SequentTheory(frozenset(types), frozenset())


def bottom_theory(types: Iterable[str]) -> SequentTheory:
    """The inconsistent theory; it entails every sequent over the language."""
    return SequentTheory(frozenset(types), frozenset([Sequent(frozenset(), frozenset())]))


# ---------------------------------------------------------------------------
# lattice-of-theories moves

def contract(t: SequentTheory, axioms: Iterable[Sequent]) -> SequentTheory:
    axioms = frozenset(axioms)
    missing = axioms - t.axioms
    if missing:
        raise IfkError(
            "unknown axiom(s): " + ", ".join(repr(a) for a in sorted(missing, key=sequent_key))
        )
    return SequentTheory(t.types, t.axioms - axioms)


def expand(t: SequentTheory, axioms: Iterable[Sequent]) -> SequentTheory:
    axioms = frozenset(axioms)
    for a in axioms:
        if not a.types() <= t.types:
            raise IfkError(f"axiom {a!r} is outside the language")
    return SequentTheory(t.types, t.axioms | axioms)


def revise(t: SequentTheory, delete: Iterable[Sequent], add: Iterable[Sequent]) -> SequentTheory:
    return expand(contract(t, delete), add)


def analogy(t: SequentTheory, renaming: Mapping[str, str]) -> SequentTheory:
    """Systematic renaming of the language along a bijection."""
    if frozenset(renaming) != t.types:
        raise IfkError("renaming must be defined on exactly the language")
    values = list(renaming.values())
    if len(set(values)) != len(values):
        raise IfkError("renaming is not a bijection")
    return SequentTheory(frozenset(values), frozenset(a.rename(renaming) for a in t.axioms))


# ---------------------------------------------------------------------------
# theory morphisms and flat theories

def _require_total(type_map: Mapping[str, str], domain: frozenset[str], codomain: frozenset[str]):
    missing = domain - type_map.keys()
    if missing:
        raise IfkError(f"type map not total, missing: {', '.join(sorted(missing))}")
    bad = {t for t in domain if type_map[t] not in codomain}
    if bad:
        raise IfkError(f"type map lands outside the target language at: {', '.join(sorted(bad))}")


def check_theory_morphism(
    f: Mapping[str, str], t1: SequentTheory, t2: SequentTheory
):
    """``f`` is a theory morphism when every axiom image is a theorem of ``t2``."""
    _require_total(f, t1.types, t2.types)
    defects = tuple(
        a for a in sorted(t1.axioms, key=sequent_key) if not entails(t2, a.rename(f))
    )
    return ValidationResult.from_defects(defects)


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
