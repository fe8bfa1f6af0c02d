"""Sequent theories with semantic entailment over states.

A state is a set of types assumed to hold (the shape of an instance
intent).  A state satisfies a sequent <antecedent |- consequent> unless
the whole antecedent holds while no consequent type does.  A theory
entails a sequent when every state satisfying all axioms satisfies it;
over a finite language this semantic reading coincides with closure
under the usual structural rules.

Entailment is decided by refutation: each sequent is a clause (some
antecedent type fails or some consequent type holds), and a query asks
whether the axioms stay satisfiable with the antecedent assumed to hold
and the consequent to fail.  Each theory is compiled once, on its first
query, into a ``CompiledTheory``: int clauses with two watched literals,
searched iteratively (so no theory is too deep for the interpreter's
stack), learning clauses that later queries reuse.
A full 2^|types| state-enumeration oracle is kept alongside for checking.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .classification import Classification, extent
from .errors import CapExceeded, IfkError

DEFAULT_SEQUENT_CAP = 65536  # 4^8: materialized closures up to 8 types
MODELS_KEPT = 32  # recent models a compiled theory tries before searching


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

    # The entailment engine, compiled on first query and freed with the
    # theory; equality and hashing read the fields only.
    @cached_property
    def _compiled(self) -> "CompiledTheory":
        return CompiledTheory(self)

    def __getstate__(self):
        # the engine holds a lock; a copy compiles its own on first query
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


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
# compiled engine

class CompiledTheory:
    """A theory compiled once into int clauses, answering many queries.

    Type k of the sorted language is variable k; literal ``2k`` says the
    type holds and ``2k + 1`` that it fails, so ``lit ^ 1`` negates.
    The sequent <G |- D> is the clause "some g fails or some d holds";
    tautological sequents are dropped and an empty one makes the theory
    unsatisfiable.  Every longer clause watches its first two literals
    (Moskewicz et al., "Chaff", 2001), and the propagation forced by
    unit axioms is settled once, at level 0.

    ``solve`` searches iteratively with a trail and undo.  Assumptions
    are decided first, one level each, as in MiniSat (Een & Sorensson,
    2003), so a clause learned from a conflict is a resolvent of the
    axioms alone and stays valid for every later query.  The models that
    satisfiable queries end in are kept too, the most recent first: a
    query that one of them satisfies is answered without a search.  The
    search state is shared between queries; a lock serializes them.
    """

    def __init__(self, t: SequentTheory):
        self.index = {typ: k for k, typ in enumerate(sorted(t.types))}
        n = len(self.index)
        self._value = [0] * (2 * n)  # per literal: 1 true, -1 false, 0 free
        self._level = [0] * n
        self._reason: list[list[int] | None] = [None] * n
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * n)]
        self._trail: list[int] = []
        self._limits: list[int] = []  # trail length where each decision level starts
        self._head = 0  # trail position of the next literal to propagate
        self._free = 0  # no variable below this one is free
        self._lock = threading.Lock()
        self._unsat = False
        self._models: list[int] = []
        for a in sorted(t.axioms, key=sequent_key):
            clause = {2 * self.index[g] + 1 for g in a.antecedent}
            clause |= {2 * self.index[d] for d in a.consequent}
            if any(lit ^ 1 in clause for lit in clause):
                continue  # holds in every state
            clause = sorted(clause)
            if len(clause) > 1:
                self._watches[clause[0]].append(clause)
                self._watches[clause[1]].append(clause)
            elif not clause or self._value[clause[0]] == -1:
                self._unsat = True
            elif not self._value[clause[0]]:
                self._enqueue(clause[0], None)
        if not self._unsat:
            self._unsat = self._propagate() is not None

    def entails(self, antecedent: Iterable[str], consequent: Iterable[str]) -> bool:
        """The axioms entail <antecedent |- consequent>, each side naming types of the language."""
        index = self.index
        holds = {index[g] for g in antecedent}
        fails = {index[d] for d in consequent}
        if not holds.isdisjoint(fails):
            return True  # holds in every state
        return not self.solve([2 * v for v in holds] + [2 * v + 1 for v in fails])

    def solve(self, assumptions: list[int]) -> bool:
        """Some state satisfies every axiom and every assumed literal."""
        want = 0
        for lit in assumptions:
            want |= 1 << lit
        with self._lock:
            if self._unsat:
                return False
            for model in self._models:
                if model & want == want:
                    return True
            try:
                found = self._solve(assumptions)
                if found:
                    model = sum(1 << lit for lit in self._trail)
                    self._models = [model, *self._models[: MODELS_KEPT - 1]]
                return found
            finally:
                self._backtrack(0)

    def _solve(self, assumptions: list[int]) -> bool:
        value, limits = self._value, self._limits
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not limits:
                    self._unsat = True  # the axioms alone conflict
                    return False
                learnt, level = self._analyze(conflict)
                self._backtrack(level)
                if len(learnt) > 1:
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                else:
                    self._enqueue(learnt[0], None)
                continue
            while len(limits) < len(assumptions):
                lit = assumptions[len(limits)]
                if value[lit] == -1:
                    return False  # the axioms and earlier assumptions refute it
                limits.append(len(self._trail))
                if value[lit] == 0:
                    self._enqueue(lit, None)
                    break
            else:
                v = self._free
                while v < len(self._level) and value[2 * v]:
                    v += 1
                self._free = v
                if v == len(self._level):
                    return True
                limits.append(len(self._trail))
                self._enqueue(2 * v + 1, None)  # try "fails" first

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        self._value[lit] = 1
        self._value[lit ^ 1] = -1
        self._level[lit >> 1] = len(self._limits)
        self._reason[lit >> 1] = reason
        self._trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation over the watches; returns a falsified clause."""
        value, watches, trail = self._value, self._watches, self._trail
        while self._head < len(trail):
            false_lit = trail[self._head] ^ 1
            self._head += 1
            ws = watches[false_lit]
            kept = 0
            for pos, c in enumerate(ws):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                if value[c[0]] == 1:
                    ws[kept] = c
                    kept += 1
                    continue
                for k in range(2, len(c)):
                    if value[c[k]] != -1:
                        c[1], c[k] = c[k], false_lit
                        watches[c[1]].append(c)
                        break
                else:
                    ws[kept] = c
                    kept += 1
                    if value[c[0]] == -1:
                        ws[kept:pos + 1] = []
                        return c
                    self._enqueue(c[0], c)
            del ws[kept:]
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning: the learned clause and the level to return to."""
        level, reason, trail = self._level, self._reason, self._trail
        top = len(self._limits)
        learnt = [0]
        seen: set[int] = set()
        pending, lit, pos, clause = 0, -1, len(trail), conflict
        while True:
            for q in clause:
                v = q >> 1
                if q != lit and v not in seen and level[v]:
                    seen.add(v)
                    if level[v] == top:
                        pending += 1
                    else:
                        learnt.append(q)
            pos -= 1
            while trail[pos] >> 1 not in seen:
                pos -= 1
            lit = trail[pos]
            pending -= 1
            if not pending:
                break
            clause = reason[lit >> 1]
        learnt[0] = lit ^ 1
        if len(learnt) == 1:
            return learnt, 0
        k = max(range(1, len(learnt)), key=lambda j: level[learnt[j] >> 1])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _backtrack(self, level: int) -> None:
        if len(self._limits) <= level:
            return
        start = self._limits[level]
        value = self._value
        undone = self._trail[start:]
        for lit in undone:
            value[lit] = value[lit ^ 1] = 0
        if undone:
            self._free = min(self._free, min(undone) >> 1)
        del self._trail[start:]
        del self._limits[level:]
        self._head = start


def is_consistent(t: SequentTheory) -> bool:
    """Some state over the language satisfies every axiom."""
    return t._compiled.solve([])


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
    return t._compiled.entails(s.antecedent, s.consequent)


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
    return SequentTheory(t.types, t.axioms | frozenset(axioms))


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
# flat theories

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
