"""Sequent theories with semantic entailment over states.

A state is a set of types assumed to hold (the shape of an instance
intent).  A state satisfies a sequent <antecedent |- consequent> unless
the whole antecedent holds while no consequent type does.  A theory
entails a sequent when every state satisfying all axioms satisfies it;
over a finite language this semantic reading coincides with closure
under the usual structural rules.

Everything runs on one bit-mask kernel: type k of the sorted language
is bit k, a state is the int of the types holding in it, and a sequent
is a pair of masks ``(g, d)`` that state ``x`` satisfies when
``g & ~x or d & x``.  A theory computes its index and axiom masks once;
one the kernel makes is born with them and builds its axioms if read.

Entailment is decided by refutation.  Each theory is compiled once, on
its first query, into a ``CompiledTheory``, whose one query asks on a
mask pair whether some model of the axioms violates ``<g |- d>``.  It
searches iteratively (so no theory is too deep for the interpreter's
stack), learns clauses that later queries reuse and keeps its recent
models as state masks; its literals stay inside it.  A full 2^|types|
state-enumeration oracle is kept alongside for checking.

The theory of a state set is read off two tables over the deduplicated
states, indexed by mask: where every type of ``g`` holds and where no
type of ``d`` does; ``<g |- d>`` is a theorem when the two are disjoint.
Every cap is charged before any state is enumerated.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .classification import Classification, _bits, _named, _reduce_fields, extent
from .errors import DEFAULT_SEQUENT_CAP, CapExceeded, IfkError

MODELS_KEPT = 32  # recent models a compiled theory tries before searching


@dataclass(frozen=True)
class Sequent:
    antecedent: frozenset[str]
    consequent: frozenset[str]

    def __post_init__(self):
        # materializations pass shared frozensets, which need no copy
        if type(self.antecedent) is not frozenset or type(self.consequent) is not frozenset:
            object.__setattr__(self, "antecedent", _names(self.antecedent, "sequent side"))
            object.__setattr__(self, "consequent", _names(self.consequent, "sequent side"))

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


def _names(names: Iterable[str], what: str) -> frozenset[str]:
    """``names`` as a frozenset; a bare str would be split into characters."""
    if isinstance(names, str):
        raise IfkError(f"{what} must be a collection of names, not the string {names!r}")
    return frozenset(names)


def sequent_key(s: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical sort key: sorted antecedent, then sorted consequent."""
    return (tuple(sorted(s.antecedent)), tuple(sorted(s.consequent)))


@dataclass(frozen=True)
class SequentTheory:
    types: frozenset[str]
    axioms: frozenset[Sequent]

    def __post_init__(self):
        if type(self.types) is not frozenset:
            object.__setattr__(self, "types", _names(self.types, "language"))
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        # each distinct side is checked once; materialized axioms share theirs
        sides = {a.antecedent for a in self.axioms} | {a.consequent for a in self.axioms}
        if not all(side <= self.types for side in sides):
            a = next(a for a in self.axioms if not a.types() <= self.types)
            raise IfkError(f"axiom {a!r} uses types outside the language")

    __reduce__ = _reduce_fields  # the engine holds a lock; a copy builds its own

    def __eq__(self, other):
        if type(other) is not SequentTheory:
            return NotImplemented
        if "axioms" in self.__dict__ and "axioms" in other.__dict__:  # derive no masks
            return self.types == other.types and self.axioms == other.axioms
        return self.types == other.types and self._masks == other._masks

    def __hash__(self):
        return hash((self.types, tuple(self._masks)))

    def __getattr__(self, name: str):
        """The axioms of a theory the kernel made, built on first read."""
        if name != "axioms" or "_masks" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        names, masks = list(self._index), self._masks
        sides = {m: _named(names, m) for m in {m for p in masks for m in p}}
        axioms = self.__dict__["axioms"] = frozenset(Sequent(sides[g], sides[d]) for g, d in masks)
        return axioms

    # Derived on first use and freed with the theory: the mask index, the
    # axiom masks and the entailment engine built from them.  Equality and
    # hashing read the language and the masks, which fix the axioms.
    @cached_property
    def _index(self) -> dict[str, int]:
        """Type k of the sorted language is bit k of every mask."""
        return {typ: k for k, typ in enumerate(sorted(self.types))}

    @cached_property
    def _masks(self) -> list[tuple[int, int]]:
        """Every axiom as its (antecedent, consequent) masks, sorted."""
        sides = {a.antecedent for a in self.axioms} | {a.consequent for a in self.axioms}
        mask = {side: _mask(self._index, side) for side in sides}
        return sorted((mask[a.antecedent], mask[a.consequent]) for a in self.axioms)

    @cached_property
    def _compiled(self) -> "CompiledTheory":
        return CompiledTheory(self)


@dataclass(frozen=True)
class FlatTheory:
    types: frozenset[str]
    members: frozenset[str]

    def __post_init__(self):
        if type(self.types) is not frozenset or type(self.members) is not frozenset:
            object.__setattr__(self, "types", _names(self.types, "language"))
            object.__setattr__(self, "members", _names(self.members, "flat theory members"))
        if not self.members <= self.types:
            raise IfkError("flat theory members must be drawn from its types")


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


# ---------------------------------------------------------------------------
# mask kernel

def _mask(index: Mapping[str, int], names: Iterable[str]) -> int:
    m = 0
    for name in names:
        m |= 1 << index[name]
    return m


def _models(t: SequentTheory) -> Iterator[int]:
    """Masks of the states satisfying every axiom, in ``all_states`` order."""
    masks = t._masks
    for r in range(len(t.types) + 1):
        for combo in itertools.combinations(range(len(t.types)), r):
            x = sum(1 << k for k in combo)
            if all(g & ~x or d & x for g, d in masks):
                yield x


def _columns(states: list[int], n: int) -> list[int]:
    """Per type k, the positions in ``states`` of the states where k holds."""
    columns = [0] * n
    for j, x in enumerate(states):
        for k in _bits(x):
            columns[k] |= 1 << j
    return columns


def _common(columns: list[int], m: int, everywhere: int) -> int:
    """The positions in ``everywhere`` where every member of ``m`` holds."""
    for k in _bits(m):
        everywhere &= columns[k]
    return everywhere


def _violating(t: SequentTheory, columns: list[int], everywhere: int) -> int:
    """The positions in ``everywhere`` whose state violates some axiom of
    ``t``; ``columns[k]`` holds the positions where type k holds."""
    missing: dict[int, int] = {}  # d -> the positions where no type of d holds
    out, last, above = 0, None, 0
    for g, d in t._masks:  # sorted, so axioms sharing g come together
        if g != last:
            if out == everywhere:
                break
            last, above = g, _common(columns, g, everywhere)
        if above & ~out:
            m = missing.get(d)
            if m is None:
                m = everywhere
                for k in _bits(d):
                    m &= ~columns[k]
                missing[d] = m
            out |= above & m
    return out


def _theory_of_masks(names: list[str], states: Iterable[int], cap: int, phase: str) -> SequentTheory:
    """Every sequent over the sorted ``names`` that all ``states`` satisfy.

    The cap is charged before ``states`` is read, so a lazy iterable is
    never enumerated past it.
    """
    n = len(names)
    required = 4 ** n
    if required > cap:
        raise CapExceeded(phase, required, cap)
    states = list(set(states))
    columns = _columns(states, n)
    # indexed by mask: the states where every type of it holds, where none does
    above = missing = [(1 << len(states)) - 1]
    for column in columns:
        above = above + [a & column for a in above]
        missing = missing + [m & ~column for m in missing]
    masks = [(g, d) for g, a in enumerate(above) for d, m in enumerate(missing) if not a & m]
    t = SequentTheory.__new__(SequentTheory)  # its axioms are built if they are read
    t.__dict__.update(types=frozenset(names), _index=dict(zip(names, range(n))), _masks=masks)
    return t


def satisfying_states(t: SequentTheory) -> list[frozenset[str]]:
    """All states over the language satisfying every axiom (2^|types| scan)."""
    names = list(t._index)
    return [_named(names, x) for x in _models(t)]


# ---------------------------------------------------------------------------
# compiled engine

class CompiledTheory:
    """A theory compiled once into int clauses, answering many queries.

    Its one query, ``refutes(g, d)``, takes a kernel mask pair.  Inside,
    literal ``2k`` says type k holds and ``2k + 1`` that it fails, so
    ``lit ^ 1`` negates; no literal leaves the engine.  The sequent
    <G |- D> is the clause "some g fails or some d holds"; tautological
    sequents are dropped and an empty one makes the theory
    unsatisfiable.  Every longer clause watches its first two literals
    (Moskewicz et al., "Chaff", 2001), and the propagation forced by
    unit axioms is settled once, at level 0.

    ``_solve`` searches iteratively with a trail and undo.  Assumptions
    are decided first, one level each, as in MiniSat (Een & Sorensson,
    2003), so a clause learned from a conflict is a resolvent of the
    axioms alone and stays valid for every later query.  The models that
    searches end in are kept as state masks, the most recent first: a
    query that one of them refutes is answered without a search.  The
    search state is shared between queries; a lock serializes them.
    """

    def __init__(self, t: SequentTheory):
        n = len(t.types)
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
        for g, d in t._masks:
            if g & d:
                continue  # holds in every state
            clause = sorted([2 * k + 1 for k in _bits(g)] + [2 * k for k in _bits(d)])
            if len(clause) > 1:
                self._watches[clause[0]].append(clause)
                self._watches[clause[1]].append(clause)
            elif not clause or self._value[clause[0]] == -1:
                self._unsat = True
            elif not self._value[clause[0]]:
                self._enqueue(clause[0], None)
        if not self._unsat:
            self._unsat = self._propagate() is not None

    def refutes(self, g: int, d: int) -> bool:
        """Some model of the axioms violates <g |- d>: every type of ``g``
        holds in it and no type of ``d`` does."""
        if g & d:
            return False  # holds in every state
        with self._lock:
            if self._unsat:
                return False
            for x in self._models:
                if x & g == g and not x & d:
                    return True
            try:
                if not self._solve(g, d):
                    return False
                x = sum(1 << (lit >> 1) for lit in self._trail if not lit & 1)
                self._models = [x, *self._models[: MODELS_KEPT - 1]]
                return True
            finally:
                self._backtrack(0)

    def _solve(self, g: int, d: int) -> bool:
        """Some state satisfies every axiom, with ``g`` holding and ``d`` failing."""
        value, limits = self._value, self._limits
        assumptions = [2 * k for k in _bits(g)] + [2 * k + 1 for k in _bits(d)]
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
    return t._compiled.refutes(0, 0)  # the empty sequent fails in every state


def is_consistent_by_enumeration(t: SequentTheory) -> bool:
    """State-enumeration oracle for ``is_consistent``; kept independent of the engine."""
    return any(
        all(_sat(a.antecedent, a.consequent, x) for a in t.axioms) for x in all_states(t.types)
    )


def _require_within(types: frozenset[str], s: Sequent) -> None:
    outside = s.types() - types
    if outside:
        raise IfkError(f"sequent uses types outside the language: {', '.join(sorted(outside))}")


def entails(t: SequentTheory, s: Sequent) -> bool:
    """Every state satisfying the axioms of ``t`` satisfies ``s``: no model refutes it."""
    _require_within(t.types, s)
    index = t._index
    return not t._compiled.refutes(_mask(index, s.antecedent), _mask(index, s.consequent))


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
) -> SequentTheory:
    """Materialize every sequent over ``types`` satisfied by all ``states``.

    Types of a state outside ``types`` do not bear on satisfaction.
    """
    names = sorted(frozenset(types))
    index = {name: k for k, name in enumerate(names)}
    masks = (_mask(index, (name for name in x if name in index)) for x in states)
    return _theory_of_masks(names, masks, cap, "theory materialization")


def close(t: SequentTheory, cap: int = DEFAULT_SEQUENT_CAP) -> SequentTheory:
    """Materialize the closure: all sequents over the language entailed by ``t``."""
    return _theory_of_masks(list(t._index), _models(t), cap, "theory closure")


def theory_leq(t1: SequentTheory, t2: SequentTheory) -> bool:
    """``t1`` is at or below ``t2``: every axiom of ``t2`` is a theorem of ``t1``."""
    if t1.types != t2.types:
        raise IfkError("language mismatch: theories are ordered over a shared language")
    # equal languages, so t2's masks are over t1's index
    return not any(t1._compiled.refutes(g, d) for g, d in t2._masks)


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
