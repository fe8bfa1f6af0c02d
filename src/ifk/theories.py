"""Sequent theories and entailment over states.

A state is a set of types assumed to hold (the shape of an instance
intent).  A state satisfies a sequent <antecedent |- consequent> unless
the whole antecedent holds while no consequent type does.  A theory
entails a sequent when every state satisfying all axioms satisfies it;
over a finite language this semantic reading coincides with closure
under the usual structural rules.

Type k of the sorted language is bit k, a state is the int of the types
holding in it, and a sequent over n types is the one int ``g << n | d``
of its antecedent mask ``g`` and consequent mask ``d``, which state
``x`` satisfies when ``g & ~x or d & x``; sorting these ints sorts by
``(g, d)``.  A theory is its index and sorted axiom ints, which
equality, hashing, every flow and its report rendering read; it builds
its ``Sequent`` axioms only if read.

Entailment is decided by refutation.  Each theory is compiled once, on
its first query, into a ``CompiledTheory``, whose one query asks on a
mask pair whether some model of the axioms violates ``<g |- d>``.  It
searches iteratively (so no theory is too deep for the interpreter's
stack), learns clauses that later queries reuse and keeps its recent
models as state masks; its literals stay inside it.  Closure, theories
of state sets, the entailment order, revisions and the state-enumeration
oracles are in ``ifk.closure``, which deciding entailment does not load.
"""

from __future__ import annotations

import _thread
from bisect import bisect_left
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

from .errors import IfkError, _set_field, _Value
from .masks import _from_positions, _mask, _named, _positions

MODELS_KEPT = 32  # recent models a compiled theory tries before searching


class Sequent(_Value):
    antecedent: frozenset[str]
    consequent: frozenset[str]

    def __init__(self, antecedent: Iterable[str], consequent: Iterable[str]):
        # materialized axioms and integrate's deltas need no copy
        if type(antecedent) is not frozenset or type(consequent) is not frozenset:
            antecedent, consequent = (_names(s, "sequent side") for s in (antecedent, consequent))
        _set_field(self, "antecedent", antecedent)
        _set_field(self, "consequent", consequent)

    def types(self) -> frozenset[str]:
        return self.antecedent | self.consequent

    def rename(self, mapping: Mapping[str, str]) -> "Sequent":
        return Sequent(
            frozenset(mapping[t] for t in self.antecedent),
            frozenset(mapping[t] for t in self.consequent),
        )

    def __repr__(self) -> str:
        return _text(self.antecedent, self.consequent)


def _text(antecedent: Iterable[str], consequent: Iterable[str]) -> str:
    """A sequent as ``<a,b |- c>``, each side sorted."""
    return f"<{','.join(sorted(antecedent))} |- {','.join(sorted(consequent))}>"


def _names(names: Iterable[str], what: str) -> frozenset[str]:
    """``names`` as a frozenset; a bare str would be split into characters."""
    if isinstance(names, str):
        raise IfkError(f"{what} must be a collection of names, not the string {names!r}")
    return frozenset(names)


def sequent_key(s: Sequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Canonical sort key: sorted antecedent, then sorted consequent."""
    return (tuple(sorted(s.antecedent)), tuple(sorted(s.consequent)))


class SequentTheory(_Value):
    types: frozenset[str]
    axioms: frozenset[Sequent]

    def __init__(self, types: Iterable[str], axioms: Iterable[Sequent]):
        types, axioms = _names(types, "language"), tuple(axioms)
        outside = [sequent_key(a) for a in axioms if not a.types() <= types]
        if outside:  # the least, so that every run names the same one
            raise IfkError(f"axiom {_text(*min(outside))} uses types outside the language")
        index, n = _indexed(types), len(types)
        masks = {_mask(index, a.antecedent) << n | _mask(index, a.consequent) for a in axioms}
        self.__dict__.update(types=types, _index=index, _masks=sorted(masks))

    # The language and the axiom ints fix the axioms; a copy carries the ints alone.
    def __eq__(self, other):
        if type(other) is not SequentTheory:
            return NotImplemented
        return self.types == other.types and self._masks == other._masks

    def __hash__(self):
        return hash((self.types, tuple(self._masks)))

    def __reduce__(self):
        return _theory_of_index, (dict(self._index), self._masks)

    @cached_property
    def axioms(self) -> frozenset[Sequent]:
        """The axioms, built on first read."""
        names, masks = list(self._index), self._masks
        n, low = len(names), (1 << len(names)) - 1
        sides = {m: _named(names, m) for m in {p >> n for p in masks} | {p & low for p in masks}}
        return frozenset(Sequent(sides[p >> n], sides[p & low]) for p in masks)

    def _json(self, indent: str, out: list[str]) -> None:
        """The axioms as ``canonical_json`` renders them, each distinct side rendered once."""
        masks, n, low = self._masks, len(self.types), (1 << len(self.types)) - 1
        groups: dict[int, list[int]] = {}  # antecedent -> its consequents
        start = 0
        while start < len(masks):  # sorted, so the axioms sharing g are a slice
            g = masks[start] >> n
            end = bisect_left(masks, (g + 1) << n, start)
            groups[g] = [p & low for p in masks[start:end]]
            start = end
        names, inner = list(self._index), indent + "  "
        key, item = inner + "  ", inner + "    "
        sides = {m: [names[k] for k in _positions(m)] for m in set(groups).union(*groups.values())}
        rank = {m: r for r, m in enumerate(sorted(sides, key=sides.__getitem__))}
        texts = {m: "[" + item + ("," + item).join(map(_quote, s)) + key + "]" if s else "[]"
                 for m, s in sides.items()}
        tails = {m: text + inner + "}," for m, text in texts.items()}  # a consequent, to the comma
        out.append("[")
        for g in sorted(groups, key=rank.__getitem__):
            head = inner + "{" + key + '"ant": ' + texts[g] + "," + key + '"con": '
            for d in sorted(groups[g], key=rank.__getitem__):
                out.append(head)
                out.append(tails[d])
        out[-1] = out[-1][:-1] + indent + "]" if groups else "[]"  # the last comma goes

    @cached_property
    def _compiled(self) -> "CompiledTheory":
        return CompiledTheory(self)


def _indexed(types: Iterable[str]) -> dict[str, int]:
    """Type k of the sorted language is bit k of every mask."""
    return {typ: k for k, typ in enumerate(sorted(types))}


def _theory_of_index(index: dict[str, int], masks: list[int]) -> SequentTheory:
    """The theory over ``index`` with sorted kernel ``masks``; axioms are built when read."""
    t = SequentTheory.__new__(SequentTheory)
    t.__dict__.update(types=frozenset(index), _index=index, _masks=masks)
    return t


# ---------------------------------------------------------------------------
# compiled engine

class CompiledTheory:
    """A theory compiled once into int clauses, answering many queries.

    Its one query, ``refutes(g, d)``, takes a kernel mask pair.  Inside,
    literal ``2k`` says type k holds and ``2k + 1`` that it fails, so
    ``lit ^ 1`` negates; no literal leaves the engine.  The sequent
    <G |- D> is the clause "some g fails or some d holds"; tautological
    sequents are dropped and an empty one makes the theory
    unsatisfiable.  An axiom int is decoded in one pass, its bits peeled
    top first by ``bit_length()`` and looked up in one table (bit k of
    ``d`` is ``2k``, bit k of ``g`` is ``2k + 1``), and sorted once.  Every
    longer clause watches its first two literals (Moskewicz et al.,
    "Chaff", 2001); unit axioms are propagated once, at level 0.

    ``_solve`` searches iteratively with a trail and undo.  Assumptions
    are decided first, one level each, as in MiniSat (Een & Sorensson,
    2003), so a clause learned from a conflict is a resolvent of the
    axioms alone and stays valid for every later query.  The models that
    searches end in are read off the trail into state masks and kept, the
    most recent first: a query that one of them refutes is answered
    without a search.  The search state is shared between queries; a
    lock serializes them.
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
        self._lock = _thread.allocate_lock()  # built in and already loaded: imports nothing
        self._unsat = False
        self._models: list[int] = []
        lits = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]  # bit j of g << n | d
        for p in t._masks:
            if p >> n & p:
                continue  # g & d: holds in every state
            clause = []  # inline: via _positions, the 7 benchmark entail theories took 3.8 ms, not 1.9
            while p:  # bit_length() reads the top digit alone
                j = p.bit_length() - 1
                clause.append(lits[j])
                p ^= 1 << j
            clause.sort()
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
                x = _from_positions([lit >> 1 for lit in self._trail if not lit & 1])
                self._models = [x, *self._models[: MODELS_KEPT - 1]]
                return True
            finally:
                self._backtrack(0)

    def _solve(self, g: int, d: int) -> bool:
        """Some state satisfies every axiom, with ``g`` holding and ``d`` failing."""
        value, limits = self._value, self._limits
        assumptions = [2 * k for k in _positions(g)] + [2 * k + 1 for k in _positions(d)]
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


def _require_within(types: frozenset[str], s: Sequent) -> None:
    outside = s.types() - types
    if outside:
        raise IfkError(f"sequent uses types outside the language: {', '.join(sorted(outside))}")


def entails(t: SequentTheory, s: Sequent) -> bool:
    """Every state satisfying the axioms of ``t`` satisfies ``s``: no model refutes it."""
    _require_within(t.types, s)
    index = t._index
    return not t._compiled.refutes(_mask(index, s.antecedent), _mask(index, s.consequent))


def __getattr__(name: str):
    """``close`` and ``satisfying_states``, which ``perfbench`` imports from
    here; ``ifk.closure`` is loaded when one of them is read, not before."""
    if name in ("close", "satisfying_states"):
        from . import closure
        return getattr(closure, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
