"""The entailment engine: a theory compiled once, on its first query
(``SequentTheory._compiled``), so only a command that asks one loads it.
A query asks whether some model of the axioms violates ``<g |- d>``.
"""

from __future__ import annotations

import _thread

from .masks import _from_positions, _positions

MODELS_KEPT = 32  # recent models a compiled theory tries before searching


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
