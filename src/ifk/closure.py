"""Theories as sets of states: models, closure and the moves between theories.

A theory's models are found in one bit-parallel scan over its 2^|types|
states.  The theory of a state set is read off one row per antecedent
``g``: the consequents that meet every state above ``g``, as a bitset,
and each theorem is one int.  Every materialization charges its cap
before reading a state.  The entailment order, top and bottom,
contraction, expansion, revision and analogy are here too, and so are the
2^|types| state-enumeration oracles that check the engine of
``ifk.theories``.  Renaming axiom ints along a type map (``_renamed``,
``_flowed``) is ``ifk.flow``'s, so a flow loads no state-set code.
"""

from __future__ import annotations

import itertools

from .errors import DEFAULT_SEQUENT_CAP, CapExceeded, IfkError
from .masks import _FLAGS, _canonical, _common, _mask, _named, _positions
from .theories import Sequent, SequentTheory, _indexed, _require_within, _theory_of_index, sequent_key


def _state_columns(n: int) -> list[int]:
    """Per type k, the states among ``range(2**n)`` where k holds, as bits."""
    everywhere = (1 << (1 << n)) - 1
    return [everywhere // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1 << (1 << k)) for k in range(n)]


def _violating(t: SequentTheory, columns: list[int], everywhere: int) -> int:
    """The positions in ``everywhere`` whose state violates some axiom of
    ``t``; ``columns[k]`` holds the positions where type k holds."""
    missing: dict[int, int] = {}  # d -> the positions where no type of d holds
    negated, out, last, above = [~column for column in columns], 0, None, 0
    n, low = len(t.types), (1 << len(t.types)) - 1
    for p in t._masks:  # sorted, so axioms sharing g come together
        g, d = p >> n, p & low
        if g & d:
            continue  # holds in every state
        if g != last:
            if out == everywhere:
                break
            last, above = g, _common(columns, g, everywhere)
        if above & ~out:
            if d not in missing:
                missing[d] = _common(negated, d, everywhere)
            out |= above & missing[d]
    return out


def _model_mask(t: SequentTheory) -> int:
    """The states satisfying every axiom, as bits over all 2^|types| states."""
    everywhere = (1 << (1 << len(t.types))) - 1
    return everywhere & ~_violating(t, _state_columns(len(t.types)), everywhere)


def _models(t: SequentTheory) -> Iterator[int]:
    """Masks of the states satisfying every axiom, lowest first; none is built before a read."""
    yield from _positions(_model_mask(t))


def satisfying_states(t: SequentTheory) -> list[frozenset[str]]:
    """All states satisfying every axiom, in ``all_states`` order (a 2^|types| scan)."""
    names = list(t._index)
    return [_named(names, x) for x in _canonical(_models(t))]


def _theory_of_masks(names: list[str], states: Iterable[int], cap: int, phase: str) -> SequentTheory:
    """Every sequent over the sorted ``names`` that all ``states`` satisfy.

    ``<g |- d>`` is a theorem when ``d`` meets every state above ``g``.
    Row ``g`` is the set of such ``d``, as bits over the 2^n consequents:
    it starts as the ``d`` that meet ``g`` where ``g`` is a state, and as
    every ``d`` elsewhere, and a sweep over supersets ANDs each row with
    the row one type above it, n·2^(n-1) row ANDs in all.  The rows are
    then read off as flags over ``range(4**n)``, so each theorem costs one
    int ``g << n | d`` and no Python step.

    The cap is charged before ``states`` is read, so a lazy iterable is
    never enumerated past it.
    """
    n = len(names)
    required = 4 ** n
    if required > cap:
        raise CapExceeded(phase, required, cap)
    size = 1 << n
    meets = [0]  # indexed by state: the consequents that meet it
    for column in _state_columns(n):
        meets += [m | column for m in meets]
    rows = [(1 << size) - 1] * size
    for x in states:
        rows[x] = meets[x]
    for k in range(n):
        bit = 1 << k
        for g in range(size):
            if not g & bit:
                rows[g] &= rows[g | bit]
    # a row's bits, lowest first, as bytes 0 and 1; many rows are equal
    flags = {w: format(w, f"0{size}b")[::-1].encode().translate(_FLAGS) for w in set(rows)}
    masks = list(itertools.compress(range(size * size), b"".join(map(flags.__getitem__, rows))))
    return _theory_of_index(dict(zip(names, range(n))), masks)


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
    index = _indexed(frozenset(types))
    masks = (_mask(index, (name for name in x if name in index)) for x in states)
    return _theory_of_masks(list(index), masks, cap, "theory materialization")


def close(t: SequentTheory, cap: int = DEFAULT_SEQUENT_CAP) -> SequentTheory:
    """Materialize the closure: all sequents over the language entailed by ``t``."""
    return _theory_of_masks(list(t._index), _models(t), cap, "theory closure")


def theory_leq(t1: SequentTheory, t2: SequentTheory) -> bool:
    """``t1`` is at or below ``t2``: every axiom of ``t2`` is a theorem of ``t1``."""
    if t1.types != t2.types:
        raise IfkError("language mismatch: theories are ordered over a shared language")
    # t2's masks are over t1's index.  An axiom of t2 with an axiom of t2
    # one type smaller on either side (one bit fewer in its int) follows
    # from that one by weakening; descending so ends at an axiom that is
    # checked.
    masks, n = t2._masks, len(t2.types)
    held, low = set(masks), (1 << n) - 1
    return not any(
        t1._compiled.refutes(p >> n, p & low)
        for p in masks
        if not p >> n & p  # g & d: a tautology holds in every theory
        and not any(p ^ (1 << k) in held for k in _positions(p))
    )


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
    """Systematic renaming of the language along a bijection: the flow along it."""
    from .flow import _flowed
    if frozenset(renaming) != t.types:
        raise IfkError("renaming must be defined on exactly the language")
    if len(set(renaming.values())) != len(renaming):
        raise IfkError("renaming is not a bijection")
    return _flowed(renaming.values(), [(t, renaming)])


# ---------------------------------------------------------------------------
# state-enumeration oracles

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
