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
its ``Sequent`` axioms only if read.  A bundle's theories and the
command line's sequent literal are read here.

Entailment is decided by refutation, by the engine of ``ifk.engine``,
which a theory compiles on its first query.  Closure is ``ifk.closure``'s
and the entailment order ``ifk.logics``'s: deciding entailment loads
neither, and a closure compiles no engine.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote

from .errors import BundleError, IfkError, _set_field, _Value
from .masks import _expect, _ident_list, _mask, _named, _positions, valid_identifier


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
    def _compiled(self) -> CompiledTheory:
        from .engine import CompiledTheory  # loaded by the first query, not by a closure
        return CompiledTheory(self)


def _indexed(types: Iterable[str]) -> dict[str, int]:
    """Type k of the sorted language is bit k of every mask."""
    return {typ: k for k, typ in enumerate(sorted(types))}


def _theory_of_index(index: dict[str, int], masks: list[int]) -> SequentTheory:
    """The theory over ``index`` with sorted kernel ``masks``; axioms are built when read."""
    t = SequentTheory.__new__(SequentTheory)
    t.__dict__.update(types=frozenset(index), _index=index, _masks=masks)
    return t


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


# ---------------------------------------------------------------------------
# reading theories and sequents

def parse_sequent(literal: str) -> Sequent:
    """Command-line sequent literal: ``a, b |- c`` (either side may be empty)."""
    if literal.count("|-") != 1:
        raise BundleError(f"sequent literal needs exactly one '|-': {literal!r}")
    left, right = ([part.strip() for part in side.split(",") if part.strip()]
                   for side in literal.split("|-"))
    for name in left + right:
        if not valid_identifier(name):
            raise BundleError(f"bad identifier in sequent literal: {name!r}")
    return Sequent(left, right)


def _parse_theory(raw: dict, where: str) -> SequentTheory:  # to masks: no Sequent per axiom
    types = _ident_list(raw.get("types", []), f"{where}.types")
    axioms_raw = raw.get("axioms", [])
    _expect(isinstance(axioms_raw, list), f"{where}.axioms: expected a list")
    index, n = _indexed(types), len(types)
    bit = {name: 1 << k for name, k in index.items()}
    masks, outside = [], None  # outside: the first axiom over other types, as text
    for k, a in enumerate(axioms_raw):
        if not isinstance(a, dict):
            raise BundleError(f"{where}.axioms[{k}]: expected an object")
        if not a.keys() <= {"ant", "con"}:
            raise BundleError(f"{where}.axioms[{k}]: unknown keys {sorted(a.keys() - {'ant', 'con'})}")
        ant, con = a.get("ant", []), a.get("con", [])
        try:
            if type(ant) is list and type(con) is list:
                g = d = 0
                for name in ant:
                    g |= bit[name]
                for name in con:
                    d |= bit[name]
                if (p := g << n | d).bit_count() == len(ant) + len(con):  # else a duplicate name
                    masks.append(p)
                    continue
        except (KeyError, TypeError):  # a name outside the language, or unhashable
            pass
        for side in ("ant", "con"):  # the first bad or duplicate identifier, if any
            _ident_list(a.get(side, []), f"{where}.axioms[{k}].{side}")
        outside = outside or _text(ant, con)
    _expect(not outside, f"{where}: axiom {outside} uses types outside the language")
    return _theory_of_index(index, [p for p, _ in groupby(sorted(masks))])  # no duplicate axiom


def __getattr__(name: str):
    """``close`` and ``satisfying_states``, which ``perfbench`` imports from
    here; ``ifk.closure`` is loaded when one of them is read, not before."""
    if name in ("close", "satisfying_states"):
        from . import closure
        return getattr(closure, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
