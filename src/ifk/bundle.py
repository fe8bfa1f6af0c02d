"""The JSON bundle format: one self-contained document naming the
classifications, theories, infomorphisms and systems of an analysis.

Parsing resolves every cross-reference and runs each module's checker,
so a returned bundle is fully valid; a theory is read straight to its
masks, with no ``Sequent`` per axiom, and each kind of entry loads its
module only when a bundle holds one.  One reader, ``_entries``, checks
each named entry and one check, ``_ref``, each reference, so a malformed
bundle is refused for its first fault in document order; its message is
worded only then.  ``canonical_json`` writes every CLI report and, in
``ifk.serialize``, a bundle back as text that round-trips: the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.
It takes read-only maps and tuples as they are, and a value with a
``_json`` hook renders itself: from their masks, a ``SequentTheory`` as
its sorted axioms and a ``ConceptLattice`` as its order pairs, so no
report builds a dict per sequent or a list per pair.
"""

from __future__ import annotations

import json
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType

from .errors import BundleError, IfkError, _decimal, _map, _Value
from .masks import _NOT_IN_IDENTIFIER, valid_identifier

TOP_LEVEL_KEYS = ("classifications", "theories", "infomorphisms", "systems")


class Bundle(_Value):
    classifications: Mapping[str, Classification] = _map({})
    theories: Mapping[str, SequentTheory] = _map({})
    infomorphisms: Mapping[str, Infomorphism] = _map({})
    systems: Mapping[str, InformationSystem] = _map({})
    _freeze = dict.fromkeys(TOP_LEVEL_KEYS, _map)
    __hash__ = None  # type: ignore[assignment]


def parse_sequent(literal: str) -> Sequent:
    """Command-line sequent literal: ``a, b |- c`` (either side may be empty)."""
    from .theories import Sequent
    if literal.count("|-") != 1:
        raise BundleError(f"sequent literal needs exactly one '|-': {literal!r}")
    left, right = ([part.strip() for part in side.split(",") if part.strip()]
                   for side in literal.split("|-"))
    for name in left + right:
        if not valid_identifier(name):
            raise BundleError(f"bad identifier in sequent literal: {name!r}")
    return Sequent(left, right)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise BundleError(message)


def _ident_list(raw, where: str) -> list[str]:
    _expect(isinstance(raw, list), f"{where}: expected a list")
    try:  # one pass over the whole list; the loop below only words a refusal
        if all(raw) and len(set(raw)) == len(raw) and not _NOT_IN_IDENTIFIER.search("".join(raw)):
            return list(raw)
    except TypeError:  # a name that is not a str
        pass
    seen = set()
    for name in raw:
        _expect(valid_identifier(name), f"{where}: bad identifier {name!r}")
        _expect(name not in seen, f"{where}: duplicate identifier {name!r}")
        seen.add(name)
    return list(raw)


def _entries(raw, where: str):
    """Each ``(name, body, where.name)`` of an object of named objects, in
    document order and lazily, so the first fault in that order is refused."""
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    for name, body in raw.items():
        if not valid_identifier(name):
            raise BundleError(f"{where}: bad name {name!r}")
        if not isinstance(body, dict):
            raise BundleError(f"{where}.{name}: expected an object")
        yield name, body, f"{where}.{name}"


def _ref(table: dict, ref, where: str, kind: str):
    """The entry of ``table`` that ``ref`` names."""
    if not (isinstance(ref, str) and ref in table):
        raise BundleError(f"{where}: dangling reference to {kind} {ref!r}")
    return table[ref]


def _str_map(raw, where: str) -> dict[str, str]:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    for pair in raw.items():
        for name in pair:
            if not valid_identifier(name):
                raise BundleError(f"{where}: bad identifier {name!r}")
    return dict(raw)


def _parse_classification(name: str, raw: dict, where: str) -> Classification:
    from .classification import Classification, validate_classification
    instances = _ident_list(raw.get("instances", []), f"{where}.instances")
    types = _ident_list(raw.get("types", []), f"{where}.types")
    incidence_raw = raw.get("incidence", [])
    _expect(isinstance(incidence_raw, list), f"{where}.incidence: expected a list")
    incidence = []
    for k, pair in enumerate(incidence_raw):
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise BundleError(f"{where}.incidence[{k}]: expected an [instance, type] pair")
        incidence.append((pair[0], pair[1]))
    c = Classification(name, frozenset(instances), frozenset(types), frozenset(incidence))
    result = validate_classification(c)
    if not result.ok:
        raise BundleError(f"{where}: {result.defects[0]}")
    return c


def _parse_theory(raw: dict, where: str) -> SequentTheory:
    from .theories import _indexed, _text, _theory_of_index
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _expect(key not in seen, f"duplicate JSON key {key!r}")
            seen.add(key)
    return out


def parse_bundle(text: str) -> Bundle:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise BundleError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise BundleError(f"bundle: {exc}") from exc
    except RecursionError as exc:
        raise BundleError("bundle: nesting too deep") from exc
    _expect(isinstance(raw, dict), "bundle: expected a JSON object")
    unknown = set(raw) - set(TOP_LEVEL_KEYS)
    _expect(not unknown, f"bundle: unknown top-level keys {sorted(unknown)}")
    sections = {key: raw.get(key, {}) for key in TOP_LEVEL_KEYS}
    for key, body in sections.items():
        _expect(isinstance(body, dict), f"{key}: expected an object")

    classifications = {name: _parse_classification(name, body, where)
                       for name, body, where in _entries(sections["classifications"], "classifications")}
    theories = {name: _parse_theory(body, where)
                for name, body, where in _entries(sections["theories"], "theories")}
    infomorphisms = {}
    for name, body, where in _entries(sections["infomorphisms"], "infomorphisms"):
        from .classification import Infomorphism
        info = Infomorphism(
            name=name,
            source=_ref(classifications, body.get("source"), f"{where}.source", "classification"),
            target=_ref(classifications, body.get("target"), f"{where}.target", "classification"),
            type_map=_str_map(body.get("type_map", {}), f"{where}.type_map"),
            instance_map=_str_map(body.get("instance_map", {}), f"{where}.instance_map"),
        )
        try:
            result = info._invariance
        except IfkError as exc:
            raise BundleError(f"{where}: {exc}") from exc
        if not result.ok:
            b, t, side = result.defects[0]
            raise BundleError(f"{where}: invariance fails at ({b}, {t}, {side})")
        infomorphisms[name] = info
    systems = {}
    if sections["systems"]:  # only a bundle with systems loads the colimit and flow modules
        from .systems import _parse_system
        systems = {name: _parse_system(theories, classifications, body, where)
                   for name, body, where in _entries(sections["systems"], "systems")}
    return Bundle(classifications, theories, infomorphisms, systems)


# ---------------------------------------------------------------------------
# canonical serialization

def canonical_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, byte for byte,
    for dicts and read-only maps with str keys, lists, tuples, str, int,
    bool and None; any other value renders itself by its ``_json(indent, out)``."""
    return "".join(_json_pieces(doc))


def _json_pieces(doc) -> list[str]:
    """The pieces that ``canonical_json`` joins, for a writer that writes them one by one."""
    out: list[str] = []

    # Loops, not comprehensions, and list items inline where they can be:
    # on the interpreters supported a call costs more than most values.
    def render(o, indent: str) -> None:
        if isinstance(o, str):
            out.append(_quote(o))
        elif isinstance(o, (dict, MappingProxyType)):
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            for k in sorted(o):
                out.append(sep + _quote(k) + ": ")
                sep = comma
                render(o[k], inner)
            out.append(indent + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for v in o:
                out.append(sep)
                sep = comma
                if type(v) is str:
                    out.append(_quote(v))
                else:
                    render(v, inner)
            out.append(indent + "]" if o else "[]")
        elif o is None or o is True or o is False:
            out.append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):  # at any size
            out.append(_decimal(o))
        elif hasattr(o, "_json"):  # a value that renders itself
            o._json(indent, out)
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    render(doc, "\n")
    out.append("\n")
    return out


def sequent_to_obj(s: Sequent) -> dict:
    return {"ant": sorted(s.antecedent), "con": sorted(s.consequent)}


def classification_to_obj(c: Classification) -> dict:
    return {"instances": sorted(c.instances), "types": sorted(c.types), "incidence": sorted(c.incidence)}


def theory_to_obj(t: SequentTheory) -> dict:
    """The sorted language, and the theory, which renders as its axioms."""
    return {"types": list(t._index), "axioms": t}


def maps_to_obj(f: Infomorphism) -> dict:
    """The type and instance maps of an infomorphism."""
    return {"type_map": f.type_map, "instance_map": f.instance_map}
