"""The JSON bundle format: one self-contained document naming the
classifications, theories, infomorphisms and systems of an analysis.

Parsing resolves every cross-reference and runs each module's checker,
so a returned bundle is fully valid; a theory is read straight to its
masks, with no ``Sequent`` per axiom.  One reader, ``_entries``, checks
each named entry and one check, ``_ref``, each reference, so a malformed
bundle is refused for its first fault in document order.  Serialization
is canonical (sorted set renderings) and round-trips.  ``canonical_json``
writes it and every CLI report: the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline.  It takes read-only maps and tuples as
they are, and a ``SequentTheory`` (a closure, a sum theory, a node's
deltas) renders as its sorted axiom list from its masks: no report
builds a dict per sequent.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .classification import (
    Classification,
    Infomorphism,
    _bits,
    valid_identifier,
    validate_classification,
)
from .errors import BundleError, IfkError, _map, _Value
from .theories import Sequent, SequentTheory, _indexed, _text, _theory_of_index

if TYPE_CHECKING:
    from .integration import InformationSystem

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
        _expect(valid_identifier(name), f"{where}: bad name {name!r}")
        _expect(isinstance(body, dict), f"{where}.{name}: expected an object")
        yield name, body, f"{where}.{name}"


def _ref(table: dict, ref, where: str, kind: str):
    """The entry of ``table`` that ``ref`` names."""
    _expect(isinstance(ref, str) and ref in table, f"{where}: dangling reference to {kind} {ref!r}")
    return table[ref]


def _str_map(raw, where: str) -> dict[str, str]:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    for k, v in raw.items():
        _expect(valid_identifier(k), f"{where}: bad identifier {k!r}")
        _expect(valid_identifier(v), f"{where}: bad identifier {v!r}")
    return dict(raw)


def _parse_classification(name: str, raw: dict, where: str) -> Classification:
    instances = _ident_list(raw.get("instances", []), f"{where}.instances")
    types = _ident_list(raw.get("types", []), f"{where}.types")
    incidence_raw = raw.get("incidence", [])
    _expect(isinstance(incidence_raw, list), f"{where}.incidence: expected a list")
    incidence = []
    for k, pair in enumerate(incidence_raw):
        _expect(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, str) for x in pair),
            f"{where}.incidence[{k}]: expected an [instance, type] pair",
        )
        incidence.append((pair[0], pair[1]))
    c = Classification(name, frozenset(instances), frozenset(types), frozenset(incidence))
    result = validate_classification(c)
    if not result.ok:
        raise BundleError(f"{where}: {result.defects[0]}")
    return c


def _parse_theory(raw: dict, where: str) -> SequentTheory:
    types = _ident_list(raw.get("types", []), f"{where}.types")
    axioms_raw = raw.get("axioms", [])
    _expect(isinstance(axioms_raw, list), f"{where}.axioms: expected a list")
    index, n = _indexed(types), len(types)
    masks, outside = [], None  # outside: the first axiom over other types, as text
    for k, a in enumerate(axioms_raw):
        if not isinstance(a, dict):
            raise BundleError(f"{where}.axioms[{k}]: expected an object")
        if not a.keys() <= {"ant", "con"}:
            raise BundleError(f"{where}.axioms[{k}]: unknown keys {sorted(a.keys() - {'ant', 'con'})}")
        g, d = _side_mask(index, a.get("ant", [])), _side_mask(index, a.get("con", []))
        if g is None or d is None:
            for side in ("ant", "con"):  # the first bad or duplicate identifier, if any
                _ident_list(a.get(side, []), f"{where}.axioms[{k}].{side}")
            outside = outside or _text(a.get("ant", []), a.get("con", []))
        else:
            masks.append(g << n | d)
    _expect(not outside, f"{where}: axiom {outside} uses types outside the language")
    return _theory_of_index(index, [p for p, _ in groupby(sorted(masks))])  # no duplicate axiom


def _side_mask(index: dict[str, int], names) -> int | None:
    """The mask of a list of distinct names of the language, else ``None``."""
    if type(names) is not list:
        return None
    m = 0
    for name in names:
        k = index.get(name, -1) if type(name) is str else -1  # a dict is not hashable
        if k < 0 or m >> k & 1:
            return None
        m |= 1 << k
    return m


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
    systems = {name: _parse_system(theories, classifications, body, where)
               for name, body, where in _entries(sections["systems"], "systems")}
    return Bundle(classifications, theories, infomorphisms, systems)


def _parse_system(theories: dict, classifications: dict, raw: dict, where: str) -> InformationSystem:
    # systems need the colimit and flow modules; a bundle without them never loads them
    from .diagrams import ShapeGraph
    from .integration import InformationSystem, _require_valid

    node_theory: dict[str, SequentTheory] = {}
    node_cls: dict[str, Classification] = {}
    for node, body, nwhere in _entries(raw.get("nodes", {}), f"{where}.nodes"):
        node_theory[node] = _ref(theories, body.get("theory"), nwhere, "theory")
        if body.get("classification") is not None:  # none, if missing or null
            node_cls[node] = _ref(classifications, body["classification"], nwhere, "classification")
    edges_raw = raw.get("edges", [])
    _expect(isinstance(edges_raw, list), f"{where}.edges: expected a list")
    edges = []
    edge_type_map = {}
    edge_instance_map = {}
    for k, body in enumerate(edges_raw):
        ewhere = f"{where}.edges[{k}]"
        _expect(isinstance(body, dict), f"{ewhere}: expected an object")
        eid, src, dst = body.get("id"), body.get("src"), body.get("dst")
        for label, value in (("id", eid), ("src", src), ("dst", dst)):
            _expect(valid_identifier(value), f"{ewhere}.{label}: bad identifier {value!r}")
        _expect(src in node_theory, f"{ewhere}.src: unknown node {src!r}")
        _expect(dst in node_theory, f"{ewhere}.dst: unknown node {dst!r}")
        edges.append((eid, src, dst))
        edge_type_map[eid] = _str_map(body.get("type_map", {}), f"{ewhere}.type_map")
        imap = body.get("instance_map")
        if imap is not None:
            edge_instance_map[eid] = _str_map(imap, f"{ewhere}.instance_map")
    try:
        system = InformationSystem(
            shape=ShapeGraph(frozenset(node_theory), frozenset(edges)),
            node_theory=node_theory,
            edge_type_map=edge_type_map,
            node_cls=node_cls,
            edge_instance_map=edge_instance_map,
        )
        _require_valid(system)
    except IfkError as exc:
        raise BundleError(f"{where}: {exc}") from exc
    return system


# ---------------------------------------------------------------------------
# canonical serialization

def canonical_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, byte for byte,
    for dicts and read-only maps with str keys, lists, tuples, str, int,
    bool and None; a ``SequentTheory`` renders as its axioms in
    ``sequent_key`` order.  The pieces are joined once."""
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
                elif type(v) is int:
                    out.append(int.__repr__(v))
                else:
                    render(v, inner)
            out.append(indent + "]" if o else "[]")
        elif isinstance(o, SequentTheory):
            theory(o, indent)
        elif o is None or o is True or o is False:
            out.append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    def theory(t: SequentTheory, indent: str) -> None:
        # the distinct sides are ranked by name and rendered once each
        masks, n, low = t._masks, len(t.types), (1 << len(t.types)) - 1
        groups: dict[int, list[int]] = {}  # antecedent -> its consequents
        start = 0
        while start < len(masks):  # sorted, so the axioms sharing g are a slice
            g = masks[start] >> n
            end = bisect_left(masks, (g + 1) << n, start)
            groups[g] = [p & low for p in masks[start:end]]
            start = end
        names, inner = list(t._index), indent + "  "
        key, item = inner + "  ", inner + "    "
        sides = {m: [names[k] for k in _bits(m)] for m in groups.keys() | set().union(*groups.values())}
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

    render(doc, "\n")
    out.append("\n")
    return "".join(out)


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


def _name_of(table: Mapping, value, what: str) -> str:
    """The bundle's name for ``value``: the same object's, else an equal one's."""
    for same in (operator.is_, operator.eq):
        for name, known in table.items():
            if same(known, value):
                return name
    raise IfkError(f"{what} is not part of the bundle")


def serialize_bundle(bundle: Bundle) -> str:
    """The bundle as ``canonical_json``, which sorts every object's keys."""
    doc = {
        "classifications": {
            name: classification_to_obj(c)
            for name, c in bundle.classifications.items()
        },
        "theories": {
            name: theory_to_obj(t) for name, t in bundle.theories.items()
        },
        "infomorphisms": {
            name: {
                "source": _name_of(bundle.classifications, f.source,
                                   f"classification {f.source.name}"),
                "target": _name_of(bundle.classifications, f.target,
                                   f"classification {f.target.name}"),
                **maps_to_obj(f),
            }
            for name, f in bundle.infomorphisms.items()
        },
        "systems": {
            name: {
                "nodes": {
                    n: {
                        "theory": _name_of(bundle.theories, s.node_theory[n], "theory"),
                        "classification": (
                            _name_of(bundle.classifications, s.node_cls[n],
                                     f"classification {s.node_cls[n].name}")
                            if n in s.node_cls else None
                        ),
                    }
                    for n in s.shape._traversal[0]  # a fixed order: runs name the same missing value
                },
                "edges": [
                    {
                        "id": e,
                        "src": src,
                        "dst": dst,
                        "type_map": s.edge_type_map[e],
                        "instance_map": s.edge_instance_map.get(e),
                    }
                    for e, src, dst in sorted(s.shape.edges)
                ],
            }
            for name, s in bundle.systems.items()
        },
    }
    return canonical_json(doc)
