"""The JSON bundle format: one self-contained document naming the
classifications, theories, infomorphisms and systems of an analysis.

Parsing resolves every cross-reference and runs each module's checker,
so a returned bundle is fully valid.  Serialization is canonical (sorted
set renderings) and round-trips.  ``canonical_json`` writes it and every
CLI report: the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline.  A ``SequentTheory`` in a document renders as its sorted
axiom list, straight from the theory's masks, so no report builds a dict
per axiom.
"""

from __future__ import annotations

import json
import operator
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .classification import (
    Classification,
    Infomorphism,
    _bits,
    valid_identifier,
    validate_classification,
)
from .errors import BundleError, IfkError
from .theories import Sequent, SequentTheory

if TYPE_CHECKING:
    from .integration import InformationSystem

TOP_LEVEL_KEYS = ("classifications", "theories", "infomorphisms", "systems")


@dataclass
class Bundle:
    classifications: dict[str, Classification] = field(default_factory=dict)
    theories: dict[str, SequentTheory] = field(default_factory=dict)
    infomorphisms: dict[str, Infomorphism] = field(default_factory=dict)
    systems: dict[str, InformationSystem] = field(default_factory=dict)


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


def _str_map(raw, where: str) -> dict[str, str]:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    for k, v in raw.items():
        _expect(valid_identifier(k), f"{where}: bad identifier {k!r}")
        _expect(valid_identifier(v), f"{where}: bad identifier {v!r}")
    return dict(raw)


def _parse_classification(name: str, raw, where: str) -> Classification:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
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


def _parse_sequent_obj(raw, where: str) -> Sequent:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    _expect(set(raw) <= {"ant", "con"}, f"{where}: unknown keys {sorted(set(raw) - {'ant', 'con'})}")
    ant, con = (_ident_list(raw.get(side, []), f"{where}.{side}") for side in ("ant", "con"))
    return Sequent(ant, con)


def _parse_theory(raw, where: str) -> SequentTheory:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    types = _ident_list(raw.get("types", []), f"{where}.types")
    axioms_raw = raw.get("axioms", [])
    _expect(isinstance(axioms_raw, list), f"{where}.axioms: expected a list")
    axioms = [_parse_sequent_obj(a, f"{where}.axioms[{k}]") for k, a in enumerate(axioms_raw)]
    try:
        return SequentTheory(frozenset(types), frozenset(axioms))
    except IfkError as exc:
        raise BundleError(f"{where}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        _expect(key not in out, f"duplicate JSON key {key!r}")
        out[key] = value
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

    bundle = Bundle()
    for name, body in sections["classifications"].items():
        _expect(valid_identifier(name), f"classifications: bad name {name!r}")
        bundle.classifications[name] = _parse_classification(
            name, body, f"classifications.{name}"
        )
    for name, body in sections["theories"].items():
        _expect(valid_identifier(name), f"theories: bad name {name!r}")
        bundle.theories[name] = _parse_theory(body, f"theories.{name}")
    for name, body in sections["infomorphisms"].items():
        where = f"infomorphisms.{name}"
        _expect(valid_identifier(name), f"infomorphisms: bad name {name!r}")
        _expect(isinstance(body, dict), f"{where}: expected an object")
        for endpoint in ("source", "target"):
            ref = body.get(endpoint)
            _expect(
                isinstance(ref, str) and ref in bundle.classifications,
                f"{where}.{endpoint}: dangling reference to classification {ref!r}",
            )
        info = Infomorphism(
            name=name,
            source=bundle.classifications[body["source"]],
            target=bundle.classifications[body["target"]],
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
        bundle.infomorphisms[name] = info
    for name, body in sections["systems"].items():
        where = f"systems.{name}"
        _expect(valid_identifier(name), f"systems: bad name {name!r}")
        bundle.systems[name] = _parse_system(bundle, body, where)
    return bundle


def _parse_system(bundle: Bundle, raw, where: str) -> InformationSystem:
    # systems need the colimit and flow modules; a bundle without them never loads them
    from .diagrams import ShapeGraph
    from .integration import InformationSystem, _require_valid

    _expect(isinstance(raw, dict), f"{where}: expected an object")
    nodes_raw = raw.get("nodes", {})
    _expect(isinstance(nodes_raw, dict), f"{where}.nodes: expected an object")
    node_theory: dict[str, SequentTheory] = {}
    node_cls: dict[str, Classification | None] = {}
    for node, body in nodes_raw.items():
        _expect(valid_identifier(node), f"{where}.nodes: bad name {node!r}")
        _expect(isinstance(body, dict), f"{where}.nodes.{node}: expected an object")
        tname = body.get("theory")
        _expect(
            isinstance(tname, str) and tname in bundle.theories,
            f"{where}.nodes.{node}: dangling reference to theory {tname!r}",
        )
        node_theory[node] = bundle.theories[tname]
        cname = body.get("classification")
        if cname is not None:
            _expect(
                isinstance(cname, str) and cname in bundle.classifications,
                f"{where}.nodes.{node}: dangling reference to classification {cname!r}",
            )
            node_cls[node] = bundle.classifications[cname]
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
    for dicts with str keys, lists, tuples, str, int, bool and None; a
    ``SequentTheory`` renders as its axioms in ``sequent_key`` order.  The
    pieces are joined once."""
    out: list[str] = []

    # Loops, not comprehensions, and list items inline where they can be:
    # on the interpreters supported a call costs more than most values.
    def render(o, indent: str) -> None:
        if isinstance(o, str):
            out.append(_quote(o))
        elif isinstance(o, dict):
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
        groups: dict[int, list[int]] = {}  # antecedent -> its consequents
        for g, d in t._masks:
            groups.setdefault(g, []).append(d)
        names, inner = list(t._index), indent + "  "
        key, item = inner + "  ", inner + "    "
        sides = {m: [names[k] for k in _bits(m)] for m in groups.keys() | {d for _, d in t._masks}}
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
    return {
        "instances": sorted(c.instances),
        "types": sorted(c.types),
        "incidence": [[i, t] for i, t in sorted(c.incidence)],
    }


def theory_to_obj(t: SequentTheory) -> dict:
    """The sorted language, and the theory, which renders as its axioms."""
    return {"types": list(t._index), "axioms": t}


def maps_to_obj(f: Infomorphism) -> dict:
    """The type and instance maps of an infomorphism."""
    return {"type_map": dict(f.type_map), "instance_map": dict(f.instance_map)}


def _name_of(table: dict, value, what: str) -> str:
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
            for name, c in sorted(bundle.classifications.items())
        },
        "theories": {
            name: theory_to_obj(t) for name, t in sorted(bundle.theories.items())
        },
        "infomorphisms": {
            name: {
                "source": _name_of(bundle.classifications, f.source,
                                   f"classification {f.source.name}"),
                "target": _name_of(bundle.classifications, f.target,
                                   f"classification {f.target.name}"),
                **maps_to_obj(f),
            }
            for name, f in sorted(bundle.infomorphisms.items())
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
                    for n in sorted(s.shape.nodes)
                },
                "edges": [
                    {
                        "id": e,
                        "src": src,
                        "dst": dst,
                        "type_map": dict(s.edge_type_map[e]),
                        "instance_map": (
                            dict(s.edge_instance_map[e]) if e in s.edge_instance_map else None
                        ),
                    }
                    for e, src, dst in sorted(s.shape.edges)
                ],
            }
            for name, s in sorted(bundle.systems.items())
        },
    }
    return canonical_json(doc)
