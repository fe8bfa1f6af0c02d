"""A bundle written back as bundle text: ``parse_bundle`` reads what
``serialize_bundle`` writes, and the round trip gives the same bytes."""

from __future__ import annotations

import operator

from .bundle import canonical_json, classification_to_obj, maps_to_obj, theory_to_obj
from .errors import IfkError


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
