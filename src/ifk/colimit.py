"""Finite diagrams of languages over shape graphs and their colimits: the
unpopulated side of a diagram, with no classification code.  The colimit
disjointly sums the node languages and quotients by the identifications the
edges generate; ``_semijoin`` cuts rows along a shape's links, for both
``ifk.diagrams``'s sum and ``integrate``."""

from __future__ import annotations

from functools import cached_property

from .errors import IfkError, _map, _maps, _sets, _Value


class ShapeGraph(_Value):
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str, str]]  # (edge id, source node, target node)
    _freeze = {"nodes": frozenset, "edges": lambda edges: frozenset(tuple(e) for e in edges)}

    def __post_init__(self):
        ids = [e for e, _, _ in self.edges]
        if len(set(ids)) != len(ids):
            raise IfkError("duplicate edge ids in shape graph")
        for e, src, dst in self.edges:
            if src not in self.nodes or dst not in self.nodes:
                raise IfkError(f"edge {e} has undeclared endpoint")

    @cached_property
    def _traversal(self) -> tuple[tuple[str, ...], Mapping[str, str | None], bool]:
        """Derived once: the nodes breadth-first from the least node of each
        component, each node's parent in that order (None at a component's
        first), and whether the undirected graph, loops and parallel edges
        ignored, is a forest: one link for each node with a parent."""
        links = {frozenset(edge[1:]) for edge in self.edges if edge[1] != edge[2]}
        adjacent: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in links:
            adjacent[a].add(b)
            adjacent[b].add(a)
        order, parent = [], {}
        for root in sorted(self.nodes):
            if root not in parent:
                k, parent[root] = len(order), None
                order.append(root)
                while k < len(order):
                    for m in sorted(adjacent[order[k]] - parent.keys()):
                        parent[m] = order[k]
                        order.append(m)
                    k += 1
        return tuple(order), _map(parent), len(links) == len(order) - list(parent.values()).count(None)


class LanguageDiagram(_Value):
    shape: ShapeGraph
    node_language: Mapping[str, frozenset[str]]
    edge_map: Mapping[str, Mapping[str, str]]
    _freeze = {"node_language": _sets, "edge_map": _maps}
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        missing = self.shape.nodes - self.node_language.keys()
        if missing:
            raise IfkError(f"no language for node(s): {', '.join(sorted(missing))}")
        for e, src, dst in sorted(self.shape.edges):
            if e not in self.edge_map:
                raise IfkError(f"no type function for edge {e}")
            f = self.edge_map[e]
            dom, cod = self.node_language[src], self.node_language[dst]
            if dom - f.keys():
                raise IfkError(f"edge {e}: type function not total on the source language")
            if any(f[t] not in cod for t in dom):
                raise IfkError(f"edge {e}: type function lands outside the target language")


class LanguageColimit(_Value):
    types: frozenset[str]
    cocone: Mapping[str, Mapping[str, str]]
    members: Mapping[str, frozenset[tuple[str, str]]]
    _freeze = {"types": frozenset, "cocone": _maps, "members": _sets}
    __hash__ = None  # type: ignore[assignment]


def _find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


def class_name(node: str, typ: str) -> str:
    return f"sum:{node}.{typ}"


def colimit_language(d: LanguageDiagram) -> LanguageColimit:
    """Disjoint union of the node languages, quotiented by edge identifications.

    Class representatives are the lexicographically least (node, type)
    member, so output is identical across runs.
    """
    pairs = [(n, t) for n in sorted(d.shape.nodes) for t in sorted(d.node_language[n])]
    parent = {p: p for p in pairs}
    for e, src, dst in sorted(d.shape.edges):
        f = d.edge_map[e]
        for t in sorted(d.node_language[src]):
            _union(parent, (src, t), (dst, f[t]))
    groups: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for p in pairs:
        groups.setdefault(_find(parent, p), set()).add(p)
    members: dict[str, frozenset[tuple[str, str]]] = {}
    cocone: dict[str, dict[str, str]] = {n: {} for n in d.shape.nodes}
    for group in groups.values():
        rep = min(group)
        name = class_name(*rep)
        if name in members:
            raise IfkError(f"class name collision at {name}; rename node or type identifiers")
        members[name] = frozenset(group)
        for n, t in group:
            cocone[n][t] = name
    return LanguageColimit(frozenset(members), cocone, members)


def _semijoin(rows: Mapping, links: list[tuple]) -> dict:
    """Each node's set of rows cut to those that meet a row across every
    link, to the greatest fixpoint: a link ``(a, key_a, b, key_b)`` joins x
    at a to y at b when ``key_a[x] == key_b[y]``.  A round keeps the rows of
    each a that meet b, links last to first, then those of each b that meet
    a, first to last, and rounds repeat until one cuts nothing.  One round
    over a forest's breadth-first parent links is the full reducer (Yannakakis 1981)."""
    rows, passes = dict(rows), [*reversed(links), *((b, kb, a, ka) for a, ka, b, kb in links)]
    while True:
        before = sum(map(len, rows.values()))
        for keep, key_keep, other, key_other in passes:
            seen = {key_other[y] for y in rows[other]}
            rows[keep] = {x for x in rows[keep] if key_keep[x] in seen}
        if sum(map(len, rows.values())) == before:
            return rows
