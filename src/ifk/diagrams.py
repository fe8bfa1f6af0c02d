"""Finite diagrams of languages and classifications over shape graphs,
their colimits, and covering channels.

The colimit of a language diagram disjointly sums the node languages and
quotients by the identifications the edges generate.  The sum of a
classification diagram has that colimit as its types and the edge-compatible
instance tuples, cut by ``_semijoin`` (``integrate``'s too) and joined under
one instance cap, as its instances; its legs form the universal covering
channel: any other covering channel factors through it by a unique mediator.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from .classification import Classification, Infomorphism
from .errors import DEFAULT_INSTANCE_CAP, CapExceeded, IfkError, ValidationResult
from .errors import _map, _maps, _sets, _Value


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
    pairs = [
        (n, t) for n in sorted(d.shape.nodes) for t in sorted(d.node_language[n])
    ]
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


class ClsDiagram(_Value):
    shape: ShapeGraph
    node_cls: Mapping[str, Classification]
    edge_info: Mapping[str, Infomorphism]
    _freeze = {"node_cls": _map, "edge_info": _map}
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        missing = self.shape.nodes - self.node_cls.keys()
        if missing:
            raise IfkError(f"no classification for node(s): {', '.join(sorted(missing))}")
        for e, src, dst in sorted(self.shape.edges):
            if e not in self.edge_info:
                raise IfkError(f"no infomorphism for edge {e}")
            f = self.edge_info[e]
            if f.source != self.node_cls[src] or f.target != self.node_cls[dst]:
                raise IfkError(f"edge {e}: infomorphism endpoints do not match the shape")
            result = f._invariance
            if not result.ok:
                raise IfkError(f"edge {e}: invariance fails at {result.defects[0]}")

    def language_diagram(self) -> LanguageDiagram:
        return LanguageDiagram(
            self.shape,
            {n: c.types for n, c in self.node_cls.items()},
            {e: f.type_map for e, f in self.edge_info.items()},
        )


class Channel(_Value):
    core: Classification
    legs: Mapping[str, Infomorphism]
    _freeze = {"legs": _map}
    __hash__ = None  # type: ignore[assignment]


def tuple_instance_name(components: Mapping[str, str]) -> str:
    return "tup:" + ",".join(f"{n}.{x}" for n, x in sorted(components.items()))


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


def _compatible_tuples(d: ClsDiagram, cap: int) -> list[dict[str, str]]:
    """The node-indexed instance tuples compatible with every edge.

    A loop keeps the instances it fixes, and ``_semijoin`` cuts the
    instances along every other edge, linked from its earlier end in
    breadth-first order.  The tuples grow node by node in that order, each
    node's values drawn from its link to its parent and checked against its
    other links, and the partial tuples at each node are charged to ``cap``.
    On a forest without parallel edges every partial tuple completes.
    """
    order = d.shape._traversal[0]
    position = {n: k for k, n in enumerate(order)}
    alive = {k: set(d.node_cls[n].instances) for k, n in enumerate(order)}
    into: list[list] = [[] for _ in order]  # each link, at its later end
    # by earlier end, then edge id: a node's first link is to its parent, its earliest neighbour
    for e, src, dst in sorted(d.shape.edges, key=lambda edge: (min(map(position.get, edge[1:])), edge)):
        f, i, k = d.edge_info[e].instance_map, position[src], position[dst]
        if i == k:
            alive[k] = {y for y in alive[k] if f[y] == y}
        else:  # keyed by the identity at the source and by the instance map at the target
            link = (i, {x: x for x in alive[i]}, k, f)
            into[max(i, k)].append(link if i < k else link[2:] + link[:2])  # from the earlier end
    alive = _semijoin(alive, [link for checks in into for link in checks])
    if not all(alive.values()):
        return []  # a node without instances admits no tuple
    partial: list[tuple[str, ...]] = [()]
    for k, checks in enumerate(into):
        own, rest = sorted(alive[k]), checks[1:]
        if checks:  # the node's values next to each of its parent's
            j, key_j, _, key_k = checks[0]
            by_key: dict = {}
            for y in own:
                by_key.setdefault(key_k[y], []).append(y)
            options = {x: by_key[key_j[x]] for x in alive[j]}
        grown = (t + (y,) for t in partial for y in (options[t[j]] if checks else own))
        passed = (t for t in grown if all(ka[t[a]] == kb[t[k]] for a, ka, _, kb in rest))
        partial = [t for _, t in zip(range(max(cap, 0) + 1), passed)]  # one past the cap, at most
        if len(partial) > cap:
            break
    if len(partial) > cap:  # also the one empty tuple of a diagram without nodes
        raise CapExceeded("sum classification instances (lower bound)", len(partial), cap)
    return [dict(zip(order, t)) for t in partial]


def sum_classification(d: ClsDiagram, instance_cap: int = DEFAULT_INSTANCE_CAP) -> Channel:
    """The universal covering channel of a classification diagram.

    Core types are the language-colimit classes; core instances are the
    edge-compatible tuples; a tuple falls under a class when its
    component at any member node does (invariance makes the choice of
    member immaterial).  At each node the partial tuples may number at
    most ``instance_cap``, and a refusal reports the count at which that
    node stopped, a lower bound.  An instance product within the cap
    always passes, and so does a forest without parallel edges whose
    tuples are within it.
    """
    tuples = _compatible_tuples(d, instance_cap)
    colim = colimit_language(d.language_diagram())
    names = [tuple_instance_name(tup) for tup in tuples]
    if len(set(names)) != len(names):
        raise IfkError("tuple name collision; rename node or instance identifiers")

    reps = {cls_name: min(group) for cls_name, group in colim.members.items()}
    incidence = [(name, cls_name) for name, tup in zip(names, tuples)
                 for cls_name, (n0, t0) in reps.items() if (tup[n0], t0) in d.node_cls[n0].incidence]
    core = Classification(
        name="sum(" + ",".join(sorted(d.shape.nodes)) + ")",
        instances=frozenset(names),
        types=frozenset(colim.types),
        incidence=frozenset(incidence),
    )
    legs = {
        n: Infomorphism(
            name=f"leg:{n}",
            source=d.node_cls[n],
            target=core,
            type_map=colim.cocone[n],
            instance_map={name: tup[n] for name, tup in zip(names, tuples)},
        )
        for n in d.shape.nodes
    }
    return Channel(core, legs)


def verify_channel_covers(ch: Channel, d: ClsDiagram) -> ValidationResult:
    """Legs are valid infomorphisms into the core and commute with every edge."""
    if set(ch.legs) != set(d.shape.nodes):
        raise IfkError("shape mismatch: channel legs do not match the diagram nodes")
    for n in sorted(d.shape.nodes):
        leg = ch.legs[n]
        if leg.source != d.node_cls[n] or leg.target != ch.core:
            raise IfkError(f"shape mismatch: leg {n} endpoints are wrong")
    defects = []
    broken = set()
    for n in sorted(d.shape.nodes):
        try:
            result = ch.legs[n]._invariance
        except IfkError as exc:
            defects.append(("leg", n, str(exc)))
            broken.add(n)
            continue
        defects.extend(("leg", n, viol) for viol in result.defects)
    for e, src, dst in sorted(d.shape.edges):
        if src in broken or dst in broken:
            continue
        edge = d.edge_info[e]
        for t in sorted(d.node_cls[src].types):
            if ch.legs[dst].type_map[edge.type_map[t]] != ch.legs[src].type_map[t]:
                defects.append(("edge", e, "type", t))
        for z in sorted(ch.core.instances):
            if edge.instance_map[ch.legs[dst].instance_map[z]] != ch.legs[src].instance_map[z]:
                defects.append(("edge", e, "instance", z))
    return ValidationResult.from_defects(defects)


def mediating_morphism(ch: Channel, other: Channel, d: ClsDiagram) -> Infomorphism:
    """The unique infomorphism from the sum core through which ``other`` factors.

    Types are forced classwise by the legs of ``other``; instances are
    forced componentwise because the sum legs project tuples.
    """
    cover = verify_channel_covers(other, d)
    if not cover.ok:
        raise IfkError(f"channel does not cover the diagram: {cover.defects[0]}")

    type_map: dict[str, str] = {}
    for n in sorted(d.shape.nodes):
        for t in sorted(d.node_cls[n].types):
            cls = ch.legs[n].type_map[t]
            want = other.legs[n].type_map[t]
            if type_map.get(cls, want) != want:
                raise IfkError(f"no mediator: class {cls} is forced to two different types")
            type_map[cls] = want
    uncovered = ch.core.types - type_map.keys()
    if uncovered:
        raise IfkError(
            f"core types outside every leg image: {', '.join(sorted(uncovered))}"
        )

    nodes = sorted(d.shape.nodes)
    tuples: dict[tuple[str, ...], list[str]] = {}
    for z in sorted(ch.core.instances):
        tuples.setdefault(tuple(ch.legs[n].instance_map[z] for n in nodes), []).append(z)
    instance_map: dict[str, str] = {}
    for b in sorted(other.core.instances):
        matches = tuples.get(tuple(other.legs[n].instance_map[b] for n in nodes), [])
        if len(matches) != 1:
            raise IfkError(
                f"no unique mediator: instance {b} has {len(matches)} compatible tuples"
            )
        instance_map[b] = matches[0]
    return Infomorphism(
        name=f"mediator:{other.core.name}",
        source=ch.core,
        target=other.core,
        type_map=type_map,
        instance_map=instance_map,
    )
