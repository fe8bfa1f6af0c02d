"""Finite diagrams of classifications over shape graphs, their sums, and
covering channels: the populated side, over the language side of ``ifk.colimit``.

The sum of a classification diagram has its language colimit as its types
and the edge-compatible instance tuples, cut by ``_semijoin`` and joined
under one instance cap, as its instances; its legs form the universal
covering channel: any other covering channel factors through it by a
unique mediator.
"""

from __future__ import annotations

from .classification import Classification, Infomorphism
from .colimit import LanguageColimit, LanguageDiagram, ShapeGraph, _semijoin, colimit_language
from .errors import DEFAULT_INSTANCE_CAP, CapExceeded, IfkError, ValidationResult, _map, _Value


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
    colim: LanguageColimit = colimit_language(d.language_diagram())
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
