"""Finite diagrams of classifications over shape graphs, their sums, and
covering channels: the populated side, over the language side of ``ifk.colimit``.

The sum of a classification diagram has its language colimit as its types
and the edge-compatible instance tuples, cut by ``_semijoin`` and joined
under one instance cap, as its instances; its legs form the universal
covering channel: any other covering channel factors through it by a
unique mediator.  The cover check and that mediator are ``ifk.logics``'s.
"""

from __future__ import annotations

from .classification import Classification, Infomorphism
from .colimit import LanguageColimit, LanguageDiagram, ShapeGraph, _semijoin, colimit_language
from .errors import DEFAULT_INSTANCE_CAP, CapExceeded, IfkError, _map, _Value


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
            if not (result := f._invariance).ok:
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
    edge-compatible tuples; a tuple falls under a class when the intent
    of its component at the class's least member holds that member's type
    (invariance makes the choice of member immaterial); those pairs, made
    once, are the core's incidence.  At each node the partial tuples may
    number at most ``instance_cap``; a refusal reports the count at which
    that node stopped, a lower bound.  An instance product within the cap
    passes, as does a forest without parallel edges whose tuples are within it.
    """
    tuples = _compatible_tuples(d, instance_cap)
    colim: LanguageColimit = colimit_language(d.language_diagram())
    prefix = {n: f"{n}." for n in sorted(d.shape.nodes)}  # one per node, in name order
    names = ["tup:" + ",".join([p + tup[n] for n, p in prefix.items()]) for tup in tuples]
    if len(set(names)) != len(names):
        raise IfkError("tuple name collision; rename node or instance identifiers")
    rep_of = {min(group): cls_name for cls_name, group in colim.members.items()}
    held = {}  # per node holding a least member: per instance, the classes its intent holds
    for n in {n for n, _ in rep_of}:
        intents, columns = d.node_cls[n]._masks
        bits = [(1 << k, rep_of[n, t]) for k, t in enumerate(columns) if (n, t) in rep_of]
        held[n] = {i: [c for bit, c in bits if y & bit] for i, y in intents.items()}
    # the union of the components' rows, as the core's pairs: its constructor would re-walk them
    incidence = frozenset([(name, c) for name, tup in zip(names, tuples)
                           for n, row in held.items() for c in row[tup[n]]])
    core = Classification.__new__(Classification)
    core.__dict__.update(name="sum(" + ",".join(prefix) + ")", instances=frozenset(names),
                         types=frozenset(colim.types), incidence=incidence)
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
