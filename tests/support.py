"""Seeded random generators shared by the property and acceptance tests."""

from __future__ import annotations

import random

from ifk import (
    Channel,
    Classification,
    ClsDiagram,
    InformationSystem,
    Infomorphism,
    LocalLogic,
    Sequent,
    SequentTheory,
    ShapeGraph,
    check_infomorphism,
    close,
    compose_infomorphisms,
    intent,
    inverse_flow,
    natural_logic,
    restriction,
    validate_system,
)
from ifk.theories import _sat, all_states, sequent_key, theory_of_states


def rand_classification(
    rng: random.Random,
    max_instances: int = 3,
    max_types: int = 3,
    name: str = "C",
    min_instances: int = 0,
    min_types: int = 0,
) -> Classification:
    ni = rng.randint(min_instances, max_instances)
    nt = rng.randint(min_types, max_types)
    instances = [f"i{k}" for k in range(ni)]
    types = [f"t{k}" for k in range(nt)]
    incidence = [(i, t) for i in instances for t in types if rng.random() < 0.5]
    return Classification(name, instances, types, incidence)


def rand_sequent(rng: random.Random, types, max_side: int | None = None) -> Sequent:
    types = sorted(types)
    limit = len(types) if max_side is None else min(max_side, len(types))
    ant = rng.sample(types, rng.randint(0, limit))
    con = rng.sample(types, rng.randint(0, limit))
    return Sequent(frozenset(ant), frozenset(con))


def rand_theory(
    rng: random.Random, types, max_axioms: int = 3, max_side: int | None = None
) -> SequentTheory:
    n = rng.randint(0, max_axioms)
    return SequentTheory(
        frozenset(types), frozenset(rand_sequent(rng, types, max_side) for _ in range(n))
    )


def rand_type_map(rng: random.Random, src_types, dst_types) -> dict[str, str]:
    dst = sorted(dst_types)
    return {t: rng.choice(dst) for t in sorted(src_types)}


def rand_infomorphism(
    rng: random.Random,
    max_size: int = 3,
    surjective_instances: bool | None = None,
    max_attempts: int = 50000,
    name: str = "f",
) -> Infomorphism:
    """Rejection-sample a valid infomorphism between two random classifications.

    ``surjective_instances`` constrains the instance map: True forces a
    surjection onto the source instances, False forbids one.
    """
    for _ in range(max_attempts):
        src = rand_classification(rng, max_size, max_size, "A")
        # small targets keep the invariance constraint count low
        dst_max_inst = max_size if surjective_instances else 2
        dst = rand_classification(rng, dst_max_inst, max_size, "B")
        if src.types and not dst.types:
            continue  # total type map impossible
        if dst.instances and not src.instances:
            continue  # total instance map impossible
        src_inst, dst_inst = sorted(src.instances), sorted(dst.instances)
        tmap = rand_type_map(rng, src.types, dst.types)
        imap = {b: rng.choice(src_inst) for b in dst_inst}
        image = set(imap.values())
        if surjective_instances is True and image != set(src_inst):
            continue
        if surjective_instances is False and image == set(src_inst):
            continue
        f = Infomorphism(name, src, dst, tmap, imap)
        if check_infomorphism(f).ok:
            return f
    raise AssertionError("could not sample a valid infomorphism; widen the attempts")


def rand_infomorphism_from(
    rng: random.Random,
    src: Classification,
    max_extra_types: int = 1,
    max_instances: int = 2,
    name: str = "g",
) -> Infomorphism:
    """Construct a valid infomorphism out of ``src`` directly.

    The type map is injective, so the target incidence on image types can
    be defined by invariance; extra target types get random incidence.
    """
    dst_inst = (
        [f"z{k}" for k in range(rng.randint(1, max_instances))] if src.instances else []
    )
    imap = {z: rng.choice(sorted(src.instances)) for z in dst_inst}
    image = {t: f"u{k}" for k, t in enumerate(sorted(src.types))}
    extra = [f"v{k}" for k in range(rng.randint(0, max_extra_types))]
    incidence = [
        (z, image[t])
        for z in dst_inst
        for t in sorted(src.types)
        if (imap[z], t) in src.incidence
    ]
    incidence += [(z, v) for z in dst_inst for v in extra if rng.random() < 0.5]
    dst = Classification("D", dst_inst, list(image.values()) + extra, incidence)
    return Infomorphism(name, src, dst, image, imap)


def rand_system(
    rng: random.Random,
    max_nodes: int = 3,
    max_types: int = 3,
    max_axioms: int = 2,
    max_edges: int = 2,
    mediator_bias: float = 0.5,
) -> InformationSystem:
    """A valid information system: edges that fail the morphism condition
    are resampled a few times and then dropped."""
    n_nodes = rng.randint(1, max_nodes)
    nodes = [f"N{k}" for k in range(n_nodes)]
    theories = {}
    for k, node in enumerate(nodes):
        types = [f"{node.lower()}t{j}" for j in range(rng.randint(1, max_types))]
        if k == 0 and rng.random() < mediator_bias:
            theories[node] = SequentTheory(frozenset(types), frozenset())
        else:
            theories[node] = rand_theory(rng, types, max_axioms)
    edges: list[tuple[str, str, str]] = []
    edge_type_map: dict[str, dict[str, str]] = {}
    for k in range(rng.randint(0, max_edges)):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        if src == dst:
            continue
        for _ in range(10):
            tmap = rand_type_map(rng, theories[src].types, theories[dst].types)
            eid = f"e{k}"
            probe = InformationSystem(
                shape=ShapeGraph(nodes, edges + [(eid, src, dst)]),
                node_theory=theories,
                edge_type_map={**edge_type_map, eid: tmap},
            )
            if validate_system(probe).ok:
                edges.append((eid, src, dst))
                edge_type_map[eid] = tmap
                break
    return InformationSystem(
        shape=ShapeGraph(nodes, edges), node_theory=theories, edge_type_map=edge_type_map
    )


def rand_cls_diagram(
    rng: random.Random, max_nodes: int = 3, max_size: int = 2, max_edges: int = 2
) -> ClsDiagram:
    """A valid classification diagram; edges are rejection-sampled."""
    n_nodes = rng.randint(1, max_nodes)
    nodes = [f"N{k}" for k in range(n_nodes)]
    node_cls = {
        n: rand_classification(rng, max_size, max_size, n, min_instances=1, min_types=1)
        for n in nodes
    }
    edges: list[tuple[str, str, str]] = []
    edge_info: dict[str, Infomorphism] = {}
    for k in range(rng.randint(0, max_edges)):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        if src == dst:
            continue
        a, b = node_cls[src], node_cls[dst]
        for _ in range(200):
            tmap = rand_type_map(rng, a.types, b.types)
            imap = {z: rng.choice(sorted(a.instances)) for z in sorted(b.instances)}
            f = Infomorphism(f"e{k}", a, b, tmap, imap)
            if check_infomorphism(f).ok:
                edges.append((f"e{k}", src, dst))
                edge_info[f"e{k}"] = f
                break
    return ClsDiagram(ShapeGraph(nodes, edges), node_cls, edge_info)


def postcompose_channel(ch: Channel, j: Infomorphism) -> Channel:
    """Another covering channel: compose every leg with ``j`` out of the core."""
    return Channel(j.target, {n: compose_infomorphisms(leg, j) for n, leg in ch.legs.items()})


def sound_theory(rng: random.Random, c: Classification, max_axioms: int = 3) -> SequentTheory:
    """A theory every instance of ``c`` satisfies (sampled from satisfied sequents)."""
    intents = [intent(c, i) for i in sorted(c.instances)]
    axioms = []
    for _ in range(rng.randint(0, max_axioms)):
        for _ in range(50):
            s = rand_sequent(rng, c.types)
            if all(_sat(s.antecedent, s.consequent, x) for x in intents):
                axioms.append(s)
                break
    return SequentTheory(c.types, frozenset(axioms))


def plain_satisfying_states(t: SequentTheory) -> list[frozenset[str]]:
    """The states satisfying every axiom of ``t``, by a plain 2^n frozenset scan."""
    return [
        x
        for x in all_states(t.types)
        if all(_sat(a.antecedent, a.consequent, x) for a in t.axioms)
    ]


def plain_theory_of_states(types, states) -> frozenset[Sequent]:
    """Every sequent over ``types`` that all ``states`` satisfy, by a plain
    4^n frozenset scan."""
    subsets = list(all_states(types))
    return frozenset(
        Sequent(g, d) for g in subsets for d in subsets if all(_sat(g, d, x) for x in states)
    )


def kernel_theory_makers(seed: int, n: int) -> dict:
    """Each entry point of the theory kernel (closure, the theory of a state
    set, the natural logic, restriction, materialized inverse flow) on
    seeded inputs over ``n`` types; every call makes a fresh theory."""
    rng = random.Random(f"kernel:{seed}:{n}")
    types = [f"t{k}" for k in range(n)]
    t = rand_theory(rng, types, n + 2, 2)
    instances = [f"i{k}" for k in range(rng.randint(0, 5))]
    c = Classification(
        "c", instances, types, [(i, x) for i in instances for x in types if rng.random() < 0.5]
    )
    states = [frozenset(x for x in types if rng.random() < 0.5) for _ in range(rng.randint(0, 6))]
    source = [f"s{k}" for k in range(rng.randint(0, min(n, 5)))]
    type_map = rand_type_map(rng, source, types)
    return {
        "close": lambda: close(t),
        "theory_of_states": lambda: theory_of_states(types, states),
        "natural_logic": lambda: natural_logic(c).theory,
        "restriction": lambda: restriction(LocalLogic(c, t, frozenset())).theory,
        "materialize": lambda: inverse_flow(type_map, t, source).materialize(),
    }


# ---------------------------------------------------------------------------
# seeded shape corpus: cyclic shapes and forests

CYCLIC_SHAPES = ("ring", "loop_star", "parallel_path")
FOREST_SHAPES = ("star", "zigzag", "tree")


def rand_shape(rng: random.Random, kind: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Nodes and edges of a seeded shape of 2-6 nodes.

    A ring's edges run around it (two nodes make a pair of opposite
    edges); a loop star is a star with a self-loop on its hub and on some
    leaves; a parallel path doubles some of its links; a zig-zag path
    alternates its edge directions; a tree hangs each node on an earlier
    one, or now and then on none, so that it is a forest of several
    trees; star and tree edges point either way.
    """
    nodes = [f"N{k}" for k in range(rng.randint(2, 6))]
    links: list[tuple[str, str]] = []
    if kind == "ring":
        links = [(n, nodes[(k + 1) % len(nodes)]) for k, n in enumerate(nodes)]
    elif kind in ("star", "loop_star"):
        links = [(nodes[0], leaf)[:: rng.choice((1, -1))] for leaf in nodes[1:]]
        if kind == "loop_star":
            links += [(n, n) for n in nodes if n == nodes[0] or rng.random() < 0.3]
    elif kind in ("zigzag", "parallel_path"):
        links = [(a, b)[:: (-1) ** k] for k, (a, b) in enumerate(zip(nodes, nodes[1:]))]
        if kind == "parallel_path":
            doubled = [link for link in links if rng.random() < 0.5] or links[:1]
            links += [link[:: rng.choice((1, -1))] for link in doubled]
    elif kind == "tree":
        links = [(rng.choice(nodes[:k]), n)[:: rng.choice((1, -1))]
                 for k, n in enumerate(nodes) if k and rng.random() < 0.8]
    return nodes, [(f"e{k}", src, dst) for k, (src, dst) in enumerate(links)]


def corpus_system(rng: random.Random, kind: str) -> InformationSystem:
    """A valid, fully classified system over ``rand_shape(rng, kind)``.

    Node languages have 1-3 types and type maps are drawn at random, so
    many are not injective.  Each theory starts from random axioms, few
    with an empty side (the empty sequent now and then, which makes the
    node inconsistent; now and then two edges out of one node lead to
    theories that disagree on the images of one of its types), and
    takes in the image of every axiom along each edge into it, to a
    fixpoint, so every edge is a theory morphism.  Incidences are drawn
    after the instance maps: the invariance conditions equate incidence
    bits, and each class of equated bits gets one random value.
    """
    nodes, edges = rand_shape(rng, kind)
    types = {n: [f"{n.lower()}t{j}" for j in range(rng.randint(1, 3))] for n in nodes}
    instances = {n: [f"{n.lower()}i{j}" for j in range(rng.randint(1, 3))] for n in nodes}
    type_map = {e: rand_type_map(rng, types[src], types[dst]) for e, src, dst in edges}
    instance_map = {e: {b: rng.choice(instances[src]) for b in instances[dst]} for e, src, dst in edges}
    axioms = {n: {rand_sequent(rng, types[n], 2) for _ in range(rng.randint(0, 2))} for n in nodes}
    for n in nodes:  # a side left empty is kept now and then; drawn in a fixed order
        axioms[n] = {a for a in sorted(axioms[n], key=sequent_key)
                     if a.antecedent and a.consequent or rng.random() < 0.2}
        if rng.random() < 0.05:
            axioms[n].add(Sequent((), ()))
    forks = [(e, f) for e in edges for f in edges if e[0] < f[0] and e[1] == f[1]]
    if forks and rng.random() < 0.3:  # two targets of one node disagree on an image of its type
        (e, src, a), (f, _, b) = rng.choice(forks)
        t = rng.choice(types[src])
        axioms[a].add(Sequent((), [type_map[e][t]]))
        axioms[b].add(Sequent([type_map[f][t]], ()))
    grown = True
    while grown:
        grown = False
        for e, src, dst in edges:
            images = {a.rename(type_map[e]) for a in axioms[src]} - axioms[dst]
            grown = grown or bool(images)
            axioms[dst] |= images
    parent: dict = {(n, i, t): (n, i, t) for n in nodes for i in instances[n] for t in types[n]}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e, src, dst in edges:
        for b in instances[dst]:
            for t in types[src]:
                parent[find((src, instance_map[e][b], t))] = find((dst, b, type_map[e][t]))
    value = {x: rng.random() < 0.5 for x in parent if find(x) == x}
    return InformationSystem(
        shape=ShapeGraph(nodes, edges),
        node_theory={n: SequentTheory(types[n], axioms[n]) for n in nodes},
        edge_type_map=type_map,
        node_cls={
            n: Classification(n, instances[n], types[n],
                              [(i, t) for i in instances[n] for t in types[n] if value[find((n, i, t))]])
            for n in nodes
        },
        edge_instance_map=instance_map,
    )

