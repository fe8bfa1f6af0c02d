"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain JSON-ready
bundle documents (and, for planted theories, the planted model), so the
oracle module can decide the expected answers without calling the
library under test.

Sequents are ``(ant, con)`` pairs of sorted tuples of type names.
"""

from __future__ import annotations

import random

TYPES_PER_NODE = 8
BLOCKS = ((0, 1, 2), (3, 4, 5), (6, 7))  # hub types identified per shared class


def seq_obj(ant, con) -> dict:
    return {"ant": sorted(ant), "con": sorted(con)}


def literal(ant, con) -> str:
    """The ``ifk entails --sequent`` form: ``a, b |- c``."""
    return f"{', '.join(sorted(ant))} |- {', '.join(sorted(con))}"


def bundle(classifications=None, theories=None, systems=None) -> dict:
    return {
        "classifications": classifications or {},
        "theories": theories or {},
        "infomorphisms": {},
        "systems": systems or {},
    }


def _theory_obj(types, axioms) -> dict:
    return {"types": sorted(types), "axioms": [seq_obj(a, c) for a, c in sorted(set(axioms))]}


# ---------------------------------------------------------------------------
# entail: planted random 3-type theories and implication chains

def planted_theory(rng: random.Random, n: int, ratio: float = 4.26):
    """Random 3-type sequents near the SAT threshold, all satisfied by a
    hidden state ``model``; returns (types, axioms, model)."""
    types = [f"v{k:02d}" for k in range(n)]
    model = frozenset(t for t in types if rng.random() < 0.5)
    axioms = set()
    while len(axioms) < round(ratio * n):
        chosen = rng.sample(types, 3)
        positive = [rng.random() < 0.5 for _ in chosen]
        if not any((t in model) == p for t, p in zip(chosen, positive)):
            continue  # the planted state would refute it
        ant = tuple(sorted(t for t, p in zip(chosen, positive) if not p))
        con = tuple(sorted(t for t, p in zip(chosen, positive) if p))
        axioms.add((ant, con))
    return types, sorted(axioms), model


def refuted_query(rng: random.Random, types, model):
    """A 3-type sequent the planted state refutes, hence not entailed."""
    inside, outside = sorted(model), sorted(set(types) - model)
    k = 2 if len(inside) >= 2 and outside else 1
    return tuple(sorted(rng.sample(inside, k))), tuple(sorted(rng.sample(outside, 3 - k)))


def resolvent_query(rng: random.Random, axioms):
    """The non-tautological resolvent of two axioms, hence entailed."""
    while True:
        (a1, c1), (a2, c2) = rng.sample(axioms, 2)
        pivots = (set(c1) & set(a2)) | (set(a1) & set(c2))
        if len(pivots) != 1:
            continue
        p = pivots.pop()
        ant = (set(a1) | set(a2)) - {p}
        con = (set(c1) | set(c2)) - {p}
        if not ant & con:
            return tuple(sorted(ant)), tuple(sorted(con))


def chain_theory(n: int):
    """``c(k+1) |- c(k)`` for k < n.  Names sort in chain order, so the
    engine's smallest-type-first decisions never propagate."""
    types = [f"c{k:04d}" for k in range(n + 1)]
    return types, [((types[k + 1],), (types[k],)) for k in range(n)]


# ---------------------------------------------------------------------------
# integrate: hub-and-place systems (stars and zig-zag chains)

def _sequent(rng: random.Random, types) -> tuple:
    """Three types split 1|2 or 2|1 across the sides: the all-false and
    all-true states satisfy it, so random place theories stay consistent."""
    picked = rng.sample(types, 3)
    cut = rng.randint(1, 2)
    return tuple(sorted(picked[:cut])), tuple(sorted(picked[cut:]))


def linked_system(
    rng: random.Random,
    name: str,
    links: list[list[int]],
    n_places: int,
    place_axioms: int = 5,
    classified: dict | None = None,
    clash: bool = False,
):
    """A system of hub nodes ``E*`` and place nodes ``P*``.

    ``links[i]`` lists the places hub ``E<i>`` maps into.  Hub types fall
    in three blocks; an edge sends a whole block to one shared type of
    the place, so the sum language keeps each place's private types and
    one class per hub block.  Each hub is a theory morphism source: its
    in-block axioms map to tautologies and its one cross-block axiom is
    copied into every place it reaches.

    ``classified`` = {"hub": n, "place": m} adds classifications whose
    place instances spread evenly over the hub instances.  ``clash``
    makes the first two places of hub 0 disagree on a shared class.
    Returns (bundle document, system name).
    """
    hubs = [f"E{i}" for i in range(len(links))]
    places = [f"P{j:02d}" for j in range(n_places)]
    hub_types = [f"h{k}" for k in range(TYPES_PER_NODE)]
    place_types = [f"p{k}" for k in range(TYPES_PER_NODE)]
    theories, nodes, edges, classifications = {}, {}, [], {}
    place_axioms_of = {p: [_sequent(rng, place_types) for _ in range(place_axioms)] for p in places}
    free = {p: rng.sample(place_types, TYPES_PER_NODE) for p in places}  # shared-type pool
    hub_value = {}
    for i, (hub, reached) in enumerate(zip(hubs, links)):
        block_of = rng.sample(range(TYPES_PER_NODE), TYPES_PER_NODE)
        blocks = [[hub_types[block_of[k]] for k in b] for b in BLOCKS]
        hub_axioms = [((blocks[0][0],), (blocks[0][1],)), ((blocks[1][1],), (blocks[1][2],)),
                      ((blocks[0][2],), (blocks[1][0],))]
        theories[f"T_{hub}"] = _theory_obj(hub_types, hub_axioms)
        nodes[hub] = {"theory": f"T_{hub}", "classification": None}
        for j in reached:
            place = places[j]
            shared = [free[place].pop() for _ in BLOCKS]
            type_map = {t: shared[b] for b, block in enumerate(blocks) for t in block}
            place_axioms_of[place].append(((shared[0],), (shared[1],)))
            if clash and i == 0 and j in (reached[0], reached[1]):
                place_axioms_of[place].append(
                    ((), (shared[2],)) if j == reached[0] else ((shared[2],), ())
                )
            edge = {"id": f"{hub}_{place}", "src": hub, "dst": place, "type_map": type_map,
                    "instance_map": None}
            edges.append(edge)
            if classified:
                edge["instance_map"] = _classify_place(
                    rng, classifications, hub, place, blocks, shared, classified, hub_value
                )
    for place in places:
        theories[f"T_{place}"] = _theory_obj(place_types, place_axioms_of[place])
        nodes[place] = {"theory": f"T_{place}", "classification": place if classified else None}
    if classified:
        for hub in hubs:
            nodes[hub]["classification"] = hub
    system = {"nodes": nodes, "edges": edges}
    return bundle(classifications, theories, {name: system}), name


def _classify_place(rng, classifications, hub, place, blocks, shared, sizes, hub_value):
    """Block-constant hub instances; place instances agree with their hub
    instance on the shared types and are random elsewhere."""
    if hub not in classifications:
        values = {f"x{k}": [rng.random() < 0.5 for _ in blocks] for k in range(sizes["hub"])}
        hub_value[hub] = values
        classifications[hub] = {
            "instances": sorted(values),
            "types": sorted(t for b in blocks for t in b),
            "incidence": sorted(
                [x, t] for x, v in values.items() for b, block in enumerate(blocks) if v[b]
                for t in block
            ),
        }
    values = hub_value[hub]
    hub_instances = sorted(values)
    ys = [f"y{k:02d}" for k in range(sizes["place"])]
    targets = [hub_instances[k % len(hub_instances)] for k in range(len(ys))]
    rng.shuffle(targets)
    instance_map = dict(zip(ys, targets))
    incidence = []
    private = sorted(set(f"p{k}" for k in range(TYPES_PER_NODE)) - set(shared))
    for y, x in instance_map.items():
        incidence += [[y, shared[b]] for b in range(len(blocks)) if values[x][b]]
        incidence += [[y, t] for t in private if rng.random() < 0.5]
    classifications[place] = {
        "instances": ys,
        "types": [f"p{k}" for k in range(TYPES_PER_NODE)],
        "incidence": sorted(incidence),
    }
    return instance_map


def star(rng, name, k, **kw):
    return linked_system(rng, name, [list(range(k))], k, **kw)


def zigzag(rng, name, k, **kw):
    """Places P00..Pk joined in a row: hub E<i> links places i and i+1."""
    return linked_system(rng, name, [[i, i + 1] for i in range(k)], k + 1, **kw)


# ---------------------------------------------------------------------------
# materialize: theories for closure, random contexts

def random_theory(rng: random.Random, n: int, n_axioms: int):
    types = [f"t{k}" for k in range(n)]
    return types, sorted({_sequent(rng, types) for _ in range(n_axioms)})


def context(rng: random.Random, n_instances: int, n_types: int, per_instance: int) -> dict:
    """Each instance has exactly ``per_instance`` random types: at a fixed
    size and density this keeps the concept count within a few percent
    across seeds, where independent coin flips spread it by 15-25%."""
    instances = [f"g{k:03d}" for k in range(n_instances)]
    types = [f"m{k:02d}" for k in range(n_types)]
    return {
        "instances": instances,
        "types": types,
        "incidence": sorted([g, m] for g in instances for m in rng.sample(types, per_instance)),
    }
