"""Independent answers for every workload, computed without the library.

States are bitmasks over a sorted type list; a set of states is one
Python int with bit ``x`` set when state ``x`` is in the set, so a
query is decided by a handful of big-int operations over all states at
once.  Systems are decided node by node on a join tree; concepts come
from closing object intents under intersection.
"""

from __future__ import annotations

from itertools import combinations


def var_masks(n: int) -> tuple[list[int], int]:
    """For each type k, the set of the 2^n states in which k holds."""
    size = 1 << n
    full = (1 << size) - 1
    masks = []
    for k in range(n):
        if k < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[k]]) * max(size // 8, 1)
        else:
            run = 1 << (k - 3)
            pattern = (b"\x00" * run + b"\xff" * run) * (size // (16 * run))
        masks.append(int.from_bytes(pattern, "little") & full)
    return masks, full


class StateSpace:
    """All states over ``types`` with the masks needed to decide sequents."""

    def __init__(self, types):
        self.types = sorted(types)
        self.index = {t: k for k, t in enumerate(self.types)}
        self.masks, self.full = var_masks(len(self.types))

    def refuting(self, ant, con) -> int:
        """States holding all of ``ant`` and none of ``con``."""
        out = self.full
        for t in ant:
            out &= self.masks[self.index[t]]
        for t in con:
            out &= self.full ^ self.masks[self.index[t]]
        return out

    def models(self, axioms) -> int:
        out = self.full
        for ant, con in axioms:
            out &= self.full ^ self.refuting(ant, con)
        return out

    def entails(self, models: int, ant, con) -> bool:
        return not models & self.refuting(ant, con)

    def states_of(self, members) -> int:
        """The state-set holding exactly the given type subsets."""
        out = 0
        for holds in members:
            out |= 1 << sum(1 << self.index[t] for t in holds)
        return out

    def mask(self, names) -> int:
        return sum(1 << self.index[t] for t in names)

    def theory_of(self, models: int) -> set[tuple[int, int]]:
        """Every sequent (antecedent mask, consequent mask) that all states in
        ``models`` satisfy: the 4^n candidate check, bit-parallel over states."""
        n = len(self.types)
        subsets = range(1 << n)
        up = [self.refuting([self.types[k] for k in range(n) if g >> k & 1], ()) for g in subsets]
        down = [self.refuting((), [self.types[k] for k in range(n) if d >> k & 1]) for d in subsets]
        out = set()
        for g in subsets:
            hit = models & up[g]
            for d in subsets:
                if not hit & down[d]:
                    out.add((g, d))
        return out


# ---------------------------------------------------------------------------
# systems

def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def system_answers(doc: dict, name: str, delta_bound: int) -> dict:
    """Deltas, verdicts, sum classes and sum axioms of one system.

    The sum's models are the join of one relation per node over the
    classes that node touches.  For stars and chains the shape graph is
    a join tree, so two semijoin passes reduce every relation to exactly
    the sum models seen from that node.
    """
    system = doc["systems"][name]
    theories = doc["theories"]
    nodes = sorted(system["nodes"])
    types = {n: sorted(theories[system["nodes"][n]["theory"]]["types"]) for n in nodes}
    axioms = {
        n: [(tuple(a["ant"]), tuple(a["con"])) for a in theories[system["nodes"][n]["theory"]]["axioms"]]
        for n in nodes
    }
    parent = {(n, t): (n, t) for n in nodes for t in types[n]}
    neighbours = {n: set() for n in nodes}
    for e in system["edges"]:
        neighbours[e["src"]].add(e["dst"])
        neighbours[e["dst"]].add(e["src"])
        for t, u in e["type_map"].items():
            parent[_find(parent, (e["src"], t))] = _find(parent, (e["dst"], u))
    cls = {p: _find(parent, p) for p in parent}
    classes = {}
    for p, root in cls.items():
        classes.setdefault(root, set()).add(p)

    scope = {n: sorted({cls[(n, t)] for t in types[n]}) for n in nodes}
    spaces = {n: StateSpace(types[n]) for n in nodes}

    def local_state(n, a):
        # class assignment a (bit per scope position) -> node state mask
        pos = {c: k for k, c in enumerate(scope[n])}
        return sum(1 << k for k, t in enumerate(types[n]) if a >> pos[cls[(n, t)]] & 1)

    own_models = {n: spaces[n].models(axioms[n]) for n in nodes}
    relation = {
        n: {a for a in range(1 << len(scope[n])) if own_models[n] >> local_state(n, a) & 1}
        for n in nodes
    }
    pointwise = all(relation.values())

    def semijoin(keep, other):
        shared = [c for c in scope[keep] if c in set(scope[other])]

        def key(n, a):
            return tuple(a >> scope[n].index(c) & 1 for c in shared)

        seen = {key(other, b) for b in relation[other]}
        relation[keep] = {a for a in relation[keep] if key(keep, a) in seen}

    order, tree_parent, stack = [], {nodes[0]: None}, [nodes[0]]
    while stack:  # depth-first order over the (tree-shaped) shape graph
        n = stack.pop()
        order.append(n)
        for m in sorted(neighbours[n]):
            if m not in tree_parent:
                tree_parent[m] = n
                stack.append(m)
    if len(order) != len(nodes) or sum(map(len, neighbours.values())) != 2 * (len(nodes) - 1):
        raise ValueError(f"system {name} is not tree-shaped")
    for n in reversed(order[1:]):
        semijoin(tree_parent[n], n)
    for n in order[1:]:
        semijoin(n, tree_parent[n])
    monocosmic = all(relation.values())

    deltas = {}
    for n in nodes:
        space = spaces[n]
        pulled = 0
        for a in relation[n]:
            pulled |= 1 << local_state(n, a)
        found = set()
        bounded = [c for r in range(delta_bound + 1) for c in combinations(types[n], r)]
        for g in bounded:
            for d in bounded:
                refute = space.refuting(g, d)
                if not pulled & refute and own_models[n] & refute:
                    found.add((g, d))
        deltas[n] = found

    sum_axioms = {
        (frozenset(cls[(n, t)] for t in a), frozenset(cls[(n, t)] for t in c))
        for n in nodes
        for a, c in axioms[n]
    }
    return {
        "classes": {frozenset(g) for g in classes.values()},
        "class_of": cls,
        "sum_axioms": sum_axioms,
        "deltas": deltas,
        "pointwise": pointwise,
        "monocosmic": monocosmic,
        "verdict": (
            "pointwise-inconsistent" if not pointwise
            else "monocosmic" if monocosmic else "polycosmic"
        ),
    }


def sum_tuples(doc: dict, name: str, class_of: dict) -> dict[tuple, set]:
    """Edge-compatible instance tuples of a classified star, node-sorted,
    each with the classes it falls under.  Per hub instance the tuples
    are the product of the places' preimages; a tuple has a class when
    its component at a member node has the member type."""
    system = doc["systems"][name]
    (hub,) = {e["src"] for e in system["edges"]}
    nodes = sorted(system["nodes"])
    cls = {n: doc["classifications"][system["nodes"][n]["classification"]] for n in nodes}
    incident = {n: {tuple(p) for p in cls[n]["incidence"]} for n in nodes}
    preimages = {}
    for e in system["edges"]:
        for y, x in e["instance_map"].items():
            preimages.setdefault((e["dst"], x), []).append(y)
    out = {}
    for x in cls[hub]["instances"]:
        partial = [{hub: x}]
        for place in nodes:
            if place != hub:
                partial = [dict(p, **{place: y}) for p in partial for y in preimages.get((place, x), [])]
        for p in partial:
            out[tuple(p[n] for n in nodes)] = {
                class_of[(n, t)] for n in nodes for t in cls[n]["types"] if (p[n], t) in incident[n]
            }
    return out


# ---------------------------------------------------------------------------
# concepts

def concept_answers(ctx: dict) -> dict:
    """Concepts as (extent mask, intent mask) by intersection closure of
    the object intents, and the cover relation between them."""
    types = ctx["types"]
    tindex = {t: k for k, t in enumerate(types)}
    objects = ctx["instances"]
    rows = [0] * len(objects)
    oindex = {g: k for k, g in enumerate(objects)}
    for g, m in ctx["incidence"]:
        rows[oindex[g]] |= 1 << tindex[m]
    intents = {(1 << len(types)) - 1}
    for row in rows:
        intents |= {row & i for i in intents}
    extent = {i: sum(1 << k for k, row in enumerate(rows) if row & i == i) for i in intents}
    covers = set()
    for i in intents:
        # upper neighbours: the largest intents i & row over objects outside the extent
        candidates = {i & row for k, row in enumerate(rows) if not extent[i] >> k & 1}
        for c in candidates:
            if not any(c != d and c & d == c for d in candidates):
                covers.add((extent[i], extent[c]))
    return {
        "concepts": {(extent[i], i) for i in intents},
        "covers": covers,
        "types": types,
        "objects": objects,
    }
