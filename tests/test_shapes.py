"""The seeded shape corpus against plain enumeration.

Rings, self-loop stars and parallel-edge paths, and the forests among
shapes (stars, zig-zags, random trees), each of 2-6 nodes with random,
often non-injective type maps and now and then an inconsistent node
(see ``support.corpus_system``).  Read undirected, with loops and
parallel edges ignored, only rings of three or more nodes are cyclic,
so ``integrate`` takes its semijoin path on every other shape; there the
handle path's reader is run on each node as well.
"""

import itertools
import random

import pytest

from ifk import CapExceeded, ShapeGraph, entails_by_enumeration, integrate, sum_classification
from ifk.closure import all_states
from ifk.integration import _handle_deltas, _pulled_states
from ifk.systems import VERDICT_MONOCOSMIC
from ifk.theories import Sequent, sequent_key

import support

KINDS = support.CYCLIC_SHAPES + support.FOREST_SHAPES
SEEDS = range(60)


def _corpus(kind):
    for seed in SEEDS:
        yield support.corpus_system(random.Random(f"corpus:{kind}:{seed}"), kind)


@pytest.mark.parametrize("kind", KINDS)
def test_integrate_deltas_match_state_enumeration(kind):
    verdicts = set()
    for s in _corpus(kind):
        forest = s.shape._traversal[2]
        for bound in (0, 1, 2):
            result = integrate(s, delta_bound=bound)
            for n, t in s.node_theory.items():
                if forest:  # both readers agree, whichever one integrate ran
                    assert _handle_deltas(s, n, bound) == result.deltas[n], (n, bound)
                sides = [x for x in all_states(t.types) if len(x) <= bound]
                expected = [
                    q for q in map(Sequent, *zip(*itertools.product(sides, sides)))
                    if not entails_by_enumeration(t, q)
                    and entails_by_enumeration(result.sum_theory, q.rename(result.cocone[n]))
                ]
                assert result.deltas[n] == tuple(sorted(expected, key=sequent_key)), (n, bound)
        verdicts.add(result.verdict)
    assert VERDICT_MONOCOSMIC in verdicts and len(verdicts) > 1


@pytest.mark.parametrize("kind", KINDS)
def test_pulled_back_states_are_the_sum_models_seen_from_each_node(kind):
    for s in _corpus(kind):
        if not s.shape._traversal[2]:
            continue
        colim, theory, _ = s._sum
        sum_models = support.plain_satisfying_states(theory)
        states = _pulled_states(s)
        for n, t in s.node_theory.items():
            names = sorted(t.types)
            own = {sum(1 << k for k, name in enumerate(names) if name in x)
                   for x in support.plain_satisfying_states(t)}
            seen = {sum(1 << k for k, name in enumerate(names) if colim.cocone[n][name] in x)
                    for x in sum_models}
            assert states[n] == (sum(1 << y for y in own), sum(1 << y for y in seen)), n


@pytest.mark.parametrize("kind", KINDS)
def test_sums_are_the_instance_product_filtered_by_every_edge(kind):
    for s in _corpus(kind):
        d = s.cls_diagram()
        channel = sum_classification(d)
        nodes = sorted(d.shape.nodes)
        product = itertools.product(*(sorted(d.node_cls[n].instances) for n in nodes))
        expected = {
            combo for combo in product
            if all(d.edge_info[e].instance_map[combo[nodes.index(dst)]] == combo[nodes.index(src)]
                   for e, src, dst in d.shape.edges)
        }
        tuples = {z: tuple(channel.legs[n].instance_map[z] for n in nodes) for z in channel.core.instances}
        assert sorted(tuples.values()) == sorted(expected)
        members = s._sum.colimit.members
        for z, combo in tuples.items():
            for c, group in members.items():
                holds = {(combo[nodes.index(n)], t) in d.node_cls[n].incidence for n, t in group}
                assert holds == {(z, c) in channel.core.incidence}


def test_every_partial_tuple_completes_on_a_forest_without_parallel_edges():
    # so the cap on partial tuples refuses such a sum exactly when its
    # tuples pass the cap, and reports their count
    checked = 0
    for kind in KINDS:
        for s in _corpus(kind):
            links = [frozenset((src, dst)) for _, src, dst in s.shape.edges if src != dst]
            if not s.shape._traversal[2] or len(set(links)) < len(links):
                continue
            d = s.cls_diagram()
            total = len(sum_classification(d).core.instances)
            if total:
                checked += 1
                assert len(sum_classification(d, instance_cap=total).core.instances) == total
                with pytest.raises(CapExceeded) as err:
                    sum_classification(d, instance_cap=total - 1)
                assert err.value.required == total
    assert checked > 100


def _largest_prefix_count(d):
    """By brute force: the most tuples over any prefix of the breadth-first
    order, over the instances left once every edge has cut its ends to a
    fixpoint, that meet every edge inside the prefix; 0 when a node is left
    without instances."""
    order = d.shape._traversal[0]
    edges = [(d.edge_info[e].instance_map, src, dst) for e, src, dst in d.shape.edges]
    alive = {n: set(d.node_cls[n].instances) for n in order}
    while True:
        before = sum(map(len, alive.values()))
        for f, src, dst in edges:
            alive[dst] = {y for y in alive[dst] if f[y] in alive[src] and (src != dst or f[y] == y)}
            alive[src] &= {f[y] for y in alive[dst]}
        if sum(map(len, alive.values())) == before:
            break
    if not all(alive.values()):
        return 0
    counts = []
    for k in range(1, len(order) + 1):
        inside = [(f, order.index(src), order.index(dst)) for f, src, dst in edges
                  if {src, dst} <= set(order[:k])]
        product = itertools.product(*(sorted(alive[n]) for n in order[:k]))
        counts.append(sum(all(f[t[b]] == t[a] for f, a, b in inside) for t in product))
    return max(counts, default=1)  # no nodes: the one empty tuple


@pytest.mark.parametrize("kind", KINDS)
def test_sum_refuses_a_cap_exactly_when_a_prefix_passes_it(kind):
    # on every shape, cyclic or with parallel edges too: the partial tuples
    # charged at a node are those of its prefix that meet every edge inside it
    refused = 0
    for s in _corpus(kind):
        d = s.cls_diagram()
        most = _largest_prefix_count(d)
        for cap in sorted({0, 1, max(most - 1, 0), most}):
            if most > cap:
                refused += 1
                with pytest.raises(CapExceeded) as err:
                    sum_classification(d, instance_cap=cap)
                assert (err.value.required, err.value.cap) == (cap + 1, cap)
            else:
                sum_classification(d, instance_cap=cap)
    assert refused > 40


def test_forest_flag_matches_a_union_find_count():
    shapes = [(None, [], []), (None, ["a"], [("e", "a", "a")])]
    for kind in KINDS:
        shapes += [(kind, *support.rand_shape(random.Random(f"shape:{kind}:{seed}"), kind))
                   for seed in range(60)]
    for kind, nodes, edges in shapes:
        shape = ShapeGraph(nodes, edges)
        order, parent, forest = shape._traversal
        links = {frozenset((src, dst)) for _, src, dst in edges if src != dst}
        root = {n: n for n in nodes}

        def find(n):
            while root[n] != n:
                n = root[n]
            return n

        for a, b in map(sorted, links):
            root[find(a)] = find(b)
        components = sum(find(n) == n for n in nodes)
        assert forest == (len(links) == len(nodes) - components)
        assert forest == (kind != "ring" or len(nodes) == 2)  # two nodes: a pair of parallel edges
        assert sorted(order) == sorted(nodes)
        for k, n in enumerate(order):
            if parent[n] is None:  # the least node of its component
                assert n == min(m for m in nodes if find(m) == find(n))
            else:
                assert order.index(parent[n]) < k and frozenset((n, parent[n])) in links
