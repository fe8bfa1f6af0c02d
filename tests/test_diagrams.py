import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from ifk import (
    CapExceeded,
    Channel,
    Classification,
    ClsDiagram,
    IfkError,
    InformationSystem,
    Infomorphism,
    LanguageDiagram,
    SequentTheory,
    ShapeGraph,
    check_infomorphism,
    colimit_language,
    compose_infomorphisms,
    integrate,
    mediating_morphism,
    sum_classification,
    verify_channel_covers,
)
from ifk.diagrams import _compatible_tuples, _semijoin

import support
from conftest import FIXTURES


def vee_language_diagram() -> LanguageDiagram:
    shape = ShapeGraph(["O1", "O2", "M"], [("f1", "M", "O1"), ("f2", "M", "O2")])
    return LanguageDiagram(
        shape,
        {
            "M": {"x", "y"},
            "O1": {"person", "mortal"},
            "O2": {"human", "philosopher", "mortal_gr"},
        },
        {
            "f1": {"x": "person", "y": "mortal"},
            "f2": {"x": "human", "y": "mortal_gr"},
        },
    )


def test_shape_rejects_undeclared_endpoints():
    with pytest.raises(IfkError, match="undeclared endpoint"):
        ShapeGraph(["a"], [("e", "a", "b")])


def test_shape_rejects_duplicate_edge_ids():
    with pytest.raises(IfkError, match="duplicate edge ids"):
        ShapeGraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


@pytest.mark.parametrize(
    "node_language, edge_map, message",
    [
        ({"a": {"x"}}, {"e": {"x": "y"}}, "no language for node"),
        ({"a": {"x"}, "b": {"y"}}, {}, "no type function for edge e"),
        ({"a": {"x", "z"}, "b": {"y"}}, {"e": {"x": "y"}}, "not total on the source language"),
        ({"a": {"x"}, "b": {"y"}}, {"e": {"x": "w"}}, "lands outside the target language"),
    ],
)
def test_language_diagram_refusals(node_language, edge_map, message):
    with pytest.raises(IfkError, match=message):
        LanguageDiagram(ShapeGraph(["a", "b"], [("e", "a", "b")]), node_language, edge_map)


def test_colimit_refuses_colliding_class_names():
    d = LanguageDiagram(ShapeGraph(["a.b", "a"], []), {"a.b": {"c"}, "a": {"b.c"}}, {})
    with pytest.raises(IfkError, match="class name collision at sum:a.b.c"):
        colimit_language(d)


def test_single_node_colimit_is_renaming():
    d = LanguageDiagram(ShapeGraph(["n"], []), {"n": {"a", "b"}}, {})
    colim = colimit_language(d)
    assert colim.types == {"sum:n.a", "sum:n.b"}
    assert colim.cocone["n"] == {"a": "sum:n.a", "b": "sum:n.b"}


def test_isolated_nodes_sum_disjointly():
    d = LanguageDiagram(
        ShapeGraph(["n", "m"], []), {"n": {"a", "b"}, "m": {"a", "b", "c"}}, {}
    )
    assert len(colimit_language(d).types) == 5


def test_vee_colimit_has_three_classes():
    colim = colimit_language(vee_language_diagram())
    assert colim.types == {"sum:M.x", "sum:M.y", "sum:O2.philosopher"}
    assert colim.members["sum:M.x"] == {("M", "x"), ("O1", "person"), ("O2", "human")}
    assert colim.members["sum:M.y"] == {("M", "y"), ("O1", "mortal"), ("O2", "mortal_gr")}
    assert colim.members["sum:O2.philosopher"] == {("O2", "philosopher")}


def test_cocone_commutes_with_edges():
    rng = random.Random(83)
    diagrams = [vee_language_diagram()] + [
        support.rand_system(rng).language_diagram() for _ in range(30)
    ]
    for d in diagrams:
        colim = colimit_language(d)
        for e, src, dst in d.shape.edges:
            for t in d.node_language[src]:
                assert colim.cocone[dst][d.edge_map[e][t]] == colim.cocone[src][t]


def test_colimit_is_deterministic():
    d = vee_language_diagram()
    assert colimit_language(d) == colimit_language(d)


def test_empty_diagram_colimit():
    d = LanguageDiagram(ShapeGraph([], []), {}, {})
    assert colimit_language(d).types == frozenset()


# ---------------------------------------------------------------------------
# sums of classifications

def single_node_diagram():
    c = Classification("n", ["i1", "i2"], ["a"], [("i1", "a")])
    return ClsDiagram(ShapeGraph(["n"], []), {"n": c}, {})


def test_single_node_sum_is_isomorphic_renaming():
    ch = sum_classification(single_node_diagram())
    assert ch.core.types == {"sum:n.a"}
    assert len(ch.core.instances) == 2
    assert check_infomorphism(ch.legs["n"]).ok


def test_isolated_nodes_sum_is_product():
    c1 = Classification("n", ["i1", "i2"], ["a"], [("i1", "a")])
    c2 = Classification("m", ["j1", "j2", "j3"], ["b", "c"], [("j1", "b")])
    d = ClsDiagram(ShapeGraph(["n", "m"], []), {"n": c1, "m": c2}, {})
    ch = sum_classification(d)
    assert len(ch.core.instances) == 6
    assert len(ch.core.types) == 3


def test_sum_instance_cap():
    c1 = Classification("n", ["i1", "i2"], [], [])
    c2 = Classification("m", ["j1", "j2"], [], [])
    d = ClsDiagram(ShapeGraph(["n", "m"], []), {"n": c1, "m": c2}, {})
    with pytest.raises(CapExceeded) as err:
        sum_classification(d, instance_cap=3)
    assert err.value.required == 4


def test_sum_cap_charges_compatible_tuples_only():
    # the edge pairs each instance with one partner: 10 tuples out of a
    # product of 100
    c1 = Classification("n", [f"i{k}" for k in range(10)], [], [])
    c2 = Classification("m", [f"j{k}" for k in range(10)], [], [])
    f = Infomorphism("e", c1, c2, {}, {f"j{k}": f"i{k}" for k in range(10)})
    d = ClsDiagram(ShapeGraph(["n", "m"], [("e", "n", "m")]), {"n": c1, "m": c2}, {"e": f})
    assert len(sum_classification(d, instance_cap=10).core.instances) == 10
    with pytest.raises(CapExceeded) as err:
        sum_classification(d, instance_cap=9)
    assert err.value.required == 10


def late_dying_diagram(k: int, m: int) -> ClsDiagram:
    # root a; every instance of each b-node fits a, but each d-node admits
    # one instance of its b-node: m^k partial tuples over the b-nodes die at
    # the d-nodes, which come after every b-node, and one tuple survives
    a = Classification("a", ["a0"], [], [])
    node_cls, edges, infos = {"a": a}, [], {}
    for i in range(k):
        b = Classification(f"b{i:02}", [f"b{i}_{j}" for j in range(m)], [], [])
        c = Classification(f"d{i:02}", [f"d{i}"], [], [])
        node_cls[b.name], node_cls[c.name] = b, c
        edges += [(f"ab{i}", "a", b.name), (f"bd{i}", b.name, c.name)]
        infos[f"ab{i}"] = Infomorphism(f"ab{i}", a, b, {}, {x: "a0" for x in b.instances})
        infos[f"bd{i}"] = Infomorphism(f"bd{i}", b, c, {}, {f"d{i}": f"b{i}_0"})
    return ClsDiagram(ShapeGraph(node_cls, edges), node_cls, infos)


def test_sum_prunes_partial_tuples_that_die_late():
    assert len(sum_classification(late_dying_diagram(3, 4)).core.instances) == 1
    # 4^12 partial tuples over the b-nodes, but the semijoins leave each
    # b-node the one instance its d-node admits
    assert len(sum_classification(late_dying_diagram(12, 4)).core.instances) == 1
    # a diagram whose instance product is within the cap is never refused
    assert len(sum_classification(late_dying_diagram(6, 4), instance_cap=4096).core.instances) == 1
    # nor one with an empty node, whatever the other nodes hold
    d = late_dying_diagram(12, 4)
    empty = Classification("z", [], [], [])
    d = ClsDiagram(
        ShapeGraph(d.shape.nodes | {"z"}, d.shape.edges), {**d.node_cls, "z": empty}, d.edge_info
    )
    assert sum_classification(d).core.instances == frozenset()


def hub_diagram(k: int) -> ClsDiagram:
    # a hub of 20 instances and k leaves; each leaf has 3 instances over
    # every hub instance, except the last, which has one, over h0
    h = Classification("h", [f"h{v}" for v in range(20)], [], [])
    node_cls, edges, infos = {"h": h}, [], {}
    for i in range(k):
        over = {f"l{i}_0": "h0"} if i == k - 1 else {
            f"l{i}_{v}_{j}": f"h{v}" for v in range(20) for j in range(3)}
        leaf = node_cls[f"l{i}"] = Classification(f"l{i}", list(over), [], [])
        edges.append((f"e{i}", "h", leaf.name))
        infos[f"e{i}"] = Infomorphism(f"e{i}", h, leaf, {}, over)
    return ClsDiagram(ShapeGraph(node_cls, edges), node_cls, infos)


def test_sum_cap_charges_the_tuples_of_a_hub_not_a_search():
    # instance product 20 * 60^7: the last leaf leaves 3^7 tuples over h0
    assert len(sum_classification(hub_diagram(8)).core.instances) == 3**7
    with pytest.raises(CapExceeded) as err:
        sum_classification(hub_diagram(9))  # 3^8 = 6561 tuples
    assert err.value.phase == "sum classification instances (lower bound)"
    assert (err.value.required, err.value.cap) == (4097, 4096)


def test_sum_semijoins_run_to_a_fixpoint():
    # x - y - z: z keeps y0 alone only after the edge from x to y has been
    # read once, so that edge must be read again for x to keep x0 alone
    x, y = (Classification(n, [f"{n}0", f"{n}1"], [], []) for n in "xy")
    z = Classification("z", ["z0"], [], [])
    infos = {"e1": Infomorphism("e1", y, z, {}, {"z0": "y0"}),
             "e2": Infomorphism("e2", x, y, {}, {"y0": "x0", "y1": "x1"})}
    d = ClsDiagram(ShapeGraph("xyz", [("e1", "y", "z"), ("e2", "x", "y")]), {"x": x, "y": y, "z": z}, infos)
    assert sum_classification(d, instance_cap=1).core.instances == {"tup:x.x0,y.y0,z.z0"}


def test_sum_keeps_only_the_instances_a_loop_fixes():
    # the loop on b swaps b0 and b1 and fixes b2 alone, so a keeps only a1:
    # one partial tuple at each node, within a cap of 1
    a = Classification("a", ["a0", "a1"], [], [])
    b = Classification("b", ["b0", "b1", "b2"], [], [])
    infos = {"ab": Infomorphism("ab", a, b, {}, {"b0": "a0", "b1": "a0", "b2": "a1"}),
             "bb": Infomorphism("bb", b, b, {}, {"b0": "b1", "b1": "b0", "b2": "b2"})}
    d = ClsDiagram(ShapeGraph("ab", [("ab", "a", "b"), ("bb", "b", "b")]), {"a": a, "b": b}, infos)
    assert sum_classification(d, instance_cap=1).core.instances == {"tup:a.a1,b.b2"}


def twisted_triangle(n: int, m: int) -> ClsDiagram:
    # b_ij and c_ij lie over a_i, and c_ij over b_(i+1 mod n)j: every
    # instance has a partner on every edge, yet no tuple closes the cycle
    a = Classification("a", [f"a{i}" for i in range(n)], [], [])
    b, c = (Classification(x, [f"{x}{i}_{j}" for i in range(n) for j in range(m)], [], [])
            for x in "bc")
    ab = {f"b{i}_{j}": f"a{i}" for i in range(n) for j in range(m)}
    ac = {f"c{i}_{j}": f"a{i}" for i in range(n) for j in range(m)}
    bc = {f"c{i}_{j}": f"b{(i + 1) % n}_{j}" for i in range(n) for j in range(m)}
    infos = {"ab": Infomorphism("ab", a, b, {}, ab), "ac": Infomorphism("ac", a, c, {}, ac),
             "bc": Infomorphism("bc", b, c, {}, bc)}
    shape = ShapeGraph("abc", [("ab", "a", "b"), ("ac", "a", "c"), ("bc", "b", "c")])
    return ClsDiagram(shape, {"a": a, "b": b, "c": c}, infos)


def test_sum_cap_charges_partial_tuples_on_a_cycle():
    # the semijoins remove nothing; the 200 partial tuples over a and b
    # are charged although none survives c
    d = twisted_triangle(10, 20)
    with pytest.raises(CapExceeded) as err:
        sum_classification(d, instance_cap=100)
    assert err.value.phase == "sum classification instances (lower bound)"
    assert (err.value.required, err.value.cap) == (101, 100)
    assert sum_classification(d, instance_cap=200).core.instances == frozenset()
    # 5,000 partial tuples over a and b pass the default cap: refused in the join, fast
    with pytest.raises(CapExceeded) as err:
        sum_classification(twisted_triangle(50, 100))
    assert (err.value.required, err.value.cap) == (4097, 4096)


def _system_of(d: ClsDiagram) -> dict:
    """A bundle of one system ``S`` over the classifications of ``d``, which have no types."""
    nodes = {n: {"theory": "T", "classification": n} for n in d.node_cls}
    edges = [{"id": e, "src": src, "dst": dst, "type_map": {}, "instance_map": dict(d.edge_info[e].instance_map)}
             for e, src, dst in sorted(d.shape.edges)]
    return {"classifications": {n: {"instances": sorted(c.instances)} for n, c in d.node_cls.items()},
            "theories": {"T": {}}, "systems": {"S": {"nodes": nodes, "edges": edges}}}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize("name, diagram, mb, status", [
    # each child's address space peaks near 25 MB (VmPeak, Python 3.11 with site); about 1.5 times that
    ("hub", lambda: hub_diagram(8), 37, 0),
    ("twisted triangle", lambda: twisted_triangle(50, 100), 38, 1),
], ids=["hub", "twisted triangle"])
def test_sum_command_ends_in_one_report_within_its_address_space(tmp_path, name, diagram, mb, status):
    import resource

    bundle = tmp_path / "system.json"
    bundle.write_text(json.dumps(_system_of(diagram())))
    limit = mb * 2**20

    def bounded():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "ifk.cli", "sum", "--system", "S", str(bundle)],
                          env=env, capture_output=True, preexec_fn=bounded)
    assert (done.returncode, done.stderr) == (status, b"")
    report = json.loads(done.stdout)  # one document, whole
    if name == "hub":
        assert len(report["core"]["instances"]) == 3**7
    else:
        assert report == {"ok": False, "error": {"kind": "cap-exceeded", "cap": 4096, "required": 4097,
                                                 "phase": "sum classification instances (lower bound)"}}


# ---------------------------------------------------------------------------
# the semijoin kernel against a naive fixpoint and the full join

KERNEL_KINDS = support.CYCLIC_SHAPES + support.FOREST_SHAPES


class _CountedKeys(dict):
    """A key map that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _kernel_cases():
    """300 seeded cases over the corpus shapes: 0-6 rows per node, a node
    now and then left without rows, and per edge a link between its ends
    in random orientation with counted key maps onto at most 4 values."""
    for case in range(300):
        rng = random.Random(f"semijoin:{case}")
        kind = KERNEL_KINDS[case % len(KERNEL_KINDS)]
        nodes, edges = support.rand_shape(rng, kind)
        rows = {n: {f"{n}r{j}" for j in range(rng.randint(0, 6))} for n in nodes}
        if rng.random() < 0.1:
            rows[rng.choice(nodes)] = set()
        values = range(rng.randint(0, 3) + 1)
        keys = lambda n: _CountedKeys({x: rng.choice(values) for x in sorted(rows[n])})
        links = []
        for _, src, dst in edges:
            ends = [(src, keys(src)), (dst, keys(dst))]
            rng.shuffle(ends)
            links.append((*ends[0], *ends[1]))
        rng.shuffle(links)
        yield kind, ShapeGraph(nodes, edges), rows, keys, links


def _naive_fixpoint(rows, links):
    rows = {n: set(r) for n, r in rows.items()}
    changed = True
    while changed:
        changed = False
        for a, key_a, b, key_b in links:
            for keep, key_keep, other, key_other in ((a, key_a, b, key_b), (b, key_b, a, key_a)):
                kept = {x for x in rows[keep] if any(key_keep[x] == key_other[y] for y in rows[other])}
                changed = changed or kept != rows[keep]
                rows[keep] = kept
    return rows


def _joined_projection(shape, rows, links):
    """Each node's rows in some tuple of its component's full join."""
    order, parent, _ = shape._traversal
    roots = {}
    for n in order:
        roots[n] = n if parent[n] is None else roots[parent[n]]
    seen = {n: set() for n in order}
    for root in set(roots.values()):
        nodes = [n for n in order if roots[n] == root]
        inside = [(nodes.index(a), ka, nodes.index(b), kb) for a, ka, b, kb in links if a in nodes]
        for t in itertools.product(*(sorted(rows[n]) for n in nodes)):
            if all(ka[t[i]] == kb[t[k]] for i, ka, k, kb in inside):
                for n, x in zip(nodes, t):
                    seen[n].add(x)
    return seen


def test_semijoin_is_the_greatest_fixpoint_and_on_forests_the_full_reducer():
    forests = cut = 0
    for kind, shape, rows, keys, links in _kernel_cases():
        assert _semijoin(rows, links) == _naive_fixpoint(rows, links), kind
        order, parent, forest = shape._traversal
        if not forest:
            continue
        # parent-first in breadth-first order: one round reduces, a second finds nothing to cut
        forests += 1
        tree = [(parent[n], keys(parent[n]), n, keys(n)) for n in order if parent[n] is not None]
        reduced = _semijoin(rows, tree)
        for a, key_a, b, key_b in tree:  # each round reads a map twice a row, the second only kept rows
            assert key_a.reads <= 2 * (len(rows[a]) + len(reduced[a])), kind
            assert key_b.reads <= 2 * (len(rows[b]) + len(reduced[b])), kind
        assert reduced == _joined_projection(shape, rows, tree), kind
        cut += reduced != rows
    assert forests > 100 and cut > 50


def test_sum_tuples_over_rings_loops_and_parallel_edges_are_the_filtered_product():
    # typeless classifications, so any instance maps make infomorphisms
    for case in range(300):
        rng = random.Random(f"semijoin sum:{case}")
        nodes, edges = support.rand_shape(rng, KERNEL_KINDS[case % len(KERNEL_KINDS)])
        cls = {n: Classification(n, [f"{n}i{j}" for j in range(rng.randint(0, 4))], [], [])
               for n in nodes}
        infos = {}
        for e, src, dst in edges:
            image = sorted(cls[src].instances)
            if image or not cls[dst].instances:
                imap = {y: rng.choice(image) for y in sorted(cls[dst].instances)}
                infos[e] = Infomorphism(e, cls[src], cls[dst], {}, imap)
        shape = ShapeGraph(nodes, [edge for edge in edges if edge[0] in infos])
        d = ClsDiagram(shape, cls, infos)
        product = itertools.product(*(sorted(cls[n].instances) for n in nodes))
        compatible = lambda t: all(infos[e].instance_map[t[nodes.index(dst)]] == t[nodes.index(src)]
                                   for e, src, dst in shape.edges)
        expected = [dict(zip(nodes, t)) for t in product if compatible(t)]
        found = _compatible_tuples(d, 10**6)
        key = lambda tup: sorted(tup.items())
        assert sorted(found, key=key) == sorted(expected, key=key), case


def vee_cls_diagram():
    m = Classification("M", ["m1", "m2"], ["x"], [("m1", "x")])
    o1 = Classification("O1", ["a1", "a2"], ["p"], [("a1", "p")])
    o2 = Classification(
        "O2", ["b1", "b2", "b3"], ["q", "r"], [("b1", "q"), ("b3", "q"), ("b2", "r")]
    )
    f1 = Infomorphism("f1", m, o1, {"x": "p"}, {"a1": "m1", "a2": "m2"})
    f2 = Infomorphism("f2", m, o2, {"x": "q"}, {"b1": "m1", "b2": "m2", "b3": "m1"})
    shape = ShapeGraph(["M", "O1", "O2"], [("f1", "M", "O1"), ("f2", "M", "O2")])
    return ClsDiagram(shape, {"M": m, "O1": o1, "O2": o2}, {"f1": f1, "f2": f2})


def test_vee_sum_instances_match_brute_force():
    d = vee_cls_diagram()
    ch = sum_classification(d)
    # oracle: filter the full product by the edge equations
    nodes = sorted(d.shape.nodes)
    count = 0
    for combo in itertools.product(*[sorted(d.node_cls[n].instances) for n in nodes]):
        tup = dict(zip(nodes, combo))
        if all(
            d.edge_info[e].instance_map[tup[dst]] == tup[src]
            for e, src, dst in d.shape.edges
        ):
            count += 1
    assert len(ch.core.instances) == count
    assert count == 3  # m1 with a1 x {b1, b3}, and m2 with a2 x {b2}
    assert ch.core.types == {"sum:M.x", "sum:O2.r"}

    result = verify_channel_covers(ch, d)
    assert result.ok


def test_cls_diagram_refusals():
    c = Classification("c", ["i"], ["t"], [("i", "t")])
    d = Classification("d", ["j"], ["u"], [])
    shape = ShapeGraph(["a", "b"], [("e", "a", "b")])
    good = Infomorphism("e", c, c, {"t": "t"}, {"i": "i"})
    cases = [
        ({"a": c}, {"e": good}, "no classification for node"),
        ({"a": c, "b": c}, {}, "no infomorphism for edge e"),
        ({"a": c, "b": d}, {"e": good}, "endpoints do not match the shape"),
        ({"a": c, "b": d}, {"e": Infomorphism("e", c, d, {"t": "u"}, {"j": "i"})},
         "invariance fails at"),
    ]
    for node_cls, edge_info, message in cases:
        with pytest.raises(IfkError, match=message):
            ClsDiagram(shape, node_cls, edge_info)


def test_sum_refuses_colliding_tuple_names():
    m = Classification("m", ["p", "p,n.q"], [], [])
    n = Classification("n", ["r", "q,n.r"], [], [])
    d = ClsDiagram(ShapeGraph(["m", "n"], []), {"m": m, "n": n}, {})
    with pytest.raises(IfkError, match="tuple name collision"):
        sum_classification(d)


def incidence_free_diagram() -> ClsDiagram:
    m = Classification("M", ["m1", "m2"], ["x"], [])
    o = Classification("O", ["a1", "a2"], ["p"], [])
    f = Infomorphism("f", m, o, {"x": "p"}, {"a1": "m1", "a2": "m2"})
    return ClsDiagram(ShapeGraph(["M", "O"], [("f", "M", "O")]), {"M": m, "O": o}, {"f": f})


def with_leg_instances(ch: Channel, n: str, instance_map: dict[str, str]) -> Channel:
    """``ch`` with the instance map of leg ``n`` replaced."""
    leg = ch.legs[n]
    replaced = Infomorphism(leg.name, leg.source, ch.core, dict(leg.type_map), instance_map)
    return Channel(ch.core, {**ch.legs, n: replaced})


def test_broken_leg_is_reported_and_its_edges_skipped():
    d = incidence_free_diagram()
    ch = sum_classification(d)
    z = min(ch.core.instances)
    partial = {b: a for b, a in ch.legs["M"].instance_map.items() if b != z}
    result = verify_channel_covers(with_leg_instances(ch, "M", partial), d)
    assert result.defects == (("leg", "M", f"instance map not total, missing: {z}"),)


def test_legs_commuting_on_types_only_are_reported():
    d = incidence_free_diagram()
    ch = sum_classification(d)
    swap = {"m1": "m2", "m2": "m1"}
    swapped = {b: swap[a] for b, a in ch.legs["M"].instance_map.items()}
    result = verify_channel_covers(with_leg_instances(ch, "M", swapped), d)
    assert result.defects == tuple(("edge", "f", "instance", z) for z in sorted(ch.core.instances))


def test_sum_channel_covers_random_diagrams():
    rng = random.Random(89)
    for _ in range(40):
        d = support.rand_cls_diagram(rng)
        ch = sum_classification(d)
        assert verify_channel_covers(ch, d).ok
        for leg in ch.legs.values():
            assert check_infomorphism(leg).ok


def test_sum_incidence_and_names_match_the_pair_definition():
    rng = random.Random(0x5C)
    held = merged = 0
    for _ in range(150):
        d = support.rand_cls_diagram(rng, max_nodes=4, max_size=3, max_edges=4)
        ch = sum_classification(d)
        members = colimit_language(d.language_diagram()).members
        expected = set()
        for name in ch.core.instances:
            tup = {n: leg.instance_map[name] for n, leg in ch.legs.items()}
            assert name == "tup:" + ",".join(f"{n}.{x}" for n, x in sorted(tup.items()))
            for c, group in members.items():
                holds = {(tup[n], t) in d.node_cls[n].incidence for n, t in group}
                assert len(holds) == 1  # invariance: every member agrees
                if holds == {True}:
                    expected.add((name, c))
        assert ch.core.incidence == expected
        held += len(expected)
        merged += sum(len(group) > 1 for group in members.values())
    assert held > 2000 and merged > 40  # classes with several members, each read at its least


def test_perturbed_leg_is_reported():
    d = vee_cls_diagram()
    ch = sum_classification(d)
    leg = ch.legs["M"]
    other_type = sorted(ch.core.types - {leg.type_map["x"]})[0]
    bad_leg = Infomorphism(
        leg.name, leg.source, leg.target, {"x": other_type}, dict(leg.instance_map)
    )
    bad = Channel(ch.core, {**ch.legs, "M": bad_leg})
    result = verify_channel_covers(bad, d)
    assert not result.ok
    assert any(d[0] == "edge" and d[2] == "type" for d in result.defects)


def test_channel_legs_are_checked_once(monkeypatch):
    import ifk.classification

    calls = []
    check = ifk.classification.check_infomorphism

    def counted(f):
        calls.append(f.name)
        return check(f)

    monkeypatch.setattr(ifk.classification, "check_infomorphism", counted)
    d = vee_cls_diagram()
    ch = sum_classification(d)
    calls.clear()  # the diagram's constructor checked its edges
    assert verify_channel_covers(ch, d).ok
    assert verify_channel_covers(ch, d).ok
    assert sorted(calls) == sorted(leg.name for leg in ch.legs.values())


def test_sum_of_empty_diagram_is_a_point():
    d = ClsDiagram(ShapeGraph([], []), {}, {})
    ch = sum_classification(d)
    assert ch.core.types == frozenset()
    assert len(ch.core.instances) == 1  # the empty tuple
    assert verify_channel_covers(ch, d).ok


def test_sum_cap_charges_the_empty_tuple():
    with pytest.raises(CapExceeded) as err:
        sum_classification(ClsDiagram(ShapeGraph([], []), {}, {}), instance_cap=0)
    assert (err.value.required, err.value.cap) == (1, 0)


def test_sum_with_an_instance_free_node_is_instance_free():
    c1 = Classification("n", [], ["a"], [])
    c2 = Classification("m", ["j1", "j2"], ["b"], [("j1", "b")])
    d = ClsDiagram(ShapeGraph(["n", "m"], []), {"n": c1, "m": c2}, {})
    ch = sum_classification(d)
    assert ch.core.instances == frozenset()
    assert len(ch.core.types) == 2


def test_channel_over_empty_diagram_is_vacuously_ok():
    d = ClsDiagram(ShapeGraph([], []), {}, {})
    ch = Channel(Classification("anything", ["z"], ["t"], []), {})
    assert verify_channel_covers(ch, d).ok


def test_shape_mismatch_raises():
    d = vee_cls_diagram()
    ch = sum_classification(d)
    with pytest.raises(IfkError, match="shape mismatch"):
        verify_channel_covers(Channel(ch.core, {}), d)


# ---------------------------------------------------------------------------
# the universal property

def test_mediator_for_the_sum_itself_is_identity():
    d = vee_cls_diagram()
    ch = sum_classification(d)
    m = mediating_morphism(ch, ch, d)
    assert m.type_map == {t: t for t in ch.core.types}
    assert m.instance_map == {i: i for i in ch.core.instances}


def test_mediator_for_isomorphic_channel_is_the_isomorphism():
    d = single_node_diagram()
    ch = sum_classification(d)
    rename_t = {t: f"r_{t}" for t in ch.core.types}
    rename_i = {i: f"r_{i}" for i in ch.core.instances}
    iso_core = Classification(
        "renamed",
        rename_i.values(),
        rename_t.values(),
        [(rename_i[i], rename_t[t]) for i, t in ch.core.incidence],
    )
    j = Infomorphism(
        "j", ch.core, iso_core, rename_t, {v: k for k, v in rename_i.items()}
    )
    assert check_infomorphism(j).ok
    other = support.postcompose_channel(ch, j)
    m = mediating_morphism(ch, other, d)
    assert m.type_map == j.type_map
    assert m.instance_map == j.instance_map


def test_mediator_collapses_redundant_channel():
    # a hand-built channel whose core duplicates the single class
    c = Classification("n", ["i1", "i2"], ["a"], [("i1", "a")])
    d = ClsDiagram(ShapeGraph(["n"], []), {"n": c}, {})
    ch = sum_classification(d)
    fat_core = Classification(
        "fat",
        ["z1", "z2"],
        ["a1", "a2"],
        [("z1", "a1"), ("z1", "a2")],
    )
    leg = Infomorphism("leg", c, fat_core, {"a": "a1"}, {"z1": "i1", "z2": "i2"})
    other = Channel(fat_core, {"n": leg})
    assert verify_channel_covers(other, d).ok
    m = mediating_morphism(ch, other, d)
    assert m.type_map["sum:n.a"] == "a1"
    assert compose_infomorphisms(ch.legs["n"], m).instance_map == leg.instance_map


def test_mediator_factorizes_and_is_unique_randomized():
    rng = random.Random(97)
    hits = 0
    for _ in range(40):
        d = support.rand_cls_diagram(rng, max_nodes=3, max_size=2)
        ch = sum_classification(d)
        j = support.rand_infomorphism_from(rng, ch.core, max_extra_types=0, max_instances=2)
        other = support.postcompose_channel(ch, j)
        if not verify_channel_covers(other, d).ok:
            continue
        m = mediating_morphism(ch, other, d)
        hits += 1
        for n in d.shape.nodes:
            composed = compose_infomorphisms(ch.legs[n], m)
            assert composed.type_map == other.legs[n].type_map
            assert composed.instance_map == other.legs[n].instance_map
        # exhaustive search over candidate maps: exactly one factorizes
        count = count_factorizing_morphisms(ch, other, d)
        assert count == 1
    assert hits >= 30


def count_factorizing_morphisms(ch, other, d) -> int:
    """Scan every (type map, instance map) pair between the cores."""
    src_types = sorted(ch.core.types)
    dst_types = sorted(other.core.types)
    src_inst = sorted(ch.core.instances)
    dst_inst = sorted(other.core.instances)
    count = 0
    for t_values in itertools.product(dst_types, repeat=len(src_types)):
        tmap = dict(zip(src_types, t_values))
        if any(
            tmap[ch.legs[n].type_map[t]] != other.legs[n].type_map[t]
            for n in d.shape.nodes
            for t in d.node_cls[n].types
        ):
            continue
        for i_values in itertools.product(src_inst, repeat=len(dst_inst)):
            imap = dict(zip(dst_inst, i_values))
            if any(
                ch.legs[n].instance_map[imap[b]] != other.legs[n].instance_map[b]
                for n in d.shape.nodes
                for b in dst_inst
            ):
                continue
            candidate = Infomorphism("cand", ch.core, other.core, tmap, imap)
            if check_infomorphism(candidate).ok:
                count += 1
    return count


def test_non_covering_channel_is_rejected():
    d = vee_cls_diagram()
    ch = sum_classification(d)
    leg = ch.legs["M"]
    other_type = sorted(ch.core.types - {leg.type_map["x"]})[0]
    bad_leg = Infomorphism(
        leg.name, leg.source, leg.target, {"x": other_type}, dict(leg.instance_map)
    )
    bad = Channel(ch.core, {**ch.legs, "M": bad_leg})
    with pytest.raises(IfkError, match="does not cover"):
        mediating_morphism(ch, bad, d)


def test_mapping_fields_are_read_only():
    c = Classification("c", ["i"], ["t"], [("i", "t")])
    shape = ShapeGraph(["a", "b"], [("e", "a", "b")])
    f = Infomorphism("e", c, c, {"t": "t"}, {"i": "i"})
    d = ClsDiagram(shape, {"a": c, "b": c}, {"e": f})
    lang = d.language_diagram()
    top = SequentTheory(["t"], [])
    s = InformationSystem(
        shape, {"a": top, "b": top}, {"e": {"t": "t"}}, d.node_cls, {"e": {"i": "i"}}
    )
    colim = colimit_language(lang)
    result = integrate(s)
    views = [
        f.type_map,
        f.instance_map,
        d.node_cls,
        d.edge_info,
        lang.node_language,
        lang.edge_map,
        lang.edge_map["e"],
        sum_classification(d).legs,
        s.node_theory,
        s.edge_type_map,
        s.edge_type_map["e"],
        s.node_cls,
        s.edge_instance_map,
        s.edge_instance_map["e"],
        colim.cocone,
        colim.cocone["a"],
        colim.members,
        result.cocone,
        result.cocone["a"],
        result.sum_members,
        result.closure_handles,
        result.deltas,
        result.closure_handles["a"].type_map,
    ]
    for view in views:
        with pytest.raises(TypeError):
            view["x"] = "x"
    # a handle is shared by every later query on the system
    with pytest.raises(AttributeError):
        result.closure_handles["a"].target = top
