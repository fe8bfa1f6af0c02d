"""The three workloads: inputs, the CLI invocations and library calls made
on them, and the independent check of every answer.

Each workload builds its inputs from the seed in ``setup`` (bundles on
disk plus expected answers from ``oracle``), then exposes
- ``cli_ops``: the fixed list of ``ifk`` invocations, each with a check
  of its report;
- ``lib_pass(tr)``: the same inputs through the library's public
  functions, with a span around each call;
- ``reissue(tr)``: traced runs only, the pipeline behind a public call
  re-issued step by step so each module's share is timed from outside.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import layers
import oracle
from spans import calibrate
from ifk.bundle import parse_bundle
from ifk.diagrams import DEFAULT_INSTANCE_CAP, colimit_language, sum_classification
from ifk.fca import concepts, join, lattice, lattice_dot, meet
from ifk.flow import direct_flow, inverse_flow
from ifk.integration import (
    bounded_sequents,
    integrate,
    is_monocosmic,
    is_pointwise_consistent,
    validate_system,
)
from ifk.logics import natural_logic
from ifk.theories import Sequent, SequentTheory, close, entails, is_consistent, satisfying_states

DELTA_BOUND = 2
CAP_DEFECT = "sum charges the full instance product against the cap"


@dataclass
class CliOp:
    argv: list[str]
    check: Callable[[str], bool]  # stdout -> answer matches the oracle
    known_defect: str | None = None  # why this input fails today


def sq(s) -> tuple:
    return tuple(sorted(s.antecedent)), tuple(sorted(s.consequent))


def obj_sq(o: dict) -> tuple:
    return tuple(o["ant"]), tuple(o["con"])


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cli_ops: list[CliOp] = []
        self.texts: dict[str, str] = {}  # bundle path -> text
        self.sizes: dict = {}

    def write(self, stem: str, doc: dict) -> str:
        path = self.dir / f"{self.name}_{stem}.json"
        text = json.dumps(doc, indent=1, sort_keys=True)
        path.write_text(text)
        self.texts[str(path)] = text
        return str(path)

    def run_lib(self, tr, stats, layer: str, call, check, also=None, defect=None) -> None:
        """One library operation: timed under ``layer`` (and added to the
        ``also`` timer), checked, counted.  ``defect`` says why the input
        is expected to fail today."""
        stats["attempted"] += 1
        result, raised = None, False
        stats["calibrations"].append(calibrate())
        start = time.perf_counter()
        try:
            with tr.span(layer, also):
                result = call()
        except RecursionError:
            tr.count("theories.recursion_failures")
            raised = True
        except Exception:  # any escape from the library is a failed operation
            raised = True
        stats["times"].append(time.perf_counter() - start)
        try:
            ok = not raised and bool(check(result))
        except Exception:
            ok = False
        if not ok:
            stats["failed"] += 1
            stats["unexpected"] += defect is None

    def parse(self, tr, stats, path):
        """The bundle at ``path`` through ``parse_bundle``; None if that fails."""
        box = {}
        self.run_lib(tr, stats, "bundle.parse",
                     lambda: box.setdefault("b", parse_bundle(self.texts[path])), lambda b: True)
        return box.get("b")

    def lib_pass(self, tr) -> dict:
        stats = {"attempted": 0, "failed": 0, "unexpected": 0, "times": [], "calibrations": []}
        gc.collect()  # start every pass from the same heap state
        self.library(tr, stats)
        stats["calibrations"].append(calibrate())  # closes the last call's bracket
        return stats


# ---------------------------------------------------------------------------

class Integrate(Workload):
    """Stars and zig-zag chains of 8-type nodes: many easy entailment
    queries against one sum theory per system."""

    name = "integrate"
    SIZES = layers.SIZE_POINTS

    def setup(self):
        rng = self.rng
        plan = []
        for k in self.SIZES:
            plan.append((f"star{k}", k, gen.star(rng, f"star{k}", k, classified={"hub": 3, "place": 4})))
            plan.append((f"chain{k}", k, gen.zigzag(rng, f"chain{k}", k)))
        plan.append(("clash", None, gen.star(rng, "clash", 2, clash=True)))
        # instance product 4*40*40 = 6400 is over the default cap of 4096,
        # but only 4*10*10 = 400 tuples are edge-compatible
        plan.append(("capped", None, gen.star(rng, "capped", 2, classified={"hub": 4, "place": 40})))
        self.systems = []
        for name, k, (doc, _) in plan:
            path = self.write(name, doc)
            ans = oracle.system_answers(doc, name, DELTA_BOUND)
            classified = any(e["instance_map"] for e in doc["systems"][name]["edges"])
            if classified:
                ans["tuples"] = oracle.sum_tuples(doc, name, ans["class_of"])
                ans["charged"] = math.prod(len(c["instances"]) for c in doc["classifications"].values())
            ans["defect"] = CAP_DEFECT if classified and ans["charged"] > DEFAULT_INSTANCE_CAP else None
            self.systems.append((name, k, path, ans, classified))
            self.sizes[name] = {
                "k": k,
                "nodes": len(doc["systems"][name]["nodes"]),
                "sum_types": len(ans["classes"]),
                "instance_product": ans.get("charged"),
            }
            ops = [
                CliOp(["validate", path], lambda out: json.loads(out) == {"ok": True}),
                CliOp(["integrate", path, "--system", name, "--delta-bound", str(DELTA_BOUND)],
                      lambda out, a=ans: _integrate_ok(json.loads(out), a)),
                CliOp(["consistency", path, "--system", name],
                      lambda out, a=ans: json.loads(out) == _verdicts(a)),
            ]
            if classified:
                ops.append(CliOp(
                    ["sum", path, "--system", name],
                    lambda out, a=ans: _sum_report_ok(json.loads(out), a),
                    ans["defect"],
                ))
            self.cli_ops += ops

    def library(self, tr, stats):
        for name, k, path, ans, classified in self.systems:
            b = self.parse(tr, stats, path)
            system = b.systems.get(name) if b else None
            self.run_lib(tr, stats, "integration.integrate",
                         lambda: integrate(system, delta_bound=DELTA_BOUND),
                         lambda r: _integrate_ok(_result_doc(r), ans),
                         f"integration.integrate.k{k}_s" if k else None)
            self.run_lib(tr, stats, "integration.consistency",
                         lambda: (is_pointwise_consistent(system), is_monocosmic(system)),
                         lambda r: r == (ans["pointwise"], ans["monocosmic"]))
            if classified:
                tr.count("diagrams.sum.charged", ans["charged"])
                self.run_lib(tr, stats, "diagrams.sum", lambda: sum_classification(system.cls_diagram()),
                             lambda ch: _count(tr, "diagrams.sum.tuples", len(ch.core.instances))
                             and _sum_ok(_channel_doc(ch), ans), defect=ans["defect"])

    def reissue(self, tr):
        """integrate() step by step: validate, colimit, direct flow, inverse
        flow, the per-candidate handle and node queries, the verdict."""
        for name, k, path, ans, classified in self.systems:
            system = parse_bundle(self.texts[path]).systems[name]
            nodes = sorted(system.node_theory)
            with tr.span("integration.reissue"):
                with tr.span("integration.reissue.validate"):
                    validate_system(system)
                with tr.span("diagrams.colimit"):
                    colim = colimit_language(system.language_diagram())
                tr.count("diagrams.colimit.classes", len(colim.types))
                images = {}
                for n in nodes:
                    with tr.span("flow.direct_flow"):
                        images[n] = direct_flow(colim.cocone[n], system.node_theory[n], colim.types)
                axioms = frozenset().union(*(image.axioms for image in images.values()))
                sum_theory = SequentTheory(colim.types, axioms)
                for n in nodes:
                    t_n = system.node_theory[n]
                    with tr.span("flow.inverse_flow"):
                        handle = inverse_flow(colim.cocone[n], sum_theory, t_n.types)
                    for q in bounded_sequents(t_n.types, DELTA_BOUND):
                        tr.count("integration.delta.candidates")
                        with tr.span("flow.handle_entails"):
                            hit = handle.entails(q)
                        if hit:
                            with tr.span("theories.entails"):
                                hit = not entails(t_n, q)
                        if hit:
                            tr.count("integration.delta.found")
                for theory in [*images.values(), sum_theory]:
                    with tr.span("theories.is_consistent"):
                        if not is_consistent(theory):
                            break


def _verdicts(ans) -> dict:
    return {"pointwise": ans["pointwise"], "monocosmic": ans["monocosmic"], "verdict": ans["verdict"]}


def _count(tr, name, n) -> bool:
    tr.count(name, n)
    return True


def _result_doc(r) -> dict:
    """An IntegrationResult in the shape of the CLI report."""
    return {
        "sum": {"members": {c: [f"{n}.{t}" for n, t in g] for c, g in r.sum_members.items()}},
        "sum_theory_axioms": [{"ant": sorted(a.antecedent), "con": sorted(a.consequent)}
                              for a in r.sum_theory.axioms],
        "deltas": {n: [{"ant": sorted(q.antecedent), "con": sorted(q.consequent)} for q in qs]
                   for n, qs in r.deltas.items()},
        "verdict": r.verdict,
    }


def _integrate_ok(rep: dict, ans: dict) -> bool:
    members = rep["sum"]["members"]
    groups = {c: frozenset(tuple(m.split(".", 1)) for m in g) for c, g in members.items()}
    if set(groups.values()) != ans["classes"]:
        return False
    root = {c: ans["class_of"][next(iter(g))] for c, g in groups.items()}
    axioms = {
        (frozenset(root[t] for t in a["ant"]), frozenset(root[t] for t in a["con"]))
        for a in rep["sum_theory_axioms"]
    }
    deltas = {n: {obj_sq(q) for q in qs} for n, qs in rep["deltas"].items()}
    return axioms == ans["sum_axioms"] and deltas == ans["deltas"] and rep["verdict"] == ans["verdict"]


def _channel_doc(ch) -> dict:
    return {
        "core": {"instances": sorted(ch.core.instances), "incidence": sorted(ch.core.incidence)},
        "legs": {n: {"type_map": leg.type_map, "instance_map": leg.instance_map}
                 for n, leg in ch.legs.items()},
    }


def _sum_report_ok(rep: dict, ans: dict) -> bool:
    return "core" in rep and _sum_ok(rep, ans)


def _sum_ok(rep: dict, ans: dict) -> bool:
    """Core instances are exactly the compatible tuples, and a tuple has a
    class when its component at a member node has the member type."""
    legs = rep["legs"]
    nodes = sorted(legs)
    tuples = {z: tuple(legs[n]["instance_map"][z] for n in nodes) for z in rep["core"]["instances"]}
    if len(tuples) != len(ans["tuples"]) or set(tuples.values()) != set(ans["tuples"]):
        return False
    root = {c: ans["class_of"][(n, t)] for n in nodes for t, c in legs[n]["type_map"].items()}
    got = {(tuples[z], root[c]) for z, c in rep["core"]["incidence"]}
    return got == {(tup, c) for tup, classes in ans["tuples"].items() for c in classes}


# ---------------------------------------------------------------------------

class Entail(Workload):
    """One-shot queries: planted 3-type theories near the 4.26 ratio, and
    implication chains."""

    name = "entail"
    SIZES = (16, 20, 24, 32, 48)
    CHAINS = (300, 1500)
    ENUMERATED = 24  # up to here every answer is also decided by enumeration

    def setup(self):
        rng = self.rng
        self.theories = []
        for n in self.SIZES:
            types, axioms, model = gen.planted_theory(rng, n)
            queries = [(gen.resolvent_query(rng, axioms), True),
                       (gen.refuted_query(rng, types, model), False)]
            if n <= self.ENUMERATED:
                space = oracle.StateSpace(types)
                models = space.models(axioms)
                for (ant, con), want in queries:
                    if space.entails(models, ant, con) != want:
                        raise RuntimeError(f"generator planted a wrong answer at {n} types")
            self.add(f"sat{n}", types, axioms, queries, None)
            self.sizes[f"sat{n}"] = {"types": n, "axioms": len(axioms), "queries": len(queries)}
        for m in self.CHAINS:
            types, axioms = gen.chain_theory(m)
            lo, hi = rng.randrange(m // 10), m - rng.randrange(m // 10)
            # refuting c(lo) |- c(hi) leaves hi-lo free types, one decision each
            depth_defect = "recursive search deeper than the recursion limit" if hi - lo > 1000 else None
            queries = [(((types[hi],), (types[lo],)), True), (((types[lo],), (types[hi],)), False)]
            self.add(f"chain{m}", types, axioms, queries, depth_defect)
            self.sizes[f"chain{m}"] = {"types": m + 1, "axioms": m, "queries": 2, "free": hi - lo}

    def add(self, stem, types, axioms, queries, defect):
        doc = gen.bundle(theories={"T": {"types": types,
                                         "axioms": [gen.seq_obj(a, c) for a, c in axioms]}})
        path = self.write(stem, doc)
        self.theories.append((path, queries, defect))
        for (ant, con), want in queries:
            self.cli_ops.append(CliOp(
                ["entails", path, "--theory", "T", "--sequent", gen.literal(ant, con)],
                lambda out, q=(ant, con), w=want: _entails_ok(json.loads(out), q, w),
                defect if not want else None,
            ))

    def library(self, tr, stats):
        for path, queries, defect in self.theories:
            b = self.parse(tr, stats, path)
            theory = b.theories.get("T") if b else None
            for (ant, con), want in queries:
                self.run_lib(tr, stats, "theories.entails",
                             lambda: entails(theory, Sequent(frozenset(ant), frozenset(con))),
                             lambda r, w=want: r is w, defect=None if want else defect)

    def reissue(self, tr):
        for path, _, _ in self.theories:
            theory = parse_bundle(self.texts[path]).theories["T"]
            try:
                with tr.span("theories.is_consistent"):
                    is_consistent(theory)
            except RecursionError:
                tr.count("theories.recursion_failures")


def _entails_ok(rep: dict, q, want: bool) -> bool:
    return rep.get("entailed") is want and obj_sq(rep["sequent"]) == q


# ---------------------------------------------------------------------------

class Materialize(Workload):
    """Capped exponential materializations and concept enumeration; no
    entailment queries."""

    name = "materialize"
    CLOSE = ((6, 30), (7, 52), (8, 90))  # types (= axioms), target model count
    # two densities, two contexts each, all near 360 concepts: like-sized lattice
    # invocations keep the median CLI invocation inside a cluster
    CONTEXTS = ((70, 11, 5), (70, 11, 5), (35, 11, 6), (35, 11, 6))  # instances, types, per instance
    NATURAL = (30, 7, 4)
    PULLBACK = ((8, 90), 7)  # (target types, target model count), source types
    MEET_JOIN_PAIRS = 200

    def theory(self, n: int, target: int):
        """A random n-type theory whose model count is within 2% of
        ``target``: its closure's size and cost follow the model count, so
        seeds change the content but not the amount of work."""
        while True:
            types, axioms = gen.random_theory(self.rng, n, n)
            space = oracle.StateSpace(types)
            models = space.models(axioms)
            if abs(bin(models).count("1") - target) <= 0.02 * target:
                doc = gen.bundle(theories={"T": {"types": types,
                                                 "axioms": [gen.seq_obj(a, c) for a, c in axioms]}})
                return doc, space, models

    def setup(self):
        rng = self.rng
        self.closes = []
        for n, target in self.CLOSE:
            doc, space, models = self.theory(n, target)
            path = self.write(f"close{n}", doc)
            expected = space.theory_of(models)
            self.closes.append((path, space, expected))
            self.sizes[f"close{n}"] = {"types": n, "axioms": n, "models": bin(models).count("1"),
                                       "closure": len(expected)}
            self.cli_ops.append(CliOp(
                ["close", path, "--theory", "T"],
                lambda out, s=space, e=expected: _closure_ok(map(obj_sq, json.loads(out)["axioms"]), s, e),
            ))
        self.contexts = []
        for k, (i, t, per) in enumerate(self.CONTEXTS):
            ctx = gen.context(rng, i, t, per)
            path = self.write(f"ctx{k}", gen.bundle(classifications={"C": ctx}))
            ans = oracle.concept_answers(ctx)
            pairs = [(rng.randrange(len(ans["concepts"])), rng.randrange(len(ans["concepts"])))
                     for _ in range(self.MEET_JOIN_PAIRS)]
            self.contexts.append((path, ans, pairs))
            self.sizes[f"ctx{k}"] = {"instances": i, "types": t, "density": per / t,
                                     "concepts": len(ans["concepts"]), "covers": len(ans["covers"])}
            self.cli_ops.append(CliOp(["lattice", path, "--classification", "C"],
                                      lambda out, a=ans: _lattice_ok(json.loads(out), a)))
            self.cli_ops.append(CliOp(["lattice", path, "--classification", "C", "--format", "dot"],
                                      lambda out, a=ans: _dot_ok(out, a)))
        ctx = gen.context(rng, *self.NATURAL)
        self.natural_path = self.write("natural", gen.bundle(classifications={"C": ctx}))
        space = oracle.StateSpace(ctx["types"])
        intents = {g: [] for g in ctx["instances"]}
        for g, m in ctx["incidence"]:
            intents[g].append(m)
        states = space.states_of(intents.values())
        self.natural = (space, space.theory_of(states), set(ctx["instances"]))
        self.sizes["natural"] = {"instances": self.NATURAL[0], "types": self.NATURAL[1],
                                 "distinct_states": bin(states).count("1")}
        (nt, target), ns = self.PULLBACK
        doc, target_space, models = self.theory(nt, target)
        self.pull_path = self.write("pullback", doc)
        source = [f"s{k}" for k in range(ns)]
        self.type_map = {s: rng.choice(target_space.types) for s in source}
        source_space = oracle.StateSpace(source)
        pulled = [[s for s in source if (x >> target_space.index[self.type_map[s]]) & 1]
                  for x in range(1 << nt) if models >> x & 1]
        self.pullback = (source_space, source_space.theory_of(source_space.states_of(pulled)))
        self.sizes["pullback"] = {"target_types": nt, "target_models": bin(models).count("1"),
                                  "source_types": ns}

    def library(self, tr, stats):
        for path, space, expected in self.closes:
            b = self.parse(tr, stats, path)
            theory = b.theories.get("T") if b else None
            tr.count("theories.close.candidates", 4 ** len(space.types))
            self.run_lib(tr, stats, "theories.close", lambda: close(theory),
                         lambda c: _closure_ok(map(sq, c.axioms), space, expected))
        for path, ans, pairs in self.contexts:
            b = self.parse(tr, stats, path)
            c = b.classifications.get("C") if b else None
            box = {}
            self.run_lib(tr, stats, "fca.lattice", lambda: box.setdefault("l", lattice(c)),
                         lambda l: _count(tr, "fca.lattice.order_pairs", len(l.order))
                         and _lattice_ok(_lattice_doc(l), ans))
            l = box.get("l")
            self.run_lib(tr, stats, "fca.lattice_dot", lambda: lattice_dot(l),
                         lambda dot: _count(tr, "fca.covers.count", dot.count("->")) and _dot_ok(dot, ans))
            self.run_lib(tr, stats, "fca.meet_join",
                         lambda: [(meet(l, i, j), join(l, i, j)) for i, j in pairs],
                         lambda r: _meet_join_ok(l, pairs, r, ans))
        b = self.parse(tr, stats, self.natural_path)
        c = b.classifications.get("C") if b else None
        space, expected, normal = self.natural
        distinct = self.sizes["natural"]["distinct_states"] / len(normal)
        tr.count("logics.natural_logic.distinct_states", distinct)
        self.run_lib(tr, stats, "logics.natural_logic", lambda: natural_logic(c),
                     lambda nl: nl.normal == normal
                     and _closure_ok(map(sq, nl.theory.axioms), space, expected))
        b = self.parse(tr, stats, self.pull_path)
        target = b.theories.get("T") if b else None
        space, expected = self.pullback
        self.run_lib(tr, stats, "flow.materialize",
                     lambda: inverse_flow(self.type_map, target, space.types).materialize(),
                     lambda t: _closure_ok(map(sq, t.axioms), space, expected))

    def reissue(self, tr):
        for path, _, _ in self.closes:
            theory = parse_bundle(self.texts[path]).theories["T"]
            with tr.span("theories.satisfying_states"):
                states = satisfying_states(theory)
            tr.count("theories.satisfying_states.states", len(states))
        for path, _, _ in self.contexts:
            c = parse_bundle(self.texts[path]).classifications["C"]
            with tr.span("fca.concepts"):
                found = concepts(c)
            tr.count("fca.concepts.count", len(found))


def _closure_ok(axioms, space, expected: set) -> bool:
    """``axioms`` as (antecedent, consequent) name lists equal ``expected``."""
    got = [(space.mask(ant), space.mask(con)) for ant, con in axioms]
    return len(got) == len(expected) and set(got) == expected


def _lattice_doc(l) -> dict:
    return {
        "concepts": [{"extent": sorted(k.extent), "intent": sorted(k.intent)} for k in l.concepts],
        "order": [[i, j] for i, j in l.order if i != j],
    }


def _concept_masks(concept_objs, ans) -> list[tuple[int, int]]:
    oi = {g: k for k, g in enumerate(ans["objects"])}
    ti = {t: k for k, t in enumerate(ans["types"])}
    return [(sum(1 << oi[g] for g in c["extent"]), sum(1 << ti[t] for t in c["intent"]))
            for c in concept_objs]


def _lattice_ok(rep: dict, ans: dict) -> bool:
    found = _concept_masks(rep["concepts"], ans)
    if len(found) != len(ans["concepts"]) or set(found) != ans["concepts"]:
        return False
    below = {(i, j) for i, (ei, _) in enumerate(found) for j, (ej, _) in enumerate(found)
             if i != j and ei & ej == ei}
    return {tuple(p) for p in rep["order"]} == below and len(rep["order"]) == len(below)


_DOT_NODE = re.compile(r'^  c(\d+) \[label="\{(.*)\} \| \{(.*)\}"\];$')
_DOT_EDGE = re.compile(r"^  c(\d+) -> c(\d+);$")


def _dot_ok(dot: str, ans: dict) -> bool:
    nodes, edges = {}, []
    for line in dot.splitlines():
        if m := _DOT_NODE.match(line):
            split = lambda s: [x for x in s.split(",") if x]
            nodes[int(m[1])] = {"extent": split(m[2]), "intent": split(m[3])}
        elif m := _DOT_EDGE.match(line):
            edges.append((int(m[1]), int(m[2])))
    masks = dict(zip(nodes, _concept_masks(nodes.values(), ans)))
    if len(masks) != len(ans["concepts"]) or set(masks.values()) != ans["concepts"]:
        return False
    covers = [(masks[i][0], masks[j][0]) for i, j in edges]
    return len(covers) == len(ans["covers"]) and set(covers) == ans["covers"]


def _meet_join_ok(l, pairs, results, ans) -> bool:
    intent_of = {e: i for e, i in ans["concepts"]}
    extent_of = {i: e for e, i in ans["concepts"]}
    docs = [{"extent": sorted(k.extent), "intent": sorted(k.intent)} for k in l.concepts]
    masks = _concept_masks(docs, ans)
    for (i, j), (m, jn) in zip(pairs, results):
        (ei, ni), (ej, nj) = masks[i], masks[j]
        (me, mi), (je, ji) = _concept_masks(
            [{"extent": m.extent, "intent": m.intent}, {"extent": jn.extent, "intent": jn.intent}], ans)
        if (me, mi) != (ei & ej, intent_of[ei & ej]) or (je, ji) != (extent_of[ni & nj], ni & nj):
            return False
    return True


WORKLOADS = {w.name: w for w in (Integrate, Entail, Materialize)}
