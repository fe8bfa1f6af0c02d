"""One-shot scaling curve: the baseline table of ROADMAP.md, from the
checked-in generators.

    python3 perfbench/run.py --curve

Points: ``close`` on an 8-type implication chain, ``natural_logic`` on
50 x 8, ``integrate`` on stars of k = 2, 8, 32 leaves (8 types per node,
delta bound 2), ``lattice`` and ``lattice_dot`` on 300 x 14.  Each point
is timed once through the library in this process and checked against
the oracle.  It takes about a minute and a half, so it is meant to run
once per change, not in every repetition of the benchmark.
"""

from __future__ import annotations

import json
import random
import time

import gen
import oracle
from ifk.bundle import parse_bundle
from ifk.fca import lattice, lattice_dot
from ifk.integration import integrate
from ifk.logics import natural_logic
from ifk.theories import close
from workloads import _closure_ok, _concept_masks, _dot_ok, _integrate_ok, _result_doc, sq

STAR_SIZES = (2, 8, 32)


def main(work) -> int:
    rng = random.Random("curve")
    rows = []

    def point(operation, size, call, check):
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        rows.append({"operation": operation, "size": size, "s": seconds, "correct": bool(check(result))})
        print(f"{operation:14s} {size:34s} {seconds:9.3f} s  {'ok' if rows[-1]['correct'] else 'WRONG'}",
              flush=True)
        return result

    types, axioms = gen.chain_theory(7)
    doc = gen.bundle(theories={"T": {"types": types, "axioms": [gen.seq_obj(a, c) for a, c in axioms]}})
    space = oracle.StateSpace(types)
    expected = space.theory_of(space.models(axioms))
    theory = parse_bundle(json.dumps(doc)).theories["T"]
    point("close", "8-type chain", lambda: close(theory),
          lambda t: _closure_ok(map(sq, t.axioms), space, expected))

    ctx = gen.context(rng, 50, 8, 4)
    space = oracle.StateSpace(ctx["types"])
    intents = {g: [] for g in ctx["instances"]}
    for g, m in ctx["incidence"]:
        intents[g].append(m)
    expected = space.theory_of(space.states_of(intents.values()))
    c = parse_bundle(json.dumps(gen.bundle(classifications={"C": ctx}))).classifications["C"]
    point("natural_logic", "50 x 8", lambda: natural_logic(c),
          lambda nl: _closure_ok(map(sq, nl.theory.axioms), space, expected))

    for k in STAR_SIZES:
        doc, name = gen.star(rng, f"star{k}", k)
        ans = oracle.system_answers(doc, name, 2)
        system = parse_bundle(json.dumps(doc)).systems[name]
        point("integrate", f"star k={k}, 8 types/node, bound 2", lambda: integrate(system, delta_bound=2),
              lambda r: _integrate_ok(_result_doc(r), ans))

    ctx = gen.context(rng, 300, 14, 7)
    ans = oracle.concept_answers(ctx)
    c = parse_bundle(json.dumps(gen.bundle(classifications={"C": ctx}))).classifications["C"]
    size = f"300 x 14 ({len(ans['concepts'])} concepts)"
    docs = lambda l: [{"extent": k.extent, "intent": k.intent} for k in l.concepts]
    l = point("lattice", size, lambda: lattice(c),
              lambda l: set(_concept_masks(docs(l), ans)) == ans["concepts"])
    point("lattice_dot", size, lambda: lattice_dot(l), lambda dot: _dot_ok(dot, ans))

    (work / "BENCH_curve.json").write_text(json.dumps(rows, indent=1))
    print(json.dumps({"curve": rows}))
    return 0 if all(r["correct"] for r in rows) else 1
