"""Per-layer metrics of a traced run, named after the library's modules.

Spans come from three places, all outside the library: the traced
library pass, the re-issued pipelines (``Workload.reissue``), and the
CLI commands re-run in this process with ``validate_system`` wrapped,
which counts how often each command validates its system.
"""

from __future__ import annotations

import statistics

from spans import Tracer

TIMED = (
    "bundle.parse",
    "theories.entails",
    "theories.is_consistent",
    "theories.close",
    "theories.satisfying_states",
    "flow.direct_flow",
    "flow.handle_entails",
    "flow.materialize",
    "diagrams.colimit",
    "diagrams.sum",
    "integration.validate",
    "integration.integrate",
    "integration.consistency",
    "logics.natural_logic",
    "fca.concepts",
    "fca.lattice",
    "fca.lattice_dot",
    "fca.meet_join",
)
COUNTED = (
    "theories.close.candidates",
    "theories.satisfying_states.states",
    "theories.recursion_failures",
    "diagrams.colimit.classes",
    "diagrams.sum.tuples",
    "diagrams.sum.charged",
    "integration.delta.candidates",
    "integration.delta.found",
    "fca.concepts.count",
    "fca.lattice.order_pairs",
    "fca.covers.count",
)
SIZE_POINTS = (1, 2)  # integrate workload: stars and chains with k leaves or links
OTHER = (
    ("cli.startup_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.report_bytes", "bytes"),
    ("cli.invocations", "count"),
    ("diagrams.sum.yield", "ratio"),
    ("integration.validate.per_command", "count"),
    ("integration.integrate.self_s", "s"),
    *((f"integration.integrate.k{k}_s", "s") for k in SIZE_POINTS),
    ("integration.delta.yield", "ratio"),
    ("logics.natural_logic.distinct_states", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.us_per_call", "us")]
    out += [(name, "count") for name in COUNTED]
    return out + list(OTHER)


def validations_per_command(w) -> dict:
    """Run each of the workload's CLI commands in this process with
    ``validate_system`` wrapped in a span, wherever the modules call it."""
    import ifk.bundle
    import ifk.cli
    import ifk.integration

    tr = Tracer()
    original = ifk.integration.validate_system

    def counted(system):
        with tr.span("integration.validate"):
            return original(system)

    patched = [m for m in (ifk.bundle, ifk.integration) if getattr(m, "validate_system", None) is original]
    for module in patched:
        module.validate_system = counted
    try:
        for op in w.cli_ops:
            try:
                ifk.cli.run(op.argv)
            except Exception:  # outcomes are checked in the CLI passes
                pass
    finally:
        for module in patched:
            module.validate_system = original
    return {"totals": tr.totals(), "commands": len(w.cli_ops)}


def _medians(passes: list) -> tuple[dict, dict]:
    """Span totals and counters over (tracer, speed factor) passes: times
    and timers are medians of the scaled per-pass values, counts come
    from the first pass."""
    totals = [(t.totals(), f) for t, f in passes]
    spans = {
        name: {"calls": agg["calls"],
               **{key: statistics.median(p[name][key] * f for p, f in totals) for key in ("s", "self_s")}}
        for name, agg in totals[0][0].items()
    }
    counters = {
        name: statistics.median(t.counters[name] * f for t, f in passes) if name.endswith("_s") else value
        for name, value in passes[0][0].counters.items()
    }
    return spans, counters


def per_layer(lib: list, reissued: list, cli: dict, validations: dict, overhead: float) -> dict:
    """``lib`` and ``reissued`` hold one (tracer, speed factor) per traced
    pass; their names do not overlap."""
    spans, counters = _medians(lib)
    more_spans, more_counters = _medians(reissued)
    spans.update(more_spans, **validations["totals"])
    for name, value in more_counters.items():
        counters[name] = counters.get(name, 0) + value
    values = {}
    for name in TIMED:
        agg = spans.get(name, {"calls": 0, "s": 0.0})
        values[f"{name}.calls"] = agg["calls"]
        values[f"{name}.s"] = agg["s"]
        values[f"{name}.us_per_call"] = agg["s"] / agg["calls"] * 1e6 if agg["calls"] else 0.0
    for name in COUNTED:
        values[name] = counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    reissue = spans.get("integration.reissue", {"s": 0.0, "self_s": 0.0})
    values.update({
        "cli.startup_ms": cli["startup_ms"],
        "cli.import_ms": cli["import_ms"],
        "cli.report_bytes": cli["report_bytes"],
        "cli.invocations": cli["invocations"],
        "diagrams.sum.yield": ratio(counters.get("diagrams.sum.tuples", 0),
                                    counters.get("diagrams.sum.charged", 0)),
        "integration.validate.per_command": ratio(values["integration.validate.calls"],
                                                  validations["commands"]),
        # integrate() minus the time its re-issued steps took
        "integration.integrate.self_s":
            values["integration.integrate.s"] - (reissue["s"] - reissue["self_s"]),
        **{f"integration.integrate.k{k}_s": counters.get(f"integration.integrate.k{k}_s", 0.0)
           for k in SIZE_POINTS},
        "integration.delta.yield": ratio(counters.get("integration.delta.found", 0),
                                         counters.get("integration.delta.candidates", 0)),
        "logics.natural_logic.distinct_states": counters.get("logics.natural_logic.distinct_states", 0.0),
        "trace.overhead_ratio": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in catalogue()}
