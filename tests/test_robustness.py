"""Seeded bundle mutations: whatever a bundle holds, every command ends
with exit status 0, 1 or 2 and a JSON report, and never as an `internal`
error (an exception the CLI did not expect)."""

import json
import random
from collections import Counter

from ifk.cli import run

from conftest import FIXTURES

FIXTURE_SYSTEMS = {"vee.json": "vee", "clash.json": "clash", "classics.json": "solo"}
MUTATIONS_PER_FIXTURE = 150
JUNK = [None, True, 0, -1, 2.5, "", " ", "a b", "ghost", [], {}, ["ghost"], {"ghost": "ghost"},
        [["ghost", "ghost"]], {"ant": ["ghost"], "con": []}]
EXPECTED_KINDS = {"usage", "bundle", "invalid", "cap-exceeded"}


def _slots(node):
    """Every (container, key-or-index) position below ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = [(node, k) for k, _ in items]
    for _, child in items:
        out += _slots(child)
    return out


def _strings(node):
    if isinstance(node, dict):
        return [s for k, v in node.items() for s in [k, *_strings(v)]]
    if isinstance(node, list):
        return [s for v in node for s in _strings(v)]
    return [node] if isinstance(node, str) else []


def _mutate(rng: random.Random, doc) -> None:
    """One random edit in place: replace, delete, duplicate, rename or swap."""
    slots = _slots(doc)
    if not slots:
        return
    container, key = rng.choice(slots)
    names = _strings(doc) or ["ghost"]
    op = rng.randrange(5)
    if op == 0:
        container[key] = rng.choice(JUNK + [rng.choice(names)])
    elif op == 1:
        del container[key]
    elif op == 2 and isinstance(container, list):
        container.insert(key, json.loads(json.dumps(container[key])))
    elif op == 3 and isinstance(container, dict):
        container[rng.choice(names)] = container.pop(key)
    else:
        strings = [(c, k) for c, k in slots if isinstance(c[k], str)]
        if len(strings) >= 2:
            (c1, k1), (c2, k2) = rng.sample(strings, 2)
            c1[k1], c2[k2] = c2[k2], c1[k1]


def test_mutated_bundles_never_end_as_internal_errors(tmp_path):
    rng = random.Random(20180601)
    path = tmp_path / "mutant.json"
    outcomes: Counter = Counter()
    for fixture, system in sorted(FIXTURE_SYSTEMS.items()):
        original = json.loads((FIXTURES / fixture).read_text())
        for _ in range(MUTATIONS_PER_FIXTURE):
            doc = json.loads(json.dumps(original))
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, doc)
            text = json.dumps(doc)
            if rng.random() < 0.05:
                text = text[: rng.randrange(len(text))]  # a truncated document
            path.write_text(text)
            for argv in (
                ["validate", str(path)],
                ["integrate", "--system", system, "--delta-bound", "1", str(path)],
                ["consistency", "--system", system, str(path)],
            ):
                status, report = run(argv)
                assert status in (0, 1, 2), (argv[0], text)
                error = json.loads(report).get("error")
                kind = "ok" if error is None else error["kind"]
                assert (status == 0) == (kind == "ok"), (argv[0], text, report)
                assert kind == "ok" or kind in EXPECTED_KINDS, (argv[0], text, report)
                outcomes[kind] += 1
    print(f"mutated bundles: {3 * MUTATIONS_PER_FIXTURE}, command outcomes {dict(outcomes)}")
    # the mutations reach past the parser: some inputs stay valid, some fail later checks
    assert outcomes["ok"] and outcomes["bundle"] and outcomes["invalid"]


SIZES = ["0", "1", str(2**63 - 1), str(10**20)]  # 2^63 - 1 is sys.maxsize on 64-bit builds


def test_size_flags_at_any_value_end_with_a_json_report():
    bundle = str(FIXTURES / "classics.json")
    for size in SIZES:
        for argv in (
            ["close", "--theory", "classical", "--cap", size, bundle],
            ["integrate", "--system", "solo", "--cap", size, bundle],
            ["integrate", "--system", "solo", "--delta-bound", size, bundle],
            ["sum", "--system", "solo", "--instance-cap", size, bundle],
        ):
            status, report = run(argv)
            assert status in (0, 1, 2), argv
            error = json.loads(report).get("error")
            assert (status == 0) == (error is None), (argv, report)
            assert error is None or error["kind"] in EXPECTED_KINDS, (argv, report)
