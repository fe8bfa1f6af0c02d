"""Seeded bundle mutations: whatever a bundle holds, every command ends
with exit status 0, 1 or 2 and a JSON report, and never as an `internal`
error (an exception the CLI did not expect)."""

import json
import random
import sys
import time
from collections import Counter

import pytest

from ifk.bundle import canonical_json
from ifk.cli import run
from ifk.closure import close
from ifk.errors import CapExceeded, _decimal
from ifk.theories import SequentTheory

from conftest import FIXTURES

# per fixture, the system, theory and classification (if it has one) that commands name
FIXTURE_NAMES = {"vee.json": ("vee", "T_M", None), "clash.json": ("clash", "T_M", None),
                 "classics.json": ("solo", "classical", "CLF-A")}
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
    outcomes: dict[str, Counter] = {}
    for fixture, (system, theory, classification) in sorted(FIXTURE_NAMES.items()):
        original = json.loads((FIXTURES / fixture).read_text())
        types = sorted(original["theories"][theory]["types"])
        commands = {
            "validate": ["validate"],
            "integrate": ["integrate", "--system", system, "--delta-bound", "1"],
            "consistency": ["consistency", "--system", system],
            "entails": ["entails", "--theory", theory, "--sequent", f"{types[0]} |- {types[-1]}"],
            "close": ["close", "--theory", theory],
            "sum": ["sum", "--system", system],
        }
        if classification:
            commands["lattice"] = ["lattice", "--classification", classification]
            commands["lattice dot"] = [*commands["lattice"], "--format", "dot"]
        for _ in range(MUTATIONS_PER_FIXTURE):
            doc = json.loads(json.dumps(original))
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, doc)
            text = json.dumps(doc)
            if rng.random() < 0.05:
                text = text[: rng.randrange(len(text))]  # a truncated document
            path.write_text(text)
            for command, argv in commands.items():
                status, report = run([*argv, str(path)])
                assert status in (0, 1, 2), (argv, text)
                if status == 0 and command == "lattice dot":  # a DOT report is not JSON
                    assert report.startswith("digraph concept_lattice {"), (argv, text, report)
                    kind = "ok"
                else:
                    error = json.loads(report).get("error")
                    kind = "ok" if error is None else error["kind"]
                assert (status == 0) == (kind == "ok"), (argv, text, report)
                assert kind == "ok" or kind in EXPECTED_KINDS, (argv, text, report)
                outcomes.setdefault(command, Counter())[kind] += 1
    print(f"mutated bundles: {3 * MUTATIONS_PER_FIXTURE}, outcomes per command "
          f"{ {command: dict(kinds) for command, kinds in sorted(outcomes.items())} }")
    # the mutations reach past the parser: some inputs stay valid, some fail later checks
    every = sum(outcomes.values(), Counter())
    assert every["ok"] and every["bundle"] and every["invalid"]
    assert all(kinds["ok"] for kinds in outcomes.values()), outcomes


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


WIDE = 8000  # types: 4^8000 sequents, 4,817 digits, past the interpreter's 4,300 for str(int)


def _digits(n: int) -> str:
    """``str(n)`` with the interpreter's int-to-string digit limit lifted for this call alone."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_cap_refusal_renders_its_required_size_past_the_digit_limit():
    with pytest.raises(CapExceeded) as err:
        close(SequentTheory([f"t{k}" for k in range(WIDE)], []), cap=1)
    digits = _digits(4**WIDE)
    assert len(digits) > 4300
    assert err.value.required == 4**WIDE
    assert canonical_json(err.value.required) == digits + "\n"
    assert str(err.value) == f"theory closure: requires {digits} > cap 1"


def test_a_cap_refusal_of_a_million_digits_is_worded_fast():
    # Decimal(n) alone converts in time quadratic in the digits, seconds at this size;
    # the conversion by halves takes a fraction of one, in the message as in the report
    n = 4**10**6  # 602,060 digits
    start = time.perf_counter()
    text = _decimal(n)
    converted = time.perf_counter() - start
    start = time.perf_counter()
    err = CapExceeded("theory closure", n, 1)
    refused = time.perf_counter() - start
    assert converted < 1 and refused < 1
    digits = _digits(n)  # str() itself may take seconds on an interpreter before 3.12
    assert len(digits) == 602_060
    assert text == digits and str(err) == f"theory closure: requires {digits} > cap 1"


@pytest.mark.parametrize("chained", [False, True], ids=["free", "chained"])
@pytest.mark.parametrize("width", [0, WIDE])
def test_every_command_on_extreme_sizes_ends_in_one_json_report(tmp_path, width, chained):
    # a theory of 0 or 8,000 types, free or a chain t0 -> t1 -> ..., and a one-node
    # system over it; the sizes refused have thousands of digits, written exactly
    types = [f"t{k}" for k in range(width)]
    axioms = [{"ant": [a], "con": [b]} for a, b in zip(types, types[1:])] if chained else []
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({
        "theories": {"T": {"types": types, "axioms": axioms}},
        "systems": {"S": {"nodes": {"n": {"theory": "T"}}, "edges": []}},
    }))
    bounds = ("0", str(width // 2), str(width), str(10**20))
    runs = [["validate"], ["close", "--theory", "T", "--cap", "1"], ["entails", "--theory", "T", "--sequent", "|-"],
            ["lattice", "--classification", "T"], ["sum", "--system", "S"], ["consistency", "--system", "S"],
            *(["integrate", "--system", "S", "--delta-bound", bound] for bound in bounds)]
    kinds = {}
    for argv in runs:
        start = time.perf_counter()
        status, report = run([*argv, str(path)])
        took = time.perf_counter() - start
        assert status in (0, 1, 2), argv
        error = json.loads(report, parse_int=str).get("error")  # the digits as text: int() has the limit too
        assert (status == 0) == (error is None), (argv, report[:300])
        if error is not None:
            assert error["kind"] in EXPECTED_KINDS, (argv, report[:300])
            assert took < 1, (argv, took)
        kinds[" ".join(argv[:1] + argv[-1:])] = error and error["kind"]
        if width and argv[-1] in bounds[2:]:  # every subset is a side: (2^8000)^2 sequents
            assert error["required"] == _digits(4**WIDE)
    refused = {"close 1", f"integrate {width // 2}", f"integrate {width}", f"integrate {10**20}"} if width else set()
    assert {key for key, kind in kinds.items() if kind == "cap-exceeded"} == refused
    assert {key for key, kind in kinds.items() if kind not in (None, "cap-exceeded")} == {"lattice T", "sum S"}
