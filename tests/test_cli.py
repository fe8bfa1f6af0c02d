import io
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifk import BundleError, ConceptLattice, close, entails, integrate, lattice, lattice_dot
from ifk.bundle import parse_bundle
from ifk.cli import main, run
from ifk.serialize import serialize_bundle
from ifk.theories import parse_sequent, sequent_key

from conftest import FIXTURES, ring32, seq


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def _ifk(argv, **env) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so stdout is a real pipe."""
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src"), **env}
    return subprocess.run([sys.executable, "-m", "ifk.cli", *argv], env=env, capture_output=True)


# ---------------------------------------------------------------------------
# bundle parsing

def test_parse_round_trip():
    for name in ("vee.json", "clash.json", "classics.json"):
        bundle = parse_bundle(fixture_text(name))
        text = serialize_bundle(bundle)
        again = parse_bundle(text)
        assert again == bundle
        assert serialize_bundle(again) == text


def test_serialize_names_the_referenced_value_not_an_equal_one():
    shared = {"types": ["t"], "axioms": []}
    doc = {
        "classifications": {"c": {"instances": ["i"], "types": ["t"], "incidence": [["i", "t"]]}},
        "theories": {"A": shared, "B": shared},
        "systems": {"s": {"nodes": {"n": {"theory": "B", "classification": "c"}}, "edges": []}},
    }
    bundle = parse_bundle(json.dumps(doc))
    assert bundle.theories["A"] == bundle.theories["B"]
    text = serialize_bundle(bundle)
    assert json.loads(text)["systems"]["s"]["nodes"]["n"]["theory"] == "B"
    assert serialize_bundle(parse_bundle(text)) == text


def test_parse_reports_position_on_syntax_error():
    with pytest.raises(BundleError, match="line 1"):
        parse_bundle("{not json")


def test_parse_dangling_reference():
    doc = {
        "classifications": {},
        "theories": {},
        "infomorphisms": {
            "f": {"source": "ghost", "target": "ghost", "type_map": {}, "instance_map": {}}
        },
        "systems": {},
    }
    with pytest.raises(BundleError, match="dangling reference to classification 'ghost'"):
        parse_bundle(json.dumps(doc))


def test_parse_duplicate_identifiers():
    doc = {"classifications": {"c": {"instances": ["a", "a"], "types": [], "incidence": []}}}
    with pytest.raises(BundleError, match="duplicate identifier"):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_duplicate_json_keys(tmp_path):
    twice = '{"theories": {"t": {"types": []}, "t": {"types": ["a"]}}}'
    nested = '{"theories": {"t": {"types": [], "types": ["a"]}}}'
    with pytest.raises(BundleError, match="duplicate JSON key 't'"):
        parse_bundle(twice)
    with pytest.raises(BundleError, match="duplicate JSON key 'types'"):
        parse_bundle(nested)
    bad = tmp_path / "twice.json"
    bad.write_text(twice)
    status, report = run(["validate", str(bad)])
    assert status == 1
    assert json.loads(report)["error"]["kind"] == "bundle"


def test_parse_rejects_sections_that_are_not_objects(tmp_path):
    bad = tmp_path / "bad.json"
    for section in ("classifications", "theories", "infomorphisms", "systems"):
        for value in ([], [1], "x", None):
            bad.write_text(json.dumps({section: value}))
            status, report = run(["validate", str(bad)])
            assert status == 1, (section, value)
            assert json.loads(report)["error"] == {
                "kind": "bundle",
                "message": f"{section}: expected an object",
            }


def test_parse_rejects_invariance_violation():
    doc = {
        "classifications": {
            "c": {"instances": ["i"], "types": ["t", "u"], "incidence": [["i", "t"]]}
        },
        "infomorphisms": {
            "f": {
                "source": "c",
                "target": "c",
                "type_map": {"t": "u", "u": "t"},
                "instance_map": {"i": "i"},
            }
        },
    }
    with pytest.raises(BundleError, match="invariance fails"):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_bad_system_edge():
    doc = {
        "theories": {
            "strong": {"types": ["a"], "axioms": [{"ant": [], "con": ["a"]}]},
            "weak": {"types": ["b"], "axioms": []},
        },
        "systems": {
            "s": {
                "nodes": {"n": {"theory": "strong"}, "m": {"theory": "weak"}},
                "edges": [{"id": "e", "src": "n", "dst": "m", "type_map": {"a": "b"}}],
            }
        },
    }
    with pytest.raises(BundleError, match="invalid system"):
        parse_bundle(json.dumps(doc))


def test_sequent_literal_grammar():
    assert parse_sequent("philosopher |- human") == seq("philosopher", "human")
    assert parse_sequent("a, b |- c") == seq("a b", "c")
    assert parse_sequent("|-") == seq("", "")
    assert parse_sequent("|- a") == seq("", "a")
    with pytest.raises(BundleError, match="exactly one"):
        parse_sequent("a |- b |- c")


# ---------------------------------------------------------------------------
# commands

def test_validate_ok():
    status, report = run(["validate", str(FIXTURES / "vee.json")])
    assert status == 0
    assert json.loads(report) == {"ok": True}


def test_validate_missing_file():
    status, report = run(["validate", str(FIXTURES / "nope.json")])
    assert status == 2
    assert json.loads(report)["error"]["kind"] == "usage"


def test_a_bundle_path_is_opened_as_typed(monkeypatch):
    # a refusal names the path the user typed; an empty path or one with a
    # trailing slash names no file
    monkeypatch.chdir(FIXTURES)
    for path, error in (("./missing.json", "[Errno 2] No such file or directory"),
                        ("", "[Errno 2] No such file or directory"),
                        ("vee.json/", "[Errno 20] Not a directory")):
        status, report = run(["validate", path])
        message = f"cannot read bundle file: {error}: {path!r}"
        assert (status, json.loads(report)["error"]) == (2, {"kind": "usage", "message": message})


def test_validate_invalid_bundle(tmp_path):
    bad = tmp_path / "bad.json"
    for data in (
        b'{"classifications": {"c": {"incidence": [["i", "t"]]}}}',
        b"\xff\xfe",  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the JSON parser recurses
        b'{"theories": ' + b"1" * 5_000 + b"}",  # past the interpreter's integer digit limit
    ):
        bad.write_bytes(data)
        status, report = run(["validate", str(bad)])
        assert status == 1
        doc = json.loads(report)
        assert doc["ok"] is False and doc["error"]["kind"] == "bundle"


def test_unknown_command_is_usage_error():
    status, report = run(["frobnicate", "x.json"])
    assert status == 2


def test_seed_flag_is_usage_error():
    status, report = run(["--seed", "1", "validate", str(FIXTURES / "vee.json")])
    assert status == 2
    assert json.loads(report)["error"]["kind"] == "usage"


def test_unexpected_exception_is_internal_error(monkeypatch):
    def overflow(theory, q):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("ifk.theories.entails", overflow)
    args = ["entails", "--theory", "tiny", "--sequent", "a |- b", str(FIXTURES / "classics.json")]
    status, report = run(args)
    assert status == 1
    assert json.loads(report) == {
        "ok": False,
        "error": {"kind": "internal", "message": "RecursionError: maximum recursion depth exceeded"},
    }


def test_close_command_matches_library():
    status, report = run(["close", "--theory", "tiny", str(FIXTURES / "classics.json")])
    assert status == 0
    doc = json.loads(report)
    bundle = parse_bundle(fixture_text("classics.json"))
    closed = close(bundle.theories["tiny"])
    expected = [
        {"ant": sorted(a.antecedent), "con": sorted(a.consequent)}
        for a in sorted(closed.axioms, key=sequent_key)
    ]
    assert doc["axioms"] == expected


@pytest.mark.parametrize(
    "args",
    [
        ["close", "--theory", "classical", "--cap", "-3", "classics.json"],
        ["sum", "--system", "vee", "--instance-cap", "-1", "vee.json"],
        ["integrate", "--system", "vee", "--delta-bound", "-1", "vee.json"],
        ["integrate", "--system", "vee", "--cap", "-65536", "vee.json"],
        ["integrate", "--system", "vee", "--delta-bound", "two", "vee.json"],
    ],
)
def test_size_flags_take_non_negative_ints(args):
    status, report = run([*args[:-1], str(FIXTURES / args[-1])])
    assert status == 2
    assert json.loads(report)["error"]["kind"] == "usage"
    # zero is a size like any other: parsed, then charged or used
    zero = [*args[:-2], "0", str(FIXTURES / args[-1])]
    assert json.loads(run(zero)[1]).get("error", {}).get("kind") != "usage"


def test_size_flags_read_a_run_of_digits_of_any_length():
    # int() refuses more than 4,300 digits; a run of ASCII digits is read exactly at
    # any length, up to Linux's 131,072-byte limit on one argument, in well under 1 s
    classics = str(FIXTURES / "classics.json")
    default = run(["close", "--theory", "classical", classics])
    assert default[0] == 0
    assert run(["close", "--theory", "classical", "--cap", "9" * 5_000, classics]) == default
    start = time.perf_counter()
    assert run(["close", "--theory", "classical", "--cap", "9" * 131_071, classics]) == default
    assert time.perf_counter() - start < 1
    for flaw in ("-1", "x", "-" + "9" * 5_000, "9" * 5_000 + "x"):
        status, report = run(["close", "--theory", "classical", "--cap", flaw, classics])
        assert (status, json.loads(report)["error"]["kind"]) == (2, "usage"), flaw[:8]
        assert len(report) < 512, flaw[:8]  # a long flag is echoed by its head and length


def test_close_cap_is_reported():
    status, report = run(
        ["close", "--theory", "classical", "--cap", "5", str(FIXTURES / "classics.json")]
    )
    assert status == 1
    doc = json.loads(report)
    assert doc["error"]["kind"] == "cap-exceeded"
    assert doc["error"]["required"] == 64


def test_entails_command():
    status, report = run(
        [
            "entails",
            "--theory",
            "classical",
            "--sequent",
            "philosopher |- human",
            str(FIXTURES / "classics.json"),
        ]
    )
    assert status == 0
    assert json.loads(report)["entailed"] is True


def test_lattice_json_matches_library():
    status, report = run(
        ["lattice", "--classification", "CLF-A", str(FIXTURES / "classics.json")]
    )
    assert status == 0
    doc = json.loads(report)
    bundle = parse_bundle(fixture_text("classics.json"))
    l = lattice(bundle.classifications["CLF-A"])
    assert doc["concepts"] == [
        {"extent": sorted(k.extent), "intent": sorted(k.intent)} for k in l.concepts
    ]


def test_lattice_dot_output():
    status, report = run(
        [
            "lattice",
            "--classification",
            "CLF-A",
            "--format",
            "dot",
            str(FIXTURES / "classics.json"),
        ]
    )
    assert status == 0
    bundle = parse_bundle(fixture_text("classics.json"))
    assert report == lattice_dot(lattice(bundle.classifications["CLF-A"]))


def test_lattice_reports_never_read_the_order_set(monkeypatch, tmp_path):
    def refuse(l):
        raise AssertionError("the report read ConceptLattice.order")

    path = tmp_path / "context.json"
    path.write_text(json.dumps({"classifications": {"C": _context(random.Random(0x0D), 40, 8, 4)}}))
    monkeypatch.setattr(ConceptLattice, "order", property(refuse))
    for bundle, name in ((FIXTURES / "classics.json", "CLF-A"), (path, "C")):
        for form in ("json", "dot"):
            status, report = run(["lattice", "--classification", name, "--format", form, str(bundle)])
            assert status == 0, report


def _context(rng: random.Random, instances: int, types: int, per_instance: int) -> dict:
    """A context whose every instance has ``per_instance`` random types."""
    names = [f"m{k:02d}" for k in range(types)]
    rows = {f"g{k:03d}": rng.sample(names, per_instance) for k in range(instances)}
    return {"instances": list(rows), "types": names,
            "incidence": [[g, m] for g, row in rows.items() for m in row]}


# names JSON must escape: quotes, backslashes, non-ASCII and past the BMP
_ESCAPED = ['a"b', "c\\d", '\\"', "\u03bb", "\u00e9t\u00e9", "\U0001f600", "plain"]


@pytest.mark.parametrize("shape", [(1, 0, 0), (6, 3, 1), (40, 8, 4), (120, 11, 5), (300, 14, 7),
                                   "escaped"])
def test_lattice_order_list_is_the_sorted_strict_order(tmp_path, shape):
    # the whole report is the standard library's rendering of a doc built from the library's values
    rng = random.Random(f"order:{shape}")
    if shape == "escaped":
        raw = {"instances": _ESCAPED, "types": _ESCAPED[:5],
               "incidence": [[i, t] for i in _ESCAPED for t in _ESCAPED[:5] if rng.random() < 0.5]}
    else:
        raw = _context(rng, *shape)
    path = tmp_path / "context.json"
    path.write_text(json.dumps({"classifications": {"C": raw}}))  # ASCII: JSON escapes
    status, report = run(["lattice", "--classification", "C", str(path)])
    assert status == 0
    l = lattice(parse_bundle(path.read_text()).classifications["C"])
    doc = {
        "classification": "C",
        "concepts": [{"extent": sorted(k.extent), "intent": sorted(k.intent)} for k in l.concepts],
        "order": sorted([i, j] for i, j in l.order if i != j),
    }
    assert report == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _one_name_bundle(path, name: str) -> None:
    c = {"instances": [name], "types": [name], "incidence": [[name, name]]}
    path.write_text(json.dumps({"classifications": {"C": c}}))  # ASCII: JSON escapes


def test_lone_surrogate_identifier_is_a_bundle_error(tmp_path):
    bundle, out = tmp_path / "surrogate.json", tmp_path / "report.dot"
    _one_name_bundle(bundle, "\ud800")
    for where in ([], ["--output", str(out)]):
        done = _ifk(["lattice", "--classification", "C", "--format", "dot", *where, str(bundle)])
        assert (done.returncode, done.stderr) == (1, b"")
        error = json.loads(out.read_bytes() if where else done.stdout)["error"]
        assert error["kind"] == "bundle"
        assert "bad identifier" in error["message"]


def test_output_file_is_utf8_whatever_the_locale(tmp_path):
    bundle, out = tmp_path / "greek.json", tmp_path / "report.dot"
    _one_name_bundle(bundle, "\u03bb")
    argv = ["lattice", "--classification", "C", "--format", "dot", str(bundle)]
    done = _ifk(["--output", str(out), *argv], LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    status, report = run(argv)
    assert status == 0 and "\u03bb" in report
    assert out.read_bytes() == report.encode("utf-8")


def test_sum_command_on_classified_system():
    status, report = run(["sum", "--system", "solo", str(FIXTURES / "classics.json")])
    assert status == 0
    doc = json.loads(report)
    assert doc["core"]["types"] == [
        "sum:only.car",
        "sum:only.human",
        "sum:only.philosopher",
    ]
    assert len(doc["core"]["instances"]) == 2


def test_sum_command_without_classifications_fails_cleanly():
    status, report = run(["sum", "--system", "vee", str(FIXTURES / "vee.json")])
    assert status == 1
    assert json.loads(report)["error"]["kind"] == "invalid"


def test_integrate_command_flagship():
    status, report = run(
        ["integrate", "--system", "vee", "--delta-bound", "2", str(FIXTURES / "vee.json")]
    )
    assert status == 0
    doc = json.loads(report)
    assert {"ant": ["philosopher"], "con": ["mortal_gr"]} in doc["deltas"]["O2"]
    assert doc["verdict"] == "monocosmic"


def test_consistency_command_clash():
    status, report = run(["consistency", "--system", "clash", str(FIXTURES / "clash.json")])
    assert status == 0
    assert json.loads(report) == {
        "pointwise": True,
        "monocosmic": False,
        "verdict": "polycosmic",
    }


def test_reports_are_byte_identical_across_runs():
    args = ["integrate", "--system", "vee", str(FIXTURES / "vee.json")]
    assert run(args) == run(args)


def test_concurrent_first_runs_agree(tmp_path):
    from ifk.cli import _build_parser

    bundle = tmp_path / "tiny.json"
    bundle.write_text('{"theories": {"tiny": {"types": ["h"]}}}')
    args = ["entails", "--theory", "tiny", "--sequent", "h |- h", str(bundle)]
    refused = ["close", str(bundle)]  # a refusal is worded by argparse, a plain line is not
    expected = run(args), run(refused)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(200):
            _build_parser.cache_clear()
            _build_parser()  # the threads share a parser that has parsed nothing yet
            barrier, awake, reports = threading.Barrier(4), [], []

            def first_run():
                barrier.wait()
                awake.append(True)
                while len(awake) < 4:  # the barrier wakes its threads one by one
                    time.sleep(0)
                reports.append((run(args), run(refused)))

            threads = [threading.Thread(target=first_run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert reports == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_unknown_name_in_bundle():
    status, report = run(["close", "--theory", "ghost", str(FIXTURES / "classics.json")])
    assert status == 1
    assert "no theory named" in json.loads(report)["error"]["message"]


def test_main_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["validate", "--output", str(out), str(FIXTURES / "vee.json")]
    )
    assert code == 0
    assert json.loads(out.read_text()) == {"ok": True}
    assert capsys.readouterr().out == ""


def test_main_writes_a_large_report_as_run_returns_it(tmp_path, capsys):
    # the wide closure is 10.5 MB in 121,912 pieces: many writes, each of many pieces
    context = tmp_path / "context300.json"
    context.write_text(json.dumps({"classifications": {"C": _context(random.Random(1), 300, 14, 7)}}))
    for args in (["close", "--theory", "wide", str(FIXTURES / "wide.json")],
                 ["lattice", "--classification", "CLF-A", "--format", "dot", str(FIXTURES / "classics.json")],
                 ["lattice", "--classification", "C", str(context)]):
        status, report = run(args)
        out = tmp_path / "report"
        assert main(["--output", str(out), *args]) == status == 0
        assert out.read_text(encoding="utf-8") == report and capsys.readouterr().out == ""
        assert main(args) == 0 and capsys.readouterr().out == report


def test_main_reports_unwritable_output_file(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["--output", str(out), "validate", str(FIXTURES / "vee.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "usage"
    assert doc["error"]["message"].startswith("cannot write report file: ")
    assert not out.exists()


def test_main_refuses_an_empty_output_path(capsys):
    code = main(["--output", "", "validate", str(FIXTURES / "vee.json")])
    assert code == 2
    message = "cannot write report file: [Errno 2] No such file or directory: ''"
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "usage", "message": message}


def test_main_reports_an_output_file_write_out_of_memory(tmp_path, monkeypatch, capsys):
    class NoRoom(io.StringIO):
        def write(self, text):
            raise MemoryError

    def no_room(path, mode="r", **kwargs):  # reads go through; a written report finds no room
        return NoRoom() if "w" in mode else open(path, mode, **kwargs)

    monkeypatch.setattr("ifk.cli.open", no_room, raising=False)
    code = main(["validate", "--output", str(tmp_path / "report.json"), str(FIXTURES / "vee.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {"kind": "usage", "message": "cannot write report file: MemoryError"}


def test_main_writes_stdout(capsys):
    code = main(["validate", str(FIXTURES / "vee.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}


class _FailingStdout:
    """A stdout on a file descriptor whose every write raises ``error``."""

    def __init__(self, fd: int, error: BaseException):
        self.fd, self.error = fd, error

    def write(self, text):
        raise self.error

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), MemoryError()])
def test_main_ends_a_failed_report_write_in_one_stderr_line(tmp_path, monkeypatch, capsys, error):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(fd, error))
        code = main(["validate", str(FIXTURES / "vee.json")])
        # the descriptor now discards, so a flush at exit fails no second time
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ifk: cannot write the report: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_write_to_a_full_device_ends_in_one_stderr_line():
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "ifk.cli", "validate", str(FIXTURES / "vee.json")],
                              env=env, stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr.decode() == "ifk: cannot write the report: [Errno 28] No space left on device\n"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_a_large_report_is_written_within_a_300_mb_address_space(tmp_path):
    # 200 instances x 20 types, each pair incident with p = 0.5: a 99 MB report, written in
    # pieces, so neither a joined copy nor an encoding of all of it is held; DOT alike
    import resource

    rng = random.Random(1)
    instances, types = [f"i{k}" for k in range(200)], [f"t{k}" for k in range(20)]
    incidence = [[i, t] for i in instances for t in types if rng.random() < 0.5]
    bundle = tmp_path / "context.json"
    bundle.write_text(json.dumps({"classifications": {"C": {
        "instances": instances, "types": types, "incidence": incidence}}}))
    limit = 300 * 2**20

    def bounded():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    def report(*flags) -> bytes:
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")}
        with open(tmp_path / "report", "wb") as stdout:
            done = subprocess.run([sys.executable, "-m", "ifk.cli", "lattice", "--classification", "C",
                                   *flags, str(bundle)], env=env, stdout=stdout, stderr=subprocess.PIPE,
                                  preexec_fn=bounded)
        assert (done.returncode, done.stderr) == (0, b"")
        return (tmp_path / "report").read_bytes()

    dot = report("--format", "dot")
    assert dot.count(b" [label=") == 31_505 and dot.count(b" -> ") == 175_205
    # parsing all of it takes 600 MB: the concepts are parsed, the order pairs counted
    data = report()
    k = data.index(b',\n  "order": [')
    doc = json.loads(data[:k] + b"\n}")
    assert doc["classification"] == "C" and len(doc["concepts"]) == 31_505
    assert data.count(b"\n    [\n      ", k) == 2_449_378 and data.endswith(b"\n    ]\n  ]\n}\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_the_32_node_ring_integrates_within_a_64_mb_address_space(tmp_path):
    # a cyclic shape, so integrate asks its engines per bounded sequent; the child peaks near 20 MB
    import resource

    bundle = ring32(tmp_path)
    limit = 64 * 2**20

    def bounded():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "ifk.cli", "integrate", "--system", "ring",
                           "--delta-bound", "2", str(bundle)], env=env, capture_output=True,
                          preexec_fn=bounded)
    assert (done.returncode, done.stderr) == (0, b"")
    report = json.loads(done.stdout)  # one document, whole
    assert report["system"] == "ring" and len(report["deltas"]) == 64
    assert done.stdout.decode() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_integrate_cli_equals_library(vee):
    status, report = run(
        ["integrate", "--system", "vee", "--delta-bound", "1", str(FIXTURES / "vee.json")]
    )
    doc = json.loads(report)
    result = integrate(vee, delta_bound=1)
    assert doc["deltas"] == {
        n: [{"ant": sorted(q.antecedent), "con": sorted(q.consequent)} for q in qs]
        for n, qs in result.deltas.items()
    }
    assert doc["sum"]["types"] == sorted(result.sum_types)


def test_sum_checks_each_edge_once(tmp_path, monkeypatch):
    import ifk.bundle
    import ifk.classification
    import ifk.diagrams
    import ifk.integration

    calls = []
    check = ifk.classification.check_infomorphism

    def counted(f):
        calls.append(f.name)
        return check(f)

    # every module that imports the checker by name, so no call escapes
    for module in (ifk.bundle, ifk.classification, ifk.diagrams, ifk.integration):
        if hasattr(module, "check_infomorphism"):
            monkeypatch.setattr(module, "check_infomorphism", counted)
    leaves = ["O1", "O2", "O3"]
    doc = {
        "classifications": {
            "M": {"instances": ["m"], "types": ["x"], "incidence": [["m", "x"]]},
            **{n: {"instances": ["o"], "types": ["y"], "incidence": [["o", "y"]]} for n in leaves},
        },
        "theories": {"TM": {"types": ["x"], "axioms": []}, "TO": {"types": ["y"], "axioms": []}},
        "systems": {
            "star": {
                "nodes": {
                    "M": {"theory": "TM", "classification": "M"},
                    **{n: {"theory": "TO", "classification": n} for n in leaves},
                },
                "edges": [
                    {"id": f"e{n}", "src": "M", "dst": n, "type_map": {"x": "y"},
                     "instance_map": {"o": "m"}}
                    for n in leaves
                ],
            }
        },
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc))
    status, report = run(["sum", "--system", "star", str(path)])
    assert status == 0, report
    assert sorted(calls) == ["eO1", "eO2", "eO3"]


# Frozen from the parser that built every command's arguments up front:
# building only the named command's arguments must not change a byte.
HELP = """\
usage: ifk [-h] [--output FILE] COMMAND ...

information-flow toolkit

positional arguments:
  COMMAND
    validate     validate a bundle
    close        materialize the closure of a theory
    entails      decide entailment of a sequent
    lattice      concept lattice of a classification
    sum          sum channel of a fully classified system
    integrate    system closure with bounded deltas
    consistency  cosmological verdict for a system

options:
  -h, --help     show this help message and exit
  --output FILE  write the report here instead of stdout
"""

CLOSE_HELP = """\
usage: ifk close [-h] [--output FILE] --theory THEORY [--cap CAP] BUNDLE

positional arguments:
  BUNDLE           bundle JSON file

options:
  -h, --help       show this help message and exit
  --output FILE
  --theory THEORY
  --cap CAP
"""


TINY_CLOSURE = """\
{
  "axioms": [
    {
      "ant": [
        "h"
      ],
      "con": [
        "h"
      ]
    }
  ],
  "theory": "tiny",
  "types": [
    "h"
  ]
}
"""


def _usage(message: str) -> str:
    return json.dumps({"error": {"kind": "usage", "message": message}, "ok": False},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, status, out", [
    (["--help"], 0, HELP),
    (["close", "--help"], 0, CLOSE_HELP),
    ([], 2, _usage("a command is required")),
    (["frobnicate", "x.json"], 2, _usage(
        "argument COMMAND: invalid choice: 'frobnicate' (choose from 'validate', 'close',"
        " 'entails', 'lattice', 'sum', 'integrate', 'consistency')")),
    (["close", str(FIXTURES / "classics.json")], 2,
     _usage("the following arguments are required: --theory")),
    (["close", "--theory", "tiny", str(FIXTURES / "classics.json")], 0, TINY_CLOSURE),
    # spellings a plain command line does not use are read by argparse as before
    (["close", "--theo", "tiny", str(FIXTURES / "classics.json")], 0, TINY_CLOSURE),
    (["close", "--theory=tiny", str(FIXTURES / "classics.json")], 0, TINY_CLOSURE),
    (["close", "--theory", "ghost", "--theory", "tiny", str(FIXTURES / "classics.json")], 0,
     TINY_CLOSURE),
    (["close", "--theory", "tiny", "--", str(FIXTURES / "classics.json")], 0, TINY_CLOSURE),
    (["close", "--cap", "-1", "--theory", "tiny", str(FIXTURES / "classics.json")], 2,
     _usage("argument --cap: expected a non-negative integer, got '-1'")),
    (["integrate", "--system", "vee", "--delta-bound", "two", str(FIXTURES / "vee.json")], 2,
     _usage("argument --delta-bound: expected a non-negative integer, got 'two'")),
])
def test_usage_and_help_output_is_frozen(monkeypatch, capsys, argv, status, out):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(argv)
    except SystemExit as exc:  # --help prints and exits, as argparse does
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (status, out, "")


# each command's flags, the required one first
FLAGS = {"validate": [], "close": ["--theory", "--cap"], "entails": ["--theory", "--sequent"],
         "lattice": ["--classification", "--format"], "sum": ["--system", "--instance-cap"],
         "integrate": ["--system", "--delta-bound", "--cap"], "consistency": ["--system"]}
COMMANDS = list(FLAGS)
ANY_FLAG = ["--output", "--theory", "--cap", "--sequent", "--classification", "--format",
            "--system", "--instance-cap", "--delta-bound", "--theo", "--cap=5", "--", "-h", "-"]
VALUES = ["x", "b.json", "0", "5", "json", "dot", "-1", "two", " 5", "", "a|-b"]
GOOD = {"--cap": ["0", "5", " 5"], "--instance-cap": ["0", "5", " 5"],
        "--delta-bound": ["0", "5", " 5"], "--format": ["json", "dot"]}
FLAWS = ["abbreviated", "repeated", "odd value", "left out", "stray token", "top --output"]


@st.composite
def command_lines(draw):
    """A plain command line, the command's required flag and some others in
    any order, with up to two flaws: a flag abbreviated, repeated, given an odd
    value or left out, a stray token, or `--output` before the command."""
    command = draw(st.sampled_from(COMMANDS))
    flags = [flag for i, flag in enumerate(["--output", *FLAGS[command]])
             if i == 1 or draw(st.booleans())]
    pairs = [[flag, draw(st.sampled_from(GOOD.get(flag, ["x", "a|-b", ""])))] for flag in flags]
    head = []
    for flaw in draw(st.lists(st.sampled_from(FLAWS), max_size=2, unique=True)):
        at = draw(st.integers(0, len(pairs)))  # a pair, or the end for an insertion
        if flaw == "stray token":
            pairs.insert(at, [draw(st.sampled_from(COMMANDS + ANY_FLAG + VALUES))])
        elif flaw == "top --output":
            head = ["--output", "x"]
        elif at == len(pairs):
            continue
        elif flaw == "abbreviated":
            pairs[at][0] = pairs[at][0][:5]
        elif flaw == "repeated":
            pairs.append([pairs[at][0], draw(st.sampled_from(VALUES))])
        elif flaw == "odd value":
            pairs[at][1:] = [draw(st.sampled_from(VALUES + ["-", "--"]))]
        else:
            del pairs[at]
    tokens = [token for pair in draw(st.permutations(pairs)) for token in pair]
    tokens.insert(draw(st.integers(0, len(tokens))), "b.json")
    return [*head, command, *tokens]


@settings(max_examples=1000)
@given(command_lines() | command_lines()
       | st.lists(st.sampled_from(COMMANDS + ANY_FLAG + VALUES), max_size=8))
def test_a_plain_command_line_reads_as_argparse_reads_it(argv):
    from ifk.cli import _build_parser, _read

    args = _read(argv)
    assert args is None or vars(args) == vars(_build_parser().parse_args(argv))


def test_every_benchmark_and_ci_command_line_is_plain(tmp_path, monkeypatch):
    from ifk.cli import _build_parser, _read
    from test_package import LOADS

    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    import workloads

    argvs = []
    for name, kind in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        workload = kind(tmp_path / name, 1)
        workload.setup()
        argvs += [op.argv for op in workload.cli_ops]
    # the load table's command lines, its one refusal aside
    argvs += [[*line.split(), bundle] for line, bundle, status, *_ in LOADS if status == 0]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    for argv in argvs:
        args = _read(argv)
        assert args is not None, argv
        assert vars(args) == vars(_build_parser().parse_args(argv))
