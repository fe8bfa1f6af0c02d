"""Command-line front end: one subcommand per construction, deterministic
JSON (or DOT) reports written in pieces, exit 0 on success, 1 on
defects in the input or an internal failure, 2 on usage errors.

Each command imports the modules only it runs: `entails` on theories loads
no classification, closure, colimit, flow or lattice code, `lattice` on
classifications no theory code, and a system command without classifications
the language colimit (`ifk.colimit`) but not the sum (`ifk.diagrams`); of
those, only `integrate` loads `ifk.integration` and the closure kernel; none
loads flat theories (`ifk.logics`) or the bundle serializer. A plain command
line is read off the command table; argparse (its parser built once, then only
read) loads only for help, a refusal or an unusual spelling. Files are opened
by the path as typed."""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from .bundle import (
    Bundle,
    _json_pieces,
    classification_to_obj,
    maps_to_obj,
    parse_bundle,
    parse_sequent,
    sequent_to_obj,
    theory_to_obj,
)
from .errors import DEFAULT_DELTA_BOUND, DEFAULT_INSTANCE_CAP, DEFAULT_SEQUENT_CAP
from .errors import BundleError, CapExceeded, IfkError
from .masks import _at


class _UsageError(Exception):
    pass


def _digits(text: str) -> int:
    """A run of ASCII digits, read exactly at any length: by halves, each leaf under the
    least digit limit ``int`` can be set to (640), each join one power of ten."""
    if len(text) <= 600:
        return int(text)
    half = len(text) >> 1
    return _digits(text[:-half]) * 10**half + _digits(text[-half:])


def _size(text: str) -> int:
    """A cap or bound flag: a non-negative int, as ``int`` reads it, or a run of
    ASCII digits longer than the interpreter's digit limit lets ``int`` read."""
    try:
        value = int(text)
    except ValueError:
        value = _digits(text) if text.isascii() and text.isdigit() else -1
    if value < 0:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache  # one parser serves every in-process run
def _build_parser():
    """The whole parser, every command with its arguments, built once; a
    built parser is only read, so runs may share it across threads."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # keep argparse from exiting the process
            raise _UsageError(message)

    parser = _Parser(prog="ifk", description="information-flow toolkit")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, summary, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        # the global flag is accepted on either side of the command name;
        # SUPPRESS keeps the subparser from clobbering a top-level value
        command.add_argument("--output", metavar="FILE", default=argparse.SUPPRESS)
        command.add_argument("bundle", metavar="BUNDLE", help="bundle JSON file")
        for flag, kwargs in flags.items():
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line: an optional leading `--output
    FILE`, a command, one BUNDLE and each flag at most once, by its full name,
    with a value not starting with `-`; None for all else, left to argparse."""
    argv = list(argv)
    lead = 2 if argv[:1] == ["--output"] else 0
    if len(argv) <= lead or argv[lead] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[lead]]
    given, tokens = {}, iter(argv[:lead] + argv[lead + 1:])
    for token in tokens:
        flag, value = ("BUNDLE", token) if token[:1] != "-" else (token, next(tokens, "-"))
        if flag in given or flag not in (*flags, "--output", "BUNDLE") or value[:1] == "-":
            return None
        given[flag] = value
    args = SimpleNamespace(output=given.get("--output"), command=argv[lead],
                           bundle=given.get("BUNDLE"), handler=handler)
    for flag, kwargs in flags.items():
        try:
            value = kwargs.get("type", str)(given[flag]) if flag in given else kwargs["default"]
        except Exception:  # a required flag left out, or whatever a type refuses: argparse's
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args if "BUNDLE" in given else None


def _load(path: str) -> Bundle:
    try:
        with open(path, encoding="utf-8") as file:  # the path as typed: no normalizing
            text = file.read()
    except OSError as exc:
        raise _UsageError(f"cannot read bundle file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BundleError(f"bundle: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_bundle(text)


def _pick(table: dict, name: str, kind: str):
    if name not in table:
        raise IfkError(f"no {kind} named {name!r} in the bundle")
    return table[name]


def _cmd_validate(args, bundle: Bundle) -> list[str]:
    return _json_pieces({"ok": True})


def _cmd_close(args, bundle: Bundle) -> list[str]:
    from .closure import close
    theory = _pick(bundle.theories, args.theory, "theory")
    return _json_pieces({"theory": args.theory, **theory_to_obj(close(theory, args.cap))})


def _cmd_entails(args, bundle: Bundle) -> list[str]:
    from .theories import entails
    theory = _pick(bundle.theories, args.theory, "theory")
    q = parse_sequent(args.sequent)
    return _json_pieces(
        {"theory": args.theory, "sequent": sequent_to_obj(q), "entailed": entails(theory, q)}
    )


def _cmd_lattice(args, bundle: Bundle) -> list[str]:
    from .fca import lattice, lattice_dot
    l = lattice(_pick(bundle.classifications, args.classification, "classification"))
    if args.format == "dot":
        return [lattice_dot(l)]
    concepts = [{"extent": list(_at(l._instances, e)), "intent": list(_at(l._types, i))}
                for e, i in zip(l._extents, l._intents)]
    # a lattice renders as its strict order
    return _json_pieces({"classification": args.classification, "concepts": concepts, "order": l})


def _cmd_sum(args, bundle: Bundle) -> list[str]:
    from .diagrams import sum_classification
    system = _pick(bundle.systems, args.system, "system")
    channel = sum_classification(system.cls_diagram(), args.instance_cap)
    return _json_pieces({"system": args.system, "core": classification_to_obj(channel.core),
                         "legs": {n: maps_to_obj(leg) for n, leg in channel.legs.items()}})


def _cmd_integrate(args, bundle: Bundle) -> list[str]:
    from .integration import integrate
    from .theories import SequentTheory
    system = _pick(bundle.systems, args.system, "system")
    result = integrate(system, delta_bound=args.delta_bound, cap=args.cap)
    return _json_pieces(
        {
            "system": args.system,
            "delta_bound": args.delta_bound,
            "sum": {
                "types": sorted(result.sum_types),
                "cocone": result.cocone,
                "members": {
                    cls: [f"{n}.{t}" for n, t in sorted(group)]
                    for cls, group in result.sum_members.items()
                },
            },
            "sum_theory_axioms": result.sum_theory,
            "deltas": {
                n: SequentTheory(system.node_theory[n].types, qs) for n, qs in result.deltas.items()
            },
            "verdict": result.verdict,
        }
    )


def _cmd_consistency(args, bundle: Bundle) -> list[str]:
    from .systems import VERDICT_MONOCOSMIC, VERDICT_POINTWISE_INCONSISTENT, system_verdict
    system = _pick(bundle.systems, args.system, "system")
    verdict = system_verdict(system)
    return _json_pieces({"pointwise": verdict != VERDICT_POINTWISE_INCONSISTENT,
                         "monocosmic": verdict == VERDICT_MONOCOSMIC, "verdict": verdict})


_REQUIRED = {"required": True}
_CAP = {"type": _size, "default": DEFAULT_SEQUENT_CAP}
# name -> (handler, summary, flags), read by both _read and _build_parser
_COMMANDS = {
    "validate": (_cmd_validate, "validate a bundle", {}),
    "close": (_cmd_close, "materialize the closure of a theory",
              {"--theory": _REQUIRED, "--cap": _CAP}),
    "entails": (_cmd_entails, "decide entailment of a sequent",
                {"--theory": _REQUIRED,
                 "--sequent": {**_REQUIRED, "help": "literal like 'a, b |- c'"}}),
    "lattice": (_cmd_lattice, "concept lattice of a classification",
                {"--classification": _REQUIRED,
                 "--format": {"choices": ("json", "dot"), "default": "json"}}),
    "sum": (_cmd_sum, "sum channel of a fully classified system",
            {"--system": _REQUIRED,
             "--instance-cap": {"type": _size, "default": DEFAULT_INSTANCE_CAP}}),
    "integrate": (_cmd_integrate, "system closure with bounded deltas",
                  {"--system": _REQUIRED,
                   "--delta-bound": {"type": _size, "default": DEFAULT_DELTA_BOUND},
                   "--cap": _CAP}),
    "consistency": (_cmd_consistency, "cosmological verdict for a system",
                    {"--system": _REQUIRED}),
}


def _failure(kind: str, **details) -> list[str]:
    return _json_pieces({"ok": False, "error": {"kind": kind, **details}})


def _dispatch(argv: Sequence[str]) -> tuple[int, list[str], str | None]:
    args = _read(argv)
    if args is None:  # help, a refusal or an unusual spelling
        try:
            args = _build_parser().parse_args(list(argv))
            if args.command is None:
                raise _UsageError("a command is required")
        except _UsageError as exc:
            return 2, _failure("usage", message=str(exc)), None
    try:
        return 0, args.handler(args, _load(args.bundle)), args.output
    except _UsageError as exc:
        return 2, _failure("usage", message=str(exc)), args.output
    except CapExceeded as exc:
        report = _failure("cap-exceeded", phase=exc.phase, required=exc.required, cap=exc.cap)
        return 1, report, args.output
    except BundleError as exc:
        return 1, _failure("bundle", message=str(exc)), args.output
    except IfkError as exc:
        return 1, _failure("invalid", message=str(exc)), args.output
    except Exception as exc:  # any input ends in a JSON report, never a traceback
        return 1, _failure("internal", message=f"{type(exc).__name__}: {exc}"), args.output


def run(argv: Sequence[str]) -> tuple[int, str]:
    """Dispatch a command line; returns (exit status, report document)."""
    status, report, _ = _dispatch(argv)
    return status, "".join(report)


def _write(file, report: list[str]) -> None:
    """The report's pieces in writes of about 64K characters: a write a piece is a system call
    each on an unbuffered stream (``python -u``), and one write of all a second copy in memory."""
    chunk, size = [], 0
    for piece in report:
        chunk.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            file.write("".join(chunk))
            chunk, size = [], 0
    file.write("".join(chunk))


def main(argv: Sequence[str] | None = None) -> int:
    status, report, output = _dispatch(sys.argv[1:] if argv is None else argv)
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as file:  # in place: a symlink writes through
                _write(file, report)
            return status
        except (OSError, MemoryError) as exc:
            message = f"cannot write report file: {str(exc) or type(exc).__name__}"
            status, report = 2, _failure("usage", message=message)
    try:
        _write(sys.stdout, report)
        sys.stdout.flush()
    except (OSError, MemoryError) as exc:  # a full disk, a closed pipe, no room for the bytes
        # stdout now discards, so the interpreter's own flush at exit fails no second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ifk: cannot write the report: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
