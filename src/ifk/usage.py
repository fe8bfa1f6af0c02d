"""The command line as argparse reads it: only help, refusals and unusual spellings load this.
It builds on the command table ``ifk.cli`` hands it; ``ifk.cli`` may be ``__main__``, not imported."""

from __future__ import annotations

import argparse

from .errors import _UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting the process
        raise _UsageError(message)


def _build_parser(commands: Mapping[str, tuple]) -> _Parser:
    parser = _Parser(prog="ifk", description="information-flow toolkit")
    parser.add_argument("--output", metavar="FILE", default=None, help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, summary, flags) in commands.items():  # name -> handler, summary, flags
        command = sub.add_parser(name, help=summary)
        # --output on either side of the command; SUPPRESS keeps a top-level value unclobbered
        command.add_argument("--output", metavar="FILE", default=argparse.SUPPRESS)
        command.add_argument("bundle", metavar="BUNDLE", help="bundle JSON file")
        for flag, kwargs in flags.items():
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)
    return parser
