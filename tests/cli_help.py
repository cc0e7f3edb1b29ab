"""Every ``repro`` (sub)command's ``--help``, in one deterministic text.

The help of each command is part of the CLI surface: a flag added,
removed or reworded shows here.  ``tests/data/cli_help.txt`` is this
script's output at ``COLUMNS=100`` under the Python CI pins (argparse's
layout moves between minor versions, which is why this is a CI step and
not a tier-1 test); CI's ``tests`` job diffs the two, so a change to the
surface arrives together with the regenerated file, in the same diff::

    COLUMNS=100 PYTHONPATH=src python tests/cli_help.py > tests/data/cli_help.txt
"""

from __future__ import annotations

import argparse
from typing import Iterator, Tuple

from repro.cli import build_parser


def walk(
    parser: argparse.ArgumentParser,
) -> Iterator[Tuple[str, argparse.ArgumentParser]]:
    """``(prog, parser)`` for ``parser`` and every subcommand below it."""
    yield parser.prog, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from walk(child)


if __name__ == "__main__":
    for prog, parser in walk(build_parser()):
        print(f"==== {prog} ====")
        print(parser.format_help())
