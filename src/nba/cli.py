"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 domain error (one-line diagnostic on
stderr). Subcommands: lexicon check, encode, query, repl, trace, demo,
state show.

`nba query --state FILE TEXT`, or `nba query TEXT --state FILE`, is read
here and loads only the query path: no argument parser and no other
command. Any other argv goes to the parser in `nba.commands`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .blackboard import Blackboard
from .errors import NbaError
from .query import parse_query, run_query


def query(state: Path, text: str) -> int:
    """`nba query`: print each answer word on a line of its own."""
    bb = Blackboard.from_snapshot(json.loads(state.read_text(encoding="utf-8")))
    for word in run_query(bb, parse_query(text)).words:
        print(word)
    return 0


def plain_query(argv: list[str]) -> tuple[Path, str] | None:
    """The state file and the query text of `query --state FILE TEXT` or
    `query TEXT --state FILE` when both values are non-empty and neither
    starts with "-": the argvs the parser reads to that state and text,
    with no option, help or error. None for any other argv."""
    if len(argv) != 4 or argv[0] != "query":
        return None
    if argv[1] == "--state":
        state, text = argv[2], argv[3]
    elif argv[2] == "--state":
        text, state = argv[1], argv[3]
    else:
        return None
    if not state or not text or state[0] == "-" or text[0] == "-":
        return None
    return Path(state), text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    plain = plain_query(argv)
    try:
        if plain is not None:
            return query(*plain)
        from .commands import run

        return run(argv, query)
    except (NbaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
