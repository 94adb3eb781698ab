"""Exact symbolic triple store.

The reference oracle for every blackboard query: exact set semantics, each
query answered by one lookup in an index of every recorded triple by mode,
direction, cue and relation. Kept free of any dynamics so the two answer
routes stay independent.
"""

from __future__ import annotations

from .errors import QuerySyntaxError
from .query import EPISODIC, FORWARD, REVERSE, SEMANTIC, AnswerSet, Query


def _check_mode(mode: str) -> None:
    if mode != EPISODIC and mode != SEMANTIC:
        raise QuerySyntaxError(f"query mode {mode!r} is not {EPISODIC!r} or {SEMANTIC!r}")


class OracleStore:
    def __init__(self):
        # (mode, direction, cue, relation) -> the words such a query answers
        self._index: dict[tuple[str, str, str, str], set[str]] = {}

    def record(self, subject: str, relation: str, obj: str, mode: str = EPISODIC) -> None:
        """Record one triple; a mode no query can ask is refused as `query`
        refuses it."""
        _check_mode(mode)
        s, o = subject.casefold(), obj.casefold()
        self._index.setdefault((mode, FORWARD, s, relation), set()).add(o)
        self._index.setdefault((mode, REVERSE, o, relation), set()).add(s)

    def query(self, query: Query) -> AnswerSet:
        """The recorded answers, sorted; a query of no known mode or
        direction is refused as `run_query` refuses it."""
        _check_mode(query.mode)
        if query.direction != FORWARD and query.direction != REVERSE:
            raise QuerySyntaxError(f"query direction {query.direction!r} is not {FORWARD!r} or {REVERSE!r}")
        matches = self._index.get((query.mode, query.direction, query.cue.casefold(), query.relation), ())
        return AnswerSet.from_words(sorted(matches))

    def triples(self):
        """Every recorded (mode, subject, relation, object), sorted."""
        return sorted(
            (mode, s, r, o) for (mode, direction, s, r), objs in self._index.items()
            if direction == FORWARD for o in objs
        )

    def clear(self) -> None:
        self._index.clear()

    def __len__(self) -> int:
        return sum(len(objs) for (_, direction, _, _), objs in self._index.items() if direction == FORWARD)
