"""Exact symbolic triple store.

The reference oracle for every blackboard query: exact set semantics, each
query answered by one lookup in an index of every recorded triple by mode,
direction, cue and relation. Kept free of any dynamics so the two answer
routes stay independent.
"""

from __future__ import annotations

from .query import EPISODIC, FORWARD, REVERSE, AnswerSet, Query


class OracleStore:
    def __init__(self):
        # (mode, direction, cue, relation) -> the words such a query answers
        self._index: dict[tuple[str, str, str, str], set[str]] = {}

    def record(self, subject: str, relation: str, obj: str, mode: str = EPISODIC) -> None:
        s, o = subject.casefold(), obj.casefold()
        self._index.setdefault((mode, FORWARD, s, relation), set()).add(o)
        self._index.setdefault((mode, REVERSE, o, relation), set()).add(s)

    def query(self, query: Query) -> AnswerSet:
        direction = FORWARD if query.direction == FORWARD else REVERSE
        matches = self._index.get((query.mode, direction, query.cue.casefold(), query.relation), ())
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
