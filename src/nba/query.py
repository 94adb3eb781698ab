"""Relational queries answered by controlled activation flow.

A query cues one concept population, asserts the relation's direction-specific
control label, and lets activation flow until it settles (or a step budget
runs out). Concepts at or above the readout threshold form the answer, cue
excluded. Queries are non-destructive: activation state and asserted labels
are rolled back after readout, so queries compose.

Mini-language:  "<word> <relation>?"    forward   (cat do?)
                "? <relation> <word>"   reverse   (? do run)
optionally prefixed with "sem:" for semantic mode (default is episodic).
"""

from __future__ import annotations

from . import labels
from .blackboard import Blackboard
from .dynamics import CONCEPT
from .errors import QuerySyntaxError, UnknownRelation
from .value import Value

FORWARD = "forward"
REVERSE = "reverse"
EPISODIC = "episodic"
SEMANTIC = "semantic"

_SETTLE_TOL = 1e-9


class Query(Value):
    __slots__ = ("cue", "relation", "direction", "mode")

    def __init__(self, cue: str, relation: str, direction: str = FORWARD, mode: str = EPISODIC):
        self.cue = cue
        self.relation = relation
        self.direction = direction
        self.mode = mode


def _strongest_first(pair: tuple) -> tuple:
    """The sort key of (word, activation) pairs: strongest first, ties lexicographic."""
    return -pair[1], pair[0]


class AnswerSet(Value):
    """Words read out at or above threshold, strongest first, ties lexicographic."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries  # ((word, activation), ...)

    @classmethod
    def from_pairs(cls, pairs) -> "AnswerSet":
        return cls(tuple(sorted(map(tuple, pairs), key=_strongest_first)))  # entries hash as tuples

    @classmethod
    def from_words(cls, words) -> "AnswerSet":
        return cls.from_pairs((w, 1.0) for w in words)

    @property
    def words(self) -> tuple:
        return tuple(w for w, _ in self.entries)

    def word_set(self) -> frozenset:
        return frozenset(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_set()

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def parse_query(text: str) -> Query:
    t = text.strip()
    mode = EPISODIC
    if t.startswith("sem:"):
        mode = SEMANTIC
        t = t[4:].strip()
    parts = t.split()
    if len(parts) == 2 and parts[0] != "?" and parts[1].endswith("?"):
        relation = parts[1][:-1]
        if not relation:
            raise QuerySyntaxError(f"missing relation in {text!r}")
        return Query(cue=parts[0].casefold(), relation=relation, direction=FORWARD, mode=mode)
    if len(parts) == 3 and parts[0] == "?":
        if not parts[1]:
            raise QuerySyntaxError(f"missing relation in {text!r}")
        return Query(cue=parts[2].casefold(), relation=parts[1], direction=REVERSE, mode=mode)
    raise QuerySyntaxError(
        f"cannot parse {text!r}; expected '<word> <relation>?' or '? <relation> <word>'"
    )


def run_query(blackboard: Blackboard, query: Query) -> AnswerSet:
    """Answer a query by activation flow over the blackboard's network.

    The probe holds the cue active, asserts the relation's directional label,
    and runs for exactly the relation's connection-path depth (cue to hub,
    two steps per matrix cell, hub to answer; one step for a direct semantic
    edge). Propagation is exact in path-length steps, so every fact about the
    cue has arrived by then, while flow that would continue through an answer
    word's other bindings into a second same-relation structure has not.

    The cue population is externally driven for the whole probe, so it is
    never part of the answer: a fact relating a word to itself is encodable
    but cannot be read out by cueing that same word.
    """
    lex = blackboard.lexicon
    cue = lex.concept(query.cue)
    if query.mode == SEMANTIC:
        if query.relation not in lex.semantic_labels:
            raise UnknownRelation(f"no semantic relation {query.relation!r}")
        label = (labels.semantic_forward if query.direction == FORWARD else labels.semantic_reverse)(query.relation)
        depth = 1
    elif query.mode == EPISODIC:
        relation = blackboard.config.query_aliases.get(query.relation, query.relation)
        grids = blackboard.grid_counts.get(relation)
        if grids is None:
            raise UnknownRelation(f"no blackboard relation {query.relation!r}")
        label = (labels.matrix_forward if query.direction == FORWARD else labels.matrix_reverse)(relation)
        # clause facts ride two chained grids (via a C hub), others one cell
        depth = 2 + 2 * grids
    else:
        raise QuerySyntaxError(f"query mode {query.mode!r} is not {EPISODIC!r} or {SEMANTIC!r}")
    if query.direction != FORWARD and query.direction != REVERSE:
        raise QuerySyntaxError(f"query direction {query.direction!r} is not {FORWARD!r} or {REVERSE!r}")

    net = blackboard.network
    inject, step = net.inject, net.step
    saved = net.save_state()
    try:
        net.set_control(label, True)
        for n in range(min(depth, blackboard.config.settle_budget)):
            inject(cue, 1.0)
            step()
            # from the second step on, re-injecting the held cue changes nothing,
            # so the step's largest change is that between successive states
            if n and net.last_change <= _SETTLE_TOL:
                break
        threshold = blackboard.config.readout_threshold
        pairs = []
        # every active concept flows: only working memory settles
        for pop in net.flowing_populations():
            if pop.kind is CONCEPT and pop.activation >= threshold and pop.pid != cue:
                word = lex.word_of(pop.pid)
                if word is not None:
                    pairs.append((word, pop.activation))
        return AnswerSet.from_pairs(pairs)
    finally:
        net.restore_state(saved)
