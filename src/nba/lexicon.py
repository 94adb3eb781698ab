"""In-situ word store: one concept population per word, never copied.

The lexicon owns the network's concept populations and the long-term
control-gated relations between them (semantic memory). Word types come
from the lexicon file; classification is a lookup. A word is a row of three
parallel columns, its word, type and concept id; the concepts of words added
together are reserved as one block, so a concept is built only when
something first touches it. Its relations are reserved too, indexed by the
concept they leave, and built with it.
"""

from __future__ import annotations

import bisect
from enum import Enum

from . import labels
from .dynamics import Network, PopulationKind
from .errors import DuplicateWord, InvalidLexiconChange, InvalidState, ParseError, UnknownWord, expect


class WordType(Enum):
    NOUN = "N"
    VERB = "V"
    ADJECTIVE = "ADJ"
    PREPOSITION = "P"
    DETERMINER = "DET"
    OTHER = "X"

    # by identity, in C: Enum's own __hash__ runs Python code on each lookup
    __hash__ = object.__hash__


_TAGS = {t.value: t for t in WordType}

# word types that bind hubs, and the pool they bind into
POOL_FOR_TYPE = {
    WordType.NOUN: "N",
    WordType.ADJECTIVE: "N",
    WordType.VERB: "V",
}


class LexicalEntry:
    """One word's row, made on lookup."""

    __slots__ = ("word", "word_type", "concept")

    def __init__(self, word: str, word_type: WordType, concept: int):
        self.word = word
        self.word_type = word_type
        self.concept = concept  # population id; stable for the life of the lexicon


class Lexicon:
    """Single-writer during construction. A board wires the lexicon's
    network and freezes it, so a lexicon serves one board: a second
    `Blackboard` on it is refused."""

    def __init__(self):
        self.network = Network()
        # one row per word, in insertion order; concept ids ascend
        self._words: list[str] = []
        self._types: list[WordType] = []
        self._concepts: list[int] = []
        self._index: dict[str, int] = {}
        # (subject, label, object) -> None, in insertion order
        self._triples: dict[tuple[str, str, str], None] = {}
        self.semantic_labels: set[str] = set()

    # -------------------------------------------------------------- entries

    def add_word(self, word: str, word_type: WordType) -> LexicalEntry:
        """Add one word; a word that is not a nonempty string or a type that
        is not a `WordType` raises InvalidLexiconChange naming the word."""
        if type(word) is not str or not word:
            raise InvalidLexiconChange(f"add_word: word must be a nonempty string, got {word!r}")
        if type(word_type) is not WordType:
            raise InvalidLexiconChange(f"add_word({word!r}): type must be a WordType, got {word_type!r}")
        key = word.casefold()
        if key in self._index:
            raise DuplicateWord(key)
        self._add_entries([key], [word_type])
        return self.entry(key)

    def _add_entries(self, words: list[str], word_types: list[WordType]) -> None:
        """Reserve concepts for new, casefolded words in one structural
        extension. Every word is indexed; callers check them first, or check
        the index's size after."""
        with self.network.structural_extension():
            pids = self.network.reserve_populations(PopulationKind.CONCEPT, len(words))
        self._index.update(zip(words, range(len(self._words), len(self._words) + len(words))))
        self._words += words
        self._types += word_types
        self._concepts += pids

    def _row(self, word: str) -> int:
        try:
            return self._index[word.casefold()]
        except KeyError:
            raise UnknownWord(word) from None

    def entry(self, word: str) -> LexicalEntry:
        i = self._row(word)
        return LexicalEntry(self._words[i], self._types[i], self._concepts[i])

    def classify(self, word: str) -> WordType:
        return self.lookup(word)[1]

    def lookup(self, word: str) -> tuple[int, WordType]:
        """A word's row, its place in the columns, and its type."""
        try:  # `_row` inlined: every bind looks its word up here
            row = self._index[word.casefold()]
        except KeyError:
            raise UnknownWord(word) from None
        return row, self._types[row]

    def concept(self, word: str) -> int:
        return self._concepts[self._row(word)]

    def word_of(self, pid: int) -> str | None:
        i = bisect.bisect_left(self._concepts, pid)
        return self._words[i] if i < len(self._concepts) and self._concepts[i] == pid else None

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._index

    def __len__(self) -> int:
        return len(self._words)

    def columns(self, start: int, stop: int) -> tuple[list[WordType], list[int]]:
        """The types and the concept ids of rows `start` to `stop`, as two
        lists made in C."""
        return self._types[start:stop], self._concepts[start:stop]

    def entries(self) -> list[LexicalEntry]:
        return list(map(LexicalEntry, self._words, self._types, self._concepts))

    def words(self):
        return list(self._words)

    def words_of_pool(self, pool: str) -> list[str]:
        return [w for w, t in zip(self._words, self._types) if POOL_FOR_TYPE.get(t) == pool]

    # ---------------------------------------------------- semantic relations

    @property
    def semantic_triples(self) -> list[tuple[str, str, str]]:
        """Installed (subject, label, object) triples, in insertion order."""
        return list(self._triples)

    def add_semantic_relation(self, subject: str, relation_label: str, obj: str) -> None:
        """Install a directed control-gated edge subject -> object plus its mirror."""
        s, o = self._words[self._row(subject)], self._words[self._row(obj)]
        if type(relation_label) is not str or not relation_label:
            raise InvalidLexiconChange(
                f"add_semantic_relation({subject!r}, ..., {obj!r}): relation label must be a nonempty string,"
                f" got {relation_label!r}"
            )
        self._add_relations([(s, relation_label, o)])

    def _add_relations(self, triples: list[tuple[str, str, str]]) -> None:
        """Reserve the two edges of each checked (subject, label, object)
        triple of casefolded words not yet installed, in one structural
        extension; a concept's edges are built with the concept."""
        index, concepts = self._index, self._concepts
        new = dict.fromkeys(t for t in triples if t not in self._triples)
        edges = []
        for subject, label, obj in new:
            s, o = concepts[index[subject]], concepts[index[obj]]
            edges += (s, o, labels.semantic_forward(label)), (o, s, labels.semantic_reverse(label))
        with self.network.structural_extension():
            self.network.reserve_control_connections(edges)
        self._triples.update(new)
        self.semantic_labels.update(label for _, label, _ in new)

    # ------------------------------------------------------------- file I/O

    @classmethod
    def from_tsv(cls, text: str) -> "Lexicon":
        """Parse word<TAB>type rows; every row is checked before any is added,
        so an error names the first bad line and leaves nothing built."""
        words, word_types = [], []
        seen = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ParseError(f"expected 'word<TAB>type', got {raw!r}", line=lineno)
            word, tag = cols[0].strip(), cols[1].strip()
            if not word:
                raise ParseError("empty word", line=lineno)
            if tag not in _TAGS:
                raise ParseError(f"unknown type tag {tag!r}", line=lineno)
            key = word.casefold()
            if key in seen:
                raise DuplicateWord(word, line=lineno)
            seen.add(key)
            words.append(key)
            word_types.append(_TAGS[tag])
        lex = cls()
        lex._add_entries(words, word_types)
        return lex

    def load_relations(self, text: str) -> int:
        """Load subject<TAB>label<TAB>object rows; returns the number of rows.
        Every row is checked before any is added."""
        triples = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise ParseError(f"expected 'subject<TAB>label<TAB>object', got {raw!r}", line=lineno)
            subject, label, obj = (c.strip() for c in cols)
            if subject.casefold() not in self._index:
                raise UnknownWord(subject, line=lineno)
            if obj.casefold() not in self._index:
                raise UnknownWord(obj, line=lineno)
            if not label:
                raise ParseError("empty relation label", line=lineno)
            triples.append((subject.casefold(), label, obj.casefold()))
        self._add_relations(triples)
        return len(triples)

    # ------------------------------------------------------------- snapshot

    def to_dict(self) -> dict:
        return {
            "entries": [[w, t.value] for w, t in zip(self._words, self._types)],
            "semantic_relations": [list(t) for t in self._triples],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lexicon":
        """The lexicon of a state snapshot's `lexicon` record (see `to_dict`).
        A malformed record raises InvalidState naming it, such as
        `lexicon.entries[3]: unknown type tag 'Q'`."""
        lex = cls()
        entries = expect(data.get("entries", []), list, "lexicon.entries")
        words, word_types = _read(entries, "lexicon.entries", _entry_problem, lambda: (
            [word.casefold() for word, _ in entries], [_TAGS[tag] for _, tag in entries]))
        lex._add_entries(words, word_types)
        if len(lex._index) < len(words) or "" in lex._index:
            seen = set()
            for i, word in enumerate(words):
                if not word or word in seen:
                    raise InvalidState(f"lexicon.entries[{i}]: {'duplicate' if word else 'empty'} word {word!r}")
                seen.add(word)
        where = "lexicon.semantic_relations"
        relations = expect(data.get("semantic_relations", []), list, where)
        _read(relations, where, lex._relation_problem, lambda: lex._add_relations(
            [(s.casefold(), label, o.casefold()) for s, label, o in relations]))
        if "" in lex.semantic_labels:
            _raise_first_bad(relations, where, lex._relation_problem)
        return lex

    def _relation_problem(self, rec) -> str | None:
        if type(rec) is not list or len(rec) != 3 or not all(type(x) is str for x in rec):
            return f"expected [subject, label, object], got {rec!r}"
        for word in (rec[0], rec[2]):
            if word.casefold() not in self._index:
                return f"unknown word {word!r}"
        return None if rec[1] else "empty relation label"


def _entry_problem(rec) -> str | None:
    if type(rec) is not list or len(rec) != 2:
        return f"expected [word, type tag], got {rec!r}"
    if type(rec[0]) is not str:
        return f"expected a word, got {rec[0]!r}"
    if type(rec[1]) is not str or rec[1] not in _TAGS:
        return f"unknown type tag {rec[1]!r}"
    return None


def _read(records: list, where: str, problem, read):
    """`read()` if every record is a list and reading them succeeds, else
    InvalidState for the first record in which `problem` finds one. Records
    are checked one by one only once reading has failed, so well-formed
    input pays for one pass over the records' types."""
    if set(map(type, records)) <= {list}:  # a string would unpack like a short list
        try:
            return read()
        except (AttributeError, KeyError, TypeError, ValueError):
            _raise_first_bad(records, where, problem)
            raise
    _raise_first_bad(records, where, problem)


def _raise_first_bad(records: list, where: str, problem) -> None:
    """Raise InvalidState for the first of `records` in which `problem`
    finds one, if any does."""
    for i, rec in enumerate(records):
        message = problem(rec)
        if message:
            raise InvalidState(f"{where}[{i}]: {message}") from None


def load_lexicon(text: str) -> Lexicon:
    """Parse the lexicon TSV format (see Lexicon.from_tsv)."""
    return Lexicon.from_tsv(text)
