"""In-situ word store: one concept population per word, never copied.

The lexicon owns the network's concept populations and the long-term
control-gated relations between them (semantic memory). Word types come
from the lexicon file; classification is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import labels
from .dynamics import ControlGate, Network, PopulationKind
from .errors import DuplicateWord, ParseError, UnknownWord


class WordType(Enum):
    NOUN = "N"
    VERB = "V"
    ADJECTIVE = "ADJ"
    PREPOSITION = "P"
    DETERMINER = "DET"
    OTHER = "X"


# word types that bind hubs, and the pool they bind into
POOL_FOR_TYPE = {
    WordType.NOUN: "N",
    WordType.ADJECTIVE: "N",
    WordType.VERB: "V",
}


@dataclass(frozen=True)
class LexicalEntry:
    word: str
    word_type: WordType
    concept: int  # population id; stable for the life of the lexicon


class Lexicon:
    """Single-writer during construction; freely shareable for reads after."""

    def __init__(self, network: Network | None = None):
        self.network = network if network is not None else Network()
        self._entries: dict[str, LexicalEntry] = {}
        self._word_of_pid: dict[int, str] = {}
        self.semantic_triples: list[tuple[str, str, str]] = []
        self._triple_set: set[tuple[str, str, str]] = set()
        self.semantic_labels: set[str] = set()

    # -------------------------------------------------------------- entries

    def add_word(self, word: str, word_type: WordType) -> LexicalEntry:
        return self._add_entries([self._new_word(word, ())], [word_type])[0]

    def _new_word(self, word: str, pending) -> str:
        """`word` casefolded, if neither the lexicon nor `pending` has it."""
        key = word.casefold()
        if not key:
            raise ValueError("word must be nonempty")
        if key in self._entries or key in pending:
            raise DuplicateWord(key)
        return key

    def _add_entries(self, words: list[str], word_types: list[WordType]) -> list[LexicalEntry]:
        """Concept populations for new, distinct, casefolded words, added in
        one structural extension."""
        with self.network.structural_extension():
            pids = self.network.add_populations(PopulationKind.CONCEPT, len(words))
        entries = list(map(LexicalEntry, words, word_types, pids))
        self._entries.update(zip(words, entries))
        self._word_of_pid.update(zip(pids, words))
        return entries

    def entry(self, word: str) -> LexicalEntry:
        try:
            return self._entries[word.casefold()]
        except KeyError:
            raise UnknownWord(word) from None

    def classify(self, word: str) -> WordType:
        return self.entry(word).word_type

    def concept(self, word: str) -> int:
        return self.entry(word).concept

    def word_of(self, pid: int) -> str | None:
        return self._word_of_pid.get(pid)

    def __contains__(self, word: str) -> bool:
        return word.casefold() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        return self._entries.values()

    def words(self):
        return list(self._entries)

    def words_of_pool(self, pool: str) -> list[str]:
        return [
            e.word for e in self._entries.values()
            if POOL_FOR_TYPE.get(e.word_type) == pool
        ]

    # ---------------------------------------------------- semantic relations

    def add_semantic_relation(self, subject: str, relation_label: str, obj: str) -> None:
        """Install a directed control-gated edge subject -> object plus its mirror."""
        self._add_relations([self._relation(subject, relation_label, obj)])

    def _relation(self, subject: str, relation_label: str, obj: str) -> tuple[str, str, str]:
        s = self.entry(subject)
        o = self.entry(obj)
        if not relation_label:
            raise ValueError("relation label must be nonempty")
        return (s.word, relation_label, o.word)

    def _add_relations(self, triples: list[tuple[str, str, str]]) -> None:
        """Wire checked (subject, label, object) triples not yet installed, in
        one structural extension."""
        net = self.network
        with net.structural_extension():
            for triple in triples:
                if triple in self._triple_set:
                    continue
                subject, label, obj = triple
                s, o = self._entries[subject].concept, self._entries[obj].concept
                net.add_gated_connection(s, o, ControlGate(labels.semantic_forward(label)))
                net.add_gated_connection(o, s, ControlGate(labels.semantic_reverse(label)))
                self._triple_set.add(triple)
                self.semantic_triples.append(triple)
                self.semantic_labels.add(label)

    # ------------------------------------------------------------- file I/O

    @classmethod
    def from_tsv(cls, text: str, network: Network | None = None) -> "Lexicon":
        """Parse word<TAB>type rows; every row is checked before any is added,
        so an error names the first bad line and leaves nothing built."""
        tags = {t.value: t for t in WordType}
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
            if tag not in tags:
                raise ParseError(f"unknown type tag {tag!r}", line=lineno)
            key = word.casefold()
            if key in seen:
                raise DuplicateWord(word, line=lineno)
            seen.add(key)
            words.append(key)
            word_types.append(tags[tag])
        lex = cls(network)
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
            if subject.casefold() not in self._entries:
                raise UnknownWord(subject, line=lineno)
            if obj.casefold() not in self._entries:
                raise UnknownWord(obj, line=lineno)
            if not label:
                raise ParseError("empty relation label", line=lineno)
            triples.append((subject.casefold(), label, obj.casefold()))
        self._add_relations(triples)
        return len(triples)

    # ------------------------------------------------------------- snapshot

    def to_dict(self) -> dict:
        return {
            "entries": [[e.word, e.word_type.value] for e in self._entries.values()],
            "semantic_relations": [list(t) for t in self.semantic_triples],
        }

    @classmethod
    def from_dict(cls, data: dict, network: Network | None = None) -> "Lexicon":
        lex = cls(network)
        tags = {t.value: t for t in WordType}
        words, word_types = [], []
        seen = set()
        for word, tag in data.get("entries", []):
            word_type = tags[tag]
            key = lex._new_word(word, seen)
            seen.add(key)
            words.append(key)
            word_types.append(word_type)
        lex._add_entries(words, word_types)
        lex._add_relations(
            [lex._relation(subject, label, obj) for subject, label, obj in data.get("semantic_relations", [])]
        )
        return lex


def load_lexicon(text: str) -> Lexicon:
    """Parse the lexicon TSV format (see Lexicon.from_tsv)."""
    return Lexicon.from_tsv(text)
