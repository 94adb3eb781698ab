"""Seeded inputs for the benchmark: lexicon TSV, relations TSV, CoNLL-U, config.

Everything here is a pure function of its arguments, so one seed always gives
byte-identical inputs. Sentences come from nba's own never-curated generator
(`random_tree_sentence`); the triples it reports are the reference facts the
oracle holds, derived from the construction templates rather than from the
encoder.
"""

from __future__ import annotations

import json
import random

from nba.corpus import make_word_lists, random_tree_sentence
from nba.lexicon import WordType
from nba.oracle import OracleStore
from nba.query import EPISODIC, SEMANTIC

PREPS = ("of", "in", "on")
MAX_ADJECTIVES = 2
SENTENCES_PER_BATCH = 4
SEMANTIC_LABELS = ("isa", "has", "near")

_UPOS = {
    WordType.NOUN: "NOUN",
    WordType.VERB: "VERB",
    WordType.ADJECTIVE: "ADJ",
    WordType.PREPOSITION: "ADP",
}


def sentence_hub_bound(max_adjectives: int = MAX_ADJECTIVES) -> dict:
    """Most hubs one `random_tree_sentence` can allocate, per pool.

    Each of the two noun phrases binds up to `max_adjectives` adjectives, its
    head noun, an object-gap clause subject and a prepositional noun (N); a
    relative-clause verb (V) chained through one clause hub (C). The root verb
    adds one more V.
    """
    return {"N": 2 * (max_adjectives + 3), "V": 3, "C": 2}


def pool_config(sentences: int = SENTENCES_PER_BATCH, max_adjectives: int = MAX_ADJECTIVES) -> dict:
    """Pool capacities that hold `sentences` worst-case sentences at once, so
    no board built from them can raise PoolExhausted whatever the seed."""
    bound = sentence_hub_bound(max_adjectives)
    return {"k_n": sentences * bound["N"], "k_v": sentences * bound["V"], "k_c": sentences * bound["C"]}


class Inputs:
    """Word lists plus a seeded stream of tree sentences over them."""

    def __init__(self, seed: int, words_per_class: int, n_semantic: int = 300):
        self.seed = seed
        self.nouns, self.verbs, self.adjectives = make_word_lists(
            words_per_class, words_per_class, words_per_class
        )
        rng = random.Random(f"lexicon:{seed}")
        rows = [(w, "N") for w in self.nouns] + [(w, "V") for w in self.verbs]
        rows += [(w, "ADJ") for w in self.adjectives]
        rng.shuffle(rows)
        self.lexicon_tsv = "".join(f"{w}\t{tag}\n" for w, tag in rows)
        self.semantic = semantic_triples(rng, self.nouns, self.verbs + self.adjectives + self.nouns, n_semantic)
        self.relations_tsv = "".join(f"{s}\t{r}\t{o}\n" for s, r, o in self.semantic)
        self.config_json = json.dumps(pool_config(), sort_keys=True)
        self._rng = random.Random(f"corpus:{seed}")

    def sentence(self):
        """Next (tokens, arcs, triples) of this seed's sentence stream."""
        return random_tree_sentence(
            self._rng, self.nouns, self.verbs, self.adjectives,
            preps=PREPS, max_adjectives=MAX_ADJECTIVES,
        )

    def batch(self, n: int = SENTENCES_PER_BATCH):
        """Next n sentences as one CoNLL-U document plus their facts."""
        sentences = [self.sentence() for _ in range(n)]
        doc = "".join(to_conllu(tokens, arcs) for tokens, arcs, _ in sentences)
        triples = [t for _, _, ts in sentences for t in ts]
        return doc, triples


def semantic_triples(rng: random.Random, subjects, objects, n: int):
    """n distinct subject-label-object triples with subject != object."""
    seen: dict = {}
    while len(seen) < n:
        s, o = rng.choice(subjects), rng.choice(objects)
        if s != o:
            seen.setdefault((s, rng.choice(SEMANTIC_LABELS), o), None)
    return list(seen)


def to_conllu(tokens, arcs) -> str:
    """One sentence in the 10-column CoNLL-U subset `iter_conllu` reads."""
    head = {a.dependent: a for a in arcs}
    lines = [
        f"{t.index}\t{t.surface}\t_\t{_UPOS[t.word_type]}\t_\t_\t{head[t.index].head}\t{head[t.index].label}\t_\t_"
        for t in tokens
    ]
    return "\n".join(lines) + "\n\n"


def oracle_for(episodic, semantic=()) -> OracleStore:
    oracle = OracleStore()
    for s, r, o in episodic:
        oracle.record(s, r, o, EPISODIC)
    for s, r, o in semantic:
        oracle.record(s, r, o, SEMANTIC)
    return oracle


def family(relation: str) -> str:
    """Relation family of an episodic relation name, or "sem"."""
    return relation.split(":")[0]


def query_text(cue: str, relation: str, forward: bool, semantic: bool = False) -> str:
    body = f"{cue} {relation}?" if forward else f"? {relation} {cue}"
    return f"sem:{body}" if semantic else body
