"""Generated lexicons and never-curated random sentences.

Each generator also reports the role facts the sentence is built to express
(derived from the construction templates, not from the encoder), so encode
and query can be checked against an independent reference.
"""

from __future__ import annotations

import random

from .encoder import DependencyArc, Token
from .lexicon import Lexicon, WordType


def make_word_lists(n_nouns: int, n_verbs: int, n_adjectives: int):
    nouns = [f"n{i:03d}" for i in range(n_nouns)]
    verbs = [f"v{i:03d}" for i in range(n_verbs)]
    adjectives = [f"a{i:03d}" for i in range(n_adjectives)]
    return nouns, verbs, adjectives


def build_lexicon(nouns, verbs, adjectives) -> Lexicon:
    lex = Lexicon()
    for w in nouns:
        lex.add_word(w, WordType.NOUN)
    for w in verbs:
        lex.add_word(w, WordType.VERB)
    for w in adjectives:
        lex.add_word(w, WordType.ADJECTIVE)
    return lex


def template_sentence(adj: str, n1: str, verb: str, n2: str):
    """adjective-noun-verb-noun with the adjective on the subject.

    Returns (tokens, arcs, triples) where triples are the intended
    (subject, relation, object) facts.
    """
    tokens = [
        Token(1, adj, WordType.ADJECTIVE),
        Token(2, n1, WordType.NOUN),
        Token(3, verb, WordType.VERB),
        Token(4, n2, WordType.NOUN),
    ]
    arcs = [
        DependencyArc(2, 1, "amod"),
        DependencyArc(3, 2, "nsubj"),
        DependencyArc(0, 3, "root"),
        DependencyArc(3, 4, "obj"),
    ]
    triples = [(n1, "modifier", adj), (n1, "agent", verb), (verb, "theme", n2)]
    return tokens, arcs, triples


def random_template_sentence(rng: random.Random, nouns, verbs, adjectives):
    return template_sentence(
        rng.choice(adjectives), rng.choice(nouns), rng.choice(verbs), rng.choice(nouns)
    )


class _Builder:
    def __init__(self):
        self.rows = []  # (surface, word_type, head_slot, label); slots are row indexes

    def add(self, surface, word_type, head_slot, label) -> int:
        self.rows.append([surface, word_type, head_slot, label])
        return len(self.rows) - 1

    def finish(self):
        tokens = [
            Token(i + 1, surface, wt) for i, (surface, wt, _, _) in enumerate(self.rows)
        ]
        arcs = [
            DependencyArc(0 if head is None else head + 1, i + 1, label)
            for i, (_, _, head, label) in enumerate(self.rows)
        ]
        return tokens, arcs


P_PP = 0.35  # chance that a noun phrase of `random_tree_sentence` takes a prepositional phrase
P_RELATIVE = 0.25  # chance that a subject or object takes a relative clause


def random_tree_sentence(
    rng: random.Random,
    nouns,
    verbs,
    adjectives,
    *,
    preps=("of", "in"),
    max_adjectives: int = 2,
):
    """A transitive sentence with optional modifiers, a prepositional
    attachment, and a relative clause; word order is head-medial and
    projective. Returns (tokens, arcs, triples)."""
    b = _Builder()
    triples: list[tuple[str, str, str]] = []
    verb = rng.choice(verbs)

    def noun_phrase(head_slot_of_np_head, label, allow_clause: bool):
        noun = rng.choice(nouns)
        adj_slots = []
        for _ in range(rng.randint(0, max_adjectives)):
            adj = rng.choice(adjectives)
            adj_slots.append((b.add(adj, WordType.ADJECTIVE, None, "amod"), adj))
        slot = b.add(noun, WordType.NOUN, head_slot_of_np_head, label)
        for adj_slot, adj in adj_slots:
            b.rows[adj_slot][2] = slot
            triples.append((noun, "modifier", adj))
        if allow_clause and rng.random() < P_RELATIVE:
            ev = rng.choice(verbs)
            if rng.random() < 0.5:
                # object gap: "noun [es ev]" -> es is agent of ev, noun its theme
                es = rng.choice(nouns)
                es_slot = b.add(es, WordType.NOUN, None, "nsubj")
                ev_slot = b.add(ev, WordType.VERB, slot, "acl:relcl")
                b.rows[es_slot][2] = ev_slot
                triples.append((es, "agent", ev))
                triples.append((ev, "theme", noun))
            else:
                # subject gap: the head noun is the clause verb's agent
                b.add(ev, WordType.VERB, slot, "acl:relcl")
                triples.append((noun, "agent", ev))
            triples.append((verb, "clause", ev))
        if rng.random() < P_PP:
            prep = rng.choice(list(preps))
            pnoun = rng.choice(nouns)
            prep_slot = b.add(prep, WordType.PREPOSITION, None, "case")
            pnoun_slot = b.add(pnoun, WordType.NOUN, slot, "nmod")
            b.rows[prep_slot][2] = pnoun_slot
            triples.append((noun, f"prep:{prep}", pnoun))
        return slot

    subj_slot = noun_phrase(None, "nsubj", allow_clause=True)
    verb_slot = b.add(verb, WordType.VERB, None, "root")
    b.rows[subj_slot][2] = verb_slot
    subj_word = b.rows[subj_slot][0]
    triples.append((subj_word, "agent", verb))
    obj_slot = noun_phrase(verb_slot, "obj", allow_clause=True)
    triples.append((verb, "theme", b.rows[obj_slot][0]))

    tokens, arcs = b.finish()
    return tokens, arcs, triples
