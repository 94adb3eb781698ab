#!/usr/bin/env python3
"""Where an ingest sentence spends its time: the median raw microseconds
per sentence of parse, compile, execute and `release_all`, and of one
word's bind, for the `src/` of the checkout this script sits in.

    python3 scripts/encode_split.py [-n 5]

The sentences are the first 1,200 of seed 11's stream as the ingest
benchmark draws them (3,000 words, pools k_n=40 k_v=12 k_c=8, up to two
adjectives and the prepositions of, in and on), written as 300 CoNLL-U
documents of four sentences. Each of `-n` rounds, after one untimed round,
encodes every document onto one board, as the ingest benchmark does, and
then releases it: parse is taking the next sentence from `iter_conllu`,
and a batch's `release_all` counts a quarter to each of its sentences.
The `bind` row is one noun's `bind_concept` to hub N0 plus its `release`,
timed for each of the 1,000 nouns in turn on the released board.

To compare two checkouts, run each one's copy of this script in its own
process, alternating. In one process `nba`'s package attributes bind to
whichever copy was imported last, so both timings would be of one tree.
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from nba.blackboard import Blackboard  # noqa: E402
from nba.config import Config  # noqa: E402
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence  # noqa: E402
from nba.encoder import compile, execute, iter_conllu  # noqa: E402
from nba.lexicon import WordType  # noqa: E402

SEED, BATCHES, BATCH = 11, 300, 4
LAYERS = ("parse", "compile", "execute", "release_all", "bind")
_UPOS = {WordType.NOUN: "NOUN", WordType.VERB: "VERB", WordType.ADJECTIVE: "ADJ", WordType.PREPOSITION: "ADP"}


def documents(nouns, verbs, adjectives) -> list[str]:
    rng, docs = random.Random(f"corpus:{SEED}"), []
    for _ in range(BATCHES):
        doc = ""
        for _ in range(BATCH):
            tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjectives, preps=("of", "in", "on"))
            head = {a.dependent: a for a in arcs}
            doc += "".join(f"{t.index}\t{t.surface}\t_\t{_UPOS[t.word_type]}\t_\t_\t{head[t.index].head}\t"
                           f"{head[t.index].label}\t_\t_\n" for t in tokens) + "\n"
        docs.append(doc)
    return docs


def encode_round(bb: Blackboard, docs: list[str], samples: dict) -> None:
    clock, lex = time.perf_counter, bb.lexicon
    for doc in docs:
        sentences = iter_conllu(doc)
        for _ in range(BATCH):
            t0 = clock()
            tokens, arcs = next(sentences)
            t1 = clock()
            program = compile(tokens, arcs, lexicon=lex)
            t2 = clock()
            execute(program, bb)
            t3 = clock()
            samples["parse"].append(t1 - t0)
            samples["compile"].append(t2 - t1)
            samples["execute"].append(t3 - t2)
        t0 = clock()
        bb.release_all()
        samples["release_all"].append((clock() - t0) / BATCH)


def bind_round(bb: Blackboard, nouns: list[str], samples: dict) -> None:
    clock, bind, release = time.perf_counter, bb.bind_concept, bb.release
    for noun in nouns:
        t0 = clock()
        release(bind(noun, "N0"))
        samples["bind"].append(clock() - t0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=5, help="timed rounds over the sentences (default 5)")
    args = parser.parse_args()

    nouns, verbs, adjectives = make_word_lists(1000, 1000, 1000)
    bb = Blackboard(build_lexicon(nouns, verbs, adjectives), Config(k_n=40, k_v=12, k_c=8))
    docs = documents(nouns, verbs, adjectives)
    encode_round(bb, docs, {layer: [] for layer in LAYERS})  # builds what the timed rounds reuse
    samples = {layer: [] for layer in LAYERS}
    for _ in range(args.n):
        encode_round(bb, docs, samples)
        bind_round(bb, nouns, samples)
    print(f"{'layer':<12} {'us':>8}")
    for layer in LAYERS:
        print(f"{layer:<12} {statistics.median(samples[layer]) * 1e6:8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
