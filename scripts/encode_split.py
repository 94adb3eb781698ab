#!/usr/bin/env python3
"""Where an ingest sentence spends its time: the median raw microseconds
per sentence of parse, compile, execute and `release_all`, and of one
word's bind, for the `src/` of the checkout this script sits in.

    python3 scripts/encode_split.py [-n 5]

The board and documents are the ingest benchmark's for seed 11, taken
from `bench/`: the board is `workloads.build_board` of `gen.Inputs(11,
1000)` (3,000 words in a shuffled lexicon, 300 semantic relations, pools
k_n=40 k_v=12 k_c=8), and the documents are that input's first 300
batches of four sentences, 1,200 in all. Each of `-n` rounds, after one
untimed round, encodes every document onto the board, as the ingest
benchmark does, and then releases it: parse is taking the next sentence
from `iter_conllu`, and a batch's `release_all` counts a quarter to each of
its sentences.
The `bind` row is one noun's `bind_concept` to hub N0 plus its `release`,
timed for each of the 1,000 nouns in turn on the released board.

To compare two checkouts, run each one's copy of this script in its own
process, alternating. In one process `nba`'s package attributes bind to
whichever copy was imported last, so both timings would be of one tree.
"""

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from gen import SENTENCES_PER_BATCH as BATCH, Inputs  # noqa: E402
from nba.blackboard import Blackboard  # noqa: E402
from nba.encoder import compile, execute, iter_conllu  # noqa: E402
from workloads import build_board  # noqa: E402

SEED, BATCHES = 11, 300
LAYERS = ("parse", "compile", "execute", "release_all", "bind")


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

    inp = Inputs(SEED, words_per_class=1000)
    bb = build_board(inp)
    docs = [inp.batch()[0] for _ in range(BATCHES)]
    encode_round(bb, docs, {layer: [] for layer in LAYERS})  # builds what the timed rounds reuse
    samples = {layer: [] for layer in LAYERS}
    for _ in range(args.n):
        encode_round(bb, docs, samples)
        bind_round(bb, inp.nouns, samples)
    print(f"{'layer':<12} {'us':>8}")
    for layer in LAYERS:
        print(f"{layer:<12} {statistics.median(samples[layer]) * 1e6:8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
