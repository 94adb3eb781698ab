#!/usr/bin/env python3
"""Trajectory hashes: a differential check between two checkouts.

For each seed and config, encode batches of random tree sentences on a
board with the benchmark's hub pools (40 noun, 12 verb and 8 clause hubs)
and hash, after every encode step, the clock, `active_pids()`, two
`total_activation` sums and `last_change`. After each sentence it also
hashes the answer to every word of the batch so far under every relation,
asked forward and in reverse, which covers every fact the batch encodes,
and the board's snapshot bytes; after each batch, five more steps
and the snapshot again. The board restored from that snapshot is hashed
too: its `active_pids()`, then its answers to every word of the batch, as
above, so the check covers the restore path. It prints one `seed config
hash` line per pair, so the output of two checkouts can be diffed:

    PYTHONPATH=src python3 scripts/trajectory_hash.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/trajectory_hash.py > old.txt
    diff old.txt new.txt

A sentence the board refuses (at `sustain_threshold` 0 every cell is
sustained at rest, so none can be bound) is hashed as its error; what it
bound stays bound, and the batch goes on with the next sentence.
"""

import argparse
import hashlib
import random

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.dynamics import PopulationKind
from nba.encoder import compile, execute
from nba.errors import NbaError
from nba.query import FORWARD, REVERSE, Query, run_query

POOLS = dict(k_n=40, k_v=12, k_c=8)
CONFIGS = {
    "default": {},
    "wm_decay": dict(wm_decay=0.9, wm_decay_horizon=7),
    "threshold0": dict(sustain_threshold=0.0),
    "decay": dict(decay=0.3),
}
BATCHES, SENTENCES = 2, 3  # sentences per batch; the board is released after each batch
# the kinds an activity trace sums
TRACE_KINDS = (PopulationKind.HUB, PopulationKind.WORKING_MEMORY, PopulationKind.CONTROL)


def trajectory_hash(seed: int, overrides: dict) -> str:
    rng = random.Random(seed)
    nouns, verbs, adjectives = make_word_lists(60, 20, 20)
    bb = Blackboard(build_lexicon(nouns, verbs, adjectives), Config(**POOLS, **overrides))
    net, digest = bb.network, hashlib.sha256()

    def record(*values):
        digest.update(repr(values).encode())

    def on_step(net):
        record(net.time, net.active_pids(), net.total_activation(TRACE_KINDS),
               net.total_activation(PopulationKind), net.last_change)

    def record_answers(board, words):
        for word in sorted(words):
            for relation in board.relation_names:
                for direction in (FORWARD, REVERSE):
                    record(run_query(board, Query(word, relation, direction=direction)).entries)

    for _ in range(BATCHES):
        words = set()
        for _ in range(SENTENCES):
            tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjectives)
            try:
                execute(compile(tokens, arcs), bb, on_step=on_step)
            except NbaError as exc:
                record(type(exc).__name__, str(exc))
            words.update(token.surface for token in tokens if token.surface in bb.lexicon)
            record_answers(bb, words)
            record(bb.snapshot_bytes())
        for _ in range(5):
            net.step()
            on_step(net)
        record(bb.snapshot_bytes())
        restored = Blackboard.from_snapshot(bb.to_snapshot())
        record(restored.network.active_pids())
        record_answers(restored, words)
        bb.release_all()
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=6, help="seeds 1 to N, each under every config")
    args = parser.parse_args()
    for seed in range(1, args.seeds + 1):
        for name, overrides in CONFIGS.items():
            print(seed, name, trajectory_hash(seed, overrides))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
