#!/usr/bin/env python3
"""Scaling tables.

Wiring: fixed hub pools keep wiring linear in lexicon size while the
expressible word-pair relations grow with the product.

Probes: for each multiple of the benchmark's hub pools (40 noun, 12 verb and
8 clause hubs), the median microseconds of a forward and of a reverse probe,
asking every fact of one board of four random tree sentences, the same
sentences at every size. A probe pays for the paths its cue's bindings
open, so its time should stay flat as the pools grow.

Memory: at the benchmark's pools over a 3,000-word lexicon, the populations
built and the bytes `tracemalloc` sees still held since the board was
built, each read after `release_all`, after 10, 100 and 300 batches of four
random tree sentences. A released binding leaves no record behind, so both
should stay flat.
"""

import argparse
import gc
import random
import statistics
import time
import tracemalloc

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.encoder import compile, execute
from nba.query import FORWARD, REVERSE, Query, run_query

BENCH_POOLS = (40, 12, 8)  # k_n, k_v, k_c


def wiring_table(sizes: list[int], k: int) -> None:
    config = Config(k_n=k, k_v=k, k_c=1, relations=("agent", "theme"))
    print(f"{'lexicon':>8} {'gated links':>12} {'direct wiring':>14} {'expressible':>12}")
    for size in sizes:
        nouns, verbs, _ = make_word_lists(size // 2, size - size // 2, 0)
        bb = Blackboard(build_lexicon(nouns, verbs, []), config)
        direct = len(nouns) * len(verbs) * 2  # every noun to every verb, both relations
        print(
            f"{size:>8} {bb.connection_count():>12} {direct:>14} {bb.expressible_bindings():>12}"
        )


def probe_table(scales: list[int], rounds: int) -> None:
    """Each round asks every board's probes once, board after board, so
    that drift in the host's speed falls on every size alike."""
    nouns, verbs, adjectives = make_word_lists(300, 100, 100)
    boards = []  # (pools, board, its probes) per scale
    for scale in scales:
        k_n, k_v, k_c = (scale * k for k in BENCH_POOLS)
        bb = Blackboard(build_lexicon(nouns, verbs, adjectives), Config(k_n=k_n, k_v=k_v, k_c=k_c))
        rng, queries = random.Random(1), []
        for _ in range(4):
            tokens, arcs, triples = random_tree_sentence(rng, nouns, verbs, adjectives)
            execute(compile(tokens, arcs), bb)
            queries += [q for s, r, o in triples for q in (Query(s, r), Query(o, r, direction=REVERSE))]
        boards.append((f"{k_n}/{k_v}/{k_c}", bb, queries))
    times = [{FORWARD: [], REVERSE: []} for _ in boards]
    for _ in range(rounds):
        for (_, bb, queries), board_times in zip(boards, times):
            for query in queries:
                start = time.perf_counter_ns()
                run_query(bb, query)
                board_times[query.direction].append(time.perf_counter_ns() - start)
    print(f"{'pools':>12} {'probes':>7} {'forward us':>11} {'reverse us':>11}")
    for (pools, _, queries), board_times in zip(boards, times):
        forward, reverse = (statistics.median(board_times[d]) / 1e3 for d in (FORWARD, REVERSE))
        print(f"{pools:>12} {len(queries):>7} {forward:>11.1f} {reverse:>11.1f}")


def memory_table(marks: tuple[int, ...] = (10, 100, 300)) -> None:
    nouns, verbs, adjectives = make_word_lists(1000, 1000, 1000)
    k_n, k_v, k_c = BENCH_POOLS
    bb = Blackboard(build_lexicon(nouns, verbs, adjectives), Config(k_n=k_n, k_v=k_v, k_c=k_c))
    rng, done = random.Random(1), 0
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    print(f"{'batches':>8} {'populations':>12} {'held bytes':>11}")
    for mark in marks:
        for done in range(done, mark):
            for _ in range(4):
                tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjectives)
                execute(compile(tokens, arcs), bb)
            bb.release_all()
        done = mark
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        print(f"{mark:>8} {len(bb.network.populations()):>12} {held:>11}")
    tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 100, 1000])
    parser.add_argument("--k", type=int, default=4, help="hub pool capacity of the wiring table")
    parser.add_argument("--pools", type=int, nargs="*", default=[1, 2, 4],
                        help="multiples of the benchmark's pools for the probe table; none skips it")
    parser.add_argument("--rounds", type=int, default=200, help="times each probe is asked")
    args = parser.parse_args()

    wiring_table(args.sizes, args.k)
    if args.pools:
        print()
        probe_table(args.pools, args.rounds)
    print()
    memory_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
