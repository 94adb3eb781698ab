#!/usr/bin/env python3
"""Where a probe spends its time: the median raw microseconds per query of
`parse_query`, `save_state`, `inject`, `step` and `restore_state`, of one
step, of the rest of `run_query` and of `run_query` as a whole, for the
`src/` of the checkout this script sits in.

    python3 scripts/probe_split.py [-n 3]

The boards and queries are the probe benchmark's for seed 11, drawn in
the order `bench/gen.py` and `bench/workloads.py` draw them: 3,000 words
in a shuffled lexicon, 300 semantic relations (isa, has, near), pools
k_n=40 k_v=12 k_c=8, and the seed's stream of tree sentences (up to two
adjectives and the prepositions of, in and on), four sentences to a
board. Each of the first 8 boards gets 512 queries: 70% episodic hits,
10% semantic hits and 20% misses, each hit a fact asked forward from its
subject or in reverse from its object.

Each of `-n` rounds, after one untimed round, encodes each board and asks
its queries twice. The first pass times `parse_query` and `run_query`
alone. The second times each `Network` call a probe makes through an
instance wrapper, as the benchmark's traced run times `step`: `inject` and
`step` sum the calls of one query, and the `per_step` row is per call.
`rest` is, per query, the first pass's `run_query` less the second pass's
calls, so it holds the label lookup, the readout and the answer.

To compare two checkouts, run each one's copy of this script in its own
process, alternating, as with `encode_split.py`.
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
from nba.corpus import make_word_lists, random_tree_sentence  # noqa: E402
from nba.encoder import compile, execute  # noqa: E402
from nba.lexicon import Lexicon  # noqa: E402
from nba.oracle import OracleStore  # noqa: E402
from nba.query import EPISODIC, FORWARD, REVERSE, SEMANTIC, Query, parse_query, run_query  # noqa: E402

SEED, BOARDS, SENTENCES, QUERIES = 11, 8, 4, 512
CALLS = ("save_state", "inject", "step", "restore_state")
ROWS = ("parse_query", *CALLS, "per_step", "rest", "run_query")


def text(query: Query) -> str:
    body = f"{query.cue} {query.relation}?" if query.direction == FORWARD else f"? {query.relation} {query.cue}"
    return f"sem:{body}" if query.mode == SEMANTIC else body


def boards(nouns, verbs, adjectives, semantic, relations) -> list[tuple[list, list[str]]]:
    """Each board's sentences, as (tokens, arcs), and its queries' texts."""
    corpus, out = random.Random(f"corpus:{SEED}"), []
    labels = sorted({label for _, label, _ in semantic})
    for board in range(BOARDS):
        sentences, oracle = [], OracleStore()
        for _ in range(SENTENCES):
            tokens, arcs, triples = random_tree_sentence(corpus, nouns, verbs, adjectives, preps=("of", "in", "on"))
            sentences.append((tokens, arcs))
            for s, r, o in triples:
                oracle.record(s, r, o, EPISODIC)
        for s, r, o in semantic:
            oracle.record(s, r, o, SEMANTIC)
        facts = {mode: [Query(cue, r, d, m) for m, s, r, o in oracle.triples() if m == mode
                        for cue, d in ((s, FORWARD), (o, REVERSE))] for mode in (EPISODIC, SEMANTIC)}
        words = sorted({w for m, s, _, o in oracle.triples() if m == EPISODIC for w in (s, o)})
        rng, queries = random.Random(f"probe:{SEED}:{board}"), []
        while len(queries) < QUERIES:
            r = rng.random()
            if r < 0.8:
                queries.append(rng.choice(facts[EPISODIC if r < 0.7 else SEMANTIC]))
                continue
            while True:  # a miss: a board word whose oracle answer, less the cue, is empty
                cue, direction = rng.choice(words), rng.choice((FORWARD, REVERSE))
                if rng.random() < 0.1:
                    query = Query(cue, rng.choice(labels), direction, SEMANTIC)
                else:
                    query = Query(cue, rng.choice(relations), direction, EPISODIC)
                if not oracle.query(query).word_set() - {cue}:
                    queries.append(query)
                    break
        out.append((sentences, list(map(text, queries))))
    return out


def timed_calls(net, calls: dict) -> None:
    """Wrap each of the network's probe calls to log its seconds into `calls`."""
    clock = time.perf_counter

    def wrap(name):
        method = getattr(net, name)

        def timed(*args):
            t0 = clock()
            result = method(*args)
            calls[name].append(clock() - t0)
            return result
        setattr(net, name, timed)

    for name in CALLS:
        wrap(name)


def probe_round(bb: Blackboard, drawn, samples: dict | None) -> None:
    clock, net = time.perf_counter, bb.network
    for sentences, texts in drawn:
        bb.release_all()
        for tokens, arcs in sentences:
            execute(compile(tokens, arcs, lexicon=bb.lexicon), bb)
        totals = []
        for line in texts:
            t0 = clock()
            query = parse_query(line)
            t1 = clock()
            run_query(bb, query)
            t2 = clock()
            totals.append(t2 - t1)
            if samples is not None:
                samples["parse_query"].append(t1 - t0)
                samples["run_query"].append(t2 - t1)
        calls = {name: [] for name in CALLS}
        timed_calls(net, calls)
        for line, total in zip(texts, totals):
            for name in CALLS:
                calls[name].clear()
            run_query(bb, parse_query(line))
            if samples is not None:
                for name in CALLS:
                    samples[name].append(sum(calls[name]))
                samples["per_step"] += calls["step"]
                samples["rest"].append(total - sum(map(sum, calls.values())))
        for name in CALLS:
            delattr(net, name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=3, help="timed rounds over the boards (default 3)")
    args = parser.parse_args()

    nouns, verbs, adjectives = make_word_lists(1000, 1000, 1000)
    rows = [(w, "N") for w in nouns] + [(w, "V") for w in verbs] + [(w, "ADJ") for w in adjectives]
    rng, semantic = random.Random(f"lexicon:{SEED}"), {}
    rng.shuffle(rows)
    lex = Lexicon.from_tsv("".join(f"{w}\t{tag}\n" for w, tag in rows))
    while len(semantic) < 300:
        s, o = rng.choice(nouns), rng.choice(verbs + adjectives + nouns)
        if s != o:
            semantic.setdefault((s, rng.choice(("isa", "has", "near")), o), None)
    lex.load_relations("".join(f"{s}\t{r}\t{o}\n" for s, r, o in semantic))
    config = Config(k_n=40, k_v=12, k_c=8)
    bb = Blackboard(lex, config)
    drawn = boards(nouns, verbs, adjectives, list(semantic), config.relation_names())
    probe_round(bb, drawn, None)  # builds what the timed rounds reuse
    samples = {row: [] for row in ROWS}
    for _ in range(args.n):
        probe_round(bb, drawn, samples)
    print(f"{'layer':<14} {'us':>8}")
    for row in ROWS:
        print(f"{row:<14} {statistics.median(samples[row]) * 1e6:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
