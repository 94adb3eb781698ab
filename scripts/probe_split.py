#!/usr/bin/env python3
"""Where a probe spends its time: the median raw microseconds per query of
`parse_query`, `save_state`, `inject`, `step` and `restore_state`, of one
step, of the rest of `run_query` and of `run_query` as a whole, for the
`src/` of the checkout this script sits in.

    python3 scripts/probe_split.py [-n 3]

The board, its documents and their queries are the probe benchmark's
for seed 11, taken from `bench/workloads.py` `Probe(11)`: 3,000 words in
a shuffled lexicon, 300 semantic relations (isa, has, near), pools k_n=40
k_v=12 k_c=8, and the seed's stream of tree sentences, four to a board.
Each of the first 8 boards gets 512 queries: 70% episodic hits, 10%
semantic hits and 20% misses, each hit a fact asked forward from its
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
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from nba.blackboard import Blackboard  # noqa: E402
from nba.query import parse_query, run_query  # noqa: E402
from workloads import Probe, encode  # noqa: E402

SEED, BOARDS = 11, 8
CALLS = ("save_state", "inject", "step", "restore_state")
ROWS = ("parse_query", *CALLS, "per_step", "rest", "run_query")


def boards() -> tuple[Blackboard, list[tuple[str, list[str]]]]:
    """The benchmark's board, and each of its first boards' CoNLL-U document
    and query texts, as `Probe` draws them."""
    probe, drawn = Probe(SEED, ""), []
    probe.setup()
    for board in range(BOARDS):
        if board:
            probe.next_board()
        drawn.append((probe.boards[board][0], [text for text, _ in probe.queries]))
    return probe.bb, drawn


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
    for doc, texts in drawn:
        bb.release_all()
        encode(bb, doc)
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

    bb, drawn = boards()
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
