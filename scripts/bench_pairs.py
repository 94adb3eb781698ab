#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload probe --pairs 10 --seconds 25 --seed0 1801

Pair i runs `bench/run.py` once in each checkout with seed `seed0 + i`; the
parent goes first in even pairs and the change in odd ones, so drift in the
host's speed falls on both sides alike. Each run happens in its checkout's
root, and nothing under `bench/` is written to but the run's own output.
The script then prints one Markdown row per metric: the parent's and the
change's first quartile, median and third quartile, the ratio of the
medians, the metric's bound, and the pairs in which the change did better.
Whether lower or higher is better, and each end-to-end metric's bound, are
read from `BENCHMARK.json` in the change's checkout; a ratio worse than its
bound in that direction is marked `**over bound**`. A row whose medians
differ by no more than the parent's interquartile range is marked `within
parent spread`: the pairs cannot tell the two checkouts apart on it, so it
is unresolved, neither a gain nor a loss. A row is marked `**gain**` when
it meets the rule for claiming one: the change did better in at least 9
pairs and in at least 9 of every 10, a tie counting for neither side, and
its median is better than the parent's by more than the parent's
interquartile range.
With `--trace 1` the rows are the per-layer metrics instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(command[1:])} exited {result.returncode}\n{result.stderr.strip()}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def number(value: float) -> str:
    """Four significant digits, without an exponent for counts and rates."""
    return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"


def row(workload: str, name: str, parent: list[float], change: list[float], better: str,
        bound: float | None) -> str:
    """One metric's Markdown row. The ratio of the medians is marked when it
    is worse than `bound`, a share of the parent's median, in the `better`
    direction; a metric with no bound is never so marked. It is also marked
    when the medians differ by no more than the parent's interquartile
    range, and as a gain when the change wins at least 9 pairs, and 9 of
    every 10, and its median is better by more than that range."""
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    parent_q, change_q = quartiles(parent), quartiles(change)
    ratio = change_q[1] / parent_q[1] if parent_q[1] else float("nan")
    over = bound is not None and (ratio > 1 + bound if lower else ratio < 1 - bound)
    iqr, better_by = parent_q[2] - parent_q[0], (parent_q[1] - change_q[1]) * (1 if lower else -1)
    spread = abs(better_by) <= iqr
    gain = wins >= 9 and 10 * wins >= 9 * len(parent) and better_by > iqr
    return (f"| {workload} | {name} | {' / '.join(map(number, parent_q))} | {' / '.join(map(number, change_q))} | "
            f"{ratio:.3f}{' **over bound**' if over else ''}{' within parent spread' if spread else ''}"
            f"{' **gain**' if gain else ''} | "
            f"{'' if bound is None else bound} | "
            f"{wins}/{len(parent)} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run(sides[side], args.workload, seed, args.seconds, args.trace)
            results[side].append(result)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | change/parent | bound "
          "| change wins |")
    print("|---|---|---|---|---|---|---|")
    names = [name for name in results["change"][0]["metrics"] if name in results["parent"][0]["metrics"]]
    for name in sorted(names):
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        print(row(args.workload, name, values["parent"], values["change"], better.get(name, "lower"),
                  bounds.get(name)))
    failed = {side: sum(r["failed"] for r in results[side]) for side in sides}
    print(f"\nfailed operations: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
