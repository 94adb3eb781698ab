#!/usr/bin/env python3
"""Where a cold `nba query` spends its time: the median of each phase over
N fresh processes on one state file, in milliseconds.

    python3 scripts/cold_query.py STATE "cat do?" -n 20 [--pycache DIR]

Each process does what `nba query` does: it imports `nba.cli`, reads the
state with `json.loads`, restores it with `Blackboard.from_snapshot` and runs
the query. With `--pycache DIR` the processes keep compiled bytecode under DIR
(`PYTHONPYCACHEPREFIX`), which one unmeasured run fills first, so import time
leaves out compiling the sources.
"""

import argparse
import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PHASES = ("import", "json.loads", "from_snapshot", "query")
CHILD = """\
import sys, time
t0 = time.perf_counter()
import nba.cli
t1 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as f:
    data = nba.cli.json.loads(f.read())
t2 = time.perf_counter()
bb = nba.cli.Blackboard.from_snapshot(data)
t3 = time.perf_counter()
nba.cli.run_query(bb, nba.cli.parse_query(sys.argv[2]))
t4 = time.perf_counter()
print(*((b - a) * 1e3 for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4))))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("state")
    parser.add_argument("query")
    parser.add_argument("-n", type=int, default=10, help="processes to run (default 10)")
    parser.add_argument("--pycache", help="keep bytecode under this directory")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if args.pycache:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.abspath(args.pycache)
    command = [sys.executable, "-c", CHILD, args.state, args.query]
    runs = []
    for i in range(args.n + bool(args.pycache)):
        result = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        if result.returncode != 0:
            print(result.stderr.strip(), file=sys.stderr)
            return 2
        if i or not args.pycache:
            runs.append([float(ms) for ms in result.stdout.split()])
    print(" ".join(f"{phase:>13}" for phase in PHASES))
    print(" ".join(f"{statistics.median(column):13.2f}" for column in zip(*runs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
