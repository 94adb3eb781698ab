#!/usr/bin/env python3
"""Where a cold `nba query` spends its time: the median of each phase over
N fresh processes on one state file, in milliseconds.

    python3 scripts/cold_query.py STATE "cat do?" -n 20 [--pycache DIR]

Each process imports `nba.cli` and runs its `main` on `query --state STATE
TEXT`, as `nba query` does, with the answer sent to /dev/null. The phases
are the import; `argv`, what `main` does before it reads the state, such as
parsing the command line; `json.loads`, reading and decoding the state;
`from_snapshot`, restoring the board; and `query`, running the query. They
are timed by wrapping `Path.read_text`, `json.loads`,
`Blackboard.from_snapshot` and `run_query` once the import is done. With
`--pycache DIR` the processes keep compiled bytecode under DIR
(`PYTHONPYCACHEPREFIX`), which one unmeasured run fills first, so import time
leaves out compiling the sources.
"""

import argparse
import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PHASES = ("import", "argv", "json.loads", "from_snapshot", "query")
CHILD = """\
import os, sys, time
t0 = time.perf_counter()
import nba.cli
t1 = time.perf_counter()
marks = {}


def timed(name, f):
    def run(*args, **kwargs):
        marks.setdefault(name, time.perf_counter())
        value = f(*args, **kwargs)
        marks.setdefault(name + " end", time.perf_counter())
        return value
    return run


cli, Path = nba.cli, sys.modules["pathlib"].Path
Path.read_text = timed("read", Path.read_text)
cli.json.loads = timed("json", cli.json.loads)
cli.Blackboard.from_snapshot = timed("restore", cli.Blackboard.from_snapshot)
cli.run_query = timed("query", cli.run_query)
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
t2 = time.perf_counter()
assert cli.main(["query", "--state", sys.argv[1], sys.argv[2]]) == 0
spans = ((t0, t1), (t2, marks["read"]), (marks["read"], marks["json end"]),
         (marks["restore"], marks["restore end"]), (marks["query"], marks["query end"]))
print(*((b - a) * 1e3 for a, b in spans), file=stdout)
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
