#!/usr/bin/env python3
"""How large nba's sources are: per module of `src/nba`, in total, and over
the query path, the lines, the code lines, the options and the median
milliseconds `compile()` takes.

    python3 scripts/size.py

The query path is the modules of `src/nba` that a `python -m nba.cli query`
child loads, read from that child's `sys.modules`; it queries a one-word
state written to a temporary directory.

Code lines are the lines that hold a token of code: blank lines, comments and
docstrings (the first string of a module, class or function) are left out. A
multi-line statement counts each of its lines; a string that spans lines
counts each line it spans. Options are the parameters with a default of the
public functions and methods, those whose name does not start with `_`, and
of the `__init__` of public classes; functions defined inside functions are
left out. Compiling is what importing a module costs when no bytecode is
cached, as under `PYTHONDONTWRITEBYTECODE=1`.
"""

import ast
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nba")
# runs `nba.cli` as `python -m` does, then prints the nba modules loaded, the run one included
QUERY_CHILD = """\
import runpy, sys
sys.argv[1:] = ["query", "--state", sys.argv[1], "cat do?"]
try:
    runpy.run_module("nba.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(*sorted({m for m in sys.modules if m.split(".")[0] == "nba"} | {"nba.cli"}), file=sys.stderr)
"""
REPEAT = 7  # compiles per module, of which the median
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring in `source`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def options(source: str) -> int:
    count, scopes = 0, [(ast.parse(source), True)]
    for scope, public in scopes:  # grows as it goes: the module, then its classes
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node, public and not node.name.startswith("_")))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not node.name.startswith("_") or node.name == "__init__" and public):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def compile_ms(source: str, path: str) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def query_path() -> set[str]:
    """The names, such as `blackboard`, of the modules a `python -m nba.cli
    query` child loads."""
    sys.path.insert(0, os.path.dirname(SRC))
    from nba import Blackboard, Lexicon  # only to write the state the child queries

    board = Blackboard(Lexicon.from_tsv("cat\tN\n"))
    board.bind_concept("cat", board.allocate_hub("N"))
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "state.json")
        with open(state, "w", encoding="utf-8") as f:
            json.dump(board.to_snapshot(), f)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
        result = subprocess.run([sys.executable, "-c", QUERY_CHILD, state], capture_output=True, text=True,
                                env=env, timeout=120, check=True)
    return {"__init__" if name == "nba" else name[len("nba."):] for name in result.stderr.split()}


def main() -> int:
    print(f"{'module':<16} {'lines':>6} {'code':>6} {'options':>7} {'compile_ms':>11}")
    totals, path_totals, path = [0, 0, 0, 0.0], [0, 0, 0, 0.0], query_path()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path_name = os.path.join(SRC, name)
        with open(path_name, encoding="utf-8") as f:
            source = f.read()
        row = (source.count("\n"), code_lines(source), options(source), compile_ms(source, path_name))
        totals = [total + value for total, value in zip(totals, row)]
        if name[:-3] in path:
            path_totals = [total + value for total, value in zip(path_totals, row)]
        print(f"{name[:-3]:<16} {row[0]:>6} {row[1]:>6} {row[2]:>7} {row[3]:>11.2f}")
    for label, row in (("total", totals), ("query path", path_totals)):
        print(f"{label:<16} {row[0]:>6} {row[1]:>6} {row[2]:>7} {row[3]:>11.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
