#!/usr/bin/env python3
"""How large nba's sources are: per module of `src/nba`, and in total, the
lines, the code lines and the median milliseconds `compile()` takes.

    python3 scripts/size.py

Code lines are the lines that hold a token of code: blank lines, comments and
docstrings (the first string of a module, class or function) are left out. A
multi-line statement counts each of its lines; a string that spans lines
counts each line it spans. Compiling is what importing a module costs when no
bytecode is cached, as under `PYTHONDONTWRITEBYTECODE=1`.
"""

import ast
import io
import os
import statistics
import time
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nba")
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


def compile_ms(source: str, path: str) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> int:
    print(f"{'module':<16} {'lines':>6} {'code':>6} {'compile_ms':>11}")
    totals = [0, 0, 0.0]
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        row = (source.count("\n"), code_lines(source), compile_ms(source, path))
        totals = [total + value for total, value in zip(totals, row)]
        print(f"{name[:-3]:<16} {row[0]:>6} {row[1]:>6} {row[2]:>11.2f}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6} {totals[2]:>11.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
