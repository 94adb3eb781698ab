#!/usr/bin/env python3
"""Export activity traces for the constituent rise/decline phrases of the
`nelson` demo."""

import argparse
from pathlib import Path

from nba.blackboard import Blackboard
from nba.demos import NELSON_LONG, NELSON_SHORT
from nba.encoder import compile, parse_conllu
from nba.lexicon import Lexicon
from nba.trace import detect_rise_decline, export, trace_encode

PHRASES = {"ten_sad_students": NELSON_SHORT, "ten_sad_students_of_bill_gates": NELSON_LONG}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("traces"))
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, text in PHRASES.items():
        tokens, arcs = parse_conllu(text)
        program = compile(tokens, arcs)
        _, trace = trace_encode(program, Blackboard(Lexicon()))
        path = args.outdir / f"{name}.{args.format}"
        path.write_bytes(export(trace, args.format))
        print(f"{name}: {len(trace.samples)} samples -> {path}")
        for span in program.spans:
            report = detect_rise_decline(trace, span)
            print(
                f"  span {span.start}..{span.end}: rose={report.rose} "
                f"declined={report.declined} peak={report.peak:g}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
