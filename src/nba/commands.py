"""The command line's parser and every command but a plain `nba query`.

`nba.cli.main` hands here any argv it does not read itself, and catches the
domain errors the commands raise. The encoder, the tracer and the demos are
imported by the commands that use them, so `state show` and `repl` load only
the query path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .blackboard import Blackboard
from .config import Config
from .errors import NbaError, PoolExhausted
from .lexicon import Lexicon
from .query import parse_query, run_query


class _UsageError(Exception):
    pass


class _DemoNames:
    """The `demo` argument's choices, read from the demos module only when a
    demo is named or help is shown."""

    def _names(self) -> list[str]:
        from . import demos

        return demos.demo_names() + ["all"]

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser(query) -> _Parser:
    """The parser; `query(state, text)` runs `nba query`."""
    parser = _Parser(prog="nba", description="Blackboard sentence encoder and query engine")
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    lexicon_p = sub.add_parser("lexicon", help="lexicon utilities")
    lexicon_sub = lexicon_p.add_subparsers(dest="subcommand", metavar="<subcommand>")
    check_p = lexicon_sub.add_parser("check", help="validate a lexicon TSV (and relations TSV)")
    check_p.add_argument("--lexicon", required=True, type=Path)
    check_p.add_argument("--relations", type=Path)
    check_p.set_defaults(func=cmd_lexicon_check)

    encode_p = sub.add_parser("encode", help="encode CoNLL-U sentences into a state snapshot")
    encode_p.add_argument("--lexicon", required=True, type=Path)
    encode_p.add_argument("--relations", type=Path)
    encode_p.add_argument("--sentence", required=True, type=Path, help="CoNLL-U file (may hold several sentences)")
    encode_p.add_argument("--state", required=True, type=Path, help="output snapshot JSON")
    encode_p.add_argument("--config", type=Path)
    encode_p.set_defaults(func=cmd_encode)

    query_p = sub.add_parser("query", help="run one query against a saved state")
    query_p.add_argument("--state", required=True, type=Path)
    query_p.add_argument("query", help="e.g. \"cat do?\" or \"? do run\" or \"sem:cat has?\"")
    query_p.set_defaults(func=lambda args: query(args.state, args.query))

    repl_p = sub.add_parser("repl", help="interactive query loop")
    repl_p.add_argument("--state", type=Path)
    repl_p.set_defaults(func=cmd_repl)

    trace_p = sub.add_parser("trace", help="encode with an activity trace and export it")
    trace_p.add_argument("--lexicon", required=True, type=Path)
    trace_p.add_argument("--relations", type=Path)
    trace_p.add_argument("--sentence", required=True, type=Path)
    trace_p.add_argument("--out", required=True, type=Path)
    trace_p.add_argument("--format", choices=("csv", "json"), help="default: from --out extension")
    trace_p.add_argument("--config", type=Path)
    trace_p.set_defaults(func=cmd_trace)

    demo_p = sub.add_parser("demo", help="run a built-in demonstration")
    # a metavar keeps argparse from listing the choices while it builds the parser
    demo_p.add_argument("name", metavar="name", choices=_DemoNames(), help="one of: %(choices)s")
    demo_p.set_defaults(func=cmd_demo)

    state_p = sub.add_parser("state", help="state snapshot utilities")
    state_sub = state_p.add_subparsers(dest="subcommand", metavar="<subcommand>")
    show_p = state_sub.add_parser("show", help="summarize a saved state")
    show_p.add_argument("--state", required=True, type=Path)
    show_p.set_defaults(func=cmd_state_show)

    return parser


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _load_config(path: Path | None) -> Config:
    if path is None:
        return Config()
    return Config.from_json(_read(path))


def _load_lexicon(args) -> Lexicon:
    lex = Lexicon.from_tsv(_read(args.lexicon))
    if getattr(args, "relations", None):
        lex.load_relations(_read(args.relations))
    return lex


def _load_state(path: Path) -> Blackboard:
    return Blackboard.from_snapshot(json.loads(_read(path)))


def cmd_lexicon_check(args) -> int:
    lex = Lexicon.from_tsv(_read(args.lexicon))
    n_rel = 0
    if args.relations:
        n_rel = lex.load_relations(_read(args.relations))
    print(f"{len(lex)} entries, {n_rel} semantic relations: ok")
    return 0


def cmd_encode(args) -> int:
    from .encoder import compile, execute, iter_conllu

    config = _load_config(args.config)
    lex = _load_lexicon(args)
    bb = Blackboard(lex, config)
    count = 0
    for tokens, arcs in iter_conllu(_read(args.sentence)):
        program = compile(
            tokens,
            arcs,
            lexicon=lex,
            strict_labels=config.strict_labels,
            strict_words=not config.auto_add_words,
        )
        count += 1
        try:
            execute(program, bb)
        except PoolExhausted as exc:
            exc.sentence = count
            raise
    args.state.write_text(
        json.dumps(bb.to_snapshot(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"encoded {count} sentence(s), {len(bb.active_bindings())} active bindings -> {args.state}")
    return 0


def cmd_repl(args) -> int:
    bb = _load_state(args.state) if args.state else None
    return run_repl(bb, sys.stdin, sys.stdout)


def run_repl(bb: Blackboard | None, in_stream, out_stream) -> int:
    """Query loop: the mini-language plus :load, :release-all, :quit."""
    def say(text=""):
        out_stream.write(text + "\n")
        out_stream.flush()

    say("query repl; :load <state.json>, :release-all, :quit")
    while True:
        out_stream.write("nba> ")
        out_stream.flush()
        line = in_stream.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            break
        try:
            if line.startswith(":load"):
                parts = line.split(None, 1)
                if len(parts) != 2:
                    say("usage: :load <state.json>")
                    continue
                bb = _load_state(Path(parts[1]))
                say(f"loaded state with {len(bb.active_bindings())} active bindings")
            elif line == ":release-all":
                if bb is None:
                    say("no state loaded")
                    continue
                bb.release_all()
                say("released all bindings")
            else:
                if bb is None:
                    say("no state loaded; use :load <state.json>")
                    continue
                answer = run_query(bb, parse_query(line))
                say(" ".join(answer.words) if answer else "(no answer)")
        except (NbaError, OSError, json.JSONDecodeError) as exc:
            say(f"error: {exc}")
    return 0


def cmd_trace(args) -> int:
    from .encoder import compile, iter_conllu
    from .trace import detect_rise_decline, export, trace_encode

    config = _load_config(args.config)
    lex = _load_lexicon(args)
    bb = Blackboard(lex, config)
    fmt = args.format or ("json" if args.out.suffix.lower() == ".json" else "csv")
    combined = None
    spans_seen = []
    for tokens, arcs in iter_conllu(_read(args.sentence)):
        program = compile(
            tokens,
            arcs,
            lexicon=lex,
            strict_labels=config.strict_labels,
            strict_words=not config.auto_add_words,
        )
        _, tr = trace_encode(program, bb)
        if combined is None:
            combined = tr
        else:
            for s, a in tr.samples:
                if not combined.samples or s > combined.samples[-1][0]:
                    combined.add_sample(s, a)
            combined.markers.extend(tr.markers)
        for span in program.spans:
            spans_seen.append((program.text, span, tr))
    if combined is None:
        print("no sentences found", file=sys.stderr)
        return 2
    args.out.write_bytes(export(combined, fmt))
    for text, span, tr in spans_seen:
        report = detect_rise_decline(tr, span)
        print(
            f"{text!r} span {span.start}..{span.end}: "
            f"rose={report.rose} declined={report.declined} peak={report.peak:g}"
        )
    print(f"trace ({fmt}, {len(combined.samples)} samples) -> {args.out}")
    return 0


def cmd_demo(args) -> int:
    from . import demos

    names = demos.demo_names() if args.name == "all" else [args.name]
    all_ok = True
    for name in names:
        ok, lines = demos.run_demo(name)
        print(f"demo {name}: {'PASS' if ok else 'FAIL'}")
        for line in lines:
            print(f"  {line}")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def cmd_state_show(args) -> int:
    bb = _load_state(args.state)
    cfg = bb.config
    print(f"pools: N={cfg.k_n} V={cfg.k_v} C={cfg.k_c}")
    print(f"relations: {', '.join(bb.relation_names)}")
    print(f"lexicon: {len(bb.lexicon)} words, {len(bb.lexicon.semantic_triples)} semantic relations")
    print(f"gated links: {bb.connection_count()}")
    active = bb.active_bindings()
    print(f"active bindings: {len(active)}")
    for b in active:
        if b.kind == "concept":
            print(f"  {b.word} @ {b.hub}")
        else:
            print(f"  {b.from_hub} -[{b.relation}]-> {b.to_hub}")
    return 0


def run(argv: list[str], query) -> int:
    """Parse `argv` and run its command; `query(state, text)` runs `nba
    query`. Help and usage errors are printed here; domain errors are
    raised."""
    parser = _build_parser(query)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    return args.func(args)
