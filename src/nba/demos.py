"""Built-in demonstrations.

Each demo constructs its own lexicon and blackboard, runs the scenario, and
asserts the expected answers, so `nba demo <name>` doubles as an integration
check (nonzero exit on mismatch).
"""

from __future__ import annotations

import functools

from .blackboard import Blackboard
from .config import Config
from .dynamics import BindingGate, PopulationKind
from .encoder import compile, execute, iter_conllu, parse_conllu
from .lexicon import Lexicon, WordType
from .query import parse_query, run_query
from .trace import detect_rise_decline, trace_encode


def _conllu(rows: list[tuple]) -> str:
    lines = []
    for i, (form, upos, head, deprel) in enumerate(rows, start=1):
        lines.append(f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
    return "\n".join(lines) + "\n"


def scenario_fig1a() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    lex.add_word("cat", WordType.NOUN)
    lex.add_word("paw", WordType.NOUN)
    lex.add_word("purr", WordType.VERB)
    lex.add_semantic_relation("cat", "has", "paw")
    lex.add_semantic_relation("cat", "can", "purr")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    checks = [
        ("sem:cat has?", ("paw",)),
        ("sem:cat can?", ("purr",)),
        ("sem:? has paw", ("cat",)),
    ]
    return bb, checks


def scenario_fig1b() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    lex.add_word("cat", WordType.NOUN)
    lex.add_word("run", WordType.VERB)
    lex.add_word("eat", WordType.VERB)
    lex.add_semantic_relation("cat", "do", "run")
    lex.add_semantic_relation("cat", "do", "eat")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    return bb, [("sem:cat do?", ("eat", "run"))]


def demo_fig1c() -> tuple[bool, list[str]]:
    """A sustained working-memory population binds two concepts directly."""
    lines = ["direct working-memory binding (selective and immediate)"]
    lex = Lexicon()
    cat = lex.add_word("cat", WordType.NOUN)
    run = lex.add_word("run", WordType.VERB)
    dog = lex.add_word("dog", WordType.NOUN)
    eat = lex.add_word("eat", WordType.VERB)
    net = lex.network
    wm_active = net.add_population(PopulationKind.WORKING_MEMORY)
    wm_idle = net.add_population(PopulationKind.WORKING_MEMORY)
    net.add_gated_connection(cat.concept, run.concept, BindingGate(wm_active))
    net.add_gated_connection(dog.concept, eat.concept, BindingGate(wm_idle))
    net.inject(wm_active, 1.0)  # bind cat-run; dog-eat stays unbound
    net.inject(cat.concept, 1.0)
    net.inject(dog.concept, 1.0)
    net.step()
    got_run = net.activation(run.concept)
    got_eat = net.activation(eat.concept)
    lines.append(f"  inject cat, dog; step -> run={got_run:.2f} eat={got_eat:.2f}")
    ok = got_run >= 0.5 and got_eat == 0.0
    lines.append("  activation crosses only the gate whose working memory is sustained")
    return ok, lines


def scenario_fig1d() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    for word in ("cat", "dog"):
        lex.add_word(word, WordType.NOUN)
    for word in ("run", "eat"):
        lex.add_word(word, WordType.VERB)
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    n0 = bb.allocate_hub("N")
    v0 = bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    checks = [
        ("cat do?", ("run",)),
        ("? do run", ("cat",)),
        ("dog do?", ()),
        ("? do eat", ()),
    ]
    return bb, checks


_FIG1E_CONLLU = (
    _conllu([("cat", "NOUN", 2, "nsubj"), ("runs", "VERB", 0, "root")])
    + "\n"
    + _conllu([("dog", "NOUN", 2, "nsubj"), ("eats", "VERB", 0, "root")])
)


def scenario_fig1e() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    bb = Blackboard(lex, Config(k_n=4, k_v=4, k_c=1))
    for tokens, arcs in iter_conllu(_FIG1E_CONLLU):
        execute(compile(tokens, arcs), bb)
    checks = [
        ("cat do?", ("runs",)),
        ("dog do?", ("eats",)),
        ("? do runs", ("cat",)),
        ("? do eats", ("dog",)),
    ]
    return bb, checks


_FIG1F_CONLLU = _conllu(
    [
        ("the", "DET", 2, "det"),
        ("cat", "NOUN", 5, "nsubj"),
        ("that", "DET", 4, "det"),
        ("runs", "VERB", 2, "acl:relcl"),
        ("eats", "VERB", 0, "root"),
    ]
)


def scenario_fig1f() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    bb = Blackboard(lex, Config(k_n=4, k_v=4, k_c=2))
    tokens, arcs = parse_conllu(_FIG1F_CONLLU)
    execute(compile(tokens, arcs), bb)
    checks = [
        ("eats clause?", ("runs",)),
        ("? clause runs", ("eats",)),
        ("cat do?", ("eats", "runs")),
    ]
    return bb, checks


_REPORTER_CONLLU = _conllu(
    [
        ("the", "DET", 2, "det"),
        ("reporter", "NOUN", 7, "nsubj"),
        ("that", "DET", 6, "det"),
        ("the", "DET", 5, "det"),
        ("senator", "NOUN", 6, "nsubj"),
        ("attacked", "VERB", 2, "acl:relcl"),
        ("admitted", "VERB", 0, "root"),
        ("the", "DET", 9, "det"),
        ("error", "NOUN", 7, "obj"),
    ]
)


def scenario_reporter() -> tuple[Blackboard, list[tuple]]:
    lex = Lexicon()
    bb = Blackboard(lex)
    tokens, arcs = parse_conllu(_REPORTER_CONLLU)
    execute(compile(tokens, arcs), bb)
    checks = [
        ("? agent admitted", ("reporter",)),
        ("attacked theme?", ("reporter",)),
        ("? agent attacked", ("senator",)),
        ("admitted theme?", ("error",)),
        ("admitted clause?", ("attacked",)),
    ]
    return bb, checks


NELSON_SHORT = _conllu(
    [
        ("ten", "ADJ", 3, "amod"),
        ("sad", "ADJ", 3, "amod"),
        ("students", "NOUN", 0, "root"),
    ]
)

NELSON_LONG = _conllu(
    [
        ("ten", "ADJ", 3, "amod"),
        ("sad", "ADJ", 3, "amod"),
        ("students", "NOUN", 0, "root"),
        ("of", "ADP", 6, "case"),
        ("Bill", "PROPN", 6, "amod"),
        ("Gates", "PROPN", 3, "nmod"),
    ]
)


def _local_maxima(samples) -> int:
    values = [a for _, a in samples]
    count = 0
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1]:
            count += 1
    return count


def demo_nelson() -> tuple[bool, list[str]]:
    """Constituent activity rises while open and declines after closure."""
    lines = ["constituent rise/decline during incremental encoding"]
    ok = True

    lex1 = Lexicon()
    bb1 = Blackboard(lex1)
    tokens, arcs = parse_conllu(NELSON_SHORT)
    program = compile(tokens, arcs)
    _, trace1 = trace_encode(program, bb1)
    report = detect_rise_decline(trace1, program.span(1, 3))
    lines.append(
        f"  ten sad students              span 1..3: rose={report.rose} declined={report.declined}"
    )
    ok = ok and report.rose and report.declined

    lex2 = Lexicon()
    bb2 = Blackboard(lex2)
    tokens, arcs = parse_conllu(NELSON_LONG)
    program = compile(tokens, arcs)
    _, trace2 = trace_encode(program, bb2)
    inner = detect_rise_decline(trace2, program.span(1, 3))
    outer = detect_rise_decline(trace2, program.span(1, 6))
    maxima = _local_maxima(trace2.samples)
    lines.append(
        f"  ten sad students of Bill Gates  inner 1..3: rose={inner.rose} declined={inner.declined}"
    )
    lines.append(
        f"                                  outer 1..6: rose={outer.rose} declined={outer.declined}"
    )
    lines.append(f"  distinct activity peaks: {maxima}")
    ok = ok and inner.rose and inner.declined and outer.rose and outer.declined and maxima >= 2
    return ok, lines


def _query_demo(first: str, scenario, closing: tuple[str, ...]) -> tuple[bool, list[str]]:
    """Ask a scenario's queries, one line each under `first`, then add the
    closing lines."""
    bb, checks = scenario()
    lines, ok = [first], True
    for text, expected in checks:
        got = run_query(bb, parse_query(text)).words
        mark = "ok" if got == expected else f"MISMATCH (expected {expected})"
        lines.append(f"  {text:<24} -> {list(got)}  [{mark}]")
        ok = ok and got == expected
    return ok, lines + list(closing)


# every demo, in the order `nba demo all` runs them: a query demo as (its
# first line, its scenario, its closing lines), any other as its function
_TABLE = {
    "fig1a": ("control-gated semantic relations", scenario_fig1a, ()),
    "fig1b": ("generic semantic gates (no current-event selectivity)", scenario_fig1b,
              ("  both stored actions answer; the generic gate cannot single out",
               "  what the cat is doing right now")),
    "fig1c": demo_fig1c,
    "fig1d": ("noun/verb hubs with binding + control gates", scenario_fig1d, ()),
    "fig1e": ("connection matrix holding cat-runs and dog-eats simultaneously", scenario_fig1e, ()),
    "fig1f": ("hierarchical structure via clause (C) populations", scenario_fig1f, ()),
    "reporter": ("double role: the reporter that the senator attacked admitted the error", scenario_reporter, ()),
    "nelson": demo_nelson,
}

DEMOS = {name: functools.partial(_query_demo, *row) if type(row) is tuple else row for name, row in _TABLE.items()}

# query-answer scenarios reused by the persistence round-trip checks
SCENARIOS = {name: row[1] for name, row in _TABLE.items() if type(row) is tuple}


def demo_names() -> list[str]:
    return list(DEMOS)


def run_demo(name: str) -> tuple[bool, list[str]]:
    if name not in DEMOS:
        raise ValueError(f"unknown demo {name!r}; choose from {', '.join(DEMOS)}")
    return DEMOS[name]()
