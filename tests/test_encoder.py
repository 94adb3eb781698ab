"""CoNLL-U ingestion, program compilation, incremental execution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba import demos
from nba.blackboard import Blackboard
from nba.config import FAMILY_GRIDS, Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.encoder import (
    RELATION_OF,
    Allocate,
    BindConcept,
    BindHubs,
    CloseConstituent,
    ConstituentSpan,
    ControlProgram,
    DependencyArc,
    Token,
    compile,
    execute,
    iter_conllu,
    parse_conllu,
)
from nba.errors import (
    NbaError,
    NotATree,
    ParseError,
    PoolExhausted,
    UnknownUpos,
    UnknownWord,
    UnmappedLabel,
)
from nba.lexicon import POOL_FOR_TYPE, Lexicon, WordType, load_lexicon
from nba.query import parse_query, run_query

CAT_RUNS = (
    "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
)


def test_parse_conllu_two_tokens_one_arc():
    tokens, arcs = parse_conllu(CAT_RUNS)
    assert [t.surface for t in tokens] == ["cat", "runs"]
    assert tokens[0].word_type is WordType.NOUN
    assert DependencyArc(2, 1, "nsubj") in arcs
    assert DependencyArc(0, 2, "root") in arcs


def test_parse_conllu_comments_and_multiple_sentences():
    text = "# s1\n" + CAT_RUNS + "\n# s2\n" + CAT_RUNS
    sentences = list(iter_conllu(text))
    assert len(sentences) == 2
    with pytest.raises(ParseError):
        parse_conllu(text)


def test_parse_conllu_errors():
    with pytest.raises(ParseError):
        parse_conllu("1\tcat\tNOUN\n")  # missing columns
    with pytest.raises(UnknownUpos):
        parse_conllu("1\tcat\t_\tPRON\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(ParseError):
        parse_conllu("2\tcat\t_\tNOUN\t_\t_\t0\troot\t_\t_\n")  # ids not from 1
    with pytest.raises(ParseError):
        parse_conllu("")
    cyclic = (
        "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\truns\t_\tVERB\t_\t_\t1\tdep\t_\t_\n"
    )
    with pytest.raises(NotATree):
        parse_conllu(cyclic)
    self_head = "1\tcat\t_\tNOUN\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(NotATree):
        parse_conllu(self_head)


@pytest.mark.parametrize("text, message, line", [
    ("x\tcat\t_\tNOUN\t_\t_\t0\troot\t_\t_\n", "bad token id 'x'", 1),
    (CAT_RUNS.replace("runs", "_"), "missing FORM", 2),
    ("1\t\t_\tNOUN\t_\t_\t0\troot\t_\t_\n", "missing FORM", 1),
    ("1\tcat\t_\tNOUN\t_\t_\tx\troot\t_\t_\n", "bad HEAD 'x'", 1),
    (CAT_RUNS.replace("root", "_"), "missing DEPREL", 2),
    (CAT_RUNS.replace("nsubj", ""), "missing DEPREL", 1),
], ids=["bad-id", "form-underscore", "form-empty", "bad-head", "deprel-underscore", "deprel-empty"])
def test_a_bad_conllu_row_is_refused_naming_its_line(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_conllu(text)
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)


def test_default_relation_map_lookups():
    assert RELATION_OF.get("nsubj") == "agent"
    assert RELATION_OF.get("det") == "ignore"
    assert RELATION_OF.get("xcomp") is None


def test_compile_cat_runs_exact_program():
    tokens, arcs = parse_conllu(CAT_RUNS)
    program = compile(tokens, arcs)
    assert program.instructions == [
        Allocate(kind="N", slot=0, position=1),
        BindConcept(word="cat", slot=0, word_type=WordType.NOUN, position=1),
        Allocate(kind="V", slot=1, position=2),
        BindConcept(word="runs", slot=1, word_type=WordType.VERB, position=2),
        BindHubs(from_slot=0, to_slot=1, relation="agent", position=2),
        CloseConstituent(span_index=0, start=1, end=2, position=2),
    ]
    assert len(program.spans) == 1
    assert (program.spans[0].start, program.spans[0].end) == (1, 2)


def test_execute_cat_runs_report_and_query():
    tokens, arcs = parse_conllu(CAT_RUNS)
    bb = Blackboard(Lexicon(), Config(k_n=2, k_v=2, k_c=1))
    report = execute(compile(tokens, arcs), bb)
    assert report.bindings == [
        {"kind": "concept", "word": "cat", "hub": "N0"},
        {"kind": "concept", "word": "runs", "hub": "V0"},
        {"kind": "cell", "from": "N0", "to": "V0", "relation": "agent"},
    ]
    assert report.hubs_used == ["N0", "V0"]
    assert run_query(bb, parse_query("cat do?")).words == ("runs",)


HORSE_RIDES = (
    "1\thorse\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\trides\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tastronaut\t_\tNOUN\t_\t_\t2\tobj\t_\t_\n"
)


def test_agent_and_theme_cells_for_transitive_sentence():
    tokens, arcs = parse_conllu(HORSE_RIDES)
    bb = Blackboard(Lexicon(), Config(k_n=2, k_v=2, k_c=1))
    report = execute(compile(tokens, arcs), bb)
    cells = [b for b in report.bindings if b["kind"] == "cell"]
    assert {"kind": "cell", "from": "N0", "to": "V0", "relation": "agent"} in cells
    assert {"kind": "cell", "from": "V0", "to": "N1", "relation": "theme"} in cells
    assert run_query(bb, parse_query("? agent rides")).words == ("horse",)
    assert run_query(bb, parse_query("rides theme?")).words == ("astronaut",)


def test_unmapped_label_strict_vs_lenient():
    text = (
        "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\twants\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tfood\t_\tNOUN\t_\t_\t2\txcomp\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    with pytest.raises(UnmappedLabel):
        compile(tokens, arcs, strict_labels=True)
    program = compile(tokens, arcs, strict_labels=False)
    relations = [i.relation for i in program.instructions if isinstance(i, BindHubs)]
    assert relations == ["agent"]


def test_strict_words_requires_lexicon_membership():
    tokens, arcs = parse_conllu(CAT_RUNS)
    lex = load_lexicon("cat\tN\n")
    with pytest.raises(UnknownWord):
        compile(tokens, arcs, lexicon=lex, strict_words=True)


def test_auto_add_at_execute():
    tokens, arcs = parse_conllu(CAT_RUNS)
    lex = Lexicon()
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1))
    execute(compile(tokens, arcs), bb)
    assert "cat" in lex and "runs" in lex
    assert lex.classify("runs") is WordType.VERB
    assert run_query(bb, parse_query("cat do?")).words == ("runs",)


def test_strict_mode_unknown_word_at_execute():
    tokens, arcs = parse_conllu(CAT_RUNS)
    bb = Blackboard(load_lexicon("cat\tN\n"), Config(k_n=2, k_v=2, k_c=1, auto_add_words=False))
    with pytest.raises(UnknownWord):
        execute(compile(tokens, arcs), bb)


def test_two_sentences_one_blackboard_no_cross_talk():
    dog_eats = (
        "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\teats\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    bb = Blackboard(Lexicon(), Config(k_n=4, k_v=4, k_c=1))
    for text in (CAT_RUNS, dog_eats):
        tokens, arcs = parse_conllu(text)
        execute(compile(tokens, arcs), bb)
    assert run_query(bb, parse_query("cat do?")).words == ("runs",)
    assert run_query(bb, parse_query("dog do?")).words == ("eats",)


def test_pool_exhaustion_propagates():
    text = (
        "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tchases\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tcat\t_\tNOUN\t_\t_\t2\tobj\t_\t_\n"
        "4\tin\t_\tADP\t_\t_\t5\tcase\t_\t_\n"
        "5\tpark\t_\tNOUN\t_\t_\t3\tnmod\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    bb = Blackboard(Lexicon(), Config(k_n=2, k_v=2, k_c=1))
    with pytest.raises(PoolExhausted):
        execute(compile(tokens, arcs), bb)


def test_prep_attachment_queries():
    text = (
        "1\tstudents\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "2\tof\t_\tADP\t_\t_\t3\tcase\t_\t_\n"
        "3\tgates\t_\tPROPN\t_\t_\t1\tnmod\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    bb = Blackboard(Lexicon())
    execute(compile(tokens, arcs), bb)
    assert run_query(bb, parse_query("students prep:of?")).words == ("gates",)
    assert run_query(bb, parse_query("? prep:of gates")).words == ("students",)


def test_nmod_without_case_is_unmapped():
    text = (
        "1\tstudents\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "2\tgates\t_\tPROPN\t_\t_\t1\tnmod\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    with pytest.raises(UnmappedLabel):
        compile(tokens, arcs)
    assert compile(tokens, arcs, strict_labels=False) is not None


def test_replay_determinism():
    tokens, arcs = parse_conllu(HORSE_RIDES)
    program = compile(tokens, arcs)
    boards = []
    for _ in range(2):
        bb = Blackboard(Lexicon(), Config(k_n=2, k_v=2, k_c=1))
        execute(program, bb)
        boards.append(bb)
    assert boards[0].snapshot_bytes() == boards[1].snapshot_bytes()


def test_incrementality_prefix_queries():
    # after the prefix covering tokens 1..i, relations inside 1..i answer
    tokens = [
        Token(1, "big", WordType.ADJECTIVE),
        Token(2, "horse", WordType.NOUN),
        Token(3, "rides", WordType.VERB),
        Token(4, "astronaut", WordType.NOUN),
    ]
    arcs = [
        DependencyArc(2, 1, "amod"),
        DependencyArc(3, 2, "nsubj"),
        DependencyArc(0, 3, "root"),
        DependencyArc(3, 4, "obj"),
    ]
    program = compile(tokens, arcs)
    expected_by_prefix = {
        2: [("horse modifier?", ("big",))],
        3: [("horse modifier?", ("big",)), ("horse agent?", ("rides",))],
        4: [
            ("horse modifier?", ("big",)),
            ("horse agent?", ("rides",)),
            ("rides theme?", ("astronaut",)),
        ],
    }
    for upto, checks in expected_by_prefix.items():
        bb = Blackboard(Lexicon(), Config(k_n=4, k_v=2, k_c=1))
        prefix = ControlProgram(
            instructions=[i for i in program.instructions if i.position <= upto],
            spans=program.spans,
            tokens=program.tokens,
            text=program.text,
        )
        execute(prefix, bb)
        for text, expected in checks:
            assert run_query(bb, parse_query(text)).words == expected


RELCL = (
    "1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\treporter\t_\tNOUN\t_\t_\t7\tnsubj\t_\t_\n"
    "3\tthat\t_\tDET\t_\t_\t6\tdet\t_\t_\n"
    "4\tthe\t_\tDET\t_\t_\t5\tdet\t_\t_\n"
    "5\tsenator\t_\tNOUN\t_\t_\t6\tnsubj\t_\t_\n"
    "6\tattacked\t_\tVERB\t_\t_\t2\tacl:relcl\t_\t_\n"
    "7\tadmitted\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "8\tthe\t_\tDET\t_\t_\t9\tdet\t_\t_\n"
    "9\terror\t_\tNOUN\t_\t_\t7\tobj\t_\t_\n"
)


def test_relative_clause_double_role():
    tokens, arcs = parse_conllu(RELCL)
    bb = Blackboard(Lexicon())
    report = execute(compile(tokens, arcs), bb)
    assert "reporter" in run_query(bb, parse_query("? agent admitted"))
    assert "reporter" in run_query(bb, parse_query("attacked theme?"))
    # reporter holds both roles through one hub
    hubs = {b["hub"] for b in report.bindings if b.get("word") == "reporter"}
    assert len(hubs) == 1


def test_subject_gap_relative_clause():
    text = (
        "1\tcat\t_\tNOUN\t_\t_\t4\tnsubj\t_\t_\n"
        "2\tthat\t_\tDET\t_\t_\t3\tdet\t_\t_\n"
        "3\truns\t_\tVERB\t_\t_\t1\tacl:relcl\t_\t_\n"
        "4\teats\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    bb = Blackboard(Lexicon())
    execute(compile(tokens, arcs), bb)
    assert run_query(bb, parse_query("? agent runs")).words == ("cat",)
    assert run_query(bb, parse_query("eats clause?")).words == ("runs",)


def test_same_surface_twice_gets_two_hubs():
    text = (
        "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tchases\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tdog\t_\tNOUN\t_\t_\t2\tobj\t_\t_\n"
    )
    tokens, arcs = parse_conllu(text)
    bb = Blackboard(Lexicon())
    report = execute(compile(tokens, arcs), bb)
    hubs = [b["hub"] for b in report.bindings if b.get("word") == "dog"]
    assert len(set(hubs)) == 2
    assert run_query(bb, parse_query("dog do?")).words == ("chases",)
    assert run_query(bb, parse_query("chases theme?")).words == ("dog",)


@pytest.mark.parametrize("seed", range(10))
def test_each_span_opens_at_the_first_instruction_at_or_past_its_start(seed):
    rng = random.Random(seed)
    nouns, verbs, adjs = make_word_lists(12, 6, 4)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), Config(k_n=20, k_v=8, k_c=4, prep_labels=("of", "in")))
    for _ in range(2):
        program = compile(*random_tree_sentence(rng, nouns, verbs, adjs)[:2])
        start = bb.network.time
        report = execute(program, bb)
        # the clock as each instruction began
        began = [start] + [step for _, step in report.instruction_steps[:-1]]
        assert program.spans
        for span in program.spans:
            first = next(i for i, instr in enumerate(program.instructions) if instr.position >= span.start)
            assert span.open_step == began[first]


def _conllu(*rows):
    """CoNLL-U text from (form, upos, head, deprel) rows, numbered from 1."""
    return "".join(
        f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"
        for i, (form, upos, head, deprel) in enumerate(rows, start=1)
    )


@pytest.mark.parametrize("text, expected", [
    # a clause verb whose nsubj is not its first dependent has its own subject,
    # so the head noun fills its object gap
    (_conllu(("reporter", "NOUN", 0, "root"), ("that", "DET", 4, "det"),
             ("senator", "NOUN", 4, "nsubj"), ("attacked", "VERB", 1, "acl:relcl")),
     [(1, 2, "agent"), (2, 0, "theme")]),
    # an nmod whose case is not its first dependent; the first case names the prep
    (_conllu(("students", "NOUN", 0, "root"), ("the", "DET", 5, "det"), ("of", "ADP", 5, "case"),
             ("in", "ADP", 5, "case"), ("gates", "PROPN", 1, "nmod")),
     [(0, 1, "prep:of")]),
])
def test_compile_finds_a_dependent_in_any_place(text, expected):
    program = compile(*parse_conllu(text))
    binds = [(i.from_slot, i.to_slot, i.relation) for i in program.instructions if isinstance(i, BindHubs)]
    assert binds == expected


@pytest.mark.parametrize("heads, message", [
    ((2, 1), "cyclic heads"),
    ((2, 3, 2, 0), "cyclic heads"),  # 1 -> 2 -> 3 -> 2: the cycle is entered from a tail
    ((0, 5), "head 5 out of range"),
])
def test_bad_trees_are_refused_with_their_message(heads, message):
    """Parsed, or handed to `compile` directly."""
    tokens = [Token(i, f"w{i}", WordType.NOUN) for i in range(1, len(heads) + 1)]
    arcs = [DependencyArc(head, i, "dep") for i, head in enumerate(heads, start=1)]
    text = _conllu(*((t.surface, "NOUN", head, "dep") for t, head in zip(tokens, heads)))
    for refuse in (lambda: parse_conllu(text), lambda: compile(tokens, arcs)):
        with pytest.raises(NotATree) as info:
            refuse()
        assert str(info.value) == message


@pytest.mark.parametrize("extra, message", [
    (DependencyArc(2, 3, "obj"), "dependent 3 out of range"),
    (DependencyArc(2, 0, "dep"), "dependent 0 out of range"),
    (DependencyArc(0, 1, "dep"), "token 1 has more than one head"),
])
def test_arcs_that_name_no_token_or_two_heads_are_refused_by_compile(extra, message):
    """Arcs handed to `compile` by a library caller, one arc too many for
    the tree over `cat runs`, are refused with their message."""
    tokens = [Token(1, "cat", WordType.NOUN), Token(2, "runs", WordType.VERB)]
    arcs = [DependencyArc(2, 1, "nsubj"), DependencyArc(0, 2, "root"), extra]
    with pytest.raises(NotATree) as info:
        compile(tokens, arcs)
    assert str(info.value) == message


@pytest.mark.parametrize("indexes, message", [
    ((1, 1), "token 1 appears more than once"),
    ((1, 3), "token 3 has no head"),
    ((0, 2), "token 0 has no head"),
])
def test_token_indexes_not_one_to_n_are_refused_naming_the_token(indexes, message):
    """A token list from a library caller, whose arcs form a tree over 1..n
    but whose indexes repeat or fall outside it, is refused by `compile`
    with a located error, not a `KeyError` from its pool lookup."""
    tokens = [Token(index, surface, word_type)
              for index, (surface, word_type) in zip(indexes, (("cat", WordType.NOUN), ("runs", WordType.VERB)))]
    arcs = [DependencyArc(2, 1, "nsubj"), DependencyArc(0, 2, "root")]
    for strict in (True, False):
        with pytest.raises(NotATree) as info:
            compile(tokens, arcs, strict_labels=strict)
        assert str(info.value) == message


_FIG1D = _conllu(("cat", "NOUN", 2, "nsubj"), ("run", "VERB", 0, "root"))


@pytest.mark.parametrize("text, config", [
    (_FIG1D, Config(k_n=2, k_v=2, k_c=1)),
    (demos._REPORTER_CONLLU, Config()),
])
def test_a_report_reads_the_same_before_and_after_a_release(text, config):
    """`execute` reports on two fresh boards compare equal and print alike.
    Its bindings and hubs read the same before and after `release_all`,
    whether first read before it or after it, and it is not hashable."""
    boards = [Blackboard(Lexicon(), config) for _ in range(2)]
    early, late = (execute(compile(*parse_conllu(text)), bb) for bb in boards)
    bindings, hubs = early.bindings, early.hubs_used
    assert bindings[0]["kind"] == "concept" and any(b["kind"] == "cell" for b in bindings)
    assert hubs and len(set(hubs)) == len(hubs)
    for bb in boards:
        bb.release_all()
    assert early.bindings == bindings and early.hubs_used == hubs
    assert late.bindings == bindings and late.hubs_used == hubs
    assert early == late and repr(early) == repr(late)
    assert repr(early) == (f"ConnectionPathReport(bindings={bindings!r}, hubs_used={hubs!r}, "
                           f"instruction_steps={early.instruction_steps!r})")
    with pytest.raises(TypeError):
        hash(early)


# ------------------------------------------- differential: a reference compile

def _reference_validate(tokens, arcs):
    """Walk each token up to the root, refusing as `validate_tree` does."""
    n, heads = len(tokens), {}
    for arc in arcs:
        if arc.dependent == arc.head:
            raise NotATree(f"token {arc.dependent} is its own head")
        if not 0 <= arc.head <= n:
            raise NotATree(f"head {arc.head} out of range")
        if not 1 <= arc.dependent <= n:
            raise NotATree(f"dependent {arc.dependent} out of range")
        if arc.dependent in heads:
            raise NotATree(f"token {arc.dependent} has more than one head")
        heads[arc.dependent] = arc.head
    for tok in tokens:
        if tok.index not in heads:
            raise NotATree(f"token {tok.index} has no head")
    rooted = {0}
    for tok in tokens:
        path, cur = set(), tok.index
        while cur not in rooted:
            if cur in path:
                raise NotATree("cyclic heads")
            path.add(cur)
            cur = heads[cur]
        rooted |= path


def _reference_spans(children):
    """Each head's descendants as a set, by recursion; the events as a set,
    sorted by (close, -start, end)."""
    desc = {}

    def collect(node):
        if node not in desc:
            desc[node] = set()
            for child in children.get(node, ()):
                desc[node] |= {child} | collect(child)
        return desc[node]

    events = set()
    for head in sorted(children):
        kids = collect(head) if head else None
        if kids:
            lo, hi = min(kids | {head}), max(kids | {head})
            if lo < head:
                events.add((head, lo, head, head))
            events.add((hi, lo, hi, head))
    spans, closing = [], {}
    for close, start, end, head in sorted(events, key=lambda e: (e[0], -e[1], e[2])):
        closing.setdefault(close, []).append(len(spans))
        spans.append(ConstituentSpan(start, end, head))
    return spans, closing


def _reference_compile(tokens, arcs, strict_labels):
    """The instructions and spans of a sentence under the encoder's relation
    table, derived arc by arc, with each position's emissions sorted by a key."""
    _reference_validate(tokens, arcs)
    tok = {t.index: t for t in tokens}
    head_arc = {a.dependent: a for a in arcs}
    children = {}
    for a in arcs:
        children.setdefault(a.head, []).append(a.dependent)
    pool = {i: POOL_FOR_TYPE.get(t.word_type) for i, t in tok.items()}
    emissions = {}

    def emit(at, *record):
        emissions.setdefault(at, []).append(record)

    def skip(reason):
        if strict_labels:
            raise UnmappedLabel(reason)

    for arc in arcs:
        mapped = RELATION_OF.get(arc.label) if arc.head else "ignore"
        head, dep, at = arc.head, arc.dependent, max(arc.head, arc.dependent)
        if mapped is None:
            skip(f"no mapping for dependency label {arc.label!r}")
        elif mapped == "clause":
            if pool[dep] != "V" or pool[head] != "N":
                skip(f"clause arc needs a verb under a nominal head ({arc.label})")
                continue
            if any(RELATION_OF.get(head_arc[d].label) == "agent" for d in children.get(dep, ())):
                emit(at, "bind", dep, head, "theme")
            else:
                emit(at, "bind", head, dep, "agent")
            governor = head
            while governor and pool[governor] != "V":
                governor = head_arc[governor].head
            if governor:
                emit(max(dep, governor), "chain", governor, dep)
        elif mapped != "ignore":
            relation = mapped
            if mapped == "prep":
                case = [d for d in children.get(dep, ()) if head_arc[d].label == "case"]
                if not case:
                    skip("nmod arc without a case marker")
                    continue
                relation = f"prep:{tok[case[0]].surface.casefold()}"
            ((from_pool, to_pool),) = FAMILY_GRIDS[mapped]
            src, dst = (dep, head) if mapped == "agent" else (head, dep)
            if pool[src] != from_pool or pool[dst] != to_pool:
                skip(f"label {arc.label!r} endpoints do not fit pools {from_pool}->{to_pool}")
            else:
                emit(at, "bind", src, dst, relation)

    spans, closing = _reference_spans(children)
    instructions, slot_of = [], {}

    def next_slot():  # one per Allocate
        return sum(isinstance(i, Allocate) for i in instructions)

    for pos in range(1, len(tokens) + 1):
        if pool[pos] is not None:
            slot_of[pos] = next_slot()
            instructions += [Allocate(pool[pos], slot_of[pos], pos),
                             BindConcept(tok[pos].surface.casefold(), slot_of[pos], tok[pos].word_type, pos)]
        for record in sorted(emissions.get(pos, []), key=lambda r: (r[0] != "bind", r[1], r[2])):
            if record[0] == "bind":
                instructions.append(BindHubs(slot_of[record[1]], slot_of[record[2]], record[3], pos))
            else:
                c = next_slot()
                instructions += [Allocate("C", c, pos), BindHubs(slot_of[record[1]], c, "clause", pos),
                                 BindHubs(c, slot_of[record[2]], "clause", pos)]
        for k in closing.get(pos, []):
            instructions.append(CloseConstituent(k, spans[k].start, spans[k].end, pos))
    return instructions, spans


_UPOS_OF = {WordType.NOUN: "NOUN", WordType.VERB: "VERB", WordType.ADJECTIVE: "ADJ",
            WordType.PREPOSITION: "ADP", WordType.DETERMINER: "DET", WordType.OTHER: "PUNCT"}
_LABELS = ("nsubj", "obj", "amod", "nmod", "case", "acl:relcl", "det", "root", "punct", "acl", "xcomp")
_WORDS = make_word_lists(20, 8, 8)


@st.composite
def _mutated_trees(draw):
    """A `random_tree_sentence` tree, then up to three mutations: a
    reassigned head (possibly out of range), a relabelled arc or a swapped
    UPOS."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tokens, arcs, _ = random_tree_sentence(rng, *_WORDS, preps=("of", "in", "on"))
    n = len(tokens)
    for _ in range(draw(st.integers(0, 3))):
        i, what = draw(st.integers(0, n - 1)), draw(st.sampled_from(("head", "label", "upos")))
        t, a = tokens[i], arcs[i]
        if what == "head":
            arcs[i] = DependencyArc(draw(st.integers(0, n + 1)), a.dependent, a.label)
        elif what == "label":
            arcs[i] = DependencyArc(a.head, a.dependent, draw(st.sampled_from(_LABELS)))
        else:
            tokens[i] = Token(t.index, t.surface, draw(st.sampled_from(list(_UPOS_OF))))
    return tokens, arcs


def _outcome(run):
    try:
        return run()
    except NbaError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_mutated_trees())
def test_compile_matches_a_reference_derivation(tree):
    """Programs and spans equal a derivation kept here, with set-based spans
    and keyed emission sorts; a tree that is refused is refused with the
    same error when parsed and when compiled under either label policy."""
    tokens, arcs = tree
    text = _conllu(*((t.surface, _UPOS_OF[t.word_type], a.head, a.label) for t, a in zip(tokens, arcs)))
    parsed = _outcome(lambda: parse_conllu(text))
    for strict in (True, False):
        expected = _outcome(lambda: _reference_compile(tokens, arcs, strict))
        program = _outcome(lambda: compile(tokens, arcs, strict_labels=strict))
        got = program if isinstance(program, tuple) else (program.instructions, program.spans)
        assert got == expected
        if isinstance(program, ControlProgram):
            assert program.text == " ".join(t.surface for t in tokens) and program.tokens == tokens
        if expected[0] is NotATree:
            assert parsed == expected
    if parsed[0] is not NotATree:
        assert parsed == (tokens, arcs)
