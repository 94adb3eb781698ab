"""Query engine: parsing, flow-based answers, oracle equivalence."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba import labels
from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.demos import scenario_fig1d
from nba.dynamics import PopulationKind
from nba.encoder import compile, execute
from nba.errors import QuerySyntaxError, UnknownRelation, UnknownWord
from nba.lexicon import WordType, load_lexicon
from nba.oracle import OracleStore
from nba.query import EPISODIC, SEMANTIC, AnswerSet, Query, parse_query, run_query
from test_dynamics import _check_indexes


def test_parse_query_forward():
    q = parse_query("cat do?")
    assert q == Query(cue="cat", relation="do", direction="forward", mode=EPISODIC)


def test_parse_query_reverse():
    q = parse_query("? do run")
    assert q == Query(cue="run", relation="do", direction="reverse", mode=EPISODIC)


def test_parse_query_semantic_prefix():
    assert parse_query("sem:cat has?").mode == SEMANTIC
    assert parse_query("sem: ? has paw").direction == "reverse"


def test_parse_query_rejects_malformed():
    for bad in ("cat ?", "cat", "? do", "cat do? extra", ""):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


def test_answer_set_ordering_and_membership():
    answers = AnswerSet.from_pairs([("b", 0.7), ("a", 0.7), ("c", 1.0)])
    assert answers.words == ("c", "a", "b")
    assert "a" in answers and "z" not in answers
    assert len(answers) == 3 and bool(answers)
    assert not AnswerSet.from_pairs([])


def test_oracle_store_basics():
    oracle = OracleStore()
    oracle.record("cat", "agent", "runs")
    assert oracle.query(Query("cat", "agent")).words == ("runs",)
    assert oracle.query(Query("runs", "agent", direction="reverse")).words == ("cat",)
    assert oracle.query(Query("cat", "theme")).words == ()
    assert oracle.query(Query("cat", "agent", mode=SEMANTIC)).words == ()


def test_oracle_store_is_exact_set_scan():
    rng = random.Random(3)
    oracle = OracleStore()
    triples = set()
    for _ in range(1000):
        t = (f"s{rng.randint(0, 20)}", f"r{rng.randint(0, 3)}", f"o{rng.randint(0, 20)}")
        triples.add(t)
        oracle.record(*t)
    for s in {t[0] for t in triples}:
        for r in {t[1] for t in triples}:
            expected = sorted(o for (s2, r2, o) in triples if s2 == s and r2 == r)
            assert list(oracle.query(Query(s, r)).words) == expected


def _scan(triples, query):
    """A query answered by a linear scan over recorded (mode, subject,
    relation, object) triples, as the oracle answered before its index."""
    cue = query.cue.casefold()
    if query.direction == "forward":
        matches = {o for (m, s, r, o) in triples if m == query.mode and s == cue and r == query.relation}
    else:
        matches = {s for (m, s, r, o) in triples if m == query.mode and o == cue and r == query.relation}
    return AnswerSet.from_words(sorted(matches))


# words that casefold together ("ß", "SS" and "ss"; "Cat" and "cat") and relations that do not
_ORACLE_WORDS = st.sampled_from(["cat", "Cat", "CAT", "dog", "ß", "SS", "ss"])
_ORACLE_RELATIONS = st.sampled_from(["agent", "Agent", "has"])
_ORACLE_MODES = st.sampled_from([EPISODIC, SEMANTIC])


@given(ops=st.lists(st.one_of(
    st.tuples(st.just("record"), _ORACLE_WORDS, _ORACLE_RELATIONS, _ORACLE_WORDS, _ORACLE_MODES),
    st.tuples(st.just("query"), _ORACLE_WORDS, _ORACLE_RELATIONS, st.sampled_from(["forward", "reverse"]),
              _ORACLE_MODES),
    st.just(("clear",)),
), max_size=40))
@settings(max_examples=200, deadline=None)
def test_oracle_index_answers_as_a_linear_scan(ops):
    """Duplicate records, casefolded words, both modes and directions, and
    `clear()`: the indexed oracle answers every query, lists the same
    triples and counts them as a linear scan over a set of triples does."""
    oracle, triples = OracleStore(), set()
    for op, *args in ops:
        if op == "record":
            s, r, o, mode = args
            oracle.record(s, r, o, mode)
            triples.add((mode, s.casefold(), r, o.casefold()))
        elif op == "clear":
            oracle.clear()
            triples.clear()
        else:
            query = Query(*args)
            assert oracle.query(query) == _scan(triples, query)
        assert oracle.triples() == sorted(triples)
        assert len(oracle) == len(triples)
    for cue in ("cat", "dog", "ss"):
        for relation in ("agent", "Agent", "has"):
            for direction in ("forward", "reverse"):
                for mode in (EPISODIC, SEMANTIC):
                    query = Query(cue, relation, direction, mode)
                    assert oracle.query(query) == _scan(triples, query)


def _encoded_board():
    lex = load_lexicon("cat\tN\ndog\tN\nrun\tV\neat\tV\nruns\tV\n")
    lex.add_semantic_relation("cat", "do", "run")
    lex.add_semantic_relation("cat", "do", "eat")
    bb = Blackboard(lex, Config(k_n=4, k_v=4, k_c=1))
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("runs", v0)
    bb.bind_hubs(n0, v0, "agent")
    return bb


def test_semantic_vs_episodic_selectivity():
    bb = _encoded_board()
    assert run_query(bb, parse_query("sem:cat do?")).word_set() == {"run", "eat"}
    assert run_query(bb, parse_query("cat do?")).words == ("runs",)


def test_fresh_blackboard_answers_empty():
    bb = Blackboard(load_lexicon("cat\tN\nrun\tV\n"), Config(k_n=2, k_v=2, k_c=1))
    assert run_query(bb, parse_query("cat do?")).words == ()
    assert run_query(bb, parse_query("? do run")).words == ()


def test_unknown_word_and_relation_errors():
    bb = _encoded_board()
    with pytest.raises(UnknownWord):
        run_query(bb, parse_query("blorp do?"))
    with pytest.raises(UnknownRelation):
        run_query(bb, parse_query("cat frobnicates?"))
    with pytest.raises(UnknownRelation):
        run_query(bb, parse_query("sem:cat can?"))  # label never recorded


@pytest.mark.parametrize("query, message", [
    (Query("run", "agent", "sideways"), "query direction 'sideways' is not 'forward' or 'reverse'"),
    (Query("cat", "agent", mode="junk"), "query mode 'junk' is not 'episodic' or 'semantic'"),
], ids=["direction", "mode"])
def test_a_query_of_no_direction_or_mode_is_refused_and_changes_nothing(query, message):
    """Only a forward or reverse query in episodic or semantic mode runs: any
    other direction once read as reverse, and any other mode as episodic."""
    bb, _ = scenario_fig1d()
    net = bb.network
    before = bb.snapshot_bytes(), net.time, set(net.asserted)
    with pytest.raises(QuerySyntaxError) as exc:
        run_query(bb, query)
    assert str(exc.value) == message
    assert (bb.snapshot_bytes(), net.time, set(net.asserted)) == before


def test_queries_are_non_destructive():
    bb = _encoded_board()
    net = bb.network
    before_acts = {pid: net.activation(pid) for pid in net.active_pids()}
    before_asserted = set(net.asserted)
    before_snap = bb.snapshot_bytes()
    run_query(bb, parse_query("cat do?"))
    run_query(bb, parse_query("sem:cat do?"))
    assert {pid: net.activation(pid) for pid in net.active_pids()} == before_acts
    assert net.asserted == before_asserted
    assert bb.snapshot_bytes() == before_snap


def _network_state(net):
    """Everything a later step reads: clock, controls, floors, every population
    that is active or sustained, and the open binding edges per source."""
    pops = [
        (p.pid, p.activation, p.sustained, p.sustained_since)
        for p in sorted(net.populations(), key=lambda p: p.pid)
        if p.activation or p.sustained
    ]
    open_edges = {src: [cid for cid, _, _ in out] for src, out in sorted(net._open_binding_out.items()) if out}
    return net.time, sorted(net.asserted), dict(net._floors), net.last_change, pops, open_edges


def test_query_keeps_sustain_bookkeeping_under_decay_horizon():
    lex = load_lexicon("cat\tN\nchase\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=3))
    bb.bind_concept("cat", "N0")
    bb.bind_concept("chase", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    net = bb.network
    net.step()
    net.step()
    wms = [b.wm for b in bb.active_bindings()]
    before = _network_state(net)
    assert [net.population(wm).sustained_since for wm in wms] == [0, 0, 0]
    # the horizon releases all three at step 3, before activation reaches chase
    assert run_query(bb, parse_query("cat do?")).words == ()
    assert [net.population(wm).sustained_since for wm in wms] == [0, 0, 0]
    assert _network_state(net) == before


@given(
    horizon=st.integers(1, 6),
    ops=st.lists(
        st.tuples(st.sampled_from(("concept", "cell", "step", "query", "release")), st.integers(0, 10**6)),
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_queries_are_non_destructive_under_decay_horizon(horizon, ops):
    """Two boards run the same binds, releases and steps; one also answers
    queries in between. Their networks must stay equal throughout."""
    nouns, verbs, _ = make_word_lists(4, 3, 0)
    config = Config(k_n=3, k_v=2, k_c=1, relations=("agent", "theme", "modifier"), wm_decay_horizon=horizon)
    boards = [Blackboard(build_lexicon(nouns, verbs, []), config) for _ in range(2)]
    queried, plain = boards
    for op, n in ops:
        if op == "query":
            bound = sorted(b.word for b in queried.active_bindings() if b.kind == "concept")
            if bound:
                word = bound[n % len(bound)]
                relation = queried.relation_names[n // len(bound) % len(queried.relation_names)]
                text = f"{word} {relation}?" if n % 2 else f"? {relation} {word}"
                run_query(queried, parse_query(text))
        for bb in boards:
            _random_op(bb, op, n, nouns, verbs)
            _check_indexes(bb.network)
        assert _network_state(queried.network) == _network_state(plain.network)


def _random_op(bb, op, n, nouns, verbs):
    """Apply one bind, cell, step or release op, chosen by `n`, when it applies."""
    if op == "concept":
        pool = "NV"[n % 2]
        words = nouns if pool == "N" else verbs
        word = words[n // 2 % len(words)]
        if bb.free_hubs(pool) and not any(bb.concept_binding(word, h) for h in bb.pools[pool].hubs):
            bb.bind_concept(word, bb.allocate_hub(pool))
    elif op == "cell":
        cells = sorted(
            key for key in bb.cells
            if bb.hub_word(key[0]) and bb.hub_word(key[1])
            and not bb.network.population(bb.cells[key].wm).sustained
        )
        if cells:
            bb.bind_hubs(*cells[n % len(cells)])
    elif op == "step":
        bb.network.step()
    elif op == "release":
        live = sorted(bb._bindings)
        if live:
            bb.release(live[n % len(live)])


@given(
    horizon=st.sampled_from((None, 1, 2, 3, 6)),
    wm_decay=st.sampled_from((1.0, 0.9)),
    ops=st.lists(
        st.tuples(st.sampled_from(("concept", "cell", "step", "release")), st.integers(0, 10**6)),
        max_size=40,
    ),
    more_steps=st.integers(0, 8),
)
@settings(max_examples=200, deadline=None)
def test_snapshot_round_trip_under_random_interleavings(horizon, wm_decay, ops, more_steps):
    """A board restored from a snapshot writes the same snapshot, keeps
    writing it as both boards step, and answers every query alike."""
    nouns, verbs, _ = make_word_lists(4, 3, 0)
    config = Config(k_n=3, k_v=2, k_c=1, relations=("agent", "theme", "modifier"),
                    wm_decay=wm_decay, wm_decay_horizon=horizon)
    bb = Blackboard(build_lexicon(nouns, verbs, []), config)
    for op, n in ops:
        _random_op(bb, op, n, nouns, verbs)
        _check_indexes(bb.network)
    bb.network.step()  # no injection is pending when the snapshot is taken
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    for _ in range(more_steps):
        bb.network.step()
        restored.network.step()
        _check_indexes(restored.network)
        assert restored.snapshot_bytes() == bb.snapshot_bytes()
    for word in nouns + verbs:
        for relation in config.relation_names():
            for text in (f"{word} {relation}?", f"? {relation} {word}"):
                query = parse_query(text)
                assert run_query(restored, query) == run_query(bb, query), text


def test_readout_determinism():
    bb = _encoded_board()
    q = parse_query("cat do?")
    first = run_query(bb, q)
    for _ in range(5):
        assert run_query(bb, q) == first


def test_non_interference_disjoint_sentence():
    bb = _encoded_board()
    before = run_query(bb, parse_query("cat do?"))
    n1, v1 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("dog", n1)
    bb.bind_concept("eat", v1)
    bb.bind_hubs(n1, v1, "agent")
    assert run_query(bb, parse_query("cat do?")) == before
    assert run_query(bb, parse_query("dog do?")).words == ("eat",)


# -------------------------------------------------- randomized equivalence

RELATIONS = ("agent", "theme", "modifier", "clause", "prep:of", "prep:in")


def _encode_random(seed, n_sentences=2):
    rng = random.Random(seed)
    nouns, verbs, adjs = make_word_lists(8, 5, 4)
    lex = build_lexicon(nouns, verbs, adjs)
    bb = Blackboard(lex, Config(k_n=20, k_v=8, k_c=4, prep_labels=("of", "in")))
    oracle = OracleStore()
    words = set()
    for _ in range(n_sentences):
        tokens, arcs, triples = random_tree_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
        for s, r, o in triples:
            oracle.record(s, r, o)
        words.update(t.surface for t in tokens if t.word_type is not WordType.PREPOSITION)
    return bb, oracle, sorted(words)


@pytest.mark.parametrize("seed", range(25))
def test_oracle_equivalence_randomized(seed):
    bb, oracle, words = _encode_random(seed)
    for word in words:
        for relation in RELATIONS:
            for direction in ("forward", "reverse"):
                q = Query(cue=word, relation=relation, direction=direction)
                # the readout never names the cue itself
                expected = oracle.query(q).word_set() - {word}
                assert run_query(bb, q).word_set() == expected, (
                    f"query {q} disagrees with the oracle (seed {seed})"
                )


@pytest.mark.parametrize("seed", range(10))
def test_reverse_symmetry(seed):
    bb, _, words = _encode_random(seed)
    for a in words:
        for relation in RELATIONS:
            for b in run_query(bb, Query(a, relation)).words:
                reverse = run_query(bb, Query(b, relation, direction="reverse"))
                assert a in reverse


@pytest.mark.parametrize("seed", range(8))
def test_non_interference_randomized_interleaving(seed):
    rng = random.Random(seed)
    nouns_a, verbs_a, adjs_a = make_word_lists(4, 3, 2)
    nouns_b = [f"x{w}" for w in nouns_a]
    verbs_b = [f"x{w}" for w in verbs_a]
    adjs_b = [f"x{w}" for w in adjs_a]
    lex = build_lexicon(nouns_a + nouns_b, verbs_a + verbs_b, adjs_a + adjs_b)
    bb = Blackboard(lex, Config(k_n=28, k_v=12, k_c=6, prep_labels=("of", "in")))
    tokens, arcs, triples = random_tree_sentence(
        rng, nouns_a, verbs_a, adjs_a, max_adjectives=1
    )
    execute(compile(tokens, arcs), bb)
    queries = [
        Query(s, r) for (s, r, _) in triples
    ] + [Query(o, r, direction="reverse") for (_, r, o) in triples]
    before = [run_query(bb, q) for q in queries]
    for _ in range(2):  # unrelated sentences over a disjoint vocabulary
        tokens, arcs, _ = random_tree_sentence(
            rng, nouns_b, verbs_b, adjs_b, max_adjectives=1
        )
        execute(compile(tokens, arcs), bb)
        assert [run_query(bb, q) for q in queries] == before


# ------------------------------------------------ the kernel under every config

# configs under which every fact must still read out
_ORACLE_CONFIGS = {
    "gain-1.4": {"gain": 1.4},
    "gain-3-decay-0.5": {"gain": 3.0, "decay": 0.5},
    "decay-0.25": {"decay": 0.25},
    "decay-1": {"decay": 1.0},
    "wm_decay-0.9": {"wm_decay": 0.9},
    "wm_decay-0.5": {"wm_decay": 0.5},
    "sustain-0.9": {"sustain_threshold": 0.9},
    "readout-1": {"readout_threshold": 1.0},
    "horizon-200": {"wm_decay_horizon": 200},
}


def _bench_pools_board(seed, **overrides):
    """Four random tree sentences, with preps and relative clauses, on the
    benchmark's pools (40/12/8); returns the board and its facts."""
    rng = random.Random(seed)
    nouns, verbs, adjs = make_word_lists(30, 12, 8)
    config = Config(k_n=40, k_v=12, k_c=8, prep_labels=("of", "in"), **overrides)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), config)
    facts = []
    for _ in range(4):
        tokens, arcs, triples = random_tree_sentence(rng, nouns, verbs, adjs, preps=("of", "in"))
        execute(compile(tokens, arcs), bb)
        facts += triples
    return bb, facts


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(_ORACLE_CONFIGS))
def test_oracle_equivalence_across_configs(name, seed):
    """Every fact, asked forward from its subject and in reverse from its
    object, reads out what the oracle holds. A fact relating a word to
    itself is left out: a probe never reads out its own cue."""
    bb, facts = _bench_pools_board(seed, **_ORACLE_CONFIGS[name])
    oracle = OracleStore()
    for s, r, o in facts:
        oracle.record(s, r, o)
    for s, r, o in facts:
        if s == o:
            continue
        for q, cue in ((Query(s, r), s), (Query(o, r, direction="reverse"), o)):
            expected = oracle.query(q).word_set() - {cue}
            assert run_query(bb, q).word_set() == expected, f"{q} under {name} (seed {seed})"


def _kernel_state(net):
    """What a step reads, beside the structure: every built population's
    level and sustain record, the active ids, the controls, the floors and
    the clock."""
    pops = {pop.pid: (pop.activation, pop.sustained_since) for pop in net.populations()}
    return pops, (net.active_pids(), set(net.asserted), dict(net._floors), net.time)


@pytest.mark.parametrize("overrides", [{}, {"wm_decay": 0.9, "wm_decay_horizon": 60}], ids=["default", "horizon"])
def test_each_query_leaves_the_kernel_as_it_found_it(overrides):
    """On a bench-pools board, every query restores exactly what it found;
    structure it built is at rest. The flowing ids are restored exactly
    too: under a horizon, working memory it released mid-probe comes back
    sustained and settled.

    A restore writes levels straight back, which is sound because no
    working memory is ever left at or above its threshold without being
    sustained: the old per-id write would have sustained it."""
    bb, facts = _bench_pools_board(5, **overrides)
    net = bb.network
    words = sorted({w for s, _, o in facts for w in (s, o)})
    relations = bb.relation_names
    assert bb.active_bindings()
    for i, (word, relation) in enumerate((w, r) for w in words for r in relations):
        text = f"{word} {relation}?" if i % 2 else f"? {relation} {word}"
        pops, rest = _kernel_state(net)
        flowing = net.flowing_pids()
        run_query(bb, parse_query(text))
        pops_after, rest_after = _kernel_state(net)
        assert rest_after == rest, text
        assert {pid: pops_after[pid] for pid in pops} == pops, text
        assert all(pops_after[pid] == (0.0, None) for pid in pops_after.keys() - pops.keys()), text
        assert net.flowing_pids() == flowing, text
        assert all(
            pop.sustained or pop.activation < net.sustain_threshold
            for pop in net.populations() if pop.kind is PopulationKind.WORKING_MEMORY
        ), text


def _kernel_indexes(net):
    """Every index a step reads or keeps, copied: the flowing and settled
    ids, the lit rows, the emitting relays, the open binding edges, the
    horizon entries, the floors, the controls, the clock and the last
    change."""
    return (set(net._flowing), set(net._settled), dict(net._lit),
            {row: set(relays) for row, relays in net._row_emitting.items()},
            {src: list(out) for src, out in net._open_binding_out.items()},
            {at: set(due) for at, due in net._due.items()},
            dict(net._floors), set(net.asserted), net.time, net.last_change)


# (steps, answers) over every (word, relation, direction) query of
# `_bench_pools_board(5)`, as the probe read them before its fixed costs were
# cut; every config of the test reads the same
_PROBE_TOTALS = (1389, 48)


@pytest.mark.parametrize("name", ["default", *sorted(_ORACLE_CONFIGS)])
def test_a_probe_leaves_every_kernel_index_as_saved(name):
    """Every (word, relation, direction) query on a bench-pools board, under
    the default and each config of `_ORACLE_CONFIGS`, leaves each index of
    the network and each built population's level and sustain record as it
    found them; a population the probe built is at rest. The steps run and
    the answers read over all of them are pinned."""
    bb, _ = _bench_pools_board(5, **_ORACLE_CONFIGS.get(name, {}))
    net, counts = bb.network, [0, 0]
    step = net.step

    def counted():
        counts[0] += 1
        step()

    net.step = counted
    for word in bb.lexicon.words():
        for relation in bb.relation_names:
            for direction in ("forward", "reverse"):
                indexes = _kernel_indexes(net)
                pops = {pop.pid: (pop.activation, pop.sustained_since) for pop in net.populations()}
                counts[1] += len(run_query(bb, Query(word, relation, direction)))
                where = f"{word} {relation} {direction} under {name}"
                assert _kernel_indexes(net) == indexes, where
                after = {pop.pid: (pop.activation, pop.sustained_since) for pop in net.populations()}
                assert {pid: after[pid] for pid in pops} == pops, where
                assert all(after[pid] == (0.0, None) for pid in after.keys() - pops.keys()), where
                _check_indexes(net)
    assert tuple(counts) == _PROBE_TOTALS


def test_a_horizon_release_in_a_probe_leaves_the_row_index_as_saved():
    """The decay horizon releases a bound cell in mid-probe, which takes its
    relays out of their rows' index; the restore puts them back."""
    lex = load_lexicon("cat\tN\nchase\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=3))
    bb.bind_concept("cat", "N0")
    bb.bind_concept("chase", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    cell = bb.cells["N0", "V0", "agent"]
    net = bb.network
    net.step()
    net.step()
    before = {row: set(relays) for row, relays in net._row_emitting.items()}
    assert sorted(set().union(*before.values())) == [cell.relay_fwd, cell.relay_rev]
    saved = net.save_state()
    net.set_control(labels.matrix_forward("agent"), True)
    for _ in range(3):
        net.inject(lex.concept("cat"), 1.0)
        net.step()
    assert not net.population(cell.wm).sustained and net._row_emitting == {}
    net.restore_state(saved)
    assert net._row_emitting == before
    assert net.population(cell.wm).sustained_since == 0
    _check_indexes(net)


@given(
    horizon=st.sampled_from((None, 2, 5)),
    threshold=st.sampled_from((0.5, 0.0)),
    ops=st.lists(
        st.tuples(st.sampled_from(("concept", "cell", "step", "release", "query", "probe")), st.integers(0, 10**6)),
        max_size=25,
    ),
)
@settings(max_examples=40, deadline=None)
def test_lit_relays_stay_out_of_the_active_set(horizon, threshold, ops):
    """Binds, releases, steps and probes, under a sustain threshold of 0 and
    a decay horizon too, keep relays out of the flowing and settled sets and
    every index equal to a recount; a probe is also checked after each of
    its steps."""
    nouns, verbs, _ = make_word_lists(4, 3, 0)
    config = Config(k_n=3, k_v=2, k_c=1, relations=("agent", "theme", "modifier"),
                    sustain_threshold=threshold, wm_decay_horizon=horizon)
    bb = Blackboard(build_lexicon(nouns, verbs, []), config)
    net = bb.network
    relations = sorted(bb.grid_counts)
    for op, n in ops:
        if op in ("query", "probe"):
            word = (nouns + verbs)[n % (len(nouns) + len(verbs))]
            relation = relations[n // 7 % len(relations)]
            if op == "query":
                run_query(bb, parse_query(f"{word} {relation}?" if n % 2 else f"? {relation} {word}"))
            else:
                saved = net.save_state()
                net.set_control((labels.matrix_reverse if n % 2 else labels.matrix_forward)(relation), True)
                for _ in range(1 + n % 5):
                    net.inject(bb.lexicon.concept(word), 1.0)
                    net.step()
                    _check_indexes(net)
                net.restore_state(saved)
        else:
            _random_op(bb, op, n, nouns, verbs)
        _check_indexes(net)


@given(
    horizon=st.sampled_from((None, 2, 5)),
    threshold=st.sampled_from((0.5, 0.0)),
    ops=st.lists(
        st.tuples(st.sampled_from(("concept", "cell", "step", "release", "query", "add", "release_all")),
                  st.integers(0, 10**6)),
        max_size=25,
    ),
)
@settings(max_examples=30, deadline=None)
def test_emitting_ids_match_a_recount_under_random_operations(horizon, threshold, ops):
    nouns, verbs, _ = make_word_lists(4, 3, 0)
    config = Config(k_n=3, k_v=2, k_c=1, relations=("agent", "theme", "modifier"),
                    sustain_threshold=threshold, wm_decay_horizon=horizon)
    bb = Blackboard(build_lexicon(nouns, verbs, []), config)
    net = bb.network
    _check_indexes(net)
    for op, n in ops:
        if op == "query":
            word = (nouns + verbs)[n % (len(nouns) + len(verbs))]
            relation = bb.relation_names[n // 7 % len(bb.relation_names)]
            run_query(bb, parse_query(f"{word} {relation}?" if n % 2 else f"? {relation} {word}"))
        elif op == "add":
            if f"w{n}" not in bb.lexicon:
                bb.add_word(f"w{n}", WordType.NOUN if n % 2 else WordType.VERB)
                (nouns if n % 2 else verbs).append(f"w{n}")
        elif op == "release_all":
            bb.release_all()
        else:
            _random_op(bb, op, n, nouns, verbs)
        _check_indexes(net)
