"""Blackboard structure: pools, matrix cells, bindings, counting, snapshots."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_template_sentence
from nba.encoder import compile, execute
from nba.errors import (
    CellBusy,
    HubBusy,
    InvalidConfig,
    NoSuchCell,
    PoolExhausted,
    TypeMismatch,
    UnknownPopulation,
    UnknownWord,
)
from nba.lexicon import POOL_FOR_TYPE, Lexicon, WordType, load_lexicon
from nba.query import parse_query, run_query


def small_board(**overrides):
    lex = load_lexicon("cat\tN\ndog\tN\nrun\tV\neat\tV\n")
    defaults = dict(k_n=2, k_v=2, k_c=1, relations=("agent",))
    defaults.update(overrides)
    return Blackboard(lex, Config(**defaults))


def test_cell_grid_count_matches_enumeration():
    bb = small_board()
    # one relation over 2x2 hub pairs
    assert len(bb.cells) == 2 * 2 * 1
    assert set(bb.cells) == {
        (f"N{i}", f"V{j}", "agent") for i in range(2) for j in range(2)
    }


def test_invalid_capacity_rejected():
    lex = Lexicon()
    with pytest.raises(InvalidConfig):
        Blackboard(lex, Config(k_n=0))


def test_concept_hub_link_count():
    nouns, _, _ = make_word_lists(100, 0, 0)
    lex = build_lexicon(nouns, [], [])
    bb = Blackboard(lex, Config(k_n=4, k_v=1, k_c=1, relations=("agent",)))
    # 100 words x 4 hubs, two directions each, plus the cell mirrors
    assert bb.connection_count() - 2 * len(bb.cells) == 2 * 100 * 4


def test_connection_count_closed_form():
    nouns, verbs, _ = make_word_lists(100, 100, 0)
    bb = Blackboard(
        build_lexicon(nouns, verbs, []),
        Config(k_n=4, k_v=4, k_c=1, relations=("agent", "theme")),
    )
    assert bb.connection_count() == 2 * (100 * 4 + 100 * 4) + 2 * (4 * 4 * 2)
    assert bb.connection_count() == 1664
    # versus the direct product wiring this structure avoids
    assert 100 * 100 * 2 == 20000


def test_connection_count_empty_lexicon_is_cells_only():
    bb = Blackboard(Lexicon(), Config(k_n=2, k_v=2, k_c=1, relations=("agent",)))
    assert bb.connection_count() == 2 * len(bb.cells)


def test_doubling_lexicon_doubles_word_links_only():
    def count(n):
        nouns, verbs, _ = make_word_lists(n, n, 0)
        bb = Blackboard(
            build_lexicon(nouns, verbs, []),
            Config(k_n=4, k_v=4, k_c=1, relations=("agent", "theme")),
        )
        return bb.connection_count(), 2 * len(bb.cells)

    (c1, cells1), (c2, cells2) = count(50), count(100)
    assert cells1 == cells2
    assert c2 - cells2 == 2 * (c1 - cells1)


def test_allocate_lowest_index_and_exhaustion():
    bb = small_board()
    assert bb.allocate_hub("N") == "N0"
    assert bb.allocate_hub("N") == "N1"
    with pytest.raises(PoolExhausted):
        bb.allocate_hub("N")


def test_allocate_release_reuses_hub():
    bb = small_board()
    hub = bb.allocate_hub("N")
    bb.bind_concept("cat", hub)
    bb.release_hub(hub)
    assert bb.allocate_hub("N") == hub


def test_bind_concept_activates_hub():
    bb = small_board()
    n0 = bb.allocate_hub("N")
    bb.bind_concept("cat", n0)
    net = bb.network
    net.inject(bb.lexicon.concept("cat"), 1.0)
    net.step()
    assert net.activation(bb._hub_pid["N0"]) == 1.0


def test_bind_errors():
    bb = small_board()
    n0 = bb.allocate_hub("N")
    with pytest.raises(TypeMismatch):
        bb.bind_concept("run", n0)
    bb.bind_concept("cat", n0)
    with pytest.raises(HubBusy):
        bb.bind_concept("dog", n0)
    with pytest.raises(UnknownWord):
        bb.bind_concept("blorp", "N1")


def test_bind_hubs_errors():
    bb = small_board()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    with pytest.raises(CellBusy):
        bb.bind_hubs(n0, v0, "agent")
    with pytest.raises(NoSuchCell):
        bb.bind_hubs(n0, "C5", "agent")
    with pytest.raises(NoSuchCell):
        bb.bind_hubs(n0, v0, "theme")  # relation not configured


def test_dual_gate_truth_table():
    # activation crosses a cell only when the binding WM is sustained AND the
    # relation label is asserted
    for wm_on, label_on in ((False, False), (False, True), (True, False), (True, True)):
        bb = small_board()
        n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
        bb.bind_concept("cat", n0)
        bb.bind_concept("run", v0)
        if wm_on:
            bb.bind_hubs(n0, v0, "agent")
        if label_on:
            bb.network.set_control("mx:fwd:agent", True)
        net = bb.network
        for _ in range(4):
            net.inject(bb.lexicon.concept("cat"), 1.0)
            net.step()
        crossed = net.activation(bb.lexicon.concept("run")) >= 0.5
        assert crossed == (wm_on and label_on)


def test_binding_active_tracks_wm_sustain():
    bb = small_board()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    concept = bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    cell = bb.bind_hubs(n0, v0, "agent")
    for binding in (concept, cell):
        assert binding.active
        wm = bb.network.population(binding.wm)
        assert wm.activation >= wm.sustain_threshold
    bb.release(cell)
    assert not cell.active
    assert concept.active


def test_preposition_cannot_bind_hubs():
    lex = load_lexicon("of\tP\nthe\tDET\ncat\tN\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, relations=("agent",)))
    n0 = bb.allocate_hub("N")
    with pytest.raises(TypeMismatch):
        bb.bind_concept("of", n0)
    with pytest.raises(TypeMismatch):
        bb.bind_concept("the", n0)


def test_snapshot_restores_decayed_wm_levels():
    lex = load_lexicon("cat\tN\nrun\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, relations=("agent",), wm_decay=0.9))
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    binding = bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    for _ in range(20):
        bb.network.step()  # decay toward the sustain pin
    level = bb.network.activation(binding.wm)
    assert level == 0.5
    restored = Blackboard.from_snapshot(json.loads(json.dumps(bb.to_snapshot())))
    restored_binding = restored.concept_binding("cat", n0)
    assert restored.network.activation(restored_binding.wm) == level
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    assert run_query(restored, parse_query("cat do?")).words == ("run",)


def test_release_unbinds_and_is_idempotent():
    bb = small_board()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    binding = bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    assert run_query(bb, parse_query("cat do?")).words == ("run",)
    bb.release(binding)
    assert run_query(bb, parse_query("cat do?")).words == ()
    bb.release(binding)  # no error, no change
    assert run_query(bb, parse_query("cat do?")).words == ()


def test_freed_hub_leaves_no_ghost_cells():
    bb = small_board()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    cat = bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    bb.release(cat)
    # rebinding the freed hub must not inherit the old agent cell
    assert bb.allocate_hub("N") == n0
    bb.bind_concept("dog", n0)
    assert run_query(bb, parse_query("dog do?")).words == ()


def test_release_all_equals_fresh_state():
    bb = small_board()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    bb.release_all()
    fresh = small_board()
    assert bb.snapshot_bytes() == fresh.snapshot_bytes()
    assert run_query(bb, parse_query("cat do?")).words == ()


def test_structural_fixity_under_operations():
    bb = small_board()
    pops = bb.network.population_count()
    conns = bb.network.connection_count()
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    binding = bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    run_query(bb, parse_query("cat do?"))
    bb.release(binding)
    bb.release_all()
    assert bb.network.population_count() == pops
    assert bb.network.connection_count() == conns
    with pytest.raises(RuntimeError):
        bb.network.add_population(bb.network.population(0).kind)


def test_double_role_one_hub_two_verbs():
    lex = load_lexicon("reporter\tN\nattacked\tV\nadmitted\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, relations=("agent", "theme")))
    n0 = bb.allocate_hub("N")
    v0, v1 = bb.allocate_hub("V"), bb.allocate_hub("V")
    bb.bind_concept("reporter", n0)
    bb.bind_concept("attacked", v0)
    bb.bind_concept("admitted", v1)
    bb.bind_hubs(n0, v1, "agent")  # agent of admitted
    bb.bind_hubs(v0, n0, "theme")  # theme of attacked
    assert "reporter" in run_query(bb, parse_query("? agent admitted"))
    assert "reporter" in run_query(bb, parse_query("attacked theme?"))


def test_small_world_scaling():
    sizes = (10, 100, 1000)
    counts = {}
    expressible = {}
    for n in sizes:
        nouns, verbs, _ = make_word_lists(n // 2, n // 2, 0)
        bb = Blackboard(
            build_lexicon(nouns, verbs, []),
            Config(k_n=4, k_v=4, k_c=1, relations=("agent", "theme")),
        )
        counts[n] = bb.connection_count()
        expressible[n] = bb.expressible_bindings()
    slope_small = (counts[100] - counts[10]) / 90
    slope_large = (counts[1000] - counts[100]) / 900
    assert abs(slope_small - slope_large) <= 0.05 * slope_large
    # relations grow with the word-pair product: x100 when the lexicon grows x10
    assert expressible[100] == 100 * expressible[10]
    assert expressible[1000] == 100 * expressible[100]


def _random_board(seed):
    rng = random.Random(seed)
    nouns, verbs, adjs = make_word_lists(6, 4, 3)
    lex = build_lexicon(nouns, verbs, adjs)
    bb = Blackboard(lex, Config(k_n=6, k_v=3, k_c=1, relations=("agent", "theme", "modifier")))
    words = set()
    for _ in range(rng.randint(1, 2)):
        tokens, arcs, _ = random_template_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
        words.update(t.surface for t in tokens)
    return bb, sorted(words)


@pytest.mark.parametrize("seed", range(12))
def test_persistence_round_trip_random_structures(seed):
    bb, words = _random_board(seed)
    snap = bb.to_snapshot()
    restored = Blackboard.from_snapshot(json.loads(json.dumps(snap)))
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    for word in words:
        for relation in ("agent", "theme", "modifier"):
            for text in (f"{word} {relation}?", f"? {relation} {word}"):
                q = parse_query(text)
                assert run_query(restored, q).words == run_query(bb, q).words


# ------------------------------------------------------- count invariants

_POOL_TYPES = {"N": WordType.NOUN, "V": WordType.VERB}


def _closed_form(bb, n_semantic):
    """Population and connection counts of the fixed structure, from
    (lexicon, config) alone: concepts, hubs, K working memories per bindable
    word (K its pool's capacity), three populations per matrix cell, two
    control populations per relation name."""
    cfg = bb.config
    words = [POOL_FOR_TYPE.get(e.word_type) for e in bb.lexicon.entries()]
    word_links = sum(cfg.capacity(pool) for pool in words if pool is not None)
    cells = sum(cfg.capacity(s.from_pool) * cfg.capacity(s.to_pool) for s in cfg.relation_specs())
    populations = len(words) + cfg.k_n + cfg.k_v + cfg.k_c + word_links + 3 * cells + 2 * len(bb.relation_names)
    connections = 2 * n_semantic + 2 * word_links + 4 * cells
    return populations, connections, 2 * word_links + 2 * cells


def _counts(bb):
    return bb.network.population_count(), bb.network.connection_count(), bb.connection_count()


@given(
    sizes=st.tuples(st.integers(0, 12), st.integers(0, 8), st.integers(0, 6), st.integers(0, 4)),
    caps=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)),
    families=st.sets(st.sampled_from(("agent", "theme", "modifier", "prep", "clause"))),
    preps=st.sets(st.sampled_from(("of", "in", "on")), min_size=1),
    n_semantic=st.integers(0, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_counts_equal_closed_form_under_operations(sizes, caps, families, preps, n_semantic, seed):
    rng = random.Random(seed)
    nouns, verbs, adjs = make_word_lists(*sizes[:3])
    lex = build_lexicon(nouns, verbs, adjs)
    for i in range(sizes[3]):
        lex.add_word(f"d{i}", WordType.DETERMINER)
    words = lex.words()
    for _ in range(n_semantic if words else 0):
        lex.add_semantic_relation(rng.choice(words), "isa", rng.choice(words))
    n_semantic = len(lex.semantic_triples)
    bb = Blackboard(lex, Config(k_n=caps[0], k_v=caps[1], k_c=caps[2],
                                relations=tuple(sorted(families)), prep_labels=tuple(sorted(preps))))
    expected = _closed_form(bb, n_semantic)
    assert _counts(bb) == expected

    # bind what fits, query, release one, release all, round-trip a snapshot
    for pool in ("N", "V"):
        for word in lex.words_of_pool(pool)[: bb.config.capacity(pool)]:
            bb.bind_concept(word, bb.allocate_hub(pool))
    bound = bb.active_bindings()
    for (from_hub, to_hub, relation) in sorted(bb.cells):
        if bb.hub_word(from_hub) and bb.hub_word(to_hub) and rng.random() < 0.5:
            bb.bind_hubs(from_hub, to_hub, relation)
    assert _counts(bb) == expected
    for binding in bound[:1]:
        for relation in bb.relation_names:
            run_query(bb, parse_query(f"{binding.word} {relation}?"))
            run_query(bb, parse_query(f"? {relation} {binding.word}"))
        assert _counts(bb) == expected
        bb.release(binding)
        assert _counts(bb) == expected
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    assert _counts(restored) == expected
    bb.release_all()
    assert _counts(bb) == expected

    # adding a word adds its concept, K working memories and their 2K edges
    pool = rng.choice(list(_POOL_TYPES))
    k = bb.config.capacity(pool)
    pops, conns, links = _counts(bb)
    bb.add_word("fresh", _POOL_TYPES[pool])
    assert _counts(bb) == (pops + 1 + k, conns + 2 * k, links + 2 * k)
    assert _counts(bb) == _closed_form(bb, n_semantic)
    bb.bind_concept("fresh", bb.allocate_hub(pool))
    assert _counts(bb) == _closed_form(bb, n_semantic)


def test_reserved_working_memory_is_built_on_first_touch():
    bb = small_board()
    net = bb.network
    built = len(net.populations())
    assert built < net.population_count()
    n0 = bb.allocate_hub("N")
    binding = bb.bind_concept("cat", n0)
    assert len(net.populations()) == built + 1
    wm = net.population(binding.wm)
    assert wm.sustained and wm.decay == bb.config.wm_decay
    cat, hub = bb.lexicon.concept("cat"), bb._hub_pid[n0]
    gated = [(c.source, c.target) for c in net.connections() if getattr(c.gate, "wm", None) == binding.wm]
    assert gated == [(cat, hub), (hub, cat)]
    bb.release_all()
    assert len(net.populations()) == built + 1  # stays built after release
    assert not net.population(binding.wm).sustained


def test_unknown_population_past_reservations():
    bb = small_board()
    with pytest.raises(UnknownPopulation):
        bb.network.population(bb.network.population_count())


# ------------------------------------------------------------- release leak

def test_bind_release_cycles_keep_only_live_bindings():
    bb = small_board()
    for _ in range(1000):
        n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
        cat = bb.bind_concept("cat", n0)
        run = bb.bind_concept("run", v0)
        cell = bb.bind_hubs(n0, v0, "agent")
        assert len(bb._bindings) == 3
        bb.release(cat.bid)  # also releases the cell on its hub
        assert set(bb._bindings) == {run.bid}
        assert cell.released and not run.released
        bb.release(cat.bid)
        bb.release(cell)
        assert set(bb._bindings) == {run.bid}
        bb.release(run)
    assert bb._bindings == {} and bb.active_bindings() == []
    assert bb.network.active_pids() == []
