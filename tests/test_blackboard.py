"""Blackboard structure: pools, matrix cells, bindings, counting, snapshots."""

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_template_sentence, random_tree_sentence
from nba.dynamics import BindingGate, Network, PopulationKind, _Memory, clamp01
from nba.encoder import compile, execute, parse_conllu
from nba.errors import (
    CellBusy,
    HubBusy,
    InvalidConfig,
    InvalidNetworkChange,
    NbaError,
    NoSuchCell,
    PoolExhausted,
    TypeMismatch,
    UnknownHub,
    UnknownPopulation,
    UnknownWord,
)
from nba.lexicon import POOL_FOR_TYPE, Lexicon, WordType, load_lexicon
from nba.query import parse_query, run_query
from test_dynamics import _check_indexes
from test_query import _bench_pools_board


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
    assert net.activation(bb.pools["N"].pids["N0"]) == 1.0


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


@pytest.mark.parametrize("name", ["N01", "n0", "N-1", " N0", "N", "", "Q0", "N2"])
def test_a_name_that_is_not_a_hub_is_refused(name):
    """A small board has hubs N0 and N1; no other string names a noun hub."""
    bb = small_board()
    assert bb.hub_word(name) is None
    with pytest.raises(UnknownHub):
        bb.bind_concept("cat", name)
    bb.bind_concept("run", bb.allocate_hub("V"))
    with pytest.raises(NoSuchCell):
        bb.bind_hubs(name, "V0", "agent")
    with pytest.raises(NoSuchCell):
        bb.bind_hubs("N0", name, "agent")


@pytest.mark.parametrize("kind", ["Q", "n", "", "NV"])
def test_a_pool_that_does_not_exist_is_an_unknown_hub(kind):
    bb = small_board()
    for call in (bb.allocate_hub, bb.free_hubs):
        with pytest.raises(UnknownHub, match=f"no hub pool of kind {kind!r}"):
            call(kind)


def test_zero_threshold_cell_busy_names_the_threshold():
    bb = small_board(sustain_threshold=0.0)
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    with pytest.raises(CellBusy, match="sustained at rest because sustain_threshold is 0"):
        bb.bind_hubs(n0, v0, "agent")
    board = small_board()
    board.bind_hubs("N0", "V0", "agent")
    with pytest.raises(CellBusy, match="already bound$"):  # above zero the threshold is not blamed
        board.bind_hubs("N0", "V0", "agent")


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
        assert wm.activation >= bb.network.sustain_threshold
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


def test_network_refusals_on_a_board_are_domain_errors():
    bb = small_board()
    with pytest.raises(NbaError, match="network structure is frozen"):
        bb.network.add_population(PopulationKind.HUB)
    relay = bb.cells[next(iter(bb.cells))].relay_fwd
    with pytest.raises(NbaError, match=f"population {relay} is a relay"):
        bb.network.inject(relay, 1.0)
    assert bb.network.active_pids() == []


def test_a_second_board_on_a_wired_lexicon_is_refused_and_changes_nothing():
    bb = small_board(decay=0.2)
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    before = bb.snapshot_bytes(), run_query(bb, parse_query("cat do?")).words
    net = bb.network
    levels = (net.decay, net.wm_decay, net.sustain_threshold, net.wm_decay_horizon)
    with pytest.raises(NbaError, match="lexicon is already wired to a board"):
        Blackboard(bb.lexicon, Config(decay=0.5, wm_decay=0.5, sustain_threshold=0.9, wm_decay_horizon=3))
    assert (net.decay, net.wm_decay, net.sustain_threshold, net.wm_decay_horizon) == levels
    assert (bb.snapshot_bytes(), run_query(bb, parse_query("cat do?")).words) == before == (before[0], ("run",))


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


def test_a_held_working_memory_is_one_record_and_a_released_one_none():
    """Binding a word makes one record for its working memory, which gates
    the two connections its reservation gives it. Releasing it drops the
    record: a record handed out before reads at rest, and stays detached
    when the word is bound again."""
    bb = small_board()
    net = bb.network
    built = set(net.populations())
    assert len(built) < net.population_count()
    n0 = bb.allocate_hub("N")
    binding = bb.bind_concept("cat", n0)
    held = net.population(binding.wm)
    assert set(net.populations()) == built | {held}
    assert held.sustained and net.wm_decay == bb.config.wm_decay
    cat, hub = bb.lexicon.concept("cat"), bb.pools["N"].pids[n0]
    gated = [(c.source, c.target) for c in net.connections() if getattr(c.gate, "wm", None) == binding.wm]
    assert gated == [(cat, hub), (hub, cat)]
    bb.release_all()
    assert set(net.populations()) == built
    assert not any(isinstance(c.gate, BindingGate) for c in net.connections())
    assert held.activation == 0.0 and not held.sustained
    again = bb.bind_concept("cat", bb.allocate_hub("N"))
    assert again.wm == binding.wm and net.population(again.wm) is not held
    assert net.population(again.wm).sustained
    assert held.activation == 0.0 and not held.sustained


def test_bind_release_batches_leave_the_built_populations_as_they_were():
    """Over 300 four-sentence batches at the benchmark's pools, each
    released, no record of what was bound stays behind."""
    rng = random.Random(11)
    nouns, verbs, adjs = make_word_lists(200, 100, 100)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), Config(k_n=40, k_v=12, k_c=8))
    net = bb.network
    before = set(net.populations())
    for _ in range(300):
        for _ in range(4):
            tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs)
            execute(compile(tokens, arcs), bb)
        assert len(net.populations()) > len(before)
        bb.release_all()
        assert set(net.populations()) == before
    assert not any(isinstance(c.gate, BindingGate) for c in net.connections())


def test_reading_bindings_makes_no_record():
    """A snapshot, `active_bindings`, `cell_binding`, `is_open` and
    `activation` make no record: not for a held binding, not for one the
    decay horizon released, and not for working memory never bound."""
    bb = small_board(wm_decay_horizon=3)
    net = bb.network
    bb.bind_concept("cat", "N0")
    bb.bind_concept("run", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    for _ in range(4):
        net.step()  # the horizon releases all three at the fourth step
    dog = bb.bind_concept("dog", "N1")
    built = set(net.populations())
    assert [pop.pid for pop in built if pop.kind is PopulationKind.WORKING_MEMORY] == [dog.wm]
    records = json.loads(bb.snapshot_bytes())["bindings"]
    assert [rec["activation"] for rec in records] == [0.0, 0.0, 0.0, 1.0]
    assert bb.active_bindings() == [dog]
    wms = [*bb.word_wms("cat"), *bb.word_wms("dog"), *bb.word_wms("eat"), *bb.word_wms("run")]
    for key, cell in bb.cells.items():
        bb.cell_binding(*key)
        wms.append(cell.wm)
    for wm in wms:
        net.is_open(BindingGate(wm))
        net.activation(wm)
    assert set(net.populations()) == built


def test_at_zero_sustain_threshold_every_working_memory_is_held_at_rest():
    """Working memory at rest is sustained, so each has a record from the
    start, and a release, which sustains it again, keeps it."""
    bb = small_board(sustain_threshold=0.0)
    net = bb.network
    built = set(net.populations())
    wms = [*bb.word_wms("cat"), *bb.word_wms("run"), *(cell.wm for cell in bb.cells.values())]
    assert set(wms) <= {pop.pid for pop in built if pop.kind is PopulationKind.WORKING_MEMORY}
    assert all(net.is_open(BindingGate(wm)) for wm in wms)
    binding = bb.bind_concept("cat", "N0")
    bb.release(binding)
    assert set(net.populations()) == built and net.is_open(BindingGate(binding.wm))


def test_a_horizon_release_in_a_probe_keeps_the_record_for_the_restore():
    """The decay horizon releases a bound cell in mid-probe; its record
    stays while the probe's saved state is open, and the restore sustains
    the same record again. Released by a step outside a probe, it is gone."""
    bb = Blackboard(load_lexicon("cat\tN\nchase\tV\n"), Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=3))
    bb.bind_concept("cat", "N0")
    bb.bind_concept("chase", "V0")
    cell = bb.bind_hubs("N0", "V0", "agent")
    net = bb.network
    net.step()
    net.step()
    held = net.population(cell.wm)
    seen = []
    step = net.step

    def recorded():
        step()
        seen.append((held.sustained, net.population(cell.wm) is held))

    net.step = recorded
    assert run_query(bb, parse_query("cat do?")).words == ()
    del net.step
    assert (False, True) in seen
    assert net.population(cell.wm) is held and held.sustained_since == 0
    net.step()
    net.step()
    assert not net.is_open(BindingGate(cell.wm)) and held not in set(net.populations())


def test_is_open_on_reserved_working_memory_builds_nothing():
    """Reading a reserved working memory's gate builds neither the word's
    population nor the cell's three; an unknown id still raises."""
    bb = small_board()
    net = bb.network
    built = len(net.populations())
    word_wm = bb.word_wms("cat")[0]
    cell_wm = bb.cells["N0", "V0", "agent"].wm
    for wm in (word_wm, cell_wm):
        assert not net.is_open(BindingGate(wm))
        assert len(net.populations()) == built
    with pytest.raises(UnknownPopulation):
        net.is_open(BindingGate(net.population_count()))
    binding = bb.bind_concept("cat", bb.allocate_hub("N"))
    assert net.is_open(BindingGate(binding.wm))


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


def test_snapshot_keeps_bindings_the_decay_horizon_released():
    lex = load_lexicon("cat\tN\neats\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=3))
    tokens, arcs = parse_conllu(
        "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n2\teats\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    execute(compile(tokens, arcs), bb)
    for _ in range(10):
        bb.network.step()
    assert run_query(bb, parse_query("cat do?")).words == ()
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    assert run_query(restored, parse_query("cat do?")).words == ()
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    assert [b.describe() for b in restored.active_bindings()] == [
        b.describe() for b in bb.active_bindings()
    ]
    for binding in restored.active_bindings():
        assert not restored.network.population(binding.wm).sustained


def test_active_bindings_leave_out_what_the_horizon_released():
    lex = load_lexicon("cat\tN\neats\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=3))
    tokens, arcs = parse_conllu(
        "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n2\teats\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    execute(compile(tokens, arcs), bb)
    for _ in range(10):
        bb.network.step()
    assert bb.active_bindings() == []
    assert bb.hub_word("N0") == "cat"
    records = json.loads(bb.snapshot_bytes())["bindings"]
    assert [rec["activation"] for rec in records] == [0.0, 0.0, 0.0]


def test_rebinding_a_cell_the_horizon_released_replaces_it():
    bb = small_board(wm_decay_horizon=1)
    bb.bind_concept("cat", "N0")
    bb.bind_concept("run", "V0")
    first = bb.bind_hubs("N0", "V0", "agent")
    bb.network.step()
    bb.network.step()
    dog = bb.bind_concept("dog", "N1")
    again = bb.bind_hubs("N0", "V0", "agent")
    assert first.released and not again.released
    assert bb.cell_binding("N0", "V0", "agent") is again
    assert bb.active_bindings() == [dog, again]
    snapshot = json.loads(bb.snapshot_bytes())
    assert [rec.get("word") for rec in snapshot["bindings"]] == ["cat", "run", "dog", None]
    restored = Blackboard.from_snapshot(snapshot)
    assert restored.snapshot_bytes() == bb.snapshot_bytes()


def test_restored_board_steps_like_the_original():
    bb = small_board(wm_decay=0.9)
    bb.bind_concept("cat", "N0")
    bb.bind_concept("run", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    for _ in range(20):
        bb.network.step()  # every binding decays to its sustain pin
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    for board in (bb, restored):
        board.network.step()
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    assert {b.wm: restored.network.activation(b.wm) for b in restored.active_bindings()} == {
        b.wm: 0.5 for b in bb.active_bindings()
    }


def test_restored_board_keeps_binding_age_under_decay_horizon():
    bb = Blackboard(load_lexicon("n000\tN\nv000\tV\n"), Config(wm_decay_horizon=6))
    bb.bind_concept("n000", "N0")
    bb.bind_concept("v000", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    for _ in range(4):
        bb.network.step()
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    # the probe's third step reaches the horizon, before v000 is reached
    query = parse_query("n000 agent?")
    assert run_query(bb, query).words == ()
    assert run_query(restored, query).words == ()
    assert restored.snapshot_bytes() == bb.snapshot_bytes()
    assert [rec["age"] for rec in json.loads(bb.snapshot_bytes())["bindings"]] == [4, 4, 4]


def test_a_restore_leaves_no_stale_horizon_entry():
    """The replayed binds date their horizon release from the saved age, not
    from the restore: the restored board's horizon entries match the
    original's relative to the clock, so its steps are busy exactly where
    the original's are. A replayed binding the horizon had released leaves
    no entry and no record."""
    horizon = 6
    bb = Blackboard(load_lexicon("cat\tN\nrun\tV\n"), Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=horizon))
    bb.bind_concept("cat", "N0")
    bb.bind_concept("run", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    for _ in range(4):
        bb.network.step()
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))

    def due(net):
        return {at - net.time: sorted(pids) for at, pids in net._due.items()}

    assert due(restored.network) == due(bb.network) == {2: sorted(b.wm for b in bb.active_bindings())}
    held = {pop.pid for pop in restored.network.populations() if pop.kind is PopulationKind.WORKING_MEMORY}
    assert held == {b.wm for b in restored.active_bindings()}
    busy = {bb: [], restored: []}
    for _ in range(horizon + 2):
        for board, steps in busy.items():
            net = board.network
            steps.append(bool(net._flowing or net._floors or net._lit or net.time in net._due))
            net.step()
    assert busy[bb] == busy[restored] and any(busy[bb])

    released = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))  # every binding is past its horizon
    assert released.active_bindings() == [] and released.network._due == {}
    assert not any(pop.kind is PopulationKind.WORKING_MEMORY for pop in released.network.populations())


def test_a_release_before_the_horizon_leaves_no_horizon_entry():
    """A binding released before its decay horizon takes its horizon entry
    with it, so the step at which it would have expired is idle."""
    bb = Blackboard(load_lexicon("cat\tN\nrun\tV\n"), Config(k_n=2, k_v=2, k_c=1, wm_decay_horizon=6))
    bb.bind_concept("cat", "N0")
    bb.bind_concept("run", "V0")
    bb.bind_hubs("N0", "V0", "agent")
    net = bb.network
    assert net._due
    bb.release_all()
    assert net._due == {}
    busy = 0
    for _ in range(8):
        busy += bool(net._flowing or net._floors or net._lit or net.time in net._due)
        net.step()
    assert busy == 0


def test_restored_binding_past_its_horizon_is_released_by_the_next_step():
    """A state file may give an age past the decay horizon: the restored
    binding is sustained until the first step, which releases it."""
    bb = Blackboard(load_lexicon("n000\tN\n"), Config(wm_decay_horizon=6))
    bb.bind_concept("n000", "N0")
    data = json.loads(bb.snapshot_bytes())
    data["bindings"][0]["age"] = 9
    restored = Blackboard.from_snapshot(data)
    assert len(restored.active_bindings()) == 1
    restored.network.step()
    assert restored.active_bindings() == []
    assert restored.network.active_pids() == []


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("overrides", (
    {}, dict(wm_decay=0.9, wm_decay_horizon=7), dict(sustain_threshold=0.0), dict(decay=0.3),
), ids=("default", "wm_decay", "threshold0", "decay"))
def test_restored_board_is_settled_like_the_original(overrides, seed):
    """A restored board holds the same flowing and active ids as the board
    it was saved from, so its first step updates no working memory the
    original had settled. The corpus and configs are those of
    `scripts/trajectory_hash.py`."""
    rng = random.Random(seed)
    nouns, verbs, adjectives = make_word_lists(60, 20, 20)
    bb = Blackboard(build_lexicon(nouns, verbs, adjectives), Config(k_n=40, k_v=12, k_c=8, **overrides))
    for _ in range(3):
        tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjectives)
        try:
            execute(compile(tokens, arcs), bb)
        except CellBusy:  # at sustain_threshold 0 every cell is sustained at rest
            pass
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    assert restored.network.flowing_pids() == bb.network.flowing_pids()
    assert restored.network.active_pids() == bb.network.active_pids()
    assert restored.snapshot_bytes() == bb.snapshot_bytes()


@pytest.mark.parametrize("overrides", (
    {}, dict(wm_decay=0.9, wm_decay_horizon=7), dict(sustain_threshold=0.0, wm_decay=0.9, wm_decay_horizon=7),
), ids=("default", "wm_decay", "threshold0"))
def test_a_restore_files_each_replayed_binding_once(overrides, monkeypatch):
    """A replayed bind that leaves its binding as saved, as every bind does
    under the default config, is filed by the bind's own settle: one
    `_settle` per binding over the whole `from_snapshot`, and no
    `_set_activation`. Under `wm_decay` 0.9 with a horizon, where the saved
    levels and ages are not the bind's, every index holds after the
    restore, also at threshold 0, where the horizon leaves a binding held
    at rest, which is filed nowhere. The board is saved as built and again
    once stepped past the horizon."""
    rng = random.Random(3)
    nouns, verbs, adjs = make_word_lists(30, 12, 8)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), Config(k_n=40, k_v=12, k_c=8, prep_labels=("of", "in"), **overrides))
    for _ in range(4):
        tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs, preps=("of", "in"))
        try:
            execute(compile(tokens, arcs), bb)
        except CellBusy:  # at sustain_threshold 0 every cell is sustained at rest
            pass
    for steps in (0, 10):
        for _ in range(steps):
            bb.network.step()
        data = json.loads(bb.snapshot_bytes())
        calls = dict.fromkeys(("_settle", "_set_activation"), 0)
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(Network, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(Network, name, counted)
        restored = Blackboard.from_snapshot(data)
        monkeypatch.undo()
        _check_indexes(restored.network)
        assert restored.network.flowing_pids() == bb.network.flowing_pids()
        assert restored.snapshot_bytes() == bb.snapshot_bytes()
        if not overrides:
            assert calls == {"_settle": len(data["bindings"]), "_set_activation": 0}


# ------------------------------------------- differential: the bind path

def _reference_inject(net, pid, level):
    """`Network.inject` filing an id twice: its level through
    `_set_activation`, which files it as flowing, then its floor, then
    `_reference_settle`, which may move it to settled and drop the floor."""
    if not 0.0 <= level <= 1.0:
        raise InvalidNetworkChange(f"inject level must be in [0, 1], got {level}")
    pop = net._pops.get(pid)
    if pop is None:
        pop = net._build_reserved(pid)
    elif pop.kind is PopulationKind.CONTROL:
        net._refuse_driven(pid)
    net._set_activation(pop, max(level, pop.activation))
    if level > net._floors.get(pid, 0.0):
        net._floors[pid] = level
    _reference_settle(net, pop)


def _reference_settle(net, pop):
    """`Network._settle` with its fixed-point test through `clamp01` and `max`."""
    a, since = pop.activation, pop.sustained_since
    if since is None or a <= 0.0 or pop.pid in net._sources \
            or max(clamp01(net.wm_decay * a), net.sustain_threshold) != a:
        return
    net._flowing.discard(pop.pid)
    net._settled.add(pop.pid)
    net._floors.pop(pop.pid, None)
    if net.wm_decay_horizon is not None:
        net._due.setdefault(max(since + net.wm_decay_horizon, net.time), set()).add(pop.pid)


def _reference_release(net, pid):
    """`Network.release_wm` looking its population up through `population`,
    which builds a record, and setting its level to 0 even at rest."""
    pop = net.population(pid)
    if pop.kind is not PopulationKind.WORKING_MEMORY:
        raise InvalidNetworkChange(f"population {pid} is not working memory")
    if pop.sustained:
        net._drop_due(pop)
        net._unsustain(pop)
    net._floors.pop(pid, None)
    net._set_activation(pop, 0.0)
    if type(pop) is _Memory and pop.sustained_since is None and net._woken is None:
        del net._pops[pid]


def _filing(net):
    """How the network files its ids: flowing, settled, floors and horizon
    entries relative to the clock, with every built level and sustain step."""
    return (set(net._flowing), set(net._settled), dict(net._floors),
            {at - net.time: set(ids) for at, ids in net._due.items()},
            sorted((pop.pid, pop.activation, pop.sustained_since) for pop in net.populations()),
            net.active_pids())


def _bind_op(bb, op, n, words):
    """Apply one bind, release, query or steps op chosen by `n`; returns what
    it answered or refused."""
    try:
        if op == "concept":
            word = words[n % len(words)]
            pool = POOL_FOR_TYPE[bb.lexicon.lookup(word)[1]]
            if bb.free_hubs(pool):
                bb.bind_concept(word, bb.allocate_hub(pool))
        elif op == "cell":
            cells = sorted(key for key in bb.cells if bb.hub_word(key[0]) and bb.hub_word(key[1]))
            if cells:
                bb.bind_hubs(*cells[n % len(cells)])
        elif op == "release":
            held = sorted(bb._bindings)
            if held:
                bb.release(held[n % len(held)])
        elif op == "release_all":
            bb.release_all()
        elif op == "query":
            bound = sorted(b.word for b in bb.active_bindings() if b.kind == "concept")
            if bound:
                relation = bb.relation_names[n // len(bound) % len(bb.relation_names)]
                word = bound[n % len(bound)]
                return run_query(bb, parse_query(f"{word} {relation}?" if n % 2 else f"? {relation} {word}"))
        else:
            for _ in range(n % 4 + 1):
                bb.network.step()
    except NbaError as exc:  # such as a cell already bound, or every cell at threshold 0
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("overrides", (
    {}, dict(wm_decay=0.9, wm_decay_horizon=7), dict(sustain_threshold=0.0), dict(decay=0.3),
), ids=("default", "wm_decay", "threshold0", "decay"))
@given(ops=st.lists(
    st.tuples(st.sampled_from(("concept", "cell", "release", "release_all", "query", "step")),
              st.integers(0, 10**6)),
    max_size=30,
))
@settings(max_examples=50, deadline=None)
def test_the_bind_path_files_each_id_as_a_reference_inject_does(overrides, ops):
    """Binds, releases, queries and steps leave every index consistent
    (`_check_indexes`) and file each id as a network does whose `inject`
    files it as flowing, floors it and then settles it, and whose
    `release_wm` builds a record to release and sets a level at rest. The
    configs are those of `scripts/trajectory_hash.py`."""
    nouns, verbs, adjectives = make_word_lists(5, 3, 2)
    config = Config(k_n=3, k_v=2, k_c=1, **overrides)
    bb, ref = (Blackboard(build_lexicon(nouns, verbs, adjectives), config) for _ in range(2))
    net = ref.network
    net.inject = functools.partial(_reference_inject, net)
    net.release_wm = functools.partial(_reference_release, net)
    net._settle = functools.partial(_reference_settle, net)
    words = nouns + verbs + adjectives
    for op, n in ops:
        assert _bind_op(bb, op, n, words) == _bind_op(ref, op, n, words)
        _check_indexes(bb.network)
        assert _filing(bb.network) == _filing(net)
    assert bb.snapshot_bytes() == ref.snapshot_bytes()


# ------------------------------------------------- reserved cells and relays


def _record_steps(net):
    """Wrap the instance's step to record (pid, activation) of the active set."""
    trace = []
    step = net.step

    def recorded():
        step()
        trace.append([(pid, net.activation(pid)) for pid in net.active_pids()])

    net.step = recorded
    return trace


@given(
    threshold=st.sampled_from((0.0, 0.5)),
    gain=st.sampled_from((1.0, 0.7, 1.4)),
    decay=st.sampled_from((0.0, 0.25)),
    horizon=st.sampled_from((None, 6)),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_reserved_cells_are_invisible(threshold, gain, decay, horizon, seed):
    """A board whose every population was touched first, so every cell is
    built, steps exactly like one that builds cells when flow needs them."""

    def run(touch_all):
        rng = random.Random(seed)
        nouns, verbs, adjs = make_word_lists(6, 4, 3)
        config = Config(k_n=10, k_v=3, k_c=2, gain=gain, decay=decay, sustain_threshold=threshold,
                        wm_decay_horizon=horizon, prep_labels=("of", "in"))
        bb = Blackboard(build_lexicon(nouns, verbs, adjs), config)
        net = bb.network
        if touch_all:
            for pid in range(net.population_count()):
                net.population(pid)
        trace = _record_steps(net)
        answers = []
        for _ in range(2):
            tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs, preps=("of", "in"))
            if threshold > 0.0:
                execute(compile(tokens, arcs), bb)
            else:  # every cell is sustained at rest, so none can be bound
                for token in tokens[: config.k_v]:
                    pool = POOL_FOR_TYPE.get(token.word_type)
                    if pool is not None and bb.free_hubs(pool):
                        bb.bind_concept(token.surface, bb.allocate_hub(pool))
            for word in sorted({t.surface for t in tokens if t.surface in bb.lexicon}):
                for relation in bb.relation_names:
                    for text in (f"{word} {relation}?", f"? {relation} {word}"):
                        answers.append(run_query(bb, parse_query(text)).entries)
            bb.release_all()
        return trace, answers, _counts(bb)

    lazy, eager = run(False), run(True)
    assert lazy == eager


def _built_cells(bb):
    """The cells whose working memory has a record; no relay is ever built."""
    built = {pop.pid for pop in bb.network.populations()}
    cells = set()
    for key, cell in bb.cells.items():
        assert not {cell.relay_fwd, cell.relay_rev} & built
        if cell.wm in built:
            cells.add(key)
    return cells


def test_restore_and_forward_query_hold_only_bound_cells():
    rng = random.Random(3)
    nouns, verbs, adjs = make_word_lists(60, 60, 60)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), Config(k_n=40, k_v=12, k_c=8))
    subjects = []
    for _ in range(4):
        tokens, arcs, triples = random_tree_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
        subjects += [s for s, r, _ in triples if r == "agent"]
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    bound = {
        (b.from_hub, b.to_hub, b.relation) for b in restored.active_bindings() if b.kind == "cell"
    }
    assert bound and _built_cells(restored) == bound

    trace = _record_steps(restored.network)
    answer = run_query(restored, parse_query(f"{subjects[0]} agent?"))
    assert answer == run_query(bb, parse_query(f"{subjects[0]} agent?"))
    seen = {pid for active in trace for pid, _ in active}
    reached = {hub for hub, pid in restored.pools["N"].pids.items() if pid in seen}
    assert reached
    assert _built_cells(restored) == bound



# ----------------------------------------------- bulk and one-word wiring


def _word_wms(bb):
    """Each wired word's working-memory ids, read through `word_wms`, in
    wiring order: the order of their ids."""
    wired = ((word, bb.word_wms(word)) for word in bb.lexicon.words())
    return dict(sorted(((word, wms) for word, wms in wired if wms is not None), key=lambda item: item[1].start))


def _pid_names(bb):
    """A name for every population id that does not depend on the order in
    which the structure was built."""
    net = bb.network
    names = {e.concept: ("concept", e.word) for e in bb.lexicon.entries()}
    names.update({pid: ("hub", hub) for pool in bb.pools.values() for hub, pid in pool.pids.items()})
    for word, wms in _word_wms(bb).items():
        hubs = bb.pools[POOL_FOR_TYPE[bb.lexicon.classify(word)]].hubs
        names.update({wm: ("wm", word, hub) for wm, hub in zip(wms, hubs, strict=True)})
    for key, cell in bb.cells.items():
        names.update({cell.wm: ("cell", *key), cell.relay_fwd: ("fwd", *key), cell.relay_rev: ("rev", *key)})
    names.update({pid: ("control", label) for label, pid in net._control_pops.items()})
    assert len(names) == net.population_count()
    return names


def _word_wiring(bb, names):
    """Per word: its working memories by name, and every connection they gate
    as (source, target, cid less the word's first cid), in cid order. Touches,
    and so builds, every word's working memory."""
    net = bb.network
    for wms in _word_wms(bb).values():
        for wm in wms:
            net.population(wm)
    gated = {}
    for conn in sorted(net.connections(), key=lambda c: c.cid):
        name = names[conn.gate.wm] if hasattr(conn.gate, "wm") else None
        if name and name[0] == "wm":
            gated.setdefault(name[1], []).append(conn)
    wiring = {}
    for word, wms in _word_wms(bb).items():
        conns = gated[word]
        first = conns[0].cid
        assert [c.cid for c in conns] == list(range(first, first + 2 * len(wms)))
        wiring[word] = (
            [names[wm] for wm in wms],
            [(names[c.source], names[c.target], c.cid - first) for c in conns],
        )
    return wiring


@pytest.mark.parametrize("k_n,k_v", [(3, 1), (4, 2), (7, 3)])
def test_words_added_one_at_a_time_match_a_bulk_built_board(k_n, k_v):
    rng = random.Random(k_n)
    nouns, verbs, adjs = make_word_lists(5, 4, 3)
    rows = [f"{w}\tN" for w in nouns] + [f"{w}\tV" for w in verbs] + [f"{w}\tADJ" for w in adjs]
    rows += ["the\tDET", "of\tP"]
    rng.shuffle(rows)  # interleave the pools, so word runs differ in length
    config = Config(k_n=k_n, k_v=k_v, k_c=1, relations=("agent", "theme", "modifier"))
    bulk = Blackboard(Lexicon.from_tsv("\n".join(rows)), config)
    single = Blackboard(Lexicon(), config)
    for entry in bulk.lexicon.entries():
        single.add_word(entry.word, entry.word_type)
    boards = (bulk, single)
    names = [_pid_names(bb) for bb in boards]

    assert [list(_word_wms(bb)) for bb in boards] == [list(_word_wms(bulk))] * 2
    assert set(_word_wms(bulk)) == set(nouns + verbs + adjs)
    assert _counts(single) == _counts(bulk) == _closed_form(bulk, 0)

    sentences = [random_template_sentence(rng, nouns, verbs, adjs)[:2] for _ in range(min(k_n // 3, k_v))]
    for bb in boards:
        for tokens, arcs in sentences:
            execute(compile(tokens, arcs), bb)
    traces = [_record_steps(bb.network) for bb in boards]
    for word in sorted(set(nouns + verbs + adjs)):
        for relation in bulk.relation_names:
            for text in (f"{word} {relation}?", f"? {relation} {word}"):
                answers = [run_query(bb, parse_query(text)) for bb in boards]
                assert answers[0] == answers[1]
    named = [
        [sorted((name[pid], act) for pid, act in step) for step in trace]
        for name, trace in zip(names, traces)
    ]
    assert named[0] == named[1] and any(named[0])

    assert _word_wiring(bulk, names[0]) == _word_wiring(single, names[1])


def _eager_ids(bb, words, first):
    """The working-memory ids the eager engine gave `words`, wired one after
    another from id `first`: one per hub of the word's pool, none for a
    word of no pool."""
    ids, next_id = {}, first
    for word in words:
        pool = POOL_FOR_TYPE.get(bb.lexicon.classify(word))
        if pool is not None:
            ids[word] = range(next_id, next_id + bb.pools[pool].capacity)
            next_id = ids[word].stop
    return ids, next_id


def _assert_eager(bb, eager, populations):
    """Every word's ids, `connection_count()` and `population_count()`
    are those of the eager reference."""
    for word in bb.lexicon.words():
        assert bb.word_wms(word) == eager.get(word), word
    assert bb.connection_count() == 2 * sum(map(len, eager.values())) + 2 * len(bb.cells)
    assert bb.network.population_count() == populations


@pytest.mark.parametrize("k_n,k_v,k_c", [(1, 1, 1), (3, 2, 1), (5, 3, 2)])
def test_word_memory_ids_and_counts_match_the_eager_engine(k_n, k_v, k_c):
    """Ids follow from lexicon rows: at construction, on a restore, and for
    words wired later, by `add_word` or by a bind of a word added to the
    lexicon behind the board's back (as `auto_add_words` does), in the
    order they are wired."""
    rng = random.Random(k_n)
    nouns, verbs, adjs = make_word_lists(6, 4, 3)
    rows = [f"{w}\tN" for w in nouns] + [f"{w}\tV" for w in verbs] + [f"{w}\tADJ" for w in adjs]
    rows += ["the\tDET", "of\tP", "hm\tX"]
    rng.shuffle(rows)  # words of no pool between and around the others
    config = Config(k_n=k_n, k_v=k_v, k_c=k_c, relations=("agent", "theme", "modifier"))
    bb = Blackboard(Lexicon.from_tsv("\n".join(rows)), config)
    n = len(bb.lexicon)
    eager, stop = _eager_ids(bb, bb.lexicon.words(), n + k_n + k_v + k_c)
    grids = bb.network.population_count() - stop  # cells and controls, after the words
    _assert_eager(bb, eager, stop + grids)
    assert bb.word_wms("the") is None and bb.word_wms("of") is None

    bb.add_word("zebra", WordType.NOUN)  # a concept, then its working memory
    populations = stop + grids
    eager["zebra"] = range(populations + 1, populations + 1 + k_n)
    populations = eager["zebra"].stop
    _assert_eager(bb, eager, populations)

    for word, word_type in (("yak", WordType.NOUN), ("gnu", WordType.VERB), ("an", WordType.DETERMINER)):
        bb.lexicon.add_word(word, word_type)
    concepts = range(populations, populations + 3)
    populations = concepts.stop
    assert [bb.lexicon.concept(w) for w in ("yak", "gnu", "an")] == list(concepts)
    assert bb.word_wms("yak") is None and bb.word_wms("gnu") is None
    _assert_eager(bb, eager, populations)
    bb.bind_concept("gnu", bb.allocate_hub("V"))  # wired on its first bind, before yak
    later, populations = _eager_ids(bb, ["gnu", "yak"], populations)
    bb.bind_concept("yak", bb.allocate_hub("N"))
    eager.update(later)
    _assert_eager(bb, eager, populations)
    assert bb.word_wms("an") is None

    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    restored_eager, stop = _eager_ids(restored, restored.lexicon.words(), len(restored.lexicon) + k_n + k_v + k_c)
    _assert_eager(restored, restored_eager, stop + grids)
    assert [b.wm for b in restored.active_bindings()] == [restored_eager["gnu"][0], restored_eager["yak"][0]]


# ------------------------------------------------- concepts built on touch


def _built_concepts(bb):
    from nba.dynamics import PopulationKind

    return {pop.pid for pop in bb.network.populations() if pop.kind is PopulationKind.CONCEPT}


def _semantic_lexicon(nouns, verbs, adjs):
    lex = build_lexicon(nouns, verbs, adjs)
    for subject, obj in zip(nouns[::3], nouns[1::3] + verbs):
        lex.add_semantic_relation(subject, "has", obj)
    return lex


def test_a_cue_builds_its_concept_and_a_lookup_does_not():
    lex = load_lexicon("cat\tN\npaw\tN\ntail\tN\n")
    lex.add_semantic_relation("cat", "has", "paw")
    net = lex.network
    assert list(net.populations()) == [] and net.population_count() == 3
    entry = lex.entry("cat")
    assert (entry.word, entry.word_type, lex.word_of(entry.concept)) == ("cat", WordType.NOUN, "cat")
    assert list(net.populations()) == []
    net.inject(entry.concept, 1.0)
    assert [pop.pid for pop in net.populations()] == [entry.concept]
    net.set_control("sem:fwd:has", True)
    net.step()  # paw is built as an inflow target; tail stays reserved
    assert {pop.pid for pop in net.populations()} == {entry.concept, lex.concept("paw")}
    assert net.activation(lex.concept("paw")) == 1.0


def test_no_concept_is_built_at_rest_even_at_zero_sustain_threshold():
    """Only working memory sustains, so a zero threshold builds every word's
    working memory at rest and none of its concepts."""
    lex = Lexicon.from_tsv("cat\tN\ndog\tN\nrun\tV\n")
    bb = Blackboard(lex, Config(k_n=2, k_v=2, k_c=1, sustain_threshold=0.0))
    assert _built_concepts(bb) == set()
    assert all(bb.network.population(wm).sustained for wms in _word_wms(bb).values() for wm in wms)


def test_restore_builds_no_concept_and_a_query_only_those_it_reaches():
    rng = random.Random(5)
    nouns, verbs, adjs = make_word_lists(60, 60, 60)
    bb = Blackboard(_semantic_lexicon(nouns, verbs, adjs), Config(k_n=40, k_v=12, k_c=8))
    subjects = []
    for _ in range(4):
        tokens, arcs, triples = random_tree_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
        subjects += [s for s, r, _ in triples if r == "agent"]
    restored = Blackboard.from_snapshot(json.loads(bb.snapshot_bytes()))
    assert _built_concepts(restored) == set()
    lex = restored.lexicon
    concepts = {lex.concept(word) for word in lex.words()}
    trace = _record_steps(restored.network)
    cues = []
    for text in (f"{subjects[0]} agent?", f"sem:{nouns[0]} has?", f"sem:? has {nouns[1]}"):
        answer = run_query(restored, parse_query(text))
        assert answer == run_query(bb, parse_query(text)) and answer
        cues.append(lex.concept(parse_query(text).cue))
    reached = {pid for active in trace for pid, _ in active} & concepts
    assert _built_concepts(restored) == set(cues) | reached
    assert len(reached) < 20


_CONCEPT_CASES = {
    # config overrides, sentences per board, max adjectives per noun
    "default": ({}, 1, 1),
    "bench_pools": ({"k_n": 40, "k_v": 12, "k_c": 8}, 4, 2),
    "horizon": ({"wm_decay_horizon": 24, "wm_decay": 0.9}, 1, 1),
    "zero_threshold": ({"k_n": 3, "k_v": 2, "k_c": 1, "sustain_threshold": 0.0}, 1, 1),
    # every word's working memory conducts at rest, so a cue's neighbours
    # hold activation across steps, and below saturation their decay shows
    "zero_threshold_decay": ({"k_n": 3, "k_v": 2, "k_c": 1, "sustain_threshold": 0.0, "decay": 0.25,
                              "gain": 0.3}, 1, 1),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case", sorted(_CONCEPT_CASES))
def test_inflow_into_unbuilt_concepts_matches_prebuilt_concepts(case, seed):
    """A board whose concepts were all built with its lexicon, before the
    board set their decay, steps and answers exactly like one that builds a
    concept when inflow first reaches it."""
    overrides, per_board, max_adjs = _CONCEPT_CASES[case]

    def run(prebuild):
        rng = random.Random(seed)
        nouns, verbs, adjs = make_word_lists(24, 12, 12)
        lex = _semantic_lexicon(nouns, verbs, adjs)
        if prebuild:
            for word in lex.words():
                lex.network.population(lex.concept(word))
        bb = Blackboard(lex, Config(**overrides))
        net = bb.network
        trace, answers = _record_steps(net), []
        for _ in range(2):
            words = set()
            for _ in range(per_board):
                tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs, preps=("of", "in", "on"),
                                                       max_adjectives=max_adjs)
                words.update(t.surface for t in tokens if t.surface in lex)
                if bb.config.sustain_threshold > 0.0:
                    execute(compile(tokens, arcs), bb)
                else:  # every cell is sustained at rest, so none can be bound
                    for token in tokens:
                        pool = POOL_FOR_TYPE.get(token.word_type)
                        if pool is not None and bb.free_hubs(pool):
                            bb.bind_concept(token.surface, bb.allocate_hub(pool))
            for word in sorted(words):
                texts = [f"sem:{word} has?", f"sem:? has {word}"]
                texts += [t for r in bb.relation_names for t in (f"{word} {r}?", f"? {r} {word}")]
                answers += [run_query(bb, parse_query(text)).entries for text in texts]
            bb.release_all()
        return trace, answers, len(_built_concepts(bb))

    lazy, eager = run(False), run(True)
    assert lazy[:2] == eager[:2] and any(lazy[1])
    assert lazy[2] <= eager[2] == 48
