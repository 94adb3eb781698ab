"""Core engine: gated flow, working-memory sustain, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.dynamics import (
    BindingGate,
    ControlGate,
    Network,
    PopulationKind,
    clamp01,
)
from nba.encoder import compile, execute
from nba.errors import UnknownPopulation
from nba.query import parse_query, run_query

CONCEPT = PopulationKind.CONCEPT
WM = PopulationKind.WORKING_MEMORY


def test_add_population_fresh_and_unique():
    net = Network()
    p0 = net.add_population(CONCEPT)
    p1 = net.add_population(WM, sustain_threshold=0.5)
    assert p0 != p1
    assert net.activation(p0) == 0.0
    assert net.population(p1).sustain_threshold == 0.5


def test_add_population_rejects_bad_threshold():
    net = Network()
    with pytest.raises(ValueError):
        net.add_population(WM, sustain_threshold=1.5)


def test_connection_validation():
    net = Network()
    a = net.add_population(CONCEPT)
    b = net.add_population(CONCEPT)
    with pytest.raises(UnknownPopulation):
        net.add_gated_connection(a, 999, ControlGate("x"))
    with pytest.raises(ValueError):
        net.add_gated_connection(a, b, ControlGate("x"), gain=0.0)
    with pytest.raises(ValueError):
        net.add_gated_connection(a, b, ControlGate("x"), gain=-1.0)
    with pytest.raises(ValueError):
        # binding gate must reference a working-memory population
        net.add_gated_connection(a, b, BindingGate(b))


def test_control_gate_opens_flow():
    net = Network()
    cat = net.add_population(CONCEPT)
    paw = net.add_population(CONCEPT)
    net.add_gated_connection(cat, paw, ControlGate("has"))
    net.set_control("has", True)
    net.inject(cat, 1.0)
    net.step()
    assert net.activation(paw) == 1.0  # open chain, gain 1, decay 0: one step


def test_closed_gate_transmits_nothing():
    net = Network()
    cat = net.add_population(CONCEPT)
    paw = net.add_population(CONCEPT)
    net.add_gated_connection(cat, paw, ControlGate("has"))
    net.inject(cat, 1.0)
    for _ in range(10):
        net.inject(cat, 1.0)
        net.step()
        assert net.activation(paw) == 0.0


def test_unused_label_is_noop():
    net = Network()
    cat = net.add_population(CONCEPT)
    paw = net.add_population(CONCEPT)
    net.add_gated_connection(cat, paw, ControlGate("has"))
    net.set_control("elsewhere", True)
    net.inject(cat, 1.0)
    net.step()
    assert net.activation(paw) == 0.0


def test_inject_is_max_merge_and_validated():
    net = Network()
    p = net.add_population(CONCEPT)
    net.inject(p, 0.6)
    net.inject(p, 0.3)
    assert net.activation(p) == 0.6  # max, not sum
    net.inject(p, 0.0)
    assert net.activation(p) == 0.6  # identity case
    with pytest.raises(ValueError):
        net.inject(p, 1.5)
    with pytest.raises(UnknownPopulation):
        net.inject(12345, 0.5)


def test_injected_cue_survives_one_step():
    # the injected level floors the next update, then re-driving takes over
    net = Network()
    p = net.add_population(CONCEPT)
    net.inject(p, 1.0)
    net.step()
    assert net.activation(p) == 1.0
    net.step()
    assert net.activation(p) == 0.0


def test_binding_gate_follows_wm_sustain():
    net = Network()
    cat = net.add_population(CONCEPT)
    run = net.add_population(CONCEPT)
    wm = net.add_population(WM, sustain_threshold=0.5)
    net.add_gated_connection(cat, run, BindingGate(wm))
    net.inject(cat, 1.0)
    net.step()
    assert net.activation(run) == 0.0
    net.inject(wm, 1.0)
    net.inject(cat, 1.0)
    net.step()
    assert net.activation(run) == 1.0
    net.release_wm(wm)
    net.inject(cat, 1.0)
    net.step()
    # run was not re-driven this step: the gate is closed again
    net.inject(cat, 1.0)
    net.step()
    assert net.activation(run) == 0.0


def _iterate_wm_rule(start, decay, threshold, steps):
    """Direct iteration of the documented update for a lone WM population:
    injected level floors the first update, then decay with sustain pinning."""
    values = []
    act = start
    floor = start
    sustained = act >= threshold
    for i in range(steps):
        nxt = clamp01(decay * act)
        if i == 0 and floor > nxt:
            nxt = floor
        if sustained and nxt < threshold:
            nxt = threshold
        act = nxt
        sustained = sustained or act >= threshold
        values.append(act)
    return values


def test_wm_decay_stays_pinned_at_threshold():
    net = Network(wm_decay=0.9)
    wm = net.add_population(WM, sustain_threshold=0.5)
    net.inject(wm, 0.6)
    expected = _iterate_wm_rule(0.6, 0.9, 0.5, 100)
    for value in expected:
        net.step()
        assert net.activation(wm) == value
        assert net.activation(wm) >= 0.5


def test_wm_persistence_under_random_input():
    rng = random.Random(20)
    net = Network()
    driver = net.add_population(CONCEPT)
    wm = net.add_population(WM, sustain_threshold=0.5)
    net.add_gated_connection(driver, wm, ControlGate("drive"), gain=0.3)
    net.set_control("drive", True)
    net.inject(wm, 0.9)
    for _ in range(1000):
        if rng.random() < 0.5:
            net.inject(driver, rng.random())
        net.step()
        assert net.activation(wm) >= 0.5


def test_wm_decay_horizon_releases():
    net = Network(wm_decay_horizon=5)
    wm = net.add_population(WM, sustain_threshold=0.5)
    net.inject(wm, 1.0)
    for _ in range(5):
        net.step()
        assert net.population(wm).sustained
    net.step()
    assert not net.population(wm).sustained
    assert net.activation(wm) == 0.0


def test_release_wm_requires_wm_kind():
    net = Network()
    p = net.add_population(CONCEPT)
    with pytest.raises(ValueError):
        net.release_wm(p)


def test_frozen_network_rejects_structure_changes():
    net = Network()
    net.add_population(CONCEPT)
    net.freeze()
    with pytest.raises(RuntimeError):
        net.add_population(CONCEPT)
    with net.structural_extension():
        extra = net.add_population(CONCEPT)
    assert net.population(extra) is not None
    with pytest.raises(RuntimeError):
        net.add_population(CONCEPT)


# ------------------------------------------------------------ random graphs

def build_random_network(rng, n_pops=6, n_wm=2, n_labels=2, n_edges=10):
    """Random gated graph; WM populations receive no input, so gate state is
    constant during a run once the initial sustain pattern is set."""
    net = Network()
    pops = [net.add_population(CONCEPT) for _ in range(n_pops)]
    wms = [net.add_population(WM, sustain_threshold=0.5) for _ in range(n_wm)]
    all_labels = [f"L{i}" for i in range(n_labels)]
    edges = []
    for _ in range(n_edges):
        src, dst = rng.choice(pops), rng.choice(pops)
        if src == dst:
            continue
        if rng.random() < 0.5:
            gate = ControlGate(rng.choice(all_labels))
        else:
            gate = BindingGate(rng.choice(wms))
        net.add_gated_connection(src, dst, gate)
        edges.append((src, dst, gate))
    for label in all_labels:
        if rng.random() < 0.5:
            net.set_control(label, True)
    for wm in wms:
        if rng.random() < 0.5:
            net.inject(wm, 1.0)
    return net, pops, edges, all_labels


def open_reachable(net, edges, start):
    """BFS over currently-open gates: the independent reachability reference."""
    adjacency = {}
    for src, dst, gate in edges:
        if net.is_open(gate):
            adjacency.setdefault(src, []).append(dst)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize("seed", range(40))
def test_closed_gate_isolation_random_graphs(seed):
    rng = random.Random(seed)
    net, pops, edges, _ = build_random_network(rng)
    start = rng.choice(pops)
    reachable = open_reachable(net, edges, start)
    for _ in range(12):
        net.inject(start, 1.0)
        net.step()
        for p in pops:
            if p not in reachable:
                assert net.activation(p) == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_boundedness_random_schedules(seed):
    rng = random.Random(seed)
    net, pops, edges, all_labels = build_random_network(rng, n_edges=14)
    for _ in range(20):
        if rng.random() < 0.7:
            net.inject(rng.choice(pops), rng.random())
        if rng.random() < 0.3:
            net.set_control(rng.choice(all_labels), rng.random() < 0.5)
        net.step()
        for pop in net.populations():
            assert 0.0 <= pop.activation <= 1.0


def _run_schedule(seed, extra_label=None):
    rng = random.Random(seed)
    net, pops, edges, all_labels = build_random_network(rng)
    if extra_label is not None:
        net.set_control(extra_label, True)
    history = []
    for _ in range(15):
        if rng.random() < 0.7:
            net.inject(rng.choice(pops), rng.random())
        net.step()
        history.append(tuple(pop.activation for pop in net.populations()))
    return history


@pytest.mark.parametrize("seed", range(25))
def test_determinism_bit_identical(seed):
    assert _run_schedule(seed) == _run_schedule(seed)


@pytest.mark.parametrize("seed", range(25))
def test_monotone_reachability(seed):
    base = _run_schedule(seed)
    wider = _run_schedule(seed, extra_label="L0")
    for before, after in zip(base, wider):
        for a, b in zip(before, after):
            assert b >= a


# ------------------------------------------- control edges indexed by label


def _reference_step(net):
    """One step as the engine took it before control edges were indexed by
    label: every control out-edge of each active source, in connection id
    order, is tested against the asserted labels."""
    control_out = {}
    for conn in sorted(net.connections(), key=lambda c: c.cid):
        if isinstance(conn.gate, ControlGate):
            control_out.setdefault(conn.source, []).append(conn)
    inflow = {}
    for src in sorted(net._active):
        a = net.population(src).activation
        if a <= 0.0:
            continue
        for conn in net._open_binding_out.get(src, ()):
            inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
        for conn in control_out.get(src, ()):
            if conn.gate.label in net.asserted:
                inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
    floors, net._floors = net._floors, {}
    horizon = net.wm_decay_horizon
    for pid in sorted(set(net._active) | set(inflow) | set(floors)):
        pop = net.population(pid)
        if pop.control_label is not None:
            net._set_activation(pop, 1.0 if pop.control_label in net.asserted else 0.0)
            continue
        nxt = max(clamp01(pop.decay * pop.activation + inflow.get(pid, 0.0)), floors.get(pid, 0.0))
        if pop.kind is WM and pop.sustained:
            if horizon is not None and net.time - pop.sustained_since >= horizon:
                net.release_wm(pid)
                continue
            nxt = max(nxt, pop.sustain_threshold)
        net._set_activation(pop, nxt)
    net.time += 1


def _multi_label_network(seed):
    """Small gains keep sums below the clamp, so a changed summation order
    shows in the last bits. Every label has an edge from source 0 to
    target 1, and all labels can be asserted at once."""
    rng = random.Random(seed)
    net = Network(decay=rng.choice((0.0, 0.3)), wm_decay=0.9, wm_decay_horizon=rng.choice((None, 4)))
    pops = [net.add_population(CONCEPT) for _ in range(6)]
    wms = [net.add_population(WM) for _ in range(2)]
    labels = ["L0", "L1", "L2", "L3"]
    edges = [(pops[0], pops[1], ControlGate(label)) for label in labels]
    for _ in range(24):
        gate = ControlGate(rng.choice(labels)) if rng.random() < 0.7 else BindingGate(rng.choice(wms))
        edges.append((rng.choice(pops[:3]), rng.choice(pops), gate))
    rng.shuffle(edges)
    for src, dst, gate in edges:
        net.add_gated_connection(src, dst, gate, gain=rng.uniform(0.01, 0.3))
    return net, pops, wms, labels


@pytest.mark.parametrize("seed", range(40))
def test_label_indexed_step_matches_reference(seed):
    nets = [_multi_label_network(seed)[0], _multi_label_network(seed)[0]]
    _, pops, wms, labels = _multi_label_network(seed)
    rng = random.Random(seed)
    for label in labels:
        if rng.random() < 0.8:
            for net in nets:
                net.set_control(label, True)
    for _ in range(30):
        ops = []
        if rng.random() < 0.6:
            ops.append(("inject", rng.choice(pops), rng.uniform(0.05, 0.6)))
        if rng.random() < 0.2:
            ops.append(("inject", rng.choice(wms), 1.0))
        if rng.random() < 0.2:
            ops.append(("control", rng.choice(labels), rng.random() < 0.7))
        if rng.random() < 0.05:
            ops.append(("release", rng.choice(wms)))
        for net in nets:
            for op in ops:
                if op[0] == "inject":
                    net.inject(op[1], op[2])
                elif op[0] == "control":
                    net.set_control(op[1], op[2])
                else:
                    net.release_wm(op[1])
        nets[0].step()
        _reference_step(nets[1])
        state = [
            [(p.pid, p.activation, p.sustained, p.sustained_since) for p in net.populations()]
            for net in nets
        ]
        assert state[0] == state[1]
        assert nets[0].active_pids() == nets[1].active_pids()


def test_step_reports_largest_change_including_horizon_releases():
    net = Network(wm_decay_horizon=2)
    a, b = net.add_population(CONCEPT), net.add_population(CONCEPT)
    wm = net.add_population(WM, sustain_threshold=0.5)
    net.add_gated_connection(a, b, ControlGate("go"), gain=0.25)
    net.set_control("go", True)
    net.inject(a, 0.8)
    net.inject(wm, 0.9)
    net.step()  # b: 0 -> 0.2; a and wm keep their floors
    assert net.last_change == 0.8 * 0.25
    net.step()  # a falls to 0; b holds at 0.2
    assert net.last_change == 0.8
    net.step()  # wm's horizon release outweighs b falling to 0
    assert not net.population(wm).sustained
    assert net.last_change == 0.9


def _full_state(net):
    pops = [(p.pid, p.activation, p.sustained, p.sustained_since) for p in net.populations()]
    open_edges = {src: [c.cid for c in out] for src, out in sorted(net._open_binding_out.items()) if out}
    return net.time, sorted(net.asserted), dict(net._floors), net.last_change, pops, open_edges


@pytest.mark.parametrize("seed", range(30))
def test_restore_state_undoes_horizon_releases_exactly(seed):
    """A probe long enough for the decay horizon to release working memory,
    then restored, leaves every population, sustain record and open binding
    edge list as saved; later steps match a network that was never probed."""
    nets = [_multi_label_network(seed)[0] for _ in range(2)]
    probed, plain = nets
    _, pops, wms, labels = _multi_label_network(seed)
    rng = random.Random(seed)
    for net in nets:
        net.wm_decay_horizon = 3
        net.set_control(labels[0], True)
        net.inject(wms[1], 1.0)  # sustained before wms[0], so its edges open first
        net.step()
        net.inject(wms[0], 1.0)
        net.inject(pops[0], 0.5)
        net.step()
    saved_view = _full_state(probed)
    saved = probed.save_state()
    probed.set_control(rng.choice(labels), True)
    for _ in range(6):
        probed.inject(pops[rng.randrange(3)], 1.0)
        probed.step()
    assert not any(probed.population(wm).sustained for wm in wms)
    probed.restore_state(saved)
    assert _full_state(probed) == saved_view
    for _ in range(8):
        for net in nets:
            net.step()
        assert _full_state(probed) == _full_state(plain)


# ------------------------------------------------- settled working memory


def _reference_step_with_change(net):
    """`_reference_step`, which visits every active population, plus the
    step's largest activation change."""
    before = {p.pid: p.activation for p in net.populations()}
    _reference_step(net)
    net.last_change = max(abs(p.activation - before[p.pid]) for p in net.populations())


def _wm_flow_network(seed, wm_decay, horizon, threshold):
    """Random gated graph whose working memory also takes part in flow:
    wms[0] is the target of a control-gated connection and wms[1] the
    source of one."""
    rng = random.Random(seed)
    net = Network(decay=rng.choice((0.0, 0.3)), wm_decay=wm_decay, sustain_threshold=threshold,
                  wm_decay_horizon=horizon)
    pops = [net.add_population(CONCEPT) for _ in range(6)]
    wms = [net.add_population(WM) for _ in range(3)]
    labels = ["L0", "L1", "L2"]
    for _ in range(16):
        gate = ControlGate(rng.choice(labels)) if rng.random() < 0.6 else BindingGate(rng.choice(wms))
        net.add_gated_connection(rng.choice(pops), rng.choice(pops), gate, gain=rng.uniform(0.05, 0.5))
    net.add_gated_connection(pops[0], wms[0], ControlGate("L0"), gain=rng.uniform(0.05, 0.5))
    net.add_gated_connection(wms[1], pops[1], ControlGate("L1"), gain=rng.uniform(0.05, 0.5))
    return net, pops, wms, labels


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("threshold", (0.5, 0.0))
@pytest.mark.parametrize("horizon", (None, 1, 3, 6))
@pytest.mark.parametrize("wm_decay", (1.0, 0.9, 0.5))
def test_step_past_settled_working_memory_matches_reference(wm_decay, horizon, threshold, seed):
    """Leaving settled working memory out of a step changes no trajectory,
    sustain record or largest change, under every wm_decay and horizon.
    One network also runs probes, saved and restored, between its steps."""
    nets = [_wm_flow_network(seed, wm_decay, horizon, threshold)[0] for _ in range(2)]
    probed, plain = nets
    _, pops, wms, labels = _wm_flow_network(seed, wm_decay, horizon, threshold)
    rng = random.Random(seed)
    for net in nets:
        net.inject(wms[2], 0.5)  # settles on the first step, except at wm_decay < 1 and threshold 0
    settled_steps = 0
    for _ in range(40):
        ops = []
        if rng.random() < 0.5:
            ops.append(("inject", rng.choice(pops), rng.uniform(0.05, 1.0)))
        if rng.random() < 0.3:
            ops.append(("inject", rng.choice(wms), rng.choice((0.3, 0.5, 1.0))))
        if rng.random() < 0.2:
            ops.append(("control", rng.choice(labels), rng.random() < 0.6))
        if rng.random() < 0.08:
            ops.append(("release", rng.choice(wms)))
        for net in nets:
            for op in ops:
                if op[0] == "inject":
                    net.inject(op[1], op[2])
                elif op[0] == "control":
                    net.set_control(op[1], op[2])
                else:
                    net.release_wm(op[1])
        if rng.random() < 0.25:
            saved = probed.save_state()
            probed.set_control(rng.choice(labels), True)
            for _ in range(rng.randrange(1, 6)):
                probed.inject(rng.choice(pops), 1.0)
                probed.step()
            probed.restore_state(saved)
        probed.step()
        _reference_step_with_change(plain)
        state = [
            [(p.pid, p.activation, p.sustained, p.sustained_since) for p in net.populations()]
            for net in nets
        ]
        assert state[0] == state[1]
        assert probed.active_pids() == plain.active_pids()
        assert probed.last_change == plain.last_change
        settled_steps += bool(set(probed.active_pids()) - probed._flowing)
    # with threshold 0, only wm_decay 1 holds working memory still above 0
    assert settled_steps > 0 or (threshold == 0.0 and wm_decay < 1.0)


@pytest.mark.parametrize("wake", ("inflow", "horizon", "inject", "release"))
@pytest.mark.parametrize("wm_decay", (1.0, 0.5))
def test_restore_state_returns_woken_working_memory_exactly(wm_decay, wake):
    """A working memory settled at the save and woken by the probe comes
    back exactly, and later steps match a network never probed."""

    def build():
        net = Network(wm_decay=wm_decay, wm_decay_horizon=4 if wake == "horizon" else None)
        a, b = net.add_population(CONCEPT), net.add_population(CONCEPT)
        wm = net.add_population(WM)
        net.add_gated_connection(a, wm, ControlGate("feed"), gain=0.3)
        net.add_gated_connection(a, b, BindingGate(wm), gain=0.5)
        net.inject(wm, 0.8)
        net.inject(b, 0.4)
        net.step()
        net.step()
        return net, a, wm

    (probed, a, wm), (plain, _, _) = build(), build()
    assert wm in probed.active_pids() and wm not in probed._flowing
    saved_view = _full_state(probed)
    saved = probed.save_state()
    assert wm not in saved.activations
    if wake == "inflow":
        probed.set_control("feed", True)
    for n in range(5):
        probed.inject(a, 1.0)
        if n == 1 and wake == "inject":
            probed.inject(wm, 1.0)
        if n == 1 and wake == "release":
            probed.release_wm(wm)
        probed.step()
    assert wm in saved.woken
    probed.restore_state(saved)
    assert _full_state(probed) == saved_view
    for n in range(8):
        for net in (probed, plain):
            if n == 2:
                net.inject(a, 1.0)
            net.step()
        assert _full_state(probed) == _full_state(plain)


@pytest.mark.parametrize("how", ("connection", "cells"))
def test_settled_working_memory_flows_once_it_becomes_a_source(how):
    """A settled working memory made the source of a connection, built or
    reserved, flows again from the next step on."""
    net = Network()
    wm, b = net.add_population(WM), net.add_population(CONCEPT)
    net.inject(wm, 0.8)
    net.step()
    assert wm not in net._flowing
    if how == "connection":
        net.add_gated_connection(wm, b, ControlGate("go"))
        target = b
    else:
        target = net.reserve_cells((wm,), (b,), "go", "back")[1]  # the forward relay
    net.set_control("go", True)
    net.step()
    assert net.activation(target) == 0.8


def test_board_at_rest_steps_no_working_memory():
    """Four encoded tree sentences at rest leave only sustained working
    memory active, and all of it is settled: nothing flows, a probe saves
    nothing, and it leaves nothing flowing."""
    rng = random.Random(3)
    nouns, verbs, adjs = make_word_lists(30, 10, 10)
    config = Config(k_n=40, k_v=12, k_c=8, prep_labels=("of", "in"))
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), config)
    for _ in range(4):
        tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
    net = bb.network
    sustained = sorted(p.pid for p in net.populations() if p.sustained)
    assert len(sustained) == len(bb.active_bindings()) > 40
    assert net.active_pids() == sustained
    assert net._flowing == set()
    saved = net.save_state()
    assert saved.activations == {}
    net.restore_state(saved)
    run_query(bb, parse_query(f"{bb.hub_word('N0')} agent?"))
    assert net._flowing == set()
    assert net.active_pids() == sustained


def _emitting_by_recount(net):
    """Ids with an open binding out-edge, a control out-edge or rows."""
    return {src for src, out in net._open_binding_out.items() if out} | set(net._control_out) | set(
        net._rows)


@pytest.mark.parametrize("seed", range(12))
def test_emitting_ids_match_a_recount_on_random_networks(seed):
    """Connections, reserved cells (a grid without to-hubs among them),
    injections, controls, releases, the decay horizon and probes keep the
    emitting ids equal to a recount from the edge indexes."""
    net, pops, wms, labels = _wm_flow_network(seed, 0.9, 3, (0.5, 0.0)[seed % 2])
    rng = random.Random(seed)
    net.reserve_cells((pops[2], pops[3]), (pops[4],), "L0", "L1")
    net.reserve_cells((pops[5],), (), "L2", "L1")
    assert net._emitting == _emitting_by_recount(net)
    for _ in range(40):
        r = rng.random()
        if r < 0.4:
            net.inject(rng.choice(pops), rng.uniform(0.3, 1.0))
        elif r < 0.55:
            net.inject(rng.choice(wms), 1.0)
        elif r < 0.7:
            net.set_control(rng.choice(labels), rng.random() < 0.7)
        elif r < 0.8:
            net.release_wm(rng.choice(wms))
        else:
            saved = net.save_state()
            net.inject(rng.choice(pops), 1.0)
            net.step()
            net.step()
            net.restore_state(saved)
        net.step()
        assert net._emitting == _emitting_by_recount(net)


# ------------------------------------------------- reserved rows against wiring


HUB = PopulationKind.HUB


def _twin_grids(a, b):
    """Two grids chained under one label pair, as a clause runs V -> C -> V,
    and one grid from a pool to itself, whose diagonal cells join a hub to
    itself."""
    return ((a, b, "x", "x~"), (b, a, "x", "x~"), (a, a, "y", "y~"))


def _wired_twin(explicit, gain, decay, threshold, horizon):
    """Hubs and grids reserved with `reserve_cells`, or the same grids built
    cell by cell from populations and connections; both take the same ids
    and connection ids. Returns the network, its hubs and its cells'
    working memory."""
    net = Network(decay=decay, sustain_threshold=threshold, wm_decay_horizon=horizon)
    a, b = tuple(net.add_populations(HUB, 3)), tuple(net.add_populations(HUB, 2))
    wms = []
    for from_hubs, to_hubs, forward, reverse in _twin_grids(a, b):
        if not explicit:
            wms += net.reserve_cells(from_hubs, to_hubs, forward, reverse, gain)[::3]
            continue
        for src in from_hubs:
            for dst in to_hubs:
                wm, fwd, rev = net.add_population(WM), net.add_population(HUB), net.add_population(HUB)
                net.add_gated_connection(src, fwd, ControlGate(forward), gain)
                net.add_gated_connection(fwd, dst, BindingGate(wm), gain)
                net.add_gated_connection(dst, rev, ControlGate(reverse), gain)
                net.add_gated_connection(rev, src, BindingGate(wm), gain)
                wms.append(wm)
    return net, a + b, wms


def _twin_view(net):
    """Everything the two twins must agree on after a step: active ids,
    every id's level, the step's largest change and the open binding edges."""
    open_edges = sorted(
        (c.cid, c.source, c.target) for c in net.connections()
        if isinstance(c.gate, BindingGate) and net.is_open(c.gate)
    )
    levels = [net.activation(pid) for pid in range(net.population_count())]
    return net.active_pids(), levels, net.last_change, open_edges


@given(
    gain=st.sampled_from((0.7, 1.0, 1.4)),
    decay=st.sampled_from((0.0, 0.25)),
    threshold=st.sampled_from((0.0, 0.5)),
    horizon=st.sampled_from((None, 3)),
    ops=st.lists(
        st.tuples(st.sampled_from(("hub", "wm", "label", "release", "probe", "step")), st.integers(0, 10**6)),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_reserved_rows_step_like_explicit_wiring(gain, decay, threshold, horizon, ops):
    """Grids reserved as rows step exactly like the same grids wired cell by
    cell, through hub and working-memory injections, label toggles,
    releases, and probes that are saved and restored."""
    twins = [_wired_twin(explicit, gain, decay, threshold, horizon) for explicit in (False, True)]
    _, hubs, wms = twins[0]
    assert wms == twins[1][2]
    labels = ("x", "x~", "y", "y~")
    nets = [net for net, _, _ in twins]

    def step_and_compare(where):
        for net in nets:
            net.step()
        assert _twin_view(nets[0]) == _twin_view(nets[1]), where

    for i, (op, n) in enumerate(ops):
        for net in nets:
            if op == "hub":
                net.inject(hubs[n % len(hubs)], (n % 20 + 1) / 20)
            elif op == "wm":
                net.inject(wms[n % len(wms)], (0.3, 0.5, 1.0)[n % 3])
            elif op == "label":
                net.set_control(labels[n % len(labels)], n % 3 != 0)
            elif op == "release":
                net.release_wm(wms[n % len(wms)])
        if op == "probe":
            saved = [net.save_state() for net in nets]
            before = _twin_view(nets[0])
            for net in nets:
                net.set_control(labels[n % len(labels)], True)
            for k in range(n % 5 + 1):
                for net in nets:
                    net.inject(hubs[n // 7 % len(hubs)], 1.0)
                step_and_compare((i, op, k))
            for net, state in zip(nets, saved):
                net.restore_state(state)
            assert _twin_view(nets[0]) == _twin_view(nets[1]) == before, (i, op)
        step_and_compare((i, op))


def _one_grid(threshold=0.5):
    net = Network(sustain_threshold=threshold)
    hubs = tuple(net.add_populations(HUB, 3))
    cells = net.reserve_cells(hubs[:1], hubs[1:], "go", "back")
    return net, hubs, cells


@pytest.mark.parametrize("built", (False, True))
def test_inject_refuses_a_relay(built):
    net, hubs, cells = _one_grid()
    relay = cells[1]
    if built:
        net.population(relay)
    with pytest.raises(ValueError, match=f"population {relay} is a relay"):
        net.inject(relay, 1.0)
    assert net.active_pids() == [] and net.activation(relay) == 0.0
    assert sorted(pop.pid for pop in net.populations()) == sorted([*hubs, *(cells[:3] if built else ())])


def test_add_gated_connection_refuses_a_relay():
    net, hubs, cells = _one_grid()
    for relay in (cells[1], cells[5]):  # the first forward relay and the last reverse relay
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.add_gated_connection(hubs[0], relay, ControlGate("go"))
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.add_gated_connection(relay, hubs[0], BindingGate(cells[0]))
    net.add_gated_connection(hubs[0], hubs[2], BindingGate(cells[0]))  # working memory is no relay


def test_reserve_cells_refuses_a_relay_among_its_hubs():
    net, hubs, cells = _one_grid()
    count = net.population_count()
    with pytest.raises(ValueError, match=f"population {cells[2]} is a relay"):
        net.reserve_cells((hubs[0],), (cells[2],), "on", "off")
    assert net.population_count() == count
    net.reserve_cells((hubs[0],), (cells[0],), "on", "off")  # working memory may be a hub


def test_reserve_bindings_refuses_a_relay():
    net, hubs, cells = _one_grid()
    concept = net.reserve_populations(CONCEPT, 1)[0]
    count = net.population_count()
    for concepts, pools, relay in (([cells[1]], [hubs[1:]], cells[1]), ([concept], [(hubs[1], cells[5])], cells[5])):
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.reserve_bindings(concepts, pools)
    assert net.population_count() == count
    net.reserve_bindings([concept], [(hubs[1], cells[3])])  # working memory may be a hub


def test_reads_build_nothing():
    """Levels of reserved ids are read without building them: a lit relay
    reads its row's level, anything else 0, and the traced sum agrees."""
    net, hubs, cells = _one_grid()
    concept = net.reserve_populations(CONCEPT, 1)[0]
    net.set_control("go", True)
    net.inject(hubs[0], 0.8)
    net.step()
    row = [cells[1], cells[4]]  # the forward relays fed by hubs[0]
    assert net.active_pids() == [hubs[0], *row]
    assert [net.activation(pid) for pid in (*row, cells[2], cells[0], concept)] == [0.8, 0.8, 0.0, 0.0, 0.0]
    assert net.total_activation([HUB]) == 0.8 + 0.8 + 0.8
    assert net.total_activation([CONCEPT, WM]) == 0
    assert sorted(pop.pid for pop in net.populations()) == list(hubs)
