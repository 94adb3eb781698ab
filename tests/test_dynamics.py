"""Core engine: gated flow, working-memory sustain, determinism."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nba.blackboard import Blackboard
from nba.config import Config
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.dynamics import (
    BindingGate,
    ControlGate,
    Network,
    PopulationKind,
    _Bindings,
    _Grid,
    clamp01,
)
from nba.encoder import compile, execute
from nba.errors import InvalidNetworkChange, NbaError, UnknownPopulation
from nba.labels import matrix_forward, matrix_reverse
from nba.lexicon import Lexicon
from nba.query import parse_query, run_query

CONCEPT = PopulationKind.CONCEPT
WM = PopulationKind.WORKING_MEMORY
HUB = PopulationKind.HUB
CONTROL = PopulationKind.CONTROL


def test_add_population_fresh_and_unique():
    net = Network()
    p0 = net.add_population(CONCEPT)
    p1 = net.add_population(WM)
    assert p0 != p1
    assert net.activation(p0) == 0.0
    assert net.population(p1).kind is WM and net.sustain_threshold == 0.5


def test_add_population_rejects_bad_threshold():
    """The sustain threshold is the network's, so its network refuses it."""
    with pytest.raises(ValueError):
        Network(sustain_threshold=1.5)


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
    wm = net.add_population(WM)
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
    wm = net.add_population(WM)
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
    wm = net.add_population(WM)
    net.add_gated_connection(driver, wm, ControlGate("drive"), gain=0.3)
    net.set_control("drive", True)
    net.inject(wm, 0.9)
    for _ in range(1000):
        if rng.random() < 0.5:
            net.inject(driver, rng.random())
        net.step()
        assert net.activation(wm) >= 0.5


def _idle_view(net):
    return [(p.pid, p.activation) for p in net.populations()], net.active_pids(), net.flowing_pids()


def test_wm_decay_horizon_releases():
    """Once the working memory settles, the steps before its release move
    the clock and nothing else; the release lands at since + horizon."""
    net = Network(wm_decay_horizon=5)
    wm = net.add_population(WM)
    net.inject(wm, 1.0)
    since = net.population(wm).sustained_since
    net.step()
    assert net.population(wm).sustained and net.flowing_pids() == frozenset()
    settled = _idle_view(net)
    for _ in range(4):
        time = net.time
        net.step()
        assert net.population(wm).sustained
        assert net.time == time + 1 and net.last_change == 0.0
        assert _idle_view(net) == settled
    assert net.time == since + 5
    net.step()
    assert not net.population(wm).sustained
    assert net.activation(wm) == 0.0
    assert net.last_change == 1.0 and net.active_pids() == []


def test_step_with_labels_asserted_and_nothing_flowing_only_moves_the_clock():
    """An asserted label with nothing active to carry moves no level."""
    net = Network()
    a, b = net.add_population(CONCEPT), net.add_population(CONCEPT)
    net.add_gated_connection(a, b, ControlGate("go"))
    net.set_control("go", True)
    for _ in range(3):
        time = net.time
        net.step()
        assert net.time == time + 1 and net.last_change == 0.0
        assert _idle_view(net) == ([(a, 0.0), (b, 0.0)], [], frozenset())
        assert net.asserted == {"go"}
    net.inject(a, 1.0)
    net.step()
    assert net.activation(b) == 1.0


def test_release_wm_requires_wm_kind():
    net = Network()
    p = net.add_population(CONCEPT)
    with pytest.raises(ValueError):
        net.release_wm(p)


def test_frozen_network_rejects_structure_changes():
    """Every structural change is refused before an id is taken or a
    reserved population, such as the gate's working memory, is built."""
    net = Network()
    net.add_population(CONCEPT)
    hubs = tuple(net.add_populations(HUB, 2))
    concepts = net.reserve_populations(CONCEPT, 2)
    wm = net.reserve_bindings([concepts[0]], {"N": hubs}, ["N"])[0]
    net.freeze()
    changes = [
        lambda: net.add_population(CONCEPT),
        lambda: net.add_populations(HUB, 2),
        lambda: net.add_gated_connection(hubs[0], hubs[1], BindingGate(wm)),
        lambda: net.reserve_populations(CONCEPT, 2),
        lambda: net.reserve_bindings([concepts[1]], {"N": hubs}, ["N"]),
        lambda: net.reserve_cells(hubs, hubs, "go", "back"),
    ]
    for change in changes:
        with pytest.raises(RuntimeError, match="network structure is frozen"):
            change()
        assert (net.population_count(), net.connection_count(), len(net.populations())) == (7, 4, 3)
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
    wms = [net.add_population(WM) for _ in range(n_wm)]
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


# ------------------------------------- each source's open edges, in id order


def _reference_step(net):
    """One step as the `step` docstring defines it, read from the listed
    connections and no index: each active source, in id order, sends along
    its open edges, control- and binding-gated alike, in connection id
    order, so each target's inflow is summed in source order, then id
    order."""
    open_out = {}
    for conn in sorted(net.connections(), key=lambda c: c.cid):
        if net.is_open(conn.gate):
            open_out.setdefault(conn.source, []).append(conn)
    inflow = {}
    for src in net.active_pids():
        a = net.population(src).activation
        if a <= 0.0:
            continue
        for conn in open_out.get(src, ()):
            inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
    floors, net._floors = net._floors, {}
    horizon = net.wm_decay_horizon
    for pid in sorted(set(net.active_pids()) | set(inflow) | set(floors)):
        pop = net.population(pid)
        if pop.kind is CONTROL:  # its level is its label's
            continue
        decay = net.wm_decay if pop.kind is WM else net.decay
        nxt = max(clamp01(decay * pop.activation + inflow.get(pid, 0.0)), floors.get(pid, 0.0))
        if pop.kind is WM and pop.sustained:
            if horizon is not None and net.time - pop.sustained_since >= horizon:
                net.release_wm(pid)
                continue
            nxt = max(nxt, net.sustain_threshold)
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


def test_a_sources_binding_and_control_edges_are_summed_in_id_order():
    """A binding edge (cid 0), a control edge (cid 1) and a binding edge
    (cid 2) from one source to one target sum in connection id order, as the
    `step` docstring says, not binding edges first: (0.1 + 0.2) + 0.4 and
    0.1 + 0.4 + 0.2 differ in the last bit."""
    net = Network()
    src, dst = net.add_population(CONCEPT), net.add_population(CONCEPT)
    wm = net.add_population(WM)
    assert net.add_gated_connection(src, dst, BindingGate(wm), gain=0.1) == 0
    assert net.add_gated_connection(src, dst, ControlGate("go"), gain=0.2) == 1
    assert net.add_gated_connection(src, dst, BindingGate(wm), gain=0.4) == 2
    net.set_control("go", True)
    net.inject(wm, 1.0)
    net.inject(src, 1.0)
    net.step()
    assert net.activation(dst) == (0.1 + 0.2) + 0.4 != 0.7


def test_step_reports_largest_change_including_horizon_releases():
    net = Network(wm_decay_horizon=2)
    a, b = net.add_population(CONCEPT), net.add_population(CONCEPT)
    wm = net.add_population(WM)
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
    out_edges = {src: [cid for cid, *_ in out] for src, out in sorted(net._out.items())}
    return net.time, sorted(net.asserted), dict(net._floors), net.last_change, pops, out_edges


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
                _check_indexes(probed)
            probed.restore_state(saved)
            _check_indexes(probed)
        probed.step()
        _reference_step_with_change(plain)
        for net in nets:
            _check_indexes(net)
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
    assert wm not in saved.flowing
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


@pytest.mark.parametrize("horizon", (None, 2))
def test_working_memory_that_settles_at_0_stays_inactive(horizon):
    """At sustain threshold 0, working memory is sustained at rest; with
    wm_decay 0 an injected one falls back to 0 and settles there, which
    leaves it out of the active set, steps included."""
    net = Network(wm_decay=0.0, sustain_threshold=0.0, wm_decay_horizon=horizon)
    wm = net.add_population(WM)
    net.inject(wm, 0.8)
    assert net.active_pids() == [wm]
    for _ in range(4):
        net.step()
        _check_indexes(net)
    assert net.activation(wm) == 0.0 and net.population(wm).sustained
    assert net.active_pids() == []


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
    assert saved.flowing == set()
    net.restore_state(saved)
    run_query(bb, parse_query(f"{bb.hub_word('N0')} agent?"))
    assert net._flowing == set()
    assert net.active_pids() == sustained


@pytest.mark.parametrize("overrides, busy", (({}, False), (dict(decay=0.3), False), (dict(wm_decay=0.9), True)))
def test_an_encode_steps_only_what_decays(overrides, busy):
    """A binding's working memory settles as it is bound, so an encode's
    steps have nothing to update, counted without a timer: no step starts
    with an id flowing, a floor pending, a row lit or a horizon entry due.
    Working memory that decays is not settled so, and keeps steps busy."""
    rng = random.Random(5)
    nouns, verbs, adjs = make_word_lists(30, 10, 10)
    bb = Blackboard(build_lexicon(nouns, verbs, adjs), Config(k_n=40, k_v=12, k_c=8, **overrides))
    net, counts = bb.network, {"busy": 0, "steps": 0}
    step = net.step

    def counted():
        counts["steps"] += 1
        counts["busy"] += bool(net._flowing or net._floors or net._lit or net.time in net._due)
        step()

    net.step = counted
    for _ in range(4):
        tokens, arcs, _ = random_tree_sentence(rng, nouns, verbs, adjs)
        execute(compile(tokens, arcs), bb)
    assert counts["steps"] > 40
    assert (counts["busy"] > 0) is busy


def _check_indexes(net):
    """Recount every index the network keeps from first principles: the
    flowing and settled ids from the levels and sustain records, the active
    set from the levels, and each source's out-edges and each row's open
    relays. A source's out-edges are its control edges, which never change
    once filed, one per connection id that no working memory gates, and the
    binding edges that each held, sustained working memory gates: the two
    its reservation says, and those added one by one. Each source's list is
    in id order, and no source keeps an empty one."""
    pops, flowing, settled = net._pops, net._flowing, net._settled
    assert not flowing & settled
    assert all(pops[pid].kind is not CONTROL and pops[pid].activation > 0.0 for pid in flowing | settled)
    assert all(pops[pid].sustained and pid not in net._sources for pid in settled)
    assert all(level > 0.0 for level in net._lit.values())
    active = net.active_pids()
    assert len(active) == len(set(active))
    above = {pop.pid for pop in net.populations() if pop.activation > 0.0}
    assert set(active) == above.union(*net._lit)
    out_edges, rows = {}, {}
    for src, out in net._out.items():
        assert out and [cid for cid, *_ in out] == sorted(cid for cid, *_ in out), src
        labelled = [edge for edge in out if edge[3] is not None]
        if labelled:
            out_edges[src] = labelled
    # every connection id that no working memory gates is a control edge's, filed for good
    gated = sum(4 * len(res.pids) // 3 if isinstance(res, _Grid) else 2 * len(res.pids)
                for res in net._reservations if isinstance(res, (_Bindings, _Grid)))
    gated += sum(map(len, net._wired.values()))
    assert sum(map(len, out_edges.values())) == net.connection_count() - gated
    for wm in [pop.pid for pop in net.populations() if pop.kind is WM and pop.sustained]:
        try:
            edges = list(net._reservation(wm).gated(wm))
        except UnknownPopulation:  # added, not reserved
            edges = []
        edges += net._wired.get(wm, ())
        for source, (cid, target, gain, label), _ in edges:
            assert label is None
            out_edges.setdefault(source, []).append((cid, target, gain, None))
            row = net._relay_row(source)
            if row is not None:
                rows.setdefault(row, set()).add(source)
    assert net._out == {src: sorted(out, key=lambda edge: edge[0]) for src, out in out_edges.items()}
    assert net._row_emitting == rows


@pytest.mark.parametrize("seed", range(12))
def test_emitting_ids_match_a_recount_on_random_networks(seed):
    """Connections, reserved cells (a grid without to-hubs among them),
    injections, controls, releases, the decay horizon and probes keep every
    index of the network equal to a recount (`_check_indexes`)."""
    net, pops, wms, labels = _wm_flow_network(seed, 0.9, 3, (0.5, 0.0)[seed % 2])
    rng = random.Random(seed)
    net.reserve_cells((pops[2], pops[3]), (pops[4],), "L0", "L1")
    net.reserve_cells((pops[5],), (), "L2", "L1")
    _check_indexes(net)
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
            _check_indexes(net)
            net.step()
            net.restore_state(saved)
        _check_indexes(net)
        net.step()
        _check_indexes(net)


def _kernel_state(net):
    """`_full_state`, with the flowing and settled ids, the open relays,
    the lit rows and the horizon entries, copied."""
    return (_full_state(net), set(net._flowing), set(net._settled),
            {row: set(relays) for row, relays in net._row_emitting.items()}, dict(net._lit),
            {at: set(due) for at, due in net._due.items()})


@pytest.mark.parametrize("seed", range(8))
def test_the_hold_and_release_passes_match_inject_and_release_wm(seed):
    """`hold_wm` leaves a network as `inject(wm, 1.0)` does, and
    `release_wms` as one `release_wm` per id in order, over added and
    reserved working memory, one of them also gating a connection added
    by itself, with probes between, under a decay horizon and at
    threshold 0."""
    nets = []
    for _ in range(2):
        net, pops, wms, labels = _wm_flow_network(seed, (1.0, 0.9)[seed % 2], (None, 3)[seed // 2 % 2],
                                                  (0.5, 0.0)[seed // 4])
        wms += net.reserve_cells((pops[2], pops[3]), (pops[4], pops[5]), "L0", "L1")[::3]
        net.add_gated_connection(pops[1], pops[0], BindingGate(wms[-1]), gain=0.3)  # wired to a reserved one
        nets.append(net)
    passes, calls = nets
    rng = random.Random(seed)
    for _ in range(40):
        r, wm, some = rng.random(), rng.choice(wms), rng.sample(wms, rng.randint(0, len(wms)))
        probe = rng.random() < 0.3
        for net in nets:
            saved = net.save_state() if probe else None
            if r < 0.4:
                net.hold_wm(wm) if net is passes else net.inject(wm, 1.0)
            elif r < 0.6:
                net.release_wms(some) if net is passes else [net.release_wm(w) for w in some]
            elif r < 0.8:
                net.inject(pops[seed % 6], 0.8)
            net.step()
            _check_indexes(net)
            if saved is not None:
                net.restore_state(saved)
        assert _kernel_state(passes) == _kernel_state(calls)


def test_the_hold_and_release_passes_refuse_what_is_not_working_memory():
    """A hold or a release of an id that is not working memory is refused
    and changes nothing: a concept, a relay, an id never taken, or one of
    no comparable type."""
    net = Network()
    concepts = net.reserve_populations(CONCEPT, 2)
    cells = net.reserve_cells((net.add_population(HUB),), (net.add_population(HUB),), "F", "R")
    before = _kernel_state(net)
    for pid, error in ((concepts[0], InvalidNetworkChange), (cells[1], InvalidNetworkChange),
                       (net.population_count(), UnknownPopulation), (-1, UnknownPopulation), ("x", TypeError)):
        with pytest.raises(error):
            net.hold_wm(pid)
        with pytest.raises(error):
            net.release_wms([cells[0], pid])
        with pytest.raises(NbaError):
            net.hold_wm(pid)
    with pytest.raises(NbaError):
        Network().hold_wm(0)
    assert _kernel_state(net) == before


_SETTLE_OPS = st.lists(
    st.tuples(st.sampled_from(("inject_wm", "inject", "step", "release", "control", "probe")),
              st.integers(0, 5), st.integers(0, 2)),
    max_size=30,
)


@pytest.mark.parametrize("horizon", (None, 3))
@pytest.mark.parametrize("threshold", (0.5, 0.0))
@pytest.mark.parametrize("wm_decay", (1.0, 0.9))
@given(seed=st.integers(0, 1000), ops=_SETTLE_OPS)
@settings(max_examples=30, deadline=None)
def test_working_memory_settled_by_inject_steps_like_the_reference(wm_decay, threshold, horizon, seed, ops):
    """Working memory that an injection settles, or a step, steps exactly as
    if every active population were updated, under random injections (to
    working memory and to concepts, at 1, at the threshold and in between),
    steps, releases, labels and probes saved and restored by hand. One working
    memory of the network is the source of a connection and never settles."""
    (net, pops, wms, labels), (plain, _, _, _) = (
        _wm_flow_network(seed, wm_decay, horizon, threshold) for _ in range(2)
    )
    levels = (1.0, threshold, (1.0 + threshold) / 2)
    for kind, i, level in ops:
        if kind == "probe":
            saved = net.save_state()
            net.set_control(labels[i % 3], True)
            for n in range(level + 1):
                net.inject(pops[i], 1.0)
                if n == 1:
                    net.inject(wms[i % 3], levels[level])
                net.step()
                _check_indexes(net)
            net.restore_state(saved)
        for target in (net, plain):
            if kind == "inject_wm":
                target.inject(wms[i % 3], levels[level])
            elif kind == "inject":
                target.inject(pops[i], levels[level])
            elif kind == "release":
                target.release_wm(wms[i % 3])
            elif kind == "control":
                target.set_control(labels[i % 3], level > 0)
        if kind == "step":
            net.step()
            _reference_step_with_change(plain)
            assert net.last_change == plain.last_change
        _check_indexes(net)
        assert [(p.pid, p.activation, p.sustained_since) for p in net.populations()] == [
            (p.pid, p.activation, p.sustained_since) for p in plain.populations()
        ]
        assert net.active_pids() == plain.active_pids()


# ------------------------------------------------- reserved rows against wiring



def _twin_grids(a, b):
    """Two grids chained under one label pair, as a clause runs V -> C -> V,
    and one grid from a pool to itself, whose diagonal cells join a hub to
    itself."""
    return ((a, b, "x", "x~"), (b, a, "x", "x~"), (a, a, "y", "y~"))


def _wired_twin(explicit, gain, decay, threshold, horizon):
    """Hubs, concepts, grids and words' working memory reserved with
    `reserve_populations`, `reserve_cells` and `reserve_bindings`, or the
    same structure built population by population and connection by
    connection; both take the same ids and connection ids. The last word's
    hubs include a cell's working memory, a source that can settle. Returns
    the network, its hubs, its concepts and its working memory: the cells',
    then the words'."""
    net = Network(decay=decay, sustain_threshold=threshold, wm_decay_horizon=horizon)
    a, b = tuple(net.add_populations(HUB, 3)), tuple(net.add_populations(HUB, 2))
    concepts = list((net.add_populations if explicit else net.reserve_populations)(CONCEPT, 3))
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
    word_hubs = [a, b, (b[1], wms[0])]
    if not explicit:
        starts = net.reserve_bindings(concepts, dict(enumerate(word_hubs)), range(len(word_hubs)), gain)
        for run in map(range, starts, starts[1:]):
            wms += run
        return net, a + b, concepts, wms
    for concept, hubs in zip(concepts, word_hubs):
        for hub in hubs:
            wm = net.add_population(WM)
            net.add_gated_connection(concept, hub, BindingGate(wm), gain)
            net.add_gated_connection(hub, concept, BindingGate(wm), gain)
            wms.append(wm)
    return net, a + b, concepts, wms


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
        st.tuples(
            st.sampled_from(("hub", "concept", "wm", "label", "release", "probe", "step")), st.integers(0, 10**6)
        ),
        max_size=30,
    ),
)
# a cell's working memory settles, then a word's binding to it is first built
@example(gain=1.0, decay=0.0, threshold=0.5, horizon=None,
         ops=[("wm", 56), ("step", 0), ("step", 0), ("wm", 83), ("step", 0), ("step", 0)])
@settings(max_examples=60, deadline=None)
def test_reserved_rows_step_like_explicit_wiring(gain, decay, threshold, horizon, ops):
    """Grids reserved as rows, and words' working memory reserved as one
    block, step exactly like the same structure wired population by
    population, through hub, concept and working-memory injections, label
    toggles, releases, and probes that are saved and restored."""
    twins = [_wired_twin(explicit, gain, decay, threshold, horizon) for explicit in (False, True)]
    _, hubs, concepts, wms = twins[0]
    assert (concepts, wms) == tuple(twins[1][2:])
    counts = [(net.population_count(), net.connection_count()) for net, *_ in twins]
    assert counts[0] == counts[1]
    labels = ("x", "x~", "y", "y~")
    nets = [net for net, *_ in twins]

    def step_and_compare(where):
        for net in nets:
            net.step()
        assert _twin_view(nets[0]) == _twin_view(nets[1]), where

    for i, (op, n) in enumerate(ops):
        for net in nets:
            if op == "hub":
                net.inject(hubs[n % len(hubs)], (n % 20 + 1) / 20)
            elif op == "concept":
                net.inject(concepts[n % len(concepts)], (n % 20 + 1) / 20)
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


def _control_view(net):
    """A twin view, plus each built control connection as (cid, source,
    target, label, gain)."""
    built = sorted((c.cid, c.source, c.target, c.gate.label, c.gain)
                   for c in net.connections() if isinstance(c.gate, ControlGate))
    return _twin_view(net), built


@given(
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from(("a", "b"))), max_size=12),
    built_first=st.sets(st.integers(0, 5)),
    ops=st.lists(st.tuples(st.sampled_from(("concept", "label", "probe", "step")), st.integers(0, 10**6)),
                 max_size=25),
)
@settings(max_examples=60, deadline=None)
def test_reserved_control_connections_step_like_explicit_ones(edges, built_first, ops):
    """Control-gated connections reserved in one call take the connection
    ids adding them one by one takes; those of a source are built with the
    source (at once for one built already), and every step, probe and
    restore is as if all were built from the start."""
    nets = [Network(decay=0.25) for _ in range(2)]
    for net in nets:
        concepts = net.reserve_populations(CONCEPT, 6)
        net.add_population(HUB)
        for pid in sorted(built_first):
            net.population(concepts[pid])
    triples = [(concepts[s], concepts[t], label) for s, t, label in edges]
    nets[0].reserve_control_connections(triples, 0.5)
    cids = [nets[1].add_gated_connection(s, t, ControlGate(label), 0.5) for s, t, label in triples]
    assert cids == list(range(len(triples)))
    assert nets[0].connection_count() == nets[1].connection_count() == len(triples)
    reference = set(_control_view(nets[1])[1])

    def compare(where):
        (view, built), (eager_view, _) = map(_control_view, nets)
        assert view == eager_view, where
        built_sources = {pop.pid for pop in nets[0].populations()}
        assert set(built) == {edge for edge in reference if edge[1] in built_sources}, where

    compare("reserved")
    for i, (op, n) in enumerate(ops):
        for net in nets:
            if op == "concept":
                net.inject(concepts[n % 6], (n % 20 + 1) / 20)
            elif op == "label":
                net.set_control(("a", "b")[n % 2], n % 3 != 0)
        if op == "probe":
            saved = [net.save_state() for net in nets]
            for k in range(n % 4 + 1):
                for net in nets:
                    net.inject(concepts[n // 7 % 6], 1.0)
                    net.step()
                compare((i, op, k))
            for net, state in zip(nets, saved):
                net.restore_state(state)
        for net in nets:
            net.step()
        compare((i, op))
    for pid in concepts:
        nets[0].population(pid)
    assert set(_control_view(nets[0])[1]) == reference


def test_control_connections_reserved_and_added_in_turn_step_like_ones_added_one_by_one():
    """Control-gated connections from one source, reserved in some calls and
    added one by one between them under two labels, are filed in id order:
    a step sums a target's inflow in the order edges added one by one give,
    to the bit, under either label alone and under both."""
    calls = [  # (reserved?, [(target, label)], gain), in turn
        (True, [(0, "a"), (0, "b"), (1, "a")], 0.1),
        (False, [(0, "a")], 0.2),
        (True, [(0, "b"), (0, "a"), (1, "b")], 0.3),
        (False, [(0, "b")], 0.15),
        (True, [(0, "a"), (1, "a")], 0.05),
        (False, [(1, "b")], 0.25),
    ]
    level = 0.7

    def in_turn(gains):  # a target's inflow, summed as a step sums it
        total = 0.0
        for gain in gains:
            total += gain * level
        return total

    # target 0 takes these gains under a and under b, in id order; summed in
    # another order, they give other bits
    for gains in ((0.1, 0.2, 0.3, 0.05), (0.1, 0.3, 0.15)):
        assert in_turn(gains) != in_turn(gains[::-1])
    nets = [Network(), Network()]
    source, *targets = [net.reserve_populations(CONCEPT, 3) for net in nets][0]
    for reserved, edges, gain in calls:
        triples = [(source, targets[t], label) for t, label in edges]
        if reserved:
            nets[0].reserve_control_connections(triples, gain)
        else:
            for s, t, label in triples:
                nets[0].add_gated_connection(s, t, ControlGate(label), gain)
        for s, t, label in triples:
            nets[1].add_gated_connection(s, t, ControlGate(label), gain)
    assert _control_view(nets[0]) == _control_view(nets[1])
    # target 0's gains in id order under each set of labels
    for labels, gains in ((("a",), (0.1, 0.2, 0.3, 0.05)), (("b",), (0.1, 0.3, 0.15)),
                          (("a", "b"), (0.1, 0.1, 0.2, 0.3, 0.3, 0.15, 0.05))):
        views = []
        for net in nets:
            saved = net.save_state()
            for label in labels:
                net.set_control(label, True)
            net.inject(source, level)
            net.step()
            views.append(_twin_view(net))
            assert net.activation(targets[0]) == in_turn(gains), labels
            net.restore_state(saved)
            _check_indexes(net)
        assert views[0] == views[1], labels


@pytest.mark.parametrize("held", (False, True), ids=["before-its-record", "while-held"])
def test_a_binding_edge_added_to_reserved_working_memory_flows_while_it_is_held(held):
    """A binding-gated connection added one by one to reserved working
    memory joins the memory's record, whether the record is made after it
    (at the bind) or is held as it is added. It carries flow exactly while
    the memory is sustained, through a release and a second bind, and it is
    listed throughout."""
    net = Network()
    concept, hub, source, target = net.add_populations(HUB, 4)
    wm = net.reserve_bindings([concept], {"N": (hub,)}, ["N"])[0]

    def check(is_open):
        saved = net.save_state()
        net.inject(source, 1.0)
        net.step()
        assert net.activation(target) == (0.5 if is_open else 0.0)
        net.restore_state(saved)
        listed = {(c.cid, c.source, c.target, c.gate.wm) for c in net.connections() if isinstance(c.gate, BindingGate)}
        assert (cid, source, target, wm) in listed
        assert net.is_open(BindingGate(wm)) is is_open
        _check_indexes(net)

    if held:
        net.inject(wm, 1.0)
    cid = net.add_gated_connection(source, target, BindingGate(wm), 0.5)
    assert cid == 2  # after the two the reservation gives the memory
    check(held)
    for op in ("bind", "release", "bind"):
        if op == "bind":
            net.inject(wm, 1.0)
        else:
            net.release_wm(wm)
            assert wm not in {pop.pid for pop in net.populations()}  # the record is dropped
        check(op == "bind")


def _one_grid(threshold=0.5):
    net = Network(sustain_threshold=threshold)
    hubs = tuple(net.add_populations(HUB, 3))
    cells = net.reserve_cells(hubs[:1], hubs[1:], "go", "back")
    return net, hubs, cells


@pytest.mark.parametrize("looked_up", (False, True))
def test_inject_refuses_a_relay(looked_up):
    """A relay is never built: looking it up hands out a view of its row's
    level, and injecting it is refused either way."""
    net, hubs, cells = _one_grid()
    relay = cells[1]
    if looked_up:
        assert net.population(relay).activation == 0.0
    with pytest.raises(ValueError, match=f"population {relay} is a relay"):
        net.inject(relay, 1.0)
    assert net.active_pids() == [] and net.activation(relay) == 0.0
    assert sorted(pop.pid for pop in net.populations()) == sorted(hubs)


def test_add_gated_connection_refuses_a_relay():
    net, hubs, cells = _one_grid()
    for relay in (cells[1], cells[5]):  # the first forward relay and the last reverse relay
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.add_gated_connection(hubs[0], relay, ControlGate("go"))
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.add_gated_connection(relay, hubs[0], BindingGate(cells[0]))
    net.add_gated_connection(hubs[0], hubs[2], BindingGate(cells[0]))  # working memory is no relay


def test_a_binding_gate_on_reserved_working_memory_builds_no_record():
    """The gate's kind is read from the reservation: working memory at rest
    gets no record, and a gate on anything but working memory is refused."""
    net, hubs, cells = _one_grid()
    concept = net.reserve_populations(CONCEPT, 1)[0]
    net.add_gated_connection(hubs[0], hubs[2], BindingGate(cells[0]))
    assert len(net.populations()) == 3
    for pid in (hubs[1], cells[1], cells[2], concept):
        with pytest.raises(ValueError, match=f"gate population {pid} is not working memory"):
            net.add_gated_connection(hubs[0], hubs[2], BindingGate(pid))
    with pytest.raises(UnknownPopulation, match=f"no population with id {concept + 1}"):
        net.add_gated_connection(hubs[0], hubs[2], BindingGate(concept + 1))
    assert len(net.populations()) == 3


@pytest.mark.parametrize("count", [0, 2])
def test_working_memory_is_not_reserved_as_a_block(count):
    net = Network()
    with pytest.raises(InvalidNetworkChange) as info:
        net.reserve_populations(WM, count)
    assert str(info.value) == "working memory is reserved with the connections it gates"
    assert net.population_count() == 0


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
    for concepts, pool, relay in (([cells[1]], hubs[1:], cells[1]), ([concept], (hubs[1], cells[5]), cells[5])):
        with pytest.raises(ValueError, match=f"population {relay} is a relay"):
            net.reserve_bindings(concepts, {"N": pool}, ["N"])
    assert net.population_count() == count
    net.reserve_bindings([concept], {"N": (hubs[1], cells[3])}, ["N"])  # working memory may be a hub


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


# ------------------------------------------ levels and controls of the network


@pytest.mark.parametrize("key, value", [
    ("decay", 2.0), ("wm_decay", -1.0), ("sustain_threshold", 1.5), ("wm_decay_horizon", 0),
])
def test_network_refuses_a_level_out_of_range(key, value):
    with pytest.raises(InvalidNetworkChange, match=f"^{key} "):
        Network(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("decay", "x"), ("wm_decay", True), ("sustain_threshold", None), ("decay", [0.5]),
    ("wm_decay_horizon", "3"), ("wm_decay_horizon", 2.5), ("wm_decay_horizon", True),
])
def test_network_refuses_a_level_of_the_wrong_type(key, value):
    """A level is an int or a float and a horizon an int, neither a bool."""
    with pytest.raises(InvalidNetworkChange, match=f"^{key} "):
        Network(**{key: value})


def test_network_takes_int_levels():
    net = Network(decay=0, wm_decay=1, sustain_threshold=1, wm_decay_horizon=2)
    assert (net.decay, net.wm_decay, net.sustain_threshold, net.wm_decay_horizon) == (0.0, 1.0, 1.0, 2)


def test_inject_refuses_a_control_population_and_changes_nothing():
    net = Network()
    a, b = net.add_population(CONCEPT), net.add_population(CONCEPT)
    go = net.register_control("go")
    net.set_control("go", True)
    net.inject(a, 0.5)
    before = (net.active_pids(), net.flowing_pids(), dict(net._floors), net.activation(go), net.time)
    with pytest.raises(InvalidNetworkChange, match=f"population {go} is a control population"):
        net.inject(go, 1.0)
    for source, target in ((a, go), (go, b)):
        with pytest.raises(InvalidNetworkChange, match=f"population {go} is a control population"):
            net.add_gated_connection(source, target, ControlGate("go"))
    assert (net.active_pids(), net.flowing_pids(), dict(net._floors), net.activation(go), net.time) == before
    assert net.connections() == []


def _controls_mirror_labels(net, labels):
    """Each control population is active, at 1.0, exactly while its label
    is asserted, and never flows."""
    active, flowing = set(net.active_pids()), net.flowing_pids()
    for label in labels:
        pid, on = net.register_control(label), label in net.asserted
        assert net.activation(pid) == net.population(pid).activation == (1.0 if on else 0.0), label
        assert (pid in active) == on and pid not in flowing, label


_CONTROL_OPS = st.lists(st.one_of(
    st.tuples(st.just("control"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("query"), st.sampled_from(("cat do?", "? do run", "dog do?", "? do eat"))),
    st.tuples(st.just("probe"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("step"),),
), max_size=12)


@given(ops=_CONTROL_OPS)
@settings(max_examples=60, deadline=None)
def test_control_populations_mirror_their_labels(ops):
    """Through set_control, run_query and a saved state restored after a
    probe, every registered control id holds its label's level."""
    bb = Blackboard(Lexicon.from_tsv("cat\tN\ndog\tN\nrun\tV\neat\tV\n"),
                    Config(k_n=2, k_v=2, k_c=1, relations=("agent", "theme")))
    net = bb.network
    labels = [label(name) for name in bb.relation_names for label in (matrix_forward, matrix_reverse)]
    n0, v0 = bb.allocate_hub("N"), bb.allocate_hub("V")
    bb.bind_concept("cat", n0)
    bb.bind_concept("run", v0)
    bb.bind_hubs(n0, v0, "agent")
    _controls_mirror_labels(net, labels)
    for op in ops:
        if op[0] == "control":
            net.set_control(labels[op[1]], op[2])
        elif op[0] == "query":
            run_query(bb, parse_query(op[1]))
        elif op[0] == "probe":
            saved = net.save_state()
            net.set_control(labels[op[1]], labels[op[1]] not in net.asserted)
            for _ in range(op[2]):
                net.step()
            net.restore_state(saved)
        else:
            net.step()
        _controls_mirror_labels(net, labels)
