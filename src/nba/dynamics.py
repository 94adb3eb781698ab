"""Deterministic discrete-time engine for gated activation flow.

A network is a set of local populations joined by directed connections whose
transmission is conditional on a gate. Updates are synchronous; per step,

    next(p) = clamp01( decay(p) * act(p) + sum of gain * act(src)
                       over open incoming connections )

Gate openness:
  * a ControlGate is open while its label is asserted;
  * a BindingGate is open while its working-memory population is sustained,
    i.e. it has reached its sustain threshold and has not been released.

A sustained working-memory population is pinned at or above its threshold on
every update until an explicit release. An injected level drives a population
through the following update as well (the cue survives the step that
propagates it), after which activation is re-driven by inflow alone.

Structure may be reserved rather than built: ids are taken in construction
order, and the populations and connections behind them are built, at rest,
when first needed. A lexicon's concepts are reserved as one block; a concept
is built the first time it is touched: cued, reached by inflow, or looked
up. Word working memory is reserved for many words in one block; a word's
working memory for one hub, with the two connections it gates, is built the
first time it is touched. A matrix cell (working memory, forward and reverse
relay, and the two connections its working memory gates) is built the first
time one of its populations is touched: bound or looked up. Counts cover
reserved structure, so the structure is the same either way.

Relays are not stepped one by one. A relay's one in-edge runs from its row's
hub under its row's label, and a row's relays share one gain and one decay,
so they always hold one level: the network keeps it per lit row and moves
the row's relay ids into and out of the active set in bulk. Hub -> relay
connections are never built. Reading a level builds nothing.

A step updates only what can change. Sustained working memory gates the
flow of activation rather than taking part in it: once its next update is a
no-op it is settled, and steps pass it by until inflow, an injection, a
release or the decay horizon makes it change again (see `Network.step`).
Likewise a step reads out-edges only from emitting ids: those with an open
binding out-edge, a control out-edge or rows behind one. A lit relay whose
cell working memory is sustained emits its row's level; the rest of its row
is lit but emits nothing, so a probe pays for the paths its bindings open,
not for every relay its label lights.

Steps are dimensionless. Two runs from equal state with equal schedules of
injections and control assertions produce bit-identical trajectories.

The classes here are plain `__slots__` classes, so that loading the engine
for one query does not load `dataclasses`.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
from enum import Enum

from .errors import UnknownPopulation
from .value import Value


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class PopulationKind(Enum):
    CONCEPT = "concept"
    HUB = "hub"
    WORKING_MEMORY = "wm"
    CONTROL = "control"


class Population:
    """One local neural population reduced to a single activation value."""

    __slots__ = ("pid", "kind", "activation", "sustain_threshold", "decay", "sustained_since", "control_label")

    def __init__(self, pid: int, kind: PopulationKind, activation: float = 0.0,
                 sustain_threshold: float = 0.5, decay: float = 0.0):
        self.pid = pid
        self.kind = kind
        self.activation = activation
        self.sustain_threshold = sustain_threshold
        self.decay = decay
        # the step at which a working memory became sustained; None while it is not
        self.sustained_since: int | None = None
        # set only for populations that mirror an asserted control label
        self.control_label: str | None = None

    @property
    def sustained(self) -> bool:
        return self.sustained_since is not None


class _Relay(Population):
    """A built relay: its level is its row's, which only the row's hub drives."""

    __slots__ = ("_net", "row")

    def __init__(self, net: Network, pid: int, row: range, sustain_threshold: float, decay: float):
        self.pid, self.kind, self.row, self._net = pid, PopulationKind.HUB, row, net
        self.sustain_threshold, self.decay = sustain_threshold, decay
        self.sustained_since = self.control_label = None

    @property
    def activation(self) -> float:
        return self._net._lit.get(self.row, 0.0)


class ControlGate(Value):
    """Open while `label` is asserted by the control environment."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label


class BindingGate(Value):
    """Open while working-memory population `wm` is sustained."""

    __slots__ = ("wm",)

    def __init__(self, wm: int):
        self.wm = wm


class GatedConnection:
    __slots__ = ("cid", "source", "target", "gate", "gain")

    def __init__(self, cid: int, source: int, target: int, gate: ControlGate | BindingGate, gain: float = 1.0):
        self.cid = cid
        self.source = source
        self.target = target
        self.gate = gate
        self.gain = gain


def _cid(conn: GatedConnection) -> int:
    return conn.cid


class _Block:
    """Populations of one kind other than working memory, such as a
    lexicon's concepts; each is built, at rest, on first touch."""

    __slots__ = ("pids", "kind")

    def __init__(self, pids: range, kind: PopulationKind):
        self.pids = pids
        self.kind = kind


class _Bindings:
    """Working memory of many words, one run of consecutive ids per word.

    Word w's run starts at `starts[w]`; its i-th id gates concepts[w] ->
    hubs[w][i] over connection id `cid + 2 * (pid - pids.start)` and the
    mirror hubs[w][i] -> concepts[w] over the id after it.
    """

    __slots__ = ("pids", "cid", "starts", "concepts", "hubs", "gain")

    def __init__(self, pids: range, cid: int, starts: list[int], concepts: list[int],
                 hubs: list[tuple[int, ...]], gain: float):
        self.pids = pids
        self.cid = cid
        self.starts = starts
        self.concepts = concepts
        self.hubs = hubs
        self.gain = gain


class _Grid:
    """Cell k = i * len(to_hubs) + j joins from_hubs[i] to to_hubs[j].

    Its working memory is `pids[3k]`, its forward relay `pids[3k + 1]` and its
    reverse relay `pids[3k + 2]`. Connection ids `cid + 4k` ... `cid + 4k + 3`
    are from-hub -> forward relay (forward label), forward relay -> to-hub
    (working memory), to-hub -> reverse relay (reverse label) and reverse
    relay -> from-hub (working memory); the label-gated two are never built.
    Row i's forward relays are one row, fed by from_hubs[i]; column j's
    reverse relays are another, fed by to_hubs[j].
    """

    __slots__ = ("pids", "cid", "from_hubs", "to_hubs", "gain")

    def __init__(self, pids: range, cid: int, from_hubs: tuple[int, ...], to_hubs: tuple[int, ...], gain: float):
        self.pids = pids
        self.cid = cid
        self.from_hubs = from_hubs
        self.to_hubs = to_hubs
        self.gain = gain

    def relay_row(self, pid: int) -> range | None:
        """The row of relay `pid`; None for working memory."""
        (k, part), n = divmod(pid - self.pids.start, 3), len(self.to_hubs)
        first = k - k % n  # the first cell of k's forward row
        if part == 1:
            return self.pids[3 * first + 1:3 * (first + n):3]
        return self.pids[3 * (k % n) + 2::3 * n] if part else None

    def rows(self):
        """Every forward row, then every reverse row, as `relay_row` gives
        them but made in C: a board's construction makes hundreds."""
        start, stop, stride, repeat = self.pids.start, self.pids.stop, 3 * len(self.to_hubs), itertools.repeat
        forward = map(range, range(start + 1, stop, stride), range(start + stride, stop + 1, stride), repeat(3))
        return forward, map(range, range(start + 2, start + stride, 3), repeat(stop), repeat(stride))


class _SavedState:
    __slots__ = ("activations", "lit", "asserted", "floors", "time", "last_change", "sustain_log", "woken")

    def __init__(self, activations: dict[int, float], lit: dict[range, float], asserted: set[str],
                 floors: dict[int, float], time: int, last_change: float, sustain_log: list,
                 woken: dict[int, float]):
        # activation of each flowing id at the save
        self.activations = activations
        # level of each lit row at the save
        self.lit = lit
        self.asserted = asserted
        self.floors = floors
        self.time = time
        self.last_change = last_change
        # (population, its sustained_since before the change) per sustain change since the save
        self.sustain_log: list[tuple[Population, int | None]] = sustain_log
        # prior activation of each id that was not flowing when it first changed since the save
        self.woken = woken


class Network:
    """Populations plus gated connections under synchronous updates.

    One mutating context at a time; a Network is a self-contained value.
    Closed gates transmit exactly zero. Activations stay in [0, 1].
    Settled working memory is judged by `wm_decay_horizon` and each
    population's `decay` and `sustain_threshold`, so set them before any
    working memory is sustained.
    """

    def __init__(
        self,
        *,
        decay: float = 0.0,
        wm_decay: float = 1.0,
        sustain_threshold: float = 0.5,
        wm_decay_horizon: int | None = None,
    ):
        self.time = 0
        self.asserted: set[str] = set()
        self.default_decay = float(decay)
        self.default_wm_decay = float(wm_decay)
        self.default_sustain_threshold = float(sustain_threshold)
        self.wm_decay_horizon = wm_decay_horizon
        self._pops: dict[int, Population] = {}
        self._conns: dict[int, GatedConnection] = {}
        # static: control-gated out-edges per source, then per label, in id order
        self._control_out: dict[int, dict[str, list[GatedConnection]]] = {}
        # dynamic: binding-gated out-edges per source whose WM is sustained, in id order
        self._open_binding_out: dict[int, list[GatedConnection]] = {}
        # all binding-gated edges per gating WM
        self._binding_edges: dict[int, list[GatedConnection]] = {}
        self._control_pops: dict[str, int] = {}
        # reserved structure, in id order; built on first touch
        self._reservations: list[_Block | _Bindings | _Grid] = []
        self._reserved_starts: list[int] = []
        # static: the relay rows each hub feeds, per label, with their gain
        self._rows: dict[int, dict[str, list[tuple[range, float]]]] = {}
        # dynamic: level of each lit row, by its relay ids; a row at 0 is absent
        self._lit: dict[range, float] = {}
        # every active id; relays of lit rows are among them
        self._active: set[int] = set()
        # every active id except settled working memory and relays
        self._flowing: set[int] = set()
        # ids that are, or may become, the source of a connection; they never settle
        self._sources: set[int] = set()
        # ids that may emit: keys of _open_binding_out (non-empty), _control_out and _rows
        self._emitting: set[int] = set()
        # step -> settled working memory the decay horizon may release then
        self._due: dict[int, set[int]] = {}
        self._floors: dict[int, float] = {}
        # sustain changes since the last save_state, until it is restored
        self._sustain_log: list[tuple[Population, int | None]] | None = None
        # prior activation of ids changed while not flowing, likewise
        self._woken: dict[int, float] | None = None
        # largest activation change made by the last step
        self.last_change = 0.0
        self._frozen = False
        self._next_pid = 0
        self._next_cid = 0

    # ------------------------------------------------------------------ build

    def add_population(
        self,
        kind: PopulationKind,
        sustain_threshold: float | None = None,
        decay: float | None = None,
    ) -> int:
        return self.add_populations(kind, 1, sustain_threshold, decay)[0]

    def add_populations(
        self,
        kind: PopulationKind,
        count: int,
        sustain_threshold: float | None = None,
        decay: float | None = None,
    ) -> range:
        """Add `count` populations of one kind, at rest; returns their ids."""
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        thr = self.default_sustain_threshold if sustain_threshold is None else float(sustain_threshold)
        if not 0.0 <= thr <= 1.0:
            raise ValueError(f"sustain_threshold must be in [0, 1], got {thr}")
        if decay is None:
            decay = self.default_wm_decay if kind is PopulationKind.WORKING_MEMORY else self.default_decay
        pids, _ = self._take_ids(count, 0)
        for pid in pids:
            self._build_population(pid, kind, thr, float(decay))
        return pids

    def add_gated_connection(
        self,
        source: int,
        target: int,
        gate: ControlGate | BindingGate,
        gain: float = 1.0,
    ) -> int:
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        for pid in (source, target):
            if not 0 <= pid < self._next_pid:  # reserved endpoints stay unbuilt
                raise UnknownPopulation(f"no population with id {pid}")
            self._refuse_relay(pid)
        if gain <= 0.0:
            raise ValueError(f"gain must be positive, got {gain}")
        if isinstance(gate, BindingGate):
            wm = self.population(gate.wm)
            if wm.kind is not PopulationKind.WORKING_MEMORY:
                raise ValueError(f"gate population {gate.wm} is not working memory")
        cid = self._next_cid
        self._next_cid += 1
        self._build_connection(
            GatedConnection(cid=cid, source=source, target=target, gate=gate, gain=float(gain))
        )
        return cid

    def reserve_populations(self, kind: PopulationKind, count: int) -> range:
        """Reserve `count` populations of one kind, such as a lexicon's
        concepts; each is built, at rest and with the network's defaults, the
        first time it is touched. Returns their ids. Working memory is
        reserved with the connections it gates (`reserve_bindings`)."""
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        if kind is PopulationKind.WORKING_MEMORY:
            raise ValueError("working memory is reserved with the connections it gates")
        pids, _ = self._take_ids(count, 0)
        last = self._reservations[-1] if self._reservations else None
        if isinstance(last, _Block) and last.kind is kind and last.pids.stop == pids.start:
            last.pids = range(last.pids.start, pids.stop)  # words added one at a time share a block
        elif pids:
            self._reserve(_Block(pids, kind))
        return pids

    def reserve_bindings(
        self, concepts: list[int], hubs: list[tuple[int, ...]], gain: float = 1.0
    ) -> list[range]:
        """Reserve the working memory of many words as one block: for word w,
        one population per hub, the i-th gating a concepts[w] -> hubs[w][i]
        connection and its mirror.

        Ids are taken now, word after word, exactly as adding each population
        and its two connections in turn would take them; a population and its
        connections are built, at rest, the first time it is touched. Returns
        each word's working-memory ids, in hub order.
        """
        # distinct pools by identity: hashing each word's tuple costs more
        pools = {id(pool): pool for pool in hubs}.values()
        self._check_reservable((concepts, *pools), gain)
        starts = list(itertools.accumulate(map(len, hubs), initial=self._next_pid))
        pids, cid = self._take_ids(starts[-1] - starts[0], 2 * (starts[-1] - starts[0]))
        if pids:
            self._reserve(_Bindings(pids, cid, starts[:-1], list(concepts), list(hubs), float(gain)))
        return list(map(range, starts, starts[1:]))

    def reserve_cells(
        self,
        from_hubs: tuple[int, ...],
        to_hubs: tuple[int, ...],
        forward: str,
        reverse: str,
        gain: float = 1.0,
    ) -> range:
        """Reserve one matrix cell per (from-hub, to-hub) pair, row-major.

        A cell is a working-memory population and two relays: from-hub ->
        forward relay -> to-hub runs while `forward` is asserted and the
        working memory is sustained, and to-hub -> reverse relay -> from-hub
        likewise under `reverse`. Ids are taken now, exactly as adding each
        cell's three populations and four connections in turn would take
        them (see `_Grid`). A cell is built, at rest, when one of its
        populations is first touched; its relays' levels are kept per row
        (see the module docstring). Returns the cells' population ids: cell
        k = i * len(to_hubs) + j has working memory `pids[3k]` and relays
        `pids[3k + 1]` (forward) and `pids[3k + 2]` (reverse).
        """
        self._check_reservable((from_hubs, to_hubs), gain)
        hubs = {*from_hubs, *to_hubs}
        cells = len(from_hubs) * len(to_hubs)
        pids, cid = self._take_ids(3 * cells, 4 * cells)
        grid = _Grid(pids, cid, from_hubs, to_hubs, float(gain))
        self._sources.update(hubs)
        for hub in hubs & self._active:
            if hub not in self._flowing:  # settled working memory flows again as a source
                self._set_activation(self._pops[hub], self._pops[hub].activation)
        if cells:
            for feeders, label, rows in zip((from_hubs, to_hubs), (forward, reverse), grid.rows()):
                for hub, row in zip(feeders, rows):
                    by_label = self._rows.get(hub)
                    if by_label is None:
                        self._rows[hub] = {label: [(row, grid.gain)]}
                    else:
                        by_label.setdefault(label, []).append((row, grid.gain))
            self._emitting.update(hubs)
        self._reserve(grid)
        return pids

    def _check_reservable(self, groups, gain: float) -> None:
        """Reserved structure may join any population id already taken,
        except a relay. A group of ids clear of every grid, such as a block
        of concepts, is passed over in bulk."""
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        starts = self._reserved_starts
        for pids in groups:
            if not pids:
                continue
            lo, hi = min(pids), max(pids)
            if not (0 <= lo and hi < self._next_pid):
                bad = next(pid for pid in pids if not 0 <= pid < self._next_pid)
                raise UnknownPopulation(f"no population with id {bad}")
            if not self._rows:  # no grid, so no relay
                continue
            # the reservations that may hold an id of the group
            first, stop = bisect.bisect_right(starts, lo) - 1, bisect.bisect_right(starts, hi)
            if any(isinstance(res, _Grid) for res in self._reservations[max(first, 0):stop]):
                for pid in pids:
                    self._refuse_relay(pid)
        if gain <= 0.0:
            raise ValueError(f"gain must be positive, got {gain}")

    def _take_ids(self, pops: int, conns: int) -> tuple[range, int]:
        """Take the next `pops` population ids and `conns` connection ids;
        returns the population ids and the first connection id."""
        pids = range(self._next_pid, self._next_pid + pops)
        cid = self._next_cid
        self._next_pid = pids.stop
        self._next_cid += conns
        return pids, cid

    def _reserve(self, res: _Block | _Bindings | _Grid) -> None:
        self._reservations.append(res)
        self._reserved_starts.append(res.pids.start)
        if self.default_sustain_threshold <= 0.0 and not isinstance(res, _Block):
            # working memory at rest is already sustained, so its edges conduct;
            # a block holds none
            for pid in res.pids:
                self.population(pid)

    def register_control(self, label: str) -> int:
        """Create (once) a control population that mirrors an asserted label."""
        if label in self._control_pops:
            return self._control_pops[label]
        pid = self.add_population(PopulationKind.CONTROL)
        pop = self._pops[pid]
        pop.control_label = label
        self._control_pops[label] = pid
        if label in self.asserted:
            self._set_activation(pop, 1.0)
        return pid

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    @contextlib.contextmanager
    def structural_extension(self):
        """Temporarily lift the freeze for an explicit structural extension."""
        was = self._frozen
        self._frozen = False
        try:
            yield self
        finally:
            self._frozen = was

    # ------------------------------------------------------------ inspection

    def population(self, pid: int) -> Population:
        """The population with id `pid`; reserved structure is built here."""
        try:
            return self._pops[pid]
        except KeyError:
            return self._build_reserved(pid)

    def populations(self):
        """Built populations; reserved ones not yet built are not listed."""
        return self._pops.values()

    def connections(self):
        """Built connections; reserved ones not yet built are not listed."""
        return self._conns.values()

    def activation(self, pid: int) -> float:
        """The level of `pid`, read without building it: a reserved relay
        holds its row's level, any other reserved id is at rest."""
        pop = self._pops.get(pid)
        if pop is not None:
            return pop.activation
        row = self._relay_row(pid)
        return 0.0 if row is None else self._lit.get(row, 0.0)

    def population_count(self) -> int:
        """Populations in the structure, reserved ones included (ids are never freed)."""
        return self._next_pid

    def connection_count(self) -> int:
        """Connections in the structure, reserved ones included (ids are never freed)."""
        return self._next_cid

    def is_open(self, gate: ControlGate | BindingGate) -> bool:
        if isinstance(gate, ControlGate):
            return gate.label in self.asserted
        wm = self.population(gate.wm)
        return wm.sustained and wm.activation >= wm.sustain_threshold

    def total_activation(self, kinds) -> float:
        """Sum of the active levels of some kinds, in id order; builds nothing."""
        kinds, pops = set(kinds), self._pops
        hub = PopulationKind.HUB in kinds  # an active id not built is a relay
        return sum(
            self.activation(pid) for pid in sorted(self._active)
            if (pops[pid].kind in kinds if pid in pops else hub)
        )

    def active_pids(self):
        return sorted(self._active)

    def flowing_pids(self) -> frozenset[int]:
        """The active ids except settled working memory and the relays of
        lit rows, whose level their row holds; every other active population
        is among them."""
        return frozenset(self._flowing)

    def flowing_populations(self):
        """The populations of `flowing_pids()`, read live, without a copy:
        step nothing while iterating."""
        return map(self._pops.__getitem__, self._flowing)

    # -------------------------------------------------------------- controls

    def set_control(self, label: str, on: bool) -> None:
        """(De)assert a label; gate openness follows from the next step on."""
        if on:
            self.asserted.add(label)
        else:
            self.asserted.discard(label)
        pid = self._control_pops.get(label)
        if pid is not None:
            self._set_activation(self._pops[pid], 1.0 if on else 0.0)

    def inject(self, pid: int, level: float) -> None:
        """Raise activation to `level` now and floor the next update at it."""
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"inject level must be in [0, 1], got {level}")
        pop = self._pops.get(pid)
        if pop is None or type(pop) is _Relay:
            self._refuse_relay(pid)
            pop = self._build_reserved(pid)
        if level > pop.activation:
            self._set_activation(pop, level)
        else:
            # still refresh sustain bookkeeping for equal levels
            self._set_activation(pop, pop.activation)
        if level > 0.0:
            prev = self._floors.get(pid, 0.0)
            if level > prev:
                self._floors[pid] = level

    def release_wm(self, pid: int) -> None:
        """Explicitly release a working-memory population (idempotent)."""
        pop = self.population(pid)
        if pop.kind is not PopulationKind.WORKING_MEMORY:
            raise ValueError(f"population {pid} is not working memory")
        if not pop.sustained and pop.activation == 0.0:
            return
        if pop.sustained:
            self._unsustain(pop)
        self._floors.pop(pid, None)
        self._set_activation(pop, 0.0)

    # ------------------------------------------------------------------ step

    def step(self) -> None:
        """One synchronous update of every population whose update is not a
        no-op.

        A working memory is settled when it is sustained, has no pending
        floor, is the source of no connection, and its next update without
        inflow leaves its activation as it is (`decay * a == a`, or `a` is
        pinned at its sustain threshold). Sources are the flowing ids (the
        active ids that are not settled) that are also emitting, plus the
        open relays of lit rows; no other id has an edge that could carry
        its activation. Rows are updated in `_step_rows`. Candidates are the
        flowing ids plus this step's inflow targets and floors, plus, under a
        decay horizon, the settled ids due for release at this step.
        Candidates therefore include every id whose update is not a no-op,
        and an extra one is active, so it is updated exactly as if every
        active id were a candidate.

        Each target's inflow is summed in source order, then connection id
        order. `last_change` is set to the largest activation change made.
        Working memory takes a new level through `_set_activation`, which
        may sustain it; any other kind gets the same bookkeeping in place.
        """
        inflow: dict[int, float] = {}
        fed: dict[range, float] = {}
        asserted, lit = self.asserted, self._lit
        pops, open_out, control_out, rows = (
            self._pops, self._open_binding_out, self._control_out, self._rows
        )
        sources = self._flowing & self._emitting
        for row in lit:  # a lit row's emitting relays are those whose working memory is sustained
            sources.update(self._emitting.intersection(row))
        for src in sorted(sources):
            a = pops[src].activation  # flowing or a lit relay, so above 0
            out = open_out.get(src)
            if out:
                for conn in out:
                    inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
            by_label = rows.get(src)
            if by_label is not None:
                for label in asserted:
                    for row, gain in by_label.get(label, ()):
                        fed[row] = gain * a  # a relay's one in-edge
            by_label = control_out.get(src)
            if by_label is None:
                continue
            edges = None
            for label in asserted:
                out = by_label.get(label)
                if out:
                    edges = out if edges is None else sorted(edges + out, key=_cid)
            for conn in edges or ():
                inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
        change = self._step_rows(fed) if fed or lit else 0.0
        floors = self._floors
        self._floors = {}
        candidates = set(self._flowing)
        candidates.update(inflow)
        candidates.update(floors)
        # a probe reads its steps' entries and leaves them for the restored clock
        due = self._due.get(self.time) if self._woken is not None else self._due.pop(self.time, None)
        if due:
            # any active id may be a candidate, so stale entries change nothing
            candidates.update(self._active.intersection(due))
        horizon = self.wm_decay_horizon
        active, flowing, sources, woken = self._active, self._flowing, self._sources, self._woken
        wm = PopulationKind.WORKING_MEMORY
        for pid in sorted(candidates):
            try:
                pop = pops[pid]
            except KeyError:  # an inflow target still reserved, such as a concept
                pop = self._build_reserved(pid)
            label = pop.control_label
            if label is not None:
                nxt = 1.0 if label in asserted else 0.0
            else:
                nxt = pop.decay * pop.activation + inflow.get(pid, 0.0)
                nxt = 0.0 if nxt < 0.0 else (1.0 if nxt > 1.0 else nxt)  # clamp01
                if floors:
                    floor = floors.get(pid, 0.0)
                    if floor > nxt:
                        nxt = floor
                if pop.sustained_since is not None:  # only working memory sustains
                    if horizon is not None and self.time - pop.sustained_since >= horizon:
                        if pop.activation > change:
                            change = pop.activation
                        self.release_wm(pid)
                        continue
                    if nxt < pop.sustain_threshold:
                        nxt = pop.sustain_threshold
            if nxt != pop.activation:
                # an unchanged level needs no update: a working memory that
                # is not sustained always sits below its threshold
                delta = abs(nxt - pop.activation)
                if delta > change:
                    change = delta
                if pop.kind is wm:
                    self._set_activation(pop, nxt)
                else:
                    if woken is not None and pid not in flowing:
                        woken.setdefault(pid, pop.activation)
                    pop.activation = nxt
                    if nxt > 0.0:
                        active.add(pid)
                        flowing.add(pid)
                    else:
                        active.discard(pid)
                        flowing.discard(pid)
            since = pop.sustained_since
            if (
                since is not None
                and pid not in sources
                and max(clamp01(pop.decay * nxt), pop.sustain_threshold) == nxt
            ):
                # settled: without inflow or a floor, its next update is a no-op
                flowing.discard(pid)
                if horizon is not None:
                    self._due.setdefault(since + horizon, set()).add(pid)
        self.last_change = change
        self.time += 1

    def _step_rows(self, fed: dict[range, float]) -> float:
        """Take each lit row, and each row `fed` (gain times its hub's level),
        to its next level as a relay would; return the largest change. A row
        that lights or goes dark moves its relays in or out of the active set."""
        decay, lit, change, dark = self.default_decay, self._lit, 0.0, []
        for row, level in lit.items():
            nxt = decay * level + (fed.pop(row, 0.0) if fed else 0.0)
            nxt = 0.0 if nxt < 0.0 else (1.0 if nxt > 1.0 else nxt)  # clamp01
            if nxt != level:
                change = max(change, abs(nxt - level))
                if nxt > 0.0:
                    lit[row] = nxt  # a new value, not a new key: the loop goes on
                else:
                    dark.append(row)
        for row in dark:
            del lit[row]
            self._active.difference_update(row)
        for row, nxt in fed.items():  # dark until now
            nxt = 1.0 if nxt > 1.0 else nxt
            if nxt > 0.0:
                change = max(change, nxt)
                lit[row] = nxt
                self._active.update(row)
        return change

    # ----------------------------------------------------- query-time saving

    def save_state(self) -> _SavedState:
        """Save what a probe changes; one saved state is open at a time.

        Only flowing ids and lit rows are copied. Any other id is logged
        with its prior activation when it first changes, so settled working
        memory costs nothing unless the probe wakes it."""
        self._sustain_log = []
        self._woken = {}
        return _SavedState(
            activations={pid: self._pops[pid].activation for pid in self._flowing},
            lit=dict(self._lit),
            asserted=set(self.asserted),
            floors=dict(self._floors),
            time=self.time,
            last_change=self.last_change,
            sustain_log=self._sustain_log,
            woken=self._woken,
        )

    def restore_state(self, saved: _SavedState) -> None:
        """Return to a saved state. Sustain changes made since, such as
        releases by the decay horizon, are undone newest first, so
        `sustained_since` and the open binding edges are as saved.

        Levels are then written straight back, woken ids first, so that a
        saved flowing level wins, and the active and flowing sets are fixed
        in bulk, as are the lit rows. No write can newly sustain a working
        memory, as each one at or above its threshold is sustained as saved.
        Working memory woken since settles again: the flowing set is the
        saved one, and `step` keeps the horizon entries a probe reads."""
        self._sustain_log = self._woken = None
        for pop, since in reversed(saved.sustain_log):
            if pop.sustained:
                self._unsustain(pop)
            if since is not None:
                self._sustain(pop, since)
        pops, woken = self._pops, saved.woken
        for pid, act in itertools.chain(woken.items(), saved.activations.items()):
            pops[pid].activation = act
        self._active.difference_update(woken)
        self._flowing.difference_update(woken)
        # every saved flowing level is above 0; a woken id is active if its level is
        live = [pid for pid in woken if pops[pid].activation > 0.0]
        live += saved.activations
        self._active.update(live)
        # an id starts flowing only through a change, which logs it as woken
        self._flowing.update(saved.activations)
        for row in self._lit.keys() - saved.lit.keys():
            self._active.difference_update(row)
        for row in saved.lit.keys() - self._lit.keys():
            self._active.update(row)
        self._lit = dict(saved.lit)
        self.asserted = set(saved.asserted)
        self._floors = dict(saved.floors)
        self.time = saved.time
        self.last_change = saved.last_change

    # -------------------------------------------------------------- internal

    def _build_population(self, pid: int, kind: PopulationKind, thr: float, decay: float) -> Population:
        pop = Population(pid, kind, 0.0, thr, decay)  # positional: half the cost of keywords
        self._pops[pid] = pop
        if kind is PopulationKind.WORKING_MEMORY and pop.activation >= thr:
            self._sustain(pop, self.time)
        return pop

    def _build_connection(self, conn: GatedConnection) -> None:
        self._conns[conn.cid] = conn
        self._add_source(conn.source)
        if isinstance(conn.gate, ControlGate):
            by_label = self._control_out.setdefault(conn.source, {})
            bisect.insort(by_label.setdefault(conn.gate.label, []), conn, key=_cid)
            self._emitting.add(conn.source)
        else:
            self._binding_edges.setdefault(conn.gate.wm, []).append(conn)
            # open immediately if the condition already holds
            if self._pops[conn.gate.wm].sustained:
                bisect.insort(self._open_binding_out.setdefault(conn.source, []), conn, key=_cid)
                self._emitting.add(conn.source)

    def _reservation(self, pid: int) -> _Block | _Bindings | _Grid:
        """The reserved structure that owns `pid`."""
        i = bisect.bisect_right(self._reserved_starts, pid) - 1
        res = self._reservations[i] if i >= 0 else None
        if res is None or pid not in res.pids:
            raise UnknownPopulation(f"no population with id {pid}")
        return res

    def _relay_row(self, pid: int) -> range | None:
        """The row of relay `pid`, built or not; None for any other id."""
        pop = self._pops.get(pid)
        if pop is not None:
            return pop.row if type(pop) is _Relay else None
        grid = self._reservation(pid)
        return grid.relay_row(pid) if isinstance(grid, _Grid) else None

    def _refuse_relay(self, pid: int) -> None:
        if self._rows and self._relay_row(pid) is not None:
            raise ValueError(f"population {pid} is a relay: only its row's hub drives it")

    def _build_reserved(self, pid: int) -> Population:
        """Build the reserved structure that owns `pid`, at rest."""
        res = self._reservation(pid)
        if isinstance(res, _Block):
            return self._build_population(pid, res.kind, self.default_sustain_threshold, self.default_decay)
        if isinstance(res, _Grid):
            self._build_cell(res, (pid - res.pids.start) // 3)
        else:
            self._build_binding(res, pid)
        return self._pops[pid]

    def _build_binding(self, res: _Bindings, pid: int) -> None:
        """Working memory `pid` of `res` with the two connections it gates."""
        w = bisect.bisect_right(res.starts, pid) - 1
        concept, hub = res.concepts[w], res.hubs[w][pid - res.starts[w]]
        self._build_population(
            pid, PopulationKind.WORKING_MEMORY, self.default_sustain_threshold, self.default_wm_decay
        )
        cid, gate = res.cid + 2 * (pid - res.pids.start), BindingGate(pid)
        self._build_connection(GatedConnection(cid, concept, hub, gate, res.gain))
        self._build_connection(GatedConnection(cid + 1, hub, concept, gate, res.gain))

    def _build_cell(self, grid: _Grid, k: int) -> None:
        """Cell k of `grid`: its working memory, its two relays, and the
        relay -> hub connections the working memory gates."""
        i, j = divmod(k, len(grid.to_hubs))
        wm = grid.pids[3 * k]
        fwd, rev = wm + 1, wm + 2
        thr, decay = self.default_sustain_threshold, self.default_decay
        cid, gate, gain = grid.cid + 4 * k, BindingGate(wm), grid.gain
        edges = self._binding_edges[wm] = [
            GatedConnection(cid + 1, fwd, grid.to_hubs[j], gate, gain),
            GatedConnection(cid + 3, rev, grid.from_hubs[i], gate, gain),
        ]
        for conn in edges:  # a relay never settles, so it is not kept among sources
            self._conns[conn.cid] = conn
        # built after its edges, so that working memory sustained at rest opens them
        self._build_population(wm, PopulationKind.WORKING_MEMORY, thr, self.default_wm_decay)
        self._pops[fwd] = _Relay(self, fwd, grid.relay_row(fwd), thr, decay)
        self._pops[rev] = _Relay(self, rev, grid.relay_row(rev), thr, decay)

    def _add_source(self, pid: int) -> None:
        self._sources.add(pid)
        if pid in self._active and pid not in self._flowing:
            pop = self._pops[pid]
            self._set_activation(pop, pop.activation)  # wakes settled working memory

    def _set_activation(self, pop: Population, value: float) -> None:
        pid = pop.pid
        if self._woken is not None and pid not in self._flowing:
            self._woken.setdefault(pid, pop.activation)
        pop.activation = value
        if value > 0.0:
            self._active.add(pid)
            self._flowing.add(pid)
        else:
            self._active.discard(pid)
            self._flowing.discard(pid)
        if (
            pop.kind is PopulationKind.WORKING_MEMORY
            and pop.sustained_since is None
            and value >= pop.sustain_threshold
        ):
            self._sustain(pop, self.time)

    def _sustain(self, pop: Population, since: int) -> None:
        if self._sustain_log is not None:
            self._sustain_log.append((pop, pop.sustained_since))
        pop.sustained_since = since
        for conn in self._binding_edges.get(pop.pid, ()):
            bisect.insort(self._open_binding_out.setdefault(conn.source, []), conn, key=_cid)
            self._emitting.add(conn.source)

    def _unsustain(self, pop: Population) -> None:
        if self._sustain_log is not None:
            self._sustain_log.append((pop, pop.sustained_since))
        pop.sustained_since = None
        for conn in self._binding_edges.get(pop.pid, ()):
            out = self._open_binding_out.get(conn.source)
            if out is not None and conn in out:
                out.remove(conn)
                if not out and conn.source not in self._control_out and conn.source not in self._rows:
                    self._emitting.discard(conn.source)
