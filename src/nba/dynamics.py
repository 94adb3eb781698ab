"""Deterministic discrete-time engine for gated activation flow.

A network is a set of local populations joined by directed connections whose
transmission is conditional on a gate. Updates are synchronous; per step,

    next(p) = clamp01( decay(p) * act(p) + sum of gain * act(src)
                       over open incoming connections )

where decay(p) is the network's `wm_decay` for working memory and its
`decay` for every other kind. A population holds only its level and, for
working memory, when it became sustained; the decays and the one sustain
threshold are the network's.

Gate openness:
  * a ControlGate is open while its label is asserted;
  * a BindingGate is open while its working-memory population is sustained,
    i.e. it has reached the sustain threshold and has not been released.

A control population mirrors its label: its level is 1 while the label is
asserted and 0 otherwise, read from the asserted set, so it is active then
but is never stepped. A sustained working-memory population is pinned at or
above the threshold on every update until an explicit release. An injected
level drives a population through the following update as well (the cue
survives the step that propagates it), after which activation is re-driven
by inflow alone.

Structure may be reserved rather than built: ids are taken in construction
order, and the populations and connections behind them are built, at rest,
when first needed. A lexicon's concepts are reserved as one block; a concept
is built the first time it is touched: cued, reached by inflow, or looked
up. A control-gated connection, such as one of a lexicon's semantic
relations, is filed among its source's out-edges, with its label, as its
id is taken, whether the source is built or not: only a built source can
flow, and the connection is listed while its source is built. Working
memory is reserved with the two connections it gates, either for many
words' hubs as one block or as a grid of matrix cells, each of which adds
a forward and a reverse relay. A reservation only describes its layout:
each working memory's id and the two connections it gates.

A reserved working memory exists while it is held: binding it (or looking
it up with `population`) makes its record, which carries the two edges its
reservation gives it. Sustaining it files them among their sources'
out-edges and releasing it takes them out again; no edge of it is kept
anywhere else. A release that leaves it at rest drops the record, unless a
probe's saved state is open. Reading a level or a gate makes none: a
working memory without a record is at rest and its gate is closed. Relays
are never built: `population` hands one out as a view of its row's level.
Only binding-gated connections added one by one are stored, per working
memory. Counts cover reserved structure, so the structure is the same
either way.

Relays are not stepped one by one. A relay's one in-edge runs from its row's
hub under its row's label, and a row's relays share one gain and one decay,
so they always hold one level: the network keeps it per lit row, and that
level is the only record that the row's relays are active. They enter no
id set, so lighting a row, stepping it and restoring it do no work per
relay; `active_pids` lists them by reading the lit rows. Hub -> relay
connections are never built. Reading a level builds nothing.

A step updates only what can change. Sustained working memory gates the
flow of activation rather than taking part in it: once its next update is a
no-op it is settled, and steps pass it by until inflow, an injection, a
release or the decay horizon makes it change again. One rule says when
(`Network._settle`), and an injection, a step and a restored binding each
apply it, so a binding settles as it is bound, not a step later.
Each fact is kept once: the network holds the flowing ids and the settled
ones, and reads the rest of the active set from where it lives, control
populations from the asserted labels and lit relays from the lit rows. A
step looks up the out-edges of every flowing id once, as one id-ordered
list of its control edges and its open binding edges, and passes flow on
every binding edge and on each control edge whose label is asserted; rows
are looked up by hub and label. A lit relay whose cell working memory is
sustained emits its row's level; the rest of its row is lit but emits
nothing. Each row indexes its open relays, kept as working memory sustains
and releases, so a probe pays for the paths its bindings open, not for
every relay its label lights. A step with nothing flowing, no pending
floor, no lit row and no horizon entry due is idle: it only moves the
clock. Under the default config every step of an encode is idle, since
each binding settles as it is made.

Steps are dimensionless. Two runs from equal state with equal schedules of
injections and control assertions produce bit-identical trajectories.

The classes here are plain `__slots__` classes, so that loading the engine
for one query does not load `dataclasses`.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from bisect import bisect_right, insort
from enum import Enum

from .errors import FrozenNetwork, InvalidNetworkChange, UnknownPopulation
from .value import Value


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class PopulationKind(Enum):
    CONCEPT = "concept"
    HUB = "hub"
    WORKING_MEMORY = "wm"
    CONTROL = "control"


# the kinds as globals for the update path: reading a member off the class
# runs Python code each time
CONCEPT = PopulationKind.CONCEPT
HUB = PopulationKind.HUB
WORKING_MEMORY = PopulationKind.WORKING_MEMORY
CONTROL = PopulationKind.CONTROL


class Population:
    """One local neural population reduced to a single activation value.
    Its decay and sustain threshold are its network's, by kind."""

    __slots__ = ("pid", "kind", "activation", "sustained_since")

    def __init__(self, pid: int, kind: PopulationKind):
        self.pid = pid
        self.kind = kind
        self.activation = 0.0
        # the step at which a working memory became sustained; None while it is not
        self.sustained_since: int | None = None

    @property
    def sustained(self) -> bool:
        return self.sustained_since is not None


class _Memory(Population):
    """The record of a reserved working memory, kept while it is held, with
    the edges it gates: the two its reservation gives it (`_Bindings.gated`,
    `_Grid.gated`), then any added one by one."""

    __slots__ = ("gated",)


class _Relay(Population):
    """A relay as `population` hands it out, never built: its level is its
    row's, which only the row's hub drives."""

    __slots__ = ("_net", "row")

    def __init__(self, net: Network, pid: int, row: range):
        self.pid, self.kind, self.row, self._net = pid, HUB, row, net
        self.sustained_since = None

    @property
    def activation(self) -> float:
        return self._net._lit.get(self.row, 0.0)


class _Control(Population):
    """A control population: its level is 1 while its label is asserted, 0
    otherwise. It is active exactly then, and never flows."""

    __slots__ = ("_net", "label")

    def __init__(self, net: Network, pid: int, label: str):
        self.pid, self.kind, self.label, self._net = pid, CONTROL, label, net
        self.sustained_since = None

    @property
    def activation(self) -> float:
        return 1.0 if self.label in self._net.asserted else 0.0


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
    """A connection as `connections` lists it; the network keeps its edges
    as tuples."""

    __slots__ = ("cid", "source", "target", "gate", "gain")

    def __init__(self, cid: int, source: int, target: int, gate: ControlGate | BindingGate, gain: float):
        self.cid = cid
        self.source = source
        self.target = target
        self.gate = gate
        self.gain = gain


# the sort key of listed connections, in C
_cid = operator.attrgetter("cid")


class _Block:
    """Populations of one kind other than working memory, such as a
    lexicon's concepts; each is built, at rest, on first touch."""

    __slots__ = ("pids", "kind")

    def __init__(self, pids: range, kind: PopulationKind):
        self.pids = pids
        self.kind = kind


class _Bindings:
    """Working memory of many words, one run of consecutive ids per word.

    Word w binds the hubs `hubs[w]`, its pool's tuple. Its run starts at
    `starts[w]`; its i-th id gates concepts[w] -> hubs[w][i] over connection
    id `cid + 2 * (pid - pids.start)` and the mirror over the id after it.
    Every id is a working memory.
    """

    __slots__ = ("pids", "cid", "starts", "concepts", "hubs", "gain")

    def __init__(self, pids: range, cid: int, starts: list[int], concepts: list[int], hubs: list, gain: float):
        self.pids = pids
        self.cid = cid
        self.starts = starts
        self.concepts = concepts
        self.hubs = hubs
        self.gain = gain

    def gated(self, wm: int):
        """The two connections `wm` gates, as (source, edge, None): the edge
        is (cid, target, gain, None), as its source's out-edges file it,
        under no label, and there is no row, since neither source is a
        relay."""
        w = bisect_right(self.starts, wm) - 1
        concept, hub = self.concepts[w], self.hubs[w][wm - self.starts[w]]
        cid, gain = self.cid + 2 * (wm - self.pids.start), self.gain
        return (concept, (cid, hub, gain, None), None), (hub, (cid + 1, concept, gain, None), None)


class _Grid:
    """Cell k = i * len(to_hubs) + j joins from_hubs[i] to to_hubs[j].

    Its working memory is `pids[3k]`, its forward relay `pids[3k + 1]` and its
    reverse relay `pids[3k + 2]`. Connection ids `cid + 4k` ... `cid + 4k + 3`
    are from-hub -> forward relay (forward label), forward relay -> to-hub
    (working memory), to-hub -> reverse relay (reverse label) and reverse
    relay -> from-hub (working memory); the label-gated two are never built.
    Row i's forward relays are one row, fed by from_hubs[i]; column j's
    reverse relays are another, fed by to_hubs[j]. `rows` holds every
    forward row, then every reverse row, made once and in C: a board's
    construction makes hundreds.
    """

    __slots__ = ("pids", "cid", "from_hubs", "to_hubs", "gain", "rows")

    def __init__(self, pids: range, cid: int, from_hubs: tuple[int, ...], to_hubs: tuple[int, ...], gain: float):
        self.pids = pids
        self.cid = cid
        self.from_hubs = from_hubs
        self.to_hubs = to_hubs
        self.gain = gain
        start, stop, stride, repeat = pids.start, pids.stop, 3 * len(to_hubs), itertools.repeat
        self.rows = (
            list(map(range, range(start + 1, stop, stride), range(start + stride, stop + 1, stride), repeat(3))),
            list(map(range, range(start + 2, start + stride, 3), repeat(stop), repeat(stride))),
        ) if pids else ([], [])

    def gated(self, wm: int):
        """The two relay -> hub connections `wm` gates, as (source, edge,
        the source's row): the edge is (cid, target, gain, None), as its
        source's out-edges file it, under no label."""
        k = (wm - self.pids.start) // 3
        i, j = divmod(k, len(self.to_hubs))
        cid, gain = self.cid + 4 * k, self.gain
        return ((wm + 1, (cid + 1, self.to_hubs[j], gain, None), self.rows[0][i]),
                (wm + 2, (cid + 3, self.from_hubs[i], gain, None), self.rows[1][j]))

    def relay_row(self, pid: int) -> range | None:
        """The row of relay `pid`; None for working memory."""
        (k, part), n = divmod(pid - self.pids.start, 3), len(self.to_hubs)
        if part == 1:
            return self.rows[0][k // n]
        return self.rows[1][k % n] if part else None


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
    Decay and the sustain threshold are the network's: working memory decays
    by `wm_decay`, every other kind by `decay`, and only working memory
    sustains. Settled working memory is judged by them and by
    `wm_decay_horizon`, so set them before any working memory is sustained.
    """

    def __init__(
        self,
        *,
        decay: float = 0.0,
        wm_decay: float = 1.0,
        sustain_threshold: float = 0.5,
        wm_decay_horizon: int | None = None,
    ):
        for key, level in (("decay", decay), ("wm_decay", wm_decay), ("sustain_threshold", sustain_threshold)):
            if type(level) not in (int, float) or not 0.0 <= level <= 1.0:
                raise InvalidNetworkChange(f"{key} must be a number in [0, 1], got {level!r}")
        if wm_decay_horizon is not None and (type(wm_decay_horizon) is not int or wm_decay_horizon < 1):
            raise InvalidNetworkChange(f"wm_decay_horizon must be an int >= 1 when set, got {wm_decay_horizon!r}")
        self.time = 0
        self.asserted: set[str] = set()
        self.decay = float(decay)
        self.wm_decay = float(wm_decay)
        self.sustain_threshold = float(sustain_threshold)
        self.wm_decay_horizon = wm_decay_horizon
        self._pops: dict[int, Population] = {}
        # the edges that can carry each source's flow, as (cid, target, gain,
        # label) in id order: every control-gated one, built or not, under its
        # label, and each binding-gated one under None while its WM is
        # sustained; a source with none is absent
        self._out: dict[int, list[tuple[int, int, float, str | None]]] = {}
        # static: binding-gated edges added one by one, per gating WM, as
        # (source, (cid, target, gain, None), None); a reserved WM's record holds them too
        self._wired: dict[int, tuple[tuple[int, tuple[int, int, float, None], None], ...]] = {}
        self._control_pops: dict[str, int] = {}
        # reserved structure, in id order
        self._reservations: list[_Block | _Bindings | _Grid] = []
        self._reserved_starts: list[int] = []
        # static: the relay rows each hub feeds, per label, with their gain
        self._rows: dict[int, dict[str, list[tuple[range, float]]]] = {}
        # dynamic: level of each lit row, by its relay ids; a row at 0 is absent.
        # It is the one record of a lit relay: no relay is flowing or settled below
        self._lit: dict[range, float] = {}
        # every active id except settled working memory, lit relays and control populations
        self._flowing: set[int] = set()
        # sustained working memory above 0 that steps pass by; never a source
        self._settled: set[int] = set()
        # ids that are, or may become, the source of a connection; they never settle
        self._sources: set[int] = set()
        # dynamic: per row, its relays with an open out-edge (their cell's working
        # memory is sustained); a row with none is absent
        self._row_emitting: dict[range, set[int]] = {}
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

    def add_population(self, kind: PopulationKind) -> int:
        return self.add_populations(kind, 1)[0]

    def add_populations(self, kind: PopulationKind, count: int) -> range:
        """Add `count` populations of one kind, at rest; returns their ids."""
        self._refuse_frozen()
        pids, _ = self._take_ids(count, 0)
        for pid in pids:
            self._build_population(pid, kind)
        return pids

    def add_gated_connection(self, source: int, target: int, gate: ControlGate | BindingGate, gain: float = 1.0) -> int:
        """Add one connection and return its id. A control-gated one is
        filed among its source's out-edges, with its label, and its source
        is built, as `population` builds it, so `connections` lists it.
        Connection ids only grow, so appending keeps each list in id order.
        A binding-gated one is kept per gating working memory, and in its
        record while it is held; it is filed among its source's out-edges,
        in id order, while that working memory is sustained."""
        self._check_structure(((source, target),), gain)
        if isinstance(gate, BindingGate) and self._kind(gate.wm) is not WORKING_MEMORY:
            raise InvalidNetworkChange(f"gate population {gate.wm} is not working memory")
        cid, gain = self._take_ids(0, 1)[1], float(gain)
        self._add_sources((source,))
        if isinstance(gate, ControlGate):
            self.population(source)
            self._out.setdefault(source, []).append((cid, target, gain, gate.label))
        else:
            edge = (source, (cid, target, gain, None), None)
            self._wired[gate.wm] = self._wired.get(gate.wm, ()) + (edge,)
            record = self._pops.get(gate.wm)
            if type(record) is _Memory:
                record.gated += (edge,)
            if self.is_open(gate):  # open now; working memory sustained later opens it then
                insort(self._out.setdefault(source, []), edge[1])
        return cid

    def reserve_populations(self, kind: PopulationKind, count: int) -> range:
        """Reserve `count` populations of one kind, such as a lexicon's
        concepts; each is built, at rest, the first time it is touched.
        Returns their ids. Working memory is reserved with the connections
        it gates (`reserve_bindings`)."""
        self._refuse_frozen()
        if kind is WORKING_MEMORY:
            raise InvalidNetworkChange("working memory is reserved with the connections it gates")
        pids, _ = self._take_ids(count, 0)
        last = self._reservations[-1] if self._reservations else None
        if isinstance(last, _Block) and last.kind is kind and last.pids.stop == pids.start:
            last.pids = range(last.pids.start, pids.stop)  # words added one at a time share a block
        elif pids:
            self._reserve(_Block(pids, kind))
        return pids

    def reserve_control_connections(self, edges: list[tuple[int, int, str]], gain: float = 1.0) -> None:
        """Reserve control-gated connections, given as (source, target,
        label), such as a lexicon's semantic relations.

        Connection ids are taken now, in order, exactly as adding each
        connection in turn would take them, and each connection is filed
        among its source's out-edges, with its label, as its id is taken,
        so every list stays in id order. No source is built: one at rest
        sends nothing, so only `connections`, which lists a connection while
        its source is built, can tell them from connections added one by
        one.
        """
        sources, targets, _ = zip(*edges) if edges else ((), (), ())
        self._check_structure((sources, targets), gain)
        _, cid = self._take_ids(0, len(edges))
        gain, out = float(gain), self._out
        for cid, (source, target, label) in enumerate(edges, cid):
            out.setdefault(source, []).append((cid, target, gain, label))
        self._add_sources(sources)

    def reserve_bindings(
        self, concepts: list[int], pools: dict, keys: list, gain: float = 1.0
    ) -> list[int]:
        """Reserve the working memory of many words as one block: word w
        binds the hubs of `pools[keys[w]]`, a tuple of hub ids, with one
        population per hub, the i-th gating a concepts[w] -> hub i connection
        and its mirror. A word whose pool is empty takes no id.

        Ids are taken now, word after word, exactly as adding each population
        and its two connections in turn would take them; a working memory has
        a record, with its two connections, while it is held. Returns each
        word's first working-memory id, then the id after the last word's:
        word w's ids, in hub order, run from the w-th to the next. The pass
        over the words runs in C.
        """
        self._check_structure((concepts, *pools.values()), gain)
        hubs = list(map(pools.__getitem__, keys))
        starts = list(itertools.accumulate(map(len, hubs), initial=self._next_pid))
        pids, cid = self._take_ids(starts[-1] - starts[0], 2 * (starts[-1] - starts[0]))
        # the concepts and hubs are sources from now on, as wired ones would be
        self._add_sources(set(concepts).union(*pools.values()))
        if pids:
            self._reserve(_Bindings(pids, cid, starts[:-1], list(concepts), hubs, float(gain)))
        return starts

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
        them (see `_Grid`). A cell's working memory has a record while it is
        held; its relays are never built, and their levels are kept per row
        (see the module docstring). Returns the cells' population ids: cell
        k = i * len(to_hubs) + j has working memory `pids[3k]` and relays
        `pids[3k + 1]` (forward) and `pids[3k + 2]` (reverse).
        """
        self._check_structure((from_hubs, to_hubs), gain)
        cells = len(from_hubs) * len(to_hubs)
        pids, cid = self._take_ids(3 * cells, 4 * cells)
        grid = _Grid(pids, cid, from_hubs, to_hubs, float(gain))
        self._add_sources({*from_hubs, *to_hubs})
        for feeders, label, rows in zip((from_hubs, to_hubs), (forward, reverse), grid.rows):
            for hub, row in zip(feeders, rows):
                self._rows.setdefault(hub, {}).setdefault(label, []).append((row, grid.gain))
        self._reserve(grid)
        return pids

    def _refuse_frozen(self) -> None:
        """Refuse any change to a frozen network, before an id is taken or
        anything is built."""
        if self._frozen:
            raise FrozenNetwork("network structure is frozen")

    def _check_structure(self, groups, gain: float) -> None:
        """Refuse new connections on a frozen network; otherwise each
        endpoint, given in groups, must be a population id already taken
        (built or reserved) but neither a relay nor a control population,
        and the gain positive. A board reserves its words' working memory
        before any grid or control population, so those are looked for only
        once one exists."""
        self._refuse_frozen()
        for pids in groups:
            # in C: a group may be a whole lexicon's concepts
            if pids and not (0 <= min(pids) and max(pids) < self._next_pid):
                bad = next(pid for pid in pids if not 0 <= pid < self._next_pid)
                raise UnknownPopulation(f"no population with id {bad}")
            if self._rows or self._control_pops:  # there may be a relay or a control population
                for pid in pids:
                    self._refuse_driven(pid)
        if gain <= 0.0:
            raise InvalidNetworkChange(f"gain must be positive, got {gain}")

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
        if self.sustain_threshold <= 0.0 and not isinstance(res, _Block):
            # working memory at rest is already sustained, so it is held and its
            # edges conduct; a block holds none
            for wm in res.pids[::3] if isinstance(res, _Grid) else res.pids:
                self._sustain(self._build_reserved(wm), self.time)

    def register_control(self, label: str) -> int:
        """Create (once) a control population that mirrors an asserted label."""
        pid = self._control_pops.get(label)
        if pid is None:
            self._refuse_frozen()
            pid = self._take_ids(1, 0)[0][0]
            self._pops[pid] = _Control(self, pid, label)
            self._control_pops[label] = pid
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
        """The population with id `pid`. A reserved concept or working
        memory is built here, at rest: a working memory's record lasts until
        a release leaves it at rest (`release_wm`). A relay is never built:
        it is handed out as a view of its row's level."""
        pop = self._pops.get(pid)
        if pop is not None:
            return pop
        row = self._relay_row(pid)
        return self._build_reserved(pid) if row is None else _Relay(self, pid, row)

    def populations(self):
        """Built populations, held working memory among them; reserved ones
        not built and working memory not held are not listed."""
        return self._pops.values()

    def connections(self) -> list[GatedConnection]:
        """Built connections, in id order, made on each call: the two each
        held working memory gates, read from its record; every binding-gated
        connection added one by one; and every control-gated one, read from
        the labelled entries of its source's out-edges, while its source is
        built. The two of a working memory not held are not listed, nor the
        control-gated ones of a source not built, such as a working memory
        whose record a release dropped."""
        gated = dict(self._wired)  # a held record's edges include its wired ones
        gated.update((pop.pid, pop.gated) for pop in self._pops.values() if type(pop) is _Memory)
        conns = [GatedConnection(cid, source, target, BindingGate(wm), gain)
                 for wm, edges in gated.items() for source, (cid, target, gain, _), _ in edges]
        conns += [GatedConnection(cid, source, target, ControlGate(label), gain)
                  for source, edges in self._out.items() if source in self._pops
                  for cid, target, gain, label in edges if label is not None]
        return sorted(conns, key=_cid)

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
        """Whether `gate` is open, read without building anything: working
        memory with no record is at rest, so its gate is closed."""
        if isinstance(gate, ControlGate):
            return gate.label in self.asserted
        pop = self._pops.get(gate.wm)
        if pop is None and not 0 <= gate.wm < self._next_pid:  # every id taken and not built is reserved
            raise UnknownPopulation(f"no population with id {gate.wm}")
        return pop is not None and pop.sustained

    def total_activation(self, kinds) -> float:
        """Sum of the active levels of some kinds, in id order, the relays of
        lit rows among them; builds nothing."""
        kinds, pops = set(kinds), self._pops
        hub = HUB in kinds  # an active id not built is a relay
        return sum(
            self.activation(pid) for pid in self.active_pids()
            if (pops[pid].kind in kinds if pid in pops else hub)
        )

    def active_pids(self) -> list[int]:
        """Every active id, in id order, derived here from what holds it:
        the flowing and the settled ids, the control populations of the
        asserted labels, and the relays of the lit rows."""
        controls = map(self._control_pops.get, self._control_pops.keys() & self.asserted)
        return sorted(itertools.chain(self._flowing, self._settled, controls, *self._lit))

    def flowing_pids(self) -> frozenset[int]:
        """The active ids except settled working memory, the relays of lit
        rows, whose level their row holds, and control populations, whose
        level their label holds and which never flow; every other active
        population is among them."""
        return frozenset(self._flowing)

    def flowing_populations(self):
        """The populations of `flowing_pids()`, read live, without a copy:
        step nothing while iterating."""
        return map(self._pops.__getitem__, self._flowing)

    # -------------------------------------------------------------- controls

    def set_control(self, label: str, on: bool) -> None:
        """(De)assert a label; gate openness follows from the next step on.
        The label's control population, if any, is active exactly while it
        is asserted: `active_pids` reads it from the asserted labels."""
        if on:
            self.asserted.add(label)
        else:
            self.asserted.discard(label)

    def inject(self, pid: int, level: float) -> None:
        """Raise activation to `level` now and floor the next update at it.
        While a probe's saved state is open, the id's prior level is logged
        as `_set_activation` logs it.

        Only working memory sustains and settles: it is sustained once at
        its threshold, and if its next update is then already a no-op it
        settles at once (`_settle`), with no floor, so a binding's step has
        nothing to update. Any other kind, such as a probe's cue concept,
        skips both. The id is filed once: as settled by `_settle`, or else,
        above 0, as flowing, with its floor."""
        if not 0.0 <= level <= 1.0:
            raise InvalidNetworkChange(f"inject level must be in [0, 1], got {level}")
        pop = self._pops.get(pid)
        if pop is None:
            pop = self._build_reserved(pid)  # refuses a relay
        elif pop.kind is CONTROL:
            self._refuse_driven(pid)
        if self._woken is not None and pid not in self._flowing:
            self._woken.setdefault(pid, pop.activation)
        if level > pop.activation:  # a level at or below it still refreshes the sustain bookkeeping
            pop.activation = level
        if pop.kind is WORKING_MEMORY:
            if pop.sustained_since is None and pop.activation >= self.sustain_threshold:
                self._sustain(pop, self.time)
            if self._settle(pop):
                return
            self._settled.discard(pid)
        if pop.activation > 0.0:  # an id at rest is filed nowhere
            self._flowing.add(pid)
            if level > self._floors.get(pid, 0.0):
                self._floors[pid] = level

    def release_wm(self, pid: int) -> None:
        """Explicitly release a working-memory population (idempotent), with
        its horizon entry (`_drop_due`), so the step at which the decay
        horizon would have released it is idle. A reserved working memory
        left at rest is no longer held, so its record is dropped, unless a
        probe's saved state is open, whose restore may sustain it again. A
        record handed out before reads at rest from then on, and a later
        bind makes a new one. One with no record is at rest already: its
        release checks its id and builds nothing."""
        pop = self._pops.get(pid)
        if (pop.kind if pop is not None else self._kind(pid)) is not WORKING_MEMORY:
            raise InvalidNetworkChange(f"population {pid} is not working memory")
        if pop is None:
            return
        if pop.sustained_since is not None:
            self._drop_due(pop)
            self._unsustain(pop)
        self._floors.pop(pid, None)
        self._set_activation(pop, 0.0)  # a no-op at rest
        if type(pop) is _Memory and pop.sustained_since is None and self._woken is None:
            del self._pops[pid]

    # ------------------------------------------------------------------ step

    def step(self) -> None:
        """One synchronous update of every population whose update is not a
        no-op.

        Sources are the flowing ids plus, while a row is lit, the open
        relays of each lit row, read from the row's index, so a lit row
        costs its open relays, not its length; no other id has an edge that
        could carry its activation. A source's out-edges are looked up
        once, as one id-ordered list of its control edges and its open
        binding edges (an id with none adds nothing); a binding edge adds
        its flow, and a control edge adds it while its label is asserted.
        Sources are visited in id order, so each target's inflow is summed
        in source order, then connection id order. Rows are updated in `_step_rows`. Candidates are the flowing
        ids plus this step's inflow targets and floors, plus, under a decay
        horizon, the settled ids due for release at this step. Candidates
        therefore include every id whose update is not a no-op, and an
        extra one is active, so it is updated exactly as if every active
        id were a candidate. They are updated in id order.

        Each candidate's next level is computed once, by its kind's decay,
        then clamped and floored; the update then splits by kind. A concept
        or hub, which never sustains, takes the level in place and is filed
        as flowing while it is above 0, its prior level logged while a
        probe's saved state is open. Working memory sustained past its
        decay horizon is released, and otherwise pinned at or above its
        threshold while sustained; a new level goes through
        `_set_activation`, which may sustain it. Sustained working memory
        then settles by the rule `inject` uses (`_settle`): above 0, the
        source of no connection, and its level a fixed point of its update.
        Working memory sustained at rest stays inactive.
        `last_change` is set to the largest activation change made.

        A step is idle when nothing is flowing, no floor is pending, no row
        is lit and no horizon entry is due now: it has no source and no
        candidate, so it only sets `last_change` to 0 and advances the clock.
        """
        if not (self._flowing or self._floors or self._lit) and self.time not in self._due:
            self.last_change = 0.0
            self.time += 1
            return
        inflow: dict[int, float] = {}
        fed: dict[range, float] = {}
        asserted, lit, flowing, woken = self.asserted, self._lit, self._flowing, self._woken
        pops, out, rows = self._pops, self._out, self._rows
        relays = None  # each emitting relay of a lit row (its working memory is sustained), with the row's level
        if lit:
            relays, row_emitting = {}, self._row_emitting
            for row, level in lit.items():
                for relay in row_emitting.get(row, ()):
                    relays[relay] = level
        for src in sorted(flowing.union(relays) if relays else flowing):
            pop = pops.get(src)  # a relay is never built
            a = relays[src] if pop is None else pop.activation  # above 0
            for _, target, gain, label in out.get(src, ()):
                if label is None or label in asserted:
                    inflow[target] = inflow.get(target, 0.0) + gain * a
            by_label = rows.get(src)
            if by_label is not None:
                for label in asserted:
                    for row, gain in by_label.get(label, ()):
                        fed[row] = gain * a  # a relay's one in-edge
        change = self._step_rows(fed) if fed or lit else 0.0
        floors = self._floors
        self._floors = {}
        candidates = flowing.union(inflow, floors)
        if self._due:
            # a probe reads its steps' entries and leaves them for the restored clock
            due = self._due.get(self.time) if woken is not None else self._due.pop(self.time, None)
            if due:
                # any active id may be a candidate, so stale entries change nothing
                candidates.update(self._settled.intersection(due))
        decay, wm_decay, threshold = self.decay, self.wm_decay, self.sustain_threshold
        for pid in sorted(candidates):
            try:
                pop = pops[pid]
            except KeyError:  # an inflow target still reserved, such as a concept
                pop = self._build_reserved(pid)
            a, is_wm = pop.activation, pop.kind is WORKING_MEMORY
            nxt = (wm_decay if is_wm else decay) * a + inflow.get(pid, 0.0)
            nxt = 0.0 if nxt < 0.0 else (1.0 if nxt > 1.0 else nxt)  # clamp01
            if floors:
                floor = floors.get(pid, 0.0)
                if floor > nxt:
                    nxt = floor
            if not is_wm:  # a concept or hub: it never sustains or settles
                if nxt != a:
                    delta = a - nxt if a > nxt else nxt - a  # abs(), without the call
                    if delta > change:
                        change = delta
                    if woken is not None and pid not in flowing:
                        woken.setdefault(pid, a)
                    pop.activation = nxt
                    if nxt > 0.0:
                        flowing.add(pid)
                    else:
                        flowing.discard(pid)
                continue
            if pop.sustained_since is not None:
                if self.wm_decay_horizon is not None and self.time - pop.sustained_since >= self.wm_decay_horizon:
                    if a > change:
                        change = a
                    self.release_wm(pid)
                    continue
                if nxt < threshold:
                    nxt = threshold
            if nxt != a:
                # an unchanged level needs no update: a working memory that
                # is not sustained always sits below its threshold
                delta = a - nxt if a > nxt else nxt - a
                if delta > change:
                    change = delta
                self._set_activation(pop, nxt)
            if pop.sustained_since is not None:
                self._settle(pop)
        self.last_change = change
        self.time += 1

    def _step_rows(self, fed: dict[range, float]) -> float:
        """Take each lit row, and each row `fed` (gain times its hub's level),
        to its next level as a relay would; return the largest change. A row
        that lights or goes dark only enters or leaves `_lit`: its relays
        are active through it."""
        decay, lit, change, dark = self.decay, self._lit, 0.0, []
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
        for row, nxt in fed.items():  # dark until now
            nxt = 1.0 if nxt > 1.0 else nxt
            if nxt > 0.0:
                change = max(change, nxt)
                lit[row] = nxt
        return change

    # ----------------------------------------------------- query-time saving

    def save_state(self) -> _SavedState:
        """Save what a probe changes; one saved state is open at a time.

        Only flowing ids and lit rows are copied. Any other id is logged
        with its prior activation when it first changes, so settled working
        memory costs nothing unless the probe wakes it."""
        self._sustain_log, self._woken, pops = [], {}, self._pops
        # a settled board has nothing flowing, and an empty comprehension still costs a call
        activations = {pid: pops[pid].activation for pid in self._flowing} if self._flowing else {}
        return _SavedState(activations, dict(self._lit), set(self.asserted), dict(self._floors), self.time,
                           self.last_change, self._sustain_log, self._woken)

    def restore_state(self, saved: _SavedState) -> None:
        """Return to a saved state, doing work only for what the probe
        changed. Sustain changes made since, such as releases by the decay
        horizon, are undone newest first, so `sustained_since` and the open
        binding edges are as saved.

        Levels are then written straight back, woken ids first, so that a
        saved flowing level wins. Each woken id leaves the flowing and
        settled sets and is settled again, in the same loop, if its level
        is above 0, since it was not flowing at the save; a probe that woke
        none skips this. The saved flowing ids are then flowing and not
        settled, since an id flowing at the save may have settled and been
        woken in one probe. Copies of the saved lit rows, asserted labels
        and floors replace the network's, which is all a restore does for
        relays and control populations. No write can newly sustain a
        working memory, as each one at or above the threshold is sustained
        as saved. Working memory woken since settles again: the flowing set
        is the saved one, and `step` keeps the horizon entries a probe
        reads."""
        self._sustain_log = self._woken = None
        for pop, since in reversed(saved.sustain_log):
            if pop.sustained:
                self._unsustain(pop)
            if since is not None:
                self._sustain(pop, since)
        pops, woken, settled, flowing = self._pops, saved.woken, self._settled, self._flowing
        if woken:
            settled.difference_update(woken)
            flowing.difference_update(woken)
            for pid, act in woken.items():
                pops[pid].activation = act
                if act > 0.0:  # it was not flowing at the save, so it was settled
                    settled.add(pid)
        for pid, act in saved.activations.items():
            pops[pid].activation = act
        settled.difference_update(saved.activations)
        # an id starts flowing only through a change, which logs it as woken
        flowing.update(saved.activations)
        self._lit = dict(saved.lit)
        self.asserted = set(saved.asserted)
        self._floors = dict(saved.floors)
        self.time = saved.time
        self.last_change = saved.last_change

    # -------------------------------------------------------------- internal

    def _build_population(self, pid: int, kind: PopulationKind) -> Population:
        pop = self._pops[pid] = Population(pid, kind)
        if kind is WORKING_MEMORY and self.sustain_threshold <= 0.0:  # sustained at rest
            self._sustain(pop, self.time)
        return pop

    def _reservation(self, pid: int) -> _Block | _Bindings | _Grid:
        """The reserved structure that owns `pid`."""
        i = bisect_right(self._reserved_starts, pid) - 1
        res = self._reservations[i] if i >= 0 else None
        if res is None or pid not in res.pids:
            raise UnknownPopulation(f"no population with id {pid}")
        return res

    def _kind(self, pid: int) -> PopulationKind:
        """The kind of `pid`, read without building it: a reserved id not of
        a block is working memory or a relay."""
        if pid in self._pops:
            return self._pops[pid].kind
        res = self._reservation(pid)
        return res.kind if isinstance(res, _Block) else HUB if self._relay_row(pid) is not None else WORKING_MEMORY

    def _relay_row(self, pid: int) -> range | None:
        """The row of relay `pid`; None for any other id. Relays are never built."""
        if pid in self._pops:
            return None
        grid = self._reservation(pid)
        return grid.relay_row(pid) if isinstance(grid, _Grid) else None

    def _refuse_driven(self, pid: int) -> None:
        """Refuse to drive or wire a relay or a control population, whose
        level is its row's or its label's."""
        if type(self._pops.get(pid)) is _Control:
            raise InvalidNetworkChange(f"population {pid} is a control population: only its label drives it")
        if self._rows and self._relay_row(pid) is not None:
            raise InvalidNetworkChange(f"population {pid} is a relay: only its row's hub drives it")

    def _build_reserved(self, pid: int) -> Population:
        """Build reserved `pid`, at rest: a population of a block, or the
        record of a working memory, with the two edges it gates read from
        its reservation. A relay is refused: it is never built. Working
        memory is sustained at rest only at threshold 0, where `_reserve`
        makes every record and a release never drops one."""
        res = self._reservation(pid)
        cls = type(res)
        if cls is _Block:
            return self._build_population(pid, res.kind)
        if cls is _Grid and (pid - res.pids.start) % 3:
            self._refuse_driven(pid)  # raises: a relay is never built
        pop = self._pops[pid] = _Memory(pid, WORKING_MEMORY)
        pop.gated = res.gated(pid)
        if pid in self._wired:
            pop.gated += self._wired[pid]
        return pop

    def _add_sources(self, pids) -> None:
        """Keep `pids` among the sources, which never settle: settled
        working memory among them flows again."""
        self._sources.update(pids)
        for pid in self._settled.intersection(pids):
            self._set_activation(self._pops[pid], self._pops[pid].activation)

    def _settle(self, pop: Population) -> bool:
        """Settle `pop` if its next update without inflow is a no-op, and
        return whether it did: it is sustained working memory above 0, the
        source of no connection, and its level is a fixed point of the
        update (`wm_decay * a == a`, or `a` is pinned at its threshold). A
        pending floor is at most its level, so it changes nothing and is
        dropped. Under a decay horizon it is due for release at `since +
        horizon`, or at the next step if that has passed."""
        a, since, threshold = pop.activation, pop.sustained_since, self.sustain_threshold
        nxt = self.wm_decay * a  # both lie in [0, 1], so clamping it changes nothing
        if since is None or a <= 0.0 or pop.pid in self._sources or (nxt if nxt > threshold else threshold) != a:
            return False
        self._flowing.discard(pop.pid)
        self._settled.add(pop.pid)
        self._floors.pop(pop.pid, None)
        if self.wm_decay_horizon is not None:
            self._due.setdefault(max(since + self.wm_decay_horizon, self.time), set()).add(pop.pid)
        return True

    def _drop_due(self, pop: Population) -> None:
        """Take sustained `pop` off the horizon entry `_settle` gave it, if
        any, before its `sustained_since` moves: the entry is at `since +
        horizon`, or at the step of the settle when that had passed, which
        is this step if the entry is still there. While a probe's saved
        state is open the entry stays, since the restore may sustain `pop`
        again."""
        if self.wm_decay_horizon is not None and self._woken is None:
            at = max(pop.sustained_since + self.wm_decay_horizon, self.time)
            if pop.pid in self._due.get(at, ()):
                self._due[at].discard(pop.pid)
                if not self._due[at]:
                    del self._due[at]

    def _set_activation(self, pop: Population, value: float) -> None:
        pid = pop.pid
        if self._woken is not None and pid not in self._flowing:
            self._woken.setdefault(pid, pop.activation)
        pop.activation = value
        self._settled.discard(pid)
        if value > 0.0:
            self._flowing.add(pid)
        else:
            self._flowing.discard(pid)
        if (
            pop.kind is WORKING_MEMORY
            and pop.sustained_since is None
            and value >= self.sustain_threshold
        ):
            self._sustain(pop, self.time)

    def _sustain(self, pop: Population, since: int) -> None:
        """Sustain `pop` and open the edges it gates, each inserted in id
        order among its source's out-edges: a reserved working memory's are
        its record's, an added one's those added one by one. A relay among
        the sources joins its row's emitting set."""
        if self._sustain_log is not None:
            self._sustain_log.append((pop, pop.sustained_since))
        pop.sustained_since = since
        out_edges = self._out
        for source, edge, row in pop.gated if type(pop) is _Memory else self._wired.get(pop.pid, ()):
            out = out_edges.get(source)
            if out is None:
                out_edges[source] = [edge]
            else:
                insort(out, edge)
            if row is not None:
                self._row_emitting.setdefault(row, set()).add(source)

    def _unsustain(self, pop: Population) -> None:
        """Release `pop` and close the edges it gates, all open while it was
        sustained, taking each out of its source's out-edges; a source left
        with no out-edge leaves the index, and a relay, which has no control
        edge, its row's."""
        if self._sustain_log is not None:
            self._sustain_log.append((pop, pop.sustained_since))
        pop.sustained_since = None
        out_edges, emitting = self._out, self._row_emitting
        for source, edge, row in pop.gated if type(pop) is _Memory else self._wired.get(pop.pid, ()):
            out = out_edges[source]
            out.remove(edge)
            if out:
                continue
            del out_edges[source]
            if row is not None:
                relays = emitting[row]
                relays.discard(source)
                if not relays:
                    del emitting[row]
