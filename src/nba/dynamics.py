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

A working-memory population may be reserved rather than built: its id and
the ids of the two connections it gates are taken in construction order, and
the population is built, at rest, the first time it is touched. Counts cover
reserved structure, so the structure is the same either way.

Steps are dimensionless. Two runs from equal state with equal schedules of
injections and control assertions produce bit-identical trajectories.
"""

from __future__ import annotations

import bisect
import contextlib
from dataclasses import dataclass
from enum import Enum

from .errors import UnknownPopulation


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class PopulationKind(Enum):
    CONCEPT = "concept"
    HUB = "hub"
    WORKING_MEMORY = "wm"
    CONTROL = "control"


@dataclass
class Population:
    """One local neural population reduced to a single activation value."""

    pid: int
    kind: PopulationKind
    activation: float = 0.0
    sustain_threshold: float = 0.5
    decay: float = 0.0
    sustained: bool = False
    sustained_since: int | None = None
    # set only for populations that mirror an asserted control label
    control_label: str | None = None


@dataclass(frozen=True)
class ControlGate:
    """Open while `label` is asserted by the control environment."""

    label: str


@dataclass(frozen=True)
class BindingGate:
    """Open while working-memory population `wm` is sustained."""

    wm: int


@dataclass
class GatedConnection:
    cid: int
    source: int
    target: int
    gate: ControlGate | BindingGate
    gain: float = 1.0


@dataclass(frozen=True)
class _Reservation:
    """Working memory `wms[i]` gates concept -> hubs[i] over connection id
    `cid + 2 * i` and hubs[i] -> concept over `cid + 2 * i + 1`."""

    wms: range
    cid: int
    concept: int
    hubs: tuple[int, ...]
    gain: float


@dataclass
class _SavedState:
    activations: dict[int, float]
    asserted: set[str]
    floors: dict[int, float]
    time: int


class Network:
    """Populations plus gated connections under synchronous updates.

    One mutating context at a time; a Network is a self-contained value.
    Closed gates transmit exactly zero. Activations stay in [0, 1].
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
        # static: control-gated out-edges per source
        self._control_out: dict[int, list[GatedConnection]] = {}
        # dynamic: binding-gated out-edges per source whose WM is sustained
        self._open_binding_out: dict[int, list[GatedConnection]] = {}
        # all binding-gated edges per gating WM
        self._binding_edges: dict[int, list[GatedConnection]] = {}
        self._control_pops: dict[str, int] = {}
        # reserved working memory, in id order; built on first touch
        self._reservations: list[_Reservation] = []
        self._reserved_starts: list[int] = []
        self._active: set[int] = set()
        self._floors: dict[int, float] = {}
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
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        thr = self.default_sustain_threshold if sustain_threshold is None else float(sustain_threshold)
        if not 0.0 <= thr <= 1.0:
            raise ValueError(f"sustain_threshold must be in [0, 1], got {thr}")
        if decay is None:
            decay = self.default_wm_decay if kind is PopulationKind.WORKING_MEMORY else self.default_decay
        pid = self._next_pid
        self._next_pid += 1
        self._build_population(pid, kind, thr, float(decay))
        return pid

    def add_gated_connection(
        self,
        source: int,
        target: int,
        gate: ControlGate | BindingGate,
        gain: float = 1.0,
    ) -> int:
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        self.population(source)
        self.population(target)
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

    def reserve_bindings(self, concept: int, hubs: tuple[int, ...], gain: float = 1.0) -> range:
        """Reserve one working-memory population per hub, the i-th gating a
        concept -> hubs[i] connection and its hubs[i] -> concept mirror.

        Ids are taken now, exactly as adding each population and its two
        connections in turn would take them; the population and its
        connections are built, at rest, the first time it is touched.
        Returns the working-memory ids, in hub order.
        """
        if self._frozen:
            raise RuntimeError("network structure is frozen")
        for pid in (concept, *hubs):
            if pid not in self._pops:
                self.population(pid)  # builds reserved working memory, or raises
        if gain <= 0.0:
            raise ValueError(f"gain must be positive, got {gain}")
        wms = range(self._next_pid, self._next_pid + len(hubs))
        self._reservations.append(_Reservation(wms, self._next_cid, concept, hubs, float(gain)))
        self._reserved_starts.append(wms.start)
        self._next_pid = wms.stop
        self._next_cid += 2 * len(hubs)
        if self.default_sustain_threshold <= 0.0:
            # working memory at rest is already sustained, so its edges conduct
            for pid in wms:
                self.population(pid)
        return wms

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
        """The population with id `pid`; reserved working memory is built here."""
        try:
            return self._pops[pid]
        except KeyError:
            return self._build_reserved(pid)

    def populations(self):
        """Built populations; reserved working memory not yet touched is not listed."""
        return self._pops.values()

    def connections(self):
        """Built connections; those gated by untouched reserved working memory are not listed."""
        return self._conns.values()

    def activation(self, pid: int) -> float:
        return self.population(pid).activation

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
        kinds = set(kinds)
        return sum(
            self._pops[pid].activation for pid in sorted(self._active)
            if self._pops[pid].kind in kinds
        )

    def active_pids(self):
        return sorted(self._active)

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
        pop = self.population(pid)
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
        pop.sustained = False
        pop.sustained_since = None
        self._floors.pop(pid, None)
        self._set_activation(pop, 0.0)
        for conn in self._binding_edges.get(pid, ()):
            out = self._open_binding_out.get(conn.source)
            if out is not None and conn in out:
                out.remove(conn)

    # ------------------------------------------------------------------ step

    def step(self) -> None:
        """One synchronous update of every population."""
        inflow: dict[int, float] = {}
        for src in sorted(self._active):
            a = self._pops[src].activation
            if a <= 0.0:
                continue
            for conn in self._open_binding_out.get(src, ()):
                inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
            for conn in self._control_out.get(src, ()):
                if conn.gate.label in self.asserted:
                    inflow[conn.target] = inflow.get(conn.target, 0.0) + conn.gain * a
        floors = self._floors
        self._floors = {}
        candidates = set(self._active)
        candidates.update(inflow)
        candidates.update(floors)
        horizon = self.wm_decay_horizon
        for pid in sorted(candidates):
            pop = self._pops[pid]
            if pop.control_label is not None:
                self._set_activation(pop, 1.0 if pop.control_label in self.asserted else 0.0)
                continue
            nxt = clamp01(pop.decay * pop.activation + inflow.get(pid, 0.0))
            floor = floors.get(pid, 0.0)
            if floor > nxt:
                nxt = floor
            if pop.kind is PopulationKind.WORKING_MEMORY and pop.sustained:
                if (
                    horizon is not None
                    and pop.sustained_since is not None
                    and self.time - pop.sustained_since >= horizon
                ):
                    self.release_wm(pid)
                    continue
                if nxt < pop.sustain_threshold:
                    nxt = pop.sustain_threshold
            self._set_activation(pop, nxt)
        self.time += 1

    # ----------------------------------------------------- query-time saving

    def save_state(self) -> _SavedState:
        return _SavedState(
            activations={pid: self._pops[pid].activation for pid in self._active},
            asserted=set(self.asserted),
            floors=dict(self._floors),
            time=self.time,
        )

    def restore_state(self, saved: _SavedState) -> None:
        for pid in list(self._active):
            if pid not in saved.activations:
                self._set_activation(self._pops[pid], 0.0)
        for pid, act in saved.activations.items():
            self._set_activation(self._pops[pid], act)
        self.asserted = set(saved.asserted)
        self._floors = dict(saved.floors)
        self.time = saved.time

    # -------------------------------------------------------------- internal

    def _build_population(self, pid: int, kind: PopulationKind, thr: float, decay: float) -> Population:
        pop = Population(pid=pid, kind=kind, sustain_threshold=thr, decay=decay)
        self._pops[pid] = pop
        if kind is PopulationKind.WORKING_MEMORY and pop.activation >= thr:
            self._mark_sustained(pop)
        return pop

    def _build_connection(self, conn: GatedConnection) -> None:
        self._conns[conn.cid] = conn
        if isinstance(conn.gate, ControlGate):
            self._control_out.setdefault(conn.source, []).append(conn)
        else:
            self._binding_edges.setdefault(conn.gate.wm, []).append(conn)
            # open immediately if the condition already holds
            if self._pops[conn.gate.wm].sustained:
                self._open_binding_out.setdefault(conn.source, []).append(conn)

    def _build_reserved(self, pid: int) -> Population:
        """Build reserved working memory `pid` at rest, with its two connections."""
        i = bisect.bisect_right(self._reserved_starts, pid) - 1
        res = self._reservations[i] if i >= 0 else None
        if res is None or pid not in res.wms:
            raise UnknownPopulation(f"no population with id {pid}")
        pop = self._build_population(
            pid, PopulationKind.WORKING_MEMORY, self.default_sustain_threshold, self.default_wm_decay
        )
        k = pid - res.wms.start
        hub, cid, gate = res.hubs[k], res.cid + 2 * k, BindingGate(pid)
        self._build_connection(GatedConnection(cid, res.concept, hub, gate, res.gain))
        self._build_connection(GatedConnection(cid + 1, hub, res.concept, gate, res.gain))
        return pop

    def _set_activation(self, pop: Population, value: float) -> None:
        pop.activation = value
        if value > 0.0:
            self._active.add(pop.pid)
        else:
            self._active.discard(pop.pid)
        if (
            pop.kind is PopulationKind.WORKING_MEMORY
            and not pop.sustained
            and value >= pop.sustain_threshold
        ):
            self._mark_sustained(pop)

    def _mark_sustained(self, pop: Population) -> None:
        pop.sustained = True
        pop.sustained_since = self.time
        for conn in self._binding_edges.get(pop.pid, ()):
            self._open_binding_out.setdefault(conn.source, []).append(conn)
