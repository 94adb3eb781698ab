"""The small-world structural core: hub pools, connection matrix, bindings.

Hubs are shared populations through which every word of a type connects, so
total wiring grows linearly in lexicon size while the set of expressible
relations grows with the word-pair product. A matrix cell joins two hubs
under a relation name; activation crosses a cell only when both its gates
are open: the cell's working-memory population must be sustained (the
binding) and the relation's direction-specific control label must be
asserted. Reverse queries run over explicit mirror edges gated by the same
working memory but a reverse control label.

The structure is fixed at construction. Binding, releasing and querying
change only working-memory and control state; adding a word later is an
explicit structural extension that wires the new concept to its pool.
A word's working memory for each hub of its pool is reserved, not built:
the network builds it on the word's first binding to that hub, and every
count reports the whole fixed structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import labels
from .config import Config
from .dynamics import BindingGate, ControlGate, Network, PopulationKind
from .errors import (
    CellBusy,
    HubBusy,
    InvalidConfig,
    NoSuchCell,
    PoolExhausted,
    TypeMismatch,
)
from .lexicon import POOL_FOR_TYPE, Lexicon

_PENDING = None  # allocation-table value for an allocated hub with no word yet


@dataclass
class HubPool:
    kind: str
    capacity: int
    hubs: list[str]
    pids: dict[str, int]


@dataclass
class MatrixCell:
    from_hub: str
    to_hub: str
    relation: str
    wm: int
    relay_fwd: int
    relay_rev: int


@dataclass
class Binding:
    """An active working-memory element of the current connection path."""

    bid: int
    kind: str  # "concept" | "cell"
    wm: int
    word: str | None = None
    hub: str | None = None
    from_hub: str | None = None
    to_hub: str | None = None
    relation: str | None = None
    released: bool = False
    _network: Network | None = field(default=None, repr=False, compare=False)

    @property
    def active(self) -> bool:
        if self.released or self._network is None:
            return False
        pop = self._network.population(self.wm)
        return pop.sustained and pop.activation >= pop.sustain_threshold

    def describe(self) -> dict:
        if self.kind == "concept":
            return {"kind": "concept", "word": self.word, "hub": self.hub}
        return {
            "kind": "cell",
            "from": self.from_hub,
            "to": self.to_hub,
            "relation": self.relation,
        }


class Blackboard:
    """One mutating context per instance; parallelism across instances only."""

    def __init__(self, lexicon: Lexicon, config: Config | None = None):
        self.config = (config or Config()).validate()
        self.lexicon = lexicon
        self.network = lexicon.network
        self._apply_dynamics_config()
        self.relation_names = self.config.relation_names()

        self.pools: dict[str, HubPool] = {}
        self._hub_pool: dict[str, str] = {}
        self._hub_pid: dict[str, int] = {}
        self._hub_index: dict[str, int] = {}
        self._pool_pids: dict[str, tuple[int, ...]] = {}
        # word -> its working-memory ids, one per hub of its pool in hub order
        self._word_wms: dict[str, range] = {}
        self.cells: dict[tuple[str, str, str], MatrixCell] = {}
        self._allocation: dict[str, str | None] = {}
        self._bindings: dict[int, Binding] = {}
        self._by_hub: dict[str, list[int]] = {}
        self._concept_bid: dict[tuple[str, str], int] = {}
        self._cell_bid: dict[tuple[str, str, str], int] = {}
        self._next_bid = 1

        for kind, capacity in (("N", self.config.k_n), ("V", self.config.k_v), ("C", self.config.k_c)):
            self._build_pool(kind, capacity)
        for entry in self.lexicon.entries():
            self._link_word(entry)
        for spec in self.config.relation_specs():
            self._build_grid(spec)
        for name in self.relation_names:
            self.network.register_control(labels.matrix_forward(name))
            self.network.register_control(labels.matrix_reverse(name))
        self.network.freeze()

    # ----------------------------------------------------------- construction

    def _apply_dynamics_config(self) -> None:
        cfg = self.config
        net = self.network
        net.default_decay = cfg.decay
        net.default_wm_decay = cfg.wm_decay
        net.default_sustain_threshold = cfg.sustain_threshold
        net.wm_decay_horizon = cfg.wm_decay_horizon
        for pop in net.populations():
            if pop.kind is PopulationKind.WORKING_MEMORY:
                pop.decay = cfg.wm_decay
                pop.sustain_threshold = cfg.sustain_threshold
            else:
                pop.decay = cfg.decay

    def _build_pool(self, kind: str, capacity: int) -> None:
        if capacity < 1:
            raise InvalidConfig(f"pool {kind} needs capacity >= 1")
        pool = HubPool(kind=kind, capacity=capacity, hubs=[], pids={})
        for i in range(capacity):
            name = f"{kind}{i}"
            pid = self.network.add_population(PopulationKind.HUB)
            pool.hubs.append(name)
            pool.pids[name] = pid
            self._hub_pool[name] = kind
            self._hub_pid[name] = pid
            self._hub_index[name] = i
        self.pools[kind] = pool
        self._pool_pids[kind] = tuple(pool.pids.values())

    def _link_word(self, entry) -> None:
        pool_kind = POOL_FOR_TYPE.get(entry.word_type)
        if pool_kind is None or entry.word in self._word_wms:
            return
        self._word_wms[entry.word] = self.network.reserve_bindings(
            entry.concept, self._pool_pids[pool_kind], self.config.gain
        )

    def _build_grid(self, spec) -> None:
        gain = self.config.gain
        fwd = labels.matrix_forward(spec.name)
        rev = labels.matrix_reverse(spec.name)
        for from_hub in self.pools[spec.from_pool].hubs:
            for to_hub in self.pools[spec.to_pool].hubs:
                wm = self.network.add_population(PopulationKind.WORKING_MEMORY)
                relay_fwd = self.network.add_population(PopulationKind.HUB)
                relay_rev = self.network.add_population(PopulationKind.HUB)
                src = self._hub_pid[from_hub]
                dst = self._hub_pid[to_hub]
                self.network.add_gated_connection(src, relay_fwd, ControlGate(fwd), gain)
                self.network.add_gated_connection(relay_fwd, dst, BindingGate(wm), gain)
                self.network.add_gated_connection(dst, relay_rev, ControlGate(rev), gain)
                self.network.add_gated_connection(relay_rev, src, BindingGate(wm), gain)
                self.cells[(from_hub, to_hub, spec.name)] = MatrixCell(
                    from_hub=from_hub,
                    to_hub=to_hub,
                    relation=spec.name,
                    wm=wm,
                    relay_fwd=relay_fwd,
                    relay_rev=relay_rev,
                )

    def extend_word(self, word: str) -> None:
        """Wire a word added after construction to its pool (explicit extension)."""
        entry = self.lexicon.entry(word)
        with self.network.structural_extension():
            self._link_word(entry)

    def add_word(self, word: str, word_type) -> None:
        """Add to the lexicon and wire in one go; usable immediately."""
        self.lexicon.add_word(word, word_type)
        self.extend_word(word)

    # ------------------------------------------------------------- allocation

    def allocate_hub(self, kind: str) -> str:
        if kind not in self.pools:
            raise ValueError(f"no pool of kind {kind!r}")
        for hub in self.pools[kind].hubs:
            if hub not in self._allocation:
                self._allocation[hub] = _PENDING
                return hub
        raise PoolExhausted(kind, self.pools[kind].capacity)

    def hub_word(self, hub: str) -> str | None:
        return self._allocation.get(hub)

    def free_hubs(self, kind: str) -> list[str]:
        return [h for h in self.pools[kind].hubs if h not in self._allocation]

    # --------------------------------------------------------------- binding

    def bind_concept(self, word: str, hub: str) -> Binding:
        entry = self.lexicon.entry(word)  # raises UnknownWord
        word = entry.word
        if hub not in self._hub_pool:
            raise ValueError(f"unknown hub {hub!r}")
        needed = POOL_FOR_TYPE.get(entry.word_type)
        if needed is None or needed != self._hub_pool[hub]:
            raise TypeMismatch(
                f"{word!r} has type {entry.word_type.value}, cannot bind hub {hub}"
            )
        if hub in self._allocation and self._allocation[hub] is not None:
            raise HubBusy(f"hub {hub} already bound to {self._allocation[hub]!r}")
        if word not in self._word_wms:
            self.extend_word(word)
        wm = self._word_wms[word][self._hub_index[hub]]
        self.network.inject(wm, 1.0)
        self._allocation[hub] = word
        binding = Binding(
            bid=self._next_bid, kind="concept", wm=wm, word=word, hub=hub, _network=self.network
        )
        self._next_bid += 1
        self._bindings[binding.bid] = binding
        self._by_hub.setdefault(hub, []).append(binding.bid)
        self._concept_bid[(word, hub)] = binding.bid
        return binding

    def bind_hubs(self, from_hub: str, to_hub: str, relation: str) -> Binding:
        cell = self.cells.get((from_hub, to_hub, relation))
        if cell is None:
            raise NoSuchCell(f"no cell {from_hub} -> {to_hub} for relation {relation!r}")
        wm_pop = self.network.population(cell.wm)
        if wm_pop.sustained:
            raise CellBusy(f"cell {from_hub} -> {to_hub} ({relation}) already bound")
        self.network.inject(cell.wm, 1.0)
        binding = Binding(
            bid=self._next_bid,
            kind="cell",
            wm=cell.wm,
            from_hub=from_hub,
            to_hub=to_hub,
            relation=relation,
            _network=self.network,
        )
        self._next_bid += 1
        self._bindings[binding.bid] = binding
        self._by_hub.setdefault(from_hub, []).append(binding.bid)
        self._by_hub.setdefault(to_hub, []).append(binding.bid)
        self._cell_bid[(from_hub, to_hub, relation)] = binding.bid
        return binding

    # --------------------------------------------------------------- release

    def release(self, target) -> None:
        """Release a binding (idempotent) and forget it. Freeing a hub also
        releases the matrix bindings attached to it, so a reallocated hub
        starts clean."""
        binding = self._bindings.get(target) if isinstance(target, int) else target
        if binding is None or binding.released:
            return
        binding.released = True
        del self._bindings[binding.bid]
        self.network.release_wm(binding.wm)
        if binding.kind == "concept":
            hub = binding.hub
            self._allocation.pop(hub, None)
            self._concept_bid.pop((binding.word, hub), None)
            # the hub's matrix bindings; this binding's own id is already forgotten
            for bid in self._by_hub.pop(hub, ()):
                self.release(bid)
        else:
            key = (binding.from_hub, binding.to_hub, binding.relation)
            self._cell_bid.pop(key, None)
            for hub in (binding.from_hub, binding.to_hub):
                bids = self._by_hub.get(hub)
                if bids and binding.bid in bids:
                    bids.remove(binding.bid)

    def release_hub(self, hub: str) -> None:
        word = self._allocation.get(hub, "__missing__")
        if word == "__missing__":
            return
        if word is _PENDING:
            self._allocation.pop(hub, None)
            return
        self.release(self._concept_bid[(word, hub)])

    def release_all(self) -> None:
        for bid in sorted(self._bindings):
            self.release(bid)
        self._allocation.clear()
        self._by_hub.clear()

    def active_bindings(self) -> list[Binding]:
        return list(self._bindings.values())

    def concept_binding(self, word: str, hub: str) -> Binding | None:
        bid = self._concept_bid.get((word.casefold(), hub))
        return self._bindings.get(bid) if bid is not None else None

    def cell_binding(self, from_hub: str, to_hub: str, relation: str) -> Binding | None:
        bid = self._cell_bid.get((from_hub, to_hub, relation))
        return self._bindings.get(bid) if bid is not None else None

    # -------------------------------------------------------------- counting

    def connection_count(self) -> int:
        """Gated links in the fixed structure: each word-hub pair contributes
        its two directions, each matrix cell its forward and mirror route."""
        return 2 * sum(map(len, self._word_wms.values())) + 2 * len(self.cells)

    def expressible_bindings(self) -> int:
        """Distinct (word, relation, word) facts the fixed matrix can encode."""
        total = 0
        for spec in self.config.relation_specs():
            total += len(self.lexicon.words_of_pool(spec.from_pool)) * len(
                self.lexicon.words_of_pool(spec.to_pool)
            )
        return total

    # -------------------------------------------------------------- snapshot

    def to_snapshot(self) -> dict:
        def hub_key(h: str):
            return (h[0], int(h[1:]))

        allocation = [[hub, self._allocation[hub]] for hub in sorted(self._allocation, key=hub_key)]
        bindings = []
        for bid in sorted(self._bindings):
            b = self._bindings[bid]
            rec = b.describe()
            rec["activation"] = self.network.activation(b.wm)
            bindings.append(rec)
        return {
            "format": "nba-state",
            "version": 1,
            "config": self.config.to_dict(),
            "lexicon": self.lexicon.to_dict(),
            "allocation": allocation,
            "bindings": bindings,
        }

    def snapshot_bytes(self) -> bytes:
        return json.dumps(self.to_snapshot(), sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_snapshot(cls, data: dict) -> "Blackboard":
        if data.get("format") != "nba-state":
            raise InvalidConfig("not a state snapshot (missing format marker)")
        config = Config.from_dict(data.get("config", {}))
        lexicon = Lexicon.from_dict(data.get("lexicon", {}))
        bb = cls(lexicon, config)
        for hub, word in data.get("allocation", []):
            if word is None:
                bb._allocation[hub] = _PENDING
        for rec in data.get("bindings", []):
            if rec["kind"] == "concept":
                binding = bb.bind_concept(rec["word"], rec["hub"])
            else:
                binding = bb.bind_hubs(rec["from"], rec["to"], rec["relation"])
            level = rec.get("activation", 1.0)
            pop = bb.network.population(binding.wm)
            bb.network._set_activation(pop, level)
        return bb
