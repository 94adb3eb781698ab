"""The small-world structural core: hub pools, connection matrix, bindings.

Hubs are shared populations through which every word of a type connects, so
total wiring grows linearly in lexicon size while the set of expressible
relations grows with the word-pair product. A matrix cell joins two hubs
under a relation name; activation crosses a cell only when both its gates
are open: the cell's working-memory population must be sustained (the
binding) and the relation's direction-specific control label must be
asserted. Reverse queries run over explicit mirror edges gated by the same
working memory but a reverse control label. A hub's name and id follow from
its pool's id range (hub `N3` has the N pool's fourth id), and an allocated
hub holds its concept binding, or None until a word is bound to it.

The structure is fixed at construction. Binding, releasing and querying
change only working-memory and control state; adding a word later is an
explicit structural extension that wires the new concept to its pool.
A word's working memory for each hub of its pool is reserved, not built:
the network keeps a record of it while it is held, from its binding to its
release, and derives the two connections it gates from the reservation. Its
ids follow from the word's lexicon row: the board keeps each row's first
id, made in one pass in C. Matrix cells and their relays are reserved too:
a bound cell's working memory is held the same way, its relays are never
built, and the network keeps the level of the relays a query lights per
row. Reading a binding's state (`is_open`, `activation`, a snapshot) makes
no record. Every count reports the whole fixed structure, and `cells` is
derived from each grid's reserved ids rather than stored.
"""

from __future__ import annotations

import json
from collections.abc import Mapping

from . import labels
from .config import Config
from .dynamics import BindingGate, PopulationKind
from .errors import (
    CellBusy,
    HubBusy,
    InvalidConfig,
    InvalidState,
    NbaError,
    NoSuchCell,
    PoolExhausted,
    TypeMismatch,
    UnknownHub,
    expect,
)
from .lexicon import POOL_FOR_TYPE, Lexicon, WordType
from .value import Value


class HubPool:
    """A pool's kind, its hubs' ids and their names: hub i is `{kind}{i}`, with id `ids[i]`."""

    __slots__ = ("kind", "ids", "hubs")

    def __init__(self, kind: str, ids: range):
        self.kind = kind
        self.ids = ids
        self.hubs = tuple(f"{kind}{i}" for i in range(len(ids)))

    @property
    def capacity(self) -> int:
        return len(self.ids)

    @property
    def pids(self) -> dict[str, int]:
        return dict(zip(self.hubs, self.ids))


class MatrixCell(Value):
    __slots__ = ("from_hub", "to_hub", "relation", "wm", "relay_fwd", "relay_rev")

    def __init__(self, from_hub: str, to_hub: str, relation: str, wm: int, relay_fwd: int, relay_rev: int):
        self.from_hub = from_hub
        self.to_hub = to_hub
        self.relation = relation
        self.wm = wm
        self.relay_fwd = relay_fwd
        self.relay_rev = relay_rev


class Binding:
    """A working-memory element of a board's connection path.

    Its id is its working-memory population id, so a board holds at most one
    binding per working memory. It is released once its board no longer
    holds it, and active while held and its working memory is sustained.
    """

    __slots__ = ("_board", "kind", "wm", "word", "hub", "from_hub", "to_hub", "relation")

    def __init__(self, board: Blackboard, kind: str, wm: int, word: str | None, hub: str | None,
                 from_hub: str | None, to_hub: str | None, relation: str | None):
        self._board = board
        self.kind = kind  # "concept" | "cell"
        self.wm = wm
        self.word = word
        self.hub = hub
        self.from_hub = from_hub
        self.to_hub = to_hub
        self.relation = relation

    @property
    def bid(self) -> int:
        return self.wm

    @property
    def released(self) -> bool:
        return self._board._bindings.get(self.wm) is not self

    @property
    def active(self) -> bool:
        return not self.released and self._board.network.is_open(BindingGate(self.wm))

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
    """One mutating context per instance; parallelism across instances only.

    The board's one record of what it holds is a table of bindings keyed by
    working-memory id, in bind order. Whether a held binding is live is read
    from the network: the decay horizon may release its working memory while
    the board still holds it, with its hub allocated.
    """

    def __init__(self, lexicon: Lexicon, config: Config | None = None):
        if lexicon.network.frozen:  # a board freezes its lexicon's network, which this one would rewire
            raise NbaError("lexicon is already wired to a board; load a new Lexicon for each board")
        self.config = (config or Config()).validate()
        self.lexicon = lexicon
        self.network = net = lexicon.network
        net.decay, net.wm_decay = self.config.decay, self.config.wm_decay
        net.sustain_threshold, net.wm_decay_horizon = self.config.sustain_threshold, self.config.wm_decay_horizon

        self.pools: dict[str, HubPool] = {}
        # hub name -> (its pool, its index in the pool)
        self._hubs: dict[str, tuple[HubPool, int]] = {}
        # per lexicon row, the first id of the word's working memory; None
        # for a row not wired yet. A word of no pool has none: its entry is
        # the next word's first id
        self._wm_starts: list[int | None] = []
        # working-memory ids reserved for words, one per (word, hub of its pool)
        self._word_wm_count = 0
        # (relation, from pool, to pool) -> population ids of its reserved grid
        self._grids: dict[tuple[str, str, str], range] = {}
        self.cells = _Cells(self)
        self._allocation: dict[str, Binding | None] = {}
        self._bindings: dict[int, Binding] = {}

        for kind, capacity in (("N", self.config.k_n), ("V", self.config.k_v), ("C", self.config.k_c)):
            pool = self.pools[kind] = HubPool(kind, self.network.add_populations(PopulationKind.HUB, capacity))
            self._hubs.update((hub, (pool, i)) for i, hub in enumerate(pool.hubs))
        # the hub ids a word of each type binds, as tuples: indexing a range
        # makes a new int per built connection
        self._type_hubs = {t: tuple(self.pools[POOL_FOR_TYPE[t]].ids) if t in POOL_FOR_TYPE else ()
                           for t in WordType}
        self._link_rows(0, len(self.lexicon))
        # relation -> the grids it spans (clause facts chain two, via a C hub)
        self.grid_counts: dict[str, int] = {}
        for spec in self.config.relation_specs():
            self._build_grid(spec)
            self.grid_counts[spec.name] = self.grid_counts.get(spec.name, 0) + 1
        self.relation_names = tuple(self.grid_counts)
        # relation -> its forward label, which `execute` asserts after each cell it binds
        self.forward_labels = {name: labels.matrix_forward(name) for name in self.relation_names}
        for name, forward in self.forward_labels.items():
            self.network.register_control(forward)
            self.network.register_control(labels.matrix_reverse(name))
        self.network.freeze()

    # ----------------------------------------------------------- construction

    def _link_rows(self, start: int, stop: int) -> None:
        """Reserve, as one block, the working memory of the words in lexicon
        rows `start` to `stop`, none of them wired yet: one population per
        hub of its pool. Each row's first id is noted in C."""
        types, concepts = self.lexicon.columns(start, stop)
        starts = self.network.reserve_bindings(concepts, self._type_hubs, types, self.config.gain)
        self._word_wm_count += starts[-1] - starts[0]
        if len(self._wm_starts) < stop:
            self._wm_starts += [None] * (stop - len(self._wm_starts))
        self._wm_starts[start:stop] = starts[:-1]

    def word_wms(self, word: str) -> range | None:
        """A word's working-memory ids, one per hub of its pool in hub order;
        None for a word of no pool, or one added to the lexicon and not
        wired yet."""
        row, word_type = self.lexicon.lookup(word)
        first = self._wm_starts[row] if row < len(self._wm_starts) else None
        hubs = self._type_hubs[word_type]
        return range(first, first + len(hubs)) if first is not None and hubs else None

    def _first_wm(self, row: int) -> int:
        """The first working-memory id of the word of a pool in lexicon
        `row`, which is wired to its pool first if it is not yet."""
        starts = self._wm_starts
        first = starts[row] if row < len(starts) else None
        if first is None:
            with self.network.structural_extension():
                self._link_rows(row, row + 1)
            first = starts[row]
        return first

    def _build_grid(self, spec) -> None:
        cells = self.network.reserve_cells(
            tuple(self.pools[spec.from_pool].ids),
            tuple(self.pools[spec.to_pool].ids),
            labels.matrix_forward(spec.name),
            labels.matrix_reverse(spec.name),
            self.config.gain,
        )
        self._grids[(spec.name, spec.from_pool, spec.to_pool)] = cells

    def _cell_wm(self, from_hub: str, to_hub: str, relation: str) -> int | None:
        """The working-memory id of a cell; its two relays follow it."""
        src, dst = self._hubs.get(from_hub), self._hubs.get(to_hub)
        if src is None or dst is None:
            return None
        (from_pool, i), (to_pool, j) = src, dst
        grid = self._grids.get((relation, from_pool.kind, to_pool.kind))
        return None if grid is None else grid[3 * (i * len(to_pool.ids) + j)]

    def extend_word(self, word: str) -> None:
        """Wire a word added after construction to its pool (explicit extension)."""
        self._first_wm(self.lexicon.lookup(word)[0])

    def add_word(self, word: str, word_type) -> None:
        """Add to the lexicon and wire in one go; usable immediately."""
        self.lexicon.add_word(word, word_type)
        self.extend_word(word)

    # ------------------------------------------------------------- allocation

    def _pool(self, kind: str) -> HubPool:
        if kind not in self.pools:
            raise UnknownHub(f"no hub pool of kind {kind!r}")
        return self.pools[kind]

    def allocate_hub(self, kind: str) -> str:
        pool = self._pool(kind)
        for hub in pool.hubs:
            if hub not in self._allocation:
                self._allocation[hub] = None
                return hub
        raise PoolExhausted(kind, pool.capacity)

    def hub_word(self, hub: str) -> str | None:
        binding = self._allocation.get(hub)
        return None if binding is None else binding.word

    def free_hubs(self, kind: str) -> list[str]:
        return [h for h in self._pool(kind).hubs if h not in self._allocation]

    # --------------------------------------------------------------- binding

    def bind_concept(self, word: str, hub: str) -> Binding:
        row, word_type = self.lexicon.lookup(word)  # raises UnknownWord
        word = word.casefold()
        pool, index = self._hubs.get(hub, (None, None))
        if pool is None:
            raise UnknownHub(f"unknown hub {hub!r}")
        if POOL_FOR_TYPE.get(word_type) != pool.kind:  # None for a type no pool holds
            raise TypeMismatch(f"{word!r} has type {word_type.value}, cannot bind hub {hub}")
        bound = self._allocation.get(hub)
        if bound is not None:
            raise HubBusy(f"hub {hub} already bound to {bound.word!r}")
        wm = self._first_wm(row) + index
        self._allocation[hub] = binding = Binding(self, "concept", wm, word, hub, None, None, None)
        return self._hold(binding)

    def bind_hubs(self, from_hub: str, to_hub: str, relation: str) -> Binding:
        wm = self._cell_wm(from_hub, to_hub, relation)
        if wm is None:
            raise NoSuchCell(f"no cell {from_hub} -> {to_hub} for relation {relation!r}")
        record = self.network._pops.get(wm)  # is_open without a gate: no record is closed
        if record is not None and record.sustained_since is not None:
            if self.config.sustain_threshold == 0.0:
                raise CellBusy(
                    f"cell {from_hub} -> {to_hub} ({relation}) cannot be bound: "
                    "every cell is sustained at rest because sustain_threshold is 0"
                )
            raise CellBusy(f"cell {from_hub} -> {to_hub} ({relation}) already bound")
        return self._hold(Binding(self, "cell", wm, None, None, from_hub, to_hub, relation))

    def _hold(self, binding: Binding) -> Binding:
        """Sustain a binding's working memory and hold it last in bind order,
        in place of any binding of that working memory the horizon released."""
        self.network.inject(binding.wm, 1.0)
        self._bindings.pop(binding.wm, None)
        self._bindings[binding.wm] = binding
        return binding

    # --------------------------------------------------------------- release

    def release(self, target) -> None:
        """Release a binding, given as itself or by its id (idempotent), and
        forget it. Releasing a concept frees its hub and releases the matrix
        bindings on it, so a reallocated hub starts clean."""
        binding = self._bindings.get(target) if isinstance(target, int) else target
        if binding is None or binding.released:
            return
        del self._bindings[binding.wm]
        self.network.release_wm(binding.wm)
        if binding.kind == "concept":
            hub = binding.hub
            self._allocation.pop(hub, None)
            for cell in [b for b in self._bindings.values() if hub in (b.from_hub, b.to_hub)]:
                self.release(cell)

    def release_hub(self, hub: str) -> None:
        binding = self._allocation.pop(hub, None)
        if binding is not None:
            self.release(binding)

    def release_all(self) -> None:
        for wm in self._bindings:
            self.network.release_wm(wm)
        self._bindings.clear()
        self._allocation.clear()

    def active_bindings(self) -> list[Binding]:
        """Held bindings whose working memory is sustained, in bind order."""
        return [b for b in self._bindings.values() if b.active]

    def concept_binding(self, word: str, hub: str) -> Binding | None:
        binding = self._allocation.get(hub)
        return binding if binding is not None and binding.word == word.casefold() else None

    def cell_binding(self, from_hub: str, to_hub: str, relation: str) -> Binding | None:
        return self._bindings.get(self._cell_wm(from_hub, to_hub, relation))

    # -------------------------------------------------------------- counting

    def connection_count(self) -> int:
        """Gated links in the fixed structure: each word-hub pair contributes
        its two directions, each matrix cell its forward and mirror route."""
        return 2 * self._word_wm_count + 2 * len(self.cells)

    def expressible_bindings(self) -> int:
        """Distinct (word, relation, word) facts the fixed matrix can encode."""
        specs = self.config.relation_specs()
        pools = {pool for spec in specs for pool in (spec.from_pool, spec.to_pool)}
        words = {pool: len(self.lexicon.words_of_pool(pool)) for pool in pools}
        return sum(words[spec.from_pool] * words[spec.to_pool] for spec in specs)

    # -------------------------------------------------------------- snapshot

    def to_snapshot(self) -> dict:
        allocation = [[hub, self.hub_word(hub)] for kind in sorted(self.pools)
                      for hub in self.pools[kind].hubs if hub in self._allocation]
        bindings, net = [], self.network
        for b in self._bindings.values():
            rec = b.describe()
            rec["activation"] = net.activation(b.wm)  # read without building a record the horizon dropped
            if self.config.wm_decay_horizon is not None and net.is_open(BindingGate(b.wm)):
                rec["age"] = net.time - net.population(b.wm).sustained_since
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
        """The board a `to_snapshot` record describes. A malformed record
        raises InvalidState, or InvalidConfig for the config, naming it."""
        if type(data) is not dict or data.get("format") != "nba-state":
            raise InvalidConfig("not a state snapshot (missing format marker)")
        config = Config.from_dict(data.get("config", {}))
        lexicon = Lexicon.from_dict(expect(data.get("lexicon", {}), dict, "lexicon"))
        bb = cls(lexicon, config)
        for i, rec in enumerate(expect(data.get("allocation", []), list, "allocation")):
            if type(rec) is not list or len(rec) != 2 or type(rec[0]) is not str:
                raise InvalidState(f"allocation[{i}]: expected [hub, word or null], got {rec!r}")
            if rec[0] not in bb._hubs:
                raise InvalidState(f"allocation[{i}]: unknown hub {rec[0]!r}")
            if rec[1] is None:
                bb._allocation[rec[0]] = None
        for i, rec in enumerate(expect(data.get("bindings", []), list, "bindings")):
            bb._restore_binding(rec, f"bindings[{i}]")
        bb.network._floors.clear()  # the replayed binds leave no injection pending
        return bb

    def _restore_binding(self, rec, where: str) -> None:
        expect(rec, dict, where)

        def field(key):
            if key not in rec:
                raise InvalidState(f"{where}: missing key {key!r}")
            return expect(rec[key], str, f"{where}.{key}")

        level = rec.get("activation", 1.0)
        if type(level) not in (int, float) or not 0.0 <= level <= 1.0:
            raise InvalidState(f"{where}.activation: expected a number in [0, 1], got {level!r}")
        age = rec.get("age", 0)
        if type(age) is not int or age < 0:
            raise InvalidState(f"{where}.age: expected an integer >= 0, got {age!r}")
        kind = rec.get("kind")
        if kind == "concept":
            args, bind = (field("word"), field("hub")), self.bind_concept
        elif kind == "cell":
            args, bind = (field("from"), field("to"), field("relation")), self.bind_hubs
        else:
            raise InvalidState(f"{where}.kind: expected 'concept' or 'cell', got {kind!r}")
        try:
            binding = bind(*args)
        except NbaError as exc:  # such as an unknown word, or a word of the wrong type
            raise InvalidState(f"{where}: {exc}") from exc
        net = self.network
        pop = net.population(binding.wm)
        if level == pop.activation and "age" not in rec:
            return  # the bind left it as saved, filed and, under a horizon, due
        if level < net.sustain_threshold:
            # saved after its decay horizon released it; its hub stays allocated. The
            # release drops the horizon entry the bind gave it
            net.release_wm(binding.wm)
            return
        net._drop_due(pop)  # the bind dated its horizon release from now, not from the saved age
        net._set_activation(pop, level)  # filed by the network's own rule: flowing above 0
        if "age" in rec:
            pop.sustained_since = net.time - age
        net._settle(pop)  # settled as on the board it was saved from, or else left flowing


class _Cells(Mapping):
    """A board's matrix cells by (from hub, to hub, relation), derived from
    its grid table; `MatrixCell` values are made on lookup."""

    def __init__(self, board: Blackboard):
        self._board = board

    def __getitem__(self, key) -> MatrixCell:
        wm = self._board._cell_wm(*key) if isinstance(key, tuple) and len(key) == 3 else None
        if wm is None:
            raise KeyError(key)
        return MatrixCell(*key, wm=wm, relay_fwd=wm + 1, relay_rev=wm + 2)

    def __iter__(self):
        pools = self._board.pools
        for relation, from_pool, to_pool in self._board._grids:
            for from_hub in pools[from_pool].hubs:
                for to_hub in pools[to_pool].hubs:
                    yield (from_hub, to_hub, relation)

    def __len__(self) -> int:
        pools = self._board.pools
        return sum(pools[f].capacity * pools[t].capacity for _, f, t in self._board._grids)
