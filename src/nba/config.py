"""Run configuration: pool capacities, relation catalog, dynamics parameters.

Every key has a documented default and a kind of value, both in one table
(`_FIELDS`); a JSON config file may override any subset of keys. Unknown
keys are rejected, and so is a value of the wrong type or out of range,
naming its key and the value, so typos fail loudly.
"""

from __future__ import annotations

import json

from .errors import InvalidConfig
from .value import Value

# relation family -> the (from pool, to pool) of each grid it instantiates;
# "prep" instantiates its grid once per configured preposition label
FAMILY_GRIDS = {
    "agent": (("N", "V"),),
    "theme": (("V", "N"),),
    "modifier": (("N", "N"),),
    "clause": (("V", "C"), ("C", "V")),
    "prep": (("N", "N"),),
}


class RelationSpec(Value):
    """One grid of matrix cells: relation name plus its from/to hub pools."""

    __slots__ = ("name", "from_pool", "to_pool")

    def __init__(self, name: str, from_pool: str, to_pool: str):
        self.name = name
        self.from_pool = from_pool
        self.to_pool = to_pool


# what each kind of config value must be; bool is not taken for a number
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "true or false": lambda v: type(v) is bool,
    "a list of strings": lambda v: type(v) in (list, tuple) and all(type(x) is str for x in v),
    "an integer or null": lambda v: v is None or type(v) is int,
    "an object of strings": lambda v: type(v) is dict and all(type(x) is str for x in (*v, *v.values())),
}

# every config key: its default and the kind of value it takes
_FIELDS = {
    # hub pool capacities (fixed at blackboard construction)
    "k_n": (8, "an integer"),
    "k_v": (8, "an integer"),
    "k_c": (4, "an integer"),
    # enabled relation families
    "relations": (("agent", "theme", "modifier", "prep", "clause"), "a list of strings"),
    "prep_labels": (("of", "in", "on"), "a list of strings"),
    # dynamics
    "gain": (1.0, "a number"),
    "decay": (0.0, "a number"),
    "wm_decay": (1.0, "a number"),
    "sustain_threshold": (0.5, "a number"),
    "readout_threshold": (0.5, "a number"),
    "settle_budget": (32, "an integer"),
    # encoding policy
    "auto_add_words": (True, "true or false"),
    "strict_labels": (True, "true or false"),
    # optional spontaneous working-memory release after this many steps
    "wm_decay_horizon": (None, "an integer or null"),
    # query-language relation aliases (episodic mode)
    "query_aliases": ({"do": "agent", "mod": "modifier"}, "an object of strings"),
}


class Config:
    """Every key of `_FIELDS`, given as a keyword or left at its default."""

    __slots__ = tuple(_FIELDS)

    def __init__(self, **values):
        unknown = values.keys() - _FIELDS.keys()
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        for key, (default, _) in _FIELDS.items():
            value = values.get(key, default)
            setattr(self, key, dict(value) if type(value) is dict else value)

    def validate(self) -> "Config":
        for key, (_, kind) in _FIELDS.items():
            value = getattr(self, key)
            if not _KINDS[kind](value):
                raise InvalidConfig(f"{key}: expected {kind}, got {value!r}")
        for key in ("k_n", "k_v", "k_c", "settle_budget", "wm_decay_horizon"):
            value = getattr(self, key)
            if value is not None and value < 1:  # only the horizon may be null
                raise InvalidConfig(f"{key}: expected an integer >= 1, got {value!r}")
        for key in ("decay", "wm_decay", "sustain_threshold", "readout_threshold"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfig(f"{key}: expected a number in [0, 1], got {value!r}")
        if not self.gain > 0.0:
            raise InvalidConfig(f"gain: expected a number > 0, got {self.gain!r}")
        for i, fam in enumerate(self.relations):
            if fam not in FAMILY_GRIDS:
                raise InvalidConfig(f"relations: expected a relation family ({', '.join(FAMILY_GRIDS)}), got {fam!r}")
            if fam in self.relations[:i]:  # its grids would be reserved twice
                raise InvalidConfig(f"relations: repeated relation family {fam!r}")
        for i, label in enumerate(self.prep_labels):
            if not label or any(ch.isspace() for ch in label):
                raise InvalidConfig(f"prep_labels: expected a nonempty label without whitespace, got {label!r}")
            if label in self.prep_labels[:i]:
                raise InvalidConfig(f"prep_labels: repeated preposition label {label!r}")
        return self

    def relation_specs(self) -> list[RelationSpec]:
        """Concrete cell grids implied by the enabled families."""
        specs: list[RelationSpec] = []
        for fam in self.relations:
            names = [f"prep:{label}" for label in self.prep_labels] if fam == "prep" else [fam]
            for name in names:
                specs.extend(RelationSpec(name, src, dst) for src, dst in FAMILY_GRIDS[fam])
        return specs

    def relation_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for spec in self.relation_specs():
            seen.setdefault(spec.name, None)
        return tuple(seen)

    def capacity(self, pool: str) -> int:
        return {"N": self.k_n, "V": self.k_v, "C": self.k_c}[pool]

    # ------------------------------------------------------------ (de)serialize

    def to_dict(self) -> dict:
        data = {key: getattr(self, key) for key in _FIELDS}
        for key in ("relations", "prep_labels"):
            data[key] = list(data[key])
        data["query_aliases"] = dict(self.query_aliases)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if type(data) is not dict:
            raise InvalidConfig(f"config: expected an object, got {data!r}")
        values = dict(data)
        for key in ("relations", "prep_labels"):
            if type(values.get(key)) is list:
                values[key] = tuple(values[key])
        return cls(**values).validate()

    @classmethod
    def from_json(cls, text: str) -> "Config":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)  # which refuses any JSON but an object
