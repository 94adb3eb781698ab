"""In-memory spans for the traced run, written out once at the end.

A span is (name, start, end, parent, op): the layer call it timed, its
perf_counter interval, the index of the span that was open around it, and the
workload operation it belongs to. The layer is the part of the name before
the first dot. Counts ride beside the spans as plain lists of samples.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.samples: dict[str, list] = {}
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def child_counts(self, parent_prefix: str, child: str) -> list[int]:
        """How many `child` spans sit directly under each span whose name
        starts with `parent_prefix`."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0].startswith(parent_prefix)}
        for name, _, _, parent, _ in self.spans:
            if name == child and parent in counts:
                counts[parent] += 1
        return list(counts.values())

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        layers: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
