"""Fixed pure-Python references that track how fast the host runs right now.

On shared hosts the speed of one core drifts by a quarter over tens of
seconds as neighbours come and go, and a slow stretch slows every operation
in it alike, so neither longer runs nor best-of-k timings remove it. Timing
a reference between the workload's operations and dividing by its median
cancels most of that drift: the benchmark reports times scaled to a host on
which one repetition takes its nominal time. Each operation is scaled by the
repetitions taken nearest to it, so a slow burst of a second or two is
cancelled too, not only a slow run. The references import nothing
from nba, so a change to nba moves only the workload's side of the ratio.
Raw times stay in the run record.

Two references, because drift does not hit all work alike: `cpu` (dict,
set, float and attribute work on a cache-sized working set) tracks
in-process operations, and `alloc` (building and freeing 300k small
objects) tracks structure builds and whole CLI processes, which spend their
time allocating. Tracked against the wrong kind, drift came through at
full size.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = {"cpu": 0.005, "alloc": 0.2}  # one repetition on the host times are reported for
WINDOW = {"cpu": 5, "alloc": 4}  # repetitions nearest an operation that set its scale
INTERVAL_S = 0.2  # between repetitions interleaved with in-process operations

clock = time.perf_counter

_N = 1 << 16


class _Node:
    __slots__ = ("pid", "act", "out")

    def __init__(self, pid: int):
        self.pid = pid
        self.act = 0.0
        self.out = ((pid * 2654435761) % _N, (pid * 40503) % _N)


class Reference:
    """The same work on every repetition, of either kind."""

    def __init__(self):
        self.nodes = {pid: _Node(pid) for pid in range(_N)}

    def alloc(self) -> float:
        start = clock()
        nodes = {pid: _Node(pid) for pid in range(150_000)}
        edges = [(pid, pid + 1, 0.5) for pid in range(150_000)]
        del nodes, edges
        return clock() - start

    def cpu(self) -> float:
        start = clock()
        nodes, inflow, active, acc = self.nodes, {}, set(), {}
        k = 12345
        for _ in range(1000):
            k = (k * 1103515245 + 12345) & (_N - 1)
            node = nodes[k]
            for target in node.out:
                inflow[target] = inflow.get(target, 0.0) + 0.5
            node.act = min(1.0, node.act * 0.5 + 0.25)
            active.add(k)
            if len(active) > 64:
                active.discard(min(active))
        for i in range(8000):
            acc[i & 1023] = acc.get(i & 1023, 0.0) + i * 0.5
        sorted(active)
        return clock() - start


class Pace:
    """Reference repetitions of one kind taken alongside one stretch of
    measurement; without a reference it takes none."""

    def __init__(self, reference: Reference | None = None, kind: str = "cpu"):
        self.rep = getattr(reference, kind) if reference is not None else None
        self.nominal = NOMINAL_S[kind]
        self.window = WINDOW[kind]
        self.times: list[float] = []  # clock() when each repetition ended
        self.samples: list[float] = []  # seconds each repetition took
        self._due = 0.0

    def _take(self) -> None:
        self.samples.append(self.rep())
        self.times.append(clock())

    def tick(self) -> None:
        """One repetition if `INTERVAL_S` has passed since the last."""
        if self.rep is not None and clock() >= self._due:
            self._take()
            self._due = clock() + INTERVAL_S

    def now(self, reps: int) -> None:
        """`reps` repetitions straight away."""
        if self.rep is not None:
            for _ in range(reps):
                self._take()

    def scale(self, at: float) -> float:
        """Factor that turns a time measured at clock() `at` into nominal-host
        time: nominal over the median of the `window` repetitions nearest it."""
        j = bisect.bisect(self.times, at)
        lo = max(0, min(j - self.window // 2, len(self.samples) - self.window))
        return self.nominal / statistics.median(self.samples[lo:lo + self.window])

    def scaled(self, timed) -> list[float]:
        """(clock() at end, seconds) pairs as seconds at nominal-host speed."""
        return [seconds * self.scale(at) for at, seconds in timed]
