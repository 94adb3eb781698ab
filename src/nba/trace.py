"""Aggregate activity tracing during incremental encoding.

The traced quantity sums hub, working-memory and control populations,
excluding concepts, so it reflects structure building rather than lexical
access. Activity rises while a constituent is open (new bindings sustain,
relation labels stay asserted) and drops within two steps of its closure
(labels retract while the bindings persist).
"""

from __future__ import annotations

import csv
import io
import json

from .dynamics import Network, PopulationKind
from .encoder import ConstituentSpan, ControlProgram, execute
from .errors import InvalidTrace, SpanNotClosed
from .value import Value

_TRACED_KINDS = (PopulationKind.HUB, PopulationKind.WORKING_MEMORY, PopulationKind.CONTROL)


def aggregate_activity(network: Network) -> float:
    return network.total_activation(_TRACED_KINDS)


def _pair(record, kind, text: bool = False) -> tuple[int, object]:
    """(step, value) from a [step, value] record, the value made a `kind`.
    The step is an int, not a float or a bool, or with `text` the text of
    one, as in a CSV field."""
    try:
        step, value = record
        if text:
            step = int(step)
        elif type(step) is not int:
            raise TypeError
        return step, kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidTrace(f"expected [int step, {kind.__name__}], got {record!r}") from None


def _samples(trace: ActivityTrace, records, text: bool = False) -> ActivityTrace:
    """`trace` with each sample of `records`, given as (where, [step,
    activity]) and in step order, added; an InvalidTrace names where. With
    `text` the records are CSV rows, whose steps are text."""
    for where, record in records:
        try:
            trace.add_sample(*_pair(record, float, text))
        except InvalidTrace as exc:
            raise InvalidTrace(f"{where}: {exc}") from None
    return trace


def _listed(records, key: str) -> list:
    """`records`, a list, as (where, record) pairs named after `key`."""
    if not isinstance(records, (list, tuple)):
        raise InvalidTrace(f"{key}: expected a list, got {type(records).__name__}")
    return [(f"{key}[{i}]", record) for i, record in enumerate(records)]


def _markers(records) -> list[tuple[int, str]]:
    """The [step, text] records of a list of markers as (step, text) pairs."""
    markers = []
    for where, record in _listed(records, "markers"):
        try:
            markers.append(_pair(record, str))
        except InvalidTrace as exc:
            raise InvalidTrace(f"{where}: {exc}") from None
    return markers


class ActivityTrace(Value):
    """Samples [(step, activity), ...] in rising step order, and markers
    [(step, text), ...]."""

    __slots__ = ("samples", "markers")
    __hash__ = None  # samples and markers grow

    def __init__(self, samples: list | None = None, markers: list | None = None):
        self.samples = [] if samples is None else samples
        self.markers = [] if markers is None else markers

    def add_sample(self, step: int, activity: float) -> None:
        step, activity = _pair((step, activity), float)
        if self.samples and step <= self.samples[-1][0]:
            raise InvalidTrace(f"sample steps must rise strictly: step {step} after step {self.samples[-1][0]}")
        self.samples.append((step, activity))

    def activity_at(self, step: int) -> float:
        """Activity at a step; past the last sample the trace holds its level."""
        if not self.samples:
            return 0.0
        last = self.samples[0][1]
        for s, a in self.samples:
            if s > step:
                return last
            last = a
        return last

    def max_between(self, start: int, end: int) -> float:
        values = [a for s, a in self.samples if start <= s <= end]
        return max(values) if values else 0.0

    @property
    def peak(self) -> float:
        return max((a for _, a in self.samples), default=0.0)


class PatternReport(Value):
    __slots__ = ("rose", "declined", "baseline", "peak", "after_close")

    def __init__(self, rose: bool, declined: bool, baseline: float, peak: float, after_close: float):
        self.rose = rose
        self.declined = declined
        self.baseline = baseline
        self.peak = peak
        self.after_close = after_close


def trace_encode(program: ControlProgram, blackboard) -> tuple:
    """Like execute(), with one aggregate sample per dynamics step.

    Returns (ConnectionPathReport, ActivityTrace); the final blackboard state
    is identical to a plain execute().
    """
    trace = ActivityTrace()
    net = blackboard.network
    trace.add_sample(net.time, aggregate_activity(net))
    report = execute(
        program, blackboard, on_step=lambda n: trace.add_sample(n.time, aggregate_activity(n))
    )
    for instr, step in report.instruction_steps:
        trace.markers.append((step, str(instr)))
    return report, trace


SETTLE_STEPS = 2  # `execute` takes two steps per closure, so a closed span has settled two steps on
RISE_EPS = 1e-6  # how far the peak must rise above the activity at the span's open
DROP_EPS = 1e-6  # how far the activity must fall below the peak once the span has settled


def detect_rise_decline(trace: ActivityTrace, span: ConstituentSpan) -> PatternReport:
    """Check the rise-within / decline-after pattern for one constituent span."""
    if span.open_step is None or span.close_step is None:
        raise SpanNotClosed(f"span {span.start}..{span.end} has no recorded open/close steps")
    baseline = trace.activity_at(span.open_step)
    peak = trace.max_between(span.open_step, span.close_step)
    after_close = trace.activity_at(span.close_step + SETTLE_STEPS)
    rose = peak > baseline + RISE_EPS
    declined = after_close <= peak - DROP_EPS
    return PatternReport(
        rose=rose, declined=declined, baseline=baseline, peak=peak, after_close=after_close
    )


# ------------------------------------------------------------------- export

_FORMATS = ("csv", "json")


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise InvalidTrace(f"unknown trace format {fmt!r} (expected csv or json)")


def export(trace: ActivityTrace, fmt: str) -> bytes:
    """The trace as CSV (its samples) or JSON (samples and markers). A
    sample or marker that is not a [step, value] pair, or a sample out of
    step order, raises InvalidTrace naming it."""
    _check_format(fmt)
    samples = _samples(ActivityTrace(), _listed(trace.samples, "samples")).samples
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "activity"])
        for step, activity in samples:
            writer.writerow([step, repr(activity)])
        return buf.getvalue().encode("utf-8")
    doc = {"samples": [[s, a] for s, a in samples], "markers": [[s, m] for s, m in _markers(trace.markers)]}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def load(data: bytes, fmt: str) -> ActivityTrace:
    """The trace `export` wrote. Anything else raises InvalidTrace naming
    the CSV line or the JSON record at fault."""
    _check_format(fmt)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidTrace(f"not UTF-8 text: {exc}") from None
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            rows = [(f"line {reader.line_num}", row) for row in reader]
        except csv.Error as exc:
            raise InvalidTrace(f"line {reader.line_num}: {exc}") from None
        if not rows or rows[0][1] != ["step", "activity"]:
            raise InvalidTrace("line 1: not a trace CSV (bad header)")
        return _samples(ActivityTrace(), rows[1:], text=True)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidTrace(f"not a JSON trace: {exc}") from None
    if type(doc) is not dict:
        raise InvalidTrace(f"not a JSON trace: expected an object, got {type(doc).__name__}")
    return _samples(ActivityTrace(markers=_markers(doc.get("markers", []))), _listed(doc.get("samples", []), "samples"))
