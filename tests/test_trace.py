"""Activity tracing: rise/decline detection, fidelity, export round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nba.blackboard import Blackboard
from nba.config import Config
from nba.encoder import BindConcept, CloseConstituent, ConstituentSpan, Token, compile, execute, parse_conllu
from nba.errors import InvalidTrace, NbaError, SpanNotClosed
from nba.lexicon import Lexicon, WordType
from nba.trace import ActivityTrace, PatternReport, detect_rise_decline, export, load, trace_encode

TEN_SAD_STUDENTS = (
    "1\tten\t_\tADJ\t_\t_\t3\tamod\t_\t_\n"
    "2\tsad\t_\tADJ\t_\t_\t3\tamod\t_\t_\n"
    "3\tstudents\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
)

TEN_SAD_STUDENTS_OF_BILL_GATES = (
    "1\tten\t_\tADJ\t_\t_\t3\tamod\t_\t_\n"
    "2\tsad\t_\tADJ\t_\t_\t3\tamod\t_\t_\n"
    "3\tstudents\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    "4\tof\t_\tADP\t_\t_\t6\tcase\t_\t_\n"
    "5\tBill\t_\tPROPN\t_\t_\t6\tamod\t_\t_\n"
    "6\tGates\t_\tPROPN\t_\t_\t3\tnmod\t_\t_\n"
)

CAT_RUNS = (
    "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
)


def _traced(text, **config):
    bb = Blackboard(Lexicon(), Config(**config)) if config else Blackboard(Lexicon())
    tokens, arcs = parse_conllu(text)
    program = compile(tokens, arcs)
    report, trace = trace_encode(program, bb)
    return bb, program, report, trace


def synthetic_span(open_step, close_step):
    return ConstituentSpan(start=1, end=2, head=2, open_step=open_step, close_step=close_step)


def test_detector_on_up_then_down():
    trace = ActivityTrace()
    for step, value in enumerate([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 1.0]):
        trace.add_sample(step, value)
    report = detect_rise_decline(trace, synthetic_span(0, 3))
    assert report.rose and report.declined
    # past its last sample a trace holds its last level
    assert (trace.activity_at(3), trace.activity_at(6), trace.activity_at(40)) == (3.0, 1.0, 1.0)


def test_detector_on_flat_trace():
    trace = ActivityTrace()
    for step in range(8):
        trace.add_sample(step, 2.0)
    report = detect_rise_decline(trace, synthetic_span(0, 4))
    assert not report.rose and not report.declined


def test_detector_requires_closed_span():
    trace = ActivityTrace()
    trace.add_sample(0, 0.0)
    with pytest.raises(SpanNotClosed):
        detect_rise_decline(trace, ConstituentSpan(start=1, end=2, head=2, open_step=0))


def test_trace_starts_at_zero_and_rises_on_first_binding():
    _, program, report, trace = _traced(CAT_RUNS, k_n=2, k_v=2, k_c=1)
    assert trace.samples[0] == (0, 0.0)
    bind_steps = [
        step for instr, step in report.instruction_steps if isinstance(instr, BindConcept)
    ]
    first_bind = bind_steps[0]
    assert trace.activity_at(first_bind) > 0.0
    assert trace.activity_at(first_bind - 1) == 0.0


def test_each_new_binding_raises_aggregate_by_sustain_level():
    _, _, report, trace = _traced(CAT_RUNS, k_n=2, k_v=2, k_c=1)
    for instr, step in report.instruction_steps:
        if isinstance(instr, BindConcept):
            assert trace.activity_at(step) >= trace.activity_at(step - 1) + 0.5


def test_activity_nonnegative_everywhere():
    _, _, _, trace = _traced(TEN_SAD_STUDENTS_OF_BILL_GATES)
    assert all(a >= 0.0 for _, a in trace.samples)


def test_ten_sad_students_rises_then_declines():
    _, program, report, trace = _traced(TEN_SAD_STUDENTS)
    span = program.span(1, 3)
    close = span.close_step
    # non-decreasing while tokens 1..3 arrive
    pre_close = [a for s, a in trace.samples if s < close]
    assert pre_close == sorted(pre_close)
    result = detect_rise_decline(trace, span)
    assert result.rose and result.declined


def test_closure_drops_activity_within_two_steps_while_bindings_persist():
    bb, program, report, trace = _traced(TEN_SAD_STUDENTS)
    span = program.span(1, 3)
    peak = trace.max_between(span.open_step, span.close_step)
    assert trace.activity_at(span.close_step + 2) < peak
    # the bindings themselves survive closure
    assert len(bb.active_bindings()) == 5  # 3 concepts + 2 modifier cells


def test_two_phrase_trace_has_inner_and_outer_events():
    _, program, _, trace = _traced(TEN_SAD_STUDENTS_OF_BILL_GATES)
    inner = detect_rise_decline(trace, program.span(1, 3))
    outer = detect_rise_decline(trace, program.span(1, 6))
    assert inner.rose and inner.declined
    assert outer.rose and outer.declined
    assert outer.peak > inner.peak


def test_trace_final_state_identical_to_plain_execute():
    text = TEN_SAD_STUDENTS_OF_BILL_GATES
    bb_plain = Blackboard(Lexicon())
    tokens, arcs = parse_conllu(text)
    execute(compile(tokens, arcs), bb_plain)
    bb_traced, _, _, _ = _traced(text)
    assert bb_plain.snapshot_bytes() == bb_traced.snapshot_bytes()


def test_close_instructions_record_span_steps():
    _, program, report, _ = _traced(TEN_SAD_STUDENTS_OF_BILL_GATES)
    closes = [i for i, _ in report.instruction_steps if isinstance(i, CloseConstituent)]
    assert {(c.start, c.end) for c in closes} == {(1, 3), (4, 6), (1, 6)}
    assert program.span(1, 6) is not None and program.span(2, 6) is None
    for span in program.spans:
        assert span.close_step is not None
        assert span.close_step >= span.open_step


def test_export_csv_shape_and_round_trip():
    trace = ActivityTrace()
    for step, value in ((0, 0.0), (1, 1.5), (2, 2.0)):
        trace.add_sample(step, value)
    data = export(trace, "csv")
    lines = data.decode().splitlines()
    assert lines[0] == "step,activity"
    assert len(lines) == 4
    assert load(data, "csv").samples == trace.samples


def test_export_empty_csv_is_header_only():
    data = export(ActivityTrace(), "csv")
    assert data.decode().splitlines() == ["step,activity"]
    assert ActivityTrace().activity_at(0) == ActivityTrace().activity_at(5) == 0.0


def test_export_json_round_trip_identical():
    _, _, _, trace = _traced(TEN_SAD_STUDENTS)
    data = export(trace, "json")
    restored = load(data, "json")
    assert restored.samples == trace.samples
    assert restored.markers == trace.markers


def test_export_unknown_format_rejected():
    with pytest.raises(ValueError):
        export(ActivityTrace(), "xml")


@pytest.mark.parametrize("data, fmt, where", [
    (b"step,activity\n1\n", "csv", "line 2: "),
    (b"[1]", "json", "not a JSON trace: "),
    (b'{"samples": [[1]]}', "json", "samples[0]: "),
    (b'{"samples": [[1, 0.5], [1, 0.5]]}', "json", "samples[1]: "),
    (b'{"markers": 3}', "json", "markers: "),
    (b"step,activity\n0,x\n", "csv", "line 2: "),
    (b"step,activity\n\xff\n", "csv", "not UTF-8 text: "),
    (b"step;activity\n", "csv", "line 1: "),
    (b"step,activity\n2.5,0.1\n", "csv", "line 2: "),
    (b'{"samples": [[2.5, 0.1]]}', "json", "samples[0]: "),
    (b'{"samples": [[true, 0.1]]}', "json", "samples[0]: "),
    (b'{"samples": [["2", 0.1]]}', "json", "samples[0]: "),
    (b'{"markers": [[1.0, "x"]]}', "json", "markers[0]: "),
])
def test_malformed_trace_is_a_located_nba_error(data, fmt, where):
    with pytest.raises(InvalidTrace) as info:
        load(data, fmt)
    assert isinstance(info.value, NbaError) and isinstance(info.value, ValueError)
    assert str(info.value).startswith(where)


def test_add_sample_and_export_failures_are_nba_errors():
    trace = ActivityTrace()
    trace.add_sample(1, 0.5)
    for step, activity in ((1, 0.5), (0, 0.5), ("x", 0.5), (2, None), (2.0, 0.5), (True, 0.5), ("2", 0.5)):
        with pytest.raises(InvalidTrace):
            trace.add_sample(step, activity)
    assert trace.samples == [(1, 0.5)]
    for bad in (ActivityTrace(samples=[(0, 0.5), 1]), ActivityTrace(markers=[(0, "a", "b")]), ActivityTrace(samples=3)):
        with pytest.raises(InvalidTrace, match=r"^(samples|markers)"):
            export(bad, "json")
    with pytest.raises(InvalidTrace, match="unknown trace format"):
        load(b"", "xml")


def test_trace_records_are_value_classes():
    trace, twin = ActivityTrace(), ActivityTrace(samples=[], markers=[])
    assert trace == twin and trace.__hash__ is None
    trace.add_sample(0, 1.0)
    assert trace != twin and trace.samples == [(0, 1.0)]
    report = PatternReport(rose=True, declined=False, baseline=0.0, peak=1.0, after_close=1.0)
    assert report == PatternReport(True, False, 0.0, 1.0, 1.0)
    assert hash(report) == hash(PatternReport(True, False, 0.0, 1.0, 1.0))
    # another class is no value of theirs: `==` falls back to identity
    token = Token(1, "cat", WordType.NOUN)
    assert token.__eq__(5) is NotImplemented and (token == 5) is False and token != report


def _json_nodes(data, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, data
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _json_nodes(value, (*path, key))


# bytes a mutation may write over part of an exported trace, and values it may put in a JSON record
_JUNK = (b"", b",", b"\n", b'"', b"x", b"-1", b"1e400", b"nan", b"[", b"]", b"{", b"}", b"null", b"\xff",
         b"\x00", b"0,0", b"9,1\n0,0", b"\r", b"'", b" ")
_VALUES = (None, True, 2.5, -1, 0, 1e308, "x", "", [], [1], [1, 2, 3], ["a", "b"], {}, {"k": 1})
_EXPORTED = {}


def _exported(fmt):
    if fmt not in _EXPORTED:
        _EXPORTED[fmt] = export(_traced(TEN_SAD_STUDENTS)[3], fmt)
    return _EXPORTED[fmt]


@given(fmt=st.sampled_from(("csv", "json")), structural=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_trace_loads_or_raises_only_nba_errors(fmt, structural, data):
    """Overwrite bytes of an exported trace, or drop or replace a record of
    its JSON: `load` returns a trace that exports again, or raises an
    NbaError that is a ValueError, on one line."""
    raw = _exported(fmt)
    if structural and fmt == "json":
        doc = json.loads(raw)
        path, _ = data.draw(st.sampled_from(list(_json_nodes(doc))[1:]))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if data.draw(st.booleans()):
            del target[last]
        else:
            target[last] = data.draw(st.sampled_from(_VALUES))
        raw = json.dumps(doc).encode()
    else:
        raw = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 3))):
            start = data.draw(st.integers(0, len(raw)))
            stop = data.draw(st.integers(start, min(len(raw), start + 8)))
            raw[start:stop] = data.draw(st.sampled_from(_JUNK))
        raw = bytes(raw)
    try:
        trace = load(raw, fmt)
    except NbaError as exc:
        assert isinstance(exc, ValueError) and "\n" not in str(exc), exc
    else:
        assert len(load(export(trace, fmt), fmt).samples) == len(trace.samples)
