"""CLI: subcommands, exit codes, file round-trips, the repl loop."""

import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nba.cli import main
from nba.commands import run_repl
from nba.config import Config

LEXICON = "cat\tN\ndog\tN\nruns\tV\neats\tV\npaw\tN\n"
RELATIONS = "cat\thas\tpaw\n"
CAT_RUNS = (
    "1\tcat\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\truns\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
)
TWO_SENTENCES = CAT_RUNS + "\n" + (
    "1\tdog\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
    "2\teats\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "lex.tsv").write_text(LEXICON)
    (tmp_path / "rel.tsv").write_text(RELATIONS)
    (tmp_path / "s.conllu").write_text(CAT_RUNS)
    (tmp_path / "two.conllu").write_text(TWO_SENTENCES)
    return tmp_path


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_lexicon_check_ok(workdir, capsys):
    rc = main(["lexicon", "check", "--lexicon", str(workdir / "lex.tsv"),
               "--relations", str(workdir / "rel.tsv")])
    assert rc == 0
    assert "5 entries, 1 semantic relations" in capsys.readouterr().out


def test_lexicon_check_bad_file_is_domain_error(workdir, capsys):
    bad = workdir / "bad.tsv"
    bad.write_text("cat\tN\nrun\tQ\n")
    assert main(["lexicon", "check", "--lexicon", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_domain_error(workdir, capsys):
    rc = main(["lexicon", "check", "--lexicon", str(workdir / "nope.tsv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_encode_then_query_round_trip(workdir, capsys):
    state = workdir / "state.json"
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"),
               "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    assert rc == 0
    capsys.readouterr()
    assert main(["query", "--state", str(state), "cat do?"]) == 0
    assert capsys.readouterr().out == "runs\n"
    assert main(["query", "--state", str(state), "? do runs"]) == 0
    assert capsys.readouterr().out == "cat\n"


def test_encode_two_sentences_and_state_show(workdir, capsys):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--sentence", str(workdir / "two.conllu"), "--state", str(state)])
    capsys.readouterr()
    assert main(["state", "show", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert "active bindings: 6" in out
    assert "cat @ N0" in out


def test_encode_and_state_show_count_only_active_bindings(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"wm_decay_horizon": 1}))
    state = workdir / "state.json"
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    assert rc == 0
    assert "0 active bindings" in capsys.readouterr().out
    assert len(json.loads(state.read_text())["bindings"]) == 3  # still held
    assert main(["state", "show", "--state", str(state)]) == 0
    assert "active bindings: 0\n" in capsys.readouterr().out


def test_query_unknown_relation_is_domain_error(workdir, capsys):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    capsys.readouterr()
    assert main(["query", "--state", str(state), "cat blorps?"]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_on_state_naming_unknown_hub_is_domain_error(workdir, capsys):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    capsys.readouterr()
    data = json.loads(state.read_text())
    next(rec for rec in data["bindings"] if rec["kind"] == "concept")["hub"] = "Z9"
    state.write_text(json.dumps(data))
    assert main(["query", "--state", str(state), "cat do?"]) == 2
    assert capsys.readouterr().err == "error: bindings[0]: unknown hub 'Z9'\n"


@pytest.mark.parametrize("hub", ["N01", "n0", "N-1", " N0", "N", "", "Q0", "N8"])
def test_allocation_naming_no_hub_is_a_located_one_line_error(workdir, capsys, hub):
    """A default board has noun hubs N0..N7; no other string names one."""
    state = _encoded_state(workdir)
    capsys.readouterr()
    data = json.loads(state.read_text())
    assert data["config"]["k_n"] == 8
    data["allocation"][0] = [hub, None]
    state.write_text(json.dumps(data))
    assert main(["query", "--state", str(state), "cat do?"]) == 2
    assert capsys.readouterr().err == f"error: allocation[0]: unknown hub {hub!r}\n"


def test_config_file_is_honored(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"k_n": 1, "k_v": 1, "k_c": 1}))
    state = workdir / "state.json"
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "two.conllu"), "--state", str(state)])
    assert rc == 2  # two sentences cannot fit one noun hub
    assert "no free hub" in capsys.readouterr().err


def test_bad_config_key_is_domain_error(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"k_nn": 3}))
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "s.conllu"), "--state", str(workdir / "x.json")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("k_n = 3", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "config: expected an object, got [1, 2]"),
    ('"k_n"', "config: expected an object, got 'k_n'"),
], ids=["not-json", "list", "string"])
def test_a_bad_config_file_is_refused_in_one_line_naming_what_is_wrong(workdir, capsys, text, message):
    cfg = workdir / "cfg.json"
    cfg.write_text(text)
    capsys.readouterr()
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "s.conllu"), "--state", str(workdir / "x.json")])
    assert (rc, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not (workdir / "x.json").exists()


def test_trace_command_writes_csv(workdir, capsys):
    out = workdir / "trace.csv"
    rc = main(["trace", "--lexicon", str(workdir / "lex.tsv"),
               "--sentence", str(workdir / "s.conllu"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,activity"
    assert len(lines) > 5
    assert "rose=True" in capsys.readouterr().out


def test_trace_command_json_format(workdir, capsys):
    out = workdir / "trace.json"
    rc = main(["trace", "--lexicon", str(workdir / "lex.tsv"),
               "--sentence", str(workdir / "s.conllu"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["samples"][0] == [0, 0.0]


def test_trace_of_two_sentences_is_one_trace_with_a_report_per_sentence(workdir, capsys):
    """The sentences' traces merge into one whose sample steps rise by one
    from 0, with every sentence's markers, and each sentence's span is
    reported on its own line."""
    out = workdir / "trace.json"
    rc = main(["trace", "--lexicon", str(workdir / "lex.tsv"),
               "--sentence", str(workdir / "two.conllu"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert [step for step, _ in doc["samples"]] == list(range(19))
    assert len(doc["markers"]) == 12
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["'cat runs' span 1..2", "'dog eats' span 1..2"]
    assert lines[-1] == f"trace (json, 19 samples) -> {out}"


def test_trace_of_no_sentence_writes_nothing(workdir, capsys):
    (workdir / "none.conllu").write_text("# only a comment\n")
    out = workdir / "trace.json"
    rc = main(["trace", "--lexicon", str(workdir / "lex.tsv"),
               "--sentence", str(workdir / "none.conllu"), "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (2, "no sentences found\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "reporter", "nelson"])
def test_demo_commands_pass(name, capsys):
    assert main(["demo", name]) == 0
    assert "PASS" in capsys.readouterr().out


def test_demo_all(capsys):
    assert main(["demo", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


def test_demo_all_prints_its_golden_transcript(capsys):
    """`nba demo all` prints `tests/data/demo_all.txt` byte for byte (written
    with `nba demo all > tests/data/demo_all.txt`)."""
    golden = os.path.join(os.path.dirname(__file__), "data", "demo_all.txt")
    assert main(["demo", "all"]) == 0
    with open(golden, "rb") as f:
        assert capsys.readouterr().out.encode("utf-8") == f.read()


def test_repl_loop(workdir):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--relations", str(workdir / "rel.tsv"),
          "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    commands = "\n".join([
        "cat do?",  # before :load
        f":load {state}",
        "cat do?",
        "bogus query",
        "sem:cat has?",
        ":release-all",
        "cat do?",
        ":quit",
    ])
    out = io.StringIO()
    rc = run_repl(None, io.StringIO(commands + "\n"), out)
    assert rc == 0
    text = out.getvalue()
    assert "no state loaded" in text
    assert "runs" in text
    assert "error:" in text
    assert "paw" in text
    assert "(no answer)" in text


@pytest.mark.parametrize("lines, said", [
    ("cat do?\n", "nba> no state loaded; use :load <state.json>\nnba> "),  # ends at EOF, with no :quit
    ("\n   \n:quit\n", "nba> nba> nba> "),  # blank lines are skipped
    (":load\n:quit\n", "nba> usage: :load <state.json>\nnba> "),
    (":release-all\n:quit\n", "nba> no state loaded\nnba> "),
    (":quit\n:release-all\n", "nba> "),  # nothing after :quit is read
])
def test_repl_lines_without_a_state(lines, said):
    out = io.StringIO()
    assert run_repl(None, io.StringIO(lines), out) == 0
    assert out.getvalue() == "query repl; :load <state.json>, :release-all, :quit\n" + said


def test_repl_command_reads_stdin_on_the_loaded_state(workdir, capsys, monkeypatch):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO("cat do?\n:release-all\ncat do?\n"))
    assert main(["repl", "--state", str(state)]) == 0
    assert capsys.readouterr().out == (
        "query repl; :load <state.json>, :release-all, :quit\n"
        "nba> runs\nnba> released all bindings\nnba> (no answer)\nnba> "
    )


def test_pool_exhaustion_names_sentence_token_and_occupancy(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"k_n": 1, "k_v": 2, "k_c": 1}))
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "two.conllu"), "--state", str(workdir / "state.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: sentence 2, token 'dog': no free hub in pool N (1/1 in use)" in err
    assert not (workdir / "state.json").exists()


def test_trace_names_the_sentence_of_an_exhausted_pool_as_encode_does(tmp_path, capsys):
    (tmp_path / "lex.tsv").write_text("a\tN\nb\tADJ\nc\tN\nr\tV\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"k_n": 1, "k_v": 1, "k_c": 1}))
    (tmp_path / "s.conllu").write_text(
        "1\tb\t_\tADJ\t_\t_\t2\tamod\t_\t_\n"
        "2\tc\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
        "3\tr\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    common = ["--lexicon", str(tmp_path / "lex.tsv"), "--config", str(tmp_path / "cfg.json"),
              "--sentence", str(tmp_path / "s.conllu")]
    for command in (["encode", "--state", str(tmp_path / "state.json")], ["trace", "--out", str(tmp_path / "t.csv")]):
        assert main([*command, *common]) == 2
        assert capsys.readouterr().err == "error: sentence 1, token 'c': no free hub in pool N (1/1 in use)\n"


# Modules a query never runs: the encoder, the tracer (and csv), the demos,
# the oracle and the corpus generator.
_NOT_ON_BOARD_PATH = ("nba.encoder", "nba.trace", "nba.demos", "nba.oracle", "nba.corpus", "csv")
# Nor does `nba query` load the argument parser (and the gettext and locale
# it imports) or the other commands.
_NOT_ON_QUERY_PATH = _NOT_ON_BOARD_PATH + ("argparse", "gettext", "locale", "nba.commands")


def _run_python(code, *args):
    import nba

    src = os.path.dirname(os.path.dirname(nba.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60)


def test_query_and_state_show_import_only_the_query_path(workdir):
    """`query`, in either order of its operands, loads no parser and no
    other command; `state show` parses its argv but loads no encoder."""
    state = _encoded_state(workdir)
    for argv in ("['query', '--state', sys.argv[1], 'cat do?']", "['query', 'cat do?', '--state', sys.argv[1]]"):
        out = _bare_cli(f"assert main({argv}) == 0\n", state, modules=_NOT_ON_QUERY_PATH)
        assert out == ["runs", "[]"]
    out = _bare_cli("assert main(['state', 'show', '--state', sys.argv[1]]) == 0\n", state,
                    modules=_NOT_ON_BOARD_PATH)
    assert out[0].startswith("pools: ") and out[-1] == "[]"


def test_star_import_binds_every_exported_name():
    code = (
        "import nba\n"
        "namespace = {}\n"
        "exec('from nba import *', namespace)\n"
        "missing = [name for name in nba.__all__ if name not in namespace]\n"
        "print(len(nba.__all__), missing)\n"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    count, missing = result.stdout.split(" ", 1)
    assert int(count) > 0 and missing.strip() == "[]"


def test_package_names_resolve_to_their_submodules():
    import nba
    from nba.blackboard import Blackboard

    assert nba.Blackboard is Blackboard
    assert "run_query" in dir(nba)
    with pytest.raises(AttributeError):
        getattr(nba, "no_such_name")


def test_unknown_demo_is_usage_error(capsys):
    assert main(["demo", "nosuch"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_demo_help_lists_the_demo_names(capsys):
    from nba.demos import demo_names

    assert main(["demo", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    for name in demo_names() + ["all"]:
        assert name in out


def test_scaling_script_prints_header_and_one_row_per_size():
    """`scripts/scaling.py`, which the README documents, runs as a script."""
    import nba

    src = os.path.dirname(os.path.dirname(nba.__file__))
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "scaling.py")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run([sys.executable, script, "--sizes", "10", "100", "--pools", "1", "2", "--rounds", "2"],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    wiring, probes, memory = result.stdout.split("\n\n")
    header, *rows = wiring.splitlines()
    assert header.split() == ["lexicon", "gated", "links", "direct", "wiring", "expressible"]
    assert [row.split() for row in rows] == [["10", "144", "50", "50"], ["100", "864", "5000", "5000"]]
    # the probe table's shape, not its times: one row per pool multiple
    header, *rows = probes.splitlines()
    assert header.split() == ["pools", "probes", "forward", "us", "reverse", "us"]
    assert [row.split()[0] for row in rows] == ["40/12/8", "80/24/16"]
    assert len({row.split()[1] for row in rows}) == 1 and all(len(row.split()) == 4 for row in rows)
    assert all(float(cell) > 0.0 for row in rows for cell in row.split()[2:])
    # the memory table: a released binding leaves no population built
    header, *rows = memory.splitlines()
    assert header.split() == ["batches", "populations", "held", "bytes"]
    assert [row.split()[0] for row in rows] == ["10", "100", "300"]
    assert len({row.split()[1] for row in rows}) == 1 and all(int(row.split()[2]) >= 0 for row in rows)


def test_trajectory_hash_script_prints_one_line_per_seed_and_config_and_repeats():
    """`scripts/trajectory_hash.py` prints `seed config hash` per pair, and
    two runs under different hash seeds both print the recorded lines."""
    import nba

    src = os.path.dirname(os.path.dirname(nba.__file__))
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "trajectory_hash.py")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    runs = [subprocess.Popen([sys.executable, script, "--seeds", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=dict(env, PYTHONHASHSEED=seed)) for seed in ("0", "1")]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        outputs.append(out)
    with open(os.path.join(os.path.dirname(__file__), "data", "trajectory_hash_seed_1.txt"), encoding="utf-8") as f:
        expected = f.read()
    assert outputs == [expected, expected]
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [row[:2] for row in rows] == [["1", c] for c in ("default", "wm_decay", "threshold0", "decay")]
    assert all(len(row) == 3 and len(row[2]) == 64 and int(row[2], 16) >= 0 for row in rows)
    assert len({row[2] for row in rows}) == 4


def test_trajectory_hashes_match_their_golden_lines():
    """The `seed config hash` lines `scripts/trajectory_hash.py --seeds 1`
    prints, computed in process, equal the recorded ones: every trajectory,
    answer, snapshot and restore of its four configs is bit-identical."""
    import importlib.util

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "trajectory_hash.py")
    spec = importlib.util.spec_from_file_location("trajectory_hash", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = os.path.join(os.path.dirname(__file__), "data", "trajectory_hash_seed_1.txt")
    with open(golden, encoding="utf-8") as f:
        expected = f.read().splitlines()
    assert [f"1 {name} {module.trajectory_hash(1, overrides)}" for name, overrides in module.CONFIGS.items()] \
        == expected


def test_trajectory_hash_covers_the_restored_board(monkeypatch):
    """`scripts/trajectory_hash.py` hashes the board restored after each
    batch: a restore that drops a binding changes the hash."""
    import importlib.util

    from nba.blackboard import Blackboard

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "trajectory_hash.py")
    spec = importlib.util.spec_from_file_location("trajectory_hash", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    intact = module.trajectory_hash(1, {})
    restore = Blackboard.from_snapshot.__func__

    def lossy(cls, data):
        board = restore(cls, data)
        board.release(next(iter(board._bindings)))
        return board

    monkeypatch.setattr(Blackboard, "from_snapshot", classmethod(lossy))
    assert module.trajectory_hash(1, {}) != intact


def _encoded_state(workdir):
    state = workdir / "state.json"
    assert main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--relations", str(workdir / "rel.tsv"),
                 "--sentence", str(workdir / "s.conllu"), "--state", str(state)]) == 0
    return state


def _first_concept(data):
    return next(i for i, rec in enumerate(data["bindings"]) if rec["kind"] == "concept")


def _edit_binding(key, value, message):
    def edit(data):
        i = _first_concept(data)
        if value is None:
            del data["bindings"][i][key]
        else:
            data["bindings"][i][key] = value
        return f"bindings[{i}]{message}"
    return edit


def _edit(path, value, message):
    def edit(data):
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        return message
    return edit


# each edit of a valid state returns the message `nba query` must print
_BAD_STATES = {
    "activation-not-a-number": _edit_binding("activation", "x",
                                             ".activation: expected a number in [0, 1], got 'x'"),
    "activation-out-of-range": _edit_binding("activation", 1.5,
                                             ".activation: expected a number in [0, 1], got 1.5"),
    "activation-bool": _edit_binding("activation", True, ".activation: expected a number in [0, 1], got True"),
    "concept-without-word": _edit_binding("word", None, ": missing key 'word'"),
    "word-not-a-string": _edit_binding("word", 3, ".word: expected a string, got 3"),
    "age-not-an-integer": _edit_binding("age", 2.5, ".age: expected an integer >= 0, got 2.5"),
    "age-negative": _edit_binding("age", -1, ".age: expected an integer >= 0, got -1"),
    "unknown-binding-kind": _edit_binding("kind", "hub", ".kind: expected 'concept' or 'cell', got 'hub'"),
    "bindings-not-a-list": _edit(["bindings"], {}, "bindings: expected a list, got {}"),
    "binding-not-an-object": _edit(["bindings", 0], [], "bindings[0]: expected an object, got []"),
    "unknown-type-tag": _edit(["lexicon", "entries", 0, 1], "Q", "lexicon.entries[0]: unknown type tag 'Q'"),
    "entry-not-a-pair": _edit(["lexicon", "entries", 1], "cat",
                              "lexicon.entries[1]: expected [word, type tag], got 'cat'"),
    "entry-a-two-letter-string": _edit(["lexicon", "entries", 1], "aN",
                                       "lexicon.entries[1]: expected [word, type tag], got 'aN'"),
    "entry-word-not-a-string": _edit(["lexicon", "entries", 2, 0], 7,
                                     "lexicon.entries[2]: expected a word, got 7"),
    "duplicate-word": _edit(["lexicon", "entries", 3, 0], "CAT", "lexicon.entries[3]: duplicate word 'cat'"),
    "lexicon-not-an-object": _edit(["lexicon"], [], "lexicon: expected an object, got []"),
    "relation-unknown-word": _edit(["lexicon", "semantic_relations", 0, 2], "tail",
                                   "lexicon.semantic_relations[0]: unknown word 'tail'"),
    "relation-empty-label": _edit(["lexicon", "semantic_relations", 0, 1], "",
                                  "lexicon.semantic_relations[0]: empty relation label"),
    "relation-not-a-triple": _edit(
        ["lexicon", "semantic_relations", 0], ["cat", "has"],
        "lexicon.semantic_relations[0]: expected [subject, label, object], got ['cat', 'has']"),
    "relation-a-string": _edit(["lexicon", "semantic_relations", 0], "cat",
                               "lexicon.semantic_relations[0]: expected [subject, label, object], got 'cat'"),
    "allocation-unknown-hub": _edit(["allocation", 0], ["Z9", None], "allocation[0]: unknown hub 'Z9'"),
    "allocation-not-a-pair": _edit(["allocation", 0], "N0",
                                   "allocation[0]: expected [hub, word or null], got 'N0'"),
    "config-k_n-string": _edit(["config", "k_n"], "x", "k_n: expected an integer, got 'x'"),
    "config-k_n-bool": _edit(["config", "k_n"], True, "k_n: expected an integer, got True"),
    "config-relations-string": _edit(["config", "relations"], "agent",
                                     "relations: expected a list of strings, got 'agent'"),
    "config-relations-repeated": _edit(["config", "relations"], ["agent", "theme", "agent"],
                                       "relations: repeated relation family 'agent'"),
    "config-prep_labels-repeated": _edit(["config", "prep_labels"], ["of", "of"],
                                         "prep_labels: repeated preposition label 'of'"),
    "config-settle_budget-float": _edit(["config", "settle_budget"], 2.5,
                                        "settle_budget: expected an integer, got 2.5"),
    "config-gain-string": _edit(["config", "gain"], "1", "gain: expected a number, got '1'"),
    "config-strict_labels-int": _edit(["config", "strict_labels"], 1,
                                      "strict_labels: expected true or false, got 1"),
    "config-horizon-float": _edit(["config", "wm_decay_horizon"], 2.0,
                                  "wm_decay_horizon: expected an integer or null, got 2.0"),
    "config-aliases-list": _edit(["config", "query_aliases"], ["do"],
                                 "query_aliases: expected an object of strings, got ['do']"),
    "config-not-an-object": _edit(["config"], [], "config: expected an object, got []"),
    "config-relations-unknown": _edit(
        ["config", "relations"], ["agent", "actor"],
        "relations: expected a relation family (agent, theme, modifier, clause, prep), got 'actor'"),
    "config-prep_labels-space": _edit(["config", "prep_labels"], ["of", "next to"],
                                      "prep_labels: expected a nonempty label without whitespace, got 'next to'"),
    "config-prep_labels-empty": _edit(["config", "prep_labels"], [""],
                                      "prep_labels: expected a nonempty label without whitespace, got ''"),
    "config-gain-zero": _edit(["config", "gain"], 0, "gain: expected a number > 0, got 0"),
    "config-gain-negative": _edit(["config", "gain"], -0.5, "gain: expected a number > 0, got -0.5"),
    "config-k_c-zero": _edit(["config", "k_c"], 0, "k_c: expected an integer >= 1, got 0"),
    "config-decay-negative": _edit(["config", "decay"], -0.1, "decay: expected a number in [0, 1], got -0.1"),
    "config-wm_decay-above-1": _edit(["config", "wm_decay"], 1.5, "wm_decay: expected a number in [0, 1], got 1.5"),
    "config-sustain_threshold-above-1": _edit(["config", "sustain_threshold"], 2,
                                              "sustain_threshold: expected a number in [0, 1], got 2"),
    "config-readout_threshold-negative": _edit(["config", "readout_threshold"], -1,
                                               "readout_threshold: expected a number in [0, 1], got -1"),
    "config-settle_budget-zero": _edit(["config", "settle_budget"], 0,
                                       "settle_budget: expected an integer >= 1, got 0"),
    "config-horizon-zero": _edit(["config", "wm_decay_horizon"], 0,
                                 "wm_decay_horizon: expected an integer >= 1, got 0"),
    "format-marker-other": _edit(["format"], "nba-trace", "not a state snapshot (missing format marker)"),
    "format-marker-null": _edit(["format"], None, "not a state snapshot (missing format marker)"),
}


@pytest.mark.parametrize("text, message", [
    ('{"format": "nba-state",', "invalid JSON: Expecting property name enclosed in double quotes: "
                                "line 1 column 24 (char 23)"),
    ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "not a state snapshot (missing format marker)"),
], ids=["truncated", "empty", "list"])
def test_a_state_file_that_is_no_snapshot_is_a_one_line_domain_error(workdir, capsys, text, message):
    state = workdir / "state.json"
    state.write_text(text)
    for command in (["query", "--state", str(state), "cat do?"], ["state", "show", "--state", str(state)]):
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name", sorted(_BAD_STATES))
def test_malformed_state_is_a_one_line_domain_error(workdir, capsys, name):
    state = _encoded_state(workdir)
    data = json.loads(state.read_text())
    message = _BAD_STATES[name](data)
    state.write_text(json.dumps(data))
    capsys.readouterr()
    for command in (["query", "--state", str(state), "cat do?"], ["state", "show", "--state", str(state)]):
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _bare_cli(calls: str, *args, modules=("dataclasses", "inspect")) -> list[str]:
    """Standard output of a fresh `python -S` that runs `calls` to the CLI's
    `main`, then prints which of `modules` it loaded. `-S` leaves out what
    site-packages' path hooks import, so only nba's own imports count."""
    code = (
        "import sys\n"
        "from nba.cli import main\n"
        f"{calls}"
        f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    import nba

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nba.__file__)))
    result = subprocess.run([sys.executable, "-S", "-c", code, *map(str, args)],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_query_path_loads_neither_dataclasses_nor_inspect(workdir):
    out = _bare_cli(
        "assert main(['query', '--state', sys.argv[1], 'cat do?']) == 0\n"
        "assert main(['state', 'show', '--state', sys.argv[1]]) == 0\n",
        _encoded_state(workdir),
    )
    assert out[0] == "runs"
    assert out[-1] == "[]"


def test_encode_path_loads_neither_dataclasses_nor_inspect(workdir):
    out = _bare_cli(
        "assert main(['encode', '--lexicon', sys.argv[1], '--relations', sys.argv[2],\n"
        "             '--sentence', sys.argv[3], '--state', sys.argv[4]]) == 0\n",
        *(workdir / name for name in ("lex.tsv", "rel.tsv", "s.conllu", "state.json")),
    )
    assert out[-1] == "[]"
    assert (workdir / "state.json").exists()


def test_trace_demo_and_lexicon_check_load_neither_dataclasses_nor_inspect(workdir):
    """With `query`, `state show` and `encode` above, every command is checked."""
    out = _bare_cli(
        "assert main(['trace', '--lexicon', sys.argv[1], '--sentence', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "assert main(['demo', 'fig1d']) == 0\n"
        "assert main(['lexicon', 'check', '--lexicon', sys.argv[1]]) == 0\n",
        *(workdir / name for name in ("lex.tsv", "s.conllu", "trace.csv")),
    )
    assert "demo fig1d: PASS" in out
    assert out[-1] == "[]"
    assert (workdir / "trace.csv").read_text().startswith("step,activity\n")


# operands and options a `query` argv may hold, the plain shapes among them
_ARGV_TOKENS = st.sampled_from(["--state", "--sta", "--state=s.json", "-s", "s.json", "cat do?", "? do runs",
                                "-h", "--help", "--", "-", "", " ", "-x", "-1", " -x", "query", "a b"])
_ARGV_VALUES = _ARGV_TOKENS | st.text(max_size=6)


@given(rest=st.one_of(
    st.lists(_ARGV_VALUES, max_size=5),
    st.tuples(_ARGV_VALUES, _ARGV_VALUES).map(lambda v: ["--state", v[0], v[1]]),
    st.tuples(_ARGV_VALUES, _ARGV_VALUES).map(lambda v: [v[0], "--state", v[1]]),
))
@settings(max_examples=300, deadline=None)
def test_main_reads_a_query_argv_as_the_parser_does(rest):
    """`main` either hands a `query` argv to the parser, or reads from it
    the state and the text that the parser reads, with no help or error."""
    from nba.cli import plain_query
    from nba.commands import _build_parser

    argv = ["query", *rest]
    plain = plain_query(argv)
    if plain is not None:
        args = _build_parser(None).parse_args(argv)
        assert (args.command, args.state, args.query) == ("query", *plain)


def test_plain_query_reads_both_orders_and_nothing_else():
    from nba.cli import plain_query

    assert plain_query(["query", "--state", "s.json", "cat do?"]) == plain_query(["query", "cat do?", "--state", "s.json"])
    for argv in (["query", "--state=s.json", "cat do?"], ["query", "--sta", "s.json", "cat do?"],
                 ["query", "--state", "s.json", "-x"], ["query", "--state", "", "cat do?"],
                 ["query", "--", "--state", "s.json"], ["query", "--state", "s.json"], ["state", "--state", "s", "x"]):
        assert plain_query(argv) is None, argv


def test_query_argvs_the_parser_reads_keep_their_exits(workdir, capsys):
    """Help, a missing or extra operand, and option spellings only the
    parser reads, such as an abbreviation, answer or fail as they did."""
    state = str(_encoded_state(workdir))
    capsys.readouterr()
    assert main(["query", "--help"]) == 0
    assert "--state" in capsys.readouterr().out
    for argv in (["query", "cat do?"], ["query", "--state", state], ["query", "--state", state, "cat do?", "x"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("usage error: "), argv
    for argv in (["query", f"--state={state}", "cat do?"], ["query", "--sta", state, "cat do?"],
                 ["query", "cat do?", "--state", state]):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == "runs\n", argv


@pytest.mark.parametrize("pycache", [False, True])
def test_cold_query_script_prints_one_median_per_phase(workdir, pycache):
    """`scripts/cold_query.py`, which the README documents, runs as a script."""
    state = _encoded_state(workdir)
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "cold_query.py")
    cache = workdir / "pycache"
    args = [sys.executable, script, str(state), "cat do?", "-n", "2"]
    args += ["--pycache", str(cache)] if pycache else []
    result = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    header, row = result.stdout.splitlines()
    assert header.split() == ["import", "argv", "json.loads", "from_snapshot", "query"]
    assert all(float(ms) >= 0.0 for ms in row.split()) and len(row.split()) == 5
    assert any(cache.rglob("*.pyc")) == pycache


def test_encode_split_script_prints_one_median_per_layer():
    """`scripts/encode_split.py`, which the README documents, runs as a script."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "encode_split.py")
    result = subprocess.run([sys.executable, script, "-n", "1"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()]
    assert header == ["layer", "us"]
    assert [row[0] for row in rows] == ["parse", "compile", "execute", "release_all", "bind"]
    assert all(len(row) == 2 and float(row[1]) > 0.0 for row in rows)


def test_probe_split_script_prints_one_median_per_layer():
    """`scripts/probe_split.py`, which the README documents, runs as a script."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "probe_split.py")
    result = subprocess.run([sys.executable, script, "-n", "1"], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    header, *rows = [line.split() for line in result.stdout.splitlines()]
    assert header == ["layer", "us"]
    assert [row[0] for row in rows] == ["parse_query", "save_state", "inject", "step", "restore_state",
                                        "per_step", "rest", "run_query"]
    assert all(len(row) == 2 for row in rows)
    assert all(float(row[1]) > 0.0 for row in rows if row[0] != "rest")  # a difference of two timings


def test_bench_pairs_marks_a_ratio_worse_than_its_bound():
    """`scripts/bench_pairs.py` marks a metric whose change/parent ratio is
    worse than its bound in its better direction, and only then."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [1.0, 1.0, 1.0]

    def cells(ratio, better, bound, parent=parent):
        line = bench_pairs.row("probe", "m", parent, [ratio] * 3, better, bound)
        return [cell.strip() for cell in line.strip("|").split("|")]

    assert cells(1.12, "lower", 0.1)[4:] == ["1.120 **over bound**", "0.1", "0/3"]
    assert cells(1.08, "lower", 0.1)[4:] == ["1.080", "0.1", "0/3"]
    assert cells(0.88, "lower", 0.1)[4:] == ["0.880", "0.1", "3/3"]
    assert cells(0.88, "higher", 0.1)[4] == "0.880 **over bound**"
    assert cells(1.5, "lower", None)[4:] == ["1.500", "", "0/3"]
    # medians no further apart than the parent's interquartile range are unresolved
    spread = [0.9, 1.0, 1.1]  # quartiles 0.95 / 1.0 / 1.05
    assert cells(1.0, "lower", 0.1)[4] == "1.000 within parent spread"
    assert cells(1.05, "lower", 0.1, spread)[4:] == ["1.050 within parent spread", "0.1", "1/3"]
    assert cells(0.95, "lower", 0.1, spread)[4:] == ["0.950 within parent spread", "0.1", "2/3"]
    assert cells(1.2, "lower", 0.1, spread)[4] == "1.200 **over bound**"
    assert cells(1.2, "lower", 0.25, [0.5, 1.0, 1.5])[4] == "1.200 within parent spread"


def test_bench_pairs_marks_a_gain_by_the_claim_rule():
    """`scripts/bench_pairs.py` marks a row `**gain**` when the change wins
    at least 9 pairs and 9 of every 10, a tie counting for neither side,
    and its median is better by more than the parent's interquartile range,
    and only then."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225 / 1.045 / 1.0675

    def cell(change, better="lower"):
        line = bench_pairs.row("ingest", "m", parent, change, better, 0.2)
        return [cell.strip() for cell in line.strip("|").split("|")][4]

    faster = [p - 0.1 for p in parent]
    assert cell(faster) == "0.904 **gain**"
    assert cell([p + 0.1 for p in parent], "higher") == "1.096 **gain**"
    assert cell(faster, "higher") == "0.904"  # 0/10 wins in the better direction
    assert cell(faster[:9] + [parent[9] + 0.1]) == "0.904 **gain**"  # 9/10 wins
    assert cell(faster[:8] + [parent[8] + 0.1, parent[9] + 0.1]) == "0.904"  # 8/10
    assert cell(faster[:9] + parent[9:]) == "0.904 **gain**"  # 9 wins and a tie
    assert cell(faster[:8] + parent[8:]) == "0.904"  # 8 wins and two ties
    # 10/10 wins, but the medians are no further apart than the parent's spread
    assert cell([p - 0.04 for p in parent]) == "0.962 within parent spread"
    # every pair won, but fewer than 9 pairs
    assert "gain" not in bench_pairs.row("ingest", "m", parent[:8], faster[:8], "lower", 0.2)


def test_size_script_prints_one_row_per_module_and_a_total():
    """`scripts/size.py`, which the README documents, runs as a script."""
    import nba

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "size.py")
    result = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    header, *rows = [line.rsplit(None, 4) for line in result.stdout.splitlines()]
    assert header == ["module", "lines", "code", "options", "compile_ms"]
    modules = sorted(name[:-3] for name in os.listdir(os.path.dirname(nba.__file__)) if name.endswith(".py"))
    assert [row[0] for row in rows] == modules + ["total", "query path"]
    *rows, total, query_path = rows
    for column in (1, 2, 3):
        assert sum(int(row[column]) for row in rows) == int(total[column])
        assert 0 <= int(query_path[column]) <= int(total[column])
    assert all(0 < int(code) < int(lines) for _, lines, code, _, _ in rows + [total, query_path])
    assert all(float(ms) > 0.0 for *_, ms in rows + [total, query_path])
    # the query path holds the engine, the board and the CLI's entry point, but no other command
    lines = {row[0]: int(row[1]) for row in rows}
    off_path = ("commands", "encoder", "trace", "demos", "oracle", "corpus")
    assert sum(lines[m] for m in ("cli", "dynamics", "blackboard", "query")) <= int(query_path[1])
    assert int(query_path[1]) <= int(total[1]) - sum(lines[m] for m in off_path)



def test_size_script_counts_the_defaulted_parameters_of_public_functions():
    """An option is a defaulted parameter of a public function or method, or
    of a public class's `__init__`; a private name or a function defined in
    a function adds none."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "size.py")
    spec = importlib.util.spec_from_file_location("size", path)
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    source = """
def f(a, b=1, *, c=2, d):
    def inner(x=0):
        pass

def _private(a=1):
    pass

class Public:
    def __init__(self, a=1, b=2):
        pass

    def method(self, *, a=1):
        pass

    def _helper(self, a=1):
        pass

class _Private:
    def __init__(self, a=1):
        pass

    def method(self, a=1):
        pass
"""
    assert size.options(source) == 2 + 2 + 1 + 1  # f, Public.__init__, Public.method, _Private.method
    assert size.options("") == 0


# a replayed bind that fails names its binding record
_BAD_BINDS = {
    "unknown-word": _edit_binding("word", "zzz", ": unknown word 'zzz'"),
    "word-of-another-type": _edit_binding("word", "runs", ": 'runs' has type V, cannot bind hub N0"),
}


@pytest.mark.parametrize("name", sorted(_BAD_BINDS))
def test_failing_replayed_bind_is_a_located_one_line_error(workdir, capsys, name):
    state = _encoded_state(workdir)
    data = json.loads(state.read_text())
    message = _BAD_BINDS[name](data)
    state.write_text(json.dumps(data))
    capsys.readouterr()
    for command in (["query", "--state", str(state), "cat do?"], ["state", "show", "--state", str(state)]):
        assert main(command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _nodes(data, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, data
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


# stand-ins for a value: another type, a number out of range, or an unknown name
_REPLACEMENTS = (None, True, 2.5, -1, 0, 1.5, 7, "x", "", "zzz", "Z9", "prep:zzz", [], ["zzz"], {}, {"k": 1})


@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_state_file_exits_0_or_2_with_one_line(tmp_path_factory, capsys, data):
    """Drop a key or replace any value of a valid state, config included:
    `query` and `state show` answer or fail with one `error:` line."""
    workdir = tmp_path_factory.mktemp("state")
    (workdir / "lex.tsv").write_text(LEXICON)
    (workdir / "rel.tsv").write_text(RELATIONS)
    (workdir / "s.conllu").write_text(CAT_RUNS)
    state = _encoded_state(workdir)
    snapshot = json.loads(state.read_text())
    path, _ = data.draw(st.sampled_from(list(_nodes(snapshot))[1:]))
    *parents, last = path
    target = snapshot
    for key in parents:
        target = target[key]
    if data.draw(st.booleans()):
        del target[last]
    else:
        target[last] = data.draw(st.sampled_from(_REPLACEMENTS))
    state.write_text(json.dumps(snapshot))
    capsys.readouterr()
    for command in (["query", "--state", str(state), "cat do?"], ["state", "show", "--state", str(state)]):
        rc = main(command)
        err = capsys.readouterr().err
        assert (rc, err) == (0, "") or (rc == 2 and err.startswith("error: ") and err.count("\n") == 1), (
            path, rc, err)


# stand-ins for an unknown config key
_UNKNOWN_KEYS = ("k_nn", "K_N", "relation", "", "format")


@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_encode_config_exits_0_or_2_with_one_line(tmp_path_factory, capsys, data):
    """Drop a key or an item of a valid `nba encode --config` file, give one
    another type or an out-of-range value, or add an unknown key: `encode`
    succeeds or fails with one `error:` line."""
    workdir = tmp_path_factory.mktemp("config")
    (workdir / "lex.tsv").write_text(LEXICON)
    (workdir / "two.conllu").write_text(TWO_SENTENCES)
    config = Config().to_dict()
    mutation = data.draw(st.sampled_from(("drop", "replace", "add")))
    if mutation == "add":
        config[data.draw(st.sampled_from(_UNKNOWN_KEYS))] = data.draw(st.sampled_from(_REPLACEMENTS))
    else:
        path, _ = data.draw(st.sampled_from(list(_nodes(config))[1:]))
        *parents, last = path
        target = config
        for key in parents:
            target = target[key]
        if mutation == "drop":
            del target[last]
        else:
            target[last] = data.draw(st.sampled_from(_REPLACEMENTS))
    (workdir / "cfg.json").write_text(json.dumps(config))
    capsys.readouterr()
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(workdir / "cfg.json"),
               "--sentence", str(workdir / "two.conllu"), "--state", str(workdir / "state.json")])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "") or (rc == 2 and err.startswith("error: ") and err.count("\n") == 1), (
        config, rc, err)
    assert "Traceback" not in out + err
