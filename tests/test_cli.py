"""CLI: subcommands, exit codes, file round-trips, the repl loop."""

import io
import json

import pytest

from nba.cli import main, run_repl

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


def test_query_unknown_relation_is_domain_error(workdir, capsys):
    state = workdir / "state.json"
    main(["encode", "--lexicon", str(workdir / "lex.tsv"),
          "--sentence", str(workdir / "s.conllu"), "--state", str(state)])
    capsys.readouterr()
    assert main(["query", "--state", str(state), "cat blorps?"]) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "reporter", "nelson"])
def test_demo_commands_pass(name, capsys):
    assert main(["demo", name]) == 0
    assert "PASS" in capsys.readouterr().out


def test_demo_all(capsys):
    assert main(["demo", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8


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


def test_pool_exhaustion_names_sentence_token_and_occupancy(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"k_n": 1, "k_v": 2, "k_c": 1}))
    rc = main(["encode", "--lexicon", str(workdir / "lex.tsv"), "--config", str(cfg),
               "--sentence", str(workdir / "two.conllu"), "--state", str(workdir / "state.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: sentence 2, token 'dog': no free hub in pool N (1/1 in use)" in err
    assert not (workdir / "state.json").exists()
