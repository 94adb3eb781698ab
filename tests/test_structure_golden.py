"""Golden equivalence data for the fixed structure.

The files under `tests/data/` were recorded from the engine that built every
word-hub working-memory population eagerly. Population ids, per-step
activations, snapshot bytes and trace CSVs must reproduce them exactly
however the structure is stored. To re-record (only when a change is meant
to alter trajectories):

    PYTHONPATH=src python tests/test_structure_golden.py

No case sets `wm_decay_horizon`: its liveness rules are still open.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

from nba import Blackboard, Config, compile, execute, run_query
from nba.cli import main
from nba.corpus import build_lexicon, make_word_lists, random_tree_sentence
from nba.lexicon import WordType
from nba.query import EPISODIC, FORWARD, REVERSE, Query

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

# name -> (config overrides, sentences per board, max adjectives per noun,
# seeds); each board fits its pools, so no case can raise PoolExhausted
CASES = {
    "default": ({}, 1, 1, (1, 2)),
    "bench_pools": ({"k_n": 40, "k_v": 12, "k_c": 8}, 4, 2, (1,)),
}
RUNS = [(case, seed) for case in sorted(CASES) for seed in CASES[case][3]]
BOARDS = 2
PREPS = ("of", "in", "on")
UPOS = {WordType.NOUN: "NOUN", WordType.VERB: "VERB", WordType.ADJECTIVE: "ADJ", WordType.PREPOSITION: "ADP"}


def _words():
    return make_word_lists(24, 12, 12)


def _partial_lexicon():
    """Two thirds of each word list; the rest is added while encoding, so
    word wiring is also extended after construction."""
    nouns, verbs, adjs = _words()
    return build_lexicon(nouns[:16], verbs[:8], adjs[:8])


def trajectory(case: str, seed: int) -> dict:
    """Every step's active (pid, activation) pairs while encoding boards of
    tree sentences, querying each fact forward and in reverse, and
    releasing the board."""
    overrides, per_board, max_adjs, _ = CASES[case]
    bb = Blackboard(_partial_lexicon(), Config(**overrides))
    net = bb.network
    steps, answers = _record_steps(net), []
    rng = random.Random(f"golden:{case}:{seed}")
    nouns, verbs, adjs = _words()
    for _ in range(BOARDS):
        facts = set()
        for _ in range(per_board):
            tokens, arcs, triples = random_tree_sentence(
                rng, nouns, verbs, adjs, preps=PREPS, max_adjectives=max_adjs
            )
            execute(compile(tokens, arcs), bb)
            facts.update(triples)
        for subject, relation, obj in sorted(facts):
            for cue, direction in ((subject, FORWARD), (obj, REVERSE)):
                answer = run_query(bb, Query(cue, relation, direction, EPISODIC))
                answers.append([cue, relation, direction, list(answer.words)])
        bb.release_all()
        steps.append("release_all")
    return {
        "steps": steps,
        "answers": answers,
        "populations": net.population_count(),
        "connections": net.connection_count(),
        "gated_links": bb.connection_count(),
    }


def zero_threshold_trajectory() -> dict:
    """With a zero sustain threshold every working memory is sustained at
    rest, so every word-hub edge conducts before anything is bound (and no
    matrix cell can be bound). Cue each word, then add one and cue it."""
    bb = Blackboard(_partial_lexicon(), Config(k_n=3, k_v=2, k_c=1, sustain_threshold=0.0))
    net = bb.network
    steps, answers = _record_steps(net), []
    bb.bind_concept("n000", bb.allocate_hub("N"))
    bb.add_word("n900", WordType.NOUN)
    for cue in bb.lexicon.words():
        for direction in (FORWARD, REVERSE):
            answer = run_query(bb, Query(cue, "agent", direction, EPISODIC))
            answers.append([cue, direction, list(answer.words)])
    return {"steps": steps, "answers": answers, "populations": net.population_count(),
            "connections": net.connection_count(), "gated_links": bb.connection_count()}


def _record_steps(net) -> list:
    """Append the active (pid, activation) pairs to the returned list after
    every step of `net`."""
    steps = []
    step = net.step

    def recorded_step():
        step()
        steps.append([[pid, net.activation(pid)] for pid in net.active_pids()])

    net.step = recorded_step
    return steps


def _conllu(tokens, arcs) -> str:
    head = {a.dependent: a for a in arcs}
    rows = [
        f"{t.index}\t{t.surface}\t_\t{UPOS[t.word_type]}\t_\t_\t{head[t.index].head}\t{head[t.index].label}\t_\t_"
        for t in tokens
    ]
    return "\n".join(rows) + "\n\n"


def encode_inputs(workdir: Path) -> list[str]:
    """Write lexicon, relations, corpus and config files; return `nba encode` argv."""
    nouns, verbs, adjs = _words()
    lexicon = [f"{w}\tN" for w in nouns[:16]] + [f"{w}\tV" for w in verbs[:8]] + [f"{w}\tADJ" for w in adjs[:8]]
    relations = [f"{nouns[i]}\tisa\t{nouns[i + 1]}" for i in range(0, 12, 2)]
    rng = random.Random("golden:encode")
    corpus = "".join(
        _conllu(*random_tree_sentence(rng, nouns, verbs, adjs, preps=PREPS)[:2]) for _ in range(4)
    )
    files = {
        "lexicon": ("lexicon.tsv", "\n".join(lexicon) + "\n"),
        "relations": ("relations.tsv", "\n".join(relations) + "\n"),
        "sentence": ("corpus.conllu", corpus),
        "config": ("config.json", json.dumps(CASES["bench_pools"][0])),
    }
    argv = ["encode"]
    for key, (name, text) in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
        argv += [f"--{key}", str(workdir / name)]
    return argv + ["--state", str(workdir / "state.json")]


def trace_phrases() -> dict:
    spec = importlib.util.spec_from_file_location("trace_phrases", ROOT / "scripts" / "trace_phrases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PHRASES


def trace_csv(workdir: Path, name: str, text: str) -> bytes:
    """`nba trace` on one phrase over an empty lexicon (every word auto-added)."""
    (workdir / "empty.tsv").write_text("", encoding="utf-8")
    (workdir / f"{name}.conllu").write_text(text, encoding="utf-8")
    out = workdir / f"{name}.csv"
    rc = main(["trace", "--lexicon", str(workdir / "empty.tsv"),
               "--sentence", str(workdir / f"{name}.conllu"), "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("case,seed", RUNS)
def test_trajectory_matches_golden(case, seed):
    golden = json.loads((DATA / f"trajectory_{case}_{seed}.json").read_text(encoding="utf-8"))
    got = json.loads(json.dumps(trajectory(case, seed)))
    for key in ("populations", "connections", "gated_links", "answers"):
        assert got[key] == golden[key], key
    assert len(got["steps"]) == len(golden["steps"])
    for i, (g, want) in enumerate(zip(got["steps"], golden["steps"])):
        assert g == want, f"step {i}"


def test_zero_threshold_trajectory_matches_golden():
    golden = json.loads((DATA / "trajectory_zero_threshold.json").read_text(encoding="utf-8"))
    assert json.loads(json.dumps(zero_threshold_trajectory())) == golden


def test_encode_snapshot_bytes_match_golden(tmp_path, capsys):
    assert main(encode_inputs(tmp_path)) == 0
    assert (tmp_path / "state.json").read_bytes() == (DATA / "encode_state.json").read_bytes()
    capsys.readouterr()
    assert main(["state", "show", "--state", str(tmp_path / "state.json")]) == 0
    assert capsys.readouterr().out == (DATA / "encode_state_show.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(trace_phrases()))
def test_trace_csv_matches_golden(tmp_path, name):
    got = trace_csv(tmp_path, name, trace_phrases()[name])
    assert got == (DATA / f"trace_{name}.csv").read_bytes()


# ------------------------------------------------------------- recording

def record() -> None:
    import contextlib
    import io
    import tempfile

    DATA.mkdir(exist_ok=True)
    for case, seed in RUNS:
        path = DATA / f"trajectory_{case}_{seed}.json"
        path.write_text(json.dumps(trajectory(case, seed), separators=(",", ":")) + "\n", encoding="utf-8")
    path = DATA / "trajectory_zero_threshold.json"
    path.write_text(json.dumps(zero_threshold_trajectory(), separators=(",", ":")) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(encode_inputs(workdir)) == 0
        (DATA / "encode_state.json").write_bytes((workdir / "state.json").read_bytes())
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown):
            assert main(["state", "show", "--state", str(workdir / "state.json")]) == 0
        (DATA / "encode_state_show.txt").write_text(shown.getvalue(), encoding="utf-8")
        for name, text in trace_phrases().items():
            with contextlib.redirect_stdout(io.StringIO()):
                (DATA / f"trace_{name}.csv").write_bytes(trace_csv(workdir, name, text))


if __name__ == "__main__":
    record()
