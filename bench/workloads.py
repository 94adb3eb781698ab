"""The benchmark's workloads and the traced pass over every layer.

All workloads are closed loops with one client: one process, no threads, and
each operation starts when the previous one has finished. Every answer is
compared with `OracleStore` outside the timer; each comparison is one check
in `Run`, and a failed check (a disagreement, an exception, a non-zero exit
or a state change a query must not make) counts into the error rate.

Spans are recorded only when a `Tracer` is passed; untraced runs time whole
operations and nothing else.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager

from nba import Blackboard, Config, Lexicon, compile, execute, iter_conllu, parse_query, run_query
from nba.query import EPISODIC, FORWARD, REVERSE, SEMANTIC, Query

from calibrate import Pace
from gen import Inputs, family, oracle_for, pool_config, query_text

clock = time.perf_counter

CLI_TIMEOUT_S = 120
IMPORT_PROBE = "import time; t = time.perf_counter(); import nba.cli; print(time.perf_counter() - t)"


class Run:
    """Samples and checks of one measured loop, and the reference
    repetitions taken alongside it."""

    def __init__(self, pace: Pace | None = None):
        self.pace = pace or Pace()
        self.timed: list[tuple[float, float]] = []  # (clock() at end, seconds) per operation
        self.shared: list[tuple[float, float]] = []  # the same for timed work no one operation owns
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def absorb_checks(self, other: "Run") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 10 - len(self.failures)]


# ------------------------------------------------------------------ helpers

def build_board(inp: Inputs, tr=None) -> Blackboard:
    """Lexicon and relations from TSV, then the fixed structure."""
    with _span(tr, "lexicon.from_tsv_ms"):
        lex = Lexicon.from_tsv(inp.lexicon_tsv)
    with _span(tr, "lexicon.load_relations_ms"):
        lex.load_relations(inp.relations_tsv)
    config = Config.from_json(inp.config_json)
    with _span(tr, "blackboard.construct_ms"):
        bb = Blackboard(lex, config)
    if tr is not None:
        tr.sample("blackboard.populations", bb.network.population_count())
        tr.sample("blackboard.connections", bb.network.connection_count())
    return bb


@contextmanager
def _span(tr, name):
    if tr is None:
        yield None
    else:
        with tr.span(name) as record:
            yield record


@contextmanager
def traced_steps(net, tr):
    """Time and count every `Network.step` through an instance wrapper."""
    if tr is None:
        yield
        return
    step = net.step

    def traced_step():
        tr.sample("dynamics.active_pids", len(net.active_pids()))
        with tr.span("dynamics.step_us"):
            step()

    net.step = traced_step
    try:
        yield
    finally:
        del net.step


def encode(bb: Blackboard, doc: str, tr=None) -> list[float]:
    """Encode each sentence of a CoNLL-U document; seconds per sentence, each
    covering its parse, compile and execute."""
    lex, config = bb.lexicon, bb.config
    strict_words = not config.auto_add_words
    times = []
    sentences = iter_conllu(doc)
    if tr is None:
        start = clock()
        for tokens, arcs in sentences:
            execute(compile(tokens, arcs, lexicon=lex, strict_labels=config.strict_labels,
                            strict_words=strict_words), bb)
            end = clock()
            times.append(end - start)
            start = end
        return times
    while True:
        start = clock()
        tr.op += 1
        with tr.span("encoder.parse_us"):
            item = next(sentences, None)
        if item is None:
            tr.spans.pop()  # the end-of-document probe parses no sentence
            return times
        with tr.span("encoder.compile_us"):
            program = compile(*item, lexicon=lex, strict_labels=config.strict_labels,
                              strict_words=strict_words)
        with tr.span("encoder.execute_us"):
            report = execute(program, bb)
        times.append(clock() - start)
        tr.sample("encoder.instructions_per_sentence", len(program.instructions))
        tr.sample("encoder.bindings_per_sentence", len(report.bindings))


def ask(bb: Blackboard, text: str, tr=None):
    if tr is None:
        return run_query(bb, parse_query(text))
    tr.op += 1
    with tr.span("query.parse_us"):
        query = parse_query(text)
    fam = "sem" if query.mode == SEMANTIC else family(query.relation)
    direction = "fwd" if query.direction == FORWARD else "rev"
    with tr.span(f"query.run_us.{fam}.{direction}"):
        answer = run_query(bb, query)
    tr.sample("query.hit_ratio", 1.0 if answer else 0.0)
    tr.sample("query.answers_per_query", len(answer))
    return answer


def fact_queries(oracle, mode: str):
    """A forward query from each fact's subject and a reverse one from its
    object, each with the oracle's answer (cue excluded, as `run_query`
    never reads out its own cue)."""
    out = []
    for m, s, r, o in oracle.triples():
        if m != mode:
            continue
        for cue, direction in ((s, FORWARD), (o, REVERSE)):
            out.append(_planned(oracle, Query(cue, r, direction, mode)))
    return out


def _planned(oracle, query: Query):
    text = query_text(query.cue, query.relation, query.direction == FORWARD, query.mode == SEMANTIC)
    return text, oracle.query(query).word_set() - {query.cue}


def verify(bb: Blackboard, planned, run: Run, tr=None) -> None:
    for text, expected in planned:
        try:
            got = ask(bb, text, tr).word_set()
        except Exception as exc:  # a benchmark boundary: count it and go on
            run.check(False, f"{text!r} raised {exc!r}")
            continue
        run.check(got == expected, f"{text!r}: got {sorted(got)}, oracle {sorted(expected)}")


# ---------------------------------------------------------------- workloads

class Ingest:
    """4-sentence batches encoded, verified, then released."""

    name = "ingest"
    op = "sentence"
    reference = "cpu"
    warmup_s = 0.5
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed: int, out_dir: str):
        self.inp = Inputs(seed, words_per_class=1000)
        self.params = {"words": 3000, "batch_sentences": 4, **pool_config()}

    def setup(self, tr=None):
        self.bb = build_board(self.inp, tr)

    def loop(self, run: Run, seconds: float, tr=None) -> None:
        bb = self.bb
        deadline = clock() + seconds
        with traced_steps(bb.network, tr):
            while clock() < deadline:
                doc, triples = self.inp.batch()
                try:
                    times = encode(bb, doc, tr)
                except Exception as exc:  # a benchmark boundary: count it and go on
                    run.check(False, f"encode raised {exc!r}")
                else:
                    end = clock()
                    run.timed += [(end, seconds) for seconds in times]
                    run.attempted += len(times)
                    verify(bb, fact_queries(oracle_for(triples), EPISODIC), run, tr)
                start = clock()
                with _span(tr, "blackboard.release_all_us"):
                    bb.release_all()
                end = clock()
                run.shared.append((end, end - start))
                run.check(not bb.network.active_pids(), "active populations left after release_all")
                run.pace.tick()

    def pass_corpus(self):
        return self.inp.batch()


class Probe:
    """Queries against a 4-sentence board that stays fixed while they run:
    70% episodic hits, 10% semantic hits, 20% misses over every relation
    family. After `per_board` queries the board is released and the next four
    sentences are encoded outside the timer, so one run averages over many
    boards rather than resting on one seed's four sentences."""

    name = "probe"
    op = "query"
    reference = "cpu"
    warmup_s = 0.5
    rusage = resource.RUSAGE_SELF
    per_board = 512

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.inp = Inputs(seed, words_per_class=1000)
        self.relations = Config.from_json(self.inp.config_json).relation_names()
        self.labels = sorted({label for _, label, _ in self.inp.semantic})
        self.boards = []  # (doc, triples), generated in order, so the same for every set-up
        self.params = {"words": 3000, "board_sentences": 4, "queries_per_board": self.per_board,
                       "query_mix": "70% episodic hits, 10% semantic hits, 20% misses", **pool_config()}

    def setup(self, tr=None):
        self.bb = build_board(self.inp, tr)
        self.board = -1
        with traced_steps(self.bb.network, tr):
            self.next_board(tr)

    def next_board(self, tr=None):
        """Release the board and encode the next four sentences; plan their queries."""
        self.board += 1
        if self.board == len(self.boards):
            self.boards.append(self.inp.batch())
        doc, triples = self.boards[self.board]
        self.bb.release_all()
        encode(self.bb, doc, tr)
        oracle = oracle_for(triples, self.inp.semantic)
        episodic = fact_queries(oracle, EPISODIC)
        semantic = fact_queries(oracle, SEMANTIC)
        words = sorted({w for s, _, o in triples for w in (s, o)})
        rng = random.Random(f"probe:{self.seed}:{self.board}")
        self.queries = []
        while len(self.queries) < self.per_board:
            r = rng.random()
            if r < 0.7:
                self.queries.append(rng.choice(episodic))
            elif r < 0.8:
                self.queries.append(rng.choice(semantic))
            else:
                self.queries.append(_miss(rng, oracle, words, self.relations, self.labels))
        self.asked = 0

    def loop(self, run: Run, seconds: float, tr=None) -> None:
        bb = self.bb

        def state():
            return bb.snapshot_bytes(), bb.network.time

        before = state()
        deadline = clock() + seconds
        with traced_steps(bb.network, tr):
            while clock() < deadline:
                if self.asked == len(self.queries):
                    run.check(state() == before, f"queries changed board {self.board}")
                    self.next_board(tr)
                    before = state()
                text, expected = self.queries[self.asked]
                self.asked += 1
                start = clock()
                try:
                    got = ask(bb, text, tr)
                except Exception as exc:  # a benchmark boundary: count it and go on
                    run.check(False, f"{text!r} raised {exc!r}")
                    continue
                end = clock()
                run.timed.append((end, end - start))
                got = got.word_set()
                run.check(got == expected, f"{text!r}: got {sorted(got)}, oracle {sorted(expected)}")
                run.pace.tick()
        run.check(state() == before, f"queries changed board {self.board}")

    def pass_corpus(self):
        return self.boards[0]


def _miss(rng, oracle, words, relations, labels):
    """A query on a board word whose oracle answer is empty."""
    while True:
        cue = rng.choice(words)
        direction = rng.choice((FORWARD, REVERSE))
        if rng.random() < 0.1:
            query = Query(cue, rng.choice(labels), direction, SEMANTIC)
        else:
            query = Query(cue, rng.choice(relations), direction, EPISODIC)
        planned = _planned(oracle, query)
        if not planned[1]:
            return planned


class ColdCli:
    """`nba encode` once per set-up, then one `nba query` process per operation."""

    name = "cold-cli"
    op = "nba query process"
    reference = "alloc"
    warmup_s = 0.0  # the set-up's `nba encode` runs already warm the interpreter and page cache
    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, out_dir: str):
        self.inp = Inputs(seed, words_per_class=2000)
        self.doc, self.triples = self.inp.batch()
        oracle = oracle_for(self.triples, self.inp.semantic)
        episodic = fact_queries(oracle, EPISODIC)
        semantic = fact_queries(oracle, SEMANTIC)
        rng = random.Random(f"cold-cli:{seed}")
        forward = [q for q in episodic if not q[0].startswith("?")]
        reverse = [q for q in episodic if q[0].startswith("?")]
        # forward, reverse and sem: in turn
        self.queries = [rng.choice(kind) for _ in range(10) for kind in (forward, reverse, semantic)]
        self.cursor = 0
        self.dir = os.path.join(out_dir, f"cold-cli-{seed}")
        self.files = {k: os.path.join(self.dir, f) for k, f in (
            ("lexicon", "lexicon.tsv"), ("relations", "relations.tsv"),
            ("sentence", "corpus.conllu"), ("config", "config.json"), ("state", "state.json"))}
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.setup_checks = Run()
        self.params = {"words": 6000, "semantic_triples": len(self.inp.semantic),
                       "corpus_sentences": 4, **pool_config()}

    def setup(self, tr=None):
        os.makedirs(self.dir, exist_ok=True)
        for key, text in (("lexicon", self.inp.lexicon_tsv), ("relations", self.inp.relations_tsv),
                          ("sentence", self.doc), ("config", self.inp.config_json)):
            with open(self.files[key], "w", encoding="utf-8") as f:
                f.write(text)
        args = ["encode"] + [a for k in ("lexicon", "relations", "sentence", "config", "state")
                             for a in (f"--{k}", self.files[k])]
        with _span(tr, "cli.encode"):
            result = self.nba(args)
        self.setup_checks.check(
            result.returncode == 0 and result.stdout.startswith("encoded 4 sentence(s)"),
            f"nba encode exited {result.returncode}: {result.stdout.strip()} {result.stderr.strip()}",
        )

    def nba(self, args):
        return subprocess.run([sys.executable, "-m", "nba.cli", *args], capture_output=True,
                              text=True, env=self.env, timeout=CLI_TIMEOUT_S)

    def loop(self, run: Run, seconds: float, tr=None) -> None:
        run.absorb_checks(self.setup_checks)
        self.setup_checks = Run()
        i = self.cursor
        deadline = clock() + seconds
        while clock() < deadline:
            text, expected = self.queries[i % len(self.queries)]
            i += 1
            start = clock()
            with _span(tr, "cli.query"):
                result = self.nba(["query", "--state", self.files["state"], text])
            end = clock()
            run.timed.append((end, end - start))
            lines = result.stdout.split()
            run.check(
                result.returncode == 0 and len(lines) == len(set(lines)) and set(lines) == expected,
                f"nba query {text!r} exited {result.returncode}: {lines}, oracle {sorted(expected)}",
            )
            run.pace.now(2)
        self.cursor = i

    def pass_corpus(self):
        return self.doc, self.triples


WORKLOADS = {w.name: w for w in (Ingest, Probe, ColdCli)}


# ------------------------------------------------------------- layer pass

def layer_pass(inp: Inputs, doc: str, triples, run: Run, tr) -> None:
    """One traced call into each layer's public functions on a workload's own
    inputs, for the per-layer metrics its operations do not reach."""
    bb = build_board(inp, tr)
    with traced_steps(bb.network, tr):
        encode(bb, doc, tr)
        oracle = oracle_for(triples, inp.semantic)
        # every episodic fact and 24 of the semantic ones, both directions
        verify(bb, fact_queries(oracle, EPISODIC) + fact_queries(oracle, SEMANTIC)[:48], run, tr)
    with tr.span("blackboard.to_snapshot_ms"):
        snapshot = bb.to_snapshot()
    tr.sample("blackboard.snapshot_bytes", len(bb.snapshot_bytes()))
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"  # as `nba encode` writes it
    with tr.span("blackboard.release_all_us"):
        bb.release_all()
    del bb, snapshot
    with tr.span("cli.json_load_ms"):
        data = json.loads(text)
    with tr.span("blackboard.from_snapshot_ms"):
        restored = Blackboard.from_snapshot(data)
    run.check(len(restored.active_bindings()) == len(data["bindings"]), "restored board lost bindings")
    del restored, data
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for _ in range(3):
        with tr.span("cli.interpreter_ms"):
            result = subprocess.run([sys.executable, "-c", "pass"], timeout=CLI_TIMEOUT_S)
        run.check(result.returncode == 0, "python -c pass failed")
        result = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                                env=env, timeout=CLI_TIMEOUT_S)
        run.check(result.returncode == 0, f"import nba.cli failed: {result.stderr.strip()}")
        if result.returncode == 0:
            tr.sample("cli.import_ms", float(result.stdout))
