"""Tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from nba import Blackboard, Config, Lexicon, compile, iter_conllu  # noqa: E402
from nba.encoder import Allocate  # noqa: E402
from nba.query import EPISODIC  # noqa: E402

import gen  # noqa: E402
import spec  # noqa: E402
from calibrate import NOMINAL_S, Pace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Run, encode, fact_queries, verify  # noqa: E402


def small_board(inp):
    lex = Lexicon.from_tsv(inp.lexicon_tsv)
    lex.load_relations(inp.relations_tsv)
    return Blackboard(lex, Config.from_json(inp.config_json))


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        a, b, c = gen.Inputs(7, 50), gen.Inputs(7, 50), gen.Inputs(8, 50)
        for field in ("lexicon_tsv", "relations_tsv", "config_json"):
            self.assertEqual(getattr(a, field), getattr(b, field))
        self.assertEqual([a.batch() for _ in range(5)], [b.batch() for _ in range(5)])
        self.assertNotEqual(a.relations_tsv, c.relations_tsv)
        self.assertNotEqual(a.batch(), c.batch())

    def test_conllu_round_trips_through_iter_conllu(self):
        inp = gen.Inputs(3, 50)
        sentences = [inp.sentence() for _ in range(20)]
        doc = "".join(gen.to_conllu(tokens, arcs) for tokens, arcs, _ in sentences)
        self.assertEqual(list(iter_conllu(doc)), [(tokens, arcs) for tokens, arcs, _ in sentences])

    def test_pool_bound_holds_across_seeds(self):
        bound = gen.sentence_hub_bound()
        seen = {"N": 0, "V": 0, "C": 0}
        for seed in range(200):
            inp = gen.Inputs(seed, 20, n_semantic=10)
            for _ in range(10):
                tokens, arcs, _ = inp.sentence()
                used = {"N": 0, "V": 0, "C": 0}
                for instr in compile(tokens, arcs).instructions:
                    if isinstance(instr, Allocate):
                        used[instr.kind] += 1
                for pool, n in used.items():
                    self.assertLessEqual(n, bound[pool], (seed, pool))
                    seen[pool] = max(seen[pool], n)
        self.assertEqual(seen["V"], bound["V"])
        self.assertEqual(seen["C"], bound["C"])

    def test_worst_case_batches_fit_the_pools(self):
        for seed in range(20):
            inp = gen.Inputs(seed, 30, n_semantic=10)
            bb = small_board(inp)
            for _ in range(5):
                doc, _ = inp.batch()
                self.assertEqual(len(encode(bb, doc)), gen.SENTENCES_PER_BATCH)
                bb.release_all()


class CheckerTest(unittest.TestCase):
    def test_checker_catches_a_planted_wrong_answer(self):
        inp = gen.Inputs(5, 50)
        bb = small_board(inp)
        doc, triples = inp.batch()
        encode(bb, doc)
        planned = fact_queries(gen.oracle_for(triples), EPISODIC)
        clean = Run()
        verify(bb, planned, clean)
        self.assertEqual((clean.attempted, clean.failed), (len(planned), 0))

        text, expected = planned[0]
        planted = [(text, expected | {"n049x"})] + planned[1:]
        caught = Run()
        verify(bb, planted, caught)
        self.assertEqual(caught.failed, 1)
        self.assertIn(text, caught.failures[0])

    def test_checker_counts_an_exception_as_a_failure(self):
        inp = gen.Inputs(5, 50)
        bb = small_board(inp)
        run = Run()
        verify(bb, [("nosuchword agent?", frozenset())], run)
        self.assertEqual((run.attempted, run.failed), (1, 1))


class SpansTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        with tr.span("query.run_us.agent.fwd"):
            with tr.span("dynamics.step_us"):
                pass
            with tr.span("dynamics.step_us"):
                pass
        outer, first, second = tr.spans
        self.assertEqual((first[3], second[3]), (0, 0))
        layers = tr.self_seconds()
        child = (first[2] - first[1]) + (second[2] - second[1])
        self.assertAlmostEqual(layers["query"], outer[2] - outer[1] - child)
        self.assertAlmostEqual(layers["dynamics"], child)
        self.assertEqual(tr.child_counts("query.run_us.", "dynamics.step_us"), [2])


class PaceTest(unittest.TestCase):
    def test_each_time_is_scaled_by_the_repetitions_nearest_it(self):
        pace = Pace(kind="cpu")
        nominal = NOMINAL_S["cpu"]
        pace.times = [float(t) for t in range(20)]
        pace.samples = [nominal] * 10 + [2 * nominal] * 10  # the host halves its speed at t=10
        self.assertEqual(pace.scaled([(2.0, 1.0), (15.0, 1.0), (19.5, 1.0)]), [1.0, 0.5, 0.5])


class ContractTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in self.bench["end_to_end"]},
            spec.END_TO_END,
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]},
            {name: (unit, better) for name, (unit, better, _) in spec.PER_LAYER.items()},
        )

    def test_workloads_match_benchmark_json(self):
        from workloads import WORKLOADS
        self.assertEqual({w["name"]: w["why"] for w in self.bench["workloads"]}, spec.WORKLOADS)
        self.assertEqual(set(WORKLOADS), set(spec.WORKLOADS))
        for why in spec.WORKLOADS.values():
            self.assertLessEqual(len(why), 200)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            result = subprocess.run(
                [sys.executable, *self.bench["command"][1:], "--workload", "probe", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout, "")


if __name__ == "__main__":
    unittest.main()
