"""What the benchmark reports: its workloads, metrics, and the order statistics
behind them. `BENCHMARK.json` at the repository root carries the same names;
a test keeps the two in step.
"""

from __future__ import annotations

import statistics

WORKLOADS = {
    "ingest": "3k words, pools k_n=40 k_v=12 k_c=8; 4-sentence CoNLL-U batches through iter_conllu, "
              "compile, execute, release_all: the encoder and Network.step do the work",
    "probe": "same lexicon and pools; parse_query and run_query on a fixed 4-sentence board, 80% hits: "
             "the probe's save, step and restore cycle works, the encoder idles",
    "cold-cli": "6k words, same pools; one nba query process per operation after nba encode: structure "
                "build and snapshot restore do the work, the query kernel barely shows",
}

# name -> (unit, better, bound); one operation is a sentence (ingest), a query
# (probe) or an `nba query` process (cold-cli). Times are at reference host
# speed (see calibrate.py). Each bound is at least three times the widest
# spread seen over ten seeds (bench/NOTES.md); set-up gets the widest bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.2),
    "latency_ms_p50": ("ms", "lower", 0.2),
    "latency_ms_p99": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_ON_SETUP = "setup_s on every workload; latency_ms_* on cold-cli"
_ON_INGEST = "ops_per_s and latency_ms_* on ingest"
_ON_STEPS = "latency_ms_* on ingest and probe"
_ON_PROBE = "ops_per_s and latency_ms_* on probe"
_ON_CLI = "latency_ms_* on cold-cli"

FAMILIES = ("agent", "theme", "modifier", "prep", "clause", "sem")
DIRECTIONS = ("fwd", "rev")

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "lexicon.from_tsv_ms": ("ms", "lower", _ON_SETUP),
    "lexicon.load_relations_ms": ("ms", "lower", _ON_SETUP),
    "blackboard.construct_ms": ("ms", "lower", "setup_s and peak_rss_mb on every workload; latency_ms_* on cold-cli"),
    "blackboard.populations": ("count", "lower", "setup_s and peak_rss_mb on every workload"),
    "blackboard.connections": ("count", "lower", "setup_s and peak_rss_mb on every workload"),
    "blackboard.from_snapshot_ms": ("ms", "lower", "latency_ms_* and ops_per_s on cold-cli only"),
    "blackboard.to_snapshot_ms": ("ms", "lower", "setup_s on cold-cli only (nba encode writes the state)"),
    "blackboard.snapshot_bytes": ("bytes", "lower", "setup_s and latency_ms_* on cold-cli only"),
    "blackboard.release_all_us": ("us", "lower", "ops_per_s on ingest"),
    "encoder.parse_us": ("us", "lower", _ON_INGEST),
    "encoder.compile_us": ("us", "lower", _ON_INGEST),
    "encoder.execute_us": ("us", "lower", _ON_INGEST),
    "encoder.instructions_per_sentence": ("count", "lower", _ON_INGEST),
    "encoder.bindings_per_sentence": ("count", "lower", _ON_INGEST),
    "dynamics.step_us": ("us", "lower", _ON_STEPS),
    "dynamics.steps_per_sentence": ("count", "lower", _ON_STEPS),
    "dynamics.steps_per_query": ("count", "lower", _ON_STEPS),
    "dynamics.active_pids": ("count", "lower", _ON_STEPS),
    "query.parse_us": ("us", "lower", _ON_PROBE),
    **{
        f"query.run_us.{fam}.{d}": ("us", "lower", _ON_PROBE)
        for fam in FAMILIES for d in DIRECTIONS
    },
    "query.hit_ratio": ("ratio", "higher", _ON_PROBE),
    "query.answers_per_query": ("count", "higher", _ON_PROBE),
    "cli.interpreter_ms": ("ms", "lower", _ON_CLI),
    "cli.import_ms": ("ms", "lower", _ON_CLI),
    "cli.json_load_ms": ("ms", "lower", _ON_CLI),
}


def p50(values) -> float:
    return statistics.median(values)


def p99(values) -> float:
    """Inclusive 99th percentile; with fewer than 100 samples it lies between
    the two slowest, so read it as the run's tail, not a strict p99."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def metric(name: str, value: float, table=END_TO_END) -> tuple[str, dict]:
    return name, {"value": value, "unit": table[name][0]}
