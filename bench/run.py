#!/usr/bin/env python3
"""nba benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload probe --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from `src/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`
(times at reference host speed, see calibrate.py), the per-layer metrics with
`--trace 1`. The line before it is the run record: interpreter, platform,
commit, workload parameters, error rate, raw times and, when traced, self
time per layer, tracing overhead and what each layer metric should move.
Spans of a traced run are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibrate import Pace, Reference
from spans import Tracer
from spec import PER_LAYER, WORKLOADS as WHY, metric, p50, p99

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 3
UNTRACED_SHARE = 0.25  # of a traced run's seconds, spent untraced to price the tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nba", "__init__.py")):
        print(f"error: no nba sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    from workloads import WORKLOADS, Run  # imports nba, so only once src/ is on the path

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    record = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "workload": workload.name,
        "why": WHY[workload.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "operation": workload.op,
        "params": workload.params,
    }
    reference = Reference()
    run = Run(Pace(reference, workload.reference))
    if args.trace:
        metrics = traced(workload, args.seconds, run, record, reference)
    else:
        setups, setup_pace = [], Pace(reference, "alloc")
        for _ in range(SETUPS):
            workload.bb = None  # so neither the reference nor the next board stacks on it
            setup_pace.now(2)
            start = time.perf_counter()
            workload.setup()
            end = time.perf_counter()
            setups.append((end, end - start))
        warm = Run()
        workload.loop(warm, workload.warmup_s)
        run.absorb_checks(warm)
        workload.loop(run, args.seconds)
        raw = end_to_end([s for _, s in setups], [s for _, s in run.timed], [s for _, s in run.shared])
        metrics = end_to_end(setup_pace.scaled(setups), run.pace.scaled(run.timed), run.pace.scaled(run.shared))
        metrics = dict(metric(name, value) for name, value in metrics.items())
        metrics.update((metric("peak_rss_mb", resource.getrusage(workload.rusage).ru_maxrss / 1024.0),))
        record["raw"] = raw
        record["reference_ms_p50"] = {"setup": 1e3 * p50(setup_pace.samples), "loop": 1e3 * p50(run.pace.samples)}
        record["samples"] = {"setups": len(setups), "operations": len(run.timed),
                             "reference": len(setup_pace.samples) + len(run.pace.samples)}
    record["error_rate"] = run.failed / run.attempted
    record["failures"] = run.failures
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def end_to_end(setups, latencies, shared) -> dict:
    """The timed metrics from seconds per set-up, per operation, and of
    timed work shared by several operations."""
    return {
        "setup_s": p50(setups),
        "ops_per_s": len(latencies) / (sum(latencies) + sum(shared)),
        "latency_ms_p50": 1e3 * p50(latencies),
        "latency_ms_p99": 1e3 * p99(latencies),
    }


def traced(workload, seconds: float, run, record, reference) -> dict:
    """Set up once traced, price the tracing against an untraced stretch of
    the same loop, trace the rest, then fill in what the loop did not reach
    from one pass over every layer."""
    from workloads import Run, layer_pass

    setup_tr, tr = Tracer(), Tracer()
    workload.setup(setup_tr)
    warm = Run()
    workload.loop(warm, workload.warmup_s)
    plain, with_spans = Run(Pace(reference, workload.reference)), Run(Pace(reference, workload.reference))
    workload.loop(plain, seconds * UNTRACED_SHARE)
    workload.loop(with_spans, seconds * (1 - UNTRACED_SHARE), tr)
    for part in (warm, plain, with_spans):
        run.absorb_checks(part)
    workload.bb = None
    gc.collect()

    pass_tr = Tracer()
    doc, triples = workload.pass_corpus()
    layer_pass(workload.inp, doc, triples, run, pass_tr)

    metrics, from_pass = {}, {}
    for name, (unit, _, _) in PER_LAYER.items():
        value = layer_value(tr, name, unit)
        if value is None:
            value = layer_value(setup_tr, name, unit)
        if value is None:
            value = layer_value(pass_tr, name, unit)
            from_pass[name] = (f"{workload.name} operations do not reach it; measured by one traced "
                               "pass over the layer's public functions on this workload's inputs")
        if value is None:
            from_pass[name] = "not measured: the layer pass did not reach it either"
            continue
        metrics.update((metric(name, value, PER_LAYER),))

    ops = max(1, len(with_spans.timed))
    # each operation at reference speed, so host drift between the stretches cancels
    base = p50(plain.pace.scaled(plain.timed))
    spanned = p50(with_spans.pace.scaled(with_spans.timed))
    record["tracing_overhead"] = {
        "untraced_op_us_p50": 1e6 * base,
        "traced_op_us_p50": 1e6 * spanned,
        "overhead_us_per_op": 1e6 * (spanned - base),
        "overhead_pct": 100.0 * (spanned - base) / base,
    }
    record["self_us_per_op"] = {k: 1e6 * v / ops for k, v in sorted(tr.self_seconds().items())}
    record["setup_self_ms"] = {k: 1e3 * v for k, v in sorted(setup_tr.self_seconds().items())}
    record["layer_pass_self_ms"] = {k: 1e3 * v for k, v in sorted(pass_tr.self_seconds().items())}
    record["from_layer_pass"] = from_pass
    record["moves"] = {name: moves for name, (_, _, moves) in PER_LAYER.items()}
    record["samples"] = {"operations": len(with_spans.timed), "untraced_operations": len(plain.timed),
                         "spans": len(tr.spans), "layer_pass_spans": len(pass_tr.spans)}
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-{record['seed']}.jsonl")
    for part, spans in (("setup", setup_tr), ("loop", tr), ("pass", pass_tr)):
        spans.write(path.replace(".jsonl", f"-{part}.jsonl"))
    record["spans_files"] = os.path.relpath(path.replace(".jsonl", "-{setup,loop,pass}.jsonl"), ROOT)
    return metrics


def layer_value(tr, name: str, unit: str):
    """Median span time for a timing metric (count samples of seconds stand
    in where no span fits), mean sample for a count; None if nothing."""
    if unit in ("ms", "us"):
        values = tr.durations(name) or tr.samples.get(name, [])
        if not values:
            return None
        return statistics.median(values) * (1e3 if unit == "ms" else 1e6)
    if name == "dynamics.steps_per_sentence":
        counts = tr.child_counts("encoder.execute_us", "dynamics.step_us")
    elif name == "dynamics.steps_per_query":
        counts = tr.child_counts("query.run_us.", "dynamics.step_us")
    else:
        counts = tr.samples.get(name, [])
    return statistics.fmean(counts) if counts else None


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from `.git` without running git; "unknown"
    when the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
